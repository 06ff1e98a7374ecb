//! Metamorphic and differential tests for the fault-injection subsystem.
//!
//! Three relations pin the injector against the clean pipeline:
//!
//! 1. **Differential**: a zero-fault plan must leave the ledger
//!    identical — the clean path IS the pre-fault path.  (On the CLI,
//!    `--faults none` is a spelling in `tests/golden.rs`'s case table.)
//! 2. **Reorder invariance**: delivery permutations within the reorder
//!    bound must not change the decomposition (gap policies are applied at
//!    generation order, before delivery ranking).  Energy sums are only
//!    float-permutation-equal, so they compare under a 1e-9 relative
//!    tolerance; integer-weight tallies (seconds of equal windows) are
//!    exact.
//! 3. **Duplicate collapse**: a duplicate-only plan delivers the clean
//!    stream with adjacent repeats — deduplication recovers it exactly.

mod support;

use pmss::core::EnergyLedger;
use pmss::faults::FaultPlan;
use pmss::sched::{catalog, generate, Schedule, TraceParams};
use pmss::telemetry::{simulate_fleet, FleetConfig, FleetObserver, SampleCtx};
use support::cli_run;

fn tiny_schedule() -> Schedule {
    generate(
        TraceParams {
            nodes: 4,
            duration_s: 4.0 * 3600.0,
            seed: 5,
            min_job_s: 900.0,
        },
        &catalog(),
    )
}

fn faulted_cfg(plan: FaultPlan) -> FleetConfig {
    FleetConfig {
        faults: Some(plan),
        ..FleetConfig::default()
    }
}

/// Collects every delivered GPU sample, bit-exact, in delivery order.
#[derive(Default)]
struct Collector {
    samples: Vec<(u32, u8, u64, u64)>,
}

impl FleetObserver for Collector {
    fn gpu_sample(&mut self, ctx: &SampleCtx<'_>, t_s: f64, power_w: f64) {
        self.samples
            .push((ctx.node, ctx.slot, t_s.to_bits(), power_w.to_bits()));
    }
    fn merge(&mut self, other: Self) {
        self.samples.extend(other.samples);
    }
}

/// A `None` plan and an explicit no-op plan produce bit-identical
/// observers at the library level too.
#[test]
fn noop_plan_equals_no_plan_at_the_library_level() {
    let schedule = tiny_schedule();
    let clean: EnergyLedger = simulate_fleet(&schedule, &FleetConfig::default());
    let noop: EnergyLedger = simulate_fleet(&schedule, &faulted_cfg(FaultPlan::none()));
    assert_eq!(clean.energy_matrix_j(), noop.energy_matrix_j());
    assert_eq!(clean.coverage(), noop.coverage());
}

/// Reordering within the buffer bound leaves the decomposition invariant:
/// the same multiset of samples reaches the same cells, so seconds match
/// exactly and energies match up to float-summation order.
#[test]
fn inbound_reordering_preserves_the_decomposition() {
    let schedule = tiny_schedule();
    let clean: EnergyLedger = simulate_fleet(&schedule, &FleetConfig::default());
    for depth in [1, 4, 16] {
        let plan = FaultPlan {
            reorder_depth: depth,
            ..FaultPlan::none()
        };
        let shuffled: EnergyLedger = simulate_fleet(&schedule, &faulted_cfg(plan));
        assert_eq!(
            clean.coverage(),
            shuffled.coverage(),
            "coverage drift at reorder depth {depth}"
        );
        for (region, (a, b)) in clean
            .region_totals()
            .iter()
            .zip(shuffled.region_totals())
            .enumerate()
        {
            assert_eq!(a.seconds, b.seconds, "region {region} seconds");
            let rel = (a.joules - b.joules).abs() / a.joules.max(1.0);
            assert!(
                rel < 1e-9,
                "region {region} energy drift {rel} at depth {depth}"
            );
        }
    }
}

/// A duplicate-only plan delivers each duplicated sample immediately after
/// the original: removing adjacent repeats recovers the clean stream
/// bit-for-bit.
#[test]
fn duplicate_only_plans_collapse_to_the_clean_stream() {
    let schedule = tiny_schedule();
    let clean: Collector = simulate_fleet(&schedule, &FleetConfig::default());
    let plan = FaultPlan {
        dup_prob: 0.2,
        ..FaultPlan::none()
    };
    let mut duped: Collector = simulate_fleet(&schedule, &faulted_cfg(plan));
    assert!(
        duped.samples.len() > clean.samples.len(),
        "a 20% duplication plan must actually duplicate"
    );
    duped.samples.dedup();
    assert_eq!(clean.samples, duped.samples);
}

/// The same faulted scenario computed twice — fresh pipelines, fresh
/// caches — renders bit-identical bytes (fault decisions are
/// counter-based hashes, never draws from a shared RNG stream, so they
/// cannot depend on iteration order).
#[test]
fn faulted_runs_are_deterministic_across_repeat_runs() {
    let argv = ["faults", "--scale", "quick", "--json", "--metrics"];
    let (a, b) = (cli_run(&argv), cli_run(&argv));
    // The run manifest carries wall times; compare everything before it.
    let cut = |s: &str| s.split("\"run\"").next().unwrap().to_string();
    assert_eq!(cut(&a), cut(&b));
    assert_ne!(cut(&a), "");
}
