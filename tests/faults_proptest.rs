//! Property tests for fault injection: arbitrary valid plans must never
//! panic the pipeline, and the exclude gap policy must conserve energy on
//! the windows it keeps.
//!
//! The nightly CI job re-runs this suite with `PROPTEST_CASES=2048`.

use pmss::core::EnergyLedger;
use pmss::faults::{FaultPlan, GapPolicy};
use pmss::pipeline::{ArtifactId, Pipeline, ScalePreset, ScenarioSpec};
use pmss::sched::{catalog, generate, TraceParams};
use pmss::telemetry::{simulate_fleet, FleetConfig};
use proptest::prelude::*;

/// An arbitrary plan over the full validated parameter space, including
/// the pathological corners (total drop, huge negative spikes, deep
/// reorder buffers).  A negative spike's probability is capped where its
/// mean over delivered samples would pass the 44 W a plan may take from
/// each.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (
            0.0..=1.0f64, // drop
            0.0..=0.5f64, // dup
            0.0..=0.2f64, // nan
            0.0..=0.2f64, // spike
            0.0..=0.5f64, // dropout
        ),
        (
            0u64..(1 << 53),     // seed
            0u32..64,            // reorder depth
            -1000.0..=1000.0f64, // spike magnitude
            1u32..50,            // dropout interval
            0.0..=30.0f64,       // clock skew
            0usize..3,           // gap policy
        ),
    )
        .prop_map(
            |((drop, dup, nan, spike, dropout), (seed, depth, w, int, skew, pol))| FaultPlan {
                seed,
                drop_prob: drop,
                dup_prob: dup,
                reorder_depth: depth,
                nan_prob: nan,
                spike_prob: if w < 0.0 { spike.min(44.0 / -w) } else { spike },
                spike_w: w,
                dropout_prob: dropout,
                dropout_windows: int,
                clock_skew_max_s: skew,
                gap_policy: GapPolicy::all()[pol],
            },
        )
}

/// A two-node, ~2.4-hour scenario: big enough to exercise every fault
/// channel, small enough for thousands of proptest cases.
fn tiny_spec(plan: FaultPlan) -> ScenarioSpec {
    let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
    spec.name = "tiny-faulted".to_string();
    spec.nodes = 2;
    spec.days = 0.1;
    spec.freq_caps_mhz = vec![1700.0, 1100.0];
    spec.power_caps_w = vec![560.0, 300.0];
    spec.faults = Some(plan);
    spec
}

proptest! {
    /// Any valid plan runs the fleet-backed artifacts to completion — no
    /// panics, no errors — even when it drops every single sample.
    #[test]
    fn arbitrary_plans_never_panic_pipeline_artifacts(plan in arb_plan()) {
        prop_assert!(plan.validate().is_ok());
        let mut p = Pipeline::new(tiny_spec(plan)).unwrap();
        for id in [ArtifactId::Table4, ArtifactId::Fig8, ArtifactId::Table5] {
            let res = p.artifact(id);
            prop_assert!(res.is_ok(), "{}: {:?}", id.name(), res.err());
        }
    }

    /// Under the exclude policy, drop-style faults only remove windows:
    /// the surviving decomposition never exceeds the clean energy, and
    /// every clean observed second is accounted as observed or excluded.
    #[test]
    fn exclude_policy_conserves_energy_on_covered_windows(
        drop in 0.0..=1.0f64,
        dropout in 0.0..=1.0f64,
        seed in 0u64..(1 << 53),
    ) {
        let schedule = generate(
            TraceParams {
                nodes: 3,
                duration_s: 2.0 * 3600.0,
                seed: 11,
                min_job_s: 900.0,
            },
            &catalog(),
        );
        let clean: EnergyLedger = simulate_fleet(&schedule, &FleetConfig::default());
        let plan = FaultPlan {
            seed,
            drop_prob: drop,
            dropout_prob: dropout,
            dropout_windows: 6,
            gap_policy: GapPolicy::Exclude,
            ..FaultPlan::none()
        };
        let cfg = FleetConfig {
            faults: Some(plan),
            ..FleetConfig::default()
        };
        let faulted: EnergyLedger = simulate_fleet(&schedule, &cfg);

        let (c, f) = (clean.coverage(), faulted.coverage());
        prop_assert_eq!(f.observed_s + f.excluded_s, c.observed_s);
        prop_assert!((0.0..=1.0).contains(&f.fraction()));
        prop_assert!(
            faulted.total().joules <= clean.total().joules * (1.0 + 1e-12),
            "excluding windows must never add energy"
        );
        prop_assert!(faulted.total().seconds <= c.observed_s);
    }
}
