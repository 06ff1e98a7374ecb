//! Property tests for heterogeneous fleets: arbitrary SKU mixes —
//! including indices past the catalog and past [`MAX_SKUS`] — never
//! panic, the per-SKU ledger lanes and the per-component split both
//! conserve device energy, and the streaming and compressed-resident
//! paths stay bit-identical to the batch decomposition under any mix.
//!
//! Failing case seeds persist to `tests/proptest-regressions/` (see
//! `vendor/proptest`) and replay before fresh cases on every run.

use proptest::prelude::*;

use pmss::core::EnergyLedger;
use pmss::faults::{FaultPlan, GapPolicy};
use pmss::gpu::{FleetMix, SkuCatalog};
use pmss::sched::{catalog, generate, Schedule, TraceParams};
use pmss::stream::{StreamConfig, StreamEngine};
use pmss::telemetry::{fleet_window_blocks, simulate_fleet, FleetConfig, ResidentFleet};

/// A small-but-real trace: enough channels and windows to exercise every
/// event kind while keeping the per-property case budget fast.
fn small_schedule(nodes: usize, hours: u64, seed: u64) -> Schedule {
    generate(
        TraceParams {
            nodes,
            duration_s: hours as f64 * 3600.0,
            seed,
            min_job_s: 900.0,
        },
        &catalog(),
    )
}

/// Strategy for an arbitrary node-class pattern: raw bytes, so indices
/// beyond the standard catalog (wrapped by [`SkuCatalog::spec`]) and
/// beyond [`MAX_SKUS`] (clamped by [`FleetMix::new`]) are both routine.
fn arb_mix() -> impl Strategy<Value = FleetMix> {
    prop::collection::vec(0u8..=u8::MAX, 1..8).prop_map(FleetMix::new)
}

/// Strategy for an arbitrary (not preset) fault plan.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (0.0..0.15f64, 0.0..0.15f64, 0.0..0.05f64, 0.0..0.05f64),
        (0u32..5, 0.0..400.0f64, 0.0..0.03f64, 1u32..8),
        (0.0..5.0f64, 0usize..3, 0u64..1 << 32),
    )
        .prop_map(
            |(
                (drop_prob, dup_prob, nan_prob, spike_prob),
                (reorder_depth, spike_w, dropout_prob, dropout_windows),
                (clock_skew_max_s, policy, seed),
            )| FaultPlan {
                seed,
                drop_prob,
                dup_prob,
                reorder_depth,
                nan_prob,
                spike_prob,
                spike_w,
                dropout_prob,
                dropout_windows,
                clock_skew_max_s,
                gap_policy: GapPolicy::all()[policy],
            },
        )
}

/// Relative-tolerance equality for energy/time sums: `1e-9` relative,
/// absolute below one joule-or-second so empty lanes compare cleanly.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn materialize(schedule: &Schedule, cfg: &FleetConfig) -> Vec<pmss::telemetry::WindowEvent> {
    let mut events = Vec::new();
    fleet_window_blocks(schedule, cfg, |b| events.extend(b.iter()));
    events
}

proptest! {
    /// Any mix simulates without panicking, and the ledger's bookkeeping
    /// conserves energy twice over: the per-SKU GPU lanes sum to the
    /// region totals (and the per-SKU rest lanes to the rest total), and
    /// splitting each SKU's regional energy through its component
    /// fractions reassembles the device total — per region the fractions
    /// are a partition of unity by construction.
    #[test]
    fn arbitrary_mixes_conserve_energy_through_sku_and_component_lanes(
        mix in arb_mix(),
        nodes in 1usize..5,
        hours in 1u64..3,
        trace_seed in 0u64..1 << 32,
    ) {
        let schedule = small_schedule(nodes, hours, trace_seed);
        let cfg = FleetConfig { mix, ..FleetConfig::default() };
        let ledger: EnergyLedger = simulate_fleet(&schedule, &cfg);
        let catalog = SkuCatalog::standard();

        // SKU lanes partition the fleet: summing them recovers the
        // region totals and the rest-of-node total.
        let regions = ledger.region_totals();
        let mut lane_j = vec![0.0f64; regions.len()];
        let mut lane_s = vec![0.0f64; regions.len()];
        let mut rest_j = 0.0f64;
        for sku in 0..ledger.num_skus() {
            for (region, cell) in ledger.sku_gpu_totals(sku).iter().enumerate() {
                lane_j[region] += cell.joules;
                lane_s[region] += cell.seconds;
            }
            rest_j += ledger.sku_rest_total(sku).joules;
        }
        for (region, cell) in regions.iter().enumerate() {
            prop_assert!(
                close(lane_j[region], cell.joules) && close(lane_s[region], cell.seconds),
                "SKU lanes leak in region {region}: {} J vs {} J",
                lane_j[region],
                cell.joules
            );
        }
        prop_assert!(close(rest_j, ledger.rest_total().joules));

        // Component fractions split each SKU's regional energy without
        // loss: HBM + L2 + ALU + clock tree reassemble the device total.
        for sku in 0..ledger.num_skus() {
            let spec = catalog.spec(sku as u8);
            let sku_regions = ledger.sku_gpu_totals(sku);
            let device_j: f64 = sku_regions.iter().map(|c| c.joules).sum();
            let mut lanes = [0.0f64; 4];
            for (region, cell) in sku_regions.iter().enumerate() {
                let fractions = spec.region_component_fractions(region);
                prop_assert!(
                    (fractions.iter().sum::<f64>() - 1.0).abs() < 1e-12,
                    "fractions of sku {sku} region {region} are not a partition of unity"
                );
                for (lane, f) in lanes.iter_mut().zip(fractions) {
                    *lane += cell.joules * f;
                }
            }
            let split_j: f64 = lanes.iter().sum();
            prop_assert!(
                close(split_j, device_j),
                "component split of sku {sku} leaks: {split_j} J vs {device_j} J"
            );
        }
    }

    /// Under any mix the other ingestion paths hold their contracts
    /// against the batch decomposition: streaming ingest of the in-order
    /// event stream is bit-identical, and compressed-resident
    /// capture/replay is deterministic with bit-exact time coverage and
    /// energy within the codec's half-quantum bound (power is quantized
    /// at 1 W on capture — the sensor's own resolution).
    #[test]
    fn stream_and_resident_replay_match_batch_under_any_mix(
        mix in arb_mix(),
        nodes in 1usize..4,
        hours in 1u64..3,
        trace_seed in 0u64..1 << 32,
    ) {
        let schedule = small_schedule(nodes, hours, trace_seed);
        let cfg = FleetConfig { mix, ..FleetConfig::default() };
        let batch: EnergyLedger = simulate_fleet(&schedule, &cfg);

        let mut eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&schedule, StreamConfig::default()).expect("valid config");
        for ev in materialize(&schedule, &cfg) {
            eng.ingest(ev).expect("in-order delivery is accepted");
        }
        let (streamed, _) = eng.finish();
        prop_assert_eq!(&streamed, &batch);

        let resident = ResidentFleet::capture(&schedule, &cfg).expect("capture");
        let replayed: EnergyLedger = resident.replay(&schedule).expect("replay");
        let again: EnergyLedger = resident.replay(&schedule).expect("replay");
        prop_assert_eq!(&again, &replayed, "replay is deterministic");

        let (bc, rc) = (batch.coverage(), replayed.coverage());
        prop_assert_eq!(bc.observed_s.to_bits(), rc.observed_s.to_bits());
        prop_assert_eq!(bc.interpolated_s.to_bits(), rc.interpolated_s.to_bits());
        prop_assert_eq!(bc.excluded_s.to_bits(), rc.excluded_s.to_bits());
        prop_assert_eq!(bc.discarded_s.to_bits(), rc.discarded_s.to_bits());
        let tol = 0.5 * (bc.observed_s + bc.interpolated_s + bc.attributed_idle_s);
        let diff = (batch.total().joules - replayed.total().joules).abs();
        prop_assert!(
            diff <= tol,
            "replay energy drift {diff} J exceeds quantization bound {tol} J"
        );
    }

    /// Mixed fleets compose with arbitrary fault plans: the faulted,
    /// mixed stream still never panics, and the reorder-buffered engine
    /// still lands exactly on the batch ledger.
    #[test]
    fn faulted_mixed_streams_never_panic_and_match_batch(
        mix in arb_mix(),
        plan in arb_plan(),
        nodes in 1usize..4,
        trace_seed in 0u64..1 << 32,
    ) {
        let schedule = small_schedule(nodes, 2, trace_seed);
        let cfg = FleetConfig {
            mix,
            faults: (!plan.is_noop()).then(|| plan.clone()),
            ..FleetConfig::default()
        };
        let batch: EnergyLedger = simulate_fleet(&schedule, &cfg);

        let mut eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&schedule, StreamConfig::for_plan(cfg.faults.as_ref()))
                .expect("valid config");
        for ev in materialize(&schedule, &cfg) {
            eng.ingest(ev).expect("plan-sized horizon accepts the stream");
        }
        let (streamed, stats) = eng.finish();
        prop_assert_eq!(&streamed, &batch);
        prop_assert_eq!(stats.late_rejects, 0);
    }
}
