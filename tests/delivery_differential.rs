//! Oracle suite for delivery order: `DeliveryTrace`'s tiled counting merge
//! yields exactly the sequence the naive construction does — flatten every
//! channel block into one `Vec<WindowEvent>` and comparison-sort it by
//! `(rank, node, slot, window)`.  The naive construction lives only here,
//! as the reference the production path is compared to event for event.
//!
//! The same cases pin the one-generation path: the run that retains the
//! trace folds every fleet-stage observer and tallies its statistics
//! exactly as a run that retains nothing.
//!
//! Failing proptest seeds persist to `tests/proptest-regressions/` (see
//! `vendor/proptest`) and replay before fresh cases on every run.

use proptest::prelude::*;

use pmss_core::EnergyLedger;
use pmss_econ::EconSeries;
use pmss_faults::{FaultPlan, GapPolicy, PRESETS};
use pmss_govern::{run_governor, GovernorPlan};
use pmss_gpu::FleetMix;
use pmss_pipeline::spec::{ScalePreset, ScenarioSpec};
use pmss_sched::{catalog, generate, Schedule, TraceParams};
use pmss_stream::{EventRun, StreamConfig};
use pmss_telemetry::{
    fleet_window_blocks, simulate_fleet_metered, DeliveryTrace, DomainHistograms, FleetConfig,
    GapFill, Pair, SystemHistogram, WindowEvent, WindowKind,
};
use pmss_workloads::sweep::CapSetting;
use pmss_workloads::table3;

/// The oracle: one run's events materialized and comparison-sorted into
/// delivery order (what the `stream`/`govern` artifacts did before the
/// merge).
fn delivery_ordered_events(schedule: &Schedule, cfg: &FleetConfig) -> Vec<WindowEvent> {
    let mut events = Vec::new();
    fleet_window_blocks(schedule, cfg, |b| events.extend(b.iter()));
    events.sort_unstable_by(|a, b| {
        (a.rank, a.node, a.slot, a.window).cmp(&(b.rank, b.node, b.slot, b.window))
    });
    events
}

/// `a == b`, except that floats compare by bit pattern so a NaN glitch
/// equals itself (and `-0.0` does not pass for `0.0`).
fn identical(a: &WindowEvent, b: &WindowEvent) -> bool {
    fn kind_bits(kind: WindowKind) -> (u8, u64, Option<usize>) {
        match kind {
            WindowKind::Sample { power_w, job } => (0, power_w.to_bits(), job),
            WindowKind::Gap { fill, job } => match fill {
                GapFill::Excluded => (1, 0, job),
                GapFill::Interpolated(w) => (2, w.to_bits(), job),
                GapFill::Idle(w) => (3, w.to_bits(), job),
            },
            WindowKind::NodeRest { rest_w } => (4, rest_w.to_bits(), None),
        }
    }
    (a.node, a.slot, a.sku, a.window, a.rank) == (b.node, b.slot, b.sku, b.window, b.rank)
        && a.t_s.to_bits() == b.t_s.to_bits()
        && a.span_s.to_bits() == b.span_s.to_bits()
        && kind_bits(a.kind) == kind_bits(b.kind)
}

/// Every observer a fleet stage run folds, in one pair: the ledger and
/// series of the stage, and the histograms of Figs. 8 and 9.
type StageObs = Pair<Pair<SystemHistogram, DomainHistograms>, Pair<EnergyLedger, EconSeries>>;

/// Captures the run *while folding every fleet-stage observer*, merges
/// it, and checks sequence, length and last rank against the oracle — and
/// the folded observers and run statistics against a run that retains
/// nothing.  Returns the event count so callers can assert a scenario
/// really has the shape it was built for.
#[track_caller]
fn assert_merge_equals_sort(schedule: &Schedule, cfg: &FleetConfig, ctx: &str) -> usize {
    let oracle = delivery_ordered_events(schedule, cfg);
    let (trace, obs, stats) =
        DeliveryTrace::capture_folding::<StageObs>(schedule, cfg).expect("capture");
    assert_eq!(trace.len(), oracle.len(), "{ctx}: len");
    assert_eq!(
        trace.last_rank(),
        oracle.iter().map(|ev| ev.rank).max().unwrap_or(0),
        "{ctx}: last_rank"
    );
    for (i, (got, want)) in trace.iter().zip(&oracle).enumerate() {
        assert!(
            identical(&got, want),
            "{ctx}: event {i} differs: merge {got:?}, sort {want:?}"
        );
    }
    // A second pass over the same trace, which also catches a merge that
    // ends early (the zip above would stop with it).
    assert_eq!(trace.iter().count(), oracle.len(), "{ctx}: event count");
    // In-order blocks keep no lag column.
    let row_bytes = trace.retained_bytes() as f64 / oracle.len().max(1) as f64;
    let reorders = cfg.faults.as_ref().is_some_and(|p| p.reorder_depth > 0);
    assert!(
        row_bytes <= if reorders { 19.5 } else { 17.5 },
        "{ctx}: {row_bytes} B/row"
    );

    // The traced run is the untraced run plus a capture.
    let (want, want_stats) = simulate_fleet_metered::<StageObs>(schedule, cfg);
    assert_eq!(stats, want_stats, "{ctx}: run stats");
    assert_eq!(obs.b.a, want.b.a, "{ctx}: ledger");
    assert_eq!(obs.b.b, want.b.b, "{ctx}: econ series");
    assert_eq!(obs.a.a.hist, want.a.a.hist, "{ctx}: system histogram");
    assert_eq!(obs.a.b.len(), want.a.b.len(), "{ctx}: domains");
    for d in 0..want.a.b.len() {
        assert_eq!(obs.a.b.domain(d), want.a.b.domain(d), "{ctx}: domain {d}");
    }
    oracle.len()
}

fn faulted(plan: FaultPlan) -> FleetConfig {
    plan.validate().expect("test plans are valid");
    FleetConfig {
        faults: (!plan.is_noop()).then_some(plan),
        ..FleetConfig::default()
    }
}

fn small_schedule(nodes: usize, duration_s: f64, seed: u64) -> Schedule {
    generate(
        TraceParams {
            nodes,
            duration_s,
            seed,
            min_job_s: 900.0,
        },
        &catalog(),
    )
}

/// Idle nodes over an arbitrary (even sub-window) duration.
fn idle_schedule(nodes: usize, duration_s: f64) -> Schedule {
    Schedule {
        jobs: Vec::new(),
        per_node: vec![Vec::new(); nodes],
        duration_s,
    }
}

#[test]
fn merge_equals_sort_on_quick_for_every_preset_and_gap_policy() {
    let spec = ScenarioSpec::preset(ScalePreset::Quick);
    let schedule = generate(spec.trace_params(), &catalog());
    for preset in PRESETS {
        let base = FaultPlan::preset(preset).expect("known preset");
        if base.is_noop() {
            assert_merge_equals_sort(&schedule, &faulted(base), "quick/clean");
            continue;
        }
        for gap_policy in GapPolicy::all() {
            let plan = FaultPlan {
                gap_policy,
                ..base.clone()
            };
            let ctx = format!("quick/{preset}/{}", gap_policy.name());
            assert_merge_equals_sort(&schedule, &faulted(plan), &ctx);
        }
    }
}

#[test]
fn sku_mixed_fleet_keeps_the_sku_byte() {
    let mixed = |faults: Option<FaultPlan>| FleetConfig {
        mix: FleetMix::preset("mixed-50-50").expect("known mix"),
        faults,
        ..FleetConfig::default()
    };
    let spec = ScenarioSpec::preset(ScalePreset::Quick);
    let schedule = generate(spec.trace_params(), &catalog());
    assert_merge_equals_sort(&schedule, &mixed(None), "quick/mixed");
    let cfg = mixed(Some(FaultPlan::preset("harsh").expect("known preset")));
    let skus: std::collections::BTreeSet<u8> =
        DeliveryTrace::capture_folding::<()>(&schedule, &cfg)
            .expect("capture")
            .0
            .iter()
            .map(|ev| ev.sku)
            .collect();
    assert!(skus.len() > 1, "one SKU only: {skus:?}");
    assert_merge_equals_sort(&small_schedule(4, 3.0 * 3600.0, 6), &cfg, "mixed/harsh");
}

#[test]
fn in_order_faulted_plan_elides_the_lag_column() {
    // `mild` duplicates, drops and glitches but never reorders: every
    // block's ranks equal its windows, duplicates included.
    let plan = FaultPlan::preset("mild").expect("known preset");
    assert_eq!(plan.reorder_depth, 0);
    let cfg = faulted(plan);
    let schedule = small_schedule(3, 6.0 * 3600.0, 8);
    let n = assert_merge_equals_sort(&schedule, &cfg, "mild");
    let trace = DeliveryTrace::capture_folding::<()>(&schedule, &cfg)
        .expect("capture")
        .0;
    assert!(n > 3 * 5 * 6 * 240, "duplicates delivered");
    assert_eq!(trace.retained_bytes(), 17 * n);
}

#[test]
fn reorder_depth_wider_than_a_tile() {
    // Every channel's rows for one tile of ranks come from windows up to
    // 300 back, and rows of one window land in up to three tiles.
    let plan = FaultPlan {
        seed: 11,
        reorder_depth: 300,
        dup_prob: 0.1,
        drop_prob: 0.05,
        ..FaultPlan::none()
    };
    assert_merge_equals_sort(&small_schedule(3, 4.0 * 3600.0, 5), &faulted(plan), "deep");
}

#[test]
fn duplicates_straddling_tile_edges() {
    // Half of all deliveries arrive twice: equal-key neighbours sit on
    // both sides of every tile boundary.
    let plan = FaultPlan {
        seed: 3,
        dup_prob: 0.5,
        reorder_depth: 2,
        nan_prob: 0.05,
        ..FaultPlan::none()
    };
    assert_merge_equals_sort(&small_schedule(2, 3.0 * 3600.0, 9), &faulted(plan), "dups");
}

#[test]
fn whole_node_dropouts_leave_channels_without_rows_in_a_tile() {
    // Dropout intervals of 400 windows span three tiles, during which the
    // node's rest channel contributes no row at all.
    let plan = FaultPlan {
        seed: 7,
        dropout_prob: 0.5,
        dropout_windows: 400,
        reorder_depth: 4,
        ..FaultPlan::none()
    };
    let schedule = small_schedule(4, 8.0 * 3600.0, 2);
    assert_merge_equals_sort(&schedule, &faulted(plan.clone()), "dropout");
    // Every interval dropped: the rest channels are empty blocks.
    let all = FaultPlan {
        dropout_prob: 1.0,
        ..plan
    };
    let n = assert_merge_equals_sort(&schedule, &faulted(all), "dropout/all");
    assert_eq!(n, 4 * 4 * 8 * 240, "only the GPU channels' gap records");
}

#[test]
fn sparse_ranks_leave_whole_tiles_empty() {
    // Four windows per channel, each delivered up to 4096 ranks late: most
    // 128-rank tiles between the first and the last delivery hold nothing.
    let plan = FaultPlan {
        seed: 13,
        reorder_depth: 4096,
        ..FaultPlan::none()
    };
    let cfg = faulted(plan);
    let schedule = idle_schedule(1, 60.0);
    let n = assert_merge_equals_sort(&schedule, &cfg, "sparse");
    assert_eq!(n, 5 * 4);
    let trace = DeliveryTrace::capture_folding::<()>(&schedule, &cfg)
        .expect("capture")
        .0;
    assert!(trace.last_rank() > 1024);
}

#[test]
fn partial_tail_window_and_single_node() {
    // 2 h + 7 s: window 480 is a 7 s tail on every channel.
    let schedule = small_schedule(1, 2.0 * 3600.0 + 7.0, 4);
    let n = assert_merge_equals_sort(&schedule, &FleetConfig::default(), "tail/clean");
    assert_eq!(n, 5 * 481);
    let plan = FaultPlan::preset("harsh").expect("known preset");
    assert_merge_equals_sort(&schedule, &faulted(plan), "tail/harsh");
}

#[test]
fn empty_run_yields_nothing() {
    let schedule = idle_schedule(2, 0.0);
    let n = assert_merge_equals_sort(&schedule, &FleetConfig::default(), "empty");
    assert_eq!(n, 0);
}

/// The governor sees the same run whether it is handed the captured trace
/// or the flatten-and-sort oracle's events.
#[test]
fn governor_outcome_is_the_same_from_the_trace_and_from_the_oracle() {
    let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
    spec.faults = Some(FaultPlan::preset("frontier-typical").expect("known preset"));
    let schedule = generate(spec.trace_params(), &catalog());
    let cfg = FleetConfig {
        faults: spec.faults.clone(),
        ..FleetConfig::default()
    };
    let t3 = table3::compute_default();
    let stream_cfg = StreamConfig::for_plan(cfg.faults.as_ref());
    let oracle = EventRun::new(delivery_ordered_events(&schedule, &cfg)).expect("sorted");
    let trace = DeliveryTrace::capture_folding::<()>(&schedule, &cfg)
        .expect("capture")
        .0;
    for preset in pmss_govern::PRESETS {
        let resolved = GovernorPlan::preset(preset)
            .expect("known preset")
            .resolve(spec.nodes, CapSetting::FreqMhz(900.0))
            .expect("resolves");
        let from_trace = run_governor(
            &schedule,
            &trace,
            stream_cfg,
            std::slice::from_ref(&resolved),
            &t3,
            cfg.window_s,
        )
        .expect("replays")
        .remove(0);
        let from_oracle = run_governor(
            &schedule,
            &oracle,
            stream_cfg,
            std::slice::from_ref(&resolved),
            &t3,
            cfg.window_s,
        )
        .expect("replays")
        .remove(0);
        assert_eq!(from_trace, from_oracle, "{preset}");
        assert!(from_trace.rounds > 0);
    }
}

/// Strategy for an arbitrary valid fault plan, reaching reorder depths on
/// both sides of the tile width.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (0.0..0.3f64, 0.0..0.6f64, 0.0..0.05f64, 0.0..0.05f64),
        (0u32..400, 0.0..400.0f64, 0.0..0.5f64, 1u32..600),
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

proptest! {
    #[test]
    fn merge_equals_sort_for_arbitrary_plans(
        plan in arb_plan(),
        nodes in 1usize..7,
        minutes in 1u64..180,
        trace_seed in 0u64..1 << 32,
    ) {
        // Whole minutes plus 7 s: durations that are and are not multiples
        // of the 15 s window both occur (60 s is four windows, +7 is not).
        let duration_s = minutes as f64 * 60.0 + if trace_seed % 2 == 0 { 7.0 } else { 0.0 };
        let schedule = small_schedule(nodes, duration_s, trace_seed);
        assert_merge_equals_sort(&schedule, &faulted(plan), "proptest");
    }
}
