//! Property tests for the online cluster governor: arbitrary plans —
//! valid or not — never panic, every accepted run keeps the cluster
//! budget invariant, and plan validation is exactly the boundary between
//! typed errors and successful replays.
//!
//! Failing case seeds persist to `tests/proptest-regressions/` (see
//! `vendor/proptest`) and replay before fresh cases on every run.

use proptest::prelude::*;

use pmss_govern::{run_governor, GovernorPlan, Policy};
use pmss_sched::Schedule;
use pmss_stream::{EventRun, StreamConfig};
use pmss_telemetry::{WindowEvent, WindowKind};
use pmss_workloads::sweep::CapSetting;
use pmss_workloads::table3::{Table3, Table3Row};
use pmss_workloads::Factors;

const WINDOW_S: f64 = 15.0;
const GPUS_PER_NODE: u8 = 4;

fn schedule(nodes: usize) -> Schedule {
    Schedule {
        jobs: Vec::new(),
        per_node: vec![Vec::new(); nodes],
        duration_s: 3600.0,
    }
}

/// A small factor table with one free frequency cap and a power-throttle
/// ladder, shaped like the measured Table 3.
fn table() -> Table3 {
    let f = |power, runtime, energy| Factors {
        power_pct: power,
        runtime_pct: runtime,
        energy_pct: energy,
    };
    Table3 {
        freq_rows: vec![
            Table3Row {
                setting: CapSetting::FreqMhz(1700.0),
                vai: f(100.0, 100.0, 100.0),
                mb: f(100.0, 100.0, 100.0),
            },
            Table3Row {
                setting: CapSetting::FreqMhz(700.0),
                vai: f(60.0, 140.0, 84.0),
                mb: f(88.0, 100.0, 88.0),
            },
        ],
        power_rows: vec![
            Table3Row {
                setting: CapSetting::PowerW(560.0),
                vai: f(100.0, 100.0, 100.0),
                mb: f(100.0, 100.0, 100.0),
            },
            Table3Row {
                setting: CapSetting::PowerW(300.0),
                vai: f(55.0, 160.0, 88.0),
                mb: f(90.0, 102.0, 91.8),
            },
            Table3Row {
                setting: CapSetting::PowerW(100.0),
                vai: f(20.0, 400.0, 80.0),
                mb: f(40.0, 200.0, 80.0),
            },
        ],
    }
}

/// In-order steady telemetry with a per-channel power level chosen by a
/// seeded hash, so different seeds exercise different mode mixes (latency,
/// memory-intensive, compute-intensive, boost).
fn events(nodes: u32, windows: u64, seed: u64) -> Vec<WindowEvent> {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    let levels = [120.0, 300.0, 500.0, 600.0];
    let mut evs = Vec::new();
    for w in 0..windows {
        for n in 0..nodes {
            for s in 0..GPUS_PER_NODE {
                // Channels hold a level for 8-window stretches so the
                // classifier sees coherent phases, not white noise.
                let h = mix(seed ^ (u64::from(n) << 24) ^ (u64::from(s) << 16) ^ (w / 8));
                evs.push(WindowEvent {
                    node: n,
                    slot: s,
                    sku: 0,
                    window: w,
                    rank: w,
                    t_s: w as f64 * WINDOW_S,
                    span_s: WINDOW_S,
                    kind: WindowKind::Sample {
                        power_w: levels[(h % 4) as usize],
                        job: None,
                    },
                });
            }
        }
    }
    evs
}

/// Strategy over the full plan surface, including out-of-range values:
/// zero intervals, rates and thresholds outside (0, 1], inverted floor
/// and ceiling, negative budgets, non-finite caps.
fn arb_plan() -> impl Strategy<Value = GovernorPlan> {
    (
        (0usize..3, 0u32..5, 0u32..4),
        (-0.5..1.5f64, -0.5..1.5f64, -0.5..1.5f64, -0.5..1.5f64),
        (100.0..3000.0f64, 100.0..3000.0f64),
        (0usize..4, 500.0..200_000.0f64),
        0usize..5,
    )
        .prop_map(
            |(
                (policy, interval_windows, hysteresis_rounds),
                (increase_rate, decrease_rate, lower_thresh, upper_thresh),
                (node_floor_w, node_ceiling_w),
                (budget_kind, budget),
                cap_kind,
            )| GovernorPlan {
                policy: Policy::all()[policy],
                budget_w: match budget_kind {
                    0 => None,
                    1 => Some(budget),
                    2 => Some(-1.0),
                    _ => Some(f64::NAN),
                },
                interval_windows,
                increase_rate,
                decrease_rate,
                lower_thresh,
                upper_thresh,
                hysteresis_rounds,
                node_floor_w,
                node_ceiling_w,
                cap: match cap_kind {
                    0 => None,
                    1 => Some(CapSetting::FreqMhz(700.0)),
                    2 => Some(CapSetting::PowerW(300.0)),
                    3 => Some(CapSetting::FreqMhz(f64::INFINITY)),
                    _ => Some(CapSetting::PowerW(0.0)),
                },
            },
        )
}

/// Strategy constrained to plans `validate()` accepts: every field drawn
/// from its documented legal range.
fn valid_plan() -> impl Strategy<Value = GovernorPlan> {
    (
        (0usize..3, 1u32..5, 0u32..4),
        (0.01..1.0f64, 0.01..1.0f64, 0.05..0.9f64, 0.0..0.09f64),
        (200.0..1000.0f64, 0.0..2000.0f64),
        0usize..3,
    )
        .prop_map(
            |(
                (policy, interval_windows, hysteresis_rounds),
                (increase_rate, decrease_rate, lower_thresh, thresh_gap),
                (node_floor_w, ceiling_extra),
                cap_kind,
            )| GovernorPlan {
                policy: Policy::all()[policy],
                budget_w: None,
                interval_windows,
                increase_rate,
                decrease_rate,
                lower_thresh,
                upper_thresh: lower_thresh + thresh_gap,
                hysteresis_rounds,
                node_floor_w,
                node_ceiling_w: node_floor_w + ceiling_extra,
                cap: match cap_kind {
                    0 => None,
                    1 => Some(CapSetting::FreqMhz(700.0)),
                    _ => Some(CapSetting::PowerW(300.0)),
                },
            },
        )
}

proptest! {
    /// Any plan over the full field surface either resolves and replays
    /// cleanly or fails with a typed error — never a panic.  Every
    /// accepted replay keeps `sum(node caps) <= budget` at all times.
    #[test]
    fn arbitrary_plans_never_panic_and_never_exceed_the_budget(
        plan in arb_plan(),
        nodes in 1u32..5,
        windows in 1u64..40,
        seed in 0u64..1 << 32,
    ) {
        let sched = schedule(nodes as usize);
        let t3 = table();
        let run = EventRun::new(events(nodes, windows, seed)).expect("delivery order");
        let cfg = StreamConfig::default();
        match plan.resolve(nodes as usize, CapSetting::FreqMhz(700.0)) {
            Err(_) => {} // typed rejection is the correct outcome
            Ok(resolved) => {
                let out = run_governor(&sched, &run, cfg, &[resolved], &t3, WINDOW_S)
                    .expect("a resolved plan replays")
                    .remove(0);
                prop_assert!(!out.budget_exceeded, "cluster budget exceeded");
                prop_assert!(
                    out.peak_budget_utilization <= 1.0 + 1e-9,
                    "peak utilization {} above budget",
                    out.peak_budget_utilization
                );
                prop_assert!(out.realized_pct().is_finite());
                prop_assert!(out.slowdown_pct().is_finite());
            }
        }
    }

    /// Valid plans always replay, and the replay is a pure function of its
    /// inputs: running twice yields identical outcomes.
    #[test]
    fn valid_plans_replay_deterministically(
        plan in valid_plan(),
        nodes in 1u32..5,
        windows in 1u64..40,
        seed in 0u64..1 << 32,
    ) {
        let sched = schedule(nodes as usize);
        let t3 = table();
        let run = EventRun::new(events(nodes, windows, seed)).expect("delivery order");
        let cfg = StreamConfig::default();
        let resolved = plan
            .resolve(nodes as usize, CapSetting::FreqMhz(700.0))
            .expect("valid plans resolve against any non-empty fleet");
        let plans = [resolved];
        let a = run_governor(&sched, &run, cfg, &plans, &t3, WINDOW_S).expect("replays");
        let b = run_governor(&sched, &run, cfg, &plans, &t3, WINDOW_S).expect("replays");
        prop_assert_eq!(a, b);
    }

    /// The static policy is the savings ceiling among same-cap policies:
    /// capping everything always realizes at least as much energy as mode
    /// capping, which in turn never realizes more than the table's best
    /// case allows (savings stay inside [0, 100)%).
    #[test]
    fn static_realizes_at_least_as_much_as_the_online_policies(
        nodes in 1u32..5,
        windows in 4u64..40,
        seed in 0u64..1 << 32,
    ) {
        let sched = schedule(nodes as usize);
        let t3 = table();
        let run = EventRun::new(events(nodes, windows, seed)).expect("delivery order");
        let cfg = StreamConfig::default();
        let mut saved = Vec::new();
        for name in pmss_govern::PRESETS {
            let resolved = GovernorPlan::preset(name)
                .expect("preset")
                .resolve(nodes as usize, CapSetting::FreqMhz(700.0))
                .expect("resolves");
            let out = run_governor(&sched, &run, cfg, &[resolved], &t3, WINDOW_S)
                .expect("replays")
                .remove(0);
            prop_assert!((0.0..100.0).contains(&out.realized_pct()));
            saved.push(out.saved_j());
        }
        // saved[0] is `static`; the online policies cap a subset of the
        // windows the static policy caps, with the same factor table.
        prop_assert!(saved[1] <= saved[0] + 1e-9, "greedy out-saved static");
        prop_assert!(saved[2] <= saved[0] + 1e-9, "polimer out-saved static");
    }
}
