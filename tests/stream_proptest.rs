//! Property tests for the streaming ingest engine: arbitrary fault plans
//! and delivery orderings never panic, snapshots are prefix-monotone, the
//! reorder buffer honours its declared memory bound, and late arrivals
//! are rejected with a typed error instead of corrupting state.
//!
//! Failing case seeds persist to `tests/proptest-regressions/` (see
//! `vendor/proptest`) and replay before fresh cases on every run.

use proptest::prelude::*;

use pmss_core::EnergyLedger;
use pmss_faults::{FaultPlan, GapPolicy};
use pmss_sched::{catalog, generate, Schedule, TraceParams};
use pmss_stream::{StreamConfig, StreamEngine, StreamError};
use pmss_telemetry::{fleet_window_blocks, simulate_fleet, FleetConfig, WindowEvent};

/// A small-but-real trace: enough channels and windows to exercise every
/// event kind while keeping 64 cases per property fast.
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

/// Deterministic within-horizon shuffle keyed by `salt`: each event's
/// sort key gains a pseudo-random lag in `[0, slack]`.
fn shuffle_within(events: &[WindowEvent], slack: u64, salt: u64) -> Vec<WindowEvent> {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    let mut keyed: Vec<(u64, usize, WindowEvent)> = events
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            let h = mix(salt ^ (ev.node as u64) << 40 ^ (ev.slot as u64) << 32 ^ ev.window);
            (ev.window + h % (slack + 1), i, *ev)
        })
        .collect();
    keyed.sort_by_key(|&(k, i, _)| (k, i));
    keyed.into_iter().map(|(_, _, ev)| ev).collect()
}

fn materialize(schedule: &Schedule, cfg: &FleetConfig) -> Vec<WindowEvent> {
    let mut events = Vec::new();
    fleet_window_blocks(schedule, cfg, |b| events.extend(b.iter()));
    events
}

proptest! {
    /// Any fault plan, any shard count, any within-horizon reordering on
    /// top: the engine neither panics nor rejects, and its final ledger
    /// equals the batch decomposition.
    #[test]
    fn arbitrary_plans_and_orderings_never_panic_and_match_batch(
        plan in arb_plan(),
        nodes in 1usize..4,
        hours in 1u64..3,
        trace_seed in 0u64..1 << 32,
        shards in 1usize..5,
        slack in 0u64..7,
        salt in 0u64..1 << 32,
    ) {
        let schedule = small_schedule(nodes, hours, trace_seed);
        let cfg = FleetConfig {
            faults: (!plan.is_noop()).then(|| plan.clone()),
            ..FleetConfig::default()
        };
        let batch: EnergyLedger = simulate_fleet(&schedule, &cfg);

        let base = StreamConfig::for_plan(cfg.faults.as_ref());
        let stream_cfg = StreamConfig {
            shards,
            reorder_horizon: base.reorder_horizon + slack,
        };
        let mut eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&schedule, stream_cfg).expect("valid config");
        for ev in shuffle_within(&materialize(&schedule, &cfg), slack, salt) {
            eng.ingest(ev).expect("within-horizon delivery is accepted");
        }
        let (streamed, stats) = eng.finish();
        prop_assert_eq!(&streamed, &batch);
        prop_assert_eq!(stats.late_rejects, 0);
    }

    /// Snapshots along a stream are prefix-monotone: ingest only ever
    /// grows the observed time and energy, never retracts them.
    #[test]
    fn snapshots_are_prefix_monotone(
        plan in arb_plan(),
        trace_seed in 0u64..1 << 32,
        stride in 500usize..4000,
    ) {
        let schedule = small_schedule(2, 1, trace_seed);
        let cfg = FleetConfig {
            faults: (!plan.is_noop()).then(|| plan.clone()),
            ..FleetConfig::default()
        };
        let mut eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&schedule, StreamConfig::for_plan(cfg.faults.as_ref()))
                .expect("valid config");

        let mut last_total_s = 0.0f64;
        let mut last_joules = 0.0f64;
        let mut last_events = 0u64;
        let mut check = |eng: &StreamEngine<'_, EnergyLedger>| {
            let snap = eng.snapshot();
            let cov = snap.coverage();
            let joules: f64 = snap.region_totals().iter().map(|c| c.joules).sum();
            assert!(cov.total_s() >= last_total_s, "coverage retracted");
            assert!(joules >= last_joules, "energy retracted");
            assert!(eng.stats().events >= last_events, "event count retracted");
            last_total_s = cov.total_s();
            last_joules = joules;
            last_events = eng.stats().events;
        };

        let events = materialize(&schedule, &cfg);
        for (i, ev) in events.iter().enumerate() {
            eng.ingest(*ev).expect("arrival order is within horizon");
            if i % stride == 0 {
                check(&eng);
            }
        }
        eng.flush();
        check(&eng);
    }

    /// The reorder buffer honours its declared bound throughout ingest:
    /// never more than `horizon` windows parked per channel, never more
    /// than `channels x horizon` in total.
    #[test]
    fn reorder_buffer_stays_within_declared_bound(
        plan in arb_plan(),
        trace_seed in 0u64..1 << 32,
        slack in 0u64..7,
        salt in 0u64..1 << 32,
    ) {
        let schedule = small_schedule(2, 1, trace_seed);
        let cfg = FleetConfig {
            faults: (!plan.is_noop()).then(|| plan.clone()),
            ..FleetConfig::default()
        };
        let base = StreamConfig::for_plan(cfg.faults.as_ref());
        let stream_cfg = StreamConfig {
            reorder_horizon: base.reorder_horizon + slack,
            ..StreamConfig::default()
        };
        let mut eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&schedule, stream_cfg).expect("valid config");
        for ev in shuffle_within(&materialize(&schedule, &cfg), slack, salt) {
            eng.ingest(ev).expect("within-horizon delivery is accepted");
            prop_assert!(eng.stats().buffered_windows <= eng.buffer_bound());
        }
        let bound = eng.buffer_bound();
        let (_, stats) = eng.finish();
        prop_assert!(stats.peak_buffered_windows <= bound);
        prop_assert!(stats.peak_channel_windows as u64 <= stream_cfg.reorder_horizon);
    }

    /// Replaying any already-released window is rejected with the typed
    /// late-arrival error and leaves the stream's result untouched.
    #[test]
    fn late_arrivals_reject_typed_without_corrupting_state(
        plan in arb_plan(),
        trace_seed in 0u64..1 << 32,
        pick in 0usize..1 << 16,
    ) {
        let schedule = small_schedule(2, 1, trace_seed);
        let cfg = FleetConfig {
            faults: (!plan.is_noop()).then(|| plan.clone()),
            ..FleetConfig::default()
        };
        let events = materialize(&schedule, &cfg);
        let base = StreamConfig::for_plan(cfg.faults.as_ref());

        let mut clean: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&schedule, base).expect("valid config");
        let mut tampered: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&schedule, base).expect("valid config");
        // Re-send a random event from far enough back that its window is
        // guaranteed released (beyond the horizon, in delivered-window
        // terms of its own channel).
        let horizon = base.reorder_horizon;
        let mut replayed = false;
        for (i, ev) in events.iter().enumerate() {
            clean.ingest(*ev).expect("arrival order is within horizon");
            tampered.ingest(*ev).expect("arrival order is within horizon");
            if !replayed && i > 0 {
                let victim = events[..i]
                    .iter()
                    .find(|v| v.channel() == ev.channel() && ev.window > v.window + horizon);
                if let Some(&v) = victim {
                    // Only exercise a deterministic subset of positions.
                    if i % ((pick % 97) + 1) == 0 {
                        let err = tampered.ingest(v).expect_err("released window");
                        prop_assert!(matches!(err, StreamError::LateArrival { .. }));
                        replayed = true;
                    }
                }
            }
        }
        let (a, _) = clean.finish();
        let (b, stats) = tampered.finish();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(stats.late_rejects, u64::from(replayed));
    }
}
