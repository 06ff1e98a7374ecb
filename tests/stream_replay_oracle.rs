//! The per-channel replay against its oracle, the per-event engine.
//!
//! `pmss stream` replays a recorded run channel by channel on every core
//! ([`TraceReplay`]); the daemon's per-event [`StreamEngine::ingest`] over
//! the same run in delivery order is the oracle.  At every cut (the four
//! the artifact takes, an empty one, repeats, the run's last event) both
//! must hold the same merged ledger bits and the same event, released and
//! buffered counts, and at the end the same ledger, every [`StreamStats`]
//! field — the summed-over-channels `peak_buffered_windows` included —
//! the same `buffer_bound` and every `stream.*` metric but
//! `stream.buffer_bytes`.  Plans: clean, `mild`, `frontier-typical`, the
//! three `harsh` gap policies, horizons too shallow for the plan (so the
//! engine refuses late events), a hand-built run whose refused channels
//! sit among live ones, and a proptest over random valid plans on tiny
//! fleets; at one worker and at every core.  The governor's outcome
//! against its per-event oracle is `pmss-govern`'s `sim::oracle`.

use proptest::prelude::*;

use pmss_core::EnergyLedger;
use pmss_faults::{FaultPlan, GapPolicy};
use pmss_obs::Metrics;
use pmss_sched::{catalog, generate, Schedule, TraceParams};
use pmss_stream::{Cut, Delivery, EventRun, StreamConfig, StreamEngine, StreamStats, TraceReplay};
use pmss_telemetry::{
    scoped_map, DeliveryTrace, FleetConfig, FleetObserver, WindowEvent, WindowKind, REST_SLOT,
};

/// What a replay shows at its cuts and at its end.
#[derive(Debug, PartialEq)]
struct Shown {
    /// Per cut: the merged ledger (`Debug` text: every float at full
    /// precision), events, released windows, buffered windows.
    cuts: Vec<(String, u64, u64, usize)>,
    ledger: String,
    stats: StreamStats,
    buffer_bound: usize,
    /// Every `stream.*` counter and gauge but `stream.buffer_bytes`.
    metrics: Vec<(&'static str, String)>,
}

fn metrics(m: &Metrics) -> Vec<(&'static str, String)> {
    let counters = m.counters().map(|(k, v)| (k, v.to_string()));
    let gauges = m.gauges().map(|(k, v)| (k, format!("{v:?}")));
    let mut all: Vec<_> = counters
        .chain(gauges)
        .filter(|(k, _)| *k != "stream.buffer_bytes")
        .collect();
    all.sort();
    all
}

/// The oracle: every event through one engine in delivery order, a
/// snapshot after the first `at[k]` events.
fn per_event(schedule: &Schedule, run: &impl Delivery, cfg: StreamConfig, at: &[usize]) -> Shown {
    let mut eng = StreamEngine::<EnergyLedger>::new(schedule, cfg).expect("valid config");
    let mut cuts = Vec::new();
    let mut at = at.iter().peekable();
    let snap = |eng: &StreamEngine<'_, EnergyLedger>| {
        let s = eng.stats();
        let ledger = format!("{:?}", eng.snapshot());
        (ledger, s.events, s.released_windows, s.buffered_windows)
    };
    for (i, ev) in run.events().enumerate() {
        while at.next_if(|&&n| n == i).is_some() {
            cuts.push(snap(&eng));
        }
        // A refused event is counted and leaves no other trace.
        let _ = eng.ingest(ev);
    }
    while at.next().is_some() {
        cuts.push(snap(&eng));
    }
    eng.flush();
    let mut m = Metrics::new();
    eng.publish_metrics(&mut m);
    let buffer_bound = eng.buffer_bound();
    let (ledger, stats) = eng.finish();
    Shown {
        cuts,
        ledger: format!("{ledger:?}"),
        stats,
        buffer_bound,
        metrics: metrics(&m),
    }
}

/// The per-channel replay of the same run, cut at the same positions.
fn per_channel<D: Delivery>(
    schedule: &Schedule,
    run: &D,
    cfg: StreamConfig,
    at: &[usize],
) -> Shown {
    let mut replay: TraceReplay<'_, EnergyLedger, D> =
        TraceReplay::new(schedule, run, cfg).expect("valid config");
    let positions: Vec<Cut> = at.iter().map(|&n| Cut::after_events(run, n)).collect();
    let parts = replay.cuts(&positions);
    let cuts = (0..positions.len())
        .map(|k| {
            let mut ledger = EnergyLedger::default();
            for (_, part) in parts.cut(k) {
                ledger.merge(part.clone());
            }
            let t = parts.tally(k);
            (format!("{ledger:?}"), t.events, t.released, t.buffered)
        })
        .collect();
    let ledger = replay.finish();
    let mut m = Metrics::new();
    replay.publish_metrics(&mut m);
    Shown {
        cuts,
        ledger: format!("{ledger:?}"),
        stats: replay.stats(),
        buffer_bound: replay.buffer_bound(),
        metrics: metrics(&m),
    }
}

/// The artifact's four cuts, an empty one, a repeated one, and the run's
/// last event.
fn positions(n: usize) -> Vec<usize> {
    let mut at = vec![0, n / 7, n / 7, n.saturating_sub(1), n];
    at.extend((1..=4).map(|k| n * k / 5));
    at.sort_unstable();
    at
}

fn schedule(nodes: usize, duration_s: f64, seed: u64) -> Schedule {
    generate(
        TraceParams {
            nodes,
            duration_s,
            seed,
            ..TraceParams::default()
        },
        &catalog(),
    )
}

/// Replays `run` both ways, at one worker and at every core, and returns
/// the oracle's tallies.
fn check_run<D: Delivery>(
    schedule: &Schedule,
    run: &D,
    cfg: StreamConfig,
    what: &str,
) -> StreamStats {
    let at = positions(run.events().count());
    let want = per_event(schedule, run, cfg, &at);
    let one = scoped_map(2, 1, |_| per_channel(schedule, run, cfg, &at)).remove(0);
    assert_eq!(one, want, "{what}: one worker");
    let every = per_channel(schedule, run, cfg, &at);
    assert_eq!(every, want, "{what}: every core");
    want.stats
}

/// Captures one fleet run under `faults` and checks it with [`check_run`].
fn check(
    schedule: &Schedule,
    faults: Option<FaultPlan>,
    horizon: Option<u64>,
    what: &str,
) -> StreamStats {
    let fleet = FleetConfig {
        faults,
        ..FleetConfig::default()
    };
    let mut cfg = StreamConfig::for_plan(fleet.faults.as_ref()).with_shards(4);
    if let Some(h) = horizon {
        cfg.reorder_horizon = h;
    }
    let trace = DeliveryTrace::capture_folding::<()>(schedule, &fleet)
        .expect("capture")
        .0;
    check_run(schedule, &trace, cfg, what)
}

fn preset(name: &str, gap_policy: Option<GapPolicy>) -> Option<FaultPlan> {
    let plan = FaultPlan::preset(name).expect("known preset");
    Some(FaultPlan {
        gap_policy: gap_policy.unwrap_or(plan.gap_policy),
        ..plan
    })
}

#[test]
fn clean_and_mild_replays_match_the_per_event_engine() {
    let s = schedule(4, 12.0 * 3600.0, 7);
    check(&s, None, None, "clean");
    check(&s, preset("mild", None), None, "mild");
}

#[test]
fn frontier_typical_replay_matches_the_per_event_engine() {
    let s = schedule(4, 12.0 * 3600.0, 7);
    check(
        &s,
        preset("frontier-typical", None),
        None,
        "frontier-typical",
    );
}

#[test]
fn harsh_replays_match_the_per_event_engine_under_every_gap_policy() {
    let s = schedule(4, 12.0 * 3600.0, 7);
    for policy in GapPolicy::all() {
        check(
            &s,
            preset("harsh", Some(policy)),
            None,
            &format!("{policy:?}"),
        );
    }
}

/// A short run under deep reordering, duplicates, drops and dropouts: the
/// channels reach their occupancy peaks at different ranks, so the summed
/// peak is below the sum of per-channel peaks and only an exact sweep of
/// the per-rank changes gets it right.
#[test]
fn deep_reordering_with_duplicates_matches_the_per_event_engine() {
    let s = schedule(1, 65.0 * 60.0, 5);
    let plan = FaultPlan {
        seed: 152_062_368,
        drop_prob: 0.13,
        dup_prob: 0.24,
        reorder_depth: 38,
        nan_prob: 0.03,
        dropout_prob: 0.34,
        dropout_windows: 4,
        clock_skew_max_s: 3.15,
        gap_policy: GapPolicy::AttributeIdle,
        ..FaultPlan::default()
    };
    check(&s, Some(plan), None, "deep reordering");
}

/// Horizons shallower than the plan's reordering: the engine refuses late
/// events, and the replay must refuse exactly the same ones.
#[test]
fn refusals_under_too_shallow_a_horizon_match_the_per_event_engine() {
    let s = schedule(3, 6.0 * 3600.0, 5);
    for (name, horizon) in [
        ("frontier-typical", 1),
        ("frontier-typical", 2),
        ("harsh", 2),
    ] {
        let stats = check(
            &s,
            preset(name, None),
            Some(horizon),
            &format!("{name} h{horizon}"),
        );
        assert!(stats.late_rejects > 0, "{name} h{horizon} refuses nothing");
    }
}

/// A hand-built run with channels the engine refuses every row of: node
/// 0's GPU slot 0 attributes every row to a job outside the log, and a
/// node past the fleet delivers beside the last one.  Node 1 delivers only
/// its even windows, so nodes carry different event counts.  At one
/// worker a replay job holds at least two nodes, so the refused channel
/// sits before live ones of its job, and the shard-imbalance gauge must
/// still credit each live channel's events to its own node.
#[test]
fn channels_with_every_row_refused_match_the_per_event_engine() {
    let nodes = 9;
    let s = schedule(nodes, 2.0 * 3600.0, 3);
    let trace = DeliveryTrace::capture_folding::<()>(&s, &FleetConfig::default())
        .expect("capture")
        .0;
    let bad_job = Some(s.jobs.len() + 1);
    let mut events = Vec::new();
    for mut ev in trace.iter() {
        if ev.node == 1 && ev.window % 2 == 1 {
            continue;
        }
        if ev.channel() == (0, 0) {
            match &mut ev.kind {
                WindowKind::Sample { job, .. } | WindowKind::Gap { job, .. } => *job = bad_job,
                WindowKind::NodeRest { .. } => unreachable!("slot 0 is a GPU"),
            }
        }
        events.push(ev);
        if ev.channel() == (nodes as u32 - 1, REST_SLOT) {
            events.push(WindowEvent {
                node: nodes as u32,
                slot: 0,
                ..ev
            });
        }
    }
    let run = EventRun::new(events).expect("delivery order");
    let cfg = StreamConfig::for_plan(None).with_shards(3);
    let stats = check_run(&s, &run, cfg, "refused channels");
    assert!(stats.job_rejects > 0 && stats.channel_rejects > 0);
}

/// Strategy for an arbitrary valid fault plan.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (0.0..0.3f64, 0.0..0.6f64, 0.0..0.05f64, 0u32..40),
        (0.0..0.5f64, 1u32..200, 0.0..5.0f64),
        (0usize..3, 0u64..1 << 32),
    )
        .prop_map(
            |(
                (drop_prob, dup_prob, nan_prob, reorder_depth),
                (dropout_prob, dropout_windows, clock_skew_max_s),
                (policy, seed),
            )| FaultPlan {
                seed,
                drop_prob,
                dup_prob,
                reorder_depth,
                nan_prob,
                dropout_prob,
                dropout_windows,
                clock_skew_max_s,
                gap_policy: GapPolicy::all()[policy],
                ..FaultPlan::default()
            },
        )
}

proptest! {
    #[test]
    fn random_plans_on_tiny_fleets_match_the_per_event_engine(
        plan in arb_plan(),
        nodes in 1usize..4,
        minutes in 1u64..180,
        shallow in 0u64..4,
        seed in 0u64..1 << 32,
    ) {
        let s = schedule(nodes, minutes as f64 * 60.0, seed);
        // Half the cases replay under a horizon that may be too shallow.
        let horizon = (seed % 2 == 0).then_some(shallow + 1);
        check(&s, Some(plan), horizon, "proptest");
    }
}
