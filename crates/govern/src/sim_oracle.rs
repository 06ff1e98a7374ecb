//! The governor's per-event oracle: the replay [`run_governor`] replaced —
//! one [`StreamEngine`] ingesting the run one delivered event at a time,
//! every channel snapshotted at the event that crosses a boundary, and the
//! engine's rejections skipped in the accounting.  Every outcome field must
//! equal the per-channel replay's, at one worker and at every core.

use super::*;
use pmss_faults::{FaultPlan, GapPolicy};
use pmss_sched::{catalog, generate, TraceParams};
use pmss_stream::StreamEngine;
use pmss_telemetry::{scoped_map, DeliveryTrace, FleetConfig};
use pmss_workloads::table3;

/// The per-event replay, as `run_governor` ran before the per-channel
/// replay: `events` in delivery order.
fn run_governor_per_event(
    schedule: &Schedule,
    events: impl IntoIterator<Item = WindowEvent>,
    stream_cfg: StreamConfig,
    plans: &[ResolvedPlan],
    table3: &Table3,
    window_s: f64,
) -> Vec<GovernOutcome> {
    let throttle_rows: Vec<Table3Row> = (table3.power_rows.iter())
        .filter(|r| !r.setting.is_baseline())
        .cloned()
        .collect();
    let channels = schedule.per_node.len() * CHANNELS_PER_NODE;
    let mut ctrls: Vec<Controller<'_>> = (plans.iter())
        .map(|r| Controller::new(r, table3, window_s, stream_cfg, channels).expect("valid"))
        .collect();
    let mut eng: StreamEngine<'_, ChannelAccum> =
        StreamEngine::new(schedule, stream_cfg).expect("valid config");
    let mut snap: Vec<((u32, u8), ChannelAccum)> = Vec::new();
    for ev in events {
        let mut sensed = false;
        for c in &mut ctrls {
            while ev.rank >= c.next_rank {
                if c.senses() && !sensed {
                    snap.clear();
                    snap.extend(eng.channel_snapshots());
                    sensed = true;
                }
                c.cross(Some(snap.iter().map(|(k, a)| (*k, a))), &throttle_rows);
            }
        }
        if eng.ingest(ev).is_err() {
            continue;
        }
        if let Some(charge) = Charge::of(&ev) {
            for c in &mut ctrls {
                c.account(&ev, &charge, &throttle_rows);
            }
        }
    }
    eng.flush();
    let stream = eng.stats();
    ctrls
        .into_iter()
        .map(|c| GovernOutcome { stream, ..c.out })
        .collect()
}

/// The three presets, a custom plan on its own cadence, and a plan
/// resolved for fewer nodes than the fleet has.
fn plans(nodes: usize) -> Vec<ResolvedPlan> {
    let cap = CapSetting::FreqMhz(900.0);
    let mut plans: Vec<ResolvedPlan> = (crate::PRESETS.iter())
        .map(|p| {
            GovernorPlan::preset(p)
                .unwrap()
                .resolve(nodes, cap)
                .unwrap()
        })
        .collect();
    let mut custom = GovernorPlan::preset("polimer").unwrap();
    custom.interval_windows = 3;
    custom.budget_w = Some(1500.0 * nodes as f64);
    plans.push(custom.resolve(nodes, cap).unwrap());
    let fewer = GovernorPlan::preset("greedy").unwrap();
    plans.push(fewer.resolve(nodes / 2, cap).unwrap());
    plans
}

fn fault_plan(name: &str, gap_policy: Option<GapPolicy>) -> FaultPlan {
    let plan = FaultPlan::preset(name).unwrap();
    FaultPlan {
        gap_policy: gap_policy.unwrap_or(plan.gap_policy),
        ..plan
    }
}

/// Checks every outcome of both replays of one run, at one worker and at
/// every core, and returns them.
fn check(faults: Option<FaultPlan>, horizon: Option<u64>, what: &str) -> Vec<GovernOutcome> {
    let nodes = 4;
    let schedule = generate(
        TraceParams {
            nodes,
            duration_s: 12.0 * 3600.0,
            seed: 11,
            ..TraceParams::default()
        },
        &catalog(),
    );
    let cfg = FleetConfig {
        faults,
        ..FleetConfig::default()
    };
    let mut stream_cfg = StreamConfig::for_plan(cfg.faults.as_ref());
    if let Some(h) = horizon {
        stream_cfg.reorder_horizon = h;
    }
    let trace = DeliveryTrace::capture_folding::<()>(&schedule, &cfg)
        .unwrap()
        .0;
    let t3 = table3::compute_default();
    let plans = plans(nodes);
    let want = run_governor_per_event(
        &schedule,
        trace.iter(),
        stream_cfg,
        &plans,
        &t3,
        cfg.window_s,
    );
    let replay = || run_governor(&schedule, &trace, stream_cfg, &plans, &t3, cfg.window_s);
    let one = scoped_map(2, 1, |_| replay()).remove(0).unwrap();
    let every = replay().unwrap();
    assert_eq!(one, want, "{what}: one worker");
    assert_eq!(every, want, "{what}: every core");
    assert!(want.iter().all(|o| o.rounds > 0), "{what}");
    want
}

#[test]
fn per_channel_replay_matches_the_per_event_governor_clean_and_mild() {
    check(None, None, "clean");
    check(Some(fault_plan("mild", None)), None, "mild");
}

#[test]
fn per_channel_replay_matches_the_per_event_governor_frontier_typical() {
    check(
        Some(fault_plan("frontier-typical", None)),
        None,
        "frontier-typical",
    );
}

#[test]
fn per_channel_replay_matches_the_per_event_governor_under_every_harsh_gap_policy() {
    for policy in [
        GapPolicy::Exclude,
        GapPolicy::Interpolate,
        GapPolicy::AttributeIdle,
    ] {
        check(
            Some(fault_plan("harsh", Some(policy))),
            None,
            &format!("harsh {policy:?}"),
        );
    }
}

/// A horizon shallower than the plan's reordering makes the engine refuse
/// late events, which neither replay may sense or account.
#[test]
fn per_channel_replay_skips_exactly_the_refused_events() {
    let plan = fault_plan("harsh", None);
    let outcomes = check(Some(plan), Some(2), "harsh, horizon 2");
    assert!(outcomes[0].stream.late_rejects > 0);
}
