//! Differential and acceptance suite for the online cluster governor:
//! repeat runs are byte-identical (clean and faulted), the online
//! presets realize most of the paper's static no-slowdown ceiling, the
//! cluster budget invariant holds in every rendered row, and one shared
//! replay of many plans equals a replay of each plan alone.

mod support;

use pmss::pipeline::artifact::GovernArtifact;
use pmss::pipeline::{Artifact, ArtifactId, Pipeline, ScalePreset, ScenarioSpec};
use pmss_faults::FaultPlan;
use pmss_govern::{run_governor, GovernorPlan};
use pmss_sched::{catalog, generate};
use pmss_stream::StreamConfig;
use pmss_telemetry::{DeliveryTrace, FleetConfig};
use pmss_workloads::sweep::CapSetting;
use pmss_workloads::table3;
use support::cli_run;

fn quick_govern() -> GovernArtifact {
    let mut p =
        Pipeline::new(ScenarioSpec::preset(ScalePreset::Quick)).expect("quick spec is valid");
    match p.artifact(ArtifactId::Govern).expect("govern artifact") {
        Artifact::Govern(a) => a,
        other => panic!("expected a govern artifact, got {:?}", other.id()),
    }
}

/// The same governed scenario computed twice — fresh pipelines, fresh
/// caches — renders bit-identical bytes, metered and faulted alike.
#[test]
fn govern_runs_are_deterministic_across_repeat_runs() {
    for argv in [
        vec!["govern", "--scale", "quick", "--json", "--metrics"],
        vec![
            "govern",
            "--scale",
            "quick",
            "--json",
            "--metrics",
            "--faults",
            "frontier-typical",
        ],
    ] {
        let (a, b) = (cli_run(&argv), cli_run(&argv));
        // The run manifest carries wall times; compare everything before it.
        let cut = |s: &str| s.split("\"run\"").next().unwrap().to_string();
        assert_eq!(cut(&a), cut(&b), "nondeterministic {argv:?}");
        assert_ne!(cut(&a), "");
    }
}

/// Acceptance: on the clean quick scenario the online policies (greedy,
/// polimer) realize at least 80% of the projection's no-slowdown ceiling
/// while staying under 2% fleet slowdown; the static reference realizes
/// at least as much as either but pays double-digit slowdown.
#[test]
fn online_presets_realize_most_of_the_static_ceiling() {
    let a = quick_govern();
    assert!(a.ceiling_pct > 0.0, "ceiling {}", a.ceiling_pct);
    assert_eq!(a.rows.len(), 3, "three preset rows");
    let by_name = |n: &str| a.rows.iter().find(|r| r.policy == n).expect("preset row");
    let (st, gr, po) = (by_name("static"), by_name("greedy"), by_name("polimer"));
    for r in [gr, po] {
        assert!(
            r.of_ceiling_pct >= 80.0,
            "{} realizes only {:.1}% of the ceiling",
            r.policy,
            r.of_ceiling_pct
        );
        assert!(
            r.slowdown_pct < 2.0,
            "{} slows the fleet {:.2}%",
            r.policy,
            r.slowdown_pct
        );
    }
    assert!(st.realized_pct >= gr.realized_pct && st.realized_pct >= po.realized_pct);
    assert!(
        st.slowdown_pct > 5.0,
        "static's blanket cap should cost double-digit CI slowdown, got {:.2}%",
        st.slowdown_pct
    );
}

/// The budget invariant and control-plane sanity of every rendered row,
/// clean and under the headline fault preset.
#[test]
fn budget_is_never_exceeded_in_any_rendered_row() {
    let mut clean = quick_govern().rows;
    let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
    spec.faults = Some(pmss::faults::FaultPlan::preset("frontier-typical").unwrap());
    let mut p = Pipeline::new(spec).expect("faulted spec is valid");
    let faulted = match p.artifact(ArtifactId::Govern).expect("govern artifact") {
        Artifact::Govern(a) => a.rows,
        other => panic!("expected a govern artifact, got {:?}", other.id()),
    };
    clean.extend(faulted);
    for r in clean {
        assert!(!r.budget_exceeded, "{} exceeded the budget", r.policy);
        assert!(
            r.peak_budget_utilization <= 1.0 + 1e-9,
            "{} peak utilization {}",
            r.policy,
            r.peak_budget_utilization
        );
        assert!(r.rounds > 0 && r.realized_pct.is_finite());
    }
}

/// A spec-supplied custom plan rides along as a fourth row labelled
/// `custom:<policy>`, and a scarce budget forces throttling without ever
/// breaking the invariant.
#[test]
fn custom_scarce_budget_plans_throttle_within_the_invariant() {
    let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
    let mut plan = GovernorPlan::preset("polimer").unwrap();
    // Scarce: halfway between the per-node floor and ceiling.
    plan.budget_w = Some(spec.nodes as f64 * (plan.node_floor_w + plan.node_ceiling_w) / 2.0);
    spec.govern = Some(plan);
    let mut p = Pipeline::new(spec).expect("spec is valid");
    let a = match p.artifact(ArtifactId::Govern).expect("govern artifact") {
        Artifact::Govern(a) => a,
        other => panic!("expected a govern artifact, got {:?}", other.id()),
    };
    assert_eq!(a.rows.len(), 4, "three presets plus the custom row");
    let custom = &a.rows[3];
    assert_eq!(custom.policy, "custom:polimer");
    assert!(!custom.budget_exceeded);
    assert!(custom.peak_budget_utilization <= 1.0 + 1e-9);
    assert!(
        custom.throttled_node_rounds > 0,
        "a scarce budget must force throttling"
    );
}

/// The plans of the shared-replay cases: the three presets, then custom
/// plans whose sync windows (1, 3 and 5 telemetry windows) cross round
/// boundaries at events the presets' 2-window cadence does not.
fn shared_replay_plans() -> Vec<GovernorPlan> {
    let mut plans: Vec<GovernorPlan> = pmss_govern::PRESETS
        .iter()
        .map(|name| GovernorPlan::preset(name).expect("known preset"))
        .collect();
    for (policy, interval_windows, budget_w) in [
        ("polimer", 1, Some(6_000.0)),
        ("greedy", 3, None),
        ("polimer", 5, None),
    ] {
        let mut plan = GovernorPlan::preset(policy).expect("known preset");
        plan.interval_windows = interval_windows;
        plan.budget_w = budget_w;
        plans.push(plan);
    }
    plans
}

/// One replay serves every plan: each outcome of the shared replay equals
/// a replay of that plan alone, and reversing the plans only reverses the
/// outcomes — on a clean trace and under two fault presets.  A plan
/// resolved for fewer nodes than the schedule replays without panicking,
/// alone and beside the others.
#[test]
fn one_shared_replay_equals_each_plan_replayed_alone() {
    let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
    spec.nodes = 4;
    spec.days = 0.5;
    let schedule = generate(spec.trace_params(), &catalog());
    let t3 = table3::compute_default();
    let cap = CapSetting::FreqMhz(900.0);
    let mut plans: Vec<_> = shared_replay_plans()
        .iter()
        .map(|plan| plan.resolve(spec.nodes, cap).expect("resolves"))
        .collect();
    let fewer = GovernorPlan::preset("polimer").expect("known preset");
    plans.push(fewer.resolve(spec.nodes / 2, cap).expect("resolves"));
    for faults in [None, Some("frontier-typical"), Some("harsh")] {
        let cfg = FleetConfig {
            faults: faults.map(|name| FaultPlan::preset(name).expect("known preset")),
            ..FleetConfig::default()
        };
        let stream_cfg = StreamConfig::for_plan(cfg.faults.as_ref());
        let trace = DeliveryTrace::capture_folding::<()>(&schedule, &cfg)
            .expect("capture")
            .0;
        let replay = |plans: &[_]| {
            run_governor(&schedule, &trace, stream_cfg, plans, &t3, cfg.window_s).expect("replays")
        };
        let shared = replay(&plans);
        assert_eq!(shared.len(), plans.len());
        for (i, out) in shared.iter().enumerate() {
            let alone = replay(std::slice::from_ref(&plans[i]));
            assert_eq!(alone, std::slice::from_ref(out), "{faults:?} plan {i}");
            assert!(out.rounds > 0, "{faults:?} plan {i}");
        }
        let mut reversed_plans = plans.clone();
        reversed_plans.reverse();
        let mut reversed = replay(&reversed_plans);
        reversed.reverse();
        assert_eq!(reversed, shared, "{faults:?}");
    }
}
