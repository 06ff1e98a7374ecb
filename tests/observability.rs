//! Observability acceptance tests: metering must be invisible in artifact
//! bytes, and the `--metrics` envelope must carry the run's engine, solver,
//! and stage tallies.

mod support;

use pmss::pipeline::json::Json;
use pmss::pipeline::{ArtifactId, Pipeline, ScalePreset, ScenarioSpec};
use support::cli_run;

/// A pipeline counts the artifacts it computes, across fleet-,
/// benchmark-, and sweep-backed artifacts.  (That collection changes no
/// artifact's bytes is what every golden test in `tests/golden.rs` pins.)
#[test]
fn metered_artifacts_count_their_computation() {
    for id in [ArtifactId::Fig2, ArtifactId::Table5, ArtifactId::PeakPower] {
        let mut p = Pipeline::new(ScenarioSpec::preset(ScalePreset::Quick)).unwrap();
        p.artifact(id).expect("metered artifact");
        let m = p.metrics_report();
        assert!(m.counter("artifacts.computed") >= 1, "{}", id.name());
    }
}

/// `--metrics --json` adds a parseable `run` + `metrics` envelope whose
/// engine counters reflect real work; without the flag the envelope is
/// unchanged.
#[test]
fn cli_metrics_envelope_reports_engine_work() {
    let text = cli_run(&["fig", "2", "--metrics", "--json", "--scale", "quick"]);
    let v = Json::parse(&text).expect("envelope parses");
    assert_eq!(v.get("artifact").and_then(Json::as_str), Some("fig2"));
    let run = v.get("run").expect("run manifest present");
    assert_eq!(run.get("command").and_then(Json::as_str), Some("fig 2"));
    assert_eq!(run.get("nodes").and_then(Json::as_f64), Some(16.0));
    let counters = v
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("counters present");
    let counter = |name: &str| counters.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    // Fig. 2 runs the fleet once (the energy split; it reads no stage),
    // and the run's sink tallies its engine and solver work.
    assert!(counter("engine.executions") > 0.0, "{text}");
    assert!(counter("cap_solver.iters") > 0.0, "{text}");
    assert_eq!(counter("fleet.runs"), 1.0, "{text}");
    // No memoisation layer exists, so none may report.
    assert!(
        !text.contains("template_cache.") && !text.contains("exec_cache."),
        "{text}"
    );

    let plain = cli_run(&["fig", "2", "--json", "--scale", "quick"]);
    let v = Json::parse(&plain).expect("plain envelope parses");
    assert!(
        v.get("run").is_none(),
        "run manifest leaked without --metrics"
    );
    assert!(
        v.get("metrics").is_none(),
        "metrics leaked without --metrics"
    );
}

/// In ASCII mode `--metrics` appends the report after the unchanged
/// artifact bytes.
#[test]
fn cli_metrics_ascii_appends_after_artifact() {
    let plain = cli_run(&["table", "5", "--scale", "quick"]);
    let metered = cli_run(&["table", "5", "--metrics", "--scale", "quick"]);
    assert!(
        metered.starts_with(&plain),
        "artifact bytes changed under --metrics"
    );
    let block = &metered[plain.len()..];
    assert!(block.contains("== metrics =="), "{block}");
    assert!(block.contains("stage.fleet.runs"), "{block}");
    assert!(block.contains("stage.table3.runs"), "{block}");
}

/// `pmss stats` runs the staged pipeline and reports metrics only.
#[test]
fn stats_subcommand_reports_the_full_pipeline() {
    let ascii = cli_run(&["stats", "--scale", "quick"]);
    assert!(ascii.starts_with("== metrics =="), "{ascii}");
    assert!(ascii.contains("run: stats"), "{ascii}");
    assert!(ascii.contains("stage.projection.runs"), "{ascii}");

    let text = cli_run(&["stats", "--json", "--scale", "quick"]);
    let v = Json::parse(&text).expect("stats envelope parses");
    assert_eq!(
        v.get("run")
            .and_then(|r| r.get("command"))
            .and_then(Json::as_str),
        Some("stats")
    );
    let counters = v.get("metrics").and_then(|m| m.get("counters")).unwrap();
    for name in [
        "stage.fleet.runs",
        "stage.table3.runs",
        "stage.projection.runs",
        "fleet.gpu_samples",
        "engine.executions",
    ] {
        let n = counters.get(name).and_then(Json::as_f64).unwrap_or(0.0);
        assert!(n >= 1.0, "counter {name} missing or zero in {text}");
    }
    // The projection stage reuses both memoized stages.
    assert!(
        counters
            .get("stage.fleet.reuses")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0,
        "{text}"
    );
    let gauges = v.get("metrics").and_then(|m| m.get("gauges")).unwrap();
    for name in ["fleet.node_hours", "fleet.node_hours_per_s", "fleet.wall_s"] {
        assert!(
            gauges.get(name).and_then(Json::as_f64).unwrap_or(-1.0) > 0.0,
            "gauge {name} missing in {text}"
        );
    }
}

/// The fleet-level tallies agree with what the observers themselves see:
/// attributed samples can never exceed total samples, and the engine
/// bookkeeping is self-consistent.
#[test]
fn metrics_tallies_are_self_consistent() {
    let mut p = Pipeline::new(ScenarioSpec::preset(ScalePreset::Quick)).unwrap();
    p.fleet().expect("fleet stage");
    let m = p.metrics_report();
    let gpu = m.counter("fleet.gpu_samples");
    let attributed = m.counter("fleet.attributed_samples");
    assert!(gpu > 0);
    assert!(attributed <= gpu, "attributed {attributed} > total {gpu}");
    // Every execution runs both cap solves, each at least one demand
    // evaluation; throttling and breaches are subsets of executions.
    let executions = m.counter("engine.executions");
    assert!(executions > 0);
    assert!(m.counter("cap_solver.iters") >= 2 * executions);
    assert!(m.counter("engine.ppt_throttled") <= executions);
    assert!(m.counter("cap_solver.breaches") <= executions);
}

/// A fresh `stream` or `govern` pipeline generates the fleet exactly once
/// — the traced fleet stage folds the batch ledger and fills the delivery
/// trace from one run — and reports the trace's footprint: 17 B/row clean,
/// 19 B/row on the channels a plan reorders.
#[test]
fn stream_and_govern_generate_the_fleet_once_and_report_the_trace() {
    let clean = ScenarioSpec::preset(ScalePreset::Quick);
    let mut faulted = clean.clone();
    faulted.faults = Some(pmss::faults::FaultPlan::preset("frontier-typical").unwrap());
    let cases = [
        (ArtifactId::Stream, clean.clone(), 17.5),
        (ArtifactId::Govern, clean, 17.5),
        (ArtifactId::Stream, faulted, 19.5),
    ];
    for (id, spec, max_row_bytes) in cases {
        let mut p = Pipeline::new(spec.clone()).unwrap();
        p.artifact(id).expect("artifact");
        let m = p.metrics_report();
        assert_eq!(m.counter("fleet.runs"), 1, "{}", id.name());
        assert_eq!(m.counter("stage.fleet.runs"), 1, "{}", id.name());
        let rows = m.gauge("delivery.rows").expect("delivery.rows");
        let bytes = m.gauge("delivery.trace_bytes").expect("trace_bytes");
        assert!(rows > 0.0);
        assert!(
            bytes / rows > 16.9 && bytes / rows <= max_row_bytes,
            "{}: {} B/row",
            id.name(),
            bytes / rows
        );
        // The one run left the stage what an untraced run does.
        let mut plain = Pipeline::new(spec).unwrap();
        let want = plain.fleet().expect("fleet stage");
        let got = p.fleet().expect("fleet stage");
        assert_eq!(got.ledger, want.ledger);
    }
}

/// Fleet runs each artifact makes on a fresh pipeline, whatever the
/// scenario's size.  None is more than when every stage run folded four
/// observers; `fig2` is one fewer, since it no longer runs the stage to
/// get the schedule its energy split folds.
const FLEET_RUNS: [(ArtifactId, u64); 26] = {
    use ArtifactId::*;
    [
        (Fig2, 1),
        (Fig3, 0),
        (Fig4, 0),
        (Fig5, 0),
        (Fig6, 0),
        (Fig7, 0),
        (Fig8, 1),
        (Fig9, 1),
        (Fig10, 1),
        (Table1, 0),
        (Table2, 0),
        (Table3, 0),
        (Table4, 1),
        (Table5, 1),
        (Table6, 1),
        (Table7, 0),
        (Validate, 1),
        (Whatif, 1),
        (Governor, 0),
        (PeakPower, 5),
        (Sensitivity, 1),
        (Faults, 11),
        (Stream, 1),
        (Govern, 1),
        (Components, 1),
        (Econ, 1),
    ]
};

/// Every artifact reaches its stages through one accessor, which runs each
/// stage at most once and starts none the artifact does not read, and
/// runs the fleet as often as [`FLEET_RUNS`] says.
#[test]
fn every_artifact_runs_each_stage_at_most_once_and_only_the_ones_it_reads() {
    let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
    spec.nodes = 8;
    spec.days = 1.0;
    assert!(FLEET_RUNS.iter().map(|&(id, _)| id).eq(ArtifactId::all()));
    for (id, fleet_runs) in FLEET_RUNS {
        let mut p = Pipeline::new(spec.clone()).unwrap();
        p.artifact(id).expect("artifact");
        let m = p.metrics_report();
        assert_eq!(m.counter("fleet.runs"), fleet_runs, "{}", id.name());
        // Each run is its own generation, except `faults`' rows: one
        // generation delivered under all ten plans, beside the stage's.
        let generations = if id == ArtifactId::Faults {
            2
        } else {
            fleet_runs
        };
        assert_eq!(m.counter("fleet.generations"), generations, "{}", id.name());
        let runs = |stage: &str| m.counters().find(|(k, _)| *k == stage).map(|(_, n)| n);
        let (fleet, table3) = (runs("stage.fleet.runs"), runs("stage.table3.runs"));
        assert!(fleet.unwrap_or(0) <= 1, "{}: {fleet:?}", id.name());
        assert!(table3.unwrap_or(0) <= 1, "{}: {table3:?}", id.name());
        use ArtifactId::*;
        if matches!(id, Fig2 | Fig8 | Fig9 | Table4 | Econ) {
            assert_eq!(table3, None, "{} reads no benchmark stage", id.name());
        }
        if matches!(id, Fig2 | PeakPower) {
            assert_eq!(fleet, None, "{} reads no fleet stage", id.name());
        }
    }
}

/// The artifacts that spread their fleet work over worker threads count
/// every run exactly once — tallies are published on the calling thread,
/// one per run — time every generation pass once, and say how many
/// threads shared the work.
#[test]
fn threaded_artifacts_count_each_run_once_and_report_the_workers() {
    let cases = [
        // The stage's run plus ten preset x gap-policy rows, the rows
        // delivered from one generation.
        (ArtifactId::Faults, 11, 2),
        // Five caps; `peakpower` reads no stage.
        (ArtifactId::PeakPower, 5, 5),
        // The traced stage; the policy replays generate nothing.
        (ArtifactId::Govern, 1, 1),
    ];
    for (id, runs, generations) in cases {
        let mut p = Pipeline::new(ScenarioSpec::preset(ScalePreset::Quick)).unwrap();
        p.artifact(id).expect("artifact");
        let m = p.metrics_report();
        assert_eq!(m.counter("fleet.runs"), runs, "{}", id.name());
        assert_eq!(m.counter("fleet.generations"), generations, "{}", id.name());
        let walls = m.hist("fleet.run_wall_s").expect("fleet.run_wall_s");
        assert_eq!(walls.count(), generations, "{}", id.name());
        let workers = m.gauge("fleet.workers").expect("fleet.workers");
        assert!(workers >= 1.0 && workers.fract() == 0.0, "{workers}");
        // Busy time summed over passes: never less than the longest one.
        assert!(m.gauge("fleet.wall_s").unwrap() >= walls.max().unwrap());
    }
}
