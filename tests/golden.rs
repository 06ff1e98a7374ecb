//! Golden tests: the `pmss` CLI must reproduce the pre-refactor binaries'
//! ASCII output byte-for-byte, and the `--json` envelope for the seeded
//! headline artifacts must stay stable.
//!
//! The `tests/golden/*.txt` files were captured from the original
//! per-artifact binaries (since deleted) at the default (quick) scale
//! before they were collapsed into the pipeline; `tests/golden/*.json` pins the
//! structured output introduced with it.

use pmss::pipeline::{cli, metrics, Artifact, ArtifactId, Pipeline, ScalePreset, ScenarioSpec};

/// A quick-scale pipeline; with `PMSS_METRICS` set the suite runs fully
/// metered, pinning that metrics collection never changes artifact bytes
/// (CI exercises both configurations).
fn quick_pipeline() -> Pipeline {
    let spec = ScenarioSpec::preset(ScalePreset::Quick);
    if metrics::metrics_env_enabled() {
        Pipeline::with_metrics(spec).expect("quick spec is valid")
    } else {
        Pipeline::new(spec).expect("quick spec is valid")
    }
}

fn golden(name: &str, ext: &str) -> String {
    let path = format!("tests/golden/{name}.{ext}");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Every artifact renders exactly the bytes the dedicated binary printed.
#[test]
fn ascii_matches_the_pre_refactor_binaries() {
    let mut p = quick_pipeline();
    let mut bad = Vec::new();
    for id in ArtifactId::all() {
        let got = p.artifact(id).expect("artifact").render_ascii();
        let want = golden(id.name(), "txt");
        if got != want {
            bad.push(format!(
                "{}: {} bytes rendered vs {} golden",
                id.name(),
                got.len(),
                want.len()
            ));
        }
    }
    assert!(bad.is_empty(), "ASCII drift:\n{}", bad.join("\n"));
}

/// The CLI `--json` envelope for the seeded headline artifacts is stable.
#[test]
fn json_matches_the_golden_captures() {
    for name in [
        "fig2",
        "table3",
        "table5",
        "validate",
        "stream",
        "govern",
        "components",
        "econ",
    ] {
        let args: Vec<String> = [name, "--json", "--scale", "quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let got = cli::run(&args).expect("cli run");
        assert_eq!(got, golden(name, "json"), "JSON drift in {name}");
    }
}

/// `pmss faults` and a faulted preset run are pinned byte-for-byte in
/// both renderings.  Like the rest of the suite this runs under
/// `PMSS_METRICS` both off and on in CI, so it also pins that fault
/// metering never changes output bytes.
#[test]
fn faulted_runs_match_the_golden_captures() {
    let cases: [(&[&str], &str, &str); 8] = [
        (&["faults", "--scale", "quick"], "faults", "txt"),
        (&["faults", "--scale", "quick", "--json"], "faults", "json"),
        (
            &["govern", "--scale", "quick", "--faults", "frontier-typical"],
            "govern-frontier-typical",
            "txt",
        ),
        (
            &[
                "govern",
                "--scale",
                "quick",
                "--faults",
                "frontier-typical",
                "--json",
            ],
            "govern-frontier-typical",
            "json",
        ),
        (
            &["stream", "--scale", "quick", "--faults", "frontier-typical"],
            "stream-frontier-typical",
            "txt",
        ),
        (
            &[
                "stream",
                "--scale",
                "quick",
                "--faults",
                "frontier-typical",
                "--json",
            ],
            "stream-frontier-typical",
            "json",
        ),
        (
            &[
                "table",
                "4",
                "--scale",
                "quick",
                "--faults",
                "frontier-typical",
            ],
            "table4-frontier-typical",
            "txt",
        ),
        (
            &[
                "table",
                "4",
                "--scale",
                "quick",
                "--faults",
                "frontier-typical",
                "--json",
            ],
            "table4-frontier-typical",
            "json",
        ),
    ];
    for (argv, name, ext) in cases {
        let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let got = cli::run(&args).expect("cli run");
        assert_eq!(got, golden(name, ext), "golden drift in {name}.{ext}");
    }
}

/// An active `--econ diurnal` trace is pinned byte-for-byte in both
/// renderings of the what-if artifact — the seam where the econ section
/// joins a historical artifact rather than standing alone.
#[test]
fn econ_runs_match_the_golden_captures() {
    let cases: [(&[&str], &str, &str); 2] = [
        (
            &["whatif", "--scale", "quick", "--econ", "diurnal"],
            "whatif-econ-diurnal",
            "txt",
        ),
        (
            &["whatif", "--scale", "quick", "--econ", "diurnal", "--json"],
            "whatif-econ-diurnal",
            "json",
        ),
    ];
    for (argv, name, ext) in cases {
        let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let got = cli::run(&args).expect("cli run");
        assert_eq!(got, golden(name, ext), "golden drift in {name}.{ext}");
    }
}

/// A custom plan with its own sync cadence rides along as a fourth row:
/// its rounds, rebalances and holds follow its 3-window interval, not the
/// presets' 2-window one.
#[test]
fn custom_cadence_govern_matches_the_golden_capture() {
    let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
    let mut plan = pmss::govern::GovernorPlan::preset("polimer").expect("known preset");
    plan.interval_windows = 3;
    plan.budget_w = Some(40_000.0);
    spec.govern = Some(plan);
    let mut p = if metrics::metrics_env_enabled() {
        Pipeline::with_metrics(spec)
    } else {
        Pipeline::new(spec)
    }
    .expect("custom spec is valid");
    let got = p
        .artifact(ArtifactId::Govern)
        .expect("govern artifact")
        .render_ascii();
    assert_eq!(got, golden("govern-custom", "txt"));
}

/// Running the streaming replay leaves the batch path untouched: every
/// batch artifact computed after a `stream` run in the same pipeline
/// renders the same bytes as in a pipeline that never streamed.
#[test]
fn stream_replay_does_not_perturb_batch_artifacts() {
    let mut streamed = quick_pipeline();
    streamed
        .artifact(ArtifactId::Stream)
        .expect("stream artifact");
    for id in [ArtifactId::Table4, ArtifactId::Table5, ArtifactId::Fig8] {
        let after_stream = streamed.artifact(id).expect("artifact").render_ascii();
        assert_eq!(
            after_stream,
            golden(id.name(), "txt"),
            "batch artifact {} drifted after a stream replay",
            id.name()
        );
    }
}

/// Running the online governor leaves the batch path untouched: every
/// batch artifact computed after a `govern` run in the same pipeline
/// renders the same bytes as in a pipeline that never governed.
#[test]
fn govern_replay_does_not_perturb_batch_artifacts() {
    let mut governed = quick_pipeline();
    governed
        .artifact(ArtifactId::Govern)
        .expect("govern artifact");
    for id in [ArtifactId::Fig2, ArtifactId::Table4, ArtifactId::Table5] {
        let after_govern = governed.artifact(id).expect("artifact").render_ascii();
        assert_eq!(
            after_govern,
            golden(id.name(), "txt"),
            "batch artifact {} drifted after a governor replay",
            id.name()
        );
    }
}

/// The default CLI path (no flags) renders the same bytes as the library
/// API — the shim in `src/main.rs` only prints the returned string.
#[test]
fn cli_default_output_equals_library_render() {
    let via_cli = cli::run(&["table3".to_string()]).expect("cli run");
    let via_lib = quick_pipeline()
        .artifact(ArtifactId::Table3)
        .expect("artifact")
        .render_ascii();
    assert_eq!(via_cli, via_lib);
}

/// Artifacts round-trip through the bundle API: `artifacts()` returns the
/// same renders as one-at-a-time `artifact()` calls.
#[test]
fn artifact_bundle_is_consistent_with_single_lookups() {
    let mut p = quick_pipeline();
    let ids = [ArtifactId::Table3, ArtifactId::Table5, ArtifactId::Validate];
    let bundle = p.artifacts(&ids).expect("bundle");
    for id in ids {
        let single: Artifact = quick_pipeline().artifact(id).expect("artifact");
        let from_bundle = bundle.get(id).expect("present in bundle");
        assert_eq!(single.render_ascii(), from_bundle.render_ascii());
        assert_eq!(
            single.to_json().to_string_pretty(),
            from_bundle.to_json().to_string_pretty()
        );
    }
}
