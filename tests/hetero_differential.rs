//! Heterogeneous-fleet differential tests: the SKU catalog must be
//! invisible until asked for.  A homogeneous fleet — whether the mix is
//! omitted or spelled `single-sku` — renders every artifact byte-for-byte
//! identical to the pre-catalog goldens, clean and faulted, and a mixed
//! run must never perturb homogeneous output computed afterwards (the
//! simulation holds no state between runs, so this is plain determinism
//! — and the tripwire should process-wide state ever return).

use pmss::core::EnergyLedger;
use pmss::pipeline::{cli, ArtifactId, Pipeline, ScalePreset, ScenarioSpec};
use pmss::telemetry::simulate_fleet;

fn golden(name: &str, ext: &str) -> String {
    let path = format!("tests/golden/{name}.{ext}");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// A quick-scale spec that names the homogeneous mix explicitly instead
/// of omitting it.
fn single_sku_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
    spec.fleet_mix = Some("single-sku".to_string());
    spec
}

/// An explicit `single-sku` mix renders every artifact — all 25 of them —
/// byte-for-byte identical to the goldens captured before the SKU catalog
/// existed.
#[test]
fn single_sku_spec_renders_every_golden_byte_for_byte() {
    let mut p = Pipeline::new(single_sku_spec()).expect("valid spec");
    let mut bad = Vec::new();
    for id in ArtifactId::all() {
        let got = p.artifact(id).expect("artifact").render_ascii();
        if got != golden(id.name(), "txt") {
            bad.push(id.name());
        }
    }
    assert!(
        bad.is_empty(),
        "single-sku mix drifted from homogeneous goldens: {}",
        bad.join(", ")
    );
}

/// `--mix single-sku` on the CLI is a no-op for output bytes: clean and
/// `frontier-typical`-faulted runs both reproduce the goldens in both
/// renderings.
#[test]
fn single_sku_cli_flag_matches_clean_and_faulted_goldens() {
    let cases: [(&[&str], &str, &str); 10] = [
        (&["table3", "--scale", "quick"], "table3", "txt"),
        (&["table3", "--scale", "quick", "--json"], "table3", "json"),
        (&["components", "--scale", "quick"], "components", "txt"),
        (
            &["components", "--scale", "quick", "--json"],
            "components",
            "json",
        ),
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
        let mut args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        args.push("--mix".to_string());
        args.push("single-sku".to_string());
        let got = cli::run(&args).expect("cli run");
        assert_eq!(
            got,
            golden(name, ext),
            "--mix single-sku drift in {name}.{ext}"
        );
    }
}

/// A mixed-fleet run — through a pipeline and through the bare
/// `simulate_fleet` entry point — never perturbs homogeneous artifacts
/// computed afterwards: runs share nothing, so their order cannot matter.
#[test]
fn mixed_runs_never_perturb_homogeneous_artifacts() {
    // Run a mixed pipeline end to end ...
    let mut mixed_spec = ScenarioSpec::preset(ScalePreset::Quick);
    mixed_spec.fleet_mix = Some("mixed-50-50".to_string());
    let mut mixed = Pipeline::new(mixed_spec.clone()).expect("valid spec");
    let mixed_render = mixed
        .artifact(ArtifactId::Components)
        .expect("components")
        .render_ascii();
    // ... and the mix must actually change bytes, or this guard is vacuous.
    assert_ne!(
        mixed_render,
        golden("components", "txt"),
        "mixed-50-50 components rendered the homogeneous bytes"
    );

    // The same schedule under the mixed config through the library entry
    // point (the path `pmss query`-style callers take).
    let schedule = pmss::sched::generate(mixed_spec.trace_params(), &pmss::sched::catalog());
    let cfg = Pipeline::new(mixed_spec)
        .expect("valid spec")
        .fleet_config();
    let _: EnergyLedger = simulate_fleet(&schedule, &cfg);

    // A fresh homogeneous pipeline must still match every pinned golden.
    let mut clean = Pipeline::new(ScenarioSpec::preset(ScalePreset::Quick)).expect("valid spec");
    for id in [
        ArtifactId::Table4,
        ArtifactId::Table5,
        ArtifactId::Fig8,
        ArtifactId::Components,
    ] {
        let got = clean.artifact(id).expect("artifact").render_ascii();
        assert_eq!(
            got,
            golden(id.name(), "txt"),
            "homogeneous artifact {} drifted after a mixed-fleet run",
            id.name()
        );
    }

    // And so must the CLI path itself.
    let args: Vec<String> = ["components", "--scale", "quick"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(
        cli::run(&args).expect("cli run"),
        golden("components", "txt")
    );
}
