//! Golden tests: the `pmss` CLI must reproduce the pre-refactor binaries'
//! ASCII output byte-for-byte, and the `--json` envelope for the seeded
//! headline artifacts must stay stable.
//!
//! The `tests/golden/*.txt` files were captured from the original
//! per-artifact binaries (since deleted) at the default (quick) scale
//! before they were collapsed into the pipeline; `tests/golden/*.json` pins the
//! structured output introduced with it.  The default scenario renders
//! them under every spelling of it — omitting a field or naming its
//! default (`econ: flat`, `fleet_mix: "single-sku"`, `--faults none`)
//! — and no other run perturbs them.  Every pipeline fills its metrics
//! registry, so every render here is also a metered one.

mod support;

use pmss::econ::EconTrace;
use pmss::faults::FaultPlan;
use pmss::pipeline::{ArtifactId, Json, Pipeline, ScalePreset, ScenarioSpec};
use pmss::telemetry::{scoped_map, simulate_fleet, workers};
use support::{cli_run, golden};

/// A quick-scale pipeline.
fn quick_pipeline() -> Pipeline {
    Pipeline::new(ScenarioSpec::preset(ScalePreset::Quick)).expect("quick spec is valid")
}

/// Every artifact of `p` renders its ASCII golden — the bytes the
/// dedicated binary printed.
fn assert_every_artifact_renders_its_golden(spelling: &str, mut p: Pipeline) {
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
    assert!(bad.is_empty(), "{spelling}: drift:\n{}", bad.join("\n"));
}

#[test]
fn ascii_matches_the_pre_refactor_binaries() {
    assert_every_artifact_renders_its_golden("spec as preset", quick_pipeline());
}

#[test]
fn flat_trace_spec_renders_every_golden_byte_for_byte() {
    let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
    spec.econ = Some(EconTrace::flat());
    let p = Pipeline::new(spec).expect("valid spec");
    assert_every_artifact_renders_its_golden("econ: flat", p);
}

#[test]
fn single_sku_spec_renders_every_golden_byte_for_byte() {
    let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
    spec.fleet_mix = Some("single-sku".to_string());
    let p = Pipeline::new(spec).expect("valid spec");
    assert_every_artifact_renders_its_golden("fleet_mix: single-sku", p);
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
        let got = cli_run(&[name, "--json", "--scale", "quick"]);
        assert_eq!(got, golden(name, "json"), "JSON drift in {name}");
    }
}

/// How a CLI case is spelled: as written, or with flags naming the
/// default the command line otherwise leaves out.
type Spelling = &'static [&'static str];
const AS_WRITTEN: Spelling = &[];
const ECON_FLAT: Spelling = &["--econ", "flat"];
const SINGLE_SKU: Spelling = &["--mix", "single-sku"];
const NO_FAULTS: Spelling = &["--faults", "none"];

/// Clean and faulted CLI runs pinned in both renderings: command line,
/// golden, extension, and the spellings each runs under.
const CLI_CASES: [(&str, &str, &str, &[Spelling]); 17] = [
    ("faults --scale quick", "faults", "txt", &[AS_WRITTEN]),
    (
        "faults --scale quick --json",
        "faults",
        "json",
        &[AS_WRITTEN],
    ),
    (
        "table3 --scale quick",
        "table3",
        "txt",
        &[ECON_FLAT, SINGLE_SKU],
    ),
    (
        "table3 --scale quick --json",
        "table3",
        "json",
        &[ECON_FLAT, SINGLE_SKU],
    ),
    ("whatif --scale quick", "whatif", "txt", &[ECON_FLAT]),
    ("econ --scale quick", "econ", "txt", &[ECON_FLAT]),
    ("econ --scale quick --json", "econ", "json", &[ECON_FLAT]),
    (
        "components --scale quick",
        "components",
        "txt",
        &[SINGLE_SKU],
    ),
    (
        "components --scale quick --json",
        "components",
        "json",
        &[SINGLE_SKU],
    ),
    (
        "fig 2 --scale quick",
        "fig2",
        "txt",
        &[AS_WRITTEN, NO_FAULTS, ECON_FLAT],
    ),
    (
        "fig 2 --scale quick --json",
        "fig2",
        "json",
        &[AS_WRITTEN, NO_FAULTS, ECON_FLAT],
    ),
    (
        "govern --scale quick --faults frontier-typical",
        "govern-frontier-typical",
        "txt",
        &[AS_WRITTEN, ECON_FLAT, SINGLE_SKU],
    ),
    (
        "govern --scale quick --faults frontier-typical --json",
        "govern-frontier-typical",
        "json",
        &[AS_WRITTEN, ECON_FLAT, SINGLE_SKU],
    ),
    (
        "stream --scale quick --faults frontier-typical",
        "stream-frontier-typical",
        "txt",
        &[AS_WRITTEN, ECON_FLAT, SINGLE_SKU],
    ),
    (
        "stream --scale quick --faults frontier-typical --json",
        "stream-frontier-typical",
        "json",
        &[AS_WRITTEN, SINGLE_SKU],
    ),
    (
        "table 4 --scale quick --faults frontier-typical",
        "table4-frontier-typical",
        "txt",
        &[AS_WRITTEN, ECON_FLAT, SINGLE_SKU],
    ),
    (
        "table 4 --scale quick --faults frontier-typical --json",
        "table4-frontier-typical",
        "json",
        &[AS_WRITTEN, ECON_FLAT, SINGLE_SKU],
    ),
];

/// Runs every [`CLI_CASES`] row spelled `spelling` and compares it with
/// its golden.
fn cli_cases_match_their_goldens(spelling: Spelling) {
    for (line, name, ext, spellings) in CLI_CASES {
        if !spellings.contains(&spelling) {
            continue;
        }
        let mut argv: Vec<&str> = line.split_whitespace().collect();
        argv.extend_from_slice(spelling);
        assert_eq!(
            cli_run(&argv),
            golden(name, ext),
            "golden drift in {name}.{ext} under `{}`",
            argv.join(" ")
        );
    }
}

/// `pmss faults`, `pmss fig 2` and the faulted preset runs, as written,
/// are pinned byte-for-byte in both renderings.
#[test]
fn faulted_runs_match_the_golden_captures() {
    cli_cases_match_their_goldens(AS_WRITTEN);
}

/// `--econ flat` is a no-op for output bytes, clean and faulted —
/// including `whatif`, whose render grows an econ section the moment a
/// trace is *active*.
#[test]
fn flat_econ_cli_flag_matches_clean_and_faulted_goldens() {
    cli_cases_match_their_goldens(ECON_FLAT);
}

/// `--mix single-sku` is a no-op for output bytes, clean and faulted.
#[test]
fn single_sku_cli_flag_matches_clean_and_faulted_goldens() {
    cli_cases_match_their_goldens(SINGLE_SKU);
}

/// `pmss fig 2 --faults none` is `pmss fig 2`, and its JSON envelope
/// gains no `faults` section.
#[test]
fn zero_fault_cli_runs_are_byte_identical() {
    cli_cases_match_their_goldens(NO_FAULTS);
    assert!(!golden("fig2", "json").contains("\"faults\""));
}

/// An active `--econ diurnal` trace is pinned byte-for-byte in both
/// renderings of the what-if artifact — the seam where the econ section
/// joins a historical artifact rather than standing alone.
#[test]
fn econ_runs_match_the_golden_captures() {
    for (argv, ext) in [
        (
            &["whatif", "--scale", "quick", "--econ", "diurnal"][..],
            "txt",
        ),
        (
            &["whatif", "--scale", "quick", "--econ", "diurnal", "--json"],
            "json",
        ),
    ] {
        let got = cli_run(argv);
        assert_eq!(
            got,
            golden("whatif-econ-diurnal", ext),
            "golden drift in {ext}"
        );
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
    let mut p = Pipeline::new(spec).expect("custom spec is valid");
    let got = p
        .artifact(ArtifactId::Govern)
        .expect("govern artifact")
        .render_ascii();
    assert_eq!(got, golden("govern-custom", "txt"));
}

/// Runs that must leave every batch artifact computed after them
/// untouched: what ran, a function making the run and returning the
/// pipeline the artifacts are then computed in, and the artifacts.
type Perturbation = (&'static str, fn() -> Pipeline, &'static [ArtifactId]);

const PERTURBATIONS: [Perturbation; 3] = {
    use ArtifactId::*;
    [
        ("a stream replay", || after(Stream), &[Table4, Table5, Fig8]),
        (
            "a governor replay",
            || after(Govern),
            &[Fig2, Table4, Table5],
        ),
        (
            "a mixed-fleet run",
            after_a_mixed_fleet_run,
            &[Table4, Table5, Fig8, Components],
        ),
    ]
};

/// The same quick pipeline, after it computed `id`.
fn after(id: ArtifactId) -> Pipeline {
    let mut p = quick_pipeline();
    p.artifact(id).expect("artifact");
    p
}

/// Runs a mixed fleet through a pipeline and through the bare
/// `simulate_fleet` entry point (the path `pmss query`-style callers
/// take), then returns a fresh homogeneous pipeline: runs share nothing,
/// so their order cannot matter.
fn after_a_mixed_fleet_run() -> Pipeline {
    let mut mixed_spec = ScenarioSpec::preset(ScalePreset::Quick);
    mixed_spec.fleet_mix = Some("mixed-50-50".to_string());
    let mut mixed = Pipeline::new(mixed_spec.clone()).expect("valid spec");
    let mixed_render = mixed
        .artifact(ArtifactId::Components)
        .expect("components")
        .render_ascii();
    // The mix must actually change bytes, or this guard is vacuous.
    assert_ne!(
        mixed_render,
        golden("components", "txt"),
        "mixed-50-50 components rendered the homogeneous bytes"
    );
    let schedule = pmss::sched::generate(mixed_spec.trace_params(), &pmss::sched::catalog());
    let _: pmss::core::EnergyLedger = simulate_fleet(&schedule, &mixed.fleet_config());
    Pipeline::new(ScenarioSpec::preset(ScalePreset::Quick)).expect("valid spec")
}

fn assert_not_perturbed(row: usize) {
    let (what, run, artifacts) = PERTURBATIONS[row];
    let mut p = run();
    for &id in artifacts {
        assert_eq!(
            p.artifact(id).expect("artifact").render_ascii(),
            golden(id.name(), "txt"),
            "batch artifact {} drifted after {what}",
            id.name()
        );
    }
}

#[test]
fn stream_replay_does_not_perturb_batch_artifacts() {
    assert_not_perturbed(0);
}

#[test]
fn govern_replay_does_not_perturb_batch_artifacts() {
    assert_not_perturbed(1);
}

#[test]
fn mixed_runs_never_perturb_homogeneous_artifacts() {
    assert_not_perturbed(2);
    // And so must the CLI path itself.
    assert_eq!(
        cli_run(&["components", "--scale", "quick"]),
        golden("components", "txt")
    );
}

/// The default CLI path (no flags) renders the same bytes as the library
/// API — the shim in `src/main.rs` only prints the returned string.
#[test]
fn cli_default_output_equals_library_render() {
    let via_cli = cli_run(&["table3"]);
    let via_lib = quick_pipeline()
        .artifact(ArtifactId::Table3)
        .expect("artifact")
        .render_ascii();
    assert_eq!(via_cli, via_lib);
}

/// One rendering of a threaded artifact and the worker count its
/// registry reports.
type Leg = fn() -> (String, f64);

/// Renders `id` for `spec` through a collecting pipeline.
fn pipeline_leg(spec: ScenarioSpec, id: ArtifactId) -> (String, f64) {
    let mut p = Pipeline::new(spec).expect("valid spec");
    let text = p.artifact(id).expect("artifact").render_ascii();
    let workers = p.metrics_report().gauge("fleet.workers");
    (text, workers.expect("fleet.workers"))
}

/// `pmss --scale quick <args> --metrics` for a JSON-rendering command
/// (`query`, or an artifact with `--json`; a `--scale` in `args` wins):
/// the document with the report taken off, and the report's worker count.
fn json_leg(args: &[&str]) -> (String, f64) {
    let mut argv = vec!["--scale", "quick"];
    argv.extend_from_slice(args);
    argv.push("--metrics");
    let Json::Obj(fields) = Json::parse(&cli_run(&argv)).expect("answer parses") else {
        panic!("the answer is an object");
    };
    let (report, answer): (Vec<_>, Vec<_>) = fields
        .into_iter()
        .partition(|(key, _)| key == "run" || key == "metrics");
    let workers = Json::Obj(report)
        .get("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(|g| g.get("fleet.workers"))
        .and_then(Json::as_f64);
    (
        Json::Obj(answer).to_string_pretty(),
        workers.expect("fleet.workers"),
    )
}

/// A quick spec with `edit` applied: the flags of a CLI run.
fn quick_with(edit: impl FnOnce(&mut ScenarioSpec)) -> ScenarioSpec {
    let mut spec = quick_spec();
    edit(&mut spec);
    spec
}

/// `--faults <preset>`.
fn faults(preset: &str) -> Option<FaultPlan> {
    Some(FaultPlan::preset(preset).expect("preset"))
}

/// The goldens of the artifacts whose channel loop runs on workers —
/// the traced runs behind `stream` and `govern`, the observers `fig 2`,
/// `peakpower`, `faults` and the fleet stage fold per channel, and the
/// resident capture behind `pmss query` — and how each is rendered.
const THREADED_CASES: [(&str, &str, Leg); 18] = [
    ("stream", "txt", || {
        pipeline_leg(quick_spec(), ArtifactId::Stream)
    }),
    ("stream-frontier-typical", "txt", || {
        let spec = quick_with(|s| s.faults = faults("frontier-typical"));
        pipeline_leg(spec, ArtifactId::Stream)
    }),
    ("govern", "txt", || {
        pipeline_leg(quick_spec(), ArtifactId::Govern)
    }),
    ("govern-frontier-typical", "txt", || {
        let spec = quick_with(|s| s.faults = faults("frontier-typical"));
        pipeline_leg(spec, ArtifactId::Govern)
    }),
    ("govern-custom", "txt", || {
        let mut spec = quick_spec();
        let mut plan = pmss::govern::GovernorPlan::preset("polimer").expect("known preset");
        plan.interval_windows = 3;
        plan.budget_w = Some(40_000.0);
        spec.govern = Some(plan);
        pipeline_leg(spec, ArtifactId::Govern)
    }),
    ("fig2", "txt", || {
        pipeline_leg(quick_spec(), ArtifactId::Fig2)
    }),
    ("peakpower", "txt", || {
        pipeline_leg(quick_spec(), ArtifactId::PeakPower)
    }),
    ("faults", "txt", || {
        pipeline_leg(quick_spec(), ArtifactId::Faults)
    }),
    ("fig8", "txt", || {
        pipeline_leg(quick_spec(), ArtifactId::Fig8)
    }),
    ("fig9", "txt", || {
        pipeline_leg(quick_spec(), ArtifactId::Fig9)
    }),
    ("sensitivity", "txt", || {
        pipeline_leg(quick_spec(), ArtifactId::Sensitivity)
    }),
    ("whatif-econ-diurnal", "txt", || {
        let spec = quick_with(|s| s.econ = Some(EconTrace::preset("diurnal").expect("preset")));
        pipeline_leg(spec, ArtifactId::Whatif)
    }),
    ("table5", "json", || json_leg(&["table", "5", "--json"])),
    ("whatif-econ-diurnal", "json", || {
        json_leg(&["whatif", "--json", "--econ", "diurnal"])
    }),
    ("query-projection", "json", || {
        json_leg(&["query", "projection"])
    }),
    ("query-ledger", "json", || json_leg(&["query", "ledger"])),
    ("query-econ-diurnal", "json", || {
        json_leg(&["query", "econ", "--econ", "diurnal"])
    }),
    ("query-coverage-frontier-typical", "json", || {
        json_leg(&["query", "coverage", "--faults", "frontier-typical"])
    }),
];

/// Threaded runs no golden pins — faulted, mixed and priced variants, and
/// the full-precision JSON of the stage's tables and of `fig 2` and
/// `peakpower` under `harsh`, whose duplicated windows put
/// order-sensitive sums into it — named by their command line.
const UNPINNED_THREADED_CASES: [(&str, Leg); 12] = [
    ("faults --faults harsh", || {
        pipeline_leg(
            quick_with(|s| s.faults = faults("harsh")),
            ArtifactId::Faults,
        )
    }),
    ("faults --mix mixed-50-50", || {
        let spec = quick_with(|s| s.fleet_mix = Some("mixed-50-50".to_string()));
        pipeline_leg(spec, ArtifactId::Faults)
    }),
    ("govern --faults harsh", || {
        pipeline_leg(
            quick_with(|s| s.faults = faults("harsh")),
            ArtifactId::Govern,
        )
    }),
    ("stream --faults harsh", || {
        pipeline_leg(
            quick_with(|s| s.faults = faults("harsh")),
            ArtifactId::Stream,
        )
    }),
    ("table 5 --mix mixed-50-50", || {
        let spec = quick_with(|s| s.fleet_mix = Some("mixed-50-50".to_string()));
        pipeline_leg(spec, ArtifactId::Table5)
    }),
    ("econ --econ diurnal", || {
        let spec = quick_with(|s| s.econ = Some(EconTrace::preset("diurnal").expect("preset")));
        pipeline_leg(spec, ArtifactId::Econ)
    }),
    ("query ledger --faults frontier-typical", || {
        json_leg(&["query", "ledger", "--faults", "frontier-typical"])
    }),
    ("table 5 --json --scale medium", || {
        json_leg(&["table", "5", "--json", "--scale", "medium"])
    }),
    ("query projection --scale medium", || {
        json_leg(&["query", "projection", "--scale", "medium"])
    }),
    ("table 4 --json --faults harsh", || {
        json_leg(&["table", "4", "--json", "--faults", "harsh"])
    }),
    ("fig 2 --json --faults harsh", || {
        json_leg(&["fig", "2", "--json", "--faults", "harsh"])
    }),
    ("peakpower --json --faults harsh", || {
        json_leg(&["peakpower", "--json", "--faults", "harsh"])
    }),
];

fn quick_spec() -> ScenarioSpec {
    ScenarioSpec::preset(ScalePreset::Quick)
}

/// Renders `leg` at one worker — the only job of a two-worker scope,
/// where `workers()` is 1 — and called directly, on every core, checking
/// the worker count each leg's registry reports.  On a machine with one
/// CPU the direct leg is a second one-worker leg.
fn at_one_worker_and_every_core(name: &str, leg: Leg) -> (String, String) {
    let cores = workers();
    let (one, one_workers) = scoped_map(2, 1, |_| leg()).remove(0);
    assert_eq!(one_workers, 1.0, "{name}: the one-worker leg");
    let (all, all_workers) = leg();
    assert_eq!(all_workers, cores as f64, "{name}: the every-core leg");
    assert!(cores < 2 || all_workers >= 2.0);
    (one, all)
}

/// The worker column: every [`THREADED_CASES`] golden rendered at one
/// worker and on every core is the golden's bytes.
#[test]
fn threaded_artifacts_match_their_goldens_at_one_worker_and_at_every_core() {
    if workers() < 2 {
        println!("one CPU: the every-core leg ran on one worker too");
    }
    for (name, ext, leg) in THREADED_CASES {
        let want = golden(name, ext);
        let (one, all) = at_one_worker_and_every_core(name, leg);
        assert!(one == want, "{name}.{ext}: drift at one worker");
        assert!(all == want, "{name}.{ext}: drift at every core");
    }
}

/// The same column for [`UNPINNED_THREADED_CASES`]: the two renderings
/// are equal, where results merged out of node order would differ.
#[test]
fn unpinned_threaded_runs_render_the_same_at_one_worker_and_at_every_core() {
    if workers() < 2 {
        println!("one CPU: the every-core leg ran on one worker too");
    }
    for (name, leg) in UNPINNED_THREADED_CASES {
        let (one, all) = at_one_worker_and_every_core(name, leg);
        assert!(
            one == all,
            "pmss {name}: differs between one worker and every core"
        );
    }
}
