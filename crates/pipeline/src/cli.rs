//! The `pmss` command-line front end.
//!
//! One binary replaces the 21 per-artifact binaries: `pmss fig 2`,
//! `pmss table 3`, `pmss validate`, … each rendering the byte-identical
//! ASCII of the binary it replaced, or structured JSON with `--json`.
//! [`run`] takes argv (minus the program name) and returns the full
//! output text, which keeps the CLI itself testable.

use pmss_core::sensitivity::Boundaries;
use pmss_core::EnergyLedger;
use pmss_econ::{EconSeries, EconTrace};
use pmss_error::PmssError;
use pmss_faults::{FaultPlan, PRESETS};
use pmss_gpu::FleetMix;
use pmss_obs::Stopwatch;
use pmss_stream::StreamState;
use pmss_telemetry::{capture_blocks, Pair, ResidentFleet};

use crate::artifact::ArtifactId;
use crate::json::Json;
use crate::metrics::{manifest, manifest_to_json, metrics_to_json};
use crate::render::{bounds_json, coverage_json};
use crate::spec::{
    econ_trace_from_json, econ_trace_to_json, fault_plan_from_json, fault_plan_to_json,
    ScalePreset, ScenarioSpec, SCALE_ENV,
};
use crate::stage::{generation, Pipeline};

/// Runs the CLI for `args` (argv without the program name) and returns
/// everything that should be printed to stdout.
///
/// Errors are [`PmssError`]s; [`PmssError::Usage`] marks bad invocations.
pub fn run(args: &[String]) -> Result<String, PmssError> {
    let mut json = false;
    let mut metrics_flag = false;
    let mut scale: Option<String> = None;
    let mut spec_path: Option<String> = None;
    let mut faults_arg: Option<String> = None;
    let mut mix_arg: Option<String> = None;
    let mut econ_arg: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--metrics" => metrics_flag = true,
            "--scale" => scale = Some(flag_value(&mut it, "--scale")?),
            "--spec" => spec_path = Some(flag_value(&mut it, "--spec")?),
            "--faults" => faults_arg = Some(flag_value(&mut it, "--faults")?),
            "--mix" => mix_arg = Some(flag_value(&mut it, "--mix")?),
            "--econ" => econ_arg = Some(flag_value(&mut it, "--econ")?),
            "-h" | "--help" | "help" => return Ok(help_text()),
            other if other.starts_with('-') => {
                return Err(PmssError::Usage(format!(
                    "unknown option {other:?}; try `pmss --help`"
                )))
            }
            other => positional.push(other.to_string()),
        }
    }
    if positional.is_empty() {
        return Ok(help_text());
    }
    if positional[0] == "list" {
        return Ok(list_text());
    }

    let spec = resolve_scenario(
        scale.as_deref(),
        spec_path.as_deref(),
        faults_arg.as_deref(),
        mix_arg.as_deref(),
        econ_arg.as_deref(),
    )?;
    if positional[0] == "query" {
        return query_cmd(&positional[1..], spec, metrics_flag);
    }
    if positional[0] == "spec" {
        return Ok(if json {
            spec.to_json().to_string_pretty()
        } else {
            render_spec(&spec)
        });
    }
    if positional[0] == "stats" {
        if positional.len() > 1 {
            return Err(PmssError::Usage(format!(
                "stats takes no arguments, got {:?}",
                positional[1..].join(" ")
            )));
        }
        return stats(spec, json);
    }

    let id = parse_artifact(&positional)?;
    // The pipeline always collects; `--metrics` only decides whether the
    // registry is printed.
    let mut pipeline = Pipeline::new(spec)?;
    let sw = Stopwatch::start();
    let artifact = pipeline.artifact(id)?;
    let faults_section = if json {
        faults_envelope(&mut pipeline)?
    } else {
        None
    };
    let econ_section = if json {
        econ_envelope(&mut pipeline)?
    } else {
        None
    };
    let report = metrics_flag.then(|| {
        let man = manifest(&positional.join(" "), pipeline.spec(), sw.elapsed_s());
        (man, pipeline.metrics_report())
    });
    Ok(if json {
        let mut envelope = Json::obj()
            .field("artifact", id.name())
            .field("spec", pipeline.spec().to_json())
            .field("data", artifact.to_json());
        if let Some(f) = faults_section {
            envelope = envelope.field("faults", f);
        }
        if let Some(e) = econ_section {
            envelope = envelope.field("econ", e);
        }
        if let Some((man, m)) = &report {
            envelope = envelope
                .field("run", manifest_to_json(man))
                .field("metrics", metrics_to_json(m));
        }
        envelope.to_string_pretty()
    } else {
        let mut out = artifact.render_ascii();
        if let Some((man, m)) = &report {
            out.push('\n');
            out.push_str(&crate::metrics::render_ascii(man, m));
        }
        out
    })
}

/// The `pmss query` subcommand: the batch comparator for the `pmssd`
/// differential guard.  The campaign is captured into the resident store
/// — exactly the frames a daemon tenant would be fed — then *batch*
/// replayed (block-at-a-time fold, no streaming engine) into a
/// [`StreamState`], and the answer rendered through the same
/// [`crate::query::answer`] path the daemon uses.  Byte-equality of the
/// two outputs is therefore a real cross-implementation check: different
/// accumulation order, same bytes.  With `--metrics` the answer gains the
/// `run` manifest and the registry — the capture's generation, its row
/// tallies and the store's size beside Table III's stage — as every
/// artifact's JSON envelope does.
fn query_cmd(rest: &[String], spec: ScenarioSpec, metrics_flag: bool) -> Result<String, PmssError> {
    let q = crate::query::Query::from_args(rest)?;
    let econ = spec.active_econ().cloned();
    let mut p = Pipeline::new(spec)?;
    let sw = Stopwatch::start();
    // The schedule alone: the fleet stage would fold the ledger over a run
    // whose blocks this command generates again for the capture.
    let schedule = p.schedule();
    let cfg = p.fleet_config();
    let (resident, _) = generation(&mut p.metrics, &schedule, &[cfg.faults.as_ref()], || {
        let mut resident = ResidentFleet::default();
        let stats = capture_blocks(&schedule, &cfg, |block| {
            resident.push(block);
            Ok::<_, PmssError>(())
        })?;
        Ok((resident, vec![stats]))
    })?;
    p.metrics.gauge_set("resident.rows", resident.rows() as f64);
    p.metrics
        .gauge_set("resident.payload_bytes", resident.payload_bytes() as f64);
    // Replay into the same paired observer the daemon's ingest engine
    // runs: the ledger member's fold is unchanged by pairing, and the
    // econ series rides along so `pmss query econ` answers from the
    // identical per-slot accumulation the daemon snapshots.
    let pair: Pair<EnergyLedger, EconSeries> = resident.replay(&schedule)?;
    let state = StreamState::with_econ(pair.a, pair.b, p.spec().frontier_factor());
    let mut answer = crate::query::answer(&state, p.table3()?, econ.as_ref(), &q)?;
    if metrics_flag {
        let man = manifest(
            &format!("query {}", rest.join(" ")),
            p.spec(),
            sw.elapsed_s(),
        );
        answer = answer
            .field("run", manifest_to_json(&man))
            .field("metrics", metrics_to_json(&p.metrics_report()));
    }
    Ok(answer.to_string_pretty())
}

/// The `stats` subcommand: run the full staged pipeline (fleet, benchmark,
/// projection) and report only the manifest + metrics.
fn stats(spec: ScenarioSpec, json: bool) -> Result<String, PmssError> {
    let mut p = Pipeline::new(spec)?;
    let sw = Stopwatch::start();
    p.fleet()?;
    p.table3()?;
    p.projection()?;
    let man = manifest("stats", p.spec(), sw.elapsed_s());
    let m = p.metrics_report();
    Ok(if json {
        Json::obj()
            .field("run", manifest_to_json(&man))
            .field("metrics", metrics_to_json(&m))
            .to_string_pretty()
    } else {
        crate::metrics::render_ascii(&man, &m)
    })
}

/// Resolves a `--faults` value: a severity preset name, or the path of a
/// JSON file holding a full [`FaultPlan`].
fn resolve_fault_plan(value: &str) -> Result<FaultPlan, PmssError> {
    if PRESETS.contains(&value) {
        return FaultPlan::preset(value);
    }
    let text = std::fs::read_to_string(value).map_err(|_| {
        PmssError::invalid_value(
            "--faults",
            value,
            "none | mild | frontier-typical | harsh | a readable FaultPlan JSON file",
        )
    })?;
    fault_plan_from_json(&Json::parse(&text)?)
}

/// Resolves an `--econ` value: a trace preset name, or the path of a
/// JSON file holding a full [`EconTrace`].
fn resolve_econ_trace(value: &str) -> Result<EconTrace, PmssError> {
    if let Some(trace) = EconTrace::preset(value) {
        return Ok(trace);
    }
    let text = std::fs::read_to_string(value).map_err(|_| {
        PmssError::invalid_value(
            "--econ",
            value,
            "flat | diurnal | duck-curve | grid-2024 | a readable EconTrace JSON file",
        )
    })?;
    econ_trace_from_json(&Json::parse(&text)?)
}

/// The JSON envelope's `econ` section: the active trace and the
/// trace-priced cost/carbon of the fleet energy, next to the flat-trace
/// reference.  `None` when no active trace is set (or it is a no-op
/// flat trace) or the artifact never ran the fleet stage — omission
/// keeps every historical JSON envelope byte-identical.
fn econ_envelope(p: &mut Pipeline) -> Result<Option<Json>, PmssError> {
    let Some(trace) = p.spec().active_econ().cloned() else {
        return Ok(None);
    };
    let Some((Some(series), factor)) = p.fleet.as_ref().map(|f| (&f.econ, f.frontier_factor))
    else {
        return Ok(None);
    };
    let scaled = series.scaled(factor)?;
    let flat = EconTrace::flat();
    Ok(Some(
        Json::obj()
            .field("trace", econ_trace_to_json(&trace))
            .field("cost_usd", scaled.cost_usd(&trace))
            .field("carbon_t", scaled.carbon_kg(&trace) / 1e3)
            .field("ref_cost_usd", scaled.cost_usd(&flat))
            .field("ref_carbon_t", scaled.carbon_kg(&flat) / 1e3),
    ))
}

/// The JSON envelope's `faults` section: the active plan, the per-mode
/// coverage of the decomposition, and coverage-adjusted savings bounds.
/// `None` for clean runs or when the artifact never ran the fleet stage.
fn faults_envelope(p: &mut Pipeline) -> Result<Option<Json>, PmssError> {
    let Some(plan) = p.spec().active_faults().cloned() else {
        return Ok(None);
    };
    let Some(cov) = p.fleet.as_ref().map(|f| f.ledger.coverage()) else {
        return Ok(None);
    };
    let bounds = p
        .projection()?
        .best_free()
        .coverage_bounds_dt0(cov.fraction());
    Ok(Some(
        Json::obj()
            .field("plan", fault_plan_to_json(&plan))
            .field("coverage", coverage_json(&cov))
            .field("best_free_bounds", bounds_json(&bounds)),
    ))
}

/// The value following `flag` on the command line; a missing one is a
/// [`PmssError::Usage`] error.  Shared with the `pmssd` front end.
pub fn flag_value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<String, PmssError> {
    it.next()
        .map(|s| s.to_string())
        .ok_or_else(|| PmssError::Usage(format!("{flag} requires a value")))
}

/// Resolves the scenario flags into a [`ScenarioSpec`]: `--scale` or
/// `--spec` (mutually exclusive; with neither, `PMSS_SCALE`) picks the
/// base spec, and `--faults`, `--mix` and `--econ` (a preset name, or for
/// faults and econ the path of a JSON file) replace its fault plan, fleet
/// mix and econ trace.  Shared with the `pmssd` client so a daemon
/// tenant and its batch comparator resolve the identical scenario.
pub fn resolve_scenario(
    scale: Option<&str>,
    spec_path: Option<&str>,
    faults: Option<&str>,
    mix: Option<&str>,
    econ: Option<&str>,
) -> Result<ScenarioSpec, PmssError> {
    let mut spec = resolve_spec(scale, spec_path)?;
    if let Some(value) = faults {
        spec.faults = Some(resolve_fault_plan(value)?);
    }
    if let Some(value) = mix {
        if FleetMix::preset(value).is_none() {
            return Err(PmssError::invalid_value(
                "--mix",
                value,
                FleetMix::preset_names().join(" | "),
            ));
        }
        spec.fleet_mix = Some(value.to_string());
    }
    if let Some(value) = econ {
        spec.econ = Some(resolve_econ_trace(value)?);
    }
    Ok(spec)
}

/// Resolves `--scale` / `--spec` into the base [`ScenarioSpec`].
fn resolve_spec(scale: Option<&str>, spec_path: Option<&str>) -> Result<ScenarioSpec, PmssError> {
    match (spec_path, scale) {
        (Some(_), Some(_)) => Err(PmssError::Usage(
            "--spec and --scale are mutually exclusive (the spec file already fixes the scale)"
                .to_string(),
        )),
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)?;
            ScenarioSpec::from_json(&Json::parse(&text)?)
        }
        (None, Some(name)) => ScalePreset::from_name("--scale", name).map(ScenarioSpec::preset),
        (None, None) => ScenarioSpec::from_env(),
    }
}

fn parse_artifact(positional: &[String]) -> Result<ArtifactId, PmssError> {
    let name = match positional {
        [single] => single.clone(),
        [kind, num] if kind == "fig" || kind == "table" => format!("{kind}{num}"),
        _ => {
            return Err(PmssError::Usage(format!(
                "unexpected arguments {:?}; try `pmss --help`",
                positional[1..].join(" ")
            )))
        }
    };
    ArtifactId::from_name(&name)
}

fn render_spec(spec: &ScenarioSpec) -> String {
    let bands = Boundaries::default();
    let caps = |v: &[f64]| {
        v.iter()
            .map(|c| format!("{c:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = format!(
        "scenario: {}\n  nodes: {}, days: {}, seed: {}, min job: {} s\n  \
         freq caps (MHz): {}\n  power caps (W):  {}\n  \
         boundaries (W):  latency/MI {:.0}, MI/CI {:.0}, CI/boost {:.0}\n",
        spec.name,
        spec.nodes,
        spec.days,
        spec.seed,
        spec.min_job_s,
        caps(&spec.freq_caps_mhz),
        caps(&spec.power_caps_w),
        bands.latency_mi_w,
        bands.mi_ci_w,
        bands.ci_boost_w,
    );
    if let Some(name) = spec.active_mix() {
        let pattern = spec
            .resolved_mix()
            .pattern()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("  fleet mix: {name} (SKU pattern [{pattern}])\n"));
    }
    if let Some(p) = spec.active_faults() {
        out.push_str(&format!(
            "  faults: seed {}, drop {:.4}, dup {:.4}, glitch {:.4}, \
             dropout {:.4}, reorder {}, skew {:.1} s, policy {}\n",
            p.seed,
            p.drop_prob,
            p.dup_prob,
            p.nan_prob + p.spike_prob,
            p.dropout_prob,
            p.reorder_depth,
            p.clock_skew_max_s,
            p.gap_policy.name(),
        ));
    }
    out
}

fn help_text() -> String {
    format!(
        "pmss — reproduce the paper's figures, tables, and extensions\n\
         \n\
         USAGE:\n\
         \x20   pmss fig <2..10> [OPTIONS]       a paper figure\n\
         \x20   pmss table <1..7> [OPTIONS]      a paper table\n\
         \x20   pmss <EXTENSION> [OPTIONS]       validate | whatif | governor | peakpower | sensitivity | faults | stream | govern | components | econ\n\
         \x20   pmss list                        list every artifact\n\
         \x20   pmss spec [OPTIONS]              print the resolved scenario\n\
         \x20   pmss stats [OPTIONS]             run the full pipeline, report metrics only\n\
         \x20   pmss query <WHAT> [OPTIONS]      batch-replay query (the pmssd differential\n\
         \x20                                    comparator): projection | coverage | ledger |\n\
         \x20                                    econ | whatif <freq_mhz|power_w> <VALUE>\n\
         \x20   pmss serve [OPTIONS]             run the pmssd analysis daemon (see pmss serve --help)\n\
         \x20   pmss client <CMD> [OPTIONS]      drive a running daemon (ingest, query, metrics)\n\
         \n\
         OPTIONS:\n\
         \x20   --json           structured JSON output instead of ASCII\n\
         \x20   --metrics        append the run manifest + metrics report\n\
         \x20   --scale <NAME>   scenario preset: quick | medium | large\n\
         \x20                    (default: quick, or the {SCALE_ENV} environment variable)\n\
         \x20   --spec <FILE>    load a full ScenarioSpec from a JSON file\n\
         \x20   --faults <PLAN>  inject seeded telemetry faults into every fleet run:\n\
         \x20                    none | mild | frontier-typical | harsh, or a FaultPlan\n\
         \x20                    JSON file (`none` is bit-identical to omitting the flag)\n\
         \x20   --mix <NAME>     heterogeneous SKU mix for every fleet run:\n\
         \x20                    single-sku | mixed-50-50 | mixed-datacenter\n\
         \x20                    (`single-sku` is bit-identical to omitting the flag)\n\
         \x20   --econ <TRACE>   price/carbon trace for cost and CO2 accounting:\n\
         \x20                    flat | diurnal | duck-curve | grid-2024, or an\n\
         \x20                    EconTrace JSON file (`flat` is bit-identical to\n\
         \x20                    omitting the flag)\n\
         \x20   -h, --help       this help\n"
    )
}

fn list_text() -> String {
    let mut out = String::new();
    for id in ArtifactId::all() {
        out.push_str(&format!("{:<12} {}\n", id.name(), id.title()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_list_need_no_pipeline() {
        assert!(run(&args(&["--help"])).unwrap().contains("USAGE"));
        assert!(run(&args(&[])).unwrap().contains("USAGE"));
        let list = run(&args(&["list"])).unwrap();
        for id in ArtifactId::all() {
            assert!(list.contains(id.name()), "{list}");
        }
    }

    #[test]
    fn unknown_artifacts_and_options_are_usage_errors() {
        assert!(matches!(
            run(&args(&["fig", "99"])),
            Err(PmssError::InvalidValue { .. })
        ));
        // The retired throughput subcommand is an unknown artifact like
        // any other, and the help text no longer offers it.
        assert!(matches!(
            run(&args(&["bench-fleet"])),
            Err(PmssError::InvalidValue { .. })
        ));
        assert!(!help_text().contains("bench-fleet"));
        assert!(matches!(
            run(&args(&["--frobnicate"])),
            Err(PmssError::Usage(_))
        ));
        assert!(matches!(run(&args(&["--scale"])), Err(PmssError::Usage(_))));
        assert!(matches!(
            run(&args(&["--scale", "huge", "table", "7"])),
            Err(PmssError::InvalidValue { .. })
        ));
    }

    #[test]
    fn table7_renders_both_ways() {
        let ascii = run(&args(&["table", "7", "--scale", "quick"])).unwrap();
        assert!(ascii.contains("Max. Walltime"));
        let json = run(&args(&["table", "7", "--scale", "quick", "--json"])).unwrap();
        let v = Json::parse(&json).unwrap();
        assert_eq!(v.get("artifact").unwrap().as_str(), Some("table7"));
        assert_eq!(
            v.get("data")
                .unwrap()
                .get("rows")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            5
        );
    }

    #[test]
    fn econ_artifact_and_query_share_the_trace_vocabulary() {
        let ascii = run(&args(&["econ", "--scale", "quick", "--econ", "diurnal"])).unwrap();
        assert!(ascii.contains("diurnal"), "{ascii}");
        let q = run(&args(&[
            "query", "econ", "--scale", "quick", "--econ", "diurnal",
        ]))
        .unwrap();
        let v = Json::parse(&q).unwrap();
        assert_eq!(v.get("trace").unwrap().as_str(), Some("diurnal"));
        // No active trace: the query is a typed error, not a panic.
        assert!(matches!(
            run(&args(&["query", "econ", "--scale", "quick"])),
            Err(PmssError::Missing { .. })
        ));
        // Unknown trace vocabulary is rejected up front.
        assert!(matches!(
            run(&args(&["econ", "--scale", "quick", "--econ", "bogus"])),
            Err(PmssError::InvalidValue { .. })
        ));
    }

    #[test]
    fn spec_subcommand_round_trips_through_json() {
        let text = run(&args(&["spec", "--scale", "medium", "--json"])).unwrap();
        let spec = ScenarioSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(spec.nodes, 64);
        let ascii = run(&args(&["spec", "--scale", "medium"])).unwrap();
        assert!(ascii.contains("nodes: 64"));
    }
}
