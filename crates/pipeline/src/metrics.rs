//! Rendering for the `--metrics` envelope: [`RunManifest`] and [`Metrics`]
//! as JSON values and as an ASCII report block.
//!
//! Every pipeline collects its registry; rendering is the only part the
//! `--metrics` flag switches on — it adds the `run`/`metrics` fields to the
//! envelope (or the ASCII block after the artifact) and changes no artifact
//! byte.

use pmss_obs::{Metrics, RunManifest, ValueHist};

use crate::json::Json;
use crate::spec::ScenarioSpec;

/// Builds the run manifest for one CLI invocation.
pub(crate) fn manifest(command: &str, spec: &ScenarioSpec, wall_s: f64) -> RunManifest {
    RunManifest {
        command: command.to_string(),
        scenario: spec.name.clone(),
        nodes: spec.nodes,
        days: spec.days,
        seed: spec.seed,
        wall_s,
        version: env!("CARGO_PKG_VERSION").to_string(),
    }
}

/// The manifest as a JSON object.
pub(crate) fn manifest_to_json(m: &RunManifest) -> Json {
    Json::obj()
        .field("command", m.command.as_str())
        .field("scenario", m.scenario.as_str())
        .field("nodes", m.nodes)
        .field("days", m.days)
        .field("seed", m.seed)
        .field("wall_s", m.wall_s)
        .field("version", m.version.as_str())
}

fn hist_to_json(h: &ValueHist) -> Json {
    let buckets = h
        .buckets()
        .map(|(le, count)| {
            Json::obj()
                .field("le", le.map_or(Json::Null, Json::Num))
                .field("count", count)
        })
        .collect();
    Json::obj()
        .field("count", h.count())
        .field("sum", h.sum())
        .field("mean", h.mean().map_or(Json::Null, Json::Num))
        .field("min", h.min().map_or(Json::Null, Json::Num))
        .field("max", h.max().map_or(Json::Null, Json::Num))
        .field("buckets", Json::Arr(buckets))
}

/// The metrics registry as a JSON object with `counters`, `gauges`, and
/// `hists` members (each sorted by name, so output is deterministic).
pub(crate) fn metrics_to_json(m: &Metrics) -> Json {
    let mut counters = Json::obj();
    for (name, v) in m.counters() {
        counters = counters.field(name, v);
    }
    let mut gauges = Json::obj();
    for (name, v) in m.gauges() {
        gauges = gauges.field(name, v);
    }
    let mut hists = Json::obj();
    for (name, h) in m.hists() {
        hists = hists.field(name, hist_to_json(h));
    }
    Json::obj()
        .field("counters", counters)
        .field("gauges", gauges)
        .field("hists", hists)
}

/// The ASCII metrics block appended after an artifact under `--metrics`.
pub fn render_ascii(manifest: &RunManifest, m: &Metrics) -> String {
    let mut out = String::new();
    out.push_str("== metrics ==\n");
    out.push_str(&format!(
        "run: {} | scenario {} ({} nodes x {} days, seed {}) | {:.3} s | v{}\n",
        manifest.command,
        manifest.scenario,
        manifest.nodes,
        manifest.days,
        manifest.seed,
        manifest.wall_s,
        manifest.version,
    ));
    if m.is_empty() {
        out.push_str("(no metrics recorded)\n");
        return out;
    }
    let width = m
        .counters()
        .map(|(k, _)| k.len())
        .chain(m.gauges().map(|(k, _)| k.len()))
        .max()
        .unwrap_or(0);
    for (name, v) in m.counters() {
        out.push_str(&format!("  {name:<width$}  {v}\n"));
    }
    for (name, v) in m.gauges() {
        out.push_str(&format!("  {name:<width$}  {v:.6}\n"));
    }
    for (name, h) in m.hists() {
        out.push_str(&format!(
            "  {name}: n={} mean={} max={}\n",
            h.count(),
            h.mean().map_or("-".into(), |v| format!("{v:.4}")),
            h.max().map_or("-".into(), |v| format!("{v:.4}")),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmss_obs::edges;

    fn sample_metrics() -> Metrics {
        let mut m = Metrics::new();
        m.add("engine.executions", 12);
        m.inc("fleet.runs");
        m.gauge_set("fleet.node_hours_per_s", 0.75);
        m.observe("artifact.wall_s", edges::WALL_S, 0.002);
        m.observe("artifact.wall_s", edges::WALL_S, 999.0);
        m
    }

    #[test]
    fn envelope_json_round_trips_through_the_parser() {
        let spec = ScenarioSpec::preset(crate::spec::ScalePreset::Quick);
        let man = manifest("fig 2", &spec, 1.25);
        let j = Json::obj()
            .field("run", manifest_to_json(&man))
            .field("metrics", metrics_to_json(&sample_metrics()));
        let back = Json::parse(&j.to_string_pretty()).unwrap();
        assert_eq!(
            back.get("run").and_then(|r| r.get("command")),
            Some(&Json::Str("fig 2".into()))
        );
        let counters = back.get("metrics").and_then(|m| m.get("counters")).unwrap();
        assert_eq!(
            counters.get("engine.executions").and_then(Json::as_f64),
            Some(12.0)
        );
        let hist = back
            .get("metrics")
            .and_then(|m| m.get("hists"))
            .and_then(|h| h.get("artifact.wall_s"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_f64), Some(2.0));
        // The overflow bucket (999 s > the largest edge) emits `le: null`.
        let buckets = hist.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), edges::WALL_S.len() + 1);
        assert_eq!(buckets.last().unwrap().get("le"), Some(&Json::Null));
    }

    #[test]
    fn ascii_block_lists_every_metric() {
        let spec = ScenarioSpec::preset(crate::spec::ScalePreset::Quick);
        let man = manifest("stats", &spec, 0.5);
        let text = render_ascii(&man, &sample_metrics());
        assert!(text.starts_with("== metrics =="), "{text}");
        assert!(text.contains("scenario quick (16 nodes x 2 days"), "{text}");
        for needle in [
            "engine.executions",
            "fleet.runs",
            "fleet.node_hours_per_s",
            "artifact.wall_s: n=2",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
