//! The benchmark's vocabulary: every workload and every metric, with unit,
//! direction and regression bound.  `BENCHMARK.json` at the repository root
//! declares the same lists; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change is a regression; end-to-end metrics only.
    pub bound: Option<f64>,
}

/// How long one run measures, in seconds, unless `--seconds` says otherwise.
pub const RUN_SECONDS: f64 = 20.0;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "batch-cold",
        why: "fresh `pmss table 5 --json` processes on a 64-node week: the path a user invokes; sched, engine/caches, sampler, block build and fold do all the work, codec, stream and daemon none",
    },
    Workload {
        name: "batch-multirun",
        why: "fresh `pmss faults`, `govern`, `stream --faults` processes: many fleet runs of one schedule per process, where memoisation can pay, and the stream engine's reorder ring",
    },
    Workload {
        name: "replay-resident",
        why: "in-process resident replay to a rendered projection answer: decode, fold, merge, project and render with simulation out of the timed loop",
    },
    Workload {
        name: "daemon-mixed",
        why: "whole pmssd lifetimes on TCP loopback, one connection, BLOCK writes beside QUERY reads on one tenant: wire, queue, tenant worker, snapshot and render work, simulation none",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// What a user of the system sees; reported by every workload with
/// `--trace 0`.
///
/// Every timing carries the widest bound a benchmark may declare.  The
/// 2-vCPU VM this was written on moves between two speeds about 1.3× apart
/// every few seconds to minutes (a pure ALU spin loop shows it, with no
/// steal time), so ten CPU-bound runs spread by 5–28 % of their median
/// whatever the harness does; a tighter bound would reject unchanged code.
/// Memory does not share that noise.
///
/// The two latencies are one kind of operation each, never pooled: what
/// takes telemetry in and what returns an answer (see `workload::Rep`).  A
/// tail percentile takes the machine's noise doubled — on the three
/// CPU-bound workloads it lands in whichever speed the machine spent a
/// twentieth of the run at — and every workload must hold every metric
/// declared here, so the tails are printed with every run but declared only
/// per layer, for the daemon.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("windows_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    e2e("block_ack_p50_ms", "ms", Better::Lower, 0.25),
    e2e("query_p50_ms", "ms", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

const fn secs(name: &'static str) -> Metric {
    layer(name, "s", Better::Lower)
}

/// One figure per layer boundary; reported by every workload with
/// `--trace 1`.  The layers are the repository's crates.
pub const PER_LAYER: [Metric; 49] = [
    secs("sched.generate_s"),
    layer("sched.jobs", "count", Better::Higher),
    secs("telemetry.simulate_first_s"),
    secs("telemetry.simulate_repeat_s"),
    secs("telemetry.blocks_s"),
    secs("telemetry.blocks_faulted_s"),
    layer("telemetry.rows", "count", Better::Higher),
    secs("telemetry.capture_s"),
    secs("telemetry.replay_s"),
    secs("columns.encode_s"),
    secs("columns.decode_s"),
    secs("columns.to_bytes_s"),
    secs("columns.from_bytes_s"),
    layer("columns.raw_bytes", "B", Better::Lower),
    layer("columns.encoded_bytes", "B", Better::Lower),
    layer("columns.wire_bytes", "B", Better::Lower),
    layer("columns.compression_ratio", "x", Better::Higher),
    secs("core.fold_s"),
    secs("econ.fold_s"),
    secs("core.project_s"),
    secs("stream.ingest_inorder_s"),
    secs("stream.ingest_reordered_s"),
    secs("stream.snapshot_s"),
    layer("stream.buffer_bytes", "B", Better::Lower),
    layer("stream.rejected", "count", Better::Lower),
    secs("pipeline.stage_fleet_s"),
    secs("pipeline.stage_table3_s"),
    secs("pipeline.stage_projection_s"),
    secs("pipeline.render_ascii_s"),
    secs("pipeline.render_json_s"),
    secs("pipeline.teardown_s"),
    layer("pipeline.rendered_bytes", "B", Better::Lower),
    secs("pipeline.artifact.faults_s"),
    secs("pipeline.artifact.govern_s"),
    secs("pipeline.artifact.stream_s"),
    secs("pipeline.query_answer_s"),
    secs("pipeline.process_overhead_s"),
    layer("pipeline.span_coverage_frac", "frac", Better::Higher),
    secs("pmssd.open_s"),
    secs("pmssd.flush_s"),
    secs("pmssd.shutdown_s"),
    secs("pmssd.block_inproc_s"),
    secs("pmssd.query_inproc_s"),
    layer("pmssd.wire_overhead_frac", "frac", Better::Lower),
    layer("pmssd.backpressure_retries", "count", Better::Lower),
    layer("pmssd.block_ack_p95_ms", "ms", Better::Lower),
    layer("pmssd.query_p95_ms", "ms", Better::Lower),
    layer("trace.spans", "count", Better::Lower),
    layer("trace.overhead_frac", "frac", Better::Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::Json;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_units_and_counts_stay_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
    }

    #[test]
    fn benchmark_json_declares_exactly_this_catalog() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .to_vec()
        };
        let str_of = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(got, "name"), want.name);
            assert_eq!(str_of(got, "why"), want.why);
        }
        for (key, want) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let got = list(key);
            assert_eq!(got.len(), want.len(), "{key}");
            for (g, w) in got.iter().zip(want) {
                assert_eq!(str_of(g, "name"), w.name);
                assert_eq!(str_of(g, "unit"), w.unit);
                assert_eq!(str_of(g, "better"), w.better.name());
                assert_eq!(g.get("bound").and_then(Json::as_f64), w.bound, "{}", w.name);
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
        assert_eq!(
            list("paths")
                .iter()
                .filter_map(Json::as_str)
                .collect::<Vec<_>>(),
            ["benchmark"]
        );
    }
}
