//! One run of one workload: untraced for the end-to-end metrics, traced for
//! the per-layer ones.

use std::time::Instant;

use crate::catalog::{self, END_TO_END, PER_LAYER};
use crate::env::{peak_rss_mb, rss_mb, Environment};
use crate::probe::{self, Counts};
use crate::report::RunResult;
use crate::stats::{median, percentile, samples_beyond, supported_percentile};
use crate::surface::Json;
use crate::trace::{layer_total, self_times_ns, spans_json, Span, Tracer};
use crate::workload::{err, timed, Checks, Workload};
use crate::{batch, daemon, replay, suite, Options};

pub fn one(workload: &str, trace: bool, options: &Options) -> Result<bool, String> {
    match workload {
        "batch-cold" => drive(&batch::COLD, trace, options),
        "batch-multirun" => drive(&batch::MULTI, trace, options),
        "replay-resident" => drive(&replay::Replay, trace, options),
        "daemon-mixed" => drive(&daemon::DaemonMixed, trace, options),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn drive<W: Workload>(w: &W, trace: bool, options: &Options) -> Result<bool, String> {
    if options.setup_only {
        let (inputs, setup_s) = timed(|| w.setup(options.seed, &options.ctx));
        inputs?;
        println!("{setup_s}");
        return Ok(true);
    }
    let env = Environment::capture(options.seed, options.ctx.smoke);
    let why = catalog::workload(w.name()).map_or("", |entry| entry.why);
    println!("workload {} trace {}: {why}", w.name(), u8::from(trace));
    println!("environment {}", env.to_json().to_string_compact());
    let (catalog, result) = if trace {
        (&PER_LAYER[..], traced(w, options, &env)?)
    } else {
        (&END_TO_END[..], end_to_end(w, options)?)
    };
    for ((name, value, unit), m) in result.metrics.iter().zip(catalog) {
        match m.bound {
            Some(bound) => println!(
                "{name} {value} {unit} ({} is better, bound {bound})",
                m.better.name()
            ),
            None => println!("{name} {value} {unit}"),
        }
    }
    for failure in &result.failures {
        println!("FAILED {failure}");
    }
    println!("{}", result.to_json_line());
    Ok(result.correct)
}

/// One line about one kind of operation: how many, their median, and the
/// highest percentile that still has ten samples beyond it.
fn describe(kind: &str, samples_s: &[f64]) -> String {
    let n = samples_s.len();
    let tail = match supported_percentile(n) {
        Some(p) if p > 50 => format!(
            "p{p} {} ms with {} beyond it",
            percentile(samples_s, p) * 1e3,
            samples_beyond(n, p)
        ),
        _ => "too few for a tail percentile with ten beyond it".to_string(),
    };
    format!(
        "{kind}: {n} samples, p50 {} ms, {tail}",
        percentile(samples_s, 50) * 1e3
    )
}

/// Set up three times, then reps until `--seconds` have passed.
fn end_to_end<W: Workload>(w: &W, options: &Options) -> Result<RunResult, String> {
    let ctx = &options.ctx;
    // Each of the three set-ups must be as cold as a user's.  The CLI
    // workloads' set-up (`cli::run`) builds its own pipeline and caches on
    // every call, so it simply runs three times.  The in-process workloads'
    // set-up fills the program's process-wide caches, so two of the three
    // run in processes of their own — which also keeps this process's peak
    // memory that of one set-up.
    let mut setup_s = Vec::new();
    for _ in 0..2 {
        setup_s.push(if W::CHILD_PROCESSES {
            let (inputs, seconds) = timed(|| w.setup(options.seed, ctx));
            inputs?;
            seconds
        } else {
            suite::setup_in_child(options, w.name())?
        });
    }
    let (inputs, seconds) = timed(|| w.setup(options.seed, ctx));
    let inputs = inputs?;
    setup_s.push(seconds);
    let resident_mb = rss_mb();

    let mut wall_s = Vec::new();
    let (mut block_s, mut query_s) = (Vec::new(), Vec::new());
    let mut windows = 0u64;
    let mut checks = Checks::default();
    let start = Instant::now();
    loop {
        let rep = w.rep(&inputs, ctx);
        wall_s.push(rep.wall_s);
        block_s.extend(rep.block_s);
        query_s.extend(rep.query_s);
        windows += rep.windows;
        checks.absorb(rep.checks);
        if start.elapsed().as_secs_f64() >= options.seconds {
            break;
        }
    }

    let busy_s: f64 = wall_s.iter().sum();
    let windows_per_s = windows as f64 / busy_s;
    let peak_mb = peak_rss_mb(W::CHILD_PROCESSES);
    println!(
        "reps {} (wall_s min {} max {})",
        wall_s.len(),
        wall_s.iter().copied().fold(f64::INFINITY, f64::min),
        wall_s.iter().copied().fold(0.0, f64::max),
    );
    println!("{}", describe("block_ack", &block_s));
    println!("{}", describe("query", &query_s));
    if !W::CHILD_PROCESSES {
        println!(
            "memory: {resident_mb} MB resident after set-up, peak {peak_mb} MB after the reps"
        );
    }
    if let Some(note) = w.note(&inputs, windows_per_s) {
        println!("{note}");
    }
    let values = [
        ("setup_s", median(&setup_s)),
        ("wall_s", median(&wall_s)),
        ("windows_per_s", windows_per_s),
        ("peak_rss_mb", peak_mb),
        ("block_ack_p50_ms", percentile(&block_s, 50) * 1e3),
        ("query_p50_ms", percentile(&query_s, 50) * 1e3),
    ];
    Ok(RunResult::new(&END_TO_END, &values, checks))
}

/// Pairs of one traced and one untraced rep that a traced run makes at
/// least, however long they take: `trace.overhead_frac` is the median over
/// the pairs, and a median of two or three is noise.
const MIN_PAIRS: usize = 9;

/// The layer probe, then set-up, then pairs of an untraced and a traced
/// in-process rep — alternating which of the two runs first — until
/// `--seconds` have passed since the first pair began; writes the spans out
/// at the end.
fn traced<W: Workload>(w: &W, options: &Options, env: &Environment) -> Result<RunResult, String> {
    let ctx = &options.ctx;
    let mut t = Tracer::new(true);
    let mut c = Counts::default();
    let spec = w.spec(options.seed, ctx.smoke);
    probe::run(&mut t, &spec, options.seed, ctx, w.own_section(), &mut c)?;

    let inputs = w.setup(options.seed, ctx)?;
    let mut off = Tracer::new(false);
    // A smoke run only has to walk every code path once.
    let min_pairs = if ctx.smoke { 1 } else { MIN_PAIRS };
    let mut ratios = Vec::new();
    let start = Instant::now();
    while ratios.len() < min_pairs || start.elapsed().as_secs_f64() < options.seconds {
        let pair = ratios.len();
        let mut walls = [0.0; 2];
        for side in [pair % 2, 1 - pair % 2] {
            let tracer = if side == 1 { &mut t } else { &mut off };
            tracer.set_rep(pair as u32 + 1);
            let rep = w.traced_rep(&inputs, ctx, tracer);
            walls[side] = rep.wall_s;
            c.backpressure_retries += rep.retries;
            c.checks.absorb(rep.checks);
        }
        ratios.push(walls[1] / walls[0]);
    }
    println!(
        "trace.overhead_frac is the median over {} pairs of a traced and an untraced rep",
        ratios.len()
    );
    for span in ["pmssd.block", "pmssd.query"] {
        println!("{}", describe(span, &durations_s(t.spans(), span)));
    }

    let values = layer_values(t.spans(), &c, median(&ratios) - 1.0);
    std::fs::create_dir_all(&ctx.out_dir).map_err(err("output directory"))?;
    let path = ctx.out_dir.join(format!("trace-{}.json", w.name()));
    let doc = Json::obj()
        .field("workload", w.name())
        .field("environment", env.to_json())
        .field("spans", spans_json(t.spans()));
    std::fs::write(&path, doc.to_string_compact()).map_err(err("trace file"))?;
    println!("spans written to {}", path.display());
    Ok(RunResult::new(&PER_LAYER, &values, c.checks))
}

/// Seconds of every span called `name` in the run, whichever rep recorded it.
fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect()
}

/// Every per-layer metric, in catalog order, from the run's spans and the
/// probe's counts.  A `<span>_s` metric is the summed self time of the spans
/// of that name — in the workload's typical rep where its own reps recorded
/// them, in the probe otherwise (see [`layer_total`]).
fn layer_values(spans: &[Span], c: &Counts, overhead: f64) -> Vec<(&'static str, f64)> {
    let own = self_times_ns(spans);
    let total = |name: &str| layer_total(spans, &own, name);
    let durations_s = |name: &str| durations_s(spans, name);
    // How much of a staged command its stage, render and teardown spans
    // account for: what `pipeline.staged` keeps as self time is uncovered.
    let staged = total("pipeline.staged");
    let round_trips_s = total("pmssd.block").self_s + total("pmssd.query").self_s;
    let inproc_s = total("pmssd.block_inproc").self_s + total("pmssd.query_inproc").self_s;
    let tail_ms = |span: &str| percentile(&durations_s(span), 95) * 1e3;

    PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.name {
                "sched.jobs" => c.jobs as f64,
                "telemetry.rows" => c.rows as f64,
                "columns.raw_bytes" => c.raw_bytes as f64,
                "columns.encoded_bytes" => c.encoded_bytes as f64,
                "columns.wire_bytes" => c.wire_bytes as f64,
                "columns.compression_ratio" => c.compression_ratio,
                "stream.buffer_bytes" => c.buffer_bytes as f64,
                "stream.rejected" => c.rejected as f64,
                "pipeline.rendered_bytes" => {
                    (total("pipeline.render_json").bytes + total("pipeline.render_ascii").bytes)
                        as f64
                }
                "pipeline.process_overhead_s" => {
                    let in_process = durations_s("pipeline.cli_run");
                    let extra: Vec<f64> = durations_s("pipeline.process")
                        .iter()
                        .zip(&in_process)
                        .map(|(process, cli_run)| process - cli_run)
                        .collect();
                    median(&extra)
                }
                "pipeline.span_coverage_frac" => 1.0 - staged.self_s / staged.whole_s,
                "pmssd.wire_overhead_frac" => 1.0 - inproc_s / round_trips_s,
                "pmssd.backpressure_retries" => c.backpressure_retries as f64,
                "pmssd.block_ack_p95_ms" => tail_ms("pmssd.block"),
                "pmssd.query_p95_ms" => tail_ms("pmssd.query"),
                "trace.spans" => spans.len() as f64,
                "trace.overhead_frac" => overhead,
                seconds => {
                    let span = seconds.strip_suffix("_s").expect("a timed layer metric");
                    total(span).self_s
                }
            };
            (m.name, value)
        })
        .collect()
}
