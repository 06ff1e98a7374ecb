//! The layer-by-layer profile of a traced run: every call the harness makes
//! into a crate's public functions, each inside a span, streaming one block
//! at a time (materialising decoded blocks in a `Vec` would measure the
//! allocator, not the codec).
//!
//! Four sections, all recorded as rep 0:
//!
//! * `fleet_path` on the *workload's* scenario: schedule → simulate (first,
//!   repeat) → block build → encode → wire → decode → folds → stream ingest
//!   (in order, then reordered under faults) → capture → replay → project →
//!   answer;
//! * `cli_path` on the same scenario: the staged pipeline behind
//!   `pmss table 5 --json`, the same command through `cli::run`, and as a
//!   process;
//! * `multirun_artifacts` on the `batch-multirun` scenario: the three
//!   artifacts that run the fleet several times;
//! * `daemon_path` on the `daemon-mixed` scenario: one traced daemon
//!   lifetime, then the tenant's work for the same frames done in process.
//!
//! Every traced run reports every layer, and a reported time must be one
//! this run measured, so every workload's traced run walks all four.  The
//! one part a workload's own traced reps record themselves — a [`Section`]
//! — is left out: those spans come from every rep, not from one pass here.

use crate::batch;
use crate::daemon::{self, DaemonMixed};
use crate::scenario;
use crate::surface::{
    catalog, cli_run, fleet_window_blocks, generate, project, query_answer, simulate_fleet,
    BlockGrid, CodecConfig, ColumnBlock, EconSeries, EncodedBlock, EnergyLedger, FaultPlan,
    FleetConfig, FleetObserver, Pair, Pipeline, ProjectionInput, Query, ResidentFleet,
    ScenarioSpec, Schedule, StreamConfig, StreamEngine, StreamState,
};
use crate::trace::Tracer;
use crate::workload::{err, Checks, Ctx, Workload};

/// `cli::run` in process beside the same command as a process, this often.
const PROCESS_PAIRS: usize = 3;

/// The part of the probe that a workload's own traced reps record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// `pmss table 5 --json` staged in process: `batch-cold`'s traced rep.
    StagedTable5,
    /// The three multi-run artifacts staged: `batch-multirun`'s traced rep.
    MultirunArtifacts,
    /// One daemon lifetime: `daemon-mixed`'s traced rep.
    DaemonSession,
}

/// What the probe counted rather than timed.
#[derive(Debug, Default)]
pub struct Counts {
    pub jobs: u64,
    pub rows: u64,
    pub raw_bytes: u64,
    pub encoded_bytes: u64,
    pub wire_bytes: u64,
    pub compression_ratio: f64,
    pub buffer_bytes: u64,
    pub rejected: u64,
    pub backpressure_retries: u64,
    pub checks: Checks,
}

/// The whole probe on `spec`, the workload's scenario, less `own`.
pub fn run(
    t: &mut Tracer,
    spec: &ScenarioSpec,
    seed: u64,
    ctx: &Ctx,
    own: Option<Section>,
    c: &mut Counts,
) -> Result<(), String> {
    // First of all, so that its first simulation meets cold caches.
    fleet_path(t, spec, c)?;
    cli_path(t, spec, ctx, own != Some(Section::StagedTable5), c)?;
    if own != Some(Section::MultirunArtifacts) {
        multirun_artifacts(t, seed, ctx)?;
    }
    daemon_path(t, seed, ctx, own != Some(Section::DaemonSession), c)
}

/// Folds `block` into `acc` the way `ResidentFleet::replay` does: a fresh
/// partial per channel, merged, for channel-grouped observers.
fn fold_into<O: FleetObserver + Default>(acc: &mut O, schedule: &Schedule, block: &ColumnBlock) {
    if O::CHANNEL_GROUPED {
        let mut part = O::default();
        part.fold_block(schedule, block);
        acc.merge(part);
    } else {
        acc.fold_block(schedule, block);
    }
}

type PairObs = Pair<EnergyLedger, EconSeries>;

fn fleet_path(t: &mut Tracer, spec: &ScenarioSpec, c: &mut Counts) -> Result<(), String> {
    let section = t.open("probe.fleet_path");
    let factor = spec.frontier_factor();
    let codec = CodecConfig::default();
    let sync_interval = daemon::sync_interval() as u64;

    let id = t.open("sched.generate");
    let schedule = generate(spec.trace_params(), &catalog());
    c.jobs = schedule.jobs.len() as u64;
    t.close(id, c.jobs, 0);

    let mut pipeline = Pipeline::new(spec.clone()).map_err(err("pipeline"))?;
    let cfg = pipeline.fleet_config();
    let table3 = pipeline.table3().map_err(err("table3"))?.clone();

    // The same call twice: cold, then with whatever reuse the program has.
    let windows = scenario::window_events(spec);
    let id = t.open("telemetry.simulate_first");
    let first: EnergyLedger = simulate_fleet(&schedule, &cfg);
    t.close(id, windows, 0);
    let id = t.open("telemetry.simulate_repeat");
    let repeat: EnergyLedger = simulate_fleet(&schedule, &cfg);
    t.close(id, windows, 0);
    c.checks
        .require(first == repeat, "a repeated simulation changed the ledger");

    // Clean stream, one block at a time through every layer below the
    // simulation.
    let mut engine = StreamEngine::<PairObs>::new(&schedule, StreamConfig::for_plan(None))
        .map_err(err("stream engine"))?;
    let mut ledger = EnergyLedger::default();
    let mut econ = EconSeries::default();
    let mut failed: Option<String> = None;
    let mut blocks = 0u64;
    let outer = t.open("telemetry.blocks");
    fleet_window_blocks(&schedule, &cfg, |block| {
        if failed.is_some() {
            return;
        }
        let rows = block.len() as u64;
        let raw = block.column_bytes() as u64;
        let grid = BlockGrid {
            window_s: cfg.window_s,
            duration_s: schedule.duration_s,
            skew_s: 0.0,
        };
        let id = t.open("columns.encode");
        let enc = EncodedBlock::encode(block, grid, codec);
        t.close(id, rows, raw);
        let enc = match enc {
            Ok(enc) => enc,
            Err(e) => return failed = Some(format!("encode: {e}")),
        };
        let id = t.open("columns.to_bytes");
        let wire = enc.to_bytes();
        t.close(id, rows, wire.len() as u64);
        let id = t.open("columns.from_bytes");
        let back = EncodedBlock::from_bytes(&wire);
        t.close(id, rows, wire.len() as u64);
        let id = t.open("columns.decode");
        let decoded = back.and_then(|b| b.decode(codec));
        t.close(id, rows, enc.payload_bytes() as u64);
        let decoded = match decoded {
            Ok(d) => d,
            Err(e) => return failed = Some(format!("decode: {e}")),
        };
        let id = t.open("core.fold");
        fold_into(&mut ledger, &schedule, &decoded);
        t.close(id, rows, raw);
        let id = t.open("econ.fold");
        fold_into(&mut econ, &schedule, &decoded);
        t.close(id, rows, raw);
        let id = t.open("stream.ingest_inorder");
        let ingested = engine.ingest_block(&decoded);
        t.close(id, rows, raw);
        if let Err(e) = ingested {
            return failed = Some(format!("in-order ingest: {e}"));
        }
        blocks += 1;
        if blocks.is_multiple_of(sync_interval) {
            let id = t.open("stream.snapshot");
            std::hint::black_box(StreamState::capture_pair(&engine, factor));
            t.close(id, 0, 0);
        }
        c.rows += rows;
        c.raw_bytes += raw;
        c.encoded_bytes += enc.payload_bytes() as u64;
        c.wire_bytes += wire.len() as u64;
    });
    t.close(outer, c.rows, c.raw_bytes);
    if let Some(e) = failed {
        return Err(e);
    }
    c.compression_ratio = c.raw_bytes as f64 / c.encoded_bytes.max(1) as f64;
    engine.flush();
    let id = t.open("stream.snapshot");
    let streamed = StreamState::capture_pair(&engine, factor);
    t.close(id, 0, 0);

    // The same schedule under the reordering fault preset: the engine's
    // ring path.  The parent span's self time is the faulted block build.
    let plan = FaultPlan::preset(batch::FAULT_PRESET).map_err(err("fault preset"))?;
    let faulted_cfg = FleetConfig {
        faults: Some(plan.clone()),
        ..cfg.clone()
    };
    let mut ring =
        StreamEngine::<EnergyLedger>::new(&schedule, StreamConfig::for_plan(Some(&plan)))
            .map_err(err("stream engine"))?;
    let mut faulted_rows = 0u64;
    let outer = t.open("telemetry.blocks_faulted");
    fleet_window_blocks(&schedule, &faulted_cfg, |block| {
        let id = t.open("stream.ingest_reordered");
        let ingested = ring.ingest_block(block);
        t.close(id, block.len() as u64, block.column_bytes() as u64);
        if ingested.is_err() {
            c.rejected += 1;
        }
        faulted_rows += block.len() as u64;
        c.buffer_bytes = c.buffer_bytes.max(ring.buffer_bytes() as u64);
    });
    t.close(outer, faulted_rows, 0);
    c.checks.require(
        c.rejected == 0,
        "the stream engine rejected generator traffic",
    );

    // The program's own capture and replay of the same campaign.
    let id = t.open("telemetry.capture");
    let resident = ResidentFleet::capture(&schedule, &cfg).map_err(err("capture"))?;
    t.close(id, resident.rows(), resident.payload_bytes() as u64);
    let id = t.open("telemetry.replay");
    let replayed: PairObs = resident.replay(&schedule).map_err(err("replay"))?;
    t.close(id, resident.rows(), resident.payload_bytes() as u64);
    c.checks.require(
        resident.rows() == c.rows && resident.payload_bytes() as u64 == c.encoded_bytes,
        "capture disagrees with the block-at-a-time encode",
    );
    c.checks.require(
        replayed.a == ledger,
        "replay differs from the block-at-a-time decode and fold",
    );
    c.checks.require(
        *streamed.ledger() == ledger,
        "the streamed ledger differs from the batch fold",
    );
    std::hint::black_box(&econ);

    let id = t.open("core.project");
    let scaled = replayed.a.scaled(factor).map_err(err("scale"))?;
    let projection =
        project(ProjectionInput::from_ledger(&scaled), &table3).map_err(err("project"))?;
    t.close(id, 0, 0);
    std::hint::black_box(projection);

    let state = StreamState::with_econ(replayed.a, replayed.b, factor);
    let id = t.open("pipeline.query_answer");
    let answer = query_answer(&state, &table3, None, &Query::Projection)
        .map_err(err("answer"))?
        .to_string_pretty();
    t.close(id, 1, answer.len() as u64);

    t.close(section, 0, 0);
    Ok(())
}

/// `pmss table 5 --json` three ways on `spec`: staged with spans (when
/// `staged`), through `cli::run`, and as a process.
fn cli_path(
    t: &mut Tracer,
    spec: &ScenarioSpec,
    ctx: &Ctx,
    staged: bool,
    c: &mut Counts,
) -> Result<(), String> {
    let section = t.open("probe.cli_path");
    let path = scenario::write_spec(&ctx.out_dir, spec).map_err(err("spec file"))?;
    let argv = batch::argv_with_spec(batch::TABLE5.argv, &path);

    if staged {
        batch::staged(&batch::TABLE5, spec, t)?;
    }

    // In pairs, so that the two sides of `pipeline.process_overhead_s` meet
    // the machine at the same speed.
    for _ in 0..PROCESS_PAIRS {
        let id = t.open("pipeline.cli_run");
        let expected = cli_run(&argv).map_err(err("cli::run in process"))?;
        t.close(id, 0, expected.len() as u64);
        let id = t.open("pipeline.process");
        let (_, problem) = batch::run_process(ctx, &argv, &expected);
        t.close(id, 0, expected.len() as u64);
        c.checks.check(problem);
    }
    t.close(section, 0, 0);
    Ok(())
}

/// The three multi-run artifacts, a fresh pipeline each, as the three CLI
/// processes of `batch-multirun` have.
fn multirun_artifacts(t: &mut Tracer, seed: u64, ctx: &Ctx) -> Result<(), String> {
    let section = t.open("probe.multirun_artifacts");
    let spec = batch::MULTI.spec(seed, ctx.smoke);
    for cmd in &batch::MULTIRUN {
        batch::staged(cmd, &spec, t)?;
    }
    t.close(section, 0, 0);
    Ok(())
}

/// One traced daemon lifetime (when `session`), then the tenant's share of
/// it in process: `from_bytes` → `decode` → `ingest_block` (publishing a
/// snapshot every sync interval) for the same frames, `query::answer` →
/// render for the same queries.
fn daemon_path(
    t: &mut Tracer,
    seed: u64,
    ctx: &Ctx,
    session: bool,
    c: &mut Counts,
) -> Result<(), String> {
    let section = t.open("probe.daemon_path");
    let inputs = DaemonMixed.setup(seed, ctx)?;
    if session {
        let rep = daemon::session(&inputs, t);
        c.backpressure_retries += rep.retries;
        c.checks.absorb(rep.checks);
    }
    let sync_interval = daemon::sync_interval();

    let factor = inputs.spec.frontier_factor();
    let codec = CodecConfig::default();
    let frames: Vec<Vec<u8>> = inputs
        .resident
        .blocks()
        .iter()
        .map(|b| b.to_bytes())
        .collect();
    let mut engine = StreamEngine::<PairObs>::new(&inputs.schedule, StreamConfig::for_plan(None))
        .map_err(err("stream engine"))?;
    let mut published = StreamState::capture_pair(&engine, factor);
    let mut next_query = 0usize;
    let answer = |t: &mut Tracer, state: &StreamState, q: &Query| -> Result<String, String> {
        let id = t.open("pmssd.query_inproc");
        let out = query_answer(state, &inputs.table3, None, q)
            .map_err(err("in-process answer"))?
            .to_string_pretty();
        t.close(id, 1, out.len() as u64);
        Ok(out)
    };
    for (i, frame) in frames.iter().enumerate() {
        let id = t.open("pmssd.block_inproc");
        let block = EncodedBlock::from_bytes(frame)
            .and_then(|enc| enc.decode(codec))
            .map_err(err("in-process decode"))?;
        engine
            .ingest_block(&block)
            .map_err(err("in-process ingest"))?;
        if (i + 1).is_multiple_of(sync_interval) {
            published = StreamState::capture_pair(&engine, factor);
        }
        t.close(id, block.len() as u64, frame.len() as u64);
        if i % 2 == 1 && i + 1 >= sync_interval {
            for _ in 0..daemon::QUERIES_PER_PAIR {
                let q = &inputs.queries[next_query % inputs.queries.len()];
                next_query += 1;
                answer(t, &published, q)?;
            }
        }
    }
    let id = t.open("pmssd.block_inproc");
    let flushed = StreamState::capture_pair(&engine, factor);
    t.close(id, 0, 0);
    for (q, expected) in inputs.queries.iter().zip(&inputs.expected) {
        let out = answer(t, &flushed, q)?;
        c.checks.require(
            out == *expected,
            "the in-process streamed answer differs from the batch replay's",
        );
    }
    t.close(section, 0, 0);
    Ok(())
}
