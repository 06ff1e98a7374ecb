//! The parity matrix: every path to the paper's answer gives the same
//! bits.  Rows are scenarios, columns are the ways a run reaches its
//! ledger, and cells are the answers `pmss query` renders from it.
//!
//! Columns A–G, K and L fold the paired observer `pmss query` and a daemon
//! tenant fold — [`EnergyLedger`] beside the per-slot [`EconSeries`] — and
//! are compared as the observer's `Debug` text as well as its answers, so
//! a `-0.0` that renders as `0` still fails.  Columns H–J answer over the
//! wire or the command line and compare answers only; H and I are daemon
//! tenants fed by `pmss client ingest`'s streamed capture, from one worker
//! and from every core.  Columns K and L are
//! the per-channel replay `pmss stream` and `pmss govern` run, at one
//! worker and at every core.  On rows without an
//! econ trace the `econ` cell must be a typed rejection on every path.
//!
//! There are two references.  Column A, the batch fold, is the reference
//! for every path that folds the generator's samples as they are.  The
//! resident store quantizes power to the codec's 1 W at capture, so every
//! path fed from it — the daemon's blocks in process and over the wire,
//! and `pmss query` — is compared with column C, the batch replay of that
//! store.  (C against A — coverage exact, energy within the quantization
//! bound — is `ResidentFleet`'s own unit test and `tests/hetero_proptest.rs`.)
//!
//! Each row is its own test, so rows run in parallel and a failure names
//! its row and prints its column × cell grid.  A row's schedule, fleets,
//! delivery trace and resident store are built once per process.

mod support;

use std::iter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use pmss::columns::{CodecConfig, ColumnBlock};
use pmss::core::EnergyLedger;
use pmss::econ::{EconSeries, EconTrace};
use pmss::faults::{FaultPlan, GapPolicy};
use pmss::pipeline::query::{self, Query};
use pmss::pipeline::{cli, Pipeline, ScalePreset, ScenarioSpec};
use pmss::sched::{catalog, generate, Schedule};
use pmss::stream::{Cut, StreamConfig, StreamEngine, StreamState, TraceReplay};
use pmss::telemetry::{
    scoped_map, simulate_fleet, workers, DeliveryTrace, Pair, ResidentFleet, WindowEvent,
};
use pmss::workloads::Table3;
use pmssd::client::{ingest_campaign, ClientError, Connection, Target};
use pmssd::daemon::Listen;
use support::Harness;

type Obs = Pair<EnergyLedger, EconSeries>;

/// A scenario: the quick preset under an optional fault preset (its gap
/// policy replaced when one is named), SKU mix and econ trace.
struct Row {
    name: &'static str,
    faults: Option<&'static str>,
    gap_policy: Option<GapPolicy>,
    mix: Option<&'static str>,
    econ: Option<&'static str>,
}

/// Declares [`ROWS`] and one test per row, named after it.
macro_rules! rows {
    ($($name:ident: $faults:expr, $gap_policy:expr, $mix:expr, $econ:expr;)*) => {
        const ROWS: &[Row] = &[$(Row {
            name: stringify!($name),
            faults: $faults,
            gap_policy: $gap_policy,
            mix: $mix,
            econ: $econ,
        }),*];
        $(#[test]
        fn $name() {
            check_row(stringify!($name));
        })*
    };
}

rows! {
    clean: None, None, None, None;
    mild: Some("mild"), None, None, None;
    frontier_typical: Some("frontier-typical"), None, None, None;
    harsh_exclude: Some("harsh"), Some(GapPolicy::Exclude), None, None;
    harsh_interpolate: Some("harsh"), Some(GapPolicy::Interpolate), None, None;
    harsh_attribute_idle: Some("harsh"), Some(GapPolicy::AttributeIdle), None, None;
    mixed_50_50: None, None, Some("mixed-50-50"), None;
    econ_diurnal: None, None, None, Some("diurnal");
    econ_duck_curve_frontier_typical: Some("frontier-typical"), None, None, Some("duck-curve");
    mixed_harsh_diurnal: Some("harsh"), None, Some("mixed-50-50"), Some("diurnal");
}

impl Row {
    fn spec(&self) -> ScenarioSpec {
        let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
        spec.faults = self.faults.map(|name| {
            let plan = FaultPlan::preset(name).expect("known fault preset");
            FaultPlan {
                gap_policy: self.gap_policy.unwrap_or(plan.gap_policy),
                ..plan
            }
        });
        spec.fleet_mix = self.mix.map(str::to_string);
        spec.econ = self
            .econ
            .map(|name| EconTrace::preset(name).expect("known econ preset"));
        spec
    }
}

/// What a row's columns read.
struct Fixture {
    spec: ScenarioSpec,
    schedule: Schedule,
    table3: Table3,
    /// Column A: the batch fold.
    batch: Obs,
    /// Column B: the fold of the run that captured `trace`.
    traced: Obs,
    trace: DeliveryTrace,
    resident: ResidentFleet,
}

impl Fixture {
    /// The stream configuration `pmss stream` and a daemon tenant use.
    fn stream_config(&self) -> StreamConfig {
        StreamConfig::for_plan(self.spec.active_faults())
    }
}

/// The fixture of the row named `name`, built on first use.
fn fixture(name: &str) -> &'static Fixture {
    static FIXTURES: [OnceLock<Fixture>; ROWS.len()] = [const { OnceLock::new() }; ROWS.len()];
    let row = ROWS.iter().position(|r| r.name == name).expect("a row");
    FIXTURES[row].get_or_init(|| {
        let spec = ROWS[row].spec();
        let mut p = Pipeline::new(spec.clone()).expect("valid spec");
        let cfg = p.fleet_config();
        let schedule = generate(spec.trace_params(), &catalog());
        let (trace, traced, _) =
            DeliveryTrace::capture_folding(&schedule, &cfg).expect("traced fleet run");
        Fixture {
            table3: p.table3().expect("table3").clone(),
            batch: simulate_fleet(&schedule, &cfg),
            traced,
            trace,
            resident: ResidentFleet::capture(&schedule, &cfg).expect("resident capture"),
            schedule,
            spec,
        }
    })
}

/// Column F's extra lag: each event's sort key moves up to this many
/// windows, which a horizon this much deeper absorbs.
const SLACK: u64 = 6;

type Fold = fn(&Fixture) -> Result<Obs, String>;

const BATCH: &str = "A batch";
const RESIDENT: &str = "C resident";

/// Columns A–G, K and L: name, reference column, fold.
const FOLDS: [(&str, &str, Fold); 9] = [
    (BATCH, BATCH, |f| Ok(f.batch.clone())),
    ("B traced", BATCH, |f| Ok(f.traced.clone())),
    (RESIDENT, RESIDENT, |f| {
        f.resident.replay(&f.schedule).map_err(|e| e.to_string())
    }),
    ("D stream", BATCH, |f| {
        stream(f, f.stream_config(), f.trace.iter())
    }),
    ("E sharded", BATCH, |f| {
        stream(f, f.stream_config().with_shards(3), f.trace.iter())
    }),
    ("F shuffled", BATCH, |f| {
        let base = f.stream_config();
        let cfg = StreamConfig {
            reorder_horizon: base.reorder_horizon + SLACK,
            ..base
        };
        let events: Vec<WindowEvent> = f.trace.iter().collect();
        stream(f, cfg, shuffle_within(&events, SLACK))
    }),
    ("G blocks", RESIDENT, |f| {
        let mut eng =
            StreamEngine::new(&f.schedule, f.stream_config()).map_err(|e| e.to_string())?;
        let mut block = ColumnBlock::default();
        for enc in f.resident.blocks() {
            enc.decode_into(CodecConfig::default(), &mut block)
                .map_err(|e| e.to_string())?;
            eng.ingest_block(&block).map_err(|e| e.to_string())?;
        }
        Ok(eng.finish().0)
    }),
    ("K replay 1w", BATCH, |f| {
        scoped_map(2, 1, |_| replay(f)).remove(0)
    }),
    ("L replay Nw", BATCH, |f| {
        every_core("L");
        replay(f)
    }),
];

/// Asserts that an every-core column runs on at least two workers, or
/// says that this machine has one CPU.
fn every_core(column: &str) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        println!("parity: one CPU here, so column {column} runs on one worker");
    } else {
        assert!(workers() >= 2, "column {column} must run on every core");
    }
}

/// The per-channel replay of the trace, cut a third of the way through
/// and finished.
fn replay(f: &Fixture) -> Result<Obs, String> {
    let mut replay: TraceReplay<'_, Obs, _> =
        TraceReplay::new(&f.schedule, &f.trace, f.stream_config()).map_err(|e| e.to_string())?;
    replay.cuts(&[Cut::after_events(&f.trace, f.trace.len() / 3)]);
    Ok(replay.finish())
}

/// Ingests `events` one at a time through a fresh engine and flushes it.
fn stream(
    f: &Fixture,
    cfg: StreamConfig,
    events: impl IntoIterator<Item = WindowEvent>,
) -> Result<Obs, String> {
    let mut eng = StreamEngine::new(&f.schedule, cfg).map_err(|e| e.to_string())?;
    for ev in events {
        eng.ingest(ev).map_err(|e| e.to_string())?;
    }
    Ok(eng.finish().0)
}

/// Deterministic within-horizon shuffle: each event's sort key gets a
/// pseudo-random lag in `[0, slack]`, so no event moves more than `slack`
/// windows earlier than a same-channel predecessor — exactly what a
/// horizon of `slack + 1` absorbs.
fn shuffle_within(events: &[WindowEvent], slack: u64) -> Vec<WindowEvent> {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    let mut keyed: Vec<(u64, usize, WindowEvent)> = events
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            let lag =
                mix((ev.node as u64) << 40 ^ (ev.slot as u64) << 32 ^ ev.window) % (slack + 1);
            (ev.window + lag, i, *ev)
        })
        .collect();
    keyed.sort_by_key(|&(k, i, _)| (k, i));
    keyed.into_iter().map(|(_, _, ev)| ev).collect()
}

/// The answer cells, as `pmss query` command lines; the what-if is on
/// the power ladder's middle rung.
const QUERIES: [&str; 5] = [
    "projection",
    "coverage",
    "ledger",
    "whatif power_w 300",
    "econ",
];

const CELLS: [&str; 6] = [
    "observer",
    "projection",
    "coverage",
    "ledger",
    "whatif",
    "econ",
];

/// The text of a cell whose query was refused with a typed error.
const REJECTED: &str = "<typed rejection>";

/// One column's cells, in [`CELLS`] order; `None` where the column has
/// no such cell.
type Cells = Vec<Option<String>>;

fn query_args(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}

fn queries() -> [Query; 5] {
    QUERIES.map(|line| Query::from_args(&query_args(line)).expect("query parses"))
}

fn fold_cells(f: &Fixture, obs: Result<Obs, String>) -> Cells {
    let obs = match obs {
        Ok(obs) => obs,
        Err(e) => return vec![Some(format!("error: {e}")); CELLS.len()],
    };
    let observer = format!("{obs:?}");
    let state = StreamState::with_econ(obs.a, obs.b, f.spec.frontier_factor());
    let answers =
        queries().map(
            |q| match query::answer(&state, &f.table3, f.spec.active_econ(), &q) {
                Ok(json) => json.to_string_pretty(),
                Err(_) => REJECTED.to_string(),
            },
        );
    iter::once(observer).chain(answers).map(Some).collect()
}

/// A `pmssd` tenant named `tenant`, fed by the client's streamed
/// campaign, whose report must count the resident store's blocks and rows.
fn daemon_cells(f: &Fixture, target: &Target, tenant: &str) -> Cells {
    let answers = || -> Result<Cells, String> {
        let mut conn = Connection::connect(target).map_err(|e| e.to_string())?;
        conn.open(tenant, Some(&f.spec))
            .map_err(|e| e.to_string())?;
        let report = ingest_campaign(&mut conn, &f.spec).map_err(|e| e.to_string())?;
        let store = (f.resident.blocks().len() as u64, f.resident.rows());
        if (report.blocks, report.rows) != store {
            return Err(format!(
                "ingest sent {} blocks / {} rows, the store holds {store:?}",
                report.blocks, report.rows
            ));
        }
        let answers = queries().map(|q| match conn.query(&q) {
            Ok(text) => text,
            Err(ClientError::Rejected { .. }) => REJECTED.to_string(),
            Err(e) => format!("error: {e}"),
        });
        Ok(iter::once(None).chain(answers.map(Some)).collect())
    };
    answers().unwrap_or_else(|e| vec![Some(format!("error: {e}")); CELLS.len()])
}

/// Column J: the `pmss query` command itself, reading the row's spec
/// from a file.
fn cli_cells(f: &Fixture, tenant: &str) -> Cells {
    let name = format!("pmss-parity-{}-{tenant}.json", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, f.spec.to_json().to_string_pretty()).expect("spec file written");
    let answers = QUERIES.map(|line| {
        let mut args = query_args(&format!("query {line} --spec"));
        args.push(path.display().to_string());
        cli::run(&args).unwrap_or_else(|_| REJECTED.to_string())
    });
    let _ = std::fs::remove_file(&path);
    iter::once(None).chain(answers.map(Some)).collect()
}

/// Columns H and I, served by daemons every row shares (one tenant per
/// row); the last row to finish shuts them down.  Column H's client
/// streams the campaign from one worker, column I's from every core.
static DAEMONS: Mutex<Vec<(&str, Harness)>> = Mutex::new(Vec::new());
static ROWS_LEFT: AtomicUsize = AtomicUsize::new(ROWS.len());

fn daemon_columns(f: &Fixture, tenant: &str) -> Vec<(&'static str, Cells)> {
    let targets: Vec<(&str, Target)> = {
        let mut daemons = DAEMONS.lock().unwrap_or_else(PoisonError::into_inner);
        if daemons.is_empty() {
            daemons.push(("H tcp 1w", Harness::tcp(64, 8)));
            #[cfg(unix)]
            {
                let name = format!("pmss-parity-{}.sock", std::process::id());
                let unix = Listen::Unix(std::env::temp_dir().join(name));
                daemons.push(("I unix Nw", Harness::start(unix, 64, 8)));
            }
        }
        daemons
            .iter()
            .map(|(c, h)| (*c, h.target.clone()))
            .collect()
    };
    let columns = targets
        .iter()
        .map(|(column, target)| {
            let cells = if column.starts_with('H') {
                scoped_map(2, 1, |_| daemon_cells(f, target, tenant)).remove(0)
            } else {
                every_core("I");
                daemon_cells(f, target, tenant)
            };
            (*column, cells)
        })
        .collect();
    if ROWS_LEFT.fetch_sub(1, Ordering::SeqCst) == 1 {
        let mut daemons = DAEMONS.lock().unwrap_or_else(PoisonError::into_inner);
        daemons.drain(..).for_each(|(_, h)| h.stop());
    }
    columns
}

/// Computes the grid of the row named `name` and fails, printing it,
/// unless every cell equals its reference column's and only traceless
/// rows' `econ` cells are rejections.
fn check_row(name: &str) {
    let f = fixture(name);
    let mut columns: Vec<(&str, &str, Cells)> = FOLDS
        .iter()
        .map(|&(column, reference, fold)| (column, reference, fold_cells(f, fold(f))))
        .collect();
    for (column, cells) in daemon_columns(f, name) {
        columns.push((column, RESIDENT, cells));
    }
    columns.push(("J pmss query", RESIDENT, cli_cells(f, name)));

    let traceless = f.spec.active_econ().is_none();
    let mut grid = format!("{:<14}", "");
    for cell in CELLS {
        grid += &format!("{cell:<12}");
    }
    let mut failing = Vec::new();
    for (column, reference, cells) in &columns {
        let want = &columns
            .iter()
            .find(|c| c.0 == *reference)
            .expect("reference")
            .2;
        grid += &format!("\n{column:<14}");
        for (c, cell) in cells.iter().enumerate() {
            let Some(got) = cell else {
                grid += &format!("{:<12}", "-");
                continue;
            };
            let want = want[c].as_deref().unwrap_or("");
            let rejected = CELLS[c] == "econ" && traceless;
            let mark = if (got == REJECTED) != rejected || got != want {
                let diff = first_difference(got, want);
                failing.push(format!("{column} × {} (vs {reference}): {diff}", CELLS[c]));
                "FAIL"
            } else if column == reference {
                "ref"
            } else {
                "ok"
            };
            grid += &format!("{mark:<12}");
        }
    }
    assert!(
        failing.is_empty(),
        "parity row `{name}`: {} cell(s) fail\n{grid}\n{}",
        failing.len(),
        failing.join("\n")
    );
}

/// Where `got` first departs from `want`, with a little context.
fn first_difference(got: &str, want: &str) -> String {
    if got == want {
        return format!(
            "expected a {}",
            if got == REJECTED {
                "value"
            } else {
                "rejection"
            }
        );
    }
    let at = got
        .char_indices()
        .zip(want.chars())
        .find(|((_, g), w)| g != w)
        .map_or(got.len().min(want.len()), |((i, _), _)| i);
    let start = got[..at].char_indices().rev().nth(30).map_or(0, |(i, _)| i);
    let snippet = |s: &str| s[start..].chars().take(60).collect::<String>();
    format!("{:?} vs {:?}", snippet(got), snippet(want))
}

/// A snapshot after the first third of the `frontier-typical` delivery
/// equals a fresh engine flushed over exactly that prefix, and ingesting
/// the rest converges on the batch ledger.
#[test]
fn mid_stream_snapshots_equal_batch_over_the_ingested_prefix() {
    let f = fixture("frontier_typical");
    let events: Vec<WindowEvent> = f.trace.iter().collect();
    let cut = events.len() / 3;
    let ledger_engine =
        || StreamEngine::<EnergyLedger>::new(&f.schedule, f.stream_config()).expect("valid config");
    let mut eng = ledger_engine();
    let mut prefix_eng = ledger_engine();
    for ev in &events[..cut] {
        eng.ingest(*ev).expect("in horizon");
        prefix_eng.ingest(*ev).expect("in horizon");
    }
    let (snap, prefix) = (eng.snapshot(), prefix_eng.finish().0);
    assert_eq!(
        format!("{snap:?}"),
        format!("{prefix:?}"),
        "prefix snapshot"
    );

    for ev in &events[cut..] {
        eng.ingest(*ev).expect("in horizon");
    }
    let full = eng.finish().0;
    assert_eq!(
        format!("{full:?}"),
        format!("{:?}", f.batch.a),
        "prefix + rest"
    );
}
