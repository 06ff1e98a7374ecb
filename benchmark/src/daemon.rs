//! `daemon-mixed`: whole `pmssd` lifetimes on TCP loopback (the `pmss serve`
//! default transport), driven over one connection by the program's own
//! synchronous client.  A rep binds a daemon, OPENs one tenant, streams the
//! captured campaign's BLOCK frames with three QUERYs after every second
//! block (from the first published snapshot on), FLUSHes, checks the four
//! final answers, and SHUTs the daemon DOWN.
//!
//! Closed loop: the one caller waits for each reply before it sends again.

use std::time::Instant;

use crate::probe::Section;
use crate::scenario;
use crate::surface::{
    catalog, generate, query_answer, ClientError, Connection, Daemon, DaemonConfig, EconSeries,
    EncodedBlock, EnergyLedger, Json, Listen, Pair, Pipeline, Query, ResidentFleet, ScenarioSpec,
    Schedule, StreamState, Table3, Target, BACKPRESSURE,
};
use crate::trace::Tracer;
use crate::workload::{err, timed, Ctx, Rep, Workload};

/// QUERYs sent after every second BLOCK, round-robin over the four kinds.
pub const QUERIES_PER_PAIR: usize = 3;

/// Blocks between a tenant's snapshot publications, as `pmss serve` defaults
/// to.  Reads begin once this many blocks are acked: until the first
/// publication the snapshot is empty, and a projection over an empty one is
/// a typed error, not an answer.
pub fn sync_interval() -> usize {
    DaemonConfig::default().sync_interval as usize
}

pub struct DaemonMixed;

pub struct Inputs {
    pub spec: ScenarioSpec,
    pub schedule: Schedule,
    pub table3: Table3,
    pub resident: ResidentFleet,
    /// projection, coverage, ledger, what-if on a real ladder rung.
    pub queries: [Query; 4],
    /// `query::answer` for each over the batch-replayed campaign — what
    /// the daemon must answer, byte for byte, after FLUSH.
    pub expected: Vec<String>,
}

/// Sends one block, retrying while the tenant queue pushes back.
fn send_block(conn: &mut Connection, enc: &EncodedBlock, retries: &mut u64) -> Option<String> {
    loop {
        match conn.send_block(enc) {
            Ok(()) => return None,
            Err(ClientError::Rejected { code, .. }) if code == BACKPRESSURE => {
                *retries += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            Err(e) => return Some(format!("BLOCK: {e}")),
        }
    }
}

/// One daemon lifetime.  Every request is a checked operation; BLOCK and
/// QUERY round trips are the latency samples, each kind on its own.
pub fn session(inputs: &Inputs, t: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let start = Instant::now();
    let first_read = sync_interval();

    let id = t.open("pmssd.bind");
    let daemon = match Daemon::bind(DaemonConfig {
        listen: Listen::Tcp("127.0.0.1:0".to_string()),
        ..DaemonConfig::default()
    }) {
        Ok(d) => d,
        Err(e) => {
            t.close(id, 0, 0);
            rep.checks.check(Some(format!("bind: {e}")));
            return rep;
        }
    };
    let addr = daemon.local_addr().expect("a TCP listener has an address");
    let server = std::thread::spawn(move || daemon.run());
    let target = Target::Tcp(addr.to_string());
    let mut conn = match Connection::connect(&target) {
        Ok(c) => c,
        Err(e) => {
            // Nothing can reach the daemon to stop it; report and leave the
            // thread to the process exit.
            t.close(id, 0, 0);
            rep.checks.check(Some(format!("connect: {e}")));
            return rep;
        }
    };
    t.close(id, 0, 0);

    let id = t.open("pmssd.open");
    let opened = conn.open("bench", Some(&inputs.spec));
    t.close(id, 0, 0);
    rep.checks.check(opened.err().map(|e| format!("OPEN: {e}")));

    let mut next_query = 0usize;
    for (i, enc) in inputs.resident.blocks().iter().enumerate() {
        let id = t.open("pmssd.block");
        let (problem, dt) = timed(|| send_block(&mut conn, enc, &mut rep.retries));
        t.close(id, enc.rows(), enc.payload_bytes() as u64);
        rep.block_s.push(dt);
        if problem.is_none() {
            rep.windows += enc.rows();
        }
        rep.checks.check(problem);
        if i % 2 == 1 && i + 1 >= first_read {
            for _ in 0..QUERIES_PER_PAIR {
                let q = &inputs.queries[next_query % inputs.queries.len()];
                next_query += 1;
                let id = t.open("pmssd.query");
                let (answer, dt) = timed(|| conn.query(q));
                let bytes = answer.as_ref().map_or(0, |a| a.len() as u64);
                t.close(id, 1, bytes);
                rep.query_s.push(dt);
                // Mid-ingest the snapshot lags the acks, so the answer is
                // only required to be an OK frame holding JSON.
                rep.checks.check(match answer {
                    Err(e) => Some(format!("mid-ingest QUERY {}: {e}", q.kind())),
                    Ok(a) => Json::parse(&a)
                        .err()
                        .map(|e| format!("mid-ingest {} answer is not JSON: {e}", q.kind())),
                });
            }
        }
    }

    let id = t.open("pmssd.flush");
    let flushed = conn.flush();
    t.close(id, 0, 0);
    rep.checks
        .check(flushed.err().map(|e| format!("FLUSH: {e}")));

    for (q, expected) in inputs.queries.iter().zip(&inputs.expected) {
        let id = t.open("pmssd.query");
        let (answer, dt) = timed(|| conn.query(q));
        t.close(id, 1, answer.as_ref().map_or(0, |a| a.len() as u64));
        rep.query_s.push(dt);
        rep.checks.check(match answer {
            Err(e) => Some(format!("final QUERY {}: {e}", q.kind())),
            Ok(a) => (a != *expected).then(|| {
                format!(
                    "final {} answer differs from query::answer over the batch replay",
                    q.kind()
                )
            }),
        });
    }

    let id = t.open("pmssd.shutdown");
    let stopped = conn.shutdown();
    let joined = server.join();
    t.close(id, 0, 0);
    rep.checks
        .check(stopped.err().map(|e| format!("SHUTDOWN: {e}")));
    rep.checks.check(match joined {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(format!("daemon exited with an error: {e}")),
        Err(_) => Some("daemon thread panicked".to_string()),
    });

    rep.wall_s = start.elapsed().as_secs_f64();
    rep
}

impl Workload for DaemonMixed {
    type Inputs = Inputs;
    const CHILD_PROCESSES: bool = false;

    fn name(&self) -> &'static str {
        "daemon-mixed"
    }

    fn spec(&self, seed: u64, smoke: bool) -> ScenarioSpec {
        scenario::spec(self.name(), scenario::DAEMON_MIXED, seed, smoke)
    }

    /// Captures the campaign the way `pmss client ingest` does and answers
    /// the four final queries from a batch replay of it.
    fn setup(&self, seed: u64, ctx: &Ctx) -> Result<Inputs, String> {
        let spec = self.spec(seed, ctx.smoke);
        let schedule = generate(spec.trace_params(), &catalog());
        let mut pipeline = Pipeline::new(spec.clone()).map_err(err("pipeline"))?;
        let cfg = pipeline.fleet_config();
        let resident = ResidentFleet::capture(&schedule, &cfg).map_err(err("capture"))?;
        let table3 = pipeline.table3().map_err(err("table3"))?.clone();
        let whatif = table3.power_rows[table3.power_rows.len() / 2].setting;
        let queries = [
            Query::Projection,
            Query::Coverage,
            Query::Ledger,
            Query::WhatIf(whatif),
        ];
        let pair: Pair<EnergyLedger, EconSeries> =
            resident.replay(&schedule).map_err(err("batch replay"))?;
        let state = StreamState::with_econ(pair.a, pair.b, spec.frontier_factor());
        let expected = queries
            .iter()
            .map(|q| {
                query_answer(&state, &table3, None, q)
                    .map(|a| a.to_string_pretty())
                    .map_err(err("batch answer"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Inputs {
            spec,
            schedule,
            table3,
            resident,
            queries,
            expected,
        })
    }

    fn traced_rep(&self, inputs: &Inputs, _ctx: &Ctx, t: &mut Tracer) -> Rep {
        session(inputs, t)
    }

    fn own_section(&self) -> Option<Section> {
        Some(Section::DaemonSession)
    }
}
