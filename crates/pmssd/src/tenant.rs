//! Per-tenant ingest workers.
//!
//! Each tenant fleet gets one worker thread owning its [`StreamEngine`]
//! (the engine borrows the tenant's `Schedule`, so both live on the
//! worker's stack), fed through a *bounded* command queue — the daemon's
//! backpressure seam: when the queue is full, admission fails with a
//! typed error instead of buffering without bound.  Sharding across
//! workers is per-tenant: every tenant ingests and publishes
//! independently, so a slow or hostile feed can only ever stall its own
//! fleet.
//!
//! Snapshot publication is epoch-style: the worker builds a fresh
//! immutable [`StreamState`] every `sync_interval` blocks and swaps it
//! into a shared `RwLock<Arc<_>>` slot whose critical section is one
//! pointer store; readers clone the `Arc` and answer queries entirely
//! outside any lock the writer takes.  Queries therefore never stall
//! ingest, and ingest never tears a query.

use std::sync::mpsc::{sync_channel, Sender as ReplySender, SyncSender};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;

use pmss_columns::{BlockGrid, CodecConfig, ColumnBlock, EncodedBlock};
use pmss_core::EnergyLedger;
use pmss_econ::{EconSeries, EconTrace};
use pmss_error::PmssError;
use pmss_obs::Metrics;
use pmss_pipeline::spec::ScenarioSpec;
use pmss_pipeline::stage::Pipeline;
use pmss_sched::{catalog, generate};
use pmss_stream::{StreamConfig, StreamEngine, StreamState};
use pmss_telemetry::Pair;
use pmss_workloads::Table3;

use crate::proto::{code, stream_error_code};

/// A typed ingest rejection: the wire code plus human detail.
pub(crate) type Rejection = (&'static str, String);

/// Commands a connection handler sends to a tenant worker.  Replies go
/// over per-request rendezvous channels so every frame gets its own
/// typed verdict.
pub(crate) enum Command {
    /// Decode and ingest one encoded block; reply once applied (or
    /// rejected with the engine's typed error).
    Block(EncodedBlock, ReplySender<Result<(), Rejection>>),
    /// Publish a snapshot covering everything acked so far, then reply.
    Flush(ReplySender<()>),
}

/// The shared, read-side view of one tenant (see module docs).
pub(crate) struct TenantShared {
    /// Tenant name (the wire identity).
    pub name: String,
    /// The tenant's Table III — what-if and projection queries need it.
    pub table3: Table3,
    /// The spec's active econ trace — `econ` queries price the ingested
    /// energy against it (`None` when the scenario carries no trace).
    pub econ: Option<EconTrace>,
    /// The published snapshot slot.  Readers clone the `Arc` out and drop
    /// the guard immediately.  A poisoned lock is read through
    /// (`PoisonError::into_inner`): every write is one whole-value store,
    /// so the slot is valid at every step.
    pub state: RwLock<Arc<StreamState>>,
    /// Rendered metrics lines at the last publish (scrape endpoint
    /// fodder).
    pub metrics_text: RwLock<String>,
    /// The spec the tenant was opened with, JSON-compact: a later OPEN
    /// carrying a spec must match it.
    pub spec_json: String,
}

/// One live tenant: the shared read view plus the worker's queue.
pub(crate) struct Tenant {
    /// Read-side handle.
    pub shared: Arc<TenantShared>,
    /// Bounded ingest queue into the worker.
    pub tx: SyncSender<Command>,
    /// The worker thread, joined at daemon shutdown.
    pub handle: JoinHandle<()>,
}

impl Tenant {
    /// Closes the ingest queue and joins the worker, which exits on the
    /// closed queue once every connection's sender is gone too.  A join
    /// error is a panic the hook already reported on that thread.
    pub(crate) fn stop(self) {
        drop(self.tx);
        let _ = self.handle.join();
    }
}

/// Builds and spawns a tenant worker for `spec`.
///
/// The expensive artifacts a tenant needs — the schedule and Table III —
/// are built here, *before* the worker starts; the fleet simulation
/// itself is never run (telemetry arrives over the wire).  The ingest
/// queue holds `queue_depth` frames, and the worker publishes a snapshot
/// every `sync_interval` blocks (at least every block; FLUSH always
/// publishes).
pub(crate) fn spawn(
    name: &str,
    spec: &ScenarioSpec,
    queue_depth: usize,
    sync_interval: u64,
) -> Result<Tenant, PmssError> {
    spec.validate()?;
    let stream_cfg = StreamConfig::for_plan(spec.active_faults());
    stream_cfg.validate()?;
    let schedule = generate(spec.trace_params(), &catalog());
    // Pipeline's benchmark stage computes Table III from the spec's cap
    // ladders without touching the fleet stage.
    let mut pipeline = Pipeline::new(spec.clone())?;
    let table3 = pipeline.table3()?.clone();
    // A channel delivers each of its windows at most twice (once, plus
    // the fault plan's single duplicate), so no honest block has more
    // rows; a frame declaring more is refused before its decode
    // allocates anything.
    let grid = BlockGrid {
        window_s: pipeline.fleet_config().window_s,
        duration_s: schedule.duration_s,
        skew_s: 0.0,
    };
    let codec = CodecConfig {
        max_samples: 2 * grid.windows() as usize,
    };
    let frontier_factor = spec.frontier_factor();

    let shared = Arc::new(TenantShared {
        name: name.to_string(),
        table3,
        econ: spec.active_econ().cloned(),
        state: RwLock::new(Arc::new(StreamState::new(
            EnergyLedger::default(),
            frontier_factor,
        ))),
        metrics_text: RwLock::new(String::new()),
        spec_json: spec.to_json().to_string_compact(),
    });
    let (tx, rx) = sync_channel::<Command>(queue_depth);

    let worker_shared = Arc::clone(&shared);
    let handle = std::thread::spawn(move || {
        // Owned by the worker; the engine borrows it.  The worker always
        // runs the paired observer: the ledger member's accumulation is
        // bit-identical to a ledger-only engine (each `Pair` member folds
        // independently), and the econ series rides along so snapshots
        // can answer `econ` queries.
        let schedule = schedule;
        let Ok(mut engine) =
            StreamEngine::<Pair<EnergyLedger, EconSeries>>::new(&schedule, stream_cfg)
        else {
            return; // validated above; unreachable in practice
        };
        // One decode scratch for the worker's lifetime: every frame
        // decompresses into the same column buffers.
        let mut block = ColumnBlock::default();
        let mut since_publish = 0u64;
        let publish = |engine: &StreamEngine<'_, Pair<EnergyLedger, EconSeries>>| {
            let state = Arc::new(StreamState::capture_pair(engine, frontier_factor));
            let shared = &worker_shared;
            *shared.state.write().unwrap_or_else(PoisonError::into_inner) = state;
            let mut m = Metrics::new();
            engine.publish_metrics(&mut m);
            *shared
                .metrics_text
                .write()
                .unwrap_or_else(PoisonError::into_inner) = render_metrics(&shared.name, &m);
        };
        publish(&engine);
        while let Ok(cmd) = rx.recv() {
            match cmd {
                Command::Block(enc, reply) => {
                    let result = match enc.decode_into(codec, &mut block) {
                        Err(e) => Err((code::MALFORMED, e.to_string())),
                        Ok(()) => engine
                            .ingest_block(&block)
                            .map_err(|e| (stream_error_code(&e), e.to_string())),
                    };
                    since_publish += 1;
                    if since_publish >= sync_interval.max(1) {
                        publish(&engine);
                        since_publish = 0;
                    }
                    let _ = reply.send(result);
                }
                Command::Flush(reply) => {
                    publish(&engine);
                    since_publish = 0;
                    let _ = reply.send(());
                }
            }
        }
        // The queue closes only once the registry is drained and every
        // connection joined: no reader is left to publish for.
    });
    Ok(Tenant { shared, tx, handle })
}

/// Renders a tenant's stream metrics as scrapeable text lines:
/// `pmssd_<counter>{tenant="<name>"} <value>`.
fn render_metrics(name: &str, m: &Metrics) -> String {
    let mut out = String::new();
    for (k, v) in m.counters() {
        out.push_str(&format!(
            "pmssd_{}{{tenant=\"{name}\"}} {v}\n",
            k.replace('.', "_")
        ));
    }
    for (k, v) in m.gauges() {
        out.push_str(&format!(
            "pmssd_{}{{tenant=\"{name}\"}} {v}\n",
            k.replace('.', "_")
        ));
    }
    out
}
