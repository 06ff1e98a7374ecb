//! The daemon: accept loop, tenant registry, metrics endpoint, shutdown.
//!
//! Each accepted connection gets its own thread running the frame loop in
//! `serve_connection`; tenants are spawned on demand (an `OPEN` frame
//! carrying a spec) and shared across connections through the registry.
//! Ingest admission is two-stage: the handler `try_send`s onto the
//! tenant's bounded queue (full queue → typed `backpressure` error, the
//! frame is dropped before it costs anything) and then waits for the
//! worker's per-frame verdict, so every acked `BLOCK` was really applied
//! by the single-writer engine and every rejection carries its typed
//! code.
//!
//! Shutdown is cooperative: a `SHUTDOWN` frame flips a flag and pokes
//! both listeners with a self-connection so their blocking accepts
//! return; the run loop then force-closes and joins the connection
//! threads, drops the registry (closing every tenant queue), and joins
//! the workers.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use pmss_columns::EncodedBlock;
use pmss_error::PmssError;
use pmss_pipeline::json::Json;
use pmss_pipeline::query::Query;
use pmss_pipeline::spec::ScenarioSpec;

use crate::proto::{self, code, frame, status};
use crate::tenant::{self, Command, Rejection, Tenant, TenantShared};

/// Where the daemon listens for client frames.
#[derive(Debug, Clone)]
pub enum Listen {
    /// TCP, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    Tcp(String),
    /// Unix-domain socket path.
    Unix(std::path::PathBuf),
}

/// Daemon tuning.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Client-frame listener address.
    pub listen: Listen,
    /// Optional metrics endpoint (TCP, plain-text scrape).
    pub metrics_addr: Option<String>,
    /// Per-tenant bounded ingest-queue depth.
    pub queue_depth: usize,
    /// Blocks between tenant snapshot publications.
    pub sync_interval: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            listen: Listen::Tcp("127.0.0.1:0".to_string()),
            metrics_addr: None,
            queue_depth: 64,
            sync_interval: 8,
        }
    }
}

enum Acceptor {
    Tcp(TcpListener),
    Unix(UnixListener, std::path::PathBuf),
}

type Registry = Arc<Mutex<HashMap<String, Tenant>>>;

/// Live tenants one daemon serves.  Each holds a worker thread, a
/// schedule, a Table III and a decode scratch, so an OPEN with a fresh
/// name past the cap is refused (`usage`); a re-OPEN of a live tenant
/// still binds.
pub const MAX_TENANTS: usize = 64;

/// A bound (but not yet running) daemon.
pub struct Daemon {
    acceptor: Acceptor,
    metrics: Option<TcpListener>,
    cfg: DaemonConfig,
    shutdown: Arc<AtomicBool>,
}

impl Daemon {
    /// Binds the client and metrics listeners; nothing is served until
    /// [`Daemon::run`].
    pub fn bind(cfg: DaemonConfig) -> Result<Daemon, PmssError> {
        let acceptor = match &cfg.listen {
            Listen::Tcp(addr) => TcpListener::bind(addr.as_str()).map(Acceptor::Tcp),
            Listen::Unix(path) => {
                // A stale socket file from a previous run refuses the bind.
                let _ = std::fs::remove_file(path);
                UnixListener::bind(path).map(|l| Acceptor::Unix(l, path.clone()))
            }
        }
        .map_err(|e| {
            PmssError::invalid_value("pmssd listen address", e.to_string(), "a bindable address")
        })?;
        let metrics = match &cfg.metrics_addr {
            None => None,
            Some(addr) => Some(TcpListener::bind(addr.as_str()).map_err(|e| {
                PmssError::invalid_value(
                    "pmssd metrics address",
                    e.to_string(),
                    "a bindable address",
                )
            })?),
        };
        Ok(Daemon {
            acceptor,
            metrics,
            cfg,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound client address, when listening on TCP (tests bind port
    /// 0 and discover the port here).
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.acceptor {
            Acceptor::Tcp(l) => l.local_addr().ok(),
            Acceptor::Unix(..) => None,
        }
    }

    /// The bound metrics address, when a metrics endpoint was requested.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Serves until a `SHUTDOWN` frame arrives, then drains: joins
    /// connection threads, closes tenant queues, joins workers.
    pub fn run(self) -> Result<(), PmssError> {
        let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
        let queue = (self.cfg.queue_depth, self.cfg.sync_interval);
        let shutdown = Arc::clone(&self.shutdown);
        // Self-connection targets for waking the blocking accepts at
        // shutdown — resolved from the *bound* listeners, since the
        // configured address may have been port 0.
        let poke_target = match &self.acceptor {
            Acceptor::Tcp(l) => Listen::Tcp(
                l.local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "127.0.0.1:0".to_string()),
            ),
            Acceptor::Unix(_, path) => Listen::Unix(path.clone()),
        };
        let metrics_poke = self.metrics_addr().map(|a| a.to_string());

        let metrics_thread = self.metrics.map(|listener| {
            let registry = Arc::clone(&registry);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || loop {
                let Ok((stream, _)) = listener.accept() else {
                    break;
                };
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                serve_metrics_scrape(stream, &registry);
            })
        });

        // Each entry: the connection thread plus a cloned socket handle so
        // shutdown can force-close connections blocked mid-read.
        let mut conns: Vec<(JoinHandle<()>, Option<Conn>)> = Vec::new();
        loop {
            let stream = match &self.acceptor {
                // Frames larger than one segment would otherwise wait on
                // Nagle for the peer's ACK of the first.
                Acceptor::Tcp(l) => l.accept().and_then(|(s, _)| {
                    s.set_nodelay(true)?;
                    Ok(Conn::Tcp(s))
                }),
                Acceptor::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let closer = stream.try_clone().ok();
            let registry = Arc::clone(&registry);
            let shutdown = Arc::clone(&shutdown);
            let listen = poke_target.clone();
            let metrics_addr = metrics_poke.clone();
            let handle = std::thread::spawn(move || {
                let wake = move || {
                    poke(&listen);
                    if let Some(addr) = &metrics_addr {
                        let _ = TcpStream::connect(addr.as_str());
                    }
                };
                match stream {
                    Conn::Tcp(mut s) => {
                        serve_connection(&mut s, &registry, queue, &shutdown, &wake)
                    }
                    Conn::Unix(mut s) => {
                        serve_connection(&mut s, &registry, queue, &shutdown, &wake)
                    }
                }
            });
            conns.push((handle, closer));
        }

        // Force-close lingering connections (a client holding an idle
        // connection open must not be able to wedge shutdown), then join.
        // A join error is a panic the hook already reported on that
        // thread; the drain goes on.
        for closer in conns.iter().filter_map(|(_, c)| c.as_ref()) {
            closer.shutdown_both();
        }
        for (handle, _) in conns {
            let _ = handle.join();
        }
        // Dropping every sender closes the workers' queues; each worker
        // exits on the closed queue.
        let tenants: Vec<Tenant> = registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain()
            .map(|(_, t)| t)
            .collect();
        for t in tenants {
            t.stop();
        }
        if let Some(thread) = metrics_thread {
            let _ = thread.join();
        }
        if let Acceptor::Unix(_, path) = &self.acceptor {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    /// A second handle on the same socket: lets the run loop force-close
    /// a connection whose thread is blocked in a read.
    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Closes both directions, unblocking any pending read.
    fn shutdown_both(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

/// Pokes a blocking acceptor awake with a throwaway self-connection.
fn poke(listen: &Listen) {
    match listen {
        Listen::Tcp(addr) => {
            let _ = TcpStream::connect(addr.as_str());
        }
        Listen::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
    }
}

/// One connection's frame loop.  `queue` is the `(queue_depth,
/// sync_interval)` pair a tenant this connection opens is spawned with;
/// `wake` unblocks the daemon's accept loops after a `SHUTDOWN` frame.
fn serve_connection<S: Read + Write>(
    stream: &mut S,
    registry: &Registry,
    queue: (usize, u64),
    shutdown: &AtomicBool,
    wake: &dyn Fn(),
) {
    let mut bound: Bound = None;
    loop {
        let (ty, payload) = match proto::read_request(stream) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => return,
        };
        let reply = match (ty, payload) {
            (_, Err(len)) => Err((
                code::MALFORMED,
                format!(
                    "JSON payload of {len} bytes exceeds the {}-byte bound",
                    proto::MAX_JSON_PAYLOAD
                ),
            )),
            (frame::OPEN, Ok(payload)) => handle_open(&payload, registry, queue, &mut bound),
            (frame::BLOCK, Ok(payload)) => handle_block(&payload, &bound),
            (frame::FLUSH, _) => handle_flush(&bound),
            (frame::QUERY, Ok(payload)) => handle_query(&payload, &bound),
            (frame::SHUTDOWN, _) => {
                // Ack first: once the flag flips, the run loop may
                // force-close this very socket.
                let _ = proto::write_frame(stream, status::OK, b"");
                shutdown.store(true, Ordering::SeqCst);
                wake();
                return;
            }
            (other, _) => Err((
                code::USAGE,
                format!("unknown frame type {other} (expected 1..=5)"),
            )),
        };
        let io = match reply {
            Ok(body) => proto::write_frame(stream, status::OK, &body),
            Err((c, detail)) => {
                proto::write_frame(stream, status::ERR, &proto::err_payload(c, &detail))
            }
        };
        if io.is_err() {
            return;
        }
    }
}

type Reply = Result<Vec<u8>, (&'static str, String)>;

/// The tenant a connection bound with OPEN: its read side and a sender
/// into its ingest queue.
type Bound = Option<(Arc<TenantShared>, SyncSender<Command>)>;

fn handle_open(
    payload: &[u8],
    registry: &Registry,
    (queue_depth, sync_interval): (usize, u64),
    bound: &mut Bound,
) -> Reply {
    let text = std::str::from_utf8(payload)
        .map_err(|_| (code::MALFORMED, "OPEN payload is not UTF-8".to_string()))?;
    let v = Json::parse(text).map_err(|e| (code::MALFORMED, e.to_string()))?;
    let name = v
        .get("tenant")
        .and_then(|t| t.as_str().map(str::to_string))
        .ok_or_else(|| {
            (
                code::MALFORMED,
                "OPEN payload needs a \"tenant\" string".to_string(),
            )
        })?;
    // The name is printed inside `{tenant="…"}` on `/metrics`: anything
    // that could close the label or start a line stops here.
    let label_safe = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-');
    if !(1..=64).contains(&name.len()) || !name.bytes().all(label_safe) {
        return Err((
            code::MALFORMED,
            "tenant name must match [A-Za-z0-9_.-]{1,64}".to_string(),
        ));
    }
    let spec = v
        .get("spec")
        .map(ScenarioSpec::from_json)
        .transpose()
        .map_err(|e| (code::MALFORMED, e.to_string()))?;
    // Name and cap are checked under the lock, the tenant is built outside
    // it (its schedule and Table III), and both are checked again before
    // the insert: an OPEN spawning never holds up another OPEN, a scrape
    // or the shutdown drain.
    let spec = {
        let reg = registry.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = reg.get(&name) {
            return bind(t, spec.as_ref(), &name, bound);
        }
        let Some(spec) = spec else {
            return Err((
                code::UNKNOWN_TENANT,
                format!("tenant {name:?} does not exist and OPEN carried no spec"),
            ));
        };
        check_cap(&reg, &name)?;
        spec
    };
    let fresh = tenant::spawn(&name, &spec, queue_depth, sync_interval)
        .map_err(|e| (code::MALFORMED, e.to_string()))?;
    let mut reg = registry.lock().unwrap_or_else(PoisonError::into_inner);
    // A racing OPEN may have inserted this name, or taken the last slot,
    // while this one spawned: the fresh tenant then retires unseen.
    let lost = match reg.get(&name) {
        Some(winner) => Some(bind(winner, Some(&spec), &name, bound)),
        None => check_cap(&reg, &name).err().map(Err),
    };
    if let Some(reply) = lost {
        drop(reg);
        fresh.stop();
        return reply;
    }
    *bound = Some((Arc::clone(&fresh.shared), fresh.tx.clone()));
    reg.insert(name, fresh);
    Ok(Vec::new())
}

/// Binds a connection to the live tenant `t`.  A re-OPEN carrying a spec
/// must carry the one the tenant was created from.
fn bind(t: &Tenant, spec: Option<&ScenarioSpec>, name: &str, bound: &mut Bound) -> Reply {
    if spec.is_some_and(|s| s.to_json().to_string_compact() != t.shared.spec_json) {
        return Err((
            code::USAGE,
            format!("tenant {name:?} is already open with a different spec"),
        ));
    }
    *bound = Some((Arc::clone(&t.shared), t.tx.clone()));
    Ok(Vec::new())
}

/// Refuses a fresh tenant once `MAX_TENANTS` are live.
fn check_cap(reg: &HashMap<String, Tenant>, name: &str) -> Result<(), Rejection> {
    if reg.len() >= MAX_TENANTS {
        return Err((
            code::USAGE,
            format!(
                "the daemon already serves MAX_TENANTS = {MAX_TENANTS} tenants; \
                 tenant {name:?} was not opened"
            ),
        ));
    }
    Ok(())
}

fn handle_block(payload: &[u8], bound: &Bound) -> Reply {
    let Some((_, tx)) = bound else {
        return Err((code::USAGE, "BLOCK before OPEN".to_string()));
    };
    // Structural validation up front: a hostile header never reaches the
    // tenant queue.
    let enc = EncodedBlock::from_bytes(payload).map_err(|e| (code::MALFORMED, e.to_string()))?;
    let (reply_tx, reply_rx) = std::sync::mpsc::channel();
    match tx.try_send(Command::Block(enc, reply_tx)) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            return Err((
                code::BACKPRESSURE,
                "tenant ingest queue is full; retry after a drain".to_string(),
            ));
        }
        Err(TrySendError::Disconnected(_)) => {
            return Err((code::INTERNAL, "tenant worker has exited".to_string()));
        }
    }
    match reply_rx.recv() {
        Ok(Ok(())) => Ok(Vec::new()),
        Ok(Err((c, detail))) => Err((c, detail)),
        Err(_) => Err((
            code::INTERNAL,
            "tenant worker dropped the frame".to_string(),
        )),
    }
}

fn handle_flush(bound: &Bound) -> Reply {
    let Some((_, tx)) = bound else {
        return Err((code::USAGE, "FLUSH before OPEN".to_string()));
    };
    let (reply_tx, reply_rx) = std::sync::mpsc::channel();
    // FLUSH must not be droppable under load: retry admission briefly so
    // a full queue delays the barrier instead of failing it.
    let mut cmd = Command::Flush(reply_tx);
    loop {
        match tx.try_send(cmd) {
            Ok(()) => break,
            Err(TrySendError::Full(c)) => {
                cmd = c;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(TrySendError::Disconnected(_)) => {
                return Err((code::INTERNAL, "tenant worker has exited".to_string()));
            }
        }
    }
    match reply_rx.recv() {
        Ok(()) => Ok(Vec::new()),
        Err(_) => Err((
            code::INTERNAL,
            "tenant worker dropped the flush".to_string(),
        )),
    }
}

fn handle_query(payload: &[u8], bound: &Bound) -> Reply {
    let Some((shared, _)) = bound else {
        return Err((code::USAGE, "QUERY before OPEN".to_string()));
    };
    let text = std::str::from_utf8(payload)
        .map_err(|_| (code::MALFORMED, "QUERY payload is not UTF-8".to_string()))?;
    let v = Json::parse(text).map_err(|e| (code::MALFORMED, e.to_string()))?;
    let q = Query::from_json(&v).map_err(|e| (code::MALFORMED, e.to_string()))?;
    // Clone the published snapshot out from under the lock; the answer
    // is computed without blocking the writer.
    let state = shared
        .state
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let answer = pmss_pipeline::query::answer(&state, &shared.table3, shared.econ.as_ref(), &q)
        .map_err(|e| {
            let code = match e {
                PmssError::EmptyInput { .. } => code::NOT_READY,
                _ => code::MALFORMED,
            };
            (code, e.to_string())
        })?;
    Ok(answer.to_string_pretty().into_bytes())
}

/// Answers one metrics scrape with a minimal HTTP/1.0 plain-text
/// response concatenating every tenant's published metrics.
fn serve_metrics_scrape(mut stream: TcpStream, registry: &Registry) {
    let mut body = String::new();
    {
        let reg = registry.lock().unwrap_or_else(PoisonError::into_inner);
        let mut names: Vec<&String> = reg.keys().collect();
        names.sort();
        for name in names {
            let text = &reg[name].shared.metrics_text;
            body.push_str(&text.read().unwrap_or_else(PoisonError::into_inner));
        }
    }
    if body.is_empty() {
        body.push_str("# no tenants\n");
    }
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.shutdown(Shutdown::Write);
}
