//! The synchronous pmssd client.
//!
//! Used by `pmss client …`, the differential integration suite, and the
//! CI smoke job.  The client is deliberately plain blocking I/O: one
//! request, one response, with backpressure surfacing as a typed
//! [`ClientError::Rejected`] the caller can retry on.
//!
//! [`ingest_campaign`] reproduces the batch pipeline's telemetry
//! *exactly* — same schedule generator, same fleet configuration
//! ([`pmss_pipeline::stage::Pipeline::fleet_config`]), same resident
//! codec — so a daemon fed by it holds the same event prefix the batch
//! CLI folds, which is what makes byte-identical query answers a
//! meaningful check rather than a coincidence.
//!
//! It streams: [`pmss_telemetry::capture_blocks`] sends each block, in
//! the canonical order a whole-campaign capture sent, as soon as its node
//! is generated, so the client holds O(workers) nodes, not the campaign,
//! and BACKPRESSURE stalls generation.  Hence a failed send stops
//! generation early, and a capture error arrives after the blocks before
//! it were acked, where it once arrived before the first frame.

use std::io::{Read, Write};
use std::path::PathBuf;

use pmss_columns::EncodedBlock;
use pmss_error::PmssError;
use pmss_pipeline::json::Json;
use pmss_pipeline::query::Query;
use pmss_pipeline::spec::ScenarioSpec;
use pmss_pipeline::stage::Pipeline;
use pmss_sched::catalog;
use pmss_telemetry::capture_blocks;

use crate::proto::{self, code, frame, status};

/// A client-side failure: transport, typed daemon rejection, or a
/// protocol violation by the peer.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level I/O failure.
    Io(std::io::Error),
    /// The daemon rejected the request with a typed code.
    Rejected {
        /// Machine-readable code from [`crate::proto::code`].
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The peer violated the frame protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Rejected { code, detail } => write!(f, "rejected ({code}): {detail}"),
            ClientError::Protocol(d) => write!(f, "protocol violation: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A capture that fails mid-stream.
impl From<PmssError> for ClientError {
    fn from(e: PmssError) -> Self {
        ClientError::Protocol(format!("telemetry capture failed: {e}"))
    }
}

impl From<ClientError> for PmssError {
    fn from(e: ClientError) -> Self {
        PmssError::invalid_value("pmssd client request", e.to_string(), "an accepted request")
    }
}

/// Where a client connects; parsed from `host:port` or `unix:/path`.
#[derive(Debug, Clone)]
pub enum Target {
    /// TCP address, e.g. `127.0.0.1:7878`.
    Tcp(String),
    /// Unix-domain socket path (the `unix:` prefix stripped).
    Unix(PathBuf),
}

impl Target {
    /// Parses an address argument: a `unix:` prefix selects a socket
    /// path, anything else is a TCP address.
    pub(crate) fn parse(addr: &str) -> Target {
        match addr.strip_prefix("unix:") {
            Some(path) => Target::Unix(PathBuf::from(path)),
            None => Target::Tcp(addr.to_string()),
        }
    }
}

/// A connected socket: TCP or unix-domain.
trait Socket: Read + Write + Send {}
impl<S: Read + Write + Send> Socket for S {}

/// One open connection to a pmssd daemon.
pub struct Connection {
    stream: Box<dyn Socket>,
}

impl Connection {
    /// Connects to `target`.
    pub fn connect(target: &Target) -> Result<Connection, ClientError> {
        let stream: Box<dyn Socket> = match target {
            Target::Tcp(addr) => {
                let s = std::net::TcpStream::connect(addr.as_str())?;
                s.set_nodelay(true)?;
                Box::new(s)
            }
            Target::Unix(path) => Box::new(std::os::unix::net::UnixStream::connect(path)?),
        };
        Ok(Connection { stream })
    }

    fn request(&mut self, ty: u8, payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        proto::write_frame(&mut self.stream, ty, payload)?;
        match proto::read_frame(&mut self.stream)? {
            None => Err(ClientError::Protocol(
                "daemon closed the connection before replying".to_string(),
            )),
            Some((status::OK, body)) => Ok(body),
            Some((status::ERR, body)) => {
                let (code, detail) = proto::parse_err(&body);
                Err(ClientError::Rejected { code, detail })
            }
            Some((other, _)) => Err(ClientError::Protocol(format!(
                "unknown response status {other}"
            ))),
        }
    }

    /// Binds this connection to `tenant`, creating it from `spec` when
    /// it does not exist yet.
    pub fn open(&mut self, tenant: &str, spec: Option<&ScenarioSpec>) -> Result<(), ClientError> {
        let mut obj = Json::obj().field("tenant", tenant);
        if let Some(spec) = spec {
            obj = obj.field("spec", spec.to_json());
        }
        self.request(frame::OPEN, obj.to_string_compact().as_bytes())
            .map(|_| ())
    }

    /// Sends one encoded block; a typed rejection leaves the tenant's
    /// state untouched.
    pub fn send_block(&mut self, block: &EncodedBlock) -> Result<(), ClientError> {
        self.send_block_raw(&block.to_bytes())
    }

    /// Sends raw bytes as a BLOCK frame — the adversarial tests use this
    /// to deliver deliberately corrupt payloads.
    pub fn send_block_raw(&mut self, payload: &[u8]) -> Result<(), ClientError> {
        self.request(frame::BLOCK, payload).map(|_| ())
    }

    /// Forces a snapshot publish covering every previously acked block.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.request(frame::FLUSH, b"").map(|_| ())
    }

    /// Runs a read query against the bound tenant's published snapshot;
    /// the returned string is byte-identical to `pmss query` output over
    /// the same event prefix.
    pub fn query(&mut self, q: &Query) -> Result<String, ClientError> {
        let body = self.request(frame::QUERY, q.to_json().to_string_compact().as_bytes())?;
        String::from_utf8(body)
            .map_err(|_| ClientError::Protocol("query answer is not UTF-8".to_string()))
    }

    /// Asks the daemon to shut down cleanly.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(frame::SHUTDOWN, b"").map(|_| ())
    }
}

/// What [`ingest_campaign`] streamed.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestReport {
    /// Encoded blocks acked by the daemon.
    pub blocks: u64,
    /// Telemetry rows those blocks carried.
    pub rows: u64,
    /// Backpressure rejections absorbed by retrying.
    pub backpressure_retries: u64,
}

/// Generates the spec's fleet telemetry with the batch pipeline's own
/// configuration and streams every block to the daemon as its node is
/// generated, retrying on backpressure, then finishes with a FLUSH so
/// queries see the full campaign.  The first failed send or capture ends
/// the ingest, after the blocks before it were acked.
pub fn ingest_campaign(
    conn: &mut Connection,
    spec: &ScenarioSpec,
) -> Result<IngestReport, ClientError> {
    let pipeline = Pipeline::new(spec.clone())
        .map_err(|e| ClientError::Protocol(format!("invalid spec: {e}")))?;
    let cfg = pipeline.fleet_config();
    let schedule = pmss_sched::generate(spec.trace_params(), &catalog());
    let mut report = IngestReport::default();
    capture_blocks(&schedule, &cfg, |block| {
        loop {
            match conn.send_block(&block) {
                Ok(()) => break,
                Err(ClientError::Rejected { code: c, .. }) if c == code::BACKPRESSURE => {
                    report.backpressure_retries += 1;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
        report.blocks += 1;
        report.rows += block.rows();
        Ok(())
    })?;
    conn.flush()?;
    Ok(report)
}

/// Scrapes the daemon's metrics endpoint, returning the plain-text body.
pub fn scrape_metrics(addr: &str) -> std::io::Result<String> {
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Ok(response),
    }
}
