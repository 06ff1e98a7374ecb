//! The pmssd wire protocol: length-prefixed frames over a byte stream.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [ len: u32 LE ][ type/status: u8 ][ payload: len-1 bytes ]
//! ```
//!
//! `len` counts the type byte plus the payload and is bounded by
//! `MAX_FRAME`; an oversized or truncated frame is a transport error
//! and closes the connection.  A request carrying JSON (OPEN, QUERY) is
//! bounded far lower, by [`MAX_JSON_PAYLOAD`]: a longer one is read past
//! unallocated and refused as `malformed`, and the connection goes on.
//! Request types are in [`frame`], response
//! statuses in [`status`].  An `ERR` payload is JSON
//! `{"code": <typed code>, "error": <human detail>}` with the code drawn
//! from the [`code`] vocabulary, so clients can branch on rejection
//! class (backpressure vs. adversarial frame vs. protocol misuse)
//! without parsing prose.

use std::io::{Read, Write};

use pmss_stream::StreamError;

/// Hard bound on one frame's `type + payload` size (64 MiB): a hostile
/// length prefix must not drive an unbounded allocation.
pub(crate) const MAX_FRAME: usize = 64 << 20;

/// Bound on the payload of a request that carries JSON (OPEN, QUERY):
/// 8 MiB.  `Json::parse` builds a tree several times its input, so a
/// JSON frame is refused at this bound, before its payload is allocated,
/// not at `MAX_FRAME`.  The largest spec the spec's bounds admit is
/// dominated by its two 86 400-bucket econ series: at full precision a
/// value in `[1e-6, 1e16)` is at most 24 characters, so both series are
/// ~4.3 MB of compact JSON.  A query is a few dozen bytes.
pub const MAX_JSON_PAYLOAD: usize = 8 << 20;

/// Request frame types (client → daemon).
pub mod frame {
    /// Bind this connection to a tenant; payload is JSON
    /// `{"tenant": name}` (existing tenant) or
    /// `{"tenant": name, "spec": <ScenarioSpec>}` (create if absent).
    pub const OPEN: u8 = 1;
    /// One `EncodedBlock` wire frame for the bound tenant.
    pub const BLOCK: u8 = 2;
    /// Force the bound tenant to publish a fresh snapshot; acks once
    /// every previously acked block is visible to queries.
    pub const FLUSH: u8 = 3;
    /// A read query (JSON, see `pmss_pipeline::query`) against the bound
    /// tenant's published snapshot.
    pub const QUERY: u8 = 4;
    /// Stop the daemon.
    pub const SHUTDOWN: u8 = 5;
}

/// Response statuses (daemon → client).
pub mod status {
    /// Request succeeded; payload is the response body (possibly empty).
    pub const OK: u8 = 0;
    /// Request rejected; payload is the typed-error JSON.
    pub const ERR: u8 = 1;
}

/// Typed rejection codes carried in `ERR` payloads.
pub mod code {
    /// Tenant ingest queue at capacity — retry after draining.
    pub const BACKPRESSURE: &str = "backpressure";
    /// Event window already released (stream-engine rejection).
    pub(crate) const LATE_ARRIVAL: &str = "late_arrival";
    /// Event window beyond the reorder-span bound (stream-engine
    /// rejection).
    pub(crate) const SPAN_OVERFLOW: &str = "span_overflow";
    /// Event names a channel outside the tenant's fleet (stream-engine
    /// rejection).
    pub const INVALID_CHANNEL: &str = "invalid_channel";
    /// Event attributes a job outside the tenant's job log
    /// (stream-engine rejection).
    pub(crate) const INVALID_JOB: &str = "invalid_job";
    /// Frame payload failed structural validation (codec or JSON).
    pub const MALFORMED: &str = "malformed";
    /// Query or block for a tenant this connection never opened, or an
    /// OPEN for an unknown tenant without a spec.
    pub const UNKNOWN_TENANT: &str = "unknown_tenant";
    /// Protocol misuse (e.g. BLOCK before OPEN, unknown frame type).
    pub const USAGE: &str = "usage";
    /// QUERY before the tenant has published a snapshot with any energy
    /// in it — a state, not a bad request: retry after the next FLUSH.
    pub const NOT_READY: &str = "not_ready";
    /// Daemon-side failure (tenant worker gone).
    pub(crate) const INTERNAL: &str = "internal";
}

/// The typed code for a stream-engine rejection.
pub(crate) fn stream_error_code(e: &StreamError) -> &'static str {
    match e {
        StreamError::LateArrival { .. } => code::LATE_ARRIVAL,
        StreamError::SpanOverflow { .. } => code::SPAN_OVERFLOW,
        StreamError::InvalidChannel { .. } => code::INVALID_CHANNEL,
        StreamError::InvalidJob { .. } => code::INVALID_JOB,
    }
}

/// Renders an `ERR` payload.
pub(crate) fn err_payload(code: &str, detail: &str) -> Vec<u8> {
    pmss_pipeline::json::Json::obj()
        .field("code", code)
        .field("error", detail)
        .to_string_compact()
        .into_bytes()
}

/// Parses an `ERR` payload back into `(code, detail)`.
pub fn parse_err(payload: &[u8]) -> (String, String) {
    let fallback = || {
        (
            code::INTERNAL.to_string(),
            String::from_utf8_lossy(payload).into_owned(),
        )
    };
    let Ok(text) = std::str::from_utf8(payload) else {
        return fallback();
    };
    let Ok(v) = pmss_pipeline::json::Json::parse(text) else {
        return fallback();
    };
    match (
        v.get("code").and_then(|c| c.as_str().map(str::to_string)),
        v.get("error").and_then(|e| e.as_str().map(str::to_string)),
    ) {
        (Some(c), Some(e)) => (c, e),
        _ => fallback(),
    }
}

/// Writes one frame as a single `write`: length prefix, type byte and
/// payload leave in one segment, so a peer's delayed-ACK timer never sits
/// between a frame's header and its body.
pub fn write_frame<S: Write>(s: &mut S, ty: u8, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() < MAX_FRAME);
    let len = (payload.len() + 1) as u32;
    let mut frame = Vec::with_capacity(payload.len() + 5);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.push(ty);
    frame.extend_from_slice(payload);
    s.write_all(&frame)?;
    s.flush()
}

/// Reads one frame; `Ok(None)` on clean end-of-stream before a length
/// prefix, an error on truncation, a hostile length, or an empty frame.
pub fn read_frame<S: Read>(s: &mut S) -> std::io::Result<Option<(u8, Vec<u8>)>> {
    let Some((ty, n)) = read_header(s)? else {
        return Ok(None);
    };
    Ok(Some((ty, read_payload(s, n)?)))
}

/// A request frame's type and payload, or — for a JSON frame past
/// [`MAX_JSON_PAYLOAD`] — the payload's length, its bytes read past.
pub(crate) type Request = (u8, Result<Vec<u8>, usize>);

/// Reads one request frame as [`read_frame`] does, except that an OPEN
/// or QUERY payload longer than [`MAX_JSON_PAYLOAD`] is read past without
/// being allocated and comes back as `Err(its length)`.
pub(crate) fn read_request<S: Read>(s: &mut S) -> std::io::Result<Option<Request>> {
    let Some((ty, n)) = read_header(s)? else {
        return Ok(None);
    };
    if matches!(ty, frame::OPEN | frame::QUERY) && n > MAX_JSON_PAYLOAD {
        if std::io::copy(&mut s.take(n as u64), &mut std::io::sink())? < n as u64 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        return Ok(Some((ty, Err(n))));
    }
    Ok(Some((ty, Ok(read_payload(s, n)?))))
}

/// Reads a frame's length prefix and type byte: `(type, payload length)`.
fn read_header<S: Read>(s: &mut S) -> std::io::Result<Option<(u8, usize)>> {
    let mut len_buf = [0u8; 4];
    match s.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} outside (0, {MAX_FRAME}]"),
        ));
    }
    let mut ty = [0u8; 1];
    s.read_exact(&mut ty)?;
    Ok(Some((ty[0], len - 1)))
}

/// Reads a payload of `n` bytes.
fn read_payload<S: Read>(s: &mut S, n: usize) -> std::io::Result<Vec<u8>> {
    let mut payload = vec![0u8; n];
    s.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, frame::BLOCK, b"payload").unwrap();
        write_frame(&mut buf, frame::FLUSH, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some((frame::BLOCK, b"payload".to_vec()))
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some((frame::FLUSH, Vec::new()))
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn a_frame_is_written_with_exactly_one_write() {
        /// Counts `write` calls; accepts every byte offered.
        struct Counting(usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        for payload in [&b""[..], b"payload", &[0u8; 70_000]] {
            let mut sink = Counting(0);
            write_frame(&mut sink, frame::BLOCK, payload).unwrap();
            assert_eq!(sink.0, 1, "{} payload bytes", payload.len());
        }
    }

    #[test]
    fn hostile_lengths_and_truncation_are_errors() {
        // Zero length.
        let mut z = std::io::Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(read_frame(&mut z).is_err());
        // Length far beyond MAX_FRAME must error before allocating.
        let mut huge = std::io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(read_frame(&mut huge).is_err());
        // Truncated body.
        let mut t = Vec::new();
        write_frame(&mut t, frame::QUERY, b"abcdef").unwrap();
        t.truncate(t.len() - 2);
        let mut t = std::io::Cursor::new(t);
        assert!(read_frame(&mut t).is_err());
    }

    #[test]
    fn json_requests_past_their_bound_are_read_past_unallocated() {
        let mut wire = Vec::new();
        let at_bound = vec![b' '; MAX_JSON_PAYLOAD];
        let past = vec![b' '; MAX_JSON_PAYLOAD + 1];
        write_frame(&mut wire, frame::OPEN, &at_bound).unwrap();
        write_frame(&mut wire, frame::QUERY, &past).unwrap();
        write_frame(&mut wire, frame::OPEN, &past).unwrap();
        write_frame(&mut wire, frame::BLOCK, &past).unwrap();
        write_frame(&mut wire, frame::FLUSH, b"").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut next = || read_request(&mut cursor).unwrap();
        assert_eq!(next(), Some((frame::OPEN, Ok(at_bound))));
        assert_eq!(next(), Some((frame::QUERY, Err(MAX_JSON_PAYLOAD + 1))));
        assert_eq!(next(), Some((frame::OPEN, Err(MAX_JSON_PAYLOAD + 1))));
        // BLOCK frames keep the transport bound; the stream stays framed.
        assert_eq!(next(), Some((frame::BLOCK, Ok(past))));
        assert_eq!(next(), Some((frame::FLUSH, Ok(Vec::new()))));
        assert_eq!(next(), None);
        // A JSON frame cut short while being read past is a truncation.
        let mut cut = Vec::new();
        write_frame(&mut cut, frame::OPEN, &[b' '; MAX_JSON_PAYLOAD + 1]).unwrap();
        cut.truncate(cut.len() - 1);
        assert!(read_request(&mut std::io::Cursor::new(cut)).is_err());
    }

    #[test]
    fn err_payloads_round_trip_their_typed_code() {
        let p = err_payload(code::BACKPRESSURE, "queue full");
        let (c, e) = parse_err(&p);
        assert_eq!(c, code::BACKPRESSURE);
        assert_eq!(e, "queue full");
        let (c, _) = parse_err(b"\xff not json");
        assert_eq!(c, code::INTERNAL);
    }
}
