//! # pmssd — the multi-tenant streaming analysis daemon
//!
//! `pmssd` turns the batch pipeline into a long-running service: one
//! process hosts many tenant fleets, each with its own
//! [`pmss_stream::StreamEngine`] fed by concurrent telemetry
//! connections, and answers read queries (savings projection, per-mode
//! coverage, energy-ledger slices, what-if reprojection) from published
//! snapshots without ever stalling ingest.
//!
//! The layering:
//!
//! * [`proto`] — the length-prefixed wire protocol and the typed
//!   rejection-code vocabulary;
//! * `tenant` — one worker thread per tenant fleet owning its engine,
//!   with bounded-queue backpressure and epoch-style snapshot
//!   publication;
//! * [`daemon`] — the accept loop, tenant registry, metrics endpoint,
//!   and clean shutdown;
//! * [`client`] — the synchronous client used by `pmss client …` and the
//!   differential tests;
//! * [`cli`] — argument parsing for `pmss serve` and `pmss client`.
//!
//! ## The differential guarantee
//!
//! Every query answer the daemon produces is **byte-identical** to the
//! batch CLI's answer over the same event prefix: both sides fold the
//! same events through the proven-equal batch/streaming fold and render
//! through the single shared [`pmss_pipeline::query`] path.  The
//! integration suite (`tests/daemon_differential.rs`) and the CI smoke
//! job enforce this with literal byte comparison, clean and under fault
//! presets.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod client;
pub mod daemon;
pub mod proto;
mod tenant;
