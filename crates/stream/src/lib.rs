//! # pmss-stream — bounded-memory streaming ingest of fleet telemetry
//!
//! The batch pipeline decomposes a whole trace at once; a production
//! deployment sees telemetry windows *as they arrive* — late, duplicated,
//! reordered within a collection fabric's delivery bound — and must answer
//! "what are the savings so far?" at any moment without holding the trace.
//! This crate is that ingest path:
//!
//! * [`StreamEngine`] — sharded ingest of [`pmss_telemetry::WindowEvent`]s
//!   with one partial observer and one bounded reorder buffer per
//!   telemetry channel: O(channels × horizon) memory, never O(trace);
//! * [`StreamConfig`] — shard count + reorder horizon, with
//!   [`StreamConfig::for_plan`] deriving the minimal safe horizon from a
//!   `pmss-faults` plan;
//! * [`StreamState`] — the snapshot/query API (`ledger()`, `projection()`,
//!   `coverage_bounds()`) whose answers are **bit-identical** to the batch
//!   path once the same windows have been ingested;
//! * [`StreamError`] — typed rejection of events that outlive the horizon;
//! * `stream.*` metrics via [`StreamEngine::publish_metrics`].
//!
//! ## Why snapshots can be bit-identical
//!
//! Floating-point addition is not associative, so a stream can only match
//! the batch sum if both use the same association.  The batch simulation
//! accumulates every observer *per channel*, merging channel partials in
//! canonical order (nodes ascending; GPU slots `0..4`, then
//! rest-of-node) — see [`pmss_telemetry::FleetObserver`].  The engine keeps
//! exactly those partials, applies each channel's windows in ascending
//! window order (what the reorder buffer restores), and snapshots by
//! merging in the same canonical order.  Equality is structural, not
//! approximate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod channel;
pub mod engine;
pub mod replay;
pub mod state;

pub use engine::{StreamConfig, StreamEngine, StreamError, StreamStats};
pub use replay::{Cut, CutParts, CutTally, Delivery, EventRun, TraceReplay};
pub use state::StreamState;
