//! Columnar window substrate: the event seam and its SoA block storage.
//!
//! Everything downstream of fleet telemetry generation — batch observers,
//! the streaming ingest engine, fault realization, governor sensing —
//! consumes per-channel sequences of telemetry windows.  This crate owns
//! that seam end to end:
//!
//! - [`WindowEvent`] / [`apply_event`]: the typed per-window event and the
//!   single translation point into [`FleetObserver`] calls (what makes
//!   batch/stream agreement structural rather than coincidental).
//! - [`ColumnBlock`]: one channel's windows as structure-of-arrays
//!   columns, so hot loops read contiguous `f64`/`u64` lanes instead of
//!   chasing 56-byte event structs.  Observers override
//!   [`FleetObserver::fold_rows`] to fold row ranges columnar-wise; the
//!   default replays per-event, so block and event iteration are the
//!   same sequence by construction.
//! - [`codec`]: the overflow-hardened quantized delta/RLE power codec,
//!   and [`EncodedBlock`], the codec-resident compressed block format
//!   with block-level decode, whole or a [`TILE_ROWS`] tile at a time.
//!
//! The crate sits below `pmss-telemetry` in the dependency order;
//! telemetry re-exports the event and observer types at its root
//! (`pmss_telemetry::{WindowEvent, FleetObserver, ColumnBlock, …}`), the
//! codec is reached as `pmss_columns::codec`.

pub mod block;
pub mod codec;
pub mod events;
pub mod observer;
pub mod resident;

pub use block::{ColumnBlock, Tag, NO_JOB};
pub use codec::CodecConfig;
pub use events::{apply_event, WindowEvent, WindowKind, REST_SLOT};
pub use observer::{FleetObserver, GapFill, SampleCtx};
pub use resident::{BlockEncoder, BlockGrid, EncodedBlock, Tiles, TILE_ROWS};
