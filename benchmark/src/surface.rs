//! Every program symbol the benchmark binds, listed once.
//!
//! The rest of the harness imports the program only through this module,
//! so a change to the program's public surface touches one file here.  The
//! list deliberately leaves out what ROADMAP items 3–4 plan to delete
//! (`FleetConfig::use_exec_cache`, `FleetCache`, the `*_with_cache` entry
//! points, per-event `StreamEngine::ingest`): the benchmark must keep
//! building, unedited, across those changes.

/// sched: domain catalog and schedule generation.
pub use pmss_sched::{catalog, generate, Schedule};

/// telemetry: fleet simulation, block streaming, resident capture/replay.
pub use pmss_telemetry::{fleet_window_blocks, simulate_fleet, FleetConfig, Pair, ResidentFleet};

/// columns: the block codec and the observer fold.
pub use pmss_columns::{BlockGrid, CodecConfig, ColumnBlock, EncodedBlock, FleetObserver};

/// core, econ: the two folds and the projection.
pub use pmss_core::project::{project, ProjectionInput};
pub use pmss_core::EnergyLedger;
pub use pmss_econ::EconSeries;

/// faults: the preset that drives the reorder ring.
pub use pmss_faults::FaultPlan;

/// stream: block ingest and snapshots.
pub use pmss_stream::{StreamConfig, StreamEngine, StreamState};

/// pipeline: the CLI entry point, the staged pipeline, queries, JSON.
pub use pmss_pipeline::cli::run as cli_run;
pub use pmss_pipeline::query::{answer as query_answer, Query};
pub use pmss_pipeline::{ArtifactId, Json, Pipeline, ScalePreset, ScenarioSpec};
pub use pmss_workloads::Table3;

/// pmssd: the daemon and its synchronous client.
pub use pmssd::client::{ClientError, Connection, Target};
pub use pmssd::daemon::{Daemon, DaemonConfig, Listen};
pub use pmssd::proto::code::BACKPRESSURE;
