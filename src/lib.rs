//! # pmss — Power Management at System Scale
//!
//! A full Rust reproduction of *"Exploring the Frontiers of Energy
//! Efficiency using Power Management at System Scale"* (SC 2024): the
//! MI250X-class GPU power/performance model, the VAI and memory
//! benchmarks, the Louvain case study, the SLURM-like scheduler and
//! out-of-band telemetry simulation, and — on top of all of it — the
//! paper's contribution: modal decomposition of fleet power telemetry and
//! the projection of benchmark-derived capping factors into an upper bound
//! on system-wide energy savings.
//!
//! This facade re-exports every crate of the workspace:
//!
//! * [`gpu`] — the device model (`pmss-gpu`);
//! * [`workloads`] — benchmark reproducers and app synthesis
//!   (`pmss-workloads`);
//! * [`graph`] — CSR graphs, generators, Louvain (`pmss-graph`);
//! * [`sched`] — domains, queue policy, trace generation (`pmss-sched`);
//! * [`telemetry`] — sensors, fleet simulation, histograms
//!   (`pmss-telemetry`);
//! * [`faults`] — deterministic fault injection for fleet telemetry
//!   (`pmss-faults`): seeded [`faults::FaultPlan`]s drive drops,
//!   duplicates, reordering, glitches, dropouts, and clock skew;
//! * [`columns`] — the columnar window-block substrate (`pmss-columns`):
//!   per-channel SoA [`columns::ColumnBlock`]s and their compressed
//!   resident form, shared by telemetry, stream, and the observers;
//! * [`stream`] — incremental reorder-buffered ingest (`pmss-stream`):
//!   [`stream::StreamEngine`] folds an arrival-ordered event stream into
//!   any observer, bit-identical to the batch path;
//! * [`core`] — modal decomposition and savings projection (`pmss-core`);
//! * [`econ`] — price/carbon economics (`pmss-econ`): typed
//!   [`econ::EconTrace`]s, the per-slot [`econ::EconSeries`] observer,
//!   and the temporal-shifting what-if behind `pmss econ`;
//! * [`pipeline`] — the unified scenario pipeline (`pmss-pipeline`): a
//!   typed [`ScenarioSpec`] run through memoized stages to typed
//!   [`Artifact`]s, powering the `pmss` CLI;
//! * [`obs`] — the metrics registry (`pmss-obs`) every pipeline fills,
//!   printed by `pmss --metrics` and `pmss stats`.
//!
//! Every fallible seam returns the workspace-wide [`PmssError`].
//!
//! ## Quickstart
//!
//! ```
//! use pmss::gpu::{Engine, GpuSettings, KernelProfile};
//!
//! // Run a memory-bound kernel uncapped and frequency-capped.
//! let kernel = KernelProfile::builder("stream")
//!     .flops(4e9)
//!     .hbm_bytes(64e9)
//!     .bw_oversub(3.0)
//!     .build();
//! let engine = Engine::default();
//! let base = engine.execute(&kernel, GpuSettings::uncapped());
//! let capped = engine.execute(&kernel, GpuSettings::freq_capped(900.0));
//! // Bandwidth-bound work keeps its runtime but sheds power: free energy.
//! assert!((capped.time_s - base.time_s).abs() < 1e-9);
//! assert!(capped.energy_j < base.energy_j);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use pmss_columns as columns;
pub use pmss_core as core;
pub use pmss_econ as econ;
pub use pmss_faults as faults;
pub use pmss_govern as govern;
pub use pmss_gpu as gpu;
pub use pmss_graph as graph;
pub use pmss_obs as obs;
pub use pmss_pipeline as pipeline;
pub use pmss_sched as sched;
pub use pmss_stream as stream;
pub use pmss_telemetry as telemetry;
pub use pmss_workloads as workloads;

pub use pmss_error::PmssError;
pub use pmss_pipeline::{Artifact, ArtifactId, Pipeline, ScalePreset, ScenarioSpec};
