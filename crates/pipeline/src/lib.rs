//! # pmss-pipeline — every paper artifact as a value
//!
//! The paper's contribution is one pipeline — synthesize workloads →
//! simulate the fleet → decompose telemetry into modes → project the
//! Table III factors → report Tables V/VI — and this crate makes that
//! pipeline a programmable API instead of 21 hand-wired binaries:
//!
//! * [`spec`] — a typed, validated [`spec::ScenarioSpec`] (scale, seeds,
//!   cap ladders, fleet shape, region boundaries) with JSON round-tripping
//!   and explicit `PMSS_SCALE` parsing (no silent fallbacks);
//! * [`stage`] — the staged [`stage::Pipeline`]: `workloads → fleet →
//!   decompose → project`, each stage computed once and memoized so any
//!   number of artifacts share a single fleet run;
//! * [`artifact`] — the typed [`artifact::Artifact`] values for every
//!   figure and table (Figs. 2–10, Tables I–VII, plus the validation,
//!   what-if, governor, peak-power, and sensitivity extensions), each
//!   rendering to the exact ASCII of the original binaries *and* to
//!   structured JSON;
//! * [`json`] — the dependency-free JSON value type used for structured
//!   output (emit + parse);
//! * [`metrics`] — the `--metrics` observability envelope (run manifest +
//!   the always-collected `pmss-obs` registry rendered to JSON/ASCII);
//! * [`query`] — the typed read-query vocabulary (projection, coverage,
//!   ledger slice, what-if) shared by `pmss query` and the `pmssd`
//!   daemon, rendered through one code path so their answers are
//!   byte-identical;
//! * [`cli`] — the `pmss` command-line front end (`pmss fig 2`,
//!   `pmss table 3 --json`, …) that the thin `pmss` binary calls into.
//!
//! Sweeps, services, and schedulers call [`stage::Pipeline`] directly
//! instead of shelling out to per-artifact binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod cli;
pub mod json;
pub mod metrics;
pub mod query;
pub mod render;
pub mod spec;
pub mod stage;

pub use artifact::{Artifact, ArtifactId};
pub use json::Json;
pub use pmss_error::PmssError;
pub use spec::{ScalePreset, ScenarioSpec};
pub use stage::Pipeline;
