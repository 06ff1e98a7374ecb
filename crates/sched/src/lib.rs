//! # pmss-sched — synthetic SLURM-like scheduling substrate
//!
//! The paper joins out-of-band power telemetry with SLURM job logs to
//! analyze power per job, science domain, and job size (Table II b–c,
//! Table VII, Figs. 9–10).  This crate generates the equivalent synthetic
//! records: a science-domain catalog with Fig. 9-style workload archetypes
//! ([`domains`]), the Frontier queue policy ([`policy`], Table VII), and a
//! greedy trace generator producing job logs and per-node placements
//! ([`gen`]), plus log serialization ([`log`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod domains;
pub mod gen;
pub mod log;
pub mod policy;
// Aggregate statistics: the oracle the generator's calibration tests
// check realized shares and utilization against.
#[cfg(test)]
mod stats;

pub use domains::{catalog, DomainSpec};
pub use gen::{generate, Job, Placement, Schedule, TraceParams};
pub use policy::JobSizeClass;
