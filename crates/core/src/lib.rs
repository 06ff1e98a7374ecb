//! # pmss-core — the paper's contribution: modal decomposition and
//! energy-savings projection
//!
//! With the substrates in place (GPU model, benchmarks, graph case study,
//! scheduler, telemetry), this crate implements the methodology the paper
//! actually proposes:
//!
//! 1. **Modal decomposition** ([`modes`], [`decompose`]): classify every
//!    15-second GPU power sample into the four Table IV regions of
//!    operation and accumulate GPU-hours and energy per (science domain,
//!    job size, region).
//! 2. **Projection** ([`mod@project`]): apply the benchmark-derived Table III
//!    factors to the cappable regions' energy to obtain the upper bound on
//!    fleet-wide savings per cap setting — Tables V and VI, including the
//!    "no-slowdown" `ΔT = 0` column behind the 8.5 % headline.
//! 3. **Heatmaps** ([`heatmap`]): the Fig. 10 domain x job-size views and
//!    the "red cell" selection feeding Table VI.
//! 4. **Reporting** ([`report`]): ASCII renderers matching the paper's
//!    table layouts.
//!
//! Two extensions go beyond the paper: [`sensitivity`] quantifies how the
//! headline numbers move when the "diffused" region boundaries shift, and
//! [`whatif`] assigns per-domain caps under slowdown budgets.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod decompose;
pub mod heatmap;
pub mod modes;
pub mod project;
pub mod report;
pub mod sensitivity;
pub mod whatif;

pub use decompose::{Coverage, EnergyLedger};
pub use heatmap::{energy_saved, energy_used, Heatmap};
pub use modes::Region;
pub use project::{project, Projection, ProjectionInput, ProjectionRow, SavingsBounds};
pub use sensitivity::{boundary_sweep, Boundaries};
pub use whatif::optimize_per_domain;
