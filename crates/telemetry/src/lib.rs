//! # pmss-telemetry — out-of-band power telemetry simulation
//!
//! The paper's raw material is three months of Frontier power telemetry:
//! per-node sensors sampled every 2 seconds, aggregated to 15-second means,
//! joined with the SLURM job log (Table II).  This crate reproduces that
//! data product end to end:
//!
//! * [`sampler`] — 2 s → 15 s aggregation;
//! * [`hist`] — power histograms with smoothing and peak finding (Figs. 8–9);
//! * [`fleet`] — the fleet simulation streaming 15 s samples (with boost
//!   excursions and sensor noise) to a [`fleet::FleetObserver`], nodes on
//!   every core when the observer folds channel by channel;
//! * [`resident`] — a fleet run captured as compressed per-channel blocks,
//!   replayed a tile of rows at a time, channels on every core;
//! * [`delivery`] — a fleet run's channels retained as narrow columns,
//!   replayed event by event in delivery order;
//! * [`observers`] — system-wide and per-domain histograms, GPU-vs-CPU
//!   energy split (Fig. 2 b);
//! * [`smi`] — in-band (ROCm-SMI-like) vs out-of-band agreement (Fig. 2 a);
//! * [`export`] — storage-cost estimation for a telemetry campaign;
//! * [`FleetPowerSeries`] — facility-level aggregate power (peak demand
//!   and load factor under caps, for `pmss peakpower`);
//! * [`scoped_map`] — the one thread helper: independent jobs on
//!   [`workers`] scoped threads, results handed back in job order.
//!
//! The window-event seam ([`WindowEvent`], [`FleetObserver`],
//! [`ColumnBlock`]) and the power-series codec live in `pmss-columns`; the
//! seam types are re-exported at this crate's root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delivery;
pub mod export;
pub mod fleet;
mod fleetpower;
pub mod hist;
pub mod observers;
pub mod resident;
pub mod sampler;
pub mod smi;
mod threads;

pub use delivery::DeliveryTrace;
pub use fleet::{
    fleet_window_blocks, simulate_fleet, simulate_fleet_metered, simulate_fleet_plans, FleetConfig,
    FleetObserver, FleetRunStats, GapFill, SampleCtx,
};
pub use fleetpower::FleetPowerSeries;
pub use hist::PowerHistogram;
pub use observers::{DomainHistograms, GpuCpuEnergy, Pair, SystemHistogram};
pub use pmss_columns::{
    apply_event, BlockGrid, CodecConfig, ColumnBlock, EncodedBlock, Tag, WindowEvent, WindowKind,
    NO_JOB, REST_SLOT,
};
pub use resident::ResidentFleet;
pub use smi::compare_sensors;
pub use threads::{scoped_map, workers};
