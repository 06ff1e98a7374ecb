//! # pmss-econ — price- and carbon-aware energy economics
//!
//! The projection layer stops at MWh saved; an operator values energy by
//! *when* it is used, because electricity price and grid carbon
//! intensity vary hour to hour.  This crate supplies the three pieces
//! that turn the fleet decomposition into money and CO₂:
//!
//! * [`EconTrace`] — a validated, time-varying $/MWh price and gCO₂/kWh
//!   carbon-intensity series on the campaign grid, with the
//!   `flat | diurnal | duck-curve | grid-2024` presets;
//! * [`EconSeries`] — a [`FleetObserver`] accumulating per-slot
//!   (15-minute) energy lanes alongside the energy ledger, bit-identical
//!   across the batch, streaming, and compressed-resident ingestion
//!   paths (it is folded per channel and its per-event operations depend
//!   only on the event itself);
//! * [`shift`] — the temporal-shifting what-if: defer boosted-mode work
//!   to cheap/clean slots under a configurable deadline and power
//!   budget, reported against the uniform-placement baseline.
//!
//! A `flat` trace at the reference price (`REF_PRICE_USD_PER_MWH`,
//! `REF_CARBON_G_PER_KWH`) is a no-op by construction: it prices every
//! slot identically, so every delta it reports is zero and the scenario
//! layer treats it exactly like an absent trace.
//!
//! [`FleetObserver`]: pmss_columns::FleetObserver

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;
pub mod series;
pub mod trace;

pub use report::{shift, ShiftOutcome};
pub use series::EconSeries;
pub use trace::{EconTrace, SLOT_S};
