//! # pmss-workloads — benchmark reproducers and workload synthesis
//!
//! The paper characterizes GPU power behaviour with two micro-benchmarks
//! and projects the result onto fleet telemetry.  This crate implements
//! both benchmarks against the `pmss-gpu` device model, the cap-sweep
//! harness that produces Figs. 4–6, the Table III factor computation that
//! feeds the system-scale projection, and the phased-application generator
//! that drives the fleet simulation:
//!
//! * [`vai`] — the Variable Arithmetic Intensity benchmark (Algorithm 1),
//!   including a real CPU reference implementation;
//! * [`membench`] — the L2-cache / HBM working-set sweep (`gpu-benches`);
//! * [`sweep`] — frequency- and power-cap sweep harness with Fig. 5-style
//!   normalization;
//! * [`table3`] — the benchmark-derived scaling factors (Table III);
//! * [`phases`] — synthetic phased applications for the fleet simulation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[cfg(test)]
mod ert;
pub mod membench;
pub mod phases;
pub mod sweep;
pub mod table3;
pub mod vai;

pub use phases::AppClass;
pub use sweep::{CapSetting, NormalizedPoint};
pub use table3::{Factors, Table3, Table3Row};
