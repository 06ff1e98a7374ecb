//! # pmss-gpu — analytic MI250X-class GPU device model
//!
//! Substrate crate for the PMSS reproduction of *"Exploring the Frontiers
//! of Energy Efficiency using Power Management at System Scale"* (SC 2024).
//! The paper's measurements were taken on physical Frontier MI250X GPUs;
//! this crate replaces that hardware with an analytic model that reproduces
//! the power/performance surface the paper's methodology depends on:
//!
//! * a **roofline performance engine** ([`perf`]) with frequency-scaled
//!   compute and on-die bandwidth roofs and an oversubscription-aware HBM
//!   roof (the membench-vs-VAI frequency-sensitivity split of Table III);
//! * a **decomposed power model** ([`power`]) calibrated to the paper's
//!   anchors (idle 88–90 W, streaming ≈ 380 W, compute tail ≈ 420 W, ridge
//!   saturating the 540 W firmware limit);
//! * a **power-cap controller** ([`cap`]) that sheds power via DVFS only and
//!   therefore *breaches* low caps under HBM-heavy load (Fig. 6d);
//! * a **boost model** ([`boost`]) and **trace synthesis** ([`trace`]) that
//!   generate the ≥ 560 W telemetry excursions of Table IV region 4;
//! * the **rest-of-node model** ([`device`]) the fleet simulation adds to
//!   the four GPUs of a Frontier-like node.
//!
//! ## Quick example
//!
//! ```
//! use pmss_gpu::{Engine, GpuSettings, KernelProfile};
//!
//! // A memory-bound streaming kernel: 64 GB of HBM traffic, AI = 1/16.
//! let kernel = KernelProfile::builder("stream")
//!     .flops(4e9)
//!     .hbm_bytes(64e9)
//!     .flop_efficiency(0.268)
//!     .bw_oversub(1.0)
//!     .build();
//!
//! let engine = Engine::default();
//! let base = engine.execute(&kernel, GpuSettings::uncapped());
//! let capped = engine.execute(&kernel, GpuSettings::freq_capped(900.0));
//! assert!(capped.busy_power_w < base.busy_power_w);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod boost;
pub mod cap;
pub mod consts;
pub mod device;
pub mod engine;
pub mod freq;
pub mod governor;
pub mod kernel;
pub mod perf;
pub mod power;
pub mod sku;
pub mod trace;
pub mod tuner;

pub use boost::BoostBudget;
pub use device::NodeRestModel;
pub use engine::{Engine, Execution, GpuSettings};
pub use freq::{Freq, VoltageCurve};
pub use governor::{GovernedTotals, Governor};
pub use kernel::KernelProfile;
pub use perf::Bottleneck;
pub use power::{PowerModel, Utilization};
pub use sku::{Component, FleetMix, SkuCatalog, MAX_SKUS};
pub use trace::{PowerSample, TraceConfig};
pub use tuner::{sweet_spots, SweetSpot};
