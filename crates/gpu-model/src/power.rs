//! Decomposed GPU package power model.
//!
//! Package power is the sum of five components:
//!
//! ```text
//! P = P_idle                                   (board, leakage, HBM refresh)
//!   + P_clock · dyn(f)                         (clock tree / uncore, while busy)
//!   + P_alu_max   · u_alu   · dyn(f)           (SIMD pipelines)
//!   + P_ondie_max · u_ondie · dyn(f)           (L2 / LSU datapath movement)
//!   + P_hbm_max   · u_hbm                      (HBM stacks + PHY, own voltage domain)
//! ```
//!
//! where `dyn(f) = (f/f_max)·(V(f)/V_max)²` and every `u` is the achieved
//! rate relative to the *current-frequency* ceiling, so a component at full
//! utilization scales exactly as rate × energy-per-op × V².  HBM deliberately
//! does **not** scale with the core clock: its voltage domain is independent,
//! which is why low power caps are *breached* by HBM-heavy kernels in the
//! paper (Fig. 6d) — the controller runs out of core frequency to shed.
//!
//! Default coefficients are calibrated against the paper's measured anchors
//! on the MI250X (Sec. IV-A):
//!
//! * idle: 88–90 W;
//! * streaming, memory-bound VAI (AI = 1/16) at 1700 MHz: ≈ 380 W;
//! * compute-bound VAI tail (AI ≥ 512) at 1700 MHz: ≈ 420 W;
//! * roofline ridge (AI = 4): demand exceeds the firmware sustained limit,
//!   observed power saturates at ≈ 540 W — "only when stressing both the
//!   memory subsystem and the ALUs is the TDP reached".

use crate::consts::GPU_IDLE_W;
use crate::freq::{Freq, VoltageCurve};

/// Achieved utilizations of the three dynamic datapaths, each in `[0, 1]`
/// relative to its ceiling at the *current* operating frequency.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Utilization {
    /// SIMD pipeline occupancy (issued FLOP rate over effective ceiling).
    pub alu: f64,
    /// On-die datapath (L2/LSU) traffic rate over its ceiling.
    pub ondie: f64,
    /// HBM interface traffic rate over peak HBM bandwidth.
    pub hbm: f64,
    /// 1.0 while a kernel occupies the device, 0.0 when fully idle/stalled.
    pub active: f64,
}

impl Utilization {
    /// Fully idle device.
    pub fn idle() -> Self {
        Utilization::default()
    }

    fn validate(&self) {
        for (v, name) in [
            (self.alu, "alu"),
            (self.ondie, "ondie"),
            (self.hbm, "hbm"),
            (self.active, "active"),
        ] {
            debug_assert!(
                (-1e-9..=1.0 + 1e-9).contains(&v),
                "{name} utilization {v} out of range"
            );
        }
    }
}

/// Per-component power at one operating point, in watts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Always-on floor (board, leakage, HBM refresh).
    pub idle_w: f64,
    /// Clock tree / uncore while busy.
    pub clock_w: f64,
    /// SIMD pipelines.
    pub alu_w: f64,
    /// On-die (L2/LSU) data movement.
    pub ondie_w: f64,
    /// HBM stacks and PHY.
    pub hbm_w: f64,
}

impl PowerBreakdown {
    /// Total package power, in watts.
    pub(crate) fn total(&self) -> f64 {
        self.idle_w + self.clock_w + self.alu_w + self.ondie_w + self.hbm_w
    }
}

/// Calibrated package power model.
#[derive(Debug, Clone)]
pub struct PowerModel {
    /// Always-on floor, in watts.
    pub idle_w: f64,
    /// Clock tree / uncore power at maximum frequency while busy, in watts.
    pub clock_w: f64,
    /// SIMD pipeline power at full occupancy and maximum frequency, in watts.
    pub alu_max_w: f64,
    /// On-die movement power at full L2-rate and maximum frequency, in watts.
    pub ondie_max_w: f64,
    /// HBM power at peak bandwidth, in watts (frequency-independent).
    pub hbm_max_w: f64,
    /// Voltage/frequency curve used for dynamic scaling.
    pub curve: VoltageCurve,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            idle_w: GPU_IDLE_W,
            clock_w: 40.0,
            alu_max_w: 291.0,
            // Calibrated so that streaming at full HBM rate (on-die traffic
            // = 3.2 TB/s of the 12.8 TB/s L2 ceiling, i.e. u = 0.25) costs
            // ~79 W on the on-die datapath: 380 W total streaming anchor.
            ondie_max_w: 316.0,
            hbm_max_w: 172.0,
            curve: VoltageCurve::default(),
        }
    }
}

impl PowerModel {
    /// Package power demand for the given utilizations at frequency `f`.
    ///
    /// "Demand" is the unconstrained draw; the engine clamps it against the
    /// firmware sustained limit and any software power cap by lowering `f`.
    pub(crate) fn demand(&self, util: Utilization, f: Freq) -> PowerBreakdown {
        util.validate();
        let dyn_scale = self.curve.dyn_scale(f);
        PowerBreakdown {
            idle_w: self.idle_w,
            clock_w: self.clock_w * dyn_scale * util.active,
            alu_w: self.alu_max_w * util.alu.clamp(0.0, 1.0) * dyn_scale,
            ondie_w: self.ondie_max_w * util.ondie.clamp(0.0, 1.0) * dyn_scale,
            hbm_w: self.hbm_max_w * util.hbm.clamp(0.0, 1.0),
        }
    }

    /// Convenience: total demand in watts.
    pub fn demand_w(&self, util: Utilization, f: Freq) -> f64 {
        self.demand(util, f).total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{GPU_HBM_BW, GPU_PPT_W, GPU_TDP_W};

    fn streaming_util() -> Utilization {
        // Memory-bound streaming: HBM saturated, on-die carrying the same
        // 3.2 TB/s against a 12.8 TB/s ceiling, negligible FLOPs.
        Utilization {
            alu: 0.016,
            ondie: 0.25,
            hbm: 1.0,
            active: 1.0,
        }
    }

    #[test]
    fn idle_matches_paper_band() {
        let pm = PowerModel::default();
        let p = pm.demand_w(Utilization::idle(), Freq::MAX);
        assert!((88.0..=90.0).contains(&p), "idle {p} W");
    }

    #[test]
    fn streaming_anchor_near_380w() {
        let pm = PowerModel::default();
        let p = pm.demand_w(streaming_util(), Freq::MAX);
        assert!((375.0..=390.0).contains(&p), "streaming {p} W");
    }

    #[test]
    fn compute_anchor_near_420w() {
        let pm = PowerModel::default();
        let u = Utilization {
            alu: 1.0,
            ondie: 0.003,
            hbm: 0.003,
            active: 1.0,
        };
        let p = pm.demand_w(u, Freq::MAX);
        assert!((415.0..=425.0).contains(&p), "compute-bound {p} W");
    }

    #[test]
    fn ridge_demand_exceeds_sustained_limit() {
        // At the ridge both the memory system and the ALUs are saturated;
        // unconstrained demand must exceed the firmware limit so the device
        // throttles and the observed power saturates near 540 W (paper).
        let pm = PowerModel::default();
        let saturated = Utilization {
            alu: 1.0,
            ondie: 1.0,
            hbm: 1.0,
            active: 1.0,
        };
        let demand = pm.demand_w(saturated, Freq::MAX);
        assert!(demand > GPU_TDP_W, "ridge demand {demand} W");
        assert!(demand > GPU_PPT_W);
    }

    #[test]
    fn demand_monotone_in_frequency() {
        let pm = PowerModel::default();
        let u = streaming_util();
        let mut prev = 0.0;
        for mhz in [500.0, 700.0, 900.0, 1100.0, 1300.0, 1500.0, 1700.0] {
            let p = pm.demand_w(u, Freq::from_mhz(mhz));
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn hbm_power_is_frequency_insensitive() {
        let pm = PowerModel::default();
        let u = Utilization {
            hbm: 1.0,
            active: 1.0,
            ..Default::default()
        };
        let hi = pm.demand(u, Freq::MAX).hbm_w;
        let lo = pm.demand(u, Freq::MIN).hbm_w;
        assert_eq!(hi, lo, "HBM sits in its own voltage domain");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let pm = PowerModel::default();
        let b = pm.demand(streaming_util(), Freq::from_mhz(1100.0));
        let sum = b.idle_w + b.clock_w + b.alu_w + b.ondie_w + b.hbm_w;
        assert!((sum - b.total()).abs() < 1e-12);
    }

    #[test]
    fn energy_per_byte_is_physically_plausible() {
        let pm = PowerModel::default();
        // HBM2e reads land in the single-digit pJ/bit range.
        let pj_per_bit = pm.hbm_max_w / GPU_HBM_BW * 1e12 / 8.0;
        assert!((2.0..=12.0).contains(&pj_per_bit), "{pj_per_bit} pJ/bit");
    }
}
