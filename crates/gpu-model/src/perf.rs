//! Roofline performance model: time-to-solution for a kernel descriptor at
//! a given core frequency.
//!
//! Execution time is the max of three throughput bottlenecks plus two
//! additive phases:
//!
//! ```text
//! T(f) = max( flops_issued / (eff · PEAK · f/f_max),          -- compute
//!             ondie_bytes / (L2_BW · f/f_max),                -- on-die
//!             hbm_bytes   / min(HBM_BW, HBM_BW · f/f_max · oversub) )
//!      + serial_at_fmax / (f/f_max)                           -- latency-bound
//!      + stall                                                -- GPU-idle wait
//! ```
//!
//! The `oversub` term is what separates the paper's two benchmark families:
//! the membench keeps HBM saturated across the DVFS range (runtime column
//! "MB" in Table III stays at ~99 %), while the issue-limited VAI kernel
//! slows proportionally with frequency.

use crate::consts::{GPU_HBM_BW, GPU_L2_BW, GPU_PEAK_FLOPS};
use crate::freq::Freq;
use crate::kernel::KernelProfile;
use crate::power::Utilization;

/// Which roofline ceiling bound the execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// SIMD FLOP throughput.
    Compute,
    /// On-die (L2/LSU) bandwidth.
    OnDie,
    /// HBM bandwidth (or issue-limited HBM access).
    Hbm,
    /// Serial / latency-bound execution.
    Serial,
    /// GPU-idle stall (I/O, network, host).
    Stall,
}

/// Performance estimate for one kernel at one frequency.
#[derive(Debug, Clone, Copy)]
pub struct PerfEstimate {
    /// Total wall time, in seconds.
    pub time_s: f64,
    /// Time in the throughput-bound (roofline) portion, in seconds.
    pub roofline_s: f64,
    /// Time in the latency-bound serial portion, in seconds.
    pub serial_s: f64,
    /// Time stalled with the GPU idle, in seconds.
    pub stall_s: f64,
    /// Dominant constraint.
    pub bottleneck: Bottleneck,
    /// Achieved useful FLOP rate during the roofline portion, in FLOP/s.
    pub flops_per_s: f64,
    /// Achieved HBM bandwidth during the roofline portion, in bytes/s.
    pub hbm_bw: f64,
    /// Achieved on-die bandwidth during the roofline portion, in bytes/s.
    pub ondie_bw: f64,
    /// Datapath utilizations during the roofline portion.
    pub util: Utilization,
}

/// Deliverable HBM bandwidth at frequency `f` for a kernel with the given
/// memory-level-parallelism oversubscription and sustainable-rate ceiling,
/// in bytes/s.
pub(crate) fn deliverable_hbm_bw(f: Freq, bw_oversub: f64, bw_sustain: f64) -> f64 {
    GPU_HBM_BW * bw_sustain.min(f.ratio() * bw_oversub)
}

/// Effective compute ceiling at frequency `f` for a kernel, in FLOP/s
/// (issued, i.e. including divergence waste).
pub(crate) fn compute_ceiling(f: Freq, flop_efficiency: f64) -> f64 {
    GPU_PEAK_FLOPS * flop_efficiency * f.ratio()
}

/// On-die bandwidth ceiling at frequency `f`, in bytes/s.
pub(crate) fn ondie_ceiling(f: Freq) -> f64 {
    GPU_L2_BW * f.ratio()
}

/// Estimates execution of `kernel` at frequency `f`.
pub(crate) fn estimate(kernel: &KernelProfile, f: Freq) -> PerfEstimate {
    let compute_roof = compute_ceiling(f, kernel.flop_efficiency);
    let ondie_roof = ondie_ceiling(f);
    let hbm_roof = deliverable_hbm_bw(f, kernel.bw_oversub, kernel.bw_sustain);

    let t_compute = kernel.issued_flops() / compute_roof;
    let t_ondie = kernel.ondie_bytes / ondie_roof;
    let t_hbm = kernel.hbm_bytes / hbm_roof;

    let roofline_s = t_compute.max(t_ondie).max(t_hbm);
    let serial_s = kernel.serial_at_fmax_s / f.ratio();
    let stall_s = kernel.stall_s;
    let time_s = roofline_s + serial_s + stall_s;

    let bottleneck = if roofline_s >= serial_s && roofline_s >= stall_s {
        if t_compute >= t_ondie && t_compute >= t_hbm {
            Bottleneck::Compute
        } else if t_hbm >= t_ondie {
            Bottleneck::Hbm
        } else {
            Bottleneck::OnDie
        }
    } else if serial_s >= stall_s {
        Bottleneck::Serial
    } else {
        Bottleneck::Stall
    };

    let (flops_per_s, hbm_bw, ondie_bw, util) = if roofline_s > 0.0 {
        let flops_per_s = kernel.flops / roofline_s;
        let issued_per_s = kernel.issued_flops() / roofline_s;
        let hbm_bw = kernel.hbm_bytes / roofline_s;
        let ondie_bw = kernel.ondie_bytes / roofline_s;
        let util = Utilization {
            alu: (issued_per_s / compute_roof).min(1.0),
            ondie: (ondie_bw / ondie_roof).min(1.0),
            hbm: (hbm_bw / GPU_HBM_BW).min(1.0),
            active: 1.0,
        };
        (flops_per_s, hbm_bw, ondie_bw, util)
    } else {
        (0.0, 0.0, 0.0, Utilization::idle())
    };

    PerfEstimate {
        time_s,
        roofline_s,
        serial_s,
        stall_s,
        bottleneck,
        flops_per_s,
        hbm_bw,
        ondie_bw,
        util,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelProfile;

    fn vai_like(ai: f64) -> KernelProfile {
        // 1 GB of HBM traffic at the requested arithmetic intensity, with
        // the VAI kernel's calibration (issue-limited, ~27 % flop efficiency
        // so the observed ridge lands at AI = 4 like the paper's Fig. 4).
        let bytes = 1e9;
        KernelProfile::builder(format!("vai-{ai}"))
            .flops(ai * bytes)
            .hbm_bytes(bytes)
            .flop_efficiency(0.268)
            .bw_oversub(1.0)
            .build()
    }

    #[test]
    fn memory_bound_kernel_scales_with_frequency_when_issue_limited() {
        let k = vai_like(0.0625);
        let t_hi = estimate(&k, Freq::MAX).time_s;
        let t_lo = estimate(&k, Freq::from_mhz(850.0)).time_s;
        assert!((t_lo / t_hi - 2.0).abs() < 0.05, "ratio {}", t_lo / t_hi);

        // An L2-resident stream is on-die bound however oversubscribed its
        // HBM side, and the on-die roof scales with f down to the floor.
        let l2 = KernelProfile::builder("l2")
            .ondie_bytes(64e9)
            .hbm_bytes(32e6)
            .bw_oversub(3.0)
            .build();
        let top = estimate(&l2, Freq::MAX);
        let low = estimate(&l2, Freq::from_mhz(500.0));
        assert_eq!(top.bottleneck, Bottleneck::OnDie);
        assert!(top.ondie_bw > 2.0 * GPU_HBM_BW, "L2 roof above HBM roof");
        let ratio = low.ondie_bw / top.ondie_bw;
        assert!((ratio - 500.0 / 1700.0).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn oversubscribed_kernel_is_frequency_insensitive() {
        let k = KernelProfile::builder("mb")
            .hbm_bytes(1e9)
            .bw_oversub(3.0)
            .flops(1.0)
            .build();
        let hi = estimate(&k, Freq::MAX);
        let (t_hi, t_lo) = (hi.time_s, estimate(&k, Freq::from_mhz(700.0)).time_s);
        assert!((t_lo / t_hi - 1.0).abs() < 1e-9, "membench stays HBM-bound");
        assert!(
            (hi.hbm_bw / GPU_HBM_BW - 1.0).abs() < 0.05,
            "HBM peak reached"
        );
        let mid = estimate(&k, Freq::from_mhz(900.0)).hbm_bw;
        assert!(
            (mid / hi.hbm_bw - 1.0).abs() < 0.02,
            "HBM roof survives 900 MHz"
        );
        // ... until the oversubscription runs out near the frequency floor.
        let t_min = estimate(&k, Freq::from_mhz(500.0)).time_s;
        assert!(t_min > t_hi * 1.05);
    }

    #[test]
    fn ridge_sits_at_ai_4_for_vai_calibration() {
        // flop_efficiency 0.268 * 47.8 TF = 12.8 TF; 12.8 TF / 3.2 TB/s = 4.
        let below = estimate(&vai_like(3.0), Freq::MAX);
        let above = estimate(&vai_like(5.0), Freq::MAX);
        assert_eq!(below.bottleneck, Bottleneck::Hbm);
        assert_eq!(above.bottleneck, Bottleneck::Compute);
    }

    #[test]
    fn achieved_flops_follow_roofline_shape() {
        let mut prev = 0.0;
        for ai in [0.0625, 0.25, 1.0, 4.0] {
            let e = estimate(&vai_like(ai), Freq::MAX);
            assert!(e.flops_per_s > prev, "rising part of the roof");
            prev = e.flops_per_s;
        }
        let plateau = estimate(&vai_like(64.0), Freq::MAX).flops_per_s;
        assert!((plateau - prev).abs() / plateau < 0.02, "flat roof");
        let ceiling = GPU_PEAK_FLOPS * 0.268;
        assert!(
            (plateau / ceiling - 1.0).abs() < 0.02,
            "{plateau} vs {ceiling}"
        );
        // The compute roof scales linearly with f.
        let capped = estimate(&vai_like(64.0), Freq::from_mhz(900.0)).flops_per_s;
        let ratio = capped / plateau;
        assert!((ratio - 900.0 / 1700.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn serial_time_stretches_with_frequency_cap() {
        let k = KernelProfile::builder("latency")
            .serial_at_fmax(10.0)
            .build();
        let t = estimate(&k, Freq::from_mhz(850.0));
        assert!((t.time_s - 20.0).abs() < 1e-9);
        assert_eq!(t.bottleneck, Bottleneck::Serial);
    }

    #[test]
    fn stall_time_is_frequency_independent() {
        let k = KernelProfile::builder("io").stall(30.0).build();
        assert_eq!(estimate(&k, Freq::MAX).time_s, 30.0);
        assert_eq!(estimate(&k, Freq::MIN).time_s, 30.0);
        assert_eq!(estimate(&k, Freq::MIN).bottleneck, Bottleneck::Stall);
    }

    #[test]
    fn utilizations_stay_in_unit_interval() {
        for ai in [0.0, 0.0625, 1.0, 4.0, 64.0, 1024.0] {
            let k = if ai == 0.0 {
                KernelProfile::builder("copy")
                    .hbm_bytes(1e9)
                    .bw_oversub(1.0)
                    .build()
            } else {
                vai_like(ai)
            };
            for mhz in [500.0, 900.0, 1300.0, 1700.0] {
                let u = estimate(&k, Freq::from_mhz(mhz)).util;
                for v in [u.alu, u.ondie, u.hbm] {
                    assert!((0.0..=1.0).contains(&v));
                }
            }
        }
    }
}
