//! Roofline helper: attainable performance curves for plotting and for the
//! Fig. 4 reproduction.
//!
//! Unlike [`crate::perf`], which estimates a *specific kernel*, this module
//! answers the classic roofline question: given an arithmetic intensity and
//! an operating point, what performance can any kernel attain?

use crate::consts::{GPU_HBM_BW, GPU_PEAK_FLOPS};
use crate::freq::Freq;

/// One point on a roofline curve.
#[derive(Debug, Clone, Copy)]
pub struct RooflinePoint {
    /// Arithmetic intensity, in FLOP/byte.
    pub ai: f64,
    /// Attainable performance, in FLOP/s.
    pub flops: f64,
    /// Implied bandwidth at that performance, in bytes/s.
    pub bw: f64,
}

/// Parameters of a roofline: an effective compute peak and memory peak,
/// both already scaled for the kernel family and operating frequency.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// Attainable FLOP/s plateau.
    pub peak_flops: f64,
    /// Attainable memory bandwidth, in bytes/s.
    pub peak_bw: f64,
}

impl Roofline {
    /// Roofline for a kernel family at frequency `f`.
    ///
    /// * `flop_efficiency` — fraction of the hardware FLOP peak the family
    ///   reaches (the paper's VAI kernel: ~0.268, putting the ridge at 4).
    /// * `bw_oversub` — memory-level-parallelism oversubscription (see
    ///   [`crate::kernel::KernelProfile::bw_oversub`]).
    pub fn at(f: Freq, flop_efficiency: f64, bw_oversub: f64) -> Self {
        Roofline {
            peak_flops: GPU_PEAK_FLOPS * flop_efficiency * f.ratio(),
            peak_bw: GPU_HBM_BW.min(GPU_HBM_BW * f.ratio() * bw_oversub),
        }
    }

    /// The ridge point (FLOP/byte) where the memory slope meets the plateau.
    #[cfg(test)]
    pub(crate) fn ridge_ai(&self) -> f64 {
        self.peak_flops / self.peak_bw
    }

    /// Attainable performance at arithmetic intensity `ai`, in FLOP/s.
    pub(crate) fn attainable_flops(&self, ai: f64) -> f64 {
        (ai * self.peak_bw).min(self.peak_flops)
    }

    /// Samples the roofline at the given intensities.
    pub fn trace(&self, ais: &[f64]) -> Vec<RooflinePoint> {
        ais.iter()
            .map(|&ai| {
                let flops = self.attainable_flops(ai);
                let bw = if ai > 0.0 { flops / ai } else { self.peak_bw };
                RooflinePoint { ai, flops, bw }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vai_roofline_ridge_is_four() {
        let r = Roofline::at(Freq::MAX, 0.268, 1.0);
        assert!((r.ridge_ai() - 4.0).abs() < 0.05, "{}", r.ridge_ai());
    }

    #[test]
    fn attainable_is_min_of_slopes() {
        let r = Roofline::at(Freq::MAX, 0.268, 1.0);
        assert_eq!(r.attainable_flops(1.0), r.peak_bw);
        assert_eq!(r.attainable_flops(1e6), r.peak_flops);
    }

    #[test]
    fn lower_frequency_lowers_both_roofs_for_issue_limited_kernels() {
        let hi = Roofline::at(Freq::MAX, 0.268, 1.0);
        let lo = Roofline::at(Freq::from_mhz(850.0), 0.268, 1.0);
        assert!(lo.peak_flops < hi.peak_flops);
        assert!(lo.peak_bw < hi.peak_bw);
        // Ridge location is invariant when both roofs scale together
        // (paper Sec. IV-A: "both memory and FLOPS-bound parts are affected
        // by frequency throttling similarly on the given architecture").
        assert!((lo.ridge_ai() - hi.ridge_ai()).abs() < 1e-9);
    }

    #[test]
    fn oversubscribed_bandwidth_survives_moderate_caps() {
        let hi = Roofline::at(Freq::MAX, 1.0, 3.0);
        let lo = Roofline::at(Freq::from_mhz(700.0), 1.0, 3.0);
        assert_eq!(hi.peak_bw, lo.peak_bw);
    }
}
