//! Core-clock frequency domain: the DVFS ladder and the voltage/frequency
//! curve that drives dynamic-power scaling.
//!
//! Dynamic CMOS power scales as `C · V² · f`.  The model normalizes this to
//! the maximum operating point and exposes it as [`VoltageCurve::dyn_scale`],
//! the factor by which per-operation switching energy and clock-tree power
//! shrink when the core clock is capped.

use crate::consts::{F_MAX_MHZ, F_MIN_MHZ};

/// A core-clock frequency in MHz.
///
/// Newtype so that frequencies cannot be accidentally mixed with other
/// scalar quantities (powers, bandwidths) flowing through the model.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Freq(f64);

impl Freq {
    /// Maximum (uncapped) operating frequency.
    pub const MAX: Freq = Freq(F_MAX_MHZ);
    /// Minimum sustainable operating frequency.
    pub const MIN: Freq = Freq(F_MIN_MHZ);

    /// Creates a frequency from MHz, clamped to the device's valid range.
    pub fn from_mhz(mhz: f64) -> Self {
        Freq(mhz.clamp(F_MIN_MHZ, F_MAX_MHZ))
    }

    /// The frequency in MHz.
    pub fn mhz(self) -> f64 {
        self.0
    }

    /// The frequency as a fraction of the maximum clock, in `(0, 1]`.
    pub(crate) fn ratio(self) -> f64 {
        self.0 / F_MAX_MHZ
    }
}

impl std::fmt::Display for Freq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.0} MHz", self.0)
    }
}

/// Piecewise-linear voltage/frequency relationship, normalized so that
/// `v(F_MAX) = 1`.
///
/// AMD GPUs reduce the core voltage together with frequency along a fused
/// V/f curve; the published curves are close to linear over the DVFS range.
/// The slope is a calibration parameter: a steeper curve deepens the energy
/// savings available from frequency capping (paper Table III).
#[derive(Debug, Clone, Copy)]
pub struct VoltageCurve {
    /// Normalized voltage at zero frequency (linear intercept).
    pub v_intercept: f64,
    /// Normalized voltage slope per unit `f/F_MAX`.
    pub v_slope: f64,
}

impl Default for VoltageCurve {
    fn default() -> Self {
        // Calibrated: gives VAI-average power ratios close to the paper's
        // Table III column (a) when combined with the power model defaults.
        VoltageCurve {
            v_intercept: 0.55,
            v_slope: 0.45,
        }
    }
}

impl VoltageCurve {
    /// Normalized voltage at frequency `f`, in `(0, 1]`.
    pub(crate) fn voltage(&self, f: Freq) -> f64 {
        self.v_intercept + self.v_slope * f.ratio()
    }

    /// Per-operation switching-energy scale `V(f)² / V(F_MAX)²`, in `(0, 1]`.
    pub(crate) fn energy_scale(&self, f: Freq) -> f64 {
        let v = self.voltage(f) / self.voltage(Freq::MAX);
        v * v
    }

    /// Dynamic-power scale `(f/F_MAX) · V(f)²/V(F_MAX)²` for components whose
    /// activity rate follows the core clock (clock tree, busy pipelines).
    pub fn dyn_scale(&self, f: Freq) -> f64 {
        f.ratio() * self.energy_scale(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_clamps_to_device_range() {
        assert_eq!(Freq::from_mhz(2000.0).mhz(), F_MAX_MHZ);
        assert_eq!(Freq::from_mhz(100.0).mhz(), F_MIN_MHZ);
        assert_eq!(Freq::from_mhz(1300.0).mhz(), 1300.0);
    }

    #[test]
    fn voltage_curve_is_normalized_and_monotone() {
        let vc = VoltageCurve::default();
        assert!((vc.voltage(Freq::MAX) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for mhz in [500.0, 700.0, 900.0, 1100.0, 1300.0, 1500.0, 1700.0] {
            let s = vc.dyn_scale(Freq::from_mhz(mhz));
            assert!(s > prev, "dyn_scale must increase with f");
            assert!(s <= 1.0 + 1e-12);
            prev = s;
        }
        assert!((vc.dyn_scale(Freq::MAX) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dyn_scale_is_superlinear_in_frequency() {
        // Halving the clock should save more than half the dynamic power,
        // because voltage drops too -- this is what makes intermediate
        // frequencies an energy-to-solution optimum (paper Fig. 5).
        let vc = VoltageCurve::default();
        let half = Freq::from_mhz(F_MAX_MHZ / 2.0);
        assert!(vc.dyn_scale(half) < 0.5 * vc.dyn_scale(Freq::MAX));
    }
}
