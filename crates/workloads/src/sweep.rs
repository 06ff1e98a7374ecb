//! Frequency-cap and power-cap sweep harness (paper Figs. 4–6).
//!
//! Runs a set of kernels across the paper's cap settings and collects
//! (runtime, sustained power, energy) per point, with helpers to normalize
//! against the uncapped baseline the way the paper's Fig. 5 does
//! ("values are normalized to 1.0, representing the uncapped case at
//! 1700 MHz / 560 W").

use pmss_error::PmssError;
use pmss_gpu::{Engine, Execution, GpuSettings, KernelProfile};

/// The frequency caps swept in the paper, in MHz (Table III a).
pub const FREQ_CAPS_MHZ: [f64; 6] = [1700.0, 1500.0, 1300.0, 1100.0, 900.0, 700.0];

/// The power caps swept in the paper, in watts (Table III b / Fig. 5).
pub const POWER_CAPS_W: [f64; 6] = [560.0, 500.0, 400.0, 300.0, 200.0, 100.0];

/// The power caps highlighted in the membench figure (Fig. 6, right).
pub const MEMBENCH_POWER_CAPS_W: [f64; 5] = [560.0, 440.0, 320.0, 200.0, 140.0];

/// The cap knob being swept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapSetting {
    /// DVFS frequency cap, MHz.
    FreqMhz(f64),
    /// Package power cap, watts.
    PowerW(f64),
}

impl CapSetting {
    /// Converts to engine settings.
    pub fn to_settings(self) -> GpuSettings {
        match self {
            CapSetting::FreqMhz(m) => GpuSettings::freq_capped(m),
            CapSetting::PowerW(w) => GpuSettings::power_capped(w),
        }
    }

    /// The numeric knob value (MHz or watts).
    pub fn value(self) -> f64 {
        match self {
            CapSetting::FreqMhz(m) => m,
            CapSetting::PowerW(w) => w,
        }
    }

    /// True when this is the uncapped baseline setting.
    pub fn is_baseline(self) -> bool {
        match self {
            CapSetting::FreqMhz(m) => m >= FREQ_CAPS_MHZ[0],
            CapSetting::PowerW(w) => w >= POWER_CAPS_W[0],
        }
    }
}

/// One measured point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The cap applied.
    pub setting: CapSetting,
    /// Kernel label.
    pub kernel_name: String,
    /// Full execution record.
    pub execution: Execution,
}

/// A point normalized against the uncapped baseline for the same kernel.
#[derive(Debug, Clone, Copy)]
pub struct NormalizedPoint {
    /// The cap applied.
    pub setting: CapSetting,
    /// Runtime relative to baseline (1.0 = no slowdown).
    pub runtime: f64,
    /// Sustained power relative to baseline.
    pub power: f64,
    /// Energy-to-solution relative to baseline.
    pub energy: f64,
}

/// Runs `kernel` across `settings`, returning one point per setting.
///
/// An invalid kernel profile surfaces as [`PmssError::InvalidKernel`]
/// instead of a panic, so sweeps over user-supplied kernels fail cleanly.
pub fn sweep_kernel(
    engine: &Engine,
    kernel: &KernelProfile,
    settings: &[CapSetting],
) -> Result<Vec<SweepPoint>, PmssError> {
    settings
        .iter()
        .map(|&s| {
            Ok(SweepPoint {
                setting: s,
                kernel_name: kernel.name.clone(),
                execution: engine.try_execute(kernel, s.to_settings())?,
            })
        })
        .collect()
}

/// Normalizes a single-kernel sweep against its own uncapped baseline.
///
/// The baseline is the point whose setting [`CapSetting::is_baseline`];
/// a sweep without one is a [`PmssError::Missing`].
pub fn normalize(points: &[SweepPoint]) -> Result<Vec<NormalizedPoint>, PmssError> {
    let base = points
        .iter()
        .find(|p| p.setting.is_baseline())
        .ok_or_else(|| {
            PmssError::missing(
                "uncapped baseline",
                "sweep must include the uncapped baseline setting (1700 MHz / 560 W)",
            )
        })?;
    let (t0, p0, e0) = (
        base.execution.time_s,
        base.execution.avg_power_w,
        base.execution.energy_j,
    );
    Ok(points
        .iter()
        .map(|p| NormalizedPoint {
            setting: p.setting,
            runtime: p.execution.time_s / t0,
            power: p.execution.avg_power_w / p0,
            energy: p.execution.energy_j / e0,
        })
        .collect())
}

/// Mean of normalized points across kernels for each setting — the
/// "averaged across all arithmetic intensity" aggregation of Table III.
///
/// Errors on an empty kernel set ([`PmssError::EmptyInput`]) or ragged
/// sweeps where kernels saw different setting counts.
pub(crate) fn average_across_kernels(
    per_kernel: &[Vec<NormalizedPoint>],
) -> Result<Vec<NormalizedPoint>, PmssError> {
    if per_kernel.is_empty() {
        return Err(PmssError::empty("per-kernel sweeps"));
    }
    let n_settings = per_kernel[0].len();
    for pk in per_kernel {
        if pk.len() != n_settings {
            return Err(PmssError::invalid_value(
                "sweep settings",
                format!("{}", pk.len()),
                format!("every kernel swept over the same {n_settings} settings"),
            ));
        }
    }
    Ok((0..n_settings)
        .map(|i| {
            let m = per_kernel.len() as f64;
            NormalizedPoint {
                setting: per_kernel[0][i].setting,
                runtime: per_kernel.iter().map(|pk| pk[i].runtime).sum::<f64>() / m,
                power: per_kernel.iter().map(|pk| pk[i].power).sum::<f64>() / m,
                energy: per_kernel.iter().map(|pk| pk[i].energy).sum::<f64>() / m,
            }
        })
        .collect())
}

/// Convenience: all frequency-cap settings.
pub fn freq_settings() -> Vec<CapSetting> {
    FREQ_CAPS_MHZ
        .iter()
        .map(|&m| CapSetting::FreqMhz(m))
        .collect()
}

/// Convenience: all power-cap settings.
pub(crate) fn power_settings() -> Vec<CapSetting> {
    POWER_CAPS_W
        .iter()
        .map(|&w| CapSetting::PowerW(w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vai;

    fn engine() -> Engine {
        Engine::default()
    }

    fn vai_kernel(ai: f64) -> KernelProfile {
        vai::kernel(vai::VaiParams::paper(ai))
    }

    #[test]
    fn baseline_normalizes_to_one() {
        let pts = sweep_kernel(&engine(), &vai_kernel(1.0), &freq_settings()).unwrap();
        let norm = normalize(&pts).unwrap();
        let base = &norm[0];
        assert!(base.setting.is_baseline());
        assert!((base.runtime - 1.0).abs() < 1e-12);
        assert!((base.power - 1.0).abs() < 1e-12);
        assert!((base.energy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn freq_caps_trade_runtime_for_power() {
        let pts = sweep_kernel(&engine(), &vai_kernel(64.0), &freq_settings()).unwrap();
        let norm = normalize(&pts).unwrap();
        for w in norm.windows(2) {
            assert!(
                w[1].runtime >= w[0].runtime - 1e-9,
                "runtime grows as caps tighten"
            );
            assert!(
                w[1].power <= w[0].power + 1e-9,
                "power falls as caps tighten"
            );
        }
    }

    #[test]
    fn high_power_caps_do_not_affect_sub_cap_kernels() {
        // Paper: "the higher power caps do not impact the application
        // enough to save power" for codes already below the cap.
        let pts = sweep_kernel(&engine(), &vai_kernel(0.0625), &power_settings()).unwrap();
        let norm = normalize(&pts).unwrap();
        // 500 W and 400 W sit above the ~380 W streaming draw.
        assert!((norm[1].runtime - 1.0).abs() < 1e-9);
        assert!((norm[2].runtime - 1.0).abs() < 1e-9);
        // 300 W bites.
        assert!(norm[3].runtime > 1.0 + 1e-6);
    }

    #[test]
    fn average_across_kernels_is_elementwise_mean() {
        let eng = engine();
        let sweeps: Vec<Vec<NormalizedPoint>> = [1.0, 64.0]
            .iter()
            .map(|&ai| {
                normalize(&sweep_kernel(&eng, &vai_kernel(ai), &freq_settings()).unwrap()).unwrap()
            })
            .collect();
        let avg = average_across_kernels(&sweeps).unwrap();
        assert_eq!(avg.len(), FREQ_CAPS_MHZ.len());
        let expect = 0.5 * (sweeps[0][3].runtime + sweeps[1][3].runtime);
        assert!((avg[3].runtime - expect).abs() < 1e-12);
    }

    #[test]
    fn normalize_requires_baseline() {
        let pts = sweep_kernel(&engine(), &vai_kernel(1.0), &[CapSetting::FreqMhz(900.0)]).unwrap();
        let err = normalize(&pts).unwrap_err();
        assert!(err.to_string().contains("baseline"), "{err}");
    }

    #[test]
    fn average_rejects_empty_and_ragged_input() {
        assert!(average_across_kernels(&[]).is_err());
        let eng = engine();
        let full =
            normalize(&sweep_kernel(&eng, &vai_kernel(1.0), &freq_settings()).unwrap()).unwrap();
        let short = full[..2].to_vec();
        assert!(average_across_kernels(&[full, short]).is_err());
    }
}
