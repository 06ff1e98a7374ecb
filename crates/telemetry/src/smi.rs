//! In-band vs out-of-band sensor comparison — the paper's Fig. 2(a), which
//! shows that the facility telemetry agrees with ROCm SMI readings for a
//! sample application run.
//!
//! Both sensors watch the same execution; they differ in sampling period,
//! noise, and quantization.  The comparison reports the two aggregated
//! series and their agreement.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pmss_gpu::trace::{sample_execution, TraceConfig};
use pmss_gpu::{BoostBudget, Engine, GpuSettings, KernelProfile, PowerSample};

use crate::sampler::aggregate;

/// The two sensor channels of Fig. 2(a).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SensorPair {
    /// Facility out-of-band channel: 2 s period, aggregated to 15 s.
    pub out_of_band: TraceConfig,
    /// ROCm-SMI-like in-band channel: 1 s period, aggregated to 15 s.
    pub in_band: TraceConfig,
}

impl Default for SensorPair {
    fn default() -> Self {
        SensorPair {
            out_of_band: TraceConfig {
                sample_period_s: 2.0,
                noise_sd_w: 4.0,
                quantum_w: 1.0,
            },
            in_band: TraceConfig {
                sample_period_s: 1.0,
                noise_sd_w: 2.5,
                quantum_w: 1.0,
            },
        }
    }
}

/// Result of observing one run through both sensors.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Out-of-band series aggregated to 15 s.
    pub telemetry: Vec<PowerSample>,
    /// In-band (SMI) series aggregated to 15 s.
    pub smi: Vec<PowerSample>,
    /// Mean absolute difference between the aligned series, in watts.
    pub mean_abs_diff_w: f64,
    /// Mean power of the out-of-band series, in watts.
    pub mean_power_w: f64,
}

/// Runs `phases` once and observes the run through both sensors.
pub fn compare_sensors(phases: &[KernelProfile], settings: GpuSettings, seed: u64) -> Comparison {
    let engine = Engine::default();
    let pair = SensorPair::default();

    let mut oob_raw = Vec::new();
    let mut smi_raw = Vec::new();
    let mut t_base = 0.0f64;
    let mut rng_a = StdRng::seed_from_u64(seed);
    let mut rng_b = StdRng::seed_from_u64(seed ^ 0x5151);
    let mut boost_a = BoostBudget::default();
    let mut boost_b = BoostBudget::default();

    for phase in phases {
        let ex = engine.execute(phase, settings);
        for s in sample_execution(&ex, &mut boost_a, pair.out_of_band, &mut rng_a) {
            oob_raw.push(PowerSample {
                t_s: t_base + s.t_s,
                power_w: s.power_w,
            });
        }
        for s in sample_execution(&ex, &mut boost_b, pair.in_band, &mut rng_b) {
            smi_raw.push(PowerSample {
                t_s: t_base + s.t_s,
                power_w: s.power_w,
            });
        }
        t_base += ex.time_s;
    }

    let telemetry = aggregate(&oob_raw, 15.0);
    let smi = aggregate(&smi_raw, 15.0);

    let n = telemetry.len().min(smi.len());
    let mean_abs_diff_w = if n == 0 {
        0.0
    } else {
        (0..n)
            .map(|i| (telemetry[i].power_w - smi[i].power_w).abs())
            .sum::<f64>()
            / n as f64
    };
    let mean_power_w = if telemetry.is_empty() {
        0.0
    } else {
        telemetry.iter().map(|s| s.power_w).sum::<f64>() / telemetry.len() as f64
    };

    Comparison {
        telemetry,
        smi,
        mean_abs_diff_w,
        mean_power_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_app() -> Vec<KernelProfile> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        pmss_workloads::phases::synthesize_app(pmss_workloads::AppClass::Mixed, 1200.0, &mut rng)
    }

    #[test]
    fn sensors_agree_within_noise() {
        // Fig. 2(a): "telemetry data is comparable to the data derived from
        // the ROCm SMI library".
        let c = compare_sensors(&sample_app(), GpuSettings::uncapped(), 17);
        assert!(c.mean_power_w > 100.0);
        assert!(
            c.mean_abs_diff_w < 0.05 * c.mean_power_w,
            "disagreement {} W vs mean {} W",
            c.mean_abs_diff_w,
            c.mean_power_w
        );
    }

    #[test]
    fn series_lengths_align() {
        let c = compare_sensors(&sample_app(), GpuSettings::uncapped(), 17);
        let diff = c.telemetry.len() as i64 - c.smi.len() as i64;
        assert!(diff.abs() <= 2, "{} vs {}", c.telemetry.len(), c.smi.len());
    }

    #[test]
    fn comparison_tracks_capped_runs_too() {
        let base = compare_sensors(&sample_app(), GpuSettings::uncapped(), 17);
        let capped = compare_sensors(&sample_app(), GpuSettings::freq_capped(900.0), 17);
        assert!(capped.mean_power_w < base.mean_power_w);
    }
}
