//! Power-trace synthesis: turns a steady-state [`Execution`] estimate into
//! the time series a physical power sensor would have reported.
//!
//! This is where boost excursions enter the picture: an execution that is
//! throttled by the firmware sustained limit oscillates between the limit
//! and short boosted bursts above the TDP, governed by the thermal token
//! bucket in [`crate::boost`].  Out-of-band sampling then catches some of
//! those bursts — the origin of the paper's ≥ 560 W telemetry region
//! (Table IV region 4, 1.1 % of GPU hours).

use rand::Rng;

use crate::boost::BoostBudget;
use crate::consts::{GPU_BOOST_W, GPU_TDP_W};
use crate::engine::Execution;

/// One instantaneous power reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Offset from the start of the execution, in seconds.
    pub t_s: f64,
    /// Package power, in watts.
    pub power_w: f64,
}

/// Sensor/sampling parameters for trace synthesis.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Sampling period, in seconds (Frontier's out-of-band loggers: 2 s).
    pub sample_period_s: f64,
    /// Gaussian measurement noise, standard deviation in watts.
    pub noise_sd_w: f64,
    /// Sensor quantization step, in watts (0 disables quantization).
    pub quantum_w: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_period_s: 2.0,
            noise_sd_w: 4.0,
            quantum_w: 1.0,
        }
    }
}

/// x-coordinate of the bottom ziggurat layer (Marsaglia–Tsang, 128 layers).
const ZIG_R: f64 = 3.442_619_855_899;

/// Precomputed ziggurat acceptance tables for the standard normal.
struct ZigTables {
    kn: [u32; 128],
    wn: [f64; 128],
    fx: [f64; 128],
}

fn zig_tables() -> &'static ZigTables {
    static TABLES: std::sync::OnceLock<ZigTables> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let m1 = 2_147_483_648.0f64; // 2^31: scale of the 32-bit draws
        let vn = 9.912_563_035_262_17e-3; // per-layer area
        let mut dn = ZIG_R;
        let mut tn = dn;
        let q = vn / (-0.5 * dn * dn).exp();
        let mut kn = [0u32; 128];
        let mut wn = [0.0f64; 128];
        let mut fx = [0.0f64; 128];
        kn[0] = ((dn / q) * m1) as u32;
        kn[1] = 0;
        wn[0] = q / m1;
        wn[127] = dn / m1;
        fx[0] = 1.0;
        fx[127] = (-0.5 * dn * dn).exp();
        for i in (1..=126).rev() {
            dn = (-2.0 * (vn / dn + (-0.5 * dn * dn).exp()).ln()).sqrt();
            kn[i + 1] = ((dn / tn) * m1) as u32;
            tn = dn;
            fx[i] = (-0.5 * dn * dn).exp();
            wn[i] = dn / m1;
        }
        ZigTables { kn, wn, fx }
    })
}

/// Standard-normal sample via the Marsaglia–Tsang ziggurat (keeps the
/// dependency surface at `rand` alone; `rand_distr` is not needed).
///
/// The fleet simulation draws one of these per 15-second telemetry window —
/// billions per campaign — so the common path must be a table lookup and a
/// multiply, not transcendentals: ~98 % of draws take one `u64` from the
/// RNG and never touch `exp`/`ln`.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let t = zig_tables();
    loop {
        let hz = rng.next_u64() as u32 as i32;
        let i = (hz & 127) as usize;
        if hz.unsigned_abs() < t.kn[i] {
            return hz as f64 * t.wn[i];
        }
        if i == 0 {
            // Base layer: sample the tail beyond ZIG_R (Marsaglia's method).
            loop {
                let x = -(rng.gen_range(f64::EPSILON..1.0)).ln() / ZIG_R;
                let y = -(rng.gen_range(f64::EPSILON..1.0)).ln();
                if y + y >= x * x {
                    return if hz > 0 { ZIG_R + x } else { -(ZIG_R + x) };
                }
            }
        }
        // Layer-edge rejection against the true density.
        let x = hz as f64 * t.wn[i];
        if t.fx[i] + rng.gen_range(0.0..1.0) * (t.fx[i - 1] - t.fx[i]) < (-0.5 * x * x).exp() {
            return x;
        }
    }
}

/// Synthesizes the power trace of `ex`, spending boost headroom from
/// `boost` when the execution is PPT-throttled.
pub fn sample_execution<R: Rng + ?Sized>(
    ex: &Execution,
    boost: &mut BoostBudget,
    cfg: TraceConfig,
    rng: &mut R,
) -> Vec<PowerSample> {
    assert!(cfg.sample_period_s > 0.0, "non-positive sample period");
    let n = (ex.time_s / cfg.sample_period_s).floor() as usize;
    let mut out = Vec::with_capacity(n);

    let roofline_end = ex.perf.roofline_s;
    let serial_end = roofline_end + ex.perf.serial_s;

    for i in 0..n {
        let t = (i as f64 + 0.5) * cfg.sample_period_s;
        let base = if t < roofline_end {
            if ex.ppt_throttled {
                // Try to boost for this sample interval; partial grants mean
                // the sensor reads a blend of boosted and throttled power.
                let granted = boost.spend(cfg.sample_period_s);
                let frac = granted / cfg.sample_period_s;
                if granted == 0.0 {
                    boost.recharge(cfg.sample_period_s);
                }
                let boosted = GPU_TDP_W + rng.gen_range(0.0..(GPU_BOOST_W - GPU_TDP_W));
                frac * boosted + (1.0 - frac) * ex.busy_power_w
            } else {
                boost.recharge(cfg.sample_period_s);
                ex.busy_power_w
            }
        } else if t < serial_end {
            boost.recharge(cfg.sample_period_s);
            ex.serial_power_w
        } else {
            boost.recharge(cfg.sample_period_s);
            ex.idle_power_w
        };

        let mut p = base + cfg.noise_sd_w * standard_normal(rng);
        if cfg.quantum_w > 0.0 {
            p = (p / cfg.quantum_w).round() * cfg.quantum_w;
        }
        out.push(PowerSample {
            t_s: t,
            power_w: p.max(0.0),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, GpuSettings};
    use crate::kernel::KernelProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn long_streaming() -> Execution {
        let k = KernelProfile::builder("stream")
            .hbm_bytes(3.2e12 * 120.0) // ~2 minutes at peak bandwidth
            .flops(1.0)
            .bw_oversub(1.0)
            .build();
        Engine::default().execute(&k, GpuSettings::uncapped())
    }

    #[test]
    fn trace_mean_matches_steady_state_power() {
        let ex = long_streaming();
        let mut rng = StdRng::seed_from_u64(7);
        let mut boost = BoostBudget::default();
        let trace = sample_execution(&ex, &mut boost, TraceConfig::default(), &mut rng);
        let mean = trace.iter().map(|s| s.power_w).sum::<f64>() / trace.len() as f64;
        assert!(
            (mean - ex.busy_power_w).abs() < 3.0,
            "mean {mean} vs busy {}",
            ex.busy_power_w
        );
    }

    #[test]
    fn ppt_throttled_trace_shows_boost_excursions() {
        let k = KernelProfile::builder("ridge")
            .flops(4.0 * 3.2e12 * 300.0)
            .hbm_bytes(3.2e12 * 300.0)
            .flop_efficiency(0.268)
            .bw_oversub(1.0)
            .build();
        let ex = Engine::default().execute(&k, GpuSettings::uncapped());
        assert!(ex.ppt_throttled);
        let mut rng = StdRng::seed_from_u64(42);
        let mut boost = BoostBudget::default();
        let trace = sample_execution(&ex, &mut boost, TraceConfig::default(), &mut rng);
        let boosted = trace.iter().filter(|s| s.power_w >= GPU_TDP_W).count();
        assert!(boosted > 0, "expected some boosted samples");
        let frac = boosted as f64 / trace.len() as f64;
        assert!(frac < 0.35, "boost must be a minority of samples: {frac}");
        assert!(trace.iter().all(|s| s.power_w <= GPU_BOOST_W + 20.0));
    }

    #[test]
    fn standard_normal_has_sane_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn quantization_rounds_to_grid() {
        let ex = long_streaming();
        let mut rng = StdRng::seed_from_u64(3);
        let mut boost = BoostBudget::default();
        let cfg = TraceConfig {
            quantum_w: 5.0,
            ..Default::default()
        };
        let trace = sample_execution(&ex, &mut boost, cfg, &mut rng);
        for s in &trace {
            let rem = s.power_w % 5.0;
            assert!(rem.abs() < 1e-9 || (5.0 - rem).abs() < 1e-9);
        }
    }

    #[test]
    fn phased_execution_traces_each_phase_power() {
        let k = KernelProfile::builder("phased")
            .flops(47.8e12 * 60.0)
            .hbm_bytes(1e9)
            .serial_at_fmax(60.0)
            .stall(60.0)
            .build();
        let ex = Engine::default().execute(&k, GpuSettings::uncapped());
        let mut rng = StdRng::seed_from_u64(5);
        let mut boost = BoostBudget::default();
        let cfg = TraceConfig {
            noise_sd_w: 0.0,
            quantum_w: 0.0,
            ..Default::default()
        };
        let trace = sample_execution(&ex, &mut boost, cfg, &mut rng);
        let first = trace.first().unwrap().power_w;
        let last = trace.last().unwrap().power_w;
        assert!(first > 300.0, "busy phase first: {first}");
        assert!((last - ex.idle_power_w).abs() < 1e-6, "stall phase last");
    }
}
