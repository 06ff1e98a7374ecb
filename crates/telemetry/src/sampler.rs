//! Sampling-rate conversion: the paper's pipeline captures power at
//! 2-second intervals out-of-band and aggregates to 15-second means in
//! pre-processing (Table II a).

use pmss_gpu::PowerSample;

/// Aggregates a uniformly-sampled trace into fixed windows by mean,
/// emitting one sample per window stamped at the window center.
///
/// Partial trailing windows are emitted as the mean of whatever they hold,
/// matching the paper's pre-processing (no samples are dropped).
pub fn aggregate(samples: &[PowerSample], window_s: f64) -> Vec<PowerSample> {
    assert!(window_s > 0.0);
    let mut out = Vec::new();
    let mut acc = 0.0;
    let mut n = 0u32;
    let mut window_idx = 0usize;

    for s in samples {
        let idx = (s.t_s / window_s) as usize;
        if idx != window_idx && n > 0 {
            out.push(PowerSample {
                t_s: (window_idx as f64 + 0.5) * window_s,
                power_w: acc / n as f64,
            });
            acc = 0.0;
            n = 0;
        }
        window_idx = idx;
        acc += s.power_w;
        n += 1;
    }
    if n > 0 {
        out.push(PowerSample {
            t_s: (window_idx as f64 + 0.5) * window_s,
            power_w: acc / n as f64,
        });
    }
    out
}

/// Energy implied by a uniformly-sampled trace, in joules.
pub fn trace_energy_j(samples: &[PowerSample], period_s: f64) -> f64 {
    samples.iter().map(|s| s.power_w * period_s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(values: &[f64], period: f64) -> Vec<PowerSample> {
        values
            .iter()
            .enumerate()
            .map(|(i, &w)| PowerSample {
                t_s: (i as f64 + 0.5) * period,
                power_w: w,
            })
            .collect()
    }

    #[test]
    fn aggregates_means_per_window() {
        // 2 s samples into 6 s windows: three samples each.
        let t = trace(&[100.0, 110.0, 120.0, 200.0, 210.0, 220.0], 2.0);
        let agg = aggregate(&t, 6.0);
        assert_eq!(agg.len(), 2);
        assert!((agg[0].power_w - 110.0).abs() < 1e-12);
        assert!((agg[1].power_w - 210.0).abs() < 1e-12);
        assert_eq!(agg[0].t_s, 3.0);
        assert_eq!(agg[1].t_s, 9.0);
    }

    #[test]
    fn partial_trailing_window_is_kept() {
        let t = trace(&[100.0, 100.0, 100.0, 400.0], 2.0);
        let agg = aggregate(&t, 6.0);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[1].power_w, 400.0);
    }

    #[test]
    fn aggregation_preserves_energy() {
        let t = trace(&[150.0, 250.0, 350.0, 450.0, 90.0, 91.0], 2.0);
        let original = trace_energy_j(&t, 2.0);
        let agg = aggregate(&t, 6.0);
        // Two full windows of three samples: energy per aggregated sample
        // is mean * window.
        let aggregated: f64 = agg.iter().map(|s| s.power_w * 6.0).sum();
        assert!((original - aggregated).abs() < 1e-9);
    }

    #[test]
    fn paper_rates_two_to_fifteen_seconds() {
        // 2 s capture aggregated to 15 s: 7 or 8 source samples per window.
        let values: Vec<f64> = (0..60).map(|i| 300.0 + i as f64).collect();
        let t = trace(&values, 2.0);
        let agg = aggregate(&t, 15.0);
        assert_eq!(agg.len(), 8);
        assert!(agg.windows(2).all(|w| w[1].t_s - w[0].t_s == 15.0));
    }

    #[test]
    fn empty_trace_yields_empty_aggregate() {
        assert!(aggregate(&[], 15.0).is_empty());
    }
}
