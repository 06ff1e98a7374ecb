//! Order statistics over timing samples.  Nothing here is best-of-N: a
//! reported figure is a median or a nearest-rank percentile, with the
//! sample count beside it.

/// Median of `values` (mean of the two middle samples when the count is
/// even); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it; 0 for an empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (v.len() * p as usize).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p`-th percentile
/// of `n` samples.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n - (n * p as usize).div_ceil(100).clamp(n.min(1), n)
}

/// The highest of p99/p95/p90/p75/p50 that still has at least ten of `n`
/// samples beyond it — the percentile a sample of that size supports.
/// `None` below 20 samples.
pub fn supported_percentile(n: usize) -> Option<u32> {
    [99, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Interquartile distance of `values` as a share of their median — the
/// run-to-run spread the benchmark's bounds are judged against.  Uses the
/// exclusive quartile method of Python's `statistics.quantiles(v, n=4)`.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle_not_the_best() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 95), 95.0);
        assert_eq!(percentile(&v, 100), 100.0);
        // Seven samples: p95 is the maximum, and nothing lies beyond it.
        let w = [7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0];
        assert_eq!(percentile(&w, 95), 7.0);
        assert_eq!(samples_beyond(w.len(), 95), 0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(7), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50));
        assert_eq!(supported_percentile(100), Some(90));
        assert_eq!(supported_percentile(199), Some(90));
        assert_eq!(supported_percentile(200), Some(95));
        assert_eq!(supported_percentile(240), Some(95));
        assert_eq!(samples_beyond(240, 95), 12);
        assert_eq!(supported_percentile(1000), Some(99));
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
