//! Fixed-bin power histograms: the data structure behind the paper's
//! Figs. 8 and 9 (distribution of 15-second GPU power samples) and the
//! modal decomposition built on top of it.

/// Histogram over `[0, max_w)` watts with uniform bins.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerHistogram {
    bin_w: f64,
    counts: Vec<u64>,
    total: u64,
    sum_w: f64,
}

impl PowerHistogram {
    /// Creates a histogram covering `[0, max_w)` with `bins` bins.
    pub(crate) fn new(max_w: f64, bins: usize) -> Self {
        assert!(max_w > 0.0 && bins > 0);
        PowerHistogram {
            bin_w: max_w / bins as f64,
            counts: vec![0; bins],
            total: 0,
            sum_w: 0.0,
        }
    }

    /// Default layout for GPU package power: 0–700 W in 2 W bins (covers
    /// idle through boost).
    pub fn gpu_default() -> Self {
        PowerHistogram::new(700.0, 350)
    }

    /// Records one power sample; values beyond the range clamp into the
    /// edge bins.  Non-finite samples (sensor glitches propagated as NaN or
    /// ±inf) are skipped: a NaN would land in bin 0 via the float-to-int
    /// cast while poisoning `sum_w` — and with it `mean_w` — forever.
    pub fn record(&mut self, power_w: f64) {
        if !power_w.is_finite() {
            return;
        }
        let idx = ((power_w / self.bin_w) as isize).clamp(0, self.counts.len() as isize - 1);
        self.counts[idx as usize] += 1;
        self.total += 1;
        self.sum_w += power_w;
    }

    /// Merges another histogram of identical layout.
    ///
    /// # Panics
    /// Panics on layout mismatch.
    pub fn merge(&mut self, other: &PowerHistogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        assert!(
            (self.bin_w - other.bin_w).abs() < 1e-12,
            "bin width mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_w += other.sum_w;
    }

    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean recorded power, in watts (`None` when empty).
    pub fn mean_w(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum_w / self.total as f64)
    }

    /// Bin centers, in watts.
    pub fn centers(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.counts.len()).map(move |i| (i as f64 + 0.5) * self.bin_w)
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Fraction of samples with power in `[lo_w, hi_w)` — the quantity
    /// behind the Table IV "GPU Hrs. (%)" column.
    ///
    /// Computed from bin membership; samples beyond the histogram range are
    /// attributed to the edge bins they were clamped into.
    pub fn fraction_between(&self, lo_w: f64, hi_w: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let lo = (lo_w / self.bin_w).round() as usize;
        let hi = ((hi_w / self.bin_w).round() as usize).min(self.counts.len());
        let inside: u64 = self.counts[lo.min(self.counts.len())..hi].iter().sum();
        inside as f64 / self.total as f64
    }

    /// Probability density per bin (sums to 1 over bins).
    pub fn density(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Gaussian-smoothed density (sigma in bins) for peak finding.
    pub fn smoothed_density(&self, sigma_bins: f64) -> Vec<f64> {
        let d = self.density();
        if sigma_bins <= 0.0 {
            return d;
        }
        let radius = (3.0 * sigma_bins).ceil() as isize;
        let weights: Vec<f64> = (-radius..=radius)
            .map(|k| (-0.5 * (k as f64 / sigma_bins).powi(2)).exp())
            .collect();
        let wsum: f64 = weights.iter().sum();
        (0..d.len() as isize)
            .map(|i| {
                let mut acc = 0.0;
                for (j, w) in weights.iter().enumerate() {
                    let idx = i + j as isize - radius;
                    if (0..d.len() as isize).contains(&idx) {
                        acc += w * d[idx as usize];
                    }
                }
                acc / wsum
            })
            .collect()
    }

    /// Local maxima of the smoothed density that carry at least
    /// `min_mass` of probability within ±2 bins — the "peaks or local
    /// maxima" the paper reads modes of operation from.
    pub fn peaks_w(&self, sigma_bins: f64, min_mass: f64) -> Vec<f64> {
        let s = self.smoothed_density(sigma_bins);
        let d = self.density();
        let mut peaks = Vec::new();
        for i in 1..s.len().saturating_sub(1) {
            if s[i] > s[i - 1] && s[i] >= s[i + 1] {
                let lo = i.saturating_sub(2);
                let hi = (i + 3).min(d.len());
                let mass: f64 = d[lo..hi].iter().sum();
                if mass >= min_mass {
                    peaks.push((i as f64 + 0.5) * self.bin_w);
                }
            }
        }
        peaks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_fractions() {
        let mut h = PowerHistogram::new(600.0, 300);
        for _ in 0..70 {
            h.record(100.0);
        }
        for _ in 0..30 {
            h.record(450.0);
        }
        assert_eq!(h.total(), 100);
        assert!((h.fraction_between(0.0, 200.0) - 0.7).abs() < 1e-12);
        assert!((h.fraction_between(420.0, 560.0) - 0.3).abs() < 1e-12);
        assert!((h.mean_w().unwrap() - 205.0).abs() < 1e-9);
    }

    #[test]
    fn clamping_keeps_mass_conserved() {
        let mut h = PowerHistogram::new(600.0, 300);
        h.record(-5.0);
        h.record(900.0);
        assert_eq!(h.total(), 2);
        let sum: f64 = h.density().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_samples_are_skipped() {
        let mut h = PowerHistogram::new(600.0, 300);
        h.record(100.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        h.record(300.0);
        // Only the two finite samples count; the mean stays finite.
        assert_eq!(h.total(), 2);
        assert_eq!(h.counts().iter().sum::<u64>(), 2);
        assert!((h.mean_w().unwrap() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = PowerHistogram::gpu_default();
        let mut b = PowerHistogram::gpu_default();
        a.record(100.0);
        b.record(300.0);
        b.record(300.0);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert!((a.fraction_between(290.0, 310.0) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn merge_rejects_layout_mismatch() {
        let mut a = PowerHistogram::new(600.0, 300);
        let b = PowerHistogram::new(600.0, 100);
        a.merge(&b);
    }

    #[test]
    fn smoothing_preserves_mass() {
        let mut h = PowerHistogram::gpu_default();
        for i in 0..1000 {
            h.record(90.0 + (i % 400) as f64);
        }
        let sm = h.smoothed_density(3.0);
        let mass: f64 = sm.iter().sum();
        assert!((mass - 1.0).abs() < 0.02, "mass {mass}");
    }

    #[test]
    fn peaks_found_for_bimodal_distribution() {
        let mut h = PowerHistogram::gpu_default();
        // Two modes: ~150 W and ~480 W with slight spread.
        for i in 0..2000 {
            h.record(150.0 + ((i * 7) % 21) as f64 - 10.0);
            h.record(480.0 + ((i * 5) % 21) as f64 - 10.0);
        }
        let peaks = h.peaks_w(2.0, 0.02);
        assert!(
            peaks.iter().any(|&p| (140.0..170.0).contains(&p)),
            "{peaks:?}"
        );
        assert!(
            peaks.iter().any(|&p| (470.0..500.0).contains(&p)),
            "{peaks:?}"
        );
    }

    #[test]
    fn empty_histogram_behaves() {
        let h = PowerHistogram::gpu_default();
        assert_eq!(h.mean_w(), None);
        assert_eq!(h.fraction_between(0.0, 700.0), 0.0);
        assert!(h.peaks_w(2.0, 0.01).is_empty());
    }
}
