//! Fleet-level aggregate power: the facility view.
//!
//! The paper's motivation is the facility power envelope (Table I: "Peak
//! power 29 MW"; the abstract: "constrained power budgets").  This
//! observer aggregates per-GPU and rest-of-node samples into a total
//! fleet power time series, from which peak demand, the load-duration
//! curve, and the peak-shaving effect of capping fall out.

use crate::fleet::{FleetObserver, SampleCtx};

/// Aggregate fleet power per telemetry window.
#[derive(Debug, Clone, Default)]
pub struct FleetPowerSeries {
    /// Sum of sample powers per window index, watts.
    totals_w: Vec<f64>,
    window_s: f64,
}

impl FleetPowerSeries {
    /// Hard ceiling on the window index: 1e9 fifteen-second windows is
    /// ~475 simulated years, far past any real campaign.  A glitched
    /// timestamp must not be able to demand an unbounded `resize`.
    const MAX_SLOT: f64 = 1e9;

    fn slot(&mut self, t_s: f64) -> &mut f64 {
        let w = if self.window_s > 0.0 {
            self.window_s
        } else {
            15.0
        };
        self.window_s = w;
        let idx = Self::slot_index(t_s, w);
        if self.totals_w.len() <= idx {
            self.totals_w.resize(idx + 1, 0.0);
        }
        &mut self.totals_w[idx]
    }

    /// Maps a sample timestamp to its window index.  An unchecked `as
    /// usize` here saturates on NaN/negative/huge floats, but the
    /// saturation point is `usize::MAX` — the resize in [`slot`] would
    /// then be an instant OOM.  Clamp explicitly: hostile timestamps
    /// land in slot 0 (non-finite, non-positive) or the capped tail
    /// (overlarge); the cast happens only after both clamps.
    fn slot_index(t_s: f64, w: f64) -> usize {
        if !t_s.is_finite() || t_s <= 0.0 {
            return 0;
        }
        (t_s / w).min(Self::MAX_SLOT) as usize
    }

    /// Peak fleet power, watts.
    pub fn peak_w(&self) -> f64 {
        self.totals_w.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean fleet power, watts.
    pub fn mean_w(&self) -> f64 {
        if self.totals_w.is_empty() {
            0.0
        } else {
            self.totals_w.iter().sum::<f64>() / self.totals_w.len() as f64
        }
    }

    /// Total energy, joules.
    #[cfg(test)]
    pub(crate) fn energy_j(&self) -> f64 {
        let w = if self.window_s > 0.0 {
            self.window_s
        } else {
            15.0
        };
        self.totals_w.iter().sum::<f64>() * w
    }

    /// Load factor: mean over peak, in `(0, 1]`.
    pub fn load_factor(&self) -> f64 {
        let p = self.peak_w();
        if p > 0.0 {
            self.mean_w() / p
        } else {
            0.0
        }
    }
}

impl FleetObserver for FleetPowerSeries {
    fn gpu_sample(&mut self, _ctx: &SampleCtx<'_>, t_s: f64, power_w: f64) {
        // One non-finite reading would poison the whole window's total (and
        // everything derived from it); skip glitched samples.
        if power_w.is_finite() {
            *self.slot(t_s) += power_w;
        }
    }

    fn node_sample(&mut self, _ctx: &SampleCtx<'_>, t_s: f64, _span_s: f64, rest_w: f64) {
        if rest_w.is_finite() {
            *self.slot(t_s) += rest_w;
        }
    }

    fn merge(&mut self, other: Self) {
        if self.totals_w.len() < other.totals_w.len() {
            self.totals_w.resize(other.totals_w.len(), 0.0);
        }
        for (a, b) in self.totals_w.iter_mut().zip(&other.totals_w) {
            *a += b;
        }
        if self.window_s == 0.0 {
            self.window_s = other.window_s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{simulate_fleet, FleetConfig};
    use pmss_gpu::GpuSettings;
    use pmss_sched::{catalog, generate, TraceParams};

    fn schedule() -> pmss_sched::Schedule {
        generate(
            TraceParams {
                nodes: 6,
                duration_s: 6.0 * 3600.0,
                seed: 19,
                min_job_s: 900.0,
            },
            &catalog(),
        )
    }

    #[test]
    fn fleet_power_is_bounded_by_the_hardware_envelope() {
        let s = schedule();
        let fp: FleetPowerSeries = simulate_fleet(&s, &FleetConfig::default());
        // 6 nodes x (4 GPUs x 600 W boost + ~400 W rest).
        let ceiling = 6.0 * (4.0 * 600.0 + 400.0);
        assert!(fp.peak_w() <= ceiling, "peak {}", fp.peak_w());
        // And above the all-idle floor.
        let floor = 6.0 * (4.0 * 85.0 + 200.0);
        assert!(fp.mean_w() > floor, "mean {}", fp.mean_w());
        assert!((0.0..=1.0).contains(&fp.load_factor()));
    }

    #[test]
    fn energy_matches_component_observers() {
        use crate::observers::GpuCpuEnergy;
        use crate::Pair;
        let s = schedule();
        let both: Pair<FleetPowerSeries, GpuCpuEnergy> =
            simulate_fleet(&s, &FleetConfig::default());
        let component = both.b.gpu_energy_j + both.b.rest_energy_j;
        assert!(
            (both.a.energy_j() - component).abs() < 1e-6 * component,
            "{} vs {}",
            both.a.energy_j(),
            component
        );
    }

    #[test]
    fn capping_shaves_fleet_peak_power() {
        // The operator story: a frequency cap cuts not just energy but the
        // facility's peak demand.
        let s = schedule();
        let base: FleetPowerSeries = simulate_fleet(&s, &FleetConfig::default());
        let capped: FleetPowerSeries = simulate_fleet(
            &s,
            &FleetConfig {
                settings: GpuSettings::freq_capped(1100.0),
                ..Default::default()
            },
        );
        assert!(
            capped.peak_w() < base.peak_w() - 100.0,
            "base peak {} vs capped {}",
            base.peak_w(),
            capped.peak_w()
        );
    }

    #[test]
    fn hostile_timestamps_cannot_explode_the_series() {
        let ctx = SampleCtx {
            node: 0,
            slot: 0,
            sku: 0,
            job: None,
        };
        let mut fp = FleetPowerSeries::default();
        // NaN, infinities, and negatives all land in slot 0 instead of
        // saturating the `as usize` cast at usize::MAX and OOMing the
        // resize.
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e18, -0.0] {
            fp.gpu_sample(&ctx, t, 100.0);
            fp.node_sample(&ctx, t, 15.0, 50.0);
        }
        assert_eq!(fp.totals_w.len(), 1);
        assert!((fp.totals_w[0] - 750.0).abs() < 1e-9);
        // An absurdly large timestamp clamps to the bounded ceiling —
        // checked at the index-mapping level so the test itself never
        // has to materialize the capped tail.
        assert_eq!(
            FleetPowerSeries::slot_index(1e300, 15.0),
            FleetPowerSeries::MAX_SLOT as usize
        );
        assert_eq!(FleetPowerSeries::slot_index(f64::MAX, 15.0), 1e9 as usize);
        // Ordinary in-campaign timestamps are untouched by the clamps.
        assert_eq!(FleetPowerSeries::slot_index(45.0, 15.0), 3);
    }
}
