//! Boundary-sensitivity analysis for the modal decomposition.
//!
//! The paper concedes that "boundary regions may be diffused into one
//! another and may not be well defined" (Sec. V-B).  This module
//! quantifies how much that matters: it re-bins a power distribution under
//! perturbed region boundaries and re-runs the projection, reporting the
//! spread of the headline numbers.  A robust conclusion should move by
//! far less than its magnitude when the 200/420 W boundaries shift by tens
//! of watts.

use pmss_error::PmssError;
use pmss_telemetry::PowerHistogram;
use pmss_workloads::Table3;

use crate::project::{project, Projection, ProjectionInput};

/// A perturbed set of region boundaries, in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boundaries {
    /// Latency / memory-intensive boundary (paper: 200 W).
    pub latency_mi_w: f64,
    /// Memory- / compute-intensive boundary (paper: 420 W).
    pub mi_ci_w: f64,
    /// Compute-intensive / boost boundary (paper: 560 W).
    pub ci_boost_w: f64,
}

impl Default for Boundaries {
    fn default() -> Self {
        Boundaries {
            latency_mi_w: crate::modes::LATENCY_MI_BOUND_W,
            mi_ci_w: crate::modes::MI_CI_BOUND_W,
            ci_boost_w: crate::modes::CI_BOOST_BOUND_W,
        }
    }
}

impl Boundaries {
    /// Validates ordering: the three boundaries must be positive and
    /// strictly increasing.
    pub(crate) fn validate(&self) -> Result<(), PmssError> {
        if !(0.0 < self.latency_mi_w
            && self.latency_mi_w < self.mi_ci_w
            && self.mi_ci_w < self.ci_boost_w)
        {
            return Err(PmssError::InvalidBoundaries {
                latency_mi_w: self.latency_mi_w,
                mi_ci_w: self.mi_ci_w,
                ci_boost_w: self.ci_boost_w,
            });
        }
        Ok(())
    }
}

/// Projection inputs extracted from a power histogram under arbitrary
/// boundaries.  Works from the *distribution* (Fig. 8) rather than the
/// ledger, since the ledger is binned at fixed boundaries.
pub fn input_from_histogram(
    hist: &PowerHistogram,
    bounds: Boundaries,
    total_energy_j: f64,
) -> Result<ProjectionInput, PmssError> {
    bounds.validate()?;
    // Energy share per region approximated by power-weighted bin mass.
    let mut mass_energy = [0.0f64; 4];
    let mut total_mass_energy = 0.0;
    for (center, &count) in hist.centers().zip(hist.counts()) {
        let e = center * count as f64;
        total_mass_energy += e;
        let idx = if center < bounds.latency_mi_w {
            0
        } else if center < bounds.mi_ci_w {
            1
        } else if center < bounds.ci_boost_w {
            2
        } else {
            3
        };
        mass_energy[idx] += e;
    }
    let scale = if total_mass_energy > 0.0 {
        total_energy_j / total_mass_energy
    } else {
        0.0
    };
    Ok(ProjectionInput {
        e_mi_j: mass_energy[1] * scale,
        e_ci_j: mass_energy[2] * scale,
        e_total_j: total_energy_j,
    })
}

/// One perturbation's headline numbers.
#[derive(Debug, Clone, Copy)]
pub struct SensitivityPoint {
    /// The boundaries used.
    pub bounds: Boundaries,
    /// Best no-slowdown savings, percent of total energy.
    pub best_free_pct: f64,
    /// Best total savings, percent of total energy.
    pub best_total_pct: f64,
}

/// Result of a sensitivity sweep.
#[derive(Debug, Clone)]
pub struct SensitivityReport {
    /// The unperturbed reference point.
    pub reference: SensitivityPoint,
    /// All perturbed points.
    pub points: Vec<SensitivityPoint>,
}

impl SensitivityReport {
    /// Spread (max − min) of the no-slowdown headline across perturbations,
    /// in percentage points.
    pub fn free_savings_spread(&self) -> f64 {
        let lo = self
            .points
            .iter()
            .map(|p| p.best_free_pct)
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .points
            .iter()
            .map(|p| p.best_free_pct)
            .fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    }
}

fn point(
    hist: &PowerHistogram,
    bounds: Boundaries,
    total_energy_j: f64,
    t3: &Table3,
) -> Result<SensitivityPoint, PmssError> {
    let p: Projection = project(input_from_histogram(hist, bounds, total_energy_j)?, t3)?;
    Ok(SensitivityPoint {
        bounds,
        best_free_pct: p.best_free().savings_dt0_pct,
        best_total_pct: p.best_total().savings_pct,
    })
}

/// Sweeps both interior boundaries over `+/- delta_w` in `steps` steps and
/// reports the headline spread.
pub fn boundary_sweep(
    hist: &PowerHistogram,
    total_energy_j: f64,
    t3: &Table3,
    delta_w: f64,
    steps: usize,
) -> Result<SensitivityReport, PmssError> {
    if steps < 1 {
        return Err(PmssError::InvalidSpec {
            field: "steps",
            reason: "must be at least 1".into(),
        });
    }
    if !(delta_w.is_finite() && delta_w >= 0.0) {
        return Err(PmssError::InvalidSpec {
            field: "delta_w",
            reason: format!("must be finite and non-negative, got {delta_w}"),
        });
    }
    let reference = point(hist, Boundaries::default(), total_energy_j, t3)?;
    let mut points = Vec::new();
    for i in 0..=steps {
        let off = -delta_w + 2.0 * delta_w * i as f64 / steps as f64;
        for (d_lat, d_mi) in [(off, 0.0), (0.0, off), (off, off)] {
            let bounds = Boundaries {
                latency_mi_w: 200.0 + d_lat,
                mi_ci_w: 420.0 + d_mi,
                ..Default::default()
            };
            if bounds.validate().is_ok() {
                points.push(point(hist, bounds, total_energy_j, t3)?);
            }
        }
    }
    Ok(SensitivityReport { reference, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmss_workloads::table3;

    /// A synthetic Fig. 8-like distribution.
    fn fleet_like_hist() -> PowerHistogram {
        let mut h = PowerHistogram::gpu_default();
        // 30 % near idle, 50 % in the MI band, 19 % CI, 1 % boost.
        for i in 0..3000 {
            h.record(90.0 + (i % 100) as f64);
        }
        for i in 0..5000 {
            h.record(230.0 + (i % 180) as f64);
        }
        for i in 0..1900 {
            h.record(425.0 + (i % 115) as f64);
        }
        for i in 0..100 {
            h.record(565.0 + (i % 30) as f64);
        }
        h
    }

    const TOTAL_J: f64 = 1e12;

    #[test]
    fn reference_input_matches_direct_binning() {
        let h = fleet_like_hist();
        let input = input_from_histogram(&h, Boundaries::default(), TOTAL_J).unwrap();
        assert!(input.e_mi_j > input.e_ci_j);
        assert!(input.e_mi_j + input.e_ci_j < input.e_total_j);
        assert_eq!(input.e_total_j, TOTAL_J);
    }

    #[test]
    fn widening_the_mi_band_moves_energy_into_it() {
        let h = fleet_like_hist();
        let narrow = input_from_histogram(&h, Boundaries::default(), TOTAL_J).unwrap();
        let wide = input_from_histogram(
            &h,
            Boundaries {
                latency_mi_w: 160.0,
                mi_ci_w: 460.0,
                ..Default::default()
            },
            TOTAL_J,
        )
        .unwrap();
        assert!(wide.e_mi_j > narrow.e_mi_j);
    }

    #[test]
    fn headline_is_stable_under_boundary_perturbation() {
        // The paper's conclusion survives +/- 40 W of boundary diffusion:
        // the no-slowdown headline moves by far less than its own size.
        let h = fleet_like_hist();
        let t3 = table3::compute_default();
        let report = boundary_sweep(&h, TOTAL_J, &t3, 40.0, 4).unwrap();
        assert!(report.reference.best_free_pct > 3.0);
        assert!(
            report.free_savings_spread() < 0.5 * report.reference.best_free_pct,
            "spread {} vs reference {}",
            report.free_savings_spread(),
            report.reference.best_free_pct
        );
    }

    #[test]
    fn invalid_boundaries_rejected() {
        assert!(Boundaries {
            latency_mi_w: 500.0,
            mi_ci_w: 420.0,
            ci_boost_w: 560.0,
        }
        .validate()
        .is_err());
    }
}
