//! Power-model calibration: least-squares fitting of the component
//! coefficients from measured (utilization, frequency, power) points.
//!
//! The default [`PowerModel`] is hand-calibrated
//! to the paper's anchors; this module automates the process so the model
//! can be re-fit to a different GPU (or to better measurements) — the
//! "assessments have to be re-evaluated based on technology developments"
//! direction of the paper's discussion.
//!
//! The model is linear in its five coefficients once the voltage curve is
//! fixed:
//!
//! ```text
//! P = c_idle·1 + c_clock·(a·dyn) + c_alu·(u_alu·dyn)
//!   + c_ondie·(u_ondie·dyn) + c_hbm·u_hbm
//! ```
//!
//! so ordinary least squares on those five features recovers it.

use crate::freq::{Freq, VoltageCurve};
use crate::power::{PowerModel, Utilization};

/// One calibration measurement.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// Datapath utilizations during the measurement.
    pub util: Utilization,
    /// Core frequency during the measurement.
    pub freq: Freq,
    /// Measured package power, in watts.
    pub power_w: f64,
}

/// Error from a calibration attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalibrationError {
    /// Fewer observations than coefficients.
    TooFewObservations,
    /// The normal equations are singular (degenerate design, e.g. all
    /// observations at identical operating points).
    SingularSystem,
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationError::TooFewObservations => {
                write!(f, "need at least 5 observations to fit 5 coefficients")
            }
            CalibrationError::SingularSystem => {
                write!(
                    f,
                    "degenerate observation set: normal equations are singular"
                )
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

const N_COEFFS: usize = 5;

fn features(util: Utilization, freq: Freq, curve: &VoltageCurve) -> [f64; N_COEFFS] {
    let dyn_scale = curve.dyn_scale(freq);
    [
        1.0,
        dyn_scale * util.active,
        util.alu * dyn_scale,
        util.ondie * dyn_scale,
        util.hbm,
    ]
}

/// Solves `A x = b` for a small dense symmetric positive-definite system
/// via Gaussian elimination with partial pivoting.
fn solve(mut a: [[f64; N_COEFFS]; N_COEFFS], mut b: [f64; N_COEFFS]) -> Option<[f64; N_COEFFS]> {
    for col in 0..N_COEFFS {
        // Pivot.
        let pivot = (col..N_COEFFS).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate.
        for row in (col + 1)..N_COEFFS {
            let factor = a[row][col] / a[col][col];
            let (pivot_rows, rest) = a.split_at_mut(row);
            let pivot_row = &pivot_rows[col];
            for (x, &p) in rest[0][col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = [0.0; N_COEFFS];
    for col in (0..N_COEFFS).rev() {
        let mut acc = b[col];
        for k in (col + 1)..N_COEFFS {
            acc -= a[col][k] * x[k];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

/// Fits a [`PowerModel`] to `observations` under a fixed voltage curve.
pub fn fit(
    observations: &[Observation],
    curve: VoltageCurve,
) -> Result<PowerModel, CalibrationError> {
    if observations.len() < N_COEFFS {
        return Err(CalibrationError::TooFewObservations);
    }

    // Normal equations: (XᵀX) c = Xᵀy.
    let mut xtx = [[0.0; N_COEFFS]; N_COEFFS];
    let mut xty = [0.0; N_COEFFS];
    for obs in observations {
        let f = features(obs.util, obs.freq, &curve);
        for i in 0..N_COEFFS {
            for j in 0..N_COEFFS {
                xtx[i][j] += f[i] * f[j];
            }
            xty[i] += f[i] * obs.power_w;
        }
    }

    let c = solve(xtx, xty).ok_or(CalibrationError::SingularSystem)?;
    Ok(PowerModel {
        idle_w: c[0],
        clock_w: c[1],
        alu_max_w: c[2],
        ondie_max_w: c[3],
        hbm_max_w: c[4],
        curve,
    })
}

/// Root-mean-square error of `model` against `observations`, in watts.
pub fn rmse(model: &PowerModel, observations: &[Observation]) -> f64 {
    if observations.is_empty() {
        return 0.0;
    }
    let sse: f64 = observations
        .iter()
        .map(|o| (model.demand_w(o.util, o.freq) - o.power_w).powi(2))
        .sum();
    (sse / observations.len() as f64).sqrt()
}

/// Synthesizes a calibration set from a reference model: the anchor
/// operating points the paper's benchmarks visit (idle, streaming, ridge
/// constituents, compute tail — across the frequency ladder).
pub fn anchor_observations(reference: &PowerModel) -> Vec<Observation> {
    let mut out = Vec::new();
    let anchors = [
        Utilization::idle(),
        // Memory-bound streaming.
        Utilization {
            alu: 0.016,
            ondie: 0.25,
            hbm: 1.0,
            active: 1.0,
        },
        // Compute-bound tail.
        Utilization {
            alu: 1.0,
            ondie: 0.003,
            hbm: 0.003,
            active: 1.0,
        },
        // L2-resident bandwidth.
        Utilization {
            alu: 0.0,
            ondie: 1.0,
            hbm: 0.01,
            active: 1.0,
        },
        // Balanced mid-intensity point.
        Utilization {
            alu: 0.5,
            ondie: 0.12,
            hbm: 0.5,
            active: 1.0,
        },
    ];
    for u in anchors {
        for mhz in [1700.0, 1300.0, 900.0, 500.0] {
            let f = Freq::from_mhz(mhz);
            out.push(Observation {
                util: u,
                freq: f,
                power_w: reference.demand_w(u, f),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fit_recovers_reference_model_exactly_from_clean_data() {
        let reference = PowerModel::default();
        let obs = anchor_observations(&reference);
        let fitted = fit(&obs, reference.curve).expect("fit");
        assert!((fitted.idle_w - reference.idle_w).abs() < 1e-6);
        assert!((fitted.clock_w - reference.clock_w).abs() < 1e-6);
        assert!((fitted.alu_max_w - reference.alu_max_w).abs() < 1e-6);
        assert!((fitted.ondie_max_w - reference.ondie_max_w).abs() < 1e-6);
        assert!((fitted.hbm_max_w - reference.hbm_max_w).abs() < 1e-6);
        assert!(rmse(&fitted, &obs) < 1e-6);
    }

    #[test]
    fn fit_is_robust_to_measurement_noise() {
        let reference = PowerModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        let noisy: Vec<Observation> = anchor_observations(&reference)
            .into_iter()
            .map(|mut o| {
                o.power_w += rng.gen_range(-4.0..4.0);
                o
            })
            .collect();
        let fitted = fit(&noisy, reference.curve).expect("fit");
        assert!((fitted.idle_w - reference.idle_w).abs() < 8.0);
        assert!((fitted.hbm_max_w - reference.hbm_max_w).abs() < 15.0);
        assert!(rmse(&fitted, &noisy) < 6.0);
    }

    #[test]
    fn too_few_observations_is_an_error() {
        let reference = PowerModel::default();
        let obs = &anchor_observations(&reference)[..3];
        assert_eq!(
            fit(obs, reference.curve).unwrap_err(),
            CalibrationError::TooFewObservations
        );
    }

    #[test]
    fn degenerate_design_is_an_error() {
        let reference = PowerModel::default();
        let one = Observation {
            util: Utilization::idle(),
            freq: Freq::MAX,
            power_w: 89.0,
        };
        let obs = vec![one; 10];
        assert_eq!(
            fit(&obs, reference.curve).unwrap_err(),
            CalibrationError::SingularSystem
        );
    }

    #[test]
    fn fitted_model_generalizes_beyond_anchors() {
        let reference = PowerModel::default();
        let fitted = fit(&anchor_observations(&reference), reference.curve).expect("fit");
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let u = Utilization {
                alu: rng.gen_range(0.0..1.0),
                ondie: rng.gen_range(0.0..1.0),
                hbm: rng.gen_range(0.0..1.0),
                active: 1.0,
            };
            let f = Freq::from_mhz(rng.gen_range(500.0..1700.0));
            let err = (fitted.demand_w(u, f) - reference.demand_w(u, f)).abs();
            assert!(err < 1e-6, "generalization error {err}");
        }
    }
}
