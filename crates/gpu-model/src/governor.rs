//! DVFS governors: software frequency-selection policies on top of the
//! device model.
//!
//! The paper's projection assumes one *static* cap for everything; its
//! discussion motivates smarter software-driven policies ("empowering HPC
//! professionals to optimize the power-performance trade-off").  This
//! module implements the classic per-kernel policies as an extension:
//!
//! * [`Governor::Fixed`] — a static frequency cap (the paper's Table V
//!   scenario);
//! * [`Governor::EnergyOptimal`] — per-kernel argmin of energy-to-solution
//!   over the ladder (the oracle the paper's upper bound approximates);
//! * [`Governor::SlowdownBudget`] — minimum-energy frequency subject to a
//!   time-to-solution constraint, the policy production systems actually
//!   deploy (GEOPM-style "≤ x % slowdown");
//! * [`Governor::PowerBudget`] — a static package power cap.

use pmss_error::PmssError;

use crate::engine::{Engine, Execution, GpuSettings};
use crate::kernel::KernelProfile;

/// The discrete DVFS ladder the search-based policies scan, highest first,
/// in MHz: the frequency caps swept in the paper (1700 down to 700 MHz in
/// 200 MHz steps) plus the 500 MHz floor used by the Louvain case study.
const LADDER_MHZ: [f64; 7] = [1700.0, 1500.0, 1300.0, 1100.0, 900.0, 700.0, 500.0];

/// A frequency-selection policy.
#[derive(Debug, Clone)]
pub enum Governor {
    /// Static frequency cap, in MHz.
    Fixed(f64),
    /// Per-kernel energy-to-solution minimizer over the DVFS ladder.
    EnergyOptimal,
    /// Per-kernel energy minimizer subject to `time <= (1 + budget) *
    /// time_uncapped`.
    SlowdownBudget {
        /// Tolerated fractional slowdown (0.05 = 5 %).
        budget: f64,
    },
    /// Static package power cap, in watts.
    PowerBudget(f64),
}

/// Outcome of governing one kernel.
#[derive(Debug, Clone)]
pub struct Governed {
    /// The chosen operating settings.
    pub settings: GpuSettings,
    /// The execution under those settings.
    pub execution: Execution,
    /// The uncapped reference execution.
    pub baseline: Execution,
}

impl Governed {
    /// Fractional energy saving versus uncapped (positive = saved).
    #[cfg(test)]
    pub(crate) fn energy_saving(&self) -> f64 {
        1.0 - self.execution.energy_j / self.baseline.energy_j
    }

    /// Fractional slowdown versus uncapped (positive = slower).
    #[cfg(test)]
    pub(crate) fn slowdown(&self) -> f64 {
        self.execution.time_s / self.baseline.time_s - 1.0
    }
}

impl Governor {
    /// Validates the policy's parameters; the first violation is returned
    /// as a typed error.
    pub(crate) fn validate(&self) -> Result<(), PmssError> {
        match self {
            Governor::Fixed(mhz) => {
                if !(mhz.is_finite() && *mhz > 0.0) {
                    return Err(PmssError::invalid_value(
                        "governor frequency cap",
                        format!("{mhz}"),
                        "a finite positive frequency in MHz",
                    ));
                }
            }
            Governor::PowerBudget(watts) => {
                if !(watts.is_finite() && *watts > 0.0) {
                    return Err(PmssError::invalid_value(
                        "governor power budget",
                        format!("{watts}"),
                        "a finite positive power cap in watts",
                    ));
                }
            }
            Governor::EnergyOptimal => {}
            Governor::SlowdownBudget { budget } => {
                if !(budget.is_finite() && *budget >= 0.0) {
                    return Err(PmssError::invalid_value(
                        "governor slowdown budget",
                        format!("{budget}"),
                        "a finite non-negative fractional slowdown",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Applies the policy to `kernel` on `engine`, scanning the DVFS ladder
    /// for the search-based policies.  Invalid policy parameters (a
    /// negative slowdown budget, a non-finite cap) are a typed error, not a
    /// panic.
    pub(crate) fn govern(
        &self,
        engine: &Engine,
        kernel: &KernelProfile,
    ) -> Result<Governed, PmssError> {
        self.validate()?;
        let baseline = engine.execute(kernel, GpuSettings::uncapped());
        let settings = match self {
            Governor::Fixed(mhz) => GpuSettings::freq_capped(*mhz),
            Governor::PowerBudget(watts) => GpuSettings::power_capped(*watts),
            Governor::EnergyOptimal => {
                let best = LADDER_MHZ
                    .iter()
                    .map(|&mhz| {
                        let s = GpuSettings::freq_capped(mhz);
                        (s, engine.execute(kernel, s).energy_j)
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("non-empty ladder");
                best.0
            }
            Governor::SlowdownBudget { budget } => {
                let limit = baseline.time_s * (1.0 + budget);
                LADDER_MHZ
                    .iter()
                    .filter_map(|&mhz| {
                        let s = GpuSettings::freq_capped(mhz);
                        let ex = engine.execute(kernel, s);
                        (ex.time_s <= limit + 1e-12).then_some((s, ex.energy_j))
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(s, _)| s)
                    // The uncapped point always satisfies the budget.
                    .unwrap_or_else(GpuSettings::uncapped)
            }
        };
        let execution = engine.execute(kernel, settings);
        Ok(Governed {
            settings,
            execution,
            baseline,
        })
    }

    /// Governs a phase sequence, returning per-phase outcomes.  This is
    /// where per-kernel policies beat the paper's static cap: each phase
    /// gets its own operating point.
    pub fn govern_phases(
        &self,
        engine: &Engine,
        phases: &[KernelProfile],
    ) -> Result<Vec<Governed>, PmssError> {
        phases.iter().map(|k| self.govern(engine, k)).collect()
    }
}

/// Aggregate energy/time of a governed phase sequence.
#[derive(Debug, Clone, Copy, Default)]
pub struct GovernedTotals {
    /// Total energy, joules.
    pub energy_j: f64,
    /// Total time, seconds.
    pub time_s: f64,
    /// Uncapped totals for comparison.
    pub base_energy_j: f64,
    /// Uncapped time.
    pub base_time_s: f64,
}

impl GovernedTotals {
    /// Sums a set of per-phase outcomes.
    pub fn from_governed(outcomes: &[Governed]) -> Self {
        let mut t = GovernedTotals::default();
        for g in outcomes {
            t.energy_j += g.execution.energy_j;
            t.time_s += g.execution.time_s;
            t.base_energy_j += g.baseline.energy_j;
            t.base_time_s += g.baseline.time_s;
        }
        t
    }

    /// Fractional energy saving.
    pub fn energy_saving(&self) -> f64 {
        1.0 - self.energy_j / self.base_energy_j
    }

    /// Fractional slowdown.
    pub fn slowdown(&self) -> f64 {
        self.time_s / self.base_time_s - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::Freq;

    fn engine() -> Engine {
        Engine::default()
    }

    fn mem_kernel() -> KernelProfile {
        KernelProfile::builder("mem")
            .hbm_bytes(3.2e12 * 30.0)
            .flops(1e10)
            .bw_oversub(3.0)
            .build()
    }

    fn compute_kernel() -> KernelProfile {
        KernelProfile::builder("cpu")
            .flops(12.8e12 * 30.0)
            .hbm_bytes(1e10)
            .flop_efficiency(0.268)
            .build()
    }

    #[test]
    fn energy_optimal_never_loses_to_fixed_caps() {
        let eng = engine();
        for k in [mem_kernel(), compute_kernel()] {
            let opt = Governor::EnergyOptimal.govern(&eng, &k).unwrap();
            for mhz in [1700.0, 1300.0, 900.0, 700.0] {
                let fixed = Governor::Fixed(mhz).govern(&eng, &k).unwrap();
                assert!(
                    opt.execution.energy_j <= fixed.execution.energy_j + 1e-9,
                    "{}: optimal loses to {mhz} MHz",
                    k.name
                );
            }
        }
    }

    #[test]
    fn energy_optimal_drops_clock_for_memory_bound_work() {
        let g = Governor::EnergyOptimal
            .govern(&engine(), &mem_kernel())
            .unwrap();
        assert!(g.settings.freq_cap.mhz() < 1000.0, "{:?}", g.settings);
        assert!(g.energy_saving() > 0.1);
        assert!(
            g.slowdown() < 0.02,
            "memory-bound slowdown {}",
            g.slowdown()
        );
    }

    #[test]
    fn slowdown_budget_is_respected() {
        let eng = engine();
        for budget in [0.0, 0.05, 0.2, 0.5] {
            let g = Governor::SlowdownBudget { budget }
                .govern(&eng, &compute_kernel())
                .unwrap();
            assert!(
                g.slowdown() <= budget + 1e-9,
                "budget {budget}: slowdown {}",
                g.slowdown()
            );
        }
    }

    #[test]
    fn larger_budgets_never_save_less_energy() {
        let eng = engine();
        let k = compute_kernel();
        let mut prev = f64::NEG_INFINITY;
        for budget in [0.0, 0.1, 0.3, 0.6, 1.0] {
            let g = Governor::SlowdownBudget { budget }
                .govern(&eng, &k)
                .unwrap();
            let saving = g.energy_saving();
            assert!(saving >= prev - 1e-12, "budget {budget}");
            prev = saving;
        }
    }

    #[test]
    fn zero_budget_on_compute_bound_work_stays_uncapped() {
        let g = Governor::SlowdownBudget { budget: 0.0 }
            .govern(&engine(), &compute_kernel())
            .unwrap();
        assert_eq!(g.settings.freq_cap.mhz(), Freq::MAX.mhz());
    }

    #[test]
    fn per_phase_governing_beats_static_cap_on_mixed_apps() {
        // The extension's headline: a per-phase energy-optimal governor
        // saves more than any single static frequency on a mixed workload.
        let eng = engine();
        let phases = vec![mem_kernel(), compute_kernel(), mem_kernel()];
        let opt = GovernedTotals::from_governed(
            &Governor::EnergyOptimal
                .govern_phases(&eng, &phases)
                .unwrap(),
        );
        for mhz in [1700.0, 1300.0, 1100.0, 900.0, 700.0] {
            let fixed = GovernedTotals::from_governed(
                &Governor::Fixed(mhz).govern_phases(&eng, &phases).unwrap(),
            );
            assert!(
                opt.energy_j <= fixed.energy_j + 1e-9,
                "static {mhz} MHz beats the per-phase governor"
            );
        }
        assert!(opt.energy_saving() > 0.05);
    }

    #[test]
    fn invalid_policy_parameters_are_typed_errors_not_panics() {
        let eng = engine();
        let k = compute_kernel();
        for bad in [
            Governor::SlowdownBudget { budget: -0.1 },
            Governor::SlowdownBudget { budget: f64::NAN },
            Governor::Fixed(0.0),
            Governor::Fixed(f64::INFINITY),
            Governor::PowerBudget(-300.0),
        ] {
            let err = bad.govern(&eng, &k).unwrap_err();
            assert!(err.to_string().contains("governor"), "{err}");
            assert!(bad.govern_phases(&eng, std::slice::from_ref(&k)).is_err());
        }
    }

    #[test]
    fn power_budget_governor_wraps_power_caps() {
        let g = Governor::PowerBudget(300.0)
            .govern(&engine(), &mem_kernel())
            .unwrap();
        assert!(g.execution.busy_power_w <= 300.0 + 1e-6);
    }
}
