//! The energy-savings projection (paper Sec. V-C, Tables V and VI).
//!
//! Method: the benchmark factors of Table III give, per cap setting, the
//! energy and runtime of the compute-characterizing (VAI) and
//! memory-characterizing (MB) benchmarks relative to uncapped execution.
//! The fleet decomposition gives the telemetered GPU energy per operating
//! mode.  Applying the factors to the cappable modes yields:
//!
//! * `S_m(c) = E_m * (1 - energy%(c, m) / 100)` — saved energy per mode
//!   (negative when the cap regresses, e.g. VAI at 700 MHz);
//! * `TS(c) = S_CI + S_MI`, reported against total fleet GPU energy;
//! * `ΔT(c)` — energy-weighted runtime increase over the whole fleet:
//!   `Σ_m (E_m / E_total) * (runtime%(c, m) - 100)`.  The paper does not
//!   publish its exact weighting; the energy weighting reproduces the
//!   published column's shape (≈2 % at 1500 MHz growing to double digits
//!   at 900 MHz);
//! * the `ΔT = 0` column counts only modes whose benchmark runtime did not
//!   regress (within 1 %) — the "savings without compromising performance"
//!   headline, which under frequency capping is the MI mode alone.

use pmss_error::PmssError;
use pmss_workloads::sweep::CapSetting;
use pmss_workloads::{Table3, Table3Row};

use crate::decompose::EnergyLedger;
use crate::modes::Region;

/// Runtime-regression tolerance for the `ΔT = 0` column, in percent.
pub(crate) const DT0_TOLERANCE_PCT: f64 = 1.0;

/// Energy inputs of a projection: telemetered GPU energy per mode.
#[derive(Debug, Clone, Copy)]
pub struct ProjectionInput {
    /// Energy observed in the compute-intensive region, joules.
    pub e_ci_j: f64,
    /// Energy observed in the memory-intensive region, joules.
    pub e_mi_j: f64,
    /// Total fleet GPU energy (all regions), joules.
    pub e_total_j: f64,
}

impl ProjectionInput {
    /// Builds the input from a ledger (all domains and sizes).
    pub fn from_ledger(ledger: &EnergyLedger) -> Self {
        let totals = ledger.region_totals();
        ProjectionInput {
            e_ci_j: totals[Region::ComputeIntensive.index()].joules,
            e_mi_j: totals[Region::MemoryIntensive.index()].joules,
            e_total_j: ledger.total().joules,
        }
    }

    /// Builds the input from a domain/size-filtered view of the ledger,
    /// keeping the *total* fleet energy as the reporting denominator (the
    /// paper's Table VI reports selective savings against the same
    /// 16 820 MWh total).
    pub fn from_ledger_filtered(
        ledger: &EnergyLedger,
        keep: impl FnMut(usize, pmss_sched::JobSizeClass) -> bool,
    ) -> Self {
        let totals = ledger.region_totals_filtered(keep);
        ProjectionInput {
            e_ci_j: totals[Region::ComputeIntensive.index()].joules,
            e_mi_j: totals[Region::MemoryIntensive.index()].joules,
            e_total_j: ledger.total().joules,
        }
    }

    /// Total energy in MWh.
    pub fn total_mwh(&self) -> f64 {
        self.e_total_j / pmss_gpu::consts::JOULES_PER_MWH
    }
}

/// One row of Table V / Table VI.
#[derive(Debug, Clone, Copy)]
pub struct ProjectionRow {
    /// The cap setting of this row.
    pub setting: CapSetting,
    /// Savings in the compute-intensive mode, MWh (may be negative).
    pub ci_mwh: f64,
    /// Savings in the memory-intensive mode, MWh.
    pub mi_mwh: f64,
    /// Combined total savings, MWh.
    pub ts_mwh: f64,
    /// Savings as a percentage of total fleet GPU energy.
    pub savings_pct: f64,
    /// Energy-weighted fleet runtime increase, percent.
    pub delta_t_pct: f64,
    /// Savings restricted to non-regressing modes, percent of total energy
    /// (the `ΔT = 0` column).
    pub savings_dt0_pct: f64,
}

/// Coverage-adjusted bounds on a projected savings figure.
///
/// When a fraction of the telemetry was lost or reconstructed, the
/// projection is only grounded on the observed time.  The honest statement
/// is an interval: the low bound assumes missing time saves nothing (only
/// the observed fraction of the projection materializes); the high bound
/// assumes missing time behaves like observed time (the nominal figure).
/// For negative nominal savings the roles swap so `lo <= hi` always holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SavingsBounds {
    /// Fraction of time backed by real samples, in `[0, 1]`.
    pub coverage: f64,
    /// Pessimistic savings, percent of total fleet GPU energy.
    pub lo_pct: f64,
    /// Optimistic savings, percent of total fleet GPU energy.
    pub hi_pct: f64,
}

impl SavingsBounds {
    fn of(nominal_pct: f64, coverage: f64) -> SavingsBounds {
        let coverage = coverage.clamp(0.0, 1.0);
        let scaled = nominal_pct * coverage;
        SavingsBounds {
            coverage,
            lo_pct: scaled.min(nominal_pct),
            hi_pct: scaled.max(nominal_pct),
        }
    }
}

impl ProjectionRow {
    /// Coverage-adjusted bounds on this row's no-slowdown (`ΔT = 0`)
    /// savings percentage.
    pub fn coverage_bounds_dt0(&self, coverage: f64) -> SavingsBounds {
        SavingsBounds::of(self.savings_dt0_pct, coverage)
    }
}

fn mwh(joules: f64) -> f64 {
    joules / pmss_gpu::consts::JOULES_PER_MWH
}

fn project_row(input: &ProjectionInput, row: &Table3Row) -> ProjectionRow {
    let s_ci = input.e_ci_j * (1.0 - row.vai.energy_pct / 100.0);
    let s_mi = input.e_mi_j * (1.0 - row.mb.energy_pct / 100.0);

    let delta_t = (input.e_ci_j / input.e_total_j) * (row.vai.runtime_pct - 100.0)
        + (input.e_mi_j / input.e_total_j) * (row.mb.runtime_pct - 100.0);

    let mut dt0 = 0.0;
    if row.vai.runtime_pct <= 100.0 + DT0_TOLERANCE_PCT {
        dt0 += s_ci;
    }
    if row.mb.runtime_pct <= 100.0 + DT0_TOLERANCE_PCT {
        dt0 += s_mi;
    }

    ProjectionRow {
        setting: row.setting,
        ci_mwh: mwh(s_ci),
        mi_mwh: mwh(s_mi),
        ts_mwh: mwh(s_ci + s_mi),
        savings_pct: 100.0 * (s_ci + s_mi) / input.e_total_j,
        delta_t_pct: delta_t,
        savings_dt0_pct: 100.0 * dt0 / input.e_total_j,
    }
}

/// The full Table V: frequency-cap rows (a) and power-cap rows (b),
/// excluding the uncapped baselines.
#[derive(Debug, Clone)]
pub struct Projection {
    /// Section (a): frequency caps 1500 → 700 MHz.
    pub freq_rows: Vec<ProjectionRow>,
    /// Section (b): power caps 500 → 100 W.
    pub power_rows: Vec<ProjectionRow>,
    /// The inputs used.
    pub input: ProjectionInput,
}

impl Projection {
    /// Row for a frequency cap, if present.
    pub fn freq_row(&self, mhz: f64) -> Option<&ProjectionRow> {
        self.freq_rows
            .iter()
            .find(|r| (r.setting.value() - mhz).abs() < 0.5)
    }

    /// The best total-savings row across both knobs.
    pub fn best_total(&self) -> &ProjectionRow {
        self.freq_rows
            .iter()
            .chain(&self.power_rows)
            .max_by(|a, b| a.ts_mwh.total_cmp(&b.ts_mwh))
            .expect("projection has at least one capped row by construction")
    }

    /// The best row among those with no runtime regression.
    pub fn best_free(&self) -> &ProjectionRow {
        self.freq_rows
            .iter()
            .chain(&self.power_rows)
            .max_by(|a, b| a.savings_dt0_pct.total_cmp(&b.savings_dt0_pct))
            .expect("projection has at least one capped row by construction")
    }
}

/// Projects savings for every capped setting of `table3` onto `input`.
///
/// Errors on empty fleet energy (a projection against zero energy is
/// meaningless) and on a factor table with no capped settings.
pub fn project(input: ProjectionInput, table3: &Table3) -> Result<Projection, PmssError> {
    if input.e_total_j.is_nan() || input.e_total_j <= 0.0 {
        return Err(PmssError::empty("fleet energy (e_total_j must be > 0)"));
    }
    let rows = |rows: &[Table3Row]| -> Vec<ProjectionRow> {
        rows.iter()
            .filter(|r| !r.setting.is_baseline())
            .map(|r| project_row(&input, r))
            .collect()
    };
    let p = Projection {
        freq_rows: rows(&table3.freq_rows),
        power_rows: rows(&table3.power_rows),
        input,
    };
    if p.freq_rows.is_empty() && p.power_rows.is_empty() {
        return Err(PmssError::empty("factor table has no capped settings"));
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmss_workloads::table3;

    /// A fleet with the paper's Table IV hour split and our model's mode
    /// mean powers, normalized to 16 820 MWh like the paper.
    fn paper_like_input() -> ProjectionInput {
        let total = 16_820.0 * pmss_gpu::consts::JOULES_PER_MWH;
        // Energy shares implied by hours x mean mode power (model values).
        let shares = [0.298 * 130.0, 0.495 * 300.0, 0.195 * 480.0, 0.011 * 570.0];
        let sum: f64 = shares.iter().sum();
        ProjectionInput {
            e_mi_j: total * shares[1] / sum,
            e_ci_j: total * shares[2] / sum,
            e_total_j: total,
        }
    }

    fn projection() -> Projection {
        project(paper_like_input(), &table3::compute_default()).unwrap()
    }

    #[test]
    fn savings_peak_at_900mhz_like_the_paper() {
        // Paper Table V(a): total savings rise to 8.8 % at 900 MHz and
        // collapse at 700 MHz.
        let p = projection();
        let s900 = p.freq_row(900.0).unwrap();
        let s700 = p.freq_row(700.0).unwrap();
        for mhz in [1500.0, 1300.0, 1100.0] {
            assert!(
                p.freq_row(mhz).unwrap().savings_pct <= s900.savings_pct + 0.3,
                "900 MHz should be near-best"
            );
        }
        assert!(s700.savings_pct < s900.savings_pct - 1.0, "700 collapses");
        assert!(
            (5.0..=12.0).contains(&s900.savings_pct),
            "900 MHz savings {}",
            s900.savings_pct
        );
    }

    #[test]
    fn ci_savings_go_negative_at_700mhz() {
        // Paper: C.I. column at 700 MHz is -129.7 MWh.
        let p = projection();
        assert!(p.freq_row(700.0).unwrap().ci_mwh < 0.0);
    }

    #[test]
    fn dt0_column_is_mi_only_under_frequency_caps() {
        // The VAI benchmark always regresses runtime under frequency caps,
        // so the "free" savings come from the MI mode alone.
        let p = projection();
        let r = p.freq_row(900.0).unwrap();
        assert!(
            (r.savings_dt0_pct
                - 100.0 * r.mi_mwh * pmss_gpu::consts::JOULES_PER_MWH / p.input.e_total_j / 1.0)
                .abs()
                < 1e-9
        );
        assert!(
            (4.0..=11.0).contains(&r.savings_dt0_pct),
            "free savings {}",
            r.savings_dt0_pct
        );
    }

    #[test]
    fn delta_t_grows_as_caps_tighten() {
        let p = projection();
        let mut prev = 0.0;
        for mhz in [1500.0, 1300.0, 1100.0, 900.0, 700.0] {
            let dt = p.freq_row(mhz).unwrap().delta_t_pct;
            assert!(dt >= prev - 1e-9, "ΔT not monotone at {mhz}");
            prev = dt;
        }
        let dt1500 = p.freq_row(1500.0).unwrap().delta_t_pct;
        assert!((0.5..6.0).contains(&dt1500), "ΔT at 1500: {dt1500}");
    }

    #[test]
    fn headline_best_free_savings_in_paper_ballpark() {
        // Paper headline: "up to about 8.5% without a performance
        // slowdown".
        let p = projection();
        let best = p.best_free();
        assert!(
            (5.0..=11.0).contains(&best.savings_dt0_pct),
            "best free {}",
            best.savings_dt0_pct
        );
    }

    #[test]
    fn power_caps_save_less_than_frequency_caps() {
        // Paper Sec. V-C: "applying a frequency cap to applications
        // provides maximum potential savings".
        let p = projection();
        let best_freq = p
            .freq_rows
            .iter()
            .map(|r| r.ts_mwh)
            .fold(f64::NEG_INFINITY, f64::max);
        let best_power = p
            .power_rows
            .iter()
            .map(|r| r.ts_mwh)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best_freq > best_power, "{best_freq} vs {best_power}");
    }

    #[test]
    fn coverage_bounds_bracket_the_nominal_savings() {
        let p = projection();
        let r = p.freq_row(900.0).unwrap();
        // Full coverage: the interval collapses onto the nominal figure.
        let full = SavingsBounds::of(r.savings_pct, 1.0);
        assert_eq!(full.lo_pct, r.savings_pct);
        assert_eq!(full.hi_pct, r.savings_pct);
        // Partial coverage: missing time saves nothing in the low bound.
        let part = SavingsBounds::of(r.savings_pct, 0.8);
        assert_eq!(part.lo_pct, 0.8 * r.savings_pct);
        assert_eq!(part.hi_pct, r.savings_pct);
        assert!(part.lo_pct <= part.hi_pct);
        // Negative savings (700 MHz C.I. regression) keep lo <= hi.
        let neg = SavingsBounds::of(-3.0, 0.5);
        assert_eq!(neg.lo_pct, -3.0);
        assert_eq!(neg.hi_pct, -1.5);
        // Out-of-range coverage clamps instead of extrapolating.
        assert_eq!(SavingsBounds::of(r.savings_pct, 1.7).coverage, 1.0);
        assert_eq!(r.coverage_bounds_dt0(0.9).hi_pct, r.savings_dt0_pct);
    }

    #[test]
    fn totals_are_consistent() {
        let p = projection();
        for r in p.freq_rows.iter().chain(&p.power_rows) {
            assert!((r.ts_mwh - (r.ci_mwh + r.mi_mwh)).abs() < 1e-9);
            let pct = 100.0 * r.ts_mwh / p.input.total_mwh();
            assert!((pct - r.savings_pct).abs() < 1e-9);
        }
    }
}
