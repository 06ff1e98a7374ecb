//! What-if analysis: per-domain cap assignment.
//!
//! The paper applies one cap system-wide (Table V) or to a hand-picked
//! subset (Table VI).  A center operator can do better: each science
//! domain gets the cap that maximizes *its* projected savings subject to a
//! per-domain slowdown bound.  This module searches that space — a direct
//! extension of the paper's "can be applied to selected domains" remark.

use pmss_error::PmssError;
use pmss_workloads::sweep::CapSetting;
use pmss_workloads::{Table3, Table3Row};

use crate::decompose::EnergyLedger;
use crate::modes::Region;

/// Projected effect of one cap on one domain.
#[derive(Debug, Clone, Copy)]
pub struct DomainCapEffect {
    /// The cap applied.
    pub setting: CapSetting,
    /// Projected savings, joules.
    pub saving_j: f64,
    /// Energy-weighted runtime increase within the domain, percent.
    pub delta_t_pct: f64,
}

/// A per-domain cap assignment.
#[derive(Debug, Clone)]
pub struct MixedPolicy {
    /// Chosen cap per domain (`None` = leave uncapped).
    pub assignment: Vec<Option<DomainCapEffect>>,
    /// Total projected savings, joules.
    pub saving_j: f64,
}

impl MixedPolicy {
    /// Savings as a fraction of `total_j`.
    pub fn savings_fraction(&self, total_j: f64) -> f64 {
        if total_j > 0.0 {
            self.saving_j / total_j
        } else {
            0.0
        }
    }
}

/// Per-domain energy in the cappable modes.
fn domain_mode_energy(ledger: &EnergyLedger, domain: usize) -> (f64, f64, f64) {
    let totals = ledger.region_totals_filtered(|d, _| d == domain);
    let e_ci = totals[Region::ComputeIntensive.index()].joules;
    let e_mi = totals[Region::MemoryIntensive.index()].joules;
    let e_all: f64 = totals.iter().map(|c| c.joules).sum();
    (e_ci, e_mi, e_all)
}

/// Effect of applying the cap in `row` to one domain.
pub(crate) fn domain_effect(
    ledger: &EnergyLedger,
    domain: usize,
    row: &Table3Row,
) -> DomainCapEffect {
    let (e_ci, e_mi, e_all) = domain_mode_energy(ledger, domain);
    let saving =
        e_ci * (1.0 - row.vai.energy_pct / 100.0) + e_mi * (1.0 - row.mb.energy_pct / 100.0);
    let delta_t = if e_all > 0.0 {
        (e_ci / e_all) * (row.vai.runtime_pct - 100.0)
            + (e_mi / e_all) * (row.mb.runtime_pct - 100.0)
    } else {
        0.0
    };
    DomainCapEffect {
        setting: row.setting,
        saving_j: saving,
        delta_t_pct: delta_t,
    }
}

/// For each domain, the best frequency cap subject to a per-domain
/// slowdown bound (`max_delta_t_pct`); domains with no admissible
/// positive-saving cap stay uncapped.
pub fn optimize_per_domain(
    ledger: &EnergyLedger,
    t3: &Table3,
    max_delta_t_pct: f64,
) -> MixedPolicy {
    let mut assignment = Vec::with_capacity(ledger.num_domains());
    let mut total_saving = 0.0;
    for domain in 0..ledger.num_domains() {
        let best = t3
            .freq_rows
            .iter()
            .filter(|r| !r.setting.is_baseline())
            .map(|r| domain_effect(ledger, domain, r))
            .filter(|e| e.delta_t_pct <= max_delta_t_pct + 1e-12 && e.saving_j > 0.0)
            .max_by(|a, b| a.saving_j.total_cmp(&b.saving_j));
        if let Some(e) = best {
            total_saving += e.saving_j;
        }
        assignment.push(best);
    }
    MixedPolicy {
        assignment,
        saving_j: total_saving,
    }
}

/// Savings of the best single *uniform* frequency cap under the same
/// per-domain slowdown bound (domains whose ΔT would exceed the bound are
/// exempted, as an operator would).
pub fn best_uniform(
    ledger: &EnergyLedger,
    t3: &Table3,
    max_delta_t_pct: f64,
) -> Result<(CapSetting, f64), PmssError> {
    t3.freq_rows
        .iter()
        .filter(|r| !r.setting.is_baseline())
        .map(|r| {
            let saving: f64 = (0..ledger.num_domains())
                .map(|d| {
                    let e = domain_effect(ledger, d, r);
                    if e.delta_t_pct <= max_delta_t_pct + 1e-12 && e.saving_j > 0.0 {
                        e.saving_j
                    } else {
                        0.0
                    }
                })
                .sum();
            (r.setting, saving)
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .ok_or_else(|| PmssError::empty("factor table has no capped frequency settings"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmss_sched::JobSizeClass;
    use pmss_telemetry::{FleetObserver, SampleCtx};
    use pmss_workloads::table3;

    /// Domain 0: pure MI (fully cappable for free).  Domain 1: pure CI
    /// (savings cost runtime).  Domain 2: latency-bound (nothing to save).
    fn ledger() -> EnergyLedger {
        let mut l = EnergyLedger::new(15.0);
        let mk = |domain: usize| pmss_sched::Job {
            id: domain as u64 + 1,
            domain,
            project_id: "T".into(),
            num_nodes: 1,
            size_class: JobSizeClass::C,
            begin_s: 0.0,
            end_s: 1.0,
            app_class: pmss_workloads::AppClass::Mixed,
            seed: 0,
        };
        let jobs = [mk(0), mk(1), mk(2)];
        for _ in 0..50 {
            l.gpu_sample(
                &SampleCtx {
                    node: 0,
                    slot: 0,
                    sku: 0,
                    job: Some(&jobs[0]),
                },
                0.0,
                320.0,
            );
            l.gpu_sample(
                &SampleCtx {
                    node: 0,
                    slot: 0,
                    sku: 0,
                    job: Some(&jobs[1]),
                },
                0.0,
                480.0,
            );
            l.gpu_sample(
                &SampleCtx {
                    node: 0,
                    slot: 0,
                    sku: 0,
                    job: Some(&jobs[2]),
                },
                0.0,
                120.0,
            );
        }
        l
    }

    #[test]
    fn mi_domain_gets_a_deep_cap_ci_domain_a_shallow_one() {
        let l = ledger();
        let t3 = table3::compute_default();
        let policy = optimize_per_domain(&l, &t3, 5.0);
        // MI domain: free savings at a deep cap.
        let mi = policy.assignment[0].expect("MI domain capped");
        assert!(mi.setting.value() <= 1100.0, "MI cap {:?}", mi.setting);
        assert!(mi.delta_t_pct <= 5.0);
        // CI domain: a 5% budget admits at most a shallow cap (VAI runtime
        // at 1500 MHz is already +12%), so it stays uncapped.
        assert!(policy.assignment[1].is_none(), "{:?}", policy.assignment[1]);
        // Latency domain: nothing to save.
        assert!(policy.assignment[2].is_none());
    }

    #[test]
    fn mixed_policy_dominates_uniform_policy() {
        let l = ledger();
        let t3 = table3::compute_default();
        for budget in [2.0, 10.0, 40.0] {
            let mixed = optimize_per_domain(&l, &t3, budget);
            let (_, uniform) = best_uniform(&l, &t3, budget).unwrap();
            assert!(
                mixed.saving_j >= uniform - 1e-9,
                "budget {budget}: mixed {} < uniform {uniform}",
                mixed.saving_j
            );
        }
    }

    #[test]
    fn looser_budgets_never_save_less() {
        let l = ledger();
        let t3 = table3::compute_default();
        let mut prev = -1.0;
        for budget in [0.0, 5.0, 15.0, 50.0, 100.0] {
            let p = optimize_per_domain(&l, &t3, budget);
            assert!(p.saving_j >= prev - 1e-9, "budget {budget}");
            prev = p.saving_j;
        }
    }

    #[test]
    fn effects_are_additive_over_domains() {
        let l = ledger();
        let t3 = table3::compute_default();
        let row = t3.freq_row(900.0).unwrap();
        let sum: f64 = (0..3).map(|d| domain_effect(&l, d, row).saving_j).sum();
        let input = crate::project::ProjectionInput::from_ledger_filtered(&l, |_, _| true);
        let total = input.e_ci_j * (1.0 - row.vai.energy_pct / 100.0)
            + input.e_mi_j * (1.0 - row.mb.energy_pct / 100.0);
        assert!((sum - total).abs() < 1e-6 * total.abs().max(1.0));
    }
}
