//! Capping-policy exploration: which (domain, job-size) cells should an
//! operator actually cap?
//!
//! The paper demonstrates (Table VI) that capping a hand-picked subset of
//! domains and sizes keeps most of the savings.  This module turns that
//! observation into a tool: rank all cells by projected savings, build the
//! minimal policy that reaches a savings target, and report the coverage /
//! disruption trade-off curve.

use pmss_sched::JobSizeClass;
use pmss_workloads::Table3Row;

use crate::decompose::EnergyLedger;
use crate::modes::Region;

/// One candidate cappable cell.
#[derive(Debug, Clone, Copy)]
pub struct CellSaving {
    /// Domain index (catalog order).
    pub domain: usize,
    /// Job-size class.
    pub size: JobSizeClass,
    /// Projected savings if this cell is capped, joules.
    pub saving_j: f64,
    /// GPU time affected (MI + CI seconds in the cell).
    pub affected_s: f64,
}

/// A selective capping policy: the set of cells the cap applies to.
#[derive(Debug, Clone)]
pub struct CappingPolicy {
    /// Selected cells, in descending projected-savings order.
    pub cells: Vec<CellSaving>,
    /// Total projected savings of the policy, joules.
    pub saving_j: f64,
    /// Projected savings of capping *everything*, joules.
    pub full_saving_j: f64,
    /// GPU time the policy touches, seconds.
    pub affected_s: f64,
    /// GPU time capping everything would touch, seconds.
    pub full_affected_s: f64,
}

impl CappingPolicy {
    /// Fraction of the full-system savings this policy keeps.
    pub fn coverage(&self) -> f64 {
        if self.full_saving_j == 0.0 {
            0.0
        } else {
            self.saving_j / self.full_saving_j
        }
    }

    /// Fraction of cappable GPU time the policy touches — the "disruption"
    /// an operator pays in capped jobs.
    pub fn disruption(&self) -> f64 {
        if self.full_affected_s == 0.0 {
            0.0
        } else {
            self.affected_s / self.full_affected_s
        }
    }
}

/// Projected savings per cell for the cap characterized by `factors`.
pub(crate) fn rank_cells(ledger: &EnergyLedger, factors: &Table3Row) -> Vec<CellSaving> {
    let ci_scale = 1.0 - factors.vai.energy_pct / 100.0;
    let mi_scale = 1.0 - factors.mb.energy_pct / 100.0;
    let mut cells = Vec::new();
    for domain in 0..ledger.num_domains() {
        for size in JobSizeClass::all() {
            let ci = ledger.cell(domain, size, Region::ComputeIntensive);
            let mi = ledger.cell(domain, size, Region::MemoryIntensive);
            let saving = ci.joules * ci_scale + mi.joules * mi_scale;
            if ci.seconds + mi.seconds > 0.0 {
                cells.push(CellSaving {
                    domain,
                    size,
                    saving_j: saving,
                    affected_s: ci.seconds + mi.seconds,
                });
            }
        }
    }
    cells.sort_by(|a, b| b.saving_j.total_cmp(&a.saving_j));
    cells
}

/// Builds the smallest cell set (greedy by projected savings) reaching
/// `target` fraction of the full-system savings.
pub fn minimal_policy(ledger: &EnergyLedger, factors: &Table3Row, target: f64) -> CappingPolicy {
    assert!((0.0..=1.0).contains(&target), "target must be a fraction");
    let ranked = rank_cells(ledger, factors);
    let full_saving_j: f64 = ranked.iter().map(|c| c.saving_j).sum();
    let full_affected_s: f64 = ranked.iter().map(|c| c.affected_s).sum();

    let mut cells = Vec::new();
    let mut saving = 0.0;
    let mut affected = 0.0;
    for cell in ranked {
        if saving >= target * full_saving_j {
            break;
        }
        saving += cell.saving_j;
        affected += cell.affected_s;
        cells.push(cell);
    }
    CappingPolicy {
        cells,
        saving_j: saving,
        full_saving_j,
        affected_s: affected,
        full_affected_s,
    }
}

/// The coverage/disruption trade-off curve: policy coverage at each prefix
/// of the savings ranking.  Returns `(cells_used, coverage, disruption)`
/// triples.
pub fn tradeoff_curve(ledger: &EnergyLedger, factors: &Table3Row) -> Vec<(usize, f64, f64)> {
    let ranked = rank_cells(ledger, factors);
    let full_saving: f64 = ranked.iter().map(|c| c.saving_j).sum();
    let full_affected: f64 = ranked.iter().map(|c| c.affected_s).sum();
    if full_saving == 0.0 {
        return Vec::new();
    }
    let mut saving = 0.0;
    let mut affected = 0.0;
    ranked
        .iter()
        .enumerate()
        .map(|(i, c)| {
            saving += c.saving_j;
            affected += c.affected_s;
            (i + 1, saving / full_saving, affected / full_affected)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmss_telemetry::{FleetObserver, SampleCtx};
    use pmss_workloads::table3;

    fn ledger() -> EnergyLedger {
        let mut l = EnergyLedger::new(15.0);
        // Domain 0, size A: heavy MI usage.  Domain 1, size E: light.
        let mk = |domain: usize, size: JobSizeClass| pmss_sched::Job {
            id: 1,
            domain,
            project_id: "X".into(),
            num_nodes: 1,
            size_class: size,
            begin_s: 0.0,
            end_s: 1.0,
            app_class: pmss_workloads::AppClass::Mixed,
            seed: 0,
        };
        let big = mk(0, JobSizeClass::A);
        let small = mk(1, JobSizeClass::E);
        for i in 0..100 {
            l.gpu_sample(
                &SampleCtx {
                    node: 0,
                    slot: 0,
                    sku: 0,
                    job: Some(&big),
                },
                i as f64,
                320.0,
            );
        }
        for i in 0..5 {
            l.gpu_sample(
                &SampleCtx {
                    node: 0,
                    slot: 0,
                    sku: 0,
                    job: Some(&small),
                },
                i as f64,
                320.0,
            );
        }
        l
    }

    fn factors() -> pmss_workloads::Table3Row {
        *table3::compute_default().freq_row(900.0).unwrap()
    }

    #[test]
    fn ranking_orders_by_savings() {
        let r = rank_cells(&ledger(), &factors());
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].domain, 0);
        assert!(r[0].saving_j > r[1].saving_j);
    }

    #[test]
    fn minimal_policy_hits_target_with_fewest_cells() {
        let l = ledger();
        let f = factors();
        let p = minimal_policy(&l, &f, 0.9);
        assert_eq!(p.cells.len(), 1, "one hot cell suffices for 90%");
        assert!(p.coverage() >= 0.9);
        assert!(p.disruption() < 1.0);

        let all = minimal_policy(&l, &f, 1.0);
        assert_eq!(all.cells.len(), 2);
        assert!((all.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tradeoff_curve_is_monotone_and_concave_ish() {
        let curve = tradeoff_curve(&ledger(), &factors());
        assert_eq!(curve.len(), 2);
        assert!(curve[0].1 > 0.9, "first cell dominates: {curve:?}");
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].2 >= w[0].2);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_yields_empty_policy() {
        let l = EnergyLedger::new(15.0);
        let p = minimal_policy(&l, &factors(), 0.5);
        assert!(p.cells.is_empty());
        assert_eq!(p.coverage(), 0.0);
    }
}
