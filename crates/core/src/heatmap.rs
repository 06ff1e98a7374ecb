//! Domain x job-size heatmaps (paper Fig. 10): total GPU energy used and
//! estimated energy saved under a cap, per science domain and size class.

use pmss_sched::JobSizeClass;
use pmss_workloads::Table3Row;

use crate::decompose::EnergyLedger;
use crate::modes::Region;

/// One heatmap: rows are domains (catalog order), columns are size classes
/// A–E; values in MWh.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// Row values per domain.
    pub rows: Vec<[f64; 5]>,
}

impl Heatmap {
    /// Sum of all cells.
    pub fn total(&self) -> f64 {
        self.rows.iter().flat_map(|r| r.iter()).sum()
    }

    /// Cells above `threshold`, as `(domain, size)` — the paper's "red
    /// cells" selection feeding Table VI.
    pub(crate) fn hot_cells(&self, threshold: f64) -> Vec<(usize, JobSizeClass)> {
        let mut out = Vec::new();
        for (d, row) in self.rows.iter().enumerate() {
            for (s, &v) in row.iter().enumerate() {
                if v > threshold {
                    out.push((d, JobSizeClass::all()[s]));
                }
            }
        }
        out
    }

    /// Domains owning at least one hot cell.
    pub fn hot_domains(&self, threshold: f64) -> Vec<usize> {
        let mut doms: Vec<usize> = self.hot_cells(threshold).iter().map(|&(d, _)| d).collect();
        doms.sort_unstable();
        doms.dedup();
        doms
    }
}

/// Fig. 10(a): energy used per (domain, size), in MWh.
pub fn energy_used(ledger: &EnergyLedger) -> Heatmap {
    let rows = ledger
        .energy_matrix_j()
        .into_iter()
        .map(|r| {
            let mut row = [0.0; 5];
            for (o, j) in row.iter_mut().zip(r) {
                *o = j / pmss_gpu::consts::JOULES_PER_MWH;
            }
            row
        })
        .collect();
    Heatmap { rows }
}

/// Fig. 10(b): estimated energy saved per (domain, size) under the cap
/// characterized by `factors` (e.g. the 1100 MHz Table III row), in MWh.
pub fn energy_saved(ledger: &EnergyLedger, factors: &Table3Row) -> Heatmap {
    let ci_scale = 1.0 - factors.vai.energy_pct / 100.0;
    let mi_scale = 1.0 - factors.mb.energy_pct / 100.0;
    let rows = (0..ledger.num_domains())
        .map(|d| {
            let mut row = [0.0; 5];
            for (s, out) in row.iter_mut().enumerate() {
                let size = JobSizeClass::all()[s];
                let ci = ledger.cell(d, size, Region::ComputeIntensive).joules * ci_scale;
                let mi = ledger.cell(d, size, Region::MemoryIntensive).joules * mi_scale;
                *out = (ci + mi) / pmss_gpu::consts::JOULES_PER_MWH;
            }
            row
        })
        .collect();
    Heatmap { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmss_telemetry::{FleetObserver, SampleCtx};
    use pmss_workloads::table3;

    fn ledger_with(domain: usize, size: JobSizeClass, powers: &[f64]) -> EnergyLedger {
        let mut l = EnergyLedger::new(15.0);
        let job = pmss_sched::Job {
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
        for (i, &w) in powers.iter().enumerate() {
            l.gpu_sample(
                &SampleCtx {
                    node: 0,
                    slot: 0,
                    sku: 0,
                    job: Some(&job),
                },
                i as f64 * 15.0,
                w,
            );
        }
        l
    }

    #[test]
    fn used_heatmap_accumulates_cell_energy() {
        let l = ledger_with(1, JobSizeClass::B, &[300.0, 300.0]);
        let h = energy_used(&l);
        let expect = 2.0 * 300.0 * 15.0 / pmss_gpu::consts::JOULES_PER_MWH;
        assert!((h.rows[1][JobSizeClass::B.index()] - expect).abs() < 1e-15);
        assert!((h.total() - expect).abs() < 1e-15);
    }

    #[test]
    fn saved_heatmap_applies_mode_factors() {
        let l = ledger_with(0, JobSizeClass::A, &[300.0, 500.0, 100.0]);
        let t3 = table3::compute_default();
        let row = t3.freq_row(1100.0).unwrap();
        let h = energy_saved(&l, row);
        let mi_j = 300.0 * 15.0;
        let ci_j = 500.0 * 15.0;
        let expect = (mi_j * (1.0 - row.mb.energy_pct / 100.0)
            + ci_j * (1.0 - row.vai.energy_pct / 100.0))
            / pmss_gpu::consts::JOULES_PER_MWH;
        assert!((h.rows[0][JobSizeClass::A.index()] - expect).abs() < 1e-15);
        // The latency-bound 100 W sample contributes nothing.
    }

    #[test]
    fn hot_cells_select_above_threshold() {
        let mut l = ledger_with(0, JobSizeClass::A, &[500.0; 100]);
        let l2 = ledger_with(1, JobSizeClass::E, &[500.0; 2]);
        l.merge(l2);
        let h = energy_used(&l);
        let threshold = h.rows[1][JobSizeClass::E.index()] * 10.0;
        let hot = h.hot_cells(threshold);
        assert_eq!(hot, vec![(0, JobSizeClass::A)]);
        assert_eq!(h.hot_domains(threshold), vec![0]);
    }
}
