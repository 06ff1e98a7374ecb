//! Schedule statistics: the aggregate views an operator (or the Fig. 10
//! analysis) needs from a job trace — node-hour shares per domain and size
//! class, duration distributions, and utilization.

use crate::gen::Schedule;
use crate::policy::JobSizeClass;

/// Aggregate statistics of one schedule.
#[derive(Debug, Clone)]
pub(crate) struct ScheduleStats {
    /// Jobs per (domain, size-class) cell.
    pub job_counts: Vec<[usize; 5]>,
    /// Node-seconds per (domain, size-class) cell.
    pub node_seconds: Vec<[f64; 5]>,
    /// Total node-seconds scheduled.
    pub total_node_seconds: f64,
    /// Fleet utilization in `[0, 1]`.
    pub utilization: f64,
    /// Job-duration quantiles `(p10, p50, p90)`, seconds.
    pub duration_quantiles_s: (f64, f64, f64),
}

/// Computes statistics over a schedule with `n_domains` catalog entries.
pub(crate) fn schedule_stats(schedule: &Schedule, n_domains: usize) -> ScheduleStats {
    let mut job_counts = vec![[0usize; 5]; n_domains];
    let mut node_seconds = vec![[0.0f64; 5]; n_domains];
    let mut total = 0.0;
    let mut durations: Vec<f64> = Vec::with_capacity(schedule.jobs.len());

    for j in &schedule.jobs {
        let ns = j.num_nodes as f64 * j.duration_s();
        if j.domain < n_domains {
            job_counts[j.domain][j.size_class.index()] += 1;
            node_seconds[j.domain][j.size_class.index()] += ns;
        }
        total += ns;
        durations.push(j.duration_s());
    }
    durations.sort_by(|a, b| a.partial_cmp(b).expect("no NaN durations"));
    let q = |p: f64| -> f64 {
        if durations.is_empty() {
            0.0
        } else {
            let idx = ((durations.len() - 1) as f64 * p).round() as usize;
            durations[idx]
        }
    };

    ScheduleStats {
        job_counts,
        node_seconds,
        total_node_seconds: total,
        utilization: schedule.utilization(),
        duration_quantiles_s: (q(0.1), q(0.5), q(0.9)),
    }
}

impl ScheduleStats {
    /// Node-hour share of a domain, in `[0, 1]`.
    pub(crate) fn domain_share(&self, domain: usize) -> f64 {
        if self.total_node_seconds == 0.0 {
            return 0.0;
        }
        self.node_seconds
            .get(domain)
            .map(|row| row.iter().sum::<f64>() / self.total_node_seconds)
            .unwrap_or(0.0)
    }

    /// Node-hour share of a size class, in `[0, 1]`.
    pub(crate) fn size_share(&self, size: JobSizeClass) -> f64 {
        if self.total_node_seconds == 0.0 {
            return 0.0;
        }
        self.node_seconds
            .iter()
            .map(|row| row[size.index()])
            .sum::<f64>()
            / self.total_node_seconds
    }

    /// Total job count.
    pub(crate) fn total_jobs(&self) -> usize {
        self.job_counts.iter().flat_map(|r| r.iter()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::catalog;
    use crate::gen::{generate, TraceParams};

    fn stats() -> (ScheduleStats, usize) {
        let cat = catalog();
        let s = generate(
            TraceParams {
                nodes: 32,
                duration_s: 6.0 * 86_400.0,
                seed: 8,
                min_job_s: 900.0,
            },
            &cat,
        );
        (schedule_stats(&s, cat.len()), s.jobs.len())
    }

    #[test]
    fn counts_and_shares_are_consistent() {
        let (st, n_jobs) = stats();
        assert_eq!(st.total_jobs(), n_jobs);
        let share_sum: f64 = (0..8).map(|d| st.domain_share(d)).sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "{share_sum}");
        let size_sum: f64 = JobSizeClass::all().iter().map(|&c| st.size_share(c)).sum();
        assert!((size_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn domain_shares_track_catalog_activity() {
        // The deficit scheduler keeps realized node-hour shares near the
        // catalog's activity targets.
        let (st, _) = stats();
        for (d, spec) in catalog().iter().enumerate() {
            assert!(
                (st.domain_share(d) - spec.activity).abs() < 0.06,
                "{}: share {} vs target {}",
                spec.code,
                st.domain_share(d),
                spec.activity
            );
        }
    }

    #[test]
    fn duration_quantiles_are_ordered_and_bounded() {
        let (st, _) = stats();
        let (p10, p50, p90) = st.duration_quantiles_s;
        assert!(p10 <= p50 && p50 <= p90);
        assert!(p10 >= 900.0 - 1e-9, "min job duration respected");
        assert!(p90 <= 12.0 * 3600.0 + 1e-6, "walltime limit respected");
    }

    #[test]
    fn utilization_is_high_after_backfill() {
        let (st, _) = stats();
        assert!(st.utilization > 0.95, "utilization {}", st.utilization);
    }
}
