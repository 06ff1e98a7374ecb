//! Synthetic job-trace generation: the stand-in for three months of
//! Frontier SLURM history.
//!
//! A greedy backfilling placement fills a fleet of `nodes` nodes over
//! `duration_s` seconds: jobs draw a science domain (by activity share), a
//! size class (by the domain's size bias, Table VII ranges), a walltime
//! (bounded by the class limit), and a workload class (by the domain's
//! mixture).  The output carries exactly the fields the paper's Table II
//! lists for the job-scheduler log (b) and the per-node scheduler data (c).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pmss_workloads::AppClass;

use crate::domains::DomainSpec;
use crate::policy::{JobSizeClass, FRONTIER_NODES};

/// One scheduled job — the Table II(b) record plus the synthesis metadata.
#[derive(Debug, Clone)]
pub struct Job {
    /// Unique job id.
    pub id: u64,
    /// Index into the domain catalog.
    pub domain: usize,
    /// Project id, `<domain code><number>` (the paper derives the science
    /// domain from this prefix).
    pub project_id: String,
    /// Allocated node count.
    pub num_nodes: usize,
    /// Size class (Table VII).
    pub size_class: JobSizeClass,
    /// Start time, seconds from trace begin.
    pub begin_s: f64,
    /// End time, seconds from trace begin.
    pub end_s: f64,
    /// Workload archetype driving the phase synthesis.
    pub app_class: AppClass,
    /// Per-job RNG seed for reproducible phase synthesis.
    pub seed: u64,
}

impl Job {
    /// Job duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.begin_s
    }
}

/// Per-node placement record — Table II(c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Job index into [`Schedule::jobs`].
    pub job: usize,
    /// Start time on this node, in seconds.
    pub begin_s: f64,
    /// End time on this node, in seconds.
    pub end_s: f64,
}

/// A complete synthetic trace: the job log plus per-node timelines.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// All jobs, in start order.
    pub jobs: Vec<Job>,
    /// Per-node placements, each sorted by start time and non-overlapping.
    pub per_node: Vec<Vec<Placement>>,
    /// Trace horizon, in seconds.
    pub duration_s: f64,
}

impl Schedule {
    /// Total scheduled node-seconds divided by available node-seconds.
    #[cfg(test)]
    pub(crate) fn utilization(&self) -> f64 {
        let used: f64 = self
            .per_node
            .iter()
            .flat_map(|p| p.iter().map(|pl| pl.end_s - pl.begin_s))
            .sum();
        used / (self.per_node.len() as f64 * self.duration_s)
    }
}

/// Trace-generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct TraceParams {
    /// Fleet size in nodes.  The paper's system has 9408; experiments
    /// default to a scaled-down fleet and extrapolate.
    pub nodes: usize,
    /// Trace horizon in seconds (the paper: ~3 months).
    pub duration_s: f64,
    /// RNG seed.
    pub seed: u64,
    /// Minimum job duration, seconds.
    pub min_job_s: f64,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            nodes: 64,
            duration_s: 7.0 * 86_400.0,
            seed: 2024,
            min_job_s: 900.0,
        }
    }
}

fn sample_weighted<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

/// Generates a schedule over `domains` with greedy earliest-fit placement.
pub fn generate(params: TraceParams, domains: &[DomainSpec]) -> Schedule {
    assert!(params.nodes >= 1 && params.duration_s > 0.0);
    let mut rng = StdRng::seed_from_u64(params.seed);

    // free_at[i]: time node i becomes available.
    let mut free_at = vec![0.0f64; params.nodes];
    let mut per_node: Vec<Vec<Placement>> = vec![Vec::new(); params.nodes];
    let mut jobs: Vec<Job> = Vec::new();

    // `activity` is a *GPU-hour* share, but the loop schedules *jobs* of
    // wildly different node-second footprints.  Domain selection is
    // therefore deficit-driven: each new job goes to the domain furthest
    // below its target share of the node-seconds scheduled so far.  This
    // keeps the realized shares on target at any trace length — an iid
    // draw would need thousands of jobs to converge.
    let mut ns_by_domain = vec![0.0f64; domains.len()];
    let mut total_ns = 0.0f64;
    // Same deficit logic one level down: workload classes within a domain.
    let mut ns_by_class: Vec<Vec<f64>> = domains.iter().map(|d| vec![0.0; d.mix.len()]).collect();

    loop {
        // Earliest-available nodes first.
        let mut order: Vec<usize> = (0..params.nodes).collect();
        order.sort_by(|&a, &b| free_at[a].total_cmp(&free_at[b]));
        let earliest = free_at[order[0]];
        if earliest >= params.duration_s {
            break;
        }

        let deficit = |d: usize| domains[d].activity * total_ns - ns_by_domain[d];
        let d_idx = (0..domains.len())
            .max_by(|&a, &b| deficit(a).total_cmp(&deficit(b)))
            .expect("non-empty catalog");
        let dom = &domains[d_idx];

        // Size class by domain bias, node count uniform within the class
        // range (clamped to the fleet).
        let class = JobSizeClass::all()[sample_weighted(&dom.size_weights, &mut rng)];
        let (lo, hi) = class.node_range();
        let want = rng.gen_range(lo..=hi);
        // The simulated fleet is a scaled-down Frontier: a job keeps its
        // *fractional* footprint of the machine, so the co-scheduling
        // structure (and the GPU-hour shares per domain and size class)
        // survive the scale-down.  `num_nodes` records the simulated
        // allocation; `size_class` keeps the paper-scale request.
        let scale = params.nodes as f64 / FRONTIER_NODES as f64;
        let num_nodes = ((want as f64 * scale).ceil() as usize).clamp(1, params.nodes);

        // Walltime: uniform between the minimum and the class limit, capped
        // by the remaining horizon.
        let max_s = class.max_walltime_h() * 3600.0;
        let dur = rng
            .gen_range(params.min_job_s..=max_s.max(params.min_job_s + 1.0))
            .min(params.duration_s);

        let picked = &order[..num_nodes];
        let begin = picked
            .iter()
            .map(|&n| free_at[n])
            .fold(0.0f64, f64::max)
            .max(earliest);
        if begin >= params.duration_s {
            // The earliest node still had room but the co-allocation does
            // not; retry with whatever fits next round.
            let n0 = order[0];
            free_at[n0] = params.duration_s;
            continue;
        }
        let end = (begin + dur).min(params.duration_s);

        let job_idx = jobs.len();
        let id = job_idx as u64 + 1;
        // Deficit with one-job lookahead: jobs are lumpy relative to a
        // domain's total, so the class choice accounts for this job's own
        // node-seconds (choose the class whose post-assignment deficit
        // stays largest, i.e. argmax deficit_c + ns * weight_c).
        let ns_preview = num_nodes as f64 * (end - begin);
        let deficit = |c: usize| {
            dom.mix[c].1 * ns_by_domain[d_idx] - ns_by_class[d_idx][c] + ns_preview * dom.mix[c].1
        };
        let class_idx = (0..dom.mix.len())
            .max_by(|&a, &b| deficit(a).total_cmp(&deficit(b)))
            .expect("non-empty mix");
        jobs.push(Job {
            id,
            domain: d_idx,
            project_id: format!("{}{:03}", dom.code, 100 + (rng.gen_range(0..20))),
            num_nodes,
            size_class: class,
            begin_s: begin,
            end_s: end,
            app_class: dom.mix[class_idx].0,
            seed: rng.gen(),
        });
        for &n in picked {
            per_node[n].push(Placement {
                job: job_idx,
                begin_s: begin,
                end_s: end,
            });
            free_at[n] = end;
        }
        let ns = num_nodes as f64 * (end - begin);
        ns_by_domain[d_idx] += ns;
        ns_by_class[d_idx][class_idx] += ns;
        total_ns += ns;
    }

    // Backfill: real schedulers fill co-allocation gaps with small jobs.
    // Each gap on a node's timeline becomes a chain of single-node E-class
    // jobs, keeping fleet utilization near the >90 % of the production
    // system and populating the small-job rows of the Fig. 10 heatmaps.
    #[allow(clippy::needless_range_loop)] // the body mutates per_node[node]
    for node in 0..params.nodes {
        let mut gaps: Vec<(f64, f64)> = Vec::new();
        let mut t = 0.0f64;
        for p in &per_node[node] {
            if p.begin_s - t >= params.min_job_s {
                gaps.push((t, p.begin_s));
            }
            t = p.end_s;
        }
        if params.duration_s - t >= params.min_job_s {
            gaps.push((t, params.duration_s));
        }
        for (gap_lo, gap_hi) in gaps {
            let mut cursor = gap_lo;
            while gap_hi - cursor >= params.min_job_s {
                let class = JobSizeClass::E;
                let max_s = (class.max_walltime_h() * 3600.0).min(gap_hi - cursor);
                let dur = if max_s > params.min_job_s {
                    rng.gen_range(params.min_job_s..=max_s)
                } else {
                    max_s
                };
                let end = cursor + dur;

                let deficit = |d: usize| domains[d].activity * total_ns - ns_by_domain[d];
                let d_idx = (0..domains.len())
                    .max_by(|&a, &b| deficit(a).total_cmp(&deficit(b)))
                    .expect("non-empty catalog");
                let dom = &domains[d_idx];
                let ns_preview = dur;
                let deficit = |c: usize| {
                    dom.mix[c].1 * ns_by_domain[d_idx] - ns_by_class[d_idx][c]
                        + ns_preview * dom.mix[c].1
                };
                let class_idx = (0..dom.mix.len())
                    .max_by(|&a, &b| deficit(a).total_cmp(&deficit(b)))
                    .expect("non-empty mix");

                let job_idx = jobs.len();
                jobs.push(Job {
                    id: job_idx as u64 + 1,
                    domain: d_idx,
                    project_id: format!("{}{:03}", dom.code, 100 + (rng.gen_range(0..20))),
                    num_nodes: 1,
                    size_class: class,
                    begin_s: cursor,
                    end_s: end,
                    app_class: dom.mix[class_idx].0,
                    seed: rng.gen(),
                });
                per_node[node].push(Placement {
                    job: job_idx,
                    begin_s: cursor,
                    end_s: end,
                });
                ns_by_domain[d_idx] += dur;
                ns_by_class[d_idx][class_idx] += dur;
                total_ns += dur;
                cursor = end;
            }
        }
    }

    jobs.sort_by(|a, b| a.begin_s.total_cmp(&b.begin_s));
    // Re-index placements after the sort.
    let mut index_of_id = vec![0usize; jobs.len() + 1];
    for (i, j) in jobs.iter().enumerate() {
        index_of_id[j.id as usize] = i;
    }
    for node in &mut per_node {
        for p in node.iter_mut() {
            // placements recorded pre-sort job indices == id-1.
            p.job = index_of_id[p.job + 1];
        }
        node.sort_by(|a, b| a.begin_s.total_cmp(&b.begin_s));
    }

    Schedule {
        jobs,
        per_node,
        duration_s: params.duration_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::catalog;

    fn small_schedule() -> Schedule {
        generate(
            TraceParams {
                nodes: 16,
                duration_s: 86_400.0,
                seed: 7,
                min_job_s: 600.0,
            },
            &catalog(),
        )
    }

    #[test]
    fn placements_never_overlap_per_node() {
        let s = small_schedule();
        for node in &s.per_node {
            for w in node.windows(2) {
                assert!(
                    w[1].begin_s >= w[0].end_s - 1e-9,
                    "overlap: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn utilization_is_high() {
        let s = small_schedule();
        assert!(s.utilization() > 0.85, "utilization {}", s.utilization());
        assert!(s.utilization() <= 1.0 + 1e-9);
    }

    #[test]
    fn job_fields_are_consistent() {
        let s = small_schedule();
        assert!(!s.jobs.is_empty());
        let cat = catalog();
        for j in &s.jobs {
            assert!(j.end_s > j.begin_s);
            assert!(j.end_s <= s.duration_s + 1e-9);
            assert!(j.num_nodes >= 1 && j.num_nodes <= 16);
            assert!(j.project_id.starts_with(cat[j.domain].code));
            // On the scaled fleet every class is clamped to <= nodes; the
            // recorded class is the *requested* one.
            assert!(j.duration_s() <= j.size_class.max_walltime_h() * 3600.0 + 1e-6);
        }
    }

    #[test]
    fn placements_reference_their_jobs() {
        let s = small_schedule();
        for node in &s.per_node {
            for p in node {
                let j = &s.jobs[p.job];
                assert_eq!(p.begin_s, j.begin_s);
                assert_eq!(p.end_s, j.end_s);
            }
        }
        // Every job appears on exactly num_nodes (clamped) node timelines.
        let mut counts = vec![0usize; s.jobs.len()];
        for node in &s.per_node {
            for p in node {
                counts[p.job] += 1;
            }
        }
        for (j, &c) in s.jobs.iter().zip(&counts) {
            assert_eq!(c, j.num_nodes, "job {} placement count", j.id);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_schedule();
        let b = small_schedule();
        assert_eq!(a.jobs.len(), b.jobs.len());
        assert_eq!(a.jobs[0].project_id, b.jobs[0].project_id);
        assert_eq!(a.per_node[0], b.per_node[0]);
    }

    #[test]
    fn all_domains_appear_over_a_long_trace() {
        let s = generate(
            TraceParams {
                nodes: 32,
                duration_s: 21.0 * 86_400.0,
                seed: 9,
                min_job_s: 600.0,
            },
            &catalog(),
        );
        for d in 0..catalog().len() {
            assert!(
                s.jobs.iter().any(|j| j.domain == d),
                "domain {d} never scheduled"
            );
        }
    }
}
