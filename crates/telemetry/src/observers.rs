//! Ready-made fleet observers: the system-wide power distribution (Fig. 8),
//! per-science-domain distributions (Fig. 9), and the GPU-vs-CPU energy
//! split (Fig. 2 b).
//!
//! Each overrides [`FleetObserver::fold_rows`] with a fold over the
//! block's columns that makes, row by row in stored order, exactly the
//! calls its `gpu_sample`/`gpu_gap`/`node_sample` path makes; the trait
//! default (per-row `apply_event`) is the oracle the fold differentials
//! compare against.

use std::ops::Range;

use pmss_columns::{ColumnBlock, Tag, NO_JOB};
use pmss_sched::Schedule;

use crate::fleet::{FleetObserver, GapFill, SampleCtx};
use crate::hist::PowerHistogram;

const SAMPLE: u8 = Tag::Sample as u8;
const GAP_INTERPOLATED: u8 = Tag::GapInterpolated as u8;
const GAP_IDLE: u8 = Tag::GapIdle as u8;
const NODE_REST: u8 = Tag::NodeRest as u8;

/// The rows of `rows` whose value reaches `gpu_sample` — delivered samples
/// and filled gaps (the default `gpu_gap` forwards a fill as a sample) —
/// as `(row, value)`.
fn gpu_values(block: &ColumnBlock, rows: Range<usize>) -> impl Iterator<Item = (usize, f64)> + '_ {
    let tags = &block.tags()[rows.clone()];
    let values = &block.values()[rows.clone()];
    tags.iter()
        .zip(values)
        .zip(rows)
        .filter(|((&tag, _), _)| matches!(tag, SAMPLE | GAP_INTERPOLATED | GAP_IDLE))
        .map(|((_, &v), i)| (i, v))
}

/// System-wide GPU power distribution — the paper's Fig. 8.
#[derive(Debug, Clone)]
pub struct SystemHistogram {
    /// The distribution of all 15 s GPU power samples.
    pub hist: PowerHistogram,
}

impl Default for SystemHistogram {
    fn default() -> Self {
        SystemHistogram {
            hist: PowerHistogram::gpu_default(),
        }
    }
}

impl FleetObserver for SystemHistogram {
    fn gpu_sample(&mut self, _ctx: &SampleCtx<'_>, _t_s: f64, power_w: f64) {
        self.hist.record(power_w);
    }
    fn fold_rows(&mut self, _schedule: &Schedule, block: &ColumnBlock, rows: Range<usize>) {
        for (_, v) in gpu_values(block, rows) {
            self.hist.record(v);
        }
    }
    fn merge(&mut self, other: Self) {
        self.hist.merge(&other.hist);
    }
}

/// Per-science-domain GPU power distributions — the paper's Fig. 9.
/// Samples outside any job are dropped (the paper joins telemetry with the
/// scheduler log, so only job samples carry a domain).
#[derive(Debug, Clone, Default)]
pub struct DomainHistograms {
    hists: Vec<PowerHistogram>,
}

impl DomainHistograms {
    fn ensure(&mut self, domain: usize) {
        while self.hists.len() <= domain {
            self.hists.push(PowerHistogram::gpu_default());
        }
    }

    /// Histogram of a domain, if any samples were attributed to it.
    pub fn domain(&self, domain: usize) -> Option<&PowerHistogram> {
        self.hists.get(domain).filter(|h| h.total() > 0)
    }

    /// Number of domain slots seen.
    pub fn len(&self) -> usize {
        self.hists.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(|h| h.total() == 0)
    }
}

impl FleetObserver for DomainHistograms {
    fn gpu_sample(&mut self, ctx: &SampleCtx<'_>, _t_s: f64, power_w: f64) {
        if let Some(job) = ctx.job {
            self.ensure(job.domain);
            self.hists[job.domain].record(power_w);
        }
    }
    // A row's stored job is its sample's `ctx.job`, filled gaps included;
    // the domain slot is made before the value's finiteness is checked.
    fn fold_rows(&mut self, schedule: &Schedule, block: &ColumnBlock, rows: Range<usize>) {
        let jobs = block.jobs();
        for (i, v) in gpu_values(block, rows) {
            if jobs[i] != NO_JOB {
                let domain = schedule.jobs[jobs[i] as usize].domain;
                self.ensure(domain);
                self.hists[domain].record(v);
            }
        }
    }
    fn merge(&mut self, other: Self) {
        self.ensure(other.hists.len().saturating_sub(1));
        for (i, h) in other.hists.into_iter().enumerate() {
            self.ensure(i);
            self.hists[i].merge(&h);
        }
    }
}

/// GPU vs rest-of-node energy accounting — the paper's Fig. 2(b), showing
/// that GPUs dominate node energy on the system.
#[derive(Debug, Clone)]
pub struct GpuCpuEnergy {
    /// Total GPU energy, joules (sum over samples x window; filled by the
    /// caller from sample power x window seconds).
    pub gpu_energy_j: f64,
    /// Total rest-of-node energy, joules.
    pub rest_energy_j: f64,
    /// Distribution of GPU sample powers.
    pub gpu_hist: PowerHistogram,
    /// Distribution of rest-of-node sample powers.
    pub rest_hist: PowerHistogram,
    window_s: f64,
}

impl Default for GpuCpuEnergy {
    fn default() -> Self {
        GpuCpuEnergy {
            gpu_energy_j: 0.0,
            rest_energy_j: 0.0,
            gpu_hist: PowerHistogram::gpu_default(),
            rest_hist: PowerHistogram::gpu_default(),
            window_s: 15.0,
        }
    }
}

impl GpuCpuEnergy {
    /// GPU share of total node energy, in `[0, 1]`.
    pub fn gpu_share(&self) -> f64 {
        let total = self.gpu_energy_j + self.rest_energy_j;
        if total == 0.0 {
            0.0
        } else {
            self.gpu_energy_j / total
        }
    }
}

impl FleetObserver for GpuCpuEnergy {
    fn gpu_sample(&mut self, _ctx: &SampleCtx<'_>, _t_s: f64, power_w: f64) {
        // A glitched (non-finite) sensor reading must not poison the energy
        // integral; the histogram already drops non-finite values.
        if power_w.is_finite() {
            self.gpu_energy_j += power_w * self.window_s;
        }
        self.gpu_hist.record(power_w);
    }
    fn node_sample(&mut self, _ctx: &SampleCtx<'_>, _t_s: f64, _span_s: f64, rest_w: f64) {
        if rest_w.is_finite() {
            self.rest_energy_j += rest_w * self.window_s;
        }
        self.rest_hist.record(rest_w);
    }
    fn fold_rows(&mut self, _schedule: &Schedule, block: &ColumnBlock, rows: Range<usize>) {
        for (&tag, &v) in block.tags()[rows.clone()].iter().zip(&block.values()[rows]) {
            match tag {
                SAMPLE | GAP_INTERPOLATED | GAP_IDLE => {
                    if v.is_finite() {
                        self.gpu_energy_j += v * self.window_s;
                    }
                    self.gpu_hist.record(v);
                }
                NODE_REST => {
                    if v.is_finite() {
                        self.rest_energy_j += v * self.window_s;
                    }
                    self.rest_hist.record(v);
                }
                _ => {}
            }
        }
    }
    fn merge(&mut self, other: Self) {
        self.gpu_energy_j += other.gpu_energy_j;
        self.rest_energy_j += other.rest_energy_j;
        self.gpu_hist.merge(&other.gpu_hist);
        self.rest_hist.merge(&other.rest_hist);
    }
}

/// Combines two observers into one fleet pass.
#[derive(Debug, Clone, Default)]
pub struct Pair<A, B> {
    /// First observer.
    pub a: A,
    /// Second observer.
    pub b: B,
}

impl<A: FleetObserver, B: FleetObserver> FleetObserver for Pair<A, B> {
    fn gpu_sample(&mut self, ctx: &SampleCtx<'_>, t_s: f64, power_w: f64) {
        self.a.gpu_sample(ctx, t_s, power_w);
        self.b.gpu_sample(ctx, t_s, power_w);
    }
    fn gpu_gap(&mut self, ctx: &SampleCtx<'_>, t_s: f64, span_s: f64, fill: GapFill) {
        // Forwarded explicitly so members that override `gpu_gap` (e.g. a
        // coverage-accounting ledger) see the gap, not the default
        // fill-as-sample translation.
        self.a.gpu_gap(ctx, t_s, span_s, fill);
        self.b.gpu_gap(ctx, t_s, span_s, fill);
    }
    fn node_sample(&mut self, ctx: &SampleCtx<'_>, t_s: f64, span_s: f64, rest_w: f64) {
        self.a.node_sample(ctx, t_s, span_s, rest_w);
        self.b.node_sample(ctx, t_s, span_s, rest_w);
    }
    // The members' states are disjoint, so folding the range into `a` and
    // then into `b` gives each member the very calls, in the very order,
    // that row-by-row forwarding gives it — through its own columnar fold.
    fn fold_rows(&mut self, schedule: &Schedule, block: &ColumnBlock, rows: Range<usize>) {
        self.a.fold_rows(schedule, block, rows.clone());
        self.b.fold_rows(schedule, block, rows);
    }
    fn merge(&mut self, other: Self) {
        self.a.merge(other.a);
        self.b.merge(other.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{simulate_fleet, FleetConfig};
    use pmss_sched::{catalog, generate, TraceParams};

    fn schedule() -> pmss_sched::Schedule {
        generate(
            TraceParams {
                nodes: 6,
                duration_s: 8.0 * 3600.0,
                seed: 11,
                min_job_s: 900.0,
            },
            &catalog(),
        )
    }

    #[test]
    fn system_histogram_collects_all_samples() {
        let s = schedule();
        let obs: SystemHistogram = simulate_fleet(&s, &FleetConfig::default());
        let windows = (s.duration_s / 15.0) as usize;
        assert_eq!(obs.hist.total() as usize, 6 * 4 * windows);
    }

    #[test]
    fn domain_histograms_only_count_job_samples() {
        let s = schedule();
        let obs: Pair<SystemHistogram, DomainHistograms> =
            simulate_fleet(&s, &FleetConfig::default());
        let domain_total: u64 = (0..obs.b.len())
            .filter_map(|d| obs.b.domain(d))
            .map(|h| h.total())
            .sum();
        assert!(domain_total > 0);
        assert!(domain_total <= obs.a.hist.total());
    }

    #[test]
    fn gpu_dominates_node_energy() {
        // Paper Sec. VI: non-GPU components are dwarfed (< 20 %) on busy
        // nodes; with 4 GPUs vs one CPU the fleet share is strongly
        // GPU-heavy.
        let s = schedule();
        let obs: GpuCpuEnergy = simulate_fleet(&s, &FleetConfig::default());
        assert!(
            obs.gpu_share() > 0.6,
            "GPU energy share {}",
            obs.gpu_share()
        );
    }
}
