//! Modal decomposition of fleet telemetry: the energy ledger.
//!
//! The paper's central data structure is implicit: every 15-second GPU
//! sample, classified into one of the four Table IV regions and attributed
//! to a (science domain, job-size class) cell.  From it fall out Table IV
//! (GPU-hours per region), the Table V/VI projection inputs (energy per
//! region), and the Fig. 10 heatmaps (energy per domain x size).

use pmss_columns::{ColumnBlock, Tag, NO_JOB};
use pmss_error::PmssError;
use pmss_sched::{JobSizeClass, Schedule};
use pmss_telemetry::{FleetObserver, GapFill, SampleCtx};

use crate::modes::Region;

/// Per-mode accounting of how the ledger's wall-clock time was observed —
/// the coverage bookkeeping that keeps degraded telemetry honest.  Every
/// window either arrives as a real sample (`observed_s`), is reconstructed
/// under a gap policy (`interpolated_s` / `attributed_idle_s`), is excluded
/// (`excluded_s`), or is discarded as unusable (`discarded_s`, non-finite
/// sensor readings).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Coverage {
    /// Seconds covered by real, finite samples.
    pub observed_s: f64,
    /// Seconds reconstructed by interpolation (`interpolate` gap policy).
    pub interpolated_s: f64,
    /// Seconds billed as unattributed idle (`attribute-idle` gap policy).
    pub attributed_idle_s: f64,
    /// Seconds excluded from the decomposition (`exclude` gap policy).
    pub excluded_s: f64,
    /// Seconds discarded because the sample was non-finite (NaN glitches).
    pub discarded_s: f64,
}

impl Coverage {
    /// Total accounted seconds across all modes.
    pub fn total_s(&self) -> f64 {
        self.observed_s
            + self.interpolated_s
            + self.attributed_idle_s
            + self.excluded_s
            + self.discarded_s
    }

    /// Fraction of accounted time backed by real samples, in `[0, 1]`
    /// (1 when nothing was accounted — a clean, fault-free stream).
    pub fn fraction(&self) -> f64 {
        let total = self.total_s();
        if total == 0.0 {
            1.0
        } else {
            self.observed_s / total
        }
    }

    fn merge(&mut self, other: &Coverage) {
        self.observed_s += other.observed_s;
        self.interpolated_s += other.interpolated_s;
        self.attributed_idle_s += other.attributed_idle_s;
        self.excluded_s += other.excluded_s;
        self.discarded_s += other.discarded_s;
    }

    fn scale(&mut self, factor: f64) {
        self.observed_s *= factor;
        self.interpolated_s *= factor;
        self.attributed_idle_s *= factor;
        self.excluded_s *= factor;
        self.discarded_s *= factor;
    }
}

/// GPU time and energy accumulated in one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cell {
    /// GPU time, in seconds.
    pub seconds: f64,
    /// GPU energy, in joules.
    pub joules: f64,
}

impl Cell {
    fn add(&mut self, seconds: f64, joules: f64) {
        self.seconds += seconds;
        self.joules += joules;
    }

    fn merge(&mut self, other: &Cell) {
        self.seconds += other.seconds;
        self.joules += other.joules;
    }
}

const N_REGIONS: usize = 4;
const N_SIZES: usize = 5;

/// The modal-decomposition ledger: a [`FleetObserver`] accumulating GPU
/// seconds and joules per (domain, size class, region), plus an
/// unattributed bucket for samples outside any job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyLedger {
    /// Per-domain cells `[size][region]`, indexed by catalog order.
    domains: Vec<[[Cell; N_REGIONS]; N_SIZES]>,
    /// Samples outside any job (idle nodes), by region.
    unattributed: [Cell; N_REGIONS],
    /// GPU cells per SKU index and region — the heterogeneous-fleet lane.
    /// Sums over SKUs reproduce [`EnergyLedger::region_totals`] (same
    /// addends, different grouping).  Homogeneous fleets keep everything
    /// in index 0.
    sku_gpu: Vec<[Cell; N_REGIONS]>,
    /// Rest-of-node (CPU package + board) cells per SKU index — the
    /// CPU-side power domain, kept out of the GPU decomposition.
    sku_rest: Vec<Cell>,
    /// Per-mode accounting of observed vs reconstructed vs lost time.
    coverage: Coverage,
    window_s: f64,
}

impl EnergyLedger {
    /// Creates a ledger for a given telemetry window (15 s by default via
    /// `Default`).
    pub fn new(window_s: f64) -> Self {
        EnergyLedger {
            domains: Vec::new(),
            unattributed: Default::default(),
            sku_gpu: Vec::new(),
            sku_rest: Vec::new(),
            coverage: Coverage::default(),
            window_s,
        }
    }

    /// Per-mode coverage accounting of the decomposed telemetry.
    pub fn coverage(&self) -> Coverage {
        self.coverage
    }

    fn window(&self) -> f64 {
        if self.window_s > 0.0 {
            self.window_s
        } else {
            15.0
        }
    }

    fn ensure(&mut self, domain: usize) {
        while self.domains.len() <= domain {
            self.domains.push(Default::default());
        }
    }

    fn ensure_sku(&mut self, sku: usize) {
        while self.sku_gpu.len() <= sku {
            self.sku_gpu.push(Default::default());
        }
        while self.sku_rest.len() <= sku {
            self.sku_rest.push(Default::default());
        }
    }

    /// Number of domains seen.
    pub(crate) fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// Number of SKU lanes seen (1 for homogeneous fleets).
    pub fn num_skus(&self) -> usize {
        self.sku_gpu.len().max(self.sku_rest.len())
    }

    /// GPU cells per region for SKU index `sku` (all-zero when the SKU
    /// was never observed).
    pub fn sku_gpu_totals(&self, sku: usize) -> [Cell; N_REGIONS] {
        self.sku_gpu.get(sku).copied().unwrap_or_default()
    }

    /// Rest-of-node (CPU-side) cell for SKU index `sku`.
    pub fn sku_rest_total(&self, sku: usize) -> Cell {
        self.sku_rest.get(sku).copied().unwrap_or_default()
    }

    /// Whole-fleet rest-of-node total across SKUs.
    pub fn rest_total(&self) -> Cell {
        let mut t = Cell::default();
        for c in &self.sku_rest {
            t.merge(c);
        }
        t
    }

    /// Cell for (domain, size, region).
    pub(crate) fn cell(&self, domain: usize, size: JobSizeClass, region: Region) -> Cell {
        self.domains
            .get(domain)
            .map(|d| d[size.index()][region.index()])
            .unwrap_or_default()
    }

    /// Totals per region across all domains and the unattributed bucket.
    pub fn region_totals(&self) -> [Cell; N_REGIONS] {
        let mut out = self.unattributed;
        for d in &self.domains {
            for size in d {
                for (acc, c) in out.iter_mut().zip(size) {
                    acc.merge(c);
                }
            }
        }
        out
    }

    /// Totals per region restricted to a domain/size filter (attributed
    /// samples only).
    pub fn region_totals_filtered(
        &self,
        mut keep: impl FnMut(usize, JobSizeClass) -> bool,
    ) -> [Cell; N_REGIONS] {
        let mut out: [Cell; N_REGIONS] = Default::default();
        for (dom, d) in self.domains.iter().enumerate() {
            for (s_idx, size) in d.iter().enumerate() {
                if keep(dom, JobSizeClass::all()[s_idx]) {
                    for (acc, c) in out.iter_mut().zip(size) {
                        acc.merge(c);
                    }
                }
            }
        }
        out
    }

    /// Whole-fleet totals (all regions).
    pub fn total(&self) -> Cell {
        let mut t = Cell::default();
        for r in self.region_totals() {
            t.merge(&r);
        }
        t
    }

    /// Fraction of GPU hours per region — the Table IV "GPU Hrs. (%)"
    /// column.
    pub fn gpu_hours_fractions(&self) -> [f64; N_REGIONS] {
        let totals = self.region_totals();
        let all: f64 = totals.iter().map(|c| c.seconds).sum();
        if all == 0.0 {
            return [0.0; N_REGIONS];
        }
        let mut out = [0.0; N_REGIONS];
        for (o, c) in out.iter_mut().zip(&totals) {
            *o = c.seconds / all;
        }
        out
    }

    /// Energy used per (domain, size) in joules — the Fig. 10(a) matrix.
    pub fn energy_matrix_j(&self) -> Vec<[f64; N_SIZES]> {
        self.domains
            .iter()
            .map(|d| {
                let mut row = [0.0; N_SIZES];
                for (s, size) in d.iter().enumerate() {
                    row[s] = size.iter().map(|c| c.joules).sum();
                }
                row
            })
            .collect()
    }

    /// Scales all quantities by `factor` — used to extrapolate a scaled
    /// fleet simulation to the full Frontier system (energy and hours are
    /// linear in node-count and duration).
    ///
    /// A non-finite or negative factor is a typed error: it would
    /// silently poison every cell (and everything projected from them)
    /// with NaN or negative energy.
    pub fn scaled(&self, factor: f64) -> Result<EnergyLedger, PmssError> {
        if !factor.is_finite() || factor < 0.0 {
            return Err(PmssError::invalid_value(
                "ledger scale factor",
                format!("{factor}"),
                "a finite, non-negative multiplier",
            ));
        }
        let mut out = self.clone();
        for d in &mut out.domains {
            for size in d.iter_mut() {
                for c in size.iter_mut() {
                    c.seconds *= factor;
                    c.joules *= factor;
                }
            }
        }
        for c in &mut out.unattributed {
            c.seconds *= factor;
            c.joules *= factor;
        }
        for lane in &mut out.sku_gpu {
            for c in lane.iter_mut() {
                c.seconds *= factor;
                c.joules *= factor;
            }
        }
        for c in &mut out.sku_rest {
            c.seconds *= factor;
            c.joules *= factor;
        }
        out.coverage.scale(factor);
        Ok(out)
    }

    fn record(&mut self, sku: u8, job: Option<&pmss_sched::Job>, power_w: f64, span_s: f64) {
        let region = Region::of_power(power_w).index();
        let joules = power_w * span_s;
        match job {
            Some(job) => {
                self.ensure(job.domain);
                self.domains[job.domain][job.size_class.index()][region].add(span_s, joules);
            }
            None => self.unattributed[region].add(span_s, joules),
        }
        self.ensure_sku(sku as usize);
        self.sku_gpu[sku as usize][region].add(span_s, joules);
    }
}

impl FleetObserver for EnergyLedger {
    fn gpu_sample(&mut self, ctx: &SampleCtx<'_>, _t_s: f64, power_w: f64) {
        let w = self.window();
        // A non-finite reading cannot be classified into a region without
        // corrupting a cell forever; discard it but account the lost time.
        if !power_w.is_finite() {
            self.coverage.discarded_s += w;
            return;
        }
        self.coverage.observed_s += w;
        self.record(ctx.sku, ctx.job, power_w, w);
    }

    fn gpu_gap(&mut self, ctx: &SampleCtx<'_>, _t_s: f64, span_s: f64, fill: GapFill) {
        match fill {
            GapFill::Excluded => self.coverage.excluded_s += span_s,
            GapFill::Interpolated(w) => {
                self.coverage.interpolated_s += span_s;
                self.record(ctx.sku, ctx.job, w, span_s);
            }
            GapFill::Idle(w) => {
                self.coverage.attributed_idle_s += span_s;
                self.record(ctx.sku, None, w, span_s);
            }
        }
    }

    // The rest-of-node channel feeds only the per-SKU CPU-side lane; the
    // GPU decomposition (domains, regions, coverage) never sees it.
    fn node_sample(&mut self, ctx: &SampleCtx<'_>, _t_s: f64, span_s: f64, rest_w: f64) {
        if !rest_w.is_finite() {
            return;
        }
        self.ensure_sku(ctx.sku as usize);
        self.sku_rest[ctx.sku as usize].add(span_s, rest_w * span_s);
    }

    // Columnar fold: one pass over the block's tag/value/span/job lanes
    // instead of per-event dispatch through `apply_event`.  Every branch
    // performs the *same* floating-point operations in the *same* order as
    // the `gpu_sample`/`gpu_gap` path above (the delivered-sample branch
    // uses `Region::bin_power`, which equals `of_power(..).index()` for the
    // finite values that survive the discard check), so the fold is
    // bit-identical to the default row-by-row replay — the property the
    // golden and stream-differential suites pin.
    fn fold_rows(
        &mut self,
        schedule: &Schedule,
        block: &ColumnBlock,
        rows: std::ops::Range<usize>,
    ) {
        const SAMPLE: u8 = Tag::Sample as u8;
        const GAP_EXCLUDED: u8 = Tag::GapExcluded as u8;
        const GAP_INTERPOLATED: u8 = Tag::GapInterpolated as u8;
        const GAP_IDLE: u8 = Tag::GapIdle as u8;
        let w = self.window();
        let sku = block.sku();
        let tags = block.tags();
        let values = block.values();
        let spans = block.spans();
        let jobs = block.jobs();
        for i in rows {
            match tags[i] {
                SAMPLE => {
                    let p = values[i];
                    if !p.is_finite() {
                        self.coverage.discarded_s += w;
                        continue;
                    }
                    self.coverage.observed_s += w;
                    let region = Region::bin_power(p);
                    let joules = p * w;
                    match jobs[i] {
                        NO_JOB => self.unattributed[region].add(w, joules),
                        j => {
                            let job = &schedule.jobs[j as usize];
                            self.ensure(job.domain);
                            self.domains[job.domain][job.size_class.index()][region].add(w, joules);
                        }
                    }
                    self.ensure_sku(sku as usize);
                    self.sku_gpu[sku as usize][region].add(w, joules);
                }
                GAP_EXCLUDED => self.coverage.excluded_s += spans[i],
                GAP_INTERPOLATED => {
                    let span = spans[i];
                    self.coverage.interpolated_s += span;
                    let job = match jobs[i] {
                        NO_JOB => None,
                        j => Some(&schedule.jobs[j as usize]),
                    };
                    self.record(sku, job, values[i], span);
                }
                GAP_IDLE => {
                    let span = spans[i];
                    self.coverage.attributed_idle_s += span;
                    self.record(sku, None, values[i], span);
                }
                // NodeRest: only the per-SKU CPU-side lane, identical
                // operations to `node_sample` above.
                _ => {
                    let span = spans[i];
                    let v = values[i];
                    if v.is_finite() {
                        self.ensure_sku(sku as usize);
                        self.sku_rest[sku as usize].add(span, v * span);
                    }
                }
            }
        }
    }

    fn merge(&mut self, other: Self) {
        self.coverage.merge(&other.coverage);
        self.ensure(other.domains.len().saturating_sub(1));
        for (i, d) in other.domains.iter().enumerate() {
            self.ensure(i);
            for (s, size) in d.iter().enumerate() {
                for (r, c) in size.iter().enumerate() {
                    self.domains[i][s][r].merge(c);
                }
            }
        }
        for (a, b) in self.unattributed.iter_mut().zip(&other.unattributed) {
            a.merge(b);
        }
        if !other.sku_gpu.is_empty() || !other.sku_rest.is_empty() {
            self.ensure_sku(other.num_skus().saturating_sub(1));
        }
        for (i, lane) in other.sku_gpu.iter().enumerate() {
            for (a, b) in self.sku_gpu[i].iter_mut().zip(lane) {
                a.merge(b);
            }
        }
        for (i, c) in other.sku_rest.iter().enumerate() {
            self.sku_rest[i].merge(c);
        }
        if self.window_s == 0.0 {
            self.window_s = other.window_s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmss_sched::{catalog, generate, Job, TraceParams};
    use pmss_workloads::AppClass;

    fn fake_job(domain: usize, size: JobSizeClass) -> Job {
        Job {
            id: 1,
            domain,
            project_id: "TST001".into(),
            num_nodes: 1,
            size_class: size,
            begin_s: 0.0,
            end_s: 100.0,
            app_class: AppClass::Mixed,
            seed: 0,
        }
    }

    fn ctx(job: Option<&Job>) -> SampleCtx<'_> {
        SampleCtx {
            node: 0,
            slot: 0,
            sku: 0,
            job,
        }
    }

    #[test]
    fn samples_land_in_the_right_cells() {
        let mut l = EnergyLedger::new(15.0);
        let j = fake_job(2, JobSizeClass::B);
        l.gpu_sample(&ctx(Some(&j)), 0.0, 300.0); // MI
        l.gpu_sample(&ctx(Some(&j)), 15.0, 500.0); // CI
        l.gpu_sample(&ctx(None), 30.0, 90.0); // idle, unattributed

        let mi = l.cell(2, JobSizeClass::B, Region::MemoryIntensive);
        assert_eq!(mi.seconds, 15.0);
        assert_eq!(mi.joules, 300.0 * 15.0);
        let totals = l.region_totals();
        assert_eq!(totals[Region::LatencyBound.index()].seconds, 15.0);
        assert_eq!(
            totals[Region::ComputeIntensive.index()].joules,
            500.0 * 15.0
        );
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut l = EnergyLedger::new(15.0);
        let j = fake_job(0, JobSizeClass::E);
        for (i, w) in [100.0, 250.0, 480.0, 580.0, 300.0].iter().enumerate() {
            l.gpu_sample(&ctx(Some(&j)), i as f64 * 15.0, *w);
        }
        let f = l.gpu_hours_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(f[Region::MemoryIntensive.index()], 0.4);
    }

    #[test]
    fn merge_combines_ledgers() {
        let mut a = EnergyLedger::new(15.0);
        let mut b = EnergyLedger::new(15.0);
        let j = fake_job(1, JobSizeClass::C);
        a.gpu_sample(&ctx(Some(&j)), 0.0, 300.0);
        b.gpu_sample(&ctx(Some(&j)), 0.0, 300.0);
        a.merge(b);
        assert_eq!(
            a.cell(1, JobSizeClass::C, Region::MemoryIntensive).seconds,
            30.0
        );
    }

    #[test]
    fn scaling_is_linear() {
        let mut l = EnergyLedger::new(15.0);
        let j = fake_job(0, JobSizeClass::A);
        l.gpu_sample(&ctx(Some(&j)), 0.0, 400.0);
        let s = l.scaled(10.0).unwrap();
        assert_eq!(s.total().joules, 10.0 * l.total().joules);
        assert_eq!(s.total().seconds, 10.0 * l.total().seconds);
    }

    #[test]
    fn non_finite_or_negative_scale_factors_are_typed_errors() {
        // Scaling by NaN/infinity used to silently poison every cell (and
        // everything projected downstream); negative factors fabricated
        // negative energy.  All three are rejected up front now.
        let mut l = EnergyLedger::new(15.0);
        let j = fake_job(0, JobSizeClass::A);
        l.gpu_sample(&ctx(Some(&j)), 0.0, 400.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            assert!(
                matches!(l.scaled(bad), Err(PmssError::InvalidValue { .. })),
                "factor {bad} must be rejected"
            );
        }
        // Zero is a legitimate (if degenerate) factor: an empty fleet.
        assert_eq!(l.scaled(0.0).unwrap().total().joules, 0.0);
    }

    #[test]
    fn fraction_is_zero_with_no_observed_time_and_one_when_empty() {
        // All accounted time lost: fraction must be 0, not NaN.
        let cov = Coverage {
            observed_s: 0.0,
            excluded_s: 45.0,
            ..Coverage::default()
        };
        assert_eq!(cov.fraction(), 0.0);
        // Nothing accounted at all (a clean stream before any telemetry):
        // fully covered by definition, again not NaN.
        assert_eq!(Coverage::default().fraction(), 1.0);
    }

    #[test]
    fn empty_ledgers_scale_and_filter_without_panicking() {
        let empty = EnergyLedger::default();
        let s = empty.scaled(123.4).unwrap();
        assert_eq!(s.num_domains(), 0);
        assert_eq!(s.total(), Cell::default());
        let totals = empty.region_totals_filtered(|_, _| true);
        assert_eq!(totals, [Cell::default(); 4]);
        assert_eq!(empty.gpu_hours_fractions(), [0.0; 4]);
        assert_eq!(empty.energy_matrix_j().len(), 0);
    }

    #[test]
    fn fold_block_is_bit_identical_to_per_event_replay() {
        use pmss_columns::{apply_event, ColumnBlock, WindowEvent, WindowKind};
        // Every tag, attributed and not, finite and not — the columnar fold
        // must produce the exact bytes of the row-by-row replay.
        let schedule = Schedule {
            jobs: vec![fake_job(0, JobSizeClass::A), fake_job(2, JobSizeClass::D)],
            per_node: vec![Vec::new()],
            duration_s: 600.0,
        };
        let mk = |window: u64, kind: WindowKind| WindowEvent {
            node: 0,
            slot: 1,
            sku: 0,
            window,
            rank: window,
            t_s: window as f64 * 15.0 + 7.5,
            span_s: 15.0,
            kind,
        };
        let events = [
            mk(
                0,
                WindowKind::Sample {
                    power_w: 312.5,
                    job: Some(1),
                },
            ),
            mk(
                1,
                WindowKind::Sample {
                    power_w: f64::NAN,
                    job: Some(0),
                },
            ),
            mk(
                2,
                WindowKind::Sample {
                    power_w: 95.0,
                    job: None,
                },
            ),
            mk(
                3,
                WindowKind::Gap {
                    fill: GapFill::Excluded,
                    job: Some(0),
                },
            ),
            mk(
                4,
                WindowKind::Gap {
                    fill: GapFill::Interpolated(433.7),
                    job: Some(1),
                },
            ),
            mk(
                5,
                WindowKind::Gap {
                    fill: GapFill::Interpolated(210.0),
                    job: None,
                },
            ),
            mk(
                6,
                WindowKind::Gap {
                    fill: GapFill::Idle(88.0),
                    job: None,
                },
            ),
            mk(
                7,
                WindowKind::Sample {
                    power_w: 577.25,
                    job: Some(0),
                },
            ),
            mk(8, WindowKind::NodeRest { rest_w: 410.0 }),
        ];
        let block = ColumnBlock::from_events(0, 1, &events);

        let mut by_event = EnergyLedger::new(15.0);
        for ev in &events {
            apply_event(&mut by_event, &schedule, ev);
        }
        let mut by_block = EnergyLedger::new(15.0);
        by_block.fold_block(&schedule, &block);

        assert_eq!(by_block.coverage, by_event.coverage);
        assert_eq!(by_block.num_domains(), by_event.num_domains());
        for d in 0..by_event.num_domains() {
            for s in JobSizeClass::all() {
                for r in Region::all() {
                    let a = by_block.cell(d, s, r);
                    let b = by_event.cell(d, s, r);
                    assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
                    assert_eq!(a.joules.to_bits(), b.joules.to_bits());
                }
            }
        }
        assert_eq!(
            by_block.region_totals_filtered(|_, _| true),
            by_event.region_totals_filtered(|_, _| true)
        );
    }

    #[test]
    fn non_finite_samples_are_discarded_not_misclassified() {
        // A NaN sample used to fall through `Region::of_power`'s `<` chain
        // into the Boosted bucket and poison its joules forever; it must be
        // discarded with the lost time accounted instead.
        let mut l = EnergyLedger::new(15.0);
        let j = fake_job(0, JobSizeClass::A);
        l.gpu_sample(&ctx(Some(&j)), 0.0, f64::NAN);
        l.gpu_sample(&ctx(Some(&j)), 15.0, 300.0);
        assert_eq!(l.total().seconds, 15.0);
        assert!(l.total().joules.is_finite());
        assert_eq!(l.coverage().discarded_s, 15.0);
        assert_eq!(l.coverage().observed_s, 15.0);
        assert_eq!(l.coverage().fraction(), 0.5);
    }

    #[test]
    fn gaps_are_accounted_per_mode() {
        use pmss_telemetry::GapFill;
        let mut l = EnergyLedger::new(15.0);
        let j = fake_job(1, JobSizeClass::B);
        l.gpu_sample(&ctx(Some(&j)), 0.0, 300.0);
        l.gpu_gap(&ctx(Some(&j)), 15.0, 15.0, GapFill::Excluded);
        l.gpu_gap(&ctx(Some(&j)), 30.0, 15.0, GapFill::Interpolated(300.0));
        l.gpu_gap(&ctx(None), 45.0, 15.0, GapFill::Idle(90.0));
        let cov = l.coverage();
        assert_eq!(cov.observed_s, 15.0);
        assert_eq!(cov.excluded_s, 15.0);
        assert_eq!(cov.interpolated_s, 15.0);
        assert_eq!(cov.attributed_idle_s, 15.0);
        assert_eq!(cov.fraction(), 0.25);
        // The interpolated fill lands in the job's cell; the idle fill in
        // the unattributed bucket; the excluded gap nowhere.
        assert_eq!(
            l.cell(1, JobSizeClass::B, Region::MemoryIntensive).seconds,
            30.0
        );
        assert_eq!(l.total().seconds, 45.0);

        // Coverage merges and scales with the ledger.
        let mut other = EnergyLedger::new(15.0);
        other.gpu_sample(&ctx(None), 0.0, 90.0);
        l.merge(other);
        assert_eq!(l.coverage().observed_s, 30.0);
        assert_eq!(l.scaled(2.0).unwrap().coverage().excluded_s, 30.0);
    }

    #[test]
    fn fleet_decomposition_respects_energy_conservation() {
        let sched = generate(
            TraceParams {
                nodes: 4,
                duration_s: 6.0 * 3600.0,
                seed: 13,
                min_job_s: 900.0,
            },
            &catalog(),
        );
        let ledger: EnergyLedger =
            pmss_telemetry::simulate_fleet(&sched, &pmss_telemetry::FleetConfig::default());
        let total = ledger.total();
        // 4 nodes x 4 GPUs x 6 h of GPU time.
        let expect_s = 4.0 * 4.0 * 6.0 * 3600.0;
        assert!((total.seconds - expect_s).abs() / expect_s < 0.01);
        // Mean power must sit between idle and the firmware limit.
        let mean_w = total.joules / total.seconds;
        assert!((89.0..540.0).contains(&mean_w), "mean {mean_w}");
    }
}
