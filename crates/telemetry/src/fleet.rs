//! Fleet telemetry simulation: executes a job schedule on a fleet of
//! modeled nodes and streams 15-second power samples to an observer.
//!
//! This is the stand-in for three months of Frontier out-of-band telemetry
//! (paper Table II a): per node, per GPU slot, one mean-power sample every
//! 15 seconds, attributable to the job occupying the node.  Generation
//! is clean: a fault plan never reaches it, and is applied afterwards as
//! a columnar transform of each clean tile (`deliver_gpu_tile`,
//! `deliver_rest_tile`), so one generation can be delivered under many
//! plans ([`simulate_fleet_plans`]).  Each node's state (RNG, boost
//! budget, fault decisions) is independent of every other's, so every run
//! — a fold, a fold that retains its channels, a capture — is one channel
//! loop over whole nodes on every core (`run_channels`): each worker
//! generates a node and does each channel's order-free work (the
//! observer's fold into a per-channel partial, arrival sorting and a
//! consumer's `map`), and the calling thread merges, retains and tallies
//! in canonical order, so the result is the same bits at any worker
//! count.

use std::ops::ControlFlow;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pmss_faults::{FaultLane, FaultPlan, GapPolicy, Glitch};

use pmss_gpu::consts::GPUS_PER_NODE;
use pmss_gpu::trace::standard_normal;
use pmss_gpu::{BoostBudget, Engine, FleetMix, GpuSettings, NodeRestModel, SkuCatalog};
use pmss_sched::Schedule;
use pmss_workloads::phases::synthesize_app;
use pmss_workloads::AppClass;

use pmss_columns::{BlockGrid, ColumnBlock, WindowEvent, WindowKind, NO_JOB, REST_SLOT, TILE_ROWS};

use crate::threads::{scoped_sink, workers};

pub use pmss_columns::{FleetObserver, GapFill, SampleCtx};

/// Seed of the per-node window-noise RNG (node `n` draws from
/// `NOISE_SEED ^ (n << 20)`).
const NOISE_SEED: u64 = 1;

/// Fleet-simulation parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Telemetry window, in seconds (the paper: 15 s).
    pub window_s: f64,
    /// Gaussian noise on window means, standard deviation in watts
    /// (2-second sensor noise shrinks by sqrt(7.5) in the mean).
    pub noise_sd_w: f64,
    /// Power-management settings applied fleet-wide during the simulation.
    pub settings: GpuSettings,
    /// Deterministic telemetry degradation applied to the emitted stream
    /// (see [`pmss_faults::FaultPlan`]).  Generation never reads it: the
    /// plan transforms the clean rows on their way out.  `None` — or a
    /// plan that injects nothing — hands the clean rows on untouched, bit
    /// for bit, which is what the differential harness pins.
    pub faults: Option<FaultPlan>,
    /// Node-class assignment over the standard [`SkuCatalog`].  The
    /// default homogeneous mix maps every node to SKU 0 (the paper's
    /// MI250X blade) and reproduces the single-SKU simulation bit for
    /// bit; mixed patterns give each node class its own engine
    /// calibration, rest-of-node power domain, and boost envelope.
    pub mix: FleetMix,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            window_s: 15.0,
            noise_sd_w: 1.5,
            settings: GpuSettings::uncapped(),
            faults: None,
            mix: FleetMix::homogeneous(),
        }
    }
}

/// Tallies of one fleet-simulation run: every run counts into one, and
/// [`simulate_fleet_metered`] hands it back beside the observer.  Counting
/// is a handful of integer adds per window and never touches the
/// simulation state, so the observer is bit-identical either way; whether
/// the tallies are *published* is the caller's choice (`--metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetRunStats {
    /// GPU window samples emitted.
    pub gpu_samples: u64,
    /// GPU samples attributed to a job (vs idle).
    pub attributed_samples: u64,
    /// Rest-of-node window samples emitted.
    pub node_samples: u64,
    /// Boost-burst engagements: windows where stored headroom was spent.
    pub boost_engagements: u64,
    /// Total boosted seconds granted across all engagements.
    pub boost_granted_s: f64,
    /// Boostable windows that found insufficient headroom and recharged
    /// instead.
    pub boost_denied: u64,
    /// GPU window samples lost to fault injection (individual drops and
    /// whole-node dropouts alike).
    pub faults_dropped: u64,
    /// GPU samples delivered twice by fault injection.
    pub faults_duplicated: u64,
    /// Delivered samples glitched to NaN or spiked.
    pub faults_glitched: u64,
    /// Samples delivered out of generation order.
    pub faults_reordered: u64,
    /// Node-windows suppressed by whole-node dropout intervals.
    pub faults_dropout_windows: u64,
    /// Lost windows filled by interpolation (`interpolate` gap policy).
    pub gaps_interpolated: u64,
    /// Lost windows excluded from the stream (`exclude` gap policy).
    pub gaps_excluded: u64,
    /// Lost windows billed as idle (`attribute-idle` gap policy).
    pub gaps_idle: u64,
    /// Engine executions performed: one per synthesized phase of every
    /// (placement, GPU slot) template.
    pub engine_executions: u64,
    /// Executions throttled by the firmware sustained limit rather than
    /// the software cap.
    pub engine_ppt_throttled: u64,
    /// Cap-solver demand evaluations across those executions.
    pub solver_iters: u64,
    /// Executions whose software power cap was breached even at the
    /// frequency floor (paper Fig. 6d).
    pub cap_breaches: u64,
}

impl FleetRunStats {
    fn gpu_sample(&mut self, attributed: bool) {
        self.gpu_samples += 1;
        self.attributed_samples += attributed as u64;
    }

    /// Adds another run's (or node's) tallies to these.  The channel loop
    /// tallies each node into a fresh `FleetRunStats` and adds it here in
    /// node order, so `boost_granted_s` is the same sum of per-node sums
    /// whichever thread generated which node.
    fn add(&mut self, other: &FleetRunStats) {
        self.gpu_samples += other.gpu_samples;
        self.attributed_samples += other.attributed_samples;
        self.node_samples += other.node_samples;
        self.boost_engagements += other.boost_engagements;
        self.boost_granted_s += other.boost_granted_s;
        self.boost_denied += other.boost_denied;
        self.faults_dropped += other.faults_dropped;
        self.faults_duplicated += other.faults_duplicated;
        self.faults_glitched += other.faults_glitched;
        self.faults_reordered += other.faults_reordered;
        self.faults_dropout_windows += other.faults_dropout_windows;
        self.gaps_interpolated += other.gaps_interpolated;
        self.gaps_excluded += other.gaps_excluded;
        self.gaps_idle += other.gaps_idle;
        self.engine_executions += other.engine_executions;
        self.engine_ppt_throttled += other.engine_ppt_throttled;
        self.solver_iters += other.solver_iters;
        self.cap_breaches += other.cap_breaches;
    }
}

/// Host CPU utilization while a workload class runs (drives the
/// rest-of-node power for Fig. 2 b).
fn cpu_util_of(class: AppClass) -> f64 {
    match class {
        AppClass::ComputeIntensive => 0.25,
        AppClass::MemoryIntensive => 0.30,
        AppClass::LatencyBound => 0.55,
        AppClass::Mixed => 0.35,
    }
}

/// One constant-power stretch of a GPU slot's timeline.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start_s: f64,
    end_s: f64,
    power_w: f64,
    job: Option<usize>,
    /// True when the device is pinned at its firmware limit and may boost.
    boostable: bool,
}

/// One constant-power stretch of a single phase cycle of a placement's
/// template.
#[derive(Debug, Clone, Copy)]
struct PhaseSeg {
    dur_s: f64,
    power_w: f64,
    /// True when the device is pinned at its firmware limit and may boost.
    boostable: bool,
}

/// Builds the segment timeline of one GPU slot into `segs` (cleared
/// first).  `engine` is the calibration of the node's SKU.
///
/// Each placement's per-cycle template — the app synthesized once from its
/// slot seed, one [`Engine::execute`] per phase — is built into `tmpl` and
/// cycled until the job window is filled.  Templates are never shared:
/// the buffer is cleared for the next placement.  Both buffers belong to
/// the caller's [`ChannelScratch`], so a run allocates one timeline per
/// worker, not one per slot.
#[allow(clippy::too_many_arguments)] // the slot's inputs plus its two scratch buffers
fn slot_segments(
    stats: &mut FleetRunStats,
    schedule: &Schedule,
    node: usize,
    slot: usize,
    engine: &Engine,
    cfg: &FleetConfig,
    idle_power_w: f64,
    segs: &mut Vec<Segment>,
    tmpl: &mut Vec<PhaseSeg>,
) {
    segs.clear();
    let mut t = 0.0f64;

    for placement in &schedule.per_node[node] {
        if placement.begin_s > t {
            segs.push(Segment {
                start_s: t,
                end_s: placement.begin_s,
                power_w: idle_power_w,
                job: None,
                boostable: false,
            });
        }
        let job = &schedule.jobs[placement.job];
        let slot_seed = job.seed ^ ((node as u64) << 8) ^ slot as u64;

        // Synthesis is seed-pure and `Engine::execute` is stateless, so one
        // pass over the phases stands for every cycle of the job.
        let mut rng = StdRng::seed_from_u64(slot_seed);
        let phases = synthesize_app(job.app_class, job.duration_s(), &mut rng);
        tmpl.clear();
        for phase in &phases {
            let ex = engine.execute(phase, cfg.settings);
            stats.engine_executions += 1;
            stats.engine_ppt_throttled += ex.ppt_throttled as u64;
            stats.solver_iters += ex.solver_iters as u64;
            stats.cap_breaches += ex.cap_breached as u64;
            for (dur_s, power_w, boostable) in [
                (ex.perf.roofline_s, ex.busy_power_w, ex.ppt_throttled),
                (ex.perf.serial_s, ex.serial_power_w, false),
                (ex.perf.stall_s, ex.idle_power_w, false),
            ] {
                if dur_s > 0.0 {
                    tmpl.push(PhaseSeg {
                        dur_s,
                        power_w,
                        boostable,
                    });
                }
            }
        }

        // Cycle the template until the job window is filled (under caps the
        // same wall window holds less completed work).
        let mut cursor = placement.begin_s;
        if !tmpl.is_empty() {
            'fill: loop {
                let cursor_at_cycle_start = cursor;
                for seg in tmpl.iter() {
                    let end = (cursor + seg.dur_s).min(placement.end_s);
                    if end > cursor {
                        segs.push(Segment {
                            start_s: cursor,
                            end_s: end,
                            power_w: seg.power_w,
                            job: Some(placement.job),
                            boostable: seg.boostable,
                        });
                        cursor = end;
                    }
                    if cursor >= placement.end_s {
                        break 'fill;
                    }
                }
                if cursor <= cursor_at_cycle_start {
                    break;
                }
            }
        }
        if cursor < placement.end_s {
            // Degenerate phases (an empty or sub-resolution synthesis, or
            // durations too small to advance the cursor) cannot fill the
            // job window.  The slot is still allocated to the job, so bill
            // the remainder at idle power rather than leaving it uncovered
            // (an uncovered span integrates as 0 W into window means).
            segs.push(Segment {
                start_s: cursor,
                end_s: placement.end_s,
                power_w: idle_power_w,
                job: Some(placement.job),
                boostable: false,
            });
        }
        t = placement.end_s;
    }

    if t < schedule.duration_s {
        segs.push(Segment {
            start_s: t,
            end_s: schedule.duration_s,
            power_w: idle_power_w,
            job: None,
            boostable: false,
        });
    }
}

/// Walks `segments` in `window_s` windows, emitting one clean
/// [`WindowEvent`] per window — mean power with boost excursions and
/// sensor noise applied, stamped at the window center, ranked at its
/// window — to `emit` in ascending window order.  Generation never reads
/// a fault plan: a plan is a transform of the generated rows
/// ([`deliver_gpu_tile`]), so the RNG is consumed, and every row
/// generated, alike under any plan.
#[allow(clippy::too_many_arguments)]
fn slot_window_events(
    stats: &mut FleetRunStats,
    schedule: &Schedule,
    segments: &[Segment],
    node: u32,
    slot: u8,
    sku: u8,
    cfg: &FleetConfig,
    boost: &mut BoostBudget,
    rng: &mut StdRng,
    boosted_w: f64,
    emit: &mut impl FnMut(WindowEvent),
) {
    let grid = clean_grid(schedule, cfg);
    let mut seg_idx = 0usize;

    // Every window of the grid, the partial tail included.
    for window in 0..grid.windows() {
        let (w_start, w_end) = grid.bounds(window);
        let span = w_end - w_start;
        let center = w_start + 0.5 * span;

        // Advance to the first segment overlapping this window.
        while seg_idx + 1 < segments.len() && segments[seg_idx].end_s <= w_start {
            seg_idx += 1;
        }

        let mut energy = 0.0f64;
        let mut attributed: Option<usize> = None;
        let mut i = seg_idx;
        while i < segments.len() && segments[i].start_s < w_end {
            let s = &segments[i];
            let overlap = (s.end_s.min(w_end) - s.start_s.max(w_start)).max(0.0);
            if overlap > 0.0 {
                let mut p = s.power_w;
                if s.boostable {
                    // The device boosts in bursts: it waits for enough
                    // thermal headroom to sustain a multi-second excursion,
                    // then spends it at once.  While pinned at the firmware
                    // limit (below the TDP) headroom still recovers slowly.
                    const BURST_MIN_S: f64 = 8.0;
                    if boost.stored_s() >= BURST_MIN_S {
                        let granted = boost.spend(overlap.min(10.0));
                        stats.boost_engagements += 1;
                        stats.boost_granted_s += granted;
                        p = (granted * boosted_w + (overlap - granted) * s.power_w) / overlap;
                    } else {
                        stats.boost_denied += 1;
                        boost.recharge(overlap);
                    }
                } else {
                    boost.recharge(overlap);
                }
                energy += p * overlap;
                // Attribute the window to the job occupying its center —
                // matching how the sample is stamped — rather than to
                // whichever segment happens to overlap the window first.
                if s.start_s <= center && center < s.end_s {
                    attributed = s.job;
                }
            }
            i += 1;
        }

        let mean = (energy / span + cfg.noise_sd_w * standard_normal(rng)).max(0.0);
        emit(WindowEvent {
            node,
            slot,
            sku,
            window,
            rank: window,
            t_s: center,
            span_s: span,
            kind: WindowKind::Sample {
                power_w: mean,
                job: attributed,
            },
        });
    }
}

/// An open rank no copy was delivered at.
const EMPTY: (u64, u64) = (u64::MAX, 0);

/// The reorder tally of one GPU channel, kept as its copies are delivered
/// instead of by sorting them afterwards.
///
/// Arrival order is by rank, then window; a plan delivers window `w` at a
/// rank in `[w, w + depth]`, and copies are delivered in ascending window
/// order.  So once window `w` is delivered every rank below `w` is
/// complete, and at most `depth + 1` ranks are still open.  A rank's
/// arrivals are its windows in ascending order, so only the first of them
/// (its least window) can arrive after a later window: the last arrival
/// so far, the greatest window of the last non-empty closed rank.  A ring
/// of the open ranks' least and greatest windows counts those in
/// O(copies + depth) time and O(depth) memory; only a reordering plan
/// grows it.
#[derive(Debug, Default)]
pub(crate) struct ReorderTally {
    /// Least and greatest window delivered at each open rank `r`, at
    /// `r & mask`; [`EMPTY`] while nothing was.
    open: Vec<(u64, u64)>,
    /// `open.len() - 1`, the length a power of two above the depth.
    mask: u64,
    /// The least rank not yet closed.
    next: u64,
    /// Window of the last arrival among the closed ranks (0 before the
    /// first, which nothing precedes).
    last: u64,
    /// Arrivals after a later window so far.
    reordered: u64,
}

impl ReorderTally {
    /// Starts a channel under a plan of reorder depth `depth`.
    fn begin(&mut self, depth: u32) {
        let len = (depth as usize + 1).next_power_of_two();
        self.open.clear();
        self.open.resize(len, EMPTY);
        self.mask = len as u64 - 1;
        self.next = 0;
        self.last = 0;
        self.reordered = 0;
    }

    /// Closes every rank below `rank`.
    fn close_below(&mut self, rank: u64) {
        while self.next < rank {
            let (least, greatest) =
                std::mem::replace(&mut self.open[(self.next & self.mask) as usize], EMPTY);
            if (least, greatest) != EMPTY {
                self.reordered += u64::from(least < self.last);
                self.last = greatest;
            }
            self.next += 1;
        }
    }

    /// Records a delivered copy of `window` at `rank`.
    fn deliver(&mut self, window: u64, rank: u64) {
        debug_assert!(
            (window..=window + self.mask).contains(&rank),
            "rank {rank} of window {window}"
        );
        self.close_below(window);
        let open = &mut self.open[(rank & self.mask) as usize];
        *open = (open.0.min(window), window);
    }

    /// Closes the channel's open ranks and returns its out-of-order count.
    fn finish(&mut self) -> u64 {
        self.close_below(self.next + self.mask + 1);
        self.reordered
    }
}

/// Emits the per-window rest-of-node power samples as clean
/// [`WindowEvent`]s on the node's [`REST_SLOT`] channel, one per window.
fn node_rest_events(
    schedule: &Schedule,
    node: u32,
    sku: u8,
    cfg: &FleetConfig,
    rest: &NodeRestModel,
    emit: &mut impl FnMut(WindowEvent),
) {
    let placements = &schedule.per_node[node as usize];
    let mut p_idx = 0usize;
    let grid = clean_grid(schedule, cfg);

    // The GPU channels' window layout, centered as the mean of the bounds.
    for w in 0..grid.windows() {
        let (w_start, w_end) = grid.bounds(w);
        let t = 0.5 * (w_start + w_end);
        while p_idx < placements.len() && placements[p_idx].end_s <= t {
            p_idx += 1;
        }
        let util = placements
            .get(p_idx)
            .filter(|p| p.begin_s <= t)
            .map(|p| cpu_util_of(schedule.jobs[p.job].app_class))
            .unwrap_or(0.03);
        emit(WindowEvent {
            node,
            slot: REST_SLOT,
            sku,
            window: w,
            rank: w,
            t_s: t,
            span_s: w_end - w_start,
            kind: WindowKind::NodeRest {
                rest_w: rest.power_w(util),
            },
        });
    }
}

/// One plan's delivery of the channel being generated: what carries
/// across the channel's tiles.
#[derive(Debug, Default)]
pub(crate) struct ChannelDelivery {
    /// Interpolation holds the last *clean generated* value: a glitched
    /// sensor reading must not poison later gap fills.
    last_good: Option<f64>,
    reorder: ReorderTally,
}

impl ChannelDelivery {
    /// Starts a channel under `plan`.
    pub(crate) fn begin(&mut self, plan: &FaultPlan) {
        self.last_good = None;
        if plan.reorder_depth > 0 {
            self.reorder.begin(plan.reorder_depth);
        }
    }

    /// Ends the channel.  The reorder tally: under the plan's bounded
    /// reorder buffer the channel's *arrival* order is its delivered
    /// copies sorted by (rank, window); a sample is counted out-of-order
    /// when it arrives after a later window, exactly as a downstream
    /// consumer of the arrival stream would see it.  (With depth 0 every
    /// rank equals its window and nothing reorders.)
    pub(crate) fn finish(&mut self, plan: &FaultPlan, stats: &mut FleetRunStats) {
        if plan.reorder_depth > 0 {
            stats.faults_reordered += self.reorder.finish();
        }
    }
}

/// Tallies a clean tile delivered as generated (no active plan).
fn tally_clean(clean: &ColumnBlock, stats: &mut FleetRunStats) {
    let rows = clean.len() as u64;
    if clean.slot() == REST_SLOT {
        stats.node_samples += rows;
    } else {
        stats.gpu_samples += rows;
        stats.attributed_samples += attributed(clean, 0..clean.len());
    }
}

/// Rows of `rows` attributed to a job.
fn attributed(block: &ColumnBlock, rows: std::ops::Range<usize>) -> u64 {
    block.jobs()[rows].iter().filter(|&&j| j != NO_JOB).count() as u64
}

/// Appends the untouched rows `rows` of a clean GPU tile as one run:
/// delivered once, at their lane ranks, `t_s` skewed.
#[allow(clippy::too_many_arguments)] // a run's source, its decisions and its three sinks
fn deliver_run(
    clean: &ColumnBlock,
    rows: std::ops::Range<usize>,
    skew_s: f64,
    ranks: &[u64],
    reordering: bool,
    chan: &mut ChannelDelivery,
    stats: &mut FleetRunStats,
    out: &mut ColumnBlock,
) {
    let Some(last) = rows.clone().last() else {
        return;
    };
    out.append_rows(clean, rows.clone(), skew_s, &ranks[rows.clone()]);
    stats.gpu_samples += rows.len() as u64;
    stats.attributed_samples += attributed(clean, rows.clone());
    chan.last_good = Some(clean.values()[last]);
    if reordering {
        for i in rows {
            chan.reorder.deliver(clean.windows()[i], ranks[i]);
        }
    }
}

/// Delivers one clean GPU tile under `plan`: appends to `out` the rows a
/// collection fabric hands on for the tile's windows, in window order,
/// and tallies them.  `lane` holds the plan's decisions for the tile's
/// windows (its row `i` answering for the tile's row `i`), `skew_s` is the
/// node's clock skew under the plan, and `chan` what carries across the
/// channel's tiles.
///
/// Rows no decision touches are appended as runs
/// ([`ColumnBlock::append_rows`]).  A lost row becomes a gap filled by the
/// plan's policy, at its window's rank; a delivered row may be glitched
/// (NaN or spiked) and, when duplicated, is delivered twice, the copies
/// adjacent.
#[allow(clippy::too_many_arguments)] // a tile's plan, decisions, node context and sinks
pub(crate) fn deliver_gpu_tile(
    plan: &FaultPlan,
    clean: &ColumnBlock,
    lane: &FaultLane,
    skew_s: f64,
    idle_power_w: f64,
    chan: &mut ChannelDelivery,
    stats: &mut FleetRunStats,
    out: &mut ColumnBlock,
) {
    let (lost, dup, glitches, ranks) = (
        lane.lost(),
        lane.duplicated(),
        lane.glitches(),
        lane.ranks(),
    );
    debug_assert_eq!(lost.len(), clean.len(), "the lane covers the tile");
    let reordering = plan.reorder_depth > 0;
    let mut run = 0usize;
    for i in 0..clean.len() {
        if !(lost[i] || dup[i] || glitches[i].is_some()) {
            continue;
        }
        deliver_run(clean, run..i, skew_s, ranks, reordering, chan, stats, out);
        run = i + 1;
        let mut ev = clean.event(i);
        ev.t_s += skew_s;
        let WindowKind::Sample { power_w: mean, job } = ev.kind else {
            unreachable!("a clean GPU tile holds samples only")
        };
        if lost[i] {
            stats.faults_dropped += 1;
            let (fill, gaps, job) = match plan.gap_policy {
                GapPolicy::Exclude => (GapFill::Excluded, &mut stats.gaps_excluded, job),
                GapPolicy::Interpolate => (
                    GapFill::Interpolated(chan.last_good.unwrap_or(idle_power_w)),
                    &mut stats.gaps_interpolated,
                    job,
                ),
                GapPolicy::AttributeIdle => {
                    (GapFill::Idle(idle_power_w), &mut stats.gaps_idle, None)
                }
            };
            *gaps += 1;
            ev.kind = WindowKind::Gap { fill, job };
            out.push(&ev);
            continue;
        }
        chan.last_good = Some(mean);
        let mut power_w = mean;
        if let Some(glitch) = glitches[i] {
            stats.faults_glitched += 1;
            power_w = match glitch {
                Glitch::Nan => f64::NAN,
                Glitch::Spike(w) => power_w + w,
            };
        }
        ev.rank = ranks[i];
        ev.kind = WindowKind::Sample { power_w, job };
        if dup[i] {
            stats.faults_duplicated += 1;
            stats.gpu_sample(job.is_some());
            out.push(&ev);
        }
        stats.gpu_sample(job.is_some());
        if reordering {
            // A duplicate shares its original's window and rank, so one
            // record stands for both copies.
            chan.reorder.deliver(ev.window, ev.rank);
        }
        out.push(&ev);
    }
    deliver_run(
        clean,
        run..clean.len(),
        skew_s,
        ranks,
        reordering,
        chan,
        stats,
        out,
    );
}

/// Delivers one clean rest-of-node tile: the rows of windows the node is
/// dropped out for (`dropout`, per row) vanish — a silent node is a hole
/// in the stream, not a gap record — and the rest are appended in runs,
/// `t_s` skewed.
pub(crate) fn deliver_rest_tile(
    clean: &ColumnBlock,
    dropout: &[bool],
    skew_s: f64,
    stats: &mut FleetRunStats,
    out: &mut ColumnBlock,
) {
    debug_assert_eq!(dropout.len(), clean.len(), "the dropouts cover the tile");
    let n = clean.len();
    let mut i = 0usize;
    while i < n {
        let from = i;
        while i < n && !dropout[i] {
            i += 1;
        }
        out.append_rows(clean, from..i, skew_s, &clean.ranks()[from..i]);
        stats.node_samples += (i - from) as u64;
        let from = i;
        while i < n && dropout[i] {
            i += 1;
        }
        stats.faults_dropout_windows += (i - from) as u64;
    }
}

/// Runs the fleet simulation, returning the merged observer: the observer
/// half of [`simulate_fleet_metered`], whose run tallies are dropped.
pub fn simulate_fleet<O>(schedule: &Schedule, cfg: &FleetConfig) -> O
where
    O: FleetObserver + Default,
{
    simulate_fleet_metered(schedule, cfg).0
}

/// Runs the fleet simulation, returning the merged observer and the run's
/// [`FleetRunStats`] (sample counts, boost engagements, engine and
/// cap-solver work).  The nodes run on [`crate::workers`] threads; the
/// result is the same bits at any count.
pub fn simulate_fleet_metered<O>(schedule: &Schedule, cfg: &FleetConfig) -> (O, FleetRunStats)
where
    O: FleetObserver + Default,
{
    run_channels::<O, ()>(workers(), schedule, cfg, None)
}

/// One generation of the fleet, delivered under each of `plans` in its
/// place of `cfg.faults`: per plan, the observer and tallies
/// [`simulate_fleet_metered`] returns under that plan alone, bit for bit.
/// The nodes run on [`crate::workers`] threads (the channel loop), each
/// node's clean tiles generated once and delivered under every plan
/// while they are hot.
pub fn simulate_fleet_plans<O>(
    schedule: &Schedule,
    cfg: &FleetConfig,
    plans: &[FaultPlan],
) -> Vec<(O, FleetRunStats)>
where
    O: FleetObserver + Default,
{
    FleetRun::with_plans(schedule, cfg, plans.iter().map(Some)).channels::<O, ()>(workers(), None)
}

/// Per-SKU values the window loop reads constantly, resolved once per run
/// from the catalog.  For SKU 0 every value is bit-identical to what the
/// homogeneous simulation computed inline (`Engine::default()`,
/// `NodeRestModel::default()`, the TDP/boost midpoint).
struct SkuRuntime {
    engine: Engine,
    rest: NodeRestModel,
    idle_power_w: f64,
    boosted_w: f64,
}

/// What every node of one fleet run shares: the inputs, the standard
/// catalog resolved to per-SKU runtime values (indexed by SKU), and the
/// plans the run is delivered under.
struct FleetRun<'a> {
    schedule: &'a Schedule,
    cfg: &'a FleetConfig,
    runtime: Vec<SkuRuntime>,
    /// Per delivery: its active plan (`None` hands the clean tiles on as
    /// generated) and the index of the plan's decision set in
    /// `decisions`.
    plans: Vec<Option<(&'a FaultPlan, usize)>>,
    /// One plan per distinct decision set.  Plans that differ only in
    /// `gap_policy` decide every window alike, so they share one lane
    /// fill per tile.
    decisions: Vec<FaultPlan>,
}

/// One decision set's answers for the tile being delivered: the GPU
/// tile's lane, or the rest-of-node tile's dropouts.
#[derive(Default)]
struct TileDecisions {
    lane: FaultLane,
    dropout: Vec<bool>,
}

/// Reusable per-channel buffers: the clean tile under construction (at
/// most `tile_rows` rows), the delivered tile the active plans use in
/// turn (or, in `whole` runs, the delivered channel), the decision
/// lanes, each plan's channel state, and the GPU slot's segment timeline
/// and phase template.
struct ChannelScratch {
    block: ColumnBlock,
    out: ColumnBlock,
    /// Rows the clean tile holds before it is delivered and reset:
    /// [`TILE_ROWS`], or unbounded when a `whole` run delivers no plan —
    /// its clean channel is what it hands on.
    tile_rows: usize,
    /// Whether channels are handed on whole, for a consumer that needs
    /// them so; otherwise tile by tile.
    whole: bool,
    decisions: Vec<TileDecisions>,
    chans: Vec<ChannelDelivery>,
    segs: Vec<Segment>,
    tmpl: Vec<PhaseSeg>,
}

/// Appends `ev` to its channel's block, first handing a full block to
/// `each` (as a tile that is not the channel's last) and resetting it.
fn push_row(
    block: &mut ColumnBlock,
    tile_rows: usize,
    ev: &WindowEvent,
    each: &mut impl FnMut(&mut ColumnBlock, bool),
) {
    if block.len() == tile_rows {
        each(block, false);
        block.reset(ev.node, ev.slot);
    }
    block.push(ev);
}

/// One node's deliveries: every clean tile of the node, handed to
/// [`NodeDelivery::tile`], is delivered under each of the run's plans in
/// turn and passed to `each(plan, tile, last)`.
struct NodeDelivery<'s, F> {
    run: &'s FleetRun<'s>,
    whole: bool,
    idle_power_w: f64,
    /// Per delivery, the node's clock skew under its plan.
    skews: Vec<f64>,
    out: &'s mut ColumnBlock,
    decisions: &'s mut [TileDecisions],
    chans: &'s mut [ChannelDelivery],
    /// Per delivery, its tallies of the node so far.
    stats: Vec<FleetRunStats>,
    each: F,
}

impl<F: FnMut(usize, &mut ColumnBlock, bool)> NodeDelivery<'_, F> {
    /// Starts channel `(node, slot)` under every active plan.
    fn begin_channel(&mut self, node: u32, slot: u8) {
        if self.whole {
            self.out.reset(node, slot);
        }
        for (plan, chan) in self.run.plans.iter().zip(self.chans.iter_mut()) {
            if let Some((plan, _)) = plan {
                chan.begin(plan);
            }
        }
    }

    /// Delivers one clean tile — contiguous windows, one row each — under
    /// every plan: the decision sets' lanes are filled for its windows,
    /// then each plan's delivered tile goes to `each` (the clean tile
    /// itself for a delivery without an active plan, which `each` must
    /// leave as it is).  A `whole` run, which delivers one plan, gathers
    /// the channel's delivered tiles and hands them on at its last.
    fn tile(&mut self, clean: &mut ColumnBlock, last: bool) {
        let (node, slot) = clean.channel();
        let rest = slot == REST_SLOT;
        let first = clean.windows().first().copied().unwrap_or(0);
        let windows = first..first + clean.len() as u64;
        debug_assert!(clean.windows().iter().copied().eq(windows.clone()));
        for (plan, d) in self.run.decisions.iter().zip(self.decisions.iter_mut()) {
            if rest {
                plan.fill_node_dropout(node, windows.clone(), &mut d.dropout);
            } else {
                plan.fill_lane(node, slot, windows.clone(), &mut d.lane);
            }
        }
        for (p, plan) in self.run.plans.iter().enumerate() {
            let stats = &mut self.stats[p];
            let Some((plan, d)) = *plan else {
                tally_clean(clean, stats);
                (self.each)(p, clean, last);
                continue;
            };
            let (decisions, skew_s) = (&self.decisions[d], self.skews[p]);
            if !self.whole {
                self.out.reset(node, slot);
            }
            if rest {
                deliver_rest_tile(clean, &decisions.dropout, skew_s, stats, self.out);
            } else {
                let chan = &mut self.chans[p];
                deliver_gpu_tile(
                    plan,
                    clean,
                    &decisions.lane,
                    skew_s,
                    self.idle_power_w,
                    chan,
                    stats,
                    self.out,
                );
                if last {
                    chan.finish(plan, stats);
                }
            }
            if last || !self.whole {
                (self.each)(p, self.out, last);
            }
        }
    }
}

impl<'a> FleetRun<'a> {
    /// A run delivered under `cfg`'s own plan.
    fn new(schedule: &'a Schedule, cfg: &'a FleetConfig) -> Self {
        Self::with_plans(schedule, cfg, [cfg.faults.as_ref()])
    }

    /// A run delivered under each of `plans` (`None`: clean).
    fn with_plans(
        schedule: &'a Schedule,
        cfg: &'a FleetConfig,
        plans: impl IntoIterator<Item = Option<&'a FaultPlan>>,
    ) -> Self {
        let runtime = SkuCatalog::standard()
            .skus()
            .iter()
            .map(|spec| SkuRuntime {
                engine: spec.engine.clone(),
                rest: spec.rest,
                idle_power_w: spec
                    .engine
                    .power_model()
                    .demand_w(pmss_gpu::Utilization::idle(), pmss_gpu::Freq::MAX),
                boosted_w: spec.boosted_w(),
            })
            .collect();
        let mut decisions: Vec<FaultPlan> = Vec::new();
        let plans = plans
            .into_iter()
            .map(|plan| {
                let plan = plan.filter(|p| !p.is_noop())?;
                let key = FaultPlan {
                    gap_policy: GapPolicy::default(),
                    ..plan.clone()
                };
                let d = match decisions.iter().position(|k| *k == key) {
                    Some(d) => d,
                    None => {
                        decisions.push(key);
                        decisions.len() - 1
                    }
                };
                Some((plan, d))
            })
            .collect();
        FleetRun {
            schedule,
            cfg,
            runtime,
            plans,
            decisions,
        }
    }

    /// The SKU index of `node` under the run's mix, folded into the
    /// catalog's range so arbitrary mix patterns can never index out of
    /// bounds (and so energy lanes stay dense: two pattern values naming
    /// the same catalog entry land in the same lane).
    fn sku_of(&self, node: usize) -> u8 {
        (self.cfg.mix.sku_of(node) as usize % self.runtime.len().max(1)) as u8
    }

    /// One worker's scratch, handing channels on `whole` or in tiles, its
    /// buffers allocated for no more than one channel's windows.
    fn scratch(&self, whole: bool) -> ChannelScratch {
        let windows = clean_grid(self.schedule, self.cfg).windows() as usize;
        let tile_rows = match (whole, self.decisions.is_empty()) {
            (true, true) => usize::MAX,
            _ => TILE_ROWS,
        };
        let out_rows = match (whole, self.decisions.is_empty()) {
            (_, true) => 0,
            (true, false) => windows,
            (false, false) => windows.min(TILE_ROWS),
        };
        ChannelScratch {
            block: ColumnBlock::with_capacity(0, 0, windows.min(tile_rows)),
            out: ColumnBlock::with_capacity(0, 0, out_rows),
            tile_rows,
            whole,
            decisions: self.decisions.iter().map(|_| Default::default()).collect(),
            chans: self.plans.iter().map(|_| Default::default()).collect(),
            segs: Vec::new(),
            tmpl: Vec::new(),
        }
    }

    /// Generates `node`'s channels in canonical order — GPU slots `0..4`,
    /// then rest-of-node — each into the scratch's clean tile in window
    /// order, and delivers every tile under each of the run's plans
    /// ([`NodeDelivery::tile`]) to `each(plan, tile, last)`: whenever the
    /// clean tile is full (`last` false; it is reset after) and when its
    /// channel is complete (`last` true).  A `whole` scratch hands on one
    /// whole channel per call, otherwise the channel's rows come in
    /// tiles, the last one possibly empty.  Returns the
    /// node's tallies per plan: its generation tallies plus that plan's
    /// delivery tallies.
    fn node_channel_blocks(
        &self,
        node: usize,
        scratch: &mut ChannelScratch,
        each: impl FnMut(usize, &mut ColumnBlock, bool),
    ) -> Vec<FleetRunStats> {
        let (schedule, cfg) = (self.schedule, self.cfg);
        let ChannelScratch {
            block,
            out,
            tile_rows,
            whole,
            decisions,
            chans,
            segs,
            tmpl,
        } = scratch;
        let tile_rows = *tile_rows;
        let sku = self.sku_of(node);
        let rt = &self.runtime[sku as usize];
        let mut generated = FleetRunStats::default();
        let mut delivery = NodeDelivery {
            run: self,
            whole: *whole,
            idle_power_w: rt.idle_power_w,
            skews: (self.plans.iter())
                .map(|p| p.map_or(0.0, |(p, _)| p.clock_skew_s(node as u32)))
                .collect(),
            out,
            decisions,
            chans,
            stats: vec![FleetRunStats::default(); self.plans.len()],
            each,
        };
        let mut rng = StdRng::seed_from_u64(NOISE_SEED ^ ((node as u64) << 20));
        for slot in 0..GPUS_PER_NODE {
            slot_segments(
                &mut generated,
                schedule,
                node,
                slot,
                &rt.engine,
                cfg,
                rt.idle_power_w,
                segs,
                tmpl,
            );
            let mut boost = BoostBudget::default();
            block.reset(node as u32, slot as u8);
            delivery.begin_channel(node as u32, slot as u8);
            slot_window_events(
                &mut generated,
                schedule,
                segs,
                node as u32,
                slot as u8,
                sku,
                cfg,
                &mut boost,
                &mut rng,
                rt.boosted_w,
                &mut |ev| push_row(block, tile_rows, &ev, &mut |t, last| delivery.tile(t, last)),
            );
            delivery.tile(block, true);
        }
        block.reset(node as u32, REST_SLOT);
        delivery.begin_channel(node as u32, REST_SLOT);
        node_rest_events(schedule, node as u32, sku, cfg, &rt.rest, &mut |ev| {
            push_row(block, tile_rows, &ev, &mut |t, last| delivery.tile(t, last))
        });
        delivery.tile(block, true);
        (delivery.stats.iter())
            .map(|delivered| {
                let mut stats = generated;
                stats.add(delivered);
                stats
            })
            .collect()
    }

    /// The channel loop: whole nodes on `workers` threads
    /// ([`scoped_sink`]), each worker generating a node's channels into
    /// its own scratch and doing each channel's order-free work there:
    /// the observer's fold into a fresh partial per channel and plan, and
    /// a retaining run's `map`.  The caller takes each node's result in
    /// node order and, channel by channel in canonical `(node, slot)`
    /// order, merges the partial and `keep`s what `map` made, then adds
    /// the node's tallies: a sequential pass's operations in its order
    /// (split folds are bit-equal to whole ones), so the bits do not
    /// depend on the worker count.  A `keep` that breaks ends the run
    /// (its results are then partial).  A worker's scratch holds whole
    /// channels only where the work needs them — a `map` that asks for
    /// them, a reordering plan's arrival sort — and otherwise one
    /// [`TILE_ROWS`] tile.  Results are per plan, in plan order; a run
    /// that retains delivers one plan.
    fn channels<O, T>(
        &self,
        workers: usize,
        mut retain: Option<Retain<'_, T>>,
    ) -> Vec<(O, FleetRunStats)>
    where
        O: FleetObserver + Default,
        T: Send,
    {
        let plans = self.plans.len();
        debug_assert!(
            retain.is_none() || plans == 1,
            "a retaining run delivers one plan"
        );
        let reordering: Vec<bool> = (self.plans.iter())
            .map(|p| p.is_some_and(|(p, _)| p.reorder_depth > 0))
            .collect();
        let map = retain.as_ref().map(|r| r.map);
        let whole = retain.as_ref().is_some_and(|r| r.whole || reordering[0]);
        let scratch = (0..workers.max(1)).map(|_| self.scratch(whole)).collect();
        let node_channels = |scratch: &mut ChannelScratch, node: usize| {
            let mut done: Vec<Vec<(O, Option<T>)>> = (0..plans)
                .map(|_| Vec::with_capacity(GPUS_PER_NODE + 1))
                .collect();
            let mut part: Vec<O> = (0..plans).map(|_| O::default()).collect();
            let mut made: Vec<Option<T>> = (0..plans).map(|_| None).collect();
            let stats = self.node_channel_blocks(node, scratch, |p, block, last| {
                part[p].fold_block(self.schedule, block);
                if let Some(map) = map {
                    // A reordering plan's channel comes whole: put it into
                    // arrival order.
                    if reordering[p] && block.slot() != REST_SLOT {
                        block.sort_arrival();
                    }
                    made[p] = Some(map(made[p].take(), block));
                }
                if last {
                    done[p].push((std::mem::take(&mut part[p]), made[p].take()));
                }
            });
            done.into_iter().zip(stats).collect::<Vec<_>>()
        };
        let mut runs: Vec<(O, FleetRunStats)> = (0..plans).map(|_| Default::default()).collect();
        // With one plan, one node per worker is in flight: on a 2-vCPU VM,
        // `pmss table 5 --scale medium` peaked at 5.7 MB with one and 6.3 MB
        // with two, for a 3 % slower fold.  Many plans' merges keep the
        // caller busy longer, so four per worker let the workers run ahead.
        let ahead = if plans > 1 { 4 } else { 1 };
        scoped_sink(
            scratch,
            ahead,
            self.schedule.per_node.len(),
            node_channels,
            |_, node| {
                for ((obs, stats), (channels, node_stats)) in runs.iter_mut().zip(node) {
                    for (part, made) in channels {
                        obs.merge(part);
                        if let (Some(made), Some(retain)) = (made, retain.as_mut()) {
                            (retain.keep)(made)?;
                        }
                    }
                    stats.add(&node_stats);
                }
                ControlFlow::Continue(())
            },
        );
        runs
    }
}

/// What a retaining run makes of each delivered channel, in arrival
/// order.  On the worker that generated it, `map` folds the channel's
/// tiles in turn into what it makes of the channel (`None` before the
/// first tile) — one call with the whole channel when `whole` is set or
/// a plan reorders — and the calling thread `keep`s each channel's, in
/// canonical `(node, slot)` order, until a `keep` breaks.
pub(crate) struct Retain<'r, T> {
    pub(crate) whole: bool,
    pub(crate) map: &'r (dyn Fn(Option<T>, &ColumnBlock) -> T + Sync),
    pub(crate) keep: &'r mut dyn FnMut(T) -> ControlFlow<()>,
}

/// The window grid every channel is generated on: the run's window
/// layout, unskewed.
fn clean_grid(schedule: &Schedule, cfg: &FleetConfig) -> BlockGrid {
    BlockGrid {
        window_s: cfg.window_s,
        duration_s: schedule.duration_s,
        skew_s: 0.0,
    }
}

/// The window grid `node`'s channels are delivered on: the generator's
/// grid plus the node's clock skew under an active plan — what a store
/// that derives timestamps instead of keeping them
/// ([`crate::ResidentFleet`], [`crate::DeliveryTrace`]) declares per block.
pub(crate) fn channel_grid(schedule: &Schedule, cfg: &FleetConfig, node: u32) -> BlockGrid {
    let plan = cfg.faults.as_ref().filter(|p| !p.is_noop());
    BlockGrid {
        skew_s: plan.map_or(0.0, |p| p.clock_skew_s(node)),
        ..clean_grid(schedule, cfg)
    }
}

/// The one channel loop every fleet entry point runs
/// ([`FleetRun::channels`]), delivered under `cfg`'s own plan, on
/// `workers` threads: a fold (`simulate_fleet*`, no `retain`) or a fold
/// that also retains every channel (`fleet_window_blocks`, the
/// [`crate::DeliveryTrace`] and [`crate::capture_blocks`] captures).
pub(crate) fn run_channels<O, T>(
    workers: usize,
    schedule: &Schedule,
    cfg: &FleetConfig,
    retain: Option<Retain<'_, T>>,
) -> (O, FleetRunStats)
where
    O: FleetObserver + Default,
    T: Send,
{
    let mut runs = FleetRun::new(schedule, cfg).channels(workers, retain);
    runs.pop().expect("one run per plan")
}

/// Streams every telemetry channel of a fleet run to `emit` as one
/// [`ColumnBlock`] per channel, in canonical channel order (nodes
/// ascending; GPU slots `0..4`, then rest-of-node) — the order a
/// collection fabric would deliver them.  Within a block, rows are in the
/// channel's *arrival* order — ascending window without faults,
/// `(rank, window)`-sorted (duplicates adjacent) under an active
/// reordering plan, so the plan's bounded reordering is realized in the
/// stream itself.
///
/// Row *generation* (power modeling, RNG consumption) and delivery (fault
/// decisions) are bit-identical to [`simulate_fleet`]; only the emission
/// order differs.  Flattening the blocks (`block.iter()`) and feeding the
/// events through `pmss-stream`'s reorder-buffered ingest reproduces the
/// batch observer exactly.
///
/// The channels are generated on [`crate::workers`] threads and `emit`
/// runs on the calling thread.  The block reference is only valid for the
/// duration of the callback.
pub fn fleet_window_blocks(
    schedule: &Schedule,
    cfg: &FleetConfig,
    mut emit: impl FnMut(&ColumnBlock),
) {
    let retain = Retain {
        whole: true,
        map: &|_, block: &ColumnBlock| block.clone(),
        keep: &mut |block: ColumnBlock| {
            emit(&block);
            ControlFlow::Continue(())
        },
    };
    run_channels::<(), _>(workers(), schedule, cfg, Some(retain));
}

#[cfg(test)]
#[path = "fleet_delivery_oracle.rs"]
mod delivery_oracle;

#[cfg(test)]
#[path = "fleet_loop_oracle.rs"]
mod loop_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use pmss_sched::{catalog, generate, TraceParams};

    /// Collects every sample — test-only observer.
    #[derive(Default)]
    struct Collector {
        gpu: Vec<(u32, u8, f64, f64, Option<u64>)>,
        node: Vec<(u32, f64, f64)>,
    }

    impl FleetObserver for Collector {
        fn gpu_sample(&mut self, ctx: &SampleCtx<'_>, t_s: f64, power_w: f64) {
            self.gpu
                .push((ctx.node, ctx.slot, t_s, power_w, ctx.job.map(|j| j.id)));
        }
        fn node_sample(&mut self, ctx: &SampleCtx<'_>, t_s: f64, _span_s: f64, rest_w: f64) {
            self.node.push((ctx.node, t_s, rest_w));
        }
        fn merge(&mut self, mut other: Self) {
            self.gpu.append(&mut other.gpu);
            self.node.append(&mut other.node);
        }
    }

    fn tiny_schedule() -> pmss_sched::Schedule {
        generate(
            TraceParams {
                nodes: 4,
                duration_s: 4.0 * 3600.0,
                seed: 5,
                min_job_s: 900.0,
            },
            &catalog(),
        )
    }

    #[test]
    fn sample_counts_match_windows_and_slots() {
        let s = tiny_schedule();
        let c: Collector = simulate_fleet(&s, &FleetConfig::default());
        let windows = (s.duration_s / 15.0) as usize;
        assert_eq!(c.gpu.len(), 4 * GPUS_PER_NODE * windows);
        assert_eq!(c.node.len(), 4 * windows);
    }

    #[test]
    fn partial_tail_window_is_emitted() {
        // Duration not a multiple of the window: the 7-second tail gets its
        // own sample.
        let s = generate(
            TraceParams {
                nodes: 2,
                duration_s: 2.0 * 3600.0 + 7.0,
                seed: 5,
                min_job_s: 900.0,
            },
            &catalog(),
        );
        let c: Collector = simulate_fleet(&s, &FleetConfig::default());
        let windows = (s.duration_s / 15.0).floor() as usize + 1;
        assert_eq!(c.gpu.len(), 2 * GPUS_PER_NODE * windows);
        assert_eq!(c.node.len(), 2 * windows);
        // The tail sample is stamped at the center of its covered span.
        let tail_t = 2.0 * 3600.0 + 3.5;
        assert!(c
            .gpu
            .iter()
            .any(|&(_, _, t, _, _)| (t - tail_t).abs() < 1e-9));
    }

    #[test]
    fn partial_tail_mean_covers_the_actual_span() {
        // An all-idle slot must read exactly idle power in *every* window,
        // including the 10-second tail: the tail mean is normalized by the
        // covered span, not the nominal window length.
        let s = pmss_sched::Schedule {
            jobs: Vec::new(),
            per_node: vec![Vec::new()],
            duration_s: 100.0,
        };
        let cfg = FleetConfig {
            noise_sd_w: 0.0,
            ..Default::default()
        };
        let c: Collector = simulate_fleet(&s, &cfg);
        let idle_w = pmss_gpu::Engine::default()
            .power_model()
            .demand_w(pmss_gpu::Utilization::idle(), pmss_gpu::Freq::MAX);
        assert_eq!(c.gpu.len(), GPUS_PER_NODE * 7); // 6 full windows + tail
        for &(_, _, t, w, job) in &c.gpu {
            assert!((w - idle_w).abs() < 1e-9, "t {t}: {w} vs idle {idle_w}");
            assert_eq!(job, None);
        }
        // Total integrated energy is conserved: sum of mean * span equals
        // idle power over the whole 100 s horizon, per slot.
        let slot0: f64 = c
            .gpu
            .iter()
            .filter(|x| x.1 == 0)
            .map(|x| {
                let span = if x.2 > 90.0 { 10.0 } else { 15.0 };
                x.3 * span
            })
            .sum();
        assert!((slot0 - idle_w * 100.0).abs() < 1e-6, "energy {slot0}");
    }

    #[test]
    fn degenerate_phases_are_billed_at_idle_power() {
        // A job shorter than the phase-synthesis resolution (<= 1 s)
        // produces no phases; its window must still be covered (at idle
        // power, attributed to the job) instead of integrating as 0 W.
        let job = pmss_sched::Job {
            id: 7,
            domain: 0,
            project_id: "TST000".into(),
            num_nodes: 1,
            size_class: pmss_sched::JobSizeClass::E,
            begin_s: 30.0,
            end_s: 30.9,
            app_class: pmss_workloads::AppClass::Mixed,
            seed: 11,
        };
        let s = pmss_sched::Schedule {
            per_node: vec![vec![pmss_sched::Placement {
                job: 0,
                begin_s: job.begin_s,
                end_s: job.end_s,
            }]],
            jobs: vec![job],
            duration_s: 60.0,
        };
        let cfg = FleetConfig {
            noise_sd_w: 0.0,
            ..Default::default()
        };
        let c: Collector = simulate_fleet(&s, &cfg);
        let idle_w = pmss_gpu::Engine::default()
            .power_model()
            .demand_w(pmss_gpu::Utilization::idle(), pmss_gpu::Freq::MAX);
        // Every sample reads exactly idle power: the 0.9 s job span is
        // covered by the degenerate-phase idle segment, not left as a gap.
        for &(_, _, t, w, _) in &c.gpu {
            assert!((w - idle_w).abs() < 1e-9, "t {t}: {w} vs idle {idle_w}");
        }
    }

    #[test]
    fn samples_cover_physical_power_range() {
        let s = tiny_schedule();
        let c: Collector = simulate_fleet(&s, &FleetConfig::default());
        for &(_, _, _, w, _) in &c.gpu {
            assert!((0.0..=650.0).contains(&w), "sample {w} W");
        }
        // Busy samples exist well above idle.
        assert!(c.gpu.iter().any(|&(_, _, _, w, _)| w > 150.0));
    }

    #[test]
    fn job_attribution_matches_schedule() {
        // Window attribution is by the segment covering the window center,
        // so every sample — attributed or idle — must agree exactly with
        // the placement (if any) containing its timestamp.
        let s = tiny_schedule();
        let c: Collector = simulate_fleet(&s, &FleetConfig::default());
        for &(node, _, t, _, job_id) in c.gpu.iter() {
            let expect = s.per_node[node as usize]
                .iter()
                .find(|p| p.begin_s <= t && t < p.end_s)
                .map(|p| s.jobs[p.job].id);
            assert_eq!(job_id, expect, "node {node} t {t}");
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let s = tiny_schedule();
        let a: Collector = simulate_fleet(&s, &FleetConfig::default());
        let b: Collector = simulate_fleet(&s, &FleetConfig::default());
        let sum_a: f64 = a.gpu.iter().map(|x| x.3).sum();
        let sum_b: f64 = b.gpu.iter().map(|x| x.3).sum();
        assert_eq!(sum_a, sum_b);
    }

    #[test]
    fn frequency_cap_lowers_fleet_mean_power() {
        let s = tiny_schedule();
        let base: Collector = simulate_fleet(&s, &FleetConfig::default());
        let capped: Collector = simulate_fleet(
            &s,
            &FleetConfig {
                settings: GpuSettings::freq_capped(900.0),
                ..Default::default()
            },
        );
        let mean = |c: &Collector| c.gpu.iter().map(|x| x.3).sum::<f64>() / c.gpu.len() as f64;
        assert!(
            mean(&capped) < mean(&base) - 10.0,
            "capped {} vs base {}",
            mean(&capped),
            mean(&base)
        );
    }

    #[test]
    fn idle_tail_reads_idle_power() {
        // A schedule with a single short job leaves a long idle tail.
        let s = generate(
            TraceParams {
                nodes: 1,
                duration_s: 7200.0,
                seed: 3,
                min_job_s: 900.0,
            },
            &catalog(),
        );
        let c: Collector = simulate_fleet(&s, &FleetConfig::default());
        let unattributed: Vec<f64> = c
            .gpu
            .iter()
            .filter(|x| x.4.is_none())
            .map(|x| x.3)
            .collect();
        if !unattributed.is_empty() {
            let m = unattributed.iter().sum::<f64>() / unattributed.len() as f64;
            assert!((85.0..95.0).contains(&m), "idle mean {m}");
        }
    }

    /// The pre-template reference: re-synthesizes the app and re-executes
    /// every phase on every cycle iteration.  Synthesis is seed-pure and
    /// `Engine::execute` is stateless, so production [`slot_segments`]
    /// (one pass per placement, cycled) must match it bit for bit.
    fn reference_slot_segments(
        schedule: &Schedule,
        node: usize,
        slot: usize,
        engine: &Engine,
        cfg: &FleetConfig,
        idle_power_w: f64,
    ) -> Vec<Segment> {
        let mut segs = Vec::new();
        let mut t = 0.0f64;

        for placement in &schedule.per_node[node] {
            if placement.begin_s > t {
                segs.push(Segment {
                    start_s: t,
                    end_s: placement.begin_s,
                    power_w: idle_power_w,
                    job: None,
                    boostable: false,
                });
            }
            let job = &schedule.jobs[placement.job];
            let slot_seed = job.seed ^ ((node as u64) << 8) ^ slot as u64;

            let mut cursor = placement.begin_s;
            let mut rng = StdRng::seed_from_u64(slot_seed);
            let phases = synthesize_app(job.app_class, job.duration_s(), &mut rng);
            'fill: loop {
                let cursor_at_cycle_start = cursor;
                for phase in &phases {
                    let ex = engine.execute(phase, cfg.settings);
                    for (dur, power, boostable) in [
                        (ex.perf.roofline_s, ex.busy_power_w, ex.ppt_throttled),
                        (ex.perf.serial_s, ex.serial_power_w, false),
                        (ex.perf.stall_s, ex.idle_power_w, false),
                    ] {
                        if dur <= 0.0 {
                            continue;
                        }
                        let end = (cursor + dur).min(placement.end_s);
                        if end > cursor {
                            segs.push(Segment {
                                start_s: cursor,
                                end_s: end,
                                power_w: power,
                                job: Some(placement.job),
                                boostable,
                            });
                            cursor = end;
                        }
                        if cursor >= placement.end_s {
                            break 'fill;
                        }
                    }
                }
                if cursor <= cursor_at_cycle_start {
                    break;
                }
            }
            if cursor < placement.end_s {
                segs.push(Segment {
                    start_s: cursor,
                    end_s: placement.end_s,
                    power_w: idle_power_w,
                    job: Some(placement.job),
                    boostable: false,
                });
            }
            t = placement.end_s;
        }

        if t < schedule.duration_s {
            segs.push(Segment {
                start_s: t,
                end_s: schedule.duration_s,
                power_w: idle_power_w,
                job: None,
                boostable: false,
            });
        }
        segs
    }

    #[test]
    fn slot_segments_match_the_per_cycle_reference_bit_for_bit() {
        let s = tiny_schedule();
        let with = |settings| FleetConfig {
            settings,
            ..Default::default()
        };
        let mixed = FleetConfig {
            mix: FleetMix::preset("mixed-50-50").expect("preset"),
            ..Default::default()
        };
        for cfg in [
            FleetConfig::default(),
            with(GpuSettings::freq_capped(900.0)),
            with(GpuSettings::power_capped(300.0)),
            mixed,
        ] {
            let run = FleetRun::new(&s, &cfg);
            let mut skus = std::collections::BTreeSet::new();
            for node in 0..s.per_node.len() {
                let sku = run.sku_of(node);
                skus.insert(sku);
                let rt = &run.runtime[sku as usize];
                for slot in 0..GPUS_PER_NODE {
                    let mut stats = FleetRunStats::default();
                    // The scratch buffers come in dirty, as they do from
                    // the previous slot of a run.
                    let mut got = vec![reference_slot_segments(&s, 0, 0, &rt.engine, &cfg, 1.0)[0]];
                    let mut tmpl = vec![PhaseSeg {
                        dur_s: 1.0,
                        power_w: 1.0,
                        boostable: true,
                    }];
                    slot_segments(
                        &mut stats,
                        &s,
                        node,
                        slot,
                        &rt.engine,
                        &cfg,
                        rt.idle_power_w,
                        &mut got,
                        &mut tmpl,
                    );
                    let want =
                        reference_slot_segments(&s, node, slot, &rt.engine, &cfg, rt.idle_power_w);
                    assert_eq!(got.len(), want.len(), "node {node} slot {slot}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.start_s.to_bits(), w.start_s.to_bits());
                        assert_eq!(g.end_s.to_bits(), w.end_s.to_bits());
                        assert_eq!(g.power_w.to_bits(), w.power_w.to_bits());
                        assert_eq!((g.job, g.boostable), (w.job, w.boostable));
                    }
                }
            }
            // The mixed config must really exercise more than one engine.
            assert_eq!(skus.len() > 1, !cfg.mix.is_homogeneous());
        }
    }

    #[test]
    fn metered_run_is_bit_identical_and_counts_samples() {
        let s = tiny_schedule();
        let cfg = FleetConfig::default();
        let plain: Collector = simulate_fleet(&s, &cfg);
        let (metered, stats): (Collector, FleetRunStats) = simulate_fleet_metered(&s, &cfg);
        // `simulate_fleet` is the metered run's observer, bit for bit.
        assert_eq!(plain.gpu, metered.gpu);
        assert_eq!(plain.node, metered.node);
        // Tallies agree with what the collector saw.
        assert_eq!(stats.gpu_samples as usize, metered.gpu.len());
        assert_eq!(stats.node_samples as usize, metered.node.len());
        let attributed = metered.gpu.iter().filter(|x| x.4.is_some()).count();
        assert_eq!(stats.attributed_samples as usize, attributed);
        assert!(stats.attributed_samples > 0);
        assert!(stats.attributed_samples < stats.gpu_samples);
    }

    #[test]
    fn every_run_tallies_boost_under_ppt_throttling() {
        // Compute-heavy work pins devices at the firmware limit, which is
        // exactly when boost bursts engage; a 4-node, 4-hour schedule has
        // plenty of such windows.
        let s = tiny_schedule();
        let (_ledger, stats): (Collector, FleetRunStats) =
            simulate_fleet_metered(&s, &FleetConfig::default());
        assert!(stats.boost_engagements > 0, "{stats:?}");
        assert!(stats.boost_granted_s > 0.0);
        // Engagements spend at most 10 s each.
        assert!(stats.boost_granted_s <= 10.0 * stats.boost_engagements as f64);
    }

    /// Longer than one tile per channel: 18 h is 4 320 windows.
    fn long_schedule() -> pmss_sched::Schedule {
        generate(
            TraceParams {
                nodes: 5,
                duration_s: 18.0 * 3600.0,
                seed: 5,
                min_job_s: 900.0,
            },
            &catalog(),
        )
    }

    /// A tiled generation hands each channel on in clean tiles of exactly
    /// `TILE_ROWS` rows and one last tile, never growing the scratch
    /// tile, and the delivered tiles concatenate to the whole channel an
    /// unbounded scratch delivers, with the same tallies — clean and under
    /// `harsh`, whose delivered tiles vary in length.
    #[test]
    fn tiled_generation_concatenates_to_the_whole_channel() {
        let s = long_schedule();
        let harsh = FleetConfig {
            faults: Some(FaultPlan::preset("harsh").expect("preset")),
            ..FleetConfig::default()
        };
        for cfg in [FleetConfig::default(), harsh] {
            let clean = cfg.faults.is_none();
            let run = FleetRun::new(&s, &cfg);
            let events = |whole: bool| {
                let mut scratch = run.scratch(whole);
                let tile_rows = if whole { usize::MAX } else { TILE_ROWS };
                let bytes = scratch.block.column_bytes();
                let (mut stats, mut channels, mut current) =
                    (FleetRunStats::default(), vec![], vec![]);
                let mut tiles = Vec::new();
                for node in 0..s.per_node.len() {
                    let node_stats =
                        run.node_channel_blocks(node, &mut scratch, |_, block, last| {
                            // Delivered, a clean tile's rows may each be
                            // duplicated.
                            assert!(block.len() <= tile_rows.saturating_mul(2));
                            if clean {
                                assert!(block.len() <= tile_rows, "{} rows", block.len());
                                assert!(last || block.len() == tile_rows, "a short inner tile");
                            }
                            tiles.push(block.len());
                            current.extend(block.iter().map(|ev| format!("{ev:?}")));
                            if last {
                                channels.push(std::mem::take(&mut current));
                            }
                        });
                    stats.add(&node_stats[0]);
                }
                if !whole {
                    assert_eq!(scratch.block.column_bytes(), bytes, "the scratch tile grew");
                }
                (channels, format!("{stats:?}"), tiles)
            };
            let (whole, whole_stats, whole_tiles) = events(true);
            let (tiled, tiled_stats, tiles) = events(false);
            assert_eq!(whole_tiles.len(), s.per_node.len() * (GPUS_PER_NODE + 1));
            assert!(
                tiles.len() > whole_tiles.len(),
                "no channel spans two tiles"
            );
            assert_eq!(tiled, whole);
            assert_eq!(tiled_stats, whole_stats);
        }
    }

    use crate::delivery::TraceBlock;
    use crate::threads::scoped_map;
    use crate::{DeliveryTrace, FleetPowerSeries, GpuCpuEnergy};
    use pmss_error::PmssError;

    /// The observers `pmss-pipeline`'s fleet stage folded before it
    /// folded the ledger alone.
    type StageObs = crate::Pair<
        crate::Pair<crate::SystemHistogram, crate::DomainHistograms>,
        crate::Pair<pmss_core::EnergyLedger, pmss_econ::EconSeries>,
    >;

    /// What a run gives each consumer the channel loop serves, shown
    /// bit for bit (`Debug`, every float at full precision): the stage
    /// observers (with the `diurnal` price/carbon trace integrated over
    /// the econ series — an econ scenario's fleet run is the clean one),
    /// folded alone in tiles and beside a delivery-trace capture; the
    /// trace's blocks; `fig 2`'s and `peakpower`'s observers; the
    /// `fleet_window_blocks` block sequence; and every run's tallies.
    /// (The resident capture's blocks are checked against the oracle's by
    /// `capture_sinks_the_oracle_loops_blocks_in_canonical_order`.)
    /// `run` is the loop, handed the run and a consumer's `Retain`.
    fn consumers(
        s: &Schedule,
        cfg: &FleetConfig,
        run: impl Fn(&FleetRun<'_>, Option<Retain<'_, ColumnBlock>>) -> ((), FleetRunStats),
        fold: impl Fn(&FleetRun<'_>) -> [String; 3],
        traced: impl Fn(Retain<'_, Result<TraceBlock, PmssError>>) -> (StageObs, FleetRunStats),
    ) -> Vec<String> {
        let fleet = FleetRun::new(s, cfg);
        let mut shown = fold(&fleet).to_vec();
        let mut trace = Vec::new();
        let (obs, stats) = traced(Retain {
            whole: true,
            map: &|_, b: &ColumnBlock| TraceBlock::narrow(b, channel_grid(s, cfg, b.node())),
            keep: &mut |narrowed: Result<TraceBlock, PmssError>| {
                trace.push(narrowed.expect("the channel narrows"));
                ControlFlow::Continue(())
            },
        });
        shown.push(traced_shown(&trace, &obs, &stats));
        let mut blocks = Vec::new();
        let ((), stats) = run(
            &fleet,
            Some(Retain {
                whole: true,
                map: &|_, b: &ColumnBlock| b.clone(),
                keep: &mut |b: ColumnBlock| {
                    blocks.push(format!("{b:?}"));
                    ControlFlow::Continue(())
                },
            }),
        );
        shown.push(format!("{blocks:?} {stats:?}"));
        shown
    }

    /// A traced run's consumer: its narrowed channels, stage observers
    /// and tallies.
    fn traced_shown(trace: &[TraceBlock], obs: &StageObs, stats: &FleetRunStats) -> String {
        format!("{trace:?} {} {stats:?}", stage_shown(obs))
    }

    /// The stage observers' `Debug`, the `diurnal` trace integrated.
    fn stage_shown(obs: &StageObs) -> String {
        let diurnal = pmss_econ::EconTrace::preset("diurnal").expect("econ preset");
        let econ = &obs.b.b;
        let shift = pmss_econ::shift(econ, &diurnal).expect("shift");
        format!(
            "{obs:?} {:?} {:?} {shift:?}",
            econ.cost_usd(&diurnal).to_bits(),
            econ.carbon_kg(&diurnal).to_bits(),
        )
    }

    /// The scenarios the loop is checked under.
    fn loop_scenarios() -> Vec<(&'static str, FleetConfig)> {
        let harsh = |gap_policy| FleetConfig {
            faults: Some(FaultPlan {
                gap_policy,
                ..FaultPlan::preset("harsh").expect("preset")
            }),
            ..FleetConfig::default()
        };
        vec![
            ("clean", FleetConfig::default()),
            ("harsh exclude", harsh(GapPolicy::Exclude)),
            ("harsh interpolate", harsh(GapPolicy::Interpolate)),
            ("harsh attribute-idle", harsh(GapPolicy::AttributeIdle)),
            (
                "mixed-50-50",
                FleetConfig {
                    mix: FleetMix::preset("mixed-50-50").expect("preset"),
                    ..FleetConfig::default()
                },
            ),
        ]
    }

    /// The channel loop at 1, 2, 3 and 8 real threads (more than this box
    /// may have cores, which is the point) is the sequential loop, bit for
    /// bit, for every consumer it serves ([`consumers`]), under a clean
    /// run, `harsh` with each gap policy, and `mixed-50-50`; and so is
    /// [`DeliveryTrace::capture_folding`] at one worker and every core.
    #[test]
    fn folding_loop_is_the_sequential_loop_at_any_worker_count() {
        let s = long_schedule();
        for (what, cfg) in loop_scenarios() {
            let want = consumers(
                &s,
                &cfg,
                |fleet, retain| fleet.channels_in_order(retain),
                |fleet| {
                    let (stage, stats) = fleet.channels_in_order::<StageObs, ()>(None);
                    assert!(stats.gpu_samples > 0 && stats.boost_granted_s > 0.0);
                    let (split, split_stats) = fleet.channels_in_order::<GpuCpuEnergy, ()>(None);
                    let (power, power_stats) =
                        fleet.channels_in_order::<FleetPowerSeries, ()>(None);
                    [
                        format!("{} {stats:?}", stage_shown(&stage)),
                        format!("{split:?} {split_stats:?}"),
                        format!("{power:?} {power_stats:?}"),
                    ]
                },
                |retain| FleetRun::new(&s, &cfg).channels_in_order(Some(retain)),
            );
            let capture = || {
                let (trace, obs, stats) = DeliveryTrace::capture_folding(&s, &cfg).expect("trace");
                traced_shown(trace.channels(), &obs, &stats)
            };
            let one = scoped_map(2, 1, |_| capture()).remove(0);
            assert!(one == want[3], "{what}: capture_folding at one worker");
            assert!(
                capture() == want[3],
                "{what}: capture_folding on every core"
            );
            for workers in [1, 2, 3, 8] {
                let got = consumers(
                    &s,
                    &cfg,
                    |fleet, retain| fleet.channels(workers, retain).remove(0),
                    |fleet| {
                        let one = |shown: Vec<(String, FleetRunStats)>| -> String {
                            let (obs, stats) = &shown[0];
                            format!("{obs} {stats:?}")
                        };
                        let stage = (fleet.channels::<StageObs, ()>(workers, None))
                            .into_iter()
                            .map(|(obs, stats)| (stage_shown(&obs), stats))
                            .collect();
                        let split = (fleet.channels::<GpuCpuEnergy, ()>(workers, None))
                            .into_iter()
                            .map(|(obs, stats)| (format!("{obs:?}"), stats))
                            .collect();
                        let power = (fleet.channels::<FleetPowerSeries, ()>(workers, None))
                            .into_iter()
                            .map(|(obs, stats)| (format!("{obs:?}"), stats))
                            .collect();
                        [one(stage), one(split), one(power)]
                    },
                    |retain| run_channels(workers, &s, &cfg, Some(retain)),
                );
                for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                    assert!(got == want, "{what}: {workers} workers, consumer {i}");
                }
            }
        }
    }

    /// A retaining run's channels reach `keep` in canonical order at any
    /// worker count, so the first error `keep` records is the first
    /// failing channel's, whichever worker mapped it first.
    #[test]
    fn the_first_failing_channel_is_the_error_at_any_worker_count() {
        let s = long_schedule();
        let cfg = FleetConfig::default();
        let failing = [(1u32, 3u8), (3, 0), (4, REST_SLOT)];
        for workers in [1, 2, 3, 8] {
            let mut first = None;
            let mut kept = 0usize;
            let map = |_, b: &ColumnBlock| {
                if failing.contains(&b.channel()) {
                    Err(format!("channel {:?}", b.channel()))
                } else {
                    Ok(b.len())
                }
            };
            let mut keep = |r: Result<usize, String>| {
                match r {
                    Ok(_) => kept += 1,
                    Err(e) => {
                        first.get_or_insert(e);
                    }
                }
                ControlFlow::Continue(())
            };
            let retain = Retain {
                whole: true,
                map: &map,
                keep: &mut keep,
            };
            run_channels::<(), _>(workers, &s, &cfg, Some(retain));
            assert_eq!(
                first.as_deref(),
                Some("channel (1, 3)"),
                "{workers} workers"
            );
            let channels = s.per_node.len() * (GPUS_PER_NODE + 1);
            assert_eq!(kept, channels - failing.len());
        }
    }

    /// The retaining loop holds at most `ahead` (1) node results per
    /// worker that the caller has not taken yet: a node counts from its
    /// first channel's `map` on a worker until its last channel's `keep`.
    /// (The count drops inside `keep`, just after the hand-off frees the
    /// slot, so it may read one over the window.)  A `keep` that blocks —
    /// a sink waiting on a daemon — stalls the workers there: while node
    /// 5's first channel is held, at most `workers` nodes beyond it have
    /// been made, and none with one worker, whose only thread is the one
    /// blocked.
    #[test]
    fn the_retaining_loop_keeps_one_node_per_worker_in_flight() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = generate(
            TraceParams {
                nodes: 24,
                duration_s: 3.0 * 3600.0,
                seed: 5,
                min_job_s: 900.0,
            },
            &catalog(),
        );
        for workers in [1, 2, 3, 8] {
            let (in_flight, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let map = |_, b: &ColumnBlock| {
                if b.slot() == 0 {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                }
                b.channel()
            };
            let (mut order, mut made_while_blocked) = (Vec::new(), None);
            let mut keep = |channel: (u32, u8)| {
                if channel == (5, 0) {
                    std::thread::sleep(std::time::Duration::from_millis(40));
                    made_while_blocked = Some(in_flight.load(Ordering::SeqCst) - 1);
                }
                if channel.1 == REST_SLOT {
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                }
                order.push(channel);
                ControlFlow::Continue(())
            };
            let retain = Retain {
                whole: true,
                map: &map,
                keep: &mut keep,
            };
            run_channels::<(), _>(workers, &s, &FleetConfig::default(), Some(retain));
            let want: Vec<(u32, u8)> = (0..24u32)
                .flat_map(|n| {
                    (0..GPUS_PER_NODE as u8)
                        .chain([REST_SLOT])
                        .map(move |c| (n, c))
                })
                .collect();
            assert_eq!(order, want, "{workers} workers");
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= workers + 1,
                "{workers} workers: {peak} nodes in flight"
            );
            let ahead = made_while_blocked.expect("node 5 kept");
            let most = if workers == 1 { 0 } else { workers };
            assert!(
                ahead <= most,
                "{workers} workers: {ahead} nodes made past a blocked keep"
            );
        }
    }

    /// The resident capture hands its sink one block per channel in
    /// canonical `(node, slot)` order, written out here, and each block's
    /// bytes are the block the sequential loop oracle encodes whole for
    /// that channel — clean, under `harsh`, under `frontier-typical` (a
    /// reordering plan, so whole channels in arrival order) and over
    /// `mixed-50-50`, at one worker and at every core.
    #[test]
    fn capture_sinks_the_oracle_loops_blocks_in_canonical_order() {
        use pmss_columns::{CodecConfig, EncodedBlock};

        let s = long_schedule();
        let canonical: Vec<(u32, u8)> = (0..s.per_node.len() as u32)
            .flat_map(|n| {
                (0..GPUS_PER_NODE as u8)
                    .chain([REST_SLOT])
                    .map(move |c| (n, c))
            })
            .collect();
        let preset = |name| FleetConfig {
            faults: Some(FaultPlan::preset(name).expect("preset")),
            ..FleetConfig::default()
        };
        let mixed = FleetConfig {
            mix: FleetMix::preset("mixed-50-50").expect("preset"),
            ..FleetConfig::default()
        };
        let scenarios = [
            ("clean", FleetConfig::default()),
            ("harsh", preset("harsh")),
            ("frontier-typical", preset("frontier-typical")),
            ("mixed-50-50", mixed),
        ];
        for (what, cfg) in scenarios {
            let mut want = Vec::new();
            let encode = |_, b: &ColumnBlock| {
                let grid = channel_grid(&s, &cfg, b.node());
                let block = EncodedBlock::encode(b, grid, CodecConfig::default());
                block.expect("the oracle's channel encodes").to_bytes()
            };
            FleetRun::new(&s, &cfg).channels_in_order::<(), _>(Some(Retain {
                whole: true,
                map: &encode,
                keep: &mut |bytes| {
                    want.push(bytes);
                    ControlFlow::Continue(())
                },
            }));
            let capture = || {
                let (mut order, mut bytes) = (Vec::new(), Vec::new());
                crate::capture_blocks(&s, &cfg, |block| {
                    order.push(block.decode(CodecConfig::default())?.channel());
                    bytes.push(block.to_bytes());
                    Ok::<_, PmssError>(())
                })
                .expect("capture");
                (order, bytes)
            };
            let one = scoped_map(2, 1, |_| capture()).remove(0);
            for (workers, (order, bytes)) in [(1, one), (crate::workers(), capture())] {
                assert_eq!(order, canonical, "{what}: {workers} workers");
                assert!(bytes == want, "{what}: {workers} workers");
            }
        }
    }

    /// A sink that fails on block `k` ends the capture with its error and
    /// sees no block after it, at one worker and at every core; and the
    /// loop under it claims no node after the failure, so no more than
    /// `workers` nodes are generated past `k`'s node.
    #[test]
    fn a_failing_sink_ends_the_capture_at_its_block() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let s = generate(
            TraceParams {
                nodes: 24,
                duration_s: 3.0 * 3600.0,
                seed: 5,
                min_job_s: 900.0,
            },
            &catalog(),
        );
        let cfg = FleetConfig::default();
        // Block 22 is node 4's GPU slot 2.
        let k = 22;
        let failure = || PmssError::invalid_value("sink", "block 22", "a live peer");
        let capture = || {
            let mut seen = 0;
            let got = crate::capture_blocks(&s, &cfg, |_| {
                seen += 1;
                if seen == k + 1 {
                    Err(failure())
                } else {
                    Ok(())
                }
            });
            (got.map(|_| ()).map_err(|e| e.to_string()), seen)
        };
        let want = failure().to_string();
        let one = scoped_map(2, 1, |_| capture()).remove(0);
        for (workers, (err, seen)) in [(1, one), (crate::workers(), capture())] {
            assert_eq!(err, Err(want.clone()), "{workers} workers");
            assert_eq!(seen, k + 1, "{workers} workers");
        }

        let k_node = k / (GPUS_PER_NODE + 1);
        for workers in [1, 2, 3, 8] {
            let generated = AtomicUsize::new(0);
            let map = |_, b: &ColumnBlock| {
                generated.fetch_max(b.node() as usize, Ordering::SeqCst);
                b.channel()
            };
            let mut kept = Vec::new();
            let mut keep = |channel: (u32, u8)| {
                kept.push(channel);
                if kept.len() == k + 1 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            };
            run_channels::<(), _>(
                workers,
                &s,
                &cfg,
                Some(Retain {
                    whole: false,
                    map: &map,
                    keep: &mut keep,
                }),
            );
            assert_eq!(kept.len(), k + 1, "{workers} workers");
            let last = generated.load(Ordering::SeqCst);
            assert!(
                last <= k_node + workers,
                "{workers} workers: node {last} generated past node {k_node}"
            );
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use pmss_sched::{catalog, generate, TraceParams};

    /// Collects every delivery, gaps included.
    #[derive(Default)]
    struct FaultCollector {
        gpu: Vec<(u32, u8, f64, f64, Option<u64>)>,
        gaps: Vec<(u32, u8, f64, f64, GapFill)>,
        node: Vec<(u32, f64, f64)>,
    }

    impl FleetObserver for FaultCollector {
        fn gpu_sample(&mut self, ctx: &SampleCtx<'_>, t_s: f64, power_w: f64) {
            self.gpu
                .push((ctx.node, ctx.slot, t_s, power_w, ctx.job.map(|j| j.id)));
        }
        fn gpu_gap(&mut self, ctx: &SampleCtx<'_>, t_s: f64, span_s: f64, fill: GapFill) {
            self.gaps.push((ctx.node, ctx.slot, t_s, span_s, fill));
        }
        fn node_sample(&mut self, ctx: &SampleCtx<'_>, t_s: f64, _span_s: f64, rest_w: f64) {
            self.node.push((ctx.node, t_s, rest_w));
        }
        fn merge(&mut self, mut other: Self) {
            self.gpu.append(&mut other.gpu);
            self.gaps.append(&mut other.gaps);
            self.node.append(&mut other.node);
        }
    }

    fn schedule() -> pmss_sched::Schedule {
        generate(
            TraceParams {
                nodes: 4,
                duration_s: 4.0 * 3600.0,
                seed: 5,
                min_job_s: 900.0,
            },
            &catalog(),
        )
    }

    fn with_plan(plan: FaultPlan) -> FleetConfig {
        FleetConfig {
            faults: Some(plan),
            ..Default::default()
        }
    }

    #[test]
    fn noop_plan_is_bit_identical_to_no_plan() {
        let s = schedule();
        let clean: FaultCollector = simulate_fleet(&s, &FleetConfig::default());
        let noop: FaultCollector = simulate_fleet(&s, &with_plan(FaultPlan::none()));
        assert_eq!(clean.gpu, noop.gpu);
        assert_eq!(clean.node, noop.node);
        assert!(noop.gaps.is_empty());
    }

    #[test]
    fn drops_under_exclude_remove_samples_and_report_gaps() {
        let s = schedule();
        let clean: FaultCollector = simulate_fleet(&s, &FleetConfig::default());
        let plan = FaultPlan {
            seed: 9,
            drop_prob: 0.05,
            ..FaultPlan::none()
        };
        let (faulted, stats): (FaultCollector, FleetRunStats) =
            simulate_fleet_metered(&s, &with_plan(plan));
        assert!(faulted.gpu.len() < clean.gpu.len());
        assert_eq!(faulted.gpu.len() + faulted.gaps.len(), clean.gpu.len());
        assert_eq!(stats.faults_dropped as usize, faulted.gaps.len());
        assert_eq!(stats.gaps_excluded, stats.faults_dropped);
        assert!(faulted
            .gaps
            .iter()
            .all(|g| g.4 == GapFill::Excluded && g.3 > 0.0));
        // Roughly 5 % of samples drop.
        let rate = faulted.gaps.len() as f64 / clean.gpu.len() as f64;
        assert!((0.03..0.07).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn interpolation_holds_the_previous_delivered_value() {
        let s = schedule();
        let clean: FaultCollector = simulate_fleet(&s, &FleetConfig::default());
        let plan = FaultPlan {
            seed: 9,
            drop_prob: 0.05,
            gap_policy: GapPolicy::Interpolate,
            ..FaultPlan::none()
        };
        let faulted: FaultCollector = simulate_fleet(&s, &with_plan(plan.clone()));
        assert_eq!(faulted.gpu.len() + faulted.gaps.len(), clean.gpu.len());
        for &(node, slot, t, _span, fill) in &faulted.gaps {
            let GapFill::Interpolated(held) = fill else {
                panic!("wrong fill {fill:?}");
            };
            // The held value is the last clean sample of the slot before
            // the gap (or idle power for a leading gap).
            let prev = clean.gpu.iter().rfind(|x| {
                x.0 == node
                    && x.1 == slot
                    && x.2 < t
                    && !plan.drops(node, slot, (x.2 / 15.0) as u64)
            });
            if let Some(&(_, _, _, w, _)) = prev {
                assert_eq!(held, w, "node {node} slot {slot} t {t}");
            }
        }
    }

    #[test]
    fn attribute_idle_bills_gaps_as_unattributed_idle() {
        let s = schedule();
        let plan = FaultPlan {
            seed: 9,
            drop_prob: 0.05,
            gap_policy: GapPolicy::AttributeIdle,
            ..FaultPlan::none()
        };
        let faulted: FaultCollector = simulate_fleet(&s, &with_plan(plan));
        let idle_w = pmss_gpu::Engine::default()
            .power_model()
            .demand_w(pmss_gpu::Utilization::idle(), pmss_gpu::Freq::MAX);
        assert!(!faulted.gaps.is_empty());
        for &(.., fill) in &faulted.gaps {
            assert_eq!(fill, GapFill::Idle(idle_w));
        }
    }

    #[test]
    fn duplicates_dedup_back_to_the_clean_stream() {
        let s = schedule();
        let clean: FaultCollector = simulate_fleet(&s, &FleetConfig::default());
        let plan = FaultPlan {
            seed: 9,
            dup_prob: 0.05,
            ..FaultPlan::none()
        };
        let faulted: FaultCollector = simulate_fleet(&s, &with_plan(plan));
        assert!(faulted.gpu.len() > clean.gpu.len());
        let mut dedup = faulted.gpu.clone();
        dedup.dedup();
        let mut sorted_clean = clean.gpu.clone();
        sorted_clean.sort_by(|a, b| a.partial_cmp(b).unwrap());
        dedup.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(dedup, sorted_clean);
    }

    #[test]
    fn reordering_stays_within_the_buffer_bound() {
        let s = schedule();
        let clean: FaultCollector = simulate_fleet(&s, &FleetConfig::default());
        let plan = FaultPlan {
            seed: 9,
            reorder_depth: 4,
            ..FaultPlan::none()
        };
        let (faulted, stats): (FaultCollector, FleetRunStats) =
            simulate_fleet_metered(&s, &with_plan(plan));
        assert_eq!(faulted.gpu.len(), clean.gpu.len());
        assert!(stats.faults_reordered > 0, "{stats:?}");
        // Same multiset of samples: sorting both recovers equality.
        let mut a = faulted.gpu.clone();
        let mut b = clean.gpu.clone();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn node_dropout_silences_gpu_and_node_channels_together() {
        let s = schedule();
        let clean: FaultCollector = simulate_fleet(&s, &FleetConfig::default());
        let plan = FaultPlan {
            seed: 9,
            dropout_prob: 0.05,
            dropout_windows: 8,
            ..FaultPlan::none()
        };
        let (faulted, stats): (FaultCollector, FleetRunStats) =
            simulate_fleet_metered(&s, &with_plan(plan.clone()));
        assert!(stats.faults_dropout_windows > 0, "{stats:?}");
        assert_eq!(
            faulted.node.len() as u64 + stats.faults_dropout_windows,
            clean.node.len() as u64
        );
        // Every dropped-out window loses all four GPU slots.
        assert_eq!(
            stats.faults_dropped,
            stats.faults_dropout_windows * GPUS_PER_NODE as u64
        );
    }

    #[test]
    fn clock_skew_shifts_whole_nodes_by_a_bounded_offset() {
        let s = schedule();
        let clean: FaultCollector = simulate_fleet(&s, &FleetConfig::default());
        let plan = FaultPlan {
            seed: 9,
            clock_skew_max_s: 3.0,
            ..FaultPlan::none()
        };
        let faulted: FaultCollector = simulate_fleet(&s, &with_plan(plan.clone()));
        assert_eq!(faulted.gpu.len(), clean.gpu.len());
        for (f, c) in faulted.gpu.iter().zip(&clean.gpu) {
            let skew = plan.clock_skew_s(c.0);
            assert!(skew.abs() <= 3.0);
            assert_eq!(f.2, c.2 + skew, "node {}", c.0);
            assert_eq!(f.3, c.3);
        }
    }

    #[test]
    fn glitches_inject_nans_and_spikes() {
        let s = schedule();
        let plan = FaultPlan {
            seed: 9,
            nan_prob: 0.01,
            spike_prob: 0.01,
            spike_w: 300.0,
            ..FaultPlan::none()
        };
        let (faulted, stats): (FaultCollector, FleetRunStats) =
            simulate_fleet_metered(&s, &with_plan(plan));
        let nans = faulted.gpu.iter().filter(|x| x.3.is_nan()).count();
        let spikes = faulted.gpu.iter().filter(|x| x.3 > 700.0).count();
        assert!(nans > 0, "no NaN glitches");
        assert!(spikes > 0, "no spikes");
        assert!(stats.faults_glitched as usize >= nans + spikes);
    }

    #[test]
    fn frontier_typical_preset_runs_end_to_end() {
        let s = schedule();
        let plan = FaultPlan::preset("frontier-typical").unwrap();
        let (faulted, stats): (FaultCollector, FleetRunStats) =
            simulate_fleet_metered(&s, &with_plan(plan));
        assert!(!faulted.gpu.is_empty());
        assert!(stats.faults_dropped > 0);
        assert!(stats.gpu_samples > 0);
    }

    proptest::proptest! {
        /// The online reorder tally counts what sorting a channel's
        /// delivered copies by `(rank, window)` and counting the arrivals
        /// after a later window does, duplicates included, at reorder
        /// depths up to the largest a plan may declare.
        #[test]
        fn reorder_tally_matches_sorting_the_copies(
            n in 0u64..600,
            shallow in 0u32..24,
            deep in 0u32..=4096,
            pick_deep in 0u8..2,
            seed in 0u64..1 << 32,
        ) {
            let depth = if pick_deep == 1 { deep } else { shallow };
            let mut tally = ReorderTally::default();
            tally.begin(depth);
            let mut copies: Vec<(u64, u64)> = Vec::new();
            let mut z = seed;
            for w in 0..n {
                z = z.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x2545_f491);
                let h = z ^ (z >> 29);
                if h.is_multiple_of(10) {
                    continue;
                }
                let rank = w + (h >> 8) % (depth as u64 + 1);
                let dup = (h >> 4).is_multiple_of(5);
                copies.extend(std::iter::repeat_n((rank, w), 1 + dup as usize));
                tally.deliver(w, rank);
            }
            copies.sort_unstable();
            let want = copies.windows(2).filter(|p| p[1].1 < p[0].1).count() as u64;
            proptest::prop_assert_eq!(tally.finish(), want);
        }
    }
}
