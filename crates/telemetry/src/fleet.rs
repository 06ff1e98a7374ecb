//! Fleet telemetry simulation: executes a job schedule on a fleet of
//! modeled nodes and streams 15-second power samples to an observer.
//!
//! This is the stand-in for three months of Frontier out-of-band telemetry
//! (paper Table II a): per node, per GPU slot, one mean-power sample every
//! 15 seconds, attributable to the job occupying the node.  Each node's
//! state (RNG, boost budget, fault lanes) is independent of every
//! other's, so a batch fold of a [`FleetObserver::CHANNEL_GROUPED`]
//! observer runs whole nodes on every core, each worker generating into
//! one tile of scratch, with the channel partials merged in canonical
//! order on the caller; a run that retains its channels, or folds an
//! observer that is not channel-grouped, is one sequential pass over the
//! nodes.  Both produce the same bits (see `run_channels`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use pmss_faults::{FaultLane, FaultPlan, GapPolicy, Glitch};

use pmss_gpu::consts::GPUS_PER_NODE;
use pmss_gpu::trace::standard_normal;
use pmss_gpu::{BoostBudget, Engine, FleetMix, GpuSettings, NodeRestModel, SkuCatalog};
use pmss_sched::Schedule;
use pmss_workloads::phases::synthesize_app;
use pmss_workloads::AppClass;

use pmss_columns::{BlockGrid, ColumnBlock, WindowEvent, WindowKind, REST_SLOT, TILE_ROWS};

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
    /// (see [`pmss_faults::FaultPlan`]).  `None` — or a plan that injects
    /// nothing — leaves the stream untouched, bit for bit: the clean path
    /// is the exact pre-fault code path, which is what the differential
    /// harness pins.
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

    /// Adds another run's (or node's) tallies to these.  Both loops
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

/// Walks `segments` in `window_s` windows, emitting one [`WindowEvent`]
/// per window — mean power with boost excursions and sensor noise applied,
/// degraded in place when the config carries an active [`FaultPlan`] —
/// to `emit` in canonical channel order: ascending window, duplicate
/// deliveries adjacent.  Sample *generation* (including RNG consumption)
/// is identical with and without a plan; faults only change what is
/// emitted for each generated window.
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
    idle_power_w: f64,
    boosted_w: f64,
    lane: &mut FaultLane,
    reorder: &mut ReorderTally,
    emit: &mut impl FnMut(WindowEvent),
) {
    let plan = cfg.faults.as_ref().filter(|p| !p.is_noop());
    let grid = channel_grid(schedule, cfg, node);
    let (windows, skew) = (grid.windows(), grid.skew_s);
    // Interpolation holds the last *clean generated* value: a glitched
    // sensor reading must not poison later gap fills.
    let mut last_good: Option<f64> = None;
    if let Some(p) = plan.filter(|p| p.reorder_depth > 0) {
        reorder.begin(p.reorder_depth);
    }
    // All of the channel's fault decisions, filled in one columnar pass
    // (bit-identical to the scalar per-window decision calls).
    if let Some(p) = plan {
        p.fill_lane(node, slot, 0..windows, lane);
    }
    let mut seg_idx = 0usize;

    // Every window of the grid, the partial tail included.
    for window in 0..windows {
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
        let Some(plan) = plan else {
            stats.gpu_sample(attributed.is_some());
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
            continue;
        };

        if lane.lost(window) {
            stats.faults_dropped += 1;
            let (fill, gaps, job) = match plan.gap_policy {
                GapPolicy::Exclude => (GapFill::Excluded, &mut stats.gaps_excluded, attributed),
                GapPolicy::Interpolate => (
                    GapFill::Interpolated(last_good.unwrap_or(idle_power_w)),
                    &mut stats.gaps_interpolated,
                    attributed,
                ),
                GapPolicy::AttributeIdle => {
                    (GapFill::Idle(idle_power_w), &mut stats.gaps_idle, None)
                }
            };
            *gaps += 1;
            emit(WindowEvent {
                node,
                slot,
                sku,
                window,
                rank: window,
                t_s: center + skew,
                span_s: span,
                kind: WindowKind::Gap { fill, job },
            });
            continue;
        }
        last_good = Some(mean);
        let mut power_w = mean;
        if let Some(glitch) = lane.glitch(window) {
            stats.faults_glitched += 1;
            power_w = match glitch {
                Glitch::Nan => f64::NAN,
                Glitch::Spike(w) => power_w + w,
            };
        }
        let rank = lane.delivery_rank(window);
        let ev = WindowEvent {
            node,
            slot,
            sku,
            window,
            rank,
            t_s: center + skew,
            span_s: span,
            kind: WindowKind::Sample {
                power_w,
                job: attributed,
            },
        };
        if lane.duplicated(window) {
            stats.faults_duplicated += 1;
            stats.gpu_sample(attributed.is_some());
            emit(ev);
        }
        stats.gpu_sample(attributed.is_some());
        if plan.reorder_depth > 0 {
            // A duplicate shares its original's window and rank, so one
            // record stands for both copies.
            reorder.deliver(window, rank);
        }
        emit(ev);
    }

    // Reorder tally: under the plan's bounded reorder buffer the channel's
    // *arrival* order is its delivered copies sorted by (rank, window); a
    // sample is counted out-of-order when it arrives after a later window,
    // exactly as a downstream consumer of the arrival stream would see it.
    // (With depth 0 every rank equals its window and nothing reorders.)
    if plan.is_some_and(|p| p.reorder_depth > 0) {
        stats.faults_reordered += reorder.finish();
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
struct ReorderTally {
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

/// Emits the per-window rest-of-node power samples as [`WindowEvent`]s on
/// the node's [`REST_SLOT`] channel.  Dropped-out windows emit nothing at
/// all (a silent node is a hole in the stream, not a gap record).
#[allow(clippy::too_many_arguments)] // one bundle of per-node channel context
fn node_rest_events(
    stats: &mut FleetRunStats,
    schedule: &Schedule,
    node: u32,
    sku: u8,
    cfg: &FleetConfig,
    rest: &NodeRestModel,
    dropout: &mut Vec<bool>,
    emit: &mut impl FnMut(WindowEvent),
) {
    let placements = &schedule.per_node[node as usize];
    let mut p_idx = 0usize;
    let plan = cfg.faults.as_ref().filter(|p| !p.is_noop());
    let grid = channel_grid(schedule, cfg, node);
    let (windows, skew) = (grid.windows(), grid.skew_s);
    // Dropout decisions for the whole channel in one columnar pass,
    // amortized per dropout interval.
    if let Some(p) = plan {
        p.fill_node_dropout(node, 0..windows, dropout);
    }

    // The GPU channels' window layout, centered as the mean of the bounds.
    for w in 0..windows {
        let (w_start, w_end) = grid.bounds(w);
        let t = 0.5 * (w_start + w_end);
        while p_idx < placements.len() && placements[p_idx].end_s <= t {
            p_idx += 1;
        }
        // A dropped-out node is silent on every channel: the rest-of-node
        // sample vanishes along with the GPU samples of the interval.
        if plan.is_some() && dropout[w as usize] {
            stats.faults_dropout_windows += 1;
            continue;
        }
        let util = placements
            .get(p_idx)
            .filter(|p| p.begin_s <= t)
            .map(|p| cpu_util_of(schedule.jobs[p.job].app_class))
            .unwrap_or(0.03);
        stats.node_samples += 1;
        emit(WindowEvent {
            node,
            slot: REST_SLOT,
            sku,
            window: w,
            rank: w,
            t_s: t + skew,
            span_s: w_end - w_start,
            kind: WindowKind::NodeRest {
                rest_w: rest.power_w(util),
            },
        });
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
/// cap-solver work).  A [`FleetObserver::CHANNEL_GROUPED`] observer's
/// nodes run on [`crate::workers`] threads; the result is the same bits
/// at any count.
pub fn simulate_fleet_metered<O>(schedule: &Schedule, cfg: &FleetConfig) -> (O, FleetRunStats)
where
    O: FleetObserver + Default,
{
    run_channels(schedule, cfg, None)
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

/// What every node of one fleet run shares: the inputs plus the standard
/// catalog resolved to per-SKU runtime values (indexed by SKU).
struct FleetRun<'a> {
    schedule: &'a Schedule,
    cfg: &'a FleetConfig,
    runtime: Vec<SkuRuntime>,
}

/// Reusable per-channel buffers: the block under construction (at most
/// `tile_rows` rows), the fault plan's columnar decision lanes and reorder
/// tally, and the GPU slot's segment timeline and phase template.
struct ChannelScratch {
    block: ColumnBlock,
    /// Rows the block holds before it is handed on and reset: [`TILE_ROWS`]
    /// for a folding worker, unbounded for a consumer that needs whole
    /// channels.
    tile_rows: usize,
    lane: FaultLane,
    reorder: ReorderTally,
    dropout: Vec<bool>,
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

impl<'a> FleetRun<'a> {
    fn new(schedule: &'a Schedule, cfg: &'a FleetConfig) -> Self {
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
        FleetRun {
            schedule,
            cfg,
            runtime,
        }
    }

    /// The SKU index of `node` under the run's mix, folded into the
    /// catalog's range so arbitrary mix patterns can never index out of
    /// bounds (and so energy lanes stay dense: two pattern values naming
    /// the same catalog entry land in the same lane).
    fn sku_of(&self, node: usize) -> u8 {
        (self.cfg.mix.sku_of(node) as usize % self.runtime.len().max(1)) as u8
    }

    /// One worker's scratch, its block holding at most `tile_rows` rows
    /// (and allocated for no more than one channel's windows).
    fn scratch(&self, tile_rows: usize) -> ChannelScratch {
        // Skew moves no window bound, so node 0's grid counts every channel's.
        let windows = channel_grid(self.schedule, self.cfg, 0).windows();
        ChannelScratch {
            block: ColumnBlock::with_capacity(0, 0, (windows as usize).min(tile_rows)),
            tile_rows,
            lane: FaultLane::new(),
            reorder: ReorderTally::default(),
            dropout: Vec::new(),
            segs: Vec::new(),
            tmpl: Vec::new(),
        }
    }

    /// Generates `node`'s channels in canonical order — GPU slots `0..4`,
    /// then rest-of-node — each into the scratch block in window order.
    /// The block goes to `each(block, last)` whenever it is full (`last`
    /// false; it is reset after) and when its channel is complete (`last`
    /// true): with an unbounded `tile_rows` that is one whole channel per
    /// call, otherwise the channel's rows in tiles, the last one possibly
    /// empty.
    fn node_channel_blocks(
        &self,
        node: usize,
        scratch: &mut ChannelScratch,
        stats: &mut FleetRunStats,
        mut each: impl FnMut(&mut ColumnBlock, bool),
    ) {
        let (schedule, cfg) = (self.schedule, self.cfg);
        let ChannelScratch {
            block,
            tile_rows,
            lane,
            reorder,
            dropout,
            segs,
            tmpl,
        } = scratch;
        let tile_rows = *tile_rows;
        let sku = self.sku_of(node);
        let rt = &self.runtime[sku as usize];
        let mut rng = StdRng::seed_from_u64(NOISE_SEED ^ ((node as u64) << 20));
        for slot in 0..GPUS_PER_NODE {
            slot_segments(
                stats,
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
            slot_window_events(
                stats,
                schedule,
                segs,
                node as u32,
                slot as u8,
                sku,
                cfg,
                &mut boost,
                &mut rng,
                rt.idle_power_w,
                rt.boosted_w,
                lane,
                reorder,
                &mut |ev| push_row(block, tile_rows, &ev, &mut each),
            );
            each(block, true);
        }
        block.reset(node as u32, REST_SLOT);
        node_rest_events(
            stats,
            schedule,
            node as u32,
            sku,
            cfg,
            &rt.rest,
            dropout,
            &mut |ev| push_row(block, tile_rows, &ev, &mut each),
        );
        each(block, true);
    }

    /// The sequential loop: every node on the calling thread, each
    /// channel generated whole, folded through
    /// [`FleetObserver::fold_channel`] and then, when a consumer `retain`s
    /// the run's blocks, put into *arrival* order
    /// ([`ColumnBlock::sort_arrival`], a counting pass by rank needed only
    /// for GPU channels under a reordering plan) and handed to it.
    fn channels_in_order<O>(
        &self,
        mut retain: Option<&mut dyn FnMut(&ColumnBlock)>,
    ) -> (O, FleetRunStats)
    where
        O: FleetObserver + Default,
    {
        // Generation order is already arrival order unless a plan reorders.
        let reordering = self
            .cfg
            .faults
            .as_ref()
            .is_some_and(|p| !p.is_noop() && p.reorder_depth > 0);
        let mut scratch = self.scratch(usize::MAX);
        let (mut obs, mut stats) = (O::default(), FleetRunStats::default());
        for node in 0..self.schedule.per_node.len() {
            let mut node_stats = FleetRunStats::default();
            self.node_channel_blocks(node, &mut scratch, &mut node_stats, |block, _| {
                obs.fold_channel(self.schedule, block);
                if let Some(retain) = retain.as_mut() {
                    if reordering && block.slot() != REST_SLOT {
                        block.sort_arrival();
                    }
                    retain(block);
                }
            });
            stats.add(&node_stats);
        }
        (obs, stats)
    }

    /// The folding loop, for a [`FleetObserver::CHANNEL_GROUPED`]
    /// observer whose run retains nothing: whole nodes on `workers`
    /// threads ([`scoped_sink`]), each worker generating into one
    /// [`TILE_ROWS`] tile of scratch and folding every channel's tiles
    /// into a fresh partial.  The calling thread merges the partials in
    /// canonical `(node, slot)` order and adds the per-node tallies in node
    /// order — the sequential loop's accumulation shape (split folds are
    /// bit-equal to whole ones), so the result is the same bits at any
    /// worker count.
    fn fold_nodes<O>(&self, workers: usize) -> (O, FleetRunStats)
    where
        O: FleetObserver + Default,
    {
        let scratch = (0..workers.max(1))
            .map(|_| self.scratch(TILE_ROWS))
            .collect();
        let node_parts = |scratch: &mut ChannelScratch, node: usize| {
            let mut stats = FleetRunStats::default();
            let mut parts = Vec::with_capacity(GPUS_PER_NODE + 1);
            let mut part = O::default();
            self.node_channel_blocks(node, scratch, &mut stats, |tile, last| {
                debug_assert!(tile.len() <= TILE_ROWS, "a tile holds {} rows", tile.len());
                part.fold_block(self.schedule, tile);
                if last {
                    parts.push(std::mem::take(&mut part));
                }
            });
            (parts, stats)
        };
        let (mut obs, mut stats) = (O::default(), FleetRunStats::default());
        let nodes = self.schedule.per_node.len();
        // A node's result is five whole observer partials, so one per
        // worker is in flight.  On a 2-vCPU VM, `pmss table 5 --scale
        // medium` peaked at 5.7 MB with one and 6.3 MB with two (the
        // sequential loop: 5.9 MB), for a 3 % slower fold.
        scoped_sink(scratch, 1, nodes, node_parts, |_, (parts, node_stats)| {
            for part in parts {
                obs.merge(part);
            }
            stats.add(&node_stats);
        });
        (obs, stats)
    }
}

/// The window grid `node`'s channels lie on: the run's window layout plus
/// the node's clock skew under an active plan — what the generator walks,
/// and what a store that derives timestamps instead of keeping them
/// ([`crate::ResidentFleet`], [`crate::DeliveryTrace`]) declares per block.
pub(crate) fn channel_grid(schedule: &Schedule, cfg: &FleetConfig, node: u32) -> BlockGrid {
    let plan = cfg.faults.as_ref().filter(|p| !p.is_noop());
    BlockGrid {
        window_s: cfg.window_s,
        duration_s: schedule.duration_s,
        skew_s: plan.map_or(0.0, |p| p.clock_skew_s(node)),
    }
}

/// The one channel loop every fleet entry point runs, in one of two
/// shapes.  A [`FleetObserver::CHANNEL_GROUPED`] observer in a run that
/// retains nothing (`simulate_fleet*`) folds on every core
/// ([`FleetRun::fold_nodes`]).  Everything else takes the sequential
/// loop ([`FleetRun::channels_in_order`]): a consumer that `retain`s the
/// run's blocks needs whole channels in order, and an observer that is
/// not channel-grouped is pinned to one running accumulator.
pub(crate) fn run_channels<O>(
    schedule: &Schedule,
    cfg: &FleetConfig,
    retain: Option<&mut dyn FnMut(&ColumnBlock)>,
) -> (O, FleetRunStats)
where
    O: FleetObserver + Default,
{
    let run = FleetRun::new(schedule, cfg);
    match retain {
        None if O::CHANNEL_GROUPED => run.fold_nodes(workers()),
        retain => run.channels_in_order(retain),
    }
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
/// Row *generation* (power modeling, RNG consumption, fault decisions) is
/// bit-identical to [`simulate_fleet`]; only the emission order differs.
/// Flattening the blocks (`block.iter()`) and feeding the events through
/// `pmss-stream`'s reorder-buffered ingest reproduces the batch observer
/// exactly.
///
/// The block reference is a reusable scratch buffer: it is only valid for
/// the duration of the callback.
pub fn fleet_window_blocks(
    schedule: &Schedule,
    cfg: &FleetConfig,
    mut emit: impl FnMut(&ColumnBlock),
) {
    run_channels::<()>(schedule, cfg, Some(&mut emit));
}

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

    /// A tiled generation hands the channel on in full tiles of exactly
    /// `TILE_ROWS` rows and one last tile, never growing the scratch
    /// block, and the tiles concatenate to the whole channel an unbounded
    /// scratch generates, with the same tallies.
    #[test]
    fn tiled_generation_concatenates_to_the_whole_channel() {
        let s = long_schedule();
        let cfg = FleetConfig {
            faults: Some(FaultPlan::preset("harsh").expect("preset")),
            ..FleetConfig::default()
        };
        let run = FleetRun::new(&s, &cfg);
        let events = |tile_rows: usize| {
            let mut scratch = run.scratch(tile_rows);
            let bytes = scratch.block.column_bytes();
            let (mut stats, mut channels, mut current) = (FleetRunStats::default(), vec![], vec![]);
            let mut tiles = Vec::new();
            for node in 0..s.per_node.len() {
                run.node_channel_blocks(node, &mut scratch, &mut stats, |block, last| {
                    assert!(block.len() <= tile_rows, "{} rows", block.len());
                    assert!(last || block.len() == tile_rows, "a short inner tile");
                    tiles.push(block.len());
                    current.extend(block.iter().map(|ev| format!("{ev:?}")));
                    if last {
                        channels.push(std::mem::take(&mut current));
                    }
                });
            }
            // (A whole channel may outgrow the window count: duplicates.)
            if tile_rows == TILE_ROWS {
                assert_eq!(scratch.block.column_bytes(), bytes, "the scratch tile grew");
            }
            (channels, format!("{stats:?}"), tiles)
        };
        let (whole, whole_stats, whole_tiles) = events(usize::MAX);
        let (tiled, tiled_stats, tiles) = events(TILE_ROWS);
        assert_eq!(whole_tiles.len(), s.per_node.len() * (GPUS_PER_NODE + 1));
        assert!(
            tiles.len() > whole_tiles.len(),
            "no channel spans two tiles"
        );
        assert_eq!(tiled, whole);
        assert_eq!(tiled_stats, whole_stats);
    }

    /// The observers `pmss-pipeline`'s fleet stage folds.
    type StageObs = crate::Pair<
        crate::Pair<crate::SystemHistogram, crate::DomainHistograms>,
        crate::Pair<pmss_core::EnergyLedger, pmss_econ::EconSeries>,
    >;

    /// The folding loop at 1, 2, 3 and 8 real threads (more than this
    /// box may have cores, which is the point) is the sequential loop,
    /// bit for bit: the stage observers' `Debug` (every float at full
    /// precision) and every `FleetRunStats` field, under a clean run,
    /// `harsh` with each gap policy, `mixed-50-50`, and the `diurnal`
    /// price/carbon trace integrated over the econ series (an econ
    /// scenario's fleet run is the clean one; the trace applies at render
    /// time).
    #[test]
    fn folding_loop_is_the_sequential_loop_at_any_worker_count() {
        let s = long_schedule();
        let harsh = |gap_policy| FleetConfig {
            faults: Some(FaultPlan {
                gap_policy,
                ..FaultPlan::preset("harsh").expect("preset")
            }),
            ..FleetConfig::default()
        };
        let diurnal = pmss_econ::EconTrace::preset("diurnal").expect("econ preset");
        let shown = |obs: &StageObs, stats: &FleetRunStats| {
            let econ = &obs.b.b;
            let shift = pmss_econ::shift(econ, &diurnal).expect("shift");
            format!(
                "{obs:?} {stats:?} {:?} {:?} {shift:?}",
                econ.cost_usd(&diurnal).to_bits(),
                econ.carbon_kg(&diurnal).to_bits(),
            )
        };
        for (what, cfg) in [
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
        ] {
            let run = FleetRun::new(&s, &cfg);
            let (obs, stats) = run.channels_in_order::<StageObs>(None);
            let want = shown(&obs, &stats);
            assert!(
                stats.gpu_samples > 0 && stats.boost_granted_s > 0.0,
                "{what}"
            );
            for workers in [1, 2, 3, 8] {
                let (obs, stats) = run.fold_nodes::<StageObs>(workers);
                assert!(shown(&obs, &stats) == want, "{what}: {workers} workers");
            }
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
