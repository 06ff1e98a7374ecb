//! The governor replay: deterministic, delivery-ordered, budget-safe.
//!
//! [`run_governor`] governs one recorded run for every plan it is given.
//! Each plan has its own controller.  At each of its sync-window
//! boundaries the controller diffs every channel's sensed
//! [`ChannelAccum`] against its previous round's to get the round's
//! per-channel telemetry, and decides the next round's caps; the decisions
//! then meet the telemetry again on the accounting side, where each
//! delivered window is charged the Table III energy/runtime factor of
//! whatever cap the plan actually had in force for that window's round.
//!
//! Sensing is the same for every plan, and a channel's sensed state at a
//! boundary is a function of its own events before it, so the sensing
//! runs as a per-channel replay ([`TraceReplay`]) on every core: one pass
//! per tile of boundaries, which bounds the snapshots held at once.  The
//! accounting is a float sum in delivery order, so it stays one sequential
//! pass over the run's events.  Control state (caps, hysteresis, capped
//! channels, history) is per plan, in dense tables indexed by channel.
//!
//! Everything is a pure function of the run: no wall clock, no
//! randomness, no dependence on the worker count — the same discipline
//! that makes the streaming ledger bit-identical to the batch path makes
//! the governor byte-identical across repeat runs, and each plan's outcome
//! the same whether it is replayed alone or beside others.

use std::collections::VecDeque;

use pmss_core::Region;
use pmss_error::PmssError;
use pmss_gpu::consts::GPUS_PER_NODE;
use pmss_obs::Metrics;
use pmss_sched::Schedule;
use pmss_stream::{Cut, CutParts, Delivery, StreamConfig, StreamStats, TraceReplay};
use pmss_telemetry::{GapFill, WindowEvent, WindowKind, REST_SLOT};
use pmss_workloads::sweep::CapSetting;
use pmss_workloads::{Table3, Table3Row};

use crate::channels::ChannelAccum;
use crate::plan::{GovernorPlan, Policy, ResolvedPlan};

/// Per-region accounting of the governed replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RegionTally {
    /// Delivered GPU seconds classified into this region.
    pub seconds: f64,
    /// Delivered GPU joules classified into this region.
    pub joules: f64,
    /// Joules of this region's energy that arrived under a cap.
    pub capped_j: f64,
    /// Energy saved by the caps in force, joules (negative on regression).
    pub saved_j: f64,
    /// Runtime added by the caps in force, seconds.
    pub extra_s: f64,
}

/// What one governed replay realized, and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernOutcome {
    /// The policy that ran.
    pub policy: Policy,
    /// The cap applied to governed channels.
    pub cap: CapSetting,
    /// The cluster power budget, watts.
    pub budget_w: f64,
    /// Sync-window length, seconds.
    pub interval_s: f64,
    /// Sync windows elapsed over the replay.
    pub rounds: u64,
    /// Rounds in which the budget rebalancer adjusted at least one cap.
    pub rebalances: u64,
    /// Mode-cap and throttle transitions across all channels and nodes.
    pub cap_churn: u64,
    /// Mode-cap flips deferred by hysteresis.
    pub hysteresis_suppressions: u64,
    /// Node-rounds spent power-throttled (observed draw above the node
    /// cap).
    pub throttled_node_rounds: u64,
    /// Peak of `sum(node caps) / budget` across all rounds.
    pub peak_budget_utilization: f64,
    /// Whether the cluster budget was ever exceeded (must stay `false`).
    pub budget_exceeded: bool,
    /// Per-region delivery-side accounting, indexed by `Region::index()`.
    pub regions: [RegionTally; 4],
    /// Ingest tallies of the sensing engine.
    pub stream: StreamStats,
}

impl GovernOutcome {
    /// Total delivered GPU energy, joules.
    pub(crate) fn total_j(&self) -> f64 {
        self.regions.iter().map(|r| r.joules).sum()
    }

    /// Total delivered GPU time, seconds.
    pub(crate) fn total_s(&self) -> f64 {
        self.regions.iter().map(|r| r.seconds).sum()
    }

    /// Total energy saved, joules.
    pub fn saved_j(&self) -> f64 {
        self.regions.iter().map(|r| r.saved_j).sum()
    }

    /// Realized savings as a percentage of delivered GPU energy — the
    /// figure measured against the projection ceiling.
    pub fn realized_pct(&self) -> f64 {
        let total = self.total_j();
        if total > 0.0 {
            100.0 * self.saved_j() / total
        } else {
            0.0
        }
    }

    /// Realized savings as a percentage of `ceiling_pct`.
    pub fn of_ceiling_pct(&self, ceiling_pct: f64) -> f64 {
        if ceiling_pct != 0.0 {
            100.0 * self.realized_pct() / ceiling_pct
        } else {
            0.0
        }
    }

    /// Time-weighted slowdown in one region, percent.
    pub fn region_slowdown_pct(&self, region: Region) -> f64 {
        let t = &self.regions[region.index()];
        if t.seconds > 0.0 {
            100.0 * t.extra_s / t.seconds
        } else {
            0.0
        }
    }

    /// Time-weighted slowdown over the whole fleet, percent.
    pub fn slowdown_pct(&self) -> f64 {
        let total = self.total_s();
        if total > 0.0 {
            100.0 * self.regions.iter().map(|r| r.extra_s).sum::<f64>() / total
        } else {
            0.0
        }
    }

    /// Share of memory-intensive energy that arrived under a cap, percent
    /// — how much of the ceiling's substrate the classifier captured.
    pub fn mi_capture_pct(&self) -> f64 {
        let mi = &self.regions[Region::MemoryIntensive.index()];
        if mi.joules > 0.0 {
            100.0 * mi.capped_j / mi.joules
        } else {
            0.0
        }
    }

    /// Publishes counters and gauges under `govern.<policy>.*`.
    pub fn publish_metrics(&self, m: &mut Metrics) {
        let n = MetricNames::for_policy(self.policy);
        m.add(n.rounds, self.rounds);
        m.add(n.rebalances, self.rebalances);
        m.add(n.cap_churn, self.cap_churn);
        m.add(n.hysteresis_suppressions, self.hysteresis_suppressions);
        m.add(n.throttled_node_rounds, self.throttled_node_rounds);
        m.gauge_set(n.budget_utilization, self.peak_budget_utilization);
        m.gauge_set(n.realized_pct, self.realized_pct());
        m.gauge_set(n.slowdown_pct, self.slowdown_pct());
        m.gauge_set(n.mi_capture_pct, self.mi_capture_pct());
    }
}

/// Static metric-name table (the registry requires `&'static str` keys).
struct MetricNames {
    rounds: &'static str,
    rebalances: &'static str,
    cap_churn: &'static str,
    hysteresis_suppressions: &'static str,
    throttled_node_rounds: &'static str,
    budget_utilization: &'static str,
    realized_pct: &'static str,
    slowdown_pct: &'static str,
    mi_capture_pct: &'static str,
}

macro_rules! metric_names {
    ($policy:literal) => {
        MetricNames {
            rounds: concat!("govern.", $policy, ".rounds"),
            rebalances: concat!("govern.", $policy, ".rebalances"),
            cap_churn: concat!("govern.", $policy, ".cap_churn"),
            hysteresis_suppressions: concat!("govern.", $policy, ".hysteresis_suppressions"),
            throttled_node_rounds: concat!("govern.", $policy, ".throttled_node_rounds"),
            budget_utilization: concat!("govern.", $policy, ".peak_budget_utilization"),
            realized_pct: concat!("govern.", $policy, ".realized_pct"),
            slowdown_pct: concat!("govern.", $policy, ".slowdown_pct"),
            mi_capture_pct: concat!("govern.", $policy, ".mi_capture_pct"),
        }
    };
}

impl MetricNames {
    fn for_policy(policy: Policy) -> MetricNames {
        match policy {
            Policy::Static => metric_names!("static"),
            Policy::Greedy => metric_names!("greedy"),
            Policy::Polimer => metric_names!("polimer"),
        }
    }
}

/// Telemetry channels per node: the GPU slots plus rest-of-node.
const CHANNELS_PER_NODE: usize = REST_SLOT as usize + 1;

/// Dense index of channel `(node, slot)` in a fleet-wide channel table.
fn channel_index(node: u32, slot: u8) -> usize {
    node as usize * CHANNELS_PER_NODE + slot as usize
}

/// The caps in force during one round.
#[derive(Debug, Clone, Default)]
struct Assignment {
    /// Every channel is mode-capped (the `static` policy).
    all_capped: bool,
    /// Channels mode-capped by classification, indexed by
    /// [`channel_index`] (empty under `static`, which never classifies).
    capped: Vec<bool>,
    /// Per-node power-throttle setting, when the node exceeded its cap.
    throttle: Vec<Option<CapSetting>>,
}

impl Assignment {
    fn setting_for(&self, node: u32, slot: u8, cap: CapSetting) -> Option<CapSetting> {
        if self.all_capped || self.capped[channel_index(node, slot)] {
            Some(cap)
        } else {
            self.throttle.get(node as usize).copied().flatten()
        }
    }
}

/// Looks up the Table III factor row for a cap setting.
fn factor_row(table3: &Table3, cap: CapSetting) -> Result<Table3Row, PmssError> {
    let row = match cap {
        CapSetting::FreqMhz(m) => table3.freq_row(m),
        CapSetting::PowerW(w) => table3.power_row(w),
    };
    row.cloned().ok_or_else(|| {
        PmssError::invalid_value(
            "governor cap",
            format!("{cap:?}"),
            "a setting present in the factor table's cap ladders",
        )
    })
}

/// Sensed channel snapshots held at once, at most: a tile of sync-window
/// boundaries is this many over the run's channel count.
const TILE_SNAPSHOTS: usize = 1 << 13;

/// Runs one governed replay of `run` for every plan in `plans` and returns
/// their outcomes in plan order.
///
/// What is sensed does not depend on the plan — a plan's caps only change
/// how a delivered window is accounted — so the plans share one replay:
/// every channel's sensed totals at every sync-window boundary any sensing
/// plan has come from one [`TraceReplay`], a tile of boundaries at a time,
/// and each serves every plan that crosses that boundary.  A boundary is
/// crossed at the first event at or past it, and senses the events of
/// earlier ranks.  Each plan's controller keeps its own round cadence,
/// assignment history, caps and outcome, and accounts every event the
/// stream engine would admit, in delivery order.  Each outcome equals a
/// replay of its plan alone, and every result is a pure function of the
/// arguments.
///
/// Errors come in slice order: an invalid `window_s` first, then the first
/// plan whose cap has no factor-table row.
pub fn run_governor<D: Delivery>(
    schedule: &Schedule,
    run: &D,
    stream_cfg: StreamConfig,
    plans: &[ResolvedPlan],
    table3: &Table3,
    window_s: f64,
) -> Result<Vec<GovernOutcome>, PmssError> {
    if !(window_s.is_finite() && window_s > 0.0) {
        return Err(PmssError::invalid_value(
            "governor window_s",
            format!("{window_s}"),
            "a finite positive telemetry window",
        ));
    }
    // Throttle ladder: the non-baseline power settings, each with its own
    // factor row so throttled windows are charged honestly.
    let throttle_rows: Vec<Table3Row> = table3
        .power_rows
        .iter()
        .filter(|r| !r.setting.is_baseline())
        .cloned()
        .collect();
    // The engine refuses any channel outside the schedule's fleet, so every
    // channel an admitted event names indexes these tables.
    let channels = schedule.per_node.len() * CHANNELS_PER_NODE;
    let mut ctrls = plans
        .iter()
        .map(|r| Controller::new(r, table3, window_s, stream_cfg, channels))
        .collect::<Result<Vec<_>, PmssError>>()?;

    let mut sensing = Sensing {
        replay: TraceReplay::new(schedule, run, stream_cfg)?,
        intervals: ctrls
            .iter()
            .filter(|c| c.senses())
            .map(|c| c.interval)
            .collect(),
        last_rank: run.last_rank().unwrap_or(0),
        tile: (TILE_SNAPSHOTS / run.channels().len().max(1)).max(1),
        bounds: Vec::new(),
        parts: None,
        crossed: 0,
        replayed_to: 0,
    };
    for ev in run.events() {
        // Cross every sync-window boundary up to this event's rank, in
        // ascending order.  The event itself is sensed only after them, so
        // a decision only ever sees telemetry from strictly earlier ranks.
        while let Some(b) = ctrls.iter().map(|c| c.next_rank).min() {
            if b > ev.rank {
                break;
            }
            let sensed = ctrls.iter().any(|c| c.next_rank == b && c.senses());
            if sensed && sensing.crossed == sensing.bounds.len() {
                sensing.advance();
            }
            debug_assert!(!sensed || sensing.bounds[sensing.crossed] == b);
            let snap = sensing.parts.as_ref().filter(|_| sensed);
            for c in ctrls.iter_mut().filter(|c| c.next_rank == b) {
                c.cross(snap.map(|p| p.cut(sensing.crossed)), &throttle_rows);
            }
            sensing.crossed += usize::from(sensed);
        }
        // Whether the engine would refuse the event is known once the
        // replay has passed it.
        while ev.rank >= sensing.replayed_to {
            sensing.advance();
        }
        if sensing.replay.refused(&ev) {
            // Counted by the replay; an event past the reorder horizon is
            // neither sensed nor governed.
            continue;
        }
        if let Some(charge) = Charge::of(&ev) {
            for c in &mut ctrls {
                c.account(&ev, &charge, &throttle_rows);
            }
        }
    }
    if sensing.replayed_to != u64::MAX {
        sensing.replay.finish();
    }
    let stream = sensing.replay.stats();
    Ok(ctrls
        .into_iter()
        .map(|c| GovernOutcome { stream, ..c.out })
        .collect())
}

/// Every channel's sensed totals at the sensing boundaries, a tile of
/// boundaries at a time.
struct Sensing<'a, D: Delivery> {
    replay: TraceReplay<'a, ChannelAccum, D>,
    /// The sensing plans' sync windows, in windows.
    intervals: Vec<u64>,
    /// No boundary past the run's last rank is ever crossed.
    last_rank: u64,
    /// Boundaries per tile.
    tile: usize,
    /// The tile's boundaries, ascending, and the live channels' totals at
    /// each; the first `crossed` are behind every plan.
    bounds: Vec<u64>,
    parts: Option<CutParts<ChannelAccum>>,
    crossed: usize,
    /// The replay has passed every event of a lower rank (`u64::MAX` once
    /// it has finished).
    replayed_to: u64,
}

impl<D: Delivery> Sensing<'_, D> {
    /// Senses the next tile of boundaries (the current one is behind every
    /// plan), or finishes the replay when no boundary is left.
    fn advance(&mut self) {
        let mut after = self.replayed_to;
        self.bounds.clear();
        self.crossed = 0;
        self.parts = None;
        while self.bounds.len() < self.tile {
            let next = self.intervals.iter().map(|&i| (after / i + 1) * i).min();
            match next {
                Some(b) if b <= self.last_rank => {
                    self.bounds.push(b);
                    after = b;
                }
                _ => break,
            }
        }
        let Some(&last) = self.bounds.last() else {
            self.replay.finish();
            self.replayed_to = u64::MAX;
            return;
        };
        let cuts: Vec<Cut> = self.bounds.iter().map(|&b| Cut::before_rank(b)).collect();
        self.parts = Some(self.replay.cuts(&cuts));
        self.replayed_to = last;
    }
}

/// What one delivered GPU window puts on the books, whatever the plan:
/// its Table IV region, span and energy.
struct Charge {
    region: Region,
    span_s: f64,
    energy_j: f64,
}

impl Charge {
    /// The charge of `ev`, or `None` for a window nothing is charged for
    /// (rest-of-node, excluded gap, non-finite reading).
    fn of(ev: &WindowEvent) -> Option<Charge> {
        if ev.slot == REST_SLOT {
            return None;
        }
        let power_w = match ev.kind {
            WindowKind::Sample { power_w, .. } => power_w,
            WindowKind::Gap { fill, .. } => match fill {
                GapFill::Excluded => return None,
                GapFill::Interpolated(w) | GapFill::Idle(w) => w,
            },
            WindowKind::NodeRest { .. } => return None,
        };
        if !power_w.is_finite() {
            return None;
        }
        Some(Charge {
            region: Region::of_power(power_w),
            span_s: ev.span_s,
            energy_j: power_w * ev.span_s,
        })
    }
}

/// One plan's control loop inside the shared replay.
struct Controller<'p> {
    plan: &'p GovernorPlan,
    cap: CapSetting,
    cap_row: Table3Row,
    budget_w: f64,
    /// Sync-window length, windows.
    interval: u64,
    /// Rank at which the next sync window begins.
    next_rank: u64,
    /// How many past rounds an in-horizon late delivery can still reach.
    keep_rounds: usize,
    /// Assignment history: `history[i]` governed round `base_round + i`.
    history: VecDeque<Assignment>,
    base_round: u64,
    current: Assignment,
    /// Per-node power caps, watts.
    caps: Vec<f64>,
    /// Per-channel flips held back by hysteresis: the wanted state and the
    /// disagreeing rounds seen so far, indexed by [`channel_index`].
    pending: Vec<Option<(bool, u32)>>,
    /// Every channel's sensed totals at the previous sync window, indexed
    /// by [`channel_index`].
    prev_snap: Vec<ChannelAccum>,
    /// Per-node draw observed in the round being decided (reused).
    observed_w: Vec<f64>,
    out: GovernOutcome,
}

impl<'p> Controller<'p> {
    fn new(
        resolved: &'p ResolvedPlan,
        table3: &Table3,
        window_s: f64,
        stream_cfg: StreamConfig,
        channels: usize,
    ) -> Result<Self, PmssError> {
        let plan = &resolved.plan;
        let (nodes, budget_w) = (resolved.nodes, resolved.budget_w);
        let cap_row = factor_row(table3, resolved.cap)?;
        let interval = plan.interval_windows as u64;
        let caps =
            vec![(budget_w / nodes as f64).clamp(plan.node_floor_w, plan.node_ceiling_w); nodes];
        let senses = plan.policy != Policy::Static;
        let dense = if senses { channels } else { 0 };
        let current = Assignment {
            all_capped: !senses,
            capped: vec![false; dense],
            throttle: vec![None; nodes],
        };
        let initial_sum: f64 = caps.iter().sum();
        let out = GovernOutcome {
            policy: plan.policy,
            cap: resolved.cap,
            budget_w,
            interval_s: interval as f64 * window_s,
            rounds: 0,
            rebalances: 0,
            cap_churn: 0,
            hysteresis_suppressions: 0,
            throttled_node_rounds: 0,
            peak_budget_utilization: initial_sum / budget_w,
            budget_exceeded: initial_sum > budget_w * (1.0 + 1e-9),
            regions: Default::default(),
            stream: StreamStats::default(),
        };
        Ok(Controller {
            plan,
            cap: resolved.cap,
            cap_row,
            budget_w,
            interval,
            next_rank: interval,
            keep_rounds: (stream_cfg.reorder_horizon / interval) as usize + 2,
            history: VecDeque::from([current.clone()]),
            base_round: 0,
            current,
            caps,
            pending: vec![None; dense],
            prev_snap: vec![ChannelAccum::default(); dense],
            observed_w: vec![0.0; nodes],
            out,
        })
    }

    /// Whether the plan decides from telemetry (every policy but `static`).
    fn senses(&self) -> bool {
        self.plan.policy != Policy::Static
    }

    /// Crosses one sync-window boundary: decides the next round's caps
    /// from `snap` (sensing plans only) and records them.
    fn cross<'s>(
        &mut self,
        snap: Option<impl Iterator<Item = ((u32, u8), &'s ChannelAccum)> + Clone>,
        throttle_rows: &[Table3Row],
    ) {
        self.next_rank += self.interval;
        self.out.rounds += 1;
        if let Some(snap) = snap.filter(|_| self.senses()) {
            self.decide(snap.clone(), throttle_rows);
            for ((node, slot), acc) in snap {
                self.prev_snap[channel_index(node, slot)] = *acc;
            }
        }
        if self.history.len() == self.keep_rounds {
            self.history.pop_front();
            self.base_round += 1;
        }
        self.history.push_back(self.current.clone());
    }

    /// Charges one delivered window the factor of whatever cap its round's
    /// decision had in force.
    fn account(&mut self, ev: &WindowEvent, charge: &Charge, throttle_rows: &[Table3Row]) {
        // The newest assignment governs the current round and any window
        // past it; only a late window needs its round worked out.
        let newest = self.history.len() - 1;
        let idx = if ev.window >= self.next_rank - self.interval {
            newest
        } else {
            let ev_round = ev.window / self.interval;
            (ev_round.saturating_sub(self.base_round) as usize).min(newest)
        };
        let assign = &self.history[idx];
        let tally = &mut self.out.regions[charge.region.index()];
        tally.seconds += charge.span_s;
        tally.joules += charge.energy_j;
        if !charge.region.cappable() {
            return;
        }
        let Some(setting) = assign.setting_for(ev.node, ev.slot, self.cap) else {
            return;
        };
        let row = if setting == self.cap {
            &self.cap_row
        } else {
            match throttle_rows.iter().find(|r| r.setting == setting) {
                Some(r) => r,
                // A throttle setting is always drawn from `throttle_rows`;
                // tolerate a mismatch by charging nothing.
                None => return,
            }
        };
        let f = match charge.region {
            Region::MemoryIntensive => &row.mb,
            _ => &row.vai,
        };
        tally.capped_j += charge.energy_j;
        tally.saved_j += charge.energy_j * (1.0 - f.energy_pct / 100.0);
        tally.extra_s += charge.span_s * (f.runtime_pct - 100.0) / 100.0;
    }

    /// One sync-window decision: classify channels, apply hysteresis, and
    /// — under `polimer` — rebalance the cluster budget and derive
    /// throttles.
    fn decide<'s>(
        &mut self,
        snap: impl Iterator<Item = ((u32, u8), &'s ChannelAccum)>,
        throttle_rows: &[Table3Row],
    ) {
        let plan = self.plan;
        let budget_w = self.budget_w;
        let round_span_s = self.out.interval_s;
        let out = &mut self.out;
        let caps = &mut self.caps;
        let current = &mut self.current;
        let nodes = caps.len();
        let observed_w = &mut self.observed_w;
        observed_w.fill(0.0);

        // Classify every channel that sensed telemetry this round.
        for ((node, slot), acc) in snap {
            let key = channel_index(node, slot);
            let delta = acc.minus(&self.prev_snap[key]);
            if slot == REST_SLOT {
                continue;
            }
            if (node as usize) < nodes {
                observed_w[node as usize] += delta.total_j().max(0.0) / round_span_s;
            }
            let Some(region) = delta.dominant_region() else {
                continue;
            };
            let want = region == Region::MemoryIntensive;
            let have = current.capped[key];
            if want == have {
                self.pending[key] = None;
                continue;
            }
            if plan.hysteresis_rounds > 0 {
                let entry = self.pending[key].get_or_insert((want, 0));
                if entry.0 != want {
                    *entry = (want, 0);
                }
                entry.1 += 1;
                if entry.1 <= plan.hysteresis_rounds {
                    out.hysteresis_suppressions += 1;
                    continue;
                }
                self.pending[key] = None;
            }
            current.capped[key] = want;
            out.cap_churn += 1;
        }

        if plan.policy != Policy::Polimer {
            return;
        }

        // Slack reclamation: a node observed under its lower threshold
        // donates a `decrease_rate` fraction of the measured slack back to
        // the pool.
        let mut adjusted = false;
        for n in 0..nodes {
            if observed_w[n] < plan.lower_thresh * caps[n] {
                let target = observed_w[n] / plan.lower_thresh;
                let next = (caps[n] - plan.decrease_rate * (caps[n] - target))
                    .clamp(plan.node_floor_w, plan.node_ceiling_w);
                if next < caps[n] {
                    caps[n] = next;
                    adjusted = true;
                }
            }
        }
        // Grants: a node observed above its upper threshold receives
        // headroom for the observed draw plus an `increase_rate` margin, as
        // far as the remaining pool allows — so `sum(caps) <= budget` holds
        // structurally.
        let mut pool = budget_w - caps.iter().sum::<f64>();
        for n in 0..nodes {
            if observed_w[n] > plan.upper_thresh * caps[n] {
                let need = (observed_w[n] * (1.0 + plan.increase_rate) - caps[n])
                    .min(plan.node_ceiling_w - caps[n])
                    .min(pool);
                if need > 0.0 {
                    caps[n] += need;
                    pool -= need;
                    adjusted = true;
                }
            }
        }
        if adjusted {
            out.rebalances += 1;
        }

        // Throttle nodes still drawing above their cap: the strongest
        // ladder power setting that fits the per-GPU share of the node cap
        // (or the deepest available setting when none fits).
        for n in 0..nodes {
            let throttle = if observed_w[n] > caps[n] {
                let per_gpu = caps[n] / GPUS_PER_NODE as f64;
                throttle_rows
                    .iter()
                    .filter(|r| r.setting.value() <= per_gpu)
                    .max_by(|a, b| a.setting.value().total_cmp(&b.setting.value()))
                    .or_else(|| {
                        throttle_rows
                            .iter()
                            .min_by(|a, b| a.setting.value().total_cmp(&b.setting.value()))
                    })
                    .map(|r| r.setting)
            } else {
                None
            };
            if throttle.is_some() {
                out.throttled_node_rounds += 1;
            }
            if current.throttle[n] != throttle {
                current.throttle[n] = throttle;
                out.cap_churn += 1;
            }
        }

        let total: f64 = caps.iter().sum();
        out.peak_budget_utilization = out.peak_budget_utilization.max(total / budget_w);
        if total > budget_w * (1.0 + 1e-9) {
            out.budget_exceeded = true;
        }
    }
}

#[cfg(test)]
#[path = "sim_oracle.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use pmss_stream::EventRun;
    use pmss_workloads::Factors;

    const WINDOW_S: f64 = 15.0;

    fn schedule(nodes: usize) -> Schedule {
        Schedule {
            jobs: Vec::new(),
            per_node: vec![Vec::new(); nodes],
            duration_s: 4.0 * 3600.0,
        }
    }

    fn table() -> Table3 {
        let f = |power, runtime, energy| Factors {
            power_pct: power,
            runtime_pct: runtime,
            energy_pct: energy,
        };
        Table3 {
            freq_rows: vec![
                Table3Row {
                    setting: CapSetting::FreqMhz(1700.0),
                    vai: f(100.0, 100.0, 100.0),
                    mb: f(100.0, 100.0, 100.0),
                },
                Table3Row {
                    setting: CapSetting::FreqMhz(700.0),
                    vai: f(60.0, 140.0, 84.0),
                    mb: f(88.0, 100.0, 88.0),
                },
            ],
            power_rows: vec![
                Table3Row {
                    setting: CapSetting::PowerW(560.0),
                    vai: f(100.0, 100.0, 100.0),
                    mb: f(100.0, 100.0, 100.0),
                },
                Table3Row {
                    setting: CapSetting::PowerW(300.0),
                    vai: f(55.0, 160.0, 88.0),
                    mb: f(90.0, 102.0, 91.8),
                },
                Table3Row {
                    setting: CapSetting::PowerW(100.0),
                    vai: f(20.0, 400.0, 80.0),
                    mb: f(40.0, 200.0, 80.0),
                },
            ],
        }
    }

    fn sample(node: u32, slot: u8, window: u64, power_w: f64) -> WindowEvent {
        WindowEvent {
            node,
            slot,
            sku: 0,
            window,
            rank: window,
            t_s: window as f64 * WINDOW_S,
            span_s: WINDOW_S,
            kind: WindowKind::Sample { power_w, job: None },
        }
    }

    /// `windows` in-order windows of steady `power_w` on every GPU slot of
    /// `nodes` nodes.
    fn steady_events(nodes: u32, windows: u64, power_w: f64) -> Vec<WindowEvent> {
        let mut evs = Vec::new();
        for w in 0..windows {
            for n in 0..nodes {
                for s in 0..GPUS_PER_NODE as u8 {
                    evs.push(sample(n, s, w, power_w));
                }
            }
        }
        evs
    }

    fn resolved(name: &str, nodes: usize) -> ResolvedPlan {
        GovernorPlan::preset(name)
            .unwrap()
            .resolve(nodes, CapSetting::FreqMhz(700.0))
            .unwrap()
    }

    fn run(name: &str, nodes: usize, events: &[WindowEvent]) -> GovernOutcome {
        let sched = schedule(nodes);
        let mut outs = run_governor(
            &sched,
            &EventRun::new(events.to_vec()).unwrap(),
            StreamConfig::for_plan(None),
            &[resolved(name, nodes)],
            &table(),
            WINDOW_S,
        )
        .unwrap();
        outs.pop().unwrap()
    }

    #[test]
    fn static_policy_caps_everything_from_round_zero() {
        let evs = steady_events(2, 8, 300.0); // memory-intensive
        let out = run("static", 2, &evs);
        let mi = &out.regions[Region::MemoryIntensive.index()];
        assert_eq!(mi.capped_j, mi.joules);
        assert_eq!(out.mi_capture_pct(), 100.0);
        // mb energy factor 88 % → 12 % realized on an all-MI fleet.
        assert!((out.realized_pct() - 12.0).abs() < 1e-9);
        assert_eq!(out.slowdown_pct(), 0.0);
        assert!(!out.budget_exceeded);
    }

    #[test]
    fn greedy_converges_after_one_sync_window() {
        let evs = steady_events(1, 12, 300.0);
        let out = run("greedy", 1, &evs);
        // The first sync window runs uncapped while the classifier warms
        // up; everything after is captured.
        let mi = &out.regions[Region::MemoryIntensive.index()];
        assert!(mi.capped_j > 0.0 && mi.capped_j < mi.joules);
        assert!(out.mi_capture_pct() > 60.0);
        assert!(out.realized_pct() > 0.0);
        assert_eq!(out.stream.late_rejects, 0);
    }

    #[test]
    fn greedy_leaves_compute_intensive_channels_alone() {
        let evs = steady_events(1, 12, 500.0); // compute-intensive
        let out = run("greedy", 1, &evs);
        let ci = &out.regions[Region::ComputeIntensive.index()];
        assert_eq!(ci.capped_j, 0.0);
        assert_eq!(out.realized_pct(), 0.0);
        assert_eq!(out.slowdown_pct(), 0.0);
    }

    #[test]
    fn polimer_hysteresis_defers_the_first_flip() {
        let evs = steady_events(1, 12, 300.0);
        let greedy = run("greedy", 1, &evs);
        let polimer = run("polimer", 1, &evs);
        // One extra round of deferral per channel: polimer captures less.
        assert!(polimer.hysteresis_suppressions > 0);
        assert!(polimer.mi_capture_pct() < greedy.mi_capture_pct());
        assert!(polimer.mi_capture_pct() > 0.0);
    }

    #[test]
    fn polimer_reclaims_slack_and_respects_the_budget() {
        let mut plan = GovernorPlan::preset("polimer").unwrap();
        // Scarce budget: 2 nodes sharing less than 2 ceilings.
        plan.budget_w = Some(3000.0);
        let r = plan.resolve(2, CapSetting::FreqMhz(700.0)).unwrap();
        // Node 0 idles at 100 W/GPU, node 1 runs hot at 520 W/GPU.
        let mut evs = Vec::new();
        for w in 0..16u64 {
            for (node, power_w) in [(0, 100.0), (1, 520.0)] {
                for s in 0..GPUS_PER_NODE as u8 {
                    evs.push(sample(node, s, w, power_w));
                }
            }
        }
        let out = run_governor(
            &schedule(2),
            &EventRun::new(evs).unwrap(),
            StreamConfig::for_plan(None),
            &[r],
            &table(),
            WINDOW_S,
        )
        .unwrap()
        .remove(0);
        assert!(out.rebalances > 0);
        assert!(!out.budget_exceeded);
        assert!(out.peak_budget_utilization <= 1.0 + 1e-9);
        // The hot node starts over-cap (1500 W split) and gets throttled
        // until the idle node's slack is reclaimed and granted over.
        assert!(out.throttled_node_rounds > 0);
    }

    #[test]
    fn outcomes_are_deterministic_across_repeat_runs() {
        let evs = steady_events(3, 10, 300.0);
        let a = run("polimer", 3, &evs);
        let b = run("polimer", 3, &evs);
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_cap_is_a_typed_error_not_a_panic() {
        let mut plan = GovernorPlan::preset("static").unwrap();
        plan.cap = Some(CapSetting::FreqMhz(123.0));
        let r = plan.resolve(1, CapSetting::FreqMhz(700.0)).unwrap();
        let err = run_governor(
            &schedule(1),
            &EventRun::new(Vec::new()).unwrap(),
            StreamConfig::for_plan(None),
            &[r],
            &table(),
            WINDOW_S,
        )
        .unwrap_err();
        assert!(err.to_string().contains("governor cap"));
    }

    #[test]
    fn metrics_publish_under_the_policy_prefix() {
        let evs = steady_events(1, 6, 300.0);
        let out = run("polimer", 1, &evs);
        let mut m = Metrics::new();
        out.publish_metrics(&mut m);
        assert_eq!(m.counter("govern.polimer.rounds"), out.rounds);
        assert!(m.gauge("govern.polimer.realized_pct").is_some());
    }
}
