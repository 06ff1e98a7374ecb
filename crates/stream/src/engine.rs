//! The streaming ingest engine: reorder-buffered, sharded, bounded-memory.
//!
//! Telemetry windows arrive as [`WindowEvent`]s, possibly out of order
//! within a bounded reorder horizon (a collection fabric's delivery jitter,
//! modeled by `pmss-faults`' bounded-buffer reordering).  The engine holds
//! one partial observer per telemetry channel plus a small per-channel
//! reorder buffer, releases windows into the partial once they can no
//! longer be preceded by a late sibling, and snapshots by merging the
//! partials in the batch simulation's canonical channel order — which is
//! what makes a snapshot bit-identical to [`simulate_fleet`] over the same
//! windows, for every observer.
//!
//! Memory is O(live channels × horizon) buffered windows, never O(trace).
//!
//! [`simulate_fleet`]: pmss_telemetry::simulate_fleet

use std::collections::VecDeque;
use std::fmt;
use std::mem::size_of;

use pmss_error::PmssError;
use pmss_faults::FaultPlan;
use pmss_obs::Metrics;
use pmss_sched::Schedule;
use pmss_telemetry::{
    apply_event, ColumnBlock, FleetObserver, Tag, WindowEvent, WindowKind, NO_JOB, REST_SLOT,
};

/// Telemetry channels per node: the GPU slots plus the rest-of-node
/// channel — the stride of the dense per-shard channel table.
const CHANNELS_PER_NODE: usize = REST_SLOT as usize + 1;

/// Bound on a channel's reorder-ring span, in windows: an event whose
/// window is this many or more past the channel's release floor is
/// rejected with [`StreamError::SpanOverflow`] instead of growing the ring
/// toward it.  The ring grows lazily to the span actually buffered, so
/// this is the engine's memory armor against adversarial far-future
/// windows (a window near `u64::MAX` would otherwise demand an unpayable
/// allocation).  ~2 years of 15 s windows: far above any real campaign
/// (three months is ~5×10⁵ windows, and a generator stream never spans
/// more than the horizon plus the longest dropped run) but small enough
/// that one far-future window can never grow a ring past a few hundred
/// megabytes.
const MAX_SPAN_WINDOWS: u64 = 1 << 22;

/// Spill vectors kept per shard for reuse.  Spills only happen on
/// duplicate deliveries of one window, so a handful of slabs covers any
/// realistic fault plan without hoarding memory.
const SPARE_SLABS: usize = 8;

/// Shape of a streaming ingest: how many shards partition the fleet and
/// how much delivery reordering the engine must absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Number of ingest shards; channels are assigned by `node % shards`.
    pub shards: usize,
    /// Reorder horizon in windows: a window is buffered until a sibling
    /// `horizon` windows ahead has been seen, after which no earlier
    /// window can still arrive.  Must exceed the delivery lag bound
    /// (`FaultPlan::reorder_depth`); see [`StreamConfig::for_plan`].
    pub reorder_horizon: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            shards: 1,
            reorder_horizon: 1,
        }
    }
}

impl StreamConfig {
    /// The minimal safe configuration for telemetry degraded by `plan`:
    /// a horizon one past the plan's delivery-lag bound (`reorder_depth`),
    /// which is exactly enough to make every buffered window final before
    /// release.  A clean stream (no plan) gets horizon 1: each window is
    /// released as soon as its successor arrives.
    pub fn for_plan(plan: Option<&FaultPlan>) -> StreamConfig {
        let depth = plan
            .filter(|p| !p.is_noop())
            .map_or(0, |p| p.reorder_depth as u64);
        StreamConfig {
            shards: 1,
            reorder_horizon: depth + 1,
        }
    }

    /// Returns `self` with a different shard count (builder-style).
    pub fn with_shards(mut self, shards: usize) -> StreamConfig {
        self.shards = shards;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), PmssError> {
        if self.shards == 0 {
            return Err(PmssError::invalid_value(
                "stream shards",
                "0",
                "at least one ingest shard",
            ));
        }
        if self.reorder_horizon == 0 {
            return Err(PmssError::invalid_value(
                "stream reorder horizon",
                "0",
                "at least one window of lateness tolerance",
            ));
        }
        Ok(())
    }
}

/// Why the engine refused an event.
///
/// Every variant is a *per-event* rejection: the engine's state (ledger,
/// reorder buffers, tallies other than the reject counter itself) is
/// untouched, and later ingests proceed normally — an adversarial frame
/// can be dropped and the stream resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The event's window is behind its channel's release floor: an event
    /// at least `reorder_horizon` windows ahead was already seen, so this
    /// window was finalized and its telemetry can no longer be amended.
    LateArrival {
        /// Node of the offending event.
        node: u32,
        /// Channel slot of the offending event.
        slot: u8,
        /// The event's window.
        window: u64,
        /// The channel's release floor (first still-accepted window).
        floor: u64,
    },
    /// The event names a channel the schedule does not have: a slot past
    /// the rest-of-node channel, or a node outside the fleet.
    InvalidChannel {
        /// Node of the offending event.
        node: u32,
        /// Channel slot of the offending event.
        slot: u8,
        /// Nodes in the schedule's fleet (valid nodes are `0..nodes`).
        nodes: u64,
    },
    /// The event's window is too far past its channel's release floor to
    /// be buffered: accepting it would grow the reorder ring beyond the
    /// engine's span bound (or beyond addressable memory).
    SpanOverflow {
        /// Node of the offending event.
        node: u32,
        /// Channel slot of the offending event.
        slot: u8,
        /// The event's window.
        window: u64,
        /// The channel's release floor (first still-accepted window).
        floor: u64,
        /// The span bound the event exceeded, in windows.
        max_span: u64,
    },
    /// The event attributes its sample to a job index outside the
    /// schedule's job log — applying it would index out of bounds.
    InvalidJob {
        /// Node of the offending event.
        node: u32,
        /// Channel slot of the offending event.
        slot: u8,
        /// The event's window.
        window: u64,
        /// The out-of-range job index.
        job: u64,
        /// Jobs in the schedule's log (valid indices are `0..jobs`).
        jobs: u64,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::LateArrival {
                node,
                slot,
                window,
                floor,
            } => write!(
                f,
                "late arrival on channel ({node}, {slot}): window {window} is \
                 behind the release floor {floor} (delivery lag exceeded the \
                 configured reorder horizon)"
            ),
            StreamError::InvalidChannel { node, slot, nodes } => write!(
                f,
                "invalid channel ({node}, {slot}): the schedule has nodes \
                 0..{nodes} with GPU slots 0..{REST_SLOT} plus the \
                 rest-of-node slot {REST_SLOT}"
            ),
            StreamError::SpanOverflow {
                node,
                slot,
                window,
                floor,
                max_span,
            } => write!(
                f,
                "reorder span overflow on channel ({node}, {slot}): window \
                 {window} is {} past the release floor {floor}, beyond the \
                 {max_span}-window buffering bound",
                window - floor
            ),
            StreamError::InvalidJob {
                node,
                slot,
                window,
                job,
                jobs,
            } => write!(
                f,
                "invalid job attribution on channel ({node}, {slot}) window \
                 {window}: job index {job} is outside the schedule's job log \
                 (0..{jobs})"
            ),
        }
    }
}

impl From<StreamError> for PmssError {
    fn from(e: StreamError) -> PmssError {
        let expected = match e {
            StreamError::LateArrival { .. } => "delivery lag within the configured reorder horizon",
            StreamError::InvalidChannel { .. } => "a channel the schedule's fleet has",
            StreamError::SpanOverflow { .. } => "a window within the reorder span bound",
            StreamError::InvalidJob { .. } => "a job index within the schedule's job log",
        };
        PmssError::invalid_value("stream event", e.to_string(), expected)
    }
}

/// Ingest tallies, cheap enough to read after every event.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    /// Events accepted (samples + gaps + rest-of-node).
    pub events: u64,
    /// GPU power samples accepted.
    pub samples: u64,
    /// Gap (lost-window) events accepted.
    pub gaps: u64,
    /// Rest-of-node samples accepted.
    pub rest_samples: u64,
    /// Windows released from reorder buffers into channel partials.
    pub released_windows: u64,
    /// Events rejected as [`StreamError::LateArrival`].
    pub late_rejects: u64,
    /// Events rejected as [`StreamError::InvalidChannel`].
    pub channel_rejects: u64,
    /// Events rejected as [`StreamError::SpanOverflow`].
    pub span_rejects: u64,
    /// Events rejected as [`StreamError::InvalidJob`].
    pub job_rejects: u64,
    /// Windows currently buffered across all channels.
    pub buffered_windows: usize,
    /// High-water mark of `buffered_windows` (measured at release
    /// steady-state, so it respects the declared per-channel bound).
    pub peak_buffered_windows: usize,
    /// High-water mark of any single channel's buffered windows; bounded
    /// by the configured reorder horizon.
    pub peak_channel_windows: usize,
}

/// One reorder-ring slot: the deliveries of one window.  The overwhelming
/// majority of windows arrive exactly once, so the single-event case is
/// stored inline; duplicate deliveries spill into a `Vec` drawn from the
/// shard's slab free list and returned on release.
#[derive(Debug, Clone)]
enum Slot {
    /// No delivery buffered for this window (yet).
    Empty,
    /// Exactly one delivery, stored inline.
    One(WindowEvent),
    /// Duplicate deliveries, in arrival order.
    Many(Vec<WindowEvent>),
}

impl Slot {
    fn is_present(&self) -> bool {
        !matches!(self, Slot::Empty)
    }
}

/// One telemetry channel's ingest state.
///
/// The reorder buffer is a ring: slot `i` of `ring` holds the deliveries
/// of window `floor + i`.  The ring grows lazily to the span actually
/// buffered (at release steady-state at most the reorder horizon, since a
/// window whose successor `horizon` ahead has been seen is released), and
/// its allocation is retained across releases — the steady state allocates
/// nothing per window.
#[derive(Debug, Clone)]
struct Channel<O> {
    /// Windows below the floor, applied in ascending order.
    partial: O,
    /// Buffered in-horizon windows; slot `i` is window `floor + i`.
    ring: VecDeque<Slot>,
    /// Present (distinct buffered) windows in the ring.
    buffered: usize,
    /// Highest window seen on this channel.
    max_seen: u64,
    /// First window still accepted; everything below is final.
    floor: u64,
}

impl<O: FleetObserver + Default> Default for Channel<O> {
    fn default() -> Self {
        Channel {
            partial: O::default(),
            ring: VecDeque::new(),
            buffered: 0,
            max_seen: 0,
            floor: 0,
        }
    }
}

/// One ingest shard: a dense table of the channels of every node with
/// `node % shards == shard index` (indexed by
/// `(node / shards) * CHANNELS_PER_NODE + slot`), plus a delivered-event
/// tally for imbalance accounting and the spill-slab free list.
#[derive(Debug, Clone)]
struct Shard<O> {
    channels: Vec<Option<Channel<O>>>,
    /// Live (materialized) channels in `channels`.
    live: usize,
    events: u64,
    /// Reusable spill vectors (see [`Slot::Many`]).
    spare: Vec<Vec<WindowEvent>>,
}

impl<O> Default for Shard<O> {
    fn default() -> Self {
        Shard {
            channels: Vec::new(),
            live: 0,
            events: 0,
            spare: Vec::new(),
        }
    }
}

/// Applies one released slot's deliveries to the channel partial, in
/// arrival order, returning any spill slab to the free list.
fn apply_slot<O: FleetObserver>(
    partial: &mut O,
    schedule: &Schedule,
    slot: Slot,
    spare: &mut Vec<Vec<WindowEvent>>,
) {
    match slot {
        Slot::Empty => {}
        Slot::One(ev) => apply_event(partial, schedule, &ev),
        Slot::Many(mut evs) => {
            for e in &evs {
                apply_event(partial, schedule, e);
            }
            if spare.len() < SPARE_SLABS {
                evs.clear();
                spare.push(evs);
            }
        }
    }
}

/// Releases every window that can no longer be preceded: delivery rank is
/// window + lag with lag < horizon, and ranks arrive non-decreasing, so
/// once a window `max_seen` is delivered no window at or below
/// `max_seen - horizon` can still appear.  The floor advances only past
/// *released* (present) windows — a window index that was never delivered
/// stays acceptable until some later window is finalized past it.
fn release_ready<O: FleetObserver>(
    ch: &mut Channel<O>,
    spare: &mut Vec<Vec<WindowEvent>>,
    stats: &mut StreamStats,
    schedule: &Schedule,
    horizon: u64,
) {
    // First present window; generator streams are dense, so this is
    // almost always the front slot.
    while let Some(k) = ch.ring.iter().position(Slot::is_present) {
        let w = ch.floor + k as u64;
        if w.saturating_add(horizon) > ch.max_seen {
            break;
        }
        for _ in 0..k {
            ch.ring.pop_front();
        }
        let slot = ch.ring.pop_front().expect("present slot at k");
        apply_slot(&mut ch.partial, schedule, slot, spare);
        ch.floor = w + 1;
        ch.buffered -= 1;
        stats.buffered_windows -= 1;
        stats.released_windows += 1;
    }
}

/// The streaming ingest engine, generic over the observer it maintains.
///
/// Snapshots are bit-identical to the batch path for every observer: both
/// fold one partial per channel and merge them in canonical order.
pub struct StreamEngine<'a, O: FleetObserver + Default + Clone> {
    schedule: &'a Schedule,
    cfg: StreamConfig,
    shards: Vec<Shard<O>>,
    stats: StreamStats,
}

impl<'a, O: FleetObserver + Default + Clone> StreamEngine<'a, O> {
    /// Creates an engine over `schedule`'s job log (needed to attribute
    /// sample events to jobs).
    pub fn new(schedule: &'a Schedule, cfg: StreamConfig) -> Result<Self, PmssError> {
        cfg.validate()?;
        Ok(StreamEngine {
            schedule,
            cfg,
            shards: (0..cfg.shards).map(|_| Shard::default()).collect(),
            stats: StreamStats::default(),
        })
    }

    /// Current ingest tallies.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// The declared buffered-window bound: every live channel holds at
    /// most `reorder_horizon` windows, so total buffered memory is
    /// O(channels × horizon) — independent of trace length.
    pub fn buffer_bound(&self) -> usize {
        let channels: u64 = self.shards.iter().map(|s| s.live as u64).sum();
        // Multiply in u64 so a horizon above u32::MAX is not truncated on
        // 32-bit targets, then saturate into the platform's usize.
        let bound = channels.saturating_mul(self.cfg.reorder_horizon);
        usize::try_from(bound).unwrap_or(usize::MAX)
    }

    /// Approximate heap footprint of the reorder buffers, in bytes: ring
    /// and spill-slab capacities across every live channel (capacities,
    /// not lengths, because the buffers are retained for reuse).
    pub fn buffer_bytes(&self) -> usize {
        let mut bytes = 0usize;
        for shard in &self.shards {
            bytes = bytes
                .saturating_add(shard.channels.capacity() * size_of::<Option<Channel<O>>>())
                .saturating_add(
                    shard
                        .spare
                        .iter()
                        .map(|v| v.capacity() * size_of::<WindowEvent>())
                        .sum(),
                );
            for ch in shard.channels.iter().flatten() {
                bytes = bytes.saturating_add(ch.ring.capacity() * size_of::<Slot>());
                for slot in &ch.ring {
                    if let Slot::Many(evs) = slot {
                        bytes = bytes.saturating_add(evs.capacity() * size_of::<WindowEvent>());
                    }
                }
            }
        }
        bytes
    }

    /// Validates the parts of `ev` that are dangerous when the event comes
    /// from an untrusted frame, *before* any engine state is touched: the
    /// channel must exist in the schedule's fleet, the window must be
    /// within the channel's accepted span, and any job attribution must
    /// index the schedule's job log.  Returns the event's ring offset.
    fn admit(&self, ev: &WindowEvent) -> Result<usize, StreamError> {
        if (ev.slot as usize) >= CHANNELS_PER_NODE
            || (ev.node as usize) >= self.schedule.per_node.len()
        {
            return Err(StreamError::InvalidChannel {
                node: ev.node,
                slot: ev.slot,
                nodes: self.schedule.per_node.len() as u64,
            });
        }
        // Job attribution indexes `schedule.jobs`; an out-of-range index
        // from an adversarial frame must be refused here, where it is a
        // typed error, not inside `apply_event`, where it is a panic.
        let job = match ev.kind {
            WindowKind::Sample { job, .. } | WindowKind::Gap { job, .. } => job,
            WindowKind::NodeRest { .. } => None,
        };
        if let Some(j) = job {
            if j >= self.schedule.jobs.len() {
                return Err(StreamError::InvalidJob {
                    node: ev.node,
                    slot: ev.slot,
                    window: ev.window,
                    job: j as u64,
                    jobs: self.schedule.jobs.len() as u64,
                });
            }
        }
        let floor = self.channel(ev.node, ev.slot).map_or(0, |ch| ch.floor);
        if ev.window < floor {
            return Err(StreamError::LateArrival {
                node: ev.node,
                slot: ev.slot,
                window: ev.window,
                floor,
            });
        }
        // The ring offset the event would occupy.  Bounding it (and
        // checking the usize conversion rather than `as`-truncating) is
        // what keeps a far-future window from demanding an unbounded ring
        // allocation or landing in some other window's slot.
        let span = ev.window - floor;
        match usize::try_from(span) {
            Ok(idx) if span < MAX_SPAN_WINDOWS => Ok(idx),
            _ => Err(StreamError::SpanOverflow {
                node: ev.node,
                slot: ev.slot,
                window: ev.window,
                floor,
                max_span: MAX_SPAN_WINDOWS,
            }),
        }
    }

    /// The (possibly unmaterialized) channel of `(node, slot)`.
    fn channel(&self, node: u32, slot: u8) -> Option<&Channel<O>> {
        let shard = &self.shards[node as usize % self.cfg.shards];
        let local = (node as usize / self.cfg.shards) * CHANNELS_PER_NODE + slot as usize;
        shard.channels.get(local).and_then(Option::as_ref)
    }

    /// Counts a rejection in the matching [`StreamStats`] counter.
    fn count_reject(&mut self, err: &StreamError) {
        match err {
            StreamError::LateArrival { .. } => self.stats.late_rejects += 1,
            StreamError::InvalidChannel { .. } => self.stats.channel_rejects += 1,
            StreamError::SpanOverflow { .. } => self.stats.span_rejects += 1,
            StreamError::InvalidJob { .. } => self.stats.job_rejects += 1,
        }
    }

    /// Ingests one event, buffering it until its window is final.
    ///
    /// Adversarial or degraded events are counted and rejected with a
    /// typed [`StreamError`] — late windows ([`StreamError::LateArrival`]),
    /// channels outside the schedule ([`StreamError::InvalidChannel`]),
    /// windows beyond the buffering span ([`StreamError::SpanOverflow`]),
    /// and out-of-range job attributions ([`StreamError::InvalidJob`]).
    /// Every check runs before any state is touched, so a rejected event
    /// leaves the engine exactly as it was and later ingests proceed
    /// normally.
    pub fn ingest(&mut self, ev: WindowEvent) -> Result<(), StreamError> {
        let idx = match self.admit(&ev) {
            Ok(idx) => idx,
            Err(e) => {
                self.count_reject(&e);
                return Err(e);
            }
        };
        let horizon = self.cfg.reorder_horizon;
        let schedule = self.schedule;
        let nshards = self.cfg.shards;
        let shard = &mut self.shards[ev.node as usize % nshards];
        let local = (ev.node as usize / nshards) * CHANNELS_PER_NODE + ev.slot as usize;
        if local >= shard.channels.len() {
            shard.channels.resize_with(local + 1, || None);
        }
        let ch = match &mut shard.channels[local] {
            Some(ch) => ch,
            vacant => {
                shard.live += 1;
                vacant.insert(Channel::default())
            }
        };
        debug_assert_eq!(idx as u64, ev.window - ch.floor);
        shard.events += 1;
        self.stats.events += 1;
        match ev.kind {
            WindowKind::Sample { .. } => self.stats.samples += 1,
            WindowKind::Gap { .. } => self.stats.gaps += 1,
            WindowKind::NodeRest { .. } => self.stats.rest_samples += 1,
        }
        ch.max_seen = ch.max_seen.max(ev.window);
        if idx >= ch.ring.len() {
            // Lazy growth to the span actually buffered — a huge horizon
            // must not preallocate anything (it only *permits* lateness).
            ch.ring.resize(idx + 1, Slot::Empty);
        }
        let slot = &mut ch.ring[idx];
        let fresh = match slot {
            Slot::Empty => {
                *slot = Slot::One(ev);
                true
            }
            Slot::One(_) => {
                let mut evs = shard.spare.pop().unwrap_or_default();
                let Slot::One(first) = std::mem::replace(slot, Slot::Empty) else {
                    unreachable!("matched One above")
                };
                evs.push(first);
                evs.push(ev);
                *slot = Slot::Many(evs);
                false
            }
            Slot::Many(evs) => {
                evs.push(ev);
                false
            }
        };
        if fresh {
            ch.buffered += 1;
            self.stats.buffered_windows += 1;
        }
        release_ready(ch, &mut shard.spare, &mut self.stats, schedule, horizon);
        self.stats.peak_channel_windows = self.stats.peak_channel_windows.max(ch.buffered);
        self.stats.peak_buffered_windows = self
            .stats
            .peak_buffered_windows
            .max(self.stats.buffered_windows);
        Ok(())
    }

    /// Ingests one channel block in stored (arrival) order — the columnar
    /// generator's delivery path.  Strictly-ascending blocks landing on an
    /// empty reorder ring (every clean channel, and any fault plan without
    /// reordering or duplication) take a columnar fast path: the rows that
    /// are already final fold straight into the channel partial as one
    /// range ([`FleetObserver::fold_rows`]) and only the in-horizon tail
    /// touches the ring.  The fold performs the identical observer-call
    /// sequence the per-event path would, so results — and every ingest
    /// statistic, including the buffered-window peaks — are bit-identical.
    /// Other blocks fall back to row-by-row [`StreamEngine::ingest`],
    /// stopping at the first rejection (the rows before it stay applied;
    /// the rejected row leaves no trace).  A block naming a channel outside
    /// the schedule is refused atomically with
    /// [`StreamError::InvalidChannel`] before any row is touched.
    pub fn ingest_block(&mut self, block: &ColumnBlock) -> Result<(), StreamError> {
        // Every row shares the block's channel, so the channel bounds are
        // checked once, up front, and the rejection is atomic.
        if (block.slot() as usize) >= CHANNELS_PER_NODE
            || (block.node() as usize) >= self.schedule.per_node.len()
        {
            let err = StreamError::InvalidChannel {
                node: block.node(),
                slot: block.slot(),
                nodes: self.schedule.per_node.len() as u64,
            };
            self.count_reject(&err);
            return Err(err);
        }
        if self.try_ingest_block_inorder(block) {
            return Ok(());
        }
        for ev in block.iter() {
            self.ingest(ev)?;
        }
        Ok(())
    }

    /// The in-order columnar fast path (see [`StreamEngine::ingest_block`]).
    /// Returns `false` — leaving the engine untouched — when the block
    /// needs the general per-event path: non-monotonic or duplicated
    /// windows, a non-empty reorder ring, rows behind the release floor,
    /// or rows the per-event path would reject (bad job attributions,
    /// spans beyond the buffering bound), so that every rejection is
    /// reported with the per-event path's exact typed error and prefix
    /// semantics.  The caller has already validated the block's channel.
    fn try_ingest_block_inorder(&mut self, block: &ColumnBlock) -> bool {
        let ws = block.windows();
        let n = ws.len();
        if n == 0 {
            return true;
        }
        if !ws.windows(2).all(|p| p[0] < p[1]) {
            return false;
        }
        // Rows with out-of-range job attributions must surface through the
        // per-event path's typed rejection, never reach `fold_rows`.
        let jobs_len = self.schedule.jobs.len() as u64;
        if block
            .jobs()
            .iter()
            .any(|&j| j != NO_JOB && u64::from(j) >= jobs_len)
        {
            return false;
        }
        let horizon = self.cfg.reorder_horizon;
        let schedule = self.schedule;
        let nshards = self.cfg.shards;

        // Every check below reads the channel's current state without
        // materializing it, so a block routed to the fallback (or rejected
        // there) has not touched the engine yet.
        let (floor0, buffered0, max_seen0) = match self.channel(block.node(), block.slot()) {
            Some(ch) => (ch.floor, ch.buffered, ch.max_seen),
            None => (0, 0, 0),
        };
        if buffered0 != 0 || ws[0] < floor0 {
            return false;
        }

        // Rows final once the whole block is seen: window + horizon at or
        // below the final high-water mark.  Ascending windows make this a
        // prefix, released by the per-event path in exactly row order.
        let max_after = max_seen0.max(ws[n - 1]);
        let split = ws.partition_point(|&w| w.saturating_add(horizon) <= max_after);

        // Buffered-occupancy peaks the per-event path would have recorded:
        // after ingesting row `i` (running high-water mark `m`), the ring
        // holds the rows not yet releasable — a sliding window over the
        // ascending lane, scanned with two cursors.  The same scan tracks
        // the release floor each row would be admitted against, so rows
        // the per-event path would reject as [`StreamError::SpanOverflow`]
        // force the fallback (which reports the typed error with its
        // exact prefix semantics).
        let buffered_before = self.stats.buffered_windows;
        let mut peak = 0usize;
        let mut lo = 0usize;
        for (i, &w) in ws.iter().enumerate() {
            // `lo` reflects the releases rows `0..i` triggered, so this is
            // the floor the per-event path would check row `i` against.
            let floor_now = if lo == 0 { floor0 } else { ws[lo - 1] + 1 };
            let span = w - floor_now;
            if span >= MAX_SPAN_WINDOWS || usize::try_from(span).is_err() {
                return false;
            }
            let m = max_seen0.max(w);
            while ws[lo].saturating_add(horizon) <= m {
                lo += 1;
            }
            peak = peak.max(i - lo + 1);
        }

        let node = block.node() as usize;
        let shard = &mut self.shards[node % nshards];
        let local = (node / nshards) * CHANNELS_PER_NODE + block.slot() as usize;
        if local >= shard.channels.len() {
            shard.channels.resize_with(local + 1, || None);
        }
        let ch = match &mut shard.channels[local] {
            Some(ch) => ch,
            vacant => {
                shard.live += 1;
                vacant.insert(Channel::default())
            }
        };
        debug_assert!(ch.ring.iter().all(|s| !s.is_present()));
        ch.ring.clear();

        // Per-kind tallies straight off the tag lane.
        const TAG_SAMPLE: u8 = Tag::Sample as u8;
        const TAG_REST: u8 = Tag::NodeRest as u8;
        let mut samples = 0u64;
        let mut rest = 0u64;
        for &t in block.tags() {
            match t {
                TAG_SAMPLE => samples += 1,
                TAG_REST => rest += 1,
                _ => {}
            }
        }
        shard.events += n as u64;
        self.stats.events += n as u64;
        self.stats.samples += samples;
        self.stats.rest_samples += rest;
        self.stats.gaps += n as u64 - samples - rest;

        ch.max_seen = max_after;
        ch.partial.fold_rows(schedule, block, 0..split);
        self.stats.released_windows += split as u64;
        if split > 0 {
            ch.floor = ws[split - 1] + 1;
        }
        for (i, &w) in ws.iter().enumerate().skip(split) {
            // In bounds: every row's span against its admission floor was
            // validated above, and the floor only advanced since.
            let idx = usize::try_from(w - ch.floor).expect("tail span validated before mutation");
            if idx >= ch.ring.len() {
                ch.ring.resize(idx + 1, Slot::Empty);
            }
            ch.ring[idx] = Slot::One(block.event(i));
            ch.buffered += 1;
        }
        self.stats.buffered_windows += n - split;
        self.stats.peak_channel_windows = self.stats.peak_channel_windows.max(peak);
        self.stats.peak_buffered_windows =
            self.stats.peak_buffered_windows.max(buffered_before + peak);
        true
    }

    /// Drains every reorder buffer into its channel partial — the
    /// end-of-stream signal, after which a snapshot covers every ingested
    /// window.
    pub fn flush(&mut self) {
        let schedule = self.schedule;
        for shard in &mut self.shards {
            let spare = &mut shard.spare;
            for ch in shard.channels.iter_mut().flatten() {
                while let Some(slot) = ch.ring.pop_front() {
                    // The ring's last slot is always present (it was
                    // created for a delivered window), so the floor ends at
                    // max delivered window + 1 either way.
                    ch.floor += 1;
                    if slot.is_present() {
                        apply_slot(&mut ch.partial, schedule, slot, spare);
                        ch.buffered -= 1;
                        self.stats.buffered_windows -= 1;
                        self.stats.released_windows += 1;
                    }
                }
            }
        }
    }

    /// Every live channel's observer over the windows ingested so far —
    /// its released partial plus a replay of its still-buffered windows —
    /// keyed by `(node, slot)` in the batch simulation's canonical order
    /// (nodes ascending; GPU slots `0..4`, then rest-of-node), whatever the
    /// shard count.
    pub fn channel_snapshots(&self) -> impl Iterator<Item = ((u32, u8), O)> + '_ {
        let nshards = self.cfg.shards;
        let mut channels: Vec<((u32, u8), &Channel<O>)> = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            for (li, ch) in shard.channels.iter().enumerate() {
                if let Some(ch) = ch {
                    let node = (li / CHANNELS_PER_NODE) * nshards + si;
                    let slot = (li % CHANNELS_PER_NODE) as u8;
                    channels.push(((node as u32, slot), ch));
                }
            }
        }
        channels.sort_unstable_by_key(|&(key, _)| key);
        channels.into_iter().map(|(key, ch)| {
            let mut part = ch.partial.clone();
            for slot in &ch.ring {
                match slot {
                    Slot::Empty => {}
                    Slot::One(ev) => apply_event(&mut part, self.schedule, ev),
                    Slot::Many(evs) => {
                        for e in evs {
                            apply_event(&mut part, self.schedule, e);
                        }
                    }
                }
            }
            (key, part)
        })
    }

    /// The merged observer over every window ingested so far — released
    /// *and* still-buffered ones, so a mid-stream snapshot equals the
    /// batch result over exactly the ingested window set.
    ///
    /// Channels merge in [`StreamEngine::channel_snapshots`]' canonical
    /// order, which makes the result independent of the shard count and
    /// bit-identical to [`pmss_telemetry::simulate_fleet`].
    pub fn snapshot(&self) -> O {
        let mut out = O::default();
        for (_, part) in self.channel_snapshots() {
            out.merge(part);
        }
        out
    }

    /// Flushes and returns the final observer with the ingest tallies.
    pub fn finish(mut self) -> (O, StreamStats) {
        self.flush();
        (self.snapshot(), self.stats)
    }

    /// Publishes ingest tallies into a metrics registry under `stream.*`:
    /// event/sample/gap counters, reorder-buffer occupancy (current and
    /// peak, against the declared bound), and shard imbalance (most-loaded
    /// shard's event share over a perfectly balanced share).
    pub fn publish_metrics(&self, m: &mut Metrics) {
        m.add("stream.events", self.stats.events);
        m.add("stream.samples", self.stats.samples);
        m.add("stream.gaps", self.stats.gaps);
        m.add("stream.rest_samples", self.stats.rest_samples);
        m.add("stream.released_windows", self.stats.released_windows);
        m.add("stream.late_rejects", self.stats.late_rejects);
        m.add("stream.channel_rejects", self.stats.channel_rejects);
        m.add("stream.span_rejects", self.stats.span_rejects);
        m.add("stream.job_rejects", self.stats.job_rejects);
        m.gauge_set("stream.shards", self.cfg.shards as f64);
        m.gauge_set("stream.reorder_horizon", self.cfg.reorder_horizon as f64);
        m.gauge_set(
            "stream.buffered_windows",
            self.stats.buffered_windows as f64,
        );
        m.gauge_set(
            "stream.peak_buffered_windows",
            self.stats.peak_buffered_windows as f64,
        );
        m.gauge_set(
            "stream.peak_channel_windows",
            self.stats.peak_channel_windows as f64,
        );
        m.gauge_set("stream.buffer_bound", self.buffer_bound() as f64);
        m.gauge_set("stream.buffer_bytes", self.buffer_bytes() as f64);
        let max = self.shards.iter().map(|s| s.events).max().unwrap_or(0);
        if self.stats.events > 0 {
            let balanced = self.stats.events as f64 / self.cfg.shards as f64;
            m.gauge_set("stream.shard_imbalance", max as f64 / balanced);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmss_core::EnergyLedger;
    use pmss_sched::{catalog, generate, TraceParams};
    use pmss_telemetry::{
        fleet_window_blocks, simulate_fleet, FleetConfig, FleetPowerSeries, GpuCpuEnergy,
    };

    fn schedule() -> Schedule {
        generate(
            TraceParams {
                nodes: 4,
                duration_s: 4.0 * 3600.0,
                seed: 7,
                ..TraceParams::default()
            },
            &catalog(),
        )
    }

    #[test]
    fn config_validation_rejects_degenerate_shapes() {
        assert!(StreamConfig {
            shards: 0,
            ..StreamConfig::default()
        }
        .validate()
        .is_err());
        assert!(StreamConfig {
            reorder_horizon: 0,
            ..StreamConfig::default()
        }
        .validate()
        .is_err());
        assert!(StreamConfig::default().validate().is_ok());
    }

    #[test]
    fn buffer_bound_saturates_instead_of_truncating() {
        // A horizon wider than 32 bits must not wrap the declared bound:
        // the multiplication happens in u64 and saturates into usize.
        let sched = schedule();
        let cfg = StreamConfig {
            reorder_horizon: u64::MAX,
            ..StreamConfig::default()
        };
        let mut eng: StreamEngine<'_, EnergyLedger> = StreamEngine::new(&sched, cfg).unwrap();
        assert_eq!(eng.buffer_bound(), 0); // no live channels yet
        let fleet_cfg = FleetConfig::default();
        let mut first = None;
        fleet_window_blocks(&sched, &fleet_cfg, |b| {
            if first.is_none() {
                first = b.iter().next();
            }
        });
        eng.ingest(first.expect("fleet emits events")).unwrap();
        assert_eq!(eng.buffer_bound(), usize::MAX);
    }

    #[test]
    fn for_plan_covers_the_plans_reorder_depth() {
        assert_eq!(StreamConfig::for_plan(None).reorder_horizon, 1);
        let plan = pmss_faults::FaultPlan::preset("frontier-typical").unwrap();
        let cfg = StreamConfig::for_plan(Some(&plan));
        assert!(cfg.reorder_horizon > plan.reorder_depth as u64);
    }

    #[test]
    fn clean_in_order_stream_matches_batch_bit_for_bit() {
        let sched = schedule();
        let cfg = FleetConfig::default();
        let batch: EnergyLedger = simulate_fleet(&sched, &cfg);
        let mut eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&sched, StreamConfig::default()).unwrap();
        fleet_window_blocks(&sched, &cfg, |b| {
            b.iter().for_each(|ev| eng.ingest(ev).unwrap());
        });
        let (ledger, stats) = eng.finish();
        assert_eq!(ledger, batch);
        assert!(stats.events > 0);
        assert_eq!(stats.late_rejects, 0);
    }

    /// Batch and stream fold every observer one partial per channel,
    /// merged in canonical order, so a stream fed the run's channel blocks
    /// is the batch observer bit for bit (`Debug` shows every float at
    /// full precision) — `fig 2`'s energy split and `peakpower`'s series
    /// as much as the ledger, clean and under `harsh`.
    #[test]
    fn block_stream_matches_batch_bit_for_bit_for_every_observer() {
        fn check<O: FleetObserver + Default + Clone + fmt::Debug>(
            sched: &Schedule,
            cfg: &FleetConfig,
            what: &str,
        ) {
            let batch: O = simulate_fleet(sched, cfg);
            let stream_cfg = StreamConfig::for_plan(cfg.faults.as_ref());
            let mut eng: StreamEngine<'_, O> = StreamEngine::new(sched, stream_cfg).unwrap();
            fleet_window_blocks(sched, cfg, |b| eng.ingest_block(b).unwrap());
            let (streamed, stats) = eng.finish();
            assert!(stats.events > 0, "{what}");
            assert_eq!(stats.late_rejects, 0, "{what}");
            assert_eq!(format!("{streamed:?}"), format!("{batch:?}"), "{what}");
        }
        let sched = schedule();
        let harsh = FleetConfig {
            faults: Some(FaultPlan::preset("harsh").unwrap()),
            ..FleetConfig::default()
        };
        for (what, cfg) in [("clean", FleetConfig::default()), ("harsh", harsh)] {
            check::<EnergyLedger>(&sched, &cfg, what);
            check::<GpuCpuEnergy>(&sched, &cfg, what);
            check::<FleetPowerSeries>(&sched, &cfg, what);
        }
    }

    #[test]
    fn snapshot_is_shard_count_invariant() {
        let sched = schedule();
        let cfg = FleetConfig::default();
        let mut ledgers = Vec::new();
        let mut channels = Vec::new();
        for shards in [1, 3] {
            let mut eng: StreamEngine<'_, EnergyLedger> =
                StreamEngine::new(&sched, StreamConfig::default().with_shards(shards)).unwrap();
            fleet_window_blocks(&sched, &cfg, |b| {
                b.iter().for_each(|ev| eng.ingest(ev).unwrap());
            });
            let parts: Vec<((u32, u8), EnergyLedger)> = eng.channel_snapshots().collect();
            let mut merged = EnergyLedger::default();
            for (_, part) in parts.iter().cloned() {
                merged.merge(part);
            }
            assert_eq!(merged, eng.snapshot());
            channels.push(parts);
            ledgers.push(eng.finish().0);
        }
        assert_eq!(channels[0], channels[1]);
        assert_eq!(ledgers[0], ledgers[1]);
    }

    #[test]
    fn late_arrival_is_rejected_without_corrupting_state() {
        let sched = schedule();
        let mut eng: StreamEngine<'_, EnergyLedger> = StreamEngine::new(
            &sched,
            StreamConfig {
                reorder_horizon: 2,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let mk = |window: u64| WindowEvent {
            node: 0,
            slot: 0,
            sku: 0,
            window,
            rank: window,
            t_s: window as f64 * 15.0,
            span_s: 15.0,
            kind: WindowKind::Sample {
                power_w: 300.0,
                job: None,
            },
        };
        eng.ingest(mk(0)).unwrap();
        eng.ingest(mk(5)).unwrap(); // finalizes window 0, floor -> 1
        let err = eng.ingest(mk(0)).unwrap_err();
        assert!(matches!(err, StreamError::LateArrival { window: 0, .. }));
        assert_eq!(eng.stats().late_rejects, 1);
        // A never-released in-horizon window is still welcome out of order.
        eng.ingest(mk(4)).unwrap();
        let (ledger, stats) = eng.finish();
        assert_eq!(stats.samples, 3);
        assert_eq!(ledger.coverage().observed_s, 3.0 * 15.0);
    }

    #[test]
    fn buffered_windows_respect_the_declared_bound() {
        let sched = schedule();
        let horizon = 4u64;
        let mut eng: StreamEngine<'_, EnergyLedger> = StreamEngine::new(
            &sched,
            StreamConfig {
                shards: 2,
                reorder_horizon: horizon,
            },
        )
        .unwrap();
        let cfg = FleetConfig::default();
        fleet_window_blocks(&sched, &cfg, |b| {
            for ev in b.iter() {
                eng.ingest(ev).unwrap();
                assert!(eng.stats().buffered_windows <= eng.buffer_bound());
            }
        });
        assert!(eng.stats().peak_channel_windows <= horizon as usize);
    }

    #[test]
    fn block_ingest_matches_event_ingest_bit_for_bit() {
        let sched = schedule();
        // Clean (fast path throughout), a dropping plan (fast path over
        // windows with holes), and a reordering plan (per-event fallback):
        // the block path must reproduce the event path's ledger AND every
        // ingest statistic, peaks included.
        let plans = [
            None,
            Some(FaultPlan {
                drop_prob: 0.05,
                seed: 11,
                ..FaultPlan::default()
            }),
            Some(FaultPlan::preset("frontier-typical").unwrap()),
        ];
        for plan in plans {
            let cfg = FleetConfig {
                faults: plan.clone(),
                ..FleetConfig::default()
            };
            let stream_cfg = StreamConfig::for_plan(cfg.faults.as_ref());
            let mut by_event: StreamEngine<'_, EnergyLedger> =
                StreamEngine::new(&sched, stream_cfg).unwrap();
            fleet_window_blocks(&sched, &cfg, |block| {
                for ev in block.iter() {
                    by_event.ingest(ev).unwrap();
                }
            });
            let mut by_block: StreamEngine<'_, EnergyLedger> =
                StreamEngine::new(&sched, stream_cfg).unwrap();
            fleet_window_blocks(&sched, &cfg, |block| {
                by_block.ingest_block(block).unwrap();
            });
            assert_eq!(by_block.stats(), by_event.stats(), "plan {plan:?}");
            let (event_ledger, event_stats) = by_event.finish();
            let (block_ledger, block_stats) = by_block.finish();
            assert_eq!(block_ledger, event_ledger, "plan {plan:?}");
            assert_eq!(block_stats, event_stats, "plan {plan:?}");
            assert!(block_stats.events > 0);
        }
    }

    #[test]
    fn buffer_bytes_reports_retained_ring_memory() {
        let sched = schedule();
        let mut eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&sched, StreamConfig::default()).unwrap();
        assert_eq!(eng.buffer_bytes(), 0);
        let cfg = FleetConfig::default();
        fleet_window_blocks(&sched, &cfg, |b| {
            b.iter().for_each(|ev| eng.ingest(ev).unwrap());
        });
        // Rings are retained after release, so the gauge stays nonzero
        // even at steady state, and the metric mirrors it.
        assert!(eng.buffer_bytes() > 0);
        let mut m = Metrics::default();
        eng.publish_metrics(&mut m);
        assert_eq!(
            m.gauge("stream.buffer_bytes"),
            Some(eng.buffer_bytes() as f64)
        );
    }

    #[test]
    fn duplicate_deliveries_spill_and_release_in_arrival_order() {
        let sched = schedule();
        let mut eng: StreamEngine<'_, EnergyLedger> = StreamEngine::new(
            &sched,
            StreamConfig {
                reorder_horizon: 3,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let mk = |window: u64, power_w: f64| WindowEvent {
            node: 0,
            slot: 0,
            sku: 0,
            window,
            rank: window,
            t_s: window as f64 * 15.0,
            span_s: 15.0,
            kind: WindowKind::Sample { power_w, job: None },
        };
        // Window 0 delivered three times (spills One -> Many), then
        // finalized by window 3.
        eng.ingest(mk(0, 100.0)).unwrap();
        eng.ingest(mk(0, 250.0)).unwrap();
        eng.ingest(mk(0, 430.0)).unwrap();
        assert_eq!(eng.stats().buffered_windows, 1, "duplicates share a window");
        eng.ingest(mk(3, 100.0)).unwrap();
        assert_eq!(eng.stats().released_windows, 1);
        let (ledger, stats) = eng.finish();
        assert_eq!(stats.samples, 4);
        // All three duplicate deliveries were applied.
        assert_eq!(ledger.coverage().observed_s, 4.0 * 15.0);
    }

    #[test]
    fn metrics_report_the_ingest_shape() {
        let sched = schedule();
        let cfg = FleetConfig::default();
        let mut eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&sched, StreamConfig::default().with_shards(2)).unwrap();
        fleet_window_blocks(&sched, &cfg, |b| {
            b.iter().for_each(|ev| eng.ingest(ev).unwrap());
        });
        let mut m = Metrics::default();
        eng.publish_metrics(&mut m);
        assert_eq!(m.counter("stream.events"), eng.stats().events);
        assert!(m.gauge("stream.shard_imbalance").unwrap() >= 1.0);
        assert_eq!(m.gauge("stream.shards"), Some(2.0));
    }

    fn sample(node: u32, slot: u8, window: u64, job: Option<usize>) -> WindowEvent {
        WindowEvent {
            node,
            slot,
            sku: 0,
            window,
            rank: window,
            t_s: window as f64 * 15.0,
            span_s: 15.0,
            kind: WindowKind::Sample {
                power_w: 300.0,
                job,
            },
        }
    }

    #[test]
    fn adversarial_channel_is_rejected_with_prior_state_intact() {
        let sched = schedule();
        let mut eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&sched, StreamConfig::default()).unwrap();
        eng.ingest(sample(0, 0, 0, None)).unwrap();
        let before: EnergyLedger = eng.snapshot();
        let stats_before = eng.stats();
        // A slot past rest-of-node and a node past the fleet both name a
        // channel the schedule does not have.
        let err = eng.ingest(sample(0, REST_SLOT + 1, 0, None)).unwrap_err();
        assert!(matches!(err, StreamError::InvalidChannel { slot, .. } if slot == REST_SLOT + 1));
        let err = eng.ingest(sample(u32::MAX, 0, 0, None)).unwrap_err();
        assert!(matches!(
            err,
            StreamError::InvalidChannel { node: u32::MAX, .. }
        ));
        assert_eq!(eng.stats().channel_rejects, 2);
        assert_eq!(eng.snapshot(), before, "rejected frames touched state");
        assert_eq!(
            StreamStats {
                channel_rejects: 0,
                ..eng.stats()
            },
            stats_before
        );
    }

    #[test]
    fn far_future_window_is_rejected_as_span_overflow() {
        let sched = schedule();
        let mut eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&sched, StreamConfig::default()).unwrap();
        // The exact boundary, checked without buffering: a ring that far
        // out would be tens of megabytes.
        let last = MAX_SPAN_WINDOWS - 1;
        assert_eq!(eng.admit(&sample(0, 0, last, None)), Ok(last as usize));
        assert!(matches!(
            eng.admit(&sample(0, 0, MAX_SPAN_WINDOWS, None)),
            Err(StreamError::SpanOverflow {
                window: MAX_SPAN_WINDOWS,
                max_span: MAX_SPAN_WINDOWS,
                ..
            })
        ));
        for window in [MAX_SPAN_WINDOWS, u64::MAX] {
            let err = eng.ingest(sample(0, 0, window, None)).unwrap_err();
            assert!(
                matches!(err, StreamError::SpanOverflow { window: w, .. } if w == window),
                "{err}"
            );
        }
        assert_eq!(eng.stats().span_rejects, 2);
        // The rejected frames left the channel fully usable.
        eng.ingest(sample(0, 0, 1, None)).unwrap();
        eng.ingest(sample(0, 0, 0, None)).unwrap();
        let (ledger, stats) = eng.finish();
        assert_eq!(stats.samples, 2);
        assert_eq!(ledger.coverage().observed_s, 2.0 * 15.0);
    }

    #[test]
    fn out_of_schedule_job_is_rejected_as_invalid_job() {
        let sched = schedule();
        let mut eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&sched, StreamConfig::default()).unwrap();
        let err = eng
            .ingest(sample(0, 0, 0, Some(sched.jobs.len())))
            .unwrap_err();
        assert!(matches!(err, StreamError::InvalidJob { .. }));
        assert_eq!(eng.stats().job_rejects, 1);
        assert_eq!(eng.stats().events, 0, "rejected before any tally");
    }

    #[test]
    fn adversarial_block_is_rejected_atomically() {
        let sched = schedule();
        let mut eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&sched, StreamConfig::default()).unwrap();
        // A block on an out-of-schedule channel is refused as a whole.
        let mut bad_channel = ColumnBlock::new(u32::MAX, 0);
        bad_channel.push(&sample(u32::MAX, 0, 0, None));
        let err = eng.ingest_block(&bad_channel).unwrap_err();
        assert!(matches!(
            err,
            StreamError::InvalidChannel { node: u32::MAX, .. }
        ));
        assert_eq!(eng.stats().events, 0);
        // A poisoned row mid-block falls back to the per-event path: the
        // valid prefix lands, the bad row comes back as a typed error.
        let mut bad_job = ColumnBlock::new(0, 0);
        bad_job.push(&sample(0, 0, 0, None));
        bad_job.push(&sample(0, 0, 1, Some(sched.jobs.len())));
        let err = eng.ingest_block(&bad_job).unwrap_err();
        assert!(matches!(err, StreamError::InvalidJob { window: 1, .. }));
        assert_eq!(eng.stats().job_rejects, 1);
        assert_eq!(eng.stats().events, 1, "valid prefix was ingested");
        // Same prefix semantics for a far-future row inside a block, at
        // the span bound and at the end of the window range.
        for (node, window) in [(1, MAX_SPAN_WINDOWS), (2, u64::MAX)] {
            let mut far = ColumnBlock::new(node, 0);
            far.push(&sample(node, 0, 0, None));
            far.push(&sample(node, 0, window, None));
            let err = eng.ingest_block(&far).unwrap_err();
            assert!(
                matches!(err, StreamError::SpanOverflow { window: w, .. } if w == window),
                "{err}"
            );
        }
        assert_eq!(eng.stats().span_rejects, 2);
        assert_eq!(eng.stats().events, 3);
        // The channel takes its next window afterwards.
        eng.ingest(sample(1, 0, 1, None)).unwrap();
        assert_eq!(eng.stats().events, 4);
    }
}
