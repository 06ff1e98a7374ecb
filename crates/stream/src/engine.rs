//! The sharded streaming ingest engine: the daemon's path.
//!
//! Telemetry windows arrive as [`WindowEvent`]s, possibly out of order
//! within a bounded reorder horizon (a collection fabric's delivery jitter,
//! modeled by `pmss-faults`' bounded-buffer reordering).  The engine owns
//! one `Channel` per telemetry channel — a partial observer over the
//! windows already final plus a small reorder ring of those still in
//! flight — in per-shard dense tables, and drives each channel one
//! delivered event at a time ([`StreamEngine::ingest`]) or one block at a
//! time ([`StreamEngine::ingest_block`]: in-order runs at once, other rows
//! one by one).  A snapshot merges the
//! channels' observers in the batch simulation's canonical channel order,
//! which is what makes it bit-identical to [`simulate_fleet`] over the
//! same windows, for every observer.
//!
//! A channel's state is a function of its own events alone, so a recorded
//! run can also be replayed channel by channel on every core
//! ([`crate::replay`]); that replay is what the `stream` and `govern`
//! artifacts use, and per-event [`StreamEngine::ingest`] is the oracle the
//! tests hold it to.
//!
//! Memory is O(live channels × horizon) buffered windows, never O(trace).
//!
//! [`simulate_fleet`]: pmss_telemetry::simulate_fleet

use std::fmt;
use std::mem::size_of;

use pmss_error::PmssError;
use pmss_faults::FaultPlan;
use pmss_obs::Metrics;
use pmss_sched::Schedule;
use pmss_telemetry::{ColumnBlock, FleetObserver, WindowEvent, REST_SLOT};

use crate::channel::{
    apply_all, channel_exists, check_event, ring_offset, Channel, CHANNELS_PER_NODE,
};

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

impl<O: FleetObserver + Default> Shard<O> {
    /// The channel at dense index `local`, materialized on first use.
    fn channel_mut(&mut self, local: usize) -> &mut Channel<O> {
        if local >= self.channels.len() {
            self.channels.resize_with(local + 1, || None);
        }
        match &mut self.channels[local] {
            Some(ch) => ch,
            vacant => {
                self.live += 1;
                vacant.insert(Channel::default())
            }
        }
    }
}

/// Publishes ingest tallies under `stream.*` — the one metric set both
/// ingest drivers report.  `shard_events` is each shard's delivered-event
/// tally (channels assigned by `node % shards`).
pub(crate) fn publish_stream_metrics(
    m: &mut Metrics,
    stats: &StreamStats,
    cfg: StreamConfig,
    buffer_bound: usize,
    buffer_bytes: usize,
    shard_events: impl Iterator<Item = u64>,
) {
    m.add("stream.events", stats.events);
    m.add("stream.samples", stats.samples);
    m.add("stream.gaps", stats.gaps);
    m.add("stream.rest_samples", stats.rest_samples);
    m.add("stream.released_windows", stats.released_windows);
    m.add("stream.late_rejects", stats.late_rejects);
    m.add("stream.channel_rejects", stats.channel_rejects);
    m.add("stream.span_rejects", stats.span_rejects);
    m.add("stream.job_rejects", stats.job_rejects);
    m.gauge_set("stream.shards", cfg.shards as f64);
    m.gauge_set("stream.reorder_horizon", cfg.reorder_horizon as f64);
    m.gauge_set("stream.buffered_windows", stats.buffered_windows as f64);
    m.gauge_set(
        "stream.peak_buffered_windows",
        stats.peak_buffered_windows as f64,
    );
    m.gauge_set(
        "stream.peak_channel_windows",
        stats.peak_channel_windows as f64,
    );
    m.gauge_set("stream.buffer_bound", buffer_bound as f64);
    m.gauge_set("stream.buffer_bytes", buffer_bytes as f64);
    let max = shard_events.max().unwrap_or(0);
    if stats.events > 0 {
        let balanced = stats.events as f64 / cfg.shards as f64;
        m.gauge_set("stream.shard_imbalance", max as f64 / balanced);
    }
}

/// The declared buffered-window bound of `channels` live channels: each
/// holds at most `horizon` windows.
pub(crate) fn buffer_bound(channels: u64, horizon: u64) -> usize {
    // Multiply in u64 so a horizon above u32::MAX is not truncated on
    // 32-bit targets, then saturate into the platform's usize.
    usize::try_from(channels.saturating_mul(horizon)).unwrap_or(usize::MAX)
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
        buffer_bound(channels, self.cfg.reorder_horizon)
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
                bytes = bytes.saturating_add(ch.ring_bytes());
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
        check_event(self.schedule, ev)?;
        let floor = self.channel(ev.node, ev.slot).map_or(0, |ch| ch.floor);
        ring_offset(floor, ev)
    }

    /// The shard index and dense in-shard index of channel `(node, slot)`.
    fn locate(&self, node: u32, slot: u8) -> (usize, usize) {
        let nshards = self.cfg.shards;
        let local = (node as usize / nshards) * CHANNELS_PER_NODE + slot as usize;
        (node as usize % nshards, local)
    }

    /// The (possibly unmaterialized) channel of `(node, slot)`.
    fn channel(&self, node: u32, slot: u8) -> Option<&Channel<O>> {
        let (shard, local) = self.locate(node, slot);
        self.shards[shard]
            .channels
            .get(local)
            .and_then(Option::as_ref)
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
                self.stats.count_reject(&e);
                return Err(e);
            }
        };
        let horizon = self.cfg.reorder_horizon;
        let schedule = self.schedule;
        let (si, local) = self.locate(ev.node, ev.slot);
        let shard = &mut self.shards[si];
        shard.events += 1;
        self.stats.count_event(&ev.kind);
        let mut spare = std::mem::take(&mut shard.spare);
        let ch = shard.channel_mut(local);
        let (fresh, released) = ch.accept(ev, idx, horizon, &mut spare, |partial, evs| {
            apply_all(partial, schedule, evs)
        });
        let buffered = ch.buffered;
        shard.spare = spare;
        if fresh {
            self.stats.buffered_windows += 1;
        }
        self.stats.buffered_windows -= released as usize;
        self.stats.released_windows += released;
        self.stats.peak_channel_windows = self.stats.peak_channel_windows.max(buffered);
        self.stats.peak_buffered_windows = self
            .stats
            .peak_buffered_windows
            .max(self.stats.buffered_windows);
        Ok(())
    }

    /// Ingests one channel block in stored (arrival) order — the columnar
    /// generator's delivery path.  Each run of rows in ascending window
    /// order goes through `Channel::accept_run`: the rows it makes final
    /// fold straight into the channel partial as one range
    /// ([`FleetObserver::fold_rows`]) and only the in-horizon tail touches
    /// the ring.  Each row out of order goes through [`StreamEngine::ingest`].
    /// Both make the observer calls and count the statistics, including
    /// the buffered-window peaks, that row-by-row ingest would, so results
    /// are bit-identical.  Ingest stops at the first rejection (the rows
    /// before it stay applied; the rejected row leaves no trace), and a
    /// block naming a channel outside the schedule is refused atomically
    /// with [`StreamError::InvalidChannel`] before any row is touched.
    pub fn ingest_block(&mut self, block: &ColumnBlock) -> Result<(), StreamError> {
        // Every row shares the block's channel, so the channel bounds are
        // checked once, up front, and the rejection is atomic.
        if !channel_exists(self.schedule, block.node(), block.slot()) {
            let err = StreamError::InvalidChannel {
                node: block.node(),
                slot: block.slot(),
                nodes: self.schedule.per_node.len() as u64,
            };
            self.stats.count_reject(&err);
            return Err(err);
        }
        let mut next = 0;
        while next < block.len() {
            next = self.ingest_run(block, next);
            if next < block.len() {
                self.ingest(block.event(next))?;
                next += 1;
            }
        }
        Ok(())
    }

    /// Accepts the run of `block`'s rows in ascending window order from row
    /// `from` on (see [`StreamEngine::ingest_block`]) and returns the first
    /// row it did not accept.  A channel with no events yet is
    /// materialized only when the run accepts a row.
    fn ingest_run(&mut self, block: &ColumnBlock, from: usize) -> usize {
        let (horizon, schedule) = (self.cfg.reorder_horizon, self.schedule);
        let (si, local) = self.locate(block.node(), block.slot());
        let shard = &mut self.shards[si];
        let stats = &mut self.stats;
        let mut fresh = None;
        let ch = match shard.channels.get_mut(local).and_then(Option::as_mut) {
            Some(ch) => ch,
            None => fresh.insert(Channel::default()),
        };
        // Only this channel's occupancy moves during the run, so the summed
        // peak is the total before it plus the run's highest net change.
        let (mut net, mut peak_net, mut peak_channel) = (0isize, 0isize, 0usize);
        let (end, released) = ch.accept_run(
            block,
            from..block.len(),
            horizon,
            schedule,
            &mut shard.spare,
            |_, delta, buffered| {
                net += delta as isize;
                peak_net = peak_net.max(net);
                peak_channel = peak_channel.max(buffered);
            },
        );
        let before = stats.buffered_windows;
        stats.buffered_windows = before.wrapping_add_signed(net);
        stats.peak_buffered_windows = stats
            .peak_buffered_windows
            .max(before.wrapping_add_signed(peak_net));
        stats.peak_channel_windows = stats.peak_channel_windows.max(peak_channel);
        stats.count_tags(&block.tags()[from..end]);
        stats.released_windows += released;
        shard.events += (end - from) as u64;
        if let Some(ch) = fresh.filter(|_| end > from) {
            *shard.channel_mut(local) = ch;
        }
        end
    }

    /// Drains every reorder buffer into its channel partial — the
    /// end-of-stream signal, after which a snapshot covers every ingested
    /// window.
    pub fn flush(&mut self) {
        let schedule = self.schedule;
        for shard in &mut self.shards {
            let spare = &mut shard.spare;
            for ch in shard.channels.iter_mut().flatten() {
                let released = ch.flush(spare, |partial, evs| apply_all(partial, schedule, evs));
                self.stats.buffered_windows -= released as usize;
                self.stats.released_windows += released;
            }
        }
    }

    /// Every live channel's observer over the windows ingested so far —
    /// its released partial plus a replay of its still-buffered windows —
    /// keyed by `(node, slot)` in the batch simulation's canonical order
    /// (nodes ascending; GPU slots `0..4`, then rest-of-node), whatever the
    /// shard count.  Nodes are walked in ascending order through the shard
    /// tables, so the order costs no sort.
    pub fn channel_snapshots(&self) -> impl Iterator<Item = ((u32, u8), O)> + '_ {
        let nshards = self.cfg.shards;
        // Past the last node any shard table reaches, nothing is live.
        let nodes = self
            .shards
            .iter()
            .enumerate()
            .map(|(si, s)| s.channels.len().div_ceil(CHANNELS_PER_NODE) * nshards + si)
            .max()
            .unwrap_or(0);
        (0..nodes).flat_map(move |node| {
            let shard = &self.shards[node % nshards];
            let base = (node / nshards) * CHANNELS_PER_NODE;
            let table = shard.channels.get(base..).unwrap_or(&[]);
            table
                .iter()
                .take(CHANNELS_PER_NODE)
                .enumerate()
                .filter_map(move |(slot, ch)| {
                    let ch = ch.as_ref()?;
                    Some(((node as u32, slot as u8), ch.snapshot(self.schedule)))
                })
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
        publish_stream_metrics(
            m,
            &self.stats,
            self.cfg,
            self.buffer_bound(),
            self.buffer_bytes(),
            self.shards.iter().map(|s| s.events),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::MAX_SPAN_WINDOWS;
    use pmss_core::EnergyLedger;
    use pmss_sched::{catalog, generate, TraceParams};
    use pmss_telemetry::{
        fleet_window_blocks, simulate_fleet, FleetConfig, FleetPowerSeries, GpuCpuEnergy,
        WindowKind,
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
        // Clean (one run per block), a dropping plan (runs over windows
        // with holes), and a reordering plan (runs between rows out of
        // order): the block path must reproduce the event path's ledger,
        // live channels AND every ingest statistic, peaks included.
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
            // The same rows in blocks of 97, so most blocks land on a
            // channel whose ring still holds the last block's tail.
            let mut by_piece: StreamEngine<'_, EnergyLedger> =
                StreamEngine::new(&sched, stream_cfg).unwrap();
            fleet_window_blocks(&sched, &cfg, |block| {
                by_block.ingest_block(block).unwrap();
                let rows: Vec<WindowEvent> = block.iter().collect();
                for piece in rows.chunks(97) {
                    let piece = ColumnBlock::from_events(block.node(), block.slot(), piece);
                    by_piece.ingest_block(&piece).unwrap();
                }
            });
            for eng in [&by_block, &by_piece] {
                assert_eq!(eng.stats(), by_event.stats(), "plan {plan:?}");
                assert_eq!(eng.buffer_bound(), by_event.buffer_bound(), "plan {plan:?}");
            }
            let (event_ledger, event_stats) = by_event.finish();
            for eng in [by_block, by_piece] {
                let (block_ledger, block_stats) = eng.finish();
                assert_eq!(block_ledger, event_ledger, "plan {plan:?}");
                assert_eq!(block_stats, event_stats, "plan {plan:?}");
            }
            assert!(event_stats.events > 0);
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

    #[test]
    fn block_run_records_the_peak_it_passes_through() {
        // Four windows fill a horizon-4 ring; a window far past them
        // releases all four at once, so the block's run peaks at 4
        // buffered windows mid-run and ends at 1.
        let sched = schedule();
        let cfg = StreamConfig {
            shards: 1,
            reorder_horizon: 4,
        };
        let events: Vec<WindowEvent> = [0, 1, 2, 3, 50]
            .into_iter()
            .map(|w| sample(0, 0, w, None))
            .collect();
        let mut by_event: StreamEngine<'_, EnergyLedger> = StreamEngine::new(&sched, cfg).unwrap();
        for ev in &events {
            by_event.ingest(*ev).unwrap();
        }
        let mut by_block: StreamEngine<'_, EnergyLedger> = StreamEngine::new(&sched, cfg).unwrap();
        by_block
            .ingest_block(&ColumnBlock::from_events(0, 0, &events))
            .unwrap();
        assert_eq!(by_event.stats().peak_buffered_windows, 4);
        assert_eq!(by_event.stats().buffered_windows, 1);
        assert_eq!(by_block.stats(), by_event.stats());
    }
}
