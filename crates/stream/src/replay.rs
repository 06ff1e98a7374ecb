//! A recorded run replayed channel by channel, on every core.
//!
//! The sharded engine ([`crate::StreamEngine`]) ingests a run one delivered
//! event at a time, which is what a live feed demands.  A recorded run
//! ([`Delivery`]: a `DeliveryTrace`, or a list of events in delivery order)
//! needs no such order, because a channel's ingest state is a function of
//! its own events alone: the release rule reads only the channel's own
//! high-water mark, and a cut of the delivery sequence is, per channel, a
//! prefix of its arrival-ordered rows.  [`TraceReplay`] therefore drives
//! each channel's `Channel` through its rows on its own, whole nodes per
//! job on `workers()` threads (`pmss_telemetry::scoped_sink`), and hands
//! the caller every cut's channel observers and counts in canonical
//! `(node, slot)` order.
//!
//! Per channel, the replay is the engine's block path: each run of rows
//! in ascending window order goes through `Channel::accept_run`, which
//! folds the rows the run makes final into the channel partial as one
//! range and rings the in-flight rest (at most `horizon` windows), and
//! each row out of order through `Channel::accept`.  At a cut, the ring's
//! rows fold onto a clone of the partial (`Channel::snapshot`).  The
//! observer sees the engine's call sequence, so every partial is the same
//! bits as a per-event replay's.
//!
//! Two things couple channels, and the replay keeps both exact:
//! * the peak of buffered windows summed over channels
//!   ([`StreamStats::peak_buffered_windows`]) is a maximum over delivery
//!   positions of a sum, not a sum of per-channel peaks.  Each channel
//!   reports its occupancy change per delivery rank as a (net change,
//!   highest prefix) pair; pairs compose associatively, so the caller
//!   folds them per rank in canonical channel order and sweeps the ranks
//!   in order — the integer sum the per-event engine tracks, event by
//!   event;
//! * a caller that accounts events in delivery order (the governor) must
//!   skip exactly the events the engine would have refused
//!   ([`TraceReplay::refused`]).

use std::collections::HashSet;
use std::ops::{ControlFlow, Range};
use std::sync::{Mutex, PoisonError};

use pmss_error::PmssError;
use pmss_obs::Metrics;
use pmss_sched::Schedule;
use pmss_telemetry::{
    scoped_sink, workers, ColumnBlock, DeliveryTrace, FleetObserver, TraceBlock, WindowEvent,
};

pub use crate::channel::ChannelRows;
use crate::channel::{apply_all, check_event, ring_offset, Channel};
use crate::engine::{buffer_bound, publish_stream_metrics, StreamConfig, StreamStats};

/// Jobs per worker in a pass: each job replays a run of whole nodes.
const JOBS_PER_WORKER: usize = 4;

/// A recorded run: its channels in canonical `(node, slot)` order, each
/// in arrival order, and the same events in delivery order —
/// `(rank, node, slot, window)` ascending.
pub trait Delivery: Sync {
    /// One channel's rows.
    type Channel: ChannelRows;
    /// The run's channels, canonical order.
    fn channels(&self) -> &[Self::Channel];
    /// Every event, in delivery order.
    fn events(&self) -> impl Iterator<Item = WindowEvent> + '_;

    /// The largest delivery rank in the run, `None` for an empty run.
    fn last_rank(&self) -> Option<u64> {
        // A channel's last row carries its largest rank.
        let last = |c: &Self::Channel| c.rows().checked_sub(1).map(|i| c.rank(i));
        self.channels().iter().filter_map(last).max()
    }
}

impl Delivery for DeliveryTrace {
    type Channel = TraceBlock;
    fn channels(&self) -> &[TraceBlock] {
        DeliveryTrace::channels(self)
    }
    fn events(&self) -> impl Iterator<Item = WindowEvent> + '_ {
        self.iter()
    }
}

/// A run given as a list of events in delivery order — a hand-built run
/// that no fleet generated, grouped into one block per channel.
#[derive(Debug, Clone)]
pub struct EventRun {
    events: Vec<WindowEvent>,
    channels: Vec<ColumnBlock>,
}

impl EventRun {
    /// Groups `events`, which must be in delivery order (`(rank, node,
    /// slot, window)` non-decreasing), by channel.
    pub fn new(events: Vec<WindowEvent>) -> Result<EventRun, PmssError> {
        let key = |e: &WindowEvent| (e.rank, e.node, e.slot, e.window);
        if let Some(i) = (1..events.len()).find(|&i| key(&events[i - 1]) > key(&events[i])) {
            return Err(PmssError::invalid_value(
                format!("event [{i}]"),
                format!("{:?} after {:?}", key(&events[i]), key(&events[i - 1])),
                "events in delivery order: (rank, node, slot, window) non-decreasing",
            ));
        }
        let mut sorted: Vec<&WindowEvent> = events.iter().collect();
        sorted.sort_by_key(|e| e.channel());
        let mut channels: Vec<ColumnBlock> = Vec::new();
        for ev in sorted {
            match channels.last_mut() {
                Some(b) if b.channel() == ev.channel() => b.push(ev),
                _ => channels.push(ColumnBlock::from_events(ev.node, ev.slot, &[*ev])),
            }
        }
        Ok(EventRun { events, channels })
    }
}

impl Delivery for EventRun {
    type Channel = ColumnBlock;
    fn channels(&self) -> &[ColumnBlock] {
        &self.channels
    }
    fn events(&self) -> impl Iterator<Item = WindowEvent> + '_ {
        self.events.iter().copied()
    }
}

/// Rows of `rows` whose rank is below `rank` — a prefix, ranks being
/// non-decreasing.  The search gallops from `hint` when the rows before it
/// are in the prefix, so a cut close to the last one takes a few steps.
fn rows_below(rows: &impl ChannelRows, rank: u64, hint: usize) -> usize {
    let n = rows.rows();
    // Rows before `lo` are in the prefix, rows from `hi` on are not.
    let mut lo = if hint > 0 && hint <= n && rows.rank(hint - 1) < rank {
        hint
    } else {
        0
    };
    let mut step = 1;
    let mut hi = loop {
        let probe = lo + step - 1;
        if probe >= n {
            break n;
        }
        if rows.rank(probe) >= rank {
            break probe;
        }
        lo = probe + 1;
        step *= 2;
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if rows.rank(mid) < rank {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A position in a run's delivery order: every event of rank below
/// `rank`, plus the first `extra` events of rank `rank`, which delivery
/// order takes in canonical channel order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    rank: u64,
    extra: usize,
}

impl Cut {
    /// The position before the first event of rank `rank` or later.
    pub fn before_rank(rank: u64) -> Cut {
        Cut { rank, extra: 0 }
    }

    /// The position after the first `n` events of `run` (after every
    /// event when `n` is at least the run's length), found from per-rank
    /// counts: a bisection over ranks, each step a bisection per channel.
    pub fn after_events(run: &impl Delivery, n: usize) -> Cut {
        let channels = run.channels();
        let below = |rank: u64| -> usize { channels.iter().map(|c| rows_below(c, rank, 0)).sum() };
        let Some(last) = run.last_rank().filter(|_| n > 0) else {
            return Cut::before_rank(0);
        };
        // The smallest rank whose events, with all earlier ones, number n.
        let (mut lo, mut hi) = (0, last);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if below(mid + 1) >= n {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let before = below(lo);
        Cut {
            rank: lo,
            extra: n.min(below(lo + 1)) - before,
        }
    }

    /// The rank of the cut's last event when it takes events of its own
    /// rank; the first rank it excludes otherwise.
    pub fn rank(&self) -> u64 {
        self.rank
    }
}

/// A cut as the channels see it: rows of rank below `rank`, plus — for
/// the channels before `channel` in canonical order — every row of rank
/// `rank`, and for `channel` itself the first `within` of them.
#[derive(Debug, Clone, Copy)]
struct ChannelCut {
    rank: u64,
    channel: usize,
    within: usize,
}

impl ChannelCut {
    /// How many rows of channel `c`, `rows`, fall before the cut, given
    /// that the first `from` do.
    fn prefix(&self, c: usize, rows: &impl ChannelRows, from: usize) -> usize {
        let below = rows_below(rows, self.rank, from);
        let end = if c < self.channel {
            rows_below(rows, self.rank + 1, below)
        } else if c == self.channel {
            below + self.within
        } else {
            below
        };
        end.max(from)
    }
}

/// What a cut's channels add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutTally {
    /// Events accepted before the cut.
    pub events: u64,
    /// Windows released into channel partials before the cut.
    pub released: u64,
    /// Windows buffered at the cut.
    pub buffered: usize,
}

/// One group's channels' keys and their observers cut by cut (`None`
/// while a channel is not live).
type GroupParts<O> = (Vec<(u32, u8)>, Vec<Option<O>>);

/// Every live channel's observer at each cut of one
/// [`TraceReplay::cuts`] call, and each cut's totals.
#[derive(Debug)]
pub struct CutParts<O> {
    groups: Vec<GroupParts<O>>,
    tallies: Vec<CutTally>,
}

impl<O> CutParts<O> {
    /// Cut `k`'s totals.
    pub fn tally(&self, k: usize) -> CutTally {
        self.tallies[k]
    }

    /// Cut `k`'s live channels and their observers, in canonical
    /// `(node, slot)` order.
    pub fn cut(&self, k: usize) -> impl Iterator<Item = ((u32, u8), &O)> + Clone + '_ {
        self.groups.iter().flat_map(move |(keys, parts)| {
            let row = &parts[k * keys.len()..(k + 1) * keys.len()];
            (keys.iter().zip(row)).filter_map(|(&key, part)| Some((key, part.as_ref()?)))
        })
    }
}

/// A channel's buffered-window change over consecutive deliveries: the
/// net change and the highest running change after any one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Occupancy {
    net: i64,
    peak: i64,
}

impl Occupancy {
    /// No deliveries.
    const NONE: Occupancy = Occupancy {
        net: 0,
        peak: i64::MIN,
    };

    /// One delivery that changed occupancy by `delta`.
    fn one(delta: i64) -> Occupancy {
        Occupancy {
            net: delta,
            peak: delta,
        }
    }

    /// `self`'s deliveries, then `next`'s.
    fn then(self, next: Occupancy) -> Occupancy {
        Occupancy {
            net: self.net + next.net,
            peak: self.peak.max(self.net.saturating_add(next.peak)),
        }
    }
}

/// What every channel job reads.
struct Ctx<'s> {
    schedule: &'s Schedule,
    horizon: u64,
}

/// A worker's tallies for the group it is replaying.
#[derive(Default)]
struct Tally {
    /// Every accepted row's count, kind, release and reject tallies, and
    /// the highest single-channel occupancy.
    stats: StreamStats,
    /// The group's occupancy changes per rank from `occ_base`, channels
    /// folded in canonical order.
    occ: Vec<Occupancy>,
    occ_base: u64,
}

impl Tally {
    /// Records one accepted delivery of `rank` that changed the channel's
    /// occupancy by `delta`, to `buffered`.
    fn step(&mut self, rank: u64, delta: i64, buffered: usize) {
        // A delivery that leaves occupancy where it was sets no new peak.
        if delta == 0 {
            return;
        }
        self.stats.peak_channel_windows = self.stats.peak_channel_windows.max(buffered);
        // A pass replays no row below its base rank.
        let at = usize::try_from(rank - self.occ_base).expect("occupancy fits memory");
        if at >= self.occ.len() {
            self.occ.resize(at + 1, Occupancy::NONE);
        }
        self.occ[at] = self.occ[at].then(Occupancy::one(delta));
    }

    /// The group's occupancy changes, `(rank, change)` for every rank that
    /// has one, leaving the table empty.
    fn take_occupancy(&mut self) -> Vec<(u64, Occupancy)> {
        let base = self.occ_base;
        let changes = (self.occ.iter().enumerate())
            // A rank whose deliveries left occupancy where it was, never
            // above, cannot set a new peak.
            .filter(|(_, o)| o.net != 0 || o.peak > 0)
            .map(|(i, &o)| (base + i as u64, o))
            .collect();
        self.occ.clear();
        changes
    }
}

/// A worker's reusable buffers and its tallies for the group it is
/// replaying.
#[derive(Default)]
struct Worker {
    spare: Vec<Vec<WindowEvent>>,
    tally: Tally,
    /// Refused rows as `(node, slot, rank, window, ordinal)`.
    refused: Vec<(u32, u8, u64, u64, u32)>,
}

/// One channel's replay state between calls.
#[derive(Debug)]
struct ChannelState<O> {
    ch: Channel<O>,
    /// First row not yet replayed.
    next: usize,
    events: u64,
    released: u64,
    /// `(rank, window)` of the previous row and its ordinal among the
    /// consecutive rows sharing that key.
    prev: Option<(u64, u64, u32)>,
}

impl<O: FleetObserver + Default + Clone> ChannelState<O> {
    fn new() -> Self {
        ChannelState {
            ch: Channel::default(),
            next: 0,
            events: 0,
            released: 0,
            prev: None,
        }
    }

    /// The ordinal of the row of `(rank, window)` after the previous one
    /// among the consecutive rows sharing that key, noted as the previous.
    fn ordinal(&mut self, rank: u64, window: u64) -> u32 {
        let ordinal = match self.prev {
            Some((r, w, k)) if (r, w) == (rank, window) => k + 1,
            _ => 0,
        };
        self.prev = Some((rank, window, ordinal));
        ordinal
    }

    /// Replays rows up to (not including) `end`, as the engine ingests a
    /// block: runs in ascending window order at once, other rows alone.
    fn advance(&mut self, rows: &impl ChannelRows, end: usize, ctx: &Ctx<'_>, w: &mut Worker) {
        while self.next < end {
            let from = self.next;
            let tally = &mut w.tally;
            let (stop, released) = self.ch.accept_run(
                rows,
                from..end,
                ctx.horizon,
                ctx.schedule,
                &mut w.spare,
                |i, delta, buffered| {
                    tally.stats.count_tag(rows.tag(i));
                    tally.step(rows.rank(i), delta, buffered);
                },
            );
            if stop > from {
                // A run's windows ascend strictly, so only its first row can
                // share a key with the row before it.
                self.ordinal(rows.rank(from), rows.window(from));
                if stop - from > 1 {
                    self.prev = Some((rows.rank(stop - 1), rows.window(stop - 1), 0));
                }
                self.events += (stop - from) as u64;
                self.released += released;
                tally.stats.released_windows += released;
            }
            self.next = stop;
            if stop < end {
                self.replay_row(rows, ctx, w);
            }
        }
    }

    /// Replays row `next` alone: the engine's per-event admission,
    /// buffering and release.
    fn replay_row(&mut self, rows: &impl ChannelRows, ctx: &Ctx<'_>, w: &mut Worker) {
        let ev = rows.event(self.next);
        self.next += 1;
        let ordinal = self.ordinal(ev.rank, ev.window);
        let idx =
            match check_event(ctx.schedule, &ev).and_then(|()| ring_offset(self.ch.floor, &ev)) {
                Ok(idx) => idx,
                Err(e) => {
                    w.tally.stats.count_reject(&e);
                    w.refused
                        .push((ev.node, ev.slot, ev.rank, ev.window, ordinal));
                    return;
                }
            };
        let before = self.ch.buffered as i64;
        self.events += 1;
        w.tally.stats.count_event(&ev.kind);
        let (rank, schedule) = (ev.rank, ctx.schedule);
        let (_, released) = self
            .ch
            .accept(ev, idx, ctx.horizon, &mut w.spare, |p, evs| {
                apply_all(p, schedule, evs)
            });
        self.released += released;
        w.tally.stats.released_windows += released;
        let buffered = self.ch.buffered;
        w.tally.step(rank, buffered as i64 - before, buffered);
    }

    /// Releases everything still buffered — the end of the run.
    fn flush(&mut self, ctx: &Ctx<'_>, w: &mut Worker) {
        let schedule = ctx.schedule;
        let released = self
            .ch
            .flush(&mut w.spare, |p, evs| apply_all(p, schedule, evs));
        self.released += released;
        w.tally.stats.released_windows += released;
    }
}

/// What one group's job hands the caller.
struct GroupOut<O> {
    /// Each cut's observers of the group's channels, cut by cut, `None`
    /// for a channel not yet live.
    parts: Vec<Option<O>>,
    tallies: Vec<CutTally>,
    /// The channels' final observers (a finishing call only).
    finals: Vec<O>,
    /// Channels that became live.
    live: u64,
    stats: StreamStats,
    occupancy: Vec<(u64, Occupancy)>,
    refused: Vec<(u32, u8, u64, u64, u32)>,
}

/// A recorded run replayed channel by channel (see the module docs).
pub struct TraceReplay<'a, O, D: Delivery> {
    schedule: &'a Schedule,
    run: &'a D,
    cfg: StreamConfig,
    /// Runs of whole nodes' channels (index ranges): the unit of work.
    groups: Vec<Range<usize>>,
    /// Each group's channel states; only that group's job locks them.
    states: Vec<Mutex<Vec<ChannelState<O>>>>,
    stats: StreamStats,
    live: u64,
    /// Per-rank occupancy changes not yet swept, from rank `swept`.
    occupancy: Vec<Occupancy>,
    swept: u64,
    /// Buffered windows summed over channels after the last swept rank.
    running: i64,
    refused: HashSet<(u32, u8, u64, u64, u32)>,
    /// The previous event [`TraceReplay::refused`] was asked about, and its
    /// ordinal among the consecutive events sharing its key.
    asked: Option<(u32, u8, u64, u64, u32)>,
    finished: bool,
}

impl<'a, O, D> TraceReplay<'a, O, D>
where
    O: FleetObserver + Default + Clone + Send,
    D: Delivery,
{
    /// A replay of `run` against `schedule`'s fleet and job log, with
    /// `cfg`'s reorder horizon (and its shard count for the imbalance
    /// gauge).
    pub fn new(schedule: &'a Schedule, run: &'a D, cfg: StreamConfig) -> Result<Self, PmssError> {
        cfg.validate()?;
        let channels = run.channels();
        let mut nodes: Vec<Range<usize>> = Vec::new();
        for (c, rows) in channels.iter().enumerate() {
            match nodes.last_mut() {
                Some(r) if channels[r.start].channel().0 == rows.channel().0 => r.end = c + 1,
                _ => nodes.push(c..c + 1),
            }
        }
        // A few jobs per worker balance the load; fewer, larger jobs keep
        // a pass's hand-offs few.
        let per_group = nodes.len().div_ceil(JOBS_PER_WORKER * workers()).max(1);
        let groups: Vec<Range<usize>> = nodes
            .chunks(per_group)
            .map(|run| run[0].start..run[run.len() - 1].end)
            .collect();
        let states = groups
            .iter()
            .map(|r| Mutex::new(r.clone().map(|_| ChannelState::new()).collect()))
            .collect();
        Ok(TraceReplay {
            schedule,
            run,
            cfg,
            groups,
            states,
            stats: StreamStats::default(),
            live: 0,
            occupancy: Vec::new(),
            swept: 0,
            running: 0,
            refused: HashSet::new(),
            asked: None,
            finished: false,
        })
    }

    /// Replays every channel up to each of `cuts` in turn (ascending, and
    /// past any earlier call's) and returns every channel live at each
    /// cut with its observer there, and each cut's totals.
    pub fn cuts(&mut self, cuts: &[Cut]) -> CutParts<O> {
        assert!(!self.finished, "a finished replay takes no more cuts");
        let channels = self.run.channels();
        // Where each cut's events of its own rank stop, in canonical order.
        let resolved: Vec<ChannelCut> = cuts
            .iter()
            .map(|cut| {
                let mut at = ChannelCut {
                    rank: cut.rank,
                    channel: 0,
                    within: 0,
                };
                let mut left = cut.extra;
                for (c, rows) in channels.iter().enumerate() {
                    if left == 0 {
                        break;
                    }
                    let below = rows_below(rows, cut.rank, 0);
                    at.channel = c;
                    at.within = left.min(rows_below(rows, cut.rank + 1, below) - below);
                    left -= at.within;
                }
                at
            })
            .collect();
        let mut parts = CutParts {
            groups: Vec::with_capacity(self.groups.len()),
            tallies: vec![CutTally::default(); cuts.len()],
        };
        self.pass(&resolved, false, |range, group, _| {
            let keys = channels[range].iter().map(ChannelRows::channel).collect();
            for (t, n) in parts.tallies.iter_mut().zip(&group.tallies) {
                t.events += n.events;
                t.released += n.released;
                t.buffered += n.buffered;
            }
            parts.groups.push((keys, group.parts));
        });
        if let Some(last) = cuts.last() {
            self.sweep(last.rank);
        }
        parts
    }

    /// Replays the rest of every channel and drains its ring — the end of
    /// the run — and returns the merged observer over every accepted
    /// event, channels merged in canonical order.
    pub fn finish(&mut self) -> O {
        assert!(!self.finished, "a replay finishes once");
        let mut merged = O::default();
        self.pass(&[], true, |_, _, finals| {
            for part in finals {
                merged.merge(part);
            }
        });
        self.sweep(u64::MAX);
        self.finished = true;
        merged
    }

    /// One pass of group jobs on every worker: each channel replayed through
    /// `cuts`, and to its end when `finish`.  `keep(channels, group,
    /// finals)` sees each group's cut observers and tallies, and
    /// (finishing) its channels' final observers, group by group in
    /// canonical order.
    fn pass(
        &mut self,
        cuts: &[ChannelCut],
        finish: bool,
        mut keep: impl FnMut(Range<usize>, GroupOut<O>, Vec<O>),
    ) {
        let ctx = Ctx {
            schedule: self.schedule,
            horizon: self.cfg.reorder_horizon,
        };
        let channels = self.run.channels();
        let (groups, states) = (&self.groups, &self.states);
        let job = |w: &mut Worker, n: usize| {
            let mut states = states[n].lock().unwrap_or_else(PoisonError::into_inner);
            let mut group = GroupOut {
                parts: Vec::new(),
                tallies: vec![CutTally::default(); cuts.len()],
                finals: Vec::new(),
                live: 0,
                stats: StreamStats::default(),
                occupancy: Vec::new(),
                refused: Vec::new(),
            };
            let width = groups[n].len();
            group.parts.resize_with(cuts.len() * width, || None);
            for (j, (c, st)) in groups[n].clone().zip(states.iter_mut()).enumerate() {
                let rows = &channels[c];
                let was_live = st.ch.is_live();
                for (k, cut) in cuts.iter().enumerate() {
                    st.advance(rows, cut.prefix(c, rows, st.next), &ctx, w);
                    if st.ch.is_live() {
                        group.parts[k * width + j] = Some(st.ch.snapshot(ctx.schedule));
                    }
                    let t = &mut group.tallies[k];
                    t.events += st.events;
                    t.released += st.released;
                    t.buffered += st.ch.buffered;
                }
                if finish {
                    st.advance(rows, rows.rows(), &ctx, w);
                    st.flush(&ctx, w);
                    if st.ch.is_live() {
                        group.finals.push(std::mem::take(&mut st.ch.partial));
                    }
                }
                group.live += u64::from(st.ch.is_live() && !was_live);
            }
            group.stats = std::mem::take(&mut w.tally.stats);
            group.occupancy = w.tally.take_occupancy();
            group.refused = std::mem::take(&mut w.refused);
            group
        };
        let base = self.swept;
        let workers = (0..workers())
            .map(|_| Worker {
                tally: Tally {
                    occ_base: base,
                    ..Tally::default()
                },
                ..Worker::default()
            })
            .collect();
        let mut sink = |n: usize, mut out: GroupOut<O>| {
            add_stats(&mut self.stats, &out.stats);
            self.live += out.live;
            for (rank, o) in std::mem::take(&mut out.occupancy) {
                // Every rank below `swept` was complete when it was swept.
                let at = usize::try_from(rank - self.swept).expect("occupancy fits memory");
                if at >= self.occupancy.len() {
                    self.occupancy.resize(at + 1, Occupancy::NONE);
                }
                self.occupancy[at] = self.occupancy[at].then(o);
            }
            self.refused.extend(std::mem::take(&mut out.refused));
            let finals = std::mem::take(&mut out.finals);
            keep(groups[n].clone(), out, finals);
            ControlFlow::Continue(())
        };
        scoped_sink(workers, 2, self.groups.len(), job, &mut sink);
    }

    /// Folds the occupancy changes of every rank below `rank` into the
    /// running sum and its peak, and drops them.
    fn sweep(&mut self, rank: u64) {
        let upto = usize::try_from(rank.saturating_sub(self.swept))
            .unwrap_or(usize::MAX)
            .min(self.occupancy.len());
        let mut peak = self.stats.peak_buffered_windows as i64;
        for o in self.occupancy.drain(..upto) {
            if o.peak != i64::MIN {
                peak = peak.max(self.running + o.peak);
            }
            self.running += o.net;
        }
        // Past the last rank with a change, nothing is left to sweep.
        self.swept = if self.occupancy.is_empty() {
            rank.max(self.swept + upto as u64)
        } else {
            self.swept + upto as u64
        };
        self.stats.peak_buffered_windows = peak as usize;
    }

    /// Whether the engine refused `ev`, the next event of the run in
    /// delivery order — asked of every event in turn, and only of events
    /// the replay has already passed.
    pub fn refused(&mut self, ev: &WindowEvent) -> bool {
        if self.refused.is_empty() {
            // Refusals found later all rank past this event and every
            // event sharing its key, so no ordinal need be kept.
            self.asked = None;
            return false;
        }
        let ordinal = match self.asked {
            Some((n, s, r, w, k)) if (n, s, r, w) == (ev.node, ev.slot, ev.rank, ev.window) => {
                k + 1
            }
            _ => 0,
        };
        let key = (ev.node, ev.slot, ev.rank, ev.window, ordinal);
        self.asked = Some(key);
        self.refused.contains(&key)
    }

    /// Ingest tallies so far (every field once the replay has finished).
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// The declared buffered-window bound: live channels × horizon.
    pub fn buffer_bound(&self) -> usize {
        buffer_bound(self.live, self.cfg.reorder_horizon)
    }

    /// Publishes the `stream.*` metrics the engine publishes.
    /// `stream.buffer_bytes` is the reorder rings' retained capacity summed
    /// over live channels.
    pub fn publish_metrics(&self, m: &mut Metrics) {
        let channels = self.run.channels();
        let mut ring_bytes = 0;
        // Accepted events per shard (`node % shards`), for the imbalance
        // gauge the engine reports.
        let mut shard_events = vec![0; self.cfg.shards];
        for (group, states) in self.groups.iter().zip(&self.states) {
            let states = states.lock().unwrap_or_else(PoisonError::into_inner);
            for (c, st) in group.clone().zip(states.iter()) {
                if !st.ch.is_live() {
                    continue;
                }
                ring_bytes += st.ch.ring_bytes();
                shard_events[channels[c].channel().0 as usize % self.cfg.shards] += st.events;
            }
        }
        publish_stream_metrics(
            m,
            &self.stats,
            self.cfg,
            self.buffer_bound(),
            ring_bytes,
            shard_events.into_iter(),
        );
    }
}

/// Adds a job's tallies to the replay's: counters add, the single-channel
/// peak is a maximum.
fn add_stats(into: &mut StreamStats, from: &StreamStats) {
    into.events += from.events;
    into.samples += from.samples;
    into.gaps += from.gaps;
    into.rest_samples += from.rest_samples;
    into.released_windows += from.released_windows;
    into.late_rejects += from.late_rejects;
    into.channel_rejects += from.channel_rejects;
    into.span_rejects += from.span_rejects;
    into.job_rejects += from.job_rejects;
    into.peak_channel_windows = into.peak_channel_windows.max(from.peak_channel_windows);
}
