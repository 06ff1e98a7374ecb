//! One telemetry channel's ingest state — the unit every ingest driver
//! shares.
//!
//! A [`Channel`] holds its partial observer over the windows already
//! final, a reorder ring of the windows still in flight, the release floor
//! and the highest window seen.  Nothing in it reads another channel: the
//! release rule ("a sibling `horizon` windows ahead") names this channel's
//! own `max_seen`.  Three drivers go through the methods here, so
//! admission, buffering and release are one piece of code: the sharded
//! [`crate::StreamEngine`] one delivered event at a time
//! ([`Channel::accept`], the daemon's path) and one block at a time, and
//! the per-channel replay ([`crate::replay`]) each channel of a recorded
//! run on its own, on a worker.  The last two take rows in ascending
//! window order as one run ([`Channel::accept_run`]), which folds the rows
//! a run makes final as one range, and hand each row out of order to
//! [`Channel::accept`].

use std::collections::VecDeque;
use std::ops::Range;

use pmss_sched::Schedule;
use pmss_telemetry::{
    apply_event, ColumnBlock, FleetObserver, Tag, TraceBlock, WindowEvent, WindowKind, NO_JOB,
    REST_SLOT,
};

use crate::engine::{StreamError, StreamStats};

const SAMPLE: u8 = Tag::Sample as u8;
const REST: u8 = Tag::NodeRest as u8;

/// One channel's rows in arrival order, as a block driver reads them.
/// Ranks never decrease from one row to the next.
pub trait ChannelRows: Sync {
    /// The channel's `(node, slot)`.
    fn channel(&self) -> (u32, u8);
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Delivery rank of row `i`.
    fn rank(&self, i: usize) -> u64;
    /// Window index of row `i`.
    fn window(&self, i: usize) -> u64;
    /// Payload tag of row `i` (a `pmss_telemetry::Tag` byte).
    fn tag(&self, i: usize) -> u8;
    /// Job attribution of row `i` ([`NO_JOB`] when unattributed).
    fn job(&self, i: usize) -> u32;
    /// Row `i` as an event.
    fn event(&self, i: usize) -> WindowEvent;
    /// Applies rows `range` to `obs`, in row order — the observer calls
    /// [`apply_event`] makes for each row in turn.
    fn fold<O: FleetObserver>(&self, obs: &mut O, schedule: &Schedule, range: Range<usize>);
}

impl ChannelRows for TraceBlock {
    fn channel(&self) -> (u32, u8) {
        TraceBlock::channel(self)
    }
    fn rows(&self) -> usize {
        self.len()
    }
    fn rank(&self, i: usize) -> u64 {
        TraceBlock::rank(self, i)
    }
    fn window(&self, i: usize) -> u64 {
        TraceBlock::window(self, i)
    }
    fn tag(&self, i: usize) -> u8 {
        TraceBlock::tag(self, i)
    }
    fn job(&self, i: usize) -> u32 {
        TraceBlock::job(self, i)
    }
    fn event(&self, i: usize) -> WindowEvent {
        self.row(i)
    }
    fn fold<O: FleetObserver>(&self, obs: &mut O, schedule: &Schedule, range: Range<usize>) {
        for i in range {
            apply_event(obs, schedule, &self.row(i));
        }
    }
}

impl ChannelRows for ColumnBlock {
    fn channel(&self) -> (u32, u8) {
        ColumnBlock::channel(self)
    }
    fn rows(&self) -> usize {
        self.len()
    }
    fn rank(&self, i: usize) -> u64 {
        self.ranks()[i]
    }
    fn window(&self, i: usize) -> u64 {
        self.windows()[i]
    }
    fn tag(&self, i: usize) -> u8 {
        self.tags()[i]
    }
    fn job(&self, i: usize) -> u32 {
        self.jobs()[i]
    }
    fn event(&self, i: usize) -> WindowEvent {
        ColumnBlock::event(self, i)
    }
    fn fold<O: FleetObserver>(&self, obs: &mut O, schedule: &Schedule, range: Range<usize>) {
        obs.fold_rows(schedule, self, range);
    }
}

/// Telemetry channels per node: the GPU slots plus the rest-of-node
/// channel — the stride of every dense per-channel table.
pub(crate) const CHANNELS_PER_NODE: usize = REST_SLOT as usize + 1;

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
pub(crate) const MAX_SPAN_WINDOWS: u64 = 1 << 22;

/// Spill vectors kept per free list for reuse.  Spills only happen on
/// duplicate deliveries of one window, so a handful of slabs covers any
/// realistic fault plan without hoarding memory.
const SPARE_SLABS: usize = 8;

/// One reorder-ring slot: the deliveries of one window.  The overwhelming
/// majority of windows arrive exactly once, so the single-event case is
/// stored inline; duplicate deliveries spill into a `Vec` drawn from a
/// free list and returned on release.
#[derive(Debug, Clone)]
pub(crate) enum Slot {
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

    /// The slot's deliveries, in arrival order.
    fn events(&self) -> &[WindowEvent] {
        match self {
            Slot::Empty => &[],
            Slot::One(ev) => std::slice::from_ref(ev),
            Slot::Many(evs) => evs,
        }
    }

    /// Hands a released slot's spill vector back to `spare`.
    fn recycle(self, spare: &mut Vec<Vec<WindowEvent>>) {
        if let Slot::Many(mut evs) = self {
            if spare.len() < SPARE_SLABS {
                evs.clear();
                spare.push(evs);
            }
        }
    }
}

/// Whether `(node, slot)` is a channel of `schedule`'s fleet.
pub(crate) fn channel_exists(schedule: &Schedule, node: u32, slot: u8) -> bool {
    (slot as usize) < CHANNELS_PER_NODE && (node as usize) < schedule.per_node.len()
}

/// The checks on `ev` that read no channel state, in the engine's order:
/// the channel must exist in the schedule's fleet, and any job attribution
/// must index the schedule's job log.
pub(crate) fn check_event(schedule: &Schedule, ev: &WindowEvent) -> Result<(), StreamError> {
    if !channel_exists(schedule, ev.node, ev.slot) {
        return Err(StreamError::InvalidChannel {
            node: ev.node,
            slot: ev.slot,
            nodes: schedule.per_node.len() as u64,
        });
    }
    // Job attribution indexes `schedule.jobs`; an out-of-range index from
    // an adversarial frame must be refused here, where it is a typed
    // error, not inside `apply_event`, where it is a panic.
    let job = match ev.kind {
        WindowKind::Sample { job, .. } | WindowKind::Gap { job, .. } => job,
        WindowKind::NodeRest { .. } => None,
    };
    match job {
        Some(j) if !job_in_log(schedule, j) => Err(StreamError::InvalidJob {
            node: ev.node,
            slot: ev.slot,
            window: ev.window,
            job: j as u64,
            jobs: schedule.jobs.len() as u64,
        }),
        _ => Ok(()),
    }
}

/// Whether job index `job` indexes `schedule`'s job log.
fn job_in_log(schedule: &Schedule, job: usize) -> bool {
    job < schedule.jobs.len()
}

/// The ring offset of `window` on a channel whose release floor is
/// `floor`, when it is neither behind the floor nor past the span bound.
fn span_offset(floor: u64, window: u64) -> Option<usize> {
    // Bounding the offset (and checking the usize conversion rather than
    // `as`-truncating) is what keeps a far-future window from demanding an
    // unbounded ring allocation or landing in some other window's slot.
    let span = window.checked_sub(floor)?;
    usize::try_from(span)
        .ok()
        .filter(|_| span < MAX_SPAN_WINDOWS)
}

/// The ring offset `ev` would occupy on a channel whose release floor is
/// `floor`, or why it is refused: behind the floor
/// ([`StreamError::LateArrival`]) or too far past it
/// ([`StreamError::SpanOverflow`]).
pub(crate) fn ring_offset(floor: u64, ev: &WindowEvent) -> Result<usize, StreamError> {
    if ev.window < floor {
        return Err(StreamError::LateArrival {
            node: ev.node,
            slot: ev.slot,
            window: ev.window,
            floor,
        });
    }
    span_offset(floor, ev.window).ok_or(StreamError::SpanOverflow {
        node: ev.node,
        slot: ev.slot,
        window: ev.window,
        floor,
        max_span: MAX_SPAN_WINDOWS,
    })
}

/// Applies one released window's deliveries to the channel partial, in
/// arrival order.
pub(crate) fn apply_all<O: FleetObserver>(
    partial: &mut O,
    schedule: &Schedule,
    events: &[WindowEvent],
) {
    for ev in events {
        apply_event(partial, schedule, ev);
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
pub(crate) struct Channel<O> {
    /// Windows below the floor, applied in ascending order.
    pub(crate) partial: O,
    /// Buffered in-horizon windows; slot `i` is window `floor + i`.
    pub(crate) ring: VecDeque<Slot>,
    /// Present (distinct buffered) windows in the ring.
    pub(crate) buffered: usize,
    /// Highest window seen on this channel.
    pub(crate) max_seen: u64,
    /// First window still accepted; everything below is final.
    pub(crate) floor: u64,
}

impl<O: Default> Default for Channel<O> {
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

impl<O: FleetObserver + Clone> Channel<O> {
    /// Buffers an admitted event at ring offset `idx` (from
    /// [`ring_offset`] against this channel's floor), then releases every
    /// window that became final, handing each released slot to
    /// `release(partial, deliveries)` in ascending window order (a
    /// window's deliveries in arrival order).  Spill vectors come from and
    /// go back to `spare`.  Returns whether the event opened a new window
    /// and how many windows were released.
    pub(crate) fn accept(
        &mut self,
        ev: WindowEvent,
        idx: usize,
        horizon: u64,
        spare: &mut Vec<Vec<WindowEvent>>,
        release: impl FnMut(&mut O, &[WindowEvent]),
    ) -> (bool, u64) {
        let fresh = self.hold(ev, idx, spare);
        (fresh, self.release_ready(horizon, spare, release))
    }

    /// Accepts rows `range` of `rows` for as long as each is a window past
    /// every one the channel has seen and [`Channel::accept`] would admit
    /// it (none when `rows` name a channel outside the schedule's fleet),
    /// with the same releases: the ring's windows first, then the
    /// run's own rows that became final, which fold into the partial as
    /// one range ([`ChannelRows::fold`]).  The rows still in flight go into
    /// the ring.  `step(i, delta, buffered)` sees each accepted row `i`,
    /// the change it made to the channel's buffered windows and their
    /// count after it.  Returns the first row not accepted and the windows
    /// released.
    pub(crate) fn accept_run<R: ChannelRows>(
        &mut self,
        rows: &R,
        range: Range<usize>,
        horizon: u64,
        schedule: &Schedule,
        spare: &mut Vec<Vec<WindowEvent>>,
        mut step: impl FnMut(usize, i64, usize),
    ) -> (usize, u64) {
        let start = range.start;
        let (node, slot) = rows.channel();
        if !channel_exists(schedule, node, slot) {
            return (start, 0);
        }
        let mut live = self.is_live();
        // Accepted rows from `held` to `end` are in flight; they stay in
        // `rows` until the run ends.  The floor and `max_seen` live in
        // locals while no ring release needs them.
        let (mut held, mut end) = (start, start);
        let (mut floor, mut max_seen) = (self.floor, self.max_seen);
        let mut released = 0;
        for i in range {
            let (window, job) = (rows.window(i), rows.job(i));
            let admitted = (job == NO_JOB || job_in_log(schedule, job as usize))
                && span_offset(floor, window).is_some();
            if (live && window <= max_seen) || !admitted {
                break;
            }
            live = true;
            let before = self.buffered + (i - held);
            max_seen = window;
            if self.buffered > 0 {
                self.max_seen = max_seen;
                released +=
                    self.release_ready(horizon, spare, |p, evs| apply_all(p, schedule, evs));
                floor = self.floor;
            }
            // Every ring window is below the run's, so run rows release only
            // once the ring has drained.
            if self.buffered == 0 {
                // A positive horizon keeps row `i` itself in flight, so
                // `held` never passes it.
                let mut oldest = rows.window(held);
                while oldest.saturating_add(horizon) <= window {
                    floor = oldest + 1;
                    held += 1;
                    oldest = rows.window(held);
                }
            }
            end = i + 1;
            let after = self.buffered + (end - held);
            step(i, after as i64 - before as i64, after);
        }
        (self.floor, self.max_seen) = (floor, max_seen);
        rows.fold(&mut self.partial, schedule, start..held);
        for i in held..end {
            let ev = rows.event(i);
            let idx = span_offset(self.floor, ev.window).expect("admitted against a lower floor");
            self.hold(ev, idx, spare);
        }
        (end, released + (held - start) as u64)
    }

    /// Whether the channel has accepted any event: one is in the ring, or
    /// a release has moved the floor.
    pub(crate) fn is_live(&self) -> bool {
        self.floor > 0 || !self.ring.is_empty()
    }

    /// Buffers an admitted event at ring offset `idx` without releasing
    /// anything.  Returns whether it opened a new window.
    fn hold(&mut self, ev: WindowEvent, idx: usize, spare: &mut Vec<Vec<WindowEvent>>) -> bool {
        debug_assert_eq!(idx as u64, ev.window - self.floor);
        self.max_seen = self.max_seen.max(ev.window);
        let fresh = if idx == self.ring.len() {
            // A dense stream only ever appends the next window.
            self.ring.push_back(Slot::One(ev));
            true
        } else {
            if idx > self.ring.len() {
                // Lazy growth to the span actually buffered — a huge
                // horizon must not preallocate anything (it only
                // *permits* lateness).
                self.ring.resize(idx + 1, Slot::Empty);
            }
            let slot = &mut self.ring[idx];
            match slot {
                Slot::Empty => {
                    *slot = Slot::One(ev);
                    true
                }
                Slot::One(first) => {
                    let mut evs = spare.pop().unwrap_or_default();
                    evs.push(*first);
                    evs.push(ev);
                    *slot = Slot::Many(evs);
                    false
                }
                Slot::Many(evs) => {
                    evs.push(ev);
                    false
                }
            }
        };
        if fresh {
            self.buffered += 1;
        }
        fresh
    }

    /// Releases every window that can no longer be preceded: delivery rank
    /// is window + lag with lag < horizon, and ranks arrive non-decreasing,
    /// so once a window `max_seen` is delivered no window at or below
    /// `max_seen - horizon` can still appear.  The floor advances only past
    /// *released* (present) windows — a window index that was never
    /// delivered stays acceptable until some later window is finalized
    /// past it.
    fn release_ready(
        &mut self,
        horizon: u64,
        spare: &mut Vec<Vec<WindowEvent>>,
        mut release: impl FnMut(&mut O, &[WindowEvent]),
    ) -> u64 {
        let mut released = 0;
        loop {
            // First present window; generator streams are dense, so this
            // is almost always the front slot.
            let k = match self.ring.front() {
                Some(front) if front.is_present() => 0,
                Some(_) => match self.ring.iter().position(Slot::is_present) {
                    Some(k) => k,
                    None => break,
                },
                None => break,
            };
            let w = self.floor + k as u64;
            if w.saturating_add(horizon) > self.max_seen {
                break;
            }
            for _ in 0..k {
                self.ring.pop_front();
            }
            let slot = self.ring.pop_front().expect("present slot at k");
            release(&mut self.partial, slot.events());
            slot.recycle(spare);
            self.floor = w + 1;
            self.buffered -= 1;
            released += 1;
        }
        released
    }

    /// Drains the whole ring into `release`, in window order — the
    /// end-of-stream signal.  Returns the windows released.
    pub(crate) fn flush(
        &mut self,
        spare: &mut Vec<Vec<WindowEvent>>,
        mut release: impl FnMut(&mut O, &[WindowEvent]),
    ) -> u64 {
        let mut released = 0;
        while let Some(slot) = self.ring.pop_front() {
            // The ring's last slot is always present (it was created for a
            // delivered window), so the floor ends at max delivered window
            // + 1 either way.
            self.floor += 1;
            if slot.is_present() {
                release(&mut self.partial, slot.events());
                slot.recycle(spare);
                self.buffered -= 1;
                released += 1;
            }
        }
        released
    }

    /// The channel's observer over every window ingested so far: its
    /// released partial plus a replay of the in-flight windows, in window
    /// order, onto a clone.
    pub(crate) fn snapshot(&self, schedule: &Schedule) -> O {
        let mut part = self.partial.clone();
        for ev in self.ring.iter().flat_map(Slot::events) {
            apply_event(&mut part, schedule, ev);
        }
        part
    }

    /// Heap bytes of the ring and its spill vectors (capacities: both are
    /// retained for reuse).
    pub(crate) fn ring_bytes(&self) -> usize {
        let spills: usize = self
            .ring
            .iter()
            .map(|slot| match slot {
                Slot::Many(evs) => evs.capacity() * std::mem::size_of::<WindowEvent>(),
                _ => 0,
            })
            .sum();
        self.ring.capacity() * std::mem::size_of::<Slot>() + spills
    }
}

impl StreamStats {
    /// Counts one accepted row under its payload tag byte.
    pub(crate) fn count_tag(&mut self, tag: u8) {
        self.events += 1;
        match tag {
            SAMPLE => self.samples += 1,
            REST => self.rest_samples += 1,
            _ => self.gaps += 1,
        }
    }

    /// Counts accepted rows under their payload tag bytes.
    pub(crate) fn count_tags(&mut self, tags: &[u8]) {
        let samples = tags.iter().filter(|&&t| t == SAMPLE).count() as u64;
        let rest = tags.iter().filter(|&&t| t == REST).count() as u64;
        self.events += tags.len() as u64;
        self.samples += samples;
        self.rest_samples += rest;
        self.gaps += tags.len() as u64 - samples - rest;
    }

    /// Counts one accepted event under its kind.
    pub(crate) fn count_event(&mut self, kind: &WindowKind) {
        self.events += 1;
        match kind {
            WindowKind::Sample { .. } => self.samples += 1,
            WindowKind::Gap { .. } => self.gaps += 1,
            WindowKind::NodeRest { .. } => self.rest_samples += 1,
        }
    }

    /// Counts a rejection in the matching counter.
    pub(crate) fn count_reject(&mut self, err: &StreamError) {
        match err {
            StreamError::LateArrival { .. } => self.late_rejects += 1,
            StreamError::InvalidChannel { .. } => self.channel_rejects += 1,
            StreamError::SpanOverflow { .. } => self.span_rejects += 1,
            StreamError::InvalidJob { .. } => self.job_rejects += 1,
        }
    }
}
