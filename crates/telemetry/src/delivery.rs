//! One fleet run in *delivery* order — every event sorted by
//! `(rank, node, slot, window)`, the order a collection fabric hands
//! windows to an ingest tier.  The `stream` and `govern` artifacts replay
//! it channel by channel ([`DeliveryTrace::channels`], each channel in
//! arrival order), and `govern` accounts it event by event in delivery
//! order ([`DeliveryTrace::iter`]).
//!
//! The generator emits each `(node, slot)` channel contiguously, already
//! stable-sorted by `(rank, window)`: ascending window (rank == window)
//! when no plan reorders, [`ColumnBlock::sort_arrival`] otherwise,
//! duplicate deliveries being equal-key identical events.  Delivery order
//! is therefore a merge of sorted runs on a small integer key, and
//! [`DeliveryTrace::iter`] does it as a counting merge over fixed tiles of
//! ranks instead of flattening the run into a `Vec<WindowEvent>` and
//! comparison-sorting it: O(N), stable, and the same sequence.
//!
//! **What is retained.**  Per channel, only the columns nothing else
//! determines: the window index (`u32`), the payload tag (`u8`), the
//! payload value (`f64`, exact bits — NaN glitches included), the job
//! attribution (`u32`), and — only for a block a plan actually reordered —
//! the delivery lag `rank − window` (`u16`): 17 B/row clean, 19 B/row
//! reordered, against the 45 B/row of the [`ColumnBlock`] they came from.
//!
//! **What is derived.**  `rank` is `window + lag`.  `t_s` and `span_s` are
//! pure functions of the window index on the channel's [`BlockGrid`] (the
//! run's window layout plus the node's clock skew), rebuilt by
//! [`BlockGrid::stamp`] — the same function the resident codec decodes
//! through.  It takes the channel kind because the generator stamps GPU
//! windows as `w_start + 0.5·span` and rest-of-node windows as
//! `0.5·(w_start + w_end)`: equal on paper, different in the last bit, and
//! the `stream`/`govern` goldens pin the bits.  Capture checks every row
//! against its grid bitwise and against the narrow widths, so a block that
//! does not fit is a typed error, never a silently altered event.
//!
//! The retained columns are the floor for this design: the generator draws
//! one `StdRng` per node through slot 0's whole run, then slot 1's, …, so
//! no channel can be produced lazily by rank without moving output bytes.

use pmss_columns::{
    BlockGrid, ColumnBlock, FleetObserver, Tag, WindowEvent, WindowKind, REST_SLOT,
};
use pmss_error::PmssError;
use pmss_sched::Schedule;

use crate::fleet::{channel_grid, run_channels, FleetConfig, FleetRunStats, Retain};
use crate::threads::{until_err, workers};

/// Ranks merged per tile.  Wide enough that each block contributes a
/// sequential burst of rows per tile (a plain rank-by-rank sweep touches
/// every channel's columns once per rank, which no prefetcher follows),
/// narrow enough that the scatter target stays cache-resident.
const TILE_RANKS: u64 = 128;

/// Placeholder the tile buffer is grown with; every slot handed out has
/// been overwritten by the scatter.
const FILLER: WindowEvent = WindowEvent {
    node: 0,
    slot: 0,
    sku: 0,
    window: 0,
    rank: 0,
    t_s: 0.0,
    span_s: 0.0,
    kind: WindowKind::NodeRest { rest_w: 0.0 },
};

// Every lag a validated plan can produce fits the lag column.
const _: () = assert!(pmss_faults::MAX_REORDER_DEPTH <= u16::MAX as u32);

/// One channel's rows in arrival order, narrowed to the columns the grid
/// and the window index do not determine (see the module docs).
#[derive(Debug, Clone)]
pub struct TraceBlock {
    node: u32,
    slot: u8,
    sku: u8,
    /// Row `i` is stamped `grid.stamp(windows[i], slot == REST_SLOT)`.
    grid: BlockGrid,
    /// `grid.last_window()`, computed once.
    last: u64,
    windows: Vec<u32>,
    /// `rank − window` per row; empty when every row is in order.
    lags: Vec<u16>,
    tags: Vec<u8>,
    values: Vec<f64>,
    jobs: Vec<u32>,
}

impl TraceBlock {
    /// Narrows `block`, verifying that every row lies bitwise on `grid`
    /// and inside the column widths.
    pub(crate) fn narrow(block: &ColumnBlock, grid: BlockGrid) -> Result<TraceBlock, PmssError> {
        let rest_channel = block.slot() == REST_SLOT;
        let last = grid.last_window();
        let in_order = block.ranks() == block.windows();
        let mut windows = Vec::with_capacity(block.len());
        let mut lags = Vec::with_capacity(if in_order { 0 } else { block.len() });
        for i in 0..block.len() {
            let (w, r) = (block.windows()[i], block.ranks()[i]);
            let (t, span) = grid.stamp_on(last, w, rest_channel);
            let (got_t, got_span) = (block.times()[i], block.spans()[i]);
            let lag = r.checked_sub(w).and_then(|lag| u16::try_from(lag).ok());
            let on_grid = t.to_bits() == got_t.to_bits() && span.to_bits() == got_span.to_bits();
            let (Ok(window), Some(lag), true) = (u32::try_from(w), lag, on_grid) else {
                return Err(PmssError::invalid_value(
                    format!("trace row [{i}]"),
                    format!("window {w}, rank {r}, t_s {got_t}, span_s {got_span}"),
                    format!(
                        "a window below 2^32, delivered 0..=65535 ranks late, \
                         stamped by its grid (t_s {t}, span_s {span})"
                    ),
                ));
            };
            windows.push(window);
            if !in_order {
                lags.push(lag);
            }
        }
        Ok(TraceBlock {
            node: block.node(),
            slot: block.slot(),
            sku: block.sku(),
            grid,
            last,
            windows,
            lags,
            tags: block.tags().to_vec(),
            values: block.values().to_vec(),
            jobs: block.jobs().to_vec(),
        })
    }

    /// The channel's `(node, slot)`.
    pub fn channel(&self) -> (u32, u8) {
        (self.node, self.slot)
    }

    /// Number of rows.
    // No `is_empty`: a replay only asks how far to go.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Delivery rank of row `i` (rows are sorted by `(rank, window)`).
    #[inline]
    pub fn rank(&self, i: usize) -> u64 {
        u64::from(self.windows[i]) + self.lags.get(i).map_or(0, |&lag| u64::from(lag))
    }

    /// Window index of row `i`.
    #[inline]
    pub fn window(&self, i: usize) -> u64 {
        u64::from(self.windows[i])
    }

    /// Payload tag byte of row `i`.
    #[inline]
    pub fn tag(&self, i: usize) -> u8 {
        self.tags[i]
    }

    /// Job attribution of row `i` ([`crate::NO_JOB`] when unattributed).
    #[inline]
    pub fn job(&self, i: usize) -> u32 {
        self.jobs[i]
    }

    /// Rebuilds row `i` as the [`WindowEvent`] it was captured from.
    #[inline]
    pub fn row(&self, i: usize) -> WindowEvent {
        self.event(i, self.rank(i))
    }

    /// Rebuilds row `i`, of delivery rank `rank`, as the [`WindowEvent`] it
    /// was captured from.
    #[inline]
    fn event(&self, i: usize, rank: u64) -> WindowEvent {
        let window = u64::from(self.windows[i]);
        let (t_s, span_s) = self
            .grid
            .stamp_on(self.last, window, self.slot == REST_SLOT);
        let tag = Tag::from_u8(self.tags[i]).expect("valid captured tag");
        WindowEvent {
            node: self.node,
            slot: self.slot,
            sku: self.sku,
            window,
            rank,
            t_s,
            span_s,
            kind: tag.kind(self.values[i], self.jobs[i]),
        }
    }

    /// Heap bytes of the retained columns.
    fn column_bytes(&self) -> usize {
        self.windows.capacity() * 4
            + self.lags.capacity() * 2
            + self.tags.capacity()
            + self.values.capacity() * 8
            + self.jobs.capacity() * 4
    }
}

/// A fleet run's channels, retained so its events can be replayed in
/// delivery order any number of times.
#[derive(Debug, Clone, Default)]
pub struct DeliveryTrace {
    /// One block per channel, in canonical `(node, slot)` emission order,
    /// each sorted by `(rank, window)`.
    blocks: Vec<TraceBlock>,
}

impl DeliveryTrace {
    /// Runs the fleet once, keeping every channel it emits, and folds the
    /// batch observer `O` and tallies the [`FleetRunStats`] from the same
    /// run: each channel is folded in window order exactly as
    /// [`crate::simulate_fleet_metered`] folds it, then put into arrival
    /// order, narrowed on the worker that generated it and retained — one
    /// generation where a fold and a capture would be two.  The first
    /// channel that does not narrow, in canonical order, is the error,
    /// and the run stops there.  (`O = ()` keeps the trace alone.)
    pub fn capture_folding<O>(
        schedule: &Schedule,
        cfg: &FleetConfig,
    ) -> Result<(Self, O, FleetRunStats), PmssError>
    where
        O: FleetObserver + Default,
    {
        let mut blocks = Vec::new();
        let mut first_err = None;
        let narrow = |_, block: &ColumnBlock| {
            debug_assert!(
                (1..block.len()).all(|i| (block.ranks()[i - 1], block.windows()[i - 1])
                    <= (block.ranks()[i], block.windows()[i])),
                "channel blocks arrive sorted by (rank, window)"
            );
            TraceBlock::narrow(block, channel_grid(schedule, cfg, block.node()))
        };
        let mut keep = |narrowed: Result<TraceBlock, PmssError>| {
            until_err(narrowed.map(|block| blocks.push(block)), &mut first_err)
        };
        let retain = Retain {
            whole: true,
            map: &narrow,
            keep: &mut keep,
        };
        let (obs, stats) = run_channels(workers(), schedule, cfg, Some(retain));
        first_err.map_or(Ok((DeliveryTrace { blocks }, obs, stats)), Err)
    }

    /// Number of events in the run.
    // No `is_empty`: nothing asks whether a run is empty.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.windows.len()).sum()
    }

    /// The largest delivery rank in the run (0 for an empty run).
    pub fn last_rank(&self) -> u64 {
        // Each block is rank-sorted, so its last row carries its largest.
        let last = |b: &TraceBlock| b.windows.len().checked_sub(1).map(|i| b.rank(i));
        self.blocks.iter().filter_map(last).max().unwrap_or(0)
    }

    /// Heap bytes of the retained columns (capacities: the buffers are
    /// held for the trace's lifetime).
    pub fn retained_bytes(&self) -> usize {
        self.blocks.iter().map(TraceBlock::column_bytes).sum()
    }

    /// The run's channels in canonical `(node, slot)` order, each in
    /// arrival order — what a per-channel replay reads.
    pub fn channels(&self) -> &[TraceBlock] {
        &self.blocks
    }

    /// The run's events in `(rank, node, slot, window)` order.
    pub fn iter(&self) -> impl Iterator<Item = WindowEvent> + '_ {
        DeliveryIter {
            blocks: &self.blocks,
            cursors: vec![0; self.blocks.len()],
            tile: Vec::new(),
            tile_len: 0,
            pos: 0,
            next_base: 0,
            remaining: self.len(),
        }
    }
}

struct DeliveryIter<'a> {
    blocks: &'a [TraceBlock],
    /// Per block, the first row not yet merged.
    cursors: Vec<usize>,
    /// The current tile's events in delivery order (`..tile_len` is live;
    /// the buffer only ever grows).
    tile: Vec<WindowEvent>,
    tile_len: usize,
    pos: usize,
    /// First rank of the next tile.
    next_base: u64,
    /// Events not yet merged into a tile.
    remaining: usize,
}

impl DeliveryIter<'_> {
    /// Merges the next non-empty tile of ranks into `tile`.  Returns
    /// `false` once the run is exhausted.
    fn refill(&mut self) -> bool {
        self.pos = 0;
        self.tile_len = 0;
        while self.tile_len == 0 {
            if self.remaining == 0 {
                return false;
            }
            let base = self.next_base;
            let limit = base + TILE_RANKS;
            self.next_base = limit;

            // Count rows per rank over each block's (sorted) ranks.
            let mut offsets = [0usize; TILE_RANKS as usize];
            for (block, &cursor) in self.blocks.iter().zip(&self.cursors) {
                for r in (cursor..block.windows.len())
                    .map(|i| block.rank(i))
                    .take_while(|&r| r < limit)
                {
                    offsets[(r - base) as usize] += 1;
                    self.tile_len += 1;
                }
            }
            // Exclusive prefix sum: where each rank's run starts.
            let mut at = 0;
            for slot in &mut offsets {
                let rows = *slot;
                *slot = at;
                at += rows;
            }
            if self.tile.len() < self.tile_len {
                self.tile.resize(self.tile_len, FILLER);
            }
            // Scatter in canonical block order, rows in stored order: within
            // a rank that is (node, slot, window) order.
            for (block, cursor) in self.blocks.iter().zip(&mut self.cursors) {
                while *cursor < block.windows.len() {
                    let rank = block.rank(*cursor);
                    if rank >= limit {
                        break;
                    }
                    let at = &mut offsets[(rank - base) as usize];
                    self.tile[*at] = block.event(*cursor, rank);
                    *at += 1;
                    *cursor += 1;
                }
            }
            self.remaining -= self.tile_len;
        }
        true
    }
}

impl Iterator for DeliveryIter<'_> {
    type Item = WindowEvent;

    #[inline]
    fn next(&mut self) -> Option<WindowEvent> {
        if self.pos == self.tile_len && !self.refill() {
            return None;
        }
        let ev = self.tile[self.pos];
        self.pos += 1;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRID: BlockGrid = BlockGrid {
        window_s: 15.0,
        duration_s: 3600.0,
        skew_s: 0.0,
    };

    /// A GPU-channel sample of `window` on [`GRID`], delivered at `rank`.
    fn on_grid(window: u64, rank: u64) -> WindowEvent {
        let (t_s, span_s) = GRID.stamp(window, false);
        WindowEvent {
            node: 1,
            slot: 2,
            sku: 0,
            window,
            rank,
            t_s,
            span_s,
            kind: WindowKind::Sample {
                power_w: 300.0,
                job: Some(4),
            },
        }
    }

    fn narrow(events: &[WindowEvent]) -> Result<TraceBlock, PmssError> {
        TraceBlock::narrow(&ColumnBlock::from_events(1, 2, events), GRID)
    }

    #[test]
    fn narrow_rows_rebuild_the_events_they_came_from() {
        let events = [on_grid(0, 0), on_grid(2, 2), on_grid(1, 3)];
        let block = narrow(&events).expect("fits");
        assert_eq!(block.lags, [0, 0, 2]);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(block.event(i, block.rank(i)), *ev);
        }
        // An in-order block pays for no lag column at all.
        let clean = narrow(&[on_grid(0, 0), on_grid(1, 1)]).expect("fits");
        assert!(clean.lags.is_empty());
        assert_eq!(clean.column_bytes(), 2 * 17);
        assert_eq!(clean.event(1, 1), on_grid(1, 1));
    }

    #[test]
    fn rows_beyond_the_narrow_widths_are_rejected_not_truncated() {
        for events in [
            [on_grid(3, 3 + 70_000)],
            [on_grid(3, 2)],
            [on_grid(1 << 32, 1 << 32)],
        ] {
            let err = narrow(&events).expect_err("does not fit");
            assert!(matches!(err, PmssError::InvalidValue { .. }), "{err}");
        }
        // The widest lag the column holds is still exact.
        let edge = narrow(&[on_grid(3, 3 + 65_535)]).expect("fits");
        assert_eq!(edge.rank(0), 3 + 65_535);
    }

    #[test]
    fn off_grid_timestamps_are_rejected() {
        let mut late = on_grid(5, 5);
        late.t_s += 1e-9;
        let mut short = on_grid(5, 5);
        short.span_s = 14.0;
        for ev in [late, short] {
            let err = narrow(&[ev]).expect_err("off grid");
            assert!(matches!(err, PmssError::InvalidValue { .. }), "{err}");
        }
        // A row on the clean grid is off a skewed node's.
        let skewed = BlockGrid {
            skew_s: 0.25,
            ..GRID
        };
        let block = ColumnBlock::from_events(1, 2, &[on_grid(5, 5)]);
        assert!(TraceBlock::narrow(&block, skewed).is_err());
    }
}
