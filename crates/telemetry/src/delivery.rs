//! One fleet run in *delivery* order — every event sorted by
//! `(rank, node, slot, window)`, the order a collection fabric hands
//! windows to an ingest tier and the order the `stream` and `govern`
//! artifacts replay.
//!
//! [`fleet_window_blocks`] emits each `(node, slot)` channel contiguously,
//! already stable-sorted by `(rank, window)`: ascending window (rank ==
//! window) when no plan reorders, [`ColumnBlock::sort_arrival`] otherwise,
//! duplicate deliveries being equal-key identical events.  Delivery order
//! is therefore a merge of sorted runs on a small integer key, and
//! [`DeliveryTrace::iter`] does it as a counting merge over fixed tiles of
//! ranks instead of flattening the run into a `Vec<WindowEvent>` and
//! comparison-sorting it: O(N), stable, and the same sequence.
//!
//! The trace retains the run's columns (45 B/row).  That is the floor for
//! this design: the generator draws one `StdRng` per node through slot 0's
//! whole run, then slot 1's, …, so no channel can be produced lazily by
//! rank without moving output bytes.

use pmss_sched::Schedule;

use crate::fleet::{fleet_window_blocks, FleetConfig};
use pmss_columns::{ColumnBlock, WindowEvent, WindowKind};

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

/// A fleet run's channel blocks, retained so its events can be replayed in
/// delivery order any number of times.
#[derive(Debug, Clone, Default)]
pub struct DeliveryTrace {
    /// One block per channel, in canonical `(node, slot)` emission order,
    /// each sorted by `(rank, window)`.
    blocks: Vec<ColumnBlock>,
}

impl DeliveryTrace {
    /// Runs the fleet once and keeps every channel block it emits.
    pub fn capture(schedule: &Schedule, cfg: &FleetConfig) -> Self {
        let mut blocks = Vec::new();
        fleet_window_blocks(schedule, cfg, |block| {
            debug_assert!(
                (1..block.len()).all(|i| (block.ranks()[i - 1], block.windows()[i - 1])
                    <= (block.ranks()[i], block.windows()[i])),
                "channel blocks arrive sorted by (rank, window)"
            );
            // The emitted block is the generator's scratch buffer; the
            // clone is sized to the rows it holds.
            blocks.push(block.clone());
        });
        DeliveryTrace { blocks }
    }

    /// Number of events in the run.
    // No `is_empty`: nothing asks whether a run is empty.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.blocks.iter().map(ColumnBlock::len).sum()
    }

    /// The largest delivery rank in the run (0 for an empty run).
    pub fn last_rank(&self) -> u64 {
        // Each block is rank-sorted, so its last row carries its largest.
        let last = |b: &ColumnBlock| b.ranks().last().copied();
        self.blocks.iter().filter_map(last).max().unwrap_or(0)
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
    blocks: &'a [ColumnBlock],
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

            // Count rows per rank over each block's (sorted) rank column.
            let mut offsets = [0usize; TILE_RANKS as usize];
            for (block, &cursor) in self.blocks.iter().zip(&self.cursors) {
                for &r in block.ranks()[cursor..].iter().take_while(|&&r| r < limit) {
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
                let ranks = block.ranks();
                while *cursor < ranks.len() && ranks[*cursor] < limit {
                    let at = &mut offsets[(ranks[*cursor] - base) as usize];
                    self.tile[*at] = block.event(*cursor);
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
