//! Per-channel structure-of-arrays window blocks.
//!
//! A [`ColumnBlock`] holds one `(node, slot)` channel's telemetry windows
//! as parallel columns — window index, delivery rank, timestamp, span,
//! payload tag, payload value, job attribution — instead of an array of
//! 56-byte [`WindowEvent`] structs.  Hot loops (mode binning, energy
//! accumulation, fault realization) then read contiguous same-typed lanes
//! the compiler can keep in registers or vectorize, while
//! [`ColumnBlock::event`] reconstructs the exact `WindowEvent` for any
//! row, so the block is a *representation* of the event sequence, not a
//! different stream: iterating a block yields precisely the events that
//! were pushed, in order.
//!
//! Blocks are reusable buffers: [`ColumnBlock::reset`] re-targets a block
//! at another channel without dropping its column allocations, which is
//! what lets the fleet generator and the stream engine recycle one
//! scratch block per channel instead of allocating per window.

use crate::events::{WindowEvent, WindowKind};
use crate::observer::GapFill;

/// Job-attribution sentinel for "no job" in the `jobs` column.
pub const NO_JOB: u32 = u32::MAX;

/// Payload discriminant of one block row (the `mode` column): what the
/// row's `value` means and which observer call it folds into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tag {
    /// Delivered GPU sample; `value` is window-mean power (NaN when
    /// glitched).
    Sample = 0,
    /// Excluded gap; `value` is unused (stored as 0.0).
    GapExcluded = 1,
    /// Interpolated gap; `value` is the held fill power.
    GapInterpolated = 2,
    /// Idle-attributed gap; `value` is the idle fill power.
    GapIdle = 3,
    /// Rest-of-node sample; `value` is rest-of-node power.
    NodeRest = 4,
}

impl Tag {
    /// Decodes a stored tag byte.
    pub fn from_u8(b: u8) -> Option<Tag> {
        match b {
            0 => Some(Tag::Sample),
            1 => Some(Tag::GapExcluded),
            2 => Some(Tag::GapInterpolated),
            3 => Some(Tag::GapIdle),
            4 => Some(Tag::NodeRest),
            _ => None,
        }
    }

    /// The event payload a row of this tag carries, from its `value` and
    /// `jobs` column entries ([`NO_JOB`] when unattributed) — the one
    /// tag → [`WindowKind`] translation every columnar store rebuilds
    /// events through.
    #[inline]
    pub fn kind(self, value: f64, job: u32) -> WindowKind {
        let job = match job {
            NO_JOB => None,
            j => Some(j as usize),
        };
        match self {
            Tag::Sample => WindowKind::Sample {
                power_w: value,
                job,
            },
            Tag::GapExcluded => WindowKind::Gap {
                fill: GapFill::Excluded,
                job,
            },
            Tag::GapInterpolated => WindowKind::Gap {
                fill: GapFill::Interpolated(value),
                job,
            },
            Tag::GapIdle => WindowKind::Gap {
                fill: GapFill::Idle(value),
                job,
            },
            Tag::NodeRest => WindowKind::NodeRest { rest_w: value },
        }
    }
}

/// One channel's window sequence in columnar (SoA) form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnBlock {
    node: u32,
    slot: u8,
    // The columns are crate-visible for the codec's bulk decode, which
    // fills a reset block in place; it keeps them equal-length and `tags`
    // valid [`Tag`] bytes.
    pub(crate) sku: u8,
    pub(crate) windows: Vec<u64>,
    pub(crate) ranks: Vec<u64>,
    pub(crate) t_s: Vec<f64>,
    pub(crate) span_s: Vec<f64>,
    pub(crate) tags: Vec<u8>,
    pub(crate) values: Vec<f64>,
    pub(crate) jobs: Vec<u32>,
}

impl ColumnBlock {
    /// An empty block for channel `(node, slot)`.
    pub fn new(node: u32, slot: u8) -> Self {
        ColumnBlock {
            node,
            slot,
            ..ColumnBlock::default()
        }
    }

    /// An empty block with per-column capacity for `cap` windows.
    pub fn with_capacity(node: u32, slot: u8, cap: usize) -> Self {
        ColumnBlock {
            node,
            slot,
            sku: 0,
            windows: Vec::with_capacity(cap),
            ranks: Vec::with_capacity(cap),
            t_s: Vec::with_capacity(cap),
            span_s: Vec::with_capacity(cap),
            tags: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
            jobs: Vec::with_capacity(cap),
        }
    }

    /// Clears the block and re-targets it at another channel, keeping the
    /// column allocations (the scratch-buffer reuse path).
    pub fn reset(&mut self, node: u32, slot: u8) {
        self.node = node;
        self.slot = slot;
        self.sku = 0;
        self.windows.clear();
        self.ranks.clear();
        self.t_s.clear();
        self.span_s.clear();
        self.tags.clear();
        self.values.clear();
        self.jobs.clear();
    }

    /// Builds a block from one channel's events (all must belong to
    /// `(node, slot)`; debug-asserted).
    pub fn from_events(node: u32, slot: u8, events: &[WindowEvent]) -> Self {
        let mut b = ColumnBlock::with_capacity(node, slot, events.len());
        for ev in events {
            b.push(ev);
        }
        b
    }

    /// Number of window rows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The block's node index.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The block's channel slot.
    pub fn slot(&self) -> u8 {
        self.slot
    }

    /// SKU index of the channel's node class.  A channel's rows all share
    /// one SKU; the block adopts it from the first pushed event (0 while
    /// empty, matching homogeneous fleets).
    pub fn sku(&self) -> u8 {
        self.sku
    }

    /// The `(node, slot)` channel this block belongs to.
    pub fn channel(&self) -> (u32, u8) {
        (self.node, self.slot)
    }

    /// Window-index column.
    pub fn windows(&self) -> &[u64] {
        &self.windows
    }

    /// Delivery-rank column.
    pub fn ranks(&self) -> &[u64] {
        &self.ranks
    }

    /// Timestamp column, seconds.
    pub fn times(&self) -> &[f64] {
        &self.t_s
    }

    /// Covered-span column, seconds.
    pub fn spans(&self) -> &[f64] {
        &self.span_s
    }

    /// Payload-tag column (decode with [`Tag::from_u8`]).
    pub fn tags(&self) -> &[u8] {
        &self.tags
    }

    /// Payload-value column, watts (meaning depends on the row's tag).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Job-attribution column ([`NO_JOB`] when unattributed).
    pub fn jobs(&self) -> &[u32] {
        &self.jobs
    }

    /// Appends one event (must belong to this block's channel).
    #[inline]
    pub fn push(&mut self, ev: &WindowEvent) {
        debug_assert_eq!(ev.channel(), self.channel());
        if self.windows.is_empty() {
            self.sku = ev.sku;
        } else {
            debug_assert_eq!(ev.sku, self.sku, "one SKU per channel block");
        }
        let (tag, value, job) = match ev.kind {
            WindowKind::Sample { power_w, job } => (Tag::Sample, power_w, job),
            WindowKind::Gap { fill, job } => match fill {
                GapFill::Excluded => (Tag::GapExcluded, 0.0, job),
                GapFill::Interpolated(w) => (Tag::GapInterpolated, w, job),
                GapFill::Idle(w) => (Tag::GapIdle, w, job),
            },
            WindowKind::NodeRest { rest_w } => (Tag::NodeRest, rest_w, None),
        };
        self.windows.push(ev.window);
        self.ranks.push(ev.rank);
        self.t_s.push(ev.t_s);
        self.span_s.push(ev.span_s);
        self.tags.push(tag as u8);
        self.values.push(value);
        // `NO_JOB` is a sentinel, so a job index that large would be
        // indistinguishable from "unattributed" — refuse loudly rather
        // than truncate silently.
        self.jobs.push(match job {
            Some(j) => u32::try_from(j).expect("job index must fit below NO_JOB"),
            None => NO_JOB,
        });
    }

    /// Appends rows `rows` of `src` (a block of the same channel) as a
    /// run: `windows`, `span_s`, `tags`, `values` and `jobs` copied,
    /// `t_s` shifted by `skew_s`, and `ranks` (one per row) as the rows'
    /// delivery ranks.  Row for row it is what pushing each event with
    /// `t_s + skew_s` and its new rank would store — the path a fault
    /// plan's untouched rows take from a clean tile to the delivered one.
    pub fn append_rows(
        &mut self,
        src: &ColumnBlock,
        rows: std::ops::Range<usize>,
        skew_s: f64,
        ranks: &[u64],
    ) {
        debug_assert_eq!(src.channel(), self.channel());
        debug_assert_eq!(ranks.len(), rows.len());
        if rows.is_empty() {
            return;
        }
        if self.windows.is_empty() {
            self.sku = src.sku;
        } else {
            debug_assert_eq!(src.sku, self.sku, "one SKU per channel block");
        }
        self.windows.extend_from_slice(&src.windows[rows.clone()]);
        self.ranks.extend_from_slice(ranks);
        self.t_s
            .extend(src.t_s[rows.clone()].iter().map(|&t| t + skew_s));
        self.span_s.extend_from_slice(&src.span_s[rows.clone()]);
        self.tags.extend_from_slice(&src.tags[rows.clone()]);
        self.values.extend_from_slice(&src.values[rows.clone()]);
        self.jobs.extend_from_slice(&src.jobs[rows]);
    }

    /// Reconstructs row `i` as a [`WindowEvent`].
    #[inline]
    pub fn event(&self, i: usize) -> WindowEvent {
        let tag = Tag::from_u8(self.tags[i]).expect("valid stored tag");
        WindowEvent {
            node: self.node,
            slot: self.slot,
            sku: self.sku,
            window: self.windows[i],
            rank: self.ranks[i],
            t_s: self.t_s[i],
            span_s: self.span_s[i],
            kind: tag.kind(self.values[i], self.jobs[i]),
        }
    }

    /// Iterates the block's rows as reconstructed events, in stored order.
    pub fn iter(&self) -> impl Iterator<Item = WindowEvent> + '_ {
        (0..self.len()).map(|i| self.event(i))
    }

    /// Stable-sorts the block into arrival order — by `(rank, window)`,
    /// duplicate deliveries (equal keys) kept adjacent in push order —
    /// realizing a fault plan's bounded reordering in the block itself.
    ///
    /// The sort is one counting pass by rank, which orders equal ranks by
    /// push order.  That is `(rank, window)` order when rows sharing a rank
    /// were pushed in ascending window order, which holds whenever all rows
    /// were, as the fleet generator pushes them.  Debug builds assert it.
    pub fn sort_arrival(&mut self) {
        let n = self.len();
        // Fast path: already in arrival order (always true without an
        // active reordering fault plan).
        if (1..n)
            .all(|i| (self.ranks[i - 1], self.windows[i - 1]) <= (self.ranks[i], self.windows[i]))
        {
            return;
        }
        let idx = arrival_order(&self.ranks);
        debug_assert!(
            idx.windows(2).all(|p| {
                let (a, b) = (p[0] as usize, p[1] as usize);
                (self.ranks[a], self.windows[a]) <= (self.ranks[b], self.windows[b])
            }),
            "rows sharing a rank must be pushed in ascending window order"
        );
        // Gathered in place: the columns keep their allocations, so a
        // scratch block sorted channel after channel does not scatter fresh
        // column buffers across the heap.
        fn gather<T: Copy>(col: &mut [T], idx: &[u32]) {
            let src = col.to_vec();
            for (dst, &i) in col.iter_mut().zip(idx) {
                *dst = src[i as usize];
            }
        }
        gather(&mut self.windows, &idx);
        gather(&mut self.ranks, &idx);
        gather(&mut self.t_s, &idx);
        gather(&mut self.span_s, &idx);
        gather(&mut self.tags, &idx);
        gather(&mut self.values, &idx);
        gather(&mut self.jobs, &idx);
    }

    /// Approximate heap footprint of the block's columns, bytes.
    pub fn column_bytes(&self) -> usize {
        // Per row: u64 + u64 + f64 + f64 + u8 + f64 + u32 = 45 bytes of
        // payload; capacities count because the buffers are retained.
        self.windows.capacity() * 8
            + self.ranks.capacity() * 8
            + self.t_s.capacity() * 8
            + self.span_s.capacity() * 8
            + self.tags.capacity()
            + self.values.capacity() * 8
            + self.jobs.capacity() * 4
    }
}

/// The indices of `ranks` ordered by rank, equal ranks in index order: a
/// stable counting pass, one count per rank between the least and the
/// greatest, so O(rows + rank span) without a comparison.  A fault plan
/// delivers window `w` at a rank in `[w, w + depth]`, so a channel's rank
/// span is at most its window span plus the reorder depth.
fn arrival_order(ranks: &[u64]) -> Vec<u32> {
    let (Some(&lo), Some(&hi)) = (ranks.iter().min(), ranks.iter().max()) else {
        return Vec::new();
    };
    let span = usize::try_from(hi - lo).expect("rank span fits in memory") + 1;
    // Per rank: first its row count, then the next output position.
    let mut at = vec![0u32; span];
    for &r in ranks {
        at[(r - lo) as usize] += 1;
    }
    let mut next = 0u32;
    for c in at.iter_mut() {
        (*c, next) = (next, next + *c);
    }
    let mut order = vec![0u32; ranks.len()];
    for (i, &r) in ranks.iter().enumerate() {
        let slot = &mut at[(r - lo) as usize];
        order[*slot as usize] = u32::try_from(i).expect("block row count fits u32");
        *slot += 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(window: u64, rank: u64, kind: WindowKind) -> WindowEvent {
        WindowEvent {
            node: 3,
            slot: 1,
            sku: 0,
            window,
            rank,
            t_s: window as f64 * 15.0 + 7.5,
            span_s: 15.0,
            kind,
        }
    }

    #[test]
    fn push_then_event_round_trips_every_kind() {
        let events = [
            ev(
                0,
                0,
                WindowKind::Sample {
                    power_w: 312.5,
                    job: Some(7),
                },
            ),
            ev(
                1,
                1,
                WindowKind::Sample {
                    power_w: 10.0,
                    job: None,
                },
            ),
            ev(
                2,
                2,
                WindowKind::Gap {
                    fill: GapFill::Excluded,
                    job: Some(7),
                },
            ),
            ev(
                3,
                3,
                WindowKind::Gap {
                    fill: GapFill::Interpolated(250.0),
                    job: None,
                },
            ),
            ev(
                4,
                4,
                WindowKind::Gap {
                    fill: GapFill::Idle(88.0),
                    job: None,
                },
            ),
        ];
        let b = ColumnBlock::from_events(3, 1, &events);
        assert_eq!(b.len(), events.len());
        for (i, e) in events.iter().enumerate() {
            assert_eq!(b.event(i), *e);
        }
        assert_eq!(b.iter().collect::<Vec<_>>(), events.to_vec());
    }

    #[test]
    fn rest_events_round_trip_on_the_rest_channel() {
        let e = WindowEvent {
            node: 0,
            slot: crate::events::REST_SLOT,
            sku: 0,
            window: 9,
            rank: 9,
            t_s: 142.5,
            span_s: 15.0,
            kind: WindowKind::NodeRest { rest_w: 410.0 },
        };
        let b = ColumnBlock::from_events(0, crate::events::REST_SLOT, &[e]);
        assert_eq!(b.event(0), e);
    }

    #[test]
    fn sort_arrival_is_stable_for_duplicates() {
        let mut b = ColumnBlock::new(3, 1);
        // Window 2 delivered early (rank 1), window 1 late (rank 2), and
        // window 0 duplicated at equal keys.
        b.push(&ev(
            0,
            0,
            WindowKind::Sample {
                power_w: 1.0,
                job: None,
            },
        ));
        b.push(&ev(
            0,
            0,
            WindowKind::Sample {
                power_w: 1.0,
                job: None,
            },
        ));
        b.push(&ev(
            2,
            1,
            WindowKind::Sample {
                power_w: 3.0,
                job: None,
            },
        ));
        b.push(&ev(
            1,
            2,
            WindowKind::Sample {
                power_w: 2.0,
                job: None,
            },
        ));
        b.sort_arrival();
        assert_eq!(b.windows(), &[0, 0, 2, 1]);
        assert_eq!(b.ranks(), &[0, 0, 1, 2]);
    }

    #[test]
    fn reset_keeps_capacity_and_retargets() {
        let mut b = ColumnBlock::with_capacity(0, 0, 64);
        b.push(&WindowEvent {
            node: 0,
            slot: 0,
            sku: 0,
            window: 0,
            rank: 0,
            t_s: 7.5,
            span_s: 15.0,
            kind: WindowKind::Sample {
                power_w: 100.0,
                job: None,
            },
        });
        let bytes = b.column_bytes();
        b.reset(5, 2);
        assert!(b.is_empty());
        assert_eq!(b.channel(), (5, 2));
        assert_eq!(b.column_bytes(), bytes, "reset must not shed capacity");
    }

    /// A run appended in bulk stores what pushing its rows one by one,
    /// shifted and re-ranked, does — into an empty block (adopting the
    /// SKU) and after rows already there.
    #[test]
    fn append_rows_is_pushing_the_shifted_rows() {
        let mut src = ColumnBlock::new(3, 1);
        for w in 0..6u64 {
            src.push(&WindowEvent {
                sku: 2,
                ..ev(
                    w,
                    w,
                    WindowKind::Sample {
                        power_w: w as f64 * 10.0,
                        job: (w % 2 == 0).then_some(w as usize),
                    },
                )
            });
        }
        let ranks = [9u64, 7, 8, 12, 10, 11];
        let (mut bulk, mut rows) = (ColumnBlock::new(3, 1), ColumnBlock::new(3, 1));
        for (run, skew) in [(0..2, -1.5), (2..2, 4.0), (3..6, 0.25)] {
            bulk.append_rows(&src, run.clone(), skew, &ranks[run.clone()]);
            for i in run {
                let e = src.event(i);
                rows.push(&WindowEvent {
                    rank: ranks[i],
                    t_s: e.t_s + skew,
                    ..e
                });
            }
        }
        assert_eq!(bulk.sku(), 2);
        assert_eq!(bulk, rows);
    }

    /// A channel delivered under an arbitrary reordering plan: windows
    /// `0..n` pushed in ascending order, each dropped, delivered once, or
    /// duplicated (the copies told apart by their value), at a rank up to
    /// `depth` past its window.
    fn reordered_block(n: u64, depth: u64, seed: u64) -> ColumnBlock {
        let mut b = ColumnBlock::new(3, 1);
        let mut z = seed;
        for w in 0..n {
            z = z
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x2545_f491);
            let h = z ^ (z >> 29);
            if h.is_multiple_of(10) {
                continue;
            }
            let rank = w + (h >> 8) % (depth + 1);
            let copies = if (h >> 4).is_multiple_of(5) { 2 } else { 1 };
            for copy in 0..copies {
                b.push(&ev(
                    w,
                    rank,
                    WindowKind::Sample {
                        power_w: copy as f64,
                        job: None,
                    },
                ));
            }
        }
        b
    }

    proptest::proptest! {
        /// The counting pass puts a block in the order the stable
        /// comparison sort by `(rank, window)` does, duplicates in push
        /// order, at reorder depths up to the largest a plan may declare.
        #[test]
        fn sort_arrival_matches_the_comparison_sort(
            n in 0u64..600,
            shallow in 0u64..24,
            deep in 0u64..=4096,
            pick_deep in 0u8..2,
            seed in 0u64..1 << 32,
        ) {
            let depth = if pick_deep == 1 { deep } else { shallow };
            let mut b = reordered_block(n, depth, seed);
            let mut want: Vec<WindowEvent> = b.iter().collect();
            want.sort_by_key(|e| (e.rank, e.window));
            b.sort_arrival();
            let got: Vec<WindowEvent> = b.iter().collect();
            proptest::prop_assert_eq!(got, want);
        }
    }
}
