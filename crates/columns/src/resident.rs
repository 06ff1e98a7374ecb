//! Codec-resident compressed block format with block-level decode.
//!
//! An [`EncodedBlock`] is one [`ColumnBlock`] at rest: the power/value
//! column compressed through the overflow-hardened [`crate::codec`]
//! (quantized deltas + run-length encoding, the paper's "huge data
//! storage" answer), the integer columns as zigzag-varint deltas, the
//! tag/job columns run-length encoded, and the timestamp/span columns not
//! stored at all — they are *derived* from the window grid
//! ([`BlockGrid`]), because the fleet generator computes them from the
//! window index in the first place.  Encoding verifies bit-exactly that
//! the block lies on its declared grid, so decode reproduces `t_s` and
//! `span_s` to the bit; the value column round-trips exactly when samples
//! sit on the codec's quantization grid (real sensors quantize at 1 W, so
//! resident telemetry is lossless end to end at that resolution).
//!
//! Encoding can take a channel a tile at a time ([`BlockEncoder`]), so a
//! capture never holds a whole channel's rows.
//!
//! Each block decodes independently — a campaign store is a flat sequence
//! of encoded blocks and a replay touches only the blocks it needs —
//! and every decode path is bounded and overflow-checked: declared row
//! counts are capped by [`crate::codec::CodecConfig::max_samples`] before
//! any allocation, run lengths are checked against remaining headroom,
//! and malformed payloads return errors rather than panic.

use pmss_error::PmssError;

use crate::block::{ColumnBlock, Tag};
use crate::codec::{
    self, push_varint, read_varint, unzigzag, zigzag, CodecConfig, SeriesEncoder, ValueRuns,
};
use crate::events::REST_SLOT;

/// Rows one [`Tiles`] step decodes: 4 096 rows × 45 B of columns ≈
/// 184 KB, a tile that stays in a core's L2 cache while it is folded.
pub const TILE_ROWS: usize = 4096;

/// Integer-column magnitude bound: window indices and delivery ranks must
/// stay below 2^62 so signed deltas cannot overflow `i64` during
/// encoding.  Three months of 15 s windows is ~5×10⁵, so the bound is
/// astronomically above any real campaign.
const MAX_INDEX: u64 = 1 << 62;

/// The window grid a block's timestamps derive from: the generator's
/// `(window_s, duration_s, clock skew)` triple.  This is the one
/// definition of the window layout — the fleet generator walks
/// [`BlockGrid::windows`] and [`BlockGrid::bounds`], and `t_s` and
/// `span_s` are pure functions of the window index on this grid,
/// reconstructed bitwise by [`EncodedBlock::decode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockGrid {
    /// Telemetry window length, seconds.
    pub window_s: f64,
    /// Campaign duration, seconds (fixes the partial tail window).
    pub duration_s: f64,
    /// The channel's clock skew, seconds (0 without faults).
    pub skew_s: f64,
}

impl BlockGrid {
    /// The grid's last window index (the partial tail).
    pub fn last_window(&self) -> u64 {
        (self.duration_s / self.window_s).floor() as u64
    }

    /// How many windows the grid holds: the whole windows, plus the
    /// partial tail averaging the rest of the duration unless it covers
    /// no more than 1 ns (the duration is a whole number of windows).
    pub fn windows(&self) -> u64 {
        let last = self.last_window();
        let (w_start, w_end) = self.bounds_on(last, last);
        last + u64::from(w_end - w_start > 1e-9)
    }

    /// `(w_start, w_end)` of window `w`, seconds: `window_s` long, except
    /// the partial tail, which ends at `duration_s`.
    #[inline]
    pub fn bounds(&self, w: u64) -> (f64, f64) {
        self.bounds_on(self.last_window(), w)
    }

    /// [`BlockGrid::bounds`] with the grid's last window index computed
    /// once by the caller rather than once per row.
    #[inline]
    fn bounds_on(&self, last: u64, w: u64) -> (f64, f64) {
        let w_start = w as f64 * self.window_s;
        let w_end = if w == last {
            self.duration_s
        } else {
            w_start + self.window_s
        };
        (w_start, w_end)
    }

    /// Reconstructs `(t_s, span_s)` of window `w` exactly as the fleet
    /// generator computes them.  GPU channels stamp the window center as
    /// `w_start + 0.5 * span`; the rest-of-node channel as
    /// `0.5 * (w_start + w_end)` — algebraically equal, bitwise distinct,
    /// so the reconstruction must follow the row's channel kind.
    pub fn stamp(&self, w: u64, rest_channel: bool) -> (f64, f64) {
        self.stamp_on(self.last_window(), w, rest_channel)
    }

    /// [`BlockGrid::stamp`] with the grid's last window index
    /// ([`BlockGrid::last_window`]) computed once by the caller.
    #[inline]
    pub fn stamp_on(&self, last: u64, w: u64, rest_channel: bool) -> (f64, f64) {
        let (w_start, w_end) = self.bounds_on(last, w);
        let span = w_end - w_start;
        let center = if rest_channel {
            0.5 * (w_start + w_end)
        } else {
            w_start + 0.5 * span
        };
        (center + self.skew_s, span)
    }
}

/// [`EncodedBlock::encode`] a tile at a time: one channel's rows pushed
/// in order, each column compressed as they come, the block put together
/// at [`BlockEncoder::finish`] — so a channel is encoded holding its
/// compressed columns, never its rows.  A row's checks and the value
/// codec's are deferred to `finish`, which reports what `encode` of the
/// whole channel reports: the SKU, then the first row off the grid or
/// past the index bound, the row count, the first value the codec
/// refuses.
#[derive(Debug)]
pub struct BlockEncoder {
    node: u32,
    slot: u8,
    /// The first row's SKU (0 while there is none, as for a block).
    sku: u8,
    grid: BlockGrid,
    rows: u64,
    prev_window: u64,
    windows: RunWriter,
    ranks: RunWriter,
    tags: RunWriter,
    jobs: RunWriter,
    /// Non-finite value positions, as ascending deltas.
    nans: u64,
    nan_rows: Vec<u8>,
    prev_nan: u64,
    values: SeriesEncoder,
    row_err: Option<PmssError>,
    value_err: Option<PmssError>,
}

impl BlockEncoder {
    /// An encoder for channel `(node, slot)` on `grid`.
    pub fn new(node: u32, slot: u8, grid: BlockGrid) -> BlockEncoder {
        BlockEncoder {
            node,
            slot,
            sku: 0,
            grid,
            rows: 0,
            prev_window: 0,
            windows: RunWriter::default(),
            ranks: RunWriter::default(),
            tags: RunWriter::default(),
            jobs: RunWriter::default(),
            nans: 0,
            nan_rows: Vec::new(),
            prev_nan: 0,
            values: SeriesEncoder::default(),
            row_err: None,
            value_err: None,
        }
    }

    /// Appends `tile`'s rows, the channel's next ones.
    pub fn push(&mut self, tile: &ColumnBlock) {
        debug_assert_eq!(tile.channel(), (self.node, self.slot));
        if self.row_err.is_some() {
            return;
        }
        if self.rows == 0 && !tile.is_empty() {
            self.sku = tile.sku();
        }
        let rest_channel = self.slot == REST_SLOT;
        for i in 0..tile.len() {
            let row = self.rows + i as u64;
            let (w, r) = (tile.windows()[i], tile.ranks()[i]);
            let (t, span) = self.grid.stamp(w, rest_channel);
            let (got_t, got_span) = (tile.times()[i], tile.spans()[i]);
            if w >= MAX_INDEX || r >= MAX_INDEX {
                self.row_err = Some(PmssError::invalid_value(
                    format!("block row [{row}]"),
                    format!("window {w}, rank {r}"),
                    "window indices and ranks below 2^62",
                ));
                return;
            }
            if t.to_bits() != got_t.to_bits() || span.to_bits() != got_span.to_bits() {
                self.row_err = Some(PmssError::invalid_value(
                    format!("block row [{row}]"),
                    format!("t_s {got_t} span_s {got_span}"),
                    format!(
                        "timestamps on the declared window grid \
                         (expected t_s {t} span_s {span})"
                    ),
                ));
                return;
            }
        }
        // Window indices as run-length-encoded zigzag *deltas*: a dense
        // channel is one run of delta 1, so the whole column collapses to
        // a few bytes and decode walks runs, not rows.  Ranks as
        // run-length-encoded zigzag offsets from the row's window: zero
        // everywhere without reordering faults.
        for &w in tile.windows() {
            self.windows
                .push(zigzag(w as i64 - self.prev_window as i64));
            self.prev_window = w;
        }
        for (&w, &r) in tile.windows().iter().zip(tile.ranks()) {
            self.ranks.push(zigzag(r as i64 - w as i64));
        }
        for &tag in tile.tags() {
            self.tags.push(u64::from(tag));
        }
        for &job in tile.jobs() {
            self.jobs.push(u64::from(job));
        }
        // Non-finite values go to the position list; the codec stream sees
        // them as 0.
        for (row, &v) in (self.rows..).zip(tile.values()) {
            let v = if v.is_finite() {
                v
            } else {
                push_varint(&mut self.nan_rows, row - self.prev_nan);
                (self.nans, self.prev_nan) = (self.nans + 1, row);
                0.0
            };
            if self.value_err.is_none() {
                self.value_err = self.values.push(v).err();
            }
        }
        self.rows += tile.len() as u64;
    }

    /// The encoded channel, or the first thing that stops it (see the
    /// type's docs).
    pub fn finish(self, cfg: CodecConfig) -> Result<EncodedBlock, PmssError> {
        // The wire format packs the SKU into the slot byte's high nibble,
        // so only 16 node classes are representable at rest.
        if self.sku >= 16 {
            return Err(PmssError::invalid_value(
                "block sku",
                self.sku.to_string(),
                "SKU indices below 16 (wire nibble)",
            ));
        }
        if let Some(e) = self.row_err {
            return Err(e);
        }
        codec::check_len(self.rows as usize, cfg)?;
        if let Some(e) = self.value_err {
            return Err(e);
        }
        let mut payload = Vec::new();
        for column in [self.windows, self.ranks, self.tags, self.jobs] {
            column.write_to(&mut payload);
        }
        push_varint(&mut payload, self.nans);
        payload.extend_from_slice(&self.nan_rows);
        self.values.write_to(&mut payload);
        Ok(EncodedBlock {
            node: self.node,
            slot: self.slot,
            sku: self.sku,
            rows: self.rows,
            grid: self.grid,
            payload,
        })
    }
}

/// A run-length section being written: `(value varint, run varint)`
/// pairs, each written when the next value differs.
#[derive(Debug, Default)]
struct RunWriter {
    out: Vec<u8>,
    value: u64,
    run: u64,
}

impl RunWriter {
    fn push(&mut self, v: u64) {
        if self.run > 0 && v == self.value {
            self.run += 1;
        } else {
            self.close();
            (self.value, self.run) = (v, 1);
        }
    }

    fn close(&mut self) {
        if self.run > 0 {
            push_varint(&mut self.out, self.value);
            push_varint(&mut self.out, self.run);
        }
    }

    /// Appends the section, its open run closed, to `payload`.
    fn write_to(mut self, payload: &mut Vec<u8>) {
        self.close();
        payload.extend_from_slice(&self.out);
    }
}

/// One compressed, self-contained channel block (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedBlock {
    node: u32,
    slot: u8,
    sku: u8,
    rows: u64,
    grid: BlockGrid,
    payload: Vec<u8>,
}

impl EncodedBlock {
    /// Compresses `block` against its window `grid`.
    ///
    /// Fails when the block does not lie bitwise on the grid (timestamps
    /// or spans that the grid cannot reproduce), when an integer column
    /// exceeds the ±2^62 delta-safety bound, or when the value column is
    /// rejected by the power codec (values beyond ±2^53 quanta).
    /// Non-finite values are representable — glitched samples are NaN by
    /// contract — via an explicit position list alongside the codec
    /// stream, which itself only ever sees finite values.
    pub fn encode(
        block: &ColumnBlock,
        grid: BlockGrid,
        cfg: CodecConfig,
    ) -> Result<EncodedBlock, PmssError> {
        let mut encoder = BlockEncoder::new(block.node(), block.slot(), grid);
        encoder.push(block);
        encoder.finish(cfg)
    }

    /// Decompresses this block back into columnar form.
    ///
    /// All bounds are enforced before allocation: the declared row count
    /// is capped by `cfg.max_samples`, runs are checked against remaining
    /// headroom, and the embedded codec stream performs its own
    /// overflow-hardened validation.
    pub fn decode(&self, cfg: CodecConfig) -> Result<ColumnBlock, PmssError> {
        let mut block = ColumnBlock::default();
        self.decode_into(cfg, &mut block)?;
        Ok(block)
    }

    /// [`EncodedBlock::decode`] into a caller-owned scratch block, reusing
    /// its column allocations — the replay paths decode a whole campaign
    /// through one block.  `out` is re-targeted and cleared first, so no
    /// row of a previous decode survives; on error it is left empty
    /// (`len() == 0`), never partially filled.  It is the one-tile case of
    /// [`EncodedBlock::tiles`]: the same decoder, every row in one tile.
    pub fn decode_into(&self, cfg: CodecConfig, out: &mut ColumnBlock) -> Result<(), PmssError> {
        out.reset(self.node, self.slot);
        self.tiles_of(cfg, usize::MAX)?.next_into(out)?;
        Ok(())
    }

    /// Decodes this block [`TILE_ROWS`] rows at a time, so a consumer
    /// that folds row ranges needs a tile of scratch, not a channel.
    ///
    /// The call first walks the run headers of the window, rank, tag and
    /// job sections and the NaN position list — run counts, window and
    /// rank ranges, tag and job values — and reads the value stream's
    /// declared count, all without allocating.  So every structural error
    /// is reported here, and [`Tiles::next_into`] can fail only on a
    /// malformed value run.  Iterating every tile reaches the same
    /// `Ok`/`Err` outcome as [`EncodedBlock::decode`], and the tiles
    /// concatenate to its rows.
    pub fn tiles(&self, cfg: CodecConfig) -> Result<Tiles<'_>, PmssError> {
        self.tiles_of(cfg, TILE_ROWS)
    }

    /// [`EncodedBlock::tiles`] with `tile_rows` rows per tile (at least 1).
    fn tiles_of(&self, cfg: CodecConfig, tile_rows: usize) -> Result<Tiles<'_>, PmssError> {
        let n = usize::try_from(self.rows).map_err(|_| malformed("row count exceeds usize"))?;
        if n > cfg.max_samples {
            return Err(malformed("row count exceeds max_samples policy"));
        }
        let data = &self.payload[..];
        let index_ok = |v: i128| (0..i128::from(MAX_INDEX)).contains(&v);

        // Window deltas: a run continues an arithmetic sequence, so its
        // first and last rows bound every row in it.
        let windows = Runs::new(0, n);
        let mut cur = windows;
        let mut last = 0i128;
        while cur.left > 0 {
            let (z, k) = cur.take(data, usize::MAX, "window")?;
            let d = i128::from(unzigzag(z));
            let end = last + d * k as i128;
            if !index_ok(last + d) || !index_ok(end) {
                return Err(malformed("window index out of range"));
            }
            last = end;
        }
        // Rank offsets from the row's window, walked beside a second pass
        // over the window runs: where both runs hold, ranks are again an
        // arithmetic sequence.
        let ranks = Runs::new(cur.pos, n);
        let (mut cur, mut win, mut last) = (ranks, windows, 0i128);
        while cur.left > 0 {
            cur.load(data, "rank")?;
            win.load(data, "window")?;
            let k = cur.run.min(win.run);
            let off = i128::from(unzigzag(cur.value));
            let d = i128::from(unzigzag(win.value));
            let end = last + d * k as i128;
            if !index_ok(last + d + off) || !index_ok(end + off) {
                return Err(malformed("rank out of range"));
            }
            last = end;
            cur.consume(k);
            win.consume(k);
        }
        let tags = Runs::new(cur.pos, n);
        let mut cur = tags;
        while cur.left > 0 {
            let (t, _) = cur.take(data, usize::MAX, "tag")?;
            if u8::try_from(t).ok().and_then(Tag::from_u8).is_none() {
                return Err(malformed("tag value out of range"));
            }
        }
        let jobs = Runs::new(cur.pos, n);
        let mut cur = jobs;
        while cur.left > 0 {
            let (j, _) = cur.take(data, usize::MAX, "job")?;
            if u32::try_from(j).is_err() {
                return Err(malformed("job value out of range"));
            }
        }
        // Non-finite rows: ascending position deltas, checked here and
        // read again as the tiles reach them.
        let mut pos = cur.pos;
        let nans =
            read_varint(data, &mut pos).ok_or_else(|| malformed("truncated NaN count"))? as usize;
        if nans > n {
            return Err(malformed("NaN count exceeds row count"));
        }
        let nan_pos = pos;
        let mut prev = 0u64;
        for i in 0..nans {
            let delta =
                read_varint(data, &mut pos).ok_or_else(|| malformed("truncated NaN position"))?;
            let p = prev
                .checked_add(delta)
                .ok_or_else(|| malformed("NaN position overflow"))?;
            if p >= n as u64 || (i > 0 && delta == 0) {
                return Err(malformed("NaN position out of order or range"));
            }
            prev = p;
        }
        let values = ValueRuns::new(&data[pos..], cfg)?;
        if values.left() != n {
            return Err(malformed("value column length mismatch"));
        }
        let mut tiles = Tiles {
            block: self,
            tile_rows: tile_rows.max(1),
            last_window: self.grid.last_window(),
            windows,
            window: 0,
            ranks,
            tags,
            jobs,
            values,
            value: 0.0,
            value_run: 0,
            nan_pos,
            nans_left: nans,
            next_nan: 0,
            row: 0,
        };
        tiles.next_nan = tiles.read_nan();
        Ok(tiles)
    }

    /// Number of window rows the block decodes to.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Compressed payload size, bytes (excluding the fixed header).
    pub fn payload_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Serializes the block for the wire: a fixed little-endian header
    /// (node, slot, row count, grid) followed by the compressed payload.
    /// The frame carries no length of its own — the transport's framing
    /// delimits it.  The slot byte's low nibble is the channel slot
    /// (`0..=4`) and its high nibble the SKU index, so homogeneous fleets
    /// (SKU 0) produce byte-identical frames to the pre-SKU format and
    /// old frames decode as SKU 0.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(WIRE_HEADER + self.payload.len());
        out.extend_from_slice(&self.node.to_le_bytes());
        out.push(self.slot | (self.sku << 4));
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&self.grid.window_s.to_le_bytes());
        out.extend_from_slice(&self.grid.duration_s.to_le_bytes());
        out.extend_from_slice(&self.grid.skew_s.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Deserializes a wire frame produced by [`EncodedBlock::to_bytes`].
    ///
    /// Validates the frame's structure — header length and a sane window
    /// grid (finite, positive window length) — so a hostile frame cannot
    /// smuggle NaN/infinite grids into downstream arithmetic.  The
    /// payload itself is validated by [`EncodedBlock::decode`], which
    /// bounds every allocation.
    pub fn from_bytes(data: &[u8]) -> Result<EncodedBlock, PmssError> {
        let malformed = |detail: &str| PmssError::malformed("encoded-block", detail.to_string());
        if data.len() < WIRE_HEADER {
            return Err(malformed("frame shorter than the fixed header"));
        }
        let le8 = |at: usize| -> [u8; 8] { data[at..at + 8].try_into().expect("8-byte slice") };
        let node = u32::from_le_bytes(data[0..4].try_into().expect("4-byte slice"));
        let slot = data[4] & 0x0f;
        let sku = data[4] >> 4;
        let rows = u64::from_le_bytes(le8(5));
        let grid = BlockGrid {
            window_s: f64::from_le_bytes(le8(13)),
            duration_s: f64::from_le_bytes(le8(21)),
            skew_s: f64::from_le_bytes(le8(29)),
        };
        if !(grid.window_s.is_finite() && grid.window_s > 0.0) {
            return Err(malformed("window grid length not finite positive"));
        }
        if !(grid.duration_s.is_finite() && grid.duration_s >= 0.0) {
            return Err(malformed("grid duration not finite non-negative"));
        }
        if !grid.skew_s.is_finite() {
            return Err(malformed("grid skew not finite"));
        }
        Ok(EncodedBlock {
            node,
            slot,
            sku,
            rows,
            grid,
            payload: data[WIRE_HEADER..].to_vec(),
        })
    }
}

/// Wire-header size of [`EncodedBlock::to_bytes`]: node (4) + slot (1) +
/// rows (8) + grid (3 × 8).
const WIRE_HEADER: usize = 37;

fn malformed(detail: &str) -> PmssError {
    PmssError::malformed("column-block", detail.to_string())
}

/// A cursor over one run-length section of a block payload — `(value
/// varint, run varint)` pairs covering the block's rows — that hands the
/// rows out a few at a time.
#[derive(Debug, Clone, Copy)]
struct Runs {
    /// Byte offset of the next pair.
    pos: usize,
    /// Rows of the section not yet taken.
    left: usize,
    /// The current run's value.
    value: u64,
    /// Rows of the current run not yet taken.
    run: usize,
}

impl Runs {
    fn new(pos: usize, rows: usize) -> Runs {
        Runs {
            pos,
            left: rows,
            value: 0,
            run: 0,
        }
    }

    /// Reads the next pair once the current run is spent.  Call only
    /// while rows are left.
    #[inline]
    fn load(&mut self, data: &[u8], what: &str) -> Result<(), PmssError> {
        if self.run == 0 {
            self.value = read_varint(data, &mut self.pos)
                .ok_or_else(|| malformed(&format!("truncated {what} value")))?;
            let run = read_varint(data, &mut self.pos)
                .ok_or_else(|| malformed(&format!("truncated {what} run")))?
                as usize;
            // Attacker-controlled run: compare against remaining headroom,
            // never `taken + run` (which can wrap) — same pattern as the
            // codec.
            if run == 0 || run > self.left {
                return Err(malformed(&format!(
                    "{what} run inconsistent with row count"
                )));
            }
            self.run = run;
        }
        Ok(())
    }

    fn consume(&mut self, k: usize) {
        self.run -= k;
        self.left -= k;
    }

    /// Up to `max` rows of the current run: its value and the rows taken
    /// (at least 1).  Call only while rows are left.
    #[inline]
    fn take(&mut self, data: &[u8], max: usize, what: &str) -> Result<(u64, usize), PmssError> {
        self.load(data, what)?;
        let k = self.run.min(max);
        self.consume(k);
        Ok((self.value, k))
    }
}

/// A block whose run headers have been checked, decoded a tile at a time
/// (see [`EncodedBlock::tiles`]).
#[derive(Debug)]
pub struct Tiles<'a> {
    block: &'a EncodedBlock,
    tile_rows: usize,
    /// The grid's last window index, computed once per block.
    last_window: u64,
    windows: Runs,
    /// The last window index handed out.
    window: i64,
    ranks: Runs,
    tags: Runs,
    jobs: Runs,
    values: ValueRuns<'a>,
    /// The current value run and its rows not yet handed out.
    value: f64,
    value_run: usize,
    /// Byte offset of the next NaN position delta, and the positions not
    /// yet read.
    nan_pos: usize,
    nans_left: usize,
    /// The next non-finite row (`usize::MAX` past the last).
    next_nan: usize,
    /// Rows handed out so far.
    row: usize,
}

impl Tiles<'_> {
    /// Decodes the next tile into `out`, re-targeted and cleared first as
    /// by [`EncodedBlock::decode_into`]: `Ok(true)` with the next rows (at
    /// most a tile), `Ok(false)` with none once every row is handed out.
    /// A malformed value run fails the tile that reaches it, and `out`
    /// comes back empty.
    pub fn next_into(&mut self, out: &mut ColumnBlock) -> Result<bool, PmssError> {
        let (node, slot) = (self.block.node, self.block.slot);
        out.reset(node, slot);
        out.sku = self.block.sku;
        let result = self.fill(out);
        if result.is_err() {
            out.reset(node, slot);
        }
        result
    }

    /// Fills the (reset) `out` with the next tile, run by run.
    fn fill(&mut self, out: &mut ColumnBlock) -> Result<bool, PmssError> {
        let k = self.windows.left.min(self.tile_rows);
        if k == 0 {
            return Ok(false);
        }
        let data = &self.block.payload[..];
        out.windows.reserve(k);
        out.ranks.reserve(k);
        out.tags.reserve(k);
        out.jobs.reserve(k);
        out.values.reserve(k);
        out.t_s.reserve(k);
        out.span_s.reserve(k);

        // The walk bounded every window and rank, so the arithmetic
        // below stays inside ±2^62.
        while out.windows.len() < k {
            let (z, m) = self.windows.take(data, k - out.windows.len(), "window")?;
            let (d, w0) = (unzigzag(z), self.window);
            out.windows
                .extend((1..=m as i64).map(|j| (w0 + d * j) as u64));
            self.window = w0 + d * m as i64;
        }
        while out.ranks.len() < k {
            let at = out.ranks.len();
            let (z, m) = self.ranks.take(data, k - at, "rank")?;
            let off = unzigzag(z);
            out.ranks.extend(
                out.windows[at..at + m]
                    .iter()
                    .map(|&w| (w as i64 + off) as u64),
            );
        }
        while out.tags.len() < k {
            let (t, m) = self.tags.take(data, k - out.tags.len(), "tag")?;
            out.tags.extend(std::iter::repeat_n(t as u8, m));
        }
        while out.jobs.len() < k {
            let (j, m) = self.jobs.take(data, k - out.jobs.len(), "job")?;
            out.jobs.extend(std::iter::repeat_n(j as u32, m));
        }
        while out.values.len() < k {
            if self.value_run == 0 {
                (self.value, self.value_run) = self.values.next_run()?;
            }
            let m = self.value_run.min(k - out.values.len());
            out.values.extend(std::iter::repeat_n(self.value, m));
            self.value_run -= m;
        }
        let end = self.row + k;
        while self.next_nan < end {
            out.values[self.next_nan - self.row] = f64::NAN;
            self.next_nan = self.read_nan();
        }
        let (grid, last) = (&self.block.grid, self.last_window);
        let rest_channel = self.block.slot == REST_SLOT;
        for &w in &out.windows {
            let (t, s) = grid.stamp_on(last, w, rest_channel);
            out.t_s.push(t);
            out.span_s.push(s);
        }
        self.row = end;
        Ok(true)
    }

    /// The next non-finite row after `next_nan` (`usize::MAX` past the
    /// last); the walk already checked every position.
    fn read_nan(&mut self) -> usize {
        if self.nans_left == 0 {
            return usize::MAX;
        }
        self.nans_left -= 1;
        let delta = read_varint(&self.block.payload, &mut self.nan_pos);
        delta.map_or(usize::MAX, |d| self.next_nan + d as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{WindowEvent, WindowKind};
    use crate::observer::GapFill;

    fn grid() -> BlockGrid {
        BlockGrid {
            window_s: 15.0,
            duration_s: 3600.0,
            skew_s: 0.0,
        }
    }

    fn gpu_event(w: u64, rank: u64, kind: WindowKind) -> WindowEvent {
        let g = grid();
        let (t_s, span_s) = g.stamp(w, false);
        WindowEvent {
            node: 2,
            slot: 1,
            sku: 0,
            window: w,
            rank,
            t_s,
            span_s,
            kind,
        }
    }

    /// The block encoder fed a channel in tiles, split anywhere, is
    /// `encode` of the whole channel: the same block, or the same error —
    /// a row off the grid after a refused value still reports the row.
    #[test]
    fn tiled_encoding_is_encoding_the_whole_block() {
        let sample = |power_w: f64, job| WindowKind::Sample { power_w, job };
        let mut events: Vec<WindowEvent> = (0..100)
            .map(|w| {
                let power_w = match w % 9 {
                    0 => f64::NAN,
                    1 | 2 => 380.0,
                    _ => 89.0 + (w / 10) as f64,
                };
                gpu_event(
                    w,
                    w + (w % 4 == 1) as u64,
                    sample(power_w, Some(w as usize / 30)),
                )
            })
            .collect();
        events[40].kind = WindowKind::Gap {
            fill: GapFill::Excluded,
            job: None,
        };
        let mut refused = events.clone();
        refused[20].kind = sample(1e300, None);
        let mut off_grid = refused.clone();
        off_grid[70].t_s += 1.0;
        let mut huge = events.clone();
        huge[90] = gpu_event(1 << 62, 1 << 62, sample(89.0, None));
        let cfg = CodecConfig::default();
        // Each case and what its error names, if it fails.
        for (what, events, error) in [
            ("clean", events, None),
            ("refused", refused, Some("power sample [20]")),
            ("off grid", off_grid, Some("block row [70]")),
            ("huge", huge, Some("block row [90]")),
            ("empty", Vec::new(), None),
        ] {
            let block = ColumnBlock::from_events(2, 1, &events);
            let want = format!("{:?}", EncodedBlock::encode(&block, grid(), cfg));
            assert_eq!(want.starts_with("Err"), error.is_some(), "{what}: {want}");
            assert!(want.contains(error.unwrap_or("")), "{what}: {want}");
            for split in [1, 7, 33, 64, 100] {
                let mut encoder = BlockEncoder::new(2, 1, grid());
                for from in (0..block.len()).step_by(split) {
                    let to = (from + split).min(block.len());
                    let tile = ColumnBlock::from_events(2, 1, &events[from..to]);
                    encoder.push(&tile);
                }
                encoder.push(&ColumnBlock::new(2, 1));
                let got = format!("{:?}", encoder.finish(cfg));
                assert!(got == want, "{what}, tiles of {split}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn grid_blocks_round_trip_exactly() {
        let events: Vec<WindowEvent> = (0..240)
            .map(|w| {
                gpu_event(
                    w,
                    w,
                    WindowKind::Sample {
                        power_w: if w % 7 == 0 { 380.0 } else { 89.0 },
                        job: if w < 120 { Some(3) } else { None },
                    },
                )
            })
            .collect();
        let block = ColumnBlock::from_events(2, 1, &events);
        let enc = EncodedBlock::encode(&block, grid(), CodecConfig::default()).expect("encode");
        assert!(
            enc.payload_bytes() < events.len() * 8,
            "steady powers must compress below raw f64 ({} bytes)",
            enc.payload_bytes()
        );
        let dec = enc.decode(CodecConfig::default()).expect("decode");
        assert_eq!(dec, block);
    }

    #[test]
    fn gaps_nans_and_reorder_round_trip() {
        let mut events = vec![
            gpu_event(
                0,
                0,
                WindowKind::Sample {
                    power_w: 380.0,
                    job: Some(1),
                },
            ),
            gpu_event(
                1,
                2,
                WindowKind::Sample {
                    power_w: f64::NAN,
                    job: Some(1),
                },
            ),
            gpu_event(
                2,
                1,
                WindowKind::Gap {
                    fill: GapFill::Interpolated(380.0),
                    job: Some(1),
                },
            ),
            gpu_event(
                3,
                3,
                WindowKind::Gap {
                    fill: GapFill::Excluded,
                    job: None,
                },
            ),
            gpu_event(
                4,
                4,
                WindowKind::Gap {
                    fill: GapFill::Idle(88.0),
                    job: None,
                },
            ),
        ];
        // The tail window exercises the partial-span reconstruction.
        events.push(gpu_event(
            240,
            240,
            WindowKind::Sample {
                power_w: 89.0,
                job: None,
            },
        ));
        let block = ColumnBlock::from_events(2, 1, &events);
        let enc = EncodedBlock::encode(&block, grid(), CodecConfig::default()).expect("encode");
        let dec = enc.decode(CodecConfig::default()).expect("decode");
        // NaN != NaN, so compare rows via bit patterns.
        assert_eq!(dec.len(), block.len());
        for i in 0..block.len() {
            assert_eq!(dec.windows()[i], block.windows()[i]);
            assert_eq!(dec.ranks()[i], block.ranks()[i]);
            assert_eq!(dec.tags()[i], block.tags()[i]);
            assert_eq!(dec.jobs()[i], block.jobs()[i]);
            assert_eq!(dec.times()[i].to_bits(), block.times()[i].to_bits());
            assert_eq!(dec.spans()[i].to_bits(), block.spans()[i].to_bits());
            assert_eq!(dec.values()[i].to_bits(), block.values()[i].to_bits());
        }
    }

    #[test]
    fn rest_channel_stamps_use_the_rest_formula() {
        let g = grid();
        let (t_s, span_s) = g.stamp(5, true);
        let ev = WindowEvent {
            node: 0,
            slot: REST_SLOT,
            sku: 0,
            window: 5,
            rank: 5,
            t_s,
            span_s,
            kind: WindowKind::NodeRest { rest_w: 410.0 },
        };
        let block = ColumnBlock::from_events(0, REST_SLOT, &[ev]);
        let enc = EncodedBlock::encode(&block, g, CodecConfig::default()).expect("encode");
        assert_eq!(enc.decode(CodecConfig::default()).expect("decode"), block);
    }

    #[test]
    fn off_grid_blocks_are_rejected() {
        let mut ev = gpu_event(
            0,
            0,
            WindowKind::Sample {
                power_w: 100.0,
                job: None,
            },
        );
        ev.t_s += 1e-9;
        let block = ColumnBlock::from_events(2, 1, &[ev]);
        let err = EncodedBlock::encode(&block, grid(), CodecConfig::default()).unwrap_err();
        assert!(err.to_string().contains("grid"), "{err}");
    }

    #[test]
    fn truncated_payloads_error_instead_of_panicking() {
        let events: Vec<WindowEvent> = (0..16)
            .map(|w| {
                gpu_event(
                    w,
                    w,
                    WindowKind::Sample {
                        power_w: 380.0,
                        job: None,
                    },
                )
            })
            .collect();
        let block = ColumnBlock::from_events(2, 1, &events);
        let enc = EncodedBlock::encode(&block, grid(), CodecConfig::default()).expect("encode");
        for cut in 0..enc.payload.len() {
            let mut bad = enc.clone();
            bad.payload.truncate(cut);
            assert!(bad.decode(CodecConfig::default()).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn failed_decode_into_matches_decode_and_leaves_the_scratch_empty() {
        let events = |n: u64| -> Vec<WindowEvent> {
            (0..n)
                .map(|w| {
                    gpu_event(
                        w,
                        w,
                        WindowKind::Sample {
                            power_w: 380.0,
                            job: Some(1),
                        },
                    )
                })
                .collect()
        };
        let cfg = CodecConfig::default();
        let good = EncodedBlock::encode(&ColumnBlock::from_events(2, 1, &events(64)), grid(), cfg)
            .expect("encode");
        let short = EncodedBlock::encode(&ColumnBlock::from_events(2, 1, &events(16)), grid(), cfg)
            .expect("encode");
        let tight = CodecConfig { max_samples: 8 };
        // A scratch that already holds 64 good rows must come back empty
        // from every failure — no stale row, no half-filled column — with
        // the very error a fresh `decode` reports.
        let mut scratch = ColumnBlock::default();
        let mut failures = vec![(short.clone(), tight)];
        for cut in 0..short.payload.len() {
            let mut bad = short.clone();
            bad.payload.truncate(cut);
            failures.push((bad, cfg));
        }
        for (bad, bad_cfg) in failures {
            good.decode_into(cfg, &mut scratch).expect("good block");
            assert_eq!(scratch.len(), 64);
            let want = bad.decode(bad_cfg).unwrap_err().to_string();
            let got = bad
                .decode_into(bad_cfg, &mut scratch)
                .unwrap_err()
                .to_string();
            assert_eq!(got, want);
            assert_eq!(scratch.len(), 0);
            assert_eq!(scratch, ColumnBlock::new(2, 1), "every column empty");
        }
    }

    #[test]
    fn wire_frames_round_trip_and_reject_hostile_headers() {
        let events: Vec<WindowEvent> = (0..32)
            .map(|w| {
                gpu_event(
                    w,
                    w,
                    WindowKind::Sample {
                        power_w: 380.0,
                        job: Some(2),
                    },
                )
            })
            .collect();
        let block = ColumnBlock::from_events(2, 1, &events);
        let enc = EncodedBlock::encode(&block, grid(), CodecConfig::default()).expect("encode");
        let wire = enc.to_bytes();
        let back = EncodedBlock::from_bytes(&wire).expect("from_bytes");
        assert_eq!(back, enc);
        assert_eq!(back.decode(CodecConfig::default()).expect("decode"), block);
        // Truncated headers and non-finite grids are structural errors.
        assert!(EncodedBlock::from_bytes(&wire[..WIRE_HEADER - 1]).is_err());
        for (at, bits) in [
            (13, f64::NAN.to_le_bytes()),          // window_s
            (13, 0.0f64.to_le_bytes()),            // window_s zero
            (21, f64::NEG_INFINITY.to_le_bytes()), // duration_s
            (29, f64::INFINITY.to_le_bytes()),     // skew_s
        ] {
            let mut bad = wire.clone();
            bad[at..at + 8].copy_from_slice(&bits);
            assert!(EncodedBlock::from_bytes(&bad).is_err(), "offset {at}");
        }
    }

    #[test]
    fn sku_rides_the_slot_nibble_and_zero_is_byte_identical() {
        let mk = |sku: u8| {
            let events: Vec<WindowEvent> = (0..8)
                .map(|w| {
                    let mut e = gpu_event(
                        w,
                        w,
                        WindowKind::Sample {
                            power_w: 380.0,
                            job: None,
                        },
                    );
                    e.sku = sku;
                    e
                })
                .collect();
            let block = ColumnBlock::from_events(2, 1, &events);
            EncodedBlock::encode(&block, grid(), CodecConfig::default()).expect("encode")
        };
        // SKU 0 frames carry a bare slot byte — the pre-SKU wire format.
        let clean = mk(0).to_bytes();
        assert_eq!(clean[4], 1);
        // Non-zero SKUs pack into the high nibble and round-trip.
        let enc = mk(3);
        let wire = enc.to_bytes();
        assert_eq!(wire[4], 1 | (3 << 4));
        let back = EncodedBlock::from_bytes(&wire).expect("from_bytes");
        assert_eq!(back.sku, 3);
        assert_eq!(back.slot, 1);
        let dec = back.decode(CodecConfig::default()).expect("decode");
        assert_eq!(dec.sku(), 3);
        assert_eq!(dec.event(0).sku, 3);
        // Catalog indices beyond the nibble are refused at encode time.
        let mut e = gpu_event(
            0,
            0,
            WindowKind::Sample {
                power_w: 100.0,
                job: None,
            },
        );
        e.sku = 16;
        let block = ColumnBlock::from_events(2, 1, &[e]);
        assert!(EncodedBlock::encode(&block, grid(), CodecConfig::default()).is_err());
    }

    #[test]
    fn row_count_is_bounded_by_policy_before_allocating() {
        let cfg = CodecConfig { max_samples: 8 };
        let events: Vec<WindowEvent> = (0..16)
            .map(|w| {
                gpu_event(
                    w,
                    w,
                    WindowKind::Sample {
                        power_w: 380.0,
                        job: None,
                    },
                )
            })
            .collect();
        let block = ColumnBlock::from_events(2, 1, &events);
        let enc = EncodedBlock::encode(&block, grid(), CodecConfig::default()).expect("encode");
        let err = enc.decode(cfg).unwrap_err();
        assert!(err.to_string().contains("max_samples"), "{err}");
    }

    /// A synthetic channel of `n` rows on a long grid: NaN glitches, every
    /// gap fill, duplicate deliveries, reordered ranks and a partial tail
    /// window, on a node class `sku` — the shapes a tile boundary can cut.
    fn mixed_block(n: u64, slot: u8, sku: u8) -> (ColumnBlock, BlockGrid) {
        let grid = BlockGrid {
            window_s: 15.0,
            duration_s: 15.0 * n as f64 - 4.0,
            skew_s: 0.25,
        };
        let rest = slot == REST_SLOT;
        let mut events = Vec::new();
        let mut w = 0u64;
        while (events.len() as u64) < n {
            let (t_s, span_s) = grid.stamp(w, rest);
            let job = (w % 11 < 6).then_some((w / 97) as usize);
            let kind = if rest {
                WindowKind::NodeRest {
                    rest_w: if w % 29 == 3 {
                        f64::NAN
                    } else {
                        (400 + w % 13) as f64
                    },
                }
            } else {
                match w % 23 {
                    4 => WindowKind::Sample {
                        power_w: f64::NAN,
                        job,
                    },
                    7 => WindowKind::Gap {
                        fill: GapFill::Excluded,
                        job,
                    },
                    9 => WindowKind::Gap {
                        fill: GapFill::Interpolated(433.0),
                        job,
                    },
                    15 => WindowKind::Gap {
                        fill: GapFill::Idle(88.0),
                        job: None,
                    },
                    _ => WindowKind::Sample {
                        power_w: if (w / 40).is_multiple_of(3) {
                            380.0
                        } else {
                            (90 + w % 7) as f64
                        },
                        job,
                    },
                }
            };
            // Every 50th window swaps ranks with its successor.
            let rank = match w % 50 {
                10 => w + 1,
                11 => w - 1,
                _ => w,
            };
            let ev = WindowEvent {
                node: 5,
                slot,
                sku,
                window: w,
                rank,
                t_s,
                span_s,
                kind,
            };
            events.push(ev);
            if w % 101 == 1 {
                events.push(ev);
            }
            w += 1;
        }
        events.truncate(n as usize);
        (ColumnBlock::from_events(5, slot, &events), grid)
    }

    /// Every tile of `enc` at `tile` rows, appended into one block, or the
    /// first error.  Checks on the way that no tile holds more than
    /// `tile` rows or allocates past one tile of columns.
    fn concat_tiles(
        enc: &EncodedBlock,
        cfg: CodecConfig,
        tile: usize,
    ) -> Result<ColumnBlock, PmssError> {
        let mut all = ColumnBlock::new(enc.node, enc.slot);
        let mut scratch = ColumnBlock::default();
        let mut tiles = enc.tiles_of(cfg, tile)?;
        while tiles.next_into(&mut scratch)? {
            assert!((1..=tile).contains(&scratch.len()));
            assert!(scratch.column_bytes() <= 45 * tile.max(8), "one tile");
            assert_eq!(scratch.channel(), (enc.node, enc.slot));
            all.sku = scratch.sku;
            all.windows.extend_from_slice(&scratch.windows);
            all.ranks.extend_from_slice(&scratch.ranks);
            all.t_s.extend_from_slice(&scratch.t_s);
            all.span_s.extend_from_slice(&scratch.span_s);
            all.tags.extend_from_slice(&scratch.tags);
            all.values.extend_from_slice(&scratch.values);
            all.jobs.extend_from_slice(&scratch.jobs);
        }
        assert!(scratch.is_empty(), "the last call hands out no rows");
        all.sku = enc.sku;
        Ok(all)
    }

    /// Bitwise block equality (NaN values compare by bits).
    fn same_bits(a: &ColumnBlock, b: &ColumnBlock) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        a.channel() == b.channel()
            && a.sku() == b.sku()
            && a.windows == b.windows
            && a.ranks == b.ranks
            && a.tags == b.tags
            && a.jobs == b.jobs
            && bits(&a.t_s) == bits(&b.t_s)
            && bits(&a.span_s) == bits(&b.span_s)
            && bits(&a.values) == bits(&b.values)
    }

    #[test]
    fn tiles_of_every_size_concatenate_to_decode() {
        let cfg = CodecConfig::default();
        for (n, slot, sku) in [
            (10_000, 1, 0),
            (9_000, REST_SLOT, 0),
            (5_000, 2, 3),
            (TILE_ROWS as u64, 0, 1),
            (1, 3, 0),
        ] {
            let (block, grid) = mixed_block(n, slot, sku);
            let enc = EncodedBlock::encode(&block, grid, cfg).expect("encode");
            let whole = enc.decode(cfg).expect("decode");
            assert!(same_bits(&whole, &block), "round trip");
            for tile in [1, 7, TILE_ROWS, n as usize] {
                let tiled = concat_tiles(&enc, cfg, tile).expect("tiles");
                assert!(same_bits(&tiled, &whole), "{n} rows in tiles of {tile}");
            }
        }
        // An empty block hands out no tile and decodes to its channel.
        let empty = ColumnBlock::new(5, 1);
        let enc = EncodedBlock::encode(&empty, grid(), cfg).expect("encode");
        assert!(same_bits(
            &concat_tiles(&enc, cfg, 7).expect("tiles"),
            &empty
        ));
        assert!(same_bits(&enc.decode(cfg).expect("decode"), &empty));
    }

    /// A varint's bytes, for splicing into payloads.
    fn varint(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        push_varint(&mut out, v);
        out
    }

    proptest::proptest! {
        /// Truncated, bit-flipped and run-rewritten payloads: every tile
        /// size reaches decode's outcome — the same rows or the same
        /// error — without a panic and without allocating past a tile.
        #[test]
        fn mutated_payloads_fail_alike_at_every_tile_size(
            n in 1u64..400,
            slot in 0u8..=4,
            sku in 0u8..4,
            mutation in 0u8..3,
            at in 0usize..1 << 16,
            bit in 0u8..8,
            big in proptest::prelude::prop::collection::vec(0u64..1 << 26, 1..2),
        ) {
            let cfg = CodecConfig::default();
            let (block, grid) = mixed_block(n, slot, sku);
            let mut enc = EncodedBlock::encode(&block, grid, cfg).expect("encode");
            let len = enc.payload.len();
            let at = at % len;
            match mutation {
                0 => enc.payload.truncate(at),
                1 => enc.payload[at] ^= 1 << bit,
                _ => {
                    // Rewrite the varint starting at `at` (a run length
                    // when it lands on one) with another value.
                    let mut end = at;
                    while end < len && enc.payload[end] & 0x80 != 0 {
                        end += 1;
                    }
                    let v = match bit % 4 {
                        0 => 0,
                        1 => n + 1,
                        2 => u64::MAX,
                        _ => big[0],
                    };
                    enc.payload.splice(at..(end + 1).min(len), varint(v));
                }
            }
            let whole = enc.decode(cfg);
            for tile in [1, 7, TILE_ROWS, n as usize] {
                match (&whole, concat_tiles(&enc, cfg, tile)) {
                    (Ok(a), Ok(b)) => proptest::prop_assert!(same_bits(a, &b), "tile {}", tile),
                    (Err(a), Err(b)) => proptest::prop_assert_eq!(a.to_string(), b.to_string()),
                    (a, b) => proptest::prop_assert!(
                        false,
                        "tile {}: decode {:?} vs tiles {:?}",
                        tile,
                        a.as_ref().map(ColumnBlock::len),
                        b.map(|b| b.len())
                    ),
                }
            }
        }
    }
}
