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
//! Each block decodes independently — a campaign store is a flat sequence
//! of encoded blocks and a replay touches only the blocks it needs —
//! and every decode path is bounded and overflow-checked: declared row
//! counts are capped by [`crate::codec::CodecConfig::max_samples`] before
//! any allocation, run lengths are checked against remaining headroom,
//! and malformed payloads return errors rather than panic.

use pmss_error::PmssError;

use crate::block::{ColumnBlock, Tag};
use crate::codec::{self, push_varint, read_varint, unzigzag, zigzag, CodecConfig};
use crate::events::REST_SLOT;

/// Integer-column magnitude bound: window indices and delivery ranks must
/// stay below 2^62 so signed deltas cannot overflow `i64` during
/// encoding.  Three months of 15 s windows is ~5×10⁵, so the bound is
/// astronomically above any real campaign.
const MAX_INDEX: u64 = 1 << 62;

/// The window grid a block's timestamps derive from: the generator's
/// `(window_s, duration_s, clock skew)` triple.  `t_s` and `span_s` are
/// pure functions of the window index on this grid, replicated bitwise by
/// [`EncodedBlock::decode`].
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
    fn n_full(&self) -> u64 {
        (self.duration_s / self.window_s).floor() as u64
    }

    /// Reconstructs `(t_s, span_s)` of window `w` exactly as the fleet
    /// generator computes them.  GPU channels stamp the window center as
    /// `w_start + 0.5 * span`; the rest-of-node channel as
    /// `0.5 * (w_start + w_end)` — algebraically equal, bitwise distinct,
    /// so the reconstruction must follow the row's channel kind.
    pub fn stamp(&self, w: u64, rest_channel: bool) -> (f64, f64) {
        let w_start = w as f64 * self.window_s;
        let w_end = if w == self.n_full() {
            self.duration_s
        } else {
            w_start + self.window_s
        };
        let span = w_end - w_start;
        let center = if rest_channel {
            0.5 * (w_start + w_end)
        } else {
            w_start + 0.5 * span
        };
        (center + self.skew_s, span)
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
        let n = block.len();
        let rest_channel = block.slot() == REST_SLOT;
        // The wire format packs the SKU into the slot byte's high nibble,
        // so only 16 node classes are representable at rest.
        if block.sku() >= 16 {
            return Err(PmssError::invalid_value(
                "block sku",
                block.sku().to_string(),
                "SKU indices below 16 (wire nibble)",
            ));
        }
        for i in 0..n {
            let w = block.windows()[i];
            let r = block.ranks()[i];
            if w >= MAX_INDEX || r >= MAX_INDEX {
                return Err(PmssError::invalid_value(
                    format!("block row [{i}]"),
                    format!("window {w}, rank {r}"),
                    "window indices and ranks below 2^62",
                ));
            }
            let (t, span) = grid.stamp(w, rest_channel);
            if t.to_bits() != block.times()[i].to_bits()
                || span.to_bits() != block.spans()[i].to_bits()
            {
                return Err(PmssError::invalid_value(
                    format!("block row [{i}]"),
                    format!("t_s {} span_s {}", block.times()[i], block.spans()[i]),
                    format!(
                        "timestamps on the declared window grid \
                         (expected t_s {t} span_s {span})"
                    ),
                ));
            }
        }

        let mut payload = Vec::with_capacity(n / 2 + 16);
        // Window indices as run-length-encoded zigzag *deltas*: a dense
        // channel is one run of delta 1, so the whole column collapses to
        // a few bytes and decode walks runs, not rows.
        let mut prev = 0i64;
        push_runs_by(&mut payload, n, |i| {
            let w = block.windows()[i] as i64;
            let d = w - prev;
            prev = w;
            zigzag(d)
        });
        // Ranks as run-length-encoded zigzag offsets from the row's
        // window: zero everywhere without reordering faults, so clean
        // channels cost four bytes total.
        push_runs_by(&mut payload, n, |i| {
            zigzag(block.ranks()[i] as i64 - block.windows()[i] as i64)
        });
        push_runs(&mut payload, block.tags(), |&t| u64::from(t));
        push_runs(&mut payload, block.jobs(), |&j| u64::from(j));
        // Non-finite value positions (ascending deltas), then the codec
        // stream over the column with those rows zeroed.
        let nan_rows: Vec<usize> = (0..n).filter(|&i| !block.values()[i].is_finite()).collect();
        push_varint(&mut payload, nan_rows.len() as u64);
        let mut prev_pos = 0u64;
        for &p in &nan_rows {
            push_varint(&mut payload, p as u64 - prev_pos);
            prev_pos = p as u64;
        }
        let finite_values: Vec<f64> = block
            .values()
            .iter()
            .map(|&v| if v.is_finite() { v } else { 0.0 })
            .collect();
        let values = codec::encode(&finite_values, cfg)?;
        payload.extend_from_slice(&values);

        Ok(EncodedBlock {
            node: block.node(),
            slot: block.slot(),
            sku: block.sku(),
            rows: n as u64,
            grid,
            payload,
        })
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
    /// (`len() == 0`), never partially filled.
    pub fn decode_into(&self, cfg: CodecConfig, out: &mut ColumnBlock) -> Result<(), PmssError> {
        out.reset(self.node, self.slot);
        let result = self.decode_columns(cfg, out);
        if result.is_err() {
            out.reset(self.node, self.slot);
        }
        result
    }

    /// Fills the (reset) `out` column by column.
    fn decode_columns(&self, cfg: CodecConfig, out: &mut ColumnBlock) -> Result<(), PmssError> {
        let malformed = |detail: &str| PmssError::malformed("column-block", detail.to_string());
        let n = usize::try_from(self.rows).map_err(|_| malformed("row count exceeds usize"))?;
        if n > cfg.max_samples {
            return Err(malformed("row count exceeds max_samples policy"));
        }
        let data = &self.payload[..];
        let mut pos = 0usize;
        let rest_channel = self.slot == REST_SLOT;
        out.sku = self.sku;

        let windows = &mut out.windows;
        windows.reserve(n);
        let mut prev = 0i64;
        while windows.len() < n {
            let delta =
                unzigzag(read_varint(data, &mut pos).ok_or_else(|| malformed("truncated window"))?);
            let run = read_varint(data, &mut pos)
                .ok_or_else(|| malformed("truncated window run"))? as usize;
            if run == 0 || run > n - windows.len() {
                return Err(malformed("window run inconsistent with row count"));
            }
            for _ in 0..run {
                prev = prev
                    .checked_add(delta)
                    .ok_or_else(|| malformed("window delta overflow"))?;
                if prev < 0 || prev as u64 >= MAX_INDEX {
                    return Err(malformed("window index out of range"));
                }
                windows.push(prev as u64);
            }
        }
        let ranks = &mut out.ranks;
        ranks.reserve(n);
        while ranks.len() < n {
            let off =
                unzigzag(read_varint(data, &mut pos).ok_or_else(|| malformed("truncated rank"))?);
            let run = read_varint(data, &mut pos).ok_or_else(|| malformed("truncated rank run"))?
                as usize;
            if run == 0 || run > n - ranks.len() {
                return Err(malformed("rank run inconsistent with row count"));
            }
            for _ in 0..run {
                let r = (windows[ranks.len()] as i64)
                    .checked_add(off)
                    .ok_or_else(|| malformed("rank offset overflow"))?;
                if r < 0 || r as u64 >= MAX_INDEX {
                    return Err(malformed("rank out of range"));
                }
                ranks.push(r as u64);
            }
        }
        read_runs(data, &mut pos, n, &malformed, "tag", &mut out.tags, |t| {
            u8::try_from(t).ok().filter(|&b| Tag::from_u8(b).is_some())
        })?;
        read_runs(data, &mut pos, n, &malformed, "job", &mut out.jobs, |j| {
            u32::try_from(j).ok()
        })?;
        let nan_count =
            read_varint(data, &mut pos).ok_or_else(|| malformed("truncated NaN count"))? as usize;
        if nan_count > n {
            return Err(malformed("NaN count exceeds row count"));
        }
        let mut nan_rows = Vec::with_capacity(nan_count);
        let mut prev_pos = 0u64;
        for i in 0..nan_count {
            let delta =
                read_varint(data, &mut pos).ok_or_else(|| malformed("truncated NaN position"))?;
            let p = if i == 0 {
                delta
            } else {
                prev_pos
                    .checked_add(delta)
                    .ok_or_else(|| malformed("NaN position overflow"))?
            };
            if p >= n as u64 || (i > 0 && delta == 0) {
                return Err(malformed("NaN position out of order or range"));
            }
            nan_rows.push(p as usize);
            prev_pos = p;
        }
        codec::decode_into(&data[pos..], cfg, &mut out.values)?;
        if out.values.len() != n {
            return Err(malformed("value column length mismatch"));
        }
        for &p in &nan_rows {
            out.values[p] = f64::NAN;
        }

        out.t_s.reserve(n);
        out.span_s.reserve(n);
        for &w in &out.windows {
            let (t, s) = self.grid.stamp(w, rest_channel);
            out.t_s.push(t);
            out.span_s.push(s);
        }
        Ok(())
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

/// Run-length encodes `n` computed row values: `(value varint, run
/// varint)` pairs over `f(0..n)`.  `f` is invoked exactly once per row,
/// in order, so it may carry running state (a delta accumulator).
fn push_runs_by(out: &mut Vec<u8>, n: usize, mut f: impl FnMut(usize) -> u64) {
    if n == 0 {
        return;
    }
    let mut v = f(0);
    let mut run = 1u64;
    for i in 1..n {
        let next = f(i);
        if next == v {
            run += 1;
        } else {
            push_varint(out, v);
            push_varint(out, run);
            v = next;
            run = 1;
        }
    }
    push_varint(out, v);
    push_varint(out, run);
}

/// Run-length encodes a column: `(value varint, run varint)` pairs.
fn push_runs<T, F: Fn(&T) -> u64>(out: &mut Vec<u8>, col: &[T], to_u64: F) {
    let mut i = 0usize;
    while i < col.len() {
        let v = to_u64(&col[i]);
        let mut run = 1usize;
        while i + run < col.len() && to_u64(&col[i + run]) == v {
            run += 1;
        }
        push_varint(out, v);
        push_varint(out, run as u64);
        i += run;
    }
}

/// Decodes a run-length column of exactly `n` entries into the (empty)
/// `out`, validating and narrowing each distinct value once per *run*
/// rather than once per row (`map` returns `None` for values the column
/// cannot hold).
fn read_runs<T: Copy>(
    data: &[u8],
    pos: &mut usize,
    n: usize,
    malformed: &impl Fn(&str) -> PmssError,
    what: &str,
    out: &mut Vec<T>,
    map: impl Fn(u64) -> Option<T>,
) -> Result<(), PmssError> {
    out.reserve(n);
    while out.len() < n {
        let v =
            read_varint(data, pos).ok_or_else(|| malformed(&format!("truncated {what} value")))?;
        let run = read_varint(data, pos)
            .ok_or_else(|| malformed(&format!("truncated {what} run")))? as usize;
        // Attacker-controlled run: compare against remaining headroom, not
        // `out.len() + run` (which can wrap) — same pattern as the codec.
        if run == 0 || run > n - out.len() {
            return Err(malformed(&format!(
                "{what} run inconsistent with row count"
            )));
        }
        let t = map(v).ok_or_else(|| malformed(&format!("{what} value out of range")))?;
        out.extend(std::iter::repeat_n(t, run));
    }
    Ok(())
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
}
