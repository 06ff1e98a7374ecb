//! Lossless compression for power-sample series.
//!
//! The paper's discussion flags the storage problem directly: richer
//! telemetry "needs the infrastructure to support huge data storage".
//! Power series are highly compressible — workloads sit in steady phases
//! for minutes — so a delta + run-length scheme shrinks them drastically.
//! This module implements that codec (quantized deltas, zigzag varints,
//! run-length encoding of repeats) with a lossless round trip at the
//! sensor's 1 W quantization.

use pmss_error::PmssError;

/// Quantization step, watts.  1 W matches the sensor's own resolution,
/// making the codec lossless end to end.
pub const QUANTUM_W: f64 = 1.0;

/// Codec parameters.
#[derive(Debug, Clone, Copy)]
pub struct CodecConfig {
    /// Upper bound on the sample count [`decode`] (and the row count
    /// [`crate::EncodedBlock::decode`]) accepts.  Run-length encoding
    /// means an 11-byte input can *legitimately* declare billions of
    /// samples, so untrusted data must be bounded by policy, not by
    /// payload size.  The default (2^24 ≈ 16.8 M samples) is ~32× the
    /// longest real per-slot stream — three months at one sample per 15 s
    /// is ~518 k samples.  It bounds what a payload may declare, not what
    /// the declaration costs: 2^24 samples are 128 MiB as a bare value
    /// series but 720 MiB as a decoded [`crate::ColumnBlock`] (45 B per
    /// row), so a consumer that knows its channel length decodes with a
    /// tighter bound.
    pub max_samples: usize,
}

impl Default for CodecConfig {
    fn default() -> Self {
        CodecConfig {
            max_samples: 1 << 24,
        }
    }
}

/// Largest quantized magnitude the codec accepts: integers above 2^53 are
/// not exactly representable in the `f64` the decoder reconstructs, so
/// larger values would break the lossless round-trip guarantee.
const MAX_QUANTIZED: f64 = 9_007_199_254_740_992.0; // 2^53

/// Preallocation heuristic for [`decode`]: a conservative samples-per-byte
/// expansion below which the upfront reservation is trusted.  Real
/// telemetry compresses around 10–100×; anything hotter grows lazily.
const PREALLOC_SAMPLES_PER_BYTE: usize = 256;

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(crate) fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

#[inline]
pub(crate) fn read_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    // Single-byte fast path: deltas of well-behaved streams (ascending
    // windows, zero rank offsets, small quantized power steps) are almost
    // always one byte, and this is the decoder's innermost operation.
    let byte = *data.get(*pos)?;
    *pos += 1;
    if byte & 0x80 == 0 {
        return Some(u64::from(byte));
    }
    let mut v = u64::from(byte & 0x7f);
    let mut shift = 7u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Encodes a power series (watts) into bytes.
///
/// Format: varint sample count, then per distinct value a zigzag-varint
/// quantized delta followed by a varint run length.
///
/// Non-finite samples are rejected: quantizing them would saturate
/// (NaN→0, +inf→`i64::MAX`) and silently corrupt the "lossless" stream —
/// the same no-silent-NaN policy as `PowerHistogram::record`, except that
/// a codec must refuse rather than skip (skipping would change the
/// count).  So is any finite sample whose quantized magnitude exceeds
/// 2^53, past which `i64`→`f64` reconstruction stops being exact, and a
/// series longer than [`CodecConfig::max_samples`], which [`decode`]
/// under the same configuration would refuse.
pub fn encode(samples_w: &[f64], cfg: CodecConfig) -> Result<Vec<u8>, PmssError> {
    check_len(samples_w.len(), cfg)?;
    let mut series = SeriesEncoder::default();
    for &x in samples_w {
        series.push(x)?;
    }
    let mut bytes = Vec::new();
    series.write_to(&mut bytes);
    Ok(bytes)
}

/// Refuses a series longer than [`CodecConfig::max_samples`].
pub(crate) fn check_len(n: usize, cfg: CodecConfig) -> Result<(), PmssError> {
    if n > cfg.max_samples {
        return Err(PmssError::invalid_value(
            "power series length",
            n.to_string(),
            format!("at most {} samples (max_samples)", cfg.max_samples),
        ));
    }
    Ok(())
}

/// [`encode`] a sample at a time: each run of equal quantized values is
/// written when the next value differs, and the count is put in front by
/// [`SeriesEncoder::write_to`].  It holds the compressed series only.
#[derive(Debug, Default)]
pub(crate) struct SeriesEncoder {
    out: Vec<u8>,
    n: usize,
    /// The open run's quantized value and length (0 before any sample).
    q: i64,
    run: u64,
    /// The last written run's value.
    prev: i64,
}

impl SeriesEncoder {
    /// Appends the next sample, refusing it as [`encode`] does.
    pub(crate) fn push(&mut self, x: f64) -> Result<(), PmssError> {
        let q = (x / QUANTUM_W).round();
        if !x.is_finite() || q.abs() > MAX_QUANTIZED {
            return Err(PmssError::invalid_value(
                format!("power sample [{}]", self.n),
                format!("{x}"),
                format!(
                    "a finite wattage within ±2^53 quanta (the codec is \
                     lossless; this sample would quantize to {q})"
                ),
            ));
        }
        self.n += 1;
        if self.run > 0 && q as i64 == self.q {
            self.run += 1;
        } else {
            self.close();
            (self.q, self.run) = (q as i64, 1);
        }
        Ok(())
    }

    /// Writes the open run as a zigzag delta from the last one.
    fn close(&mut self) {
        if self.run > 0 {
            push_varint(&mut self.out, zigzag(self.q - self.prev));
            push_varint(&mut self.out, self.run);
            self.prev = self.q;
        }
    }

    /// Appends the encoded series to `bytes`.
    pub(crate) fn write_to(mut self, bytes: &mut Vec<u8>) {
        self.close();
        push_varint(bytes, self.n as u64);
        bytes.extend_from_slice(&self.out);
    }
}

/// Decodes a series produced by [`encode`].
///
/// Malformed input (truncated varints, zero-length runs, a run total
/// exceeding the declared count, or a delta stream whose accumulated
/// value overflows `i64` or leaves the encoder's ±2^53 range) is a
/// [`PmssError::MalformedData`], and a declared count above
/// [`CodecConfig::max_samples`] is rejected before anything is
/// allocated — an 11-byte input claiming `u64::MAX` samples must not
/// attempt a multi-exabyte reservation.  All checks use overflow-safe
/// arithmetic: no byte string panics the decoder, in debug or release.
pub fn decode(data: &[u8], cfg: CodecConfig) -> Result<Vec<f64>, PmssError> {
    let mut out = Vec::new();
    decode_runs(data, cfg, &mut out)?;
    Ok(out)
}

/// Appends the decoded series to the (empty) `out`.
fn decode_runs(data: &[u8], cfg: CodecConfig, out: &mut Vec<f64>) -> Result<(), PmssError> {
    let mut runs = ValueRuns::new(data, cfg)?;
    // Even below the policy bound, preallocate only what the remaining
    // payload could plausibly describe: each (delta, run) pair costs at
    // least two bytes, and a legitimate highly-compressed stream that
    // expands further simply grows the vec as its runs materialize.
    let plausible = data
        .len()
        .saturating_sub(runs.pos)
        .saturating_mul(PREALLOC_SAMPLES_PER_BYTE);
    out.reserve(runs.left().min(plausible));
    while runs.left() > 0 {
        let (value, run) = runs.next_run()?;
        if run == 1 {
            // Noisy series degenerate to run-of-one: skip the repeat
            // iterator machinery on the hot path.
            out.push(value);
        } else {
            out.extend(std::iter::repeat_n(value, run));
        }
    }
    Ok(())
}

/// A validating cursor over an encoded series' `(delta, run)` pairs — the
/// one place the codec's run checks live, shared by [`decode`] and the
/// resident block decoder, which expands the runs a tile at a time.
#[derive(Debug)]
pub(crate) struct ValueRuns<'a> {
    data: &'a [u8],
    pos: usize,
    /// Samples not yet handed out.
    left: usize,
    /// The quantized value of the last run.
    prev: i64,
}

impl<'a> ValueRuns<'a> {
    /// Reads the declared sample count, refusing one above
    /// `cfg.max_samples` before anything is allocated.
    pub(crate) fn new(data: &'a [u8], cfg: CodecConfig) -> Result<ValueRuns<'a>, PmssError> {
        let mut pos = 0usize;
        let count = read_varint(data, &mut pos)
            .ok_or_else(|| malformed("truncated count".into()))? as usize;
        if count > cfg.max_samples {
            return Err(malformed(format!(
                "declared sample count {count} exceeds the configured maximum \
                 {} (max_samples)",
                cfg.max_samples
            )));
        }
        Ok(ValueRuns {
            data,
            pos,
            left: count,
            prev: 0,
        })
    }

    /// Samples the stream still holds.
    pub(crate) fn left(&self) -> usize {
        self.left
    }

    /// The next run: its value, watts, and its length (at least 1, at most
    /// [`ValueRuns::left`]).  Call only while samples are left.
    #[inline]
    pub(crate) fn next_run(&mut self) -> Result<(f64, usize), PmssError> {
        let delta = unzigzag(
            read_varint(self.data, &mut self.pos)
                .ok_or_else(|| malformed("truncated delta".into()))?,
        );
        let run = read_varint(self.data, &mut self.pos)
            .ok_or_else(|| malformed("truncated run length".into()))? as usize;
        // `run` is attacker-controlled, so compare against the remaining
        // headroom rather than computing `out.len() + run`, which wraps on
        // a u64::MAX run.
        if run == 0 || run > self.left {
            return Err(malformed(
                "run length inconsistent with sample count".into(),
            ));
        }
        self.prev = self
            .prev
            .checked_add(delta)
            .ok_or_else(|| malformed("delta accumulator overflow".into()))?;
        // Mirror the encoder's ±2^53 bound: valid streams never leave it,
        // and past it `i64`→`f64` reconstruction stops being exact.
        if self.prev.unsigned_abs() > MAX_QUANTIZED as u64 {
            return Err(malformed(format!(
                "accumulated value {} exceeds ±2^53 quanta",
                self.prev
            )));
        }
        self.left -= run;
        Ok((self.prev as f64 * QUANTUM_W, run))
    }
}

fn malformed(detail: String) -> PmssError {
    PmssError::malformed("power-codec", detail)
}

/// Compression ratio (raw f64 bytes over encoded bytes) for a series.
pub fn compression_ratio(samples_w: &[f64], cfg: CodecConfig) -> Result<f64, PmssError> {
    if samples_w.is_empty() {
        return Ok(1.0);
    }
    let encoded = encode(samples_w, cfg)?.len();
    Ok((samples_w.len() * 8) as f64 / encoded as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(samples: &[f64]) {
        let cfg = CodecConfig::default();
        let encoded = encode(samples, cfg).expect("encode");
        let decoded = decode(&encoded, cfg).expect("decode");
        assert_eq!(decoded.len(), samples.len());
        for (a, b) in samples.iter().zip(&decoded) {
            assert!((a - b).abs() <= 0.5 * QUANTUM_W + 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn round_trips_assorted_series() {
        round_trip(&[]);
        round_trip(&[89.0]);
        round_trip(&[89.0, 89.0, 89.0, 380.0, 380.0, 540.0, 89.0]);
        let ramp: Vec<f64> = (0..1000).map(|i| 80.0 + (i % 500) as f64).collect();
        round_trip(&ramp);
    }

    #[test]
    fn steady_phases_compress_dramatically() {
        // A job telemetry trace: hours of near-constant power.
        let mut series = Vec::new();
        for phase_power in [380.0, 150.0, 89.0, 425.0] {
            series.extend(std::iter::repeat_n(phase_power, 2000));
        }
        let ratio = compression_ratio(&series, CodecConfig::default()).expect("ratio");
        assert!(ratio > 100.0, "ratio {ratio}");
    }

    #[test]
    fn noisy_series_still_compress() {
        use pmss_gpu::trace::standard_normal;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let series: Vec<f64> = (0..10_000)
            .map(|_| 380.0 + 1.5 * standard_normal(&mut rng))
            .collect();
        let ratio = compression_ratio(&series, CodecConfig::default()).expect("ratio");
        // Small quantized deltas encode in 2 bytes: >= 4x vs raw f64.
        assert!(ratio > 3.0, "ratio {ratio}");
    }

    #[test]
    fn malformed_input_is_rejected() {
        let cfg = CodecConfig::default();
        assert!(decode(&[0x80], cfg).is_err(), "truncated varint");
        // Claimed count larger than actual payload.
        let mut bad = Vec::new();
        push_varint(&mut bad, 100);
        push_varint(&mut bad, zigzag(89));
        push_varint(&mut bad, 1);
        let err = decode(&bad, cfg).unwrap_err();
        assert!(err.to_string().contains("power-codec"), "{err}");
    }

    #[test]
    fn encode_refuses_a_series_decode_would_refuse() {
        let cfg = CodecConfig { max_samples: 8 };
        assert!(encode(&[89.0; 8], cfg).is_ok());
        let err = encode(&[89.0; 9], cfg).unwrap_err();
        assert!(err.to_string().contains("max_samples"), "{err}");
    }

    #[test]
    fn non_finite_samples_are_rejected_not_saturated() {
        let cfg = CodecConfig::default();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = encode(&[380.0, bad, 89.0], cfg).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("power sample [1]"), "{msg}");
        }
        // A finite sample past 2^53 quanta would also round-trip lossily.
        let err = encode(&[2.0f64.powi(60)], cfg).unwrap_err();
        assert!(err.to_string().contains("power sample [0]"), "{err}");
    }

    #[test]
    fn huge_declared_count_is_rejected_before_allocating() {
        let cfg = CodecConfig::default();
        // 10-byte varint declaring u64::MAX samples: must be refused by
        // policy, not attempted as a multi-exabyte reservation.
        let mut evil = Vec::new();
        push_varint(&mut evil, u64::MAX);
        let err = decode(&evil, cfg).unwrap_err();
        assert!(err.to_string().contains("max_samples"), "{err}");

        // A count within policy but absurd for the remaining payload must
        // not be trusted for preallocation either; with no payload at all
        // the decoder fails fast on the first truncated delta.
        let mut sparse = Vec::new();
        push_varint(&mut sparse, (1u64 << 24) - 1);
        let err = decode(&sparse, cfg).unwrap_err();
        assert!(err.to_string().contains("truncated delta"), "{err}");
    }

    #[test]
    fn run_length_overflow_is_rejected_not_wrapped() {
        // With out.len() >= 1, a u64::MAX run made the old additive bound
        // check (`out.len() + run > count`) wrap to 0 in release builds,
        // pass, and then panic on a usize::MAX `repeat_n` reservation.
        let cfg = CodecConfig::default();
        let mut evil = Vec::new();
        push_varint(&mut evil, 2); // count
        push_varint(&mut evil, zigzag(89)); // first value
        push_varint(&mut evil, 1); // run of 1 -> out.len() == 1
        push_varint(&mut evil, zigzag(0));
        push_varint(&mut evil, u64::MAX); // wrapping run
        let err = decode(&evil, cfg).unwrap_err();
        assert!(err.to_string().contains("run length"), "{err}");
    }

    #[test]
    fn delta_accumulator_overflow_is_rejected_not_wrapped() {
        // zigzag(i64::MIN) == u64::MAX; two such deltas overflowed the old
        // unchecked `prev += delta` (debug panic, release silent wrap).
        // The ±2^53 magnitude bound now rejects the very first one.
        let cfg = CodecConfig::default();
        let mut evil = Vec::new();
        push_varint(&mut evil, 2); // count
        push_varint(&mut evil, u64::MAX); // delta i64::MIN
        push_varint(&mut evil, 1);
        push_varint(&mut evil, u64::MAX); // delta i64::MIN again
        push_varint(&mut evil, 1);
        let err = decode(&evil, cfg).unwrap_err();
        assert!(err.to_string().contains("2^53"), "{err}");

        // Staying within i64 but leaving ±2^53 is rejected the same way,
        // mirroring the encoder's MAX_QUANTIZED bound.
        let mut drift = Vec::new();
        push_varint(&mut drift, 2);
        push_varint(&mut drift, zigzag((1i64 << 53) + 1));
        push_varint(&mut drift, 1);
        push_varint(&mut drift, zigzag(0));
        push_varint(&mut drift, 1);
        let err = decode(&drift, cfg).unwrap_err();
        assert!(err.to_string().contains("2^53"), "{err}");
    }

    #[test]
    fn legitimate_high_ratio_streams_still_decode() {
        // One (delta, run) pair expanding far past the prealloc heuristic:
        // the vec must grow lazily rather than reject or truncate.
        let cfg = CodecConfig::default();
        let series = vec![380.0; 100_000];
        let encoded = encode(&series, cfg).expect("encode");
        assert!(encoded.len() < 16, "RLE should collapse this");
        let decoded = decode(&encoded, cfg).expect("decode");
        assert_eq!(decoded, series);
    }

    #[test]
    fn zigzag_is_a_bijection_on_small_ints() {
        for v in -1000..1000i64 {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
