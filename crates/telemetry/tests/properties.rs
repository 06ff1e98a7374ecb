//! Property-based tests for the telemetry substrate.

use pmss_gpu::PowerSample;
use pmss_telemetry::sampler::{aggregate, trace_energy_j};
use pmss_telemetry::PowerHistogram;
use proptest::prelude::*;

/// Varint encoding matching the codec's wire format, for composing
/// adversarial streams byte-for-byte.
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
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

/// Varint values weighted toward the extremes that uniform random bytes
/// essentially never produce: 9-10 byte maximal encodings (`u64::MAX`
/// counts and runs, `zigzag(i64::MIN)` deltas) that probe for wrapping
/// arithmetic in the decoder's bound checks and delta accumulator.
fn extreme_varint() -> impl Strategy<Value = u64> {
    (0usize..10, 0u64..=u64::MAX).prop_map(|(which, raw)| match which {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => u64::MAX - 1,
        4 => 1u64 << 63,
        5 => i64::MAX as u64,
        6 => (1u64 << 53) + 1,
        7 => (1u64 << 54) + 1, // zigzag(2^53 + 1): just past the bound
        8 => raw % 4096,
        _ => raw,
    })
}

fn arb_trace() -> impl Strategy<Value = Vec<PowerSample>> {
    prop::collection::vec(80.0..600.0f64, 1..300).prop_map(|values| {
        values
            .into_iter()
            .enumerate()
            .map(|(i, w)| PowerSample {
                t_s: (i as f64 + 0.5) * 2.0,
                power_w: w,
            })
            .collect()
    })
}

proptest! {
    /// Aggregation conserves energy when windows divide evenly, and is
    /// within one window's worth otherwise.
    #[test]
    fn aggregation_preserves_energy(trace in arb_trace()) {
        let agg = aggregate(&trace, 14.0); // 7 samples per window
        let original = trace_energy_j(&trace, 2.0);
        let aggregated: f64 = agg.iter().map(|s| s.power_w * 14.0).sum();
        // The trailing partial window is scaled up by the mean; bound the
        // discrepancy by one full window at max power.
        prop_assert!((original - aggregated).abs() <= 14.0 * 600.0);
        if trace.len().is_multiple_of(7) {
            prop_assert!((original - aggregated).abs() < 1e-6 * original.max(1.0));
        }
    }

    /// Aggregated means never exceed the input range.
    #[test]
    fn aggregation_respects_range(trace in arb_trace(), window in 4.0..60.0f64) {
        let agg = aggregate(&trace, window);
        let lo = trace.iter().map(|s| s.power_w).fold(f64::INFINITY, f64::min);
        let hi = trace.iter().map(|s| s.power_w).fold(0.0f64, f64::max);
        for s in agg {
            prop_assert!(s.power_w >= lo - 1e-9 && s.power_w <= hi + 1e-9);
        }
    }

    /// Histogram mass is conserved: density sums to 1, fractions of the
    /// full range equal 1, merge adds totals.
    #[test]
    fn histogram_mass_conservation(values in prop::collection::vec(0.0..700.0f64, 1..500)) {
        let mut h = PowerHistogram::gpu_default();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.total() as usize, values.len());
        let mass: f64 = h.density().iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        prop_assert!((h.fraction_between(0.0, 700.0) - 1.0).abs() < 1e-9);
        let mean = h.mean_w().unwrap();
        let direct = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((mean - direct).abs() < 1e-9);
    }

    /// Merging two histograms equals recording the union.
    #[test]
    fn histogram_merge_equals_union(
        a in prop::collection::vec(0.0..700.0f64, 0..200),
        b in prop::collection::vec(0.0..700.0f64, 0..200),
    ) {
        let mut ha = PowerHistogram::gpu_default();
        let mut hb = PowerHistogram::gpu_default();
        let mut hu = PowerHistogram::gpu_default();
        for &v in &a {
            ha.record(v);
            hu.record(v);
        }
        for &v in &b {
            hb.record(v);
            hu.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.counts(), hu.counts());
    }

    /// Smoothing never creates or destroys probability mass (interior).
    #[test]
    fn smoothing_conserves_interior_mass(values in prop::collection::vec(100.0..600.0f64, 10..300)) {
        let mut h = PowerHistogram::gpu_default();
        for &v in &values {
            h.record(v);
        }
        let sm = h.smoothed_density(2.0);
        let mass: f64 = sm.iter().sum();
        // Mass within 2% (edge truncation only affects bins near 0/700 W,
        // which the 100-600 W support avoids).
        prop_assert!((mass - 1.0).abs() < 0.02, "mass {mass}");
    }

    /// Codec round-trip is lossless at the quantization step for any
    /// finite wattage series.
    #[test]
    fn codec_round_trip_is_lossless(samples in prop::collection::vec(0.0..700.0f64, 0..400)) {
        use pmss_columns::codec::{decode, encode, CodecConfig, QUANTUM_W};
        let cfg = CodecConfig::default();
        let encoded = encode(&samples, cfg).unwrap();
        let decoded = decode(&encoded, cfg).unwrap();
        prop_assert_eq!(decoded.len(), samples.len());
        for (a, b) in samples.iter().zip(&decoded) {
            prop_assert!((a - b).abs() <= 0.5 * QUANTUM_W + 1e-9, "{} vs {}", a, b);
        }
    }

    /// A single non-finite sample anywhere in the series makes the encoder
    /// refuse (never saturate) and name the offending index.
    #[test]
    fn codec_rejects_non_finite_samples(
        prefix in prop::collection::vec(0.0..700.0f64, 0..20),
        which in 0..3usize,
    ) {
        use pmss_columns::codec::{encode, CodecConfig};
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which];
        let mut samples = prefix.clone();
        samples.push(bad);
        let err = encode(&samples, CodecConfig::default()).unwrap_err();
        prop_assert!(matches!(err, pmss_error::PmssError::InvalidValue { .. }), "{}", err);
        prop_assert!(err.to_string().contains(&format!("[{}]", prefix.len())), "{}", err);
    }

    /// Arbitrary bytes never panic the decoder and never make it allocate
    /// past the configured sample bound: every outcome is either a valid
    /// series within the bound or a typed error.
    #[test]
    fn codec_decode_survives_arbitrary_bytes(data in prop::collection::vec(0..=255u8, 0..64)) {
        use pmss_columns::codec::{decode, CodecConfig};
        let cfg = CodecConfig { max_samples: 4096 };
        match decode(&data, cfg) {
            Ok(series) => prop_assert!(series.len() <= cfg.max_samples),
            Err(e) => prop_assert!(e.to_string().contains("power-codec"), "{}", e),
        }
    }

    /// Structured adversarial streams — a varint count followed by
    /// (delta, run) varint pairs, all drawn from extreme values — never
    /// panic the decoder or make it allocate past the sample bound.
    /// Uniform random bytes (above) almost never produce the 9-10 byte
    /// maximal varints needed to exercise overflow in the run-bound check
    /// and delta accumulator; this strategy hits them constantly.
    #[test]
    fn codec_decode_survives_adversarial_varint_streams(
        count in extreme_varint(),
        pairs in prop::collection::vec((extreme_varint(), extreme_varint()), 0..8),
        trailing in prop::collection::vec(0..=255u8, 0..4),
    ) {
        use pmss_columns::codec::{decode, CodecConfig};
        let mut data = Vec::new();
        push_varint(&mut data, count);
        for (delta, run) in pairs {
            push_varint(&mut data, delta);
            push_varint(&mut data, run);
        }
        data.extend(trailing);
        let cfg = CodecConfig { max_samples: 4096 };
        match decode(&data, cfg) {
            Ok(series) => prop_assert!(series.len() <= cfg.max_samples),
            Err(e) => prop_assert!(e.to_string().contains("power-codec"), "{}", e),
        }
    }
}
