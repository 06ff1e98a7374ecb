//! Property-based tests for the scenario-spec JSON boundary — the place
//! untrusted numbers enter the pipeline.

use pmss_pipeline::json::Json;
use pmss_pipeline::spec::{ScalePreset, ScenarioSpec};
use proptest::prelude::*;

/// Largest integer exactly representable in a JSON number.
const MAX_EXACT: u64 = 1 << 53;

proptest! {
    /// Valid integer fields round-trip exactly: what goes into the JSON
    /// is what `from_json` reconstructs, bit for bit.
    /// (`nodes` stops at the spec's bound, ten times Frontier's 9 408.)
    #[test]
    fn integer_fields_round_trip_exactly(
        nodes in 1..=94_080usize,
        seed in 0..MAX_EXACT,
    ) {
        let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
        spec.nodes = nodes;
        spec.seed = seed;
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        prop_assert_eq!(back.nodes, nodes);
        prop_assert_eq!(back.seed, seed);
        prop_assert_eq!(back, spec);
    }

    /// Fractional counts are rejected, never truncated: before the fix
    /// `"nodes": 2.5` silently became a 2-node fleet.
    #[test]
    fn fractional_counts_are_rejected(
        whole in 1..1000u32,
        frac in 1..100u32,
        field in 0..2usize,
    ) {
        let value = whole as f64 + frac as f64 / 128.0;
        prop_assume!(value.fract() != 0.0);
        let key = ["nodes", "seed"][field];
        let j = Json::parse(&format!("{{\"{key}\": {value}}}")).unwrap();
        let err = ScenarioSpec::from_json(&j).unwrap_err();
        prop_assert!(
            matches!(err, pmss_error::PmssError::InvalidValue { .. }),
            "{}", err
        );
        prop_assert!(err.to_string().contains(key), "{}", err);
    }

    /// Negative counts are rejected, never wrapped: before the fix
    /// `"nodes": -1` cast through `as usize` into 2^64 - 1.
    #[test]
    fn negative_counts_are_rejected(
        magnitude in 1..MAX_EXACT,
        field in 0..2usize,
    ) {
        let key = ["nodes", "seed"][field];
        let j = Json::parse(&format!("{{\"{key}\": -{magnitude}}}")).unwrap();
        let err = ScenarioSpec::from_json(&j).unwrap_err();
        prop_assert!(
            matches!(err, pmss_error::PmssError::InvalidValue { .. }),
            "{}", err
        );
    }

    /// Values past 2^53 are rejected: they were never exactly
    /// representable in JSON's f64, so accepting them would silently
    /// change the seed (and thus the whole trace).
    #[test]
    fn oversized_counts_are_rejected(excess in 1.0..1e20f64, field in 0..2usize) {
        let value = MAX_EXACT as f64 + excess * 1e3;
        prop_assume!(value > MAX_EXACT as f64);
        let key = ["nodes", "seed"][field];
        let j = Json::parse(&format!("{{\"{key}\": {value:e}}}")).unwrap();
        let err = ScenarioSpec::from_json(&j).unwrap_err();
        prop_assert!(
            matches!(err, pmss_error::PmssError::InvalidValue { .. }),
            "{}", err
        );
    }
}
