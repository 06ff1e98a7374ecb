//! Batch ↔ stream differential suite: for every preset scenario × fault
//! preset, the streaming ingest engine reproduces the batch
//! `simulate_fleet` ledger — and everything derived from it (coverage,
//! projection rows, coverage bounds) — **bit for bit**, under in-order
//! delivery, shuffled-within-horizon delivery, and sharded ingest.
//!
//! The quick scenario runs everywhere; `PMSS_STREAM_FULL=1` additionally
//! covers the medium and large presets (minutes of wall time — nightly CI
//! territory).

use pmss_core::project::{Projection, ProjectionInput};
use pmss_core::EnergyLedger;
use pmss_faults::{FaultPlan, PRESETS};
use pmss_pipeline::spec::{ScalePreset, ScenarioSpec};
use pmss_sched::{catalog, Schedule};
use pmss_stream::{StreamConfig, StreamEngine};
use pmss_telemetry::{fleet_window_blocks, simulate_fleet, FleetConfig, WindowEvent};
use pmss_workloads::{table3, Table3};

/// Asserts two f64s carry identical bit patterns (not just `==`, which
/// would let `-0.0 == 0.0` slide).
#[track_caller]
fn assert_bits(a: f64, b: f64, what: &str) {
    assert!(
        a.to_bits() == b.to_bits(),
        "{what}: {a:?} ({:#x}) != {b:?} ({:#x})",
        a.to_bits(),
        b.to_bits()
    );
}

/// Asserts ledger equality down to the bit pattern of every cell and
/// coverage counter.
#[track_caller]
fn assert_ledger_identical(a: &EnergyLedger, b: &EnergyLedger, ctx: &str) {
    // Structural equality first (catches shape mismatches with a readable
    // diff), then bitwise equality of every derived number.
    assert_eq!(a, b, "{ctx}: ledger structural mismatch");
    let (ca, cb) = (a.coverage(), b.coverage());
    assert_bits(ca.observed_s, cb.observed_s, &format!("{ctx}: observed_s"));
    assert_bits(
        ca.interpolated_s,
        cb.interpolated_s,
        &format!("{ctx}: interpolated_s"),
    );
    assert_bits(
        ca.attributed_idle_s,
        cb.attributed_idle_s,
        &format!("{ctx}: attributed_idle_s"),
    );
    assert_bits(ca.excluded_s, cb.excluded_s, &format!("{ctx}: excluded_s"));
    assert_bits(
        ca.discarded_s,
        cb.discarded_s,
        &format!("{ctx}: discarded_s"),
    );
    for (i, (ra, rb)) in a.region_totals().iter().zip(&b.region_totals()).enumerate() {
        assert_bits(ra.seconds, rb.seconds, &format!("{ctx}: region {i} s"));
        assert_bits(ra.joules, rb.joules, &format!("{ctx}: region {i} J"));
    }
}

/// Asserts projection equality bitwise, row by row.
#[track_caller]
fn assert_projection_identical(a: &Projection, b: &Projection, ctx: &str) {
    assert_eq!(a.freq_rows.len(), b.freq_rows.len(), "{ctx}: freq rows");
    assert_eq!(a.power_rows.len(), b.power_rows.len(), "{ctx}: power rows");
    for (ra, rb) in a
        .freq_rows
        .iter()
        .zip(&b.freq_rows)
        .chain(a.power_rows.iter().zip(&b.power_rows))
    {
        assert_bits(ra.ci_mwh, rb.ci_mwh, &format!("{ctx}: ci_mwh"));
        assert_bits(ra.mi_mwh, rb.mi_mwh, &format!("{ctx}: mi_mwh"));
        assert_bits(ra.ts_mwh, rb.ts_mwh, &format!("{ctx}: ts_mwh"));
        assert_bits(ra.savings_pct, rb.savings_pct, &format!("{ctx}: savings"));
        assert_bits(ra.delta_t_pct, rb.delta_t_pct, &format!("{ctx}: delta_t"));
        assert_bits(
            ra.savings_dt0_pct,
            rb.savings_dt0_pct,
            &format!("{ctx}: dt0"),
        );
    }
}

fn scenario(preset: ScalePreset, faults: &str) -> (Schedule, FleetConfig, f64) {
    let mut spec = ScenarioSpec::preset(preset);
    let plan = FaultPlan::preset(faults).expect("known preset");
    spec.faults = if plan.is_noop() { None } else { Some(plan) };
    let schedule = pmss_sched::generate(spec.trace_params(), &catalog());
    let cfg = FleetConfig {
        faults: spec.faults.clone(),
        ..FleetConfig::default()
    };
    let factor = spec.frontier_factor();
    (schedule, cfg, factor)
}

/// Streams the run's events through a fresh engine without materializing
/// the trace, returning the final ledger.
fn stream_ledger(schedule: &Schedule, cfg: &FleetConfig, stream_cfg: StreamConfig) -> EnergyLedger {
    let mut eng: StreamEngine<'_, EnergyLedger> =
        StreamEngine::new(schedule, stream_cfg).expect("valid config");
    fleet_window_blocks(schedule, cfg, |b| {
        b.iter()
            .for_each(|ev| eng.ingest(ev).expect("delivery within horizon"));
    });
    eng.finish().0
}

/// Streams the run with an extra deterministic within-horizon shuffle
/// applied per channel.  A block is one channel, so only one channel's
/// events are ever buffered — the test itself stays bounded-memory even at
/// the large preset.
fn stream_ledger_shuffled(
    schedule: &Schedule,
    cfg: &FleetConfig,
    stream_cfg: StreamConfig,
    slack: u64,
) -> EnergyLedger {
    let mut eng: StreamEngine<'_, EnergyLedger> =
        StreamEngine::new(schedule, stream_cfg).expect("valid config");
    fleet_window_blocks(schedule, cfg, |b| {
        let pending: Vec<WindowEvent> = b.iter().collect();
        for ev in shuffle_within(&pending, slack) {
            eng.ingest(ev).expect("delivery within horizon");
        }
    });
    eng.finish().0
}

/// Deterministic within-horizon shuffle: each event's sort key gets a
/// pseudo-random lag in `[0, slack]`, so no event moves more than `slack`
/// windows earlier than a same-channel predecessor — exactly what a
/// horizon of `slack + 1` absorbs.
fn shuffle_within(events: &[WindowEvent], slack: u64) -> Vec<WindowEvent> {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    let mut keyed: Vec<(u64, usize, WindowEvent)> = events
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            let lag =
                mix((ev.node as u64) << 40 ^ (ev.slot as u64) << 32 ^ ev.window) % (slack + 1);
            (ev.window + lag, i, *ev)
        })
        .collect();
    keyed.sort_by_key(|&(k, i, _)| (k, i));
    keyed.into_iter().map(|(_, _, ev)| ev).collect()
}

fn run_differential(preset: ScalePreset, faults: &str, t3: &Table3) {
    let (schedule, cfg, factor) = scenario(preset, faults);
    let ctx = format!("{}/{faults}", preset.name());

    let batch: EnergyLedger = simulate_fleet(&schedule, &cfg);

    // Arrival order (the fault plan's own reordering realized in-stream).
    let base = StreamConfig::for_plan(cfg.faults.as_ref());
    let in_order = stream_ledger(&schedule, &cfg, base);
    assert_ledger_identical(&in_order, &batch, &format!("{ctx}: arrival order"));

    // Extra shuffled-within-horizon delivery on top of the plan's.
    let slack = 6u64;
    let shuffled_cfg = StreamConfig {
        reorder_horizon: base.reorder_horizon + slack,
        ..StreamConfig::default()
    };
    let shuffled = stream_ledger_shuffled(&schedule, &cfg, shuffled_cfg, slack);
    assert_ledger_identical(&shuffled, &batch, &format!("{ctx}: shuffled"));

    // Sharded ingest.
    let sharded = stream_ledger(&schedule, &cfg, base.with_shards(3));
    assert_ledger_identical(&sharded, &batch, &format!("{ctx}: sharded"));

    // Everything derived from the ledger is identical too.
    let scaled_batch = batch.scaled(factor).expect("finite frontier factor");
    let scaled_stream = in_order.scaled(factor).expect("finite frontier factor");
    let pb = pmss_core::project(ProjectionInput::from_ledger(&scaled_batch), t3).unwrap();
    let ps = pmss_core::project(ProjectionInput::from_ledger(&scaled_stream), t3).unwrap();
    assert_projection_identical(&ps, &pb, &ctx);
    let bb = pb
        .best_free()
        .coverage_bounds_dt0(batch.coverage().fraction());
    let bs = ps
        .best_free()
        .coverage_bounds_dt0(in_order.coverage().fraction());
    assert_bits(bs.lo_pct, bb.lo_pct, &format!("{ctx}: bounds lo"));
    assert_bits(bs.hi_pct, bb.hi_pct, &format!("{ctx}: bounds hi"));
}

fn presets_under_test() -> Vec<ScalePreset> {
    if std::env::var("PMSS_STREAM_FULL").is_ok_and(|v| v == "1") {
        ScalePreset::all().to_vec()
    } else {
        vec![ScalePreset::Quick]
    }
}

#[test]
fn stream_is_bit_identical_to_batch_across_presets_and_fault_plans() {
    let t3 = table3::compute_default();
    for preset in presets_under_test() {
        for faults in PRESETS {
            run_differential(preset, faults, &t3);
        }
    }
}

#[test]
fn mid_stream_snapshots_equal_batch_over_the_ingested_prefix() {
    // A snapshot after N events equals a batch over those same windows:
    // replay the prefix through a second engine and flush it.
    let (schedule, cfg, _) = scenario(ScalePreset::Quick, "frontier-typical");
    let mut events = Vec::new();
    fleet_window_blocks(&schedule, &cfg, |b| events.extend(b.iter()));
    let base = StreamConfig::for_plan(cfg.faults.as_ref());

    let mut eng: StreamEngine<'_, EnergyLedger> = StreamEngine::new(&schedule, base).unwrap();
    let cut = events.len() / 3;
    for ev in &events[..cut] {
        eng.ingest(*ev).unwrap();
    }
    let snap = eng.snapshot();
    let mut prefix_eng: StreamEngine<'_, EnergyLedger> =
        StreamEngine::new(&schedule, base).unwrap();
    for ev in &events[..cut] {
        prefix_eng.ingest(*ev).unwrap();
    }
    let prefix = prefix_eng.finish().0;
    assert_ledger_identical(&snap, &prefix, "prefix snapshot");

    // Ingesting the rest converges on the full batch result.
    for ev in &events[cut..] {
        eng.ingest(*ev).unwrap();
    }
    let (full, _) = eng.finish();
    let batch: EnergyLedger = simulate_fleet(&schedule, &cfg);
    assert_ledger_identical(&full, &batch, "prefix + rest");
}
