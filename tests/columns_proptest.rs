//! Property tests for the columnar window-block substrate: arbitrary
//! on-grid blocks survive the compressed resident round trip bit for bit,
//! and the block-shaped fleet surface is indistinguishable — event by
//! event and fold by fold — from the legacy per-event iteration.
//!
//! Failing case seeds persist to `tests/proptest-regressions/` (see
//! `vendor/proptest`) and replay before fresh cases on every run.

use proptest::prelude::*;

use pmss::columns::{BlockGrid, CodecConfig, ColumnBlock, EncodedBlock};
use pmss::core::EnergyLedger;
use pmss::faults::{FaultPlan, GapPolicy};
use pmss::sched::{catalog, generate, Schedule, TraceParams};
use pmss::telemetry::{
    apply_event, fleet_window_blocks, simulate_fleet, FleetConfig, FleetObserver, GapFill,
    WindowEvent, WindowKind, REST_SLOT,
};

/// One generated row of a synthetic block, before grid stamping.
#[derive(Debug, Clone, Copy)]
struct RowSpec {
    window: u64,
    rank_off: i8,
    kind_pick: u8,
    watts: u16,
    job: Option<u8>,
}

/// Strategy for a synthetic block's rows: windows ascending with
/// duplicates, ranks a bounded shuffle of the window index, kinds cycling
/// through samples (including NaN glitches) and every gap fill.
fn arb_rows(n_full: u64) -> impl Strategy<Value = Vec<RowSpec>> {
    prop::collection::vec((0..=n_full, -3i8..=3, 0u8..6, 0u16..2000, 0u8..40), 1..120).prop_map(
        |mut rows| {
            rows.sort_by_key(|r| r.0);
            rows.into_iter()
                .map(|(window, rank_off, kind_pick, watts, job_raw)| RowSpec {
                    window,
                    rank_off,
                    kind_pick,
                    watts,
                    // Half the draws carry a job attribution.
                    job: (job_raw < 20).then_some(job_raw),
                })
                .collect()
        },
    )
}

/// Materializes a row spec on `grid` as a [`WindowEvent`] whose power
/// values sit on the codec's 1 W quantization grid (so the resident round
/// trip must be *exact*, not merely within half a quantum).
fn stamp_event(grid: &BlockGrid, node: u32, slot: u8, sku: u8, spec: &RowSpec) -> WindowEvent {
    let rest = slot == REST_SLOT;
    let (t_s, span_s) = {
        // Reproduce the generator's stamp through the public encode
        // contract: encode verifies these bitwise, so build them the same
        // way the fleet generator does.
        let w_start = spec.window as f64 * grid.window_s;
        let n_full = (grid.duration_s / grid.window_s).floor() as u64;
        let w_end = if spec.window == n_full {
            grid.duration_s
        } else {
            w_start + grid.window_s
        };
        let span = w_end - w_start;
        let center = if rest {
            0.5 * (w_start + w_end)
        } else {
            w_start + 0.5 * span
        };
        (center + grid.skew_s, span)
    };
    let watts = f64::from(spec.watts);
    let job = spec.job.map(usize::from);
    let kind = if rest {
        WindowKind::NodeRest { rest_w: watts }
    } else {
        match spec.kind_pick {
            0 => WindowKind::Sample {
                power_w: f64::NAN,
                job,
            },
            1 => WindowKind::Gap {
                fill: GapFill::Interpolated(watts),
                job,
            },
            2 => WindowKind::Gap {
                fill: GapFill::Excluded,
                job: None,
            },
            3 => WindowKind::Gap {
                fill: GapFill::Idle(watts),
                job: None,
            },
            _ => WindowKind::Sample {
                power_w: watts,
                job,
            },
        }
    };
    WindowEvent {
        node,
        slot,
        sku,
        window: spec.window,
        rank: spec.window.saturating_add_signed(i64::from(spec.rank_off)),
        t_s,
        span_s,
        kind,
    }
}

/// A bitwise comparison key for one event (plain `==` is false for the
/// NaN power values glitch faults produce).
fn event_key(ev: &WindowEvent) -> (u32, u8, u8, u64, u64, u64, u64, u8, u64, Option<usize>) {
    let (kind, bits, job) = match ev.kind {
        WindowKind::Sample { power_w, job } => (0u8, power_w.to_bits(), job),
        WindowKind::Gap { fill, job } => match fill {
            GapFill::Interpolated(w) => (1, w.to_bits(), job),
            GapFill::Excluded => (2, 0, job),
            GapFill::Idle(w) => (3, w.to_bits(), job),
        },
        WindowKind::NodeRest { rest_w } => (4, rest_w.to_bits(), None),
    };
    (
        ev.node,
        ev.slot,
        ev.sku,
        ev.window,
        ev.rank,
        ev.t_s.to_bits(),
        ev.span_s.to_bits(),
        kind,
        bits,
        job,
    )
}

/// Strategy for an arbitrary (not preset) fault plan.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (0.0..0.15f64, 0.0..0.15f64, 0.0..0.05f64, 0.0..0.05f64),
        (0u32..5, 0.0..400.0f64, 0.0..0.03f64, 1u32..8),
        (0.0..5.0f64, 0usize..3, 0u64..1 << 32),
    )
        .prop_map(
            |(
                (drop_prob, dup_prob, nan_prob, spike_prob),
                (reorder_depth, spike_w, dropout_prob, dropout_windows),
                (clock_skew_max_s, policy, seed),
            )| FaultPlan {
                seed,
                drop_prob,
                dup_prob,
                reorder_depth,
                nan_prob,
                spike_prob,
                spike_w,
                dropout_prob,
                dropout_windows,
                clock_skew_max_s,
                gap_policy: GapPolicy::all()[policy],
            },
        )
}

fn small_schedule(nodes: usize, hours: u64, seed: u64) -> Schedule {
    generate(
        TraceParams {
            nodes,
            duration_s: hours as f64 * 3600.0,
            seed,
            min_job_s: 900.0,
        },
        &catalog(),
    )
}

proptest! {
    /// Any on-grid block — duplicated and reordered windows, every gap
    /// fill, NaN glitches, a partial tail window, clock skew, power on
    /// the 1 W quantization grid — encodes and decodes back to the
    /// identical block, bit for bit, through the compressed resident
    /// format; and decoding a sequence of blocks through *one* shared
    /// scratch (`decode_into`) yields exactly what a fresh `decode` of
    /// each does, whatever the previous decode left behind: the sequence
    /// always includes a long block before a short one, a non-zero SKU
    /// before SKU 0, and NaN rows before none.
    #[test]
    fn on_grid_blocks_round_trip_bit_for_bit(
        (n_full, rows) in (10u64..300).prop_flat_map(|n| (Just(n), arb_rows(n))),
        other_rows in arb_rows(10),
        window_s in (0usize..3).prop_map(|i| [5.0f64, 15.0, 60.0][i]),
        tail_frac in 0.0..1.0f64,
        skew_s in -5.0..5.0f64,
        node in 0u32..64,
        (slot, other_slot) in (0u8..5, 0u8..5),
        (sku, other_sku) in (0u8..16, 0u8..16),
    ) {
        let grid = BlockGrid {
            window_s,
            duration_s: (n_full as f64 + tail_frac) * window_s,
            skew_s,
        };
        let build = |node: u32, slot: u8, sku: u8, rows: &[RowSpec]| {
            let events: Vec<WindowEvent> = rows
                .iter()
                .map(|r| stamp_event(&grid, node, slot, sku, r))
                .collect();
            ColumnBlock::from_events(node, slot, &events)
        };
        let block = build(node, slot, sku, &rows);
        let enc = EncodedBlock::encode(&block, grid, CodecConfig::default()).expect("encode");
        let dec = enc.decode(CodecConfig::default()).expect("decode");
        prop_assert_eq!(dec.len(), block.len());
        for i in 0..block.len() {
            prop_assert_eq!(event_key(&dec.event(i)), event_key(&block.event(i)));
        }

        // A short, NaN-free, SKU-0 cut of the same rows, to follow a block
        // with NaN rows, a non-zero SKU and more rows than it.
        let mut glitched = rows.clone();
        glitched[0].kind_pick = 0;
        let plain: Vec<RowSpec> = rows[..rows.len().div_ceil(4)]
            .iter()
            .map(|r| RowSpec { kind_pick: 5, ..*r })
            .collect();
        let sequence = [
            block,
            build(node + 1, other_slot, other_sku, &other_rows),
            build(node, 1, 3, &glitched),
            build(node, 0, 0, &plain),
        ];
        let mut scratch = ColumnBlock::default();
        for block in &sequence {
            let enc = EncodedBlock::encode(block, grid, CodecConfig::default()).expect("encode");
            let fresh = enc.decode(CodecConfig::default()).expect("decode");
            enc.decode_into(CodecConfig::default(), &mut scratch).expect("decode_into");
            prop_assert_eq!(scratch.channel(), fresh.channel());
            prop_assert_eq!(scratch.sku(), fresh.sku());
            prop_assert_eq!(scratch.len(), fresh.len());
            for i in 0..fresh.len() {
                prop_assert_eq!(event_key(&scratch.event(i)), event_key(&fresh.event(i)));
            }
        }
    }

    /// The block-shaped fleet surface is the per-event surface: for any
    /// fault plan, every block's columnar fold equals the per-event
    /// `apply_event` loop over the same rows bit for bit, and — when the
    /// plan does not reorder delivery (arrival order is window order, so
    /// accumulation order matches) — the channel-merged ledger equals the
    /// batch ledger bit for bit.
    #[test]
    fn block_iteration_matches_per_event_iteration(
        plan in arb_plan(),
        nodes in 1usize..4,
        hours in 1u64..3,
        trace_seed in 0u64..1 << 32,
    ) {
        let schedule = small_schedule(nodes, hours, trace_seed);
        let cfg = FleetConfig {
            faults: (!plan.is_noop()).then(|| plan.clone()),
            ..FleetConfig::default()
        };
        let mut ledger = EnergyLedger::default();
        fleet_window_blocks(&schedule, &cfg, |block| {
            let mut folded = EnergyLedger::default();
            folded.fold_block(&schedule, block);
            let mut applied = EnergyLedger::default();
            for ev in block.iter() {
                apply_event(&mut applied, &schedule, &ev);
            }
            assert_eq!(folded, applied, "columnar fold vs per-event apply");
            // One partial per channel, as every run folds.
            ledger.merge(folded);
        });

        // Under reordering faults the blocks arrive (and fold) in delivery
        // order while the batch path folds in window order, so f64
        // accumulation order — and hence low bits — legitimately differ;
        // the stream engine's reorder ring is what restores window order
        // (covered by the stream differential suites).  Without
        // reordering the two folds are the same sequence and must agree
        // bit for bit.
        let reorders = cfg.faults.as_ref().is_some_and(|p| p.reorder_depth > 0);
        if !reorders {
            let batch: EnergyLedger = simulate_fleet(&schedule, &cfg);
            prop_assert_eq!(&ledger, &batch);
        }
    }
}
