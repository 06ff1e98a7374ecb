//! Adversarial-ingest properties: arbitrary hostile events — channels the
//! schedule does not have, jobs outside the job log, windows up to
//! `u64::MAX` — and corrupted `EncodedBlock` wire payloads never panic
//! the engine, every rejection carries a typed [`StreamError`], a
//! rejected frame leaves state bit-identical, and the accepted prefix
//! folds to exactly the state a clean engine reaches over those events
//! alone.
//!
//! Failing case seeds persist to `tests/proptest-regressions/`.

use proptest::prelude::*;

use pmss_columns::{BlockGrid, CodecConfig, ColumnBlock, EncodedBlock};
use pmss_core::EnergyLedger;
use pmss_sched::{catalog, generate, Schedule, TraceParams};
use pmss_stream::{StreamConfig, StreamEngine};
use pmss_telemetry::{fleet_window_blocks, FleetConfig, WindowEvent, WindowKind};

fn small_schedule(seed: u64) -> Schedule {
    generate(
        TraceParams {
            nodes: 2,
            duration_s: 3600.0,
            seed,
            min_job_s: 900.0,
        },
        &catalog(),
    )
}

/// In-order clean events for `schedule` (the honest feed the adversary
/// interleaves with).
fn clean_events(schedule: &Schedule) -> Vec<WindowEvent> {
    let cfg = FleetConfig::default();
    let mut events = Vec::new();
    fleet_window_blocks(schedule, &cfg, |b| events.extend(b.iter()));
    events
}

/// Strategy for one adversarial event: extreme nodes, slots, windows, and
/// job indices, most outside anything the 2-node schedule defines.  Each
/// coordinate picks among an in-range band, a hostile band, and the type
/// maximum.
fn arb_hostile_event() -> impl Strategy<Value = WindowEvent> {
    (0u64..1 << 60, 0u64..1 << 60, 0u64..1 << 60, 0u64..1 << 60).prop_map(|(a, b, c, d)| {
        let node = match a % 3 {
            0 => (a / 3 % 2) as u32,
            1 => 2 + (a / 3 % 100) as u32,
            _ => u32::MAX,
        };
        let slot = match b % 3 {
            0 => (b / 3 % 5) as u8,
            1 => 5 + (b / 3 % 200) as u8,
            _ => u8::MAX,
        };
        let window = match c % 3 {
            0 => c / 3 % 1000,
            1 => (1u64 << 23) + c / 3 % (1 << 17),
            _ => u64::MAX,
        };
        let job = match d % 3 {
            0 => None,
            1 => Some((d / 3 % 10_000) as usize),
            _ => Some(usize::MAX),
        };
        // SKU bands: in-catalog, past the wire-format ceiling, type max.
        let sku = match (a ^ d) % 3 {
            0 => ((a ^ d) / 3 % 3) as u8,
            1 => 16 + ((a ^ d) / 3 % 100) as u8,
            _ => u8::MAX,
        };
        WindowEvent {
            node,
            slot,
            sku,
            window,
            rank: window,
            t_s: window as f64 * 15.0,
            span_s: 15.0,
            kind: WindowKind::Sample {
                power_w: 300.0,
                job,
            },
        }
    })
}

proptest! {
    /// Interleaving hostile events with an honest feed: nothing panics,
    /// every verdict is typed, and the engine that saw the mix ends
    /// bit-identical to an engine fed only the accepted events.
    #[test]
    fn hostile_events_are_inert(
        seed in 0u64..1 << 32,
        hostile in prop::collection::vec(arb_hostile_event(), 1..40),
        positions in prop::collection::vec(0usize..500, 1..40),
    ) {
        let schedule = small_schedule(seed);
        let clean = clean_events(&schedule);
        let cfg = StreamConfig::default();
        let mut mixed: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&schedule, cfg).unwrap();
        let mut accepted_only: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&schedule, cfg).unwrap();

        // Interleave: hostile event i lands before clean event
        // positions[i] (mod len).
        let mut inject: std::collections::HashMap<usize, Vec<WindowEvent>> =
            std::collections::HashMap::new();
        for (ev, pos) in hostile.iter().zip(&positions) {
            inject.entry(pos % clean.len()).or_default().push(*ev);
        }

        for (i, ev) in clean.iter().enumerate() {
            for hostile_ev in inject.get(&i).into_iter().flatten() {
                let before = mixed.snapshot();
                let stats_before = mixed.stats();
                match mixed.ingest(*hostile_ev) {
                    Ok(()) => {
                        // In-schedule coordinates: the twin must accept too.
                        accepted_only.ingest(*hostile_ev).unwrap();
                    }
                    Err(_) => {
                        // Typed rejection: state bit-identical, only
                        // reject tallies moved.
                        prop_assert_eq!(&mixed.snapshot(), &before);
                        let after = mixed.stats();
                        prop_assert_eq!(after.events, stats_before.events);
                        prop_assert!(
                            after.late_rejects + after.channel_rejects
                                + after.span_rejects + after.job_rejects
                                > stats_before.late_rejects + stats_before.channel_rejects
                                + stats_before.span_rejects + stats_before.job_rejects
                        );
                    }
                }
            }
            // An *accepted* hostile event may legitimately shift the
            // release frontier (it names real coordinates), so a clean
            // event can become a late arrival — but both engines hold
            // the same accepted set, so their verdicts must agree.
            let vm = mixed.ingest(*ev);
            let vt = accepted_only.ingest(*ev);
            prop_assert_eq!(vm.is_ok(), vt.is_ok());
        }
        prop_assert_eq!(mixed.snapshot(), accepted_only.snapshot());
        let (a, _) = mixed.finish();
        let (b, _) = accepted_only.finish();
        prop_assert_eq!(a, b);
    }

    /// Corrupting a valid wire frame — byte flips, truncation, or both —
    /// never panics the decode path, and a frame that fails validation is
    /// rejected before the engine sees anything.
    #[test]
    fn corrupted_wire_frames_are_rejected_before_state(
        seed in 0u64..1 << 32,
        flips in prop::collection::vec((0usize..10_000, 0usize..256), 1..16),
        truncate_to in (0usize..20_000).prop_map(|n| (n < 10_000).then_some(n)),
    ) {
        let schedule = small_schedule(seed);
        let clean = clean_events(&schedule);
        let codec = CodecConfig::default();

        // A genuine block for channel (0, 0), encoded to wire bytes.
        let mut block = ColumnBlock::new(0, 0);
        for ev in clean.iter().filter(|e| e.channel() == (0, 0)) {
            block.push(ev);
        }
        let grid = BlockGrid {
            window_s: 15.0,
            duration_s: schedule.duration_s,
            skew_s: 0.0,
        };
        let enc = EncodedBlock::encode(&block, grid, codec).unwrap();
        let mut wire = enc.to_bytes();

        // Corrupt it.
        for &(pos, value) in &flips {
            let idx = pos % wire.len();
            wire[idx] = value as u8;
        }
        if let Some(n) = truncate_to {
            wire.truncate(n % (wire.len() + 1));
        }

        let mut eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&schedule, StreamConfig::default()).unwrap();
        let before = eng.snapshot();
        // The daemon's admission path: structural parse, bounded decode,
        // then ingest.  Each stage either succeeds or returns a typed
        // error; none may panic.
        if let Ok(parsed) = EncodedBlock::from_bytes(&wire) {
            if let Ok(decoded) = parsed.decode(codec) {
                let _ = eng.ingest_block(&decoded);
            }
        }
        // Wherever the corruption was caught, the engine either ingested
        // a fully valid block or remained untouched.
        if eng.stats().events == 0 {
            prop_assert_eq!(eng.snapshot(), before);
        }
    }
}
