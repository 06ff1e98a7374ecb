//! Property tests for the econ layer: arbitrary traces — NaN, negative,
//! empty, off-grid buckets — are typed errors and never panic; the cost
//! integral is an exact identity over the per-slot series and its SKU
//! lanes; the temporal-shifting planner never violates its deadline or
//! power budget and conserves energy move by move; and streaming
//! snapshots price bit-identically to the batch series under any fault
//! plan.
//!
//! Failing case seeds persist to `tests/proptest-regressions/` (see
//! `vendor/proptest`) and replay before fresh cases on every run.

use proptest::prelude::*;

use pmss::columns::{FleetObserver, SampleCtx};
use pmss::core::EnergyLedger;
use pmss::econ::{shift, EconSeries, EconTrace, SLOT_S};
use pmss::faults::{FaultPlan, GapPolicy};
use pmss::gpu::consts::JOULES_PER_MWH;
use pmss::sched::{catalog, generate, Schedule, TraceParams};
use pmss::stream::{StreamConfig, StreamEngine};
use pmss::telemetry::{fleet_window_blocks, simulate_fleet, FleetConfig, Pair};

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

/// Strategy for a *valid* trace: matched-length finite non-negative
/// series on an on-grid bucket, with a real deadline and budget.
fn arb_valid_trace() -> impl Strategy<Value = EconTrace> {
    (
        prop::collection::vec((0.0..250.0f64, 0.0..700.0f64), 1..49),
        1usize..9,
        1u32..33,
        0.2..2.0f64,
    )
        .prop_map(|(pairs, mult, deadline, budget)| {
            let (price, carbon) = pairs.into_iter().unzip();
            EconTrace {
                name: "prop".to_string(),
                bucket_s: mult as f64 * SLOT_S,
                price_usd_per_mwh: price,
                carbon_g_per_kwh: carbon,
                shift_deadline_slots: deadline,
                shift_budget_frac: budget,
            }
        })
}

/// Strategy for a hostile trace: one targeted corruption of a valid one
/// — empty series, NaN price, negative carbon, off-grid / negative /
/// sub-slot bucket, zero deadline, non-finite budget.
fn arb_hostile_trace() -> impl Strategy<Value = EconTrace> {
    (arb_valid_trace(), 0usize..8).prop_map(|(mut t, which)| {
        match which {
            0 => t.price_usd_per_mwh = Vec::new(),
            1 => t.price_usd_per_mwh[0] = f64::NAN,
            2 => t.carbon_g_per_kwh[0] = -5.0,
            3 => t.bucket_s += 1.0,
            4 => t.bucket_s = -SLOT_S,
            5 => t.bucket_s = SLOT_S / 2.0,
            6 => t.shift_deadline_slots = 0,
            _ => t.shift_budget_frac = f64::INFINITY,
        }
        t
    })
}

/// Strategy for an arbitrary recorded series: raw GPU samples at
/// arbitrary in-campaign timestamps and powers (including the boosted
/// region), fed through the same observer entry points the fleet
/// simulation uses.
fn arb_series() -> impl Strategy<Value = EconSeries> {
    prop::collection::vec((0.0..48.0 * 3600.0f64, 0.0..620.0f64, 0u8..3), 1..200).prop_map(
        |samples| {
            let mut series = EconSeries::default();
            for (t_s, power_w, sku) in samples {
                let ctx = SampleCtx {
                    node: 0,
                    slot: 0,
                    sku,
                    job: None,
                };
                series.gpu_sample(&ctx, t_s, power_w);
            }
            series
        },
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

/// Relative-tolerance equality: `1e-9` relative, absolute floor of one
/// unit so empty lanes compare cleanly.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    /// Any hostile trace is rejected with a typed error at validation,
    /// and every consumer downstream of validation — the shift planner
    /// first among them — refuses it the same way instead of panicking.
    #[test]
    fn hostile_traces_are_typed_errors_never_panics(
        trace in arb_hostile_trace(),
        series in arb_series(),
    ) {
        prop_assert!(trace.validate().is_err(), "hostile trace validated");
        prop_assert!(shift(&series, &trace).is_err(), "shift accepted a hostile trace");
        // Pricing against a hostile trace must at worst produce a number,
        // never a panic (validation is the real gate).
        let _ = series.cost_usd(&trace);
        let _ = series.carbon_kg(&trace);
    }

    /// The cost integral is an identity, not an approximation: the
    /// series' total cost equals the slot-by-slot sum of energy × price,
    /// the SKU lanes partition it exactly, and on a flat trace it
    /// collapses to total-energy × price.  Same for carbon.
    #[test]
    fn total_cost_is_the_exact_sum_of_slot_energy_times_price(
        trace in arb_valid_trace(),
        series in arb_series(),
    ) {
        trace.validate().expect("valid by construction");
        let manual_cost: f64 = (0..series.num_slots())
            .map(|s| series.slot_gpu_j(s) / JOULES_PER_MWH * trace.price_at_slot(s))
            .sum();
        let manual_kg: f64 = (0..series.num_slots())
            .map(|s| series.slot_gpu_j(s) / JOULES_PER_MWH * trace.carbon_at_slot(s))
            .sum();
        prop_assert!(close(series.cost_usd(&trace), manual_cost));
        prop_assert!(close(series.carbon_kg(&trace), manual_kg));

        let lane_cost: f64 = (0..series.num_skus())
            .map(|sku| series.sku_cost_usd(sku, &trace))
            .sum();
        let lane_kg: f64 = (0..series.num_skus())
            .map(|sku| series.sku_carbon_kg(sku, &trace))
            .sum();
        prop_assert!(
            close(lane_cost, series.cost_usd(&trace)),
            "SKU lanes leak cost: {lane_cost} vs {}",
            series.cost_usd(&trace)
        );
        prop_assert!(close(lane_kg, series.carbon_kg(&trace)));

        let flat = EconTrace::flat();
        prop_assert!(close(
            series.cost_usd(&flat),
            series.total_gpu_j() / JOULES_PER_MWH * flat.price_usd_per_mwh[0]
        ));
    }

    /// The shift planner holds its invariants under any valid trace and
    /// any recorded series: every move lands strictly later but within
    /// the deadline, energy is conserved slot-sum to slot-sum, no
    /// destination is filled past the power budget, and the shifted
    /// placement never costs more than the baseline.
    #[test]
    fn shifting_never_violates_deadline_or_budget(
        trace in arb_valid_trace(),
        series in arb_series(),
    ) {
        let out = shift(&series, &trace).expect("valid inputs");
        let budget_e = out.budget_w * SLOT_S;
        for m in &out.moves {
            prop_assert!(m.joules > 0.0 && m.joules.is_finite());
            prop_assert!(m.to > m.from, "move goes backward: {} -> {}", m.from, m.to);
            prop_assert!(
                m.to - m.from <= out.deadline_slots,
                "deadline violated: {} -> {} with deadline {}",
                m.from,
                m.to,
                out.deadline_slots
            );
        }
        let pre: f64 = out.pre_slot_j.iter().sum();
        let post: f64 = out.post_slot_j.iter().sum();
        prop_assert!(close(pre, post), "shift leaks energy: {pre} J vs {post} J");
        for m in &out.moves {
            prop_assert!(
                out.post_slot_j[m.to] <= budget_e * (1.0 + 1e-9) + 1e-6,
                "destination slot {} filled to {} J past budget {} J",
                m.to,
                out.post_slot_j[m.to],
                budget_e
            );
        }
        prop_assert!(
            out.shifted_cost_usd <= out.baseline_cost_usd * (1.0 + 1e-9) + 1e-6,
            "shifting made things worse: {} -> {}",
            out.baseline_cost_usd,
            out.shifted_cost_usd
        );
    }

    /// Streaming ingest prices bit-identically to batch simulation under
    /// any fault plan: the paired engine's econ series equals the batch
    /// series exactly, so every cost it can report matches to the bit.
    #[test]
    fn streaming_snapshots_price_bit_identically_to_batch(
        plan in arb_plan(),
        nodes in 1usize..4,
        trace_seed in 0u64..1 << 32,
    ) {
        let schedule = small_schedule(nodes, 2, trace_seed);
        let cfg = FleetConfig {
            faults: (!plan.is_noop()).then(|| plan.clone()),
            ..FleetConfig::default()
        };
        let batch: Pair<EnergyLedger, EconSeries> = simulate_fleet(&schedule, &cfg);

        let mut eng: StreamEngine<'_, Pair<EnergyLedger, EconSeries>> =
            StreamEngine::new(&schedule, StreamConfig::for_plan(cfg.faults.as_ref()))
                .expect("valid config");
        let mut events = Vec::new();
        fleet_window_blocks(&schedule, &cfg, |b| events.extend(b.iter()));
        for ev in events {
            eng.ingest(ev).expect("plan-sized horizon accepts the stream");
        }
        let (streamed, _) = eng.finish();
        prop_assert_eq!(&streamed.a, &batch.a, "ledger members diverge");
        prop_assert!(streamed.b == batch.b, "econ members diverge");
        for trace_name in EconTrace::preset_names() {
            let trace = EconTrace::preset(trace_name).expect("preset");
            prop_assert_eq!(
                streamed.b.cost_usd(&trace).to_bits(),
                batch.b.cost_usd(&trace).to_bits(),
                "cost under {} is not bit-identical",
                trace_name
            );
        }
    }
}
