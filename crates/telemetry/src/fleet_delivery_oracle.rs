//! The delivery oracle: a fault plan applied to a clean channel one row
//! at a time, the way the generator applied it inline before delivery
//! became a columnar transform of clean tiles.  The production transform
//! ([`deliver_gpu_tile`], [`deliver_rest_tile`]) must deliver the same
//! rows and tallies over any split of the channel into tiles, and the
//! multi-plan folding loop must give each plan what a run under that plan
//! alone gives.

use super::*;
use pmss_faults::MAX_REORDER_DEPTH;
use pmss_sched::{catalog, generate, TraceParams};

/// One GPU channel's clean rows delivered under `plan`, row by row: the
/// lane filled for the whole channel, each window's decisions read as it
/// is walked.
fn reference_deliver(
    plan: &FaultPlan,
    clean: &[WindowEvent],
    idle_power_w: f64,
    stats: &mut FleetRunStats,
) -> Vec<WindowEvent> {
    let (node, slot) = clean.first().map_or((0, 0), |ev| (ev.node, ev.slot));
    let skew = plan.clock_skew_s(node);
    let mut lane = FaultLane::new();
    plan.fill_lane(node, slot, 0..clean.len() as u64, &mut lane);
    let mut reorder = ReorderTally::default();
    if plan.reorder_depth > 0 {
        reorder.begin(plan.reorder_depth);
    }
    let mut last_good: Option<f64> = None;
    let mut out = Vec::new();
    for ev in clean {
        let (window, center, span) = (ev.window, ev.t_s, ev.span_s);
        let i = window as usize;
        let WindowKind::Sample {
            power_w: mean,
            job: attributed,
        } = ev.kind
        else {
            panic!("a clean GPU channel holds samples only");
        };
        if lane.lost()[i] {
            stats.faults_dropped += 1;
            let (fill, gaps, job) = match plan.gap_policy {
                GapPolicy::Exclude => (GapFill::Excluded, &mut stats.gaps_excluded, attributed),
                GapPolicy::Interpolate => (
                    GapFill::Interpolated(last_good.unwrap_or(idle_power_w)),
                    &mut stats.gaps_interpolated,
                    attributed,
                ),
                GapPolicy::AttributeIdle => {
                    (GapFill::Idle(idle_power_w), &mut stats.gaps_idle, None)
                }
            };
            *gaps += 1;
            out.push(WindowEvent {
                rank: window,
                t_s: center + skew,
                span_s: span,
                kind: WindowKind::Gap { fill, job },
                ..*ev
            });
            continue;
        }
        last_good = Some(mean);
        let mut power_w = mean;
        if let Some(glitch) = lane.glitches()[i] {
            stats.faults_glitched += 1;
            power_w = match glitch {
                Glitch::Nan => f64::NAN,
                Glitch::Spike(w) => power_w + w,
            };
        }
        let rank = lane.ranks()[i];
        let delivered = WindowEvent {
            rank,
            t_s: center + skew,
            kind: WindowKind::Sample {
                power_w,
                job: attributed,
            },
            ..*ev
        };
        if lane.duplicated()[i] {
            stats.faults_duplicated += 1;
            stats.gpu_sample(attributed.is_some());
            out.push(delivered);
        }
        stats.gpu_sample(attributed.is_some());
        if plan.reorder_depth > 0 {
            reorder.deliver(window, rank);
        }
        out.push(delivered);
    }
    if plan.reorder_depth > 0 {
        stats.faults_reordered += reorder.finish();
    }
    out
}

/// One rest-of-node channel's clean rows delivered under `plan`, row by
/// row: a dropped-out window's row vanishes.
fn reference_deliver_rest(
    plan: &FaultPlan,
    clean: &[WindowEvent],
    stats: &mut FleetRunStats,
) -> Vec<WindowEvent> {
    let node = clean.first().map_or(0, |ev| ev.node);
    let skew = plan.clock_skew_s(node);
    let mut dropout = Vec::new();
    plan.fill_node_dropout(node, 0..clean.len() as u64, &mut dropout);
    let mut out = Vec::new();
    for ev in clean {
        if dropout[ev.window as usize] {
            stats.faults_dropout_windows += 1;
            continue;
        }
        stats.node_samples += 1;
        out.push(WindowEvent {
            t_s: ev.t_s + skew,
            ..*ev
        });
    }
    out
}

/// A clean channel of `n` windows: samples on a GPU slot (attributed or
/// idle, a few at exactly 0 W), rest-of-node power on [`REST_SLOT`].
fn clean_channel(node: u32, slot: u8, n: u64, seed: u64) -> Vec<WindowEvent> {
    let mut z = seed;
    (0..n)
        .map(|w| {
            z = z
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x2545_f491);
            let h = z ^ (z >> 29);
            let power_w = if h.is_multiple_of(17) {
                0.0
            } else {
                (h >> 11) as f64 / (1u64 << 53) as f64 * 560.0
            };
            let kind = if slot == REST_SLOT {
                WindowKind::NodeRest { rest_w: power_w }
            } else {
                WindowKind::Sample {
                    power_w,
                    job: (!h.is_multiple_of(3)).then_some((h >> 40) as usize % 50),
                }
            };
            WindowEvent {
                node,
                slot,
                sku: 1,
                window: w,
                rank: w,
                t_s: w as f64 * 15.0 + 7.5,
                span_s: 15.0,
                kind,
            }
        })
        .collect()
}

/// `clean` delivered by the production transform, split into tiles at
/// pseudo-random lengths up to `max_tile` rows (empty tiles included).
fn transform_in_tiles(
    plan: &FaultPlan,
    clean: &[WindowEvent],
    idle_power_w: f64,
    max_tile: u64,
    seed: u64,
    stats: &mut FleetRunStats,
) -> Vec<WindowEvent> {
    let (node, slot) = clean.first().map_or((0, 0), |ev| (ev.node, ev.slot));
    let skew = plan.clock_skew_s(node);
    let (mut lane, mut dropout) = (FaultLane::new(), Vec::new());
    let mut chan = ChannelDelivery::default();
    chan.begin(plan);
    let (mut tile, mut out) = (ColumnBlock::new(node, slot), ColumnBlock::new(node, slot));
    let mut delivered = Vec::new();
    let (mut from, mut z) = (0u64, seed | 1);
    loop {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        let to = (from + z % (max_tile + 1)).min(clean.len() as u64);
        tile.reset(node, slot);
        for ev in &clean[from as usize..to as usize] {
            tile.push(ev);
        }
        out.reset(node, slot);
        if slot == REST_SLOT {
            plan.fill_node_dropout(node, from..to, &mut dropout);
            deliver_rest_tile(&tile, &dropout, skew, stats, &mut out);
        } else {
            plan.fill_lane(node, slot, from..to, &mut lane);
            deliver_gpu_tile(
                plan,
                &tile,
                &lane,
                skew,
                idle_power_w,
                &mut chan,
                stats,
                &mut out,
            );
        }
        delivered.extend(out.iter());
        from = to;
        if from == clean.len() as u64 {
            break;
        }
    }
    if slot != REST_SLOT {
        chan.finish(plan, stats);
    }
    delivered
}

fn shown(rows: &[WindowEvent]) -> Vec<String> {
    rows.iter().map(|ev| format!("{ev:?}")).collect()
}

proptest::proptest! {
    /// The columnar transform delivers what the row-by-row reference
    /// does — every row (`Debug`, so NaN glitches compare) and every
    /// tally — over arbitrary valid plans and arbitrary tile splits, on
    /// GPU and rest-of-node channels.
    #[test]
    fn columnar_delivery_matches_the_row_by_row_reference(
        probs in (0.0..=1.0f64, 0.0..=0.5f64, 0.0..=0.2f64, 0.0..=0.2f64, 0.0..=0.5f64),
        shape in (0u32..64, 0u8..4, -1000.0..=1000.0f64, 1u32..50, 0.0..=30.0f64, 0usize..3),
        run in (0u64..1 << 40, 0u64..700, 1u64..300, 0u32..5, 0u64..1 << 32),
    ) {
        let (drop_prob, dup_prob, nan_prob, spike_prob, dropout_prob) = probs;
        let (depth, deep, spike_w, dropout_windows, clock_skew_max_s, policy) = shape;
        let (seed, n, max_tile, node, split) = run;
        let plan = FaultPlan {
            seed,
            drop_prob,
            dup_prob,
            reorder_depth: if deep == 0 { MAX_REORDER_DEPTH } else { depth },
            nan_prob,
            spike_prob,
            spike_w,
            dropout_prob,
            dropout_windows,
            clock_skew_max_s,
            gap_policy: GapPolicy::all()[policy],
        };
        proptest::prop_assert!(plan.validate().is_ok());
        for slot in [0, 3, REST_SLOT] {
            let clean = clean_channel(node, slot, n, seed ^ split);
            let (mut want_stats, mut got_stats) =
                (FleetRunStats::default(), FleetRunStats::default());
            let want = if slot == REST_SLOT {
                reference_deliver_rest(&plan, &clean, &mut want_stats)
            } else {
                reference_deliver(&plan, &clean, 91.5, &mut want_stats)
            };
            let got = transform_in_tiles(&plan, &clean, 91.5, max_tile, split, &mut got_stats);
            proptest::prop_assert_eq!(shown(&got), shown(&want));
            proptest::prop_assert_eq!(format!("{got_stats:?}"), format!("{want_stats:?}"));
        }
    }
}

/// One generation delivered under many plans gives each plan the ledger
/// and tallies a run under that plan alone gives, bit for bit: `faults`'
/// ten plans, the deepest reorder buffer, a dropout interval that does
/// not divide a tile, and duplicates heavy enough that a delivered tile
/// outgrows a clean one — on a clean and a mixed fleet, at one worker (a
/// lone job of a two-worker scope, where `workers()` is 1) and at four.
#[test]
fn one_generation_delivers_each_plan_as_its_own_run() {
    let s = generate(
        TraceParams {
            nodes: 3,
            duration_s: 18.0 * 3600.0,
            seed: 11,
            min_job_s: 900.0,
        },
        &catalog(),
    );
    assert!(clean_grid(&s, &FleetConfig::default()).windows() > TILE_ROWS as u64);
    let mut plans = Vec::new();
    for preset in pmss_faults::PRESETS {
        let base = FaultPlan::preset(preset).expect("preset");
        let policies = if base.is_noop() {
            vec![base.gap_policy]
        } else {
            GapPolicy::all().to_vec()
        };
        for gap_policy in policies {
            plans.push(FaultPlan {
                gap_policy,
                ..base.clone()
            });
        }
    }
    assert_eq!(plans.len(), 10);
    let harsh = FaultPlan::preset("harsh").expect("preset");
    plans.push(FaultPlan {
        reorder_depth: MAX_REORDER_DEPTH,
        ..harsh.clone()
    });
    plans.push(FaultPlan {
        dropout_prob: 0.05,
        dropout_windows: 37,
        ..harsh.clone()
    });
    plans.push(FaultPlan {
        dup_prob: 0.5,
        gap_policy: GapPolicy::Interpolate,
        ..harsh
    });
    type Run = (pmss_core::EnergyLedger, FleetRunStats);
    let shown = |runs: &[Run]| -> Vec<String> {
        runs.iter()
            .map(|(ledger, stats)| format!("{ledger:?} {stats:?}"))
            .collect()
    };
    for mix in ["single-sku", "mixed-50-50"] {
        let cfg = FleetConfig {
            mix: FleetMix::preset(mix).expect("mix"),
            ..FleetConfig::default()
        };
        let alone: Vec<Run> = plans
            .iter()
            .map(|plan| {
                let cfg = FleetConfig {
                    faults: Some(plan.clone()),
                    ..cfg.clone()
                };
                simulate_fleet_metered(&s, &cfg)
            })
            .collect();
        let want = shown(&alone);
        let one = crate::scoped_map(2, 1, |_| {
            simulate_fleet_plans::<pmss_core::EnergyLedger>(&s, &cfg, &plans, workers())
        });
        let one = one.into_iter().next().expect("one job");
        assert!(shown(&one) == want, "{mix}: one worker");
        let four = simulate_fleet_plans::<pmss_core::EnergyLedger>(&s, &cfg, &plans, 4);
        assert!(shown(&four) == want, "{mix}: four workers");
    }
}
