//! Fold differentials: every fleet observer's columnar `fold_rows` against
//! the trait default, the per-row `apply_event` oracle.
//!
//! Folding a channel block's rows `[0, k)` and then `[k, n)` must leave the
//! observer bit for bit where the row-by-row replay leaves it, for every
//! split `k` — a split is where a resident tile or a stream prefix ends.
//! The blocks are real fleet channels (GPU slots and rest-of-node): clean,
//! and under the `frontier-typical` and `harsh` plans with each gap
//! policy (NaN glitches, duplicates, reordering, dropouts, every gap
//! fill), and from a mixed-SKU fleet.

use std::fmt::Debug;

use pmss::core::EnergyLedger;
use pmss::econ::EconSeries;
use pmss::faults::{FaultPlan, GapPolicy};
use pmss::gpu::FleetMix;
use pmss::sched::{catalog, generate, Schedule, TraceParams};
use pmss::telemetry::{
    apply_event, fleet_window_blocks, ColumnBlock, DomainHistograms, FleetConfig, FleetObserver,
    GapFill, GpuCpuEnergy, Pair, SystemHistogram, WindowEvent, WindowKind, REST_SLOT,
};

/// Every observer a fleet stage run folds, nested in pairs.
type Stage = Pair<Pair<SystemHistogram, DomainHistograms>, Pair<EnergyLedger, EconSeries>>;

/// The oracle: the trait default's replay of every row through
/// `apply_event`.
fn by_event<O: FleetObserver + Default>(schedule: &Schedule, block: &ColumnBlock) -> O {
    let mut o = O::default();
    for i in 0..block.len() {
        apply_event(&mut o, schedule, &block.event(i));
    }
    o
}

/// `Debug` prints every `f64` in its shortest round-trip form, so equal
/// renderings are equal bits (signed zeros included).
fn bits(o: &impl Debug) -> String {
    format!("{o:?}")
}

fn check<O: FleetObserver + Default + Debug>(schedule: &Schedule, block: &ColumnBlock, what: &str) {
    let want = bits(&by_event::<O>(schedule, block));
    let n = block.len();
    for k in 0..=n {
        let mut o = O::default();
        o.fold_rows(schedule, block, 0..k);
        o.fold_rows(schedule, block, k..n);
        assert_eq!(
            bits(&o),
            want,
            "{what}: {} channel {:?}, split at {k} of {n}",
            std::any::type_name::<O>(),
            block.channel()
        );
    }
}

/// Every observer at every split of one block.
fn check_all(schedule: &Schedule, block: &ColumnBlock, what: &str) {
    check::<SystemHistogram>(schedule, block, what);
    check::<DomainHistograms>(schedule, block, what);
    check::<GpuCpuEnergy>(schedule, block, what);
    check::<EconSeries>(schedule, block, what);
    check::<EnergyLedger>(schedule, block, what);
    check::<Stage>(schedule, block, what);
}

/// An hour and a 7 s partial tail window.
fn schedule(nodes: usize) -> Schedule {
    generate(
        TraceParams {
            nodes,
            duration_s: 3607.0,
            seed: 23,
            min_job_s: 900.0,
        },
        &catalog(),
    )
}

/// Every scenario's blocks, each checked for every observer at every
/// split.
#[test]
fn every_fold_rows_split_is_bit_equal_to_the_per_row_oracle() {
    let mut scenarios = vec![("clean".to_string(), 1, FleetConfig::default())];
    for preset in ["frontier-typical", "harsh"] {
        for policy in [
            GapPolicy::Exclude,
            GapPolicy::Interpolate,
            GapPolicy::AttributeIdle,
        ] {
            let mut plan = FaultPlan::preset(preset).expect("known preset");
            plan.gap_policy = policy;
            let cfg = FleetConfig {
                faults: Some(plan),
                ..FleetConfig::default()
            };
            scenarios.push((format!("{preset} {policy:?}"), 1, cfg));
        }
    }
    scenarios.push((
        "mixed-50-50 harsh".to_string(),
        2,
        FleetConfig {
            faults: Some(FaultPlan::preset("harsh").expect("known preset")),
            mix: FleetMix::preset("mixed-50-50").expect("known mix"),
            ..FleetConfig::default()
        },
    ));
    let (mut nan_rows, mut skus) = (0, std::collections::BTreeSet::new());
    for (what, nodes, cfg) in &scenarios {
        let schedule = schedule(*nodes);
        fleet_window_blocks(&schedule, cfg, |block| {
            nan_rows += block.values().iter().filter(|v| v.is_nan()).count();
            skus.insert(block.sku());
            check_all(&schedule, block, what);
        });
    }
    assert!(nan_rows > 0, "the plans glitch some samples to NaN");
    assert!(skus.len() > 1, "the mixed fleet has more than one SKU");
}

/// Rows a fleet run rarely or never makes, but a wire frame can: a job
/// whose only rows are a NaN sample and gap fills (so whether its domain
/// slot exists depends on those rows alone), fills carrying jobs under
/// every policy, non-finite fills, zero and partial spans, negative and
/// far-future timestamps.
#[test]
fn hand_built_blocks_fold_like_the_oracle() {
    // Only the job log matters here; eight nodes give it several domains.
    let schedule = schedule(8);
    let top = (0..schedule.jobs.len())
        .max_by_key(|&j| schedule.jobs[j].domain)
        .expect("the schedule has jobs");
    let other = (0..schedule.jobs.len())
        .min_by_key(|&j| schedule.jobs[j].domain)
        .expect("the schedule has jobs");
    assert!(schedule.jobs[top].domain > schedule.jobs[other].domain);
    let gpu = |window: u64, t_s: f64, span_s: f64, kind: WindowKind| WindowEvent {
        node: 0,
        slot: 2,
        sku: 1,
        window,
        rank: window,
        t_s,
        span_s,
        kind,
    };
    let sample = |power_w: f64, job: Option<usize>| WindowKind::Sample { power_w, job };
    let gap = |fill: GapFill, job: Option<usize>| WindowKind::Gap { fill, job };
    let events = [
        gpu(0, 7.5, 15.0, sample(f64::NAN, Some(top))),
        gpu(1, 22.5, 15.0, sample(312.0, Some(other))),
        gpu(2, 37.5, 15.0, gap(GapFill::Idle(f64::INFINITY), Some(top))),
        gpu(
            3,
            52.5,
            15.0,
            gap(GapFill::Interpolated(f64::NAN), Some(top)),
        ),
        gpu(4, 67.5, 15.0, gap(GapFill::Excluded, Some(other))),
        gpu(5, 82.5, 15.0, gap(GapFill::Idle(88.0), Some(other))),
        gpu(
            6,
            97.5,
            15.0,
            gap(GapFill::Interpolated(433.7), Some(other)),
        ),
        gpu(7, -3.0, 15.0, sample(577.25, None)),
        gpu(8, 1e300, 15.0, sample(f64::INFINITY, None)),
        gpu(9, 907.5, 0.0, gap(GapFill::Interpolated(250.0), None)),
        gpu(10, 1807.5, 7.0, gap(GapFill::Idle(f64::NAN), None)),
        gpu(11, 1822.5, 15.0, sample(199.99, Some(other))),
        gpu(11, 1822.5, 15.0, sample(199.99, Some(other))),
        gpu(
            12,
            2707.5,
            15.0,
            gap(GapFill::Interpolated(f64::NEG_INFINITY), Some(other)),
        ),
    ];
    check_all(
        &schedule,
        &ColumnBlock::from_events(0, 2, &events),
        "hand-built GPU",
    );
    let rest = |window: u64, t_s: f64, span_s: f64, rest_w: f64| WindowEvent {
        node: 0,
        slot: REST_SLOT,
        sku: 2,
        window,
        rank: window,
        t_s,
        span_s,
        kind: WindowKind::NodeRest { rest_w },
    };
    let events = [
        rest(0, 7.5, 15.0, 410.0),
        rest(1, 22.5, 15.0, f64::NAN),
        rest(2, -1.0, 7.0, 395.5),
        rest(3, 907.5, 0.0, 400.0),
        rest(4, 1807.5, 15.0, f64::INFINITY),
    ];
    check_all(
        &schedule,
        &ColumnBlock::from_events(0, REST_SLOT, &events),
        "hand-built rest",
    );
}
