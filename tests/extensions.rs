//! Integration tests for the beyond-the-paper extensions: the phase
//! governors, the region-boundary sensitivity sweep, and the fault,
//! SKU-mix and price/carbon scenarios as the CLI prints them.

mod support;

use pmss::gpu::{Engine, GovernedTotals, Governor, KernelProfile};
use pmss::pipeline::json::Json;
use pmss::workloads::phases::synthesize_app;
use pmss::workloads::AppClass;
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::cli_run;

/// The phases `pmss governor` governs for one application class.
fn class_phases(class: AppClass) -> Vec<KernelProfile> {
    synthesize_app(class, 3600.0, &mut StdRng::seed_from_u64(17))
}

#[test]
fn governor_beats_static_caps_on_every_app_class() {
    // The per-phase energy-optimal governor must never lose to any static
    // frequency cap on any application class.
    let engine = Engine::default();
    for class in AppClass::all() {
        let phases = class_phases(class);
        let opt = GovernedTotals::from_governed(
            &Governor::EnergyOptimal
                .govern_phases(&engine, &phases)
                .unwrap(),
        );
        for mhz in [1700.0, 1300.0, 1100.0, 900.0, 700.0] {
            let fixed = GovernedTotals::from_governed(
                &Governor::Fixed(mhz)
                    .govern_phases(&engine, &phases)
                    .unwrap(),
            );
            assert!(
                opt.energy_j <= fixed.energy_j + 1e-6,
                "{class:?}: optimal loses to {mhz} MHz"
            );
        }
    }
}

#[test]
fn slowdown_budget_governor_respects_budget_on_every_app_class() {
    let engine = Engine::default();
    for class in AppClass::all() {
        let phases = class_phases(class);
        for budget in [0.02, 0.1] {
            let t = GovernedTotals::from_governed(
                &Governor::SlowdownBudget { budget }
                    .govern_phases(&engine, &phases)
                    .unwrap(),
            );
            assert!(
                t.slowdown() <= budget + 1e-9,
                "{class:?} at budget {budget}: slowdown {}",
                t.slowdown()
            );
            assert!(t.energy_saving() >= -1e-9);
        }
    }
}

#[test]
fn sensitivity_spread_is_small_on_fleet_data() {
    use pmss::core::sensitivity::boundary_sweep;
    use pmss::sched::{catalog, generate, TraceParams};
    use pmss::telemetry::{simulate_fleet, FleetConfig, SystemHistogram};
    use pmss::workloads::table3;

    let s = generate(
        TraceParams {
            nodes: 12,
            duration_s: 2.0 * 86_400.0,
            seed: 41,
            min_job_s: 900.0,
        },
        &catalog(),
    );
    let sys: SystemHistogram = simulate_fleet(&s, &FleetConfig::default());
    let total_j: f64 = sys
        .hist
        .centers()
        .zip(sys.hist.counts())
        .map(|(c, &n)| c * n as f64 * 15.0)
        .sum();
    let t3 = table3::compute_default();
    let report = boundary_sweep(&sys.hist, total_j, &t3, 30.0, 4).expect("valid sweep inputs");
    assert!(report.reference.best_free_pct > 3.0);
    assert!(
        report.free_savings_spread() < 0.6 * report.reference.best_free_pct,
        "spread {} vs reference {}",
        report.free_savings_spread(),
        report.reference.best_free_pct
    );
}

/// The number at `path` (object keys) in `v`.
fn num(v: &Json, path: &[&str]) -> f64 {
    let at = path.iter().try_fold(v, |v, key| v.get(key));
    at.and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no number at {path:?}"))
}

/// `table 4 --faults harsh --json` carries a `faults` section: the `harsh`
/// plan, a coverage fraction that is the observed share of the accounted
/// seconds, and savings bounds at that coverage.
#[test]
fn faulted_table4_json_reports_the_plan_and_its_coverage() {
    let v = Json::parse(&cli_run(&["table", "4", "--faults", "harsh", "--json"])).expect("json");
    let faults = v.get("faults").expect("a faults section");
    assert_eq!(num(faults, &["plan", "drop_prob"]), 0.1);
    let plan = faults.get("plan").expect("plan");
    assert_eq!(
        plan.get("gap_policy").and_then(Json::as_str),
        Some("exclude")
    );
    let seconds = |k| num(faults, &["coverage", k]);
    let fraction = seconds("fraction");
    let accounted = [
        "observed_s",
        "interpolated_s",
        "attributed_idle_s",
        "excluded_s",
    ]
    .into_iter()
    .chain(["discarded_s"])
    .map(seconds)
    .sum::<f64>();
    assert!((0.5..1.0).contains(&fraction), "coverage {fraction}");
    assert!((fraction - seconds("observed_s") / accounted).abs() < 1e-12);
    assert_eq!(num(faults, &["best_free_bounds", "coverage"]), fraction);
    let (lo, hi) = (
        num(faults, &["best_free_bounds", "lo_pct"]),
        num(faults, &["best_free_bounds", "hi_pct"]),
    );
    assert!(0.0 < lo && lo < hi, "bounds {lo}..{hi}");
    let regions = v
        .get("data")
        .and_then(|d| d.get("regions"))
        .expect("regions");
    let pct: f64 = (regions.as_arr().expect("rows").iter())
        .map(|r| num(r, &["gpu_hours_pct"]))
        .sum();
    assert!((pct - 100.0).abs() < 1e-9, "GPU hours sum to {pct}%");
}

/// `components --mix mixed-50-50` names its mix in the header and splits
/// the 16 nodes 8 and 8; `components --mix mixed-datacenter --json`
/// reports every SKU's component lanes conserving its device energy.
#[test]
fn mixed_components_name_the_mix_and_conserve_energy() {
    let text = cli_run(&["components", "--mix", "mixed-50-50"]);
    assert!(
        text.contains("mix mixed-50-50, 16 nodes;"),
        "header missing:\n{text}"
    );
    let nodes = |sku: &str| -> u64 {
        let row = text.lines().map(str::trim).find(|l| l.starts_with(sku));
        let row = row.unwrap_or_else(|| panic!("no `{sku}` row:\n{text}"));
        let count = row[sku.len()..].split_whitespace().next();
        let count = count.and_then(|w| w.parse().ok());
        count.expect("a node count")
    };
    assert_eq!(
        (nodes("0 mi250x"), nodes("1 mi300a"), nodes("fleet")),
        (8, 8, 16)
    );

    let json = cli_run(&["components", "--mix", "mixed-datacenter", "--json"]);
    let v = Json::parse(&json).expect("json");
    let data = v.get("data").expect("data");
    assert_eq!(
        data.get("mix").and_then(Json::as_str),
        Some("mixed-datacenter")
    );
    let skus = data.get("skus").and_then(Json::as_arr).expect("skus");
    assert!(skus.len() > 1, "one SKU only");
    for sku in skus {
        let err = num(sku, &["conservation_err"]);
        assert!((0.0..1e-12).contains(&err), "conservation_err {err}");
    }
}

/// `table 4 --mix mixed-50-50` renders Table IV's four regions, their GPU
/// hours summing to 100 %, and the mix moves the split off the
/// single-SKU fleet's.
#[test]
fn mixed_table4_renders_a_split_of_its_own() {
    let pcts = |text: &str| -> Vec<f64> {
        (text.lines())
            .filter(|l| l.trim_start().starts_with(['1', '2', '3', '4']))
            .map(|l| {
                l.rsplit('|')
                    .next()
                    .expect("a cell")
                    .trim()
                    .parse()
                    .expect("a %")
            })
            .collect()
    };
    let mixed = pcts(&cli_run(&["table", "4", "--mix", "mixed-50-50"]));
    assert_eq!(mixed.len(), 4, "{mixed:?}");
    let sum: f64 = mixed.iter().sum();
    assert!((sum - 100.0).abs() <= 0.2, "{mixed:?} sums to {sum}");
    assert_ne!(mixed, pcts(&cli_run(&["table", "4"])));
}

/// `econ --econ duck-curve --json` carries a `shift` section: a
/// deadline-bounded shift that moves energy and lowers both the cost and
/// the carbon of the unshifted schedule.
#[test]
fn duck_curve_econ_json_reports_a_shift_that_pays() {
    let v = Json::parse(&cli_run(&["econ", "--econ", "duck-curve", "--json"])).expect("json");
    let shift = v
        .get("data")
        .and_then(|d| d.get("shift"))
        .expect("a shift section");
    let at = |k| num(shift, &[k]);
    assert!(at("moves") >= 1.0 && at("moved_mwh") > 0.0);
    assert!(at("deadline_slots") >= 1.0 && at("budget_mw") > 0.0);
    assert!(at("shifted_cost_usd") < at("baseline_cost_usd"));
    assert!(at("shifted_carbon_t") < at("baseline_carbon_t"));
}
