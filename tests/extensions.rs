//! Integration tests for the beyond-the-paper extensions: the phase
//! governors and the region-boundary sensitivity sweep.

use pmss::gpu::{Engine, GovernedTotals, Governor, KernelProfile};
use pmss::workloads::phases::synthesize_app;
use pmss::workloads::AppClass;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
