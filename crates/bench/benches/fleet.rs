//! Fleet-simulation benches (the Figs. 8-9 / Tables IV-VI substrate):
//! schedule generation and telemetry-simulation throughput.
//!
//! The `fleet/throughput` entries measure simulated node-hours per
//! wall-second at 64/256/1024 nodes; `pmss bench-fleet` runs the same
//! scenarios standalone and records the numbers in `BENCH_fleet.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pmss_core::EnergyLedger;
use pmss_gpu::GpuSettings;
use pmss_sched::{catalog, generate, TraceParams};
use pmss_telemetry::{simulate_fleet, simulate_fleet_metered, FleetConfig, SystemHistogram};

fn params(nodes: usize, hours: f64) -> TraceParams {
    TraceParams {
        nodes,
        duration_s: hours * 3600.0,
        seed: 9,
        min_job_s: 900.0,
    }
}

fn bench_fleet(c: &mut Criterion) {
    let domains = catalog();
    let mut g = c.benchmark_group("fleet");
    g.sample_size(10);

    g.bench_function("sched/generate_16n_24h", |b| {
        b.iter(|| black_box(generate(params(16, 24.0), &domains)))
    });

    let schedule = generate(params(8, 12.0), &domains);
    g.bench_function("fig8/simulate_fleet_8n_12h_histogram", |b| {
        b.iter(|| {
            let h: SystemHistogram = simulate_fleet(&schedule, &FleetConfig::default());
            black_box(h)
        })
    });
    g.bench_function("table4/simulate_fleet_8n_12h_ledger", |b| {
        b.iter(|| {
            let l: EnergyLedger = simulate_fleet(&schedule, &FleetConfig::default());
            black_box(l)
        })
    });

    // Fleet-scale throughput: 2-hour schedules, uncapped and under the
    // 300 W what-if cap.  Each iteration simulates `nodes * 2` node-hours;
    // node-hours per wall-second is that divided by the reported
    // per-iteration time.
    for nodes in [64usize, 256, 1024] {
        let schedule = generate(params(nodes, 2.0), &domains);
        for (scenario, settings) in [
            ("uncapped", GpuSettings::uncapped()),
            ("cap300", GpuSettings::power_capped(300.0)),
        ] {
            let cfg = FleetConfig {
                settings,
                ..Default::default()
            };
            g.bench_function(&format!("throughput/{scenario}_{nodes}n"), |b| {
                b.iter(|| {
                    let l: EnergyLedger = simulate_fleet(&schedule, &cfg);
                    black_box(l)
                })
            });
        }
    }

    // Metering overhead: the metered entry folds a FleetRunStats sink
    // alongside the observer; the unmetered entry threads the no-op `()`
    // sink.  Comparable times are the observability acceptance headline —
    // the sink adds only branch-free integer increments per window and
    // per engine execution.
    {
        let schedule = generate(params(64, 2.0), &domains);
        let cfg = FleetConfig::default();
        g.bench_function("metering/64n_unmetered", |b| {
            b.iter(|| {
                let l: EnergyLedger = simulate_fleet(&schedule, &cfg);
                black_box(l)
            })
        });
        g.bench_function("metering/64n_metered", |b| {
            b.iter(|| {
                let (l, stats) = simulate_fleet_metered::<EnergyLedger>(&schedule, &cfg);
                black_box((l, stats))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
