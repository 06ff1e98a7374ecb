//! An end-to-end reference for the paper's method: PAPER.md's method
//! steps 2–3 followed literally from the delivered telemetry to Tables IV
//! and V, with no production aggregation code in between.
//!
//! The input is every delivered 15 s GPU window of a run
//! (`fleet_window_blocks`, flattened row by row).  Each sample is binned
//! into Table IV's four modes by bands written out below, GPU time and
//! energy are summed per mode in a plain `[f64; 4]`, and Table III's
//! 900 MHz factors — read from `pmss table 3 --json` — are applied to the
//! memory-intensive (MB factors) and compute-intensive (VAI factors)
//! energy.  The result is compared with `pmss table 4 --json` and
//! `pmss table 5 --json` for the same scenario.
//!
//! **Tolerance.**  GPU time and coverage are sums of whole window spans,
//! exact in any order, so the Table IV shares and the coverage seconds
//! and fraction must match to the bit.  Energy sums are not: the ledger
//! sums per-channel partials per (domain, size, mode) cell and scales
//! each cell to Frontier, where this reference sums every sample in
//! stream order and scales once.  Every energy-derived figure (Table V's
//! row, total and headline, the coverage-adjusted bounds) therefore
//! matches within 1e-9 relative.

mod support;

use pmss::faults::{FaultPlan, GapPolicy};
use pmss::pipeline::{Json, Pipeline, ScalePreset, ScenarioSpec};
use pmss::sched::{catalog, generate};
use pmss::telemetry::{fleet_window_blocks, GapFill, WindowKind, REST_SLOT};
use support::cli_run;

/// Table IV's mode boundaries, watts: latency-bound below 200, memory
/// intensive 200–420, compute intensive 420–560, boosted from 560.
const BANDS_W: [f64; 3] = [200.0, 420.0, 560.0];
/// Table IV's mode indices.
const MI: usize = 1;
const CI: usize = 2;
/// The telemetry window every sample stands for (Table II a).
const WINDOW_S: f64 = 15.0;
/// The paper's machine and campaign (Table I, Table II): the scaled
/// fleet's energy is extrapolated to 9 408 nodes over 90 days.
const FRONTIER_NODES: f64 = 9408.0;
const CAMPAIGN_DAYS: f64 = 90.0;
const JOULES_PER_MWH: f64 = 3.6e9;
/// A cap counts toward the no-slowdown (`ΔT = 0`) column when its
/// benchmark ran at most this much slower, percent.
const NO_SLOWDOWN_PCT: f64 = 1.0;
/// The cap whose row the reference rebuilds.
const CAP_MHZ: f64 = 900.0;

/// The Table IV mode of one sample.
fn mode(power_w: f64) -> usize {
    BANDS_W.iter().filter(|&&edge| power_w >= edge).count()
}

/// What the method sums over the stream.
#[derive(Debug, Default)]
struct Sums {
    gpu_s: [f64; 4],
    energy_j: [f64; 4],
    /// Seconds backed by a real, finite sample.
    observed_s: f64,
    /// Seconds of non-finite readings, discarded.
    discarded_s: f64,
    /// Seconds of lost windows the plan excludes.
    excluded_s: f64,
    /// Seconds of lost windows the plan fills (by interpolation or as idle).
    filled_s: f64,
}

impl Sums {
    fn bin(&mut self, power_w: f64, seconds: f64) {
        let m = mode(power_w);
        self.gpu_s[m] += seconds;
        self.energy_j[m] += power_w * seconds;
    }

    /// Fraction of accounted time backed by real samples.
    fn coverage(&self) -> f64 {
        let total = self.observed_s + self.filled_s + self.excluded_s + self.discarded_s;
        if total == 0.0 {
            1.0
        } else {
            self.observed_s / total
        }
    }
}

/// Method step 2: every delivered GPU window, binned into its mode.
fn method_sums(spec: &ScenarioSpec) -> Sums {
    let cfg = Pipeline::new(spec.clone())
        .expect("valid spec")
        .fleet_config();
    let schedule = generate(spec.trace_params(), &catalog());
    let mut sums = Sums::default();
    fleet_window_blocks(&schedule, &cfg, |block| {
        for ev in block.iter() {
            match ev.kind {
                _ if ev.slot == REST_SLOT => {}
                WindowKind::Sample { power_w, .. } if power_w.is_finite() => {
                    sums.observed_s += WINDOW_S;
                    sums.bin(power_w, WINDOW_S);
                }
                WindowKind::Sample { .. } => sums.discarded_s += WINDOW_S,
                WindowKind::Gap { fill, .. } => match fill {
                    GapFill::Excluded => sums.excluded_s += ev.span_s,
                    GapFill::Interpolated(w) | GapFill::Idle(w) => {
                        sums.filled_s += ev.span_s;
                        sums.bin(w, ev.span_s);
                    }
                },
                WindowKind::NodeRest { .. } => unreachable!("rest rows ride REST_SLOT"),
            }
        }
    });
    sums
}

/// One benchmark's Table III factors at a cap, percent of uncapped.
#[derive(Debug, Clone, Copy)]
struct Factors {
    energy_pct: f64,
    runtime_pct: f64,
}

/// Table III's 900 MHz row: (VAI, the compute-bound benchmark; MB, the
/// memory-bound one).
fn table3_row(t3: &Json) -> (Factors, Factors) {
    let row = rows(t3, "freq_rows")
        .iter()
        .find(|r| num(r, &["setting", "value"]) == CAP_MHZ)
        .expect("Table III has a 900 MHz row");
    let factors = |bench: &str| Factors {
        energy_pct: num(row, &[bench, "energy_pct"]),
        runtime_pct: num(row, &[bench, "runtime_pct"]),
    };
    (factors("vai"), factors("mb"))
}

/// Method step 3: Table V's row for the cap, and the coverage-adjusted
/// bounds on its no-slowdown savings.
struct Projected {
    total_mwh: f64,
    ci_mwh: f64,
    mi_mwh: f64,
    ts_mwh: f64,
    savings_pct: f64,
    delta_t_pct: f64,
    savings_dt0_pct: f64,
    bounds: (f64, f64),
}

fn project(sums: &Sums, spec: &ScenarioSpec, vai: Factors, mb: Factors) -> Projected {
    let scale = FRONTIER_NODES * CAMPAIGN_DAYS / (spec.nodes as f64 * spec.days);
    let total_j = sums.energy_j.iter().sum::<f64>() * scale;
    let (ci_j, mi_j) = (sums.energy_j[CI] * scale, sums.energy_j[MI] * scale);
    let saved_ci = ci_j * (1.0 - vai.energy_pct / 100.0);
    let saved_mi = mi_j * (1.0 - mb.energy_pct / 100.0);
    let mut free = 0.0;
    for (bench, saved) in [(vai, saved_ci), (mb, saved_mi)] {
        if bench.runtime_pct <= 100.0 + NO_SLOWDOWN_PCT {
            free += saved;
        }
    }
    let savings_dt0_pct = 100.0 * free / total_j;
    let covered = savings_dt0_pct * sums.coverage();
    Projected {
        total_mwh: total_j / JOULES_PER_MWH,
        ci_mwh: saved_ci / JOULES_PER_MWH,
        mi_mwh: saved_mi / JOULES_PER_MWH,
        ts_mwh: (saved_ci + saved_mi) / JOULES_PER_MWH,
        savings_pct: 100.0 * (saved_ci + saved_mi) / total_j,
        delta_t_pct: ci_j / total_j * (vai.runtime_pct - 100.0)
            + mi_j / total_j * (mb.runtime_pct - 100.0),
        savings_dt0_pct,
        bounds: (covered.min(savings_dt0_pct), covered.max(savings_dt0_pct)),
    }
}

fn field<'a>(v: &'a Json, path: &[&str]) -> &'a Json {
    path.iter().fold(v, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("no {key:?} on the path {path:?}"))
    })
}

fn num(v: &Json, path: &[&str]) -> f64 {
    field(v, path).as_f64().expect("a number")
}

fn rows<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    field(v, &["data", key]).as_arr().expect("an array")
}

/// `pmss <artifact> --json` for `spec`, parsed.
fn cli_json(artifact: &[&str], spec: &ScenarioSpec, name: &str) -> Json {
    let path =
        std::env::temp_dir().join(format!("pmss-reference-{name}-{}.json", std::process::id()));
    std::fs::write(&path, spec.to_json().to_string_pretty()).expect("spec file written");
    let path_arg = path.to_str().expect("utf-8 temp path");
    let mut argv = artifact.to_vec();
    argv.extend(["--json", "--spec", path_arg]);
    let out = cli_run(&argv);
    std::fs::remove_file(&path).ok();
    Json::parse(&out).expect("the CLI prints JSON")
}

fn assert_bits(what: &str, got: f64, want: f64) {
    assert!(
        got.to_bits() == want.to_bits(),
        "{what}: pmss {got:?}, reference {want:?}"
    );
}

fn assert_close(what: &str, got: f64, want: f64) {
    let scale = got.abs().max(want.abs());
    assert!(
        (got - want).abs() <= 1e-9 * scale,
        "{what}: pmss {got:?}, reference {want:?}"
    );
}

/// Rebuilds Tables IV and V for `spec` from the stream and compares them
/// with the CLI's.
fn check(name: &str, spec: ScenarioSpec) {
    let sums = method_sums(&spec);
    let faulted = spec.active_faults().is_some();
    assert!(sums.observed_s > 0.0, "{name}: an empty stream");
    assert_eq!(faulted, sums.coverage() < 1.0, "{name}: coverage");

    // Table IV: GPU-hour shares per mode, bit for bit.
    let t4 = cli_json(&["table", "4"], &spec, name);
    let all_s: f64 = sums.gpu_s.iter().sum();
    let regions = rows(&t4, "regions");
    for (m, region) in regions.iter().enumerate() {
        assert_bits(
            &format!("{name}: Table IV mode {} GPU hours", m + 1),
            num(region, &["gpu_hours_pct"]),
            100.0 * (sums.gpu_s[m] / all_s),
        );
    }

    // Table V at 900 MHz, within 1e-9.
    let (vai, mb) = table3_row(&cli_json(&["table", "3"], &spec, name));
    let want = project(&sums, &spec, vai, mb);
    let t5 = cli_json(&["table", "5"], &spec, name);
    let row = rows(&t5, "freq_rows")
        .iter()
        .find(|r| num(r, &["setting", "value"]) == CAP_MHZ)
        .expect("Table V has a 900 MHz row");
    for (what, got, want) in [
        (
            "total MWh",
            num(&t5, &["data", "total_mwh"]),
            want.total_mwh,
        ),
        ("C.I. MWh", num(row, &["ci_mwh"]), want.ci_mwh),
        ("M.I. MWh", num(row, &["mi_mwh"]), want.mi_mwh),
        ("TS MWh", num(row, &["ts_mwh"]), want.ts_mwh),
        ("savings %", num(row, &["savings_pct"]), want.savings_pct),
        ("ΔT %", num(row, &["delta_t_pct"]), want.delta_t_pct),
        (
            "ΔT = 0 %",
            num(row, &["savings_dt0_pct"]),
            want.savings_dt0_pct,
        ),
        (
            "headline",
            num(&t5, &["data", "headline", "savings_dt0_pct"]),
            want.savings_dt0_pct,
        ),
    ] {
        assert_close(&format!("{name}: Table V {CAP_MHZ} MHz {what}"), got, want);
    }
    assert_eq!(
        num(&t5, &["data", "headline", "setting", "value"]),
        CAP_MHZ,
        "{name}: the no-slowdown headline is the 900 MHz row"
    );

    // Coverage: seconds and fraction bit for bit, bounds within 1e-9.
    let Some(faults) = t5.get("faults") else {
        assert!(!faulted, "{name}: a faulted run without its coverage");
        return;
    };
    for (key, want_s) in [
        ("observed_s", sums.observed_s),
        ("excluded_s", sums.excluded_s),
        ("discarded_s", sums.discarded_s),
    ] {
        assert_bits(
            &format!("{name}: coverage {key}"),
            num(faults, &["coverage", key]),
            want_s,
        );
    }
    assert_bits(
        &format!("{name}: coverage fraction"),
        num(faults, &["coverage", "fraction"]),
        sums.coverage(),
    );
    let (lo, hi) = want.bounds;
    assert_close(
        &format!("{name}: low bound"),
        num(faults, &["best_free_bounds", "lo_pct"]),
        lo,
    );
    assert_close(
        &format!("{name}: high bound"),
        num(faults, &["best_free_bounds", "hi_pct"]),
        hi,
    );
}

fn quick() -> ScenarioSpec {
    ScenarioSpec::preset(ScalePreset::Quick)
}

#[test]
fn clean_run_follows_the_method() {
    check("clean", quick());
}

#[test]
fn frontier_typical_under_exclude_follows_the_method() {
    let mut spec = quick();
    spec.faults = Some(FaultPlan {
        gap_policy: GapPolicy::Exclude,
        ..FaultPlan::preset("frontier-typical").expect("preset")
    });
    check("frontier-typical", spec);
}

#[test]
fn mixed_fleet_follows_the_method() {
    let mut spec = quick();
    spec.fleet_mix = Some("mixed-50-50".to_string());
    check("mixed-50-50", spec);
}

/// The goldens pin seed 2024 only.
#[test]
fn another_seed_follows_the_method() {
    let mut spec = quick();
    spec.seed = 7;
    check("seed-7", spec);
}
