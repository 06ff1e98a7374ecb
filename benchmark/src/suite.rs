//! Many runs at once, one process per run (a run's peak RSS is its own):
//! `suite` runs every workload untraced, then traced; `repeat` runs two sets
//! of untraced runs on the same build and judges each workload × metric
//! against the bound the benchmark fixes for it.

use std::process::{Command, Stdio};

use crate::catalog::{Better, END_TO_END, WORKLOADS};
use crate::env::Environment;
use crate::report::RunResult;
use crate::stats::{median, spread};
use crate::surface::Json;
use crate::workload::err;
use crate::Options;

/// Runs per workload in each of `repeat`'s two sets: what the interquartile
/// spread the bounds are judged against is taken over.
const REPEAT_RUNS: u64 = 10;

/// Runs this executable again on one workload and returns what it printed.
fn run_self(
    options: &Options,
    workload: &str,
    seed: u64,
    extra: &[&str],
) -> Result<(std::process::ExitStatus, String), String> {
    let exe = std::env::current_exe().map_err(err("own executable"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--pmss")
        .arg(&options.ctx.pmss)
        .arg("--out")
        .arg(&options.ctx.out_dir)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(extra);
    if options.ctx.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(err("spawning a run"))?;
    Ok((
        output.status,
        String::from_utf8_lossy(&output.stdout).into_owned(),
    ))
}

/// One set-up of `workload` in a fresh process; the seconds it took.
pub fn setup_in_child(options: &Options, workload: &str) -> Result<f64, String> {
    let (status, stdout) = run_self(options, workload, options.seed, &["--setup-only"])?;
    stdout
        .trim()
        .parse()
        .map_err(|_| format!("set-up of {workload} in a child process failed ({status})"))
}

/// One run of `workload` in a fresh process; its result.
fn run_one(options: &Options, workload: &str, seed: u64, trace: bool) -> Result<RunResult, String> {
    let trace_flag = ["--trace", if trace { "1" } else { "0" }];
    let (status, stdout) = run_self(options, workload, seed, &trace_flag)?;
    // An incorrect run still prints its result; a run that printed none
    // crashed.
    RunResult::from_stdout(&stdout).map_err(|e| {
        format!(
            "{workload} (seed {seed}, trace {}) gave no result ({status}): {e}",
            u8::from(trace)
        )
    })
}

pub fn suite(options: &Options) -> Result<bool, String> {
    let env = Environment::capture(options.seed, options.ctx.smoke);
    println!("environment {}", env.to_json().to_string_compact());
    if env.noisy {
        println!(
            "NOISY: the load average at start exceeds half the cores; do not compare this run"
        );
    }
    let mut all_correct = true;
    let mut results = Json::obj();
    for w in &WORKLOADS {
        let mut section = Json::obj();
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let result = run_one(options, w.name, options.seed, trace)?;
            for (name, value, unit) in &result.metrics {
                println!("{:<16} {:<32} {value} {unit}", w.name, name);
            }
            println!(
                "{:<16} {key}: attempted {} failed {} correct {}",
                w.name, result.attempted, result.failed, result.correct
            );
            all_correct &= result.correct;
            section = section.field(key, result.to_json());
        }
        results = results.field(w.name, section);
    }
    std::fs::create_dir_all(&options.ctx.out_dir).map_err(err("output directory"))?;
    let path = options.ctx.out_dir.join("results.json");
    let doc = Json::obj()
        .field("environment", env.to_json())
        .field("seconds", options.seconds)
        .field("smoke", options.ctx.smoke)
        .field("results", results);
    std::fs::write(&path, doc.to_string_pretty()).map_err(err("results file"))?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

/// How much worse `second` is than `first`, as a share of `first`; negative
/// when it is better.
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Two sets of [`REPEAT_RUNS`] untraced runs per workload, each run on another
/// seed, the same seeds in both sets.  A workload × metric passes when the
/// interquartile spread of each set stays within the metric's bound
/// (`setup_s` excepted) and the second set's median is not worse than the
/// first's by more than the bound.  It is *steady* when every spread is
/// below a third of the bound.
pub fn repeat(options: &Options) -> Result<bool, String> {
    if options.ctx.smoke {
        return Err("a smoke run is never compared".to_string());
    }
    let env = Environment::capture(options.seed, false);
    println!("environment {}", env.to_json().to_string_compact());
    let mut all_pass = true;
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; 2];
    for (set, per_workload) in values.iter_mut().enumerate() {
        for (w, per_metric) in WORKLOADS.iter().zip(per_workload) {
            for run in 0..REPEAT_RUNS {
                let seed = options.seed + run;
                let result = run_one(options, w.name, seed, false)?;
                if !result.correct {
                    println!(
                        "FAIL {} set {} seed {seed}: {} of {} operations failed",
                        w.name,
                        set + 1,
                        result.failed,
                        result.attempted
                    );
                    all_pass = false;
                }
                for (m, samples) in END_TO_END.iter().zip(per_metric.iter_mut()) {
                    let value = result
                        .value(m.name)
                        .ok_or(format!("{} did not report {}", w.name, m.name))?;
                    samples.push(value);
                }
            }
        }
    }
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median 2", "worse", "spread 1", "spread 2", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let (first, second) = (&values[0][wi][mi], &values[1][wi][mi]);
            let (m1, m2) = (median(first), median(second));
            let worse = worsening(m.better, m1, m2);
            let (s1, s2) = (spread(first), spread(second));
            let widest = s1.max(s2);
            let spread_ok = m.name == "setup_s" || widest <= bound;
            let pass = spread_ok && worse <= bound;
            all_pass &= pass;
            let verdict = match (pass, widest < bound / 3.0) {
                (false, _) => "FAIL",
                (true, true) => "PASS steady",
                (true, false) => "PASS",
            };
            println!(
                "{:<16} {:<14} {m1:>14.6} {m2:>14.6} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                w.name,
                m.name,
                worse * 100.0,
                s1 * 100.0,
                s2 * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
    }
}
