//! The pmss benchmark harness.
//!
//! ```text
//! pmss-benchmark --pmss <bin> --out <dir> --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! pmss-benchmark --pmss <bin> --out <dir> suite  [--seed <n>] [--seconds <s>] [--smoke]
//! pmss-benchmark --pmss <bin> --out <dir> repeat [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form is one run of one workload: with `--trace 0` it measures
//! the end-to-end metrics, with `--trace 1` the per-layer ones, and prints
//! one JSON object as the last line of standard output.  `suite` runs every
//! workload both ways, one process each; `repeat` runs two sets of untraced
//! runs on the same build and judges each metric against its own bound.

mod batch;
mod catalog;
mod daemon;
mod env;
mod probe;
mod replay;
mod report;
mod run;
mod scenario;
mod stats;
mod suite;
mod surface;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::Ctx;

/// The seed `suite` and `repeat` start from when none is given.
const DEFAULT_SEED: u64 = 2024;

#[derive(Debug)]
pub struct Options {
    pub ctx: Ctx,
    pub seed: u64,
    pub seconds: f64,
    /// Internal: run the workload's set-up once, print its seconds, exit.
    pub setup_only: bool,
}

enum Mode {
    One { workload: String, trace: bool },
    Suite,
    Repeat,
}

fn number<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{text:?} is not a number this option takes"))
}

fn parse(args: &[String]) -> Result<(Mode, Options), String> {
    let mut mode = None;
    let mut workload = None;
    let mut trace = None;
    let mut pmss = None;
    let mut out = None;
    let mut seed = None;
    let mut seconds = None;
    let mut smoke = false;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "suite" => mode = Some(Mode::Suite),
            "repeat" => mode = Some(Mode::Repeat),
            "--workload" => workload = Some(value()?),
            "--trace" => trace = Some(value()? != "0"),
            "--pmss" => pmss = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--seed" => seed = Some(number::<u64>(&value()?)?),
            "--seconds" => seconds = Some(number::<f64>(&value()?)?),
            "--smoke" => smoke = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mode = match (mode, workload) {
        (Some(m), None) => m,
        (None, Some(workload)) => Mode::One {
            workload,
            trace: trace.unwrap_or(false),
        },
        _ => return Err("give either --workload <name> or one of suite | repeat".to_string()),
    };
    let options = Options {
        ctx: Ctx {
            pmss: pmss.ok_or("--pmss <path to the pmss binary> is required")?,
            out_dir: out.ok_or("--out <directory> is required")?,
            smoke,
        },
        seed: seed.unwrap_or(DEFAULT_SEED),
        // A smoke run only has to exercise every code path once.
        seconds: seconds.unwrap_or(if smoke { 0.5 } else { catalog::RUN_SECONDS }),
        setup_only,
    };
    Ok((mode, options))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, options) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("pmss-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::One { workload, trace } => run::one(&workload, trace, &options),
        Mode::Suite => suite::suite(&options),
        Mode::Repeat => suite::repeat(&options),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pmss-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
