//! What the driver needs from a workload: build inputs from a seed, run one
//! rep, and run the same work in process with spans around each layer call.

use std::path::PathBuf;
use std::time::Instant;

use crate::probe::Section;
use crate::surface::ScenarioSpec;
use crate::trace::Tracer;

/// Where a run finds the program and leaves its files.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The built `pmss` binary.
    pub pmss: PathBuf,
    /// Generated specs and trace files go here (`benchmark/out`).
    pub out_dir: PathBuf,
    /// Shrunken scenarios for the harness self-test; never compared.
    pub smoke: bool,
}

/// Checked operations: how many were attempted, and one line for each that
/// failed (non-zero exit, byte mismatch, un-retried rejection).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; `problem` is `Some` when it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        self.failures.extend(problem);
    }

    /// Counts one checked condition that must hold.
    pub fn require(&mut self, holds: bool, otherwise: &str) {
        self.check((!holds).then(|| otherwise.to_string()));
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// The outcome of one rep.
#[derive(Debug, Default)]
pub struct Rep {
    /// Seconds for the whole rep.
    pub wall_s: f64,
    /// Seconds of each operation that takes telemetry in: a BLOCK round
    /// trip (daemon), one resident replay (replay).  One kind per workload,
    /// never pooled with the other; `block_ack_p50_ms` is their median.
    pub block_s: Vec<f64>,
    /// Seconds of each operation that returns an answer: a QUERY round trip
    /// (daemon), state → `query::answer` → render (replay); `query_p50_ms`.
    /// A CLI rep is one operation that does both, so it files its seconds
    /// under both.
    pub query_s: Vec<f64>,
    /// BLOCK sends repeated after a typed backpressure rejection.
    pub retries: u64,
    /// Window-events simulated or replayed, or telemetry rows acked.
    pub windows: u64,
    pub checks: Checks,
}

/// Runs `f`; what it returned and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

pub trait Workload {
    type Inputs;

    /// Whether the measured reps run in child processes (their peak RSS is
    /// then the children's, not the harness's).
    const CHILD_PROCESSES: bool;

    fn name(&self) -> &'static str;

    /// The scenario whose fleet path the traced run profiles layer by
    /// layer.
    fn spec(&self, seed: u64, smoke: bool) -> ScenarioSpec;

    /// Everything before the first timed region.
    fn setup(&self, seed: u64, ctx: &Ctx) -> Result<Self::Inputs, String>;

    /// One measured rep, as a user would run it: for the in-process
    /// workloads, the traced rep with tracing off.
    fn rep(&self, inputs: &Self::Inputs, ctx: &Ctx) -> Rep {
        self.traced_rep(inputs, ctx, &mut Tracer::new(false))
    }

    /// The rep's work done in process, each call into a layer inside a
    /// span.  With a disabled tracer this is the untraced twin the tracing
    /// overhead is measured against.
    fn traced_rep(&self, inputs: &Self::Inputs, ctx: &Ctx, tracer: &mut Tracer) -> Rep;

    /// The probe section whose spans this workload's own traced reps
    /// record, so that the probe leaves it out.
    fn own_section(&self) -> Option<Section> {
        None
    }

    /// A line to print beside the end-to-end metrics, given the measured
    /// throughput.
    fn note(&self, _inputs: &Self::Inputs, _windows_per_s: f64) -> Option<String> {
        None
    }
}

/// Maps any displayable error into the harness's `String` errors.
pub fn err<E: std::fmt::Display>(context: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{context}: {e}")
}
