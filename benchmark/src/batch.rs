//! The two CLI workloads: fresh `pmss` processes, spawn to exit, on a spec
//! file generated from the seed.  The traced twin makes, in process, the
//! layer calls the CLI makes for the same commands.

use std::process::{Command as Process, Stdio};
use std::time::Instant;

use crate::probe::Section;
use crate::scenario::{self, Shape};
use crate::surface::{cli_run, ArtifactId, FaultPlan, Pipeline, ScenarioSpec};
use crate::trace::Tracer;
use crate::workload::{err, Ctx, Rep, Workload};

/// The preset behind `pmss stream --faults …`: it reorders deliveries, so
/// the stream engine takes its ring path, not the in-order fast path.
pub const FAULT_PRESET: &str = "frontier-typical";

/// How the traced twin reproduces one CLI command.
#[derive(Debug, Clone, Copy)]
pub enum Staged {
    /// `table 5 --json`: fleet, Table III and projection stages, then the
    /// JSON render.
    Table5Json,
    /// An ASCII artifact that runs the fleet several times; `faulted`
    /// applies [`FAULT_PRESET`] the way `--faults` does.
    Ascii {
        id: ArtifactId,
        span: &'static str,
        faulted: bool,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Command {
    pub argv: &'static [&'static str],
    pub staged: Staged,
}

pub const TABLE5: Command = Command {
    argv: &["table", "5", "--json"],
    staged: Staged::Table5Json,
};

pub const MULTIRUN: [Command; 3] = [
    Command {
        argv: &["faults"],
        staged: Staged::Ascii {
            id: ArtifactId::Faults,
            span: "pipeline.artifact.faults",
            faulted: false,
        },
    },
    Command {
        argv: &["govern"],
        staged: Staged::Ascii {
            id: ArtifactId::Govern,
            span: "pipeline.artifact.govern",
            faulted: false,
        },
    },
    Command {
        argv: &["stream", "--faults", FAULT_PRESET],
        staged: Staged::Ascii {
            id: ArtifactId::Stream,
            span: "pipeline.artifact.stream",
            faulted: true,
        },
    },
];

pub struct Batch {
    pub name: &'static str,
    pub shape: Shape,
    pub commands: &'static [Command],
    /// The probe section that stages these same commands.
    pub own: Section,
}

pub const COLD: Batch = Batch {
    name: "batch-cold",
    shape: scenario::BATCH_COLD,
    commands: &[TABLE5],
    own: Section::StagedTable5,
};

pub const MULTI: Batch = Batch {
    name: "batch-multirun",
    shape: scenario::BATCH_MULTIRUN,
    commands: &MULTIRUN,
    own: Section::MultirunArtifacts,
};

pub struct Inputs {
    pub spec: ScenarioSpec,
    /// Full argument lists, `--spec <generated file>` included.
    pub argvs: Vec<Vec<String>>,
    /// What `pmss_pipeline::cli::run` returns in process for each.
    pub expected: Vec<String>,
}

/// `argv` plus `--spec <path>`.
pub fn argv_with_spec(argv: &[&str], spec_path: &std::path::Path) -> Vec<String> {
    let mut full: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    full.push("--spec".to_string());
    full.push(spec_path.display().to_string());
    full
}

/// Runs one `pmss` process to completion; seconds from spawn to exit, and
/// what was wrong with it, if anything.
pub fn run_process(ctx: &Ctx, argv: &[String], expected: &str) -> (f64, Option<String>) {
    let start = Instant::now();
    let output = Process::new(&ctx.pmss)
        .args(argv)
        .stdin(Stdio::null())
        .output();
    let wall_s = start.elapsed().as_secs_f64();
    let problem = match output {
        Err(e) => Some(format!("pmss {argv:?} did not start: {e}")),
        Ok(o) if !o.status.success() => Some(format!(
            "pmss {argv:?} exited with {}: {}",
            o.status,
            String::from_utf8_lossy(&o.stderr).trim()
        )),
        Ok(o) if o.stdout != expected.as_bytes() => Some(format!(
            "pmss {argv:?} printed {} bytes that differ from cli::run in process ({} bytes)",
            o.stdout.len(),
            expected.len()
        )),
        Ok(_) => None,
    };
    (wall_s, problem)
}

/// The in-process layer calls behind one command, each in a span, all
/// inside one `pipeline.staged` span whose self time is what the stage,
/// render and teardown spans leave uncovered; returns the rendered output.
pub fn staged(cmd: &Command, spec: &ScenarioSpec, t: &mut Tracer) -> Result<String, String> {
    let whole = t.open("pipeline.staged");
    let out = staged_calls(cmd, spec, t);
    t.close(whole, 0, out.as_ref().map_or(0, |o| o.len() as u64));
    out
}

fn staged_calls(cmd: &Command, spec: &ScenarioSpec, t: &mut Tracer) -> Result<String, String> {
    match cmd.staged {
        Staged::Table5Json => {
            let mut p = Pipeline::new(spec.clone()).map_err(err("pipeline"))?;
            let id = t.open("pipeline.stage_fleet");
            p.fleet().map_err(err("fleet stage"))?;
            t.close(id, scenario::window_events(spec), 0);
            let id = t.open("pipeline.stage_table3");
            p.table3().map_err(err("table3 stage"))?;
            t.close(id, 0, 0);
            let id = t.open("pipeline.stage_projection");
            let art = p
                .artifact(ArtifactId::Table5)
                .map_err(err("projection stage"))?;
            t.close(id, 0, 0);
            let id = t.open("pipeline.render_json");
            let out = art.to_json().to_string_pretty();
            t.close(id, 0, out.len() as u64);
            // `cli::run` drops its pipeline — fleet artifacts and caches —
            // before it returns; that is part of what the command costs.
            let id = t.open("pipeline.teardown");
            drop(p);
            t.close(id, 0, 0);
            Ok(out)
        }
        Staged::Ascii { id, span, faulted } => {
            let mut spec = spec.clone();
            if faulted {
                spec.faults = Some(FaultPlan::preset(FAULT_PRESET).map_err(err("fault preset"))?);
            }
            let mut p = Pipeline::new(spec).map_err(err("pipeline"))?;
            let sid = t.open(span);
            let art = p.artifact(id).map_err(err("artifact"))?;
            t.close(sid, 0, 0);
            let sid = t.open("pipeline.render_ascii");
            let out = art.render_ascii();
            t.close(sid, 0, out.len() as u64);
            let sid = t.open("pipeline.teardown");
            drop(p);
            t.close(sid, 0, 0);
            Ok(out)
        }
    }
}

impl Workload for Batch {
    type Inputs = Inputs;
    const CHILD_PROCESSES: bool = true;

    fn name(&self) -> &'static str {
        self.name
    }

    fn spec(&self, seed: u64, smoke: bool) -> ScenarioSpec {
        scenario::spec(self.name, self.shape, seed, smoke)
    }

    /// Writes the spec file and computes, in process, the bytes every CLI
    /// run must print.
    fn setup(&self, seed: u64, ctx: &Ctx) -> Result<Inputs, String> {
        let spec = self.spec(seed, ctx.smoke);
        let path = scenario::write_spec(&ctx.out_dir, &spec).map_err(err("spec file"))?;
        let argvs: Vec<Vec<String>> = self
            .commands
            .iter()
            .map(|c| argv_with_spec(c.argv, &path))
            .collect();
        let expected = argvs
            .iter()
            .map(|argv| cli_run(argv).map_err(err("cli::run in process")))
            .collect::<Result<_, _>>()?;
        Ok(Inputs {
            spec,
            argvs,
            expected,
        })
    }

    fn rep(&self, inputs: &Inputs, ctx: &Ctx) -> Rep {
        let mut rep = Rep::default();
        for (argv, expected) in inputs.argvs.iter().zip(&inputs.expected) {
            let (wall_s, problem) = run_process(ctx, argv, expected);
            rep.wall_s += wall_s;
            rep.windows += scenario::window_events(&inputs.spec);
            rep.checks.check(problem);
        }
        // The caller's one operation is the whole command list: it takes
        // the telemetry in and answers.
        rep.block_s.push(rep.wall_s);
        rep.query_s.push(rep.wall_s);
        rep
    }

    fn traced_rep(&self, inputs: &Inputs, _ctx: &Ctx, t: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let start = Instant::now();
        for (cmd, expected) in self.commands.iter().zip(&inputs.expected) {
            let out = staged(cmd, &inputs.spec, t);
            rep.windows += scenario::window_events(&inputs.spec);
            rep.checks.check(match (out, cmd.staged) {
                (Err(e), _) => Some(e),
                // The CLI wraps the JSON artifact in an envelope the
                // pipeline does not expose, so only ASCII compares.
                (Ok(_), Staged::Table5Json) => None,
                (Ok(out), Staged::Ascii { .. }) => (out != *expected)
                    .then(|| format!("staged {:?} differs from cli::run", cmd.argv)),
            });
        }
        rep.wall_s = start.elapsed().as_secs_f64();
        rep
    }

    fn own_section(&self) -> Option<Section> {
        Some(self.own)
    }
}
