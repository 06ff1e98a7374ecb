//! Econ differential tests: economics must be invisible until asked for.
//!
//! A flat trace — whether the `econ` field is omitted or spelled
//! `--econ flat` — renders every artifact byte-for-byte identical to the
//! pre-econ goldens, clean and under the `frontier-typical` fault
//! preset, in both renderings.  And the `econ` query answered by a live
//! `pmssd` daemon over a streamed campaign is byte-identical to the
//! batch `pmss query econ` comparator over the same events — the same
//! differential guarantee the daemon gives for every other query kind.

use pmss::econ::EconTrace;
use pmss::pipeline::{cli, ArtifactId, Pipeline, ScalePreset, ScenarioSpec};
use pmss_pipeline::query::Query;
use pmssd::client::{ingest_campaign, Connection, Target};
use pmssd::daemon::{Daemon, DaemonConfig, Listen};

fn golden(name: &str, ext: &str) -> String {
    let path = format!("tests/golden/{name}.{ext}");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// A quick-scale spec that names the flat trace explicitly instead of
/// omitting it.
fn flat_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
    spec.econ = Some(EconTrace::flat());
    spec
}

/// An explicit flat trace renders every artifact — all 26 of them —
/// byte-for-byte identical to the goldens captured without one.
#[test]
fn flat_trace_spec_renders_every_golden_byte_for_byte() {
    let mut p = Pipeline::new(flat_spec()).expect("valid spec");
    let mut bad = Vec::new();
    for id in ArtifactId::all() {
        let got = p.artifact(id).expect("artifact").render_ascii();
        if got != golden(id.name(), "txt") {
            bad.push(id.name());
        }
    }
    assert!(
        bad.is_empty(),
        "flat econ trace drifted from pre-econ goldens: {}",
        bad.join(", ")
    );
}

/// `--econ flat` on the CLI is a no-op for output bytes: clean and
/// `frontier-typical`-faulted runs both reproduce the goldens in both
/// renderings — including `whatif`, whose render grows an econ section
/// the moment a trace is *active*.
#[test]
fn flat_econ_cli_flag_matches_clean_and_faulted_goldens() {
    let cases: [(&[&str], &str, &str); 10] = [
        (&["table3", "--scale", "quick"], "table3", "txt"),
        (&["table3", "--scale", "quick", "--json"], "table3", "json"),
        (&["whatif", "--scale", "quick"], "whatif", "txt"),
        (&["econ", "--scale", "quick"], "econ", "txt"),
        (&["econ", "--scale", "quick", "--json"], "econ", "json"),
        (
            &["govern", "--scale", "quick", "--faults", "frontier-typical"],
            "govern-frontier-typical",
            "txt",
        ),
        (
            &[
                "govern",
                "--scale",
                "quick",
                "--faults",
                "frontier-typical",
                "--json",
            ],
            "govern-frontier-typical",
            "json",
        ),
        (
            &["stream", "--scale", "quick", "--faults", "frontier-typical"],
            "stream-frontier-typical",
            "txt",
        ),
        (
            &[
                "table",
                "4",
                "--scale",
                "quick",
                "--faults",
                "frontier-typical",
            ],
            "table4-frontier-typical",
            "txt",
        ),
        (
            &[
                "table",
                "4",
                "--scale",
                "quick",
                "--faults",
                "frontier-typical",
                "--json",
            ],
            "table4-frontier-typical",
            "json",
        ),
    ];
    for (argv, name, ext) in cases {
        let mut args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        args.push("--econ".to_string());
        args.push("flat".to_string());
        let got = cli::run(&args).expect("cli run");
        assert_eq!(got, golden(name, ext), "--econ flat drift in {name}.{ext}");
    }
}

/// An in-process daemon on a fresh port, plus its run thread.
struct Harness {
    target: Target,
    thread: std::thread::JoinHandle<Result<(), pmss_error::PmssError>>,
}

fn start_daemon() -> Harness {
    let cfg = DaemonConfig {
        listen: Listen::Tcp("127.0.0.1:0".to_string()),
        metrics_addr: None,
        queue_depth: 64,
        sync_interval: 8,
    };
    let daemon = Daemon::bind(cfg).expect("bind on port 0");
    let addr = daemon.local_addr().expect("tcp listener has an address");
    let thread = std::thread::spawn(move || daemon.run());
    Harness {
        target: Target::Tcp(addr.to_string()),
        thread,
    }
}

impl Harness {
    fn stop(self) {
        let mut conn = Connection::connect(&self.target).expect("connect for shutdown");
        conn.shutdown().expect("shutdown acked");
        self.thread
            .join()
            .expect("daemon thread joins")
            .expect("daemon exits cleanly");
    }
}

/// The daemon's `econ` answer over a streamed campaign is byte-identical
/// to the batch `pmss query econ` comparator — clean under `diurnal`,
/// faulted under `duck-curve` — and a tenant opened *without* a trace
/// rejects the query with a typed error instead of inventing one.
#[test]
fn daemon_econ_answers_are_byte_identical_to_batch() {
    let h = start_daemon();
    let cases: [(&str, &str, Option<&str>); 2] = [
        ("clean-diurnal", "diurnal", None),
        ("faulted-duck", "duck-curve", Some("frontier-typical")),
    ];
    for (tenant, trace, faults) in cases {
        let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
        spec.econ = EconTrace::preset(trace);
        if let Some(name) = faults {
            spec.faults = Some(pmss::faults::FaultPlan::preset(name).expect("known preset"));
        }
        let mut conn = Connection::connect(&h.target).expect("connect");
        conn.open(tenant, Some(&spec)).expect("open with spec");
        let report = ingest_campaign(&mut conn, &spec).expect("ingest");
        assert!(report.blocks > 0 && report.rows > 0);
        let daemon_answer = conn.query(&Query::Econ).expect("daemon answers econ");

        let mut argv = vec!["query", "econ", "--scale", "quick", "--econ", trace];
        if let Some(name) = faults {
            argv.extend_from_slice(&["--faults", name]);
        }
        let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let batch_answer = cli::run(&args).expect("batch comparator");
        assert_eq!(
            daemon_answer, batch_answer,
            "daemon vs batch econ mismatch for {tenant}"
        );
    }

    // No trace on the tenant: the query bounces with a typed rejection
    // and never crashes the worker.
    let mut conn = Connection::connect(&h.target).expect("connect");
    conn.open("traceless", Some(&ScenarioSpec::preset(ScalePreset::Quick)))
        .expect("open");
    assert!(conn.query(&Query::Econ).is_err(), "traceless econ answered");
    h.stop();
}
