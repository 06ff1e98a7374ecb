//! Helpers shared by the integration suites: golden captures, the CLI
//! entry point, and an in-process `pmssd` daemon.  Each suite uses a
//! subset, so unused ones are not dead code.
#![allow(dead_code)]

use pmss::pipeline::cli;
use pmssd::client::{Connection, Target};
use pmssd::daemon::{Daemon, DaemonConfig, Listen};

/// A pinned capture under `tests/golden/`.
pub fn golden(name: &str, ext: &str) -> String {
    let path = format!("tests/golden/{name}.{ext}");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Runs the `pmss` CLI in process and returns what it would print.
pub fn cli_run(list: &[&str]) -> String {
    let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
    cli::run(&args).unwrap_or_else(|e| panic!("pmss {}: {e}", list.join(" ")))
}

/// An in-process daemon, plus its run thread.
pub struct Harness {
    pub target: Target,
    metrics_addr: String,
    thread: std::thread::JoinHandle<Result<(), pmss_error::PmssError>>,
}

impl Harness {
    /// Binds a daemon on `listen` (port 0 picks a free TCP port), with a
    /// metrics endpoint on a free port, and runs it on its own thread.
    pub fn start(listen: Listen, queue_depth: usize, sync_interval: u64) -> Harness {
        let cfg = DaemonConfig {
            listen: listen.clone(),
            metrics_addr: Some("127.0.0.1:0".to_string()),
            queue_depth,
            sync_interval,
        };
        let daemon = Daemon::bind(cfg).expect("daemon binds");
        let target = match listen {
            Listen::Tcp(_) => {
                let addr = daemon.local_addr().expect("tcp listener has an address");
                Target::Tcp(addr.to_string())
            }
            Listen::Unix(path) => Target::Unix(path),
        };
        let metrics_addr = daemon.metrics_addr().expect("metrics bound").to_string();
        let thread = std::thread::spawn(move || daemon.run());
        Harness {
            target,
            metrics_addr,
            thread,
        }
    }

    /// A daemon on a free loopback TCP port.
    pub fn tcp(queue_depth: usize, sync_interval: u64) -> Harness {
        Harness::start(
            Listen::Tcp("127.0.0.1:0".to_string()),
            queue_depth,
            sync_interval,
        )
    }

    /// The daemon's `/metrics` scrape.
    pub fn scrape(&self) -> String {
        pmssd::client::scrape_metrics(&self.metrics_addr).expect("scrape")
    }

    /// Sends SHUTDOWN and joins the run thread, which must exit cleanly.
    pub fn stop(self) {
        let mut conn = Connection::connect(&self.target).expect("connect for shutdown");
        conn.shutdown().expect("shutdown acked");
        self.thread
            .join()
            .expect("daemon thread joins")
            .expect("daemon exits cleanly");
    }
}
