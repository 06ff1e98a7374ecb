//! The `pmss` binary: one CLI for every paper figure, table, and
//! extension.  All logic lives in `pmss_pipeline::cli` (batch artifacts)
//! and `pmssd::cli` (the streaming daemon and its client); this shim
//! only wires argv, stdout, and the exit code.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => pmssd::cli::run_serve(&args[1..]),
        Some("client") => pmssd::cli::run_client(&args[1..]),
        _ => pmss_pipeline::cli::run(&args),
    };
    match result {
        Ok(out) => {
            let mut stdout = std::io::stdout().lock();
            let written = stdout
                .write_all(out.as_bytes())
                .and_then(|()| stdout.flush());
            match written {
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("pmss: writing output: {e}");
                    ExitCode::FAILURE
                }
                // Written, or read by a reader that closed the pipe
                // (`pmss fig 8 | head`) once it had all it asked for.
                _ => ExitCode::SUCCESS,
            }
        }
        Err(err) => {
            eprintln!("pmss: {err}");
            ExitCode::FAILURE
        }
    }
}
