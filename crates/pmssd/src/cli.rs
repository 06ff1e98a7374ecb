//! Argument parsing for `pmss serve` and `pmss client`.
//!
//! `serve` blocks until a SHUTDOWN frame arrives; `client` speaks the
//! wire protocol for ingest, queries, metrics scrapes, and shutdown.
//! Query output is returned verbatim — the same bytes `pmss query`
//! prints for the same prefix — so shell-level `cmp` against the batch
//! CLI is the smoke test.

use pmss_error::PmssError;
use pmss_pipeline::cli::{flag_value, resolve_scenario};
use pmss_pipeline::query::Query;

use crate::client::{self, Connection, Target};
use crate::daemon::{Daemon, DaemonConfig, Listen};

/// Usage text for the daemon-facing subcommands.
pub(crate) fn help_text() -> String {
    "\
pmssd — streaming multi-tenant analysis daemon

  pmss serve [--listen HOST:PORT | --unix PATH] [--metrics HOST:PORT]
             [--queue-depth N] [--sync-interval N]
      Serve tenants until a client sends shutdown.  Default listen
      address is 127.0.0.1:7878.

  pmss client ingest --tenant NAME [--addr ADDR] [--scale PRESET]
             [--spec FILE] [--faults PRESET] [--mix MIX] [--econ TRACE]
      Create/bind the tenant and stream its campaign telemetry.

  pmss client query --tenant NAME [--addr ADDR] \
projection|coverage|ledger|econ|whatif KNOB VALUE
      Query the tenant's published snapshot (byte-identical to
      `pmss query` over the same events).

  pmss client metrics [--addr HOST:PORT]
      Scrape the daemon's metrics endpoint.

  pmss client shutdown [--addr ADDR]
      Stop the daemon cleanly.

ADDR is HOST:PORT or unix:PATH (default 127.0.0.1:7878).
"
    .to_string()
}

/// Runs `pmss serve …`; blocks until shutdown.
pub fn run_serve(args: &[String]) -> Result<String, PmssError> {
    let mut cfg = DaemonConfig {
        listen: Listen::Tcp("127.0.0.1:7878".to_string()),
        ..DaemonConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => cfg.listen = Listen::Tcp(flag_value(&mut it, "--listen")?),
            "--unix" => cfg.listen = Listen::Unix(flag_value(&mut it, "--unix")?.into()),
            "--metrics" => cfg.metrics_addr = Some(flag_value(&mut it, "--metrics")?),
            "--queue-depth" => cfg.queue_depth = parse_num(&flag_value(&mut it, "--queue-depth")?)?,
            "--sync-interval" => {
                cfg.sync_interval = parse_num(&flag_value(&mut it, "--sync-interval")?)? as u64
            }
            "-h" | "--help" => return Ok(help_text()),
            other => {
                return Err(PmssError::Usage(format!(
                    "unknown serve option {other:?}; try `pmss serve --help`"
                )))
            }
        }
    }
    let daemon = Daemon::bind(cfg)?;
    // Readiness goes to stderr so stdout stays reserved for command
    // output; scripts wait on this line before connecting.
    match daemon.local_addr() {
        Some(addr) => eprintln!("pmssd listening on {addr}"),
        None => eprintln!("pmssd listening"),
    }
    if let Some(addr) = daemon.metrics_addr() {
        eprintln!("pmssd metrics on {addr}");
    }
    daemon.run()?;
    Ok("pmssd: clean shutdown\n".to_string())
}

fn parse_num(value: &str) -> Result<usize, PmssError> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(PmssError::Usage(format!(
            "expected a positive integer, got {value:?}"
        ))),
    }
}

/// Runs `pmss client <subcommand> …`.
pub fn run_client(args: &[String]) -> Result<String, PmssError> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut tenant: Option<String> = None;
    let mut scale: Option<String> = None;
    let mut spec_path: Option<String> = None;
    let mut faults: Option<String> = None;
    let mut mix: Option<String> = None;
    let mut econ: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = flag_value(&mut it, "--addr")?,
            "--tenant" => tenant = Some(flag_value(&mut it, "--tenant")?),
            "--scale" => scale = Some(flag_value(&mut it, "--scale")?),
            "--spec" => spec_path = Some(flag_value(&mut it, "--spec")?),
            "--faults" => faults = Some(flag_value(&mut it, "--faults")?),
            "--mix" => mix = Some(flag_value(&mut it, "--mix")?),
            "--econ" => econ = Some(flag_value(&mut it, "--econ")?),
            "-h" | "--help" => return Ok(help_text()),
            other if other.starts_with('-') => {
                return Err(PmssError::Usage(format!(
                    "unknown client option {other:?}; try `pmss client --help`"
                )))
            }
            other => positional.push(other.to_string()),
        }
    }
    let Some(cmd) = positional.first() else {
        return Ok(help_text());
    };
    let target = Target::parse(&addr);
    let scenario = || {
        resolve_scenario(
            scale.as_deref(),
            spec_path.as_deref(),
            faults.as_deref(),
            mix.as_deref(),
            econ.as_deref(),
        )
    };
    match cmd.as_str() {
        "ingest" => {
            let tenant = require_tenant(tenant)?;
            let spec = scenario()?;
            let mut conn = connect(&target)?;
            conn.open(&tenant, Some(&spec)).map_err(PmssError::from)?;
            let report = client::ingest_campaign(&mut conn, &spec)?;
            Ok(format!(
                "ingested {} blocks ({} rows) into tenant {:?}; {} backpressure retries\n",
                report.blocks, report.rows, tenant, report.backpressure_retries
            ))
        }
        "query" => {
            let tenant = require_tenant(tenant)?;
            let q = Query::from_args(&positional[1..])?;
            // A query normally binds an existing tenant, but passing
            // `--scale` / `--spec` lets it create one (useful for
            // empty-state queries).
            let spec = (scale.is_some() || spec_path.is_some())
                .then(scenario)
                .transpose()?;
            let mut conn = connect(&target)?;
            conn.open(&tenant, spec.as_ref()).map_err(PmssError::from)?;
            Ok(conn.query(&q).map_err(PmssError::from)?)
        }
        "metrics" => client::scrape_metrics(&addr).map_err(|e| {
            PmssError::invalid_value(
                "pmssd metrics scrape",
                e.to_string(),
                "a reachable endpoint",
            )
        }),
        "shutdown" => {
            let mut conn = connect(&target)?;
            conn.shutdown().map_err(PmssError::from)?;
            Ok("daemon shutdown acknowledged\n".to_string())
        }
        other => Err(PmssError::Usage(format!(
            "unknown client subcommand {other:?}; try `pmss client --help`"
        ))),
    }
}

fn require_tenant(tenant: Option<String>) -> Result<String, PmssError> {
    tenant.ok_or_else(|| PmssError::Usage("--tenant is required".to_string()))
}

fn connect(target: &Target) -> Result<Connection, PmssError> {
    Connection::connect(target).map_err(PmssError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_num_rejects_zero_and_non_numbers() {
        assert_eq!(parse_num("1").unwrap(), 1);
        assert_eq!(parse_num("64").unwrap(), 64);
        for bad in ["0", "-1", "", "eight"] {
            assert!(
                matches!(parse_num(bad), Err(PmssError::Usage(_))),
                "{bad:?}"
            );
        }
        // A zero depth would be a rendezvous queue (spurious BACKPRESSURE);
        // both flags fail before anything is bound.
        for flag in ["--queue-depth", "--sync-interval"] {
            let args = [flag.to_string(), "0".to_string()];
            assert!(
                matches!(run_serve(&args), Err(PmssError::Usage(_))),
                "{flag}"
            );
        }
    }

    #[test]
    fn client_ingest_resolves_mix_before_connecting() {
        // Nothing listens on this address: a resolution error must come
        // first, naming the presets, not a connection failure or `Usage`.
        let args: Vec<String> = [
            "ingest",
            "--tenant",
            "t",
            "--addr",
            "127.0.0.1:9",
            "--mix",
            "bogus",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run_client(&args).unwrap_err();
        assert!(matches!(err, PmssError::InvalidValue { .. }), "{err}");
        assert!(err.to_string().contains("mixed-50-50"), "{err}");
    }
}
