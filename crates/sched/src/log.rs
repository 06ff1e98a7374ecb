//! SLURM-like job-log serialization (paper Table II b).
//!
//! The paper's pipeline ingests scheduler logs as text records with
//! `job_id`, `project_id`, `num_nodes`, `begin_time`, and `end_time`.
//! This module renders a [`Schedule`](crate::gen::Schedule)'s job list in
//! that format (Table II prints its first records).

use std::io::{self, Write};

use pmss_workloads::AppClass;

use crate::gen::Job;

/// Column header of the log format.
pub(crate) const HEADER: &str =
    "job_id|project_id|num_nodes|size_class|begin_s|end_s|app_class|seed";

fn app_class_code(c: AppClass) -> &'static str {
    match c {
        AppClass::ComputeIntensive => "CI",
        AppClass::MemoryIntensive => "MI",
        AppClass::LatencyBound => "LB",
        AppClass::Mixed => "MX",
    }
}

/// Writes the job log, one pipe-separated record per job.
pub fn write_log<W: Write>(mut w: W, jobs: &[Job]) -> io::Result<()> {
    writeln!(w, "{HEADER}")?;
    for j in jobs {
        writeln!(
            w,
            "{}|{}|{}|{}|{:.3}|{:.3}|{}|{}",
            j.id,
            j.project_id,
            j.num_nodes,
            j.size_class.label(),
            j.begin_s,
            j.end_s,
            app_class_code(j.app_class),
            j.seed,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::catalog;
    use crate::gen::{generate, TraceParams};
    use crate::policy::JobSizeClass;
    use std::io::{BufRead, BufReader};

    fn parse_app_class(s: &str) -> Option<AppClass> {
        match s {
            "CI" => Some(AppClass::ComputeIntensive),
            "MI" => Some(AppClass::MemoryIntensive),
            "LB" => Some(AppClass::LatencyBound),
            "MX" => Some(AppClass::Mixed),
            _ => None,
        }
    }

    fn parse_size_class(s: &str) -> Option<JobSizeClass> {
        JobSizeClass::all()
            .into_iter()
            .find(|c| c.label().to_string() == s)
    }

    /// Parses a log written by [`write_log`]: the oracle that every field
    /// survives the text format.  The `domain` field is reconstructed from
    /// the project-id prefix against `domain_codes` (the paper does exactly
    /// this join).
    fn read_log<R: BufRead>(r: R, domain_codes: &[&str]) -> io::Result<Vec<Job>> {
        let mut out = Vec::new();
        for (lineno, line) in r.lines().enumerate() {
            let line = line?;
            if lineno == 0 || line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('|').collect();
            let err = |msg: &str| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: {msg}: {line:?}", lineno + 1),
                )
            };
            if fields.len() != 8 {
                return Err(err("expected 8 fields"));
            }
            let project_id = fields[1].to_string();
            let domain = domain_codes
                .iter()
                .position(|c| project_id.starts_with(c))
                .ok_or_else(|| err("unknown project prefix"))?;
            out.push(Job {
                id: fields[0].parse().map_err(|_| err("bad job_id"))?,
                domain,
                project_id,
                num_nodes: fields[2].parse().map_err(|_| err("bad num_nodes"))?,
                size_class: parse_size_class(fields[3]).ok_or_else(|| err("bad size_class"))?,
                begin_s: fields[4].parse().map_err(|_| err("bad begin_s"))?,
                end_s: fields[5].parse().map_err(|_| err("bad end_s"))?,
                app_class: parse_app_class(fields[6]).ok_or_else(|| err("bad app_class"))?,
                seed: fields[7].parse().map_err(|_| err("bad seed"))?,
            });
        }
        Ok(out)
    }

    #[test]
    fn log_round_trips() {
        let cat = catalog();
        let codes: Vec<&str> = cat.iter().map(|d| d.code).collect();
        let s = generate(
            TraceParams {
                nodes: 8,
                duration_s: 12.0 * 3600.0,
                seed: 4,
                min_job_s: 900.0,
            },
            &cat,
        );
        let mut buf = Vec::new();
        write_log(&mut buf, &s.jobs).unwrap();
        let back = read_log(BufReader::new(buf.as_slice()), &codes).unwrap();
        assert_eq!(back.len(), s.jobs.len());
        for (a, b) in s.jobs.iter().zip(&back) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.project_id, b.project_id);
            assert_eq!(a.num_nodes, b.num_nodes);
            assert_eq!(a.size_class, b.size_class);
            assert_eq!(a.app_class, b.app_class);
            assert_eq!(a.seed, b.seed);
            assert!((a.begin_s - b.begin_s).abs() < 1e-3);
            assert!((a.end_s - b.end_s).abs() < 1e-3);
        }
    }

    #[test]
    fn unknown_prefix_is_an_error() {
        let log = format!("{HEADER}\n1|ZZZ123|4|E|0.0|100.0|MI|7\n");
        let e = read_log(BufReader::new(log.as_bytes()), &["CPH"]).unwrap_err();
        assert!(e.to_string().contains("unknown project prefix"));
    }

    #[test]
    fn malformed_records_are_errors() {
        for bad in [
            "1|CPH1|4|E|0.0|100.0|MI",   // missing field
            "x|CPH1|4|E|0.0|100.0|MI|7", // bad id
            "1|CPH1|4|Q|0.0|100.0|MI|7", // bad class
            "1|CPH1|4|E|0.0|100.0|??|7", // bad app class
        ] {
            let log = format!("{HEADER}\n{bad}\n");
            assert!(
                read_log(BufReader::new(log.as_bytes()), &["CPH"]).is_err(),
                "accepted {bad:?}"
            );
        }
    }
}
