//! One run's result: the JSON object a run prints as its last line, and the
//! same object read back.

use crate::catalog::Metric;
use crate::surface::Json;
use crate::workload::Checks;

#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in catalog order.
    pub metrics: Vec<(String, f64, String)>,
    /// One line per failed operation; printed, not part of the JSON result.
    pub failures: Vec<String>,
}

impl RunResult {
    /// Pairs `values` with `catalog`; the two must name the same metrics in
    /// the same order.  A value that is not a finite number is a failure.
    pub fn new(catalog: &[Metric], values: &[(&'static str, f64)], checks: Checks) -> RunResult {
        assert_eq!(catalog.len(), values.len(), "every metric, exactly once");
        let mut failed = checks.failures.len() as u64;
        let metrics = catalog
            .iter()
            .zip(values)
            .map(|(m, (name, value))| {
                assert_eq!(m.name, *name, "metrics in catalog order");
                let value = if value.is_finite() {
                    *value
                } else {
                    failed += 1;
                    0.0
                };
                (m.name.to_string(), value, m.unit.to_string())
            })
            .collect();
        RunResult {
            correct: failed == 0,
            attempted: checks.attempted.max(1),
            failed,
            metrics,
            failures: checks.failures,
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The result object; values keep every digit measured.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .fold(Json::obj(), |obj, (name, value, unit)| {
                let metric = Json::obj()
                    .field("value", *value)
                    .field("unit", unit.as_str());
                obj.field(name, metric)
            });
        Json::obj()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
    }

    /// The result as the one line a run ends its standard output with.
    pub fn to_json_line(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Reads a result back from the last line of a run's standard output.
    pub fn from_stdout(stdout: &str) -> Result<RunResult, String> {
        let line = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or("the run printed nothing")?;
        let doc = Json::parse(line).map_err(|e| format!("last line is not JSON: {e}"))?;
        let number = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("result has no number {key:?}"))
        };
        let correct = match doc.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("result has no boolean \"correct\"".to_string()),
        };
        let Some(Json::Obj(entries)) = doc.get("metrics") else {
            return Err("result has no \"metrics\" object".to_string());
        };
        let metrics = entries
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                    _ => Err(format!("metric {name:?} lacks a value or a unit")),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(RunResult {
            correct,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            metrics,
            failures: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::END_TO_END;

    fn values() -> Vec<(&'static str, f64)> {
        END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.25 + i as f64 / 3.0))
            .collect()
    }

    fn checks(attempted: u64, failures: &[&str]) -> Checks {
        Checks {
            attempted,
            failures: failures.iter().map(|f| f.to_string()).collect(),
        }
    }

    #[test]
    fn result_line_parses_back_through_the_programs_json() {
        let result = RunResult::new(&END_TO_END, &values(), checks(42, &[]));
        assert!(result.correct);
        let line = result.to_json_line();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("the result line is JSON");
        let keys: Vec<&str> = match &doc {
            Json::Obj(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let stdout = format!("setup_s 1.25 s\n\n{line}\n");
        assert_eq!(RunResult::from_stdout(&stdout).unwrap(), result);
    }

    #[test]
    fn failures_and_non_finite_values_make_a_run_incorrect() {
        let failed = RunResult::new(&END_TO_END, &values(), checks(3, &["mismatch"]));
        assert_eq!((failed.correct, failed.failed), (false, 1));
        let mut bad = values();
        bad[1].1 = f64::NAN;
        let result = RunResult::new(&END_TO_END, &bad, checks(0, &[]));
        assert_eq!(
            (result.correct, result.failed, result.attempted),
            (false, 1, 1)
        );
        assert_eq!(result.value("wall_s"), Some(0.0));
        Json::parse(&result.to_json_line()).expect("still JSON");
    }
}
