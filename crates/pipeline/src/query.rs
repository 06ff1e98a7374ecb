//! The read-query vocabulary shared by the batch CLI and the `pmssd`
//! daemon.
//!
//! The daemon's differential guarantee — every query answer byte-identical
//! to the batch CLI over the same event prefix — only holds if both sides
//! render through *one* code path.  This module is that path: a typed
//! [`Query`] (parsed from CLI positionals or the daemon's JSON wire form)
//! and one [`answer`] function from a [`StreamState`] + Table III to the
//! response [`Json`].  The batch side builds its `StreamState` from a
//! resident-store replay (`pmss query …`); the daemon builds its from the
//! ingest engine's published snapshot; both then call [`answer`].

use pmss_econ::{shift, EconTrace};
use pmss_error::PmssError;
use pmss_gpu::consts::JOULES_PER_MWH;
use pmss_stream::StreamState;
use pmss_workloads::{CapSetting, Table3};

use crate::json::Json;
use crate::render::{bounds_json, coverage_json, projection_json, projection_row_json};

/// One read query against a streamed (or batch-replayed) fleet state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Full savings projection at Frontier scale (Table V shape).
    Projection,
    /// Per-mode coverage accounting plus coverage-adjusted headline
    /// bounds.
    Coverage,
    /// Energy-ledger slice: per-region GPU seconds and joules.
    Ledger,
    /// What-if reprojection: the projection row for one cap setting on
    /// the spec's ladder.
    WhatIf(CapSetting),
    /// Cost/CO₂ of the ingested energy under the scenario's econ trace,
    /// with the temporal-shifting what-if.
    Econ,
}

impl Query {
    /// The query's wire/CLI name.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Projection => "projection",
            Query::Coverage => "coverage",
            Query::Ledger => "ledger",
            Query::WhatIf(_) => "whatif",
            Query::Econ => "econ",
        }
    }

    /// Parses the CLI positional form: `projection | coverage | ledger |
    /// econ | whatif <freq_mhz|power_w> <VALUE>`.
    pub fn from_args(args: &[String]) -> Result<Query, PmssError> {
        match args {
            [kind] if kind == "projection" => Ok(Query::Projection),
            [kind] if kind == "coverage" => Ok(Query::Coverage),
            [kind] if kind == "ledger" => Ok(Query::Ledger),
            [kind] if kind == "econ" => Ok(Query::Econ),
            [kind, knob, value] if kind == "whatif" => {
                Ok(Query::WhatIf(parse_setting(knob, value)?))
            }
            _ => Err(PmssError::Usage(
                "query takes: projection | coverage | ledger | econ | \
                 whatif <freq_mhz|power_w> <VALUE>"
                    .to_string(),
            )),
        }
    }

    /// Parses the daemon wire form, e.g. `{"kind":"whatif",
    /// "knob":"freq_mhz","value":1500}`.
    pub fn from_json(v: &Json) -> Result<Query, PmssError> {
        let malformed = |detail: &str| PmssError::malformed("query", detail.to_string());
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| malformed("missing string field `kind`"))?;
        match kind {
            "projection" => Ok(Query::Projection),
            "coverage" => Ok(Query::Coverage),
            "ledger" => Ok(Query::Ledger),
            "econ" => Ok(Query::Econ),
            "whatif" => {
                let knob = v
                    .get("knob")
                    .and_then(Json::as_str)
                    .ok_or_else(|| malformed("whatif needs string field `knob`"))?;
                let value = v
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| malformed("whatif needs numeric field `value`"))?;
                Ok(Query::WhatIf(parse_setting(knob, &value.to_string())?))
            }
            other => Err(malformed(&format!("unknown query kind {other:?}"))),
        }
    }

    /// The wire form [`Query::from_json`] parses.
    pub fn to_json(&self) -> Json {
        let obj = Json::obj().field("kind", self.kind());
        match self {
            Query::WhatIf(CapSetting::FreqMhz(m)) => {
                obj.field("knob", "freq_mhz").field("value", *m)
            }
            Query::WhatIf(CapSetting::PowerW(w)) => obj.field("knob", "power_w").field("value", *w),
            _ => obj,
        }
    }
}

fn parse_setting(knob: &str, value: &str) -> Result<CapSetting, PmssError> {
    let v = value
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| PmssError::invalid_value("what-if", value, "a finite cap value"))?;
    match knob {
        "freq_mhz" => Ok(CapSetting::FreqMhz(v)),
        "power_w" => Ok(CapSetting::PowerW(v)),
        other => Err(PmssError::invalid_value(
            "what-if knob",
            other,
            "freq_mhz | power_w",
        )),
    }
}

/// Answers `query` against `state` — the single render path both the
/// batch CLI and the daemon go through (see module docs).  `econ` is the
/// scenario's active trace; `Query::Econ` needs both it and a state whose
/// ingest path accumulated the per-slot series.
pub fn answer(
    state: &StreamState,
    table3: &Table3,
    econ: Option<&EconTrace>,
    query: &Query,
) -> Result<Json, PmssError> {
    match query {
        Query::Econ => {
            let trace = econ.ok_or_else(|| {
                PmssError::missing(
                    "econ trace",
                    "the scenario carries no active econ trace (pass --econ)",
                )
            })?;
            let series = state.econ().ok_or_else(|| {
                PmssError::missing(
                    "econ series",
                    "this state's ingest path accumulated no per-slot series",
                )
            })?;
            let scaled = series.scaled(state.frontier_factor())?;
            let flat = EconTrace::flat();
            let out = shift(&scaled, trace)?;
            Ok(Json::obj()
                .field("trace", trace.name.as_str())
                .field("slots", scaled.num_slots())
                .field("total_gpu_mwh", scaled.total_gpu_j() / JOULES_PER_MWH)
                .field("cost_usd", out.baseline_cost_usd)
                .field("carbon_t", out.baseline_carbon_kg / 1e3)
                .field("ref_cost_usd", scaled.cost_usd(&flat))
                .field("ref_carbon_t", scaled.carbon_kg(&flat) / 1e3)
                .field(
                    "shift",
                    Json::obj()
                        .field("deadline_slots", out.deadline_slots)
                        .field("budget_mw", out.budget_w / 1e6)
                        .field("moved_mwh", out.moved_mwh)
                        .field("moves", out.moves.len())
                        .field("shifted_cost_usd", out.shifted_cost_usd)
                        .field("uniform_cost_usd", out.uniform_cost_usd)
                        .field("shifted_carbon_t", out.shifted_carbon_kg / 1e3),
                ))
        }
        Query::Projection => Ok(projection_json(&state.projection(table3)?)),
        Query::Coverage => Ok(Json::obj()
            .field("coverage", coverage_json(&state.coverage()))
            .field(
                "best_free_bounds",
                bounds_json(&state.coverage_bounds(table3)?),
            )),
        Query::Ledger => {
            let totals = state.ledger().region_totals();
            let total = state.ledger().total();
            Ok(Json::obj()
                .field(
                    "regions",
                    Json::Arr(
                        pmss_core::Region::all()
                            .iter()
                            .zip(totals.iter())
                            .map(|(r, c)| {
                                Json::obj()
                                    .field("region", r.label())
                                    .field("seconds", c.seconds)
                                    .field("joules", c.joules)
                            })
                            .collect(),
                    ),
                )
                .field(
                    "total",
                    Json::obj()
                        .field("seconds", total.seconds)
                        .field("joules", total.joules),
                ))
        }
        Query::WhatIf(setting) => {
            let p = state.projection(table3)?;
            let ladder = match setting {
                CapSetting::FreqMhz(_) => &p.freq_rows,
                CapSetting::PowerW(_) => &p.power_rows,
            };
            ladder
                .iter()
                .find(|r| r.setting == *setting)
                .map(projection_row_json)
                .ok_or_else(|| {
                    PmssError::invalid_value(
                        "what-if setting",
                        format!("{setting:?}"),
                        "a setting on the spec's cap ladder",
                    )
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_and_wire_forms_agree() {
        let cases: [(&[&str], Query); 5] = [
            (&["projection"], Query::Projection),
            (&["coverage"], Query::Coverage),
            (&["ledger"], Query::Ledger),
            (&["econ"], Query::Econ),
            (
                &["whatif", "power_w", "400"],
                Query::WhatIf(CapSetting::PowerW(400.0)),
            ),
        ];
        for (args, want) in cases {
            let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let q = Query::from_args(&owned).unwrap();
            assert_eq!(q, want);
            assert_eq!(Query::from_json(&q.to_json()).unwrap(), q);
        }
    }

    #[test]
    fn hostile_query_forms_are_typed_errors() {
        for bad in [
            vec!["frobnicate".to_string()],
            vec!["whatif".to_string(), "volts".to_string(), "12".to_string()],
            vec![
                "whatif".to_string(),
                "power_w".to_string(),
                "NaN".to_string(),
            ],
            vec![],
        ] {
            assert!(Query::from_args(&bad).is_err(), "{bad:?}");
        }
        assert!(Query::from_json(&Json::obj()).is_err());
        assert!(Query::from_json(&Json::obj().field("kind", "whatif")).is_err());
    }
}
