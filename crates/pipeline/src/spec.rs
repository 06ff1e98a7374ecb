//! The typed scenario specification: one value that describes everything a
//! pipeline run needs.
//!
//! A [`ScenarioSpec`] carries the fleet shape (nodes, trace length, seed)
//! and the cap ladders swept by the benchmark stage — validated at
//! construction and round-trippable through JSON.  The modal-region
//! boundaries are not part of it: the ledger bins at Table IV's fixed
//! bands, so a spec's `boundaries_w` may restate them but not move them.
//! The three named presets (`quick`, `medium`, `large`) reproduce the
//! historical `PMSS_SCALE` environment handling, but parsing is now
//! explicit: an unrecognized value is a [`PmssError::InvalidValue`], not a
//! silent fall back to `quick`.

use pmss_core::sensitivity::Boundaries;
use pmss_econ::EconTrace;
use pmss_error::PmssError;
use pmss_faults::{FaultPlan, GapPolicy};
use pmss_govern::{GovernorPlan, Policy};
use pmss_gpu::consts::GPU_TDP_W;
use pmss_gpu::{FleetMix, Freq};
use pmss_graph::case_study::CaseScale;
use pmss_sched::policy::FRONTIER_NODES;
use pmss_sched::TraceParams;
use pmss_workloads::sweep::{CapSetting, FREQ_CAPS_MHZ, POWER_CAPS_W};

use crate::json::Json;

/// The environment variable selecting a scale preset.
pub(crate) const SCALE_ENV: &str = "PMSS_SCALE";

/// Days of the paper's campaign: three months of Frontier telemetry
/// (Table II).
pub(crate) const PAPER_CAMPAIGN_DAYS: f64 = 90.0;

/// What a spec may ask for: ten times the paper's machine (Table I), its
/// campaign, and their product in node-days.  Every allocation a run makes
/// is sized by these, and a spec can arrive in a daemon OPEN frame, so one
/// hostile spec must not be able to abort the process.
const MAX_NODES: usize = 10 * FRONTIER_NODES;
const MAX_DAYS: f64 = 10.0 * PAPER_CAMPAIGN_DAYS;
const MAX_NODE_DAYS: f64 = 10.0 * FRONTIER_NODES as f64 * PAPER_CAMPAIGN_DAYS;

/// Entries a cap ladder may hold: ten times the paper's six-rung ladders
/// (Table III).  Each entry is one more Table III setting swept when a
/// pipeline or a daemon tenant starts.
const MAX_FREQ_CAPS: usize = 10 * FREQ_CAPS_MHZ.len();
const MAX_POWER_CAPS: usize = 10 * POWER_CAPS_W.len();

/// Named experiment scales (the former `pmss_bench::Scale`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalePreset {
    /// 16 nodes x 2 days — seconds of runtime.
    Quick,
    /// 64 nodes x 7 days.
    Medium,
    /// 160 nodes x 14 days.
    Large,
}

impl ScalePreset {
    /// All presets.
    pub fn all() -> [ScalePreset; 3] {
        [ScalePreset::Quick, ScalePreset::Medium, ScalePreset::Large]
    }

    /// The preset's name as accepted by `PMSS_SCALE`.
    pub fn name(self) -> &'static str {
        match self {
            ScalePreset::Quick => "quick",
            ScalePreset::Medium => "medium",
            ScalePreset::Large => "large",
        }
    }

    /// Parses a preset name given through `source` (the flag or variable
    /// the error names); unrecognized names are an explicit error.
    pub(crate) fn from_name(source: &str, name: &str) -> Result<ScalePreset, PmssError> {
        ScalePreset::all()
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| PmssError::invalid_value(source, name, "quick | medium | large"))
    }

    /// Fleet shape of the preset: `(nodes, days)`.
    pub(crate) fn shape(self) -> (usize, f64) {
        match self {
            ScalePreset::Quick => (16, 2.0),
            ScalePreset::Medium => (64, 7.0),
            ScalePreset::Large => (160, 14.0),
        }
    }
}

/// A validated, serializable description of one pipeline scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (a preset name, or free-form for custom scenarios).
    pub name: String,
    /// Fleet size in nodes.
    pub nodes: usize,
    /// Trace length in days.
    pub days: f64,
    /// Trace-generation seed.
    pub seed: u64,
    /// Minimum job duration, seconds.
    pub min_job_s: f64,
    /// Frequency-cap ladder, MHz; the first entry is the uncapped baseline.
    pub freq_caps_mhz: Vec<f64>,
    /// Power-cap ladder, watts; the first entry is the uncapped baseline.
    pub power_caps_w: Vec<f64>,
    /// Deterministic telemetry-degradation plan applied to every fleet
    /// simulation of the scenario; `None` (the presets' value) leaves the
    /// stream untouched, bit for bit.
    pub faults: Option<FaultPlan>,
    /// Custom governor plan evaluated by the `govern` artifact alongside
    /// the built-in presets; `None` (the presets' value) runs the presets
    /// only.
    pub govern: Option<GovernorPlan>,
    /// Named [`FleetMix`] preset assigning a SKU-catalog node class to
    /// every node; `None` (the presets' value) is the homogeneous fleet —
    /// every node is SKU 0, bit-identical to the pre-catalog simulator.
    pub fleet_mix: Option<String>,
    /// Price/carbon trace the economics layer integrates fleet energy
    /// against; `None` (the presets' value) computes no economics, and a
    /// `flat` trace at the reference price is treated identically (it
    /// prices every slot the same, so every delta it reports is zero).
    pub econ: Option<EconTrace>,
}

impl ScenarioSpec {
    /// The spec of a named preset, with the paper's cap ladders.
    pub fn preset(preset: ScalePreset) -> ScenarioSpec {
        let (nodes, days) = preset.shape();
        ScenarioSpec {
            name: preset.name().to_string(),
            nodes,
            days,
            seed: 2024,
            min_job_s: 900.0,
            freq_caps_mhz: FREQ_CAPS_MHZ.to_vec(),
            power_caps_w: POWER_CAPS_W.to_vec(),
            faults: None,
            govern: None,
            fleet_mix: None,
            econ: None,
        }
    }

    /// Resolves the spec from the `PMSS_SCALE` environment variable.
    ///
    /// Unset selects `quick`; a set-but-unrecognized value is an explicit
    /// [`PmssError::InvalidValue`] (the historical behaviour silently fell
    /// back to `quick`).
    pub(crate) fn from_env() -> Result<ScenarioSpec, PmssError> {
        match std::env::var(SCALE_ENV) {
            Ok(value) => ScalePreset::from_name(SCALE_ENV, &value).map(ScenarioSpec::preset),
            Err(std::env::VarError::NotPresent) => Ok(ScenarioSpec::preset(ScalePreset::Quick)),
            Err(std::env::VarError::NotUnicode(_)) => Err(PmssError::invalid_value(
                SCALE_ENV,
                "<non-unicode>",
                "quick | medium | large",
            )),
        }
    }

    /// Validates every field; returns the first violation.
    pub fn validate(&self) -> Result<(), PmssError> {
        fn ladder(
            field: &'static str,
            caps: &[f64],
            max: usize,
            in_range: impl Fn(f64) -> bool,
            range: &str,
        ) -> Result<(), PmssError> {
            if caps.len() > max {
                return Err(PmssError::InvalidSpec {
                    field,
                    reason: format!(
                        "must be at most {max} entries (10x the paper's), got {}",
                        caps.len()
                    ),
                });
            }
            if caps.is_empty() {
                return Err(PmssError::InvalidSpec {
                    field,
                    reason: "must contain the uncapped baseline".into(),
                });
            }
            for w in caps.windows(2) {
                if w[1] >= w[0] || w[1].is_nan() || w[0].is_nan() {
                    return Err(PmssError::InvalidSpec {
                        field,
                        reason: format!("must be strictly decreasing, got {caps:?}"),
                    });
                }
            }
            if !caps.iter().all(|&c| in_range(c)) {
                return Err(PmssError::InvalidSpec {
                    field,
                    reason: format!("entries must be in {range}, got {caps:?}"),
                });
            }
            Ok(())
        }
        if self.name.is_empty() {
            return Err(PmssError::InvalidSpec {
                field: "name",
                reason: "must not be empty".into(),
            });
        }
        if self.nodes == 0 {
            return Err(PmssError::InvalidSpec {
                field: "nodes",
                reason: "must be at least 1".into(),
            });
        }
        if !(self.days.is_finite() && self.days > 0.0) {
            return Err(PmssError::InvalidSpec {
                field: "days",
                reason: format!("must be finite and positive, got {}", self.days),
            });
        }
        let node_days = self.nodes as f64 * self.days;
        for (field, got, max, unit) in [
            ("nodes", self.nodes as f64, MAX_NODES as f64, "nodes"),
            ("days", self.days, MAX_DAYS, "days"),
            ("nodes x days", node_days, MAX_NODE_DAYS, "node-days"),
        ] {
            if got > max {
                return Err(PmssError::InvalidSpec {
                    field,
                    reason: format!("must be at most {max} {unit} (10x the paper's), got {got:e}"),
                });
            }
        }
        let trace_s = self.days * 86_400.0;
        if !(self.min_job_s > 0.0 && self.min_job_s <= trace_s) {
            return Err(PmssError::InvalidSpec {
                field: "min_job_s",
                reason: format!(
                    "must be positive and at most the trace's {trace_s} s, got {:e}",
                    self.min_job_s
                ),
            });
        }
        let clocks = Freq::MIN.mhz()..=Freq::MAX.mhz();
        ladder(
            "freq_caps_mhz",
            &self.freq_caps_mhz,
            MAX_FREQ_CAPS,
            |c| clocks.contains(&c),
            &format!("[{}, {}], the GPU's clock range", Freq::MIN, Freq::MAX),
        )?;
        ladder(
            "power_caps_w",
            &self.power_caps_w,
            MAX_POWER_CAPS,
            |c| c > 0.0 && c <= GPU_TDP_W,
            &format!("(0, {GPU_TDP_W}] W, up to the GPU's TDP"),
        )?;
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        if let Some(plan) = &self.govern {
            plan.validate()?;
        }
        if let Some(name) = &self.fleet_mix {
            if FleetMix::preset(name).is_none() {
                return Err(PmssError::invalid_value(
                    "spec field `fleet_mix`",
                    name,
                    FleetMix::preset_names().join(" | "),
                ));
            }
        }
        if let Some(trace) = &self.econ {
            trace.validate()?;
        }
        Ok(())
    }

    /// The fault plan in force, when it actually injects something.
    pub fn active_faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().filter(|p| !p.is_noop())
    }

    /// The fleet mix in force, when it actually mixes SKUs (the
    /// `single-sku` preset is spelled-out homogeneity, so it stays as
    /// inert as `None`).
    pub(crate) fn active_mix(&self) -> Option<&str> {
        self.fleet_mix
            .as_deref()
            .filter(|name| FleetMix::preset(name).is_some_and(|m| !m.is_homogeneous()))
    }

    /// The econ trace in force, when it actually varies price or carbon
    /// (a `flat` trace at the reference values is spelled-out inertness,
    /// so it stays as inert as `None`).
    pub fn active_econ(&self) -> Option<&EconTrace> {
        self.econ.as_ref().filter(|t| !t.is_noop())
    }

    /// Resolves the named mix to the node→SKU mapping the fleet stage
    /// simulates under; `None` and unknown names resolve homogeneous
    /// (unknown names never pass [`ScenarioSpec::validate`], so the
    /// fallback is belt and braces, not policy).
    pub(crate) fn resolved_mix(&self) -> FleetMix {
        self.fleet_mix
            .as_deref()
            .and_then(FleetMix::preset)
            .unwrap_or_default()
    }

    /// Trace-generation parameters for the fleet stage.
    pub fn trace_params(&self) -> TraceParams {
        TraceParams {
            nodes: self.nodes,
            duration_s: self.days * 86_400.0,
            seed: self.seed,
            min_job_s: self.min_job_s,
        }
    }

    /// Multiplier that extrapolates this scenario's energy to the paper's
    /// three months of the full Frontier system.
    pub fn frontier_factor(&self) -> f64 {
        let frontier_node_seconds = FRONTIER_NODES as f64 * PAPER_CAMPAIGN_DAYS * 86_400.0;
        frontier_node_seconds / (self.nodes as f64 * self.days * 86_400.0)
    }

    /// The Louvain case-study scale matching this scenario's fleet size.
    pub(crate) fn case_scale(&self) -> CaseScale {
        if self.nodes <= 16 {
            CaseScale::Small
        } else if self.nodes <= 64 {
            CaseScale::Medium
        } else {
            CaseScale::Large
        }
    }

    /// Serializes the spec to a JSON value.  `boundaries_w` restates Table
    /// IV's fixed bands, which [`ScenarioSpec::from_json`] accepts back.
    /// The `faults` field is emitted only when a plan actually injects
    /// something, so fault-free specs keep their historical byte-exact JSON
    /// shape.
    pub fn to_json(&self) -> Json {
        let bands = Boundaries::default();
        let j = Json::obj()
            .field("name", self.name.as_str())
            .field("nodes", self.nodes)
            .field("days", self.days)
            .field("seed", self.seed)
            .field("min_job_s", self.min_job_s)
            .field("freq_caps_mhz", self.freq_caps_mhz.as_slice())
            .field("power_caps_w", self.power_caps_w.as_slice())
            .field(
                "boundaries_w",
                Json::obj()
                    .field("latency_mi", bands.latency_mi_w)
                    .field("mi_ci", bands.mi_ci_w)
                    .field("ci_boost", bands.ci_boost_w),
            );
        let j = match self.active_faults() {
            Some(plan) => j.field("faults", fault_plan_to_json(plan)),
            None => j,
        };
        let j = match &self.govern {
            Some(plan) => j.field("govern", governor_plan_to_json(plan)),
            None => j,
        };
        // Like `faults`, the mix is emitted only when it changes anything,
        // so homogeneous specs keep their historical byte-exact JSON shape.
        let j = match self.active_mix() {
            Some(name) => j.field("fleet_mix", name),
            None => j,
        };
        // Same rule for the econ trace: a no-op (flat reference) trace
        // serializes as omission.
        match self.active_econ() {
            Some(trace) => j.field("econ", econ_trace_to_json(trace)),
            None => j,
        }
    }

    /// Deserializes and validates a spec from a JSON value; missing fields
    /// fall back to the `quick` preset's values.  A `boundaries_w` other
    /// than Table IV's bands is an [`PmssError::InvalidSpec`]: no
    /// computation would read it.
    pub fn from_json(v: &Json) -> Result<ScenarioSpec, PmssError> {
        let base = ScenarioSpec::preset(ScalePreset::Quick);
        let f = Fields { v, ctx: "spec" };
        let bands = Boundaries::default();
        let asked = Boundaries {
            latency_mi_w: f.num("boundaries_w.latency_mi", bands.latency_mi_w)?,
            mi_ci_w: f.num("boundaries_w.mi_ci", bands.mi_ci_w)?,
            ci_boost_w: f.num("boundaries_w.ci_boost", bands.ci_boost_w)?,
        };
        if asked != bands {
            return Err(PmssError::InvalidSpec {
                field: "boundaries_w",
                reason: format!(
                    "must be Table IV's {}/{}/{} W, got {}/{}/{} W: the ledger bins \
                     at those bands (`pmss sensitivity` shows how far the headline \
                     moves when they shift)",
                    bands.latency_mi_w,
                    bands.mi_ci_w,
                    bands.ci_boost_w,
                    asked.latency_mi_w,
                    asked.mi_ci_w,
                    asked.ci_boost_w,
                ),
            });
        }
        let name = f.string("name")?.map_or(base.name, str::to_string);
        let faults = v.get("faults").map(fault_plan_from_json).transpose()?;
        let govern = v.get("govern").map(governor_plan_from_json).transpose()?;
        let fleet_mix = f.string("fleet_mix")?.map(str::to_string);
        let econ = v.get("econ").map(econ_trace_from_json).transpose()?;
        let spec = ScenarioSpec {
            name,
            nodes: f.int("nodes", base.nodes as u64)? as usize,
            days: f.num("days", base.days)?,
            seed: f.int("seed", base.seed)?,
            min_job_s: f.num("min_job_s", base.min_job_s)?,
            freq_caps_mhz: f.nums("freq_caps_mhz", base.freq_caps_mhz)?,
            power_caps_w: f.nums("power_caps_w", base.power_caps_w)?,
            faults,
            govern,
            fleet_mix,
            econ,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// The fields of one JSON object, read under one rule: an absent key falls
/// back, a present one of the wrong kind is an error naming `ctx` and the
/// key (`spec field `nodes` must be a number`).  A dotted key
/// (`boundaries_w.mi_ci`) reads a field of a nested object.
struct Fields<'a> {
    v: &'a Json,
    ctx: &'static str,
}

impl<'a> Fields<'a> {
    /// The value at `key`, or `None` when absent.  A present value `read`
    /// rejects is malformed: `{ctx} field `{key}` must be {what}`.
    fn read<T>(
        &self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, PmssError> {
        let Some(j) = key.split('.').try_fold(self.v, Json::get) else {
            return Ok(None);
        };
        read(j).map(Some).ok_or_else(|| self.malformed(key, what))
    }

    fn malformed(&self, key: &str, what: &str) -> PmssError {
        PmssError::malformed("json", format!("{} field `{key}` must be {what}", self.ctx))
    }

    fn opt_num(&self, key: &str) -> Result<Option<f64>, PmssError> {
        self.read(key, "a number", Json::as_f64)
    }

    fn num(&self, key: &str, fallback: f64) -> Result<f64, PmssError> {
        Ok(self.opt_num(key)?.unwrap_or(fallback))
    }

    fn nums(&self, key: &str, fallback: Vec<f64>) -> Result<Vec<f64>, PmssError> {
        let nums = |j: &Json| j.as_arr()?.iter().map(Json::as_f64).collect();
        Ok(self
            .read(key, "an array of numbers", nums)?
            .unwrap_or(fallback))
    }

    fn string(&self, key: &str) -> Result<Option<&'a str>, PmssError> {
        self.read(key, "a string", Json::as_str)
    }

    /// An integer field.  Never a bare `as` cast: `-1` would wrap to
    /// 18446744073709551615, `1.5` would silently truncate, and anything
    /// past 2^53 was never exactly representable in JSON's f64 to begin
    /// with.  All three are rejected.
    fn int(&self, key: &str, fallback: u64) -> Result<u64, PmssError> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        let n = self.num(key, fallback as f64)?;
        if !(n.fract() == 0.0 && (0.0..=MAX_EXACT).contains(&n)) {
            return Err(PmssError::invalid_value(
                format!("{} field `{key}`", self.ctx),
                format!("{n}"),
                "a non-negative integer representable exactly in JSON (<= 2^53)",
            ));
        }
        Ok(n as u64)
    }

    /// A bounded count: must not wrap through an `as u32` cast before
    /// validation sees it.
    fn count_u32(&self, key: &str, fallback: u32) -> Result<u32, PmssError> {
        u32::try_from(self.int(key, fallback as u64)?).map_err(|_| {
            PmssError::invalid_value(
                format!("{} field `{key}`", self.ctx),
                "overflow",
                "a u32 count",
            )
        })
    }
}

/// Serializes a fault plan to a JSON value.
pub(crate) fn fault_plan_to_json(plan: &FaultPlan) -> Json {
    Json::obj()
        .field("seed", plan.seed)
        .field("drop_prob", plan.drop_prob)
        .field("dup_prob", plan.dup_prob)
        .field("reorder_depth", plan.reorder_depth as u64)
        .field("nan_prob", plan.nan_prob)
        .field("spike_prob", plan.spike_prob)
        .field("spike_w", plan.spike_w)
        .field("dropout_prob", plan.dropout_prob)
        .field("dropout_windows", plan.dropout_windows as u64)
        .field("clock_skew_max_s", plan.clock_skew_max_s)
        .field("gap_policy", plan.gap_policy.name())
}

/// Deserializes and validates a fault plan from a JSON value.  Missing
/// fields fall back to the empty plan's values, so a file may spell out
/// only the fault channels it wants.
pub(crate) fn fault_plan_from_json(v: &Json) -> Result<FaultPlan, PmssError> {
    let base = FaultPlan::none();
    let f = Fields { v, ctx: "faults" };
    let gap_policy = match f.string("gap_policy")? {
        None => base.gap_policy,
        Some(name) => GapPolicy::from_name(name)?,
    };
    let plan = FaultPlan {
        seed: f.int("seed", base.seed)?,
        drop_prob: f.num("drop_prob", base.drop_prob)?,
        dup_prob: f.num("dup_prob", base.dup_prob)?,
        reorder_depth: f.count_u32("reorder_depth", base.reorder_depth)?,
        nan_prob: f.num("nan_prob", base.nan_prob)?,
        spike_prob: f.num("spike_prob", base.spike_prob)?,
        spike_w: f.num("spike_w", base.spike_w)?,
        dropout_prob: f.num("dropout_prob", base.dropout_prob)?,
        dropout_windows: f.count_u32("dropout_windows", base.dropout_windows)?,
        clock_skew_max_s: f.num("clock_skew_max_s", base.clock_skew_max_s)?,
        gap_policy,
    };
    plan.validate()?;
    Ok(plan)
}

/// Serializes an econ trace to a JSON value.
pub(crate) fn econ_trace_to_json(trace: &EconTrace) -> Json {
    Json::obj()
        .field("name", trace.name.as_str())
        .field("bucket_s", trace.bucket_s)
        .field("price_usd_per_mwh", trace.price_usd_per_mwh.as_slice())
        .field("carbon_g_per_kwh", trace.carbon_g_per_kwh.as_slice())
        .field("shift_deadline_slots", trace.shift_deadline_slots as u64)
        .field("shift_budget_frac", trace.shift_budget_frac)
}

/// Deserializes and validates an econ trace from a JSON value.  A bare
/// `{"preset": "diurnal"}` expands the named preset (shift knobs may
/// still be overridden alongside it); otherwise missing fields fall back
/// to the `flat` trace's values, so a file may spell out only the series
/// it changes.
pub(crate) fn econ_trace_from_json(v: &Json) -> Result<EconTrace, PmssError> {
    let f = Fields { v, ctx: "econ" };
    let base = match f.string("preset")? {
        None => EconTrace::flat(),
        Some(name) => EconTrace::preset(name).ok_or_else(|| {
            PmssError::invalid_value(
                "econ field `preset`",
                name,
                EconTrace::preset_names().join(" | "),
            )
        })?,
    };
    let shift_deadline_slots = f.count_u32("shift_deadline_slots", base.shift_deadline_slots)?;
    let trace = EconTrace {
        name: f.string("name")?.map_or(base.name, str::to_string),
        bucket_s: f.num("bucket_s", base.bucket_s)?,
        price_usd_per_mwh: f.nums("price_usd_per_mwh", base.price_usd_per_mwh)?,
        carbon_g_per_kwh: f.nums("carbon_g_per_kwh", base.carbon_g_per_kwh)?,
        shift_deadline_slots,
        shift_budget_frac: f.num("shift_budget_frac", base.shift_budget_frac)?,
    };
    trace.validate()?;
    Ok(trace)
}

/// Serializes a governor plan to a JSON value.  Optional fields (`budget_w`,
/// `cap`) are emitted only when set, so auto-resolved plans stay terse.
pub(crate) fn governor_plan_to_json(plan: &GovernorPlan) -> Json {
    let j = Json::obj()
        .field("policy", plan.policy.name())
        .field("interval_windows", plan.interval_windows as u64)
        .field("increase_rate", plan.increase_rate)
        .field("decrease_rate", plan.decrease_rate)
        .field("lower_thresh", plan.lower_thresh)
        .field("upper_thresh", plan.upper_thresh)
        .field("hysteresis_rounds", plan.hysteresis_rounds as u64)
        .field("node_floor_w", plan.node_floor_w)
        .field("node_ceiling_w", plan.node_ceiling_w);
    let j = match plan.budget_w {
        Some(b) => j.field("budget_w", b),
        None => j,
    };
    match plan.cap {
        Some(CapSetting::FreqMhz(m)) => j.field(
            "cap",
            Json::obj().field("knob", "freq_mhz").field("value", m),
        ),
        Some(CapSetting::PowerW(w)) => j.field(
            "cap",
            Json::obj().field("knob", "power_w").field("value", w),
        ),
        None => j,
    }
}

/// Deserializes and validates a governor plan from a JSON value.  Missing
/// fields fall back to the named policy's preset values (`policy` itself
/// defaults to `polimer`), so a file may spell out only what it changes.
pub(crate) fn governor_plan_from_json(v: &Json) -> Result<GovernorPlan, PmssError> {
    let f = Fields { v, ctx: "govern" };
    let policy = match f.string("policy")? {
        None => Policy::Polimer,
        Some(name) => Policy::from_name(name)?,
    };
    let base = GovernorPlan::preset(policy.name())?;
    let budget_w = f.opt_num("budget_w")?.or(base.budget_w);
    let cap = match v.get("cap") {
        None => base.cap,
        Some(_) => {
            let knob = f.string("cap.knob")?;
            let knob = knob.ok_or_else(|| f.malformed("cap.knob", "a string"))?;
            let value = f.opt_num("cap.value")?;
            let value = value.ok_or_else(|| f.malformed("cap.value", "a number"))?;
            Some(match knob {
                "freq_mhz" => CapSetting::FreqMhz(value),
                "power_w" => CapSetting::PowerW(value),
                other => {
                    return Err(PmssError::invalid_value(
                        "govern field `cap.knob`",
                        other,
                        "freq_mhz | power_w",
                    ))
                }
            })
        }
    };
    let plan = GovernorPlan {
        policy,
        budget_w,
        interval_windows: f.count_u32("interval_windows", base.interval_windows)?,
        increase_rate: f.num("increase_rate", base.increase_rate)?,
        decrease_rate: f.num("decrease_rate", base.decrease_rate)?,
        lower_thresh: f.num("lower_thresh", base.lower_thresh)?,
        upper_thresh: f.num("upper_thresh", base.upper_thresh)?,
        hysteresis_rounds: f.count_u32("hysteresis_rounds", base.hysteresis_rounds)?,
        node_floor_w: f.num("node_floor_w", base.node_floor_w)?,
        node_ceiling_w: f.num("node_ceiling_w", base.node_ceiling_w)?,
        cap,
    };
    plan.validate()?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_historical_scales() {
        let q = ScenarioSpec::preset(ScalePreset::Quick);
        assert_eq!((q.nodes, q.days), (16, 2.0));
        assert_eq!(q.trace_params().seed, 2024);
        assert!((q.frontier_factor() - 9408.0 * 90.0 / (16.0 * 2.0)).abs() < 1e-9);
        let m = ScenarioSpec::preset(ScalePreset::Medium);
        assert_eq!((m.nodes, m.days), (64, 7.0));
        let l = ScenarioSpec::preset(ScalePreset::Large);
        assert_eq!((l.nodes, l.days), (160, 14.0));
        for s in [&q, &m, &l] {
            s.validate().unwrap();
        }
    }

    #[test]
    fn unknown_scale_name_is_an_explicit_error() {
        let err = ScalePreset::from_name("--scale", "huge").unwrap_err();
        assert!(matches!(err, PmssError::InvalidValue { .. }), "{err}");
        assert!(err.to_string().contains("huge"));
        assert!(err.to_string().contains("--scale"), "{err}");
    }

    #[test]
    fn case_scale_follows_fleet_size() {
        assert_eq!(
            ScenarioSpec::preset(ScalePreset::Quick).case_scale(),
            CaseScale::Small
        );
        assert_eq!(
            ScenarioSpec::preset(ScalePreset::Medium).case_scale(),
            CaseScale::Medium
        );
        assert_eq!(
            ScenarioSpec::preset(ScalePreset::Large).case_scale(),
            CaseScale::Large
        );
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut s = ScenarioSpec::preset(ScalePreset::Quick);
        s.nodes = 0;
        assert!(s.validate().is_err());

        let mut s = ScenarioSpec::preset(ScalePreset::Quick);
        s.freq_caps_mhz = vec![900.0, 1100.0];
        assert!(matches!(
            s.validate().unwrap_err(),
            PmssError::InvalidSpec {
                field: "freq_caps_mhz",
                ..
            }
        ));

        // The physical ranges hold at their edges and fail just past them,
        // each error naming its field.
        type Set = fn(&mut ScenarioSpec, f64);
        let day = 86_400.0;
        let cases: [(Set, f64, f64, &str); 5] = [
            (
                |s, c| s.freq_caps_mhz = vec![1700.0, c],
                500.0,
                499.9,
                "freq_caps_mhz",
            ),
            (
                |s, c| s.freq_caps_mhz = vec![c, 900.0],
                1700.0,
                1700.1,
                "freq_caps_mhz",
            ),
            (
                |s, c| s.power_caps_w = vec![c, 300.0],
                560.0,
                560.1,
                "power_caps_w",
            ),
            (
                |s, c| s.power_caps_w = vec![560.0, c],
                1e-9,
                0.0,
                "power_caps_w",
            ),
            (
                |s, t| s.min_job_s = t,
                2.0 * day,
                2.0 * day + 1.0,
                "min_job_s",
            ),
        ];
        for (set, ok, bad, field) in cases {
            let mut s = ScenarioSpec::preset(ScalePreset::Quick);
            set(&mut s, ok);
            s.validate().unwrap();
            set(&mut s, bad);
            let err = s.validate().unwrap_err();
            assert!(matches!(err, PmssError::InvalidSpec { field: f, .. } if f == field));
        }
    }

    #[test]
    fn json_round_trip_preserves_the_spec() {
        let mut s = ScenarioSpec::preset(ScalePreset::Medium);
        s.seed = 7;
        let j = s.to_json();
        let bands = j.get("boundaries_w").unwrap();
        assert_eq!(bands.get("mi_ci").and_then(Json::as_f64), Some(420.0));
        let back = ScenarioSpec::from_json(&j).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn from_json_rejects_invalid_specs() {
        let j = Json::parse(r#"{"nodes": 0}"#).unwrap();
        assert!(ScenarioSpec::from_json(&j).is_err());
        let j = Json::parse(r#"{"freq_caps_mhz": "high"}"#).unwrap();
        assert!(ScenarioSpec::from_json(&j).is_err());
        // Table IV's bands are fixed: restating them is fine, moving one
        // is an invalid spec that names the sensitivity artifact.
        let j = Json::parse(r#"{"boundaries_w": {"mi_ci": 420}}"#).unwrap();
        assert!(ScenarioSpec::from_json(&j).is_ok());
        let j = Json::parse(r#"{"boundaries_w": {"mi_ci": 430}}"#).unwrap();
        let err = ScenarioSpec::from_json(&j).unwrap_err();
        assert!(
            matches!(
                err,
                PmssError::InvalidSpec {
                    field: "boundaries_w",
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("pmss sensitivity"), "{err}");
    }

    /// `Json::get` reads a key's first copy where most readers take the
    /// last, so a spec naming a field twice is rejected before
    /// `from_json` could read either, at the top level or inside a plan.
    #[test]
    fn a_spec_with_a_duplicate_key_is_malformed() {
        for text in [
            r#"{"nodes":16,"nodes":9e9}"#,
            r#"{"faults":{"drop_prob":0.1,"drop_prob":1.5}}"#,
        ] {
            let err = Json::parse(text)
                .and_then(|j| ScenarioSpec::from_json(&j))
                .unwrap_err();
            assert!(matches!(err, PmssError::MalformedData { .. }), "{err}");
            assert!(err.to_string().contains("duplicate key"), "{err}");
        }
        let one = Json::parse(r#"{"nodes":16}"#).unwrap();
        assert_eq!(ScenarioSpec::from_json(&one).unwrap().nodes, 16);
    }

    #[test]
    fn fault_plan_round_trips_through_spec_json() {
        let mut s = ScenarioSpec::preset(ScalePreset::Quick);
        s.faults = Some(FaultPlan::preset("frontier-typical").unwrap());
        let back = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // Partial plans fill the remaining channels with zeros.
        let j =
            Json::parse(r#"{"faults": {"drop_prob": 0.1, "gap_policy": "interpolate"}}"#).unwrap();
        let s = ScenarioSpec::from_json(&j).unwrap();
        let plan = s.faults.unwrap();
        assert_eq!(plan.drop_prob, 0.1);
        assert_eq!(plan.gap_policy, GapPolicy::Interpolate);
        assert_eq!(plan.dup_prob, 0.0);
    }

    #[test]
    fn governor_plan_round_trips_through_spec_json() {
        let mut s = ScenarioSpec::preset(ScalePreset::Quick);
        let mut plan = GovernorPlan::preset("polimer").unwrap();
        plan.budget_w = Some(25_000.0);
        plan.cap = Some(CapSetting::FreqMhz(900.0));
        s.govern = Some(plan);
        let back = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // Partial plans fill the rest from the named policy's preset.
        let j = Json::parse(r#"{"govern": {"policy": "greedy", "interval_windows": 4}}"#).unwrap();
        let s = ScenarioSpec::from_json(&j).unwrap();
        let plan = s.govern.unwrap();
        assert_eq!(plan.policy, Policy::Greedy);
        assert_eq!(plan.interval_windows, 4);
        assert_eq!(plan.increase_rate, 0.1);
        assert_eq!(plan.cap, None);
    }

    #[test]
    fn invalid_governor_plans_are_rejected() {
        let j = Json::parse(r#"{"govern": {"policy": "pid"}}"#).unwrap();
        assert!(ScenarioSpec::from_json(&j).is_err());
        let j = Json::parse(r#"{"govern": {"interval_windows": 0}}"#).unwrap();
        assert!(ScenarioSpec::from_json(&j).is_err());
        let j = Json::parse(r#"{"govern": {"increase_rate": 1.5}}"#).unwrap();
        assert!(ScenarioSpec::from_json(&j).is_err());
        let j = Json::parse(r#"{"govern": {"cap": {"knob": "volts", "value": 1.0}}}"#).unwrap();
        assert!(ScenarioSpec::from_json(&j).is_err());
    }

    #[test]
    fn absent_governor_keeps_the_historical_spec_json() {
        let clean = ScenarioSpec::preset(ScalePreset::Quick);
        assert!(
            !clean.to_json().to_string_pretty().contains("govern"),
            "preset specs must keep their historical JSON shape"
        );
    }

    #[test]
    fn noop_faults_keep_the_historical_spec_json() {
        let clean = ScenarioSpec::preset(ScalePreset::Quick);
        let mut noop = clean.clone();
        noop.faults = Some(FaultPlan::none());
        assert_eq!(
            clean.to_json().to_string_pretty(),
            noop.to_json().to_string_pretty(),
            "a no-op plan must not change the serialized spec"
        );
    }

    #[test]
    fn fleet_mix_round_trips_through_spec_json() {
        let mut s = ScenarioSpec::preset(ScalePreset::Quick);
        s.fleet_mix = Some("mixed-50-50".to_string());
        let back = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.resolved_mix(), FleetMix::new(vec![0, 1]));
        assert!(matches!(
            ScenarioSpec::from_json(&Json::parse(r#"{"fleet_mix": "mixed-99"}"#).unwrap())
                .unwrap_err(),
            PmssError::InvalidValue { .. }
        ));
        assert!(ScenarioSpec::from_json(&Json::parse(r#"{"fleet_mix": 7}"#).unwrap()).is_err());
    }

    #[test]
    fn homogeneous_mixes_keep_the_historical_spec_json() {
        let clean = ScenarioSpec::preset(ScalePreset::Quick);
        assert!(
            !clean.to_json().to_string_pretty().contains("fleet_mix"),
            "preset specs must keep their historical JSON shape"
        );
        // `single-sku` is spelled-out homogeneity: same bytes as omission,
        // and it resolves to the same mix `None` does.
        let mut single = clean.clone();
        single.fleet_mix = Some("single-sku".to_string());
        single.validate().unwrap();
        assert_eq!(
            clean.to_json().to_string_pretty(),
            single.to_json().to_string_pretty(),
            "a homogeneous mix must not change the serialized spec"
        );
        assert_eq!(single.resolved_mix(), clean.resolved_mix());
        assert!(single.active_mix().is_none());
    }

    #[test]
    fn econ_trace_round_trips_through_spec_json() {
        let mut s = ScenarioSpec::preset(ScalePreset::Quick);
        s.econ = Some(EconTrace::preset("duck-curve").unwrap());
        let back = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // A bare preset reference expands, and shift knobs override it.
        let j =
            Json::parse(r#"{"econ": {"preset": "diurnal", "shift_deadline_slots": 8}}"#).unwrap();
        let s = ScenarioSpec::from_json(&j).unwrap();
        let trace = s.econ.unwrap();
        assert_eq!(trace.name, "diurnal");
        assert_eq!(trace.shift_deadline_slots, 8);
        assert_eq!(
            trace.price_usd_per_mwh,
            EconTrace::preset("diurnal").unwrap().price_usd_per_mwh
        );
    }

    #[test]
    fn noop_econ_traces_keep_the_historical_spec_json() {
        let clean = ScenarioSpec::preset(ScalePreset::Quick);
        assert!(
            !clean.to_json().to_string_pretty().contains("econ"),
            "preset specs must keep their historical JSON shape"
        );
        // A flat trace at the reference price is spelled-out inertness:
        // same bytes as omission, and `active_econ` treats it as absent.
        let mut flat = clean.clone();
        flat.econ = Some(EconTrace::flat());
        flat.validate().unwrap();
        assert_eq!(
            clean.to_json().to_string_pretty(),
            flat.to_json().to_string_pretty(),
            "a no-op trace must not change the serialized spec"
        );
        assert!(flat.active_econ().is_none());
        let mut active = clean;
        active.econ = Some(EconTrace::preset("diurnal").unwrap());
        assert!(active.active_econ().is_some());
    }

    #[test]
    fn invalid_econ_traces_are_rejected() {
        for body in [
            r#"{"econ": {"preset": "tou-winter"}}"#,
            r#"{"econ": {"price_usd_per_mwh": []}}"#,
            r#"{"econ": {"price_usd_per_mwh": [60.0, -5.0]}}"#,
            r#"{"econ": {"bucket_s": 1000.0}}"#,
            r#"{"econ": {"shift_deadline_slots": 2.5}}"#,
            r#"{"econ": {"shift_deadline_slots": -1}}"#,
            r#"{"econ": {"shift_budget_frac": 0.0}}"#,
            r#"{"econ": {"carbon_g_per_kwh": "low"}}"#,
        ] {
            let j = Json::parse(body).unwrap();
            assert!(ScenarioSpec::from_json(&j).is_err(), "{body}");
        }
        let mut s = ScenarioSpec::preset(ScalePreset::Quick);
        s.econ = Some(EconTrace {
            price_usd_per_mwh: vec![f64::NAN],
            ..EconTrace::flat()
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn invalid_fault_plans_are_rejected() {
        let j = Json::parse(r#"{"faults": {"drop_prob": 1.5}}"#).unwrap();
        assert!(ScenarioSpec::from_json(&j).is_err());
        let j = Json::parse(r#"{"faults": {"gap_policy": "discard"}}"#).unwrap();
        assert!(ScenarioSpec::from_json(&j).is_err());
        let j = Json::parse(r#"{"faults": {"reorder_depth": 1e12}}"#).unwrap();
        assert!(ScenarioSpec::from_json(&j).is_err());
        let mut s = ScenarioSpec::preset(ScalePreset::Quick);
        s.faults = Some(FaultPlan {
            nan_prob: -0.5,
            ..FaultPlan::none()
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn from_json_rejects_non_integer_counts_instead_of_truncating() {
        // Before the fix, `"nodes": -1` cast through `as usize` into
        // 18446744073709551615 and `"seed": 1.5` silently became seed 1.
        for (body, field) in [
            (r#"{"nodes": -1}"#, "nodes"),
            (r#"{"nodes": 2.5}"#, "nodes"),
            (r#"{"nodes": 1e300}"#, "nodes"),
            (r#"{"seed": -3}"#, "seed"),
            (r#"{"seed": 1.5}"#, "seed"),
            (r#"{"seed": 1e300}"#, "seed"),
        ] {
            let j = Json::parse(body).unwrap();
            let err = ScenarioSpec::from_json(&j).unwrap_err();
            assert!(
                matches!(err, PmssError::InvalidValue { .. }),
                "{body}: {err}"
            );
            assert!(err.to_string().contains(field), "{body}: {err}");
        }
        // Exact integers written with a fractional JSON spelling stay fine.
        let j = Json::parse(r#"{"nodes": 32.0, "seed": 9007199254740992}"#).unwrap();
        let s = ScenarioSpec::from_json(&j).unwrap();
        assert_eq!((s.nodes, s.seed), (32, 1u64 << 53));
    }
}
