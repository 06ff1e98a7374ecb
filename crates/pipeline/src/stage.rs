//! The staged pipeline: `workloads → fleet → decompose → project`.
//!
//! A [`Pipeline`] owns one [`ScenarioSpec`] and computes each stage at most
//! once: the fleet stage (schedule synthesis + one telemetry simulation
//! folding the energy ledger, and the econ series when the spec prices
//! energy), the delivery trace the same run can retain (the *traced* fleet
//! stage `stream` and `govern` ask for) and the benchmark stage (Table III
//! from the spec's cap ladders) are memoized.  An artifact that reads
//! another fleet observer (Figs. 8 and 9, `sensitivity`, `econ`) has it
//! folded in its own run of the stage (`Pipeline::fleet_with`), so no
//! other artifact pays for it.
//!
//! Every fleet run the pipeline makes is one node loop on every core,
//! below this crate (`pmss_telemetry::simulate_fleet_metered`,
//! `pmss_telemetry::DeliveryTrace::capture_folding`, the resident capture
//! behind `pmss query`), with partials merged in node order, so output is
//! byte-identical at any worker count.  Runs never overlap: `peakpower`'s
//! five caps are five passes one after another, and `faults` makes one
//! generation delivered under all its rows' plans
//! (`pmss_telemetry::simulate_fleet_plans`).  Each generation reaches the
//! registry through `generation`.

use pmss_core::project::{project, Projection, ProjectionInput};
use pmss_core::EnergyLedger;
use pmss_econ::EconSeries;
use pmss_error::PmssError;
use pmss_faults::FaultPlan;
use pmss_gpu::Engine;
use pmss_obs::{edges, Metrics, Stopwatch};
use pmss_sched::{catalog, generate, DomainSpec, Schedule};
use pmss_telemetry::{
    simulate_fleet_metered, DeliveryTrace, FleetConfig, FleetObserver, FleetRunStats, Pair,
};
use pmss_workloads::sweep::CapSetting;
use pmss_workloads::table3::{self, Table3};

use crate::spec::ScenarioSpec;

/// The fleet stage's output: the schedule and what one run of it folds.
pub struct FleetArtifacts {
    /// The synthetic schedule (job log + placements).
    pub schedule: Schedule,
    /// The domain catalog used.
    pub domains: Vec<DomainSpec>,
    /// Tables IV–VI / Fig. 10: the modal-decomposition ledger.
    pub ledger: EnergyLedger,
    /// Per-slot economics lanes, folded when the spec prices energy (an
    /// active econ trace, whose cost every JSON envelope reports) or the
    /// artifact asks for them (`econ`); pricing happens at render time.
    pub econ: Option<EconSeries>,
    /// Extrapolation factor to full-Frontier three-month MWh.
    pub frontier_factor: f64,
}

/// One timed generation of `schedule`, published — the one place a fleet
/// run the pipeline makes reaches the registry.  `generate` makes the
/// generation and hands back its product and each delivery's tallies, one
/// per entry of `plans` (the plan that delivery was made under), in plan
/// order.  Each delivery counts as a run ([`publish_run`], in plan order);
/// the generation and its wall time are published once
/// ([`publish_generation`]).
pub(crate) fn generation<T>(
    metrics: &mut Metrics,
    schedule: &Schedule,
    plans: &[Option<&FaultPlan>],
    generate: impl FnOnce() -> Result<(T, Vec<FleetRunStats>), PmssError>,
) -> Result<(T, Vec<FleetRunStats>), PmssError> {
    let sw = Stopwatch::start();
    let (made, stats) = generate()?;
    let wall_s = sw.elapsed_s();
    debug_assert_eq!(plans.len(), stats.len(), "one tally per delivery");
    let node_hours = schedule.per_node.len() as f64 * schedule.duration_s / 3600.0;
    for (plan, stats) in plans.iter().zip(&stats) {
        publish_run(metrics, *plan, node_hours, stats);
    }
    publish_generation(metrics, wall_s);
    Ok((made, stats))
}

/// Folds one fleet run's tallies into `m`.  `faults` is the plan the run
/// was delivered under; its fault tallies are recorded only when it is
/// active.
fn publish_run(
    m: &mut Metrics,
    faults: Option<&FaultPlan>,
    node_hours: f64,
    stats: &FleetRunStats,
) {
    m.inc("fleet.runs");
    m.add("fleet.gpu_samples", stats.gpu_samples);
    m.add("fleet.attributed_samples", stats.attributed_samples);
    m.add("fleet.node_samples", stats.node_samples);
    m.add("boost.engagements", stats.boost_engagements);
    m.add("boost.denied", stats.boost_denied);
    m.gauge_add("boost.granted_s", stats.boost_granted_s);
    m.add("engine.executions", stats.engine_executions);
    m.add("engine.ppt_throttled", stats.engine_ppt_throttled);
    m.add("cap_solver.iters", stats.solver_iters);
    m.add("cap_solver.breaches", stats.cap_breaches);
    // Fault-injection tallies, recorded only when a plan is active so a
    // clean run's metrics envelope keeps its historical set of keys.
    if faults.is_some_and(|p| !p.is_noop()) {
        m.add("faults.dropped", stats.faults_dropped);
        m.add("faults.duplicated", stats.faults_duplicated);
        m.add("faults.glitched", stats.faults_glitched);
        m.add("faults.reordered", stats.faults_reordered);
        m.add("faults.dropout_windows", stats.faults_dropout_windows);
        m.add("faults.gaps_interpolated", stats.gaps_interpolated);
        m.add("faults.gaps_excluded", stats.gaps_excluded);
        m.add("faults.gaps_idle", stats.gaps_idle);
    }
    m.gauge_add("fleet.node_hours", node_hours);
}

/// Records one generation pass of the fleet and its wall time into `m`.
/// A pass delivers one run or, for `faults`' rows, several, and passes
/// run one after another, each on every core, so `fleet.wall_s` is the
/// elapsed generation time summed over passes and
/// `fleet.node_hours_per_s` is delivered node-hours over it.
fn publish_generation(m: &mut Metrics, wall_s: f64) {
    m.inc("fleet.generations");
    m.gauge_add("fleet.wall_s", wall_s);
    m.observe("fleet.run_wall_s", edges::WALL_S, wall_s);
}

/// A staged scenario run with memoized stage outputs.
///
/// The pipeline always accumulates a [`Metrics`] registry (stage wall
/// times, fleet-run tallies, engine and solver work) across every fleet
/// simulation it performs — the fleet stage and any per-artifact runs
/// (Fig. 2's energy split, the peak-power cap sweep); whether it is printed
/// is the caller's choice, and it never changes artifact bytes.
pub struct Pipeline {
    pub(crate) spec: ScenarioSpec,
    pub(crate) engine: Engine,
    pub(crate) metrics: Metrics,
    pub(crate) fleet: Option<FleetArtifacts>,
    /// The fleet run in delivery order; filled by the traced fleet stage.
    trace: Option<DeliveryTrace>,
    table3: Option<Table3>,
}

impl Pipeline {
    /// Validates `spec` and wraps it in a fresh pipeline (no stage has run
    /// yet).
    pub fn new(spec: ScenarioSpec) -> Result<Pipeline, PmssError> {
        spec.validate()?;
        Ok(Pipeline {
            spec,
            engine: Engine::default(),
            metrics: Metrics::default(),
            fleet: None,
            trace: None,
            table3: None,
        })
    }

    /// A snapshot of the accumulated metrics, augmented with the worker
    /// count every fleet run's node loop reads
    /// ([`pmss_telemetry::workers`]) and the derived fleet throughput
    /// gauge — node-hours over summed generation time.
    pub fn metrics_report(&self) -> Metrics {
        let mut m = self.metrics.clone();
        m.gauge_set("fleet.workers", pmss_telemetry::workers() as f64);
        let wall = m.gauge("fleet.wall_s").unwrap_or(0.0);
        if wall > 0.0 {
            m.gauge_set(
                "fleet.node_hours_per_s",
                m.gauge("fleet.node_hours").unwrap_or(0.0) / wall,
            );
        }
        m
    }

    /// The scenario driving this pipeline.
    pub(crate) fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The fleet configuration every simulation of this pipeline uses:
    /// defaults plus the spec's fault plan and SKU mix.  All per-artifact
    /// fleet runs must build on this so `--faults` / `--mix` degrade and
    /// diversify them consistently — and so must external campaign
    /// producers (the `pmssd` client's resident capture), or their
    /// telemetry diverges from the batch comparator's.
    pub fn fleet_config(&self) -> FleetConfig {
        fleet_config(&self.spec)
    }

    /// Synthesizes the scenario's schedule — the fleet stage's first step,
    /// for a caller that drives the generator itself and needs nothing
    /// else of the stage (`pmss query` captures a resident store, Fig. 2
    /// folds its energy split, `peakpower` its cap sweep).
    pub(crate) fn schedule(&self) -> Schedule {
        generate(self.spec.trace_params(), &catalog())
    }

    /// Runs (or replays) the fleet stage: workload synthesis and one fleet
    /// telemetry simulation folding the modal-decomposition ledger (and
    /// the econ series when the spec prices energy).
    pub fn fleet(&mut self) -> Result<&FleetArtifacts, PmssError> {
        fleet_stage(&mut self.fleet, &self.spec, &mut self.metrics)
    }

    /// Runs the fleet stage afresh with `X` folded beside the ledger (and
    /// the econ series when `econ`): the one run of an artifact that reads
    /// another observer.  It replaces the memoized stage with a
    /// bit-identical one; [`run_fleet_stage`] says why `X`'s bits hold.
    pub(crate) fn fleet_with<X>(&mut self, econ: bool) -> Result<(&FleetArtifacts, X), PmssError>
    where
        X: FleetObserver + Default,
    {
        let (fleet, extra, ()) = run_fleet_stage(&self.spec, &mut self.metrics, econ, ())?;
        Ok((self.fleet.insert(fleet), extra))
    }

    /// Runs (or replays) the benchmark stage: Table III computed from the
    /// spec's own cap ladders.
    pub fn table3(&mut self) -> Result<&Table3, PmssError> {
        table3_stage(
            &mut self.table3,
            &self.spec,
            &self.engine,
            &mut self.metrics,
        )
    }

    /// Runs the projection stage (Table V): Table III factors applied to
    /// the fleet decomposition at full-Frontier scale.
    pub(crate) fn projection(&mut self) -> Result<Projection, PmssError> {
        self.stages()?.projection()
    }

    /// The fleet and benchmark stages, each run if missing (a reuse is
    /// counted if not), borrowed together with the rest of the pipeline an
    /// artifact reads — the one way artifacts reach their stages.
    pub(crate) fn stages(&mut self) -> Result<Stages<'_>, PmssError> {
        let Pipeline {
            spec,
            engine,
            metrics,
            fleet,
            table3,
            ..
        } = self;
        Ok(Stages {
            fleet: fleet_stage(fleet, spec, metrics)?,
            table3: table3_stage(table3, spec, engine, metrics)?,
            spec,
            engine,
            metrics,
        })
    }

    /// [`Pipeline::stages`] with the fleet stage's run retained in delivery
    /// order.  On a fresh pipeline — every `pmss stream` and `pmss govern`
    /// process — the run that folds the stage's observers is the run that
    /// fills the trace.  A pipeline whose stage already ran untraced (a
    /// library caller rendering another artifact first) generates the fleet
    /// once more, folding nothing: the stage's blocks are gone by then and
    /// only a trace is worth keeping them for.
    pub(crate) fn traced_stages(&mut self) -> Result<(Stages<'_>, &DeliveryTrace), PmssError> {
        let Pipeline {
            spec,
            engine,
            metrics,
            fleet,
            trace,
            table3,
        } = self;
        let (fleet, trace): (&FleetArtifacts, &DeliveryTrace) = match fleet {
            None => {
                let (f, (), t) = run_fleet_stage(spec, metrics, false, trace)?;
                (fleet.insert(f), t)
            }
            Some(f) => match trace {
                Some(t) => {
                    metrics.inc("stage.fleet.reuses");
                    (f, t)
                }
                None => {
                    let ((), t) = trace.run(&f.schedule, &fleet_config(spec), metrics)?;
                    (f, t)
                }
            },
        };
        let stages = Stages {
            fleet,
            table3: table3_stage(table3, spec, engine, metrics)?,
            spec,
            engine,
            metrics,
        };
        Ok((stages, trace))
    }
}

/// What an artifact reads of a [`Pipeline`] whose stages have run, borrowed
/// at once: the stage outputs beside the registry their runs publish to.
pub(crate) struct Stages<'p> {
    pub(crate) spec: &'p ScenarioSpec,
    pub(crate) engine: &'p Engine,
    pub(crate) fleet: &'p FleetArtifacts,
    pub(crate) table3: &'p Table3,
    pub(crate) metrics: &'p mut Metrics,
}

impl Stages<'_> {
    /// The projection stage: see [`Pipeline::projection`].
    pub(crate) fn projection(&mut self) -> Result<Projection, PmssError> {
        let sw = Stopwatch::start();
        let ledger = self.fleet.ledger.scaled(self.fleet.frontier_factor)?;
        let proj = project(ProjectionInput::from_ledger(&ledger), self.table3);
        self.metrics.inc("stage.projection.runs");
        self.metrics
            .gauge_add("stage.projection.wall_s", sw.elapsed_s());
        proj
    }
}

/// A spec's cap ladder (`freq_caps_mhz`, `power_caps_w`) as sweep settings.
pub(crate) fn ladder(caps: &[f64], knob: fn(f64) -> CapSetting) -> Vec<CapSetting> {
    caps.iter().map(|&c| knob(c)).collect()
}

fn fleet_config(spec: &ScenarioSpec) -> FleetConfig {
    FleetConfig {
        faults: spec.faults.clone(),
        mix: spec.resolved_mix(),
        ..FleetConfig::default()
    }
}

/// The fleet stage in `slot`: run when missing, a counted reuse otherwise.
fn fleet_stage<'a>(
    slot: &'a mut Option<FleetArtifacts>,
    spec: &ScenarioSpec,
    metrics: &mut Metrics,
) -> Result<&'a FleetArtifacts, PmssError> {
    match slot {
        Some(fleet) => {
            metrics.inc("stage.fleet.reuses");
            Ok(fleet)
        }
        None => Ok(slot.insert(run_fleet_stage::<(), ()>(spec, metrics, false, ())?.0)),
    }
}

/// Runs the fleet stage — the scenario's schedule, then one fleet run of it
/// made by `sink`, folding the ledger, the econ series when `econ` or the
/// spec prices energy, and `X` — and counts it.  Every member folds per
/// channel, and `Pair` folds each row range into each member
/// independently, so a member's bits are the same whatever else the run
/// folds.
fn run_fleet_stage<X: FleetObserver + Default, T: TraceSink>(
    spec: &ScenarioSpec,
    metrics: &mut Metrics,
    econ: bool,
    sink: T,
) -> Result<(FleetArtifacts, X, T::Kept), PmssError> {
    let sw = Stopwatch::start();
    let schedule = generate(spec.trace_params(), &catalog());
    let cfg = fleet_config(spec);
    let (ledger, econ, extra, kept) = if econ || spec.active_econ().is_some() {
        let (obs, kept) =
            sink.run::<Pair<Pair<EnergyLedger, EconSeries>, X>>(&schedule, &cfg, metrics)?;
        (obs.a.a, Some(obs.a.b), obs.b, kept)
    } else {
        let (obs, kept) = sink.run::<Pair<EnergyLedger, X>>(&schedule, &cfg, metrics)?;
        (obs.a, None, obs.b, kept)
    };
    metrics.inc("stage.fleet.runs");
    metrics.gauge_add("stage.fleet.wall_s", sw.elapsed_s());
    let fleet = FleetArtifacts {
        schedule,
        domains: catalog(),
        ledger,
        econ,
        frontier_factor: spec.frontier_factor(),
    };
    Ok((fleet, extra, kept))
}

/// Where a stage run's delivery trace goes: nowhere (`()`), or into the
/// slot it fills ([`Pipeline::traced_stages`]).
trait TraceSink {
    /// What the run hands back beside its observers.
    type Kept;
    /// One published fleet run folding `O`.
    fn run<O: FleetObserver + Default>(
        self,
        schedule: &Schedule,
        cfg: &FleetConfig,
        metrics: &mut Metrics,
    ) -> Result<(O, Self::Kept), PmssError>;
}

impl TraceSink for () {
    type Kept = ();
    fn run<O: FleetObserver + Default>(
        self,
        schedule: &Schedule,
        cfg: &FleetConfig,
        metrics: &mut Metrics,
    ) -> Result<(O, ()), PmssError> {
        let (obs, _) = generation(metrics, schedule, &[cfg.faults.as_ref()], || {
            let (obs, stats) = simulate_fleet_metered(schedule, cfg);
            Ok((obs, vec![stats]))
        })?;
        Ok((obs, ()))
    }
}

/// One generation folds `O`, tallies the stats and fills the trace.
impl<'t> TraceSink for &'t mut Option<DeliveryTrace> {
    type Kept = &'t DeliveryTrace;
    fn run<O: FleetObserver + Default>(
        self,
        schedule: &Schedule,
        cfg: &FleetConfig,
        metrics: &mut Metrics,
    ) -> Result<(O, &'t DeliveryTrace), PmssError> {
        let ((trace, obs), _) = generation(metrics, schedule, &[cfg.faults.as_ref()], || {
            let (trace, obs, stats) = DeliveryTrace::capture_folding(schedule, cfg)?;
            Ok(((trace, obs), vec![stats]))
        })?;
        // The retained footprint is the tool's own output.
        metrics.gauge_set("delivery.rows", trace.len() as f64);
        metrics.gauge_set("delivery.trace_bytes", trace.retained_bytes() as f64);
        Ok((obs, self.insert(trace)))
    }
}

/// The benchmark stage in `slot` — Table III from the spec's own cap
/// ladders: computed when missing, a counted reuse otherwise.
fn table3_stage<'a>(
    slot: &'a mut Option<Table3>,
    spec: &ScenarioSpec,
    engine: &Engine,
    metrics: &mut Metrics,
) -> Result<&'a Table3, PmssError> {
    match slot {
        Some(t3) => {
            metrics.inc("stage.table3.reuses");
            Ok(t3)
        }
        None => {
            let sw = Stopwatch::start();
            let t3 = table3::compute_with_ladders(
                engine,
                &ladder(&spec.freq_caps_mhz, CapSetting::FreqMhz),
                &ladder(&spec.power_caps_w, CapSetting::PowerW),
            )?;
            metrics.inc("stage.table3.runs");
            metrics.gauge_add("stage.table3.wall_s", sw.elapsed_s());
            Ok(slot.insert(t3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactId;
    use crate::spec::ScalePreset;
    use pmss_telemetry::{scoped_map, DomainHistograms, SystemHistogram};

    #[test]
    fn pipeline_rejects_invalid_specs() {
        let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
        spec.nodes = 0;
        assert!(Pipeline::new(spec).is_err());
    }

    #[test]
    fn fleet_stage_is_memoized() {
        let mut p = Pipeline::new(ScenarioSpec::preset(ScalePreset::Quick)).unwrap();
        let total = p.fleet().unwrap().ledger.total().joules;
        assert!(total > 0.0);
        // Second call replays the memoized stage (same object, same totals).
        let again = p.fleet().unwrap().ledger.total().joules;
        assert_eq!(total, again);
    }

    /// The traced stage is the untraced stage plus a capture, whichever
    /// was asked for first.
    #[test]
    fn traced_stage_matches_the_untraced_stage_and_a_standalone_capture() {
        let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
        spec.nodes = 4;
        spec.days = 0.25;
        spec.faults = Some(pmss_faults::FaultPlan::preset("frontier-typical").unwrap());
        let fresh = || Pipeline::new(spec.clone()).unwrap();
        let mut plain = fresh();
        plain.fleet().unwrap();
        assert!(plain.trace.is_none());
        // Traced first: one run fills artifacts and trace.  Untraced
        // first: the trace costs one more.
        let mut first = fresh();
        first.traced_stages().unwrap();
        first.fleet().unwrap();
        let mut late = fresh();
        late.fleet().unwrap();
        late.traced_stages().unwrap();
        late.traced_stages().unwrap();

        let want = plain.fleet.as_ref().unwrap();
        let alone = DeliveryTrace::capture_folding::<()>(&want.schedule, &plain.fleet_config())
            .unwrap()
            .0;
        for (p, runs) in [(&first, 1), (&late, 2)] {
            let got = p.fleet.as_ref().unwrap();
            assert_eq!(got.ledger, want.ledger);
            // `PartialEq` on events: this plan glitches to NaN, which
            // never equals itself, so compare the debug rendering.
            let trace = p.trace.as_ref().unwrap();
            assert_eq!(trace.len(), alone.len());
            assert!(trace
                .iter()
                .zip(alone.iter())
                .all(|(a, b)| format!("{a:?}") == format!("{b:?}")));
            let m = &p.metrics;
            assert_eq!(m.counter("fleet.runs"), runs);
            assert_eq!(m.counter("stage.fleet.runs"), 1);
            assert_eq!(m.counter("stage.fleet.reuses"), 1);
            assert_eq!(m.gauge("delivery.rows"), Some(trace.len() as f64));
        }
    }

    /// The four observers every fleet stage run folded before the stage
    /// folded the ledger alone: the oracle for the split.
    type FourObservers =
        Pair<Pair<SystemHistogram, DomainHistograms>, Pair<EnergyLedger, EconSeries>>;

    /// Every fleet observer an artifact reads — the stage's ledger, traced
    /// or not, the series a priced stage or `econ` folds, and the
    /// histograms Figs. 8 and 9 and `sensitivity` fold in their own run of
    /// the stage — is bit for bit the matching member of a hand-built
    /// four-observer fold: clean, faulted and mixed, on every core and on
    /// one worker.
    #[test]
    fn split_stage_folds_match_the_four_observer_fold() {
        let clean = ScenarioSpec::preset(ScalePreset::Quick);
        let mut harsh = clean.clone();
        harsh.faults = Some(pmss_faults::FaultPlan::preset("harsh").unwrap());
        let mut mixed = clean.clone();
        mixed.fleet_mix = Some("mixed-50-50".to_string());
        for spec in [clean, harsh, mixed] {
            let check = || {
                let mut p = Pipeline::new(spec.clone()).unwrap();
                let (old, _) =
                    simulate_fleet_metered::<FourObservers>(&p.schedule(), &p.fleet_config());
                let want = |x: &dyn std::fmt::Debug| format!("{x:?}");
                let (ledger, series) = (want(&old.b.a), want(&old.b.b));

                assert_eq!(want(&p.fleet().unwrap().ledger), ledger);
                let system = p.fleet_with::<SystemHistogram>(false).unwrap().1;
                assert_eq!(want(&system), want(&old.a.a));
                let (fleet, domains) = p.fleet_with::<DomainHistograms>(false).unwrap();
                assert_eq!(want(&fleet.ledger), ledger);
                assert_eq!(want(&domains), want(&old.a.b));
                let fleet = p.fleet_with::<()>(true).unwrap().0;
                assert_eq!(want(&fleet.econ.as_ref().unwrap()), series);
                assert_eq!(want(&fleet.ledger), ledger);

                // A priced spec's stage, traced (`stream`, `govern`) and
                // not (`whatif` and the JSON envelope), folds the series.
                let mut priced = spec.clone();
                priced.econ = Some(pmss_econ::EconTrace::preset("diurnal").unwrap());
                let mut traced = Pipeline::new(priced.clone()).unwrap();
                let fleet = traced.traced_stages().unwrap().0.fleet;
                assert_eq!(want(&fleet.ledger), ledger);
                assert_eq!(want(&fleet.econ.as_ref().unwrap()), series);
                let mut plain = Pipeline::new(priced).unwrap();
                let fleet = plain.stages().unwrap().fleet;
                assert_eq!(want(&fleet.econ.as_ref().unwrap()), series);
            };
            check();
            let one_worker = scoped_map(2, 1, |_| {
                check();
                pmss_telemetry::workers()
            });
            assert_eq!(one_worker, [1], "{}", spec.name);
        }
    }

    /// A `quick`-shaped scenario small enough to run a dozen times in a
    /// debug build.
    fn small_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
        spec.nodes = 8;
        spec.days = 1.0;
        spec
    }

    const THREADED: [ArtifactId; 3] = [
        ArtifactId::Faults,
        ArtifactId::Govern,
        ArtifactId::PeakPower,
    ];

    /// Runs `leg` at one worker — the lone job of a two-worker scope,
    /// where `pmss_telemetry::workers` is 1 — and then on every core.
    fn at_one_worker_and_every_core<T: Send>(leg: impl Fn() -> T + Sync) -> [T; 2] {
        [scoped_map(2, 1, |_| leg()).remove(0), leg()]
    }

    /// The `fleet.workers` each leg of [`at_one_worker_and_every_core`]
    /// reports.
    fn legs_workers() -> [Option<f64>; 2] {
        [Some(1.0), Some(pmss_telemetry::workers() as f64)]
    }

    /// One worker against every core: the three threaded artifacts render
    /// the same bytes, each registry reports the worker count its leg ran
    /// on, and the registries agree on everything that is not a clock.
    #[test]
    fn threaded_artifacts_are_byte_identical_at_one_worker_and_every_core() {
        let clean = small_spec();
        let mut faulted = small_spec();
        faulted.faults = Some(pmss_faults::FaultPlan::preset("frontier-typical").unwrap());
        let mut mixed = small_spec();
        mixed.fleet_mix = Some("mixed-50-50".to_string());
        for spec in [clean, faulted, mixed] {
            let [(one, m1), (all, mn)] = at_one_worker_and_every_core(|| {
                let mut p = Pipeline::new(spec.clone()).unwrap();
                let rendered: Vec<(String, String)> = THREADED
                    .iter()
                    .map(|&id| {
                        let art = p.artifact(id).unwrap();
                        (art.render_ascii(), art.to_json().to_string_pretty())
                    })
                    .collect();
                (rendered, p.metrics_report())
            });
            assert_eq!(one, all, "{}", spec.name);
            let reported = [&m1, &mn].map(|m| m.gauge("fleet.workers"));
            assert_eq!(reported, legs_workers());
            // The stage, `govern`'s late trace, ten rows, five caps.
            assert_eq!(m1.counter("fleet.runs"), 1 + 1 + 10 + 5);
            assert!(m1.counters().eq(mn.counters()));
            let steady = |m: &Metrics| -> Vec<(String, f64)> {
                m.gauges()
                    .filter(|(k, _)| {
                        !(k.ends_with("wall_s") || k.ends_with("_per_s") || *k == "fleet.workers")
                    })
                    .map(|(k, v)| (k.to_string(), v))
                    .collect()
            };
            assert_eq!(steady(&m1), steady(&mn));
            let counts = |m: &Metrics| -> Vec<(String, u64)> {
                m.hists().map(|(k, h)| (k.to_string(), h.count())).collect()
            };
            assert_eq!(counts(&m1), counts(&mn));
        }
    }

    /// A custom plan that validates but cannot be resolved against the
    /// fleet fails `govern` with the same error at one worker and on
    /// every core — the first failure in node order is the one returned —
    /// and the failed pipeline still reports the worker count it ran on.
    #[test]
    fn govern_returns_the_same_resolve_error_at_any_worker_count() {
        let mut spec = small_spec();
        let mut plan = pmss_govern::GovernorPlan::preset("greedy").unwrap();
        plan.budget_w = Some(1.0);
        spec.govern = Some(plan);
        let [(one, w1), (all, wn)] = at_one_worker_and_every_core(|| {
            let mut p = Pipeline::new(spec.clone()).unwrap();
            let err = match p.artifact(ArtifactId::Govern) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("a 1 W budget cannot grant every node its floor"),
            };
            (err, p.metrics_report().gauge("fleet.workers"))
        });
        assert!(one.contains("governor budget_w"), "{one}");
        assert_eq!(one, all);
        assert_eq!([w1, wn], legs_workers());
    }

    #[test]
    fn spec_ladders_feed_the_benchmark_stage() {
        let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
        spec.freq_caps_mhz = vec![1700.0, 1100.0];
        let mut p = Pipeline::new(spec).unwrap();
        let t3 = p.table3().unwrap();
        assert_eq!(t3.freq_rows.len(), 2);
        assert!(t3.freq_row(1100.0).is_some());
        assert!(t3.freq_row(900.0).is_none());
    }

    #[test]
    fn projection_matches_paper_shape() {
        let mut p = Pipeline::new(ScenarioSpec::preset(ScalePreset::Quick)).unwrap();
        let proj = p.projection().unwrap();
        assert!(!proj.freq_rows.is_empty());
        assert!(!proj.power_rows.is_empty());
        assert!(proj.input.total_mwh() > 0.0);
    }
}
