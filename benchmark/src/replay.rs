//! `replay-resident`: a campaign captured once in set-up, then replayed from
//! the compressed resident store to a rendered projection answer, in
//! process, with simulation out of the timed loop.

use std::time::Instant;

use crate::scenario;
use crate::surface::{
    catalog, generate, query_answer, simulate_fleet, EconSeries, EnergyLedger, Pair, Pipeline,
    Query, ResidentFleet, ScenarioSpec, Schedule, StreamState, Table3,
};
use crate::trace::Tracer;
use crate::workload::{err, timed, Ctx, Rep, Workload};

/// Window-events in the Frontier-scale month EXPERIMENTS.md quotes a replay
/// time for: the size the replay figure is extrapolated to.
const CAMPAIGN_WINDOW_EVENTS: f64 = 2.0e9;

pub struct Replay;

pub struct Inputs {
    pub spec: ScenarioSpec,
    pub schedule: Schedule,
    pub table3: Table3,
    pub resident: ResidentFleet,
    /// The first replay's rendered answer; every rep must reproduce it.
    pub expected: String,
}

type PairObs = Pair<EnergyLedger, EconSeries>;

/// The rep's first operation: decode → fold → merge of the whole store.
fn replay(inputs: &Inputs, t: &mut Tracer) -> Result<PairObs, String> {
    let id = t.open("telemetry.replay");
    let pair = inputs.resident.replay(&inputs.schedule);
    t.close(
        id,
        inputs.resident.rows(),
        inputs.resident.payload_bytes() as u64,
    );
    pair.map_err(err("replay"))
}

/// The rep's second operation: state → project → render.
fn answer(inputs: &Inputs, pair: PairObs, t: &mut Tracer) -> Result<(StreamState, String), String> {
    let id = t.open("pipeline.query_answer");
    let state = StreamState::with_econ(pair.a, pair.b, inputs.spec.frontier_factor());
    let out = query_answer(&state, &inputs.table3, None, &Query::Projection)
        .map(|a| a.to_string_pretty());
    t.close(id, 1, out.as_ref().map_or(0, |o| o.len() as u64));
    Ok((state, out.map_err(err("projection answer"))?))
}

impl Workload for Replay {
    type Inputs = Inputs;
    const CHILD_PROCESSES: bool = false;

    fn name(&self) -> &'static str {
        "replay-resident"
    }

    fn spec(&self, seed: u64, smoke: bool) -> ScenarioSpec {
        scenario::spec(self.name(), scenario::REPLAY_RESIDENT, seed, smoke)
    }

    /// Generates the schedule, captures the campaign, computes Table III,
    /// and checks one replay against the live simulation of the same
    /// schedule.
    fn setup(&self, seed: u64, ctx: &Ctx) -> Result<Inputs, String> {
        let spec = self.spec(seed, ctx.smoke);
        let schedule = generate(spec.trace_params(), &catalog());
        let mut pipeline = Pipeline::new(spec.clone()).map_err(err("pipeline"))?;
        let cfg = pipeline.fleet_config();
        let resident = ResidentFleet::capture(&schedule, &cfg).map_err(err("capture"))?;
        let table3 = pipeline.table3().map_err(err("table3"))?.clone();
        let mut inputs = Inputs {
            spec,
            schedule,
            table3,
            resident,
            expected: String::new(),
        };
        let off = &mut Tracer::new(false);
        let (state, first) = answer(&inputs, replay(&inputs, off)?, off)?;
        inputs.expected = first;
        let replayed = state.ledger();

        // The codec stores everything but power losslessly, and power at
        // the sensor's 1 W resolution: coverage must match the live run to
        // the bit, energy to half a quantum per observed second.
        let live: EnergyLedger = simulate_fleet(&inputs.schedule, &cfg);
        let (lc, rc) = (live.coverage(), replayed.coverage());
        if lc.observed_s.to_bits() != rc.observed_s.to_bits()
            || lc.excluded_s.to_bits() != rc.excluded_s.to_bits()
        {
            return Err("replayed coverage differs from the live simulation".to_string());
        }
        let drift = (live.total().joules - replayed.total().joules).abs();
        if drift > 0.5 * lc.observed_s {
            return Err(format!(
                "replayed energy drifts {drift} J from the live simulation, beyond the \
                 quantization bound"
            ));
        }
        Ok(inputs)
    }

    fn traced_rep(&self, inputs: &Inputs, _ctx: &Ctx, t: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let start = Instant::now();
        let (pair, replay_s) = timed(|| replay(inputs, t));
        let (out, answer_s) = timed(|| pair.and_then(|p| answer(inputs, p, t)));
        rep.wall_s = start.elapsed().as_secs_f64();
        rep.block_s.push(replay_s);
        rep.query_s.push(answer_s);
        rep.windows = inputs.resident.rows();
        rep.checks.check(match out {
            Err(e) => Some(e),
            Ok((_, answer)) => (answer != inputs.expected)
                .then(|| "replayed answer differs from the first replay's".to_string()),
        });
        rep
    }

    /// The full-campaign replay time, with its extrapolation factor.
    fn note(&self, inputs: &Inputs, windows_per_s: f64) -> Option<String> {
        let rows = inputs.resident.rows() as f64;
        Some(format!(
            "full campaign ({CAMPAIGN_WINDOW_EVENTS:e} window-events) would replay in {} s: \
             extrapolated {}x from the {rows} window-events each rep replays",
            CAMPAIGN_WINDOW_EVENTS / windows_per_s,
            CAMPAIGN_WINDOW_EVENTS / rows
        ))
    }
}
