//! Snapshot/query view over a streamed energy ledger.
//!
//! A [`StreamState`] is what a monitoring consumer reads between ingest
//! batches: the ledger accumulated so far, the savings projection it
//! implies at full-Frontier scale, and the coverage-adjusted bounds on the
//! headline figure.  Each accessor mirrors the corresponding batch
//! pipeline computation exactly, so a state snapshotted after the last
//! window equals the batch artifact bit for bit.

use pmss_core::project::{project, Projection, ProjectionInput, SavingsBounds};
use pmss_core::{Coverage, EnergyLedger};
use pmss_econ::EconSeries;
use pmss_error::PmssError;
use pmss_telemetry::Pair;
use pmss_workloads::Table3;

use crate::engine::StreamEngine;

/// A point-in-time view of a streamed fleet decomposition.
#[derive(Debug, Clone)]
pub struct StreamState {
    ledger: EnergyLedger,
    econ: Option<EconSeries>,
    frontier_factor: f64,
}

impl StreamState {
    /// Wraps a snapshotted ledger; `frontier_factor` extrapolates the
    /// simulated fleet to full-Frontier scale exactly like the batch
    /// pipeline's projection stage.
    pub fn new(ledger: EnergyLedger, frontier_factor: f64) -> StreamState {
        StreamState {
            ledger,
            econ: None,
            frontier_factor,
        }
    }

    /// Wraps a snapshotted ledger plus the per-slot economics series
    /// accumulated alongside it.
    pub fn with_econ(ledger: EnergyLedger, econ: EconSeries, frontier_factor: f64) -> StreamState {
        StreamState {
            ledger,
            econ: Some(econ),
            frontier_factor,
        }
    }

    /// Snapshots a paired ledger + econ-series engine (released *and*
    /// buffered windows).  The ledger component is bit-identical to a
    /// ledger-only engine's snapshot over the same windows: `Pair` forwards
    /// each event to both members independently, so pairing changes no
    /// ledger operation.
    pub fn capture_pair(
        engine: &StreamEngine<'_, Pair<EnergyLedger, EconSeries>>,
        frontier_factor: f64,
    ) -> StreamState {
        let pair = engine.snapshot();
        StreamState::with_econ(pair.a, pair.b, frontier_factor)
    }

    /// The decomposition ledger over every ingested window.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// The per-slot economics series, when the ingest path accumulated
    /// one (see [`StreamState::capture_pair`]).
    pub fn econ(&self) -> Option<&EconSeries> {
        self.econ.as_ref()
    }

    /// The full-Frontier extrapolation factor this state projects with.
    pub fn frontier_factor(&self) -> f64 {
        self.frontier_factor
    }

    /// Per-mode coverage accounting of the ingested telemetry.
    pub fn coverage(&self) -> Coverage {
        self.ledger.coverage()
    }

    /// The savings projection at full-Frontier scale — the same
    /// computation as the batch pipeline's projection stage
    /// (`project(from_ledger(scaled(ledger)))`), so its rows are
    /// bit-identical once the same windows have been ingested.
    ///
    /// Errors while no energy has been ingested yet (a projection against
    /// zero energy is meaningless).
    pub fn projection(&self, table3: &Table3) -> Result<Projection, PmssError> {
        let scaled = self.ledger.scaled(self.frontier_factor)?;
        project(ProjectionInput::from_ledger(&scaled), table3)
    }

    /// Coverage-adjusted bounds on the best no-slowdown savings figure —
    /// the stream's honest headline while telemetry is still arriving or
    /// degraded.
    pub fn coverage_bounds(&self, table3: &Table3) -> Result<SavingsBounds, PmssError> {
        let p = self.projection(table3)?;
        Ok(p.best_free()
            .coverage_bounds_dt0(self.coverage().fraction()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamConfig;
    use pmss_sched::{catalog, generate, TraceParams};
    use pmss_telemetry::{fleet_window_blocks, FleetConfig};
    use pmss_workloads::table3;

    #[test]
    fn state_mirrors_the_batch_projection_path() {
        let sched = generate(
            TraceParams {
                nodes: 4,
                duration_s: 4.0 * 3600.0,
                seed: 7,
                ..TraceParams::default()
            },
            &catalog(),
        );
        let mut eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&sched, StreamConfig::default()).unwrap();
        fleet_window_blocks(&sched, &FleetConfig::default(), |b| {
            b.iter().for_each(|ev| eng.ingest(ev).unwrap());
        });
        eng.flush();
        let factor = 3.5;
        let state = StreamState::new(eng.snapshot(), factor);
        let t3 = table3::compute_default();
        let p = state.projection(&t3).unwrap();
        let want = project(
            ProjectionInput::from_ledger(&state.ledger().scaled(factor).unwrap()),
            &t3,
        )
        .unwrap();
        assert_eq!(p.input.e_total_j, want.input.e_total_j);
        let b = state.coverage_bounds(&t3).unwrap();
        // Clean telemetry: full coverage collapses the interval.
        assert_eq!(b.coverage, 1.0);
        assert_eq!(b.lo_pct, b.hi_pct);
    }

    #[test]
    fn pairing_an_econ_series_leaves_the_ledger_bits_unchanged() {
        let sched = generate(
            TraceParams {
                nodes: 3,
                duration_s: 2.0 * 3600.0,
                seed: 11,
                ..TraceParams::default()
            },
            &catalog(),
        );
        let mut solo: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&sched, StreamConfig::default()).unwrap();
        let mut paired: StreamEngine<'_, Pair<EnergyLedger, EconSeries>> =
            StreamEngine::new(&sched, StreamConfig::default()).unwrap();
        fleet_window_blocks(&sched, &FleetConfig::default(), |b| {
            for ev in b.iter() {
                solo.ingest(ev).unwrap();
                paired.ingest(ev).unwrap();
            }
        });
        solo.flush();
        paired.flush();
        let a = StreamState::new(solo.snapshot(), 2.0);
        let b = StreamState::capture_pair(&paired, 2.0);
        assert_eq!(format!("{:?}", a.ledger()), format!("{:?}", b.ledger()));
        let econ = b.econ().expect("paired capture carries the series");
        assert!(econ.total_gpu_j() > 0.0);
        assert_eq!(b.frontier_factor(), 2.0);
        assert!(a.econ().is_none());
    }

    #[test]
    fn empty_state_projects_to_a_typed_error() {
        let sched = generate(
            TraceParams {
                nodes: 1,
                duration_s: 3600.0,
                seed: 1,
                ..TraceParams::default()
            },
            &catalog(),
        );
        let eng: StreamEngine<'_, EnergyLedger> =
            StreamEngine::new(&sched, StreamConfig::default()).unwrap();
        let state = StreamState::new(eng.snapshot(), 1.0);
        let t3 = table3::compute_default();
        assert!(state.projection(&t3).is_err());
        assert!(state.coverage_bounds(&t3).is_err());
    }
}
