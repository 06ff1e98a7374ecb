//! Codec-resident campaign capture and block-level replay.
//!
//! A [`ResidentFleet`] is one fleet run at rest: every telemetry channel
//! captured as a compressed [`EncodedBlock`] (the power column through the
//! overflow-hardened quantizing codec, integer columns as delta varints,
//! timestamps derived from the window grid — see `pmss_columns::resident`).
//! This is the paper's "huge data storage" answer made concrete: a
//! campaign store is a flat sequence of independently-decodable blocks,
//! and replaying it against an observer decodes each block a tile of rows
//! at a time — one tile of scratch per worker, never O(campaign).
//!
//! Replay is *bit-deterministic* (the same store folds to the same ledger,
//! bit for bit, every time) and exact in everything the codec stores
//! losslessly: window indices, delivery ranks, tags, job attribution,
//! timestamps, spans — so coverage accounting matches the live run to the
//! bit.  Power values are quantized at capture to the codec's 1 W
//! quantum (`pmss_columns::codec::QUANTUM_W`, the sensor's own
//! resolution), so replayed *energy* agrees with the live run to within
//! half a quantum per sample — the precision the fleet's sensors had in
//! the first place.

use pmss_columns::{
    BlockEncoder, CodecConfig, ColumnBlock, EncodedBlock, FleetObserver, TILE_ROWS,
};
use pmss_error::PmssError;
use pmss_sched::Schedule;

use crate::fleet::{channel_grid, run_channels, FleetConfig, FleetRunStats, Retain};
use crate::threads::{scoped_sink, until_err, workers};

/// Runs the fleet simulation for `(schedule, cfg)` and hands each
/// channel, encoded tile by tile on the worker that generated it
/// ([`BlockEncoder`], default 1 W quantum), to `sink` on the calling
/// thread in canonical `(node, slot)` order; returns the run's
/// [`FleetRunStats`].  At most one node per worker waits for `sink`, so a
/// `sink` that blocks stalls generation.  The first failure — a channel
/// that does not encode, or `sink`'s error — ends the run and is
/// returned, after every block before it was sunk and before any node
/// after it is claimed.
pub fn capture_blocks<E>(
    schedule: &Schedule,
    cfg: &FleetConfig,
    mut sink: impl FnMut(EncodedBlock) -> Result<(), E>,
) -> Result<FleetRunStats, E>
where
    E: From<PmssError>,
{
    let encode = |encoder: Option<BlockEncoder>, tile: &ColumnBlock| {
        let mut encoder = encoder.unwrap_or_else(|| {
            let grid = channel_grid(schedule, cfg, tile.node());
            BlockEncoder::new(tile.node(), tile.slot(), grid)
        });
        encoder.push(tile);
        encoder
    };
    let mut failed = None;
    let mut keep = |encoder: BlockEncoder| {
        let sunk = (encoder.finish(CodecConfig::default()))
            .map_err(E::from)
            .and_then(&mut sink);
        until_err(sunk, &mut failed)
    };
    let retain = Retain {
        whole: false,
        map: &encode,
        keep: &mut keep,
    };
    let ((), stats) = run_channels(workers(), schedule, cfg, Some(retain));
    failed.map_or(Ok(stats), Err)
}

/// One fleet run's telemetry, compressed block-per-channel (see module
/// docs).
#[derive(Debug, Clone, Default)]
pub struct ResidentFleet {
    blocks: Vec<EncodedBlock>,
}

impl ResidentFleet {
    /// [`capture_blocks`] into a fresh store.
    pub fn capture(schedule: &Schedule, cfg: &FleetConfig) -> Result<ResidentFleet, PmssError> {
        let mut store = ResidentFleet::default();
        capture_blocks(schedule, cfg, |block| {
            store.push(block);
            Ok::<_, PmssError>(())
        })?;
        Ok(store)
    }

    /// Appends `block` as the store's next channel (the in-memory sink).
    pub fn push(&mut self, block: EncodedBlock) {
        self.blocks.push(block);
    }

    /// Replays the store into a fresh observer.  Each block decodes
    /// independently, a [`TILE_ROWS`] tile at a time, and folds into a
    /// fresh per-channel partial ([`FleetObserver::fold_rows`] over each
    /// tile); the channels run on [`workers`] threads, each with one tile
    /// of scratch, and the calling thread merges the partials in canonical
    /// channel order (nodes ascending; GPU slots `0..4`, then
    /// rest-of-node) — the batch simulation's accumulation shape, so the
    /// result is the same bits at any worker count.  The first decode
    /// error in that order is returned.  `schedule` must be the one the
    /// store was captured from (job attribution indexes its job log).
    pub fn replay<O: FleetObserver + Default>(&self, schedule: &Schedule) -> Result<O, PmssError> {
        self.replay_on(workers(), schedule)
    }

    /// [`ResidentFleet::replay`] on `workers` threads.
    fn replay_on<O: FleetObserver + Default>(
        &self,
        workers: usize,
        schedule: &Schedule,
    ) -> Result<O, PmssError> {
        let scratch = (0..workers.max(1))
            .map(|_| ColumnBlock::with_capacity(0, 0, TILE_ROWS))
            .collect();
        let fold = |tile: &mut ColumnBlock, i: usize| -> Result<O, PmssError> {
            let mut part = O::default();
            let mut tiles = self.blocks[i].tiles(CodecConfig::default())?;
            while tiles.next_into(tile)? {
                part.fold_block(schedule, tile);
            }
            Ok(part)
        };
        let (mut obs, mut failed) = (O::default(), None);
        scoped_sink(scratch, 2, self.blocks.len(), fold, |_, part| {
            until_err(part.map(|part| obs.merge(part)), &mut failed)
        });
        failed.map_or(Ok(obs), Err)
    }

    /// The compressed per-channel blocks, in canonical channel order.
    pub fn blocks(&self) -> &[EncodedBlock] {
        &self.blocks
    }

    /// Total window rows across every block.
    pub fn rows(&self) -> u64 {
        self.blocks.iter().map(EncodedBlock::rows).sum()
    }

    /// Compressed size: the sum of every block's payload bytes.
    pub fn payload_bytes(&self) -> usize {
        self.blocks.iter().map(EncodedBlock::payload_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{fleet_window_blocks, simulate_fleet};
    use pmss_core::EnergyLedger;
    use pmss_faults::FaultPlan;
    use pmss_sched::{catalog, generate, TraceParams};

    fn schedule() -> Schedule {
        generate(
            TraceParams {
                nodes: 4,
                duration_s: 3.0 * 3600.0,
                seed: 9,
                min_job_s: 900.0,
            },
            &catalog(),
        )
    }

    #[test]
    fn capture_compresses_and_replay_is_deterministic() {
        let sched = schedule();
        let cfg = FleetConfig::default();
        let resident = ResidentFleet::capture(&sched, &cfg).expect("capture");
        assert!(resident.rows() > 0);
        let mut raw_bytes = 0;
        fleet_window_blocks(&sched, &cfg, |block| raw_bytes += block.column_bytes());
        assert!(
            raw_bytes > 4 * resident.payload_bytes(),
            "raw {raw_bytes} B vs payload {} B",
            resident.payload_bytes()
        );
        let a: EnergyLedger = resident.replay(&sched).expect("replay");
        let b: EnergyLedger = resident.replay(&sched).expect("replay");
        assert_eq!(a, b);
    }

    #[test]
    fn replay_coverage_is_exact_and_energy_within_quantization() {
        let sched = schedule();
        let cfg = FleetConfig {
            faults: Some(FaultPlan::preset("frontier-typical").expect("preset")),
            ..FleetConfig::default()
        };
        let live: EnergyLedger = simulate_fleet(&sched, &cfg);
        let resident = ResidentFleet::capture(&sched, &cfg).expect("capture");
        let replayed: EnergyLedger = resident.replay(&sched).expect("replay");
        // Everything the codec stores losslessly matches the live run to
        // the bit: the time-coverage ledger only ever accumulates spans.
        let lc = live.coverage();
        let rc = replayed.coverage();
        assert_eq!(lc.observed_s.to_bits(), rc.observed_s.to_bits());
        assert_eq!(lc.excluded_s.to_bits(), rc.excluded_s.to_bits());
        assert_eq!(lc.interpolated_s.to_bits(), rc.interpolated_s.to_bits());
        assert_eq!(lc.discarded_s.to_bits(), rc.discarded_s.to_bits());
        // Power is quantized at 1 W, so total energy agrees to within half
        // a quantum across the observed seconds.
        let tol = 0.5 * (lc.observed_s + lc.interpolated_s + lc.attributed_idle_s);
        let diff = (live.total().joules - replayed.total().joules).abs();
        assert!(
            diff <= tol,
            "energy drift {diff} J exceeds quantization bound {tol} J"
        );
    }

    /// Real threads at 1, 2, 3 and 8 workers (more than this box may have
    /// cores, which is the point): the replay of the ledger, the econ
    /// series and `fig 2`'s energy split is the same bits, and
    /// a store with corrupt blocks fails with its first corrupt block's
    /// error in canonical order, whichever worker reaches which first.
    #[test]
    fn replay_is_worker_count_invariant_including_its_first_error() {
        use pmss_econ::EconSeries;

        use crate::observers::{GpuCpuEnergy, Pair};

        let sched = schedule();
        let cfg = FleetConfig {
            faults: Some(FaultPlan::preset("harsh").expect("preset")),
            ..FleetConfig::default()
        };
        let resident = ResidentFleet::capture(&sched, &cfg).expect("capture");
        let replay = |store: &ResidentFleet, workers: usize| {
            store
                .replay_on::<Pair<Pair<EnergyLedger, EconSeries>, GpuCpuEnergy>>(workers, &sched)
                .map(|pair| format!("{pair:?}"))
                .map_err(|e| e.to_string())
        };
        let one = replay(&resident, 1).expect("replay");
        // A value run cut short fails inside a tile; a cut run header
        // fails before the first tile.
        let cut = |enc: &EncodedBlock, keep: usize| {
            let wire = enc.to_bytes();
            EncodedBlock::from_bytes(&wire[..wire.len() - enc.payload_bytes() + keep])
                .expect("header intact")
        };
        let mut corrupt = resident.clone();
        corrupt.blocks[2] = cut(&resident.blocks[2], resident.blocks[2].payload_bytes() - 1);
        corrupt.blocks[6] = cut(&resident.blocks[6], 3);
        let first = corrupt.blocks[2]
            .decode(CodecConfig::default())
            .expect_err("truncated")
            .to_string();
        assert_ne!(
            first,
            corrupt.blocks[6]
                .decode(CodecConfig::default())
                .unwrap_err()
                .to_string()
        );
        for workers in [1, 2, 3, 8] {
            assert_eq!(
                replay(&resident, workers),
                Ok(one.clone()),
                "{workers} workers"
            );
            assert_eq!(
                replay(&corrupt, workers),
                Err(first.clone()),
                "{workers} workers"
            );
        }
    }
}
