//! Codec-resident campaign capture and block-level replay.
//!
//! A [`ResidentFleet`] is one fleet run at rest: every telemetry channel
//! captured as a compressed [`EncodedBlock`] (the power column through the
//! overflow-hardened quantizing codec, integer columns as delta varints,
//! timestamps derived from the window grid — see `pmss_columns::resident`).
//! This is the paper's "huge data storage" answer made concrete: a
//! campaign store is a flat sequence of independently-decodable blocks,
//! and replaying it against an observer touches one decompressed block at
//! a time — O(channel) scratch, never O(campaign).
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

use pmss_columns::{CodecConfig, ColumnBlock, EncodedBlock, FleetObserver};
use pmss_error::PmssError;
use pmss_sched::Schedule;

use crate::fleet::{channel_grid, fleet_window_blocks, FleetConfig};

/// One fleet run's telemetry, compressed block-per-channel (see module
/// docs).
#[derive(Debug, Clone)]
pub struct ResidentFleet {
    blocks: Vec<EncodedBlock>,
    rows: u64,
}

impl ResidentFleet {
    /// Runs the fleet simulation for `(schedule, cfg)` and captures every
    /// channel as a compressed resident block, at the codec's default 1 W
    /// sensor quantization.
    pub fn capture(schedule: &Schedule, cfg: &FleetConfig) -> Result<ResidentFleet, PmssError> {
        let codec = CodecConfig::default();
        let mut blocks = Vec::new();
        let mut rows = 0u64;
        let mut first_err = None;
        fleet_window_blocks(schedule, cfg, |block| {
            if first_err.is_some() {
                return;
            }
            let grid = channel_grid(schedule, cfg, block.node());
            match EncodedBlock::encode(block, grid, codec) {
                Ok(enc) => {
                    rows += block.len() as u64;
                    blocks.push(enc);
                }
                Err(e) => first_err = Some(e),
            }
        });
        match first_err {
            Some(e) => Err(e),
            None => Ok(ResidentFleet { blocks, rows }),
        }
    }

    /// Replays the store into a fresh observer: each block decodes
    /// independently (into one reused scratch block) and folds in
    /// canonical channel order (nodes ascending; GPU slots `0..4`, then
    /// rest-of-node) through [`FleetObserver::fold_channel`] — the batch
    /// simulation's accumulation shape.  `schedule` must be the one the
    /// store was captured from (job attribution indexes its job log).
    pub fn replay<O: FleetObserver + Default>(&self, schedule: &Schedule) -> Result<O, PmssError> {
        let mut obs = O::default();
        let mut block = ColumnBlock::default();
        for enc in &self.blocks {
            enc.decode_into(CodecConfig::default(), &mut block)?;
            obs.fold_channel(schedule, &block);
        }
        Ok(obs)
    }

    /// The compressed per-channel blocks, in canonical channel order.
    pub fn blocks(&self) -> &[EncodedBlock] {
        &self.blocks
    }

    /// Total window rows across every block.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Compressed size: the sum of every block's payload bytes.
    pub fn payload_bytes(&self) -> usize {
        self.blocks.iter().map(EncodedBlock::payload_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::simulate_fleet;
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
}
