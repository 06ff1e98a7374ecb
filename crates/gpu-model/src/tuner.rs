//! Sweet-spot auto-tuner: per-SKU, per-mode frequency selection by model
//! search instead of the paper's fixed 900/1100/1600 MHz grid.
//!
//! Afzal et al. observe that the energy-efficiency sweet spot of a GPU
//! kernel moves with both the part and the workload balance; a frequency
//! grid tuned on one SKU leaves savings on the table on another.  The
//! tuner runs each mode's representative kernel through the execution
//! engine across a fine frequency grid and picks the cap minimizing
//! energy-to-solution subject to a slowdown bound — the model analog of
//! the paper's "no slowdown" constraint.

use crate::engine::{Engine, GpuSettings};
use crate::freq::Freq;
use crate::kernel::KernelProfile;

/// Search grid pitch, MHz.  Fine enough to beat the paper's 200 MHz grid,
/// coarse enough that a full catalog tunes in microseconds.
const GRID_STEP_MHZ: f64 = 25.0;

/// A tuned operating point for one power-managed mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweetSpot {
    /// Mode label (`"memory-intensive"`, `"compute-intensive"`).
    pub mode: &'static str,
    /// Chosen frequency cap.
    pub freq: Freq,
    /// Energy at the chosen cap relative to uncapped (1.0 = no change).
    pub energy_ratio: f64,
    /// Runtime at the chosen cap relative to uncapped (1.0 = no change).
    pub slowdown: f64,
}

/// Memory-intensive representative: a membench-style kernel with enough
/// memory-level parallelism to keep HBM saturated across most of the DVFS
/// range (Table III's "MB" column stays at ~99 % runtime).
fn mi_kernel() -> KernelProfile {
    KernelProfile::builder("tuner-mi")
        .hbm_bytes(64e9)
        .bw_oversub(3.0)
        .flops(1.0)
        .build()
}

/// Compute-intensive representative: a VAI-tail profile at the given
/// arithmetic intensity (FLOP per HBM byte), matching the calibration
/// kernels used throughout the model.
fn mode_kernel(name: &str, ai: f64) -> KernelProfile {
    let bytes = 64e9;
    KernelProfile::builder(name)
        .flops(ai * bytes)
        .hbm_bytes(bytes)
        .flop_efficiency(0.268)
        .bw_oversub(1.0)
        .build()
}

/// Finds the energy-minimizing frequency cap for `kernel` on `engine`
/// subject to `slowdown <= max_slowdown` relative to uncapped execution.
///
/// The grid is walked from the maximum clock downward in
/// 25 MHz steps; ties keep the higher frequency, so the
/// result is deterministic and never slower than it needs to be.
pub(crate) fn sweet_spot_for(
    engine: &Engine,
    mode: &'static str,
    kernel: &KernelProfile,
    max_slowdown: f64,
) -> SweetSpot {
    let base = engine.execute(kernel, GpuSettings::uncapped());
    let mut best = SweetSpot {
        mode,
        freq: Freq::MAX,
        energy_ratio: 1.0,
        slowdown: 1.0,
    };
    let mut mhz = Freq::MAX.mhz();
    while mhz >= Freq::MIN.mhz() - 1e-9 {
        let ex = engine.execute(kernel, GpuSettings::freq_capped(mhz));
        let slowdown = ex.time_s / base.time_s;
        let energy_ratio = ex.energy_j / base.energy_j;
        if slowdown <= max_slowdown && energy_ratio < best.energy_ratio {
            best = SweetSpot {
                mode,
                freq: ex.freq,
                energy_ratio,
                slowdown,
            };
        }
        mhz -= GRID_STEP_MHZ;
    }
    best
}

/// Tunes the two throughput modes for one SKU's engine: the
/// memory-intensive mode (streaming kernel, AI = 1/16) and the
/// compute-intensive mode (tail kernel, AI = 1024).
///
/// `max_slowdown` is the admissible runtime stretch (e.g. `1.01` for the
/// paper's no-slowdown regime with 1 % tolerance).
pub fn sweet_spots(engine: &Engine, max_slowdown: f64) -> [SweetSpot; 2] {
    [
        sweet_spot_for(engine, "memory-intensive", &mi_kernel(), max_slowdown),
        sweet_spot_for(
            engine,
            "compute-intensive",
            &mode_kernel("tuner-ci", 1024.0),
            max_slowdown,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_mode_tunes_deep_without_slowdown() {
        // Memory-bound work is insensitive to the core clock until the
        // effective bandwidth ceiling bites: the tuner should find a cap
        // well below max that saves energy at ~no slowdown.
        let [mi, _] = sweet_spots(&Engine::default(), 1.01);
        assert!(mi.freq.mhz() < Freq::MAX.mhz(), "found {}", mi.freq.mhz());
        assert!(mi.energy_ratio < 0.95, "energy {}", mi.energy_ratio);
        assert!(mi.slowdown <= 1.01);
    }

    #[test]
    fn compute_mode_respects_the_slowdown_bound() {
        let [_, ci] = sweet_spots(&Engine::default(), 1.10);
        assert!(ci.slowdown <= 1.10);
        assert!(ci.energy_ratio <= 1.0);
        // The compute sweet spot sits above the memory one: ALU-bound work
        // pays linearly in runtime for every MHz shed.
        let [mi, _] = sweet_spots(&Engine::default(), 1.10);
        assert!(ci.freq.mhz() >= mi.freq.mhz());
    }

    #[test]
    fn tighter_bound_never_chooses_a_slower_point() {
        let eng = Engine::default();
        let [loose, _] = sweet_spots(&eng, 1.25);
        let [tight, _] = sweet_spots(&eng, 1.001);
        assert!(tight.freq.mhz() >= loose.freq.mhz());
        assert!(tight.slowdown <= 1.001);
    }

    #[test]
    fn sweet_spots_differ_across_skus() {
        use crate::sku::SkuCatalog;
        let cat = SkuCatalog::standard();
        let spots: Vec<_> = cat
            .skus()
            .iter()
            .map(|s| sweet_spots(&s.engine, 1.01))
            .collect();
        // At least one SKU lands a different MI-mode frequency than the
        // MI250X baseline — the whole point of per-SKU search.
        assert!(
            spots[1..].iter().any(|sp| sp[0].freq != spots[0][0].freq)
                || spots[1..].iter().any(|sp| sp[1].freq != spots[0][1].freq),
            "all SKUs tuned identically: {spots:?}"
        );
    }

    #[test]
    fn no_admissible_point_falls_back_to_uncapped() {
        // With an impossible bound (< 1.0) nothing beats uncapped.
        let spot = sweet_spot_for(
            &Engine::default(),
            "compute-intensive",
            &mode_kernel("x", 1024.0),
            0.5,
        );
        assert_eq!(spot.freq, Freq::MAX);
        assert_eq!(spot.energy_ratio, 1.0);
    }
}
