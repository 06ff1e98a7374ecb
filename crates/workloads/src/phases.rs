//! Synthetic phased applications: the fleet-simulation workload generator.
//!
//! Real Frontier jobs are sequences of phases with different resource
//! signatures; the paper's Fig. 9 shows each science domain concentrating
//! its GPU power in characteristic bands (compute-intensive near the TDP,
//! latency-bound near idle, memory-intensive in between, and multi-modal
//! mixes).  This module synthesizes applications as sequences of
//! [`KernelProfile`] phases whose *uncapped* sustained powers land in those
//! bands, so that the fleet telemetry reproduces the Fig. 8 distribution
//! and the Table IV GPU-hour split.

use rand::Rng;

use pmss_gpu::consts::{GPU_HBM_BW, GPU_PEAK_FLOPS};
use pmss_gpu::KernelProfile;

use crate::vai::VAI_FLOP_EFFICIENCY;

/// Workload archetype, mirroring the paper's four regions of operation
/// (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppClass {
    /// Region 3: FLOP-bound kernels drawing 420–560 W.
    ComputeIntensive,
    /// Region 2: bandwidth-bound kernels drawing 200–420 W.
    MemoryIntensive,
    /// Region 1: latency / network / I/O bound, ≤ 200 W.
    LatencyBound,
    /// Multi-modal applications that move between regions (Fig. 9 g–h).
    Mixed,
}

impl AppClass {
    /// All archetypes.
    pub fn all() -> [AppClass; 4] {
        [
            AppClass::ComputeIntensive,
            AppClass::MemoryIntensive,
            AppClass::LatencyBound,
            AppClass::Mixed,
        ]
    }
}

/// Duration bounds for one synthesized phase, in seconds.
const PHASE_MIN_S: f64 = 30.0;
const PHASE_MAX_S: f64 = 600.0;

fn phase_duration<R: Rng + ?Sized>(rng: &mut R, remaining_s: f64) -> f64 {
    let d = rng.gen_range(PHASE_MIN_S..PHASE_MAX_S);
    d.min(remaining_s)
}

/// A compute-intensive phase: FLOP-bound VAI-like kernel with an arithmetic
/// intensity drawn log-uniformly from [2, 512] FLOP/byte, sized for
/// `duration_s` at the maximum clock.
pub(crate) fn compute_phase<R: Rng + ?Sized>(rng: &mut R, duration_s: f64) -> KernelProfile {
    let ai = 2f64.powf(rng.gen_range(1.0..9.0));
    let eff_peak = GPU_PEAK_FLOPS * VAI_FLOP_EFFICIENCY;
    let flops = eff_peak * duration_s;
    // A fixed label: phase synthesis sits on the fleet hot path, and
    // formatting the drawn parameters into every name costs more than the
    // whole rest of the builder.  The parameters stay visible in the
    // numeric fields.
    KernelProfile::builder("compute-intensive")
        .flops(flops)
        .hbm_bytes(flops / ai)
        .flop_efficiency(VAI_FLOP_EFFICIENCY)
        .bw_oversub(1.0)
        .build()
}

/// A memory-intensive phase: bandwidth-bound kernel sustaining a fraction
/// of peak HBM bandwidth set by its memory-level parallelism, with a low
/// arithmetic intensity.
pub(crate) fn memory_phase<R: Rng + ?Sized>(rng: &mut R, duration_s: f64) -> KernelProfile {
    let sustain = rng.gen_range(0.45..1.0); // fraction of HBM peak sustained
    let ai = 2f64.powf(rng.gen_range(-4.0..-0.5));
    let bytes = GPU_HBM_BW * sustain * duration_s;
    // High oversubscription with a sub-peak sustain ceiling: like the
    // paper's memory benchmark, these phases keep their bandwidth (and thus
    // their runtime) when the clock is capped — the basis of the "energy
    // savings without compromising performance" headline.
    KernelProfile::builder("memory-intensive")
        .flops(bytes * ai)
        .hbm_bytes(bytes)
        .flop_efficiency(VAI_FLOP_EFFICIENCY)
        .bw_oversub(3.0)
        .bw_sustain(sustain)
        .build()
}

/// A latency / network / I/O bound phase: mostly serial dependent work and
/// GPU-idle stalls, with a sliver of memory traffic.
pub(crate) fn latency_phase<R: Rng + ?Sized>(rng: &mut R, duration_s: f64) -> KernelProfile {
    let serial_frac = rng.gen_range(0.3..0.8);
    let stall_frac = rng.gen_range(0.1..(0.95 - serial_frac));
    let burst_s = duration_s * (1.0 - serial_frac - stall_frac);
    KernelProfile::builder("latency-bound")
        .hbm_bytes(GPU_HBM_BW * 0.3 * burst_s)
        .flops(1.0)
        .bw_oversub(0.3)
        .bw_sustain(0.3)
        .serial_at_fmax(duration_s * serial_frac)
        .stall(duration_s * stall_frac)
        .build()
}

/// Synthesizes an application of class `class` lasting approximately
/// `total_s` seconds at the maximum clock, as a sequence of phases.
pub fn synthesize_app<R: Rng + ?Sized>(
    class: AppClass,
    total_s: f64,
    rng: &mut R,
) -> Vec<KernelProfile> {
    assert!(total_s > 0.0, "non-positive app duration");
    let mut phases = Vec::new();
    let mut remaining = total_s;
    while remaining > 1.0 {
        let d = phase_duration(rng, remaining);
        let phase = match class {
            AppClass::ComputeIntensive => {
                // CI apps still stage data occasionally.
                if rng.gen_bool(0.1) {
                    memory_phase(rng, d)
                } else {
                    compute_phase(rng, d)
                }
            }
            AppClass::MemoryIntensive => {
                if rng.gen_bool(0.08) {
                    latency_phase(rng, d)
                } else {
                    memory_phase(rng, d)
                }
            }
            AppClass::LatencyBound => latency_phase(rng, d),
            AppClass::Mixed => match rng.gen_range(0..3) {
                0 => compute_phase(rng, d),
                1 => memory_phase(rng, d),
                _ => latency_phase(rng, d),
            },
        };
        phases.push(phase);
        remaining -= d;
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmss_gpu::{Engine, GpuSettings};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uncapped_busy_power(k: &KernelProfile) -> f64 {
        Engine::default()
            .execute(k, GpuSettings::uncapped())
            .busy_power_w
    }

    #[test]
    fn compute_phases_land_in_region_3() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let k = compute_phase(&mut rng, 120.0);
            let p = uncapped_busy_power(&k);
            assert!((410.0..=545.0).contains(&p), "CI phase power {p}");
        }
    }

    #[test]
    fn memory_phases_land_in_region_2() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..50 {
            let k = memory_phase(&mut rng, 120.0);
            let p = uncapped_busy_power(&k);
            assert!((195.0..=425.0).contains(&p), "MI phase power {p}");
        }
    }

    #[test]
    fn latency_phases_land_in_region_1() {
        let mut rng = StdRng::seed_from_u64(13);
        let eng = Engine::default();
        for _ in 0..50 {
            let k = latency_phase(&mut rng, 120.0);
            let ex = eng.execute(&k, GpuSettings::uncapped());
            assert!(
                ex.avg_power_w <= 205.0,
                "latency phase average power {}",
                ex.avg_power_w
            );
        }
    }

    #[test]
    fn app_duration_approximates_request() {
        let mut rng = StdRng::seed_from_u64(14);
        let eng = Engine::default();
        for class in AppClass::all() {
            let phases = synthesize_app(class, 3600.0, &mut rng);
            let total: f64 = phases
                .iter()
                .map(|k| eng.execute(k, GpuSettings::uncapped()).time_s)
                .sum();
            assert!(
                (3000.0..=4500.0).contains(&total),
                "{class:?} app lasted {total}"
            );
        }
    }

    #[test]
    fn mixed_apps_touch_multiple_regions() {
        let mut rng = StdRng::seed_from_u64(15);
        let phases = synthesize_app(AppClass::Mixed, 7200.0, &mut rng);
        let powers: Vec<f64> = phases.iter().map(uncapped_busy_power).collect();
        let lo = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = powers.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi - lo > 150.0, "mixed app power span {lo}..{hi}");
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let a = synthesize_app(
            AppClass::MemoryIntensive,
            1800.0,
            &mut StdRng::seed_from_u64(9),
        );
        let b = synthesize_app(
            AppClass::MemoryIntensive,
            1800.0,
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(a, b);
    }
}
