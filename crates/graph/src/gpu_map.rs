//! GPU workload mapping for Louvain — turns a graph and a Louvain run into
//! the kernel phases the GPU model executes.
//!
//! The paper's GPU Louvain distributes work "among the threads based on the
//! degree distribution of the vertices": high-degree vertices are processed
//! by a thread group or a full wavefront, while on sparse bounded-degree
//! networks a single thread handles each vertex.  The two mappings have very
//! different machine behaviour (Sec. IV-C):
//!
//! * **wavefront-balanced** (power-law / social networks): coalesced,
//!   latency-hiding access that sustains a healthy fraction of HBM
//!   bandwidth and is only mildly frequency sensitive;
//! * **thread-per-vertex** (road networks): divergent, issue-limited
//!   pointer chasing whose runtime stretches almost proportionally as the
//!   clock drops — "the performance is impacted more in the lower frequency
//!   ranges".

use pmss_gpu::KernelProfile;

use crate::csr::{Csr, DegreeStats};
use crate::louvain::LouvainResult;

/// How vertices are assigned to SIMD lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadMapping {
    /// Degree-binned groups / full wavefronts per vertex (balanced).
    WavefrontBalanced,
    /// One thread per vertex (bounded-degree networks).
    ThreadPerVertex,
}

/// Picks the mapping the paper's implementation would use for a degree
/// profile: bounded-degree, low-average-degree networks get a thread per
/// vertex, everything else the balanced wavefront scheme.
pub(crate) fn choose_mapping(stats: &DegreeStats) -> ThreadMapping {
    if stats.d_max <= 16 && stats.d_avg < 4.0 {
        ThreadMapping::ThreadPerVertex
    } else {
        ThreadMapping::WavefrontBalanced
    }
}

/// Cost coefficients of the GPU Louvain implementation.  Calibrated so the
/// Fig. 7 case study lands near the paper's observations: social-network
/// runs sustain ~180 W average with single-digit energy savings and a small
/// slowdown at 900 MHz; the 8 M-edge road network peaks near 205 W with a
/// strongly frequency-sensitive runtime.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LouvainCostModel {
    /// HBM bytes per arc per sweep during local moving (scattered gathers
    /// of neighbor communities, weights, and totals).
    pub hbm_bytes_per_arc: f64,
    /// Useful FLOPs per arc per sweep (gain evaluation).
    pub flops_per_arc: f64,
    /// On-die traffic amplification over HBM traffic.
    pub ondie_amplification: f64,
    /// Serial (latency-bound) seconds per node per sweep at the maximum
    /// clock — community bookkeeping and short dependent chains.
    pub serial_s_per_node: f64,
    /// Host transfer rate for the per-level CPU<->GPU data movement, in
    /// bytes/s (PCIe-class link).
    pub host_link_bw: f64,
    /// Fixed host-side overhead per level, in seconds.  Zero by default so
    /// the phase mix — and therefore every runtime/power *ratio* — is
    /// invariant in graph size, letting unit tests exercise the same
    /// behaviour on thousand-edge graphs that the paper observed at
    /// millions of edges.
    pub host_overhead_s: f64,
}

impl Default for LouvainCostModel {
    fn default() -> Self {
        LouvainCostModel {
            hbm_bytes_per_arc: 64.0,
            flops_per_arc: 6.0,
            ondie_amplification: 2.0,
            serial_s_per_node: 0.05e-9,
            host_link_bw: 50e9,
            host_overhead_s: 0.0,
        }
    }
}

/// Machine-behaviour parameters for each thread mapping.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MappingProfile {
    /// Sustainable fraction of peak HBM bandwidth.
    pub bw_sustain: f64,
    /// Memory-level-parallelism oversubscription.
    pub bw_oversub: f64,
    /// Wasted-lane fraction from divergence.
    pub divergence: f64,
    /// Multiplier on the serial cost (pointer chasing per thread).
    pub serial_factor: f64,
}

impl MappingProfile {
    /// Profile for a thread mapping.
    pub(crate) fn of(mapping: ThreadMapping) -> Self {
        match mapping {
            ThreadMapping::WavefrontBalanced => MappingProfile {
                bw_sustain: 0.55,
                bw_oversub: 2.5,
                divergence: 0.12,
                serial_factor: 1.0,
            },
            ThreadMapping::ThreadPerVertex => MappingProfile {
                bw_sustain: 0.26,
                bw_oversub: 0.4,
                divergence: 0.5,
                serial_factor: 10.0,
            },
        }
    }
}

/// Builds the kernel phases for a Louvain run on `g` — one phase per level,
/// repeated `runs` times (benchmark-style repetition for steady-state power
/// measurement).
pub(crate) fn louvain_phases(
    g: &Csr,
    result: &LouvainResult,
    cost: &LouvainCostModel,
    runs: usize,
) -> Vec<KernelProfile> {
    let mapping = choose_mapping(&g.degree_stats());
    let prof = MappingProfile::of(mapping);
    let runs = runs.max(1) as f64;

    result
        .levels
        .iter()
        .enumerate()
        .map(|(i, lvl)| {
            let sweeps = lvl.sweeps.max(1) as f64;
            let hbm = cost.hbm_bytes_per_arc * lvl.arcs as f64 * sweeps * runs;
            let flops = cost.flops_per_arc * lvl.arcs as f64 * sweeps * runs;
            let serial =
                cost.serial_s_per_node * prof.serial_factor * lvl.nodes as f64 * sweeps * runs;
            let stall = (lvl.arcs as f64 * 16.0 / cost.host_link_bw + cost.host_overhead_s) * runs;
            KernelProfile::builder(format!("louvain-L{i}-{mapping:?}"))
                .flops(flops.max(1.0))
                .hbm_bytes(hbm)
                .ondie_bytes(hbm * cost.ondie_amplification)
                .flop_efficiency(0.268)
                .bw_oversub(prof.bw_oversub)
                .bw_sustain(prof.bw_sustain)
                .divergence(prof.divergence)
                .serial_at_fmax(serial)
                .stall(stall)
                .build()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::louvain::louvain;
    use pmss_gpu::{Engine, GpuSettings};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn phases_for(g: &Csr) -> Vec<KernelProfile> {
        let r = louvain(g);
        louvain_phases(g, &r, &LouvainCostModel::default(), 1)
    }

    #[test]
    fn road_networks_use_thread_per_vertex() {
        let mut rng = StdRng::seed_from_u64(21);
        let road = gen::road(60, 60, 0.55, &mut rng);
        assert_eq!(
            choose_mapping(&road.degree_stats()),
            ThreadMapping::ThreadPerVertex
        );
        let social = gen::barabasi_albert(1000, 5, &mut rng);
        assert_eq!(
            choose_mapping(&social.degree_stats()),
            ThreadMapping::WavefrontBalanced
        );
    }

    #[test]
    fn one_phase_per_level() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = gen::barabasi_albert(600, 4, &mut rng);
        let r = louvain(&g);
        let phases = louvain_phases(&g, &r, &LouvainCostModel::default(), 1);
        assert_eq!(phases.len(), r.levels.len());
    }

    #[test]
    fn social_louvain_is_only_mildly_frequency_sensitive() {
        // Paper Fig. 7: social networks' runtimes "are less sensitive to
        // frequencies compared to a road network".
        let mut rng = StdRng::seed_from_u64(23);
        let social = gen::barabasi_albert(3000, 6, &mut rng);
        let road = gen::road(120, 120, 0.55, &mut rng);
        let eng = Engine::default();

        let slowdown = |g: &Csr| -> f64 {
            let total = |mhz: f64| -> f64 {
                phases_for(g)
                    .iter()
                    .map(|k| eng.execute(k, GpuSettings::freq_capped(mhz)).time_s)
                    .sum()
            };
            total(700.0) / total(1700.0)
        };

        let s_social = slowdown(&social);
        let s_road = slowdown(&road);
        assert!(
            s_road > s_social + 0.2,
            "road {s_road} vs social {s_social}"
        );
    }

    #[test]
    fn road_busy_power_peaks_near_paper_value() {
        // Paper: "the maximum power value for the 8M road network is up to
        // 205 W".
        let mut rng = StdRng::seed_from_u64(24);
        let road = gen::road(150, 150, 0.55, &mut rng);
        let eng = Engine::default();
        let max_busy = phases_for(&road)
            .iter()
            .map(|k| eng.execute(k, GpuSettings::uncapped()).busy_power_w)
            .fold(0.0f64, f64::max);
        assert!(
            (170.0..=225.0).contains(&max_busy),
            "road peak busy power {max_busy}"
        );
    }

    #[test]
    fn runs_scale_work_linearly() {
        let mut rng = StdRng::seed_from_u64(25);
        let g = gen::barabasi_albert(500, 4, &mut rng);
        let r = louvain(&g);
        let one = louvain_phases(&g, &r, &LouvainCostModel::default(), 1);
        let five = louvain_phases(&g, &r, &LouvainCostModel::default(), 5);
        assert!((five[0].hbm_bytes / one[0].hbm_bytes - 5.0).abs() < 1e-9);
        assert!((five[0].stall_s / one[0].stall_s - 5.0).abs() < 1e-9);
    }
}
