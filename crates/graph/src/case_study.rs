//! The Fig. 7 case study: Louvain community detection across networks,
//! frequencies, and power caps.
//!
//! Drives the full pipeline — generate network → run (real) Louvain →
//! map to GPU kernel phases → sweep caps on the device model — and reports
//! runtime, average power, and energy per operating point, plus the
//! energy-saving summaries the paper quotes (Sec. IV-C).

use rand::rngs::StdRng;
use rand::SeedableRng;

use pmss_gpu::{Engine, GpuSettings};

use crate::csr::Csr;
use crate::gen;
use crate::gpu_map::{louvain_phases, LouvainCostModel};
use crate::louvain::{louvain, LouvainResult};

/// Frequencies swept in Fig. 7, in MHz.
pub(crate) const FIG7_FREQS_MHZ: [f64; 7] = [1700.0, 1500.0, 1300.0, 1100.0, 900.0, 700.0, 500.0];

/// Power caps discussed for the road network (Sec. IV-C), in watts.
pub(crate) const FIG7_POWER_CAPS_W: [f64; 4] = [560.0, 220.0, 180.0, 140.0];

/// One input network of the case study.
#[derive(Debug, Clone)]
pub struct NetworkCase {
    /// Display name (family + size).
    pub name: String,
    /// The network itself.
    pub graph: Csr,
}

/// Scale knob for the generated networks (tests use `Small`, the bench
/// binary `Paper`-like sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseScale {
    /// Thousands of edges — unit-test sized.
    Small,
    /// Hundreds of thousands of edges.
    Medium,
    /// Millions of edges, approaching the paper's 8 M ceiling.
    Large,
}

/// Generates the case-study network suite: social (power-law) networks of
/// increasing size plus a bounded-degree road network, spanning the paper's
/// edge range.
pub fn networks(scale: CaseScale, seed: u64) -> Vec<NetworkCase> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (social_sizes, road_side): (Vec<(usize, usize)>, usize) = match scale {
        CaseScale::Small => (vec![(400, 4), (1_500, 4), (3_000, 6)], 80),
        CaseScale::Medium => (vec![(10_000, 6), (40_000, 8), (80_000, 10)], 500),
        CaseScale::Large => (vec![(100_000, 10), (300_000, 10), (400_000, 20)], 2_000),
    };

    let mut cases = Vec::new();
    for (n, m) in social_sizes {
        let g = gen::barabasi_albert(n, m, &mut rng);
        cases.push(NetworkCase {
            name: format!("social-{}e", human_edges(g.num_edges())),
            graph: g,
        });
    }
    let road = gen::road(road_side, road_side, 0.55, &mut rng);
    cases.push(NetworkCase {
        name: format!("road-{}e", human_edges(road.num_edges())),
        graph: road,
    });
    cases
}

fn human_edges(e: usize) -> String {
    if e >= 1_000_000 {
        format!("{:.0}M", e as f64 / 1e6)
    } else if e >= 1_000 {
        format!("{:.0}K", e as f64 / 1e3)
    } else {
        e.to_string()
    }
}

/// One operating point of the study.
#[derive(Debug, Clone)]
pub struct CasePoint {
    /// Network name.
    pub network: String,
    /// Knob value (MHz for the frequency study, watts for the cap study).
    pub knob: f64,
    /// Total detection runtime, in seconds.
    pub runtime_s: f64,
    /// Mean GPU power over the run, in watts.
    pub avg_power_w: f64,
    /// Peak (busy-phase) power across levels, in watts.
    pub peak_power_w: f64,
    /// Energy to solution, in joules.
    pub energy_j: f64,
    /// Whether any level breached the power cap.
    pub cap_breached: bool,
}

/// Energy/runtime change of one setting against the uncapped baseline.
#[derive(Debug, Clone, Copy)]
pub struct Savings {
    /// Fractional energy saving (positive = saved).
    pub energy_saving: f64,
    /// Fractional runtime increase (positive = slower).
    pub runtime_increase: f64,
}

/// The Fig. 7 case study for one network: Louvain result plus its kernel
/// phases, reusable across settings.
pub struct CaseStudy {
    /// Network name.
    pub name: String,
    /// The Louvain run on the network.
    pub result: LouvainResult,
    phases: Vec<pmss_gpu::KernelProfile>,
    engine: Engine,
}

impl CaseStudy {
    /// Prepares the study: runs Louvain and maps it onto GPU phases.
    pub fn prepare(case: &NetworkCase, runs: usize) -> CaseStudy {
        let result = louvain(&case.graph);
        let phases = louvain_phases(&case.graph, &result, &LouvainCostModel::default(), runs);
        CaseStudy {
            name: case.name.clone(),
            result,
            phases,
            engine: Engine::default(),
        }
    }

    /// Executes the detection under `settings`.
    pub fn run(&self, settings: GpuSettings) -> CasePoint {
        let mut runtime = 0.0;
        let mut energy = 0.0;
        let mut peak: f64 = 0.0;
        let mut breached = false;
        for k in &self.phases {
            let ex = self.engine.execute(k, settings);
            runtime += ex.time_s;
            energy += ex.energy_j;
            peak = peak.max(ex.busy_power_w);
            breached |= ex.cap_breached;
        }
        CasePoint {
            network: self.name.clone(),
            knob: match settings.power_cap_w {
                Some(w) => w,
                None => settings.freq_cap.mhz(),
            },
            runtime_s: runtime,
            avg_power_w: if runtime > 0.0 { energy / runtime } else { 0.0 },
            peak_power_w: peak,
            energy_j: energy,
            cap_breached: breached,
        }
    }

    /// Frequency sweep (Fig. 7).
    pub fn frequency_sweep(&self) -> Vec<CasePoint> {
        FIG7_FREQS_MHZ
            .iter()
            .map(|&mhz| self.run(GpuSettings::freq_capped(mhz)))
            .collect()
    }

    /// Power-cap sweep (the road-network cap discussion).
    pub fn power_cap_sweep(&self) -> Vec<CasePoint> {
        FIG7_POWER_CAPS_W
            .iter()
            .map(|&w| self.run(GpuSettings::power_capped(w)))
            .collect()
    }

    /// Savings of one setting versus the uncapped baseline.
    pub fn savings(&self, settings: GpuSettings) -> Savings {
        let base = self.run(GpuSettings::uncapped());
        let point = self.run(settings);
        Savings {
            energy_saving: 1.0 - point.energy_j / base.energy_j,
            runtime_increase: point.runtime_s / base.runtime_s - 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite() -> Vec<CaseStudy> {
        networks(CaseScale::Small, 77)
            .iter()
            .map(|c| CaseStudy::prepare(c, 3))
            .collect()
    }

    #[test]
    fn suite_contains_social_and_road_families() {
        let cases = networks(CaseScale::Small, 77);
        assert_eq!(cases.len(), 4);
        assert!(cases.iter().any(|c| c.name.starts_with("social")));
        assert!(cases.iter().any(|c| c.name.starts_with("road")));
    }

    #[test]
    fn social_networks_save_energy_at_900mhz_with_small_slowdown() {
        // Paper Sec. IV-C: "we observe an energy saving of (5.23%, 2.91%,
        // 3.32%) with at most 5% increase of runtime at 900 MHz" for the
        // largest social networks.
        for study in suite().iter().filter(|s| s.name.starts_with("social")) {
            let s = study.savings(GpuSettings::freq_capped(900.0));
            assert!(
                s.energy_saving > 0.02,
                "{}: saving {}",
                study.name,
                s.energy_saving
            );
            assert!(
                s.runtime_increase < 0.15,
                "{}: slowdown {}",
                study.name,
                s.runtime_increase
            );
        }
    }

    #[test]
    fn road_runtime_is_more_frequency_sensitive_than_social() {
        let studies = suite();
        let slowdown_at_700 = |s: &CaseStudy| {
            let pts = s.frequency_sweep();
            let base = pts[0].runtime_s;
            pts.iter()
                .find(|p| (p.knob - 700.0).abs() < 0.5)
                .unwrap()
                .runtime_s
                / base
        };
        let road = studies.iter().find(|s| s.name.starts_with("road")).unwrap();
        let social = studies
            .iter()
            .find(|s| s.name.starts_with("social"))
            .unwrap();
        assert!(
            slowdown_at_700(road) > slowdown_at_700(social) + 0.2,
            "road {} vs social {}",
            slowdown_at_700(road),
            slowdown_at_700(social)
        );
    }

    #[test]
    fn road_power_capping_matches_paper_narrative() {
        // Paper: road peaks near 205 W; capping at 220 W costs no runtime
        // while still saving energy; deep caps (140 W) slow it down.
        let studies = suite();
        let road = studies.iter().find(|s| s.name.starts_with("road")).unwrap();
        let base = road.run(GpuSettings::uncapped());
        assert!(base.peak_power_w < 230.0, "peak {}", base.peak_power_w);

        let at_220 = road.savings(GpuSettings::power_capped(220.0));
        assert!(at_220.runtime_increase.abs() < 0.02, "{:?}", at_220);

        let at_140 = road.savings(GpuSettings::power_capped(140.0));
        assert!(at_140.runtime_increase > 0.05, "{:?}", at_140);
    }

    #[test]
    fn frequency_sweep_covers_all_fig7_points() {
        let studies = suite();
        let pts = studies[0].frequency_sweep();
        assert_eq!(pts.len(), FIG7_FREQS_MHZ.len());
        for (p, mhz) in pts.iter().zip(FIG7_FREQS_MHZ) {
            assert!((p.knob - mhz).abs() < 0.5);
            assert!(p.runtime_s > 0.0 && p.energy_j > 0.0);
        }
    }
}
