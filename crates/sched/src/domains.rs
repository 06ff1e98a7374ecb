//! Science-domain catalog with workload profiles.
//!
//! The paper derives science domains from the `project_id` prefix in the
//! SLURM log and shows (Fig. 9) that each domain's GPU power distribution
//! is strongly modal: some domains are compute-intensive (a, b), some
//! latency/network/I-O bound (c, d), some memory-intensive (e, f), and some
//! multi-modal (g, h).  This catalog encodes eight such archetypes with
//! activity shares and workload-class mixtures calibrated so that the
//! fleet-wide GPU-hour split lands near the paper's Table IV
//! (29.8 % / 49.5 % / 19.5 % / 1.1 %).

use pmss_workloads::AppClass;

/// One science domain: its name (the `project_id` prefix), workload
/// mixture, job-size preferences, and share of fleet activity.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// Domain code, used as the project-id prefix (e.g. `CPH` for
    /// computational physics ⇒ projects `CPH101`, `CPH102`, …).
    pub code: &'static str,
    /// Human-readable name.
    pub name: &'static str,
    /// Workload-class mixture `(class, weight)`; weights sum to 1.
    pub mix: Vec<(AppClass, f64)>,
    /// Job-size class weights `[A, B, C, D, E]`.
    pub size_weights: [f64; 5],
    /// Share of total fleet GPU-hours; catalog shares sum to 1.
    pub activity: f64,
}

/// The eight-domain catalog mirroring the paper's Fig. 9 archetypes.
///
/// Activity shares and mixtures are the calibration that reproduces the
/// Table IV GPU-hour split; see `pmss-core`'s decomposition tests.
pub fn catalog() -> Vec<DomainSpec> {
    use AppClass::*;
    vec![
        // Fig. 9 (a)-(b): compute-intensive domains running near the TDP.
        DomainSpec {
            code: "CPH",
            name: "lattice/particle physics",
            mix: vec![(ComputeIntensive, 0.85), (MemoryIntensive, 0.15)],
            size_weights: [0.25, 0.35, 0.30, 0.07, 0.03],
            activity: 0.10,
        },
        DomainSpec {
            code: "MAT",
            name: "materials / electronic structure",
            mix: vec![
                (ComputeIntensive, 0.78),
                (MemoryIntensive, 0.17),
                (LatencyBound, 0.05),
            ],
            size_weights: [0.10, 0.35, 0.40, 0.10, 0.05],
            activity: 0.09,
        },
        // Fig. 9 (c)-(d): latency / network / IO bound domains.
        DomainSpec {
            code: "BIO",
            name: "bioinformatics / genomics",
            mix: vec![(LatencyBound, 0.80), (MemoryIntensive, 0.20)],
            size_weights: [0.02, 0.13, 0.40, 0.25, 0.20],
            activity: 0.16,
        },
        DomainSpec {
            code: "DAT",
            name: "data analytics / workflows",
            mix: vec![(LatencyBound, 0.75), (Mixed, 0.25)],
            size_weights: [0.02, 0.08, 0.35, 0.30, 0.25],
            activity: 0.13,
        },
        // Fig. 9 (e)-(f): memory-intensive domains.
        DomainSpec {
            code: "CLI",
            name: "climate / earth system",
            mix: vec![(MemoryIntensive, 0.92), (LatencyBound, 0.08)],
            size_weights: [0.30, 0.35, 0.25, 0.07, 0.03],
            activity: 0.21,
        },
        DomainSpec {
            code: "CFD",
            name: "computational fluid dynamics",
            mix: vec![(MemoryIntensive, 0.85), (ComputeIntensive, 0.15)],
            size_weights: [0.20, 0.35, 0.30, 0.10, 0.05],
            activity: 0.17,
        },
        // Fig. 9 (g)-(h): multi-modal domains.
        DomainSpec {
            code: "AST",
            name: "astrophysics",
            mix: vec![(Mixed, 1.0)],
            size_weights: [0.15, 0.30, 0.35, 0.12, 0.08],
            activity: 0.07,
        },
        DomainSpec {
            code: "FUS",
            name: "fusion / plasma",
            mix: vec![(Mixed, 0.55), (MemoryIntensive, 0.45)],
            size_weights: [0.10, 0.30, 0.40, 0.12, 0.08],
            activity: 0.07,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expected fleet-wide GPU-hour share per workload class implied by the
    /// catalog (`Mixed` spreads evenly across the three base classes).
    fn expected_class_shares(domains: &[DomainSpec]) -> ClassShares {
        let mut s = ClassShares::default();
        for d in domains {
            for &(class, w) in &d.mix {
                let a = d.activity * w;
                match class {
                    AppClass::ComputeIntensive => s.compute += a,
                    AppClass::MemoryIntensive => s.memory += a,
                    AppClass::LatencyBound => s.latency += a,
                    AppClass::Mixed => {
                        s.compute += a / 3.0;
                        s.memory += a / 3.0;
                        s.latency += a / 3.0;
                    }
                }
            }
        }
        s
    }

    /// GPU-hour shares per base workload class.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct ClassShares {
        /// Compute-intensive share.
        compute: f64,
        /// Memory-intensive share.
        memory: f64,
        /// Latency/network/IO-bound share.
        latency: f64,
    }

    #[test]
    fn activities_sum_to_one() {
        let total: f64 = catalog().iter().map(|d| d.activity).sum();
        assert!((total - 1.0).abs() < 1e-9, "activity sum {total}");
    }

    #[test]
    fn mixtures_sum_to_one() {
        for d in catalog() {
            let w: f64 = d.mix.iter().map(|&(_, w)| w).sum();
            assert!((w - 1.0).abs() < 1e-9, "{}: mixture sum {w}", d.code);
        }
    }

    #[test]
    fn size_weights_are_valid_distributions() {
        for d in catalog() {
            let s: f64 = d.size_weights.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{}: size weights {s}", d.code);
            assert!(d.size_weights.iter().all(|&w| w >= 0.0));
        }
    }

    #[test]
    fn class_shares_match_calibration_targets() {
        // The catalog is calibrated so that the *observed* fleet
        // decomposition lands on Table IV (29.8 / 49.5 / 19.5 / 1.1 %; the
        // cross-crate integration tests assert that).  The raw mixture
        // differs from the observed split because mixed apps spread across
        // regions, CI apps stage data in the MI band, latency apps emit
        // some MI bursts, and a little scheduler idle always reads as
        // region 1.  These bounds pin the calibrated mixture itself.
        let s = expected_class_shares(&catalog());
        assert!((0.20..0.32).contains(&s.latency), "latency {}", s.latency);
        assert!((0.40..0.55).contains(&s.memory), "memory {}", s.memory);
        assert!((0.14..0.28).contains(&s.compute), "compute {}", s.compute);
        assert!(s.memory > s.latency && s.memory > s.compute, "MI dominates");
        let total = s.latency + s.memory + s.compute;
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn codes_are_unique() {
        let cat = catalog();
        let mut codes: Vec<_> = cat.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), cat.len());
    }
}
