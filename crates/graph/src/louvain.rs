//! Louvain community detection (Blondel et al. 2008) — the paper's real
//! HPC graph application (Sec. III-B-c).
//!
//! The algorithm alternates two phases until modularity stops improving:
//!
//! 1. **Local moving** — each node greedily joins the neighboring community
//!    with the best modularity gain;
//! 2. **Aggregation** — communities collapse into super-nodes and the
//!    process repeats on the condensed graph.
//!
//! The implementation is deterministic (sequential sweep in node order) so
//! tests and the Fig. 7 case study are reproducible.

use crate::csr::Csr;

/// Maximum number of aggregation levels.
const MAX_LEVELS: usize = 12;
/// Maximum local-moving sweeps per level.
const MAX_SWEEPS: usize = 24;
/// Minimum modularity improvement to start another level.
const MIN_GAIN: f64 = 1e-6;

/// Statistics of one Louvain level — the workload signature the GPU mapper
/// consumes (nodes and arcs processed per sweep).
#[derive(Debug, Clone, Copy)]
pub struct LevelStats {
    /// Nodes in the level's (condensed) graph.
    pub nodes: usize,
    /// Arcs in the level's graph.
    pub arcs: usize,
    /// Local-moving sweeps executed.
    pub sweeps: usize,
    /// Modularity after the level.
    pub modularity: f64,
}

/// Result of a full Louvain run.
#[derive(Debug, Clone)]
pub struct LouvainResult {
    /// Final community of every original node (compact labels).
    pub communities: Vec<u32>,
    /// Final modularity.
    pub modularity: f64,
    /// Per-level statistics.
    pub levels: Vec<LevelStats>,
}

impl LouvainResult {
    /// Number of distinct final communities.
    pub fn num_communities(&self) -> usize {
        self.communities
            .iter()
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Modularity `Q` of an assignment on `g`.
///
/// `Q = (1/2m) * sum_{ij in same community} A_ij - sum_c (tot_c / 2m)^2`.
pub fn modularity(g: &Csr, communities: &[u32]) -> f64 {
    assert_eq!(communities.len(), g.num_nodes(), "assignment length");
    let m2 = g.total_arc_weight();
    if m2 == 0.0 {
        return 0.0;
    }

    let internal: f64 = (0..g.num_nodes() as u32)
        .map(|u| {
            let cu = communities[u as usize];
            g.neighbors(u)
                .iter()
                .zip(g.weights_of(u))
                .filter(|(&v, _)| communities[v as usize] == cu)
                .map(|(_, &w)| w)
                .sum::<f64>()
        })
        .sum();

    let n_comms = communities
        .iter()
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0);
    let mut tot = vec![0.0f64; n_comms];
    for u in 0..g.num_nodes() {
        tot[communities[u] as usize] += g.weighted_degree(u as u32);
    }
    let expected: f64 = tot.iter().map(|&t| (t / m2) * (t / m2)).sum();

    internal / m2 - expected
}

/// One level of local moving.  Returns `(assignment, sweeps)` where the
/// assignment maps the level's nodes to (non-compact) community labels.
fn local_move(g: &Csr, max_sweeps: usize) -> (Vec<u32>, usize) {
    let n = g.num_nodes();
    let m2 = g.total_arc_weight();
    let mut comm: Vec<u32> = (0..n as u32).collect();
    let k: Vec<f64> = (0..n as u32).map(|u| g.weighted_degree(u)).collect();
    let mut tot = k.clone();

    // Scratch accumulator for weights toward neighboring communities.
    let mut w_to = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();

    let mut sweeps = 0;
    for _ in 0..max_sweeps {
        sweeps += 1;
        let mut moved = 0usize;

        for u in 0..n as u32 {
            let cu = comm[u as usize];

            // Accumulate link weights from u to each adjacent community,
            // excluding the self-loop (it follows u wherever it goes).
            for (&v, &w) in g.neighbors(u).iter().zip(g.weights_of(u)) {
                if v == u {
                    continue;
                }
                let cv = comm[v as usize];
                if w_to[cv as usize] == 0.0 {
                    touched.push(cv);
                }
                w_to[cv as usize] += w;
            }

            // Gain of residing in community c (with u's degree removed from
            // the community total): w_uc - k_u * tot_c / m2.
            tot[cu as usize] -= k[u as usize];
            let mut best_c = cu;
            let mut best_gain = w_to[cu as usize] - k[u as usize] * tot[cu as usize] / m2;
            for &c in &touched {
                let gain = w_to[c as usize] - k[u as usize] * tot[c as usize] / m2;
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best_c = c;
                }
            }
            tot[best_c as usize] += k[u as usize];
            if best_c != cu {
                comm[u as usize] = best_c;
                moved += 1;
            }

            for &c in &touched {
                w_to[c as usize] = 0.0;
            }
            touched.clear();
        }

        if moved == 0 {
            break;
        }
    }
    (comm, sweeps)
}

/// Relabels an assignment to compact labels `0..k`, returning `(relabeled,
/// k)`.
fn compact_labels(comm: &[u32]) -> (Vec<u32>, usize) {
    let mut map = vec![u32::MAX; comm.len()];
    let mut next = 0u32;
    let relabeled = comm
        .iter()
        .map(|&c| {
            if map[c as usize] == u32::MAX {
                map[c as usize] = next;
                next += 1;
            }
            map[c as usize]
        })
        .collect();
    (relabeled, next as usize)
}

/// Condenses `g` by the compact assignment into a community graph.
fn aggregate(g: &Csr, comm: &[u32], n_comms: usize) -> Csr {
    let mut arcs: Vec<(u32, u32, f64)> = g
        .arcs()
        .map(|(u, v, w)| (comm[u as usize], comm[v as usize], w))
        .collect();
    arcs.sort_unstable_by_key(|a| (a.0, a.1));

    let mut merged: Vec<(u32, u32, f64)> = Vec::with_capacity(arcs.len() / 2);
    for (u, v, w) in arcs {
        match merged.last_mut() {
            Some(last) if last.0 == u && last.1 == v => last.2 += w,
            _ => merged.push((u, v, w)),
        }
    }
    Csr::from_weighted_arcs(n_comms, merged)
}

/// Runs the full multi-level Louvain algorithm on `g`.
pub fn louvain(g: &Csr) -> LouvainResult {
    let n = g.num_nodes();
    let mut assignment: Vec<u32> = (0..n as u32).collect();
    let mut levels = Vec::new();
    let mut current = g.clone();
    let mut q_prev = modularity(g, &assignment);

    for _ in 0..MAX_LEVELS {
        let (comm, sweeps) = local_move(&current, MAX_SWEEPS);
        let (compact, n_comms) = compact_labels(&comm);

        // Push the level's labels down to the original nodes.
        for a in assignment.iter_mut() {
            *a = compact[*a as usize];
        }

        let condensed = aggregate(&current, &compact, n_comms);
        let q = modularity(g, &assignment);
        levels.push(LevelStats {
            nodes: current.num_nodes(),
            arcs: current.num_arcs(),
            sweeps,
            modularity: q,
        });

        let converged = n_comms == current.num_nodes() || q - q_prev < MIN_GAIN;
        current = condensed;
        q_prev = q;
        if converged {
            break;
        }
    }

    LouvainResult {
        communities: assignment,
        modularity: q_prev,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn two_cliques_with_bridge_are_separated() {
        // Two 4-cliques joined by one edge.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v));
                edges.push((u + 4, v + 4));
            }
        }
        edges.push((0, 4));
        let g = Csr::from_edges(8, &edges);
        let r = louvain(&g);
        assert_eq!(r.num_communities(), 2);
        for u in 0..4 {
            assert_eq!(r.communities[u], r.communities[0]);
            assert_eq!(r.communities[u + 4], r.communities[4]);
        }
        assert_ne!(r.communities[0], r.communities[4]);
        assert!(r.modularity > 0.3, "Q = {}", r.modularity);
    }

    #[test]
    fn modularity_of_singletons_is_nonpositive() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let singletons: Vec<u32> = (0..4).collect();
        assert!(modularity(&g, &singletons) <= 0.0);
    }

    #[test]
    fn modularity_of_everything_in_one_community_is_zero() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let one = vec![0u32; 4];
        assert!(modularity(&g, &one).abs() < 1e-12);
    }

    #[test]
    fn louvain_recovers_planted_partition() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = gen::planted_partition(5, 30, 0.4, 0.01, &mut rng);
        let r = louvain(&g);
        assert_eq!(r.num_communities(), 5, "planted communities recovered");
        // Every planted group maps to a single label.
        for group in 0..5 {
            let label = r.communities[group * 30];
            for i in 0..30 {
                assert_eq!(r.communities[group * 30 + i], label);
            }
        }
        assert!(r.modularity > 0.5);
    }

    #[test]
    fn modularity_never_decreases_across_levels() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = gen::barabasi_albert(800, 4, &mut rng);
        let r = louvain(&g);
        for w in r.levels.windows(2) {
            assert!(
                w[1].modularity >= w[0].modularity - 1e-9,
                "levels: {:?}",
                r.levels
            );
        }
        assert!(r.modularity > 0.1);
    }

    #[test]
    fn final_modularity_matches_direct_evaluation() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = gen::erdos_renyi(300, 900, &mut rng);
        let r = louvain(&g);
        let q = modularity(&g, &r.communities);
        assert!((q - r.modularity).abs() < 1e-9, "{q} vs {}", r.modularity);
    }

    #[test]
    fn level_sizes_shrink_monotonically() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = gen::barabasi_albert(1200, 5, &mut rng);
        let r = louvain(&g);
        assert!(r.levels.len() >= 2);
        for w in r.levels.windows(2) {
            assert!(w[1].nodes < w[0].nodes);
        }
    }

    #[test]
    fn louvain_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = gen::barabasi_albert(500, 3, &mut rng);
        let a = louvain(&g);
        let b = louvain(&g);
        assert_eq!(a.communities, b.communities);
        assert_eq!(a.modularity, b.modularity);
    }

    #[test]
    fn aggregation_preserves_total_weight() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = gen::erdos_renyi(200, 600, &mut rng);
        let (comm, _) = local_move(&g, 10);
        let (compact, k) = compact_labels(&comm);
        let agg = aggregate(&g, &compact, k);
        assert!((agg.total_arc_weight() - g.total_arc_weight()).abs() < 1e-6);
    }

    #[test]
    fn aggregated_modularity_equals_flat_modularity() {
        // Modularity computed on the condensed graph with singleton
        // communities must equal modularity of the assignment on the
        // original graph — the invariant Louvain's recursion relies on.
        let mut rng = StdRng::seed_from_u64(12);
        let g = gen::planted_partition(4, 20, 0.5, 0.02, &mut rng);
        let (comm, _) = local_move(&g, 10);
        let (compact, k) = compact_labels(&comm);
        let agg = aggregate(&g, &compact, k);
        let q_flat = modularity(&g, &compact);
        let singleton: Vec<u32> = (0..k as u32).collect();
        let q_agg = modularity(&agg, &singleton);
        assert!((q_flat - q_agg).abs() < 1e-9, "{q_flat} vs {q_agg}");
    }
}
