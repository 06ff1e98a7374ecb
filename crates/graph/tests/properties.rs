//! Property-based tests for the graph substrate.

use pmss_graph::csr::Csr;
use pmss_graph::louvain::{louvain, modularity};
use pmss_graph::{analysis, gen};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_edges(max_n: u32) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edges = prop::collection::vec((0..n, 0..n), 1..200);
        (Just(n as usize), edges)
    })
}

proptest! {
    /// CSR construction invariants: symmetry, degree sums, weight totals.
    #[test]
    fn csr_is_symmetric_and_consistent((n, edges) in arb_edges(64)) {
        let g = Csr::from_edges(n, &edges);
        // Arc count is twice the edge count (self-loops were dropped).
        prop_assert_eq!(g.num_arcs(), 2 * g.num_edges());
        // Symmetry: v in N(u) <=> u in N(v).
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                prop_assert!(g.neighbors(v).contains(&u), "asymmetric {u}-{v}");
            }
        }
        // Total weight = sum of weighted degrees.
        let wsum: f64 = (0..n as u32).map(|u| g.weighted_degree(u)).sum();
        prop_assert!((wsum - g.total_arc_weight()).abs() < 1e-9);
    }

    /// Modularity is always in [-1, 1] for any assignment.
    #[test]
    fn modularity_is_bounded((n, edges) in arb_edges(48), seed in 0u64..100) {
        let g = Csr::from_edges(n, &edges);
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let k = rng.gen_range(1..=n as u32);
        let assignment: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k)).collect();
        let q = modularity(&g, &assignment);
        prop_assert!((-1.0..=1.0).contains(&q), "Q = {q}");
    }

    /// Louvain's final assignment never has lower modularity than both the
    /// singleton and the all-in-one baselines.
    #[test]
    fn louvain_beats_trivial_baselines((n, edges) in arb_edges(48)) {
        let g = Csr::from_edges(n, &edges);
        prop_assume!(g.num_edges() >= 2);
        let r = louvain(&g);
        let singletons: Vec<u32> = (0..n as u32).collect();
        let one = vec![0u32; n];
        prop_assert!(r.modularity >= modularity(&g, &singletons) - 1e-9);
        prop_assert!(r.modularity >= modularity(&g, &one) - 1e-9);
        // Communities are compactly labeled.
        let k = r.num_communities();
        prop_assert!(r.communities.iter().all(|&c| (c as usize) < k));
    }

    /// Connected components partition the nodes, and nodes sharing an edge
    /// share a component.
    #[test]
    fn components_are_a_valid_partition((n, edges) in arb_edges(64)) {
        let g = Csr::from_edges(n, &edges);
        let (comp, k) = analysis::connected_components(&g);
        prop_assert_eq!(comp.len(), n);
        prop_assert!(comp.iter().all(|&c| (c as usize) < k));
        for (u, v, _) in g.arcs() {
            prop_assert_eq!(comp[u as usize], comp[v as usize]);
        }
    }

    /// Generator determinism and size contracts.
    #[test]
    fn ba_generator_contract(n in 10usize..300, m in 1usize..6) {
        prop_assume!(n > m);
        let g = gen::barabasi_albert(n, m, &mut StdRng::seed_from_u64(1));
        prop_assert_eq!(g.num_nodes(), n);
        // Each of the n-m-1 later nodes adds m edges; the seed clique adds
        // C(m+1, 2).
        let expected = (n - m - 1) * m + m * (m + 1) / 2;
        prop_assert_eq!(g.num_edges(), expected);
    }

    /// Degree statistics are internally consistent for every generator.
    #[test]
    fn degree_stats_consistent(seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        for g in [
            gen::erdos_renyi(100, 300, &mut rng),
            gen::road(12, 12, 0.6, &mut rng),
            gen::watts_strogatz(60, 4, 0.1, &mut rng),
        ] {
            let s = g.degree_stats();
            prop_assert!(s.d_avg <= s.d_max as f64 + 1e-12);
            let hist = analysis::degree_histogram(&g);
            prop_assert_eq!(hist.iter().sum::<usize>(), g.num_nodes());
            prop_assert_eq!(hist.len().saturating_sub(1), s.d_max);
        }
    }
}
