//! Structural graph analysis: the measurements used to validate the
//! network generators against the degree/size profile the paper reports
//! for its SNAP inputs, plus general utilities the case study relies on.

use crate::csr::Csr;

/// Connected components via iterative BFS.  Returns `(component_of,
/// component_count)`.
pub fn connected_components(g: &Csr) -> (Vec<u32>, usize) {
    let n = g.num_nodes();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = Vec::new();

    for start in 0..n as u32 {
        if comp[start as usize] != u32::MAX {
            continue;
        }
        comp[start as usize] = next;
        queue.push(start);
        while let Some(u) = queue.pop() {
            for &v in g.neighbors(u) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = next;
                    queue.push(v);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// Size of the largest connected component.
#[cfg(test)]
pub(crate) fn giant_component_size(g: &Csr) -> usize {
    let (comp, k) = connected_components(g);
    let mut sizes = vec![0usize; k];
    for c in comp {
        sizes[c as usize] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

/// Histogram of node degrees: `hist[d]` = number of nodes of degree `d`.
pub fn degree_histogram(g: &Csr) -> Vec<usize> {
    let mut hist = Vec::new();
    for u in 0..g.num_nodes() as u32 {
        let d = g.degree(u);
        if hist.len() <= d {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

/// Estimate of the power-law exponent of the degree distribution's tail
/// via the maximum-likelihood (Hill) estimator over degrees >= `d_min`.
///
/// Returns `None` when fewer than 10 nodes lie in the tail.
#[cfg(test)]
pub(crate) fn powerlaw_exponent(g: &Csr, d_min: usize) -> Option<f64> {
    assert!(d_min >= 1);
    let tail: Vec<f64> = (0..g.num_nodes() as u32)
        .map(|u| g.degree(u) as f64)
        .filter(|&d| d >= d_min as f64)
        .collect();
    if tail.len() < 10 {
        return None;
    }
    let sum_log: f64 = tail.iter().map(|&d| (d / (d_min as f64 - 0.5)).ln()).sum();
    Some(1.0 + tail.len() as f64 / sum_log)
}

/// Global clustering coefficient (transitivity): `3 * triangles / wedges`,
/// computed exactly by neighbor-set intersection on sorted adjacency.
#[cfg(test)]
pub(crate) fn global_clustering(g: &Csr) -> f64 {
    let mut triangles = 0u64;
    let mut wedges = 0u64;
    for u in 0..g.num_nodes() as u32 {
        let nu = g.neighbors(u);
        let d = nu.iter().filter(|&&v| v != u).count() as u64;
        wedges += d * d.saturating_sub(1) / 2;
        // Count edges among neighbors (each triangle at u counted once per
        // neighbor pair).
        for (i, &a) in nu.iter().enumerate() {
            if a == u {
                continue;
            }
            for &b in &nu[i + 1..] {
                if b == u || b == a {
                    continue;
                }
                // Is (a, b) an edge?  Binary search in a's sorted adjacency.
                if g.neighbors(a).binary_search(&b).is_ok() {
                    triangles += 1;
                }
            }
        }
    }
    if wedges == 0 {
        0.0
    } else {
        triangles as f64 / wedges as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn components_of_two_disjoint_triangles() {
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let (comp, k) = connected_components(&g);
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_eq!(giant_component_size(&g), 3);
    }

    #[test]
    fn ba_graphs_are_connected() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::barabasi_albert(1000, 3, &mut rng);
        assert_eq!(giant_component_size(&g), 1000, "BA attachment connects");
    }

    #[test]
    fn degree_histogram_sums_to_node_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::erdos_renyi(500, 1500, &mut rng);
        let h = degree_histogram(&g);
        assert_eq!(h.iter().sum::<usize>(), 500);
        let mean: f64 = h
            .iter()
            .enumerate()
            .map(|(d, &c)| d as f64 * c as f64)
            .sum::<f64>()
            / 500.0;
        assert!((mean - g.degree_stats().d_avg).abs() < 1e-9);
    }

    #[test]
    fn ba_exponent_is_power_law_like() {
        // Preferential attachment yields a tail exponent near 3.
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::barabasi_albert(20_000, 5, &mut rng);
        let gamma = powerlaw_exponent(&g, 10).expect("enough tail");
        assert!((2.0..4.0).contains(&gamma), "gamma {gamma}");
    }

    #[test]
    fn road_networks_are_not_power_law() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::road(100, 100, 0.55, &mut rng);
        // The tail above degree 10 is empty for a bounded-degree network.
        assert!(powerlaw_exponent(&g, 10).is_none());
    }

    #[test]
    fn clustering_of_a_triangle_is_one() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!((global_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_a_star_is_zero() {
        let g = Csr::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(global_clustering(&g), 0.0);
    }

    #[test]
    fn small_world_clusters_more_than_random() {
        let mut rng = StdRng::seed_from_u64(5);
        let ws = gen::watts_strogatz(600, 6, 0.05, &mut rng);
        let er = gen::erdos_renyi(600, ws.num_edges(), &mut rng);
        assert!(
            global_clustering(&ws) > 3.0 * global_clustering(&er),
            "WS {} vs ER {}",
            global_clustering(&ws),
            global_clustering(&er)
        );
    }
}
