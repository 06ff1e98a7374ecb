//! Network generators standing in for the paper's SNAP input graphs.
//!
//! The paper draws its Louvain inputs from the Stanford SNAP collection,
//! spanning 3 K – 8 M edges with `d_max` 9–343 and `d_avg` 2–23, in two
//! families: power-law "social" networks and bounded-degree "road"
//! networks (`d_max = 9`, `d_avg = 2`).  These generators cover the same
//! parameter ranges:
//!
//! * [`barabasi_albert`] — preferential attachment, heavy-tailed degrees;
//! * [`road`] — perturbed 2-D lattice thinned to the low average degree of
//!   real road networks;
//! * [`erdos_renyi`] — uniform random baseline.

use rand::Rng;

use crate::csr::Csr;

/// Barabási–Albert preferential attachment: `n` nodes, each new node
/// attaching `m` edges to existing nodes chosen proportionally to degree.
///
/// Produces the power-law ("social network") degree profile of the paper's
/// scale-free inputs.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Csr {
    assert!(m >= 1, "attachment count must be at least 1");
    assert!(n > m, "need more nodes than attachment edges");

    // Repeated-endpoint list: each edge contributes both endpoints, so
    // sampling a uniform element is degree-proportional sampling.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * m);

    // Seed clique over the first m+1 nodes.
    for u in 0..=(m as u32) {
        for v in (u + 1)..=(m as u32) {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }

    for u in (m + 1)..n {
        let u = u as u32;
        let mut picked = Vec::with_capacity(m);
        while picked.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != u && !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            edges.push((u, t));
            endpoints.push(u);
            endpoints.push(t);
        }
    }

    Csr::from_edges(n, &edges)
}

/// Road-like network: a `width x height` 2-D lattice thinned by randomly
/// deleting edges (keeping each with probability `keep`) plus a sprinkle of
/// diagonal shortcuts.
///
/// With `keep` ~ 0.55 this lands near the paper's road network profile:
/// bounded degree (`d_max <= 9`) and `d_avg` ~ 2.
pub fn road<R: Rng + ?Sized>(width: usize, height: usize, keep: f64, rng: &mut R) -> Csr {
    assert!((0.0..=1.0).contains(&keep));
    let n = width * height;
    let id = |x: usize, y: usize| (y * width + x) as u32;
    let mut edges = Vec::with_capacity(2 * n);

    for y in 0..height {
        for x in 0..width {
            if x + 1 < width && rng.gen_bool(keep) {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < height && rng.gen_bool(keep) {
                edges.push((id(x, y), id(x, y + 1)));
            }
            // Occasional diagonal (interchange / bridge) lifts d_max a bit
            // above 4 without breaking the bounded-degree character.
            if x + 1 < width && y + 1 < height && rng.gen_bool(0.02) {
                edges.push((id(x, y), id(x + 1, y + 1)));
            }
        }
    }
    Csr::from_edges(n, &edges)
}

/// Erdős–Rényi `G(n, m)`: `m` undirected edges drawn uniformly.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Csr {
    assert!(n >= 2);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            edges.push((u, v));
        }
    }
    Csr::from_edges(n, &edges)
}

/// Watts–Strogatz small world: a ring lattice of degree `k` (even) with
/// each edge rewired with probability `beta`.  High clustering with short
/// paths — used to validate the structural-analysis utilities.
pub fn watts_strogatz<R: Rng + ?Sized>(n: usize, k: usize, beta: f64, rng: &mut R) -> Csr {
    assert!(k >= 2 && k.is_multiple_of(2), "lattice degree must be even");
    assert!(n > k, "need more nodes than lattice degree");
    assert!((0.0..=1.0).contains(&beta));
    let mut edges = Vec::with_capacity(n * k / 2);
    for u in 0..n {
        for j in 1..=(k / 2) {
            let v = (u + j) % n;
            if rng.gen_bool(beta) {
                // Rewire the far endpoint uniformly (avoiding self loops;
                // duplicate edges are deduplicated by the CSR builder).
                let mut w = rng.gen_range(0..n as u32);
                while w as usize == u {
                    w = rng.gen_range(0..n as u32);
                }
                edges.push((u as u32, w));
            } else {
                edges.push((u as u32, v as u32));
            }
        }
    }
    Csr::from_edges(n, &edges)
}

/// A planted-partition graph: `communities` groups of `group_size` nodes,
/// dense inside (`p_in`), sparse across (`p_out`).  Ground truth for
/// Louvain tests.
#[cfg(test)]
pub(crate) fn planted_partition<R: Rng + ?Sized>(
    communities: usize,
    group_size: usize,
    p_in: f64,
    p_out: f64,
    rng: &mut R,
) -> Csr {
    let n = communities * group_size;
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let same = u / group_size == v / group_size;
            let p = if same { p_in } else { p_out };
            if rng.gen_bool(p) {
                edges.push((u as u32, v as u32));
            }
        }
    }
    Csr::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ba_degree_profile_is_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = barabasi_albert(2000, 4, &mut rng);
        let s = g.degree_stats();
        assert!(s.d_avg > 6.0 && s.d_avg < 10.0, "d_avg {}", s.d_avg);
        assert!(s.d_max > 40, "hubs expected: d_max {}", s.d_max);
        assert!(s.cv > 1.0, "heavy tail expected: cv {}", s.cv);
    }

    #[test]
    fn road_degree_profile_is_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = road(80, 80, 0.55, &mut rng);
        let s = g.degree_stats();
        assert!(s.d_max <= 9, "paper road profile: d_max {}", s.d_max);
        assert!((1.5..=3.0).contains(&s.d_avg), "d_avg {}", s.d_avg);
        assert!(s.cv < 0.5, "balanced degrees: cv {}", s.cv);
    }

    #[test]
    fn erdos_renyi_is_balanced() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = erdos_renyi(1000, 5000, &mut rng);
        let s = g.degree_stats();
        assert!((8.0..12.0).contains(&s.d_avg), "d_avg {}", s.d_avg);
        assert!(s.cv < 0.5);
    }

    #[test]
    fn planted_partition_is_denser_inside() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = planted_partition(4, 25, 0.5, 0.01, &mut rng);
        assert_eq!(g.num_nodes(), 100);
        // Expected intra edges: 4 * C(25,2) * 0.5 = 600; inter edges:
        // C(100,2)-4*C(25,2) = 3750 pairs * 0.01 ~ 37.
        let intra = g
            .arcs()
            .filter(|&(u, v, _)| u < v && u / 25 == v / 25)
            .count();
        let inter = g.arcs().filter(|&(u, v, _)| u < v).count() - intra;
        assert!(intra > 10 * inter, "intra {intra} inter {inter}");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = barabasi_albert(300, 3, &mut StdRng::seed_from_u64(9));
        let b = barabasi_albert(300, 3, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
