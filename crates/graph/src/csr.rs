//! Compressed Sparse Row graph storage (paper Sec. III-B-c: "the input
//! graphs are processed in a Compressed Sparse Row (CSR) format, for more
//! regular memory access").
//!
//! Graphs are undirected and weighted.  Internally every undirected edge
//! `{u, v}` with `u != v` is stored as the two arcs `(u, v)` and `(v, u)`;
//! a self-loop is stored as a single arc.  With that convention the arc
//! weight plays the role of the adjacency-matrix entry `A_ij`, the weighted
//! degree is `k_i = sum_j A_ij`, and `2m = sum_i k_i` — exactly the
//! quantities Louvain's modularity needs.

/// Compressed sparse row representation of an undirected weighted graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Arc-offset per node; length `n + 1`.
    offsets: Vec<usize>,
    /// Arc targets, grouped by source node.
    targets: Vec<u32>,
    /// Arc weights, parallel to `targets`.
    weights: Vec<f64>,
    /// Sum of all arc weights (`2m` in modularity notation).
    total_arc_weight: f64,
}

/// Degree statistics of a graph — the quantities the paper reports for its
/// input networks (`d_max` 9–343, `d_avg` 2–23).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Maximum (unweighted) degree.
    pub d_max: usize,
    /// Mean (unweighted) degree.
    pub d_avg: f64,
    /// Coefficient of variation of the degree distribution — the imbalance
    /// signal the GPU workload mapper keys on.
    pub cv: f64,
}

impl Csr {
    /// Builds a graph from an undirected edge list over `n` nodes.
    ///
    /// Duplicate edges and self-loops in the input are dropped (input
    /// networks; aggregated Louvain graphs use `Csr::from_weighted_arcs`).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut uniq: Vec<(u32, u32)> = edges
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| if u <= v { (u, v) } else { (v, u) })
            .collect();
        uniq.sort_unstable();
        uniq.dedup();

        let mut arcs = Vec::with_capacity(uniq.len() * 2);
        for &(u, v) in &uniq {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range for n={n}"
            );
            arcs.push((u, v, 1.0));
            arcs.push((v, u, 1.0));
        }
        Csr::from_weighted_arcs(n, arcs)
    }

    /// Builds a graph from explicit arcs `(src, dst, weight)`.
    ///
    /// The caller is responsible for symmetry (`(u,v)` and `(v,u)` both
    /// present for `u != v`); self-loops appear once.  Used for Louvain's
    /// aggregated graphs.
    pub(crate) fn from_weighted_arcs(n: usize, mut arcs: Vec<(u32, u32, f64)>) -> Csr {
        arcs.sort_unstable_by_key(|a| (a.0, a.1));

        let mut offsets = vec![0usize; n + 1];
        for &(u, _, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }

        let mut targets = Vec::with_capacity(arcs.len());
        let mut weights = Vec::with_capacity(arcs.len());
        let mut total = 0.0;
        for (_, v, w) in arcs {
            debug_assert!(w >= 0.0, "negative arc weight");
            targets.push(v);
            weights.push(w);
            total += w;
        }

        Csr {
            offsets,
            targets,
            weights,
            total_arc_weight: total,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (self-loops counted once).
    pub fn num_edges(&self) -> usize {
        let self_loops = (0..self.num_nodes())
            .map(|u| {
                self.neighbors(u as u32)
                    .iter()
                    .filter(|&&v| v as usize == u)
                    .count()
            })
            .sum::<usize>();
        (self.targets.len() - self_loops) / 2 + self_loops
    }

    /// Number of stored arcs.
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Neighbor slice of node `u` (may include `u` itself for self-loops).
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let (a, b) = self.range(u);
        &self.targets[a..b]
    }

    /// Arc-weight slice of node `u`, parallel to [`Csr::neighbors`].
    pub(crate) fn weights_of(&self, u: u32) -> &[f64] {
        let (a, b) = self.range(u);
        &self.weights[a..b]
    }

    /// Unweighted degree (arc count) of node `u`.
    pub(crate) fn degree(&self, u: u32) -> usize {
        let (a, b) = self.range(u);
        b - a
    }

    /// Weighted degree `k_u = sum_v A_uv`.
    pub fn weighted_degree(&self, u: u32) -> f64 {
        self.weights_of(u).iter().sum()
    }

    /// Total arc weight, i.e. `2m`.
    pub fn total_arc_weight(&self) -> f64 {
        self.total_arc_weight
    }

    /// Degree statistics across all nodes.
    pub fn degree_stats(&self) -> DegreeStats {
        let n = self.num_nodes();
        if n == 0 {
            return DegreeStats {
                d_max: 0,
                d_avg: 0.0,
                cv: 0.0,
            };
        }
        let degrees: Vec<usize> = (0..n).map(|u| self.degree(u as u32)).collect();
        let d_max = degrees.iter().copied().max().unwrap_or(0);
        let d_avg = degrees.iter().sum::<usize>() as f64 / n as f64;
        let var = degrees
            .iter()
            .map(|&d| (d as f64 - d_avg).powi(2))
            .sum::<f64>()
            / n as f64;
        let cv = if d_avg > 0.0 { var.sqrt() / d_avg } else { 0.0 };
        DegreeStats { d_max, d_avg, cv }
    }

    /// Iterates `(src, dst, weight)` over all arcs.
    pub fn arcs(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.num_nodes() as u32).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .zip(self.weights_of(u))
                .map(move |(&v, &w)| (u, v, w))
        })
    }

    fn range(&self, u: u32) -> (usize, usize) {
        (self.offsets[u as usize], self.offsets[u as usize + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Csr {
        Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn triangle_has_symmetric_arcs() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        for u in 0..3u32 {
            assert_eq!(g.degree(u), 2);
            assert_eq!(g.weighted_degree(u), 2.0);
        }
        assert_eq!(g.total_arc_weight(), 6.0);
    }

    #[test]
    fn duplicates_and_self_loops_are_dropped_from_edge_lists() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 0), (0, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_arcs(), 2);
    }

    #[test]
    fn weighted_arcs_keep_self_loops() {
        // A 2-node aggregated graph: self-loop of weight 4 on node 0 and an
        // edge of weight 2 between them.
        let g = Csr::from_weighted_arcs(2, vec![(0, 0, 4.0), (0, 1, 2.0), (1, 0, 2.0)]);
        assert_eq!(g.weighted_degree(0), 6.0);
        assert_eq!(g.weighted_degree(1), 2.0);
        assert_eq!(g.total_arc_weight(), 8.0);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn neighbors_are_sorted_per_source() {
        let g = Csr::from_edges(4, &[(2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
    }

    #[test]
    fn degree_stats_match_hand_computation() {
        // Star graph: center degree 3, leaves degree 1.
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let s = g.degree_stats();
        assert_eq!(s.d_max, 3);
        assert!((s.d_avg - 1.5).abs() < 1e-12);
        assert!(s.cv > 0.5, "star is imbalanced: cv {}", s.cv);

        // Cycle: perfectly balanced.
        let c = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(c.degree_stats().cv, 0.0);
    }

    #[test]
    fn arcs_iterator_round_trips_total_weight() {
        let g = triangle();
        let sum: f64 = g.arcs().map(|(_, _, w)| w).sum();
        assert_eq!(sum, g.total_arc_weight());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = Csr::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn empty_graph_is_well_formed() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree_stats().d_max, 0);
    }
}
