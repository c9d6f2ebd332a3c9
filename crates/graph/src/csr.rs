//! Compressed sparse row storage for undirected weighted graphs.
//!
//! Conventions (chosen to match the map equation of the paper's §2.2):
//!
//! * Every undirected edge `{u, v}` with `u != v` is stored as two arcs,
//!   `u→v` and `v→u`, each carrying the full edge weight.
//! * A self-loop `{u, u}` is stored as a single arc `u→u`; it counts
//!   **twice** toward [`Graph::strength`] (the usual convention that keeps
//!   `Σ_u strength(u) = 2W`), and never contributes to exit flow.
//! * Parallel edges are merged at build time by summing weights.

use std::collections::HashMap;

/// Vertex identifier. 32 bits comfortably covers the scaled experiments
/// while halving adjacency memory versus `u64`.
pub type VertexId = u32;

/// An immutable undirected weighted graph in CSR form.
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<f64>,
    /// Number of undirected edges (self-loops count once).
    num_edges: usize,
    /// Σ weight over undirected edges, self-loops counted once.
    total_weight: f64,
    /// Per-vertex strength: Σ incident edge weights, self-loops twice.
    strengths: Vec<f64>,
}

impl Graph {
    /// Build from a list of undirected edges. Parallel edges are merged
    /// (weights summed); both `(u,v)` and `(v,u)` occurrences merge into the
    /// same edge.
    ///
    /// # Panics
    ///
    /// As [`GraphBuilder::add_edge`]: an endpoint `>= num_vertices`, or a
    /// weight that is not finite and >= 0 (the edge-list reader refuses
    /// such input by name before it builds a graph).
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId, f64)]) -> Self {
        let mut b = GraphBuilder::new(num_vertices);
        for &(u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// Build from unweighted undirected edges (weight 1 each).
    pub fn from_unweighted(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut b = GraphBuilder::new(num_vertices);
        for &(u, v) in edges {
            b.add_edge(u, v, 1.0);
        }
        b.build()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (self-loops count once).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Total undirected edge weight `W` (self-loops once).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Number of stored arcs at `u` (self-loop contributes one arc).
    pub fn degree(&self, u: VertexId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Weighted degree of `u` (self-loops counted twice), so that
    /// `Σ_u strength(u) == 2 * total_weight()`.
    pub fn strength(&self, u: VertexId) -> f64 {
        self.strengths[u as usize]
    }

    /// Neighbor ids of `u` (self included if `u` has a self-loop).
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        let u = u as usize;
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// `(neighbor, weight)` pairs at `u`.
    pub fn arcs(&self, u: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        let u = u as usize;
        let range = self.offsets[u]..self.offsets[u + 1];
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    /// Weight of the self-loop at `u` (0 if none).
    pub fn self_loop(&self, u: VertexId) -> f64 {
        self.arcs(u).filter(|&(v, _)| v == u).map(|(_, w)| w).sum()
    }

    /// All undirected edges `(u, v, w)` with `u <= v`, in vertex order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, f64)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.arcs(u)
                .filter(move |&(v, _)| u <= v)
                .map(move |(v, w)| (u, v, w))
        })
    }

    /// [`Graph::edges`] as one list: the sorted list the graph was laid
    /// out from. A row's targets ascend, so its edges `(u, v)`, `u <= v`,
    /// are the row's tail.
    pub(crate) fn edge_list(&self) -> Vec<(VertexId, VertexId, f64)> {
        let mut edges = Vec::with_capacity(self.num_edges);
        for u in 0..self.num_vertices() {
            let row = self.offsets[u]..self.offsets[u + 1];
            let (targets, weights) = (&self.targets[row.clone()], &self.weights[row]);
            let tail = targets.partition_point(|&v| (v as usize) < u);
            let arcs = targets[tail..].iter().zip(&weights[tail..]);
            edges.extend(arcs.map(|(&v, &w)| (u as VertexId, v, w)));
        }
        edges
    }

    /// Maximum vertex degree (arc count).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Connected components; returns (component id per vertex, count).
    pub fn components(&self) -> (Vec<u32>, usize) {
        let n = self.num_vertices();
        let mut comp = vec![u32::MAX; n];
        let mut count = 0;
        let mut stack = Vec::new();
        for start in 0..n {
            if comp[start] != u32::MAX {
                continue;
            }
            comp[start] = count;
            stack.push(start as VertexId);
            while let Some(u) = stack.pop() {
                for &v in self.neighbors(u) {
                    if comp[v as usize] == u32::MAX {
                        comp[v as usize] = count;
                        stack.push(v);
                    }
                }
            }
            count += 1;
        }
        (comp, count as usize)
    }

    /// CSR assembly from the distinct undirected edges `(u, v, w)`, `u <= v`,
    /// sorted by `(u, v)`. Rows come out target-ascending, and `strengths`
    /// and `total_weight` are summed in the given order — the one order
    /// [`GraphBuilder::build`] and the edge-list reader both produce, so
    /// the two construct the same `Graph` by `==`. The shard cutter
    /// (`crate::snapshot`) folds the rows and totals of the same list in
    /// the same order.
    pub(crate) fn from_sorted_edges(n: usize, edges: &[(VertexId, VertexId, f64)]) -> Graph {
        let mut deg = vec![0usize; n];
        for &(u, v, _) in edges {
            deg[u as usize] += 1;
            if u != v {
                deg[v as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for d in &deg {
            offsets.push(offsets.last().unwrap() + d);
        }
        let num_arcs = *offsets.last().unwrap();
        let mut targets = vec![0 as VertexId; num_arcs];
        let mut weights = vec![0.0; num_arcs];
        let mut cursor = offsets[..n].to_vec();
        for &(u, v, w) in edges {
            targets[cursor[u as usize]] = v;
            weights[cursor[u as usize]] = w;
            cursor[u as usize] += 1;
            if u != v {
                targets[cursor[v as usize]] = u;
                weights[cursor[v as usize]] = w;
                cursor[v as usize] += 1;
            }
        }

        Graph {
            offsets,
            targets,
            weights,
            num_edges: edges.len(),
            total_weight: total_weight_of(edges),
            strengths: strengths_of(n, edges),
        }
    }
}

/// The strengths of a sorted edge list on `n` vertices: each vertex's
/// weights summed in list order, a self-loop twice.
pub(crate) fn strengths_of(n: usize, edges: &[(VertexId, VertexId, f64)]) -> Vec<f64> {
    let mut strengths = vec![0.0; n];
    for &(u, v, w) in edges {
        if u != v {
            strengths[u as usize] += w;
            strengths[v as usize] += w;
        } else {
            strengths[u as usize] += 2.0 * w;
        }
    }
    strengths
}

/// `W` of a sorted edge list: its weights summed in list order, the one
/// fold [`Graph::from_sorted_edges`], the reader's domain check and the
/// shard cutter share ([`strengths_of`] is the other).
pub(crate) fn total_weight_of(edges: &[(VertexId, VertexId, f64)]) -> f64 {
    edges.iter().fold(0.0, |total, e| total + e.2)
}

/// Incremental builder that merges parallel edges.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: HashMap<(VertexId, VertexId), f64>,
}

impl GraphBuilder {
    /// A builder for a graph on `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: HashMap::new(),
        }
    }

    /// Grow the vertex count to at least `n`. Lets streaming loaders add
    /// edges as vertex ids are discovered instead of materializing the
    /// whole edge list first to count vertices.
    pub fn ensure_vertices(&mut self, n: usize) {
        if n > self.num_vertices {
            self.num_vertices = n;
        }
    }

    /// Add (or merge into) the undirected edge `{u, v}` with weight `w`.
    ///
    /// # Panics
    ///
    /// If `u` or `v` is not a vertex, or `w` is not finite and >= 0: no
    /// flow `w/(2W)` could be priced.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u},{v}) out of range for {} vertices",
            self.num_vertices
        );
        assert!(
            w >= 0.0 && w.is_finite(),
            "edge weight must be finite and non-negative"
        );
        let key = if u <= v { (u, v) } else { (v, u) };
        *self.edges.entry(key).or_insert(0.0) += w;
    }

    /// Number of distinct undirected edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalize into CSR form.
    pub fn build(self) -> Graph {
        // Deterministic arc order: sort edges before placement.
        let flat = |((u, v), w)| (u, v, w);
        let mut edges: Vec<_> = self.edges.into_iter().map(flat).collect();
        edges.sort_by_key(|&(u, v, _)| (u, v));
        Graph::from_sorted_edges(self.num_vertices, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_unweighted(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.total_weight(), 3.0);
        for u in 0..3 {
            assert_eq!(g.degree(u), 2);
            assert_eq!(g.strength(u), 2.0);
        }
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn parallel_edges_merge() {
        let g = Graph::from_edges(2, &[(0, 1, 1.0), (1, 0, 2.5)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.total_weight(), 3.5);
        assert_eq!(g.strength(0), 3.5);
    }

    #[test]
    fn self_loop_conventions() {
        let g = Graph::from_edges(2, &[(0, 0, 2.0), (0, 1, 1.0)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.total_weight(), 3.0);
        // Self-loop counts twice in strength: 2*2 + 1 = 5.
        assert_eq!(g.strength(0), 5.0);
        assert_eq!(g.strength(1), 1.0);
        assert_eq!(g.self_loop(0), 2.0);
        assert_eq!(g.self_loop(1), 0.0);
        // Σ strengths == 2W.
        assert_eq!(g.strength(0) + g.strength(1), 2.0 * g.total_weight());
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = Graph::from_unweighted(5, &[(0, 1), (2, 3)]);
        let (comp, count) = g.components();
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
        assert_ne!(comp[4], comp[2]);
    }

    #[test]
    fn max_degree_is_the_hub_degree() {
        let g = Graph::from_unweighted(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Graph::from_unweighted(2, &[(0, 2)]);
    }
}
