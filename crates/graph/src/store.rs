//! Storage-agnostic read access to a graph.
//!
//! [`GraphStore`] abstracts the handful of accessors the partitioner and
//! the distributed driver actually use — vertex/edge counts, total weight,
//! per-vertex degree/strength, and the arc list of a vertex — so the same
//! code paths run against the in-memory [`Graph`] CSR and against
//! [`crate::snapshot::SnapshotStore`], which reads a binary snapshot on
//! disk through a cache of fixed-size blocks.
//!
//! `arcs_into` appends into a caller-provided buffer instead of returning
//! an iterator: a snapshot store assembles arcs from cache blocks, so a
//! borrowing iterator would either clone per call or fight the borrow
//! checker; a reused buffer keeps the hot loop allocation-free either way.

use crate::csr::{Graph, VertexId};

/// Read-only access to an undirected weighted graph, in the conventions
/// of [`Graph`] (self-loop arcs stored once, counted twice in strength).
///
/// Implementations indexed by *global* vertex ids. Shard-backed stores
/// only answer for vertices local to the shard and panic otherwise —
/// callers in shard mode iterate owned vertices only.
pub trait GraphStore {
    /// Global vertex count.
    fn num_vertices(&self) -> usize;

    /// Global undirected edge count (self-loops count once).
    fn num_edges(&self) -> usize;

    /// Global total undirected edge weight `W` (self-loops once).
    fn total_weight(&self) -> f64;

    /// Number of stored arcs at `u` (self-loop contributes one arc).
    fn degree(&self, u: VertexId) -> usize;

    /// Weighted degree of `u` (self-loops twice), so that
    /// `Σ_u strength(u) == 2W` over all vertices.
    fn strength(&self, u: VertexId) -> f64;

    /// Clear `out` and fill it with `(target, weight)` arcs of `u`, in
    /// the canonical CSR order (targets ascending).
    fn arcs_into(&self, u: VertexId, out: &mut Vec<(VertexId, f64)>);
}

impl GraphStore for Graph {
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        Graph::num_edges(self)
    }

    fn total_weight(&self) -> f64 {
        Graph::total_weight(self)
    }

    fn degree(&self, u: VertexId) -> usize {
        Graph::degree(self, u)
    }

    fn strength(&self, u: VertexId) -> f64 {
        Graph::strength(self, u)
    }

    fn arcs_into(&self, u: VertexId, out: &mut Vec<(VertexId, f64)>) {
        out.clear();
        out.extend(self.arcs(u));
    }
}

impl<T: GraphStore + ?Sized> GraphStore for &T {
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    fn total_weight(&self) -> f64 {
        (**self).total_weight()
    }

    fn degree(&self, u: VertexId) -> usize {
        (**self).degree(u)
    }

    fn strength(&self, u: VertexId) -> f64 {
        (**self).strength(u)
    }

    fn arcs_into(&self, u: VertexId, out: &mut Vec<(VertexId, f64)>) {
        (**self).arcs_into(u, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_store_matches_graph_accessors() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 2, 0.5)]);
        let s: &dyn GraphStore = &g;
        assert_eq!(s.num_vertices(), 4);
        assert_eq!(s.num_edges(), 3);
        assert_eq!(s.total_weight(), 3.5);
        assert_eq!(s.degree(2), 2);
        assert_eq!(s.strength(2), 3.0);
        let mut arcs = vec![(9, 9.0)];
        s.arcs_into(1, &mut arcs);
        assert_eq!(arcs, vec![(0, 1.0), (2, 2.0)]);
    }
}
