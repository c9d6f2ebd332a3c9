//! # infomap-metrics — clustering quality measures
//!
//! The measures the paper's Table 2 reports when comparing the distributed
//! algorithm's partition against the sequential reference: Normalized
//! Mutual Information, F-measure and Jaccard index, plus modularity as an
//! independent sanity check. All pairwise measures are computed from the
//! contingency table in O(V + K₁·K₂) — no O(V²) pair enumeration.

#![forbid(unsafe_code)]

use std::collections::HashMap;

use infomap_graph::Graph;

/// Contingency table between two labelings of the same vertex set.
#[derive(Clone, Debug)]
pub struct Contingency {
    /// `counts[(i, j)]` = vertices labeled `i` by A and `j` by B.
    counts: HashMap<(u32, u32), u64>,
    /// Row marginals: vertices per A-cluster.
    a_sizes: HashMap<u32, u64>,
    /// Column marginals: vertices per B-cluster.
    b_sizes: HashMap<u32, u64>,
    n: u64,
}

impl Contingency {
    /// Build from two equal-length labelings.
    pub fn new(a: &[u32], b: &[u32]) -> Self {
        assert_eq!(a.len(), b.len(), "labelings must cover the same vertices");
        assert!(!a.is_empty(), "labelings must be non-empty");
        let mut counts = HashMap::new();
        let mut a_sizes = HashMap::new();
        let mut b_sizes = HashMap::new();
        for (&x, &y) in a.iter().zip(b) {
            *counts.entry((x, y)).or_insert(0u64) += 1;
            *a_sizes.entry(x).or_insert(0u64) += 1;
            *b_sizes.entry(y).or_insert(0u64) += 1;
        }
        Contingency {
            counts,
            a_sizes,
            b_sizes,
            n: a.len() as u64,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Σ over cells of C(n_ij, 2) etc. — the pair counts behind the
    /// pairwise indices: (pairs together in both, pairs together in A,
    /// pairs together in B, total pairs).
    fn pair_counts(&self) -> (u64, u64, u64, u64) {
        let choose2 = |x: u64| x * x.saturating_sub(1) / 2;
        let together_both: u64 = self.counts.values().map(|&c| choose2(c)).sum();
        let together_a: u64 = self.a_sizes.values().map(|&c| choose2(c)).sum();
        let together_b: u64 = self.b_sizes.values().map(|&c| choose2(c)).sum();
        (together_both, together_a, together_b, choose2(self.n))
    }
}

/// Normalized Mutual Information with arithmetic-mean normalization:
/// `NMI = 2·I(A;B) / (H(A) + H(B))`. 1.0 for identical clusterings (up to
/// relabeling); by convention 1.0 when both clusterings are trivial.
pub fn nmi(a: &[u32], b: &[u32]) -> f64 {
    let t = Contingency::new(a, b);
    let n = t.n as f64;
    let mut mi = 0.0;
    // Sorted iteration keeps the floating-point sum deterministic.
    let mut cells: Vec<(&(u32, u32), &u64)> = t.counts.iter().collect();
    cells.sort_by_key(|(k, _)| **k);
    for (&(i, j), &nij) in cells {
        let nij = nij as f64;
        let ni = t.a_sizes[&i] as f64;
        let nj = t.b_sizes[&j] as f64;
        mi += (nij / n) * ((nij * n) / (ni * nj)).log2();
    }
    let mut a_counts: Vec<u64> = t.a_sizes.values().copied().collect();
    a_counts.sort_unstable();
    let mut b_counts: Vec<u64> = t.b_sizes.values().copied().collect();
    b_counts.sort_unstable();
    let ha: f64 = -a_counts
        .iter()
        .map(|&c| {
            let p = c as f64 / n;
            p * p.log2()
        })
        .sum::<f64>();
    let hb: f64 = -b_counts
        .iter()
        .map(|&c| {
            let p = c as f64 / n;
            p * p.log2()
        })
        .sum::<f64>();
    if ha + hb == 0.0 {
        return 1.0; // both trivial and identical
    }
    (2.0 * mi / (ha + hb)).clamp(0.0, 1.0)
}

/// Pairwise F-measure (the harmonic mean of pairwise precision and recall,
/// with A as reference): `F = 2PR/(P+R)` over vertex pairs co-clustered.
pub fn f_measure(reference: &[u32], detected: &[u32]) -> f64 {
    let t = Contingency::new(reference, detected);
    let (both, in_a, in_b, _) = t.pair_counts();
    if in_a == 0 && in_b == 0 {
        return 1.0; // all singletons in both: vacuous agreement
    }
    if both == 0 {
        return 0.0;
    }
    let precision = both as f64 / in_b as f64;
    let recall = both as f64 / in_a as f64;
    2.0 * precision * recall / (precision + recall)
}

/// Pairwise Jaccard index: `|S_A ∩ S_B| / |S_A ∪ S_B|` where `S_X` is the
/// set of vertex pairs co-clustered by `X`.
pub fn jaccard_index(a: &[u32], b: &[u32]) -> f64 {
    let t = Contingency::new(a, b);
    let (both, in_a, in_b, _) = t.pair_counts();
    let union = in_a + in_b - both;
    if union == 0 {
        return 1.0;
    }
    both as f64 / union as f64
}

/// Newman modularity `Q` of a partition on an undirected weighted graph.
pub fn modularity(graph: &Graph, modules: &[u32]) -> f64 {
    assert_eq!(modules.len(), graph.num_vertices());
    let two_w = 2.0 * graph.total_weight();
    if two_w == 0.0 {
        return 0.0;
    }
    let mut intra = 0.0; // Σ over intra-module undirected edges (self-loops once)
    for (u, v, w) in graph.edges() {
        if modules[u as usize] == modules[v as usize] {
            intra += if u == v { w } else { 2.0 * w };
        }
    }
    let mut strength_per_module: HashMap<u32, f64> = HashMap::new();
    for (u, &m) in modules.iter().enumerate().take(graph.num_vertices()) {
        *strength_per_module.entry(m).or_insert(0.0) += graph.strength(u as u32);
    }
    let expected: f64 = strength_per_module
        .values()
        .map(|&s| (s / two_w) * (s / two_w))
        .sum();
    intra / two_w - expected
}

/// What [`modularity_from_exit`] needs of a graph once the graph itself is
/// gone: every vertex's strength (n × 8 B), the total weight `W` and the
/// total self-loop weight `L` (each loop once, as `W` counts it).
#[derive(Clone, Debug, PartialEq)]
pub struct StrengthProfile {
    pub strengths: Vec<f64>,
    pub total_weight: f64,
    pub self_loops: f64,
}

impl StrengthProfile {
    pub fn of(graph: &Graph) -> Self {
        let n = graph.num_vertices() as u32;
        StrengthProfile {
            strengths: (0..n).map(|u| graph.strength(u)).collect(),
            total_weight: graph.total_weight(),
            self_loops: (0..n).map(|u| graph.self_loop(u)).sum(),
        }
    }
}

/// Newman modularity of `modules` from the partition's total exit flow
/// `exit_flow` (the map equation's q, in flow units `w / 2W`) instead of
/// the edges: `Q = 1 − q − Σ_c p_c² − L/2W`, with `p_c` the module's
/// strength over `2W`. Exact for any undirected weighted graph, self-loops
/// included: the edges inside modules are all of `2W` but the cut (`q`)
/// and the second copy of every loop that `strength` counts (`L`). Equal
/// to [`modularity`] up to rounding, and the same per-cluster cut and
/// volume sums Hamann et al. price both objectives from.
pub fn modularity_from_exit(profile: &StrengthProfile, modules: &[u32], exit_flow: f64) -> f64 {
    assert_eq!(modules.len(), profile.strengths.len());
    let two_w = 2.0 * profile.total_weight;
    if two_w == 0.0 {
        return 0.0;
    }
    let k = modules.iter().map(|&m| m as usize + 1).max().unwrap_or(0);
    let mut volume = vec![0.0; k];
    for (&m, &s) in modules.iter().zip(&profile.strengths) {
        volume[m as usize] += s;
    }
    let expected: f64 = volume.iter().map(|&s| (s / two_w) * (s / two_w)).sum();
    1.0 - exit_flow - expected - profile.self_loops / two_w
}

/// Convenience bundle: all of Table 2's measures at once.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QualityReport {
    pub nmi: f64,
    pub f_measure: f64,
    pub jaccard: f64,
}

/// Compute NMI, F-measure and Jaccard of `detected` against `reference`.
pub fn quality(reference: &[u32], detected: &[u32]) -> QualityReport {
    QualityReport {
        nmi: nmi(reference, detected),
        f_measure: f_measure(reference, detected),
        jaccard: jaccard_index(reference, detected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infomap_graph::datasets::DatasetId;
    use infomap_graph::generators;

    #[test]
    fn identical_clusterings_score_one() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((nmi(&a, &a) - 1.0).abs() < 1e-12);
        assert!((f_measure(&a, &a) - 1.0).abs() < 1e-12);
        assert!((jaccard_index(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relabeling_does_not_change_scores() {
        let a = vec![0, 0, 1, 1, 2, 2];
        let b = vec![5, 5, 9, 9, 7, 7];
        assert!((nmi(&a, &b) - 1.0).abs() < 1e-12);
        assert!((jaccard_index(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_clusterings_score_low() {
        // A splits front/back halves; B alternates: pairwise agreement is
        // near chance level.
        let a = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let b = vec![0, 1, 0, 1, 0, 1, 0, 1];
        assert!(nmi(&a, &b) < 0.05);
        assert!(jaccard_index(&a, &b) < 0.35);
    }

    #[test]
    fn metrics_are_symmetric_where_expected() {
        let a = vec![0, 0, 1, 1, 2, 2, 2];
        let b = vec![0, 1, 1, 1, 2, 2, 0];
        assert!((nmi(&a, &b) - nmi(&b, &a)).abs() < 1e-12);
        assert!((jaccard_index(&a, &b) - jaccard_index(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn partial_agreement_is_between_zero_and_one() {
        let a = vec![0, 0, 0, 1, 1, 1];
        let b = vec![0, 0, 1, 1, 1, 1];
        let q = quality(&a, &b);
        for v in [q.nmi, q.f_measure, q.jaccard] {
            assert!(v > 0.0 && v < 1.0, "{q:?}");
        }
        // Jaccard is the strictest of the three here.
        assert!(q.jaccard <= q.f_measure + 1e-12);
    }

    #[test]
    fn modularity_of_ring_of_cliques_is_high() {
        let (g, truth) = generators::ring_of_cliques(6, 5, 0);
        let q = modularity(&g, &truth);
        assert!(q > 0.6, "modularity {q}");
        // One-module partition has modularity ~0.
        let one = vec![0u32; g.num_vertices()];
        assert!(modularity(&g, &one).abs() < 1e-9);
    }

    #[test]
    fn modularity_prefers_truth_over_random_labels() {
        let (g, truth) = generators::planted_partition(5, 20, 0.4, 0.02, 3);
        let random: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 5).collect();
        assert!(modularity(&g, &truth) > modularity(&g, &random) + 0.2);
    }

    /// The total exit flow of `modules`, straight off the edges: every
    /// edge between two modules, both directions, in flow units `w / 2W`.
    fn exit_flow(g: &Graph, modules: &[u32]) -> f64 {
        let two_w = 2.0 * g.total_weight();
        let cut = g
            .edges()
            .filter(|&(u, v, _)| modules[u as usize] != modules[v as usize]);
        cut.map(|(_, _, w)| 2.0 * w / two_w).sum()
    }

    /// Weighted, with self-loops of its own weights: two triangles joined
    /// by one edge, a loop on four vertices.
    fn looped_graph() -> Graph {
        let edges = [
            (0, 1, 1.5),
            (1, 2, 0.25),
            (0, 2, 2.0),
            (3, 4, 1.0),
            (4, 5, 3.0),
            (3, 5, 0.5),
            (2, 3, 0.75),
            (0, 0, 2.5),
            (2, 2, 0.125),
            (4, 4, 1.0),
            (5, 5, 4.0),
        ];
        Graph::from_edges(6, &edges)
    }

    #[test]
    fn modularity_from_the_exit_flow_is_the_edge_sum() {
        let (lfr, lfr_truth) = generators::lfr_like(generators::LfrParams::default(), 3);
        let (hub, hub_truth) = DatasetId::Uk2007.profile().generate_scaled(0.01, 77);
        let looped = looped_graph();
        let cases = [
            ("lfr", &lfr, lfr_truth.clone()),
            (
                "lfr by tens",
                &lfr,
                (0..lfr.num_vertices() as u32).map(|v| v / 10).collect(),
            ),
            ("uk2007", &hub, hub_truth),
            ("looped", &looped, vec![0, 0, 0, 1, 1, 1]),
            ("looped singletons", &looped, (0..6).collect()),
        ];
        assert!(looped.self_loop(5) > 0.0);
        for (name, g, modules) in cases {
            let one = vec![0; g.num_vertices()];
            for (part, modules, q) in [
                ("", &modules, exit_flow(g, &modules)),
                (" as one module", &one, 0.0),
            ] {
                let direct = modularity(g, modules);
                let from_exit = modularity_from_exit(&StrengthProfile::of(g), modules, q);
                assert!(
                    (direct - from_exit).abs() <= 1e-12,
                    "{name}{part}: {direct} by the edges, {from_exit} by the exit flow"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "same vertices")]
    fn mismatched_lengths_panic() {
        let _ = nmi(&[0, 1], &[0]);
    }
}
