//! Sequential Infomap (the paper's Algorithm 1).
//!
//! Outer iterations: randomized greedy sweeps move vertices between
//! neighbor modules while the codelength improves (inner loop), then the
//! modules are contracted into a new, smaller network and the process
//! repeats, until the codelength improvement falls below `θ` or the
//! iteration cap is reached. The per-outer-iteration trace (codelength,
//! module count, merge rate) is what Figures 4 and 5 plot.

use infomap_graph::{Graph, GraphBuilder, VertexId};
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::flow::FlowNetwork;
use crate::map_equation::{codelength_from_scratch, Partitioning};

/// The θ of Algorithms 1 and 2: a merge level that improves the
/// codelength by less than this ends the outer loop. The distributed
/// driver stops its rounds and its levels on the same value.
pub const THETA: f64 = 1e-10;

/// The least codelength gain δL a move must bring, sequential and
/// distributed alike.
pub const MIN_GAIN: f64 = 1e-10;

/// Cap on outer iterations (merge levels).
const MAX_LEVELS: usize = 30;

/// Cap on greedy sweeps per outer iteration.
const MAX_SWEEPS: usize = 50;

/// Settings of the sequential algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct InfomapConfig {
    /// RNG seed for vertex-order randomization.
    pub seed: u64,
}

/// Trace entry for one outer iteration.
#[derive(Clone, Copy, Debug)]
pub struct OuterIterationStats {
    /// Outer iteration number (0-based).
    pub iteration: usize,
    /// Codelength after this iteration's sweeps.
    pub codelength: f64,
    /// Vertices of the level network before merging.
    pub vertices_before: usize,
    /// Modules after this iteration == vertices of the next level.
    pub vertices_after: usize,
    /// Fraction of the *original* vertex set merged away during this
    /// iteration — the paper's Figure 5 "merging rate".
    pub merge_rate: f64,
    /// Greedy sweeps run in this iteration.
    pub inner_sweeps: usize,
    /// Vertex moves applied in this iteration.
    pub moves: usize,
}

/// Result of a sequential Infomap run.
#[derive(Clone, Debug)]
pub struct InfomapResult {
    /// Final module id per original vertex (dense, 0-based).
    pub modules: Vec<u32>,
    /// Final two-level codelength in bits.
    pub codelength: f64,
    /// Codelength of the trivial one-module partition — an upper reference.
    pub one_level_codelength: f64,
    /// Per-outer-iteration trace.
    pub trace: Vec<OuterIterationStats>,
}

impl InfomapResult {
    /// Number of detected modules.
    pub fn num_modules(&self) -> usize {
        self.modules
            .iter()
            .copied()
            .max()
            .map(|m| m as usize + 1)
            .unwrap_or(0)
    }
}

/// The sequential Infomap driver.
#[derive(Clone, Debug)]
pub struct Infomap {
    config: InfomapConfig,
}

impl Infomap {
    pub fn new(config: InfomapConfig) -> Self {
        Infomap { config }
    }

    /// Run on an undirected graph.
    pub fn run(&self, graph: &Graph) -> InfomapResult {
        let network = FlowNetwork::from_graph(graph.clone());
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let original_n = network.num_vertices();
        let node_term: f64 = network
            .node_flows()
            .iter()
            .copied()
            .map(crate::map_equation::plogp)
            .sum();

        // One-level reference: all vertices in one module (q = 0).
        let one_level = codelength_from_scratch(&network, &vec![0; original_n], node_term);

        // `final_modules[v]` composes the per-level assignments back to the
        // original ids.
        let mut final_modules: Vec<u32> = (0..original_n as u32).collect();
        let mut level_network = network;
        let mut trace = Vec::new();
        let mut prev_codelength = f64::INFINITY;
        let mut codelength = f64::INFINITY;

        for iteration in 0..MAX_LEVELS {
            let mut partitioning =
                Partitioning::singletons_with_node_term(&level_network, node_term);
            if iteration == 0 {
                prev_codelength = partitioning.codelength();
            }

            let (sweeps, moves) = greedy_sweeps(&level_network, &mut partitioning, &mut rng);
            codelength = partitioning.codelength();

            // Contract modules into the next level's network.
            let (next_network, dense_of_module) = aggregate(&level_network, &partitioning);
            let vertices_before = level_network.num_vertices();
            let vertices_after = next_network.num_vertices();
            for m in final_modules.iter_mut() {
                let level_vertex = *m; // module of original vertex at this level
                *m = dense_of_module[partitioning.module_of(level_vertex) as usize];
            }
            trace.push(OuterIterationStats {
                iteration,
                codelength,
                vertices_before,
                vertices_after,
                merge_rate: (vertices_before - vertices_after) as f64 / original_n as f64,
                inner_sweeps: sweeps,
                moves,
            });

            let improved = prev_codelength - codelength;
            if moves == 0 || vertices_after == vertices_before || improved < THETA {
                break;
            }
            prev_codelength = codelength;
            level_network = next_network;
        }

        // Model selection: if the greedy two-level partition failed to
        // beat the trivial one-module code (possible on small graphs with
        // no community structure, where agglomeration stalls in a local
        // optimum), report the one-level solution — the better model.
        if codelength > one_level {
            final_modules = vec![0; original_n];
            codelength = one_level;
        }

        InfomapResult {
            modules: final_modules,
            codelength,
            one_level_codelength: one_level,
            trace,
        }
    }
}

/// Run greedy sweeps until no vertex moves (or the sweep cap); returns
/// `(sweeps, total moves)`.
pub fn greedy_sweeps(
    network: &FlowNetwork,
    partitioning: &mut Partitioning,
    rng: &mut StdRng,
) -> (usize, usize) {
    let n = network.num_vertices();
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    // Stamped dense accumulator and batched δL: O(deg) per vertex,
    // bit-identical to the legacy scratch-vec scan (see
    // `Partitioning::best_move_stamped`).
    let mut scratch = crate::map_equation::MoveScratch::default();
    let mut total_moves = 0usize;
    let mut sweeps = 0usize;
    for _ in 0..MAX_SWEEPS {
        sweeps += 1;
        order.shuffle(rng);
        let mut moves = 0usize;
        for &u in &order {
            if let Some(c) =
                partitioning.best_move_stamped(network, u, MIN_GAIN, 1e-12, &mut scratch)
            {
                partitioning.apply_candidate(network, &c);
                moves += 1;
            }
        }
        total_moves += moves;
        if moves == 0 {
            break;
        }
    }
    (sweeps, total_moves)
}

/// Contract every module of `partitioning` into a single vertex. Returns
/// the aggregated network and the dense new id of each old module id.
pub fn aggregate(network: &FlowNetwork, partitioning: &Partitioning) -> (FlowNetwork, Vec<u32>) {
    let n = network.num_vertices();
    // Dense-relabel the surviving modules in ascending module-id order.
    let max_module = (0..n)
        .map(|u| partitioning.module_of(u as VertexId))
        .max()
        .unwrap_or(0);
    let mut dense_of_module = vec![u32::MAX; max_module as usize + 1];
    let mut next = 0u32;
    for u in 0..n as VertexId {
        let m = partitioning.module_of(u) as usize;
        if dense_of_module[m] == u32::MAX {
            dense_of_module[m] = next;
            next += 1;
        }
    }
    let num_new = next as usize;

    let mut flows = vec![0.0; num_new];
    for u in 0..n as VertexId {
        flows[dense_of_module[partitioning.module_of(u) as usize] as usize] += network.node_flow(u);
    }

    // Inter- and intra-module weights. Arc flows are `w * inv_two_w`; we
    // rebuild weights so the aggregated FlowNetwork normalizes identically.
    let two_w = 1.0 / network.inv_two_w();
    let mut builder = GraphBuilder::new(num_new);
    for u in 0..n as VertexId {
        let mu = dense_of_module[partitioning.module_of(u) as usize];
        for (v, f) in network.out_arcs(u) {
            if v < u {
                continue; // each undirected edge once
            }
            let mv = dense_of_module[partitioning.module_of(v) as usize];
            builder.add_edge(mu, mv, f * two_w);
        }
        // Preserve existing self-loop weight at u (out_arcs skips it).
        let self_w = network.graph().self_loop(u);
        if self_w > 0.0 {
            builder.add_edge(mu, mu, self_w);
        }
    }
    let graph = builder.build();
    (
        FlowNetwork::with_flows(graph, flows, network.inv_two_w()),
        dense_of_module,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_equation::codelength_from_scratch;
    use infomap_graph::generators;

    #[test]
    fn recovers_ring_of_cliques_exactly() {
        let (g, truth) = generators::ring_of_cliques(6, 5, 0);
        let result = Infomap::new(InfomapConfig::default()).run(&g);
        assert_eq!(result.num_modules(), 6);
        // Modules must coincide with the cliques (up to relabeling).
        for c in 0..6u32 {
            let members: Vec<u32> = (0..30)
                .filter(|&v| truth[v] == c)
                .map(|v| result.modules[v])
                .collect();
            assert!(
                members.windows(2).all(|w| w[0] == w[1]),
                "clique {c} split: {members:?}"
            );
        }
    }

    #[test]
    fn codelength_improves_over_one_level() {
        let (g, _) = generators::planted_partition(8, 16, 0.4, 0.01, 3);
        let result = Infomap::new(InfomapConfig::default()).run(&g);
        assert!(result.codelength < result.one_level_codelength);
        assert!(result.num_modules() >= 6 && result.num_modules() <= 12);
    }

    #[test]
    fn final_codelength_matches_assignments() {
        let (g, _) = generators::lfr_like(
            generators::LfrParams {
                n: 400,
                ..Default::default()
            },
            5,
        );
        let result = Infomap::new(InfomapConfig::default()).run(&g);
        let net = FlowNetwork::from_graph(g);
        let node_term: f64 = net
            .node_flows()
            .iter()
            .copied()
            .map(crate::map_equation::plogp)
            .sum();
        let scratch = codelength_from_scratch(&net, &result.modules, node_term);
        assert!(
            (scratch - result.codelength).abs() < 1e-8,
            "trace codelength {} vs scratch {scratch}",
            result.codelength
        );
    }

    #[test]
    fn trace_codelengths_are_monotone_nonincreasing() {
        let (g, _) = generators::lfr_like(generators::LfrParams::with(600, 0.35), 7);
        let result = Infomap::new(InfomapConfig::default()).run(&g);
        for w in result.trace.windows(2) {
            assert!(
                w[1].codelength <= w[0].codelength + 1e-9,
                "codelength increased: {:?}",
                result.trace
            );
        }
        assert!(!result.trace.is_empty());
    }

    #[test]
    fn aggregation_preserves_codelength() {
        let (g, _) = generators::planted_partition(5, 10, 0.5, 0.02, 11);
        let net = FlowNetwork::from_graph(g);
        let node_term: f64 = net
            .node_flows()
            .iter()
            .copied()
            .map(crate::map_equation::plogp)
            .sum();
        let mut part = Partitioning::singletons_with_node_term(&net, node_term);
        let mut rng = StdRng::seed_from_u64(1);
        greedy_sweeps(&net, &mut part, &mut rng);
        let l_before = part.codelength();

        let (agg, _) = aggregate(&net, &part);
        let singleton_agg = Partitioning::singletons_with_node_term(&agg, node_term);
        assert!(
            (singleton_agg.codelength() - l_before).abs() < 1e-9,
            "aggregated singleton L {} != pre-merge L {l_before}",
            singleton_agg.codelength()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, _) = generators::lfr_like(generators::LfrParams::default(), 2);
        let a = Infomap::new(InfomapConfig { seed: 9 }).run(&g);
        let b = Infomap::new(InfomapConfig { seed: 9 }).run(&g);
        assert_eq!(a.modules, b.modules);
        assert_eq!(a.codelength, b.codelength);
    }

    #[test]
    fn merge_rate_is_large_on_community_graphs() {
        let (g, _) = generators::lfr_like(generators::LfrParams::with(1000, 0.2), 4);
        let result = Infomap::new(InfomapConfig::default()).run(&g);
        let first = &result.trace[0];
        assert!(
            first.merge_rate > 0.5,
            "first-iteration merge rate {} unexpectedly small",
            first.merge_rate
        );
    }

    #[test]
    fn star_collapses_to_one_module() {
        let g = generators::star(20);
        let result = Infomap::new(InfomapConfig::default()).run(&g);
        assert_eq!(result.num_modules(), 1);
    }
}
