//! Property tests for the map equation: the incremental bookkeeping must
//! agree with from-scratch recomputation under arbitrary move sequences,
//! and aggregation must preserve the codelength exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use infomap_core::map_equation::codelength_from_scratch;
use infomap_core::sequential::{aggregate, greedy_sweeps, Infomap, InfomapConfig};
use infomap_core::{FlowNetwork, MoveScratch, Partitioning};
use infomap_graph::generators::{self, LfrParams};
use infomap_graph::{Graph, VertexId};

/// The 48 cases each property runs: case `c` draws from
/// `StdRng::seed_from_u64(c)`.
fn cases() -> impl Iterator<Item = (u64, StdRng)> {
    (0..48).map(|c| (c, StdRng::seed_from_u64(c)))
}

/// A ring on `n` vertices plus fewer than `max_extra` arbitrary chords.
fn connected_net(n: usize, max_extra: usize, rng: &mut StdRng) -> FlowNetwork {
    // A ring guarantees every vertex has degree >= 2; extra edges add
    // arbitrary structure.
    let mut edges: Vec<(VertexId, VertexId)> = (0..n as VertexId)
        .map(|v| (v, (v + 1) % n as VertexId))
        .collect();
    for _ in 0..rng.gen_range(0..max_extra) {
        let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if a != b {
            edges.push((a, b));
        }
    }
    FlowNetwork::from_graph(Graph::from_unweighted(n, &edges))
}

#[test]
fn incremental_codelength_matches_scratch_after_random_moves() {
    for (case, mut rng) in cases() {
        let n = rng.gen_range(6..24);
        let net = connected_net(n, 20, &mut rng);
        let mut part = Partitioning::singletons(&net);
        let mut scratch = MoveScratch::default();
        for _ in 0..rng.gen_range(0..40) {
            let u = rng.gen_range(0..n as VertexId);
            if let Some(c) = part.best_move_stamped(&net, u, 1e-12, 1e-12, &mut scratch) {
                let before = part.codelength();
                part.apply_candidate(&net, &c);
                // δL prediction matches the actual change.
                let err = part.codelength() - before - c.delta;
                assert!(err.abs() < 1e-9, "case {case}: δL off by {err}");
            }
        }
        let l = part.codelength();
        let scratch = codelength_from_scratch(&net, part.assignments(), part.node_term());
        assert!((l - scratch).abs() < 1e-8, "case {case}: {l} vs {scratch}");
    }
}

#[test]
fn greedy_never_increases_codelength() {
    for (case, mut rng) in cases() {
        let n = rng.gen_range(8..30);
        let net = connected_net(n, 30, &mut rng);
        let mut part = Partitioning::singletons(&net);
        let before = part.codelength();
        greedy_sweeps(&net, &mut part, &mut rng);
        assert!(part.codelength() <= before + 1e-9, "case {case}");
    }
}

#[test]
fn aggregation_preserves_codelength_of_any_greedy_partition() {
    for (case, mut rng) in cases() {
        let n = rng.gen_range(8..30);
        let net = connected_net(n, 30, &mut rng);
        let node_term = Partitioning::singletons(&net).node_term();
        let mut part = Partitioning::singletons_with_node_term(&net, node_term);
        greedy_sweeps(&net, &mut part, &mut rng);
        let l = part.codelength();
        let (agg, _) = aggregate(&net, &part);
        let l_agg = Partitioning::singletons_with_node_term(&agg, node_term).codelength();
        assert!((l - l_agg).abs() < 1e-9, "case {case}: {l} vs {l_agg}");
        // Aggregated flows still sum to 1.
        let total: f64 = agg.node_flows().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "case {case}: {total}");
    }
}

#[test]
fn full_run_result_is_consistent() {
    // A failure an earlier search shrank to runs first, as case "recorded".
    let recorded = ("recorded".to_string(), 21, 84);
    let drawn = cases().map(|(c, mut r)| (c.to_string(), r.gen_range(20..80), r.gen_range(0..200)));
    for (case, n, seed) in std::iter::once(recorded).chain(drawn) {
        let case = format!("{case} (n={n} seed={seed})");
        let (g, _) = generators::lfr_like(
            LfrParams {
                n,
                c_min: 5,
                c_max: 20,
                k_min: 3,
                k_max: 12,
                ..Default::default()
            },
            seed,
        );
        if g.num_edges() == 0 {
            continue;
        }
        let config = InfomapConfig { seed };
        let result = Infomap::new(config).run(&g);
        // Assignments are dense 0..k.
        let (modules, k) = (&result.modules, result.num_modules() as u32);
        assert!(k >= 1 && modules.iter().all(|&m| m < k), "case {case}");
        for c in 0..k {
            assert!(modules.contains(&c), "case {case}: module {c} empty");
        }
        // Two-level never loses to one-level.
        let (l, l1) = (result.codelength, result.one_level_codelength);
        assert!(l <= l1 + 1e-9, "case {case}: {l} > {l1}");
        // Reported codelength matches the assignments.
        let net = FlowNetwork::from_graph(g);
        let node_term = Partitioning::singletons(&net).node_term();
        let scratch = codelength_from_scratch(&net, &result.modules, node_term);
        assert!((scratch - result.codelength).abs() < 1e-7, "case {case}");
    }
}
