//! Best-move kernel microbench: the epoch-stamped dense accumulator in
//! isolation, on a leaf vertex (deg ≈ 4) and a hub vertex (deg ≈ 10⁴).
//!
//! The kernel is O(deg) per vertex whatever the number k of distinct
//! neighbor modules: the hub under singleton modules (k ≈ deg) and the
//! `coarse64` variant (vertices folded into 64 modules, the intermediate
//! regime of mid-convergence sweeps) should cost about the same.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use infomap_distributed::state::{build_stage1_states, LocalState};
use infomap_distributed::{best_local_move, NeighborhoodScratch};
use infomap_graph::Graph;
use infomap_partition::Partition;

const HUB_DEG: u32 = 10_000;

/// Star-plus-double-ring: vertex 0 is a hub with degree 10⁴; every other
/// vertex has degree ≈ 4 (two ring arcs + possibly the star arc).
fn hub_state() -> LocalState {
    let n = HUB_DEG + 1;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for v in 1..=HUB_DEG {
        edges.push((0, v));
    }
    for v in 1..=HUB_DEG {
        let w = if v == HUB_DEG { 1 } else { v + 1 };
        edges.push((v, w));
        let w2 = if v + 2 > HUB_DEG {
            v + 2 - HUB_DEG
        } else {
            v + 2
        };
        edges.push((v, w2));
    }
    let g = Graph::from_unweighted(n as usize, &edges);
    let part = Partition::one_d(&g, 1);
    let mut st = build_stage1_states(&g, &part).remove(0);
    st.sum_exit = st.out_flow.iter().sum();
    st
}

/// Fold all vertices into 64 modules (slots 0..64 already exist: slots
/// are interned per local vertex at stage start).
fn coarsen(st: &mut LocalState, k: u32) {
    for li in 0..st.module_of().len() {
        st.move_vertex(li, li as u32 % k, 1);
    }
}

fn bench_kernels(c: &mut Criterion) {
    let st = hub_state();
    let hub: u32 = 0; // deg 10_000
    let leaf: u32 = 7; // deg 4
    let mut coarse = st.clone();
    coarsen(&mut coarse, 64);

    let mut group = c.benchmark_group("best_move");
    group.sample_size(10);

    let mut neigh = NeighborhoodScratch::new();

    group.bench_function("leaf_stamped", |b| {
        b.iter(|| best_local_move(black_box(&st), leaf, 1e-10, false, &mut neigh))
    });
    group.bench_function("hub_stamped_singletons", |b| {
        b.iter(|| best_local_move(black_box(&st), hub, 1e-10, false, &mut neigh))
    });
    group.bench_function("hub_stamped_coarse64", |b| {
        b.iter(|| best_local_move(black_box(&coarse), hub, 1e-10, false, &mut neigh))
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
