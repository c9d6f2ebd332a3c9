//! Property tests for the graph substrate: CSR invariants, generator
//! contracts, IO round trips, and the binary snapshot codec.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use infomap_graph::generators::{self, LfrParams};
use infomap_graph::snapshot::{
    shard_path, write_shards, write_snapshot, PageCacheConfig, SnapshotError, SnapshotStore,
};
use infomap_graph::{io, Graph, GraphStore, VertexId};

/// The 64 cases each property runs: case `c` draws from
/// `StdRng::seed_from_u64(c)`.
fn cases() -> impl Iterator<Item = (u64, StdRng)> {
    (0..64).map(|c| (c, StdRng::seed_from_u64(c)))
}

/// A fresh scratch directory per case (the tests run concurrently).
fn snap_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let name = format!("dinf-graph-props-{}-{seq}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Fewer than 60 weighted edges on `n` vertices, self-loops and repeats
/// included.
fn arbitrary_graph(n: usize, rng: &mut StdRng) -> Graph {
    let edges: Vec<(VertexId, VertexId, f64)> = (0..rng.gen_range(0..60))
        .map(|_| {
            let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            (u, v, rng.gen_range(0.1..10.0))
        })
        .collect();
    Graph::from_edges(n, &edges)
}

/// Each case's graph on `n` vertices, and the rest of its stream.
fn graphs(n: usize) -> impl Iterator<Item = (u64, Graph, StdRng)> {
    cases().map(move |(c, mut rng)| (c, arbitrary_graph(n, &mut rng), rng))
}

/// Each case's graph on `n` vertices written as one snapshot file; an
/// edgeless one has no file.
fn snapshots(n: usize) -> impl Iterator<Item = (u64, Graph, StdRng, PathBuf)> {
    graphs(n).filter_map(|(c, g, rng)| {
        let path = snap_dir().join("g.snap");
        if priced(&g, write_snapshot(&g, &path)).is_none() {
            remove_snapshot(&path);
            return None;
        }
        Some((c, g, rng, path))
    })
}

fn remove_snapshot(path: &Path) {
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// What writing `g` gave; `None` if `g` is edgeless (`W = 0`: no flows
/// for the map equation to price) and the writer refused it by name.
fn priced<T>(g: &Graph, written: Result<T, SnapshotError>) -> Option<T> {
    match written {
        Err(e) if g.num_edges() == 0 => {
            assert!(e.to_string().contains("cannot price"), "{e}");
            None
        }
        written => Some(written.unwrap()),
    }
}

/// `a` reads back `b`'s row of every vertex in `vs`: the same degree, the
/// same strength bits and the same arcs.
fn assert_same_rows(case: &str, a: &impl GraphStore, b: &impl GraphStore, vs: &[VertexId]) {
    let (mut x, mut y) = (Vec::new(), Vec::new());
    for &v in vs {
        assert_eq!(a.degree(v), b.degree(v), "case {case} v={v}");
        let s = [a.strength(v), b.strength(v)].map(f64::to_bits);
        assert_eq!(s[0], s[1], "case {case} v={v}");
        a.arcs_into(v, &mut x);
        b.arcs_into(v, &mut y);
        assert_eq!(x, y, "case {case} v={v}");
    }
}

#[test]
fn strengths_sum_to_twice_total_weight() {
    for (case, g, _) in graphs(20) {
        let sum: f64 = (0..20).map(|u| g.strength(u)).sum();
        assert!((sum - 2.0 * g.total_weight()).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn edges_iterator_matches_edge_count() {
    for (case, g, _) in graphs(15) {
        assert_eq!(g.edges().count(), g.num_edges(), "case {case}");
        // Every listed edge has u <= v and positive weight (weights merge).
        for (u, v, w) in g.edges() {
            assert!(u <= v && w > 0.0, "case {case}: edge {u}-{v} weight {w}");
        }
    }
}

#[test]
fn arcs_are_symmetric() {
    for (case, g, _) in graphs(15) {
        for u in 0..15 as VertexId {
            for (v, w) in g.arcs(u).filter(|&(v, _)| v != u) {
                let back: f64 = g.arcs(v).filter(|&(t, _)| t == u).map(|(_, w)| w).sum();
                assert!((back - w).abs() < 1e-12, "case {case}: arc {u}->{v}");
            }
        }
    }
}

#[test]
fn components_partition_the_vertices() {
    for (case, g, _) in graphs(25) {
        let (comp, count) = g.components();
        assert_eq!(comp.len(), 25, "case {case}");
        let max = comp.iter().copied().max().unwrap_or(0) as usize;
        assert_eq!(max + 1, count, "case {case}");
        // Neighbors share a component.
        for (u, v, _) in g.edges() {
            assert_eq!(comp[u as usize], comp[v as usize], "case {case}: {u}-{v}");
        }
    }
}

#[test]
fn io_roundtrip_preserves_edges_and_weight() {
    for (case, g, _) in graphs(12) {
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let read = io::read_edge_list(&buf[..]);
        if g.num_edges() == 0 {
            // W = 0: no flows for the map equation to price.
            let refused = matches!(read, Err(io::IoError::Unpriceable(_)));
            assert!(refused, "case {case}: an edgeless list is refused by name");
            continue;
        }
        let loaded = read.unwrap().graph;
        assert_eq!(loaded.num_edges(), g.num_edges(), "case {case}");
        let dw = loaded.total_weight() - g.total_weight();
        assert!(dw.abs() < 1e-9, "case {case}: {dw}");
    }
}

#[test]
fn power_law_degrees_in_bounds() {
    for (case, mut rng) in cases() {
        let (n, gamma) = (rng.gen_range(10..400), rng.gen_range(1.5..3.5));
        let k_min = rng.gen_range(1..4);
        let k_max = k_min + 50;
        let degs = generators::power_law_degrees(n, gamma, k_min, k_max, 7);
        assert_eq!(degs.len(), n, "case {case}");
        assert!(
            degs.iter().all(|d| (k_min..=k_max).contains(d)),
            "case {case}"
        );
    }
}

#[test]
fn lfr_truth_covers_all_vertices() {
    for (case, mut rng) in cases() {
        let (n, mu) = (rng.gen_range(100..400), rng.gen_range(0.05..0.5));
        let params = LfrParams::with(n, mu);
        let (g, truth) = generators::lfr_like(params, 3);
        assert_eq!(truth.len(), g.num_vertices(), "case {case}");
        // Community ids are dense from 0.
        let max = truth.iter().copied().max().unwrap();
        for c in 0..=max {
            assert!(truth.contains(&c), "case {case}: community {c} empty");
        }
    }
}

#[test]
fn generators_are_seed_deterministic() {
    for (case, mut rng) in cases() {
        let seed = rng.gen_range(0..1000);
        let a = generators::erdos_renyi(60, 120, seed);
        assert_eq!(a, generators::erdos_renyi(60, 120, seed), "case {case}");
    }
}

#[test]
fn snapshot_roundtrip_is_lossless() {
    for (case, g, _, path) in snapshots(20) {
        let back = SnapshotStore::open(&path, None).unwrap();
        assert_eq!(back.num_vertices(), g.num_vertices(), "case {case}");
        assert_eq!(back.num_edges(), g.num_edges(), "case {case}");
        let weights = [back.total_weight(), g.total_weight()].map(f64::to_bits);
        assert_eq!(weights[0], weights[1], "case {case}");
        let all: Vec<VertexId> = (0..20).collect();
        assert_same_rows(&case.to_string(), &back, &g, &all);
        remove_snapshot(&path);
    }
}

#[test]
fn shards_partition_the_graph_exactly() {
    for (case, g, mut rng) in graphs(24) {
        let p = rng.gen_range(1..5);
        let dir = snap_dir();
        let written = priced(&g, write_shards(&g, p, &dir));
        for rank in (0..p).filter(|_| written.is_some()) {
            let case = format!("{case} p={p} rank {rank}");
            let store = SnapshotStore::open(&shard_path(&dir, rank), None).unwrap();
            assert_eq!(store.num_vertices(), g.num_vertices(), "case {case}");
            assert_eq!(store.num_edges(), g.num_edges(), "case {case}");
            let weights = [store.total_weight(), g.total_weight()].map(f64::to_bits);
            assert_eq!(weights[0], weights[1], "case {case}");
            // Every owned vertex reads back its exact CSR row.
            let owned: Vec<VertexId> = (rank as VertexId..24).step_by(p).collect();
            assert_same_rows(&case, &store, &g, &owned);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn paged_reads_are_bit_identical_to_eager() {
    for (case, _, mut rng, path) in snapshots(20) {
        let block_bytes = 8 * rng.gen_range(1..16);
        // A deliberately tiny cache, so eviction happens even here.
        let cache = PageCacheConfig {
            block_bytes,
            capacity_blocks: 2,
        };
        // The whole file resident, read eagerly by `open`, and paged.
        let [eager, paged] = [None, Some(cache)].map(|c| SnapshotStore::open(&path, c).unwrap());
        let all: Vec<VertexId> = (0..20).collect();
        assert_same_rows(&case.to_string(), &paged, &eager, &all);
        remove_snapshot(&path);
    }
}

#[test]
fn any_single_byte_corruption_is_rejected() {
    for (case, _, mut rng, path) in snapshots(16) {
        let mut bytes = std::fs::read(&path).unwrap();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 1 << rng.gen_range(0..8);
        std::fs::write(&path, &bytes).unwrap();
        // Every flipped bit must surface as a *named* error — magic,
        // version, structural validation, or the checksum backstop —
        // never as silently different data, which a single bit flip under
        // a checksum cannot be.
        match SnapshotStore::open(&path, None) {
            Err(e) => assert!(!e.to_string().is_empty(), "case {case}"),
            Ok(_) => panic!("case {case}: checksummed snapshot accepted a flip at byte {at}"),
        }
        remove_snapshot(&path);
    }
}

#[test]
fn truncated_snapshots_are_rejected() {
    for (case, _, mut rng, path) in snapshots(16) {
        let bytes = std::fs::read(&path).unwrap();
        let keep = rng.gen_range(0..bytes.len());
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let store = SnapshotStore::open(&path, None);
        assert!(store.is_err(), "case {case}: {keep}");
        remove_snapshot(&path);
    }
}
