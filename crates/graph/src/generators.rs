//! Seeded, deterministic synthetic-graph generators.
//!
//! Every generator takes an explicit `seed` and uses `StdRng`, so the whole
//! experiment suite is reproducible run-to-run. The two generators doing the
//! heavy lifting for the paper reproduction are:
//!
//! * [`chung_lu`] — an expected-degree random graph; with a power-law degree
//!   sequence from [`power_law_degrees`] it produces the hub-dominated
//!   scale-free graphs that break 1D partitioning (paper §2.3);
//! * [`lfr_like`] — power-law degrees *and* power-law community sizes with a
//!   mixing parameter μ, the standard shape for community-detection
//!   benchmarks. It drives the dataset stand-ins in [`crate::datasets`].

use rand::prelude::*;
use rand::rngs::StdRng;

use crate::csr::{Graph, GraphBuilder, VertexId};

/// Erdős–Rényi `G(n, m)`: `m` distinct uniform random edges.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 2, "need at least two vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let max_edges = n * (n - 1) / 2;
    let m = m.min(max_edges);
    while b.num_edges() < m {
        let u = rng.gen_range(0..n as VertexId);
        let v = rng.gen_range(0..n as VertexId);
        if u != v {
            b.add_edge(u, v, 1.0);
        }
    }
    b.build()
}

/// A power-law degree sequence: `P(k) ∝ k^(-gamma)` on `[k_min, k_max]`,
/// sampled by inverse-transform from the continuous Pareto and rounded.
pub fn power_law_degrees(
    n: usize,
    gamma: f64,
    k_min: usize,
    k_max: usize,
    seed: u64,
) -> Vec<usize> {
    assert!(gamma > 1.0, "power-law exponent must exceed 1");
    assert!(k_min >= 1 && k_max >= k_min);
    let mut rng = StdRng::seed_from_u64(seed);
    let a = gamma - 1.0;
    let lo = (k_min as f64).powf(-a);
    let hi = (k_max as f64 + 1.0).powf(-a);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            // Inverse CDF of the truncated Pareto.
            let x = (lo + u * (hi - lo)).powf(-1.0 / a);
            (x.floor() as usize).clamp(k_min, k_max)
        })
        .collect()
}

/// Chung–Lu expected-degree model: each of `Σdeg/2` edges picks both
/// endpoints with probability proportional to the target degree. Parallel
/// edges merge and self-loops are rejected, so realized degrees track the
/// expectation closely for heavy-tailed sequences.
pub fn chung_lu(degrees: &[usize], seed: u64) -> Graph {
    let n = degrees.len();
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let total: usize = degrees.iter().sum();
    let m = total / 2;
    // Degree-biased sampling via a repeated-endpoint table.
    let mut table: Vec<VertexId> = Vec::with_capacity(total);
    for (u, &d) in degrees.iter().enumerate() {
        table.extend(std::iter::repeat_n(u as VertexId, d));
    }
    let mut b = GraphBuilder::new(n);
    let mut attempts = 0usize;
    let max_attempts = m.saturating_mul(20).max(1000);
    while b.num_edges() < m && attempts < max_attempts {
        attempts += 1;
        let u = table[rng.gen_range(0..table.len())];
        let v = table[rng.gen_range(0..table.len())];
        if u != v {
            b.add_edge(u, v, 1.0);
        }
    }
    b.build()
}

/// Planted-partition graph: `communities` groups of `group_size` vertices;
/// each intra-community pair is an edge with probability `p_in`, each
/// inter-community pair with probability `p_out`.
pub fn planted_partition(
    communities: usize,
    group_size: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
) -> (Graph, Vec<u32>) {
    let n = communities * group_size;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let truth: Vec<u32> = (0..n).map(|v| (v / group_size) as u32).collect();
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if truth[u] == truth[v] { p_in } else { p_out };
            if rng.gen_bool(p) {
                b.add_edge(u as VertexId, v as VertexId, 1.0);
            }
        }
    }
    (b.build(), truth)
}

/// Parameters for [`lfr_like`].
#[derive(Clone, Copy, Debug)]
pub struct LfrParams {
    /// Number of vertices.
    pub n: usize,
    /// Degree power-law exponent τ₁ (typically 2–3; smaller = heavier tail).
    pub degree_exponent: f64,
    /// Minimum degree.
    pub k_min: usize,
    /// Maximum degree (controls hub size).
    pub k_max: usize,
    /// Community-size power-law exponent τ₂ (typically 1–2).
    pub community_exponent: f64,
    /// Minimum community size.
    pub c_min: usize,
    /// Maximum community size.
    pub c_max: usize,
    /// Mixing parameter μ: expected fraction of a vertex's edges that leave
    /// its community (0 = perfectly separated, 0.5 = barely detectable).
    pub mu: f64,
    /// Shuffle vertex ids so community membership is independent of id
    /// order (default). Disable to mimic crawl-ordered datasets where
    /// adjacent ids belong to the same site/community — the id locality
    /// that makes block-1D partitioning blow up in the paper's Figure 6.
    pub shuffle_ids: bool,
}

impl Default for LfrParams {
    fn default() -> Self {
        LfrParams {
            n: 1000,
            degree_exponent: 2.5,
            k_min: 4,
            k_max: 100,
            community_exponent: 1.5,
            c_min: 10,
            c_max: 100,
            mu: 0.3,
            shuffle_ids: true,
        }
    }
}

impl LfrParams {
    /// `n` vertices at mixing parameter `mu`, every other parameter at its
    /// default.
    pub fn with(n: usize, mu: f64) -> Self {
        LfrParams {
            n,
            mu,
            ..Default::default()
        }
    }
}

/// LFR-like community benchmark: power-law degrees, power-law community
/// sizes, mixing parameter μ. Returns the graph and planted community ids.
///
/// Construction: community sizes are sampled until they cover `n`; each
/// vertex splits its degree into `(1-μ)` internal and `μ` external stubs;
/// internal stubs pair uniformly within the community, external stubs pair
/// globally (rejecting same-community pairs best-effort). Parallel edges
/// merge; self-loops are dropped. This is the standard LFR shape without
/// the exact-degree rewiring pass — sufficient for the paper's phenomena
/// (hubs + planted structure).
pub fn lfr_like(params: LfrParams, seed: u64) -> (Graph, Vec<u32>) {
    let LfrParams {
        n,
        degree_exponent,
        k_min,
        k_max,
        community_exponent,
        c_min,
        c_max,
        mu,
        shuffle_ids,
    } = params;
    assert!((0.0..=1.0).contains(&mu));
    let mut rng = StdRng::seed_from_u64(seed);

    // 1. Community sizes covering n.
    let mut sizes: Vec<usize> = Vec::new();
    let mut covered = 0usize;
    let a = community_exponent.max(1.001) - 1.0;
    let lo = (c_min as f64).powf(-a);
    let hi = (c_max as f64 + 1.0).powf(-a);
    while covered < n {
        let u: f64 = rng.gen_range(0.0..1.0);
        let s = ((lo + u * (hi - lo)).powf(-1.0 / a).floor() as usize).clamp(c_min, c_max);
        let s = s.min(n - covered).max(1);
        sizes.push(s);
        covered += s;
    }

    // 2. Assign vertices to communities contiguously, then shuffle labels so
    //    community membership is independent of vertex id.
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    if shuffle_ids {
        order.shuffle(&mut rng);
    }
    let mut community = vec![0u32; n];
    let mut members: Vec<Vec<VertexId>> = Vec::with_capacity(sizes.len());
    {
        let mut it = order.into_iter();
        for (cid, &s) in sizes.iter().enumerate() {
            let group: Vec<VertexId> = (&mut it).take(s).collect();
            for &v in &group {
                community[v as usize] = cid as u32;
            }
            members.push(group);
        }
    }

    // 3. Degrees, capped by community size for the internal share.
    let degrees = power_law_degrees(n, degree_exponent, k_min, k_max, seed ^ 0x5eed);

    // 4. Stub lists.
    let mut b = GraphBuilder::new(n);
    let mut external_stubs: Vec<VertexId> = Vec::new();
    for group in &members {
        let mut internal_stubs: Vec<VertexId> = Vec::new();
        for &v in group {
            let k = degrees[v as usize];
            let internal =
                (((1.0 - mu) * k as f64).round() as usize).min(group.len().saturating_sub(1));
            let external = k - internal.min(k);
            internal_stubs.extend(std::iter::repeat_n(v, internal));
            external_stubs.extend(std::iter::repeat_n(v, external));
        }
        internal_stubs.shuffle(&mut rng);
        for pair in internal_stubs.chunks_exact(2) {
            if pair[0] != pair[1] {
                b.add_edge(pair[0], pair[1], 1.0);
            }
        }
    }

    // 5. Pair external stubs globally, retrying same-community matches.
    external_stubs.shuffle(&mut rng);
    let mut leftovers: Vec<VertexId> = Vec::new();
    for pair in external_stubs.chunks_exact(2) {
        let (u, v) = (pair[0], pair[1]);
        if u != v && community[u as usize] != community[v as usize] {
            b.add_edge(u, v, 1.0);
        } else {
            leftovers.push(u);
            leftovers.push(v);
        }
    }
    let mut tries = 0;
    while leftovers.len() >= 2 && tries < 4 {
        tries += 1;
        leftovers.shuffle(&mut rng);
        let mut still = Vec::new();
        for pair in leftovers.chunks_exact(2) {
            let (u, v) = (pair[0], pair[1]);
            if u != v && community[u as usize] != community[v as usize] {
                b.add_edge(u, v, 1.0);
            } else {
                still.push(u);
                still.push(v);
            }
        }
        leftovers = still;
    }

    (b.build(), community)
}

// ---------------------------------------------------------------------
// Streaming generation: per-vertex RNG streams, O(#communities) memory
// ---------------------------------------------------------------------

/// One step of SplitMix64 — the streaming generators' only RNG. It is
/// self-contained (no `rand` dependency) and seedable per vertex, so edge
/// emission is a pure function of `(params, seed, v)`: any vertex's edges
/// can be regenerated independently, in any order, on any machine.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// High 53 bits of a SplitMix64 output as a uniform f64 in `[0, 1)`.
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Seed of vertex `v`'s private SplitMix64 stream.
fn vertex_stream(seed: u64, v: u64) -> u64 {
    let mut s = seed ^ v.wrapping_mul(0xa24b_aed4_963e_e407);
    splitmix64(&mut s);
    s
}

/// Contiguous community layout of the streaming LFR stand-in: community
/// `c` owns vertex ids `starts[c] .. starts[c+1]`. `O(#communities)`
/// memory — the only global state streaming generation keeps.
struct CommunityLayout {
    starts: Vec<u32>,
}

/// Stream tag separating the community-size RNG from per-vertex streams.
const COMMUNITY_STREAM: u64 = 0xc033_7713;

impl CommunityLayout {
    /// Sample power-law community sizes covering `n` (the same truncated
    /// Pareto inversion [`lfr_like`] uses), from a dedicated RNG stream.
    fn sample(n: usize, exponent: f64, c_min: usize, c_max: usize, seed: u64) -> CommunityLayout {
        let mut state = vertex_stream(seed, COMMUNITY_STREAM);
        let a = exponent.max(1.001) - 1.0;
        let lo = (c_min as f64).powf(-a);
        let hi = (c_max as f64 + 1.0).powf(-a);
        let mut starts = vec![0u32];
        let mut covered = 0usize;
        while covered < n {
            let u = unit_f64(splitmix64(&mut state));
            let s = ((lo + u * (hi - lo)).powf(-1.0 / a).floor() as usize).clamp(c_min, c_max);
            let s = s.min(n - covered).max(1);
            covered += s;
            starts.push(covered as u32);
        }
        CommunityLayout { starts }
    }

    /// `(start, end)` of the community containing `v`.
    fn bounds_of(&self, v: u32) -> (u32, u32) {
        let c = self.starts.partition_point(|&s| s <= v) - 1;
        (self.starts[c], self.starts[c + 1])
    }
}

/// Stream the edges of an LFR-like stand-in without building the graph:
/// every vertex `v` draws its degree and its initiated edges from a
/// private [`vertex_stream`], so the emitted edge multiset is a pure
/// function of `(params, seed)` — independent of shard count, emission
/// order, and machine. `params.shuffle_ids` is ignored (streamed
/// stand-ins are crawl-ordered: contiguous ids share a community, like
/// the paper's large datasets).
///
/// Construction: `v` initiates `ceil(k_v / 2)` edges (realized degrees
/// then average `k_v` once received edges are counted), splitting them
/// `μ : 1-μ` into external targets (uniform over other communities,
/// bounded rejection) and internal targets (uniform over the community
/// minus `v`). Self-loops never emit. Communities are returned per call
/// via [`streaming_lfr_community_of`] instead of a materialized vector.
///
/// The sink returns a result so IO-backed sinks (spill files) can fail;
/// emission stops at the first error.
pub fn streaming_lfr_edges<E>(
    params: LfrParams,
    seed: u64,
    mut sink: impl FnMut(VertexId, VertexId, f64) -> Result<(), E>,
) -> Result<(), E> {
    let LfrParams {
        n,
        degree_exponent,
        k_min,
        k_max,
        community_exponent,
        c_min,
        c_max,
        mu,
        shuffle_ids: _,
    } = params;
    assert!((0.0..=1.0).contains(&mu));
    assert!(k_min >= 1 && k_max >= k_min && n >= 2);
    let layout = CommunityLayout::sample(n, community_exponent, c_min, c_max, seed);

    let a = degree_exponent - 1.0;
    let lo = (k_min as f64).powf(-a);
    let hi = (k_max as f64 + 1.0).powf(-a);
    for v in 0..n as u32 {
        let mut state = vertex_stream(seed, v as u64);
        let u = unit_f64(splitmix64(&mut state));
        let k = ((lo + u * (hi - lo)).powf(-1.0 / a).floor() as usize).clamp(k_min, k_max);
        let (cs, ce) = layout.bounds_of(v);
        let size = (ce - cs) as usize;

        let initiated = k.div_ceil(2);
        let mut external = ((mu * initiated as f64).round() as usize).min(initiated);
        let mut internal = initiated - external;
        if size <= 1 {
            external += internal;
            internal = 0;
        }
        for _ in 0..internal {
            // Uniform over the community minus v: skip v's own slot.
            let r = (splitmix64(&mut state) % (size as u64 - 1)) as u32;
            let t = cs + if r >= v - cs { r + 1 } else { r };
            sink(v, t, 1.0)?;
        }
        for _ in 0..external {
            for _ in 0..8 {
                let t = (splitmix64(&mut state) % n as u64) as u32;
                if t < cs || t >= ce {
                    sink(v, t, 1.0)?;
                    break;
                }
            }
        }
    }
    Ok(())
}

/// Planted community of vertex `v` under [`streaming_lfr_edges`] with the
/// same `(params, seed)` — `O(#communities)` setup, `O(log)` per query.
pub fn streaming_lfr_community_of(params: LfrParams, seed: u64) -> impl Fn(VertexId) -> u32 {
    let layout = CommunityLayout::sample(
        params.n,
        params.community_exponent,
        params.c_min,
        params.c_max,
        seed,
    );
    move |v| (layout.starts.partition_point(|&s| s <= v) - 1) as u32
}

/// `k` cliques of size `s`, joined into a ring by single edges — the classic
/// "obvious communities" graph; Infomap must recover the cliques.
pub fn ring_of_cliques(k: usize, s: usize, seed: u64) -> (Graph, Vec<u32>) {
    assert!(k >= 2 && s >= 2);
    let _ = seed; // deterministic; kept for signature uniformity
    let n = k * s;
    let mut b = GraphBuilder::new(n);
    let mut truth = vec![0u32; n];
    for c in 0..k {
        let base = (c * s) as VertexId;
        for i in 0..s as VertexId {
            truth[(base + i) as usize] = c as u32;
            for j in 0..i {
                b.add_edge(base + i, base + j, 1.0);
            }
        }
        let next_base = (((c + 1) % k) * s) as VertexId;
        b.add_edge(base, next_base, 1.0);
    }
    (b.build(), truth)
}

/// A star: vertex 0 connected to all others. The minimal hub stress test.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2);
    let edges: Vec<(VertexId, VertexId)> = (1..n as VertexId).map(|v| (0, v)).collect();
    Graph::from_unweighted(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_has_requested_edges() {
        let g = erdos_renyi(100, 300, 1);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 300);
    }

    #[test]
    fn erdos_renyi_is_deterministic_per_seed() {
        assert_eq!(erdos_renyi(50, 100, 7), erdos_renyi(50, 100, 7));
        assert_ne!(erdos_renyi(50, 100, 7), erdos_renyi(50, 100, 8));
    }

    #[test]
    fn power_law_degrees_respect_bounds_and_tail() {
        let degs = power_law_degrees(20_000, 2.2, 2, 1000, 3);
        assert!(degs.iter().all(|&d| (2..=1000).contains(&d)));
        let max = *degs.iter().max().unwrap();
        assert!(max > 100, "heavy tail missing: max degree {max}");
        let mean = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        assert!(mean < 20.0, "mean degree {mean} unexpectedly high");
    }

    #[test]
    fn chung_lu_tracks_expected_degrees() {
        let degrees = power_law_degrees(2000, 2.5, 3, 200, 11);
        let g = chung_lu(&degrees, 12);
        let expect_m = degrees.iter().sum::<usize>() / 2;
        // Parallel-edge merging loses a few edges; stay within 15%.
        assert!(g.num_edges() as f64 > 0.85 * expect_m as f64);
        // The highest-expectation vertex should be a realized hub.
        let hub = (0..degrees.len()).max_by_key(|&i| degrees[i]).unwrap();
        assert!(g.degree(hub as VertexId) > degrees[hub] / 3);
    }

    #[test]
    fn planted_partition_is_assortative() {
        let (g, truth) = planted_partition(4, 25, 0.3, 0.01, 5);
        let mut intra = 0;
        let mut inter = 0;
        for (u, v, _) in g.edges() {
            if truth[u as usize] == truth[v as usize] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > 5 * inter, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn lfr_like_mixing_close_to_mu() {
        let (g, truth) = lfr_like(LfrParams::with(3000, 0.25), 9);
        let mut cut = 0usize;
        let mut total = 0usize;
        for (u, v, _) in g.edges() {
            total += 1;
            if truth[u as usize] != truth[v as usize] {
                cut += 1;
            }
        }
        let mixing = cut as f64 / total as f64;
        assert!(
            (mixing - 0.25).abs() < 0.12,
            "realized mixing {mixing} far from requested 0.25"
        );
        assert!(g.num_edges() > 3000, "graph too sparse: {}", g.num_edges());
    }

    #[test]
    fn ring_of_cliques_shape() {
        let (g, truth) = ring_of_cliques(4, 5, 0);
        assert_eq!(g.num_vertices(), 20);
        // 4 cliques of C(5,2)=10 edges plus 4 ring edges.
        assert_eq!(g.num_edges(), 44);
        assert_eq!(truth[0], truth[4]);
        assert_ne!(truth[0], truth[5]);
    }

    #[test]
    fn small_structured_graphs() {
        assert_eq!(star(10).degree(0), 9);
    }
}
