//! # infomap-partition — 1D and vertex-delegate graph partitioning
//!
//! Implements the two partitioning strategies the paper compares:
//!
//! * **1D partitioning** ([`Partition::one_d`]): every arc goes to its
//!   source's owner, `owner(v) = v mod p`. On scale-free graphs the rank
//!   that owns a hub receives that hub's entire adjacency — the workload and
//!   communication imbalance of the paper's Figure 1.
//! * **Delegate partitioning** ([`Partition::delegate`], paper §3.3,
//!   after Pearce et al.): vertices with degree above a threshold `d_high`
//!   become *delegates*, replicated on every rank. Arcs whose source is a
//!   delegate are assigned by their **target's** owner instead, and a final
//!   greedy pass reassigns delegate arcs from overloaded to underloaded
//!   ranks, driving every rank toward `|arcs|/p`.
//!
//! The unit of assignment is the *arc*: each undirected edge `{u,v}`, u≠v,
//! yields the two arcs `u→v` and `v→u`; a self-loop yields one arc. Every
//! arc lands on exactly one rank (a property `tests/properties.rs` checks), so summing
//! per-arc quantities across ranks never double counts.
//!
//! [`BalanceStats`] summarizes per-rank loads (edges or ghosts) for the
//! workload/communication balance experiments (Figures 6–7).

#![forbid(unsafe_code)]

use std::collections::HashSet;
use std::ops::Range;

use infomap_graph::{GraphStore, VertexId};

/// A directed arc with the weight of its undirected parent edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arc {
    pub src: VertexId,
    pub dst: VertexId,
    pub weight: f64,
}

/// How the delegate threshold `d_high` is chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelegateThreshold {
    /// `d_high = p`, the paper's §4 setting ("we set the threshold d_high as
    /// the processor number"). Appropriate at the paper's scale, where `p`
    /// is 256–4096 and only genuine hubs exceed it.
    RankCount,
    /// `d_high = max(p, factor × mean degree)` — the scale-adjusted version
    /// of the paper's rule: on scaled-down graphs with small worlds, plain
    /// `d_high = p` would delegate a large fraction of all vertices, which
    /// the paper's setup never does. `Auto(4.0)` is the library default.
    Auto(f64),
    /// A fixed degree threshold.
    Fixed(usize),
}

impl DelegateThreshold {
    /// Resolve to a concrete degree bound for a world of `p` ranks on a
    /// graph with the given mean degree (arcs per vertex).
    pub fn resolve(self, p: usize, mean_degree: f64) -> usize {
        match self {
            DelegateThreshold::RankCount => p,
            DelegateThreshold::Auto(factor) => p.max((factor * mean_degree).ceil() as usize),
            DelegateThreshold::Fixed(d) => d,
        }
    }
}

/// The result of partitioning a graph over `nranks` ranks.
#[derive(Clone, Debug)]
pub struct Partition {
    pub nranks: usize,
    /// Arc lists per rank; every stored arc of the graph appears in exactly
    /// one list.
    pub arcs: Vec<Vec<Arc>>,
    /// Sorted delegate vertex ids (empty for 1D partitioning).
    pub delegates: Vec<VertexId>,
    /// `is_delegate[v]` for all vertices.
    pub is_delegate: Vec<bool>,
    /// Vertex-ownership rule used (block vs round-robin), needed when
    /// counting ghosts.
    pub block_owned: bool,
}

/// Round-robin 1D owner of vertex `v` among `p` ranks.
pub fn owner(v: VertexId, p: usize) -> usize {
    (v as usize) % p
}

/// Block 1D owner: contiguous ranges of `ceil(n/p)` vertex ids per rank —
/// the assignment the prior-work 1D baselines use. On graphs whose id
/// order carries locality (web crawls: pages of one site are adjacent),
/// blocks capture dense regions and hubs wholesale, which is what blows up
/// the per-rank spread in the paper's Figures 6–7.
pub fn block_owner(v: VertexId, n: usize, p: usize) -> usize {
    let block = n.div_ceil(p).max(1);
    ((v as usize) / block).min(p - 1)
}

impl Partition {
    /// Plain 1D partitioning: arc `u→v` goes to `owner(u)` (round-robin).
    pub fn one_d<G: GraphStore + ?Sized>(graph: &G, nranks: usize) -> Partition {
        Self::one_d_with(graph, nranks, |u, _n, p| owner(u, p))
    }

    /// Block 1D partitioning: arc `u→v` goes to `block_owner(u)` — the
    /// contiguous-range assignment of the prior-work baselines the paper
    /// compares against in Figures 6–7.
    pub fn one_d_block<G: GraphStore + ?Sized>(graph: &G, nranks: usize) -> Partition {
        let mut part = Self::one_d_with(graph, nranks, block_owner);
        part.block_owned = true;
        part
    }

    fn one_d_with<G: GraphStore + ?Sized>(
        graph: &G,
        nranks: usize,
        assign: impl Fn(VertexId, usize, usize) -> usize,
    ) -> Partition {
        assert!(nranks > 0);
        let n = graph.num_vertices();
        let mut arcs: Vec<Vec<Arc>> = vec![Vec::new(); nranks];
        let mut adj = Vec::new();
        for u in 0..n as VertexId {
            let r = assign(u, n, nranks);
            graph.arcs_into(u, &mut adj);
            for &(v, w) in &adj {
                if v == u {
                    arcs[r].push(Arc {
                        src: u,
                        dst: u,
                        weight: w,
                    });
                } else {
                    arcs[r].push(Arc {
                        src: u,
                        dst: v,
                        weight: w,
                    });
                }
            }
        }
        Partition {
            nranks,
            arcs,
            delegates: Vec::new(),
            is_delegate: vec![false; n],
            block_owned: false,
        }
    }

    /// Delegate partitioning (paper §3.3).
    ///
    /// 1. Vertices with `degree > d_high` become delegates (replicated on
    ///    every rank).
    /// 2. Arcs with a low-degree source go to the source's owner; arcs with
    ///    a delegate source go to the **target's** owner (so delegate and
    ///    target co-locate).
    /// 3. If `rebalance`, delegate-source arcs are greedily reassigned from
    ///    ranks above the ideal load `total_arcs / p` to ranks below it —
    ///    legal because the delegate source lives everywhere.
    ///
    /// Composed from the per-rank pieces the collective prepare runs on
    /// each rank ([`delegates_from_degrees`], [`shard_rank_arcs`],
    /// [`RebalancePlan::ship_surplus`]), so both give every rank the same
    /// list in the same order.
    pub fn delegate<G: GraphStore + ?Sized>(
        graph: &G,
        nranks: usize,
        threshold: DelegateThreshold,
        rebalance: bool,
    ) -> Partition {
        assert!(nranks > 0);
        let n = graph.num_vertices();
        let degrees: Vec<u32> = (0..n as VertexId).map(|u| graph.degree(u) as u32).collect();
        let (delegates, is_delegate) = delegates_from_degrees(&degrees, nranks, threshold);
        let (mut arcs, mut movable): (Vec<Vec<Arc>>, Vec<Vec<Range<usize>>>) = (0..nranks)
            .map(|r| shard_rank_arcs(graph, r, nranks, &delegates, &is_delegate))
            .unzip();
        if rebalance {
            let loads: Vec<usize> = arcs.iter().map(Vec::len).collect();
            let counts: Vec<usize> = movable.iter().map(|m| movable_len(m)).collect();
            let plan = plan_rebalance(&loads, &counts, nranks);
            let shipped: Vec<Vec<Vec<Arc>>> = (0..nranks)
                .map(|r| plan.ship_surplus(r, &mut arcs[r], &mut movable[r]))
                .collect();
            for (r, list) in arcs.iter_mut().enumerate() {
                for from in &shipped {
                    list.extend_from_slice(&from[r]);
                }
            }
        }

        Partition {
            nranks,
            arcs,
            delegates,
            is_delegate,
            block_owned: false,
        }
    }

    /// Per-rank arc counts — the paper's workload proxy ("the total workload
    /// is proportional to the total edge number on this processor").
    pub fn edge_counts(&self) -> Vec<usize> {
        self.arcs.iter().map(Vec::len).collect()
    }

    /// Per-rank ghost-vertex counts — the paper's communication proxy.
    ///
    /// A ghost on rank `r` is a non-delegate vertex that appears in `r`'s
    /// arcs but is owned elsewhere. Delegates are replicated everywhere and
    /// therefore never ghosts.
    pub fn ghost_counts(&self) -> Vec<usize> {
        self.arcs
            .iter()
            .enumerate()
            .map(|(r, arcs)| {
                let n = self.is_delegate.len();
                let owner_of = |v: VertexId| {
                    if self.block_owned {
                        block_owner(v, n, self.nranks)
                    } else {
                        owner(v, self.nranks)
                    }
                };
                let mut ghosts: HashSet<VertexId> = HashSet::new();
                for a in arcs {
                    for v in [a.src, a.dst] {
                        if !self.is_delegate[v as usize] && owner_of(v) != r {
                            ghosts.insert(v);
                        }
                    }
                }
                ghosts.len()
            })
            .collect()
    }

    /// Total number of arcs across all ranks.
    pub fn total_arcs(&self) -> usize {
        self.arcs.iter().map(Vec::len).sum()
    }
}

/// Resolve the delegate set from a global degree array (paper §3.3
/// step 1). Pure: [`Partition::delegate`] derives the array from the
/// graph, the collective prepare from an allgatherv of per-rank degree
/// counters — both then take the identical branch per vertex, so the
/// delegate sets (and everything downstream) agree bit for bit.
pub fn delegates_from_degrees(
    degrees: &[u32],
    nranks: usize,
    threshold: DelegateThreshold,
) -> (Vec<VertexId>, Vec<bool>) {
    let n = degrees.len();
    let total_arcs: u64 = degrees.iter().map(|&d| d as u64).sum();
    let mean_degree = total_arcs as f64 / n.max(1) as f64;
    let d_high = threshold.resolve(nranks, mean_degree).max(1);
    let mut is_delegate = vec![false; n];
    let mut delegates = Vec::new();
    for (v, &d) in degrees.iter().enumerate() {
        if d as usize > d_high {
            is_delegate[v] = true;
            delegates.push(v as VertexId);
        }
    }
    (delegates, is_delegate)
}

/// Rank `rank`'s pre-rebalance delegate-partition arc list, built from
/// that rank's rows alone (the round-robin-owned rows plus the global
/// delegate set, `delegates` ascending).
///
/// The rule (paper §3.3 step 2) assigns arc `u→v` to `owner(u)` when `u`
/// is low-degree and to `owner(v)` when `u` is a delegate. Every arc rank
/// `r` receives therefore has an endpoint owned by `r` — the source
/// (direct case) or the target (delegate case) — and the symmetric CSR
/// stores the reverse of each delegate arc in the *target's* adjacency.
/// So owned rows suffice: owned low-degree rows contribute their arcs as
/// stored, and every owned arc `u→v` with a delegate target synthesizes
/// the reverse `v→u` (this covers delegate self-loops exactly once, since
/// `u == v` fires the synthesis rule and not the direct one).
///
/// The list is sorted by `(src, dst)`, with no sort: a store's rows come
/// target-ascending, and a delegate's copies come in owned-row order, so
/// one counting pass over the owned rows sizes every source's block and a
/// second fills them in place. Returns the arcs plus the delegate rows'
/// position ranges, ascending: the movable arcs the rebalance draws from.
pub fn shard_rank_arcs<G: GraphStore + ?Sized>(
    store: &G,
    rank: usize,
    nranks: usize,
    delegates: &[VertexId],
    is_delegate: &[bool],
) -> (Vec<Arc>, Vec<Range<usize>>) {
    let n = store.num_vertices();
    let rows = || (rank..n).step_by(nranks).map(|u| u as VertexId);
    let low_rows = || rows().filter(|&u| !is_delegate[u as usize]);
    let slot = |d: VertexId| delegates.binary_search(&d).expect("a delegate");
    let mut adj = Vec::new();
    let mut copies = vec![0usize; delegates.len()];
    for u in rows() {
        store.arcs_into(u, &mut adj);
        for &(v, _) in adj.iter().filter(|a| is_delegate[a.0 as usize]) {
            copies[slot(v)] += 1;
        }
    }
    // Block starts: sources ascending, owned low-degree rows and delegate
    // rows interleaved by id.
    let mut starts = Vec::with_capacity(delegates.len());
    let (mut at, mut low) = (0, low_rows().peekable());
    for (&d, &count) in delegates.iter().zip(&copies) {
        while let Some(u) = low.next_if(|&u| u < d) {
            at += store.degree(u);
        }
        starts.push(at);
        at += count;
    }
    let total = at + low.map(|u| store.degree(u)).sum::<usize>();
    let movable: Vec<Range<usize>> = (starts.iter().zip(&copies))
        .filter(|(_, &count)| count > 0)
        .map(|(&start, &count)| start..start + count)
        .collect();

    let blank = Arc {
        src: 0,
        dst: 0,
        weight: 0.0,
    };
    let mut arcs = vec![blank; total];
    let (mut next, mut copies_below, mut di) = (starts, 0, 0);
    let mut direct_below = 0;
    for u in rows() {
        store.arcs_into(u, &mut adj);
        if !is_delegate[u as usize] {
            while di < delegates.len() && delegates[di] < u {
                copies_below += copies[di];
                di += 1;
            }
            let start = direct_below + copies_below;
            for (arc, &(v, weight)) in arcs[start..start + adj.len()].iter_mut().zip(&adj) {
                *arc = Arc {
                    src: u,
                    dst: v,
                    weight,
                };
            }
            direct_below += adj.len();
        }
        for &(v, weight) in adj.iter().filter(|a| is_delegate[a.0 as usize]) {
            let at = &mut next[slot(v)];
            arcs[*at] = Arc {
                src: v,
                dst: u,
                weight,
            };
            *at += 1;
        }
    }
    (arcs, movable)
}

/// The outcome of the delegate-arc rebalancing pass, computed purely from
/// per-rank (load, movable-count) summaries — every rank derives the
/// identical plan from one allgather, then plays only its own part.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RebalancePlan {
    /// Target per-rank load, `total_arcs / p`.
    pub ideal: usize,
    /// How many movable arcs each rank surrenders. Rank `r` pops its
    /// movable indices from the highest down, `surplus[r]` times; the
    /// global pool is those arcs in rank order, pop order within a rank.
    pub surplus: Vec<usize>,
    /// Destination rank of each pool entry, in pool order.
    pub dest: Vec<usize>,
}

impl RebalancePlan {
    /// Rank `rank`'s part of the plan: [`take_surplus`] out of its `arcs`
    /// and `movable`, cut into one bucket per destination rank. Every
    /// destination appends the buckets it receives in source-rank order —
    /// [`Partition::delegate`] in place, the collective prepare over one
    /// alltoallv.
    pub fn ship_surplus(
        &self,
        rank: usize,
        arcs: &mut Vec<Arc>,
        movable: &mut Vec<Range<usize>>,
    ) -> Vec<Vec<Arc>> {
        let mut buckets = vec![Vec::new(); self.surplus.len()];
        let pool_base: usize = self.surplus[..rank].iter().sum();
        let surplus = take_surplus(arcs, movable, self.surplus[rank]);
        for (arc, &dest) in surplus.into_iter().zip(&self.dest[pool_base..]) {
            buckets[dest].push(arc);
        }
        buckets
    }
}

/// Compute the rebalancing plan (paper §3.3 step 4): take each
/// overloaded rank's surplus of movable (delegate-source) arcs, deal the
/// pool to the most under-loaded ranks first, spill any remainder
/// round-robin. Pure in the per-rank summaries, so every rank replays the
/// same plan.
pub fn plan_rebalance(loads: &[usize], movable_counts: &[usize], nranks: usize) -> RebalancePlan {
    assert_eq!(loads.len(), nranks);
    assert_eq!(movable_counts.len(), nranks);
    let total: usize = loads.iter().sum();
    let ideal = total / nranks;
    let mut loads = loads.to_vec();

    let mut surplus = vec![0usize; nranks];
    for r in 0..nranks {
        while loads[r] > ideal && surplus[r] < movable_counts[r] {
            surplus[r] += 1;
            loads[r] -= 1;
        }
    }
    let pool_len: usize = surplus.iter().sum();

    // Deal the pool to the most under-loaded ranks first.
    let mut order: Vec<usize> = (0..nranks).collect();
    order.sort_by_key(|&r| loads[r]);
    let mut dest = Vec::with_capacity(pool_len);
    'deal: loop {
        let mut placed = false;
        for &r in &order {
            if dest.len() >= pool_len {
                break 'deal;
            }
            if loads[r] < ideal + 1 {
                dest.push(r);
                loads[r] += 1;
                placed = true;
            }
        }
        if !placed {
            // Everyone at ideal: spill the remainder round-robin.
            for j in 0..pool_len - dest.len() {
                dest.push(j % nranks);
            }
            break;
        }
    }
    RebalancePlan {
        ideal,
        surplus,
        dest,
    }
}

/// How many arcs the position ranges `movable` cover.
pub fn movable_len(movable: &[Range<usize>]) -> usize {
    movable.iter().map(ExactSizeIterator::len).sum()
}

/// One rank's part of the rebalance: take the arcs at the `k` highest
/// positions `movable` covers (disjoint ranges, ascending, into `arcs`:
/// the delegate rows) out of `arcs` and return them highest position
/// first, the order [`RebalancePlan::dest`] deals them in. The arcs left
/// keep their order, and `movable` keeps the ranges left below the taken
/// tail, still valid: what `k` `Vec::remove` calls leave, in one pass.
pub fn take_surplus(arcs: &mut Vec<Arc>, movable: &mut Vec<Range<usize>>, k: usize) -> Vec<Arc> {
    // The taken tail, highest range first.
    let mut taken: Vec<Range<usize>> = Vec::new();
    let mut left = k;
    while left > 0 {
        let run = movable.last_mut().expect("surplus within movable");
        let cut = run.len().min(left);
        taken.push(run.end - cut..run.end);
        run.end -= cut;
        left -= cut;
        if run.start == run.end {
            movable.pop();
        }
    }
    let pool: Vec<Arc> = (taken.iter())
        .flat_map(|run| run.clone().rev())
        .map(|i| arcs[i])
        .collect();
    if k > 0 {
        let (mut at, mut gaps) = (0, taken.iter().rev().peekable());
        arcs.retain(|_| {
            at += 1;
            while gaps.next_if(|run| run.end < at).is_some() {}
            !gaps.peek().is_some_and(|run| run.contains(&(at - 1)))
        });
    }
    pool
}

/// Summary statistics over a per-rank load vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BalanceStats {
    pub min: usize,
    pub p25: usize,
    pub median: usize,
    pub p75: usize,
    pub max: usize,
    pub mean: f64,
    /// max / mean — 1.0 is perfect balance.
    pub imbalance: f64,
}

impl BalanceStats {
    /// Compute from a per-rank load vector. Panics on empty input.
    pub fn from_loads(loads: &[usize]) -> BalanceStats {
        assert!(!loads.is_empty());
        let mut sorted = loads.to_vec();
        sorted.sort_unstable();
        let q = |f: f64| sorted[((sorted.len() - 1) as f64 * f).round() as usize];
        let mean = sorted.iter().sum::<usize>() as f64 / sorted.len() as f64;
        BalanceStats {
            min: sorted[0],
            p25: q(0.25),
            median: q(0.5),
            p75: q(0.75),
            max: *sorted.last().unwrap(),
            mean,
            imbalance: if mean > 0.0 {
                *sorted.last().unwrap() as f64 / mean
            } else {
                1.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infomap_graph::{generators, Graph};

    fn hub_graph() -> Graph {
        // Star with 40 leaves plus a sparse ring among the leaves.
        let mut edges: Vec<(VertexId, VertexId)> = (1..41).map(|v| (0, v)).collect();
        for v in 1..40 {
            edges.push((v, v + 1));
        }
        Graph::from_unweighted(41, &edges)
    }

    #[test]
    fn one_d_assigns_every_arc_once() {
        let g = hub_graph();
        let p = Partition::one_d(&g, 4);
        let total_arcs: usize = (0..g.num_vertices() as VertexId).map(|u| g.degree(u)).sum();
        assert_eq!(p.total_arcs(), total_arcs);
        for (r, arcs) in p.arcs.iter().enumerate() {
            for a in arcs {
                assert_eq!(owner(a.src, 4), r);
            }
        }
    }

    #[test]
    fn one_d_overloads_the_hub_owner() {
        let g = hub_graph();
        let p = Partition::one_d(&g, 4);
        let counts = p.edge_counts();
        // Rank 0 owns the hub (vertex 0): it must carry the most arcs.
        assert!(counts[0] > 2 * counts[1], "counts: {counts:?}");
    }

    #[test]
    fn delegate_detects_hub_and_balances() {
        let g = hub_graph();
        let p = Partition::delegate(&g, 4, DelegateThreshold::Fixed(10), true);
        assert_eq!(p.delegates, vec![0]);
        let stats = BalanceStats::from_loads(&p.edge_counts());
        assert!(
            stats.imbalance < 1.3,
            "imbalance {}: {:?}",
            stats.imbalance,
            p.edge_counts()
        );
        // Arc conservation under rebalancing.
        let total_arcs: usize = (0..g.num_vertices() as VertexId).map(|u| g.degree(u)).sum();
        assert_eq!(p.total_arcs(), total_arcs);
    }

    #[test]
    fn delegate_threshold_rankcount_matches_paper() {
        assert_eq!(DelegateThreshold::RankCount.resolve(64, 10.0), 64);
        assert_eq!(DelegateThreshold::Fixed(7).resolve(64, 10.0), 7);
        // Auto takes the larger of p and factor × mean degree.
        assert_eq!(DelegateThreshold::Auto(4.0).resolve(8, 10.0), 40);
        assert_eq!(DelegateThreshold::Auto(4.0).resolve(256, 10.0), 256);
    }

    #[test]
    fn delegate_reduces_ghosts_versus_one_d_on_scale_free() {
        let degs = generators::power_law_degrees(3000, 2.1, 2, 400, 5);
        let g = generators::chung_lu(&degs, 6);
        let p = 16;
        let one_d = Partition::one_d(&g, p);
        let del = Partition::delegate(&g, p, DelegateThreshold::RankCount, true);
        let g1 = BalanceStats::from_loads(&one_d.ghost_counts());
        let g2 = BalanceStats::from_loads(&del.ghost_counts());
        assert!(
            g2.max < g1.max,
            "delegate max ghosts {} should beat 1D {}",
            g2.max,
            g1.max
        );
        let e1 = BalanceStats::from_loads(&one_d.edge_counts());
        let e2 = BalanceStats::from_loads(&del.edge_counts());
        assert!(
            e2.imbalance < e1.imbalance,
            "edge imbalance {} vs {}",
            e2.imbalance,
            e1.imbalance
        );
    }

    #[test]
    fn no_delegates_when_threshold_high() {
        let g = hub_graph();
        let p = Partition::delegate(&g, 4, DelegateThreshold::Fixed(1000), true);
        assert!(p.delegates.is_empty());
        // Degenerates to 1D assignment.
        let one_d = Partition::one_d(&g, 4);
        assert_eq!(p.edge_counts(), one_d.edge_counts());
    }

    #[test]
    fn balance_stats_quartiles() {
        let s = BalanceStats::from_loads(&[1, 2, 3, 4, 100]);
        assert_eq!(s.min, 1);
        assert_eq!(s.median, 3);
        assert_eq!(s.max, 100);
        assert!((s.mean - 22.0).abs() < 1e-9);
        assert!(s.imbalance > 4.0);
    }

    #[test]
    fn rebalance_moves_only_delegate_source_arcs() {
        // Regression: a descending-pop bug once removed wrong indices and
        // shipped low-degree-source arcs to foreign ranks, breaking the
        // "every low-degree arc lives with its source owner" invariant the
        // distributed ghost topology depends on.
        let degs = generators::power_law_degrees(2000, 2.0, 2, 500, 9);
        let g = generators::chung_lu(&degs, 10);
        for p in [2usize, 3, 8, 17] {
            let part = Partition::delegate(&g, p, DelegateThreshold::Fixed(30), true);
            for (r, arcs) in part.arcs.iter().enumerate() {
                for a in arcs {
                    assert!(
                        part.is_delegate[a.src as usize] || owner(a.src, p) == r,
                        "p={p}: non-delegate arc ({},{}) on rank {r}, owner {}",
                        a.src,
                        a.dst,
                        owner(a.src, p)
                    );
                }
            }
            // Arc conservation under rebalancing.
            let expect: usize = (0..g.num_vertices() as VertexId).map(|u| g.degree(u)).sum();
            assert_eq!(part.total_arcs(), expect, "p={p}");
        }
    }

    #[test]
    fn delegate_partition_follows_the_naive_rule() {
        // The §3.3 rule written the obvious way, over the whole graph: arc
        // u→v goes to owner(v) when u is a delegate, else to owner(u).
        let degs = generators::power_law_degrees(800, 2.1, 2, 200, 12);
        let g = generators::chung_lu(&degs, 4);
        let key = |a: &Arc| (a.src, a.dst, a.weight.to_bits());
        for p in [1usize, 2, 3, 5, 8] {
            let threshold = DelegateThreshold::Fixed(25);
            let part = Partition::delegate(&g, p, threshold, false);
            assert!(!part.delegates.is_empty(), "the graph grew no hubs");
            let mut naive: Vec<Vec<Arc>> = vec![Vec::new(); p];
            let mut adj = Vec::new();
            for u in 0..g.num_vertices() as VertexId {
                g.arcs_into(u, &mut adj);
                for &(v, weight) in &adj {
                    let hub = part.is_delegate[u as usize];
                    let r = owner(if hub { v } else { u }, p);
                    naive[r].push(Arc {
                        src: u,
                        dst: v,
                        weight,
                    });
                }
            }
            for list in &mut naive {
                list.sort_by_key(|a| (a.src, a.dst));
            }

            // Without rebalance: the lists themselves, order included.
            assert_eq!(part.arcs, naive, "p={p}");

            // With rebalance: the same arcs, and every low-degree arc still
            // on its source's owner, in its place.
            let rb = Partition::delegate(&g, p, threshold, true);
            assert!(p == 1 || rb.arcs != naive, "p={p}: nothing rebalanced");
            let mut all: Vec<_> = rb.arcs.iter().flatten().map(key).collect();
            let mut want: Vec<_> = naive.iter().flatten().map(key).collect();
            all.sort_unstable();
            want.sort_unstable();
            assert_eq!(all, want, "p={p}: arc multiset");
            let low = |arcs: &[Arc]| -> Vec<Arc> {
                let low_degree = |a: &&Arc| !rb.is_delegate[a.src as usize];
                arcs.iter().filter(low_degree).copied().collect()
            };
            for (r, (got, want)) in rb.arcs.iter().zip(&naive).enumerate() {
                assert_eq!(low(got), low(want), "p={p} rank {r}");
            }
        }
    }

    /// What `take_surplus` replaced, kept as its specification: pop the
    /// highest movable index and `Vec::remove` it, `k` times.
    fn remove_loop(arcs: &mut Vec<Arc>, movable: &mut Vec<usize>, k: usize) -> Vec<Arc> {
        (0..k)
            .map(|_| arcs.remove(movable.pop().expect("surplus within movable")))
            .collect()
    }

    /// Ascending `indices` as ranges: runs of adjacent indices, cut at
    /// random as adjacent delegate rows are.
    fn ranges(indices: &[usize], rng: &mut impl rand::Rng) -> Vec<Range<usize>> {
        let mut out: Vec<Range<usize>> = Vec::new();
        for &i in indices {
            match out.last_mut() {
                Some(run) if run.end == i && rng.gen_range(0..3) > 0 => run.end += 1,
                _ => out.push(i..i + 1),
            }
        }
        out
    }

    /// `len` distinguishable arcs.
    fn numbered_arcs(len: usize) -> Vec<Arc> {
        let arc = |i| Arc {
            src: i as VertexId,
            dst: (i / 3) as VertexId,
            weight: i as f64,
        };
        (0..len).map(arc).collect()
    }

    #[test]
    fn take_surplus_equals_the_remove_loop() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(24);
        for case in 0..200 {
            let len = rng.gen_range(0..40usize);
            // Dense draws give adjacent indices; every eighth case marks
            // the last element, every fifth all of them.
            let density = [1, 2, 2, 5][case % 4];
            let mut movable: Vec<usize> = (0..len)
                .filter(|_| case % 5 == 0 || rng.gen_range(0..density) == 0)
                .collect();
            if case % 8 == 0 && len > 0 && movable.last() != Some(&(len - 1)) {
                movable.push(len - 1);
            }
            let k = match case % 3 {
                0 => 0,
                1 => movable.len(),
                _ => rng.gen_range(0..movable.len() + 1),
            };
            let (mut arcs, mut want_arcs) = (numbered_arcs(len), numbered_arcs(len));
            let mut runs = ranges(&movable, &mut StdRng::seed_from_u64(case as u64));
            let pool = take_surplus(&mut arcs, &mut runs, k);
            let want_pool = remove_loop(&mut want_arcs, &mut movable, k);
            assert_eq!(pool, want_pool, "case {case}: pool order");
            assert_eq!(arcs, want_arcs, "case {case}: arcs left");
            let left: Vec<usize> = runs.into_iter().flatten().collect();
            assert_eq!(left, movable, "case {case}: movable left");
        }
    }

    #[test]
    fn take_surplus_is_linear() {
        // A million arcs, 400 k of them surplus: one `Vec::remove` each
        // would shift ~10^11 elements.
        let mut arcs = numbered_arcs(1_000_000);
        let mut movable: Vec<Range<usize>> = (0..1_000_000)
            .filter(|i| i % 2 == 1)
            .map(|i| i..i + 1)
            .collect();
        let pool = take_surplus(&mut arcs, &mut movable, 400_000);
        assert_eq!(
            (pool.len(), arcs.len(), movable_len(&movable)),
            (400_000, 600_000, 100_000)
        );
        assert_eq!((pool[0].src, pool[399_999].src), (999_999, 200_001));
        assert_eq!(movable.last(), Some(&(199_999..200_000)));
        assert!(arcs[200_000..].iter().all(|a| a.src % 2 == 0));
        assert!(arcs[..200_000]
            .iter()
            .enumerate()
            .all(|(i, a)| a.src as usize == i));
    }

    #[test]
    #[should_panic(expected = "surplus within movable")]
    fn take_surplus_rejects_more_than_movable() {
        take_surplus(&mut numbered_arcs(4), &mut vec![1..2, 2..3], 3);
    }

    #[test]
    fn self_loops_partition_once() {
        let g = Graph::from_edges(4, &[(0, 0, 1.0), (0, 1, 1.0), (2, 3, 1.0)]);
        let p = Partition::one_d(&g, 2);
        let selfs: usize = p.arcs.iter().flatten().filter(|a| a.src == a.dst).count();
        assert_eq!(selfs, 1);
    }
}
