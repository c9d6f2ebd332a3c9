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
    /// each rank ([`delegates_from_degrees`], [`shard_rank_rows`],
    /// [`RebalancePlan::ship_surplus`], [`ArcRows::receive`]), so both give
    /// every rank the same rows; each rank's list is its rows ascending by
    /// source ([`ArcRows::to_arcs`]).
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
        let shapes: Vec<RowShape> = (0..nranks)
            .map(|r| shard_rank_rows(graph, r, nranks, &delegates, &is_delegate))
            .collect();
        let plan = rebalance.then(|| {
            let loads: Vec<usize> = shapes.iter().map(RowShape::arcs).collect();
            let counts: Vec<usize> = shapes.iter().map(RowShape::movable).collect();
            plan_rebalance(&loads, &counts, nranks)
        });
        let mut rows: Vec<ArcRows> = (shapes.into_iter().enumerate())
            .map(|(r, shape)| {
                let room = plan
                    .as_ref()
                    .map_or(shape.arcs(), |plan| plan.room(r, shape.arcs()));
                shape.fill(graph, r, nranks, &is_delegate, room)
            })
            .collect();
        if let Some(plan) = plan {
            let mut shipped: Vec<Vec<Vec<WireArc>>> = (rows.iter_mut().enumerate())
                .map(|(r, rows)| plan.ship_surplus(r, rows))
                .collect();
            for (r, rows) in rows.iter_mut().enumerate() {
                let received: Vec<Vec<WireArc>> = shipped
                    .iter_mut()
                    .map(|from| std::mem::take(&mut from[r]))
                    .collect();
                rows.receive(&received);
            }
        }
        let arcs = rows.iter().map(ArcRows::to_arcs).collect();

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

/// One rank's arcs as rows over their sources, in the local order a rank
/// state numbers its vertices: the rank's owned low-degree vertices
/// ascending (`src[..delegates_from]`), then delegate rows ascending.
/// Row `i` holds the arcs `off[i]..off[i + 1]` of `tgt` (global target
/// ids) and `w`: a rank state's CSR before its targets are renumbered to
/// local indices.
#[derive(Clone, Debug, PartialEq)]
pub struct ArcRows {
    /// Source of every row.
    pub src: Vec<VertexId>,
    /// First delegate row.
    pub delegates_from: usize,
    /// Row starts, plus the end of the last row.
    pub off: Vec<u32>,
    /// Global target of every arc, row by row.
    pub tgt: Vec<VertexId>,
    /// Weight of every arc, row by row.
    pub w: Vec<f64>,
}

/// An arc as the rebalance ships it: `(src, dst, weight)`.
pub type WireArc = (VertexId, VertexId, f64);

impl ArcRows {
    /// Lay `arcs` out as rows over `owned` (ascending), then `delegates`
    /// (ascending): each row holds its source's arcs in list order. Every
    /// arc's source must be one of them.
    pub fn from_arcs(owned: Vec<VertexId>, delegates: &[VertexId], arcs: &[Arc]) -> ArcRows {
        let delegates_from = owned.len();
        let mut src = owned;
        src.reserve_exact(delegates.len());
        src.extend_from_slice(delegates);
        let row_of = |v: VertexId| {
            let (owned, delegates) = src.split_at(delegates_from);
            (owned.binary_search(&v).ok())
                .or_else(|| Some(delegates_from + delegates.binary_search(&v).ok()?))
                .unwrap_or_else(|| panic!("arc source {v} is neither owned nor a delegate"))
        };
        // One lookup per run of equal sources: arc lists come grouped.
        let rows = || {
            let mut last = None;
            arcs.iter().map(move |a| match last {
                Some((v, row)) if v == a.src => row,
                _ => {
                    let row = row_of(a.src);
                    last = Some((a.src, row));
                    row
                }
            })
        };
        let mut off = vec![0u32; src.len() + 1];
        for row in rows() {
            off[row + 1] += 1;
        }
        for i in 0..src.len() {
            off[i + 1] += off[i];
        }
        let mut next = off[..src.len()].to_vec();
        let (mut tgt, mut w) = (vec![0; arcs.len()], vec![0.0; arcs.len()]);
        for (a, row) in arcs.iter().zip(rows()) {
            let at = &mut next[row];
            tgt[*at as usize] = a.dst;
            w[*at as usize] = a.weight;
            *at += 1;
        }
        ArcRows {
            src,
            delegates_from,
            off,
            tgt,
            w,
        }
    }

    /// The arcs of row `i`, as positions into `tgt` and `w`.
    pub fn row(&self, i: usize) -> Range<usize> {
        self.off[i] as usize..self.off[i + 1] as usize
    }

    /// How many arcs the delegate rows hold: what the rebalance may move.
    pub fn movable(&self) -> usize {
        self.tgt.len() - self.off[self.delegates_from] as usize
    }

    /// The arcs as one list ascending by source, each row in its order.
    pub fn to_arcs(&self) -> Vec<Arc> {
        let mut order: Vec<usize> = (0..self.src.len()).collect();
        order.sort_unstable_by_key(|&i| self.src[i]);
        (order.into_iter())
            .flat_map(|i| {
                self.row(i).map(move |at| Arc {
                    src: self.src[i],
                    dst: self.tgt[at],
                    weight: self.w[at],
                })
            })
            .collect()
    }

    /// Append `received` (buckets in source-rank order, each in its order)
    /// at the end of their delegates' rows: the delegate section is widened
    /// in place from the back, within the room [`RebalancePlan::room`]
    /// reserved. Every received arc's source must have a delegate row.
    pub fn receive(&mut self, received: &[Vec<WireArc>]) {
        let dfrom = self.delegates_from;
        let row_of = |src: &[VertexId], v: VertexId| {
            (src[dfrom..].binary_search(&v)).expect("a received arc has a delegate source")
        };
        let mut extra = vec![0u32; self.src.len() - dfrom];
        for &(v, _, _) in received.iter().flatten() {
            extra[row_of(&self.src, v)] += 1;
        }
        let len = self.tgt.len();
        let mut shift: u32 = extra.iter().sum();
        self.tgt.resize(len + shift as usize, 0);
        self.w.resize(len + shift as usize, 0.0);
        // Back to front, each delegate row moves up by the received arcs
        // of the rows up to it; `extra` becomes the row's insert cursor.
        for (j, extra) in extra.iter_mut().enumerate().rev() {
            let (start, end) = (self.off[dfrom + j], self.off[dfrom + j + 1]);
            self.off[dfrom + j + 1] = end + shift;
            shift -= *extra;
            let (from, to) = (start as usize..end as usize, (start + shift) as usize);
            self.tgt.copy_within(from.clone(), to);
            self.w.copy_within(from, to);
            *extra = end + shift;
        }
        for &(v, dst, weight) in received.iter().flatten() {
            let at = &mut extra[row_of(&self.src, v)];
            self.tgt[*at as usize] = dst;
            self.w[*at as usize] = weight;
            *at += 1;
        }
    }

    /// Drop the empty delegate rows whose source `keep` refuses; rows with
    /// arcs stay.
    pub fn retain_delegates(&mut self, mut keep: impl FnMut(VertexId) -> bool) {
        let (mut kept, mut start) = (self.delegates_from, self.off[self.delegates_from]);
        for i in self.delegates_from..self.src.len() {
            let end = self.off[i + 1];
            if end > start || keep(self.src[i]) {
                self.src[kept] = self.src[i];
                self.off[kept + 1] = end;
                kept += 1;
            }
            start = end;
        }
        self.src.truncate(kept);
        self.off.truncate(kept + 1);
    }
}

/// Rank `rank`'s delegate-partition rows, counted but not filled: the
/// first of the two passes [`shard_rank_rows`] and [`RowShape::fill`]
/// make over the rank's own rows.
#[derive(Debug)]
pub struct RowShape {
    src: Vec<VertexId>,
    delegates_from: usize,
    off: Vec<u32>,
}

/// The count pass over rank `rank`'s rows (the round-robin-owned rows;
/// `delegates` ascending): the size of every row of its pre-rebalance
/// delegate-partition arcs, in [`ArcRows`] order — its owned low-degree
/// vertices ascending, then every delegate ascending.
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
pub fn shard_rank_rows<G: GraphStore + ?Sized>(
    store: &G,
    rank: usize,
    nranks: usize,
    delegates: &[VertexId],
    is_delegate: &[bool],
) -> RowShape {
    let n = store.num_vertices();
    let mut src: Vec<VertexId> = (rank..n)
        .step_by(nranks)
        .filter(|&u| !is_delegate[u])
        .map(|u| u as VertexId)
        .collect();
    let delegates_from = src.len();
    src.reserve_exact(delegates.len());
    src.extend_from_slice(delegates);
    let mut off = vec![0u32; src.len() + 1];
    let (mut adj, mut low) = (Vec::new(), 0);
    for u in (rank..n).step_by(nranks) {
        store.arcs_into(u as VertexId, &mut adj);
        if !is_delegate[u] {
            off[low + 1] = adj.len() as u32;
            low += 1;
        }
        for &(v, _) in adj.iter().filter(|a| is_delegate[a.0 as usize]) {
            off[delegates_from + delegate_row(delegates, v) + 1] += 1;
        }
    }
    let mut total = 0u64;
    for o in &mut off {
        total += *o as u64;
        *o = u32::try_from(total).unwrap_or_else(|_| panic!("rank {rank}: past u32 arcs"));
    }
    RowShape {
        src,
        delegates_from,
        off,
    }
}

/// `d`'s index among the ascending `delegates`.
fn delegate_row(delegates: &[VertexId], d: VertexId) -> usize {
    delegates.binary_search(&d).expect("a delegate")
}

impl RowShape {
    /// How many arcs the rows hold.
    pub fn arcs(&self) -> usize {
        self.off[self.src.len()] as usize
    }

    /// How many arcs the delegate rows hold: what the rebalance may move.
    pub fn movable(&self) -> usize {
        self.arcs() - self.off[self.delegates_from] as usize
    }

    /// The fill pass: write every arc's global target and weight into its
    /// row, over the same rows of the same store as [`shard_rank_rows`],
    /// with room for `capacity` arcs ([`RebalancePlan::room`]). A store's
    /// rows come target-ascending and a delegate's arcs come in owned-row
    /// order, so every row ascends by target.
    pub fn fill<G: GraphStore + ?Sized>(
        self,
        store: &G,
        rank: usize,
        nranks: usize,
        is_delegate: &[bool],
        capacity: usize,
    ) -> ArcRows {
        let RowShape {
            src,
            delegates_from,
            off,
        } = self;
        let total = off[src.len()] as usize;
        let mut tgt = Vec::with_capacity(capacity);
        let mut w = Vec::with_capacity(capacity);
        tgt.resize(total, 0);
        w.resize(total, 0.0);
        let delegates = &src[delegates_from..];
        let mut next = off[delegates_from..src.len()].to_vec();
        let (mut adj, mut low) = (Vec::new(), 0);
        for u in (rank..store.num_vertices()).step_by(nranks) {
            let u = u as VertexId;
            store.arcs_into(u, &mut adj);
            if !is_delegate[u as usize] {
                let start = off[low] as usize;
                for (at, &(v, weight)) in (start..).zip(&adj) {
                    tgt[at] = v;
                    w[at] = weight;
                }
                low += 1;
            }
            for &(v, weight) in adj.iter().filter(|a| is_delegate[a.0 as usize]) {
                let at = &mut next[delegate_row(delegates, v)];
                tgt[*at as usize] = u;
                w[*at as usize] = weight;
                *at += 1;
            }
        }
        ArcRows {
            src,
            delegates_from,
            off,
            tgt,
            w,
        }
    }
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
    /// Rank `rank`'s part of the plan: [`take_surplus`] out of its
    /// `rows`, cut into one bucket per destination rank, and the room the
    /// rows keep trimmed to what [`ArcRows::receive`] then fills. Every
    /// destination appends the buckets it receives in source-rank order —
    /// [`Partition::delegate`] in place, the collective prepare over one
    /// alltoallv.
    pub fn ship_surplus(&self, rank: usize, rows: &mut ArcRows) -> Vec<Vec<WireArc>> {
        let mut buckets = vec![Vec::new(); self.surplus.len()];
        let pool_base: usize = self.surplus[..rank].iter().sum();
        let surplus = take_surplus(rows, self.surplus[rank]);
        for (arc, &dest) in surplus.into_iter().zip(&self.dest[pool_base..]) {
            buckets[dest].push(arc);
        }
        let room = rows.tgt.len() + self.received(rank);
        rows.tgt.shrink_to(room);
        rows.w.shrink_to(room);
        buckets
    }

    /// How many pool arcs the plan deals to `rank`.
    pub fn received(&self, rank: usize) -> usize {
        self.dest.iter().filter(|&&d| d == rank).count()
    }

    /// The arcs rank `rank`'s rows must have room for, given the `arcs`
    /// they are filled with: those, or what is left after the surplus goes
    /// and the received arcs come, if more. Sized before the fill, so the
    /// rows never grow by a copy.
    pub fn room(&self, rank: usize, arcs: usize) -> usize {
        arcs.max(arcs - self.surplus[rank] + self.received(rank))
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

/// One rank's part of the rebalance: take the `k` last arcs of the
/// delegate rows out of `rows` and return them last first, the order
/// [`RebalancePlan::dest`] deals them in. The delegate rows are the tail
/// of the row layout, ascending by delegate, so these are the tails of the
/// highest delegate rows; the arcs left keep their rows and their order.
pub fn take_surplus(rows: &mut ArcRows, k: usize) -> Vec<WireArc> {
    assert!(k <= rows.movable(), "surplus within movable");
    let (len, keep) = (rows.tgt.len(), rows.tgt.len() - k);
    let mut row = rows.src.len();
    let mut pool = Vec::with_capacity(k);
    for at in (keep..len).rev() {
        while rows.off[row] as usize > at {
            row -= 1;
        }
        pool.push((rows.src[row], rows.tgt[at], rows.w[at]));
    }
    rows.tgt.truncate(keep);
    rows.w.truncate(keep);
    for end in rows
        .off
        .iter_mut()
        .rev()
        .take_while(|end| **end as usize > keep)
    {
        *end = keep as u32;
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

    /// `sources` rows, each source a delegate with `hub(v)` and holding
    /// `len(v)` arcs, as the `(src, dst)`-sorted list the rows used to be
    /// and the `(owned, delegates)` split the rows lay it out over.
    fn row_case(
        sources: u32,
        mut hub: impl FnMut(u32) -> bool,
        mut len: impl FnMut(u32) -> u32,
    ) -> (Vec<Arc>, Vec<VertexId>, Vec<VertexId>) {
        let (mut arcs, mut owned, mut delegates) = (Vec::new(), Vec::new(), Vec::new());
        for v in 0..sources {
            if hub(v) { &mut delegates } else { &mut owned }.push(v);
            for dst in 0..len(v) {
                let weight = arcs.len() as f64;
                arcs.push(Arc {
                    src: v,
                    dst,
                    weight,
                });
            }
        }
        (arcs, owned, delegates)
    }

    #[test]
    fn take_surplus_equals_the_remove_loop() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(24);
        for case in 0..200 {
            let sources = rng.gen_range(0..12u32);
            // Dense draws give adjacent delegate rows; every eighth case
            // makes the last source a delegate, every fifth all of them.
            // Rows may be empty.
            let density = [1, 2, 2, 5][case % 4];
            let mut draw = StdRng::seed_from_u64(case as u64);
            let (mut arcs, owned, delegates) = row_case(
                sources,
                |v| {
                    let last = case % 8 == 0 && v + 1 == sources;
                    case % 5 == 0 || last || draw.gen_range(0..density) == 0
                },
                |_| rng.gen_range(0..6),
            );
            let hub = |a: &Arc| delegates.binary_search(&a.src).is_ok();
            let mut movable: Vec<usize> = (0..arcs.len()).filter(|&i| hub(&arcs[i])).collect();
            let k = match case % 3 {
                0 => 0,
                1 => movable.len(),
                _ => rng.gen_range(0..movable.len() + 1),
            };
            let mut rows = ArcRows::from_arcs(owned.clone(), &delegates, &arcs);
            let pool = take_surplus(&mut rows, k);
            let want_pool: Vec<WireArc> = (remove_loop(&mut arcs, &mut movable, k).iter())
                .map(|a| (a.src, a.dst, a.weight))
                .collect();
            assert_eq!(pool, want_pool, "case {case}: pool order");
            let want = ArcRows::from_arcs(owned, &delegates, &arcs);
            assert_eq!(rows, want, "case {case}: rows left");
            assert_eq!(rows.movable(), movable.len(), "case {case}: movable left");
        }
    }

    #[test]
    fn take_surplus_is_linear() {
        // A million arcs, 400 k of them surplus, in 2000 rows: the owned
        // rows (even sources) first, then the delegate rows (odd). One
        // `Vec::remove` each would shift ~10^11 elements.
        let mut src: Vec<VertexId> = (0..2000).step_by(2).collect();
        src.extend((1..2000).step_by(2));
        let mut rows = ArcRows {
            src,
            delegates_from: 1000,
            off: (0..=2000).map(|i| i * 500).collect(),
            tgt: (0..1_000_000).collect(),
            w: (0..1_000_000).map(f64::from).collect(),
        };
        let pool = take_surplus(&mut rows, 400_000);
        assert_eq!(
            (pool.len(), rows.tgt.len(), rows.movable()),
            (400_000, 600_000, 100_000)
        );
        assert_eq!(
            (pool[0], pool[399_999]),
            ((1999, 999_999, 999_999.0), (401, 600_000, 600_000.0))
        );
        assert_eq!(rows.row(1199), 599_500..600_000);
        assert!((1200..2000).all(|i| rows.row(i).is_empty()));
        assert!((rows.tgt.iter().enumerate()).all(|(i, &t)| t as usize == i));
    }

    #[test]
    #[should_panic(expected = "surplus within movable")]
    fn take_surplus_rejects_more_than_movable() {
        let (arcs, owned, delegates) = row_case(4, |v| v % 2 == 1, |v| v);
        take_surplus(&mut ArcRows::from_arcs(owned, &delegates, &arcs), 5);
    }

    #[test]
    fn receive_appends_each_arc_to_its_delegate_row_in_order() {
        // What the rows replaced, kept as its specification: the received
        // buckets appended to the arc list in order, grouped by source.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(50);
        for case in 0..100 {
            let sources = rng.gen_range(1..10u32);
            let mut draw = StdRng::seed_from_u64(case);
            let (mut arcs, owned, delegates) = row_case(
                sources,
                |v| v == 0 || draw.gen_range(0..2) == 0,
                |_| rng.gen_range(0..4),
            );
            let buckets: Vec<Vec<WireArc>> = (0..rng.gen_range(1..4))
                .map(|_| {
                    (0..rng.gen_range(0..5))
                        .map(|i| {
                            let src = delegates[rng.gen_range(0..delegates.len())];
                            (src, 100 + i, rng.gen_range(0..1000) as f64)
                        })
                        .collect()
                })
                .collect();
            let mut rows = ArcRows::from_arcs(owned.clone(), &delegates, &arcs);
            rows.receive(&buckets);
            let received = buckets.iter().flatten();
            arcs.extend(received.map(|&(src, dst, weight)| Arc { src, dst, weight }));
            let want = ArcRows::from_arcs(owned, &delegates, &arcs);
            assert_eq!(rows, want, "case {case}");
        }
    }

    #[test]
    fn self_loops_partition_once() {
        let g = Graph::from_edges(4, &[(0, 0, 1.0), (0, 1, 1.0), (2, 3, 1.0)]);
        let p = Partition::one_d(&g, 2);
        let selfs: usize = p.arcs.iter().flatten().filter(|a| a.src == a.dst).count();
        assert_eq!(selfs, 1);
    }
}
