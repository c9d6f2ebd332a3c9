//! Per-rank local state: the subgraph a rank owns after partitioning,
//! vertex roles (owned / delegate copy / ghost), flows, module assignments
//! and the rank's local view of module statistics.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::mem;

use infomap_graph::{GraphStore, VertexId};
use infomap_partition::{owner, Arc, Partition};

/// Role of a vertex within one rank's subgraph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VertexKind {
    /// A low-degree vertex this rank owns; its full adjacency is local.
    Owned,
    /// A local copy of a replicated hub; adjacency (and flow) is the local
    /// share only.
    DelegateCopy,
    /// A remote vertex observed as an arc target; only its module id is
    /// tracked (updated by boundary swaps).
    Ghost,
}

/// A rank's view of one module's statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ModuleEntry {
    pub flow: f64,
    pub exit: f64,
    pub members: u32,
}

/// Owner side of the module reduction: one module this rank owns
/// (`modID mod p == rank`), at index `modID / p` of
/// [`LocalState::owner`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OwnedModule {
    /// Whether the module has authoritative totals. A module nobody has
    /// contributed to yet, or one that died, has none and holds
    /// `ModuleEntry::default()`.
    pub present: bool,
    /// Authoritative totals, refreshed by every owner reduction; consumed
    /// by merging.
    pub totals: ModuleEntry,
    /// Last absolute contribution of every rank that touches the module,
    /// sorted by rank. A rank is listed exactly while it has a local
    /// vertex in the module, so this is also the module's subscriber list.
    pub sources: Vec<(u32, (f64, f64, u32))>,
}

impl OwnedModule {
    /// Whether the entry holds anything: totals, or a rank still listed.
    /// The rest of the owner table is `OwnedModule::default()`.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.present || !self.sources.is_empty()
    }
}

/// The complete local state of one rank for one clustering stage.
#[derive(Clone, Debug, PartialEq)]
pub struct LocalState {
    pub rank: usize,
    pub nranks: usize,
    /// Global ids of local vertices (owned + delegate copies + ghosts).
    pub verts: Vec<u32>,
    /// Global id → local index.
    pub index: HashMap<u32, u32>,
    pub kind: Vec<VertexKind>,
    /// CSR over local vertices; targets are local indices.
    pub adj_off: Vec<usize>,
    pub adj_tgt: Vec<u32>,
    pub adj_w: Vec<f64>,
    /// Visit-rate share of each local vertex (owned: full `p_v`; delegate
    /// copy: local share; ghost: 0 — never moved locally).
    pub node_flow: Vec<f64>,
    /// Flow-normalized non-self arc flow out of each local vertex, over
    /// the arcs stored here.
    pub out_flow: Vec<f64>,
    /// Current module of each local vertex, as an interned **module slot**
    /// (index into `module_ids` / the `mod_*` stat arrays). Global ids
    /// appear only at communication boundaries; see
    /// [`LocalState::module_gid`]. Written only by
    /// [`LocalState::move_vertex`], which keeps the dirty set below exact;
    /// other crates read it through [`LocalState::module_of`].
    pub(crate) module_of: Vec<u32>,
    /// Interned module table: slot → global module id. Append-only within
    /// a clustering stage, so slots stay stable across rounds.
    pub module_ids: Vec<u64>,
    /// Global module id → slot (consulted only when global ids arrive off
    /// the wire or leave for it).
    pub module_slot: HashMap<u64, u32>,
    /// Local view of module visit flow, slot-indexed (SoA: the move kernel
    /// touches flow+exit of two slots per candidate, and separate arrays
    /// keep those reads dense — same layout core's `Partitioning` uses).
    /// Only meaningful for slots with `module_present`; absent slots hold
    /// zero so the legacy `get().unwrap_or_default()` reads stay
    /// bit-identical. Wire and checkpoint formats still speak
    /// [`ModuleEntry`] via [`LocalState::module_entry`].
    pub mod_flow: Vec<f64>,
    /// Local view of module exit flow, slot-indexed (see `mod_flow`).
    pub mod_exit: Vec<f64>,
    /// Local view of module member counts, slot-indexed (see `mod_flow`).
    pub mod_members: Vec<u32>,
    /// Whether this rank currently has a view of the slot's module
    /// (mirrors key-existence in the pre-interning `HashMap`).
    pub module_present: Vec<bool>,
    /// The modules this rank owns, indexed by `modID / p`. Module ids are
    /// the level's vertex ids, so [`assemble`] sizes it once for the
    /// largest id with `id mod p == rank` among the rank's owned vertices
    /// and the delegates; it never grows.
    pub owner: Vec<OwnedModule>,
    /// Local estimate of the total exit flow q (refreshed every sync).
    pub sum_exit: f64,
    /// Owned vertices that are ghosts on other ranks, with the ranks that
    /// track them.
    pub subscribers: Vec<(u32, Vec<usize>)>,
    /// Local index of each `subscribers` entry's vertex (derived from
    /// `index`, so the boundary swap hashes nothing per entry per round).
    pub subscriber_li: Vec<u32>,
    /// Ranks that will send boundary updates to this rank each round.
    pub providers: Vec<usize>,
    /// Distinct ranks in `subscribers` (send targets each round).
    pub send_targets: Vec<usize>,
    /// `1 / 2W` of the original level-0 graph.
    pub inv_two_w: f64,
    /// Indices of vertices this rank moves (owned + delegate copies).
    pub movable: Vec<u32>,
    /// Module (global id) last announced to subscribers, per local vertex
    /// (`u64::MAX` = never announced); only vertices whose assignment
    /// changed are re-sent (ghost views stay exact because an update is
    /// emitted precisely when the owner's assignment moves).
    pub last_announced: Vec<u64>,
    /// Contribution last shipped to each module's owner, slot-indexed
    /// (delta-based reduction: only changed contributions travel). Entries
    /// are live only where `last_contrib_active` is set.
    pub last_contrib: Vec<(f64, f64, u32)>,
    /// Which `last_contrib` slots hold a shipped contribution.
    pub last_contrib_active: Vec<bool>,
    /// Module slots a local vertex entered or left since the last owner
    /// reduction — the only slots whose contribution can have changed. All
    /// of them before the first sync of a stage, none at a round boundary.
    pub(crate) dirty_slots: Vec<u32>,
    /// Membership flags of `dirty_slots`, slot-indexed.
    pub(crate) slot_dirty: Vec<bool>,
    /// Election hysteresis, replicated like the delegate assignment: for
    /// every delegate that has moved this stage, the module it last left
    /// and the gain (−δL) of the winning proposal that took it out. A
    /// proposal is one rank's share of a hub speaking for all of it, so two
    /// shares that disagree would otherwise send the hub back and forth on
    /// every turn; a return has to out-gain the departure it undoes.
    pub delegate_left: BTreeMap<u32, (u64, f64)>,
    /// Active-set mark (DESIGN.md §6 note 16): `round + 1` of the last
    /// round in which this local vertex changed module — a merged local
    /// move, an applied delegate winner, or a ghost update off the boundary
    /// swap; 0 = not since the stage began.
    pub moved_at: Vec<u32>,
    /// Active-set mark: `round + 1` of this vertex's last *unrestricted*
    /// evaluation (0 = none yet; stays 0 for ghosts). The sweep skips an
    /// owned vertex unless it or a neighbor has `moved_at >= swept_at`, so
    /// two all-zero arrays start every stage "all active".
    pub swept_at: Vec<u32>,
}

impl LocalState {
    /// Number of local arcs — the paper's per-rank workload measure.
    pub fn num_arcs(&self) -> usize {
        self.adj_tgt.len()
    }

    /// Local index of global vertex `v`.
    pub fn local_of(&self, v: u32) -> u32 {
        self.index[&v]
    }

    /// Arcs of local vertex `li` as `(local target, weight)`.
    pub fn arcs_of(&self, li: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let r = self.adj_off[li as usize]..self.adj_off[li as usize + 1];
        self.adj_tgt[r.clone()]
            .iter()
            .copied()
            .zip(self.adj_w[r].iter().copied())
    }

    /// Is local vertex `li` a delegate copy?
    pub fn is_delegate(&self, li: u32) -> bool {
        self.kind[li as usize] == VertexKind::DelegateCopy
    }

    /// Is movable vertex `li` in the sweep's active set? Delegate copies
    /// always are (their statistics are shares, reconciled elsewhere); an
    /// owned vertex is once it or a neighbor changed module since its last
    /// unrestricted evaluation. The marks are pulled over the vertex's own
    /// arcs, so no reverse adjacency is kept.
    pub fn is_active(&self, li: u32) -> bool {
        let since = self.swept_at[li as usize];
        self.is_delegate(li)
            || self.moved_at[li as usize] >= since
            || self.adj_tgt[self.adj_off[li as usize]..self.adj_off[li as usize + 1]]
                .iter()
                .any(|&tgt| self.moved_at[tgt as usize] >= since)
    }

    /// Current module slot of each local vertex.
    #[inline]
    pub fn module_of(&self) -> &[u32] {
        &self.module_of
    }

    /// Move local vertex `li` to module slot `to` on round tick `tick`:
    /// the one writer of `module_of`. Stamps the active-set mark and marks
    /// the slot left and the slot entered dirty — a move can change this
    /// rank's contribution to those two modules and to no other.
    #[inline]
    pub fn move_vertex(&mut self, li: usize, to: u32, tick: u32) {
        let from = mem::replace(&mut self.module_of[li], to);
        self.moved_at[li] = tick;
        for s in [from, to] {
            if !mem::replace(&mut self.slot_dirty[s as usize], true) {
                self.dirty_slots.push(s);
            }
        }
    }

    /// The modules this rank owns that have totals, as `(module id,
    /// totals)` in ascending id order.
    pub fn owned_modules(&self) -> impl Iterator<Item = (u64, &ModuleEntry)> + '_ {
        let (p, rank) = (self.nranks as u64, self.rank as u64);
        self.owner
            .iter()
            .enumerate()
            .filter(|(_, m)| m.present)
            .map(move |(i, m)| (i as u64 * p + rank, &m.totals))
    }

    /// The owner-table entry of module `gid`, which this rank owns.
    #[inline]
    pub fn owned_module(&self, gid: u64) -> &OwnedModule {
        &self.owner[(gid / self.nranks as u64) as usize]
    }

    /// [`LocalState::owned_module`], mutably.
    #[inline]
    pub fn owned_module_mut(&mut self, gid: u64) -> &mut OwnedModule {
        &mut self.owner[(gid / self.nranks as u64) as usize]
    }

    /// Local indices of the `subscribers` vertices.
    pub(crate) fn subscriber_indices(
        subscribers: &[(u32, Vec<usize>)],
        index: &HashMap<u32, u32>,
    ) -> Vec<u32> {
        subscribers.iter().map(|(v, _)| index[v]).collect()
    }

    // ------------------------------------------------------------------
    // Module-ID interning (slot ↔ global id)
    // ------------------------------------------------------------------

    /// Slot of global module id `gid`, interning it if unseen. The slot's
    /// stats start absent (`default()`), mirroring a missing hash-map key.
    #[inline]
    pub fn intern_module(&mut self, gid: u64) -> u32 {
        if let Some(&s) = self.module_slot.get(&gid) {
            return s;
        }
        let s = self.module_ids.len() as u32;
        self.module_ids.push(gid);
        self.module_slot.insert(gid, s);
        self.mod_flow.push(0.0);
        self.mod_exit.push(0.0);
        self.mod_members.push(0);
        self.module_present.push(false);
        self.last_contrib.push((0.0, 0.0, 0));
        self.last_contrib_active.push(false);
        self.slot_dirty.push(false);
        s
    }

    /// Global id of module slot `s`.
    #[inline]
    pub fn module_gid(&self, s: u32) -> u64 {
        self.module_ids[s as usize]
    }

    /// Global module id of local vertex `li`'s current module.
    #[inline]
    pub fn module_id_of(&self, li: usize) -> u64 {
        self.module_ids[self.module_of[li] as usize]
    }

    /// Number of interned module slots (present or not).
    #[inline]
    pub fn num_module_slots(&self) -> usize {
        self.module_ids.len()
    }

    /// Number of modules this rank currently has a view of (the size of
    /// the pre-interning `modules` hash map).
    pub fn num_known_modules(&self) -> usize {
        self.module_present.iter().filter(|&&p| p).count()
    }

    /// Number of live delta-sync contributions (the size of the
    /// pre-interning `last_contrib` hash map).
    pub fn num_active_contribs(&self) -> usize {
        self.last_contrib_active.iter().filter(|&&p| p).count()
    }

    /// Gather slot `s`'s stats into the AoS view the wire and checkpoint
    /// formats speak.
    #[inline]
    pub fn module_entry(&self, s: u32) -> ModuleEntry {
        let i = s as usize;
        ModuleEntry {
            flow: self.mod_flow[i],
            exit: self.mod_exit[i],
            members: self.mod_members[i],
        }
    }

    /// Scatter an AoS entry into slot `s`'s stat arrays.
    #[inline]
    pub fn set_module_entry(&mut self, s: u32, e: ModuleEntry) {
        let i = s as usize;
        self.mod_flow[i] = e.flow;
        self.mod_exit[i] = e.exit;
        self.mod_members[i] = e.members;
    }

    /// `modules.entry(gid).or_insert(e)` of the pre-interning table:
    /// intern, and set stats only if the module was absent. Returns the
    /// slot.
    #[inline]
    pub fn insert_module_if_absent(&mut self, gid: u64, e: ModuleEntry) -> u32 {
        let s = self.intern_module(gid);
        if !self.module_present[s as usize] {
            self.module_present[s as usize] = true;
            self.set_module_entry(s, e);
        }
        s
    }

    /// `modules.insert(gid, e)`: intern and overwrite. Returns the slot.
    #[inline]
    pub fn set_module(&mut self, gid: u64, e: ModuleEntry) -> u32 {
        let s = self.intern_module(gid);
        self.module_present[s as usize] = true;
        self.set_module_entry(s, e);
        s
    }

    /// `modules.remove(&gid)`: mark absent and restore the default stats
    /// (keeping the invariant that absent slots read as `default()`).
    pub fn remove_module(&mut self, gid: u64) {
        if let Some(&s) = self.module_slot.get(&gid) {
            self.remove_module_slot(s);
        }
    }

    /// [`LocalState::remove_module`] by slot.
    #[inline]
    pub fn remove_module_slot(&mut self, s: u32) {
        self.module_present[s as usize] = false;
        self.set_module_entry(s, ModuleEntry::default());
    }
}

/// Assemble a [`LocalState`] from the arcs a rank was assigned.
///
/// * `owned_filter(v)` — true for vertices this rank owns outright;
/// * `delegate_set` — vertices replicated everywhere (empty in stage 2);
/// * `full_flow(v)` — the full visit rate of an owned vertex;
/// * `subscribers` / `providers` — boundary topology (precomputed
///   globally for stage 1; derivable locally for 1D stage 2).
///
/// Public so the shard-mode prepare path (which reconstructs the same
/// inputs collectively from per-rank snapshot shards) can assemble a
/// bit-identical state without the monolithic [`Partition`].
#[allow(clippy::too_many_arguments)]
pub fn assemble(
    rank: usize,
    nranks: usize,
    arcs: &[Arc],
    delegate_set: &HashSet<u32>,
    owned: &[u32],
    full_flow: &dyn Fn(u32) -> f64,
    inv_two_w: f64,
    subscribers: Vec<(u32, Vec<usize>)>,
    providers: Vec<usize>,
) -> LocalState {
    // Collect local vertex set: owned, then delegates with local arcs,
    // then ghosts, in deterministic order.
    let mut verts: Vec<u32> = Vec::new();
    let mut index: HashMap<u32, u32> = HashMap::new();
    let push = |v: u32, verts: &mut Vec<u32>, index: &mut HashMap<u32, u32>| {
        index.entry(v).or_insert_with(|| {
            verts.push(v);
            (verts.len() - 1) as u32
        });
    };
    for &v in owned {
        push(v, &mut verts, &mut index);
    }
    let seen_delegates: Vec<u32> = arcs
        .iter()
        .flat_map(|a| [a.src, a.dst])
        .filter(|v| delegate_set.contains(v))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    for v in seen_delegates {
        push(v, &mut verts, &mut index);
    }
    let ghosts: Vec<u32> = arcs
        .iter()
        .flat_map(|a| [a.src, a.dst])
        .filter(|v| !index.contains_key(v))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    for v in ghosts {
        push(v, &mut verts, &mut index);
    }

    let n = verts.len();
    let kind: Vec<VertexKind> = verts
        .iter()
        .map(|v| {
            if delegate_set.contains(v) {
                VertexKind::DelegateCopy
            } else if owned.binary_search(v).is_ok() {
                VertexKind::Owned
            } else {
                VertexKind::Ghost
            }
        })
        .collect();

    // CSR over local sources.
    let mut deg = vec![0usize; n];
    for a in arcs {
        deg[index[&a.src] as usize] += 1;
    }
    let mut adj_off = Vec::with_capacity(n + 1);
    adj_off.push(0usize);
    for d in &deg {
        adj_off.push(adj_off.last().unwrap() + d);
    }
    let mut cursor = adj_off[..n].to_vec();
    let mut adj_tgt = vec![0u32; arcs.len()];
    let mut adj_w = vec![0.0; arcs.len()];
    for a in arcs {
        let s = index[&a.src] as usize;
        adj_tgt[cursor[s]] = index[&a.dst];
        adj_w[cursor[s]] = a.weight;
        cursor[s] += 1;
    }

    // Flows. Delegate copies carry their local share: Σ w/2W over local
    // non-self arcs + 2·w/2W for local self-arcs, so shares sum to the full
    // p_v across ranks.
    let mut node_flow = vec![0.0; n];
    let mut out_flow = vec![0.0; n];
    for (li, &v) in verts.iter().enumerate() {
        match kind[li] {
            VertexKind::Owned => {
                node_flow[li] = full_flow(v);
            }
            VertexKind::DelegateCopy | VertexKind::Ghost => {}
        }
    }
    for a in arcs {
        let s = index[&a.src] as usize;
        let f = a.weight * inv_two_w;
        if a.src == a.dst {
            if kind[s] == VertexKind::DelegateCopy {
                node_flow[s] += 2.0 * f;
            }
        } else {
            out_flow[s] += f;
            if kind[s] == VertexKind::DelegateCopy {
                node_flow[s] += f;
            }
        }
    }

    let movable: Vec<u32> = (0..n as u32)
        .filter(|&li| kind[li as usize] != VertexKind::Ghost)
        .collect();

    let send_targets: Vec<usize> = subscribers
        .iter()
        .flat_map(|(_, rs)| rs.iter().copied())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    // Singleton initialization: every vertex its own module, interned at
    // slot == local index. Stats here are local approximations; the first
    // owner reduction replaces them with exact values before any move
    // decision is made.
    let module_of: Vec<u32> = (0..n as u32).collect();
    let module_ids: Vec<u64> = verts.iter().map(|&v| v as u64).collect();
    let module_slot: HashMap<u64, u32> = module_ids
        .iter()
        .enumerate()
        .map(|(s, &gid)| (gid, s as u32))
        .collect();
    let mod_flow = node_flow.clone();
    let mod_exit = out_flow.clone();
    let mod_members = vec![1u32; n];
    let module_present = vec![true; n];
    let sum_exit = 0.0; // refreshed by the first sync round

    // One owner-table entry per `id / p`, up to the largest module id this
    // rank owns: an owned vertex's or a delegate's.
    let owner_len = (owned.iter().chain(delegate_set))
        .filter(|&&v| owner(v, nranks) == rank)
        .map(|&v| v as usize / nranks + 1)
        .max()
        .unwrap_or(0);
    let subscriber_li = LocalState::subscriber_indices(&subscribers, &index);

    LocalState {
        rank,
        nranks,
        verts,
        index,
        kind,
        adj_off,
        adj_tgt,
        adj_w,
        node_flow,
        out_flow,
        module_of,
        module_ids,
        module_slot,
        mod_flow,
        mod_exit,
        mod_members,
        module_present,
        owner: vec![OwnedModule::default(); owner_len],
        sum_exit,
        subscribers,
        subscriber_li,
        providers,
        send_targets,
        inv_two_w,
        movable,
        last_announced: vec![u64::MAX; n],
        last_contrib: vec![(0.0, 0.0, 0); n],
        last_contrib_active: vec![false; n],
        // Nothing has been reduced yet: every slot's contribution is new.
        dirty_slots: (0..n as u32).collect(),
        slot_dirty: vec![true; n],
        delegate_left: BTreeMap::new(),
        moved_at: vec![0; n],
        swept_at: vec![0; n],
    }
}

/// Build the per-rank states for stage 1 from a delegate partition of the
/// original graph. The boundary topology (who tracks whose ghosts) is
/// derived from the partition, mirroring the ghost discovery a real MPI
/// preprocessing step performs with an all-to-all of vertex ids.
pub fn build_stage1_states<G: GraphStore + ?Sized>(
    graph: &G,
    partition: &Partition,
) -> Vec<LocalState> {
    let p = partition.nranks;
    let inv_two_w = 1.0 / (2.0 * graph.total_weight());
    let delegate_set: HashSet<u32> = partition.delegates.iter().copied().collect();

    // presence[v] = ranks that observe v as a non-delegate vertex.
    let mut presence: HashMap<u32, HashSet<usize>> = HashMap::new();
    for (r, arcs) in partition.arcs.iter().enumerate() {
        for a in arcs {
            for v in [a.src, a.dst] {
                if !delegate_set.contains(&v) {
                    presence.entry(v).or_default().insert(r);
                }
            }
        }
    }

    (0..p)
        .map(|rank| {
            let owned = partition.owned_low_degree(rank);
            let mut subscribers: Vec<(u32, Vec<usize>)> = owned
                .iter()
                .filter_map(|&v| {
                    let subs: Vec<usize> = presence
                        .get(&v)
                        .map(|s| {
                            let mut subs: Vec<usize> =
                                s.iter().copied().filter(|&r| r != rank).collect();
                            subs.sort_unstable();
                            subs
                        })
                        .unwrap_or_default();
                    if subs.is_empty() {
                        None
                    } else {
                        Some((v, subs))
                    }
                })
                .collect();
            subscribers.sort_by_key(|(v, _)| *v);

            // Providers: owners of this rank's ghosts.
            let mut providers: BTreeSet<usize> = BTreeSet::new();
            for a in &partition.arcs[rank] {
                for v in [a.src, a.dst] {
                    if !delegate_set.contains(&v) && owner(v as VertexId, p) != rank {
                        providers.insert(owner(v as VertexId, p));
                    }
                }
            }
            let providers: Vec<usize> = providers.into_iter().collect();

            assemble(
                rank,
                p,
                &partition.arcs[rank],
                &delegate_set,
                &owned,
                &|v| graph.strength(v as VertexId) * inv_two_w,
                inv_two_w,
                subscribers,
                providers,
            )
        })
        .collect()
}

/// Build one rank's state for a 1D-partitioned (delegate-free) level: the
/// rank holds all arcs sourced at its owned vertices, and the boundary
/// topology is derived locally from arc targets (1D adjacency is
/// symmetric: if I see your vertex, you see mine).
pub fn build_1d_state(
    rank: usize,
    nranks: usize,
    arcs: Vec<Arc>,
    flows: &HashMap<u32, f64>,
    inv_two_w: f64,
) -> LocalState {
    let mut owned_set: BTreeSet<u32> = arcs
        .iter()
        .map(|a| a.src)
        .filter(|&v| owner(v, nranks) == rank)
        .collect();
    // Owned vertices with flow but no arcs (isolated modules) still exist.
    for (&v, _) in flows.iter() {
        if owner(v, nranks) == rank {
            owned_set.insert(v);
        }
    }
    let owned: Vec<u32> = owned_set.into_iter().collect();

    // Subscribers: for owned vertex v, every rank owning one of v's
    // neighbors holds v as a ghost.
    let mut neighbor_ranks: BTreeMap<u32, BTreeSet<usize>> = BTreeMap::new();
    let mut providers: BTreeSet<usize> = BTreeSet::new();
    for a in &arcs {
        let dst_owner = owner(a.dst, nranks);
        if dst_owner != rank {
            neighbor_ranks.entry(a.src).or_default().insert(dst_owner);
            providers.insert(dst_owner);
        }
    }
    let subscribers: Vec<(u32, Vec<usize>)> = neighbor_ranks
        .into_iter()
        .map(|(v, s)| (v, s.into_iter().collect()))
        .collect();
    let providers: Vec<usize> = providers.into_iter().collect();

    let empty = HashSet::new();
    assemble(
        rank,
        nranks,
        &arcs,
        &empty,
        &owned,
        &|v| flows.get(&v).copied().unwrap_or(0.0),
        inv_two_w,
        subscribers,
        providers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use infomap_graph::{generators, Graph};
    use infomap_partition::DelegateThreshold;

    fn states_for(p: usize) -> (Graph, Vec<LocalState>) {
        let degs = generators::power_law_degrees(200, 2.1, 2, 60, 3);
        let g = generators::chung_lu(&degs, 4);
        let part = Partition::delegate(&g, p, DelegateThreshold::Fixed(20), true);
        let states = build_stage1_states(&g, &part);
        (g, states)
    }

    #[test]
    fn delegate_flow_shares_sum_to_full_visit_rate() {
        let (g, states) = states_for(4);
        let inv_two_w = 1.0 / (2.0 * g.total_weight());
        // For every delegate, the sum of copy shares equals p_v.
        let mut shares: HashMap<u32, f64> = HashMap::new();
        for st in &states {
            for (li, &v) in st.verts.iter().enumerate() {
                if st.kind[li] == VertexKind::DelegateCopy {
                    *shares.entry(v).or_insert(0.0) += st.node_flow[li];
                }
            }
        }
        assert!(!shares.is_empty(), "test graph grew no delegates");
        for (v, share) in shares {
            let full = g.strength(v) * inv_two_w;
            assert!(
                (share - full).abs() < 1e-12,
                "vertex {v}: shares {share} vs p_v {full}"
            );
        }
    }

    #[test]
    fn owned_vertices_partition_across_ranks() {
        let (g, states) = states_for(4);
        let mut owned_count = 0usize;
        let mut delegate_ids: HashSet<u32> = HashSet::new();
        for st in &states {
            for (li, &v) in st.verts.iter().enumerate() {
                match st.kind[li] {
                    VertexKind::Owned => owned_count += 1,
                    VertexKind::DelegateCopy => {
                        delegate_ids.insert(v);
                    }
                    VertexKind::Ghost => {}
                }
            }
        }
        assert_eq!(owned_count + delegate_ids.len(), g.num_vertices());
    }

    #[test]
    fn subscriber_and_provider_topologies_agree() {
        let (_, states) = states_for(4);
        // If rank a lists rank b as a subscriber of some vertex, rank b
        // must list rank a as a provider.
        for st in &states {
            for (_, subs) in &st.subscribers {
                for &s in subs {
                    assert!(
                        states[s].providers.contains(&st.rank),
                        "rank {s} missing provider {}",
                        st.rank
                    );
                }
            }
        }
    }

    #[test]
    fn arcs_are_conserved() {
        let (g, states) = states_for(3);
        let total: usize = states.iter().map(|s| s.num_arcs()).sum();
        let expect: usize = (0..g.num_vertices() as u32).map(|u| g.degree(u)).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn one_d_state_derives_topology_locally() {
        let g = generators::erdos_renyi(40, 100, 5);
        let p = 3;
        let part = Partition::one_d(&g, p);
        let inv = 1.0 / (2.0 * g.total_weight());
        let flows: HashMap<u32, f64> = (0..40u32).map(|v| (v, g.strength(v) * inv)).collect();
        let states: Vec<LocalState> = (0..p)
            .map(|r| build_1d_state(r, p, part.arcs[r].clone(), &flows, inv))
            .collect();
        for st in &states {
            for (_, subs) in &st.subscribers {
                for &s in subs {
                    assert!(states[s].providers.contains(&st.rank));
                }
            }
        }
        let owned_total: usize = states
            .iter()
            .map(|s| s.kind.iter().filter(|&&k| k == VertexKind::Owned).count())
            .sum();
        assert_eq!(owned_total, 40);
    }
}
