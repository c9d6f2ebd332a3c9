//! Per-rank local state: the subgraph a rank owns after partitioning,
//! vertex roles (owned / delegate copy / ghost), flows, module assignments
//! and the rank's local view of module statistics.

use std::collections::{BTreeMap, HashMap};
use std::{mem, thread};

use infomap_graph::{GraphStore, VertexId};
use infomap_partition::{owner, Arc, Partition};

use crate::idhash::IdBuild;

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
    /// Global ids of local vertices: owned, then delegate copies, then
    /// ghosts (the order contract of [`assemble`]).
    pub verts: Vec<u32>,
    /// Global id → local index.
    pub index: HashMap<u32, u32, IdBuild>,
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
    pub module_slot: HashMap<u64, u32, IdBuild>,
    /// Local view of module visit flow, slot-indexed (SoA: the move kernel
    /// touches flow+exit of two slots per candidate, and separate arrays
    /// keep those reads dense — same layout core's `Partitioning` uses).
    /// Only meaningful for slots with `module_present`; absent slots hold
    /// zero, which is what a read of an unknown module must see. Wire and
    /// checkpoint formats still speak
    /// [`ModuleEntry`] via [`LocalState::module_entry`].
    pub mod_flow: Vec<f64>,
    /// Local view of module exit flow, slot-indexed (see `mod_flow`).
    pub mod_exit: Vec<f64>,
    /// Local view of module member counts, slot-indexed (see `mod_flow`).
    pub mod_members: Vec<u32>,
    /// Whether this rank currently has a view of the slot's module: set
    /// when a local move, a boundary info or a published total gives the
    /// slot statistics, cleared when its last local member leaves or the
    /// owner retires the module. Slots are never freed, so an interned id
    /// can be absent.
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

    /// The ghost run of `verts`: everything behind the movable vertices.
    pub fn ghosts(&self) -> &[u32] {
        &self.verts[self.movable.len()..]
    }

    /// Local indices of the `subscribers` vertices.
    pub(crate) fn subscriber_indices(
        subscribers: &[(u32, Vec<usize>)],
        index: &HashMap<u32, u32, IdBuild>,
    ) -> Vec<u32> {
        subscribers.iter().map(|(v, _)| index[v]).collect()
    }

    /// Install the send side of the boundary: `subscribers` (ascending by
    /// vertex, ranks ascending) and the two tables derived from it.
    pub fn set_subscribers(&mut self, subscribers: Vec<(u32, Vec<usize>)>) {
        self.subscriber_li = Self::subscriber_indices(&subscribers, &self.index);
        self.send_targets = (subscribers.iter().flat_map(|(_, rs)| rs.iter().copied())).collect();
        self.send_targets.sort_unstable();
        self.send_targets.dedup();
        self.subscribers = subscribers;
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

    /// Number of modules this rank currently has a view of: the slots with
    /// `module_present`, i.e. the `(slot, entry)` records a checkpoint
    /// delta writes.
    pub fn num_known_modules(&self) -> usize {
        self.module_present.iter().filter(|&&p| p).count()
    }

    /// Number of modules this rank has a contribution outstanding at the
    /// owner for: the slots with `last_contrib_active`.
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

    /// Intern `gid`, and set its stats only if the module was absent.
    /// Returns the slot.
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
/// * `delegates` — the vertices replicated everywhere, ascending (empty in
///   stage 2);
/// * `owned` — the vertices this rank owns outright, ascending and
///   disjoint from `delegates`;
/// * `full_flow(v)` — the full visit rate of an owned vertex.
///
/// **Order contract** (part of the trajectory: slot = local index, and the
/// sweep, the sync and the checkpoint all walk local indices): `verts` is
/// `owned` in its order, then the delegates the arcs touch ascending, then
/// every other arc endpoint — the ghosts — ascending; every CSR row holds
/// the arcs with that source in arc-list order. `providers` are the owners
/// of the ghosts. The send side of the boundary (`subscribers`) needs the
/// other ranks' ghost runs and is installed afterwards with
/// [`LocalState::set_subscribers`].
///
/// Public so the shard-mode prepare path (which reconstructs the same
/// inputs collectively from per-rank snapshot shards) can assemble a
/// bit-identical state without the monolithic [`Partition`].
pub fn assemble(
    rank: usize,
    nranks: usize,
    arcs: &[Arc],
    delegates: &[u32],
    owned: &[u32],
    full_flow: &dyn Fn(u32) -> f64,
    inv_two_w: f64,
) -> LocalState {
    let ascending = |ids: &[u32]| ids.windows(2).all(|w| w[0] < w[1]);
    assert!(ascending(owned) && ascending(delegates), "id lists ascend");
    // The three runs, by one merge walk of the sorted endpoints against
    // the two sorted id lists.
    let mut seen: Vec<u32> = arcs.iter().flat_map(|a| [a.src, a.dst]).collect();
    seen.sort_unstable();
    seen.dedup();
    let mut verts = owned.to_vec();
    let mut ghosts: Vec<u32> = Vec::new();
    let (mut oi, mut di) = (0, 0);
    for &v in &seen {
        while oi < owned.len() && owned[oi] < v {
            oi += 1;
        }
        while di < delegates.len() && delegates[di] < v {
            di += 1;
        }
        if delegates.get(di) == Some(&v) {
            debug_assert_ne!(owned.get(oi), Some(&v), "vertex {v} owned and replicated");
            verts.push(v);
        } else if owned.get(oi) != Some(&v) {
            ghosts.push(v);
        }
    }
    drop(seen);
    let ghost_from = verts.len();
    verts.append(&mut ghosts);
    let n = verts.len();
    let mut kind = vec![VertexKind::Owned; owned.len()];
    kind.resize(ghost_from, VertexKind::DelegateCopy);
    kind.resize(n, VertexKind::Ghost);
    let index: HashMap<u32, u32, IdBuild> = verts
        .iter()
        .enumerate()
        .map(|(li, &v)| (v, li as u32))
        .collect();

    // Every endpoint is translated here, once; degrees, the CSR fill and
    // the flows below read the local pairs.
    let ends: Vec<(u32, u32)> = arcs
        .iter()
        .map(|a| (index[&a.src], index[&a.dst]))
        .collect();
    let mut adj_off = vec![0usize; n + 1];
    for &(s, _) in &ends {
        adj_off[s as usize + 1] += 1;
    }
    for li in 0..n {
        adj_off[li + 1] += adj_off[li];
    }

    // CSR fill and flows, in arc-list order. Delegate copies carry their
    // local share: Σ w/2W over local non-self arcs + 2·w/2W for local
    // self-arcs, so shares sum to the full p_v across ranks.
    let mut node_flow: Vec<f64> = owned.iter().map(|&v| full_flow(v)).collect();
    node_flow.resize(n, 0.0);
    let mut out_flow = vec![0.0; n];
    let mut cursor = adj_off[..n].to_vec();
    let mut adj_tgt = vec![0u32; arcs.len()];
    let mut adj_w = vec![0.0; arcs.len()];
    for (a, &(s, t)) in arcs.iter().zip(&ends) {
        let s = s as usize;
        adj_tgt[cursor[s]] = t;
        adj_w[cursor[s]] = a.weight;
        cursor[s] += 1;
        let f = a.weight * inv_two_w;
        let share = kind[s] == VertexKind::DelegateCopy;
        if s as u32 == t {
            if share {
                node_flow[s] += 2.0 * f;
            }
        } else {
            out_flow[s] += f;
            if share {
                node_flow[s] += f;
            }
        }
    }

    let mut providers: Vec<usize> = verts[ghost_from..]
        .iter()
        .map(|&v| owner(v, nranks))
        .filter(|&r| r != rank)
        .collect();
    providers.sort_unstable();
    providers.dedup();

    // Singleton initialization: every vertex its own module, interned at
    // slot == local index. Stats here are local approximations; the first
    // owner reduction replaces them with exact values before any move
    // decision is made.
    let module_ids: Vec<u64> = verts.iter().map(|&v| v as u64).collect();
    let module_slot: HashMap<u64, u32, IdBuild> = module_ids
        .iter()
        .enumerate()
        .map(|(s, &gid)| (gid, s as u32))
        .collect();

    // One owner-table entry per `id / p`, up to the largest module id this
    // rank owns: an owned vertex's or a delegate's.
    let owner_len = (owned.iter().chain(delegates))
        .filter(|&&v| owner(v, nranks) == rank)
        .map(|&v| v as usize / nranks + 1)
        .max()
        .unwrap_or(0);

    LocalState {
        rank,
        nranks,
        verts,
        index,
        kind,
        adj_off,
        adj_tgt,
        adj_w,
        mod_flow: node_flow.clone(),
        mod_exit: out_flow.clone(),
        node_flow,
        out_flow,
        module_of: (0..n as u32).collect(),
        module_ids,
        module_slot,
        mod_members: vec![1u32; n],
        module_present: vec![true; n],
        owner: vec![OwnedModule::default(); owner_len],
        sum_exit: 0.0, // refreshed by the first sync round
        subscribers: Vec::new(),
        subscriber_li: Vec::new(),
        providers,
        send_targets: Vec::new(),
        inv_two_w,
        movable: (0..ghost_from as u32).collect(),
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

/// Subscriber lists from `(vertex, rank that holds it as a ghost)` pairs in
/// any order: one entry per vertex, ascending, its ranks ascending.
pub fn group_subscribers(mut pairs: Vec<(u32, usize)>) -> Vec<(u32, Vec<usize>)> {
    pairs.sort_unstable();
    pairs.dedup();
    let mut subscribers: Vec<(u32, Vec<usize>)> = Vec::new();
    for (v, r) in pairs {
        match subscribers.last_mut() {
            Some((last, ranks)) if *last == v => ranks.push(r),
            _ => subscribers.push((v, vec![r])),
        }
    }
    subscribers
}

/// Build the per-rank states for stage 1 from a delegate partition of the
/// original graph, on as many threads as the host has cores. The boundary
/// topology (who tracks whose ghosts) is read off the finished states'
/// ghost runs — the rule `RankProgram::prepare_shard` applies over its
/// all-to-all of vertex ids.
pub fn build_stage1_states<G: GraphStore + ?Sized>(
    graph: &G,
    partition: &Partition,
) -> Vec<LocalState> {
    let workers = thread::available_parallelism().map_or(1, |n| n.get());
    build_states_on(graph, partition, workers)
}

/// [`build_stage1_states`] on at most `workers` threads; the states do not
/// depend on the count.
fn build_states_on<G: GraphStore + ?Sized>(
    graph: &G,
    partition: &Partition,
    workers: usize,
) -> Vec<LocalState> {
    let p = partition.nranks;
    let inv_two_w = 1.0 / (2.0 * graph.total_weight());
    let flows: Vec<f64> = (0..graph.num_vertices() as VertexId)
        .map(|v| graph.strength(v) * inv_two_w)
        .collect();
    let build = |rank: usize| {
        assemble(
            rank,
            p,
            &partition.arcs[rank],
            &partition.delegates,
            &partition.owned_low_degree(rank),
            &|v| flows[v as usize],
            inv_two_w,
        )
    };
    // Contiguous rank blocks, joined in rank order.
    let per = p.div_ceil(workers.clamp(1, p));
    let mut states: Vec<LocalState> = thread::scope(|scope| {
        let blocks: Vec<_> = (0..p)
            .step_by(per)
            .map(|from| scope.spawn(move || (from..p.min(from + per)).map(build).collect()))
            .collect();
        blocks
            .into_iter()
            .flat_map(|b| -> Vec<LocalState> { b.join().expect("state builder panicked") })
            .collect()
    });

    let mut seen_by: Vec<Vec<(u32, usize)>> = vec![Vec::new(); p];
    for st in &states {
        for &v in st.ghosts() {
            seen_by[owner(v, p)].push((v, st.rank));
        }
    }
    for (st, pairs) in states.iter_mut().zip(seen_by) {
        st.set_subscribers(group_subscribers(pairs));
    }
    states
}

/// Build one rank's state for a 1D-partitioned (delegate-free) level: the
/// rank holds all arcs sourced at its owned vertices, `flows` carries the
/// visit rate of every level vertex it owns (ascending by vertex), and the
/// boundary topology is derived locally from arc targets (1D adjacency is
/// symmetric: if I see your vertex, you see mine).
pub fn build_1d_state(
    rank: usize,
    nranks: usize,
    arcs: &[Arc],
    flows: &[(u32, f64)],
    inv_two_w: f64,
) -> LocalState {
    // Owned vertices with flow but no arcs (isolated modules) still exist.
    let mut owned: Vec<u32> = (arcs.iter().map(|a| a.src))
        .chain(flows.iter().map(|f| f.0))
        .filter(|&v| owner(v, nranks) == rank)
        .collect();
    owned.sort_unstable();
    owned.dedup();
    // For owned vertex v, every rank owning one of v's neighbors holds v
    // as a ghost.
    let seen_by: Vec<(u32, usize)> = arcs
        .iter()
        .map(|a| (a.src, owner(a.dst, nranks)))
        .filter(|&(_, r)| r != rank)
        .collect();
    let flow_of = |v: u32| {
        let at = flows.binary_search_by_key(&v, |f| f.0);
        at.map_or(0.0, |i| flows[i].1)
    };
    let mut st = assemble(rank, nranks, arcs, &[], &owned, &flow_of, inv_two_w);
    st.set_subscribers(group_subscribers(seen_by));
    st
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use infomap_graph::datasets::DatasetId;
    use infomap_graph::{generators, Graph};
    use infomap_partition::DelegateThreshold;
    use rand::{rngs::StdRng, RngCore, SeedableRng};
    use std::collections::HashSet;

    /// FNV-1a over every field of the state, field by field in declaration
    /// order; floats by their bits, the two id maps read back in the order
    /// of the vectors they invert.
    pub(crate) fn fingerprint(st: &LocalState) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn word(&mut self, x: u64) {
                for b in x.to_le_bytes() {
                    self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            fn words(&mut self, xs: impl ExactSizeIterator<Item = u64>) {
                self.word(xs.len() as u64);
                xs.for_each(|x| self.word(x));
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.word(st.rank as u64);
        h.word(st.nranks as u64);
        h.words(st.verts.iter().map(|&v| v as u64));
        h.words(st.verts.iter().map(|v| st.index[v] as u64));
        h.word(st.index.len() as u64);
        h.words(st.kind.iter().map(|&k| k as u64));
        h.words(st.adj_off.iter().map(|&o| o as u64));
        h.words(st.adj_tgt.iter().map(|&t| t as u64));
        h.words(st.adj_w.iter().map(|w| w.to_bits()));
        h.words(st.node_flow.iter().map(|f| f.to_bits()));
        h.words(st.out_flow.iter().map(|f| f.to_bits()));
        h.words(st.module_of.iter().map(|&m| m as u64));
        h.words(st.module_ids.iter().copied());
        h.words(st.module_ids.iter().map(|m| st.module_slot[m] as u64));
        h.word(st.module_slot.len() as u64);
        h.words(st.mod_flow.iter().map(|f| f.to_bits()));
        h.words(st.mod_exit.iter().map(|f| f.to_bits()));
        h.words(st.mod_members.iter().map(|&m| m as u64));
        h.words(st.module_present.iter().map(|&b| b as u64));
        h.word(st.owner.len() as u64);
        for m in &st.owner {
            h.word(m.present as u64);
            h.word(m.totals.flow.to_bits());
            h.word(m.totals.exit.to_bits());
            h.word(m.totals.members as u64);
            h.word(m.sources.len() as u64);
            for &(r, (flow, exit, members)) in &m.sources {
                h.words([r as u64, flow.to_bits(), exit.to_bits(), members as u64].into_iter());
            }
        }
        h.word(st.sum_exit.to_bits());
        h.word(st.subscribers.len() as u64);
        for (v, ranks) in &st.subscribers {
            h.word(*v as u64);
            h.words(ranks.iter().map(|&r| r as u64));
        }
        h.words(st.subscriber_li.iter().map(|&li| li as u64));
        h.words(st.providers.iter().map(|&r| r as u64));
        h.words(st.send_targets.iter().map(|&r| r as u64));
        h.word(st.inv_two_w.to_bits());
        h.words(st.movable.iter().map(|&li| li as u64));
        h.words(st.last_announced.iter().copied());
        h.word(st.last_contrib.len() as u64);
        for &(flow, exit, members) in &st.last_contrib {
            h.words([flow.to_bits(), exit.to_bits(), members as u64].into_iter());
        }
        h.words(st.last_contrib_active.iter().map(|&b| b as u64));
        h.words(st.dirty_slots.iter().map(|&s| s as u64));
        h.words(st.slot_dirty.iter().map(|&b| b as u64));
        h.word(st.delegate_left.len() as u64);
        for (&d, &(module, gain)) in &st.delegate_left {
            h.words([d as u64, module, gain.to_bits()].into_iter());
        }
        h.words(st.moved_at.iter().map(|&t| t as u64));
        h.words(st.swept_at.iter().map(|&t| t as u64));
        h.0
    }

    /// FNV-1a over whole words, e.g. the per-rank fingerprints in rank order.
    pub(crate) fn fold_words(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The fingerprints committed with these tests were recorded at the
    /// parent of PR 23 under the container's `StdRng` (the SplitMix64
    /// stand-in of `e2e/stubs/`, which the generators draw from); under
    /// another `rand` the graphs differ and only the comparison against
    /// the recording is skipped.
    pub(crate) fn recorded_rng() -> bool {
        let recorded = StdRng::seed_from_u64(0).next_u64() == 0xE220_A839_7B1D_CDAF;
        if !recorded {
            eprintln!("StdRng is not the recording's: fingerprint comparison skipped");
        }
        recorded
    }

    /// LFR n = 600 (no hubs) and the UK-2007 stand-in (hubs → delegates).
    pub(crate) fn construction_graphs() -> [(&'static str, Graph); 2] {
        let (lfr, _) = generators::lfr_like(
            generators::LfrParams {
                n: 600,
                mu: 0.25,
                ..Default::default()
            },
            3,
        );
        let (hub, _) = DatasetId::Uk2007.profile().generate_scaled(0.02, 7);
        [("lfr600", lfr), ("uk2007", hub)]
    }

    /// The written-down order contract of [`assemble`] and
    /// [`LocalState::set_subscribers`], checked against the partition.
    fn assert_order_contract(st: &LocalState, part: &Partition) {
        let (rank, p) = (st.rank, st.nranks);
        let owned = part.owned_low_degree(rank);
        let arcs = &part.arcs[rank];
        let endpoints: HashSet<u32> = arcs.iter().flat_map(|a| [a.src, a.dst]).collect();
        let mut local_delegates: Vec<u32> = (part.delegates.iter().copied())
            .filter(|d| endpoints.contains(d))
            .collect();
        local_delegates.sort_unstable();
        let mut ghosts: Vec<u32> = (endpoints.iter().copied())
            .filter(|&v| !part.is_delegate[v as usize] && owner(v, p) != rank)
            .collect();
        ghosts.sort_unstable();
        let want: Vec<u32> = [&owned[..], &local_delegates, &ghosts].concat();
        assert_eq!(st.verts, want, "rank {rank}: owned | delegates | ghosts");
        assert_eq!(st.ghosts(), &ghosts[..]);
        let n = st.verts.len();
        for (li, &v) in st.verts.iter().enumerate() {
            assert_eq!(st.index[&v], li as u32);
            let kind = if li < owned.len() {
                VertexKind::Owned
            } else if li < owned.len() + local_delegates.len() {
                VertexKind::DelegateCopy
            } else {
                VertexKind::Ghost
            };
            assert_eq!(st.kind[li], kind, "rank {rank} vertex {v}");
            assert_eq!((st.module_of[li], st.module_ids[li]), (li as u32, v as u64));
            // The row is the rank's arcs with this source, in list order.
            let row: Vec<(u32, u64)> = (arcs.iter().filter(|a| a.src == v))
                .map(|a| (a.dst, a.weight.to_bits()))
                .collect();
            let got: Vec<(u32, u64)> = (st.arcs_of(li as u32))
                .map(|(t, w)| (st.verts[t as usize], w.to_bits()))
                .collect();
            assert_eq!(got, row, "rank {rank} row of {v}");
        }
        assert_eq!((st.index.len(), st.module_slot.len()), (n, n));
        let movable: Vec<u32> = (0..(n - ghosts.len()) as u32).collect();
        assert_eq!(st.movable, movable);
        let mut providers: Vec<usize> = ghosts.iter().map(|&v| owner(v, p)).collect();
        providers.sort_unstable();
        providers.dedup();
        assert_eq!(st.providers, providers);
        assert!(st.subscribers.windows(2).all(|w| w[0].0 < w[1].0));
        for ((v, ranks), &li) in st.subscribers.iter().zip(&st.subscriber_li) {
            assert!(ranks.windows(2).all(|w| w[0] < w[1]) && !ranks.is_empty());
            assert_eq!(st.verts[li as usize], *v);
            assert_eq!(st.kind[li as usize], VertexKind::Owned);
        }
    }

    #[test]
    fn stage1_states_keep_the_order_contract_on_any_thread_count() {
        // (graph, p) → FNV over the p states' fingerprints, recorded at
        // the parent commit.
        const RECORDED: [[u64; 5]; 2] = [
            [
                0x36a59b7e1896c646,
                0x473c1b289f8fe3b7,
                0x79668668d98451be,
                0x774a0810c5e7ffb5,
                0xa5f23840b38273c7,
            ],
            [
                0x64c276e0ee507021,
                0x46dae23dd8e45de8,
                0x89a72287ed09ec0d,
                0x76d61ab1d29b245c,
                0x0aefdf27710ec5a3,
            ],
        ];
        let check = recorded_rng();
        for (gi, (name, g)) in construction_graphs().iter().enumerate() {
            for (pi, p) in [1usize, 2, 3, 4, 7].into_iter().enumerate() {
                let part = Partition::delegate(g, p, DelegateThreshold::Auto(4.0), true);
                let states = build_states_on(g, &part, 1);
                assert!(states == build_states_on(g, &part, 4), "{name} p={p}");
                assert!(states == build_stage1_states(g, &part), "{name} p={p}");
                for st in &states {
                    assert_order_contract(st, &part);
                    // Mirrored: whoever I send to expects me, and I expect
                    // exactly the owners that send to me.
                    for (v, ranks) in &st.subscribers {
                        for &r in ranks {
                            assert!(states[r].ghosts().binary_search(v).is_ok());
                            assert!(states[r].providers.contains(&st.rank));
                        }
                    }
                    for &v in st.ghosts() {
                        let subs = &states[owner(v, p)].subscribers;
                        let at = subs.binary_search_by_key(&v, |s| s.0).unwrap();
                        assert!(subs[at].1.contains(&st.rank), "{name} p={p} ghost {v}");
                    }
                }
                if name == &"uk2007" {
                    assert!(!part.delegates.is_empty(), "the stand-in grew no hubs");
                }
                let all = fold_words(states.iter().map(fingerprint));
                if check {
                    assert_eq!(all, RECORDED[gi][pi], "{name} p={p}: {all:#018x}");
                }
            }
        }
    }

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
        let flows: Vec<(u32, f64)> = (0..40u32).map(|v| (v, g.strength(v) * inv)).collect();
        let states: Vec<LocalState> = (0..p)
            .map(|r| build_1d_state(r, p, &part.arcs[r], &flows, inv))
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
