//! Per-rank local state: the subgraph a rank owns after partitioning,
//! vertex roles (owned / delegate copy / ghost), flows, module assignments
//! and the rank's local view of module statistics.

use std::collections::{BTreeMap, HashMap};
use std::mem;

use infomap_core::{push_slot, slot_capacity};
use infomap_graph::GraphStore;
use infomap_mpisim::World;
use infomap_partition::{owner, Arc, ArcRows, Partition};

use crate::driver::stage1_state;
use crate::idhash::IdBuild;

/// Role of a vertex within one rank's subgraph: which of the three runs of
/// [`LocalState::verts`] its local index falls in ([`LocalState::kind`]).
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
    /// The ranks that touch the module, ascending: its subscriber list. A
    /// rank is listed exactly while it has a local vertex in the module.
    /// What each contributes is kept by the rank itself, which ships
    /// changes to it ([`LocalState::last_contrib`]).
    pub sources: Vec<u32>,
}

/// The send side of the boundary as one CSR: every owned vertex that other
/// ranks hold as a ghost, with those ranks and the module last announced
/// to them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Subscribers {
    /// Local index of each subscribed vertex, ascending — ascending by
    /// vertex id too, since the owned run ascends.
    pub li: Vec<u32>,
    /// `ranks[off[i]..off[i + 1]]` hold entry `i` as a ghost.
    pub off: Vec<u32>,
    /// The subscribing ranks of every entry, each entry's ascending.
    pub ranks: Vec<u32>,
    /// Module last announced for each entry ([`NEVER_ANNOUNCED`] before
    /// the first); only entries whose assignment changed are re-sent
    /// (ghost views stay exact because an update is emitted precisely when
    /// the owner's assignment moves).
    pub last_announced: Vec<u32>,
}

/// [`Subscribers::last_announced`] of an entry never announced. Module ids
/// are vertex ids, and a graph has at most `u32::MAX` vertices, so no
/// module carries it.
pub const NEVER_ANNOUNCED: u32 = u32::MAX;

impl Subscribers {
    /// The ranks that hold entry `i` as a ghost, ascending.
    #[inline]
    pub fn ranks_of(&self, i: usize) -> &[u32] {
        &self.ranks[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// A module id that arrived off the wire (`u64` there), as the `u32` a
/// rank stores. Module ids are level vertex ids, which are `u32`.
#[inline]
pub(crate) fn module_u32(gid: u64) -> u32 {
    u32::try_from(gid).unwrap_or_else(|_| panic!("module id {gid} is not a u32 vertex id"))
}

/// The complete local state of one rank for one clustering stage.
///
/// Layout: local vertices are three ascending runs of `verts` — owned
/// `..delegates_from`, delegate copies `delegates_from..ghosts_from`,
/// ghosts `ghosts_from..` — which stand in for a per-vertex role array and
/// a global → local hash ([`LocalState::kind`], [`LocalState::local_of`]).
/// Arrays only the sweep and the reduction read per moving vertex
/// (`node_flow`, `out_flow`, `swept_at`) cover the movable vertices
/// `..ghosts_from` only. Module ids are `u32` inside a rank and `u64` only
/// on the wire ([`LocalState::module_gid`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LocalState {
    pub rank: usize,
    pub nranks: usize,
    /// Global ids of local vertices: owned, then delegate copies, then
    /// ghosts, each run ascending (the order contract of [`assemble`]).
    pub verts: Vec<u32>,
    /// Start of the delegate-copy run of `verts` (= number of owned
    /// vertices).
    pub delegates_from: u32,
    /// Start of the ghost run of `verts` (= number of movable vertices:
    /// owned and delegate copies, local indices `..ghosts_from`).
    pub ghosts_from: u32,
    /// CSR over local vertices; targets are local indices. Ghosts have
    /// empty rows.
    pub adj_off: Vec<u32>,
    pub adj_tgt: Vec<u32>,
    pub adj_w: Vec<f64>,
    /// Visit-rate share of each movable vertex (owned: full `p_v`;
    /// delegate copy: local share). Ghosts have none.
    pub node_flow: Vec<f64>,
    /// Flow-normalized non-self arc flow out of each movable vertex, over
    /// the arcs stored here (a ghost stores no arc).
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
    pub module_ids: Vec<u32>,
    /// Global module id → slot (consulted only when global ids arrive off
    /// the wire or leave for it).
    pub module_slot: HashMap<u32, u32, IdBuild>,
    /// Local view of module visit flow, slot-indexed (SoA: the move kernel
    /// touches flow+exit of two slots per candidate, and separate arrays
    /// keep those reads dense — same layout core's `Partitioning` uses).
    /// A slot interned but not yet published, retracted, or whose module
    /// the owner retired holds zero: what a read of an unknown module must
    /// see. Slots are never freed. The wire
    /// format still speaks [`ModuleEntry`] via [`LocalState::module_entry`].
    pub mod_flow: Vec<f64>,
    /// Local view of module exit flow, slot-indexed (see `mod_flow`).
    pub mod_exit: Vec<f64>,
    /// Local view of module member counts, slot-indexed (see `mod_flow`).
    pub mod_members: Vec<u32>,
    /// The modules this rank owns, indexed by `modID / p`. Module ids are
    /// the level's vertex ids, so [`assemble`] sizes it once for the
    /// largest id with `id mod p == rank` among the rank's owned vertices
    /// and the delegates; it never grows.
    pub owner: Vec<OwnedModule>,
    /// Local estimate of the total exit flow q (refreshed every sync).
    pub sum_exit: f64,
    /// Owned vertices that are ghosts on other ranks, with the ranks that
    /// track them and what they were last told.
    pub subscribers: Subscribers,
    /// Ranks that will send boundary updates to this rank each round.
    pub providers: Vec<usize>,
    /// Distinct ranks in `subscribers` (send targets each round).
    pub send_targets: Vec<usize>,
    /// `1 / 2W` of the original level-0 graph.
    pub inv_two_w: f64,
    /// Contribution last shipped to each module's owner, slot-indexed:
    /// what the owner's totals hold for this rank. Only changes travel, as
    /// deltas from it. Entries are live only where `last_contrib_active`
    /// is set.
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
    /// Active-set mark: `round + 1` of this movable vertex's last
    /// *unrestricted* evaluation (0 = none yet). The sweep skips an owned
    /// vertex unless it or a neighbor has `moved_at >= swept_at`, so two
    /// all-zero arrays start every stage "all active".
    pub swept_at: Vec<u32>,
}

/// The local index of `v` in one ascending run `lo..hi` of `verts`.
#[inline]
fn find_in_run(verts: &[u32], lo: u32, hi: u32, v: u32) -> Option<u32> {
    let run = &verts[lo as usize..hi as usize];
    run.binary_search(&v).ok().map(|i| lo + i as u32)
}

impl LocalState {
    /// Number of local arcs — the paper's per-rank workload measure.
    pub fn num_arcs(&self) -> usize {
        self.adj_tgt.len()
    }

    /// Local index of global vertex `v`, or `None` if the rank holds no
    /// copy of it: a binary search over each of the three runs.
    pub fn local_of(&self, v: u32) -> Option<u32> {
        find_in_run(&self.verts, 0, self.delegates_from, v)
            .or_else(|| self.delegate_copy_of(v))
            .or_else(|| self.ghost_of(v))
    }

    /// Local index of `v` if it is one of this rank's ghosts.
    #[inline]
    pub(crate) fn ghost_of(&self, v: u32) -> Option<u32> {
        find_in_run(&self.verts, self.ghosts_from, self.verts.len() as u32, v)
    }

    /// Local index of `v` if this rank holds a copy of delegate `v`.
    #[inline]
    pub(crate) fn delegate_copy_of(&self, v: u32) -> Option<u32> {
        find_in_run(&self.verts, self.delegates_from, self.ghosts_from, v)
    }

    /// The movable local indices: owned vertices, then delegate copies.
    #[inline]
    pub fn movable(&self) -> std::ops::Range<u32> {
        0..self.ghosts_from
    }

    /// Role of local vertex `li`: which run of `verts` it is in.
    #[inline]
    pub fn kind(&self, li: u32) -> VertexKind {
        if li < self.delegates_from {
            VertexKind::Owned
        } else if li < self.ghosts_from {
            VertexKind::DelegateCopy
        } else {
            VertexKind::Ghost
        }
    }

    /// The CSR row of local vertex `li`: its range of `adj_tgt` / `adj_w`.
    #[inline]
    pub(crate) fn row(&self, li: u32) -> std::ops::Range<usize> {
        self.adj_off[li as usize] as usize..self.adj_off[li as usize + 1] as usize
    }

    /// Arcs of local vertex `li` as `(local target, weight)`.
    pub fn arcs_of(&self, li: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let r = self.row(li);
        self.adj_tgt[r.clone()]
            .iter()
            .copied()
            .zip(self.adj_w[r].iter().copied())
    }

    /// Is local vertex `li` a delegate copy?
    #[inline]
    pub fn is_delegate(&self, li: u32) -> bool {
        (self.delegates_from..self.ghosts_from).contains(&li)
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
            || self.adj_tgt[self.row(li)]
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
    pub fn owned_module(&self, gid: u32) -> &OwnedModule {
        &self.owner[gid as usize / self.nranks]
    }

    /// [`LocalState::owned_module`], mutably.
    #[inline]
    pub fn owned_module_mut(&mut self, gid: u32) -> &mut OwnedModule {
        &mut self.owner[gid as usize / self.nranks]
    }

    /// The ghost run of `verts`: everything behind the movable vertices.
    pub fn ghosts(&self) -> &[u32] {
        &self.verts[self.ghosts_from as usize..]
    }

    /// Install the send side of the boundary from `(vertex, rank that
    /// holds it as a ghost)` pairs in any order: one [`Subscribers`] entry
    /// per owned vertex, ascending, its ranks ascending, and the send
    /// targets derived from it.
    pub fn set_subscribers(&mut self, mut pairs: Vec<(u32, usize)>) {
        pairs.sort_unstable();
        pairs.dedup();
        let entries = pairs.chunk_by(|a, b| a.0 == b.0).count();
        let mut subs = Subscribers {
            li: Vec::with_capacity(entries),
            off: Vec::with_capacity(entries + 1),
            ranks: Vec::with_capacity(pairs.len()),
            last_announced: vec![NEVER_ANNOUNCED; entries],
        };
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            let v = run[0].0;
            let li = find_in_run(&self.verts, 0, self.delegates_from, v).unwrap_or_else(|| {
                panic!(
                    "rank {}: subscribed vertex {v} is not owned here",
                    self.rank
                )
            });
            subs.li.push(li);
            subs.off.push(subs.ranks.len() as u32);
            subs.ranks.extend(run.iter().map(|&(_, r)| r as u32));
        }
        subs.off.push(subs.ranks.len() as u32);
        let mut targets: Vec<usize> = pairs.iter().map(|&(_, r)| r).collect();
        targets.sort_unstable();
        targets.dedup();
        targets.shrink_to_fit();
        self.send_targets = targets;
        self.subscribers = subs;
    }

    // ------------------------------------------------------------------
    // Module-ID interning (slot ↔ global id)
    // ------------------------------------------------------------------

    /// Slot of global module id `gid` (a wire id), interning it if unseen.
    /// The slot's stats start at `default()`, mirroring a missing hash-map
    /// key. The slot arrays grow together, by an eighth ([`push_slot`]),
    /// not by doubling: a stage interns a few percent more slots than it
    /// starts with.
    #[inline]
    pub fn intern_module(&mut self, gid: u64) -> u32 {
        let gid = module_u32(gid);
        if let Some(&s) = self.module_slot.get(&gid) {
            return s;
        }
        let s = self.module_ids.len() as u32;
        self.module_slot.insert(gid, s);
        push_slot(&mut self.module_ids, gid);
        push_slot(&mut self.mod_flow, 0.0);
        push_slot(&mut self.mod_exit, 0.0);
        push_slot(&mut self.mod_members, 0);
        push_slot(&mut self.last_contrib, (0.0, 0.0, 0));
        push_slot(&mut self.last_contrib_active, false);
        push_slot(&mut self.slot_dirty, false);
        s
    }

    /// Global id of module slot `s`, as the wire speaks it.
    #[inline]
    pub fn module_gid(&self, s: u32) -> u64 {
        self.module_ids[s as usize] as u64
    }

    /// Global module id of local vertex `li`'s current module, as the wire
    /// speaks it.
    #[inline]
    pub fn module_id_of(&self, li: usize) -> u64 {
        self.module_ids[self.module_of[li] as usize] as u64
    }

    /// Number of interned module slots (present or not).
    #[inline]
    pub fn num_module_slots(&self) -> usize {
        self.module_ids.len()
    }

    /// Gather slot `s`'s stats into the AoS view the wire format speaks.
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

    /// `modules.insert(gid, e)`: intern and overwrite. Returns the slot.
    #[inline]
    pub fn set_module(&mut self, gid: u64, e: ModuleEntry) -> u32 {
        let s = self.intern_module(gid);
        self.set_module_entry(s, e);
        s
    }

    /// `modules.remove(&gid)`: restore the default stats, which is what a
    /// module this rank has no view of reads as.
    pub fn remove_module(&mut self, gid: u64) {
        if let Some(&s) = self.module_slot.get(&module_u32(gid)) {
            self.remove_module_slot(s);
        }
    }

    /// [`LocalState::remove_module`] by slot.
    #[inline]
    pub fn remove_module_slot(&mut self, s: u32) {
        self.set_module_entry(s, ModuleEntry::default());
    }
}

/// One of the seven slot-indexed arrays of `n` slots: `head`, then `fill`
/// up to `n`, at [`push_slot`]'s capacity ([`slot_capacity`]), so a stage
/// that interns under an eighth more modules never reallocates it and
/// leaves no old copy behind.
fn slot_array<T: Clone>(head: &[T], n: usize, fill: T) -> Vec<T> {
    let mut v = Vec::with_capacity(slot_capacity(n));
    v.extend_from_slice(head);
    v.resize(n, fill);
    v
}

/// Assemble a [`LocalState`] from the rows a rank was assigned.
///
/// * `rows` — the rank's arcs as rows ([`ArcRows`]): its owned vertices
///   ascending, then the delegates the arcs touch ascending (a delegate
///   row may be empty when the delegate is only a target here), targets
///   global;
/// * `ghosts` — every other target, ascending;
/// * `delegates` — the vertices replicated everywhere, ascending (empty in
///   stage 2);
/// * `full_flow(v)` — the full visit rate of an owned vertex.
///
/// **Order contract** (part of the trajectory: slot = local index, and the
/// sweep, the sync and the checkpoint all walk local indices): `verts` is
/// the row sources in row order, then the ghosts; the rows *are* the CSR,
/// each in its order, with ghosts' rows empty and targets renumbered to
/// local indices in place. `providers` are the owners of the ghosts. The
/// send side of the boundary (`subscribers`) needs the other ranks' ghost
/// runs and is installed afterwards with [`LocalState::set_subscribers`].
pub fn assemble(
    rank: usize,
    nranks: usize,
    rows: ArcRows,
    ghosts: Vec<u32>,
    delegates: &[u32],
    full_flow: &dyn Fn(u32) -> f64,
    inv_two_w: f64,
) -> LocalState {
    let ascending = |ids: &[u32]| ids.windows(2).all(|w| w[0] < w[1]);
    let ArcRows {
        src: mut verts,
        delegates_from,
        off: mut adj_off,
        tgt: mut adj_tgt,
        w: adj_w,
    } = rows;
    let (owned, touched) = verts.split_at(delegates_from);
    assert!(
        [owned, touched, delegates, &ghosts]
            .iter()
            .all(|ids| ascending(ids)),
        "id lists ascend"
    );
    // The row sources may keep room for delegate rows that were dropped.
    let ghosts_from = verts.len();
    verts.reserve_exact(ghosts.len());
    verts.extend(ghosts);
    verts.shrink_to_fit();
    let n = verts.len();
    assert!(
        n < u32::MAX as usize,
        "rank {rank}: {n} vertices: past u32 indices"
    );
    let (dfrom, gfrom) = (delegates_from as u32, ghosts_from as u32);

    // Singleton initialization: every vertex its own module, interned at
    // slot == local index, so while the state is built the module id →
    // slot table is also the global → local index. The renumbering below
    // translates every target through it.
    let module_ids = slot_array(&verts, n, 0);
    let module_slot: HashMap<u32, u32, IdBuild> = module_ids
        .iter()
        .enumerate()
        .map(|(s, &gid)| (gid, s as u32))
        .collect();
    // Ghosts' rows are empty.
    adj_off.reserve_exact(n + 1 - adj_off.len());
    adj_off.resize(n + 1, adj_tgt.len() as u32);
    adj_off.shrink_to_fit();

    // Targets to local indices, and flows, row by row. Delegate copies
    // carry their local share: Σ w/2W over local non-self arcs + 2·w/2W
    // for local self-arcs, so shares sum to the full p_v across ranks.
    let mut node_flow: Vec<f64> = Vec::with_capacity(ghosts_from);
    node_flow.extend(verts[..delegates_from].iter().map(|&v| full_flow(v)));
    node_flow.resize(ghosts_from, 0.0);
    let mut out_flow = vec![0.0; ghosts_from];
    for s in 0..ghosts_from {
        let share = s >= delegates_from;
        let row = adj_off[s] as usize..adj_off[s + 1] as usize;
        for (t, &w) in adj_tgt[row.clone()].iter_mut().zip(&adj_w[row]) {
            *t = module_slot[t];
            let f = w * inv_two_w;
            if s as u32 == *t {
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
    }

    let mut providers: Vec<usize> = verts[ghosts_from..]
        .iter()
        .map(|&v| owner(v, nranks))
        .filter(|&r| r != rank)
        .collect();
    providers.sort_unstable();
    providers.dedup();
    providers.shrink_to_fit();

    // The singletons' stats are local approximations; the first owner
    // reduction replaces them with exact values before any move decision
    // is made. A ghost's slot starts at zero.
    // One owner-table entry per `id / p`, up to the largest module id this
    // rank owns: an owned vertex's or a delegate's.
    let owner_len = (verts[..delegates_from].iter().chain(delegates))
        .filter(|&&v| owner(v, nranks) == rank)
        .map(|&v| v as usize / nranks + 1)
        .max()
        .unwrap_or(0);

    LocalState {
        rank,
        nranks,
        verts,
        delegates_from: dfrom,
        ghosts_from: gfrom,
        adj_off,
        adj_tgt,
        adj_w,
        mod_flow: slot_array(&node_flow, n, 0.0),
        mod_exit: slot_array(&out_flow, n, 0.0),
        node_flow,
        out_flow,
        module_of: (0..n as u32).collect(),
        module_ids,
        module_slot,
        mod_members: slot_array(&[], n, 1u32),
        owner: vec![OwnedModule::default(); owner_len],
        sum_exit: 0.0, // refreshed by the first sync round
        subscribers: Subscribers::default(),
        providers,
        send_targets: Vec::new(),
        inv_two_w,
        last_contrib: slot_array(&[], n, (0.0, 0.0, 0)),
        last_contrib_active: slot_array(&[], n, false),
        // Nothing has been reduced yet: every slot's contribution is new.
        dirty_slots: (0..n as u32).collect(),
        slot_dirty: slot_array(&[], n, true),
        delegate_left: BTreeMap::new(),
        moved_at: vec![0; n],
        swept_at: vec![0; ghosts_from],
    }
}

/// The per-rank states for stage 1 from a delegate partition of the
/// original graph: `partition.arcs[rank]` laid out as rows
/// ([`ArcRows::from_arcs`]), then the state half of the collective prepare
/// (`driver::stage1_state`), on every rank of an in-memory world.
pub fn build_stage1_states<G: GraphStore + Sync + ?Sized>(
    graph: &G,
    partition: &Partition,
) -> Vec<LocalState> {
    let (delegates, is_delegate) = (&partition.delegates, &partition.is_delegate);
    let (n, p) = (graph.num_vertices(), partition.nranks);
    World::new(p)
        .run(|comm| {
            let rank = comm.rank();
            let owned = (rank..n).step_by(p).filter(|&v| !is_delegate[v]);
            let owned = owned.map(|v| v as u32).collect();
            let rows = ArcRows::from_arcs(owned, delegates, &partition.arcs[rank]);
            stage1_state(comm, graph, rows, delegates, is_delegate).0
        })
        .results
}

/// Build one rank's state for a 1D-partitioned (delegate-free) level: the
/// rank holds all arcs sourced at its owned vertices, laid out as rows
/// ([`ArcRows::from_arcs`]); `flows` carries the visit rate of every level
/// vertex it owns (ascending by vertex), and the boundary topology is
/// derived locally from arc targets (1D adjacency is symmetric: if I see
/// your vertex, you see mine).
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
    // Every target that is not owned is a ghost (every source is owned).
    let mut ghosts: Vec<u32> = (arcs.iter().map(|a| a.dst))
        .filter(|v| owned.binary_search(v).is_err())
        .collect();
    ghosts.sort_unstable();
    ghosts.dedup();
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
    let rows = ArcRows::from_arcs(owned, &[], arcs);
    let mut st = assemble(rank, nranks, rows, ghosts, &[], &flow_of, inv_two_w);
    st.set_subscribers(seen_by);
    st
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use infomap_graph::datasets::DatasetId;
    use infomap_graph::{generators, Graph};
    use infomap_partition::DelegateThreshold;
    use std::collections::HashSet;

    /// The per-vertex arrays `movable` covers, read back over every local
    /// vertex: a ghost reads the zero it held when they were n long.
    pub(crate) fn per_vertex<T: Copy + Default>(st: &LocalState, movable: &[T]) -> Vec<T> {
        let mut all = movable.to_vec();
        all.resize(st.verts.len(), T::default());
        all
    }

    /// The subscriber lists as `(vertex, ranks)` entries, ascending.
    pub(crate) fn subscriber_lists(st: &LocalState) -> Vec<(u32, Vec<usize>)> {
        let subs = &st.subscribers;
        (0..subs.li.len())
            .map(|i| {
                let ranks = subs.ranks_of(i).iter().map(|&r| r as usize).collect();
                (st.verts[subs.li[i] as usize], ranks)
            })
            .collect()
    }

    /// FNV-1a over every field of the state, field by field in the
    /// declaration order of the per-vertex layout the recordings were made
    /// with: the runs read back as a role per vertex and a global → local
    /// index, the movable-only arrays and the announcement marks per local
    /// vertex, ids and offsets as `u64`, the subscribers as `(vertex,
    /// ranks)` entries; floats by their bits, the two id maps read back in
    /// the order of the vectors they invert.
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
        let n = st.verts.len();
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.word(st.rank as u64);
        h.word(st.nranks as u64);
        h.words(st.verts.iter().map(|&v| v as u64));
        h.words(st.verts.iter().map(|&v| st.local_of(v).unwrap() as u64));
        h.word(n as u64);
        h.words((0..n as u32).map(|li| st.kind(li) as u64));
        h.words(st.adj_off.iter().map(|&o| o as u64));
        h.words(st.adj_tgt.iter().map(|&t| t as u64));
        h.words(st.adj_w.iter().map(|w| w.to_bits()));
        h.words(per_vertex(st, &st.node_flow).iter().map(|f| f.to_bits()));
        h.words(per_vertex(st, &st.out_flow).iter().map(|f| f.to_bits()));
        h.words(st.module_of.iter().map(|&m| m as u64));
        h.words(st.module_ids.iter().map(|&m| m as u64));
        h.words(st.module_ids.iter().map(|m| st.module_slot[m] as u64));
        h.word(st.module_slot.len() as u64);
        h.words(st.mod_flow.iter().map(|f| f.to_bits()));
        h.words(st.mod_exit.iter().map(|f| f.to_bits()));
        h.words(st.mod_members.iter().map(|&m| m as u64));
        // The retired per-slot presence flags, true wherever this hashes a
        // state (stage starts), so the recordings keep their words.
        h.words(st.module_ids.iter().map(|_| 1));
        h.word(st.owner.len() as u64);
        for m in &st.owner {
            h.word(m.present as u64);
            h.word(m.totals.flow.to_bits());
            h.word(m.totals.exit.to_bits());
            h.word(m.totals.members as u64);
            h.words(m.sources.iter().map(|&r| r as u64));
        }
        h.word(st.sum_exit.to_bits());
        let subscribers = subscriber_lists(st);
        h.word(subscribers.len() as u64);
        for (v, ranks) in &subscribers {
            h.word(*v as u64);
            h.words(ranks.iter().map(|&r| r as u64));
        }
        h.words(st.subscribers.li.iter().map(|&li| li as u64));
        h.words(st.providers.iter().map(|&r| r as u64));
        h.words(st.send_targets.iter().map(|&r| r as u64));
        h.word(st.inv_two_w.to_bits());
        h.words(st.movable().map(|li| li as u64));
        let mut announced = vec![u64::MAX; n];
        for (&li, &m) in st.subscribers.li.iter().zip(&st.subscribers.last_announced) {
            if m != NEVER_ANNOUNCED {
                announced[li as usize] = m as u64;
            }
        }
        h.words(announced.into_iter());
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
        h.words(per_vertex(st, &st.swept_at).iter().map(|&t| t as u64));
        h.0
    }

    /// FNV-1a over whole words, e.g. the per-rank fingerprints in rank order.
    pub(crate) fn fold_words(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The LFR stand-in with `n` vertices and μ = 0.25 (no hubs).
    pub(crate) fn lfr_graph(n: usize, seed: u64) -> Graph {
        let params = generators::LfrParams::with(n, 0.25);
        generators::lfr_like(params, seed).0
    }

    /// LFR n = 600 (no hubs) and the UK-2007 stand-in (hubs → delegates).
    pub(crate) fn construction_graphs() -> [(&'static str, Graph); 2] {
        let lfr = lfr_graph(600, 3);
        let (hub, _) = DatasetId::Uk2007.profile().generate_scaled(0.02, 7);
        [("lfr600", lfr), ("uk2007", hub)]
    }

    /// The written-down order contract of [`assemble`] and
    /// [`LocalState::set_subscribers`], checked against the partition.
    fn assert_order_contract(st: &LocalState, part: &Partition) {
        let (rank, p) = (st.rank, st.nranks);
        let owned: Vec<u32> = (rank as u32..part.is_delegate.len() as u32)
            .step_by(p)
            .filter(|&v| !part.is_delegate[v as usize])
            .collect();
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
            assert_eq!(st.local_of(v), Some(li as u32));
            let kind = if li < owned.len() {
                VertexKind::Owned
            } else if li < owned.len() + local_delegates.len() {
                VertexKind::DelegateCopy
            } else {
                VertexKind::Ghost
            };
            assert_eq!(st.kind(li as u32), kind, "rank {rank} vertex {v}");
            assert_eq!((st.module_of[li], st.module_ids[li]), (li as u32, v));
            // The row is the rank's arcs with this source, in list order.
            let row: Vec<(u32, u64)> = (arcs.iter().filter(|a| a.src == v))
                .map(|a| (a.dst, a.weight.to_bits()))
                .collect();
            let got: Vec<(u32, u64)> = (st.arcs_of(li as u32))
                .map(|(t, w)| (st.verts[t as usize], w.to_bits()))
                .collect();
            assert_eq!(got, row, "rank {rank} row of {v}");
        }
        assert_eq!(st.module_slot.len(), n);
        assert_eq!(st.delegates_from as usize, owned.len());
        assert_eq!(st.movable(), 0..(n - ghosts.len()) as u32);
        let movable = st.movable().len();
        assert_eq!(
            (st.node_flow.len(), st.out_flow.len(), st.swept_at.len()),
            (movable, movable, movable)
        );
        // Ghosts have empty rows.
        assert_eq!(
            st.adj_off[movable..].iter().min(),
            st.adj_off[movable..].iter().max()
        );
        let mut providers: Vec<usize> = ghosts.iter().map(|&v| owner(v, p)).collect();
        providers.sort_unstable();
        providers.dedup();
        assert_eq!(st.providers, providers);
        let subscribers = subscriber_lists(st);
        assert!(subscribers.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(
            st.subscribers.last_announced,
            vec![NEVER_ANNOUNCED; subscribers.len()]
        );
        for (i, (_, ranks)) in subscribers.iter().enumerate() {
            assert!(ranks.windows(2).all(|w| w[0] < w[1]) && !ranks.is_empty());
            assert_eq!(st.kind(st.subscribers.li[i]), VertexKind::Owned);
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
        for (gi, (name, g)) in construction_graphs().iter().enumerate() {
            for (pi, p) in [1usize, 2, 3, 4, 7].into_iter().enumerate() {
                let part = Partition::delegate(g, p, DelegateThreshold::Auto(4.0), true);
                let states = build_stage1_states(g, &part);
                for st in &states {
                    assert_order_contract(st, &part);
                    // Mirrored: whoever I send to expects me, and I expect
                    // exactly the owners that send to me.
                    for (v, ranks) in &subscriber_lists(st) {
                        for &r in ranks {
                            assert!(states[r].ghosts().binary_search(v).is_ok());
                            assert!(states[r].providers.contains(&st.rank));
                        }
                    }
                    for &v in st.ghosts() {
                        let subs = subscriber_lists(&states[owner(v, p)]);
                        let at = subs.binary_search_by_key(&v, |s| s.0).unwrap();
                        assert!(subs[at].1.contains(&st.rank), "{name} p={p} ghost {v}");
                    }
                }
                if name == &"uk2007" {
                    assert!(!part.delegates.is_empty(), "the stand-in grew no hubs");
                }
                let all = fold_words(states.iter().map(fingerprint));
                assert_eq!(all, RECORDED[gi][pi], "{name} p={p}: {all:#018x}");
            }
        }
    }

    #[test]
    fn local_of_by_binary_search_matches_a_hash_index() {
        for (name, g) in construction_graphs() {
            let n = g.num_vertices() as u32;
            for p in [1usize, 2, 3, 4, 7] {
                let part = Partition::delegate(&g, p, DelegateThreshold::Auto(4.0), true);
                for st in build_stage1_states(&g, &part) {
                    let index: HashMap<u32, u32> = (st.verts.iter().enumerate())
                        .map(|(li, &v)| (v, li as u32))
                        .collect();
                    for v in 0..n + 2 {
                        let want = index.get(&v).copied();
                        assert_eq!(st.local_of(v), want, "{name} p={p} rank {}: {v}", st.rank);
                        let ghost = want.filter(|&li| st.kind(li) == VertexKind::Ghost);
                        assert_eq!(st.ghost_of(v), ghost);
                        let copy = want.filter(|&li| st.is_delegate(li));
                        assert_eq!(st.delegate_copy_of(v), copy);
                    }
                    assert_eq!(st.local_of(u32::MAX), None);
                    if p > 1 {
                        assert!((0..n).any(|v| st.local_of(v).is_none()), "{name} p={p}");
                    }
                }
            }
        }
    }

    /// A rank's state bytes: every `Vec` by capacity × element size, a
    /// hash table by its bucket count. Returned as the totals of what
    /// scales with the local vertices, the local arcs, the interned module
    /// slots, the owner-table entries and the owner's source ranks.
    pub(crate) fn state_bytes(st: &LocalState) -> [usize; 5] {
        fn vec<T>(v: &Vec<T>) -> usize {
            v.capacity() * mem::size_of::<T>()
        }
        fn table<K, V, S>(hashed: &HashMap<K, V, S>) -> usize {
            let buckets = match hashed.capacity() {
                0 => return 0,
                cap if cap < 8 => cap + 1,
                cap => (cap * 8 / 7).next_power_of_two(),
            };
            buckets * (mem::size_of::<(K, V)>() + 1) + 16
        }
        let subs = &st.subscribers;
        let vertex = vec(&st.verts)
            + vec(&st.adj_off)
            + vec(&st.node_flow)
            + vec(&st.out_flow)
            + vec(&st.module_of)
            + vec(&subs.li)
            + vec(&subs.off)
            + vec(&subs.ranks)
            + vec(&subs.last_announced)
            + vec(&st.providers)
            + vec(&st.send_targets)
            + vec(&st.moved_at)
            + vec(&st.swept_at);
        let arc = vec(&st.adj_tgt) + vec(&st.adj_w);
        let slot = vec(&st.module_ids)
            + table(&st.module_slot)
            + vec(&st.mod_flow)
            + vec(&st.mod_exit)
            + vec(&st.mod_members)
            + vec(&st.last_contrib)
            + vec(&st.last_contrib_active)
            + vec(&st.dirty_slots)
            + vec(&st.slot_dirty);
        let sources = st.owner.iter().map(|m| vec(&m.sources)).sum();
        [vertex, arc, slot, vec(&st.owner), sources]
    }

    #[test]
    fn a_rank_after_the_init_sync_fits_its_byte_budget() {
        for (name, g) in construction_graphs() {
            for p in [1usize, 4, 7] {
                let part = Partition::delegate(&g, p, DelegateThreshold::Auto(4.0), true);
                // Moved into the ranks, not cloned: a clone's capacities
                // are its lengths.
                let states: Vec<std::sync::Mutex<Option<LocalState>>> =
                    (build_stage1_states(&g, &part).into_iter())
                        .map(|st| std::sync::Mutex::new(Some(st)))
                        .collect();
                let report = World::new(p).run(|comm| {
                    let mut st = states[comm.rank()].lock().unwrap().take().unwrap();
                    let mut bufs = crate::rounds::RoundBuffers::new(p);
                    crate::rounds::sync_modules(comm, &mut st, 0.0, true, &mut bufs);
                    let (n, movable) = (st.verts.len(), st.movable().len());
                    let subs = &st.subscribers;
                    let ranks = st.providers.len() + st.send_targets.len();
                    let sources: usize = st.owner.iter().map(|m| m.sources.len()).sum();
                    // Every local vertex 16 B: id, CSR offset, module, move
                    // mark; a movable one 20 more: two flows and a sweep
                    // mark; a subscribed one 12: local index, offset, last
                    // announcement, and 4 per subscribing rank. 12 B per
                    // arc. Per module slot (one per local vertex at a stage
                    // start) 54 B of arrays, 7 more for the eighth of
                    // headroom the seven slot arrays (50 B) start with, and
                    // the id → slot table at most half full. An
                    // owner-table entry 56 B, a source rank 4 B with room
                    // for at most twice the ranks.
                    let budget = [
                        16 * n
                            + 20 * movable
                            + 12 * subs.li.len()
                            + 4 * subs.ranks.len()
                            + 8 * ranks,
                        12 * st.num_arcs(),
                        81 * st.num_module_slots(),
                        56 * st.owner.len(),
                        8 * sources,
                    ];
                    (state_bytes(&st), budget)
                });
                for (rank, (bytes, budget)) in report.results.into_iter().enumerate() {
                    for k in 0..5 {
                        assert!(
                            bytes[k] <= budget[k] + 64,
                            "{name} p={p} rank {rank}: {} B of kind {k} over a budget of {}",
                            bytes[k],
                            budget[k]
                        );
                    }
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
                if st.is_delegate(li as u32) {
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
                match st.kind(li as u32) {
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
            for (_, subs) in &subscriber_lists(st) {
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
            for (_, subs) in &subscriber_lists(st) {
                for &s in subs {
                    assert!(states[s].providers.contains(&st.rank));
                }
            }
        }
        let owned_total: usize = states.iter().map(|s| s.delegates_from as usize).sum();
        assert_eq!(owned_total, 40);
    }
}
