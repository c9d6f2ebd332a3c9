//! The synchronized clustering rounds shared by both stages of the
//! paper's Algorithm 2.
//!
//! Each inner round runs four metered phases, named as in Figure 8:
//!
//! 1. **FindBestModule** — every rank sweeps the *active* part of its
//!    movable vertices in random order: candidates are evaluated against
//!    the frozen round-start state and re-validated at the sequential
//!    merge; owned low-degree vertices move there, delegate copies only
//!    produce proposals.
//! 2. **BroadcastDelegates** — delegate proposals travel to the delegate's
//!    owner rank (`delegate mod p`), which elects the proposal with the
//!    minimal δL (minimum-label tie-break); only the winners are gathered
//!    back and applied identically on all ranks. The round's move count
//!    rides on the same exchange.
//! 3. **SwapBoundaryInfo** — boundary community IDs travel point-to-point
//!    to the static neighbor ranks, one encoded packet per neighbor.
//! 4. **Other** — module statistics are re-established exactly by an
//!    owner-rank reduction (modID → rank `modID mod p`), and the global MDL
//!    is folded from the owners' partial sums on the publish exchange.
//!
//! Every batch crosses the wire in the layout [`crate::codec`] defines.
//!
//! The owner reduction is the crate's realization of the paper's "swap the
//! whole community information of each boundary vertex" (Algorithm 3's
//! `Module_Info` records): every rank that touches a module contributes
//! its exact local share (vertex flows for members, arc flows for exits —
//! each arc lives on exactly one rank) and receives the exact total back.
//! A rank that learns a module in phase 2 or 3 — an elected winner, a
//! ghost update — has a local vertex in it at the round's reduction, so
//! it is a source of the module there and the publish hands it the
//! owner's totals; nothing reads module statistics in between, so phases
//! 2 and 3 move vertices and carry no statistics (DESIGN.md §6 note 23).
//!
//! # Hot-path kernels (DESIGN.md §6.12)
//!
//! The per-rank compute is organized around three ideas:
//!
//! * **Module-ID interning** — [`LocalState`] stores module assignments as
//!   dense slots (`u32` indices into the SoA stat arrays), so every stat lookup
//!   in the sweep is array indexing; global module ids are `u32` inside a
//!   rank and widen to `u64` only on the wire. A target's role is a compare
//!   against the ghost run's start, not a load.
//! * **Scratch sized by the arcs scanned, not by the slots interned** —
//!   [`best_local_move`] aggregates neighbor-module flow in its
//!   [`KernelScratch`] (an [`infomap_core::NeighborMap`] inside: open
//!   addressing with epoch stamps, as many buckets as twice the vertex's
//!   arc count rounded up to a power of two) in O(deg) time and bytes; it
//!   yields candidates in first-touch order, and min-label / tie-break
//!   comparisons use global ids. `sync_modules` sums a dirty slot's fresh
//!   contribution in place into `last_contrib`, keeping only the dirty
//!   slots' previous values aside, and the merge's re-validation trigger
//!   is one bit per slot.
//! * **Batched δL: gather → batch → select** — the kernel gathers each
//!   admissible candidate's five `plogp` arguments (the min-label filter
//!   first) beside the vertex's own five, scores them with one
//!   [`infomap_core::plogp_slice`] call, then selects in first-touch order
//!   with the scalar δL expression, so the bits are the scalar kernel's.
//!   The scratch's [`infomap_core::DeltaBatch`] does this [`DELTA_CHUNK`]
//!   candidates at a time, so its buffers stay one size on hubs. The
//!   owner's MDL partials score their `plogp` terms the same way.
//! * **Reused buffers, index staging** — the per-round scratch
//!   ([`RoundBuffers`]) persists across rounds: sweep order, election
//!   index, and the per-destination staging of the exchanges, which holds
//!   module slots, local vertex indices and module ids rather than record
//!   structs. Records are encoded from the state at send time
//!   and applied one by one as they decode (DESIGN.md §6 note 23). A
//!   round still allocates its wire payloads (the fabric takes ownership,
//!   as a real MPI transport would) and its election vectors.
//!
//! `comm.add_work` keeps metering *logical* arc relaxations (arcs scanned
//! by the sweep and by the dirty-module rescan, per-record reduction
//! work).

use std::collections::BTreeMap;

use infomap_core::{plogp, plogp_slice, MoveScratch, DELTA_CHUNK, MIN_GAIN, THETA};
use infomap_mpisim::{Comm, ReduceOp};
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::checkpoint::stage_rng_seed;
use crate::codec;
use crate::config::DistributedConfig;
use crate::messages::{DelegateProposal, ModuleContribution, ModuleInfoMsg, VertexUpdate};
use crate::state::{module_u32, LocalState, ModuleEntry, VertexKind};

/// Result of one clustering stage (a run of inner rounds to convergence).
#[derive(Clone, Debug)]
pub struct StageOutcome {
    /// Synchronized inner rounds executed.
    pub inner_iterations: usize,
    /// Total vertex moves (owned moves summed over ranks + elected
    /// delegate moves).
    pub total_moves: u64,
    /// Exact global MDL after the stage.
    pub mdl: f64,
    /// Exact global MDL after every sync (index 0 = singleton/initial).
    pub mdl_series: Vec<f64>,
    /// Total exit flow q after the stage: the last sync's `sum_exit`.
    pub exit_flow: f64,
    /// Number of non-empty modules after the stage.
    pub num_modules: u64,
    /// Why the round loop ended.
    pub stop: StageStop,
}

/// Why a clustering stage stopped iterating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageStop {
    /// No vertex moved for one full period of the round schedule.
    Quiesced = 0,
    /// Two consecutive syncs without an MDL improvement of [`THETA`], or
    /// a whole schedule period that improved it by less than 0.4 %.
    Stalled = 1,
    /// [`MAX_ROUNDS`] rounds ran out first.
    Cap = 2,
}

impl StageStop {
    /// The lower-case name reports and `result.json` print.
    pub fn name(self) -> &'static str {
        match self {
            StageStop::Quiesced => "quiesced",
            StageStop::Stalled => "stalled",
            StageStop::Cap => "cap",
        }
    }
}

/// Tag base of the boundary packet (one message per neighbor per round).
const TAG_BOUNDARY_PACKET: u64 = 0x12;

/// [`best_local_move`]'s scratch: the neighborhood accumulator, module
/// slot → (flow, seen via a ghost arc), epoch-stamped so starting the
/// next vertex is O(1) and sized by the largest arc span evaluated, and
/// the chunked δL batch.
pub(crate) type KernelScratch = MoveScratch<(f64, bool)>;

/// All reusable per-round scratch of one rank, created once per clustering
/// stage. The exchange staging holds indices into the rank's state, never
/// records: those exist only as encoded bytes.
#[derive(Debug)]
pub struct RoundBuffers {
    /// Shuffled sweep order.
    order: Vec<u32>,
    /// Delegate election: delegate id → index into the owner's received
    /// proposals.
    elected: BTreeMap<u32, usize>,
    /// Sorted winning proposal indices.
    winners: Vec<usize>,
    /// Proposal staging per owner rank (`delegate mod p`).
    prop_out: Vec<Vec<DelegateProposal>>,
    /// Boundary staging, one bucket per destination rank: the local index
    /// of every subscribed vertex whose module changed, in `subscribers`
    /// order. Its update is encoded at send time.
    boundary: Vec<Vec<u32>>,
    /// `sync_modules`' previous contributions of the dirty slots that had
    /// one, in dirty order: step 1 sums the fresh ones in place into
    /// `last_contrib`, and step 2 diffs against these.
    previous: Vec<PreviousContrib>,
    /// Contribution staging for the owner alltoallv, per destination: the
    /// module slot to ship and the index of its entry in `previous`
    /// ([`NO_PREVIOUS`] if it had none). A record's deltas are computed at
    /// encode time, from `last_contrib` / `last_contrib_active`, which the
    /// diff just wrote, and that entry.
    contrib_out: Vec<Vec<(u32, u32)>>,
    /// Owner-side: modules whose totals changed this sync.
    changed_modules: Vec<u32>,
    /// Owner-side publish staging, per subscriber rank: the modules to
    /// send it, each once, ascending. A record is encoded from the
    /// module's totals.
    publish: Vec<Vec<u32>>,
    /// Round-eligible vertices in shuffled order (the subset-gate survivors
    /// of `order`) — the one sequence every thread count slices identically.
    eligible: Vec<u32>,
    /// Arc-balanced slice boundaries over `eligible`: `cuts[s]..cuts[s+1]`
    /// is worker `s`'s contiguous range.
    cuts: Vec<usize>,
    /// Per-worker evaluation scratch, grown on demand to `cfg.threads`.
    slices: Vec<SliceScratch>,
    /// Module slots a merged move of the current round has already changed
    /// (its source and its target) — the re-validation trigger.
    merged: SlotMarks,
    /// Candidates of the most recent sweep that were (re-evaluated at the
    /// merge, dropped there).
    revalidated: (u64, u64),
}

/// One worker thread's private evaluation scratch: its own kernel
/// scratch, the cache-blocked walk order, and
/// the slice's results keyed by position so the merge can replay them in
/// the global shuffled order.
#[derive(Debug, Default)]
pub struct SliceScratch {
    /// Per-slice [`best_local_move`] scratch.
    kernel: KernelScratch,
    /// `(local vertex, position-in-slice)` pairs, block-sorted by local
    /// index so CSR reads stream within each block.
    walk: Vec<(u32, u32)>,
    /// Candidate per slice position (`None` = no admissible move).
    out: Vec<Option<LocalCandidate>>,
    /// Arcs scanned by this slice (exact counter; summed slice-order).
    arcs: u64,
}

impl RoundBuffers {
    pub fn new(nranks: usize) -> Self {
        RoundBuffers {
            order: Vec::new(),
            elected: BTreeMap::new(),
            winners: Vec::new(),
            prop_out: vec![Vec::new(); nranks],
            boundary: vec![Vec::new(); nranks],
            previous: Vec::new(),
            contrib_out: vec![Vec::new(); nranks],
            changed_modules: Vec::new(),
            publish: vec![Vec::new(); nranks],
            eligible: Vec::new(),
            cuts: Vec::new(),
            slices: Vec::new(),
            merged: SlotMarks::default(),
            revalidated: (0, 0),
        }
    }

    /// Vertices the most recent sweep evaluated (its hash class ∩ the
    /// active set), and how many of their candidates the merge had to
    /// re-evaluate and then dropped — convergence introspection for tests
    /// and harnesses.
    pub fn last_sweep(&self) -> (usize, u64, u64) {
        (self.eligible.len(), self.revalidated.0, self.revalidated.1)
    }
}

/// A set of module slots, one bit per slot, emptied through its own list
/// of members: emptying costs what was marked, not the slot space.
#[derive(Debug, Default)]
struct SlotMarks {
    bits: Vec<u64>,
    marked: Vec<u32>,
}

impl SlotMarks {
    /// Empty the set and make room for a slot space of `slots` slots.
    fn clear(&mut self, slots: usize) {
        for &s in &self.marked {
            self.bits[s as usize / 64] = 0;
        }
        self.marked.clear();
        if self.bits.len() < slots.div_ceil(64) {
            self.bits.resize(slots.div_ceil(64), 0);
        }
    }

    fn insert(&mut self, s: u32) {
        let word = &mut self.bits[s as usize / 64];
        let bit = 1u64 << (s % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.marked.push(s);
        }
    }

    fn contains(&self, s: u32) -> bool {
        self.bits[s as usize / 64] & (1u64 << (s % 64)) != 0
    }
}

/// The contribution a dirty slot last shipped, set aside before the
/// owner reduction sums the fresh one into its place.
/// Flat, so an entry takes 24 bytes, not a padded tuple's 32.
#[derive(Clone, Copy, Debug, Default)]
struct PreviousContrib {
    flow: f64,
    exit: f64,
    members: u32,
    slot: u32,
}

/// A staged record's index into [`RoundBuffers::previous`] when the slot
/// had shipped nothing: its deltas are taken from zero.
const NO_PREVIOUS: u32 = u32::MAX;

/// δL of moving a vertex (share) with flow `p_u` and local out-flow
/// `out_u` from `from` to `to`, given the current total exit flow.
/// Mirrors `infomap_core::Partitioning::delta` over module statistics.
/// The formula as written down once; [`best_local_move`] evaluates the
/// same expression with the source-side terms hoisted out of its candidate
/// loop, and the kernel oracle holds it to these bits.
#[cfg(test)]
fn delta_codelength(
    sum_exit: f64,
    from: &ModuleEntry,
    to: &ModuleEntry,
    p_u: f64,
    out_u: f64,
    flow_to_current: f64,
    flow_to_target: f64,
) -> f64 {
    let q_i = from.exit;
    let p_i = from.flow;
    let q_j = to.exit;
    let p_j = to.flow;
    let q_i_new = (q_i - out_u + 2.0 * flow_to_current).max(0.0);
    let q_j_new = (q_j + out_u - 2.0 * flow_to_target).max(0.0);
    let p_i_new = (p_i - p_u).max(0.0);
    let p_j_new = p_j + p_u;
    let q_new = (sum_exit + (q_i_new - q_i) + (q_j_new - q_j)).max(0.0);
    plogp(q_new)
        - plogp(sum_exit)
        - 2.0 * (plogp(q_i_new) - plogp(q_i) + plogp(q_j_new) - plogp(q_j))
        + plogp(q_i_new + p_i_new)
        - plogp(q_i + p_i)
        + plogp(q_j_new + p_j_new)
        - plogp(q_j + p_j)
}

/// A locally evaluated candidate move (target as an interned module slot).
#[derive(Clone, Copy, Debug)]
pub(crate) struct LocalCandidate {
    pub to_slot: u32,
    pub delta: f64,
    pub flow_to_current: f64,
    pub flow_to_target: f64,
}

/// Scan the local arcs of `li` and return the best admissible move —
/// the stamped-accumulator kernel: O(deg) per vertex.
///
/// `min_label` implements the paper's anti-bouncing rule: a move whose
/// target module was discovered through a *ghost* arc (a boundary
/// community) is only admissible toward a smaller module id. Label
/// comparisons use **global** module ids, so results are independent of
/// the rank-local interning order.
///
/// Gather → batch → select: the admissible candidates' `plogp` arguments
/// are gathered in first-touch order, scored [`DELTA_CHUNK`] at a time by
/// one [`infomap_core::plogp_slice`] call, and selected in the same order.
pub(crate) fn best_local_move(
    st: &LocalState,
    li: u32,
    min_label: bool,
    scratch: &mut KernelScratch,
) -> Option<LocalCandidate> {
    let MoveScratch { neigh, batch } = scratch;
    neigh.begin(arc_span(st, li) as usize);
    let current = st.module_of[li as usize];
    let mut flow_to_current = 0.0;
    for (tgt, w) in st.arcs_of(li) {
        if tgt == li {
            continue;
        }
        let f = w * st.inv_two_w;
        let m = st.module_of[tgt as usize];
        let ghost = tgt >= st.ghosts_from;
        if m == current {
            flow_to_current += f;
        } else {
            neigh.update(m, |e| {
                e.0 += f;
                e.1 |= ghost;
            });
        }
    }
    if neigh.is_empty() {
        return None;
    }
    let current_gid = st.module_ids[current as usize];
    let p_u = st.node_flow[li as usize];
    let out_u = st.out_flow[li as usize];
    // δL = `delta_codelength`, term for term and in its association
    // order; what depends only on the vertex and the module it leaves is
    // gathered once per vertex, not once per candidate.
    let (q_i, p_i) = (st.mod_exit[current as usize], st.mod_flow[current as usize]);
    let q_i_new = (q_i - out_u + 2.0 * flow_to_current).max(0.0);
    let p_i_new = (p_i - p_u).max(0.0);
    let exit_without_u = st.sum_exit + (q_i_new - q_i);
    let own = [st.sum_exit, q_i_new, q_i, q_i_new + p_i_new, q_i + p_i];
    // A candidate travels through the batch as its first-touch position,
    // so the selection reads its module and flow in place.
    let touched = neigh.touched();
    let cands = touched.iter().enumerate().filter_map(|(i, &(m, e))| {
        let (flow_to_target, via_ghost) = e;
        if min_label && via_ghost && st.module_ids[m as usize] >= current_gid {
            return None; // boundary community: minimum-label rule
        }
        let (q_j, p_j) = (st.mod_exit[m as usize], st.mod_flow[m as usize]);
        let q_j_new = (q_j + out_u - 2.0 * flow_to_target).max(0.0);
        let p_j_new = p_j + p_u;
        let q_new = (exit_without_u + (q_j_new - q_j)).max(0.0);
        Some((
            i as u32,
            [q_new, q_j_new, q_j, q_j_new + p_j_new, q_j + p_j],
        ))
    });
    let mut best: Option<LocalCandidate> = None;
    batch.score(own, cands, |own, i, v| {
        let (m, (flow_to_target, _)) = touched[i as usize];
        let delta =
            v[0] - own[0] - 2.0 * (own[1] - own[2] + v[1] - v[2]) + own[3] - own[4] + v[3] - v[4];
        if delta >= -MIN_GAIN {
            return;
        }
        let better = match &best {
            None => true,
            Some(b) => {
                delta < b.delta - 1e-12
                    || ((delta - b.delta).abs() <= 1e-12
                        && st.module_ids[m as usize] < st.module_ids[b.to_slot as usize])
            }
        };
        if better {
            best = Some(LocalCandidate {
                to_slot: m,
                delta,
                flow_to_current,
                flow_to_target,
            });
        }
    });
    best
}

/// Apply a move to the rank's local view (module table + assignment +
/// exit-sum estimate) on round tick `tick`: the sweep's merge applies its
/// owned moves this way, so later moves of the round see them. The next
/// owner reduction restores exact statistics.
pub(crate) fn apply_local_move(st: &mut LocalState, li: u32, c: &LocalCandidate, tick: u32) {
    let from_slot = st.module_of[li as usize] as usize;
    let to_slot = c.to_slot as usize;
    let p_u = st.node_flow[li as usize];
    let out_u = st.out_flow[li as usize];

    let q_i_old = st.mod_exit[from_slot];
    st.mod_exit[from_slot] = (q_i_old - out_u + 2.0 * c.flow_to_current).max(0.0);
    st.mod_flow[from_slot] = (st.mod_flow[from_slot] - p_u).max(0.0);
    st.mod_members[from_slot] = st.mod_members[from_slot].saturating_sub(1);
    let dq_i = st.mod_exit[from_slot] - q_i_old;

    let q_j_old = st.mod_exit[to_slot];
    st.mod_exit[to_slot] = (q_j_old + out_u - 2.0 * c.flow_to_target).max(0.0);
    st.mod_flow[to_slot] += p_u;
    st.mod_members[to_slot] += 1;
    let dq_j = st.mod_exit[to_slot] - q_j_old;

    st.sum_exit = (st.sum_exit + dq_i + dq_j).max(0.0);
    st.move_vertex(li as usize, c.to_slot, tick);
}

/// Cache-block size (vertices) for the slice walk: one block of CSR spans
/// fits comfortably in L1/L2, and within a block vertices are visited in
/// ascending local index so adjacency reads stream instead of hopping with
/// the shuffle.
const EVAL_BLOCK: usize = 512;

/// Evaluate one contiguous slice of the eligible order against the frozen
/// round-start state. Pure reads of `st`; every result lands at the
/// vertex's *position within the slice*, so the cache-blocked visit order
/// below never leaks into the merge.
fn eval_slice(st: &LocalState, restrict_boundary: bool, slice: &[u32], scratch: &mut SliceScratch) {
    let SliceScratch {
        kernel,
        walk,
        out,
        arcs,
    } = scratch;
    out.clear();
    out.resize(slice.len(), None);
    *arcs = 0;
    for (b, block) in slice.chunks(EVAL_BLOCK).enumerate() {
        let base = b * EVAL_BLOCK;
        walk.clear();
        walk.extend(
            block
                .iter()
                .enumerate()
                .map(|(i, &li)| (li, (base + i) as u32)),
        );
        // Local indices are unique within a round, so this key is total and
        // the sort order (hence the f64 accumulation inside each kernel
        // call) is deterministic despite `sort_unstable`.
        walk.sort_unstable_by_key(|&(li, _)| li);
        for &(li, pos) in walk.iter() {
            *arcs += arc_span(st, li);
            out[pos as usize] = best_local_move(st, li, restrict_boundary, kernel);
        }
    }
}

/// The hashed eligibility throttle: per round only the vertices of one of
/// this many hash classes may move, which bounds how many vertices join
/// one module on the same stale statistics — without it the synchronous
/// sweep over-merges relative to the sequential algorithm. A constant, not
/// a knob, so the period of the round schedule below is a compile-time
/// fact. Measured on top of that schedule and merge-time re-validation
/// (ISSUE 19): `= 1` (everyone, every round) doubles the per-round work
/// without saving a round — `flat_cluster` 1.7–2.0 s per graph against
/// 1.1–1.2 s, hub stage 1 at the round cap on 5 of 6 graphs.
const MOVE_FRACTION_DENOM: usize = 2;

/// May vertex `v` move on `round`? Each of the [`MOVE_FRACTION_DENOM`]
/// hash classes of vertex ids gets every `MOVE_FRACTION_DENOM`-th round.
fn eligible_on(v: u32, round: usize) -> bool {
    let hash = (v as u64).wrapping_mul(0x9e3779b97f4a7c15) >> 32;
    hash.wrapping_add(round as u64)
        .is_multiple_of(MOVE_FRACTION_DENOM as u64)
}

/// Do boundary moves obey the minimum-label rule (§3.4) on `round`?
///
/// Restricted toward smaller labels, at most one direction of a symmetric
/// swap pair (u → M(v) while v → M(u)) is admissible, which breaks the
/// bouncing cycle; unrestricted, a vertex separated from its community by
/// a larger label can still rejoin it. The restriction flips only after
/// every hash class has had its turn, so each class alternates restricted
/// and unrestricted passes: four phases, one schedule. It must not flip
/// every round — `round % 2` is also the parity of [`eligible_on`], so one
/// class was then evaluated *only* restricted and the other *never*, and
/// two never-restricted neighbors on different ranks swapped modules every
/// time they were eligible, up to the round cap.
fn restricts_boundary(cfg: &DistributedConfig, round: usize) -> bool {
    cfg.min_label_tiebreak && (round / MOVE_FRACTION_DENOM).is_multiple_of(2)
}

/// Rounds after which the schedule repeats — the window without a move
/// that means the stage has quiesced, never restricted rounds alone.
fn schedule_period(cfg: &DistributedConfig) -> usize {
    if cfg.min_label_tiebreak {
        2 * MOVE_FRACTION_DENOM
    } else {
        MOVE_FRACTION_DENOM
    }
}

/// A stage is stalled once a whole schedule period — every vertex has had
/// its restricted and its unrestricted turn — improved the MDL by less than
/// this fraction of it. [`THETA`] is an absolute 1e-10 that the noise of
/// one-round-stale boundary moves never gets under: without a relative bar
/// the stage-1 tail trades a handful of vertices for 0.02–0.1 % per round
/// until the round cap (measured on LFR n = 3 000, p = 4: 3 of 10 seeded
/// runs at the cap without it; with it none of 20, 22–34 rounds, the same
/// 0.3–1.2 % above sequential).
const STALL_PERIOD_GAIN: f64 = 4e-3;

/// Arcs stored for local vertex `li`.
fn arc_span(st: &LocalState, li: u32) -> u64 {
    (st.adj_off[li as usize + 1] - st.adj_off[li as usize]) as u64
}

/// Phase 1: the greedy sweep. Returns (owned moves, arcs scanned, delegate
/// proposals).
///
/// Evaluate → re-validate at merge → sweep only the active set (DESIGN.md
/// §6 note 16). The shuffled order is filtered down to the round's hash
/// class ([`eligible_on`]) and, within it, to the vertices that can have a
/// new answer ([`LocalState::is_active`]); that sequence is cut into
/// `cfg.threads` contiguous arc-balanced slices and every slice is
/// *evaluated* against the frozen round-start state (pure reads, one
/// worker per slice). The candidates are then *merged* — applied or turned
/// into proposals — sequentially in the one global shuffled order, which
/// is exactly the concatenation of the slices. A candidate whose source or
/// target module an earlier merged move of this round already changed was
/// computed from statistics that no longer hold, so it is re-evaluated
/// against the live state and dropped when nothing admissible remains:
/// two same-rank neighbors that each chose the other's module are merged
/// once, not swapped. The shuffle, both filters and the merge order are all
/// independent of the thread count, so MDL series, moves and assignments
/// are bit-identical for every `threads` value (including 1, which skips
/// the thread scope entirely).
///
/// Public for the `e2e_layers` benchmark's serial kernel replay.
pub fn find_best_modules(
    st: &mut LocalState,
    cfg: &DistributedConfig,
    rng: &mut StdRng,
    bufs: &mut RoundBuffers,
    round: usize,
) -> (u64, u64, Vec<DelegateProposal>) {
    let restrict_boundary = restricts_boundary(cfg, round);
    bufs.order.clear();
    bufs.order.extend(st.movable());
    bufs.order.shuffle(rng);

    // Eligibility prefilter, identical for every thread count: the round's
    // hash class, then the active set.
    bufs.eligible.clear();
    for &li in &bufs.order {
        if eligible_on(st.verts[li as usize], round) && st.is_active(li) {
            bufs.eligible.push(li);
        }
    }

    // Arc-balanced contiguous cuts: slice s ends at the first prefix where
    // prefix_arcs·t ≥ (s+1)·total_arcs, so a hub-heavy head doesn't leave
    // the other workers idle. Cut *placement* varies with t; results don't,
    // because evaluation is pure and the merge replays the concatenation.
    let t = cfg.threads.max(1);
    let total_arcs: u64 = bufs.eligible.iter().map(|&li| arc_span(st, li)).sum();
    bufs.cuts.clear();
    bufs.cuts.push(0);
    if total_arcs > 0 {
        let mut prefix = 0u64;
        let mut s = 1u64;
        for (i, &li) in bufs.eligible.iter().enumerate() {
            prefix += arc_span(st, li);
            while s < t as u64 && prefix * t as u64 >= s * total_arcs {
                bufs.cuts.push(i + 1);
                s += 1;
            }
        }
    }
    while bufs.cuts.len() < t + 1 {
        bufs.cuts.push(bufs.eligible.len());
    }
    while bufs.slices.len() < t {
        bufs.slices.push(SliceScratch::default());
    }

    // Evaluate every slice against the frozen round-start state.
    let eligible = &bufs.eligible;
    let cuts = &bufs.cuts;
    if t == 1 {
        eval_slice(st, restrict_boundary, eligible, &mut bufs.slices[0]);
    } else {
        let frozen: &LocalState = st;
        let (head, rest) = bufs.slices.split_first_mut().expect("slices sized above");
        std::thread::scope(|scope| {
            for (s, scratch) in rest.iter_mut().enumerate().take(t - 1) {
                let slice = &eligible[cuts[s + 1]..cuts[s + 2]];
                scope.spawn(move || eval_slice(frozen, restrict_boundary, slice, scratch));
            }
            eval_slice(frozen, restrict_boundary, &eligible[cuts[0]..cuts[1]], head);
        });
    }

    // Merge in fixed slice order — the concatenation of the slices is the
    // global shuffled order, so this sequential fold of moves (and of the
    // arc counters) is the same commutative-safe, rank-order walk for
    // every t.
    let tick = round as u32 + 1;
    let mut owned_moves = 0u64;
    let mut arcs_scanned = 0u64;
    let mut proposals: Vec<DelegateProposal> = Vec::new();
    bufs.merged.clear(st.num_module_slots());
    bufs.revalidated = (0, 0);
    for s in 0..t {
        arcs_scanned += bufs.slices[s].arcs;
        for (i, idx) in (bufs.cuts[s]..bufs.cuts[s + 1]).enumerate() {
            let li = bufs.eligible[idx];
            if !restrict_boundary {
                st.swept_at[li as usize] = tick;
            }
            let Some(mut cand) = bufs.slices[s].out[i] else {
                continue;
            };
            let from_slot = st.module_of[li as usize];
            if bufs.merged.contains(from_slot) || bufs.merged.contains(cand.to_slot) {
                bufs.revalidated.0 += 1;
                arcs_scanned += arc_span(st, li);
                // Evaluation is over: slice 0's scratch is free.
                let kernel = &mut bufs.slices[0].kernel;
                let Some(live) = best_local_move(st, li, restrict_boundary, kernel) else {
                    bufs.revalidated.1 += 1;
                    continue;
                };
                cand = live;
            }
            if st.is_delegate(li) {
                proposals.push(DelegateProposal {
                    delegate: st.verts[li as usize],
                    to_module: st.module_gid(cand.to_slot),
                    delta: cand.delta,
                    proposer: st.rank as u32,
                });
            } else {
                apply_local_move(st, li, &cand, tick);
                bufs.merged.insert(from_slot);
                bufs.merged.insert(cand.to_slot);
                owned_moves += 1;
            }
        }
    }
    (owned_moves, arcs_scanned, proposals)
}

/// Elect per delegate: minimal δL; ties by smaller target module id
/// (minimum label), then by proposer rank, making the election
/// deterministic and identical everywhere. Within the ±1e-15 band the
/// retained winner depends on scan order, so `all` is always fed in
/// (source rank, emission) order.
fn elect(all: &[DelegateProposal], elected: &mut BTreeMap<u32, usize>) {
    elected.clear();
    for (i, p) in all.iter().enumerate() {
        let replace = match elected.get(&p.delegate) {
            None => true,
            Some(&j) => {
                let cur = &all[j];
                p.delta < cur.delta - 1e-15
                    || ((p.delta - cur.delta).abs() <= 1e-15
                        && (p.to_module, p.proposer) < (cur.to_module, cur.proposer))
            }
        };
        if replace {
            elected.insert(p.delegate, i);
        }
    }
}

/// Apply one elected winner to the local view: the delegate's copy, if
/// this rank holds one, moves. It carries no statistics: the copy is a
/// member of the target module at this round's owner reduction, whose
/// publish overwrites the source and target slots with the owners' totals
/// before anything reads them.
fn apply_winner(
    st: &mut LocalState,
    p: &DelegateProposal,
    delegate_assign: &mut BTreeMap<u32, u64>,
    tick: u32,
) {
    delegate_assign.insert(p.delegate, p.to_module);
    if let Some(li) = st.delegate_copy_of(p.delegate) {
        if st.module_id_of(li as usize) != p.to_module {
            let to_slot = st.intern_module(p.to_module);
            st.move_vertex(li as usize, to_slot, tick);
        }
    }
}

/// Election hysteresis. Every winner speaks for its whole hub on the
/// strength of one rank's share of it, and no rank sees a whole hub to
/// check it against: two shares that disagree would send the hub back and
/// forth on every turn, and its owned neighbors after it. So a winner that
/// returns a hub to the module it last left must out-gain that departure,
/// or it is dropped (the delegate is swept again on its next turn). An
/// admitted winner records the module it leaves, `from`, and its gain in
/// `left` ([`LocalState::delegate_left`], replicated — every rank admits
/// the same winners).
fn admit_winner(left: &mut BTreeMap<u32, (u64, f64)>, w: &DelegateProposal, from: u64) -> bool {
    let gain = -w.delta;
    let undoes =
        |&(module, departure_gain): &(u64, f64)| module == w.to_module && gain <= departure_gain;
    if left.get(&w.delegate).is_some_and(undoes) {
        return false;
    }
    left.insert(w.delegate, (from, gain));
    true
}

/// Phase 2: owner-reduced election. Proposals travel once, to the
/// delegate's owner rank (`delegate mod p`) via an alltoallv; the owner
/// elects, and only the winners are gathered back — O(total + winners × p)
/// receive volume, where allgathering every proposal would cost
/// O(total × p).
///
/// The exchange rides on [`Comm::alltoallv_reduce`], which folds a
/// 16-byte `(owned_moves, proposals)` partial per rank alongside the
/// buckets: summing gives every rank the global owned-move count (so the
/// round needs no standalone moves-allreduce) and the global proposal
/// count (so the winner gather is skipped entirely on proposal-free
/// rounds — the steady state of every quiescing stage). Empty buckets
/// ship zero bytes.
///
/// Returns `(delegates moved, global owned moves)`, both identical on
/// every rank.
fn broadcast_delegates(
    comm: &mut Comm,
    st: &mut LocalState,
    proposals: Vec<DelegateProposal>,
    owned_moves: u64,
    delegate_assign: &mut BTreeMap<u32, u64>,
    bufs: &mut RoundBuffers,
    tick: u32,
) -> (u64, u64) {
    let p = st.nranks;
    for bucket in bufs.prop_out.iter_mut() {
        bucket.clear();
    }
    // Emission order is preserved within each owner bucket (see `elect`).
    for pr in &proposals {
        bufs.prop_out[pr.delegate as usize % p].push(*pr);
    }
    let mut enc = 0u64;
    let outgoing: Vec<Vec<u8>> = bufs
        .prop_out
        .iter()
        .map(|bucket| {
            let mut buf = Vec::new();
            if !bucket.is_empty() {
                codec::encode_proposals(&mut buf, bucket);
                enc += buf.len() as u64;
            }
            buf
        })
        .collect();
    comm.add_codec_bytes(enc);
    let (incoming, (global_moves, global_props)) =
        comm.alltoallv_reduce(outgoing, (owned_moves, proposals.len() as u64), |parts| {
            parts
                .into_iter()
                .fold((0u64, 0u64), |acc, x| (acc.0 + x.0, acc.1 + x.1))
        });
    let mut mine: Vec<DelegateProposal> = Vec::new();
    let mut dec = 0u64;
    for (src, buf) in incoming.iter().enumerate() {
        if buf.is_empty() {
            continue;
        }
        dec += buf.len() as u64;
        codec::for_each_proposal(buf, &mut 0, |p| mine.push(p))
            .unwrap_or_else(|e| panic!("delegate election: proposals from rank {src}: {e}"));
    }
    comm.add_codec_bytes(dec);
    if global_props == 0 {
        // No rank proposed anything: the election (and its second
        // collective) is over before it began. The piggybacked partials
        // already synchronized the round.
        return (0, global_moves);
    }
    // Owner-side election over this rank's delegates only.
    elect(&mine, &mut bufs.elected);
    bufs.winners.clear();
    bufs.winners.extend(bufs.elected.values().copied());
    bufs.winners.sort_by_key(|&i| mine[i].delegate);
    let my_winners: Vec<DelegateProposal> = bufs.winners.iter().map(|&i| mine[i]).collect();
    let mut wire = Vec::new();
    if !my_winners.is_empty() {
        codec::encode_proposals(&mut wire, &my_winners);
        comm.add_codec_bytes(wire.len() as u64);
    }
    let parts = comm.allgather_parts(wire);
    let mut winners: Vec<DelegateProposal> = Vec::new();
    let mut dec2 = 0u64;
    for (src, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue; // owner with no winners shipped nothing
        }
        dec2 += part.len() as u64;
        codec::for_each_proposal(part, &mut 0, |w| winners.push(w))
            .unwrap_or_else(|e| panic!("delegate election: winners from rank {src}: {e}"));
    }
    comm.add_codec_bytes(dec2);
    // Delegates are globally unique across owners, so this is a total
    // order.
    winners.sort_by_key(|w| w.delegate);
    let mut moved = 0u64;
    for w in &winners {
        if admit_winner(&mut st.delegate_left, w, delegate_assign[&w.delegate]) {
            moved += 1;
            apply_winner(st, w, delegate_assign, tick);
        }
    }
    (moved, global_moves)
}

/// Phase 3: swap boundary community IDs with the static neighbor ranks
/// (Algorithm 3's vertex updates).
///
/// A destination's updates are one delta/varint-encoded packet: one
/// message per neighbor per round. `tick` (`round + 1`) tags the packets
/// and stamps the ghosts an update actually changed. Algorithm 3 sends
/// each updated vertex's `Module_Info` along; here the round's owner
/// reduction delivers it (the module docs say why), so no info travels.
fn swap_boundary_info(comm: &mut Comm, st: &mut LocalState, tick: u32, bufs: &mut RoundBuffers) {
    let tag = TAG_BOUNDARY_PACKET + tick as u64 * 16;
    // Stage, per destination, the local index of every subscribed vertex
    // whose module changed. Only changed assignments travel; subscribers'
    // ghost views stay exact because an update is emitted precisely on
    // change.
    for bucket in bufs.boundary.iter_mut() {
        bucket.clear();
    }
    let subs = &mut st.subscribers;
    for i in 0..subs.li.len() {
        let li = subs.li[i];
        let gid = st.module_ids[st.module_of[li as usize] as usize];
        if subs.last_announced[i] != gid {
            subs.last_announced[i] = gid;
            for &dest in subs.ranks_of(i) {
                bufs.boundary[dest as usize].push(li);
            }
        }
    }
    // Encode each packet from the state: nothing the records read changes
    // between the staging above and here. Quiet destinations get a
    // zero-byte packet.
    for &dest in &st.send_targets {
        let staged = &bufs.boundary[dest];
        let mut buf = Vec::new();
        if !staged.is_empty() {
            codec::encode_updates_with(&mut buf, staged.len(), |i| {
                let li = staged[i] as usize;
                VertexUpdate {
                    vertex: st.verts[li],
                    module: st.module_id_of(li),
                }
            });
            comm.add_codec_bytes(buf.len() as u64);
        }
        comm.send(dest, tag, buf);
    }
    for i in 0..st.providers.len() {
        let src = st.providers[i];
        let buf: Vec<u8> = comm.recv(src, tag);
        if buf.is_empty() {
            continue;
        }
        comm.add_codec_bytes(buf.len() as u64);
        let updates = codec::for_each_update(&buf, &mut 0, |u| {
            if let Some(li) = st.ghost_of(u.vertex) {
                let s = st.intern_module(u.module);
                // A first announcement repeats the singleton the ghost
                // already holds; only a real change wakes its neighbors.
                if st.module_of[li as usize] != s {
                    st.move_vertex(li as usize, s, tick);
                }
            }
        })
        .unwrap_or_else(|e| panic!("boundary swap: packet from rank {src}: {e}"));
        // One unit per update applied.
        comm.add_work(updates as u64);
    }
}

/// Contribution-change test of the delta reduction.
#[inline]
fn contrib_changed(old: &(f64, f64, u32), new: &(f64, f64, u32)) -> bool {
    (old.0 - new.0).abs() > 1e-15 || (old.1 - new.1).abs() > 1e-15 || old.2 != new.2
}

/// Phase 4 ("Other"): delta-based owner reduction of module statistics,
/// exact global MDL, and change-driven redistribution.
///
/// A rank's exact contribution to a module (vertex flows and member counts
/// of its owned vertices and delegate shares; exit flows of its arcs — each
/// arc lives on exactly one rank) can only have changed if a local vertex
/// entered or left the module since the previous sync, so only those
/// **dirty** modules are rescanned — O(vertices + arcs of dirty modules),
/// every module before a stage's first sync — and only contributions that
/// did change travel to the module owners (`modID mod p`), as deltas from
/// what the rank last shipped, which it keeps. Owners maintain running
/// totals and each module's source ranks, and send refreshed `Module_Info`
/// only for modules whose totals changed, and only to their current
/// subscribers. The totals are therefore exact every round, while the scan,
/// the traffic and the owner work all shrink with the move rate (DESIGN.md
/// §6 note 20).
///
/// Both exchanges are delta/varint-encoded, and the MDL partials ride the
/// publish collective via [`Comm::alltoallv_reduce`], whose rank-order
/// fold matches `allreduce_with`. (Without full swapping there is no
/// publish exchange to ride on, so the partials take a standalone
/// allreduce.)
pub fn sync_modules(
    comm: &mut Comm,
    st: &mut LocalState,
    node_term: f64,
    full_swap: bool,
    bufs: &mut RoundBuffers,
) -> (f64, u64) {
    let p = st.nranks;
    // ---- 0. Set aside what each dirty slot last shipped, in dirty order,
    //         and zero the slot: step 1 sums into `last_contrib` in place,
    //         with `last_contrib_active` as its touched flag. ----
    bufs.previous.clear();
    for &s in &st.dirty_slots {
        let si = s as usize;
        if std::mem::take(&mut st.last_contrib_active[si]) {
            let (flow, exit, members) = std::mem::take(&mut st.last_contrib[si]);
            bufs.previous.push(PreviousContrib {
                flow,
                exit,
                members,
                slot: s,
            });
        }
    }

    // ---- 1. Fresh local contributions of the dirty slots. Every member
    //         of a dirty slot is visited in local-index order and every arc
    //         in CSR order, each sum starting from 0.0, so the per-slot sums
    //         carry the bits a rescan of all slots would give them. ----
    let mut arcs_scanned = 0u64;
    if !st.dirty_slots.is_empty() {
        let inv_two_w = st.inv_two_w;
        for li in 0..st.verts.len() {
            let m = st.module_of[li] as usize;
            if !st.slot_dirty[m] {
                continue;
            }
            st.last_contrib_active[m] = true;
            // A delegate's member is counted once, by its 1D owner; a ghost
            // view subscribes with a zero contribution.
            let member = match st.kind(li as u32) {
                VertexKind::Owned => 1,
                VertexKind::DelegateCopy => ((st.verts[li] as usize) % p == st.rank) as u32,
                VertexKind::Ghost => continue,
            };
            // Every arc adds to the slot's own sum, never to a per-vertex
            // subtotal: the order of the additions is the rescan's.
            let mut e = st.last_contrib[m];
            e.0 += st.node_flow[li];
            e.2 += member;
            for (tgt, w) in st.arcs_of(li as u32) {
                arcs_scanned += 1;
                if tgt as usize != li && st.module_of[tgt as usize] as usize != m {
                    e.1 += w * inv_two_w;
                }
            }
            st.last_contrib[m] = e;
        }
    }
    comm.add_work(arcs_scanned);

    // ---- 2. Diff the dirty slots against what they last shipped; ship
    //         changes only. A dirty slot left without a local member is
    //         retracted. A slot that does not ship gets back what it last
    //         shipped, so `last_contrib` is always what the owner holds
    //         for this rank. ----
    for bucket in bufs.contrib_out.iter_mut() {
        bucket.clear();
    }
    let mut next = 0;
    for i in 0..st.dirty_slots.len() {
        let s = st.dirty_slots[i];
        let si = s as usize;
        st.slot_dirty[si] = false;
        let (k, old) = match bufs.previous.get(next) {
            Some(&o) if o.slot == s => {
                next += 1;
                (next as u32 - 1, Some(o))
            }
            _ => (NO_PREVIOUS, None),
        };
        let ship = match (st.last_contrib_active[si], old) {
            (true, Some(o)) => contrib_changed(&(o.flow, o.exit, o.members), &st.last_contrib[si]),
            (touched, old) => touched || old.is_some(),
        };
        if ship {
            bufs.contrib_out[st.module_ids[si] as usize % p].push((s, k));
            if !st.last_contrib_active[si] {
                st.remove_module_slot(s);
            }
        } else if let Some(o) = old {
            st.last_contrib[si] = (o.flow, o.exit, o.members);
        }
    }
    st.dirty_slots.clear();
    // A shipped slot's record is what the diff just wrote, `last_contrib`
    // (zero for a retract), less what it last shipped, field by field;
    // `!last_contrib_active` is the retract flag. The fabric takes
    // ownership of the wire payload (as MPI buffering would); the staging
    // buckets keep their capacity for the next round.
    let mut enc = 0u64;
    let previous = &bufs.previous;
    let outgoing: Vec<Vec<u8>> = bufs
        .contrib_out
        .iter_mut()
        .map(|staged| {
            staged.sort_unstable_by_key(|&(s, _)| st.module_ids[s as usize]);
            let mut buf = Vec::new();
            if !staged.is_empty() {
                codec::encode_contribs_with(&mut buf, staged.len(), |i| {
                    let (s, k) = staged[i];
                    let old = previous.get(k as usize).copied().unwrap_or_default();
                    let (flow, exit, members) = st.last_contrib[s as usize];
                    ModuleContribution {
                        mod_id: st.module_gid(s),
                        flow: flow - old.flow,
                        exit: exit - old.exit,
                        members: members.wrapping_sub(old.members) as i32,
                        retract: !st.last_contrib_active[s as usize],
                    }
                });
                enc += buf.len() as u64;
            }
            buf
        })
        .collect();
    comm.add_codec_bytes(enc);
    let packets = comm.alltoallv(outgoing);

    // ---- 3. Owner: add each source's deltas to the running totals as
    //         they decode, in ascending source order. A source new to a
    //         module is listed and staged for the module's current totals;
    //         a packet lists its modules ascending, so each source's new
    //         modules are staged in ascending order. ----
    bufs.changed_modules.clear();
    for run in bufs.publish.iter_mut() {
        run.clear();
    }
    let mut dec = 0u64;
    for (src, buf) in packets.iter().enumerate() {
        if buf.is_empty() {
            continue;
        }
        dec += buf.len() as u64;
        let applied = codec::for_each_contrib(buf, &mut 0, |c| {
            let mod_id = module_u32(c.mod_id);
            let module = st.owned_module_mut(mod_id);
            module.present = true;
            let totals = &mut module.totals;
            totals.flow += c.flow;
            totals.exit += c.exit;
            totals.members = totals.members.wrapping_add_signed(c.members);
            match module.sources.binary_search(&(src as u32)) {
                Ok(i) if c.retract => {
                    module.sources.remove(i);
                }
                Ok(_) => {}
                Err(_) if c.retract => {}
                Err(i) => {
                    // Most modules have one source: the first takes one
                    // rank's room, not `Vec`'s minimum of four.
                    if module.sources.capacity() == 0 {
                        module.sources.reserve_exact(1);
                    }
                    module.sources.insert(i, src as u32);
                    bufs.publish[src].push(mod_id);
                }
            }
            // IEEE a − b = −(b − a): this is `contrib_changed(old, new)`.
            if contrib_changed(&(0.0, 0.0, 0), &(c.flow, c.exit, c.members as u32)) {
                bufs.changed_modules.push(mod_id);
            }
        })
        .unwrap_or_else(|e| panic!("owner reduction: contributions from rank {src}: {e}"));
        comm.add_work(applied as u64);
    }
    comm.add_codec_bytes(dec);
    bufs.changed_modules.sort_unstable();
    bufs.changed_modules.dedup();
    // Drop empty modules.
    for &m in &bufs.changed_modules {
        let module = st.owned_module_mut(m);
        if module.totals.members == 0 && module.totals.flow <= 1e-15 {
            module.present = false;
            module.totals = ModuleEntry::default();
        }
    }

    // ---- 4. Local MDL partials from the owners' totals, in ascending
    //         module id order (the floating-point sums depend on it); the
    //         `plogp` terms are scored `DELTA_CHUNK` modules at a time. ----
    let (mut q, mut s1, mut s2, mut k) = (0.0, 0.0, 0.0, 0u64);
    let (mut args, mut vals) = ([0.0; 2 * DELTA_CHUNK], [0.0; 2 * DELTA_CHUNK]);
    let mut owned = st.owned_modules();
    loop {
        let mut n = 0;
        for (_, t) in owned.by_ref() {
            let exit = t.exit.max(0.0);
            q += exit;
            args[2 * n] = exit;
            args[2 * n + 1] = exit + t.flow.max(0.0);
            n += 1;
            if n == DELTA_CHUNK {
                break;
            }
        }
        plogp_slice(&args[..2 * n], &mut vals[..2 * n]);
        for v in vals[..2 * n].chunks_exact(2) {
            s1 += v[0];
            s2 += v[1];
        }
        k += n as u64;
        if n < DELTA_CHUNK {
            break;
        }
    }
    drop(owned);
    comm.add_work(k);

    // ---- 5. Global reduction of the partials, and (under full swapping)
    //         publish refreshed stats for changed modules (plus current
    //         stats to brand-new subscribers). ----
    let (sum_exit, s_plogp_exit, s_plogp_both, nmod);
    if full_swap {
        // Every current source of a changed module gets its totals. A
        // source new this sync is staged already: each run is then its
        // new modules followed by the changed ones it was not new to —
        // disjoint, so a sort in place makes it ascending and
        // duplicate-free.
        let fresh: Vec<usize> = bufs.publish.iter().map(Vec::len).collect();
        for &m in &bufs.changed_modules {
            for &r in &st.owned_module(m).sources {
                let r = r as usize;
                let run = &mut bufs.publish[r];
                if run[..fresh[r]].binary_search(&m).is_err() {
                    run.push(m);
                }
            }
        }
        let mut staged = 0;
        for run in bufs.publish.iter_mut() {
            run.sort_unstable();
            staged += run.len();
        }
        comm.add_work(staged as u64);
        // The publish exchange and the MDL allreduce fuse into one
        // `alltoallv_reduce`: the 32-byte (q, s1, s2, k) partial rides the
        // collective, folded in source-rank order — the exact order
        // `allreduce_with` folds in. A rank's run is its packet, modules
        // ascending; ranks with nothing to publish get zero bytes.
        let mut enc = 0u64;
        let outgoing: Vec<Vec<u8>> = (bufs.publish.iter())
            .map(|run| {
                let mut buf = Vec::new();
                if !run.is_empty() {
                    codec::encode_infos_with(&mut buf, run.len(), |i| {
                        info_msg(run[i] as u64, st.owned_module(run[i]).totals)
                    });
                    enc += buf.len() as u64;
                }
                buf
            })
            .collect();
        comm.add_codec_bytes(enc);
        let (packets, red) = comm.alltoallv_reduce(outgoing, (q, s1, s2, k), |parts| {
            parts.into_iter().fold((0.0, 0.0, 0.0, 0u64), |acc, x| {
                (acc.0 + x.0, acc.1 + x.1, acc.2 + x.2, acc.3 + x.3)
            })
        });
        // Apply each source's infos in ascending source order.
        let (mut dec, mut applied) = (0u64, 0u64);
        for (src, buf) in packets.iter().enumerate() {
            if buf.is_empty() {
                continue;
            }
            dec += buf.len() as u64;
            applied += codec::for_each_info(buf, &mut 0, |m| apply_published_info(st, &m))
                .unwrap_or_else(|e| panic!("owner publish: module infos from rank {src}: {e}"))
                as u64;
        }
        comm.add_work(applied);
        comm.add_codec_bytes(dec);
        (sum_exit, s_plogp_exit, s_plogp_both, nmod) = red;
    } else {
        // Naive-swap ablation: no stat redistribution to ride on — the
        // partials take the standalone collective, and local views drift
        // until the next full swap.
        let red = comm.allreduce_with((q, s1, s2, k), |parts| {
            parts.into_iter().fold((0.0, 0.0, 0.0, 0u64), |acc, x| {
                (acc.0 + x.0, acc.1 + x.1, acc.2 + x.2, acc.3 + x.3)
            })
        });
        (sum_exit, s_plogp_exit, s_plogp_both, nmod) = *red;
    }
    st.sum_exit = sum_exit;
    let mdl = plogp(sum_exit) - 2.0 * s_plogp_exit - node_term + s_plogp_both;

    (mdl, nmod)
}

/// Receiver side of the publish exchange: one refreshed `Module_Info`
/// record updates (or retires) the local view of a module.
fn apply_published_info(st: &mut LocalState, m: &ModuleInfoMsg) {
    if m.members == 0 && m.flow <= 1e-15 {
        st.remove_module(m.mod_id);
    } else {
        st.set_module(m.mod_id, entry_of(m));
    }
}

/// Module statistics as the List 1 record of module `mod_id`.
fn info_msg(mod_id: u64, e: ModuleEntry) -> ModuleInfoMsg {
    ModuleInfoMsg {
        mod_id,
        flow: e.flow,
        exit: e.exit,
        members: e.members,
        is_sent: false,
    }
}

/// The module statistics a List 1 record carries.
fn entry_of(m: &ModuleInfoMsg) -> ModuleEntry {
    ModuleEntry {
        flow: m.flow,
        exit: m.exit,
        members: m.members,
    }
}

/// Cap on synchronized rounds per clustering stage.
pub const MAX_ROUNDS: usize = 40;

/// Run one clustering stage to convergence (Algorithm 2 lines 2–7 with
/// delegates, lines 10–14 without — the state's delegate set decides).
///
/// The sweep RNG is seeded afresh with [`stage_rng_seed`], so a stage is a
/// deterministic function of the state it starts from: what lets a level
/// start serve as a checkpoint ([`crate::checkpoint`]).
pub fn cluster_stage(
    comm: &mut Comm,
    st: &mut LocalState,
    cfg: &DistributedConfig,
    node_term: f64,
    delegate_assign: &mut BTreeMap<u32, u64>,
    stage_prefix: &str,
) -> StageOutcome {
    let ph = |name: &str| format!("{stage_prefix}{name}");
    // Stage-static and identical on every rank: the driver seeds
    // `delegate_assign` from the replicated delegate set for stage 1 and
    // passes an empty map for stage 2, so a delegate-free stage can skip
    // the election exchange outright — zero bytes and zero collectives in
    // BroadcastDelegates — and count moves with the plain allreduce
    // instead.
    let has_delegates = !delegate_assign.is_empty();
    let mut bufs = RoundBuffers::new(st.nranks);
    let mut rng = StdRng::seed_from_u64(stage_rng_seed(cfg.seed, st.rank));
    // Round 0: establish exact module statistics and the initial MDL. This
    // ships every singleton module's record once — the table setup a real
    // implementation does during preprocessing — so it is metered as
    // "Init", not amortized into the per-iteration "Other" phase that
    // Figure 8 breaks down.
    let (mut mdl, mut nmod) = comm.phase(&ph("Init"), |c| {
        sync_modules(c, st, node_term, cfg.full_module_swap, &mut bufs)
    });
    let mut mdl_series = vec![mdl];
    let mut total_moves = 0;
    let mut inner = 0;
    let mut quiet_rounds = 0;
    let mut stalled_syncs = 0;
    let cycle = schedule_period(cfg);
    let mut stop = StageStop::Cap;

    for round in 0..MAX_ROUNDS {
        inner += 1;
        let tick = round as u32 + 1;
        let (owned_moves, proposals) = comm.phase(&ph("FindBestModule"), |c| {
            let (moves, arcs_scanned, proposals) =
                find_best_modules(st, cfg, &mut rng, &mut bufs, round);
            c.add_work(arcs_scanned);
            (moves, proposals)
        });

        let (delegate_moves, global_owned) = comm.phase(&ph("BroadcastDelegates"), |c| {
            if has_delegates {
                broadcast_delegates(
                    c,
                    st,
                    proposals,
                    owned_moves,
                    delegate_assign,
                    &mut bufs,
                    tick,
                )
            } else {
                // No delegates anywhere: nothing to elect, nothing to send.
                (0, 0)
            }
        });

        comm.phase(&ph("SwapBoundaryInfo"), |c| {
            swap_boundary_info(c, st, tick, &mut bufs)
        });

        let round_moves = comm.phase(&ph("Other"), |c| {
            // With delegates the global move count already arrived on the
            // election collective — no extra traffic here. Without, there
            // was no election collective to ride, so a plain allreduce
            // establishes it.
            if has_delegates {
                global_owned + delegate_moves
            } else {
                c.allreduce_u64(owned_moves, ReduceOp::Sum)
            }
        });
        total_moves += round_moves;

        // A quiet round can simply mean the round's hash class had nothing
        // to do under the round's rule; only a full schedule period of
        // quiet rounds means the stage converged.
        if round_moves == 0 {
            quiet_rounds += 1;
        } else {
            quiet_rounds = 0;
        }

        // Exact owner reduction (and exact global MDL) every round.
        let (new_mdl, new_nmod) = comm.phase(&ph("Other"), |c| {
            sync_modules(c, st, node_term, cfg.full_module_swap, &mut bufs)
        });
        mdl_series.push(new_mdl);
        let improved = mdl - new_mdl;
        mdl = new_mdl;
        nmod = new_nmod;
        if improved < THETA {
            stalled_syncs += 1;
        } else {
            stalled_syncs = 0;
        }
        if quiet_rounds >= cycle {
            stop = StageStop::Quiesced;
            break;
        }
        // Two consecutive syncs without MDL improvement end the stage, and
        // so does a whole schedule period that gained next to nothing (the
        // merge consolidates either way).
        let period_gain = mdl_series
            .len()
            .checked_sub(cycle + 1)
            .map(|then| mdl_series[then] - mdl);
        if stalled_syncs >= 2 || period_gain.is_some_and(|g| g < STALL_PERIOD_GAIN * mdl.abs()) {
            stop = StageStop::Stalled;
            break;
        }
    }

    StageOutcome {
        inner_iterations: inner,
        total_moves,
        mdl,
        mdl_series,
        exit_flow: st.sum_exit,
        num_modules: nmod,
        stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::build_stage1_states;
    use crate::state::tests::{construction_graphs, lfr_graph};
    use infomap_core::accumulate::SLOT_HEADROOM;
    use infomap_graph::datasets::DatasetId;
    use infomap_graph::generators;
    use infomap_mpisim::World;
    use infomap_partition::{DelegateThreshold, Partition};
    use std::collections::HashMap;

    /// `rounds` owner reductions in a row on rank 0 of a fresh LFR state:
    /// per sync `(mdl, modules, work, codec bytes)`, the work without the
    /// one unit per owned module that the MDL partials always cost — what
    /// is left is arcs scanned plus records reduced and published.
    fn run_sync_rounds(p: usize, rounds: usize, full_swap: bool) -> Vec<(f64, u64, u64, u64)> {
        let g = lfr_graph(200, 3);
        let partition = Partition::delegate(&g, p, DelegateThreshold::Auto(4.0), true);
        let states = build_stage1_states(&g, &partition);
        let slots: Vec<std::sync::Mutex<Option<crate::state::LocalState>>> = states
            .into_iter()
            .map(|s| std::sync::Mutex::new(Some(s)))
            .collect();
        let inv_two_w = 1.0 / (2.0 * g.total_weight());
        let node_term: f64 = (0..g.num_vertices() as u32)
            .map(|v| plogp(g.strength(v) * inv_two_w))
            .sum();
        let cfg = DistributedConfig {
            nranks: p,
            full_module_swap: full_swap,
            ..Default::default()
        };
        let report = World::new(p).run(|comm| {
            let mut st = slots[comm.rank()].lock().unwrap().take().unwrap();
            let mut bufs = RoundBuffers::new(p);
            let mut out = Vec::new();
            for _ in 0..rounds {
                let before = comm.stats().total.clone();
                let (mdl, nmod) =
                    sync_modules(comm, &mut st, node_term, cfg.full_module_swap, &mut bufs);
                let after = &comm.stats().total;
                let work = after.work_units - before.work_units;
                let codec = after.codec_bytes - before.codec_bytes;
                out.push((mdl, nmod, work - st.owned_modules().count() as u64, codec));
            }
            out
        });
        report.results[0].clone()
    }

    #[test]
    fn repeated_syncs_without_moves_are_stable() {
        // With no moves between syncs, no module is dirty: the reduction
        // scans no arc, ships no byte and reports the identical MDL and
        // module count.
        let series = run_sync_rounds(3, 4, true);
        let (mdl0, n0, work0, codec0) = series[0];
        assert!(work0 > 0 && codec0 > 0, "the first sync reduces everything");
        for &(mdl, n, work, codec) in &series[1..] {
            assert_eq!(n, n0);
            assert_eq!(
                mdl.to_bits(),
                mdl0.to_bits(),
                "MDL drifted: {mdl0} -> {mdl}"
            );
            assert_eq!((work, codec), (0, 0));
        }
    }

    #[test]
    fn initial_sync_counts_every_vertex_as_a_singleton() {
        let series = run_sync_rounds(4, 1, true);
        // 200 vertices -> 200 singleton modules at the first sync.
        assert_eq!(series[0].1, 200);
    }

    #[test]
    fn naive_swap_mode_still_reports_exact_mdl() {
        // full_module_swap=false skips redistribution but the owner-side
        // MDL must match the full-swap value for the same assignments.
        let a = run_sync_rounds(3, 1, true);
        let b = run_sync_rounds(3, 1, false);
        assert!((a[0].0 - b[0].0).abs() < 1e-12);
        assert_eq!(a[0].1, b[0].1);
    }

    #[test]
    fn delta_codelength_is_zero_for_identity_move() {
        let from = ModuleEntry {
            flow: 0.2,
            exit: 0.1,
            members: 3,
        };
        let to = ModuleEntry {
            flow: 0.2,
            exit: 0.1,
            members: 3,
        };
        // Moving a vertex with zero flow and zero links changes nothing.
        let d = delta_codelength(0.4, &from, &to, 0.0, 0.0, 0.0, 0.0);
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn delta_codelength_favors_joining_a_connected_module() {
        // Vertex with flow 0.1, all of its 0.1 out-flow pointing into the
        // target module: joining removes boundary flow on both sides.
        let from = ModuleEntry {
            flow: 0.1,
            exit: 0.1,
            members: 1,
        };
        let to = ModuleEntry {
            flow: 0.3,
            exit: 0.15,
            members: 3,
        };
        let join = delta_codelength(0.5, &from, &to, 0.1, 0.1, 0.0, 0.1);
        // The same vertex moving to an unconnected module of equal size.
        let elsewhere = ModuleEntry {
            flow: 0.3,
            exit: 0.15,
            members: 3,
        };
        let stray = delta_codelength(0.5, &from, &elsewhere, 0.1, 0.1, 0.0, 0.0);
        assert!(join < stray, "join {join} should beat stray {stray}");
        assert!(join < 0.0, "joining a connected module should gain: {join}");
    }

    /// The smallest `u < v` with `u % p == rank_u`, `v % p == rank_v` whose
    /// hash classes both get `round`.
    fn pair_eligible_on(round: usize, p: u32, rank_u: u32, rank_v: u32) -> (u32, u32) {
        let mut found = (0u32..).filter(|&x| eligible_on(x, round));
        let u = found.find(|x| x % p == rank_u).unwrap();
        let v = found.find(|x| x % p == rank_v).unwrap();
        (u, v)
    }

    /// What an owner reduction establishes while `u` and `v` sit in two
    /// one-member modules: each carries half the flow, all of it exiting.
    fn sync_two_singletons(st: &mut LocalState, u: u32, v: u32) {
        for gid in [u as u64, v as u64] {
            st.set_module(
                gid,
                ModuleEntry {
                    flow: 0.5,
                    exit: 0.5,
                    members: 1,
                },
            );
        }
        st.sum_exit = 1.0;
    }

    /// The stage-1 states of a graph whose only edge is `u`–`v`, 1D over
    /// two ranks, as the first sync leaves them.
    fn lone_edge_states(u: u32, v: u32) -> (infomap_graph::Graph, Vec<LocalState>) {
        let g = infomap_graph::Graph::from_edges(v as usize + 1, &[(u, v, 1.0)]);
        let partition = Partition::delegate(&g, 2, DelegateThreshold::Fixed(1000), false);
        let mut states = build_stage1_states(&g, &partition);
        for st in &mut states {
            sync_two_singletons(st, u, v);
        }
        (g, states)
    }

    #[test]
    fn cross_rank_swap_pair_settles_within_one_schedule_period() {
        // u on rank 0 and v on rank 1, adjacent, each a singleton that
        // prefers the other's module, both in the hash class that gets the
        // odd rounds — the class `round % 2` never restricted.
        let (u, v) = pair_eligible_on(1, 2, 0, 1);
        let (g, states) = lone_edge_states(u, v);
        let cfg = DistributedConfig {
            nranks: 2,
            ..Default::default()
        };
        assert!(restricts_boundary(&cfg, 1) && !restricts_boundary(&cfg, 3));

        // Unrestricted on both ranks at once, the pair is a period-2 cycle:
        // each takes the other's module, and after both moved each prefers
        // the module it just left — the state mirrors itself, for ever.
        let mut cycle = states.clone();
        let mut neigh = KernelScratch::default();
        for _ in 0..2 {
            let labels: Vec<u64> = [u, v]
                .iter()
                .zip(&cycle)
                .map(|(&x, st)| st.module_id_of(st.local_of(x).unwrap() as usize))
                .collect();
            assert_ne!(labels[0], labels[1]);
            let picks: Vec<LocalCandidate> = [u, v]
                .iter()
                .zip(&cycle)
                .map(|(&x, st)| {
                    best_local_move(st, st.local_of(x).unwrap(), false, &mut neigh).unwrap()
                })
                .collect();
            for ((&x, st), c) in [u, v].iter().zip(&mut cycle).zip(&picks) {
                apply_local_move(st, st.local_of(x).unwrap(), c, 1);
            }
            // What the boundary swap and the owner reduction deliver: the
            // ghost's new module, and two one-member modules again.
            for (i, (&ghost, st)) in [v, u].iter().zip(&mut cycle).enumerate() {
                let li = st.local_of(ghost).unwrap() as usize;
                st.move_vertex(li, st.module_slot[&(labels[i] as u32)], 1);
                sync_two_singletons(st, u, v);
            }
            let after: Vec<u64> = [u, v]
                .iter()
                .zip(&cycle)
                .map(|(&x, st)| st.module_id_of(st.local_of(x).unwrap() as usize))
                .collect();
            assert_eq!(after, [labels[1], labels[0]], "the pair swapped modules");
        }

        // The four-phase schedule evaluates that class restricted first
        // (round 1: only the move toward the smaller label is admissible),
        // so exactly one of the two moves and the pair is settled before
        // the class's unrestricted turn (round 3) comes.
        let node_term: f64 = (0..g.num_vertices() as u32)
            .map(|x| plogp(g.strength(x) / (2.0 * g.total_weight())))
            .sum();
        let report = World::new(2).run(|comm| {
            let mut st = states[comm.rank()].clone();
            let out = cluster_stage(comm, &mut st, &cfg, node_term, &mut BTreeMap::new(), "s1/");
            let mine = [u, v][comm.rank()];
            (out, st.module_id_of(st.local_of(mine).unwrap() as usize))
        });
        let (out, _) = &report.results[0];
        assert_eq!(out.total_moves, 1);
        assert!(out.inner_iterations <= schedule_period(&cfg), "{out:?}");
        assert_ne!(out.stop, StageStop::Cap);
        assert_eq!(report.results[0].1, u as u64);
        assert_eq!(report.results[1].1, u as u64, "v joined the smaller label");
    }

    #[test]
    fn same_rank_swap_pair_is_merged_once_not_swapped() {
        // Both on rank 0, both eligible on round 2 (unrestricted): each is
        // evaluated against the frozen state and picks the other's module.
        let (u, v) = pair_eligible_on(2, 2, 0, 0);
        let (_, states) = lone_edge_states(u, v);
        let mut st = states[0].clone();
        let cfg = DistributedConfig {
            nranks: 2,
            ..Default::default()
        };
        let mut bufs = RoundBuffers::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        let (owned, _, proposals) = find_best_modules(&mut st, &cfg, &mut rng, &mut bufs, 2);
        // The first of the two in the shuffled order moves; the second's
        // candidate names two modules that move just changed, is
        // re-evaluated against the live state — where the pair already
        // shares a module — and dropped.
        assert_eq!((owned, proposals.len()), (1, 0));
        assert_eq!(bufs.last_sweep(), (2, 1, 1));
        assert_eq!(
            st.module_of[st.local_of(u).unwrap() as usize],
            st.module_of[st.local_of(v).unwrap() as usize]
        );
        // One more unrestricted pass (round 6; round 4 is a restricted one
        // and clears no mark) finds both settled, and from then on neither
        // is swept until a neighbor changes.
        for round in [4, 6] {
            let (owned, arcs, _) = find_best_modules(&mut st, &cfg, &mut rng, &mut bufs, round);
            assert_eq!(
                (owned, arcs, bufs.last_sweep().0),
                (0, 2, 2),
                "round {round}"
            );
        }
        let (_, arcs, _) = find_best_modules(&mut st, &cfg, &mut rng, &mut bufs, 8);
        assert_eq!((arcs, bufs.last_sweep().0), (0, 0));
    }

    #[test]
    fn revalidation_is_invariant_in_the_thread_count_where_it_fires() {
        let g = lfr_graph(600, 3);
        let partition = Partition::delegate(&g, 4, DelegateThreshold::Auto(4.0), true);
        let states = build_stage1_states(&g, &partition);
        let sweep = |threads: usize| {
            let cfg = DistributedConfig {
                nranks: 4,
                threads,
                ..Default::default()
            };
            let mut st = states[0].clone();
            st.sum_exit = st.out_flow.iter().sum();
            let mut bufs = RoundBuffers::new(4);
            let mut rng = StdRng::seed_from_u64(9);
            let mut log = Vec::new();
            for round in 0..6 {
                let (owned, arcs, proposals) =
                    find_best_modules(&mut st, &cfg, &mut rng, &mut bufs, round);
                log.push((owned, arcs, proposals.len(), bufs.last_sweep()));
            }
            let bits: Vec<(u64, u64)> = (0..st.num_module_slots())
                .map(|s| (st.mod_flow[s].to_bits(), st.mod_exit[s].to_bits()))
                .collect();
            (log, st.module_of, st.moved_at, st.swept_at, bits)
        };
        let one = sweep(1);
        let (revalidated, dropped) = one
            .0
            .iter()
            .fold((0, 0), |acc, (.., (_, r, d))| (acc.0 + r, acc.1 + d));
        assert!(revalidated > dropped && dropped > 0, "{:?}", one.0);
        assert!(one == sweep(4), "threads = 4 diverged from threads = 1");
    }

    #[test]
    fn a_hub_returns_to_the_module_it_left_only_for_a_larger_gain() {
        let winner = |to_module: u64, gain: f64| DelegateProposal {
            delegate: 7,
            to_module,
            delta: -gain,
            proposer: 0,
        };
        let mut left = BTreeMap::new();
        // Rank 0's share takes the hub from module 1 to module 2 ...
        assert!(admit_winner(&mut left, &winner(2, 0.3), 1));
        // ... rank 1's share wants it back, for less than that move gained:
        // dropped, and dropped again on the next turn.
        assert!(!admit_winner(&mut left, &winner(1, 0.2), 2));
        assert!(!admit_winner(&mut left, &winner(1, 0.3), 2));
        assert_eq!(left[&7], (1, 0.3));
        // A third module is no return; nor is a return worth more.
        assert!(admit_winner(&mut left, &winner(3, 0.1), 2));
        assert!(admit_winner(&mut left, &winner(2, 0.2), 3));
        assert_eq!(left[&7], (3, 0.2));
        // Another hub has its own record.
        let mut other = winner(1, 0.01);
        other.delegate = 8;
        assert!(admit_winner(&mut left, &other, 2));
    }

    /// Reference oracle for [`sync_modules`]: the owner reduction as it was
    /// before the dirty set, the owner table and the deltas — every sync
    /// rescans every local vertex and arc and diffs every slot against
    /// what it last shipped, sources ship absolute contributions, and the
    /// owner side lives in two maps, one of them every source's last
    /// record. It reads the rank's assignments and keeps its own copy of
    /// everything a sync carries over to the next one.
    #[derive(Default)]
    struct FullRescanSync {
        /// What each slot last shipped, as the source keeps it.
        last_contrib: Vec<(f64, f64, u32)>,
        last_contrib_active: Vec<bool>,
        owned_totals: HashMap<u64, ModuleEntry>,
        source_records: HashMap<(u64, u32), (f64, f64, u32)>,
        /// Slots that held back a fresh contribution whose bits differ
        /// from the shipped one, within the change tolerance: where
        /// keeping the computed value instead would show.
        ulp_holds: usize,
    }

    impl FullRescanSync {
        fn sync(&mut self, comm: &mut Comm, st: &LocalState, node_term: f64) -> (f64, u64) {
            let p = st.nranks;
            let nslots = st.num_module_slots();
            // Per slot: the rescan's sum, `None` until its first touch;
            // `order` lists the touched slots in first-touch order.
            let mut contrib: Vec<Option<(f64, f64, u32)>> = vec![None; nslots];
            let mut order: Vec<u32> = Vec::new();
            fn touch<'a>(
                contrib: &'a mut [Option<(f64, f64, u32)>],
                order: &mut Vec<u32>,
                m: u32,
            ) -> &'a mut (f64, f64, u32) {
                contrib[m as usize].get_or_insert_with(|| {
                    order.push(m);
                    (0.0, 0.0, 0)
                })
            }
            for li in 0..st.verts.len() {
                let m = st.module_of[li];
                match st.kind(li as u32) {
                    VertexKind::Owned => {
                        let e = touch(&mut contrib, &mut order, m);
                        e.0 += st.node_flow[li];
                        e.2 += 1;
                    }
                    VertexKind::DelegateCopy => {
                        let e = touch(&mut contrib, &mut order, m);
                        e.0 += st.node_flow[li];
                        if (st.verts[li] as usize) % p == st.rank {
                            e.2 += 1;
                        }
                    }
                    VertexKind::Ghost => {
                        touch(&mut contrib, &mut order, m);
                    }
                }
            }
            for li in 0..st.verts.len() as u32 {
                if st.kind(li) == VertexKind::Ghost {
                    continue;
                }
                let m_src = st.module_of[li as usize];
                let inv_two_w = st.inv_two_w;
                for (tgt, w) in st.arcs_of(li) {
                    if tgt == li {
                        continue;
                    }
                    let m_dst = st.module_of[tgt as usize];
                    if m_src != m_dst {
                        touch(&mut contrib, &mut order, m_src).1 += w * inv_two_w;
                        touch(&mut contrib, &mut order, m_dst);
                    }
                }
            }

            self.last_contrib.resize(nslots, (0.0, 0.0, 0));
            self.last_contrib_active.resize(nslots, false);
            // The oracle's records carry absolute contributions, each field
            // as it is (members reinterpreted), and its owner subtracts the
            // source's previous record.
            let mut out: Vec<Vec<ModuleContribution>> = vec![Vec::new(); p];
            let bits = |c: &(f64, f64, u32)| (c.0.to_bits(), c.1.to_bits(), c.2);
            for &s in &order {
                let si = s as usize;
                let c = contrib[si].expect("touched");
                let (active, old) = (self.last_contrib_active[si], self.last_contrib[si]);
                if active && !contrib_changed(&old, &c) {
                    self.ulp_holds += (bits(&old) != bits(&c)) as usize;
                    continue;
                }
                let gid = st.module_gid(si as u32);
                out[(gid % p as u64) as usize].push(ModuleContribution {
                    mod_id: gid,
                    flow: c.0,
                    exit: c.1,
                    members: c.2 as i32,
                    retract: false,
                });
                self.last_contrib[si] = c;
                self.last_contrib_active[si] = true;
            }
            for (s, fresh) in contrib.iter().enumerate() {
                if self.last_contrib_active[s] && fresh.is_none() {
                    let gid = st.module_gid(s as u32);
                    out[(gid % p as u64) as usize].push(ModuleContribution {
                        mod_id: gid,
                        flow: 0.0,
                        exit: 0.0,
                        members: 0,
                        retract: true,
                    });
                    self.last_contrib_active[s] = false;
                    self.last_contrib[s] = (0.0, 0.0, 0);
                }
            }
            let outgoing: Vec<Vec<u8>> = out
                .iter_mut()
                .map(|bucket| {
                    bucket.sort_by_key(|c| c.mod_id);
                    let mut buf = Vec::new();
                    codec::encode_contribs(&mut buf, bucket);
                    buf
                })
                .collect();
            let packets = comm.alltoallv(outgoing);

            let mut changed: Vec<u64> = Vec::new();
            for (src, buf) in packets.iter().enumerate() {
                for c in codec::decode_contribs(buf, &mut 0) {
                    let key = (c.mod_id, src as u32);
                    let new = (c.flow, c.exit, c.members as u32);
                    let old = self.source_records.get(&key).copied().unwrap_or_default();
                    let entry = self.owned_totals.entry(c.mod_id).or_default();
                    entry.flow += new.0 - old.0;
                    entry.exit += new.1 - old.1;
                    entry.members = (entry.members + new.2) - old.2;
                    if c.retract {
                        self.source_records.remove(&key);
                    } else {
                        self.source_records.insert(key, new);
                    }
                    if contrib_changed(&old, &new) {
                        changed.push(c.mod_id);
                    }
                }
            }
            for m in changed {
                if (self.owned_totals.get(&m)).is_some_and(|t| t.members == 0 && t.flow <= 1e-15) {
                    self.owned_totals.remove(&m);
                }
            }

            let mut ids: Vec<u64> = self.owned_totals.keys().copied().collect();
            ids.sort_unstable();
            let (mut q, mut s1, mut s2) = (0.0, 0.0, 0.0);
            for m in &ids {
                let t = &self.owned_totals[m];
                let exit = t.exit.max(0.0);
                q += exit;
                s1 += plogp(exit);
                s2 += plogp(exit + t.flow.max(0.0));
            }
            let red = comm.allreduce_with((q, s1, s2, ids.len() as u64), |parts| {
                parts.into_iter().fold((0.0, 0.0, 0.0, 0u64), |acc, x| {
                    (acc.0 + x.0, acc.1 + x.1, acc.2 + x.2, acc.3 + x.3)
                })
            });
            let (sum_exit, s_plogp_exit, s_plogp_both, nmod) = *red;
            let mdl = plogp(sum_exit) - 2.0 * s_plogp_exit - node_term + s_plogp_both;
            (mdl, nmod)
        }

        /// Everything `st` carries from one sync to the next equals this
        /// oracle's copy, floats by bit pattern: a source's `last_contrib`
        /// is what it last shipped, its owners' totals are the absolute
        /// protocol's, and an owner lists exactly the subscribing ranks.
        fn assert_matches(&self, st: &LocalState, when: &str) {
            let bits = |c: &(f64, f64, u32)| (c.0.to_bits(), c.1.to_bits(), c.2);
            assert!(st.dirty_slots.is_empty() && !st.slot_dirty.contains(&true));
            for s in 0..st.num_module_slots() {
                let want = (self.last_contrib.get(s)).map_or((0, 0, 0), bits);
                let active = self.last_contrib_active.get(s).copied().unwrap_or(false);
                assert_eq!(bits(&st.last_contrib[s]), want, "{when}: slot {s}");
                assert_eq!(st.last_contrib_active[s], active, "{when}: slot {s}");
            }
            assert_eq!(st.owned_modules().count(), self.owned_totals.len());
            for (m, t) in st.owned_modules() {
                let want = self.owned_totals[&m];
                assert_eq!(
                    bits(&(t.flow, t.exit, t.members)),
                    bits(&(want.flow, want.exit, want.members)),
                    "{when}: module {m}"
                );
            }
            // The rank list ≡ the subscribers ≡ the live source records.
            let mut subs: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            for &(m, r) in self.source_records.keys() {
                subs.entry(m).or_default().push(r);
            }
            for (i, module) in st.owner.iter().enumerate() {
                let m = (i * st.nranks + st.rank) as u64;
                let mut want = subs.remove(&m).unwrap_or_default();
                want.sort_unstable();
                assert_eq!(module.sources, want, "{when}: module {m}");
            }
            assert!(subs.is_empty(), "{when}: sources of modules not owned here");
        }
    }

    /// The stage-1 rank states of `g` on `p` ranks, with the delegate set
    /// and the MDL node term.
    fn stage1_world(g: &infomap_graph::Graph, p: usize) -> (Vec<LocalState>, Vec<u32>, f64) {
        let partition = Partition::delegate(g, p, DelegateThreshold::Auto(4.0), true);
        let states = build_stage1_states(g, &partition);
        let inv_two_w = 1.0 / (2.0 * g.total_weight());
        let node_term: f64 = (0..g.num_vertices() as u32)
            .map(|v| plogp(g.strength(v) * inv_two_w))
            .sum();
        (states, partition.delegates, node_term)
    }

    /// One owner reduction, shadowed by the oracle: the same result and
    /// the same carried state, to the bit.
    fn shadowed_sync(
        comm: &mut Comm,
        st: &mut LocalState,
        oracle: &mut FullRescanSync,
        bufs: &mut RoundBuffers,
        node_term: f64,
        when: &str,
    ) {
        let want = oracle.sync(comm, st, node_term);
        let got = sync_modules(comm, st, node_term, true, bufs);
        oracle.assert_matches(st, when);
        assert_eq!(
            (got.0.to_bits(), got.1),
            (want.0.to_bits(), want.1),
            "{when}"
        );
    }

    /// One stage's rounds on `st`, in `cluster_stage`'s order, with `sync`
    /// standing in for every owner reduction. `sync` is handed the local
    /// vertices an elected winner or a boundary update moved that round
    /// (none at the stage's first sync). Returns the rounds run and the
    /// stage's buffers.
    fn drive_stage(
        comm: &mut Comm,
        st: &mut LocalState,
        cfg: &DistributedConfig,
        delegate_assign: &mut BTreeMap<u32, u64>,
        mut sync: impl FnMut(&mut Comm, &mut LocalState, &mut RoundBuffers, &[u32], &str),
    ) -> (usize, RoundBuffers) {
        let mut bufs = RoundBuffers::new(st.nranks);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ comm.rank() as u64);
        sync(comm, st, &mut bufs, &[], "init");
        let (mut quiet, mut rounds) = (0, 0);
        while rounds < MAX_ROUNDS && quiet < schedule_period(cfg) {
            let tick = rounds as u32 + 1;
            let (owned, _, proposals) = find_best_modules(st, cfg, &mut rng, &mut bufs, rounds);
            let swept = st.module_of.clone();
            let (delegates, owned) =
                broadcast_delegates(comm, st, proposals, owned, delegate_assign, &mut bufs, tick);
            swap_boundary_info(comm, st, tick, &mut bufs);
            let moved: Vec<u32> = (0..swept.len() as u32)
                .filter(|&li| swept[li as usize] != st.module_of[li as usize])
                .collect();
            sync(comm, st, &mut bufs, &moved, &format!("round {rounds}"));
            quiet = if owned + delegates == 0 { quiet + 1 } else { 0 };
            rounds += 1;
        }
        (rounds, bufs)
    }

    fn stage_config(p: usize, seed: u64) -> DistributedConfig {
        DistributedConfig {
            nranks: p,
            seed,
            ..Default::default()
        }
    }

    /// Run a whole stage-1 clustering of `g` on `p` ranks, every owner
    /// reduction shadowed by the full-rescan oracle. Returns the rounds run
    /// and the oracle's ulp-level holds, summed over the ranks.
    fn stage_against_full_rescan(g: &infomap_graph::Graph, p: usize, seed: u64) -> (usize, usize) {
        let (states, delegates, node_term) = stage1_world(g, p);
        let cfg = stage_config(p, seed);
        let report = World::new(p).run(|comm| {
            let mut st = states[comm.rank()].clone();
            let mut oracle = FullRescanSync::default();
            let mut delegate_assign: BTreeMap<u32, u64> =
                delegates.iter().map(|&d| (d, d as u64)).collect();
            let sync = |comm: &mut Comm,
                        st: &mut LocalState,
                        bufs: &mut RoundBuffers,
                        _: &[u32],
                        when: &str| {
                shadowed_sync(comm, st, &mut oracle, bufs, node_term, when)
            };
            let rounds = drive_stage(comm, &mut st, &cfg, &mut delegate_assign, sync).0;
            (rounds, oracle.ulp_holds)
        });
        let holds = report.results.iter().map(|r| r.1).sum();
        (report.results[0].0, holds)
    }

    /// One owner reduction, then the check that makes phases 2 and 3 free
    /// of statistics: the slot of every vertex in `moved` holds its
    /// owner's totals, to the bit. Each rank sends the owners what it
    /// holds and the owners compare. Returns `(delegate copies, ghosts)`
    /// among `moved`.
    fn sync_and_check_moved(
        comm: &mut Comm,
        st: &mut LocalState,
        bufs: &mut RoundBuffers,
        node_term: f64,
        moved: &[u32],
        when: &str,
    ) -> (usize, usize) {
        sync_modules(comm, st, node_term, true, bufs);
        let p = st.nranks;
        let mut held: Vec<Vec<ModuleInfoMsg>> = vec![Vec::new(); p];
        for &li in moved {
            let s = st.module_of[li as usize];
            let gid = st.module_gid(s);
            held[(gid % p as u64) as usize].push(info_msg(gid, st.module_entry(s)));
        }
        let packets = comm.alltoallv(
            (held.iter())
                .map(|infos| {
                    let mut buf = Vec::new();
                    codec::encode_infos(&mut buf, infos);
                    buf
                })
                .collect(),
        );
        let bits = |e: ModuleEntry| (e.flow.to_bits(), e.exit.to_bits(), e.members);
        for (src, buf) in packets.iter().enumerate() {
            for m in codec::decode_infos(buf, &mut 0) {
                let want = st.owned_module(module_u32(m.mod_id)).totals;
                assert_eq!(
                    bits(entry_of(&m)),
                    bits(want),
                    "{when}: rank {src} holds module {} as {m:?}, its owner {want:?}",
                    m.mod_id
                );
            }
        }
        let delegates = moved.iter().filter(|&&li| st.is_delegate(li)).count();
        (delegates, moved.len() - delegates)
    }

    #[test]
    fn winners_and_ghost_updates_land_in_slots_holding_the_owner_totals() {
        for (name, g) in construction_graphs() {
            for p in [2, 3, 4] {
                let (states, delegates, node_term) = stage1_world(&g, p);
                let cfg = stage_config(p, 5);
                let report = World::new(p).run(|comm| {
                    let mut st = states[comm.rank()].clone();
                    // Per stage: (delegate copies, ghosts) checked.
                    let mut seen = [(0, 0); 2];
                    let mut delegate_assign: BTreeMap<u32, u64> =
                        delegates.iter().map(|&d| (d, d as u64)).collect();
                    for (stage, assign) in [&mut delegate_assign, &mut BTreeMap::new()]
                        .into_iter()
                        .enumerate()
                    {
                        let seen = &mut seen[stage];
                        let check = |comm: &mut Comm,
                                     st: &mut LocalState,
                                     bufs: &mut RoundBuffers,
                                     moved: &[u32],
                                     when: &str| {
                            let when = format!("{name} p={p} stage {}: {when}", stage + 1);
                            let (d, g) =
                                sync_and_check_moved(comm, st, bufs, node_term, moved, &when);
                            *seen = (seen.0 + d, seen.1 + g);
                        };
                        drive_stage(comm, &mut st, &cfg, assign, check);
                        if stage == 0 {
                            st = crate::driver::distributed_merge(comm, st).state;
                        }
                    }
                    seen
                });
                let total = |stage: usize| {
                    (report.results.iter())
                        .fold((0, 0), |acc, s| (acc.0 + s[stage].0, acc.1 + s[stage].1))
                };
                let (s1, s2) = (total(0), total(1));
                assert!(
                    s1.1 > 0 && s2.1 > 0,
                    "{name} p={p}: no ghost update checked"
                );
                if name == "uk2007" {
                    assert!(s1.0 > 0, "{name} p={p}: no elected winner checked");
                }
            }
        }
    }

    #[test]
    fn slot_arrays_and_round_maps_grow_by_an_eighth_not_by_doubling() {
        // A stage interns a few percent more slots than it starts with;
        // doubling on the first of them would leave ~half of every slot
        // array unused. The round scratch does not grow with the slots at
        // all: a kernel map is sized by the largest arc span it scanned.
        let fits = |cap: usize, slots: usize| cap <= slots + slots / SLOT_HEADROOM + 8;
        let slot_capacities = |st: &LocalState| {
            [
                st.module_ids.capacity(),
                st.mod_flow.capacity(),
                st.mod_exit.capacity(),
                st.mod_members.capacity(),
                st.last_contrib.capacity(),
                st.last_contrib_active.capacity(),
                st.slot_dirty.capacity(),
            ]
        };
        for (name, g) in construction_graphs() {
            let p = 4;
            for threads in [1, 2] {
                let cfg = DistributedConfig {
                    threads,
                    ..stage_config(p, 5)
                };
                // Moved into the ranks, not cloned: a clone's capacities
                // are its lengths.
                let (states, delegates, node_term) = stage1_world(&g, p);
                let states: Vec<std::sync::Mutex<Option<LocalState>>> = states
                    .into_iter()
                    .map(|st| std::sync::Mutex::new(Some(st)))
                    .collect();
                let report = World::new(p).run(|comm| {
                    let mut st = states[comm.rank()].lock().unwrap().take().unwrap();
                    let start = st.num_module_slots();
                    // Straight from `assemble`: `push_slot`'s headroom.
                    for cap in slot_capacities(&st) {
                        assert!(
                            cap >= start + start / SLOT_HEADROOM
                                && cap <= start + start / SLOT_HEADROOM + 1,
                            "{name} rank {}: {cap} for {start} slots at the stage start",
                            st.rank
                        );
                    }
                    let mut delegate_assign: BTreeMap<u32, u64> =
                        delegates.iter().map(|&d| (d, d as u64)).collect();
                    let sync = |comm: &mut Comm,
                                st: &mut LocalState,
                                bufs: &mut RoundBuffers,
                                _: &[u32],
                                _: &str| {
                        sync_modules(comm, st, node_term, true, bufs);
                    };
                    let (_, bufs) = drive_stage(comm, &mut st, &cfg, &mut delegate_assign, sync);
                    let slots = st.num_module_slots();
                    for cap in slot_capacities(&st) {
                        assert!(
                            fits(cap, slots),
                            "{name} t={threads} rank {}: {cap} for {slots} slots",
                            st.rank
                        );
                    }
                    let span = (st.movable()).map(|li| arc_span(&st, li)).max();
                    let bound = 2 * (span.unwrap_or(0) as usize).next_power_of_two();
                    assert!(!bufs.slices.is_empty(), "{name} t={threads}: no sweep ran");
                    for (i, slice) in bufs.slices.iter().enumerate() {
                        let cap = slice.kernel.neigh.capacity();
                        assert!(
                            cap <= bound,
                            "{name} t={threads} rank {} slice {i}: {cap} buckets, \
                             largest arc span {span:?}",
                            st.rank
                        );
                    }
                    (start, slots)
                });
                assert!(
                    report.results.iter().any(|&(start, slots)| slots > start),
                    "{name}: stage 1 interned nothing, so nothing grew"
                );
            }
        }
    }

    #[test]
    fn dirty_sync_matches_full_rescan_bitwise() {
        // LFR (no hubs) and the UK-2007 stand-in (delegates, elections).
        // Some slots hold back: their members changed and their sums came
        // back within 1e-15 of what they last shipped, but not to its
        // bits. Such a slot does not ship, and its `last_contrib` must go
        // back to the shipped bits, which the oracle compares after every
        // sync (seed 3 at p = 2 has 8; an unweighted graph, whose sums are
        // multiples of 1/2W, has none).
        let mut holds = 0;
        for seed in [3, 7, 11] {
            let lfr = lfr_graph(600, seed);
            let (hub, _) = DatasetId::Uk2007.profile().generate_scaled(0.02, seed);
            for p in [2, 4] {
                for g in [&lfr, &hub] {
                    let (rounds, held) = stage_against_full_rescan(g, p, seed);
                    assert!(rounds > 4, "seed {seed}, p = {p}: {rounds} rounds");
                    holds += held;
                }
            }
        }
        assert!(holds > 0, "no slot held back a changed sum");
    }

    #[test]
    fn sweeps_without_a_sync_keep_the_dirty_set_bounded_and_exact() {
        // What a harness does that replays sweeps outside a communicator:
        // six `find_best_modules` calls and no owner reduction in between.
        let g = lfr_graph(600, 5);
        let p = 4;
        let (states, _, node_term) = stage1_world(&g, p);
        let cfg = DistributedConfig {
            nranks: p,
            ..Default::default()
        };
        let report = World::new(p).run(|comm| {
            let mut st = states[comm.rank()].clone();
            let mut oracle = FullRescanSync::default();
            let mut bufs = RoundBuffers::new(p);
            let mut rng = StdRng::seed_from_u64(comm.rank() as u64);
            shadowed_sync(comm, &mut st, &mut oracle, &mut bufs, node_term, "init");
            let mut moves = 0;
            for round in 0..6 {
                moves += find_best_modules(&mut st, &cfg, &mut rng, &mut bufs, round).0;
                // Every slot at most once, however often it changed hands.
                assert!(st.dirty_slots.len() <= st.num_module_slots());
                let flagged = st.slot_dirty.iter().filter(|&&d| d).count();
                assert_eq!(flagged, st.dirty_slots.len());
            }
            let dirty = st.dirty_slots.len();
            shadowed_sync(comm, &mut st, &mut oracle, &mut bufs, node_term, "after");
            (moves, dirty)
        });
        for &(moves, dirty) in &report.results {
            assert!(moves > 0 && dirty > 0 && dirty as u64 <= 2 * moves);
        }
    }

    /// Reference oracle for [`best_local_move`]: the straightforward
    /// O(deg·k) kernel that accumulates neighbor-module flow by scanning a
    /// scratch vec.
    fn best_local_move_scan(
        st: &LocalState,
        li: u32,
        min_label: bool,
        scratch: &mut Vec<(u32, f64, bool)>,
    ) -> Option<LocalCandidate> {
        scratch.clear();
        let current = st.module_of[li as usize];
        let mut flow_to_current = 0.0;
        for (tgt, w) in st.arcs_of(li) {
            if tgt == li {
                continue;
            }
            let f = w * st.inv_two_w;
            let m = st.module_of[tgt as usize];
            let ghost = st.kind(tgt) == VertexKind::Ghost;
            if m == current {
                flow_to_current += f;
            } else {
                match scratch.iter_mut().find(|(mm, _, _)| *mm == m) {
                    Some((_, acc, b)) => {
                        *acc += f;
                        *b |= ghost;
                    }
                    None => scratch.push((m, f, ghost)),
                }
            }
        }
        if scratch.is_empty() {
            return None;
        }
        let from = st.module_entry(current);
        let current_gid = st.module_gid(current);
        let p_u = st.node_flow[li as usize];
        let out_u = st.out_flow[li as usize];
        let mut best: Option<LocalCandidate> = None;
        let mut best_gid = u64::MAX;
        for &(m, flow_to_target, via_ghost) in scratch.iter() {
            let gid = st.module_gid(m);
            if min_label && via_ghost && gid >= current_gid {
                continue; // boundary community: minimum-label rule
            }
            let to = st.module_entry(m);
            let delta = delta_codelength(
                st.sum_exit,
                &from,
                &to,
                p_u,
                out_u,
                flow_to_current,
                flow_to_target,
            );
            if delta >= -MIN_GAIN {
                continue;
            }
            let better = match &best {
                None => true,
                Some(b) => {
                    delta < b.delta - 1e-12 || ((delta - b.delta).abs() <= 1e-12 && gid < best_gid)
                }
            };
            if better {
                best = Some(LocalCandidate {
                    to_slot: m,
                    delta,
                    flow_to_current,
                    flow_to_target,
                });
                best_gid = gid;
            }
        }
        best
    }

    /// What [`assert_kernel_matches_scan`] compared.
    #[derive(Default)]
    struct KernelCheck {
        /// Vertices with a candidate.
        candidates: usize,
        /// Most candidate modules of one vertex.
        widest: usize,
        /// Candidates whose `q_j_new` clamps to 0 (a `plogp` fix-up lane).
        clamped: usize,
    }

    /// Every movable vertex of `st`, restricted and not: the kernel's
    /// candidate equals the scan oracle's — which still evaluates the
    /// un-hoisted [`delta_codelength`] — to the bit.
    fn assert_kernel_matches_scan(st: &LocalState, what: &str) -> KernelCheck {
        let mut neigh = KernelScratch::default();
        let mut scan: Vec<(u32, f64, bool)> = Vec::new();
        let mut checked = KernelCheck::default();
        for restrict in [false, true] {
            for li in st.movable() {
                let a = best_local_move(st, li, restrict, &mut neigh);
                let b = best_local_move_scan(st, li, restrict, &mut scan);
                let out_u = st.out_flow[li as usize];
                checked.widest = checked.widest.max(scan.len());
                checked.clamped += (scan.iter())
                    .filter(|&&(m, f, _)| st.mod_exit[m as usize] + out_u - 2.0 * f < 0.0)
                    .count();
                let bits = |c: Option<LocalCandidate>| {
                    c.map(|c| {
                        let flows = (c.flow_to_target.to_bits(), c.flow_to_current.to_bits());
                        (c.to_slot, c.delta.to_bits(), flows)
                    })
                };
                assert_eq!(bits(a), bits(b), "{what}: vertex {li}, restrict {restrict}");
                checked.candidates += a.is_some() as usize;
            }
        }
        checked
    }

    #[test]
    fn stamped_kernel_matches_legacy_scan_bitwise() {
        // The kernel and its oracle must agree to the bit on real stage-1
        // states — same target slot, same δL bits, same flow bits —
        // including under the minimum-label restriction, and in the states
        // where a hoisted source-side term or a batched `plogp` lane could
        // go wrong.
        let mut clamped = 0;
        for seed in [3, 7, 11] {
            let degs = generators::power_law_degrees(300, 2.1, 2, 80, seed);
            let g = generators::chung_lu(&degs, seed + 1);
            let partition = Partition::delegate(&g, 4, DelegateThreshold::Auto(4.0), true);
            assert!(!partition.delegates.is_empty(), "seed {seed} grew no hubs");
            let mut checked = [0usize; 6];
            for st in &build_stage1_states(&g, &partition) {
                // Stage start as `assemble` leaves it: the exit sum still 0,
                // so q_new sits on its clamp.
                let mut st = st.clone();
                assert_eq!(st.sum_exit, 0.0);
                checked[0] += assert_kernel_matches_scan(&st, "stage start").candidates;
                // ...and as the Init sync refreshes it.
                st.sum_exit = st.out_flow.iter().sum();
                checked[1] += assert_kernel_matches_scan(&st, "refreshed").candidates;

                // A source module the move leaves empty *and* overdrawn: a
                // view holding less than the vertex takes out of it, so
                // both `max(0.0)` clamps of the source side engage.
                let mut stale = st.clone();
                for s in 0..stale.num_module_slots() {
                    stale.mod_flow[s] *= 0.5;
                    stale.mod_exit[s] *= 0.5;
                }
                checked[2] += assert_kernel_matches_scan(&stale, "overdrawn source").candidates;

                // A delegate copy whose local share is zero.
                let mut zero = st.clone();
                for li in st.movable() {
                    if st.is_delegate(li) {
                        zero.node_flow[li as usize] = 0.0;
                        zero.out_flow[li as usize] = 0.0;
                    }
                }
                checked[3] += assert_kernel_matches_scan(&zero, "zero share").candidates;

                // Apply a round of scan-kernel moves so the last passes see
                // non-singleton statistics.
                let mut scan: Vec<(u32, f64, bool)> = Vec::new();
                for li in st.movable() {
                    if let Some(c) = best_local_move_scan(&st, li, false, &mut scan) {
                        apply_local_move(&mut st, li, &c, 1);
                    }
                }
                checked[4] += assert_kernel_matches_scan(&st, "after moves").candidates;

                // Drained exits: every other module's q_j is 0, and a
                // vertex sending more than half its out-flow into such a
                // module clamps that candidate's q_j_new to 0 — lanes only
                // the scalar tail of `plogp_slice` computes, batched with
                // the fast lanes of the undrained modules.
                let mut drained = st.clone();
                drained
                    .mod_exit
                    .iter_mut()
                    .step_by(2)
                    .for_each(|q| *q = 0.0);
                let check = assert_kernel_matches_scan(&drained, "drained exits");
                checked[5] += check.candidates;
                clamped += check.clamped;
            }
            assert!(checked.iter().all(|&c| c > 0), "seed {seed}: {checked:?}");
        }
        assert!(clamped > 0, "no candidate clamped q_j_new to 0");

        // More candidates than one δL chunk: with no delegates a hub keeps
        // all its arcs, and at stage start every neighbor is a module of
        // its own, so the kernel scores it over several chunks.
        let mut widest = 0;
        for seed in [3, 7] {
            let degs = generators::power_law_degrees(300, 2.1, 2, 200, seed);
            let g = generators::chung_lu(&degs, seed + 1);
            let partition = Partition::delegate(&g, 2, DelegateThreshold::Fixed(usize::MAX), true);
            assert!(partition.delegates.is_empty(), "seed {seed}");
            for st in &build_stage1_states(&g, &partition) {
                let mut st = st.clone();
                st.sum_exit = st.out_flow.iter().sum();
                let check = assert_kernel_matches_scan(&st, "wide hub");
                assert!(check.candidates > 0, "seed {seed}");
                widest = widest.max(check.widest);
            }
        }
        assert!(widest > DELTA_CHUNK, "widest neighborhood {widest}");
    }
}
