//! Round-boundary checkpointing of the distributed clustering state.
//!
//! A checkpoint is everything a rank needs to resume the algorithm from a
//! committed round boundary: its [`LocalState`] (module assignments and
//! statistics, delta-sync bookkeeping), the stage cursor (round number,
//! MDL trajectory, mid-stream RNG), the delegate assignment, and the
//! driver-level carry (original-vertex assignments, stage trace, previous
//! MDL). Restoring a snapshot and replaying the remaining rounds is
//! bit-identical to the uninterrupted run, because the RNG resumes exactly
//! where it was captured.
//!
//! Most of that state never changes inside a stage (the level topology,
//! the flows, the boundary lists, the driver carry), so the serialized
//! form is two sections: a **stage base** written once per (stage, level)
//! and a **round delta** written at every boundary (see "Snapshot
//! serialization" below).
//!
//! Consistency is by construction, not by protocol: commits only happen
//! immediately after a consensus collective with no communication event in
//! between (see `cluster_stage_recoverable`), and injected crashes only
//! fire at communication-event boundaries — so either every rank committed
//! a boundary or none did, and [`CheckpointStore::latest_pos`] can insist
//! on global agreement.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use infomap_mpisim::{WireDecodeError, WirePayload};
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::codec::put_uvarint;
use crate::driver::StageTrace;
use crate::idhash::IdBuild;
use crate::rounds::{StageCursor, StageStop};
use crate::state::{LocalState, ModuleEntry, OwnedModule, VertexKind};

/// Global position of a snapshot: which stage, merge level and round the
/// checkpointed boundary belongs to. Identical on every rank of a
/// committed checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SnapshotPos {
    /// 1 = stage-1 clustering (with delegates), 2 = stage-2.
    pub stage: u8,
    /// Merge level (0 for stage 1).
    pub level: u32,
    /// The next round the resumed stage will execute.
    pub round: u32,
}

impl SnapshotPos {
    /// Pack into one word for cheap consensus collectives.
    pub fn as_word(&self) -> u64 {
        ((self.stage as u64) << 48) | ((self.level as u64) << 16) | self.round as u64
    }
}

/// One rank's checkpoint.
#[derive(Clone, Debug)]
pub struct RankSnapshot {
    pub pos: SnapshotPos,
    /// The clustering state of the current level.
    pub st: LocalState,
    /// Mid-stage cursor to resume `cluster_stage_recoverable` from.
    pub cursor: StageCursor,
    /// Delegate (stage 1) assignment map at the boundary.
    pub delegate_assign: BTreeMap<u32, u64>,
    /// Original-vertex assignments carried by the driver (empty during
    /// stage 1, where they are derived at the first merge).
    pub assign: Vec<(u32, u32)>,
    /// Stage trace accumulated so far.
    pub trace: Vec<StageTrace>,
    /// MDL of the last completed stage (driver carry).
    pub prev_mdl: f64,
    /// Vertex count of the current level graph (driver carry).
    pub level_vertices: usize,
}

/// A [`RankSnapshot`] over borrowed state: what the driver's checkpoint
/// hook hands a store at a round boundary, so committing never clones the
/// rank's [`LocalState`]. Field for field the same as the owned form.
///
/// Everything except `pos.round`, `cursor`, `delegate_assign` and the
/// mutable part of `st` (module tables, delta-sync bookkeeping) must be
/// identical in every view a store is handed for one (stage, level) —
/// `run_rank` only changes it between stages — which is what lets a store
/// keep it once.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotView<'a> {
    pub pos: SnapshotPos,
    pub st: &'a LocalState,
    pub cursor: &'a StageCursor,
    pub delegate_assign: &'a BTreeMap<u32, u64>,
    pub assign: &'a [(u32, u32)],
    pub trace: &'a [StageTrace],
    pub prev_mdl: f64,
    pub level_vertices: usize,
}

impl SnapshotView<'_> {
    /// Modeled bytes of one round-boundary commit: the evolving clustering
    /// data a rank has a live view of. Used to meter checkpoint
    /// writes/reads for the cost model.
    ///
    /// This prices, record by record, what a round *delta* writes — the
    /// slot assignments, the announced boundary modules, the module tables
    /// of present slots, the live delta-sync contributions, the owner
    /// table, the delegate maps, the active-set marks, the MDL series —
    /// plus the carried `assign` pairs, which the file store writes once
    /// per (stage, level) in the stage base. It does not count the rest of
    /// the base (level topology, flows, boundary lists, trace) nor the
    /// module ids interned since the base. Stage-1 deltas measure within
    /// 5 % of it once the singleton tables have thinned out
    /// (`tests/checkpoint_bytes.rs`); the file store's measured counts are
    /// [`FileCheckpointStore::bytes_written`].
    pub fn approx_wire_bytes(&self) -> u64 {
        const SLOT_RECORD: u64 = 4 + ENTRY_BYTES as u64;
        let st = self.st;
        let announced = st.last_announced.iter().filter(|&&g| g != u64::MAX);
        let assignments = st.module_of.len() as u64 * 4 + announced.count() as u64 * 12;
        // Slot (4) + flow/exit (16) + members (4), for the modules this
        // rank has a live view of; the same for a shipped contribution.
        let tables = st.num_known_modules() as u64 * SLOT_RECORD;
        let delta_bookkeeping = st.num_active_contribs() as u64 * SLOT_RECORD;
        // Index, flag, totals and a length prefix per live owned module,
        // rank + contribution per source.
        let live = st.owner.iter().filter(|m| m.is_live());
        let owner: u64 = live
            .map(|m| OWNED_MODULE_BYTES as u64 + m.sources.len() as u64 * SLOT_RECORD)
            .sum();
        let delegate = self.delegate_assign.len() as u64 * 12 + st.delegate_left.len() as u64 * 20;
        let carry = self.assign.len() as u64 * 8 + self.cursor.mdl_series.len() as u64 * 8;
        // Active-set marks: one byte per stamp until round 127.
        let marks = (st.moved_at.len() + st.movable.len()) as u64;
        // Position, base reference, cursor scalars and length prefixes.
        assignments + tables + delta_bookkeeping + owner + delegate + carry + marks + 192
    }

    /// The owned form (one clone of everything viewed).
    pub fn to_snapshot(&self) -> RankSnapshot {
        RankSnapshot {
            pos: self.pos,
            st: self.st.clone(),
            cursor: self.cursor.clone(),
            delegate_assign: self.delegate_assign.clone(),
            assign: self.assign.to_vec(),
            trace: self.trace.to_vec(),
            prev_mdl: self.prev_mdl,
            level_vertices: self.level_vertices,
        }
    }

    /// Serialize as `[base section][delta section]` — see
    /// [`RankSnapshot::encode`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let base = write_base_section(self, &mut out);
        write_delta_section(self, &base, &mut out);
        out
    }
}

impl RankSnapshot {
    /// This snapshot as a borrowed view.
    pub fn view(&self) -> SnapshotView<'_> {
        SnapshotView {
            pos: self.pos,
            st: &self.st,
            cursor: &self.cursor,
            delegate_assign: &self.delegate_assign,
            assign: &self.assign,
            trace: &self.trace,
            prev_mdl: self.prev_mdl,
            level_vertices: self.level_vertices,
        }
    }

    /// See [`SnapshotView::approx_wire_bytes`].
    pub fn approx_wire_bytes(&self) -> u64 {
        self.view().approx_wire_bytes()
    }
}

/// Where committed snapshots live, abstracted over the run mode.
///
/// The thread world uses the in-memory [`CheckpointStore`]; a
/// multi-process run uses the [`FileCheckpointStore`], whose snapshots
/// survive a SIGKILLed rank. The driver's retry loop and the process
/// launcher both speak only this trait.
///
/// The in-memory store can rely on the simulator's guarantee that commits
/// are all-or-nothing across ranks; a real process can die *between* the
/// consensus collective and its own commit, so `agreed_pos` must find the
/// newest boundary **every** rank holds a snapshot for (which is why the
/// file store retains two generations per rank).
pub trait SnapshotStore: Sync {
    /// Commit `rank`'s checkpoint at `view.pos` from borrowed state — the
    /// entry point the driver's round-boundary hook calls.
    fn commit_view(&self, rank: usize, view: &SnapshotView<'_>);

    /// Commit an owned snapshot at its position.
    fn commit(&self, rank: usize, snap: &RankSnapshot) {
        self.commit_view(rank, &snap.view());
    }

    /// The newest position every rank has a committed snapshot for.
    fn agreed_pos(&self) -> Option<SnapshotPos>;

    /// `rank`'s snapshot at the agreed position.
    fn restore_agreed(&self, rank: usize) -> Option<RankSnapshot>;

    /// Total rank-snapshot commits over the store's lifetime.
    fn checkpoints_committed(&self) -> u64;
}

/// In-memory stand-in for the checkpoint storage of a real deployment
/// (burst buffer / parallel FS): one slot per rank, written behind the
/// stage's consensus collective and read back at the start of a retry.
#[derive(Debug)]
pub struct CheckpointStore {
    slots: Vec<Mutex<Option<RankSnapshot>>>,
    commits: AtomicU64,
}

impl CheckpointStore {
    pub fn new(nranks: usize) -> Self {
        CheckpointStore {
            slots: (0..nranks).map(|_| Mutex::new(None)).collect(),
            commits: AtomicU64::new(0),
        }
    }

    /// Commit `rank`'s snapshot, replacing any older one.
    pub fn commit(&self, rank: usize, snap: RankSnapshot) {
        *self.slots[rank].lock().unwrap() = Some(snap);
        self.commits.fetch_add(1, Ordering::SeqCst);
    }

    /// The globally agreed checkpoint position, if any checkpoint was
    /// committed. Panics if ranks disagree — the commit protocol makes
    /// that impossible, so disagreement is a bug, not a recoverable state.
    pub fn latest_pos(&self) -> Option<SnapshotPos> {
        let mut pos: Option<SnapshotPos> = None;
        for (rank, slot) in self.slots.iter().enumerate() {
            let guard = slot.lock().unwrap();
            match (&*guard, pos) {
                (None, None) => {}
                (Some(s), None) if rank == 0 => pos = Some(s.pos),
                (Some(s), Some(p)) => {
                    assert_eq!(s.pos, p, "rank {rank} checkpointed a different boundary");
                }
                _ => panic!("checkpoint store is inconsistent: rank {rank} differs"),
            }
        }
        pos
    }

    /// A clone of `rank`'s latest snapshot.
    pub fn restore(&self, rank: usize) -> Option<RankSnapshot> {
        self.slots[rank].lock().unwrap().clone()
    }

    /// Total rank-snapshot commits over the store's lifetime.
    pub fn checkpoints_committed(&self) -> u64 {
        self.commits.load(Ordering::SeqCst)
    }
}

impl SnapshotStore for CheckpointStore {
    fn commit_view(&self, rank: usize, view: &SnapshotView<'_>) {
        CheckpointStore::commit(self, rank, view.to_snapshot());
    }

    fn agreed_pos(&self) -> Option<SnapshotPos> {
        self.latest_pos()
    }

    fn restore_agreed(&self, rank: usize) -> Option<RankSnapshot> {
        self.restore(rank)
    }

    fn checkpoints_committed(&self) -> u64 {
        CheckpointStore::checkpoints_committed(self)
    }
}

// ---------------------------------------------------------------------
// Snapshot serialization
// ---------------------------------------------------------------------
//
// The binary snapshot format a file-backed store persists. Everything is
// encoded with the deterministic little-endian [`WirePayload`] primitives
// (floats as IEEE bit patterns), so a snapshot written by one process
// decodes bit-identically in another.
//
// A snapshot is two framed **sections**, each `magic | version | kind |
// payload length | checksum | payload`:
//
// * the **stage base** holds every field that cannot change inside one
//   (stage, level): the level topology and flows of the `LocalState`, its
//   boundary lists, the module ids interned when the base was taken, and
//   the driver carry (`assign`, `trace`, `prev_mdl`, `level_vertices`);
// * the **round delta** holds the rest, and names its base by length and
//   checksum: position, cursor, delegate map, `module_of`, the module ids
//   interned since the base, `sum_exit`, and the per-slot, per-vertex and
//   owner tables **sparsely** — `(slot, entry)` only where
//   `module_present`, `(slot, contribution)` only where
//   `last_contrib_active`, `(vertex, module)` only where something was
//   ever announced, `(index, owned module)` only where the module has
//   totals or sources. Absent slots hold `ModuleEntry::default()` and a
//   zero contribution in the live state (`remove_module` and `sync_modules`
//   keep that), never-announced vertices hold `u64::MAX` and the other
//   owner entries are `OwnedModule::default()`, so decode rebuilds the
//   dense tables exactly. A checkpoint is taken at a round boundary, where
//   no module slot is dirty. Last come the election hysteresis
//   records and the active-set marks: one LEB128 round stamp per local
//   vertex (`moved_at`) and one per movable vertex (`swept_at`; a ghost is
//   never swept, so its stamp stays 0).
//
// `RankSnapshot::encode` is the two sections back to back; the file store
// writes the same two sections to separate files, the base once.
//
// Hash maps are serialized as **sorted** pair vectors (ordered maps in
// their own order): byte-stable output for identical logical state, and
// rebuilt verbatim on decode. Three tables are not serialized at all
// because they are derived: `index` (position of each id in `verts`),
// `module_slot` (position in `module_ids`) and `subscriber_li` (`index` of
// each `subscribers` vertex). The length of the dense `owner` table is
// written, so `assemble` alone decides it.
//
// The one non-serializable field is the cursor's `StdRng`. The sweep RNG
// is consumed by exactly one `shuffle` of the (stage-static) movable list
// per round, and is freshly seeded from `cfg.seed ^ f(rank)` at every
// stage start — so instead of persisting generator internals, the decoder
// reseeds and replays `next_round` shuffles on a scratch copy. The
// replayed generator is in exactly the state the uninterrupted run's
// generator was in at the boundary, under any `StdRng` implementation.

/// Format version of the serialized snapshot. Bumped on layout changes so
/// a stale file fails loudly instead of decoding garbage.
const SNAPSHOT_VERSION: u32 = 4;

const CKPT_MAGIC: &[u8; 8] = b"DINFCKPT";

/// `magic (8) | version (4) | kind (4) | payload length (8) | checksum (8)`.
const SECTION_HEADER: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SectionKind {
    Base = 0,
    Delta = 1,
}

/// What a delta records about the base it extends (and what a store keeps
/// to write further deltas against it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BaseRef {
    /// (stage, level) the base belongs to.
    key: (u8, u32),
    /// Payload length and checksum of the base section.
    len: u64,
    checksum: u64,
    /// Module ids the base holds; a delta carries `module_ids[slots..]`.
    slots: usize,
}

fn corrupt(context: &'static str) -> WireDecodeError {
    WireDecodeError { context }
}

/// FNV-1a folded over little-endian 8-byte words (then the tail bytes).
/// Every step is a bijection of the running hash, so any change confined
/// to one word — a flipped bit in particular — changes the result.
fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h
}

/// Reserve a section header at the end of `out`; the payload is encoded
/// behind it and [`close_section`] patches the header in place.
fn open_section(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.resize(at + SECTION_HEADER, 0);
    at
}

/// Fill in the header of the section opened at `at`, whose payload is
/// everything behind it. Returns `(payload length, checksum)`.
fn close_section(out: &mut [u8], at: usize, kind: SectionKind) -> (u64, u64) {
    let (header, payload) = out[at..].split_at_mut(SECTION_HEADER);
    let (len, sum) = (payload.len() as u64, checksum(payload));
    header[..8].copy_from_slice(CKPT_MAGIC);
    header[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&(kind as u32).to_le_bytes());
    header[16..24].copy_from_slice(&len.to_le_bytes());
    header[24..32].copy_from_slice(&sum.to_le_bytes());
    (len, sum)
}

/// A verified section at the front of `bytes`.
struct Section<'a> {
    payload: &'a [u8],
    checksum: u64,
    /// Whatever follows the section.
    rest: &'a [u8],
}

/// Check the framing and checksum of the `kind` section at the front of
/// `bytes`. Nothing of the payload is interpreted before its checksum
/// holds.
fn read_section(bytes: &[u8], kind: SectionKind) -> Result<Section<'_>, WireDecodeError> {
    if bytes.len() < SECTION_HEADER || &bytes[..8] != CKPT_MAGIC {
        return Err(corrupt("snapshot section header"));
    }
    let half = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    if half(8) != SNAPSHOT_VERSION {
        return Err(corrupt("snapshot version"));
    }
    if half(12) != kind as u32 {
        return Err(corrupt("snapshot section kind"));
    }
    let len = usize::try_from(word(16)).map_err(|_| corrupt("snapshot section length"))?;
    if len > bytes.len() - SECTION_HEADER {
        return Err(corrupt("snapshot section length"));
    }
    let (payload, rest) = bytes[SECTION_HEADER..].split_at(len);
    let declared = word(24);
    if checksum(payload) != declared {
        return Err(corrupt("snapshot section checksum"));
    }
    Ok(Section {
        payload,
        checksum: declared,
        rest,
    })
}

/// A verified `kind` section that is all of `bytes`.
fn whole_section(bytes: &[u8], kind: SectionKind) -> Result<Section<'_>, WireDecodeError> {
    let section = read_section(bytes, kind)?;
    if !section.rest.is_empty() {
        return Err(corrupt("snapshot trailing bytes"));
    }
    Ok(section)
}

/// Decode a length prefix of items at least `min_item` bytes each, refusing
/// counts the remaining input cannot hold (so no allocation can exceed it).
fn decode_len(buf: &mut &[u8], min_item: usize) -> Result<usize, WireDecodeError> {
    let n = u64::decode_from(buf)?;
    if n > (buf.len() / min_item) as u64 {
        return Err(corrupt("snapshot length prefix"));
    }
    Ok(n as usize)
}

fn encode_kind(k: VertexKind, out: &mut Vec<u8>) {
    let v: u8 = match k {
        VertexKind::Owned => 0,
        VertexKind::DelegateCopy => 1,
        VertexKind::Ghost => 2,
    };
    v.encode_into(out);
}

fn decode_kind(buf: &mut &[u8]) -> Result<VertexKind, WireDecodeError> {
    match u8::decode_from(buf)? {
        0 => Ok(VertexKind::Owned),
        1 => Ok(VertexKind::DelegateCopy),
        2 => Ok(VertexKind::Ghost),
        _ => Err(corrupt("VertexKind")),
    }
}

fn encode_entry(e: &ModuleEntry, out: &mut Vec<u8>) {
    e.flow.encode_into(out);
    e.exit.encode_into(out);
    e.members.encode_into(out);
}

fn decode_entry(buf: &mut &[u8]) -> Result<ModuleEntry, WireDecodeError> {
    Ok(ModuleEntry {
        flow: f64::decode_from(buf)?,
        exit: f64::decode_from(buf)?,
        members: u32::decode_from(buf)?,
    })
}

/// Bytes of one encoded [`ModuleEntry`] / contribution triple.
const ENTRY_BYTES: usize = 20;

/// Least bytes of a live [`OwnedModule`] in a delta: index, `present`,
/// totals and the length prefix of its sources.
const OWNED_MODULE_BYTES: usize = 4 + 1 + ENTRY_BYTES + 8;

fn encode_trace(t: &StageTrace, out: &mut Vec<u8>) {
    t.stage.encode_into(out);
    t.level.encode_into(out);
    t.codelength.encode_into(out);
    t.num_modules.encode_into(out);
    t.vertices_before.encode_into(out);
    t.vertices_after.encode_into(out);
    t.inner_iterations.encode_into(out);
    t.moves.encode_into(out);
    t.mdl_series.encode_into(out);
    (t.stop as u8).encode_into(out);
}

fn decode_trace(buf: &mut &[u8]) -> Result<StageTrace, WireDecodeError> {
    Ok(StageTrace {
        stage: u8::decode_from(buf)?,
        level: usize::decode_from(buf)?,
        codelength: f64::decode_from(buf)?,
        num_modules: usize::decode_from(buf)?,
        vertices_before: usize::decode_from(buf)?,
        vertices_after: usize::decode_from(buf)?,
        inner_iterations: usize::decode_from(buf)?,
        moves: u64::decode_from(buf)?,
        mdl_series: Vec::decode_from(buf)?,
        stop: match u8::decode_from(buf)? {
            0 => StageStop::Quiesced,
            1 => StageStop::Stalled,
            2 => StageStop::Cap,
            _ => return Err(corrupt("StageStop")),
        },
    })
}

/// The stage base payload: everything of a view that is fixed for its
/// (stage, level).
fn encode_base(v: &SnapshotView<'_>, out: &mut Vec<u8>) {
    let st = v.st;
    v.pos.stage.encode_into(out);
    v.pos.level.encode_into(out);
    st.rank.encode_into(out);
    st.nranks.encode_into(out);
    st.verts.encode_into(out);
    (st.kind.len() as u64).encode_into(out);
    for &k in &st.kind {
        encode_kind(k, out);
    }
    st.adj_off.encode_into(out);
    st.adj_tgt.encode_into(out);
    st.adj_w.encode_into(out);
    st.node_flow.encode_into(out);
    st.out_flow.encode_into(out);
    st.subscribers.encode_into(out);
    st.providers.encode_into(out);
    st.send_targets.encode_into(out);
    st.inv_two_w.encode_into(out);
    st.movable.encode_into(out);
    // Append-only within a stage: later deltas carry the suffix.
    st.module_ids.encode_into(out);
    (v.assign.len() as u64).encode_into(out);
    for pair in v.assign {
        pair.encode_into(out);
    }
    (v.trace.len() as u64).encode_into(out);
    for t in v.trace {
        encode_trace(t, out);
    }
    v.prev_mdl.encode_into(out);
    v.level_vertices.encode_into(out);
}

/// Append `v`'s base section to `out` and describe it.
fn write_base_section(v: &SnapshotView<'_>, out: &mut Vec<u8>) -> BaseRef {
    let at = open_section(out);
    encode_base(v, out);
    let (len, checksum) = close_section(out, at, SectionKind::Base);
    BaseRef {
        key: (v.pos.stage, v.pos.level),
        len,
        checksum,
        slots: v.st.module_ids.len(),
    }
}

/// The round delta payload: everything of a view that moves from round to
/// round, against `base`.
fn encode_delta(v: &SnapshotView<'_>, base: &BaseRef, out: &mut Vec<u8>) {
    let st = v.st;
    v.pos.stage.encode_into(out);
    v.pos.level.encode_into(out);
    v.pos.round.encode_into(out);
    base.len.encode_into(out);
    base.checksum.encode_into(out);
    // Cursor, minus the RNG (reconstructed by replay on decode).
    v.cursor.next_round.encode_into(out);
    v.cursor.mdl.encode_into(out);
    v.cursor.nmod.encode_into(out);
    v.cursor.mdl_series.encode_into(out);
    v.cursor.total_moves.encode_into(out);
    v.cursor.inner.encode_into(out);
    v.cursor.quiet_rounds.encode_into(out);
    v.cursor.stalled_syncs.encode_into(out);
    (v.delegate_assign.len() as u64).encode_into(out);
    for (&d, &m) in v.delegate_assign {
        d.encode_into(out);
        m.encode_into(out);
    }
    st.module_of.encode_into(out);
    let appended = &st.module_ids[base.slots..];
    (appended.len() as u64).encode_into(out);
    for gid in appended {
        gid.encode_into(out);
    }
    // Slot tables travel sparse, one `ModuleEntry` record per present slot.
    (st.num_known_modules() as u64).encode_into(out);
    for s in 0..st.num_module_slots() {
        if st.module_present[s] {
            (s as u32).encode_into(out);
            st.mod_flow[s].encode_into(out);
            st.mod_exit[s].encode_into(out);
            st.mod_members[s].encode_into(out);
        }
    }
    st.sum_exit.encode_into(out);
    // Only owned vertices with subscribers are ever announced.
    let announced = st.last_announced.iter().filter(|&&g| g != u64::MAX);
    (announced.count() as u64).encode_into(out);
    for (li, &gid) in st.last_announced.iter().enumerate() {
        if gid != u64::MAX {
            (li as u32).encode_into(out);
            gid.encode_into(out);
        }
    }
    (st.num_active_contribs() as u64).encode_into(out);
    for s in 0..st.num_module_slots() {
        if st.last_contrib_active[s] {
            (s as u32).encode_into(out);
            st.last_contrib[s].encode_into(out);
        }
    }
    // A delta decodes to a state with nothing left to rescan.
    assert!(
        st.dirty_slots.is_empty() && !st.slot_dirty.contains(&true),
        "checkpoint taken between a move and the owner reduction"
    );
    (st.owner.len() as u64).encode_into(out);
    (st.owner.iter().filter(|m| m.is_live()).count() as u64).encode_into(out);
    for (i, m) in st.owner.iter().enumerate() {
        if m.is_live() {
            (i as u32).encode_into(out);
            m.present.encode_into(out);
            encode_entry(&m.totals, out);
            m.sources.encode_into(out);
        }
    }
    (st.delegate_left.len() as u64).encode_into(out);
    for (&d, &left) in &st.delegate_left {
        d.encode_into(out);
        left.encode_into(out);
    }
    // Active-set marks: restored, not rebuilt — a resumed sweep must skip
    // exactly the vertices the uninterrupted one skips. Only movable
    // vertices are ever swept.
    for &stamp in &st.moved_at {
        put_uvarint(out, stamp as u64);
    }
    for &li in &st.movable {
        put_uvarint(out, st.swept_at[li as usize] as u64);
    }
}

/// One round stamp of the active-set marks: a LEB128 varint (a single byte
/// up to round 126), read with the bounds the wire codec's reader leaves
/// to its callers.
fn decode_stamp(buf: &mut &[u8]) -> Result<u32, WireDecodeError> {
    let mut stamp = 0u32;
    for shift in (0..32).step_by(7) {
        let (&byte, rest) = buf.split_first().ok_or(corrupt("snapshot round stamp"))?;
        *buf = rest;
        if shift == 28 && byte > 0x0f {
            break; // past 32 bits
        }
        stamp |= ((byte & 0x7f) as u32) << shift;
        if byte < 0x80 {
            return Ok(stamp);
        }
    }
    Err(corrupt("snapshot round stamp"))
}

/// Append `v`'s delta section against `base` to `out`.
fn write_delta_section(v: &SnapshotView<'_>, base: &BaseRef, out: &mut Vec<u8>) {
    debug_assert_eq!(base.key, (v.pos.stage, v.pos.level));
    let at = open_section(out);
    encode_delta(v, base, out);
    close_section(out, at, SectionKind::Delta);
}

/// Position and base named by a verified delta payload, without decoding
/// the rest.
fn delta_header(buf: &mut &[u8]) -> Result<(SnapshotPos, u64, u64), WireDecodeError> {
    let pos = SnapshotPos {
        stage: u8::decode_from(buf)?,
        level: u32::decode_from(buf)?,
        round: u32::decode_from(buf)?,
    };
    Ok((pos, u64::decode_from(buf)?, u64::decode_from(buf)?))
}

/// Rebuild a snapshot from a verified base section and a verified delta
/// section. Fails unless the delta names exactly this base.
fn decode_sections(
    base: &Section<'_>,
    delta: &Section<'_>,
    run_seed: u64,
) -> Result<(RankSnapshot, BaseRef), WireDecodeError> {
    // ---- delta header: which base? ----
    let mut buf = delta.payload;
    let (pos, base_len, base_checksum) = delta_header(&mut buf)?;
    let mut b = base.payload;
    let key = (u8::decode_from(&mut b)?, u32::decode_from(&mut b)?);
    if (key, base.payload.len() as u64, base.checksum)
        != ((pos.stage, pos.level), base_len, base_checksum)
    {
        return Err(corrupt("snapshot delta names a different base"));
    }

    // ---- base ----
    let rank = usize::decode_from(&mut b)?;
    let nranks = usize::decode_from(&mut b)?;
    let verts: Vec<u32> = Vec::decode_from(&mut b)?;
    let nkind = decode_len(&mut b, 1)?;
    let mut kind = Vec::with_capacity(nkind);
    for _ in 0..nkind {
        kind.push(decode_kind(&mut b)?);
    }
    let adj_off = Vec::decode_from(&mut b)?;
    let adj_tgt = Vec::decode_from(&mut b)?;
    let adj_w = Vec::decode_from(&mut b)?;
    let node_flow = Vec::decode_from(&mut b)?;
    let out_flow = Vec::decode_from(&mut b)?;
    let subscribers = Vec::decode_from(&mut b)?;
    let providers = Vec::decode_from(&mut b)?;
    let send_targets = Vec::decode_from(&mut b)?;
    let inv_two_w = f64::decode_from(&mut b)?;
    let movable: Vec<u32> = Vec::decode_from(&mut b)?;
    let mut module_ids: Vec<u64> = Vec::decode_from(&mut b)?;
    let base_slots = module_ids.len();
    let assign = Vec::decode_from(&mut b)?;
    let ntrace = decode_len(&mut b, 1)?;
    let mut trace = Vec::with_capacity(ntrace);
    for _ in 0..ntrace {
        trace.push(decode_trace(&mut b)?);
    }
    let prev_mdl = f64::decode_from(&mut b)?;
    let level_vertices = usize::decode_from(&mut b)?;
    if !b.is_empty() {
        return Err(corrupt("snapshot base trailing bytes"));
    }

    // ---- delta ----
    let next_round = usize::decode_from(&mut buf)?;
    let mdl = f64::decode_from(&mut buf)?;
    let nmod = u64::decode_from(&mut buf)?;
    let mdl_series = Vec::decode_from(&mut buf)?;
    let total_moves = u64::decode_from(&mut buf)?;
    let inner = usize::decode_from(&mut buf)?;
    let quiet_rounds = usize::decode_from(&mut buf)?;
    let stalled_syncs = usize::decode_from(&mut buf)?;
    let pairs: Vec<(u32, u64)> = Vec::decode_from(&mut buf)?;
    let delegate_assign: BTreeMap<u32, u64> = pairs.into_iter().collect();
    let module_of = Vec::decode_from(&mut buf)?;
    let appended: Vec<u64> = Vec::decode_from(&mut buf)?;
    module_ids.extend(appended);
    let nslots = module_ids.len();
    let slot_of = |buf: &mut &[u8]| match u32::decode_from(buf)? as usize {
        s if s < nslots => Ok(s),
        _ => Err(corrupt("snapshot module slot")),
    };
    let mut mod_flow = vec![0.0; nslots];
    let mut mod_exit = vec![0.0; nslots];
    let mut mod_members = vec![0u32; nslots];
    let mut module_present = vec![false; nslots];
    for _ in 0..decode_len(&mut buf, 4 + ENTRY_BYTES)? {
        let s = slot_of(&mut buf)?;
        let e = decode_entry(&mut buf)?;
        (mod_flow[s], mod_exit[s], mod_members[s]) = (e.flow, e.exit, e.members);
        module_present[s] = true;
    }
    let sum_exit = f64::decode_from(&mut buf)?;
    let mut last_announced = vec![u64::MAX; verts.len()];
    for _ in 0..decode_len(&mut buf, 12)? {
        let li = u32::decode_from(&mut buf)? as usize;
        *last_announced
            .get_mut(li)
            .ok_or(corrupt("snapshot vertex index"))? = u64::decode_from(&mut buf)?;
    }
    let mut last_contrib = vec![(0.0, 0.0, 0u32); nslots];
    let mut last_contrib_active = vec![false; nslots];
    for _ in 0..decode_len(&mut buf, 4 + ENTRY_BYTES)? {
        let s = slot_of(&mut buf)?;
        last_contrib[s] = WirePayload::decode_from(&mut buf)?;
        last_contrib_active[s] = true;
    }
    // The table's length is `assemble`'s to decide; module ids are `u32`
    // vertex ids, which bounds it.
    let owner_len = u64::decode_from(&mut buf)?;
    if owner_len > u32::MAX as u64 / nranks.max(1) as u64 + 1 {
        return Err(corrupt("snapshot owner table length"));
    }
    let mut owner = vec![OwnedModule::default(); owner_len as usize];
    for _ in 0..decode_len(&mut buf, OWNED_MODULE_BYTES)? {
        let i = u32::decode_from(&mut buf)? as usize;
        let module = OwnedModule {
            present: bool::decode_from(&mut buf)?,
            totals: decode_entry(&mut buf)?,
            sources: Vec::decode_from(&mut buf)?,
        };
        // The owner reduction binary-searches the sources by rank and
        // answers each of them.
        let sorted = module.sources.windows(2).all(|w| w[0].0 < w[1].0);
        let top = module.sources.last().map(|&(r, _)| r as usize);
        if !sorted || top >= Some(nranks) {
            return Err(corrupt("snapshot owned module sources"));
        }
        *owner.get_mut(i).ok_or(corrupt("snapshot owned module"))? = module;
    }
    let left: Vec<(u32, (u64, f64))> = Vec::decode_from(&mut buf)?;
    let delegate_left: BTreeMap<u32, (u64, f64)> = left.into_iter().collect();
    let mut moved_at = vec![0u32; verts.len()];
    for stamp in &mut moved_at {
        *stamp = decode_stamp(&mut buf)?;
    }
    let mut swept_at = vec![0u32; verts.len()];
    for &li in &movable {
        *swept_at
            .get_mut(li as usize)
            .ok_or(corrupt("snapshot vertex index"))? = decode_stamp(&mut buf)?;
    }
    if !buf.is_empty() {
        return Err(corrupt("snapshot delta trailing bytes"));
    }

    // Derived maps.
    let index: HashMap<u32, u32, IdBuild> = verts
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let module_slot: HashMap<u64, u32, IdBuild> = module_ids
        .iter()
        .enumerate()
        .map(|(s, &gid)| (gid, s as u32))
        .collect();
    if subscribers.iter().any(|(v, _)| !index.contains_key(v)) {
        return Err(corrupt("snapshot subscriber vertex"));
    }
    let subscriber_li = LocalState::subscriber_indices(&subscribers, &index);
    // The sweep RNG, by replay (see the section comment above).
    let mut rng = StdRng::seed_from_u64(stage_rng_seed(run_seed, rank));
    let mut scratch = movable.clone();
    for _ in 0..next_round {
        scratch.shuffle(&mut rng);
    }
    let snap = RankSnapshot {
        pos,
        st: LocalState {
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
            owner,
            sum_exit,
            subscribers,
            subscriber_li,
            providers,
            send_targets,
            inv_two_w,
            movable,
            last_announced,
            last_contrib,
            last_contrib_active,
            dirty_slots: Vec::new(),
            slot_dirty: vec![false; nslots],
            delegate_left,
            moved_at,
            swept_at,
        },
        cursor: StageCursor {
            next_round,
            mdl,
            nmod,
            mdl_series,
            total_moves,
            inner,
            quiet_rounds,
            stalled_syncs,
            rng,
        },
        delegate_assign,
        assign,
        trace,
        prev_mdl,
        level_vertices,
    };
    let base = BaseRef {
        key,
        len: base_len,
        checksum: base_checksum,
        slots: base_slots,
    };
    Ok((snap, base))
}

/// The stage-seed mix of `cluster_stage_recoverable`: every stage reseeds
/// its sweep RNG with this, which is what makes RNG-by-replay possible.
pub fn stage_rng_seed(seed: u64, rank: usize) -> u64 {
    seed ^ (rank as u64).wrapping_mul(0x9e3779b97f4a7c15)
}

impl RankSnapshot {
    /// Serialize to the portable binary format: the stage base section
    /// followed by the round delta section, each framed and checksummed —
    /// the same two sections the file store keeps in separate files.
    pub fn encode(&self) -> Vec<u8> {
        self.view().encode()
    }

    /// Decode a snapshot, reconstructing the sweep RNG by replay: reseed
    /// with the stage formula and replay the `next_round` shuffles the
    /// stage performed before the boundary (each shuffle's draw sequence
    /// depends only on the list length, so a scratch copy suffices).
    pub fn decode(bytes: &[u8], run_seed: u64) -> Result<RankSnapshot, WireDecodeError> {
        let base = read_section(bytes, SectionKind::Base)?;
        let delta = whole_section(base.rest, SectionKind::Delta)?;
        decode_sections(&base, &delta, run_seed).map(|(snap, _)| snap)
    }
}

// ---------------------------------------------------------------------
// File-backed store
// ---------------------------------------------------------------------

/// Durable checkpoint store for multi-process runs: files per rank under a
/// shared directory, surviving SIGKILLed ranks.
///
/// Layout, for rank `R`:
///
/// * `rank-R.base-sS-lL.ckpt` — the stage base of (stage `S`, level `L`),
///   written once, before the first delta that names it;
/// * `rank-R.g0.ckpt` / `rank-R.g1.ckpt` — two generation slots, each one
///   round delta naming its base by (stage, level, length, checksum).
///
/// Every file is encoded into one buffer, written to `<name>.tmp` and
/// `rename`d into place — readers never observe a torn file. A rank
/// alternates between its generation slots, so the previous boundary
/// survives until the next-but-one commit. That redundancy is what makes
/// restore after a *real* crash sound: a process killed between the
/// consensus collective and its own commit leaves the world split across
/// two boundaries, and [`SnapshotStore::agreed_pos`] picks the newest
/// boundary every rank still holds. A generation whose base is missing,
/// damaged or not the one it names reads as absent, exactly like a torn
/// slot; a base is deleted only once neither generation of its rank names
/// it. A rank holds at most two bases, two deltas and one `.tmp`.
///
/// Durability is against process death (the files reach the page cache
/// before `commit` returns), not against loss of the machine.
pub struct FileCheckpointStore {
    dir: PathBuf,
    nranks: usize,
    /// The run seed, needed to rebuild cursors' RNGs on decode.
    run_seed: u64,
    ranks: Vec<Mutex<RankFiles>>,
    commits: AtomicU64,
    failures: AtomicU64,
    base_files: AtomicU64,
    base_bytes: AtomicU64,
    delta_bytes: AtomicU64,
}

/// One rank's files as this store instance knows them.
#[derive(Default)]
struct RankFiles {
    /// The generation slot the next delta goes to.
    next_gen: u8,
    /// (stage, level) of the base each generation's delta names.
    gen_base: [Option<(u8, u32)>; 2],
    /// (stage, level) of every base file on disk.
    bases: Vec<(u8, u32)>,
    /// The base further deltas of its (stage, level) extend: the last one
    /// this instance wrote, or the one a restore was decoded from.
    current: Option<BaseRef>,
    /// Encode buffer, reused across commits.
    buf: Vec<u8>,
    /// A failed commit was already reported for this rank.
    failure_reported: bool,
}

/// File bytes a [`FileCheckpointStore`] instance has written.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointBytesWritten {
    /// Stage-base files written (one per rank and (stage, level) reached).
    pub base_files: u64,
    pub base_bytes: u64,
    /// Round deltas: one file per commit.
    pub delta_bytes: u64,
}

/// `rank-R.base-sS-lL.ckpt` → `(R, (S, L))`.
fn parse_base_name(name: &str) -> Option<(usize, (u8, u32))> {
    let (rank, rest) = name.strip_prefix("rank-")?.split_once(".base-s")?;
    let (stage, level) = rest.strip_suffix(".ckpt")?.split_once("-l")?;
    Some((
        rank.parse().ok()?,
        (stage.parse().ok()?, level.parse().ok()?),
    ))
}

/// Write `bytes` to `path` through `<path>.tmp` + `rename`, so a failed or
/// interrupted write never damages what `path` held.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), (PathBuf, std::io::Error)> {
    let tmp = path.with_extension("ckpt.tmp");
    if let Err(e) = std::fs::write(&tmp, bytes) {
        let _ = std::fs::remove_file(&tmp);
        return Err((tmp, e));
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        (path.to_path_buf(), e)
    })
}

impl FileCheckpointStore {
    /// Open (creating the directory if needed). Existing snapshot files
    /// are kept — that is the point: a relaunched world resumes from them.
    /// For each rank, the next commit targets the slot NOT holding the
    /// newest existing snapshot, so a relaunch keeps overwriting the older
    /// generation. Leftover `.tmp` files are removed, so a store is opened
    /// before the world it serves commits, not beside one that is
    /// committing (every worker opens its store before the bootstrap).
    pub fn open(
        dir: impl Into<PathBuf>,
        nranks: usize,
        run_seed: u64,
    ) -> std::io::Result<FileCheckpointStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = FileCheckpointStore {
            dir,
            nranks,
            run_seed,
            ranks: (0..nranks).map(|_| Mutex::default()).collect(),
            commits: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            base_files: AtomicU64::new(0),
            base_bytes: AtomicU64::new(0),
            delta_bytes: AtomicU64::new(0),
        };
        for entry in std::fs::read_dir(&store.dir)?.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("rank-") && name.ends_with(".ckpt.tmp") {
                // What a writer killed between `write` and `rename` left.
                let _ = std::fs::remove_file(entry.path());
            } else if let Some((rank, key)) = parse_base_name(&name) {
                if rank < nranks {
                    store.files(rank).bases.push(key);
                }
            }
        }
        for rank in 0..nranks {
            let found = store.positions_of(rank);
            let mut files = store.files(rank);
            for &(pos, gen) in &found {
                files.gen_base[gen as usize] = Some((pos.stage, pos.level));
            }
            if let Some(&(_, newest_gen)) = found.first() {
                files.next_gen = 1 - newest_gen;
            }
        }
        Ok(store)
    }

    fn files(&self, rank: usize) -> std::sync::MutexGuard<'_, RankFiles> {
        self.ranks[rank]
            .lock()
            .expect("no commit panics while holding a rank's file state")
    }

    fn slot_path(&self, rank: usize, gen: u8) -> PathBuf {
        self.dir.join(format!("rank-{rank}.g{gen}.ckpt"))
    }

    fn base_path(&self, rank: usize, (stage, level): (u8, u32)) -> PathBuf {
        self.dir
            .join(format!("rank-{rank}.base-s{stage}-l{level}.ckpt"))
    }

    /// Read one generation; `None` for a missing, unreadable, torn or
    /// undecodable delta, and for one whose base is any of those or is not
    /// the base the delta names (a damaged generation is equivalent to an
    /// absent checkpoint — the other generation still stands).
    fn read_slot(&self, rank: usize, gen: u8) -> Option<(RankSnapshot, BaseRef)> {
        let delta = std::fs::read(self.slot_path(rank, gen)).ok()?;
        let delta = whole_section(&delta, SectionKind::Delta).ok()?;
        let mut header = delta.payload;
        let (pos, ..) = delta_header(&mut header).ok()?;
        let base = std::fs::read(self.base_path(rank, (pos.stage, pos.level))).ok()?;
        let base = whole_section(&base, SectionKind::Base).ok()?;
        decode_sections(&base, &delta, self.run_seed).ok()
    }

    /// Every committed position of `rank`, newest first.
    fn positions_of(&self, rank: usize) -> Vec<(SnapshotPos, u8)> {
        let mut found = Vec::new();
        for gen in 0..2u8 {
            if let Some((snap, _)) = self.read_slot(rank, gen) {
                found.push((snap.pos, gen));
            }
        }
        found.sort_by_key(|&(pos, _)| std::cmp::Reverse(pos));
        found
    }

    /// Remove every snapshot file (fresh-run hygiene).
    pub fn clear(&self) {
        for rank in 0..self.nranks {
            let mut files = self.files(rank);
            for gen in 0..2u8 {
                let _ = std::fs::remove_file(self.slot_path(rank, gen));
            }
            for key in std::mem::take(&mut files.bases) {
                let _ = std::fs::remove_file(self.base_path(rank, key));
            }
            *files = RankFiles::default();
        }
    }

    /// Commits that could not be made durable (a `write` or `rename`
    /// failed) over the store's lifetime. The first one of each rank is
    /// reported on stderr with the path and the I/O error.
    pub fn commit_failures(&self) -> u64 {
        self.failures.load(Ordering::SeqCst)
    }

    /// Bytes of the files this instance has written, bases and deltas
    /// apart — the measured counterpart of
    /// [`SnapshotView::approx_wire_bytes`].
    pub fn bytes_written(&self) -> CheckpointBytesWritten {
        CheckpointBytesWritten {
            base_files: self.base_files.load(Ordering::SeqCst),
            base_bytes: self.base_bytes.load(Ordering::SeqCst),
            delta_bytes: self.delta_bytes.load(Ordering::SeqCst),
        }
    }

    /// Delete `rank`'s base files that neither generation names and that
    /// no further delta will extend.
    fn collect_bases(&self, rank: usize, files: &mut RankFiles) {
        let RankFiles {
            bases,
            gen_base,
            current,
            ..
        } = files;
        bases.retain(|&key| {
            let live = gen_base.contains(&Some(key)) || current.map(|b| b.key) == Some(key);
            if !live {
                let _ = std::fs::remove_file(self.base_path(rank, key));
            }
            live
        });
    }

    /// Make `view` durable as `rank`'s next generation: its base first if
    /// this (stage, level) has none yet, then the delta.
    fn write_generation(
        &self,
        rank: usize,
        files: &mut RankFiles,
        view: &SnapshotView<'_>,
    ) -> Result<(), (PathBuf, std::io::Error)> {
        let key = (view.pos.stage, view.pos.level);
        let gen = files.next_gen;
        let extends = |b: &BaseRef| b.key == key && b.slots <= view.st.module_ids.len();
        let base = match files.current.filter(extends) {
            Some(base) => base,
            None => {
                // No base on hand that this view extends: a new (stage,
                // level). Whoever gets here has passed this boundary's
                // consensus collective, which every rank enters only after
                // committing the previous boundary — so every rank holds
                // the newer generation and the one about to be overwritten
                // is already redundant. Retire it now, so that its base
                // can go before the new one lands (never a third base on
                // disk).
                let _ = std::fs::remove_file(self.slot_path(rank, gen));
                files.gen_base[gen as usize] = None;
                files.current = None;
                self.collect_bases(rank, files);
                files.buf.clear();
                let base = write_base_section(view, &mut files.buf);
                write_atomic(&self.base_path(rank, key), &files.buf)?;
                if !files.bases.contains(&key) {
                    files.bases.push(key);
                }
                files.current = Some(base);
                self.base_files.fetch_add(1, Ordering::SeqCst);
                self.base_bytes
                    .fetch_add(files.buf.len() as u64, Ordering::SeqCst);
                base
            }
        };
        files.buf.clear();
        write_delta_section(view, &base, &mut files.buf);
        write_atomic(&self.slot_path(rank, gen), &files.buf)?;
        self.delta_bytes
            .fetch_add(files.buf.len() as u64, Ordering::SeqCst);
        files.gen_base[gen as usize] = Some(key);
        files.next_gen = 1 - gen;
        self.collect_bases(rank, files);
        Ok(())
    }
}

impl SnapshotStore for FileCheckpointStore {
    fn commit_view(&self, rank: usize, view: &SnapshotView<'_>) {
        let mut files = self.files(rank);
        match self.write_generation(rank, &mut files, view) {
            Ok(()) => {
                self.commits.fetch_add(1, Ordering::SeqCst);
            }
            Err((path, e)) => {
                self.failures.fetch_add(1, Ordering::SeqCst);
                if !std::mem::replace(&mut files.failure_reported, true) {
                    eprintln!(
                        "rank {rank}: checkpoint commit failed at {}: {e} \
                         (further failures of this rank are only counted)",
                        path.display()
                    );
                }
            }
        }
    }

    fn agreed_pos(&self) -> Option<SnapshotPos> {
        // Candidate positions: rank 0's snapshots, newest first. A position
        // is agreed when every rank holds it.
        let candidates = self.positions_of(0);
        'cand: for &(pos, _) in &candidates {
            for rank in 1..self.nranks {
                if !self.positions_of(rank).iter().any(|&(p, _)| p == pos) {
                    continue 'cand;
                }
            }
            return Some(pos);
        }
        None
    }

    fn restore_agreed(&self, rank: usize) -> Option<RankSnapshot> {
        let pos = self.agreed_pos()?;
        let (_, gen) = self
            .positions_of(rank)
            .into_iter()
            .find(|&(p, _)| p == pos)?;
        let (snap, base) = self.read_slot(rank, gen)?;
        // The run continues from this generation: its base is the one the
        // next deltas extend, and it must outlive the next commit (the
        // other slot holds an older boundary, or a newer one that not
        // every rank reached and that the replay will commit again).
        let mut files = self.files(rank);
        files.current = Some(base);
        files.next_gen = 1 - gen;
        Some(snap)
    }

    fn checkpoints_committed(&self) -> u64 {
        self.commits.load(Ordering::SeqCst)
    }
}

/// Generation files present under `dir` (any rank) — whether a relaunch
/// could possibly restore. A stage base alone restores nothing.
pub fn checkpoint_files_present(dir: &Path) -> bool {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().any(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.ends_with(".ckpt") && parse_base_name(&name).is_none()
            })
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pos_word_orders_like_the_tuple() {
        let a = SnapshotPos {
            stage: 1,
            level: 0,
            round: 4,
        };
        let b = SnapshotPos {
            stage: 1,
            level: 0,
            round: 6,
        };
        let c = SnapshotPos {
            stage: 2,
            level: 1,
            round: 0,
        };
        assert!(a < b && b < c);
        assert!(a.as_word() < b.as_word() && b.as_word() < c.as_word());
    }

    #[test]
    fn empty_store_has_no_position() {
        let store = CheckpointStore::new(3);
        assert!(store.latest_pos().is_none());
        assert!(store.restore(1).is_none());
        assert_eq!(store.checkpoints_committed(), 0);
    }

    use crate::config::{DistributedConfig, RecoveryConfig};
    use crate::driver::RankProgram;
    use crate::state::build_stage1_states;
    use infomap_graph::datasets::DatasetId;
    use infomap_graph::generators;
    use infomap_mpisim::World;
    use infomap_partition::Partition;
    use rand::RngCore;

    const TEST_SEED: u64 = 42;

    /// A realistic snapshot at `(stage, level, rounds)`: a state with
    /// populated maps — rank `stage`'s, so the two stages differ in
    /// topology — plus a cursor whose RNG has advanced `rounds` shuffles
    /// past its seed.
    fn sample_snapshot_at(stage: u8, level: u32, rounds: usize) -> RankSnapshot {
        let (g, _) = generators::lfr_like(
            generators::LfrParams {
                n: 120,
                ..Default::default()
            },
            7,
        );
        let part =
            Partition::delegate(&g, 3, infomap_partition::DelegateThreshold::Auto(4.0), true);
        let mut st = build_stage1_states(&g, &part).remove(stage as usize);
        at_round_boundary(&mut st);
        st.owner[5] = OwnedModule {
            present: true,
            totals: ModuleEntry {
                flow: 0.25,
                exit: 0.125,
                members: 3,
            },
            sources: vec![(0, (0.15, 0.075, 2)), (2, (0.1, 0.05, 1))],
        };
        // A module that died while a rank still holds a ghost view of it.
        st.owner[7].sources.push((1, (0.0, 0.0, 0)));
        // Slots interned after the stage began, one of them retired again.
        let grown = st.set_module(
            1 << 40,
            ModuleEntry {
                flow: 0.5,
                exit: 0.25,
                members: 2,
            },
        );
        st.last_contrib[grown as usize] = (0.5, 0.25, 2);
        st.last_contrib_active[grown as usize] = true;
        st.intern_module(1 << 41);
        let gone = st.module_gid(3);
        st.remove_module(gone);
        st.last_announced[0] = gone;
        st.delegate_left.insert(9, (8, 0.015625));
        st.moved_at[1] = rounds as u32;
        st.swept_at[0] = rounds as u32 + 1;
        let mut rng = StdRng::seed_from_u64(stage_rng_seed(TEST_SEED, st.rank));
        let mut scratch = st.movable.clone();
        for _ in 0..rounds {
            scratch.shuffle(&mut rng);
        }
        RankSnapshot {
            pos: SnapshotPos {
                stage,
                level,
                round: rounds as u32,
            },
            st,
            cursor: StageCursor {
                next_round: rounds,
                mdl: 5.25,
                nmod: 40,
                mdl_series: vec![6.0, 5.5, 5.25],
                total_moves: 99,
                inner: rounds,
                quiet_rounds: 1,
                stalled_syncs: 0,
                rng,
            },
            delegate_assign: [(3u32, 8u64), (9, 9)].into_iter().collect(),
            assign: vec![(0, 1), (5, 2)],
            trace: vec![StageTrace {
                stage: 1,
                level: 0,
                codelength: 5.25,
                num_modules: 40,
                vertices_before: 120,
                vertices_after: 40,
                inner_iterations: 7,
                moves: 99,
                mdl_series: vec![6.0, 5.25],
                stop: StageStop::Stalled,
            }],
            prev_mdl: 6.0,
            level_vertices: 40,
        }
    }

    /// What the first owner reduction leaves of a freshly assembled
    /// state's dirty set: nothing.
    fn at_round_boundary(st: &mut LocalState) {
        st.dirty_slots.clear();
        st.slot_dirty.fill(false);
    }

    fn sample_snapshot(rounds: usize) -> RankSnapshot {
        sample_snapshot_at(1, 0, rounds)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn entry_bits(e: &ModuleEntry) -> (u64, u64, u32) {
        (e.flow.to_bits(), e.exit.to_bits(), e.members)
    }

    fn triple_bits(c: &(f64, f64, u32)) -> (u64, u64, u32) {
        (c.0.to_bits(), c.1.to_bits(), c.2)
    }

    /// `back` equals the live `view` field for field, floats by bit
    /// pattern (so `-0.0`/`0.0` or two NaNs cannot pass for each other).
    fn assert_bit_identical(view: &SnapshotView<'_>, back: &RankSnapshot) {
        let (a, b) = (view.st, &back.st);
        assert_eq!(view.pos, back.pos);
        assert_eq!((a.rank, a.nranks), (b.rank, b.nranks));
        assert_eq!(a.verts, b.verts);
        assert_eq!(a.index, b.index);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.adj_off, b.adj_off);
        assert_eq!(a.adj_tgt, b.adj_tgt);
        assert_eq!(bits(&a.adj_w), bits(&b.adj_w));
        assert_eq!(bits(&a.node_flow), bits(&b.node_flow));
        assert_eq!(bits(&a.out_flow), bits(&b.out_flow));
        assert_eq!(a.module_of, b.module_of);
        assert_eq!(a.module_ids, b.module_ids);
        assert_eq!(a.module_slot, b.module_slot);
        assert_eq!(bits(&a.mod_flow), bits(&b.mod_flow));
        assert_eq!(bits(&a.mod_exit), bits(&b.mod_exit));
        assert_eq!(a.mod_members, b.mod_members);
        assert_eq!(a.module_present, b.module_present);
        assert_eq!(a.owner.len(), b.owner.len());
        for (i, (m, n)) in a.owner.iter().zip(&b.owner).enumerate() {
            assert_eq!(m.present, n.present, "owned module {i}");
            assert_eq!(
                entry_bits(&m.totals),
                entry_bits(&n.totals),
                "owned module {i}"
            );
            let sources = |o: &OwnedModule| -> Vec<_> {
                o.sources
                    .iter()
                    .map(|(r, c)| (*r, triple_bits(c)))
                    .collect()
            };
            assert_eq!(sources(m), sources(n), "owned module {i}");
        }
        assert_eq!(a.sum_exit.to_bits(), b.sum_exit.to_bits());
        assert_eq!(a.subscribers, b.subscribers);
        assert_eq!(a.subscriber_li, b.subscriber_li);
        assert_eq!(a.providers, b.providers);
        assert_eq!(a.send_targets, b.send_targets);
        assert_eq!(a.inv_two_w.to_bits(), b.inv_two_w.to_bits());
        assert_eq!(a.movable, b.movable);
        assert_eq!(a.last_announced, b.last_announced);
        assert_eq!(
            a.last_contrib.iter().map(triple_bits).collect::<Vec<_>>(),
            b.last_contrib.iter().map(triple_bits).collect::<Vec<_>>()
        );
        assert_eq!(a.last_contrib_active, b.last_contrib_active);
        assert!(b.dirty_slots.is_empty());
        assert_eq!(a.slot_dirty, b.slot_dirty);
        assert_eq!(a.delegate_left.len(), b.delegate_left.len());
        for (d, (m, gain)) in &a.delegate_left {
            let back = b.delegate_left[d];
            assert_eq!((*m, gain.to_bits()), (back.0, back.1.to_bits()), "{d}");
        }
        assert_eq!(a.moved_at, b.moved_at);
        assert_eq!(a.swept_at, b.swept_at);

        let (c, d) = (view.cursor, &back.cursor);
        assert_eq!(
            (c.next_round, c.nmod, c.total_moves),
            (d.next_round, d.nmod, d.total_moves)
        );
        assert_eq!(
            (c.inner, c.quiet_rounds, c.stalled_syncs),
            (d.inner, d.quiet_rounds, d.stalled_syncs)
        );
        assert_eq!(c.mdl.to_bits(), d.mdl.to_bits());
        assert_eq!(bits(&c.mdl_series), bits(&d.mdl_series));
        let (mut live, mut replayed) = (c.rng.clone(), d.rng.clone());
        for _ in 0..4 {
            assert_eq!(live.next_u64(), replayed.next_u64());
        }

        assert_eq!(view.delegate_assign, &back.delegate_assign);
        assert_eq!(view.assign, &back.assign[..]);
        assert_eq!(view.trace.len(), back.trace.len());
        for (t, u) in view.trace.iter().zip(&back.trace) {
            assert_eq!(t, u);
            assert_eq!(t.codelength.to_bits(), u.codelength.to_bits());
            assert_eq!(bits(&t.mdl_series), bits(&u.mdl_series));
        }
        assert_eq!(view.prev_mdl.to_bits(), back.prev_mdl.to_bits());
        assert_eq!(view.level_vertices, back.level_vertices);
    }

    #[test]
    fn snapshot_roundtrips_bit_identically() {
        let snap = sample_snapshot(4);
        let bytes = snap.encode();
        let back = RankSnapshot::decode(&bytes, TEST_SEED).expect("decode");
        // Re-encoding the decoded snapshot must reproduce the exact bytes
        // (maps are serialized sorted, floats as bit patterns).
        assert_eq!(back.encode(), bytes);
        assert_bit_identical(&snap.view(), &back);
    }

    #[test]
    fn decoded_rng_continues_the_original_stream() {
        let snap = sample_snapshot(6);
        let mut original = snap.cursor.rng.clone();
        let bytes = snap.encode();
        let mut back = RankSnapshot::decode(&bytes, TEST_SEED).expect("decode");
        // The replayed generator must produce the identical continuation.
        for _ in 0..16 {
            assert_eq!(back.cursor.rng.next_u64(), original.next_u64());
        }
    }

    #[test]
    fn round_stamps_roundtrip_and_refuse_what_is_not_one() {
        for stamp in [0u32, 1, 40, 127, 128, 300, 1 << 21, u32::MAX] {
            let mut bytes = Vec::new();
            put_uvarint(&mut bytes, stamp as u64);
            let mut buf = &bytes[..];
            assert_eq!(decode_stamp(&mut buf).ok(), Some(stamp));
            assert!(buf.is_empty());
        }
        assert!(decode_stamp(&mut &[][..]).is_err());
        assert!(decode_stamp(&mut &[0x80][..]).is_err(), "unterminated");
        let mut wide = Vec::new();
        put_uvarint(&mut wide, 1 << 32);
        assert!(decode_stamp(&mut &wide[..]).is_err(), "33 bits");
    }

    #[test]
    fn corrupt_snapshot_bytes_are_rejected() {
        let snap = sample_snapshot(2);
        let bytes = snap.encode();
        assert!(RankSnapshot::decode(&bytes[..bytes.len() - 3], TEST_SEED).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(RankSnapshot::decode(&extra, TEST_SEED).is_err());
        let mut wrong_version = bytes;
        wrong_version[8] ^= 0xff;
        assert!(RankSnapshot::decode(&wrong_version, TEST_SEED).is_err());
    }

    /// The owner reduction binary-searches a module's sources by rank and
    /// answers each at `info_out[rank]`: a well-framed snapshot whose
    /// sources it could not index is an error, not a later panic.
    #[test]
    fn owner_sources_the_reduction_cannot_index_are_refused() {
        let good = sample_snapshot(2);
        assert_eq!(good.st.nranks, 3);
        assert!(RankSnapshot::decode(&good.encode(), TEST_SEED).is_ok());
        for sources in [
            vec![(2, (0.1, 0.05, 1)), (0, (0.15, 0.075, 2))],
            vec![(0, (0.15, 0.075, 2)), (3, (0.1, 0.05, 1))],
        ] {
            let mut snap = sample_snapshot(2);
            snap.st.owner[5].sources = sources;
            assert!(RankSnapshot::decode(&snap.encode(), TEST_SEED).is_err());
        }
    }

    /// Records every commit of a run: checks `decode(encode(view))`
    /// against the live state on the spot and keeps the bytes.
    struct Recorder {
        seed: u64,
        seen: Mutex<Vec<(usize, SnapshotPos, Vec<u8>)>>,
    }

    impl SnapshotStore for Recorder {
        fn commit_view(&self, rank: usize, view: &SnapshotView<'_>) {
            let bytes = view.encode();
            let back = RankSnapshot::decode(&bytes, self.seed).expect("a live view decodes");
            assert_bit_identical(view, &back);
            self.seen.lock().unwrap().push((rank, view.pos, bytes));
        }

        fn agreed_pos(&self) -> Option<SnapshotPos> {
            None
        }

        fn restore_agreed(&self, _rank: usize) -> Option<RankSnapshot> {
            None
        }

        fn checkpoints_committed(&self) -> u64 {
            self.seen.lock().unwrap().len() as u64
        }
    }

    #[test]
    fn every_boundary_of_a_hub_run_roundtrips_exactly_and_byte_stably() {
        let (g, _) = DatasetId::Uk2007.profile().generate_scaled(0.02, 77);
        let cfg = DistributedConfig {
            nranks: 4,
            seed: 9,
            recovery: RecoveryConfig {
                checkpoint_every: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let program = RankProgram::prepare(cfg, &g);
        assert!(!program.delegates.is_empty(), "the stand-in grew no hubs");
        let record = || {
            let recorder = Recorder {
                seed: cfg.seed,
                seen: Mutex::new(Vec::new()),
            };
            World::new(cfg.nranks).run(|comm| program.run_rank(comm, &recorder));
            let mut seen = recorder.seen.into_inner().unwrap();
            seen.sort_by_key(|&(rank, pos, _)| (rank, pos));
            seen
        };
        let first = record();
        assert!(first.iter().any(|(_, pos, _)| pos.stage == 1));
        assert!(first.iter().any(|(_, pos, _)| pos.stage == 2));
        assert!(first == record(), "encode is not byte-stable across runs");
    }

    /// Commits every boundary to an in-memory and a file store of the
    /// rank's own, restores it from each on the spot and holds what comes
    /// back against the live state.
    struct RestoresOnCommit {
        mem: Vec<CheckpointStore>,
        file: Vec<FileCheckpointStore>,
        mid_stage: AtomicU64,
    }

    impl SnapshotStore for RestoresOnCommit {
        fn commit_view(&self, rank: usize, view: &SnapshotView<'_>) {
            let stores: [&dyn SnapshotStore; 2] = [&self.mem[rank], &self.file[rank]];
            for store in stores {
                store.commit_view(0, view);
                let back = store
                    .restore_agreed(0)
                    .expect("the boundary just committed");
                assert_eq!(back.pos, view.pos);
                // Nothing left to rescan, and the derived tables (`index`,
                // `module_slot`, `subscriber_li`) and the owner table
                // rebuilt as the uninterrupted run holds them.
                assert!(back.st.dirty_slots.is_empty());
                assert!(back.st == *view.st, "rank {rank} at {:?}", view.pos);
            }
            if view.pos.round >= 2 {
                self.mid_stage.fetch_add(1, Ordering::SeqCst);
            }
        }

        fn agreed_pos(&self) -> Option<SnapshotPos> {
            None
        }

        fn restore_agreed(&self, _rank: usize) -> Option<RankSnapshot> {
            None
        }

        fn checkpoints_committed(&self) -> u64 {
            self.mem.iter().map(|s| s.checkpoints_committed()).sum()
        }
    }

    #[test]
    fn a_mid_stage_restore_equals_the_uninterrupted_state_through_both_stores() {
        let (g, _) = DatasetId::Uk2007.profile().generate_scaled(0.02, 77);
        let cfg = DistributedConfig {
            nranks: 4,
            seed: 9,
            recovery: RecoveryConfig {
                checkpoint_every: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let dir = temp_store_dir("restore-eq");
        let store = RestoresOnCommit {
            mem: (0..cfg.nranks).map(|_| CheckpointStore::new(1)).collect(),
            file: (0..cfg.nranks)
                .map(|r| FileCheckpointStore::open(dir.join(r.to_string()), 1, cfg.seed).unwrap())
                .collect(),
            mid_stage: AtomicU64::new(0),
        };
        let program = RankProgram::prepare(cfg, &g);
        World::new(cfg.nranks).run(|comm| program.run_rank(comm, &store));
        assert!(store.mid_stage.load(Ordering::SeqCst) >= cfg.nranks as u64);
        assert!(store.file.iter().all(|s| s.commit_failures() == 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn temp_store_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dinf-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// File names under `dir` belonging to `rank`, sorted.
    fn files_of(dir: &Path, rank: usize) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&format!("rank-{rank}.")))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn file_store_roundtrips_and_agrees() {
        let dir = temp_store_dir("roundtrip");
        let store = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
        let snap = sample_snapshot(3);
        SnapshotStore::commit(&store, 0, &snap);
        SnapshotStore::commit(&store, 1, &snap);
        assert_eq!(store.agreed_pos(), Some(snap.pos));
        let back = store.restore_agreed(1).expect("restore");
        assert_eq!(back.encode(), snap.encode());
        assert_eq!(SnapshotStore::checkpoints_committed(&store), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_base_is_written_once_and_later_deltas_carry_only_what_moved() {
        let dir = temp_store_dir("once");
        let store = FileCheckpointStore::open(&dir, 1, TEST_SEED).unwrap();
        let first = sample_snapshot(1);
        SnapshotStore::commit(&store, 0, &first);
        let after_first = store.bytes_written();
        assert_eq!(after_first.base_files, 1);
        // The state keeps interning modules after its base was taken.
        let mut later = sample_snapshot(2);
        later.st.set_module(
            1 << 42,
            ModuleEntry {
                flow: 0.125,
                exit: 0.0625,
                members: 1,
            },
        );
        SnapshotStore::commit(&store, 0, &later);
        let written = store.bytes_written();
        assert_eq!(written.base_files, 1, "the base was rewritten");
        assert_eq!(written.base_bytes, after_first.base_bytes);
        assert!(written.delta_bytes > after_first.delta_bytes);
        assert_eq!(
            files_of(&dir, 0),
            ["rank-0.base-s1-l0.ckpt", "rank-0.g0.ckpt", "rank-0.g1.ckpt"]
        );
        let disk = |name: &str| std::fs::metadata(dir.join(name)).unwrap().len();
        assert_eq!(disk("rank-0.base-s1-l0.ckpt"), written.base_bytes);
        assert_eq!(
            disk("rank-0.g0.ckpt") + disk("rank-0.g1.ckpt"),
            written.delta_bytes
        );
        let back = store.restore_agreed(0).expect("restore");
        assert_bit_identical(&later.view(), &back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn split_commit_falls_back_to_previous_generation() {
        let dir = temp_store_dir("split");
        let store = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
        let older = sample_snapshot(2);
        let newer = sample_snapshot(4);
        // Both ranks commit boundary A; only rank 0 reaches boundary B
        // before the (simulated) crash.
        SnapshotStore::commit(&store, 0, &older);
        SnapshotStore::commit(&store, 1, &older);
        SnapshotStore::commit(&store, 0, &newer);
        // The agreed boundary is the older one — the only one both hold.
        assert_eq!(store.agreed_pos(), Some(older.pos));
        let r0 = store.restore_agreed(0).expect("rank 0 fallback");
        assert_eq!(r0.pos, older.pos);
        assert_eq!(r0.encode(), older.encode());
        // The replay commits boundary B again; the restored boundary A
        // must outlive that commit.
        SnapshotStore::commit(&store, 0, &newer);
        assert_eq!(store.agreed_pos(), Some(older.pos));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_store_resumes_and_overwrites_oldest() {
        let dir = temp_store_dir("reopen");
        let a = sample_snapshot(1);
        let b = sample_snapshot(2);
        let c = sample_snapshot(3);
        {
            let store = FileCheckpointStore::open(&dir, 1, TEST_SEED).unwrap();
            SnapshotStore::commit(&store, 0, &a);
            SnapshotStore::commit(&store, 0, &b);
        }
        // A fresh process (relaunch) opens the same directory: it must see
        // the newest boundary, and its next commit must overwrite the
        // oldest generation, preserving b.
        let store = FileCheckpointStore::open(&dir, 1, TEST_SEED).unwrap();
        assert_eq!(store.agreed_pos(), Some(b.pos));
        assert!(store.restore_agreed(0).is_some());
        SnapshotStore::commit(&store, 0, &c);
        assert_eq!(store.agreed_pos(), Some(c.pos));
        let positions: Vec<SnapshotPos> =
            store.positions_of(0).into_iter().map(|(p, _)| p).collect();
        assert!(positions.contains(&b.pos), "b was clobbered: {positions:?}");
        assert!(positions.contains(&c.pos));
        assert!(checkpoint_files_present(&dir));
        // The resumed run extended the base it restored from.
        assert_eq!(store.bytes_written().base_files, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_file_reads_as_absent() {
        let dir = temp_store_dir("torn");
        let store = FileCheckpointStore::open(&dir, 1, TEST_SEED).unwrap();
        let snap = sample_snapshot(2);
        SnapshotStore::commit(&store, 0, &snap);
        // Truncate the committed file, as a crash mid-write (without the
        // atomic rename) would.
        let path = dir.join("rank-0.g0.ckpt");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.agreed_pos(), None);
        assert!(store.restore_agreed(0).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn death_between_base_and_first_delta_keeps_the_previous_boundary() {
        let dir = temp_store_dir("basefirst");
        let s1 = [sample_snapshot(2), sample_snapshot(3)];
        let s2 = sample_snapshot_at(2, 1, 1);
        {
            let store = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
            for snap in &s1 {
                SnapshotStore::commit(&store, 0, snap);
                SnapshotStore::commit(&store, 1, snap);
            }
            // Rank 0 opens stage 2 and dies after the base's rename,
            // before the delta's: the slot it retired is gone, the new
            // base is there, no delta names it.
            SnapshotStore::commit(&store, 0, &s2);
            std::fs::remove_file(dir.join("rank-0.g0.ckpt")).unwrap();
            // Rank 1 died inside a commit: between `write` and `rename`.
            std::fs::write(dir.join("rank-1.g0.ckpt.tmp"), b"half a delta").unwrap();
        }
        assert_eq!(
            files_of(&dir, 0),
            [
                "rank-0.base-s1-l0.ckpt",
                "rank-0.base-s2-l1.ckpt",
                "rank-0.g1.ckpt"
            ]
        );
        let store = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
        assert!(files_of(&dir, 1).iter().all(|n| !n.ends_with(".tmp")));
        assert_eq!(store.agreed_pos(), Some(s1[1].pos));
        for rank in 0..2 {
            let back = store.restore_agreed(rank).expect("previous boundary");
            assert_eq!(back.encode(), s1[1].encode());
        }
        // The relaunch reaches stage 2 again: the orphaned base is
        // replaced, not leaked, and the restored boundary survives.
        SnapshotStore::commit(&store, 0, &s2);
        assert_eq!(
            files_of(&dir, 0),
            [
                "rank-0.base-s1-l0.ckpt",
                "rank-0.base-s2-l1.ckpt",
                "rank-0.g0.ckpt",
                "rank-0.g1.ckpt"
            ]
        );
        assert_eq!(store.agreed_pos(), Some(s1[1].pos));

        // A base on its own is nothing a relaunch could restore from.
        let lone = temp_store_dir("lonebase");
        std::fs::create_dir_all(&lone).unwrap();
        std::fs::copy(
            dir.join("rank-0.base-s2-l1.ckpt"),
            lone.join("rank-0.base-s2-l1.ckpt"),
        )
        .unwrap();
        assert!(!checkpoint_files_present(&lone));
        let empty = FileCheckpointStore::open(&lone, 2, TEST_SEED).unwrap();
        assert_eq!(empty.agreed_pos(), None);
        let _ = std::fs::remove_dir_all(&lone);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generations_straddling_a_stage_boundary_restore_against_their_own_bases() {
        let dir = temp_store_dir("straddle");
        let s1 = sample_snapshot(5);
        let s2 = sample_snapshot_at(2, 1, 1);
        assert_ne!(s1.st.verts, s2.st.verts, "the two stages must differ");
        let store = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
        for rank in 0..2 {
            SnapshotStore::commit(&store, rank, &s1);
            SnapshotStore::commit(&store, rank, &s2);
        }
        assert_eq!(store.bytes_written().base_files, 4);
        assert_eq!(store.agreed_pos(), Some(s2.pos));
        assert_eq!(store.restore_agreed(1).unwrap().encode(), s2.encode());
        // Rank 1 loses its stage-2 generation: the world falls back to
        // the stage-1 boundary, which restores against the stage-1 base.
        std::fs::remove_file(dir.join("rank-1.g1.ckpt")).unwrap();
        assert_eq!(store.agreed_pos(), Some(s1.pos));
        for rank in 0..2 {
            let back = store.restore_agreed(rank).expect("stage-1 generation");
            assert_bit_identical(&s1.view(), &back);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A smaller snapshot for the exhaustive sweeps.
    fn small_snapshot() -> RankSnapshot {
        let (g, _) = generators::ring_of_cliques(3, 4, 0);
        let part = Partition::delegate(&g, 2, infomap_partition::DelegateThreshold::Fixed(4), true);
        let mut st = build_stage1_states(&g, &part).remove(0);
        at_round_boundary(&mut st);
        RankSnapshot {
            st,
            ..sample_snapshot(2)
        }
    }

    #[test]
    fn every_truncation_and_every_flipped_bit_is_an_error() {
        let bytes = small_snapshot().encode();
        assert!(RankSnapshot::decode(&bytes, TEST_SEED).is_ok());
        for len in 0..bytes.len() {
            assert!(
                RankSnapshot::decode(&bytes[..len], TEST_SEED).is_err(),
                "truncation to {len} of {} bytes decoded",
                bytes.len()
            );
        }
        let mut damaged = bytes.clone();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                damaged[at] ^= 1 << bit;
                assert!(
                    RankSnapshot::decode(&damaged, TEST_SEED).is_err(),
                    "bit {bit} of byte {at} flipped and the snapshot still decoded"
                );
                damaged[at] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn a_count_the_input_cannot_hold_is_refused_before_allocating() {
        assert!(decode_len(&mut &u64::MAX.to_le_bytes()[..], 1).is_err());
        assert!(decode_len(&mut &[3, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9][..], 2).is_err());
        assert_eq!(
            decode_len(&mut &[3, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9][..], 1).ok(),
            Some(3)
        );
        // A well-framed delta (valid checksum) whose first vector claims
        // 2^64-1 items: an error, not an allocation.
        let bytes = small_snapshot().encode();
        let base_len = bytes.len() - read_section(&bytes, SectionKind::Base).unwrap().rest.len();
        let (base, delta) = bytes.split_at(base_len);
        let mut delta = delta.to_vec();
        // position (9) + base reference (16) + next_round, mdl, nmod (24).
        let at = SECTION_HEADER + 9 + 16 + 24;
        delta[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        close_section(&mut delta, 0, SectionKind::Delta);
        let base = whole_section(base, SectionKind::Base).unwrap();
        let delta = whole_section(&delta, SectionKind::Delta).expect("well framed");
        assert!(decode_sections(&base, &delta, TEST_SEED).is_err());
    }

    #[test]
    fn a_damaged_or_missing_base_or_delta_reads_as_absent() {
        let dir = temp_store_dir("damage");
        let snap = small_snapshot();
        let store = FileCheckpointStore::open(&dir, 1, TEST_SEED).unwrap();
        SnapshotStore::commit(&store, 0, &snap);
        assert_eq!(store.agreed_pos(), Some(snap.pos));
        for name in ["rank-0.base-s1-l0.ckpt", "rank-0.g0.ckpt"] {
            let path = dir.join(name);
            let good = std::fs::read(&path).unwrap();
            for at in [
                0,
                9,
                13,
                17,
                25,
                SECTION_HEADER,
                good.len() / 2,
                good.len() - 1,
            ] {
                let mut bad = good.clone();
                bad[at] ^= 0x10;
                std::fs::write(&path, &bad).unwrap();
                assert_eq!(store.agreed_pos(), None, "{name} byte {at}");
                assert!(store.restore_agreed(0).is_none());
            }
            std::fs::write(&path, &good[..good.len() - 1]).unwrap();
            assert_eq!(store.agreed_pos(), None, "{name} truncated");
            std::fs::remove_file(&path).unwrap();
            assert_eq!(store.agreed_pos(), None, "{name} missing");
            std::fs::write(&path, &good).unwrap();
            assert_eq!(store.agreed_pos(), Some(snap.pos));
        }
        // A v1 file (a length where the version now sits) reads as absent.
        let delta = std::fs::read(dir.join("rank-0.g0.ckpt")).unwrap();
        let mut v1 = CKPT_MAGIC.to_vec();
        v1.extend_from_slice(&4096u64.to_le_bytes());
        v1.resize(4096 + 24, 0);
        std::fs::write(dir.join("rank-0.g0.ckpt"), &v1).unwrap();
        assert_eq!(store.agreed_pos(), None, "old format");
        std::fs::write(dir.join("rank-0.g0.ckpt"), &delta).unwrap();
        assert_eq!(store.agreed_pos(), Some(snap.pos));
        // So does a version-3 file (owner-side maps where the owner table
        // now sits), whichever of the two sections still says 3.
        for name in ["rank-0.base-s1-l0.ckpt", "rank-0.g0.ckpt"] {
            let good = std::fs::read(dir.join(name)).unwrap();
            let mut v3 = good.clone();
            v3[8..12].copy_from_slice(&3u32.to_le_bytes());
            std::fs::write(dir.join(name), &v3).unwrap();
            assert_eq!(store.agreed_pos(), None, "{name} at version 3");
            std::fs::write(dir.join(name), &good).unwrap();
        }
        assert_eq!(store.agreed_pos(), Some(snap.pos));
        // A base of the right name that is not the one the delta names.
        let other = FileCheckpointStore::open(temp_store_dir("damage2"), 1, TEST_SEED).unwrap();
        SnapshotStore::commit(&other, 0, &sample_snapshot(2));
        std::fs::copy(
            other.dir.join("rank-0.base-s1-l0.ckpt"),
            dir.join("rank-0.base-s1-l0.ckpt"),
        )
        .unwrap();
        assert_eq!(store.agreed_pos(), None, "mismatched base");
        let _ = std::fs::remove_dir_all(&other.dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rank_never_holds_more_than_two_bases_and_every_generation_keeps_its_base() {
        let dir = temp_store_dir("gc");
        let store = FileCheckpointStore::open(&dir, 1, TEST_SEED).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let (mut stage, mut level, mut round) = (1u8, 0u32, 0usize);
        let mut base_files = 0;
        for step in 0..60 {
            // Stay in the level for a few rounds, or open the next one —
            // sometimes after a single checkpoint, so that two generations
            // name two bases while a third level begins.
            if step > 0 && rng.next_u64() % 3 == 0 {
                (stage, level, round) = (2, level + 1, 0);
            }
            round += 1;
            if round == 1 {
                base_files += 1;
            }
            let snap = sample_snapshot_at(stage, level, round);
            SnapshotStore::commit(&store, 0, &snap);

            let names = files_of(&dir, 0);
            let count = |pat: &str| names.iter().filter(|n| n.contains(pat)).count();
            assert!(count(".base-") <= 2, "step {step}: {names:?}");
            assert!(count(".g") <= 2, "step {step}: {names:?}");
            assert_eq!(count(".tmp"), 0, "step {step}: {names:?}");
            // Every generation on disk decodes, so its base is there.
            let held = store.positions_of(0);
            assert_eq!(held.len(), count(".g"), "step {step}: {names:?}");
            assert_eq!(held[0].0, snap.pos);
            assert_eq!(store.bytes_written().base_files, base_files);
        }
        assert!(level >= 5, "the walk never left stage 1");
        assert_eq!(store.commit_failures(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_commit_that_cannot_reach_the_directory_is_counted_not_swallowed() {
        let dir = temp_store_dir("unwritable");
        let store = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
        let snap = sample_snapshot(2);
        SnapshotStore::commit(&store, 0, &snap);
        assert_eq!(store.commit_failures(), 0);
        // The checkpoint directory is replaced by a regular file.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        SnapshotStore::commit(&store, 0, &sample_snapshot(3));
        SnapshotStore::commit(&store, 1, &snap);
        SnapshotStore::commit(&store, 1, &snap);
        assert_eq!(store.commit_failures(), 3);
        assert_eq!(SnapshotStore::checkpoints_committed(&store), 1);
        assert_eq!(store.agreed_pos(), None);
        let _ = std::fs::remove_file(&dir);
    }
}
