//! Level-boundary checkpointing of the distributed clustering state.
//!
//! A checkpoint is the start of a stage-2 level: the state
//! `distributed_merge` just built, plus the driver's carry (original-vertex
//! assignments, stage trace, previous MDL, level size). Every merge
//! rebuilds the level state from scratch and every stage reseeds its sweep
//! RNG with [`stage_rng_seed`], so the rest of a run is a deterministic
//! function of that record: restoring it and re-running the level from its
//! first round is bit-identical to the uninterrupted run. Stage 1 is never
//! checkpointed, because `prepare` recomputes its start from the input; a
//! crash inside it costs a re-prepare and a second stage 1.
//!
//! Consistency is by construction, not by protocol: the driver commits
//! right after a consensus collective, with no communication event in
//! between, and injected crashes only fire at communication events — so in
//! the thread world either every rank committed a level or none did. A real
//! process can die between the collective and its own commit; the file
//! store keeps two generations per rank, and [`SnapshotStore::agreed_pos`]
//! picks the newest level every rank holds.
//!
//! A record is a level record of the one snapshot format
//! ([`infomap_graph::snapshot`]): written by its writer, and restored
//! through its reader's one verifying pass — checksum, CSR structure and
//! the map equation's domain rule — before any state is built from it.
//!
//! A record names the run that wrote it ([`RunId`]). Decoding refuses a
//! record of another seed, so a store reads it as absent, and the file
//! store reads a generation whose header names another rank or world size
//! than its file as absent too; [`RankSnapshot::check_same_run`] refuses,
//! by name, one of another world size or input graph.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use infomap_graph::snapshot::{
    write_atomic, write_parts, ShardSpec, SnapshotError, SnapshotHeader, SnapshotKind,
    SnapshotStore as Record,
};
use infomap_graph::GraphStore;
use infomap_mpisim::{WireDecodeError, WirePayload};
use infomap_partition::Arc;

use crate::driver::StageTrace;
use crate::rounds::StageStop;
use crate::state::{build_1d_state, LocalState};

/// The run a record belongs to: what a restore must agree with before the
/// record may stand in for this run's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunId {
    pub nranks: usize,
    /// The run seed every stage reseeds its sweep RNG from.
    pub seed: u64,
    /// Vertices of the original graph.
    pub original_n: usize,
    /// Bits of the MDL's node term Σ plogp(p_v): a fingerprint of the
    /// input graph.
    pub node_term_bits: u64,
    /// Bits of the input graph's total weight `W`: every level prices its
    /// flows by `1/(2W)`.
    pub total_weight_bits: u64,
}

/// One rank's checkpoint: the start of stage-2 level `level`.
#[derive(Clone, Debug)]
pub struct RankSnapshot {
    /// The run that wrote the record.
    pub run: RunId,
    /// The stage-2 level this record starts (1 = right after stage 1's
    /// merge).
    pub level: u32,
    /// The level state as `distributed_merge` built it, before any round
    /// ran on it. Serialized as `build_1d_state`'s inputs.
    pub st: LocalState,
    /// Original-vertex assignments this rank carries, as level vertices.
    pub assign: Vec<(u32, u32)>,
    /// One entry per stage run so far.
    pub trace: Vec<StageTrace>,
    /// MDL of the last completed stage: the codelength of `assign`.
    pub prev_mdl: f64,
    /// Vertices of the level graph.
    pub level_vertices: usize,
}

impl RankSnapshot {
    /// Serialize as a level record (see "Record format" below).
    pub fn encode(&self) -> Vec<u8> {
        let st = &self.st;
        // A level state's movable vertices are the ones it owns, at local
        // indices 0.., ascending; each one's CSR row holds its arcs in the
        // ascending order the merge delivered them, and ghosts have no rows.
        let owned = st.movable().len();
        let arcs = st.adj_off[owned] as usize;
        let offsets: Vec<u64> = st.adj_off[..=owned].iter().map(|&o| o as u64).collect();
        let targets: Vec<u32> = (st.adj_tgt[..arcs].iter())
            .map(|&t| st.verts[t as usize])
            .collect();
        let spec = ShardSpec {
            rank: st.rank,
            nranks: st.nranks,
            global_vertices: self.level_vertices,
            global_edges: 0,
            global_weight: f64::from_bits(self.run.total_weight_bits),
        };
        let (weights, flows, carry) = (&st.adj_w[..arcs], &st.node_flow[..owned], self.carry());
        let mut out = Vec::new();
        write_parts(
            &mut out,
            &spec,
            &offsets,
            &targets,
            weights,
            flows,
            Some(&carry),
        )
        .expect("a level of a priced input is priceable");
        out
    }

    /// Decode a record of the run seeded `run_seed`. A record written
    /// with another seed is refused like a damaged one.
    pub fn decode(bytes: &[u8], run_seed: u64) -> Result<RankSnapshot, SnapshotError> {
        decode_record(bytes, Some(run_seed))
    }

    /// An error naming both unless this record was written by a run of
    /// `nranks` ranks on an input of `original_n` vertices with node term
    /// `node_term` — the run about to use it. (Its seed was checked by
    /// [`RankSnapshot::decode`].)
    pub fn check_same_run(
        &self,
        nranks: usize,
        original_n: usize,
        node_term: f64,
    ) -> Result<(), String> {
        self.run.check_same_run(nranks, original_n, node_term)
    }
}

impl RunId {
    /// [`RankSnapshot::check_same_run`] for the record this run wrote.
    pub fn check_same_run(
        &self,
        nranks: usize,
        original_n: usize,
        node_term: f64,
    ) -> Result<(), String> {
        let (p, n, bits) = (self.nranks, self.original_n, self.node_term_bits);
        let term = node_term.to_bits();
        if (p, n, bits) == (nranks, original_n, term) {
            return Ok(());
        }
        Err(format!(
            "checkpoint belongs to another run: it was written for {p} ranks, {n} vertices, \
             node term {bits:#018x}; this run has {nranks} ranks, {original_n} vertices, \
             node term {term:#018x}"
        ))
    }
}

/// The stage-seed mix of `cluster_stage`: every stage reseeds its sweep
/// RNG with this, which is what makes a level start a recovery point.
pub fn stage_rng_seed(seed: u64, rank: usize) -> u64 {
    seed ^ (rank as u64).wrapping_mul(0x9e3779b97f4a7c15)
}

/// Where committed records live, abstracted over the run mode.
///
/// The thread world uses the in-memory [`CheckpointStore`]; a
/// multi-process run uses the [`FileCheckpointStore`], whose records
/// survive a SIGKILLed rank. The one recovery loop,
/// [`crate::driver::recover`], speaks only this trait.
pub trait SnapshotStore: Sync {
    /// Commit `rank`'s record. Returns the bytes it took — what the cost
    /// model meters — or 0 when the commit failed.
    fn commit(&self, rank: usize, snap: &RankSnapshot) -> u64;

    /// The newest level every rank has a committed record for.
    fn agreed_pos(&self) -> Option<u32>;

    /// `rank`'s record at the agreed level.
    fn restore_agreed(&self, rank: usize) -> Option<RankSnapshot>;

    /// Every rank's carry at the agreed level, in rank order, read off the
    /// verified records with no state built: what a degraded result is
    /// assembled from. `None` when no level is agreed or a record is gone.
    fn agreed_carries(&self) -> Option<Vec<Carry>>;

    /// Total rank commits over the store's lifetime.
    fn checkpoints_committed(&self) -> u64;
}

/// In-memory stand-in for the checkpoint storage of a real deployment
/// (burst buffer / parallel FS): each rank's last record, encoded, written
/// behind the level's consensus collective and decoded at the start of a
/// retry.
#[derive(Debug)]
pub struct CheckpointStore {
    slots: Vec<Mutex<Slot>>,
    commits: AtomicU64,
}

/// A rank's last commit: its level and its bytes.
type Slot = Option<(u32, Vec<u8>)>;

impl CheckpointStore {
    pub fn new(nranks: usize) -> Self {
        CheckpointStore {
            slots: (0..nranks).map(|_| Mutex::new(None)).collect(),
            commits: AtomicU64::new(0),
        }
    }

    fn slot(&self, rank: usize) -> MutexGuard<'_, Slot> {
        self.slots[rank]
            .lock()
            .expect("no thread panics while holding a checkpoint slot")
    }
}

impl SnapshotStore for CheckpointStore {
    fn commit(&self, rank: usize, snap: &RankSnapshot) -> u64 {
        let bytes = snap.encode();
        let len = bytes.len() as u64;
        *self.slot(rank) = Some((snap.level, bytes));
        self.commits.fetch_add(1, Ordering::SeqCst);
        len
    }

    /// Commits are all-or-nothing across the thread world (see the module
    /// doc), so the ranks hold one level or none; anything else is a bug,
    /// not a recoverable state.
    fn agreed_pos(&self) -> Option<u32> {
        let levels: Vec<Option<u32>> = (0..self.slots.len())
            .map(|rank| self.slot(rank).as_ref().map(|&(level, _)| level))
            .collect();
        assert!(
            levels.windows(2).all(|w| w[0] == w[1]),
            "checkpoint store is inconsistent: {levels:?}"
        );
        levels.first().copied().flatten()
    }

    /// The store lives inside one run, so a record of another seed cannot
    /// be in it; one it encoded and now refuses is a fault of this
    /// process, named.
    fn restore_agreed(&self, rank: usize) -> Option<RankSnapshot> {
        self.agreed_pos()?;
        let slot = self.slot(rank);
        let (_, bytes) = slot.as_ref()?;
        let snap = decode_record(bytes, None);
        Some(snap.unwrap_or_else(|e| panic!("rank {rank}: checkpoint record refused: {e}")))
    }

    fn agreed_carries(&self) -> Option<Vec<Carry>> {
        self.agreed_pos()?;
        (0..self.slots.len())
            .map(|rank| {
                let slot = self.slot(rank);
                let (_, bytes) = slot.as_ref()?;
                let carry = open_record(bytes, None).map(|(_, carry)| carry);
                Some(
                    carry.unwrap_or_else(|e| panic!("rank {rank}: checkpoint record refused: {e}")),
                )
            })
            .collect()
    }

    fn checkpoints_committed(&self) -> u64 {
        self.commits.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// Record format
// ---------------------------------------------------------------------
//
// A record is a level record of the snapshot format (its module doc has
// the layout). The header holds the rank, the world size, the level's
// vertex count and the input graph's `W`, from which decode recomputes
// `inv_two_w` as `1/(2W)`, as `stage1_state` computes it. The rows are
// `build_1d_state`'s arcs, read back off the level state, their targets
// ascending within each row; the per-row section holds the owned
// vertices' flows, the committed bits. The carry is encoded with the
// deterministic little-endian [`WirePayload`] primitives (floats as IEEE
// bit patterns):
//
// * the run identity: seed, original vertex count, node-term bits;
// * level, previous MDL;
// * the carried assignments `(original vertex, level vertex)`;
// * the stage trace.
//
// No `LocalState` field is serialized: decode walks the verified rows
// into `build_1d_state`, the function that built the live state, so a new
// state field never changes the format.

/// Least encoded bytes of a [`StageTrace`]: the scalars, the length of its
/// MDL series and the stop byte.
const TRACE_BYTES: usize = 1 + 8 * 8 + 8 + 1;

fn corrupt(context: &'static str) -> WireDecodeError {
    WireDecodeError { context }
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

/// A vector of `min_item`-byte items behind a [`decode_len`] prefix.
fn decode_vec<T: WirePayload>(buf: &mut &[u8], min_item: usize) -> Result<Vec<T>, WireDecodeError> {
    let n = decode_len(buf, min_item)?;
    T::decode_run(buf, n)
}

fn encode_trace(t: &StageTrace, out: &mut Vec<u8>) {
    t.stage.encode_into(out);
    t.level.encode_into(out);
    t.codelength.encode_into(out);
    t.exit_flow.encode_into(out);
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
        exit_flow: f64::decode_from(buf)?,
        num_modules: usize::decode_from(buf)?,
        vertices_before: usize::decode_from(buf)?,
        vertices_after: usize::decode_from(buf)?,
        inner_iterations: usize::decode_from(buf)?,
        moves: u64::decode_from(buf)?,
        mdl_series: decode_vec(buf, 8)?,
        stop: match u8::decode_from(buf)? {
            0 => StageStop::Quiesced,
            1 => StageStop::Stalled,
            2 => StageStop::Cap,
            _ => return Err(corrupt("StageStop")),
        },
    })
}

/// Everything of a [`RankSnapshot`] but its state: the carry section of
/// its level record.
#[derive(Clone, Debug)]
pub struct Carry {
    pub run: RunId,
    pub level: u32,
    pub prev_mdl: f64,
    pub assign: Vec<(u32, u32)>,
    pub trace: Vec<StageTrace>,
}

impl RankSnapshot {
    /// The carry section of this record (see "Record format").
    fn carry(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let run = &self.run;
        (run.seed, run.original_n, run.node_term_bits).encode_into(&mut out);
        (self.level, self.prev_mdl).encode_into(&mut out);
        self.assign.encode_into(&mut out);
        (self.trace.len() as u64).encode_into(&mut out);
        for t in &self.trace {
            encode_trace(t, &mut out);
        }
        out
    }
}

/// The carry of a record under `h`, refusing an assignment that maps no
/// original vertex to a level vertex and a codelength that is not finite.
fn decode_carry(mut buf: &[u8], h: &SnapshotHeader) -> Result<Carry, WireDecodeError> {
    let buf = &mut buf;
    let (seed, original_n, node_term_bits) = WirePayload::decode_from(buf)?;
    let total_weight_bits = h.global_weight.to_bits();
    let (nranks, level_vertices) = (h.nranks, h.global_vertices);
    let (level, prev_mdl) = WirePayload::decode_from(buf)?;
    let assign: Vec<(u32, u32)> = decode_vec(buf, 8)?;
    if (assign.iter()).any(|&(v, m)| v as usize >= original_n || m as usize >= level_vertices) {
        return Err(corrupt("snapshot assignments"));
    }
    let trace = (0..decode_len(buf, TRACE_BYTES)?)
        .map(|_| decode_trace(buf))
        .collect::<Result<Vec<_>, _>>()?;
    if !buf.is_empty() {
        return Err(corrupt("snapshot trailing bytes"));
    }
    let mdls = (trace.iter()).flat_map(|t| t.mdl_series.iter().chain([&t.codelength]));
    if !(f64::is_finite(prev_mdl) && mdls.copied().all(f64::is_finite)) {
        return Err(corrupt("snapshot codelength is not finite"));
    }
    if !trace.iter().all(|t| t.exit_flow.is_finite()) {
        return Err(corrupt("snapshot exit flow is not finite"));
    }
    Ok(Carry {
        run: RunId {
            nranks,
            seed,
            original_n,
            node_term_bits,
            total_weight_bits,
        },
        level,
        prev_mdl,
        assign,
        trace,
    })
}

/// The level record `bytes` hold, through the snapshot reader's one
/// verifying pass, and its carry; one of a seed other than `seed` (if
/// given) is refused. No state is built.
fn open_record(bytes: &[u8], seed: Option<u64>) -> Result<(Record, Carry), SnapshotError> {
    let malformed = |context| SnapshotError::Malformed { context };
    let record = Record::from_bytes(bytes)?;
    if record.header().kind != SnapshotKind::LevelRecord {
        return Err(malformed("not a level record"));
    }
    let carry = decode_carry(record.carry(), record.header()).map_err(|e| malformed(e.context))?;
    if seed.is_some_and(|s| s != carry.run.seed) {
        return Err(malformed("snapshot written with another seed"));
    }
    Ok((record, carry))
}

/// The one state a restore builds: `build_1d_state` over a verified
/// record's rows and flows, once the one thing it relies on that the
/// reader does not check holds: targets strictly ascend within a row.
fn restore(record: &Record, carry: Carry) -> Result<RankSnapshot, SnapshotError> {
    let h = *record.header();
    let (mut arcs, mut flows, mut row) = (Vec::with_capacity(h.arcs), Vec::new(), Vec::new());
    for src in (0..h.rows).map(|i| h.vertex_of_row(i)) {
        record.arcs_into(src, &mut row);
        if row.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(SnapshotError::Malformed {
                context: "level arc targets must ascend within a row",
            });
        }
        arcs.extend((row.iter()).map(|&(dst, weight)| Arc { src, dst, weight }));
        flows.push((src, record.strength(src)));
    }
    Ok(RankSnapshot {
        st: build_1d_state(
            h.rank,
            h.nranks,
            &arcs,
            &flows,
            1.0 / (2.0 * h.global_weight),
        ),
        run: carry.run,
        level: carry.level,
        assign: carry.assign,
        trace: carry.trace,
        prev_mdl: carry.prev_mdl,
        level_vertices: h.global_vertices,
    })
}

/// [`open_record`], then [`restore`].
fn decode_record(bytes: &[u8], seed: Option<u64>) -> Result<RankSnapshot, SnapshotError> {
    let (record, carry) = open_record(bytes, seed)?;
    restore(&record, carry)
}

// ---------------------------------------------------------------------
// File-backed store
// ---------------------------------------------------------------------

/// Durable checkpoint store for multi-process runs: two generation files
/// per rank under a shared directory, `rank-R.g0.ckpt` and
/// `rank-R.g1.ckpt`, surviving SIGKILLed ranks.
///
/// Every record is encoded into one buffer and written with the snapshot
/// writer's [`write_atomic`] (`<name>.tmp` + `rename`) — readers never
/// observe a torn file. A rank alternates between its generations, so the
/// previous level survives until the next-but-one commit. That redundancy
/// is what makes restore after a *real* crash sound: a process killed
/// between the consensus collective and its own commit leaves the world
/// split across two levels, and [`SnapshotStore::agreed_pos`] picks the
/// newest level every rank still holds. A generation that is missing,
/// torn, damaged, refused, of another seed, or whose header names another
/// rank or world size than its slot reads as absent; the other generation
/// still stands.
///
/// Durability is against process death (the files reach the page cache
/// before `commit` returns), not against loss of the machine.
pub struct FileCheckpointStore {
    dir: PathBuf,
    nranks: usize,
    /// The run seed; a record of another one reads as absent.
    run_seed: u64,
    ranks: Vec<Mutex<RankFiles>>,
    commits: AtomicU64,
    failures: AtomicU64,
    bytes: AtomicU64,
}

/// One rank's files as this store instance knows them.
#[derive(Default)]
struct RankFiles {
    /// The generation the next record goes to.
    next_gen: u8,
    /// A failed commit was already reported for this rank.
    failure_reported: bool,
}

impl FileCheckpointStore {
    /// Open (creating the directory if needed). Existing records are kept
    /// — that is the point: a relaunched world resumes from them. For each
    /// rank, the next commit targets the generation NOT holding its newest
    /// readable record, so a relaunch keeps overwriting the older one.
    /// Leftover `.tmp` files are removed, so a store is opened before the
    /// world it serves commits, not beside one that is committing (every
    /// worker opens its store before the bootstrap, the launcher its own
    /// before the first world).
    pub fn open(
        dir: impl Into<PathBuf>,
        nranks: usize,
        run_seed: u64,
    ) -> std::io::Result<FileCheckpointStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)?.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("rank-") && name.ends_with(".ckpt.tmp") {
                // What a writer killed between `write` and `rename` left.
                let _ = std::fs::remove_file(entry.path());
            }
        }
        let store = FileCheckpointStore {
            dir,
            nranks,
            run_seed,
            ranks: (0..nranks).map(|_| Mutex::default()).collect(),
            commits: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        };
        for rank in 0..nranks {
            if let Some(&(_, newest)) = store.positions_of(rank).first() {
                store.files(rank).next_gen = 1 - newest;
            }
        }
        Ok(store)
    }

    fn files(&self, rank: usize) -> MutexGuard<'_, RankFiles> {
        self.ranks[rank]
            .lock()
            .expect("no commit panics while holding a rank's file state")
    }

    fn slot_path(&self, rank: usize, gen: u8) -> PathBuf {
        self.dir.join(format!("rank-{rank}.g{gen}.ckpt"))
    }

    /// One generation, verified, with its carry; `None` for a missing,
    /// unreadable, torn, damaged, refused or foreign-seed record, and for
    /// one whose header names another rank or world size than its slot:
    /// it must not count toward [`SnapshotStore::agreed_pos`], nor run as
    /// this slot's rank.
    fn read_slot(&self, rank: usize, gen: u8) -> Option<(Record, Carry)> {
        let bytes = std::fs::read(self.slot_path(rank, gen)).ok()?;
        let (record, carry) = open_record(&bytes, Some(self.run_seed)).ok()?;
        let h = record.header();
        (h.rank == rank && h.nranks == self.nranks).then_some((record, carry))
    }

    /// The level and generation of every readable record of `rank`, newest
    /// first, read off the verified carries: no state is built.
    fn positions_of(&self, rank: usize) -> Vec<(u32, u8)> {
        let mut found: Vec<(u32, u8)> = (0..2u8)
            .filter_map(|gen| Some((self.read_slot(rank, gen)?.1.level, gen)))
            .collect();
        found.sort_by_key(|&(level, _)| std::cmp::Reverse(level));
        found
    }

    /// Commits that could not be made durable (a `write` or `rename`
    /// failed) over the store's lifetime. The first one of each rank is
    /// reported on stderr with the path and the I/O error.
    pub fn commit_failures(&self) -> u64 {
        self.failures.load(Ordering::SeqCst)
    }

    /// Bytes of the generation files this instance has written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes.load(Ordering::SeqCst)
    }
}

impl SnapshotStore for FileCheckpointStore {
    fn commit(&self, rank: usize, snap: &RankSnapshot) -> u64 {
        let bytes = snap.encode();
        let mut files = self.files(rank);
        let RankFiles {
            next_gen,
            failure_reported,
        } = &mut *files;
        let path = self.slot_path(rank, *next_gen);
        match write_atomic(&path, |file| Ok(file.write_all(&bytes)?)) {
            Ok(()) => {
                *next_gen = 1 - *next_gen;
                self.commits.fetch_add(1, Ordering::SeqCst);
                self.bytes.fetch_add(bytes.len() as u64, Ordering::SeqCst);
                bytes.len() as u64
            }
            Err(e) => {
                self.failures.fetch_add(1, Ordering::SeqCst);
                if !std::mem::replace(failure_reported, true) {
                    eprintln!(
                        "rank {rank}: checkpoint commit failed at {}: {e} \
                         (further failures of this rank are only counted)",
                        path.display()
                    );
                }
                0
            }
        }
    }

    fn agreed_pos(&self) -> Option<u32> {
        // Rank 0's levels, newest first: the first one every rank holds.
        let held: Vec<Vec<(u32, u8)>> = (0..self.nranks).map(|r| self.positions_of(r)).collect();
        let (first, others) = held.split_first()?;
        let holds = |ranks: &[(u32, u8)], level| ranks.iter().any(|&(l, _)| l == level);
        (first.iter().map(|&(l, _)| l)).find(|&l| others.iter().all(|h| holds(h, l)))
    }

    fn restore_agreed(&self, rank: usize) -> Option<RankSnapshot> {
        let level = self.agreed_pos()?;
        let (gen, (record, carry)) = (0..2u8).find_map(|gen| {
            let slot = self.read_slot(rank, gen)?;
            (slot.1.level == level).then_some((gen, slot))
        })?;
        let snap = restore(&record, carry).ok()?;
        // The run continues from this generation, which must outlive the
        // next commit (the other one holds an older level, or a newer one
        // that not every rank reached and that the replay commits again).
        self.files(rank).next_gen = 1 - gen;
        Some(snap)
    }

    fn agreed_carries(&self) -> Option<Vec<Carry>> {
        let level = self.agreed_pos()?;
        (0..self.nranks)
            .map(|rank| {
                (0..2u8)
                    .filter_map(|gen| self.read_slot(rank, gen))
                    .map(|(_, carry)| carry)
                    .find(|carry| carry.level == level)
            })
            .collect()
    }

    fn checkpoints_committed(&self) -> u64 {
        self.commits.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DistributedConfig, RecoveryConfig};
    use crate::driver::RankProgram;
    use crate::state::tests::fingerprint;
    use infomap_graph::datasets::DatasetId;
    use infomap_graph::generators::{self, LfrParams};
    use infomap_graph::snapshot::owned_row_count;
    use infomap_graph::Graph;
    use infomap_mpisim::World;
    use infomap_partition::DelegateThreshold;

    const TEST_SEED: u64 = 42;

    /// Rank 0's record of `level` at a 6-vertex level of a 2-rank world
    /// (vertices 0, 2 and 4 are its own); the carry depends on `level`.
    fn sample(level: u32) -> RankSnapshot {
        sample_of(0, level)
    }

    /// Rank `rank`'s record of `level` at the 6-vertex level of
    /// [`sample`], every vertex id XORed with `rank`: vertices `rank`,
    /// `rank + 2` and `rank + 4` are its own.
    fn sample_of(rank: u32, level: u32) -> RankSnapshot {
        let arcs = [
            (0, 1, 1.0),
            (0, 2, 0.5),
            (2, 3, 1.0),
            (4, 0, 0.5),
            (4, 5, 2.0),
        ]
        .map(|(src, dst, weight)| Arc {
            src: src ^ rank,
            dst: dst ^ rank,
            weight,
        });
        let flows = [(0, 0.25), (2, 0.125), (4, 0.375)].map(|(v, f)| (v ^ rank, f));
        RankSnapshot {
            run: RunId {
                nranks: 2,
                seed: TEST_SEED,
                original_n: 10,
                node_term_bits: (-3.5f64).to_bits(),
                total_weight_bits: 8f64.to_bits(),
            },
            level,
            st: build_1d_state(rank as usize, 2, &arcs, &flows, 0.0625),
            assign: vec![(rank, rank), (7 + rank, level % 6)],
            trace: vec![StageTrace {
                stage: 1,
                level: 0,
                codelength: 5.25,
                exit_flow: 0.375,
                num_modules: 6,
                vertices_before: 10,
                vertices_after: 6,
                inner_iterations: 7,
                moves: 9,
                mdl_series: vec![6.0, 5.25],
                stop: StageStop::Stalled,
            }],
            prev_mdl: 5.25 - level as f64 / 8.0,
            level_vertices: 6,
        }
    }

    /// Keeps every record a run commits.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<RankSnapshot>>);

    impl SnapshotStore for Recorder {
        fn commit(&self, _rank: usize, snap: &RankSnapshot) -> u64 {
            self.0.lock().unwrap().push(snap.clone());
            0
        }

        fn agreed_pos(&self) -> Option<u32> {
            None
        }

        fn restore_agreed(&self, _rank: usize) -> Option<RankSnapshot> {
            None
        }

        fn agreed_carries(&self) -> Option<Vec<Carry>> {
            None
        }

        fn checkpoints_committed(&self) -> u64 {
            self.0.lock().unwrap().len() as u64
        }
    }

    /// Every record a checkpointed `p`-rank run on `g` commits, by level,
    /// then rank.
    fn records(g: &Graph, threshold: DelegateThreshold, p: usize) -> Vec<RankSnapshot> {
        let cfg = DistributedConfig {
            nranks: p,
            seed: TEST_SEED,
            threshold,
            recovery: RecoveryConfig {
                checkpoint_every: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let program = RankProgram::prepare(cfg, g);
        let recorder = Recorder::default();
        World::new(p).run(|comm| program.run_rank(comm, &recorder));
        let mut seen = recorder.0.into_inner().unwrap();
        seen.sort_by_key(|s| (s.level, s.st.rank));
        assert!(seen.iter().any(|s| s.level >= 2), "one level only");
        seen
    }

    /// The flat and the hub stand-in, small: at 200 vertices the UK-2007
    /// stand-in grows hubs under a lower delegate threshold only.
    fn stand_ins() -> [(&'static str, Graph, DelegateThreshold); 2] {
        let flat = LfrParams {
            n: 100,
            ..Default::default()
        };
        let hub = DatasetId::Uk2007.profile().generate_scaled(0.0025, 77).0;
        [
            (
                "flat",
                generators::lfr_like(flat, 11).0,
                DelegateThreshold::Auto(4.0),
            ),
            ("hub", hub, DelegateThreshold::Auto(2.5)),
        ]
    }

    fn temp_store_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dinf-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A trace with its MDLs taken out and kept as bits: equal iff every
    /// field is, floats bit for bit.
    fn trace_bits(trace: &[StageTrace]) -> Vec<(StageTrace, [u64; 2], Vec<u64>)> {
        (trace.iter())
            .map(|t| {
                let series = t.mdl_series.iter().map(|m| m.to_bits()).collect();
                let rest = StageTrace {
                    codelength: 0.0,
                    exit_flow: 0.0,
                    mdl_series: Vec::new(),
                    ..t.clone()
                };
                let mdl = [t.codelength, t.exit_flow].map(f64::to_bits);
                (rest, mdl, series)
            })
            .collect()
    }

    #[test]
    fn every_level_record_of_a_run_restores_the_state_the_merge_built() {
        for (name, g, threshold) in stand_ins() {
            let seen = records(&g, threshold, 4);
            let dir = temp_store_dir(name);
            let memory = CheckpointStore::new(4);
            let file = FileCheckpointStore::open(&dir, 4, TEST_SEED).unwrap();
            for level in seen.chunk_by(|a, b| a.level == b.level) {
                for store in [&memory as &dyn SnapshotStore, &file] {
                    for snap in level {
                        store.commit(snap.st.rank, snap);
                    }
                    assert_eq!(store.agreed_pos(), Some(level[0].level));
                    for snap in level {
                        let back = store.restore_agreed(snap.st.rank).expect("just committed");
                        let at = format!("{name} level {} rank {}", snap.level, snap.st.rank);
                        // Every state field, floats by their bits ...
                        assert_eq!(fingerprint(&back.st), fingerprint(&snap.st), "{at}");
                        // ... the carry by value, floats by their bits ...
                        assert_eq!(back.run, snap.run, "{at}");
                        assert_eq!(back.level, snap.level, "{at}");
                        assert_eq!(back.level_vertices, snap.level_vertices, "{at}");
                        assert_eq!(back.prev_mdl.to_bits(), snap.prev_mdl.to_bits(), "{at}");
                        assert_eq!(back.assign, snap.assign, "{at}");
                        assert_eq!(trace_bits(&back.trace), trace_bits(&snap.trace), "{at}");
                        // ... and through the bit-exact encoding.
                        assert_eq!(back.encode(), snap.encode(), "{at}");
                    }
                }
            }
            assert_eq!(file.commit_failures(), 0);
            // Byte-stable: a second run commits the same bytes.
            let again = records(&g, threshold, 4);
            assert!(
                (seen.iter().map(RankSnapshot::encode)).eq(again.iter().map(RankSnapshot::encode)),
                "{name}: encode is not byte-stable across runs"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Recompute the trailing FNV-1a checksum over whatever the record
    /// now holds.
    fn reseal_checksum(bytes: &mut [u8]) {
        let at = bytes.len() - 8;
        let sum = bytes[..at].iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        bytes[at..].copy_from_slice(&sum.to_le_bytes());
    }

    /// A refusal that names its cause: any error but an I/O one.
    fn named(e: &SnapshotError) -> bool {
        !matches!(e, SnapshotError::Io(_)) && !e.to_string().is_empty()
    }

    /// What decode promises, read back off a decoded record: the
    /// structure `build_1d_state` was called with, and values the map
    /// equation can price.
    fn assert_sound(s: &RankSnapshot) {
        let (st, p) = (&s.st, s.run.nranks);
        assert!(st.rank < p);
        let below = |v: u32| (v as usize) < s.level_vertices;
        let mut last = None;
        for li in st.movable() {
            let src = st.verts[li as usize];
            assert!(below(src) && src as usize % p == st.rank, "vertex {src}");
            let flow = st.node_flow[li as usize];
            assert!(flow.is_finite() && flow >= 0.0, "flow {flow}");
            for (t, w) in st.arcs_of(li) {
                let key = Some((src, st.verts[t as usize]));
                assert!(below(st.verts[t as usize]) && last < key, "arc {key:?}");
                assert!(w.is_finite() && w >= 0.0, "arc {key:?} weight {w}");
                last = key;
            }
        }
        assert_eq!(
            st.movable().len(),
            owned_row_count(s.level_vertices, p, st.rank)
        );
        assert!(st.inv_two_w.is_finite() && st.inv_two_w > 0.0);
        assert!((s.assign.iter()).all(|&(v, m)| (v as usize) < s.run.original_n && below(m)));
        let mut mdls = (s.trace.iter()).flat_map(|t| t.mdl_series.iter().chain([&t.codelength]));
        assert!(s.prev_mdl.is_finite() && mdls.all(|m| m.is_finite()));
    }

    /// Every truncation and every single-bit flip of a record is a named
    /// error; with the checksum recomputed, a flip is a named error or a
    /// record that passes decode's checks — never a panic.
    fn sweep(bytes: &[u8]) {
        let decode = |b: &[u8]| RankSnapshot::decode(b, TEST_SEED);
        assert_sound(&decode(bytes).expect("the record decodes"));
        for len in 0..bytes.len() {
            let e = decode(&bytes[..len]).expect_err("a truncated record decoded");
            assert!(named(&e), "{e}");
        }
        let mut damaged = bytes.to_vec();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                damaged[at] ^= 1 << bit;
                let e = decode(&damaged).expect_err("a flipped bit went unnoticed");
                assert!(named(&e), "{e}");
                reseal_checksum(&mut damaged);
                match decode(&damaged) {
                    Ok(back) => assert_sound(&back),
                    Err(e) => assert!(named(&e), "{e}"),
                }
                damaged.copy_from_slice(bytes);
            }
        }
    }

    #[test]
    fn every_damaged_level_record_is_a_named_error_or_a_sound_record() {
        // One rank's record per level, the rank turning with the level.
        // The sweep is quadratic in a record's length, so a record past 4
        // KiB (the hub's first level at p = 2) is left to the roundtrip
        // test.
        let mut picked: Vec<Vec<u8>> = Vec::new();
        for (name, g, threshold) in stand_ins() {
            let before = picked.len();
            for p in [2, 3, 4] {
                let seen = records(&g, threshold, p);
                let turn = seen.iter().filter(|s| s.st.rank == s.level as usize % p);
                picked.extend(turn.map(RankSnapshot::encode).filter(|b| b.len() <= 4096));
            }
            assert!(picked.len() >= before + 6, "{name}: too few records");
        }
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::thread::scope(|scope| {
            for w in 0..workers {
                let picked = &picked;
                scope.spawn(move || {
                    picked
                        .iter()
                        .skip(w)
                        .step_by(workers)
                        .for_each(|b| sweep(b))
                });
            }
        });
    }

    #[test]
    fn a_count_the_input_cannot_hold_is_refused_before_allocating() {
        assert!(decode_len(&mut &u64::MAX.to_le_bytes()[..], 1).is_err());
        assert!(decode_len(&mut &[3, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9][..], 2).is_err());
        assert_eq!(
            decode_len(&mut &[3, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9][..], 1).ok(),
            Some(3)
        );
        // A well-framed record whose carry claims 2^64 - 1 assignments: an
        // error, not an allocation. The count follows the seed, original
        // vertex count and node term (24), level (4) and MDL (8).
        let snap = sample(1);
        let mut bytes = snap.encode();
        let at = bytes.len() - 8 - snap.carry().len() + 24 + 4 + 8;
        assert_eq!(bytes[at..at + 8], 2u64.to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal_checksum(&mut bytes);
        let e = RankSnapshot::decode(&bytes, TEST_SEED).unwrap_err();
        assert!(e.to_string().ends_with("snapshot length prefix"), "{e}");
    }

    #[test]
    fn a_record_of_another_seed_is_refused_and_reads_as_absent() {
        let bytes = sample(1).encode();
        let e = RankSnapshot::decode(&bytes, TEST_SEED + 1).unwrap_err();
        assert!(
            e.to_string()
                .ends_with("snapshot written with another seed"),
            "{e}"
        );
        let dir = temp_store_dir("seed");
        let store = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
        store.commit(0, &sample_of(0, 1));
        store.commit(1, &sample_of(1, 1));
        assert_eq!(store.agreed_pos(), Some(1));
        let other = FileCheckpointStore::open(&dir, 2, TEST_SEED + 1).unwrap();
        assert_eq!(other.agreed_pos(), None);
        assert!(other.restore_agreed(0).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record resealed with a value the map equation cannot price is
    /// refused by name: by decode, by the file store (which reads it as
    /// absent) and by the in-memory store (which names it in a panic).
    #[test]
    fn a_resealed_record_with_an_unpriceable_weight_flow_or_mdl_is_refused_by_name() {
        let snap = sample(1);
        let good = snap.encode();
        // Sample rank 0 holds 3 rows and 5 arcs: the weights follow the
        // header, 4 offsets and 5 targets; the flows follow the weights;
        // the MDL follows the carry's identity and level.
        let weight_at = 72 + 4 * 8 + 5 * 4;
        let flow_at = weight_at + 5 * 8;
        let mdl_at = good.len() - 8 - snap.carry().len() + 24 + 4;
        // Then two assignments behind their length, the trace's length,
        // and the first entry's stage, level and codelength.
        let exit_at = mdl_at + 8 + 8 + 2 * 8 + 8 + 1 + 8 + 8;
        let dir = temp_store_dir("unpriceable");
        std::fs::create_dir_all(&dir).unwrap();
        // The record is rank 0's of a 2-rank world: the store reads its
        // slot as a level while it is intact.
        std::fs::write(dir.join("rank-0.g0.ckpt"), &good).unwrap();
        let file = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
        assert_eq!(file.positions_of(0), [(1, 0)]);
        let unpriceable = "weights the map equation cannot price";
        for (at, was, phrase) in [
            (weight_at, 1.0, unpriceable),
            (flow_at, 0.25, unpriceable),
            (mdl_at, snap.prev_mdl, "codelength is not finite"),
            (exit_at, 0.375, "exit flow is not finite"),
        ] {
            assert_eq!(good[at..at + 8], f64::to_le_bytes(was), "the layout moved");
            // A codelength may be negative; only NaN and ∞ are refused.
            let bads = if at >= mdl_at { 2 } else { 3 };
            for bad in [f64::NAN, f64::INFINITY, -1.0].into_iter().take(bads) {
                let mut bytes = good.clone();
                bytes[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                reseal_checksum(&mut bytes);
                let e = RankSnapshot::decode(&bytes, TEST_SEED).unwrap_err();
                assert!(e.to_string().contains(phrase), "{bad} at {at}: {e}");
                std::fs::write(dir.join("rank-0.g0.ckpt"), &bytes).unwrap();
                let file = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
                assert!(file.positions_of(0).is_empty(), "{bad} at {at}");
                assert!(file.restore_agreed(0).is_none());
                let memory = CheckpointStore::new(1);
                *memory.slot(0) = Some((1, bytes));
                let why = std::panic::catch_unwind(|| memory.restore_agreed(0)).unwrap_err();
                let why = why.downcast_ref::<String>().unwrap();
                assert!(why.contains(phrase), "{bad} at {at}: {why}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_of_another_world_or_graph_is_refused_naming_both() {
        let snap = sample(1);
        snap.check_same_run(2, 10, -3.5).unwrap();
        for (p, n, term) in [(3, 10, -3.5), (2, 11, -3.5), (2, 10, -3.25)] {
            let msg =
                (snap.check_same_run(p, n, term)).expect_err("another run's record was accepted");
            assert!(msg.contains("checkpoint belongs to another run"), "{msg}");
            assert!(msg.contains("written for 2 ranks, 10 vertices"), "{msg}");
            assert!(
                msg.contains(&format!("this run has {p} ranks, {n} vertices")),
                "{msg}"
            );
        }
    }

    #[test]
    fn empty_stores_have_no_position() {
        let dir = temp_store_dir("empty");
        let file = FileCheckpointStore::open(&dir, 3, TEST_SEED).unwrap();
        for store in [&CheckpointStore::new(3) as &dyn SnapshotStore, &file] {
            assert!(store.agreed_pos().is_none());
            assert!(store.restore_agreed(1).is_none());
            assert_eq!(store.checkpoints_committed(), 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_meters_what_it_writes() {
        let dir = temp_store_dir("meter");
        let store = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
        let written: u64 = [1, 2, 3].iter().map(|&l| store.commit(0, &sample(l))).sum();
        assert_eq!(written, store.bytes_written());
        let disk = |gen| std::fs::metadata(dir.join(format!("rank-0.g{gen}.ckpt"))).unwrap();
        // Level 3 overwrote level 1 in generation 0.
        assert_eq!(disk(0).len() as usize, sample(3).encode().len());
        assert_eq!(disk(1).len() as usize, sample(2).encode().len());
        assert_eq!(store.checkpoints_committed(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn split_commit_falls_back_to_previous_generation() {
        let dir = temp_store_dir("split");
        let store = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
        let [older, newer] = [1, 2].map(|level| [0, 1].map(|rank| sample_of(rank, level)));
        // Both ranks commit level 1; only rank 0 reaches level 2 before
        // the (simulated) crash.
        store.commit(0, &older[0]);
        store.commit(1, &older[1]);
        store.commit(0, &newer[0]);
        // The agreed level is the older one — the only one both hold.
        assert_eq!(store.agreed_pos(), Some(1));
        for (rank, older) in older.iter().enumerate() {
            let back = store.restore_agreed(rank).expect("fallback");
            assert_eq!(back.encode(), older.encode(), "rank {rank}");
        }
        // The replay commits level 1 and then 2 again; the restored level
        // must outlive the first of those commits.
        store.commit(0, &older[0]);
        assert_eq!(store.agreed_pos(), Some(1));
        store.commit(0, &newer[0]);
        assert_eq!(store.agreed_pos(), Some(1));
        store.commit(1, &newer[1]);
        assert_eq!(store.agreed_pos(), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_copied_into_another_ranks_slot_is_not_restored() {
        let dir = temp_store_dir("foreign-slot");
        let store = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
        store.commit(0, &sample_of(0, 1));
        store.commit(1, &sample_of(1, 1));
        assert_eq!(store.agreed_pos(), Some(1));
        // Rank 0's record, intact and sealed, over rank 1's only one: rank
        // 1 holds no level, so none is agreed, and nothing runs rank 0's
        // level as rank 1.
        std::fs::copy(dir.join("rank-0.g0.ckpt"), dir.join("rank-1.g0.ckpt")).unwrap();
        assert!(store.positions_of(1).is_empty());
        assert_eq!(store.agreed_pos(), None);
        assert!(store.restore_agreed(1).is_none());
        assert!(store.agreed_carries().is_none());
        // A 1-rank store reads rank 0's record of a 2-rank world as absent.
        let one = FileCheckpointStore::open(&dir, 1, TEST_SEED).unwrap();
        assert!(one.positions_of(0).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_store_resumes_and_overwrites_oldest() {
        let dir = temp_store_dir("reopen");
        {
            let store = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
            for level in [1, 2] {
                store.commit(0, &sample_of(0, level));
                store.commit(1, &sample_of(1, level));
            }
        }
        // A writer killed between `write` and `rename`.
        std::fs::write(dir.join("rank-0.g0.ckpt.tmp"), b"half a record").unwrap();
        // A fresh process (relaunch) opens the same directory: it must see
        // the newest level, drop the `.tmp`, and its next commit must
        // overwrite the oldest generation, preserving level 2.
        let store = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
        assert!(!dir.join("rank-0.g0.ckpt.tmp").exists());
        assert_eq!(store.agreed_pos(), Some(2));
        store.commit(0, &sample(3));
        let levels: Vec<u32> = store.positions_of(0).into_iter().map(|(l, _)| l).collect();
        assert_eq!(levels, [3, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_file_reads_as_absent() {
        let dir = temp_store_dir("torn");
        let store = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
        store.commit(0, &sample_of(0, 2));
        store.commit(1, &sample_of(1, 2));
        assert_eq!(store.agreed_pos(), Some(2));
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
    fn a_commit_that_cannot_reach_the_directory_is_counted_not_swallowed() {
        let dir = temp_store_dir("unwritable");
        let store = FileCheckpointStore::open(&dir, 2, TEST_SEED).unwrap();
        assert!(store.commit(0, &sample(1)) > 0);
        assert_eq!(store.commit_failures(), 0);
        // The checkpoint directory is replaced by a regular file.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        assert_eq!(store.commit(0, &sample(2)), 0);
        store.commit(1, &sample(1));
        store.commit(1, &sample(1));
        assert_eq!(store.commit_failures(), 3);
        assert_eq!(store.checkpoints_committed(), 1);
        assert_eq!(store.agreed_pos(), None);
        let _ = std::fs::remove_file(&dir);
    }
}
