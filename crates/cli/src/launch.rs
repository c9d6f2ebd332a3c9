//! `dinfomap launch` — run the distributed pipeline as **real OS
//! processes** over the socket transport, instead of simulated ranks on
//! threads.
//!
//! The launcher parses an edge list once, cuts the relabelled graph into
//! `<dir>/shards/shard-R.snap` (always rewritten at launch start) and
//! keeps only the original vertex ids; `--graph-shard-dir` supplies
//! ready-made shards instead. It then forks `--procs` copies of this
//! binary as `_rank --rank R --dir D --graph-shard-dir S -- <the launch
//! arguments>`: a worker parses the launch line with the launcher's own
//! parser and takes only its rank and the two directories from `_rank`,
//! so every launch flag reaches every worker. Every worker opens only its
//! own shard, connects a [`SocketTransport`] mesh in a shared rendezvous
//! directory, rebuilds its state with [`RankProgram::prepare_shard`]
//! (collectives stand in for every global fact), and runs the identical
//! SPMD driver the thread world runs — the two transports produce
//! bit-identical MDL series, move counts, and assignments per seed (gated
//! by `tests/comm_equivalence.rs`).
//!
//! Failure handling against genuine OS failures (a SIGKILLed child, a
//! wedged rank):
//!
//! - Workers never hang: every collective carries a deadline; a blocked
//!   rank exits with code [`EXIT_TRANSPORT_FAULT`] and writes a
//!   `rank-N.diag.json` naming the dead peer or the blocked collective
//!   and the ranks it was waiting on.
//! - The launcher runs its worlds through the thread world's recovery
//!   loop, [`recover`], over one [`FileCheckpointStore`] it holds for the
//!   whole launch. It relaunches the world up to `--max-retries` times,
//!   reusing the shards (the input has not changed); with
//!   `--checkpoint-every N` (any N >= 1) every stage-2 level starts with a
//!   durable checkpoint, and the workers resume from the start of the
//!   newest level **all** ranks hold on disk. A crash inside stage 1
//!   finds no checkpoint and re-runs from scratch. Checkpoints of another
//!   seed or world size are ignored; ones of another graph fail the
//!   launch by name.
//! - A worker that refuses its own input (its shard, its checkpoint
//!   directory, checkpoints of another graph, its launch line) writes its reason to `rank-N.diag.json` and exits with code 1.
//!   The launcher then kills the rest of the world at once and does not
//!   relaunch it — every relaunch would meet the same refusal — and the
//!   launch's error carries the refusing worker's own message.
//! - Without `--dir` the rendezvous directory is a temporary one, removed
//!   when the launch ends, however it ends; `--dir` keeps it.
//! - When no attempt completed, the launch ends as a thread run does: the
//!   best checkpointed clustering, marked degraded, if every rank holds a
//!   level on disk, and otherwise the error naming every failed rank.
//!
//! Rank 0 writes `result.json` into the rendezvous directory with the
//! codelength and per-round MDL series as exact f64 bit patterns, the
//! measured wall time, the modeled makespan from the same metering
//! counters the thread world uses, and every vertex's module, from which
//! the launcher writes `--output` in the edge list's original ids.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant};

use infomap_distributed::{
    node_term, recover, AttemptFailure, CheckpointStore, DistributedConfig, DistributedOutput,
    FileCheckpointStore, RankProgram, Recovered, RecoveryConfig, RecoveryReport, SnapshotStore,
};
use infomap_graph::snapshot::{
    read_header, shard_path, write_edge_shards, PageCacheConfig, SnapshotHeader,
    SnapshotStore as GraphSnapshotStore,
};
use infomap_graph::{io, GraphStore};
use infomap_mpisim::{Comm, CostModel, Refusal, TransportFault};
use infomap_transport_socket::{SocketConfig, SocketTransport};

use crate::commands::{peak_rss_kib, stages_line, write_assignments};

/// Worker exit code for a structured transport failure (diagnostic JSON
/// written). See [`WorkerExit`] for every code.
pub const EXIT_TRANSPORT_FAULT: i32 = 21;

/// What a worker's exit status says about its attempt: the one table the
/// launcher reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WorkerExit {
    /// Code 0: the worker finished its part of the run.
    Done,
    /// Code 1: it refused its own input (its shard, its checkpoint
    /// directory or records, its launch line) and wrote why to its
    /// diagnostic. A relaunch meets the same refusal: final.
    Refused,
    /// [`EXIT_TRANSPORT_FAULT`] (diagnostic written), or any other code:
    /// a fault a relaunch may clear.
    Fault(i32),
    /// No code: a signal ended it (a crash, `--kill-rank`, the launcher).
    Killed,
}

impl WorkerExit {
    fn of(status: std::process::ExitStatus) -> Self {
        match status.code() {
            Some(0) => WorkerExit::Done,
            Some(1) => WorkerExit::Refused,
            Some(code) => WorkerExit::Fault(code),
            None => WorkerExit::Killed,
        }
    }
}

/// Parsed `launch` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct LaunchOpts {
    pub path: String,
    pub procs: usize,
    pub seed: u64,
    pub output: Option<String>,
    pub quiet: bool,
    pub checkpoint_every: usize,
    pub max_retries: usize,
    /// Per-collective deadline for the workers, milliseconds.
    pub timeout_ms: u64,
    /// Chaos hook: SIGKILL rank R after MS milliseconds (first attempt
    /// only) — `--kill-rank R@MS`.
    pub kill_rank: Option<(usize, u64)>,
    /// Rendezvous directory override (default: a fresh temp dir).
    pub dir: Option<String>,
    /// Intra-rank worker threads per rank process (bit-identical for
    /// every value; see `DistributedConfig::threads`).
    pub threads: usize,
    /// Read ready-made per-rank shards `shard-R.snap` from this directory
    /// instead of parsing the `path` edge list and cutting them here.
    pub graph_shard_dir: Option<String>,
    /// Workers demand-page their shard through a bounded block cache
    /// instead of holding all of it (bit-identical either way, for both
    /// inputs).
    pub paged: bool,
    /// Paged mode: cache block size in bytes (0 = library default).
    pub block_bytes: usize,
    /// Paged mode: cache capacity in blocks (0 = library default).
    pub cache_blocks: usize,
}

/// The `--paged`/`--block-bytes`/`--cache-blocks` triple as a cache
/// config (`None` = the whole shard resident).
pub(crate) fn page_cache(
    paged: bool,
    block_bytes: usize,
    cache_blocks: usize,
) -> Option<PageCacheConfig> {
    paged.then(|| {
        let mut c = PageCacheConfig::default();
        if block_bytes > 0 {
            c.block_bytes = block_bytes;
        }
        if cache_blocks > 0 {
            c.capacity_blocks = cache_blocks;
        }
        c
    })
}

fn sock_dir(dir: &Path) -> PathBuf {
    dir.join("sock")
}

fn ckpt_dir(dir: &Path) -> PathBuf {
    dir.join("ckpt")
}

fn result_path(dir: &Path) -> PathBuf {
    dir.join("result.json")
}

fn diag_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank-{rank}.diag.json"))
}

fn socket_config(dir: &Path, timeout_ms: u64) -> SocketConfig {
    let mut cfg = SocketConfig::uds(sock_dir(dir));
    cfg.timeout = Duration::from_millis(timeout_ms);
    // Keep the liveness window responsive relative to the deadline.
    cfg.heartbeat = Duration::from_millis((timeout_ms / 8).clamp(25, 250));
    cfg.setup_timeout = setup_window(timeout_ms);
    cfg
}

/// Bootstrap allowance, shared by the workers (their setup deadline) and
/// the launcher (its post-failure grace period, which must outlast it so
/// a bootstrap-blocked survivor gets to write its own diagnostic).
fn setup_window(timeout_ms: u64) -> Duration {
    Duration::from_millis(timeout_ms.saturating_mul(4).max(4_000))
}

/// The launch's durable checkpoints under `dir`, or `None` with checkpoints
/// off, where an empty in-memory store stands in (the fast path).
fn checkpoint_files(o: &LaunchOpts, dir: &Path) -> Result<Option<FileCheckpointStore>, String> {
    (o.checkpoint_every > 0)
        .then(|| FileCheckpointStore::open(ckpt_dir(dir), o.procs, o.seed))
        .transpose()
        .map_err(|e| format!("checkpoint store: {e}"))
}

// ---------------------------------------------------------------------
// Worker (`dinfomap _rank ...`)
// ---------------------------------------------------------------------

/// Run rank `rank` of the launch `o`, whose `dir` and `graph_shard_dir`
/// the `_rank` parser set. Returns the process exit code.
pub fn run_worker(rank: usize, o: LaunchOpts) -> i32 {
    match worker_inner(rank, &o) {
        Ok(()) => 0,
        Err(WorkerFailure::Transport) => EXIT_TRANSPORT_FAULT,
        Err(WorkerFailure::Refused(msg)) => {
            eprintln!("rank {rank}: {msg}");
            if let Some(dir) = &o.dir {
                write_diag(Path::new(dir), rank, "refused", &msg);
            }
            1
        }
    }
}

enum WorkerFailure {
    /// Structured transport fault; diagnostic JSON already written.
    Transport,
    /// The worker refuses its own input, for this reason.
    Refused(String),
}

fn worker_inner(rank: usize, o: &LaunchOpts) -> Result<(), WorkerFailure> {
    let entered = Instant::now();
    let handed = |d: &Option<String>| PathBuf::from(d.as_deref().expect("set by `_rank`"));
    let dir = handed(&o.dir);
    // Checksummed on open: a missing, torn or bit-flipped shard, or a
    // checkpoint in its place, ends the worker here with the named error.
    let path = shard_path(&handed(&o.graph_shard_dir), rank);
    let cache = page_cache(o.paged, o.block_bytes, o.cache_blocks);
    let graph = GraphSnapshotStore::open(&path, cache)
        .and_then(|g| g.header().graph().map(|_| g))
        .map_err(|e| WorkerFailure::Refused(format!("cannot open {}: {e}", path.display())))?;
    let cfg = DistributedConfig {
        nranks: o.procs,
        seed: o.seed,
        threads: o.threads,
        recovery: RecoveryConfig {
            checkpoint_every: o.checkpoint_every,
            ..Default::default()
        },
        ..Default::default()
    };

    let files = checkpoint_files(o, &dir).map_err(WorkerFailure::Refused)?;
    let memory = CheckpointStore::new(o.procs);
    let store = files.as_ref().map_or(&memory as &dyn SnapshotStore, |f| f);
    let restored = store.agreed_pos().is_some();

    let scfg = socket_config(&dir, o.timeout_ms);
    let transport = SocketTransport::connect(rank, o.procs, scfg).map_err(|e| {
        write_diag(&dir, rank, "connect", &format!("{e}"));
        WorkerFailure::Transport
    })?;
    let mut comm = Comm::over_transport(Box::new(transport));
    let connect = entered.elapsed();

    // Transport failures and refusals surface as TransportFault and
    // Refusal panics, which we catch and report as diagnostics — keep the
    // default hook's backtrace for genuine bugs only.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        if !(payload.is::<TransportFault>() || payload.is::<Refusal>()) {
            default_hook(info);
        }
    }));

    let started = Instant::now();
    // Shard preparation is itself collective (degrees, rebalance, ghost
    // discovery), so it runs inside the fault boundary. It takes the shard
    // and closes it before the state is assembled: the rounds and
    // `write_result` never read it.
    let header = *graph.header();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let program = RankProgram::prepare_shard(cfg, &header, graph, &mut comm);
        let done = program.run_rank(&mut comm, store);
        (program, done)
    }));
    match run {
        Ok((program, done)) => {
            let wall = started.elapsed();
            let stats = comm.finish();
            if let Some((modules, trace, codelength)) = done {
                // This process's store: rank 0's commits.
                let (commit_failures, bytes_written) =
                    (files.as_ref()).map_or((0, 0), |f| (f.commit_failures(), f.bytes_written()));
                let recovery = RecoveryReport {
                    attempts: 1,
                    restores: usize::from(restored),
                    checkpoints_committed: store.checkpoints_committed(),
                    checkpoint_commit_failures: commit_failures,
                    checkpoint_bytes_written: bytes_written,
                    ..Default::default()
                };
                let out =
                    program.assemble_output(modules, trace, codelength, vec![stats], recovery);
                write_result(&dir, o, &out, connect, wall)
                    .map_err(|e| WorkerFailure::Refused(format!("write result: {e}")))?;
            }
            Ok(())
        }
        // Records of another graph are refused on every attempt: the
        // worker's refusal, not a fault a relaunch clears.
        Err(payload) if payload.is::<Refusal>() => {
            let Refusal(why) = *payload.downcast().expect("checked above");
            Err(WorkerFailure::Refused(why))
        }
        Err(payload) => {
            // A transport failure surfaces as a TransportFault panic from
            // inside a blocked collective; anything else is a plain bug.
            let (op, detail) = match payload.downcast_ref::<TransportFault>() {
                Some(f) => (f.op.clone(), format!("{}", f.error)),
                None => ("run".into(), panic_message(payload.as_ref())),
            };
            write_diag(&dir, rank, &op, &detail);
            eprintln!("rank {rank}: blocked in {op}: {detail}");
            Err(WorkerFailure::Transport)
        }
    }
}

/// The message of a caught panic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Atomic (tmp + rename) so the launcher never reads a torn file.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

fn write_result(
    dir: &Path,
    o: &LaunchOpts,
    out: &DistributedOutput,
    connect: Duration,
    wall: Duration,
) -> std::io::Result<()> {
    let modeled = CostModel::default().makespan(&out.rank_stats).total;
    let mdl_bits: Vec<u64> = out
        .trace
        .iter()
        .flat_map(|t| t.mdl_series.iter().map(|m| m.to_bits()))
        .collect();
    let total_moves: u64 = out.trace.iter().map(|t| t.moves).sum();
    let mut j = String::new();
    j.push_str("{\n  \"schema\": \"dinfomap-launch-result-v1\",\n");
    let _ = writeln!(j, "  \"procs\": {},\n  \"seed\": {},", o.procs, o.seed);
    let _ = writeln!(j, "  \"codelength\": {:e},", out.codelength);
    let _ = writeln!(
        j,
        "  \"codelength_bits\": \"{:016x}\",",
        out.codelength.to_bits()
    );
    let _ = writeln!(j, "  \"num_modules\": {},", out.num_modules());
    let _ = writeln!(j, "  \"total_moves\": {total_moves},");
    j.push_str("  \"stages\": [");
    for (i, t) in out.trace.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        let _ = write!(
            j,
            "{{\"stage\": {}, \"level\": {}, \"rounds\": {}, \"moves\": {}, \"stop\": \"{}\"}}",
            t.stage,
            t.level,
            t.inner_iterations,
            t.moves,
            t.stop.name()
        );
    }
    j.push_str("],\n");
    j.push_str("  \"mdl_series_bits\": [");
    for (i, b) in mdl_bits.iter().enumerate() {
        if i > 0 {
            j.push(',');
        }
        let _ = write!(j, "\"{b:016x}\"");
    }
    j.push_str("],\n");
    let _ = writeln!(j, "  \"degraded\": {},", out.recovery.degraded);
    let _ = writeln!(j, "  \"restored\": {},", out.recovery.restores > 0);
    let _ = writeln!(
        j,
        "  \"checkpoints_committed\": {},",
        out.recovery.checkpoints_committed
    );
    let _ = writeln!(
        j,
        "  \"checkpoint_commit_failures\": {},",
        out.recovery.checkpoint_commit_failures
    );
    let _ = writeln!(
        j,
        "  \"checkpoint_bytes_written\": {},",
        out.recovery.checkpoint_bytes_written
    );
    // The prefix of the run: worker entry (shard open included) to mesh
    // up, then the collective `Prepare` phase, which `wall_ms` contains.
    let mine = out.rank_stats.first();
    let prepare = mine.map_or(Duration::ZERO, |s| s.phase("Prepare").wall);
    let _ = writeln!(j, "  \"connect_ms\": {:.3},", connect.as_secs_f64() * 1e3);
    let _ = writeln!(j, "  \"prepare_ms\": {:.3},", prepare.as_secs_f64() * 1e3);
    // This worker's peak resident set (0 where there is no `/proc`).
    let _ = writeln!(j, "  \"peak_rss_kib\": {},", peak_rss_kib().unwrap_or(0));
    let _ = writeln!(j, "  \"wall_ms\": {:.3},", wall.as_secs_f64() * 1e3);
    let _ = writeln!(j, "  \"modeled_ms\": {:.6},", modeled * 1e3);
    j.push_str("  \"modules\": [");
    for (i, m) in out.modules.iter().enumerate() {
        if i > 0 {
            j.push(',');
        }
        let _ = write!(j, "{m}");
    }
    j.push_str("]\n}\n");
    write_atomic(&result_path(dir), &j)
}

fn write_diag(dir: &Path, rank: usize, op: &str, detail: &str) {
    let mut j = String::new();
    j.push_str("{\n  \"schema\": \"dinfomap-launch-diag-v1\",\n");
    let _ = writeln!(j, "  \"rank\": {rank},");
    let _ = writeln!(j, "  \"op\": {},", json_string(op));
    let _ = write!(j, "  \"detail\": {}\n}}\n", json_string(detail));
    let _ = write_atomic(&diag_path(dir, rank), &j);
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Launcher (`dinfomap launch ...`)
// ---------------------------------------------------------------------

/// Validated launch input, as every worker sees it: a directory of
/// per-rank shards — cut here from the one edge-list parse, or supplied
/// with `--graph-shard-dir` (only the headers are read launcher-side).
#[derive(Default)]
struct LaunchSource {
    shard_dir: PathBuf,
    vertices: usize,
    edges: usize,
    /// `original_ids[dense]` of a parsed edge list; `None` for supplied
    /// shards, whose rows are already keyed by the ids to report.
    original_ids: Option<Vec<u64>>,
    parse: Duration,
    shard_write: Duration,
    shard_bytes: u64,
}

fn resolve_source(o: &LaunchOpts, dir: &Path) -> Result<LaunchSource, String> {
    let mut source = LaunchSource::default();
    let shard_dir = match &o.graph_shard_dir {
        Some(d) => PathBuf::from(d),
        None => {
            // The one parse of the launch, into the sorted edge list the
            // shards are cut from; no `Graph` is built. Shards left in a
            // reused `--dir` are never trusted: every rank's file is
            // rewritten.
            let begun = Instant::now();
            let loaded =
                io::read_edges_file(&o.path).map_err(|e| format!("cannot read {}: {e}", o.path))?;
            source.parse = begun.elapsed();
            let begun = Instant::now();
            let shard_dir = dir.join("shards");
            let written =
                write_edge_shards(loaded.num_vertices, &loaded.edges, o.procs, &shard_dir)
                    .map_err(|e| {
                        format!("cannot write shards under {}: {e}", shard_dir.display())
                    })?;
            source.shard_write = begun.elapsed();
            source.shard_bytes = written
                .iter()
                .filter_map(|p| std::fs::metadata(p).ok())
                .map(|m| m.len())
                .sum();
            source.original_ids = Some(loaded.original_ids);
            shard_dir
        }
    };
    source.shard_dir = std::fs::canonicalize(&shard_dir)
        .map_err(|e| format!("cannot resolve {}: {e}", shard_dir.display()))?;
    // Every rank's shard must exist and agree on the world shape before
    // any process is forked.
    for rank in 0..o.procs {
        let path = shard_path(&source.shard_dir, rank);
        let h = read_header(&path)
            .and_then(SnapshotHeader::graph)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if h.nranks != o.procs || h.rank != rank {
            return Err(format!(
                "{}: sharded for rank {}/{} but launching {} procs",
                path.display(),
                h.rank,
                h.nranks,
                o.procs
            ));
        }
        source.vertices = h.global_vertices;
        source.edges = h.global_edges;
    }
    Ok(source)
}

/// One-module codelength and vertex count for degraded assembly: the
/// shards' strength sections, folded as the workers' `prepare_shard` does.
fn one_level_of_shards(shard_dir: &Path, procs: usize) -> Result<(f64, usize), String> {
    let mut strengths = Vec::new();
    let mut total_weight = 0.0;
    for rank in 0..procs {
        let path = shard_path(shard_dir, rank);
        let shard = GraphSnapshotStore::open(&path, None)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let h = *shard.header();
        strengths.resize(h.global_vertices, 0.0);
        total_weight = h.global_weight;
        for row in 0..h.rows {
            let v = h.vertex_of_row(row);
            strengths[v as usize] = shard.strength(v);
        }
    }
    let one_level = -node_term(strengths.iter().copied(), total_weight);
    Ok((one_level, strengths.len()))
}

pub fn run_launch(o: LaunchOpts, args: &[String]) -> Result<(), String> {
    let started = Instant::now();
    if o.procs == 0 {
        return Err("launch: --procs must be >= 1".into());
    }
    if let Some((rank, _)) = o.kill_rank.filter(|&(rank, _)| rank >= o.procs) {
        return Err(format!(
            "launch: --kill-rank {rank} names no rank of --procs {}",
            o.procs
        ));
    }
    let rendezvous = match &o.dir {
        Some(d) => Rendezvous {
            path: PathBuf::from(d),
            temporary: false,
        },
        None => Rendezvous {
            path: std::env::temp_dir().join(format!("dinfomap-launch-{}", std::process::id())),
            temporary: true,
        },
    };
    let dir = &rendezvous.path;
    let source = resolve_source(&o, dir)?;
    std::fs::create_dir_all(sock_dir(dir)).map_err(|e| format!("cannot create {dir:?}: {e}"))?;

    // The workers' checkpoint files, opened once for the whole launch.
    let files = checkpoint_files(&o, dir)?;
    let memory = CheckpointStore::new(o.procs);
    let store = files.as_ref().map_or(&memory as &dyn SnapshotStore, |f| f);

    let world_started = Instant::now();
    let attempt = |number| {
        let _ = std::fs::remove_file(result_path(dir));
        for r in 0..o.procs {
            let _ = std::fs::remove_file(diag_path(dir, r));
        }
        let kill = o.kill_rank.filter(|_| number == 1);
        run_world_once(&o, args, dir, &source.shard_dir, kill).inspect_err(|failure| {
            if !o.quiet {
                eprintln!("attempt {number}: {}", failure.causes.join("; "));
            }
        })
    };
    let recovered = recover(store, o.procs, o.max_retries, attempt, || {
        one_level_of_shards(&source.shard_dir, o.procs)
    });
    let world = world_started.elapsed();

    let recovery = match recovered? {
        Recovered::Completed((), recovery) => recovery,
        Recovered::Degraded(out) => {
            if !o.quiet {
                println!(
                    "degraded result after {} attempt(s): {} modules, {:.6} bits (best checkpointed clustering)",
                    out.recovery.attempts,
                    out.num_modules(),
                    out.codelength
                );
                let last = out.recovery.failures.last();
                println!("  last failure: {}", last.expect("every attempt failed"));
            }
            if let Some(out_path) = &o.output {
                write_assignments(out_path, &out.modules, source.original_ids.as_deref())?;
            }
            return Ok(());
        }
    };
    let path = result_path(dir);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    if let Some(out_path) = &o.output {
        let modules = result_modules(&text)?;
        write_assignments(out_path, &modules, source.original_ids.as_deref())?;
    }
    if !o.quiet {
        let report = result_summary(&text)?;
        println!(
            "distributed Infomap over {} OS processes (unix sockets): {} vertices, {} edges",
            o.procs, source.vertices, source.edges,
        );
        println!("  modules:    {}", report.num_modules);
        println!("  codelength: {:.6} bits", report.codelength);
        println!("  stages:     {}", stages_line(result_stages(&text)));
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let total = started.elapsed();
        println!(
            "  wall time:  {:.1} ms total, {:.1} ms in the world (modeled {:.3} ms)",
            ms(total),
            report.wall_ms,
            report.modeled_ms
        );
        let mib = |kib: f64| kib / 1024.0;
        println!(
            "  launcher:   parse {:.1} ms, shard write {:.1} ms ({} bytes), \
             connect {:.1} ms, prepare {:.1} ms, world {:.1} ms, other {:.1} ms; \
             peak memory: launcher {:.1} MiB, rank 0 {:.1} MiB",
            ms(source.parse),
            ms(source.shard_write),
            source.shard_bytes,
            report.connect_ms,
            report.prepare_ms,
            ms(world),
            ms(total.saturating_sub(source.parse + source.shard_write + world)),
            mib(peak_rss_kib().unwrap_or(0) as f64),
            mib(report.peak_rss_kib),
        );
        if recovery.attempts > 1 {
            println!(
                "  recovery:   {} attempt(s), {} restore(s)",
                recovery.attempts, recovery.restores
            );
        }
    }
    Ok(())
}

/// The launch's rendezvous directory. A temporary one (no `--dir`) is
/// removed when the launch ends, however it ends — success, refusal,
/// error or panic; a `--dir` is kept.
struct Rendezvous {
    path: PathBuf,
    temporary: bool,
}

impl Drop for Rendezvous {
    fn drop(&mut self) {
        if self.temporary {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// The `_rank` command of worker `rank`: the three values it is handed,
/// then the launch's own arguments `args`, which it parses as the
/// launcher did.
fn worker_command(
    exe: &Path,
    args: &[String],
    rank: usize,
    dir: &Path,
    shard_dir: &Path,
) -> std::process::Command {
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("_rank")
        .arg("--rank")
        .arg(rank.to_string())
        .arg("--dir")
        .arg(dir)
        .arg("--graph-shard-dir")
        .arg(shard_dir)
        .arg("--")
        .args(args);
    cmd
}

/// A failure of the launcher's own, which a relaunch may not meet.
fn retry(cause: impl Into<String>) -> AttemptFailure {
    AttemptFailure {
        causes: vec![cause.into()],
        retryable: true,
    }
}

/// Spawn one world of `procs` workers and wait for it. `Ok` only when
/// every worker exits 0 and rank 0 published `result.json`. The first
/// refusal ends the world at once: the survivors are killed, and the
/// refusing ranks' own reasons are the attempt's causes.
fn run_world_once(
    o: &LaunchOpts,
    args: &[String],
    dir: &Path,
    shard_dir: &Path,
    kill: Option<(usize, u64)>,
) -> Result<(), AttemptFailure> {
    let exe = std::env::current_exe().map_err(|e| retry(format!("current_exe: {e}")))?;
    let mut children: Vec<Option<Child>> = Vec::with_capacity(o.procs);
    for rank in 0..o.procs {
        match worker_command(&exe, args, rank, dir, shard_dir).spawn() {
            Ok(child) => children.push(Some(child)),
            Err(e) => {
                // Left alone, the ranks already running would sit in the
                // socket directory the retry reuses until setup times out.
                kill_and_reap(&mut children);
                return Err(retry(format!("spawn rank {rank}: {e}")));
            }
        }
    }

    // Poll loop: supervise exits, fire the chaos kill, enforce a hang
    // watchdog well beyond the workers' own deadlines (a worker that
    // trips its collective timeout exits on its own — the watchdog only
    // catches a worker wedged outside the transport).
    let begun = Instant::now();
    let watchdog = Duration::from_millis(o.timeout_ms.saturating_mul(10).max(60_000));
    // Once one worker fails, give the survivors long enough to notice
    // (PeerDead / Timeout — or their own setup deadline if the victim
    // died during bootstrap), write their diagnostics, and exit.
    let grace = setup_window(o.timeout_ms)
        + Duration::from_millis(o.timeout_ms.saturating_mul(2).saturating_add(2_000));
    let mut first_failure: Option<Instant> = None;
    let mut exits: Vec<Option<WorkerExit>> = vec![None; o.procs];
    let mut killed = false;

    loop {
        let mut live = 0usize;
        for (rank, slot) in children.iter_mut().enumerate() {
            let Some(child) = slot else { continue };
            match child.try_wait() {
                Ok(Some(status)) => {
                    exits[rank] = Some(WorkerExit::of(status));
                    if !status.success() && first_failure.is_none() {
                        first_failure = Some(Instant::now());
                    }
                    *slot = None;
                }
                Ok(None) => live += 1,
                Err(e) => return Err(retry(format!("wait rank {rank}: {e}"))),
            }
        }
        if exits.contains(&Some(WorkerExit::Refused)) {
            // A final refusal: nothing the survivors do can change the
            // outcome, and they would only wait out their deadlines.
            kill_and_reap(&mut children);
            break;
        }
        if live == 0 {
            break;
        }
        if let Some((victim, at_ms)) = kill {
            if !killed && begun.elapsed() >= Duration::from_millis(at_ms) {
                if let Some(child) = children.get_mut(victim).and_then(|c| c.as_mut()) {
                    let _ = child.kill(); // SIGKILL: no cleanup, no goodbye
                }
                killed = true;
            }
        }
        let over_grace = first_failure.is_some_and(|t| t.elapsed() > grace);
        if begun.elapsed() > watchdog || over_grace {
            // Reaped statuses stay readable: the next sweep collects them.
            kill_and_reap(&mut children);
            if begun.elapsed() > watchdog {
                return Err(retry(format!(
                    "watchdog: world still running after {watchdog:?}; killed"
                )));
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // A refusal is the root cause of everything else that failed: the
    // causes are the refusing ranks' own messages.
    let refused = exits.contains(&Some(WorkerExit::Refused));
    let mut causes = Vec::new();
    for (rank, exit) in exits.iter().enumerate() {
        let why = match exit {
            Some(WorkerExit::Done) => continue,
            Some(WorkerExit::Refused) => read_diag(dir, rank)
                .map_or_else(|| "refused its input (no diagnostic)".into(), |(_, d)| d),
            _ if refused => continue,
            Some(WorkerExit::Fault(EXIT_TRANSPORT_FAULT)) => read_diag(dir, rank).map_or_else(
                || "transport fault (no diagnostic)".into(),
                |(op, detail)| format!("blocked in {op}: {detail}"),
            ),
            Some(WorkerExit::Fault(code)) => format!("exit code {code}"),
            Some(WorkerExit::Killed) => "killed by signal".into(),
            None => unreachable!("every child is reaped before the causes are read"),
        };
        causes.push(format!("rank {rank}: {why}"));
    }
    if !causes.is_empty() {
        Err(AttemptFailure {
            causes,
            retryable: !refused,
        })
    } else if result_path(dir).exists() {
        Ok(())
    } else {
        Err(retry("all workers exited 0 but rank 0 published no result"))
    }
}

/// SIGKILL every child still held and wait for it, so no worker outlives
/// the world it was spawned for.
fn kill_and_reap(children: &mut [Option<Child>]) {
    for child in children.iter_mut().flatten() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// The fields of `result.json` the launcher reports. Parsed with a
/// purpose-built scanner — the file is machine-written by this same
/// binary, so a `"key": value` scan is exact.
struct ResultSummary {
    codelength: f64,
    num_modules: u64,
    connect_ms: f64,
    prepare_ms: f64,
    peak_rss_kib: f64,
    wall_ms: f64,
    modeled_ms: f64,
}

/// The value of the first `"key":` in `text`. A quoted value runs to
/// its first unescaped `"` and is unescaped as the exact inverse of
/// [`json_string`]; any other value runs to the next `,`, newline or `}`.
fn json_field(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let Some(quoted) = rest.strip_prefix('"') else {
        let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
        return Some(rest[..end].trim().to_string());
    };
    let mut value = String::new();
    let mut chars = quoted.chars();
    loop {
        match chars.next()? {
            '"' => return Some(value),
            '\\' => match chars.next()? {
                '"' => value.push('"'),
                '\\' => value.push('\\'),
                'n' => value.push('\n'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    value.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                _ => return None,
            },
            c => value.push(c),
        }
    }
}

fn result_summary(text: &str) -> Result<ResultSummary, String> {
    let bits = json_field(text, "codelength_bits")
        .and_then(|s| u64::from_str_radix(&s, 16).ok())
        .ok_or("result.json: missing codelength_bits")?;
    let field = |key: &str| -> Result<f64, String> {
        json_field(text, key)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("result.json: missing {key}"))
    };
    Ok(ResultSummary {
        codelength: f64::from_bits(bits),
        num_modules: field("num_modules")? as u64,
        connect_ms: field("connect_ms")?,
        prepare_ms: field("prepare_ms")?,
        peak_rss_kib: field("peak_rss_kib")?,
        wall_ms: field("wall_ms")?,
        modeled_ms: field("modeled_ms")?,
    })
}

/// `(stage, rounds, stop)` of every entry of the `stages` array of
/// `result.json` (one flat object per clustering stage).
fn result_stages(text: &str) -> impl Iterator<Item = (u8, usize, String)> + '_ {
    let list = text
        .split_once("\"stages\": [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map_or("", |(list, _)| list);
    list.split('}').filter_map(|stage| {
        Some((
            json_field(stage, "stage")?.parse().ok()?,
            json_field(stage, "rounds")?.parse().ok()?,
            json_field(stage, "stop")?,
        ))
    })
}

/// The `modules` array of `result.json`: the dense module of every
/// vertex, in dense-id order.
fn result_modules(text: &str) -> Result<Vec<u32>, String> {
    let missing = "result.json: missing modules";
    let (_, rest) = text.split_once("\"modules\": [").ok_or(missing)?;
    let (list, _) = rest.split_once(']').ok_or(missing)?;
    list.split(',')
        .filter(|m| !m.is_empty())
        .map(|m| {
            m.parse()
                .map_err(|_| format!("result.json: bad module {m:?}"))
        })
        .collect()
}

/// The `(op, detail)` of rank `rank`'s diagnostic.
fn read_diag(dir: &Path, rank: usize) -> Option<(String, String)> {
    let text = std::fs::read_to_string(diag_path(dir, rank)).ok()?;
    Some((json_field(&text, "op")?, json_field(&text, "detail")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_field_scanner_reads_machine_written_fields() {
        let text = "{\n  \"schema\": \"x\",\n  \"codelength_bits\": \"4008000000000000\",\n  \"num_modules\": 7,\n  \"stages\": [{\"stage\": 1, \"level\": 0, \"rounds\": 40, \"moves\": 9, \"stop\": \"cap\"}, {\"stage\": 2, \"level\": 1, \"rounds\": 14, \"moves\": 3, \"stop\": \"stalled\"}, {\"stage\": 2, \"level\": 2, \"rounds\": 5, \"moves\": 0, \"stop\": \"quiesced\"}],\n  \"connect_ms\": 3.5,\n  \"prepare_ms\": 40.25,\n  \"peak_rss_kib\": 20480,\n  \"wall_ms\": 12.5,\n  \"modeled_ms\": 0.25,\n  \"modules\": [1,2]\n}\n";
        assert_eq!(json_field(text, "num_modules").as_deref(), Some("7"));
        assert_eq!(json_field(text, "wall_ms").as_deref(), Some("12.5"));
        assert_eq!(
            json_field(text, "codelength_bits").as_deref(),
            Some("4008000000000000")
        );
        let s = result_summary(text).unwrap();
        assert_eq!(s.codelength, 3.0);
        assert_eq!(s.num_modules, 7);
        assert_eq!((s.connect_ms, s.prepare_ms, s.wall_ms), (3.5, 40.25, 12.5));
        assert_eq!(s.peak_rss_kib, 20480.0);
        assert_eq!(result_modules(text).unwrap(), [1, 2]);
        assert_eq!(
            stages_line(result_stages(text)),
            "s1 40 (cap) | s2 14 (stalled), 5 (quiesced)"
        );
        assert_eq!(stages_line(result_stages("{}")), "");
        assert!(result_modules("{\"modules\": [1,x]}").is_err());
        assert!(result_modules("{}").is_err());
    }

    #[test]
    fn kill_and_reap_leaves_no_child_running() {
        let mut children: Vec<Option<Child>> = (0..3)
            .map(|_| std::process::Command::new("sleep").arg("600").spawn().ok())
            .collect();
        assert!(children.iter().all(Option::is_some), "spawn sleep");
        let begun = Instant::now();
        kill_and_reap(&mut children);
        assert!(
            begun.elapsed() < Duration::from_secs(60),
            "waited out a sleep"
        );
        for child in children.iter_mut().flatten() {
            let status = child.try_wait().expect("try_wait").expect("reaped");
            assert_eq!(status.code(), None, "killed by signal, not exited");
        }
    }

    #[test]
    fn one_level_of_shards_folds_in_global_vertex_order() {
        let (g, _) = infomap_graph::generators::ring_of_cliques(5, 7, 3);
        let dir = std::env::temp_dir().join(format!("dinf-launch-fold-{}", std::process::id()));
        infomap_graph::snapshot::write_shards(&g, 3, &dir).unwrap();
        let (one_level, n) = one_level_of_shards(&dir, 3).unwrap();
        let whole = node_term((0..n as u32).map(|v| g.strength(v)), g.total_weight());
        assert_eq!(n, g.num_vertices());
        assert_eq!(one_level.to_bits(), (-whole).to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sweep of launch lines — both inputs, four paging shapes, each
    /// launch flag alone and all of them — through the worker command and
    /// back through the parser: the worker's options are the launcher's
    /// but for the rank, dir and shard dir it is handed.
    #[test]
    fn worker_command_forwards_every_worker_flag() {
        use crate::args::{parse, Command};
        let argv =
            |line: &str| -> Vec<String> { line.split_whitespace().map(String::from).collect() };
        let flags = [
            "--procs 3",
            "--threads 2",
            "--seed 9",
            "--output out.txt",
            "--quiet",
            "--checkpoint-every 2",
            "--max-retries 5",
            "--timeout-ms 700",
            "--kill-rank 1@40",
            "--dir run",
        ];
        let paging = [
            "",
            "--paged",
            "--paged --block-bytes 256 --cache-blocks 8",
            "--block-bytes 256 --cache-blocks 8",
        ];
        let all = flags.join(" ");
        let mut lines = 0;
        for input in ["g.txt", "--graph-shard-dir shards"] {
            for pages in paging {
                for rest in flags.iter().copied().chain([all.as_str()]) {
                    let line = format!("launch {input} {rest} {pages}");
                    let Ok(Command::Launch(mut want, args)) = parse(&argv(&line)) else {
                        panic!("{line}: launch parse")
                    };
                    let cmd =
                        worker_command(Path::new("w"), &args, 1, Path::new("d"), Path::new("s"));
                    let worker: Vec<String> = cmd
                        .get_args()
                        .map(|a| a.to_str().unwrap().to_string())
                        .collect();
                    want.dir = Some("d".into());
                    want.graph_shard_dir = Some("s".into());
                    assert_eq!(
                        parse(&worker),
                        Ok(Command::RankWorker(1, want)),
                        "{worker:?}"
                    );
                    lines += 1;
                }
            }
        }
        assert_eq!(lines, 2 * 4 * 11);
    }

    #[test]
    fn json_string_escapes_controls() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn diag_files_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dinf-launch-diag-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A Timeout's detail has a comma before "waiting on ranks"; the
        // other one carries every character `json_string` escapes.
        for (op, detail) in [
            ("exchange seq=9", "peer 1 dead: heartbeat lapsed 2000ms"),
            (
                "alltoallv seq=4",
                "timeout after 2000ms in alltoallv, waiting on ranks [1, 3]",
            ),
            (
                "recv \"tag\" 7",
                "timeout after 5ms in recv, \"x\\y\"\nwaiting on ranks [0]\u{1}\t",
            ),
        ] {
            write_diag(&dir, 2, op, detail);
            let read = read_diag(&dir, 2).unwrap();
            assert_eq!(read, (op.to_string(), detail.to_string()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
