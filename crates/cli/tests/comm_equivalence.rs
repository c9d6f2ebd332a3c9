//! Transport-equivalence gate: the thread world (ranks over the in-memory
//! transport) and the socket transport must produce **bit-identical**
//! results per seed — same per-round MDL series (as f64 bit patterns),
//! same move counts, same final assignment, and the same metered counters
//! on every rank, per phase and in total (every `PhaseStats` field but
//! the wall clock), so the modeled makespan cannot tell the transports
//! apart either. One `Comm` lowers every
//! collective onto blob exchanges with per-rank folds in rank order over
//! either transport, so IEEE determinism carries across process/socket
//! boundaries; this test is the contract.
//!
//! The matrix also crosses the transport axis with the intra-rank thread
//! axis (DESIGN.md §6 note 16): a single-threaded thread-world run must
//! match a socket-backend run sweeping with 4 slices per rank, so neither
//! axis can hide a determinism leak behind the other.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use infomap_distributed::{
    CheckpointStore, DistributedConfig, DistributedInfomap, DistributedOutput, RankProgram,
    RecoveryReport,
};
use infomap_graph::generators::{lfr_like, LfrParams};
use infomap_graph::snapshot::{
    read_header, shard_path, write_shards, PageCacheConfig, SnapshotStore as ShardStore,
};
use infomap_graph::Graph;
use infomap_mpisim::{Comm, PhaseStats};
use infomap_transport_socket::{SocketConfig, SocketTransport};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dinf-equiv-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the distributed pipeline with every rank on its own
/// [`SocketTransport`] over a private UDS mesh (threads stand in for
/// processes; the byte path is identical either way).
fn socket_run(g: &Graph, p: usize, seed: u64, threads: usize) -> DistributedOutput {
    let dir = fresh_dir();
    let cfg = DistributedConfig {
        nranks: p,
        seed,
        threads,
        ..Default::default()
    };
    let program = Arc::new(RankProgram::prepare(cfg, g));
    let store = Arc::new(CheckpointStore::new(p));
    let mut scfg = SocketConfig::uds(&dir);
    scfg.timeout = std::time::Duration::from_secs(30); // generous for CI
    let mut handles = Vec::new();
    for rank in 0..p {
        let program = Arc::clone(&program);
        let store = Arc::clone(&store);
        let scfg = scfg.clone();
        handles.push(std::thread::spawn(move || {
            let t = SocketTransport::connect(rank, p, scfg).expect("connect");
            let mut comm = Comm::over_transport(Box::new(t));
            let done = program.run_rank(&mut comm, store.as_ref());
            (done, comm.finish())
        }));
    }
    let mut rank0 = None;
    let mut stats = Vec::new();
    for h in handles {
        let (done, st) = h.join().expect("rank thread");
        stats.push(st);
        if let Some(result) = done {
            rank0 = Some(result);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (modules, trace, codelength) = rank0.expect("rank 0 result");
    program.assemble_output(modules, trace, codelength, stats, RecoveryReport::default())
}

/// Out-of-core variant of [`socket_run`]: the graph is split into
/// per-rank binary shards first, and every rank rebuilds its state from
/// its own shard with [`RankProgram::prepare_shard`] — so the prepare
/// collectives themselves cross the byte transport. Even ranks load
/// their shard eagerly, odd ranks demand-page it through a deliberately
/// tiny block cache; the store must not be observable in the results.
fn shard_socket_run(g: &Graph, p: usize, seed: u64) -> DistributedOutput {
    let dir = fresh_dir();
    let shard_dir = dir.join("shards");
    write_shards(g, p, &shard_dir).expect("write shards");
    let cfg = DistributedConfig {
        nranks: p,
        seed,
        ..Default::default()
    };
    let store = Arc::new(CheckpointStore::new(p));
    let mut scfg = SocketConfig::uds(&dir);
    scfg.timeout = std::time::Duration::from_secs(30);
    let mut handles = Vec::new();
    for rank in 0..p {
        let store = Arc::clone(&store);
        let scfg = scfg.clone();
        let shard_dir = shard_dir.clone();
        handles.push(std::thread::spawn(move || {
            let t = SocketTransport::connect(rank, p, scfg).expect("connect");
            let mut comm = Comm::over_transport(Box::new(t));
            let path = shard_path(&shard_dir, rank);
            let header = read_header(&path).expect("shard header");
            let paged = (rank % 2 == 1).then_some(PageCacheConfig {
                block_bytes: 128,
                capacity_blocks: 8,
            });
            let gstore = ShardStore::open(&path, paged).expect("shard store");
            let program = RankProgram::prepare_shard(cfg, &header, &gstore, &mut comm);
            let done = program.run_rank(&mut comm, store.as_ref());
            (program, done, comm.finish())
        }));
    }
    let mut rank0 = None;
    let mut stats = Vec::new();
    for h in handles {
        let (program, done, st) = h.join().expect("rank thread");
        stats.push(st);
        if let Some(result) = done {
            rank0 = Some((program, result));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (program, (modules, trace, codelength)) = rank0.expect("rank 0 result");
    program.assemble_output(modules, trace, codelength, stats, RecoveryReport::default())
}

fn thread_run(g: &Graph, p: usize, seed: u64, threads: usize) -> DistributedOutput {
    DistributedInfomap::new(DistributedConfig {
        nranks: p,
        seed,
        threads,
        ..Default::default()
    })
    .run(g)
}

fn mdl_bits(out: &DistributedOutput) -> Vec<u64> {
    out.trace
        .iter()
        .flat_map(|t| t.mdl_series.iter().map(|m| m.to_bits()))
        .collect()
}

fn assert_equivalent_matrix(g: &Graph, p: usize, seed: u64, t_thread: usize, t_socket: usize) {
    let threaded = thread_run(g, p, seed, t_thread);
    let socketed = socket_run(g, p, seed, t_socket);
    let what = format!("p={p} seed={seed} threads {t_thread}(thread-world) vs {t_socket}(socket)");
    assert_eq!(
        mdl_bits(&threaded),
        mdl_bits(&socketed),
        "{what}: MDL series diverged between backends"
    );
    let moves = |o: &DistributedOutput| o.trace.iter().map(|t| t.moves).sum::<u64>();
    assert_eq!(moves(&threaded), moves(&socketed), "{what}: moves");
    assert_eq!(
        threaded.codelength.to_bits(),
        socketed.codelength.to_bits(),
        "{what}: final codelength bits"
    );
    assert_eq!(threaded.modules, socketed.modules, "{what}: assignment");
    assert_same_counters(&threaded, &socketed, &what);
}

/// Every rank's metered counters, in total and per phase, are equal on
/// every field but `wall` (the one a transport may change).
fn assert_same_counters(a: &DistributedOutput, b: &DistributedOutput, what: &str) {
    let unclocked = |s: &PhaseStats| PhaseStats {
        wall: std::time::Duration::ZERO,
        ..s.clone()
    };
    assert_eq!(a.rank_stats.len(), b.rank_stats.len(), "{what}: ranks");
    for (ra, rb) in a.rank_stats.iter().zip(&b.rank_stats) {
        let rank = ra.rank;
        assert_eq!(rank, rb.rank, "{what}: rank order");
        assert_eq!(
            unclocked(&ra.total),
            unclocked(&rb.total),
            "{what}: rank {rank} total counters"
        );
        assert_eq!(
            ra.phases.keys().collect::<Vec<_>>(),
            rb.phases.keys().collect::<Vec<_>>(),
            "{what}: rank {rank} phases"
        );
        for ((phase, pa), pb) in ra.phases.iter().zip(rb.phases.values()) {
            assert_eq!(
                unclocked(pa),
                unclocked(pb),
                "{what}: rank {rank} phase {phase} counters"
            );
        }
    }
}

fn assert_equivalent(g: &Graph, p: usize, seed: u64) {
    assert_equivalent_matrix(g, p, seed, 1, 1);
}

#[test]
fn socket_backend_is_bit_identical_to_thread_world() {
    let (g, _) = lfr_like(
        LfrParams {
            n: 300,
            mu: 0.25,
            ..Default::default()
        },
        11,
    );
    for p in [2usize, 4] {
        for seed in [0u64, 7] {
            assert_equivalent(&g, p, seed);
        }
    }
}

#[test]
fn transport_and_thread_axes_compose_bit_identically() {
    // The crossed matrix: thread world at t=1 against the socket backend
    // sweeping with t=4 slices per rank. Bit-equality here means the
    // slice-parallel sweep cannot be telling the transports apart (and
    // vice versa). Runs under the same per-collective watchdogs as the
    // rest of this file (SocketConfig.timeout above).
    let (g, _) = lfr_like(
        LfrParams {
            n: 300,
            mu: 0.25,
            ..Default::default()
        },
        11,
    );
    for seed in [0u64, 7] {
        assert_equivalent_matrix(&g, 4, seed, 1, 4);
    }
}

#[test]
fn shard_mode_over_sockets_is_bit_identical_to_thread_world() {
    // The full out-of-core path: binary shards on disk, mixed
    // eager/paged stores, shard-mode preparation over real sockets —
    // against the in-memory thread world.
    let (g, _) = lfr_like(
        LfrParams {
            n: 300,
            mu: 0.25,
            ..Default::default()
        },
        11,
    );
    for seed in [0u64, 7] {
        let threaded = thread_run(&g, 4, seed, 1);
        let sharded = shard_socket_run(&g, 4, seed);
        let what = format!("seed={seed} shard-mode vs thread world");
        assert_eq!(mdl_bits(&threaded), mdl_bits(&sharded), "{what}: MDL");
        assert_eq!(
            threaded.codelength.to_bits(),
            sharded.codelength.to_bits(),
            "{what}: codelength bits"
        );
        assert_eq!(threaded.modules, sharded.modules, "{what}: assignment");
    }
}

#[test]
fn endpoint_matrix_is_bit_identical() {
    // The UDS mesh against the thread world, at a power-of-two world and
    // at p=3 (the Bruck remainder round). Routing must be invisible: the
    // log-round relays have to hand every rank the same blobs in the same
    // slots.
    let (g, _) = lfr_like(
        LfrParams {
            n: 300,
            mu: 0.25,
            ..Default::default()
        },
        11,
    );
    for p in [3usize, 4] {
        let reference = thread_run(&g, p, 0, 1);
        let socketed = socket_run(&g, p, 0, 1);
        let what = format!("p={p}");
        assert_eq!(
            mdl_bits(&reference),
            mdl_bits(&socketed),
            "{what}: MDL series diverged"
        );
        assert_eq!(
            reference.codelength.to_bits(),
            socketed.codelength.to_bits(),
            "{what}: codelength bits"
        );
        assert_eq!(reference.modules, socketed.modules, "{what}: assignment");
    }
}

#[test]
fn equivalence_holds_on_a_hub_heavy_graph() {
    // Delegate hubs are where the collectives carry real volume — the
    // regime where a byte-lowering bug would actually surface.
    let (g, _) = lfr_like(
        LfrParams {
            n: 400,
            k_max: 120,
            mu: 0.3,
            ..Default::default()
        },
        3,
    );
    assert_equivalent(&g, 4, 1);
}
