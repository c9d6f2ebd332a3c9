//! `e2e_layers` — the traced pass: one run per workload that calls each
//! layer's public functions from outside, records a span around every
//! call, and reads the counters the program already publishes.
//!
//! Nothing inside the program is instrumented; a span is a pair of clock
//! reads in this file. A layer's self time is its span minus the spans
//! it contains. The pass uses default configuration only.
//!
//! The list of library symbols called here is the surface a later change
//! cannot alter without changing the benchmark first; README.md repeats
//! it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use infomap_core::sequential::{Infomap, InfomapConfig};
use infomap_distributed::checkpoint::stage_rng_seed;
use infomap_distributed::codec::{decode_infos, decode_updates, encode_infos, encode_updates};
use infomap_distributed::messages::{ModuleInfoMsg, VertexUpdate};
use infomap_distributed::state::{build_stage1_states, LocalState};
use infomap_distributed::{
    find_best_modules, CheckpointStore, DistributedConfig, DistributedInfomap, DistributedOutput,
    FileCheckpointStore, RankProgram, RankSnapshot, RecoveryConfig, RecoveryReport, RoundBuffers,
    SnapshotStore,
};
use infomap_e2e::json::{obj, Json};
use infomap_e2e::run::{run_rep, Rep};
use infomap_e2e::spec::{per_layer, PHASES, TRANSPORT_KINDS};
use infomap_e2e::workload::{
    graph_seed, prepare_inputs, Inputs, Sizes, Workload, BLOCK_BYTES, CACHE_BLOCKS, FULL, QUICK,
    RANKS, THREADS,
};
use infomap_graph::snapshot::{
    owned_row_count, read_header, shard_path, CacheStats, PageCacheConfig,
    SnapshotStore as ShardStore,
};
use infomap_graph::{io, GraphStore};
use infomap_mpisim::{Comm, CostModel, RankStats, TransportMetrics};
use infomap_partition::Partition;
use infomap_transport_socket::{SocketConfig, SocketTransport};
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span {
    parent: Option<usize>,
    name: String,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans are kept in memory and written when the pass ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `body` inside a span; returns its result and its seconds.
    fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        body: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = body(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Span 0 is the whole pass. Returns its seconds and the share of
    /// them that no layer span covers.
    fn total_and_residual(&self) -> (f64, f64) {
        let root = &self.spans[0];
        let total = (root.end_ns - root.start_ns) as f64;
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (total / 1e9, 1.0 - covered as f64 / total)
    }

    fn to_json(&self, workload: Workload) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj([
                        ("id", id.into()),
                        ("parent", s.parent.map_or(Json::Null, Into::into)),
                        ("name", s.name.as_str().into()),
                        ("layer", s.layer.into()),
                        ("workload", workload.name().into()),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                    ])
                })
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Every per-layer metric of the contract with its unit, zero until
/// set: a metric this workload's path never touches reads 0, which is
/// how a bypass shows.
struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    fn new() -> Self {
        Metrics(
            per_layer()
                .into_iter()
                .map(|m| (m.name, (0.0, m.unit)))
                .collect(),
        )
    }

    fn set(&mut self, name: &str, value: f64) {
        self.0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the contract (spec.rs)"))
            .0 = value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name].0
    }

    fn to_json(&self) -> Json {
        obj(self.0.iter().map(|(name, &(value, unit))| {
            (
                name.as_str(),
                obj([("value", value.into()), ("unit", unit.into())]),
            )
        }))
    }
}

// ---------------------------------------------------------------------
// The distributed driver on the workload's own substrate
// ---------------------------------------------------------------------

fn distributed_config(w: Workload, seed: u64) -> DistributedConfig {
    DistributedConfig {
        nranks: RANKS,
        seed,
        threads: THREADS,
        recovery: RecoveryConfig {
            checkpoint_every: usize::from(w == Workload::HubCkpt),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The socket settings `dinfomap launch` gives its workers by default
/// (`--timeout-ms 5000`).
fn socket_config(dir: &Path) -> SocketConfig {
    let mut cfg = SocketConfig::uds(dir);
    cfg.timeout = Duration::from_millis(5000);
    cfg.heartbeat = Duration::from_millis(250);
    cfg.setup_timeout = Duration::from_millis(20_000);
    cfg
}

/// Where a socket-world rank gets its program from.
enum Source<'a> {
    /// Prepared once from the whole graph, as every `launch` worker does.
    Whole(&'a RankProgram),
    /// Prepared collectively from the rank's own paged shard.
    Shards(&'a Path),
}

struct WorldRun {
    out: DistributedOutput,
    wall_s: f64,
    /// Mesh bootstrap, mean over ranks.
    connect_s: f64,
    /// Summed over ranks.
    transport: TransportMetrics,
    /// Delegates the ranks' programs hold (every rank agrees).
    delegates: usize,
}

/// Four rank threads, each on its own socket transport over a private
/// unix-socket mesh: `SocketTransport::connect` → `Comm::over_transport`
/// → `RankProgram::run_rank` → `Comm::finish`.
fn socket_world(
    cfg: DistributedConfig,
    source: &Source,
    store: &dyn SnapshotStore,
    sock_dir: &Path,
) -> WorldRun {
    let _ = std::fs::remove_dir_all(sock_dir);
    std::fs::create_dir_all(sock_dir).expect("socket directory");
    let scfg = socket_config(sock_dir);
    let started = Instant::now();
    let per_rank = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RANKS)
            .map(|rank| {
                let scfg = scfg.clone();
                scope.spawn(move || {
                    let t = Instant::now();
                    let transport =
                        SocketTransport::connect(rank, RANKS, scfg).expect("socket mesh bootstrap");
                    let connect_s = t.elapsed().as_secs_f64();
                    let mut comm = Comm::over_transport(Box::new(transport));
                    let own;
                    let program = match source {
                        Source::Whole(program) => *program,
                        Source::Shards(dir) => {
                            let path = shard_path(dir, rank);
                            let header = read_header(&path).expect("shard header");
                            let shard = ShardStore::open(&path, Some(page_cache())).expect("shard");
                            own = RankProgram::prepare_shard(cfg, &header, &shard, &mut comm);
                            &own
                        }
                    };
                    let done = program.run_rank(&mut comm, store);
                    let output_shape = (
                        program.one_level,
                        program.original_n,
                        program.delegates.len(),
                    );
                    let metrics = comm
                        .transport_metrics()
                        .expect("the socket transport meters itself");
                    (done, output_shape, metrics, comm.finish(), connect_s)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect::<Vec<_>>()
    });
    let wall_s = started.elapsed().as_secs_f64();

    let mut transport = TransportMetrics::default();
    let mut stats: Vec<RankStats> = Vec::new();
    let mut result = None;
    let mut connect_s = 0.0;
    for (done, shape, metrics, rank_stats, connect) in per_rank {
        transport.absorb(&metrics);
        stats.push(rank_stats);
        connect_s += connect / RANKS as f64;
        if let Some((modules, trace, codelength)) = done {
            result = Some((modules, trace, codelength, shape));
        }
    }
    let (mut modules, trace, mut codelength, (one_level, original_n, delegates)) =
        result.expect("rank 0 returns the result");
    // `RankProgram::assemble_output`, which needs a program value: the
    // one-module fallback when clustering made the code longer.
    if codelength > one_level {
        modules = vec![0; original_n];
        codelength = one_level;
    }
    WorldRun {
        out: DistributedOutput {
            modules,
            codelength,
            one_level_codelength: one_level,
            trace,
            rank_stats: stats,
            nranks: RANKS,
            recovery: RecoveryReport::default(),
        },
        wall_s,
        connect_s,
        transport,
        delegates,
    }
}

fn page_cache() -> PageCacheConfig {
    PageCacheConfig {
        block_bytes: BLOCK_BYTES,
        capacity_blocks: CACHE_BLOCKS,
    }
}

/// Driver metrics from the run's own counters (`rank_stats`, `trace`).
fn record_driver(m: &mut Metrics, out: &DistributedOutput, wall_s: f64) {
    let ranks = &out.rank_stats;
    let p = ranks.len() as f64;
    m.set("distributed.run_wall_s", wall_s);
    m.set(
        "distributed.rounds_s1",
        out.trace
            .iter()
            .filter(|t| t.stage == 1)
            .map(|t| t.inner_iterations)
            .sum::<usize>() as f64,
    );
    m.set("distributed.levels", out.trace.len() as f64);
    m.set(
        "distributed.moves_total",
        out.trace.iter().map(|t| t.moves).sum::<u64>() as f64,
    );

    let bytes = |s: &infomap_mpisim::PhaseStats| {
        s.p2p_bytes_sent + s.collective_bytes + s.collective_bytes_recv
    };
    let (mut named_wall, mut named_bytes, mut named_calls) = (0.0, 0u64, 0u64);
    for phase in PHASES.iter().filter(|&&ph| ph != "unphased") {
        let program_name = phase.replacen('-', "/", 1);
        let per_rank: Vec<_> = ranks.iter().map(|r| r.phase(&program_name)).collect();
        let wall = per_rank.iter().map(|s| s.wall.as_secs_f64()).sum::<f64>() / p;
        let b: u64 = per_rank.iter().map(bytes).sum();
        let calls = per_rank
            .iter()
            .map(|s| s.collective_calls)
            .max()
            .unwrap_or(0);
        m.set(&format!("phase.{phase}.wall_s"), wall);
        m.set(&format!("phase.{phase}.bytes"), b as f64);
        m.set(&format!("phase.{phase}.collective_calls"), calls as f64);
        named_wall += wall;
        named_bytes += b;
        named_calls += calls;
    }
    let total_bytes: u64 = ranks.iter().map(|r| bytes(&r.total)).sum();
    let total_calls = ranks
        .iter()
        .map(|r| r.total.collective_calls)
        .max()
        .unwrap_or(0);
    // What the named phases leave of the run: rank start-up, the final
    // gather, and any phase the program adds before this list learns it.
    m.set("phase.unphased.wall_s", wall_s - named_wall);
    m.set(
        "phase.unphased.bytes",
        total_bytes.saturating_sub(named_bytes) as f64,
    );
    m.set(
        "phase.unphased.collective_calls",
        total_calls.saturating_sub(named_calls) as f64,
    );

    let sum = |f: fn(&RankStats) -> u64| ranks.iter().map(f).sum::<u64>() as f64;
    m.set("mpisim.collective_calls", total_calls as f64);
    m.set(
        "mpisim.collective_bytes",
        sum(|r| r.total.collective_bytes + r.total.collective_bytes_recv),
    );
    m.set("mpisim.p2p_msgs", sum(|r| r.total.p2p_msgs_sent));
    m.set("mpisim.p2p_bytes", sum(|r| r.total.p2p_bytes_sent));
    let modeled = CostModel::default().makespan(ranks).total;
    m.set("mpisim.modeled_makespan_s", modeled);
    m.set("mpisim.wall_over_modeled", wall_s / modeled);
    m.set("distributed.codec_bytes", sum(|r| r.total.codec_bytes));
    m.set("distributed.ckpt_bytes", sum(|r| r.total.checkpoint_bytes));
}

fn record_transport(m: &mut Metrics, world: &WorldRun) {
    m.set("transport-socket.connect_s", world.connect_s);
    for kind in TRANSPORT_KINDS {
        let Some(op) = world.transport.ops.get(kind) else {
            continue;
        };
        let key = |suffix: &str| format!("transport-socket.{kind}.{suffix}");
        // Frames and wire bytes a rank wrote; a receive writes none, so
        // for `p2p_recv` the ones it consumed.
        let (frames, bytes) = if kind == "p2p_recv" {
            (op.frames_recv, op.bytes_recv)
        } else {
            (op.frames_sent, op.bytes_sent)
        };
        m.set(&key("calls"), op.calls as f64);
        m.set(&key("frames"), frames as f64);
        m.set(&key("bytes"), bytes as f64);
        m.set(&key("wall_s"), op.wall.as_secs_f64() / RANKS as f64);
    }
}

// ---------------------------------------------------------------------
// Layer passes
// ---------------------------------------------------------------------

/// Serial replay of `find_best_modules` over all rank states, six
/// rounds, with the driver's per-rank stage seeding.
fn find_best_replay(
    m: &mut Metrics,
    t: &mut Tracer,
    states: &[LocalState],
    cfg: &DistributedConfig,
) {
    const ROUNDS: usize = 6;
    let mut states = states.to_vec();
    for st in &mut states {
        st.sum_exit = st.out_flow.iter().sum();
    }
    let mut rngs: Vec<StdRng> = (0..states.len())
        .map(|r| StdRng::seed_from_u64(stage_rng_seed(cfg.seed, r)))
        .collect();
    let mut bufs: Vec<RoundBuffers> = states.iter().map(|_| RoundBuffers::new(RANKS)).collect();
    let ((arcs, moves), secs) = t.span("distributed", "find_best_modules x6 rounds", |_| {
        let (mut arcs, mut moves) = (0u64, 0u64);
        for round in 0..ROUNDS {
            for (r, st) in states.iter_mut().enumerate() {
                let (owned, scanned, _proposals) =
                    find_best_modules(st, cfg, &mut rngs[r], &mut bufs[r], round);
                arcs += scanned;
                moves += owned;
            }
        }
        (arcs, moves)
    });
    m.set("distributed.find_best_s", secs);
    m.set("distributed.find_best_arcs", arcs as f64);
    m.set("distributed.find_best_arcs_per_s", arcs as f64 / secs);
    m.set("distributed.find_best_moves", moves as f64);
}

/// Encode and decode one boundary-update batch and one module-info
/// batch per rank, built from the rank's own vertices and modules.
fn codec_pass(m: &mut Metrics, t: &mut Tracer, states: &[LocalState]) {
    // The batches are a few hundred KiB; repeat so the clock resolves them.
    const REPEATS: usize = 16;
    let batches: Vec<(Vec<VertexUpdate>, Vec<ModuleInfoMsg>)> = states
        .iter()
        .map(|st| {
            let updates = (0..st.verts.len())
                .map(|li| VertexUpdate {
                    vertex: st.verts[li],
                    module: st.module_id_of(li),
                })
                .collect();
            let infos = (0..st.num_module_slots() as u32)
                .map(|s| {
                    let e = st.module_entry(s);
                    ModuleInfoMsg {
                        mod_id: st.module_gid(s),
                        flow: e.flow,
                        exit: e.exit,
                        members: e.members,
                        is_sent: false,
                    }
                })
                .collect();
            (updates, infos)
        })
        .collect();
    let (encoded, encode_s) = t.span(
        "distributed",
        "codec::encode_updates + encode_infos",
        |_| {
            let mut last = Vec::new();
            for _ in 0..REPEATS {
                last = batches
                    .iter()
                    .map(|(updates, infos)| {
                        let mut buf = Vec::new();
                        encode_updates(&mut buf, updates);
                        encode_infos(&mut buf, infos);
                        buf
                    })
                    .collect::<Vec<_>>();
            }
            last
        },
    );
    let (roundtrip, decode_s) = t.span(
        "distributed",
        "codec::decode_updates + decode_infos",
        |_| {
            let mut same = true;
            for _ in 0..REPEATS {
                for (buf, (updates, infos)) in encoded.iter().zip(&batches) {
                    let mut pos = 0;
                    same &= &decode_updates(buf, &mut pos) == updates;
                    same &= &decode_infos(buf, &mut pos) == infos;
                }
            }
            same
        },
    );
    assert!(roundtrip, "codec round trip changed a batch");
    let mb = (REPEATS * encoded.iter().map(Vec::len).sum::<usize>()) as f64 / 1e6;
    m.set("distributed.codec_encode_s", encode_s / REPEATS as f64);
    m.set("distributed.codec_decode_s", decode_s / REPEATS as f64);
    m.set("distributed.codec_encode_mb_per_s", mb / encode_s);
    m.set("distributed.codec_decode_mb_per_s", mb / decode_s);
}

/// Checkpoint write side on the snapshots the run left behind: encode,
/// decode, and the two-generation file commit.
fn checkpoint_pass(
    m: &mut Metrics,
    t: &mut Tracer,
    store: &FileCheckpointStore,
    seed: u64,
    scratch: &Path,
) {
    const REPEATS: usize = 8;
    let snaps: Vec<RankSnapshot> = (0..RANKS)
        .map(|r| {
            store
                .restore_agreed(r)
                .expect("every rank left a checkpoint")
        })
        .collect();
    let (encoded, encode_s) = t.span("distributed", "RankSnapshot::encode", |_| {
        let mut last = Vec::new();
        for _ in 0..REPEATS {
            last = snaps.iter().map(RankSnapshot::encode).collect::<Vec<_>>();
        }
        last
    });
    let (_, decode_s) = t.span("distributed", "RankSnapshot::decode", |_| {
        for _ in 0..REPEATS {
            for bytes in &encoded {
                RankSnapshot::decode(bytes, seed).expect("snapshot decodes");
            }
        }
    });
    let _ = std::fs::remove_dir_all(scratch);
    let second = FileCheckpointStore::open(scratch, RANKS, seed).expect("checkpoint directory");
    let (_, commit_s) = t.span("distributed", "FileCheckpointStore::commit", |_| {
        for _ in 0..REPEATS {
            for (rank, snap) in snaps.iter().enumerate() {
                second.commit(rank, snap);
            }
        }
    });
    assert_eq!(
        second.checkpoints_committed(),
        (REPEATS * RANKS) as u64,
        "a file commit failed"
    );
    // Per world-wide checkpoint: one snapshot of every rank.
    m.set("distributed.ckpt_encode_s", encode_s / REPEATS as f64);
    m.set("distributed.ckpt_decode_s", decode_s / REPEATS as f64);
    m.set("distributed.ckpt_file_commit_s", commit_s / REPEATS as f64);
}

/// The workloads that read an edge list: every layer between the file
/// and the assignment, called the way the program calls them.
fn edge_list_pass(
    m: &mut Metrics,
    t: &mut Tracer,
    inputs: &Inputs,
    work: &Path,
) -> DistributedOutput {
    let w = inputs.workload;
    let cfg = distributed_config(w, inputs.seed);
    let edges_path = inputs.dir.join("edges.txt");

    let (loaded, load_s) = t.span("graph", "io::read_edge_list_file", |_| {
        io::read_edge_list_file(&edges_path).expect("edge list reads back")
    });
    let graph = &loaded.graph;
    m.set("graph.edgelist_load_s", load_s);
    m.set(
        "graph.edgelist_load_mb_per_s",
        inputs.files[0].bytes as f64 / 1e6 / load_s,
    );

    let (partition, secs) = t.span("partition", "Partition::delegate", |_| {
        Partition::delegate(graph, RANKS, cfg.threshold, cfg.rebalance)
    });
    let edge_counts = partition.edge_counts();
    let mean = edge_counts.iter().sum::<usize>() as f64 / RANKS as f64;
    m.set("partition.delegate_s", secs);
    m.set("partition.delegates", partition.delegates.len() as f64);
    m.set(
        "partition.edge_imbalance",
        *edge_counts.iter().max().expect("ranks") as f64 / mean,
    );
    m.set(
        "partition.ghosts",
        partition.ghost_counts().iter().sum::<usize>() as f64,
    );

    let (states, secs) = t.span("distributed", "state::build_stage1_states", |_| {
        build_stage1_states(graph, &partition)
    });
    m.set("distributed.state_build_s", secs);
    find_best_replay(m, t, &states, &cfg);
    codec_pass(m, t, &states);
    drop(states);

    if w.launches() {
        let (program, _) = t.span("distributed", "RankProgram::prepare", |_| {
            RankProgram::prepare(cfg, graph)
        });
        let memory = CheckpointStore::new(RANKS);
        let files = (w == Workload::HubCkpt).then(|| {
            let dir = work.join("ckpt");
            let _ = std::fs::remove_dir_all(&dir);
            FileCheckpointStore::open(dir, RANKS, cfg.seed).expect("checkpoint directory")
        });
        let store: &dyn SnapshotStore = match &files {
            Some(files) => files,
            None => &memory,
        };
        let (world, _) = t.span("distributed", "RankProgram::run_rank over sockets", |_| {
            socket_world(cfg, &Source::Whole(&program), store, &work.join("sock"))
        });
        record_driver(m, &world.out, world.wall_s);
        record_transport(m, &world);
        m.set(
            "distributed.ckpt_commits",
            store.checkpoints_committed() as f64,
        );
        if let Some(files) = &files {
            checkpoint_pass(m, t, files, cfg.seed, &work.join("ckpt2"));
        }
        world.out
    } else {
        let ((out, wall_s), _) = t.span("distributed", "DistributedInfomap::run", |_| {
            let started = Instant::now();
            let out = DistributedInfomap::new(cfg).run(graph);
            (out, started.elapsed().as_secs_f64())
        });
        record_driver(m, &out, wall_s);
        m.set("mpisim.thread_world_wall_s", wall_s);
        m.set(
            "distributed.ckpt_commits",
            out.recovery.checkpoints_committed as f64,
        );
        let (sequential, secs) = t.span("core", "Infomap::run", |_| {
            Infomap::new(InfomapConfig {
                seed: cfg.seed,
                ..Default::default()
            })
            .run(graph)
        });
        m.set("core.sequential_s", secs);
        m.set("core.sequential_codelength", sequential.codelength);
        out
    }
}

/// The shard workload: the store used the other way — open each rank's
/// shard demand-paged, sweep its rows, then run the world on
/// `prepare_shard`.
fn shard_pass(
    m: &mut Metrics,
    t: &mut Tracer,
    inputs: &Inputs,
    sizes: &Sizes,
    dinfomap: &Path,
    work: &Path,
) -> DistributedOutput {
    let cfg = distributed_config(inputs.workload, inputs.seed);
    let shard_dir = inputs.dir.join("shards");

    let (cache, secs) = t.span("graph", "SnapshotStore::open + owned-row sweep", |_| {
        let mut total = CacheStats::default();
        let mut arcs = Vec::new();
        for rank in 0..RANKS {
            let store = ShardStore::open(&shard_path(&shard_dir, rank), Some(page_cache()))
                .expect("shard opens");
            let header = *store.header();
            for row in 0..owned_row_count(header.global_vertices, RANKS, rank) {
                store.arcs_into(header.vertex_of_row(row), &mut arcs);
                std::hint::black_box(&arcs);
            }
            let stats = store.cache_stats().expect("a paged store counts");
            total.hits += stats.hits;
            total.misses += stats.misses;
        }
        total
    });
    m.set("graph.shard_open_s", secs);
    m.set("graph.page_hits", cache.hits as f64);
    m.set("graph.page_misses", cache.misses as f64);

    // The streaming generator behind `generate --shards`, through the CLI.
    let stream_dir = work.join("stream");
    let _ = std::fs::remove_dir_all(&stream_dir);
    let (stdout, secs) = t.span("graph", "dinfomap generate friendster --shards 4", |_| {
        let out = std::process::Command::new(dinfomap)
            .args(["generate", "friendster", "--shards", "4"])
            .args(["--scale", &sizes.stream_scale.to_string()])
            .args(["--seed", &inputs.seed.to_string()])
            .arg("--out-dir")
            .arg(&stream_dir)
            .output()
            .expect("dinfomap generate runs");
        assert!(out.status.success(), "dinfomap generate failed");
        String::from_utf8_lossy(&out.stdout).into_owned()
    });
    let _ = std::fs::remove_dir_all(&stream_dir);
    // "... : V vertices, E edges"
    let edges: f64 = stdout
        .split_ascii_whitespace()
        .rev()
        .nth(1)
        .and_then(|e| e.parse().ok())
        .expect("generate reports its edge count");
    m.set("graph.gen_stream_edges_per_s", edges / secs);

    let memory = CheckpointStore::new(RANKS);
    let (world, _) = t.span(
        "distributed",
        "RankProgram::prepare_shard + run_rank over sockets",
        |_| {
            socket_world(
                cfg,
                &Source::Shards(&shard_dir),
                &memory,
                &work.join("sock"),
            )
        },
    );
    record_driver(m, &world.out, world.wall_s);
    record_transport(m, &world);
    m.set(
        "distributed.ckpt_commits",
        memory.checkpoints_committed() as f64,
    );
    // `Partition::delegate` never runs in shard mode; the count is what
    // the collective preparation elected.
    m.set("partition.delegates", world.delegates as f64);
    world.out
}

// ---------------------------------------------------------------------
// The pass
// ---------------------------------------------------------------------

struct Opts {
    workload: Workload,
    seed: u64,
    quick: bool,
    dinfomap: PathBuf,
    work: PathBuf,
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut quick, mut dinfomap, mut work) = (None, 42, false, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--quick" => quick = true,
            "--dinfomap" => dinfomap = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        quick,
        dinfomap: dinfomap.ok_or("--dinfomap is required")?,
        work: work.ok_or("--work is required")?,
    })
}

/// Checks of the pass itself; each failure makes the result incorrect.
fn check(
    m: &Metrics,
    w: Workload,
    out: &DistributedOutput,
    traced: &Rep,
    warm: &Rep,
) -> Vec<String> {
    let mut wrong = Vec::new();
    for rep in [warm, traced] {
        if let Some(why) = &rep.failure {
            wrong.push(format!("dinfomap rep failed: {why}"));
        }
    }
    // The in-process pass and the subprocess ran the same computation.
    // (`cluster` reports six decimals; a launch reports exact bits.)
    let tolerance = if w.launches() { 0.0 } else { 1e-6 };
    if (out.codelength - traced.codelength_bits).abs() > tolerance {
        wrong.push(format!(
            "layer pass reached {} bits, the dinfomap subprocess {}",
            out.codelength, traced.codelength_bits
        ));
    }
    if m.get("trace.residual_frac") > 0.10 {
        wrong.push(format!(
            "{:.1}% of the pass is outside every layer span",
            m.get("trace.residual_frac") * 100.0
        ));
    }
    let mut must_be = |name: &str, zero: bool| {
        if (m.get(name) == 0.0) != zero {
            wrong.push(format!("{name} = {} on {}", m.get(name), w.name()));
        }
    };
    must_be("partition.delegates", w == Workload::FlatCluster);
    must_be("distributed.ckpt_commits", w != Workload::HubCkpt);
    must_be("graph.page_misses", w != Workload::HubShardsPaged);
    for kind in ["exchange_logp", "alltoallv"] {
        must_be(&format!("transport-socket.{kind}.calls"), !w.launches());
    }
    wrong
}

/// `Ok` once the result line is printed, right or wrong.
fn run(o: &Opts) -> Result<(), String> {
    let w = o.workload;
    let sizes = if o.quick { &QUICK } else { &FULL };
    std::fs::create_dir_all(&o.work).map_err(|e| format!("{}: {e}", o.work.display()))?;
    let dinfomap =
        std::fs::canonicalize(&o.dinfomap).map_err(|e| format!("{}: {e}", o.dinfomap.display()))?;
    // Unix socket paths are short; run from the scratch directory so the
    // mesh can be named relative to it.
    std::env::set_current_dir(&o.work).map_err(|e| format!("{}: {e}", o.work.display()))?;
    let work = Path::new("layers");
    let mut m = Metrics::new();
    let mut t = Tracer::new();

    let (pass, _) = t.span("trace", "e2e_layers", |t| {
        let (inputs, _) = t.span("graph", "generate + write inputs", |_| {
            prepare_inputs(w, sizes, graph_seed(o.seed, 0), &work.join("in"))
        });
        let inputs = inputs?;
        m.set("graph.gen_s", inputs.setup.gen_s);
        m.set("graph.edgelist_write_s", inputs.setup.edgelist_write_s);
        m.set("graph.shard_write_s", inputs.setup.shard_write_s);

        let out = if w == Workload::HubShardsPaged {
            shard_pass(&mut m, t, &inputs, sizes, &dinfomap, work)
        } else {
            edge_list_pass(&mut m, t, &inputs, work)
        };

        // The same run from outside: one untraced rep, then one inside a
        // span. Nothing in the program is instrumented, so the two differ
        // by noise only; the pair is kept so that a later in-program
        // trace has its overhead measured the same way.
        let (warm, _) = t.span("cli", "dinfomap subprocess (untraced)", |_| {
            run_rep(&dinfomap, &inputs)
        });
        let (traced, _) = t.span("cli", "dinfomap subprocess", |_| {
            run_rep(&dinfomap, &inputs)
        });
        Ok::<_, String>((out, warm, traced))
    });
    let (out, warm, traced) = pass?;
    m.set("cli.launch_wall_s", traced.wall_s);
    if w.launches() {
        m.set("cli.world_wall_s", traced.world_wall_s);
        m.set("cli.launch_overhead_s", traced.wall_s - traced.world_wall_s);
    }
    let (total_s, residual) = t.total_and_residual();
    m.set("trace.total_s", total_s);
    m.set("trace.residual_frac", residual);
    m.set(
        "trace.overhead_frac",
        (traced.wall_s - warm.wall_s) / warm.wall_s,
    );

    let wrong = check(&m, w, &out, &traced, &warm);
    for why in &wrong {
        eprintln!("e2e_layers {}: WRONG {why}", w.name());
    }
    let trace_path = format!("trace-{}.json", w.name());
    std::fs::write(&trace_path, t.to_json(w).pretty()).map_err(|e| format!("{trace_path}: {e}"))?;

    println!(
        "{}",
        obj([
            ("correct", wrong.is_empty().into()),
            ("metrics", m.to_json())
        ])
        .compact()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv).and_then(|o| run(&o)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("e2e_layers: {why}");
            ExitCode::from(2)
        }
    }
}
