//! Store equivalence of the one stage-1 preparation:
//! `RankProgram::prepare_rank` over the in-memory `Graph`, over whole
//! snapshot shards and over demand-paged shards gives every rank the same
//! state, delegates and scalars — and a run prepared from shards the
//! thread world's trajectory.

use std::path::PathBuf;
use std::sync::Mutex;

use infomap_distributed::{CheckpointStore, DistributedConfig, DistributedInfomap, RankProgram};
use infomap_graph::datasets::DatasetId;
use infomap_graph::generators;
use infomap_graph::snapshot::{
    read_header, shard_path, write_shards, PageCacheConfig, SnapshotStore,
};
use infomap_mpisim::{Comm, World};

/// Assignments, codelength, and per-stage codelength trajectory.
type RunOutput = (Vec<u32>, f64, Vec<f64>);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dinfomap-shard-prep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_graph() -> infomap_graph::Graph {
    let (g, _) = generators::lfr_like(
        generators::LfrParams {
            n: 500,
            ..Default::default()
        },
        13,
    );
    g
}

/// No hubs (LFR n = 600) and hubs that become delegates (the UK-2007
/// stand-in): the graphs the construction tests in `state.rs` use.
fn construction_graphs() -> [(&'static str, infomap_graph::Graph); 2] {
    let (lfr, _) = generators::lfr_like(generators::LfrParams::with(600, 0.25), 3);
    let (hub, _) = DatasetId::Uk2007.profile().generate_scaled(0.02, 7);
    [("lfr600", lfr), ("uk2007", hub)]
}

/// Every rank's program, in rank order.
fn each_rank(
    p: usize,
    prepare: impl Fn(&mut Comm) -> RankProgram + Send + Sync,
) -> Vec<RankProgram> {
    World::new(p).run(prepare).results
}

#[test]
fn prepare_rank_is_the_same_over_every_store() {
    for (name, g) in &construction_graphs() {
        for p in [1usize, 2, 3, 4, 5, 7] {
            let cfg = DistributedConfig {
                nranks: p,
                ..Default::default()
            };
            let dir = tmp_dir(&format!("states-{name}-{p}"));
            write_shards(g, p, &dir).unwrap();
            let over_shards = |cache: Option<PageCacheConfig>| {
                each_rank(p, |comm| {
                    let path = shard_path(&dir, comm.rank());
                    let store = SnapshotStore::open(&path, cache).unwrap();
                    RankProgram::prepare_rank(cfg, &store, comm)
                })
            };
            let in_memory = each_rank(p, |comm| RankProgram::prepare_rank(cfg, g, comm));
            let whole = over_shards(None);
            let paged = over_shards(Some(PageCacheConfig {
                block_bytes: 64,
                capacity_blocks: 4,
            }));
            let _ = std::fs::remove_dir_all(&dir);

            let base = &in_memory[0];
            if *name == "uk2007" {
                assert!(!base.delegates.is_empty(), "the stand-in grew no hubs");
            }
            for (store, programs) in [("graph", &in_memory), ("whole", &whole), ("paged", &paged)] {
                assert_eq!(programs.len(), p);
                for (rank, program) in programs.iter().enumerate() {
                    let at = format!("{name} p={p} rank={rank} {store}");
                    assert_eq!(program.states_from, rank, "{at}");
                    let prepared: Vec<usize> = (0..p)
                        .filter(|&r| program.prepared_state(r).is_some())
                        .collect();
                    assert_eq!(prepared, [rank], "{at}: a rank prepares its own state");
                    assert_eq!(program.delegates, base.delegates, "{at}");
                    assert_eq!(
                        program.node_term.to_bits(),
                        base.node_term.to_bits(),
                        "{at}"
                    );
                    assert_eq!(
                        program.one_level.to_bits(),
                        base.one_level.to_bits(),
                        "{at}"
                    );
                    assert_eq!(program.original_n, g.num_vertices(), "{at}");
                    assert_eq!(
                        program.prepared_state(rank),
                        in_memory[rank].prepared_state(rank),
                        "{at}: local state drifted"
                    );
                }
            }
        }
    }
}

#[test]
fn shard_run_matches_thread_world_run() {
    let g = test_graph();
    let p = 4usize;
    let cfg = DistributedConfig {
        nranks: p,
        ..Default::default()
    };
    let thread_world = DistributedInfomap::new(cfg).run(&g);

    let dir = tmp_dir("run");
    write_shards(&g, p, &dir).unwrap();
    let ckpt = CheckpointStore::new(p);
    let result: Mutex<Option<RunOutput>> = Mutex::new(None);
    World::new(p).run(|comm| {
        let path = shard_path(&dir, comm.rank());
        let header = read_header(&path).unwrap();
        let store = SnapshotStore::open(
            &path,
            Some(PageCacheConfig {
                block_bytes: 256,
                capacity_blocks: 8,
            }),
        )
        .unwrap();
        let program = RankProgram::prepare_shard(cfg, &header, &store, comm);
        if let Some((modules, trace, codelength)) = program.run_rank(comm, &ckpt) {
            let series: Vec<f64> = trace.iter().flat_map(|t| t.mdl_series.clone()).collect();
            *result.lock().unwrap() = Some((modules, codelength, series));
        }
    });

    let (modules, codelength, series) = result.into_inner().unwrap().expect("rank 0 reports");
    assert_eq!(modules, thread_world.modules);
    assert_eq!(codelength.to_bits(), thread_world.codelength.to_bits());
    let thread_series: Vec<u64> = thread_world
        .mdl_series()
        .iter()
        .map(|m| m.to_bits())
        .collect();
    let shard_series: Vec<u64> = series.iter().map(|m| m.to_bits()).collect();
    assert_eq!(shard_series, thread_series, "MDL series diverged");
    let _ = std::fs::remove_dir_all(&dir);
}
