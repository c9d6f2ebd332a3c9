//! Shard-mode preparation equivalence: rebuilding a rank's stage-1 state
//! collectively from per-rank snapshot shards must be bit-identical to the
//! monolithic whole-graph preparation — states, delegates, scalars, and
//! the full clustering trajectory downstream of them.

use std::path::PathBuf;
use std::sync::Mutex;

use infomap_distributed::{CheckpointStore, DistributedConfig, DistributedInfomap, RankProgram};
use infomap_graph::datasets::DatasetId;
use infomap_graph::generators;
use infomap_graph::snapshot::{
    read_header, shard_path, write_shards, PageCacheConfig, SnapshotStore,
};
use infomap_mpisim::World;

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

#[test]
fn shard_prepare_matches_monolithic_prepare() {
    for (name, g) in &construction_graphs() {
        shard_states_equal_monolithic_states(name, g);
    }
}

fn shard_states_equal_monolithic_states(name: &str, g: &infomap_graph::Graph) {
    for p in [1usize, 2, 3, 4, 5, 7] {
        let cfg = DistributedConfig {
            nranks: p,
            ..Default::default()
        };
        let mono = RankProgram::prepare(cfg, g);
        if name == "uk2007" {
            assert!(!mono.delegates.is_empty(), "the stand-in grew no hubs");
        }
        let dir = tmp_dir(&format!("states-{name}-{p}"));
        write_shards(g, p, &dir).unwrap();

        let collected: Mutex<Vec<RankProgram>> = Mutex::new(Vec::new());
        World::new(p).run(|comm| {
            let path = shard_path(&dir, comm.rank());
            let header = read_header(&path).unwrap();
            // Eager on even ranks, paged on odd: the store must not matter.
            let paged = (comm.rank() % 2 == 1).then_some(PageCacheConfig {
                block_bytes: 64,
                capacity_blocks: 4,
            });
            let store = SnapshotStore::open(&path, paged).unwrap();
            let program = RankProgram::prepare_shard(cfg, &header, &store, comm);
            collected.lock().unwrap().push(program);
        });

        let mut programs = collected.into_inner().unwrap();
        programs.sort_by_key(|pr| pr.states_from);
        assert_eq!(programs.len(), p);
        for (rank, shard) in programs.iter().enumerate() {
            assert_eq!(shard.states_from, rank);
            assert_eq!(shard.states.len(), 1);
            assert_eq!(shard.delegates, mono.delegates, "{name} p={p} rank={rank}");
            assert_eq!(
                shard.node_term.to_bits(),
                mono.node_term.to_bits(),
                "{name} p={p} rank={rank} node term drifted"
            );
            assert_eq!(shard.one_level.to_bits(), mono.one_level.to_bits());
            assert_eq!(shard.original_n, mono.original_n);
            assert_eq!(
                shard.states[0], mono.states[rank],
                "{name} p={p} rank={rank} local state drifted"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn shard_run_matches_monolithic_run() {
    let g = test_graph();
    let p = 4usize;
    let cfg = DistributedConfig {
        nranks: p,
        ..Default::default()
    };
    let mono = DistributedInfomap::new(cfg).run(&g);

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
    assert_eq!(modules, mono.modules);
    assert_eq!(codelength.to_bits(), mono.codelength.to_bits());
    let mono_series: Vec<u64> = mono.mdl_series().iter().map(|m| m.to_bits()).collect();
    let shard_series: Vec<u64> = series.iter().map(|m| m.to_bits()).collect();
    assert_eq!(shard_series, mono_series, "MDL series diverged");
    let _ = std::fs::remove_dir_all(&dir);
}
