//! Checkpoint volume, measured on the UK-2007 stand-in: a checkpointed run
//! commits once per rank at the start of every stage-2 level it reaches
//! and nowhere inside a stage, and the bytes the cost model is fed
//! (`checkpoint_bytes`) are exactly the bytes the file store wrote.

use std::sync::Mutex;

use infomap_distributed::checkpoint::Carry;
use infomap_distributed::{
    DistributedConfig, FileCheckpointStore, RankProgram, RankSnapshot, RecoveryConfig,
    SnapshotStore,
};
use infomap_graph::datasets::DatasetId;
use infomap_mpisim::World;

/// One file store per rank over a shared directory — the shape of a real
/// launch, where every process counts its own writes — with the (rank,
/// level) of every commit logged.
struct Metered {
    stores: Vec<FileCheckpointStore>,
    log: Mutex<Vec<(usize, u32)>>,
}

impl SnapshotStore for Metered {
    fn commit(&self, rank: usize, snap: &RankSnapshot) -> u64 {
        self.log.lock().unwrap().push((rank, snap.level));
        self.stores[rank].commit(rank, snap)
    }

    fn agreed_pos(&self) -> Option<u32> {
        self.stores[0].agreed_pos()
    }

    fn restore_agreed(&self, rank: usize) -> Option<RankSnapshot> {
        self.stores[rank].restore_agreed(rank)
    }

    fn agreed_carries(&self) -> Option<Vec<Carry>> {
        self.stores[0].agreed_carries()
    }

    fn checkpoints_committed(&self) -> u64 {
        self.stores.iter().map(|s| s.checkpoints_committed()).sum()
    }
}

#[test]
fn a_run_commits_once_per_rank_and_level_and_meters_what_it_writes() {
    let (g, _) = DatasetId::Uk2007.profile().generate_scaled(0.05, 77);
    let p = 4;
    let cfg = DistributedConfig {
        nranks: p,
        seed: 7,
        recovery: RecoveryConfig {
            checkpoint_every: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let dir = std::env::temp_dir().join(format!("dinf-ckpt-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let metered = Metered {
        stores: (0..p)
            .map(|_| FileCheckpointStore::open(&dir, p, cfg.seed).expect("open store"))
            .collect(),
        log: Mutex::new(Vec::new()),
    };
    let program = RankProgram::prepare(cfg, &g);
    assert!(!program.delegates.is_empty(), "the stand-in grew no hubs");
    let report = World::new(p).run(|comm| program.run_rank(comm, &metered));
    let (_, trace, _) = report.results[0].as_ref().expect("rank 0 reports");
    let log = metered.log.into_inner().unwrap();
    assert!(metered.stores.iter().all(|s| s.commit_failures() == 0));

    // The stage-2 levels the run reached, in order from 1.
    let levels: Vec<u32> = (trace.iter())
        .filter(|t| t.stage == 2)
        .map(|t| t.level as u32)
        .collect();
    assert!(levels.len() >= 2, "{levels:?}");
    assert!(levels.iter().copied().eq(1..=levels.len() as u32));
    for (rank, stats) in report.stats.iter().enumerate() {
        let mine: Vec<u32> = (log.iter())
            .filter(|&&(r, _)| r == rank)
            .map(|&(_, level)| level)
            .collect();
        assert_eq!(mine, levels, "rank {rank}: one commit per level reached");
        // Only the level-start phase writes: stage 1 and the rounds of
        // stage 2 commit nothing.
        for (name, phase) in &stats.phases {
            assert!(
                phase.checkpoint_bytes == 0 || name == "s2/Checkpoint",
                "rank {rank} metered checkpoint bytes in {name}"
            );
        }
        assert_eq!(stats.phase("s2/Checkpoint").entries, levels.len() as u64);
        assert_eq!(
            stats.total.checkpoint_bytes,
            metered.stores[rank].bytes_written(),
            "rank {rank}: metered and written bytes differ"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
