//! Model ↔ measured for checkpoints: the bytes the cost model is fed per
//! commit ([`SnapshotView::approx_wire_bytes`]) against the bytes the
//! file store actually writes, on the UK-2007 stand-in.
//!
//! This is also the byte budget of the base + delta layout: a regression
//! to writing a stage's topology every round fails here, without a timer.

use std::collections::BTreeSet;
use std::sync::Mutex;

use infomap_distributed::{
    CheckpointBytesWritten, DistributedConfig, FileCheckpointStore, RankProgram, RankSnapshot,
    RecoveryConfig, SnapshotPos, SnapshotStore, SnapshotView,
};
use infomap_graph::datasets::DatasetId;
use infomap_mpisim::World;

/// One rank-commit: what the model was told and what reached the disk.
struct Commit {
    rank: usize,
    pos: SnapshotPos,
    modeled: u64,
    written: CheckpointBytesWritten,
}

/// One file store per rank over a shared directory — the shape of a real
/// launch, where every process counts its own writes — with every commit
/// logged.
struct Metered {
    stores: Vec<FileCheckpointStore>,
    log: Mutex<Vec<Commit>>,
}

impl SnapshotStore for Metered {
    fn commit_view(&self, rank: usize, view: &SnapshotView<'_>) {
        let store = &self.stores[rank];
        let before = store.bytes_written();
        store.commit_view(rank, view);
        let after = store.bytes_written();
        self.log.lock().unwrap().push(Commit {
            rank,
            pos: view.pos,
            modeled: view.approx_wire_bytes(),
            written: CheckpointBytesWritten {
                base_files: after.base_files - before.base_files,
                base_bytes: after.base_bytes - before.base_bytes,
                delta_bytes: after.delta_bytes - before.delta_bytes,
            },
        });
    }

    fn agreed_pos(&self) -> Option<SnapshotPos> {
        self.stores[0].agreed_pos()
    }

    fn restore_agreed(&self, rank: usize) -> Option<RankSnapshot> {
        self.stores[rank].restore_agreed(rank)
    }

    fn checkpoints_committed(&self) -> u64 {
        self.stores.iter().map(|s| s.checkpoints_committed()).sum()
    }
}

#[test]
fn deltas_track_the_modeled_bytes_and_bases_are_written_once() {
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
    World::new(p).run(|comm| program.run_rank(comm, &metered));
    let log = metered.log.into_inner().unwrap();
    let committed: u64 = metered
        .stores
        .iter()
        .map(|s| s.checkpoints_committed())
        .sum();
    assert_eq!(log.len() as u64, committed);
    assert!(metered.stores.iter().all(|s| s.commit_failures() == 0));

    // Bases: one per (rank, stage, level) that reached a checkpoint,
    // written with the first commit there and never again.
    let mut opened = BTreeSet::new();
    for c in &log {
        let first = opened.insert((c.rank, c.pos.stage, c.pos.level));
        assert_eq!(c.written.base_files, u64::from(first), "{:?}", c.pos);
        assert_eq!(c.written.base_bytes > 0, first, "{:?}", c.pos);
        assert!(c.written.delta_bytes > 0);
    }
    for (rank, store) in metered.stores.iter().enumerate() {
        let levels = opened.iter().filter(|&&(r, ..)| r == rank).count();
        assert_eq!(store.bytes_written().base_files, levels as u64);
    }
    assert!(opened.iter().any(|&(_, stage, _)| stage == 2));

    // Stage-1 deltas from round 6 on (the singleton module tables have
    // thinned out by then): a fraction of the topology, and within 5 % of
    // the model, which prices every record the delta writes — the owner
    // table and the active-set marks included (measured: 0.4–0.9 % above
    // it in every round; what it leaves out is the module ids interned
    // since the base and the section framing).
    let settled: Vec<&Commit> = log
        .iter()
        .filter(|c| c.pos.stage == 1 && c.pos.round >= 6)
        .collect();
    assert!(settled.len() >= p, "stage 1 ended before round 6");
    for c in &settled {
        let base = log
            .iter()
            .find(|b| b.rank == c.rank && b.pos.stage == 1 && b.written.base_bytes > 0)
            .expect("the stage's first commit wrote its base");
        assert!(
            3 * c.written.delta_bytes < base.written.base_bytes,
            "rank {} round {}: a {}-byte delta beside a {}-byte base",
            c.rank,
            c.pos.round,
            c.written.delta_bytes,
            base.written.base_bytes
        );
    }
    for c in settled {
        let (measured, modeled) = (c.written.delta_bytes, c.modeled);
        assert!(
            20 * measured.abs_diff(modeled) <= modeled,
            "rank {} round {}: wrote {measured} bytes, modeled {modeled}",
            c.rank,
            c.pos.round
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
