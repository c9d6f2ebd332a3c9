//! Deterministic chaos tests: seeded rank crashes against the
//! checkpoint/recovery driver. The headline property is the paper-quality
//! guarantee under failure — a crashed rank is retried from the last
//! round-boundary checkpoint and, because the stage cursor carries the
//! mid-stream RNG, the recovered run is *bit-identical* to the fault-free
//! one on the same seed.

use infomap_distributed::{
    CheckpointStore, DistributedConfig, DistributedInfomap, FileCheckpointStore, RankProgram,
    RecoveryConfig, RecoveryReport, SnapshotStore,
};
use infomap_mpisim::{Comm, FaultPlan, RankStats, World};

use infomap_graph::generators::{self, LfrParams};

fn lfr() -> infomap_graph::Graph {
    generators::lfr_like(
        LfrParams {
            n: 400,
            ..Default::default()
        },
        11,
    )
    .0
}

fn chaos_cfg() -> DistributedConfig {
    DistributedConfig {
        nranks: 3,
        recovery: RecoveryConfig {
            checkpoint_every: 2,
            max_retries: 3,
            degrade_gracefully: false,
        },
        ..Default::default()
    }
}

// Crash events are calibrated against the comm-event stream on this
// graph: the whole run spans ~300 events on rank 1, and stage 1 ends near
// event 140.

#[test]
fn fault_free_run_reports_no_recovery_activity() {
    let g = lfr();
    let out = DistributedInfomap::new(DistributedConfig {
        nranks: 3,
        ..Default::default()
    })
    .run(&g);
    assert_eq!(out.recovery.attempts, 1);
    assert_eq!(out.recovery.restores, 0);
    assert_eq!(out.recovery.checkpoints_committed, 0);
    assert!(!out.recovery.degraded);
    assert!(out.recovery.failures.is_empty());
    // With checkpoint_every = 0 (the default), the run must not even
    // meter a checkpoint or recovery phase.
    for rs in &out.rank_stats {
        assert!(
            rs.phases
                .keys()
                .all(|k| !k.contains("Checkpoint") && !k.contains("Recovery")),
            "rank {} metered {:?}",
            rs.rank,
            rs.phases.keys().collect::<Vec<_>>()
        );
        assert!(!rs.faults.any());
        assert_eq!(rs.total.checkpoint_bytes, 0);
    }
}

#[test]
fn checkpointing_without_faults_is_invisible_to_the_result() {
    let g = lfr();
    let plain = DistributedInfomap::new(DistributedConfig {
        nranks: 3,
        ..Default::default()
    })
    .run(&g);
    let ckpt = DistributedInfomap::new(chaos_cfg()).run(&g);

    // The checkpoint collective sits outside the algorithm's RNG and
    // message streams, so the clustering is bit-identical.
    assert_eq!(plain.modules, ckpt.modules);
    assert_eq!(plain.codelength.to_bits(), ckpt.codelength.to_bits());
    assert!(ckpt.recovery.checkpoints_committed > 0);
    assert_eq!(ckpt.recovery.restores, 0);
    // Checkpoint traffic is metered so the cost model can price it.
    let ckpt_bytes: u64 = ckpt
        .rank_stats
        .iter()
        .map(|r| r.total.checkpoint_bytes)
        .sum();
    assert!(ckpt_bytes > 0);
}

/// The acceptance scenario: kill one rank mid-stage-1, let the driver
/// restore the last checkpoint, and demand the exact fault-free answer.
#[test]
fn crash_mid_stage_one_recovers_bit_identically() {
    let g = lfr();
    let clean = DistributedInfomap::new(chaos_cfg()).run(&g);
    // Comm event 80 on rank 1 lands mid-stage-1, well past the first
    // round-2 checkpoint.
    let plan = FaultPlan::new(7).crash(1, 80);
    let out = DistributedInfomap::new(chaos_cfg())
        .run_with_plan(&g, Some(plan))
        .expect("the retry loop must absorb a single crash");

    assert_eq!(out.recovery.attempts, 2);
    assert_eq!(out.recovery.restores, 1);
    assert!(!out.recovery.degraded);
    assert_eq!(out.recovery.failures.len(), 1);
    assert!(out.recovery.failures[0].contains("fault injected"));
    assert_eq!(out.rank_stats[1].faults.crashes, 1);
    // The restoring attempt meters a Recovery phase on every rank.
    for rs in &out.rank_stats {
        assert!(
            rs.phases.contains_key("Recovery"),
            "rank {} has no Recovery",
            rs.rank
        );
    }

    // Bit-identical replay — far stronger than the 1%-MDL acceptance bar.
    assert_eq!(out.modules, clean.modules);
    assert_eq!(out.codelength.to_bits(), clean.codelength.to_bits());
    let rel = (out.codelength - clean.codelength).abs() / clean.codelength;
    assert!(rel < 0.01);
}

/// A crash late in the run restores a stage-2 checkpoint and resumes the
/// outer merge loop from the recorded level.
#[test]
fn crash_during_stage_two_resumes_the_outer_loop() {
    let g = lfr();
    let clean = DistributedInfomap::new(chaos_cfg()).run(&g);
    // Comm event 280 on rank 1 lands in the stage-2 levels (the whole
    // run spans ~300 events on this graph).
    let plan = FaultPlan::new(7).crash(1, 280);
    let out = DistributedInfomap::new(chaos_cfg())
        .run_with_plan(&g, Some(plan))
        .expect("stage-2 crashes are recoverable too");

    assert_eq!(out.recovery.attempts, 2);
    assert_eq!(out.recovery.restores, 1);
    assert_eq!(out.modules, clean.modules);
    assert_eq!(out.codelength.to_bits(), clean.codelength.to_bits());
    assert_eq!(out.trace, clean.trace);
}

#[test]
fn graceful_degradation_returns_the_best_checkpoint() {
    let g = lfr();
    let cfg = DistributedConfig {
        recovery: RecoveryConfig {
            checkpoint_every: 2,
            max_retries: 1,
            degrade_gracefully: true,
        },
        ..chaos_cfg()
    };
    // A repeating crash fires on every attempt: the run can never finish.
    // (Event 100 re-fires even on the restored attempt, whose remaining
    // event stream is shorter than the full run's.)
    let plan = FaultPlan::new(7).crash_repeating(1, 100);
    let out = DistributedInfomap::new(cfg)
        .run_with_plan(&g, Some(plan))
        .expect("degradation must turn exhaustion into a result");

    assert!(out.recovery.degraded);
    assert_eq!(out.recovery.attempts, 2);
    assert_eq!(out.recovery.failures.len(), 2);
    assert!(out.recovery.checkpoints_committed > 0);
    // The degraded clustering is the checkpointed one: already better
    // than the one-module partition by the crash round, and fully
    // populated.
    assert_eq!(out.modules.len(), g.num_vertices());
    assert!(out.codelength.is_finite());
    assert!(out.codelength <= out.one_level_codelength);
    assert!(out.num_modules() > 1);
}

#[test]
fn retry_exhaustion_surfaces_every_failure() {
    let g = lfr();
    let cfg = DistributedConfig {
        recovery: RecoveryConfig {
            checkpoint_every: 2,
            max_retries: 1,
            degrade_gracefully: false,
        },
        ..chaos_cfg()
    };
    let plan = FaultPlan::new(7).crash_repeating(1, 100);
    let err = DistributedInfomap::new(cfg)
        .run_with_plan(&g, Some(plan))
        .expect_err("without degradation, exhaustion is an error");
    assert!(err.contains("failed after 2 attempts"), "got `{err}`");
    assert!(err.contains("fault injected"), "got `{err}`");
}

/// Dropped messages starve a receive, fail the rank, and recover through
/// the checkpoint — bit-identically. The fate coins are seeded, so seed 9
/// deterministically drops a message on the first attempt (forcing a
/// restore) and lets a retry through.
#[test]
fn dropped_messages_recover_bit_identically() {
    let g = lfr();
    let cfg = DistributedConfig {
        recovery: RecoveryConfig {
            checkpoint_every: 2,
            max_retries: 6,
            degrade_gracefully: false,
        },
        ..chaos_cfg()
    };
    let clean = DistributedInfomap::new(cfg).run(&g);
    let plan = FaultPlan::new(9)
        .drop_messages(None, None, 0.004)
        .hang_timeout_ms(250);
    let out = DistributedInfomap::new(cfg)
        .run_with_plan(&g, Some(plan))
        .expect("retries must ride out the dropped messages");
    let drops: u64 = out.rank_stats.iter().map(|r| r.faults.msgs_dropped).sum();
    assert!(drops >= 1, "the plan injected no drop at all");
    assert!(out.recovery.restores >= 1, "no restore happened");
    assert_eq!(out.modules, clean.modules);
    assert_eq!(out.codelength.to_bits(), clean.codelength.to_bits());
}

/// A straggler inflates metered compute but injects no failure: the
/// result is bit-identical with zero recovery activity, and the overhead
/// is attributed in the fault counters.
#[test]
fn stragglers_slow_but_never_diverge() {
    let g = lfr();
    let clean = DistributedInfomap::new(chaos_cfg()).run(&g);
    let plan = FaultPlan::new(3).straggler(1, 4);
    let out = DistributedInfomap::new(chaos_cfg())
        .run_with_plan(&g, Some(plan))
        .expect("a slow rank is not a failed rank");
    assert_eq!(out.recovery.restores, 0);
    assert_eq!(out.modules, clean.modules);
    assert_eq!(out.codelength.to_bits(), clean.codelength.to_bits());
    assert!(out.rank_stats[1].faults.straggler_units > 0);
    assert_eq!(out.rank_stats[0].faults.straggler_units, 0);
}

/// The launcher's durable path in miniature: the same retry loop as
/// `run_with_plan`, but snapshots flow through the on-disk
/// [`FileCheckpointStore`] — binary codec, checked framing, two
/// generations — instead of live in-memory clones. Recovery must still
/// be bit-identical; a divergence here isolates the durable codec /
/// RNG-replay path from the process-management machinery around it.
#[test]
fn crash_recovers_bit_identically_through_the_file_store() {
    let g = lfr();
    let cfg = chaos_cfg();
    let clean = DistributedInfomap::new(cfg).run(&g);

    let dir = std::env::temp_dir().join(format!("dinf-filestore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = cfg.nranks;
    let program = RankProgram::prepare(cfg, &g);
    let store = FileCheckpointStore::open(&dir, p, cfg.seed).expect("open store");
    let world = World::new(p).fault_plan(FaultPlan::new(7).crash(1, 80));
    let attempt = |comm: &mut Comm| program.run_rank(comm, &store);

    let mut attempts = 0;
    let out = loop {
        attempts += 1;
        assert!(attempts <= 3, "retry loop failed to converge");
        let outcome = world.run_with_outcomes(attempt);
        if !outcome.all_completed() {
            continue;
        }
        let mut results = outcome.into_results().expect("all ranks completed");
        let (modules, trace, codelength) = results.remove(0).expect("rank 0 result");
        let stats: Vec<RankStats> = (0..p)
            .map(|rank| RankStats {
                rank,
                ..Default::default()
            })
            .collect();
        break program.assemble_output(
            modules,
            trace,
            codelength,
            stats,
            RecoveryReport::default(),
        );
    };
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(attempts, 2, "the crash must cost exactly one retry");
    assert_eq!(out.modules, clean.modules, "file-store recovery diverged");
    assert_eq!(out.codelength.to_bits(), clean.codelength.to_bits());
}

/// The sweep visits only the active set, and the marks that define it
/// travel in the checkpoint: a crash late in stage 1 — where most vertices
/// have settled and are skipped — must resume skipping exactly the same
/// ones, through the in-memory store and through the file codec alike.
#[test]
fn crash_with_a_partial_active_set_recovers_bit_identically_through_both_stores() {
    let g = lfr();
    let cfg = chaos_cfg();
    let p = cfg.nranks;
    let clean = DistributedInfomap::new(cfg).run(&g);
    let program = RankProgram::prepare(cfg, &g);

    let dir = std::env::temp_dir().join(format!("dinf-active-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let memory = CheckpointStore::new(p);
    let file = FileCheckpointStore::open(&dir, p, cfg.seed).expect("open store");
    let stores: [&dyn SnapshotStore; 2] = [&memory, &file];
    for store in stores {
        // Comm event 130 on rank 1 lands in stage 1 past its round-8
        // checkpoint (stage 1 spans ~190 events on this graph).
        let world = World::new(p).fault_plan(FaultPlan::new(7).crash(1, 130));
        let attempt = |comm: &mut Comm| program.run_rank(comm, store);
        assert!(!world.run_with_outcomes(attempt).all_completed());

        // What the retry restores: a stage-1 boundary at round >= 8 whose
        // active set is a strict, non-empty subset of the movable vertices
        // on every rank.
        for rank in 0..p {
            let snap = store.restore_agreed(rank).expect("a committed boundary");
            assert_eq!(snap.pos.stage, 1);
            assert!(snap.pos.round >= 8, "restored {:?}", snap.pos);
            let active = snap
                .st
                .movable
                .iter()
                .filter(|&&li| snap.st.is_active(li))
                .count();
            assert!(
                0 < active && active < snap.st.movable.len(),
                "rank {rank}: {active} of {} active",
                snap.st.movable.len()
            );
        }

        let outcome = world.run_with_outcomes(attempt);
        assert!(outcome.all_completed(), "the one-shot crash fired twice");
        let (modules, trace, codelength) = outcome
            .into_results()
            .expect("all ranks completed")
            .remove(0)
            .expect("rank 0 result");
        assert_eq!(modules, clean.modules);
        assert_eq!(codelength.to_bits(), clean.codelength.to_bits());
        assert_eq!(trace, clean.trace);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
