//! Deterministic chaos tests: seeded rank crashes against the
//! checkpoint/recovery driver. The headline property is the paper-quality
//! guarantee under failure — a crashed rank is retried from the start of
//! the last checkpointed stage-2 level (or from scratch, when it crashed
//! in stage 1) and, because every stage reseeds its RNG and every level
//! state is rebuilt by the merge, the recovered run is *bit-identical* to
//! the fault-free one on the same seed.

use infomap_distributed::{
    rank0_result, recover, DistributedConfig, DistributedInfomap, FileCheckpointStore, RankProgram,
    Recovered, RecoveryConfig,
};
use infomap_mpisim::{FaultPlan, World};

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

/// Three ranks, checkpointing and retrying as given.
fn recovery_cfg(checkpoint_every: usize, max_retries: usize) -> DistributedConfig {
    DistributedConfig {
        nranks: 3,
        recovery: RecoveryConfig {
            checkpoint_every,
            max_retries,
        },
        ..Default::default()
    }
}

// Crash events are calibrated against the comm-event stream on this
// graph: the whole run spans ~310 events on rank 1, stage 1 and the first
// merge end, and level 1 is committed, between events 180 and 200.

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
    let ckpt = DistributedInfomap::new(recovery_cfg(2, 3)).run(&g);

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

/// Kill one rank mid-stage-1: stage 1 is never checkpointed, so the
/// driver re-prepares and re-runs from scratch — and must still land on
/// the exact fault-free answer.
#[test]
fn crash_mid_stage_one_recovers_bit_identically() {
    let g = lfr();
    let clean = DistributedInfomap::new(recovery_cfg(2, 3)).run(&g);
    // Comm event 80 on rank 1 lands mid-stage-1, before any checkpoint.
    let plan = FaultPlan::new(7).crash(1, 80);
    let out = DistributedInfomap::new(recovery_cfg(2, 3))
        .run_with_plan(&g, Some(plan))
        .expect("the retry loop must absorb a single crash");

    assert_eq!(out.recovery.attempts, 2);
    assert_eq!(out.recovery.restores, 0);
    assert!(!out.recovery.degraded);
    assert_eq!(out.recovery.failures.len(), 1);
    assert!(out.recovery.failures[0].contains("fault injected"));
    assert_eq!(out.rank_stats[1].faults.crashes, 1);

    // Bit-identical replay — far stronger than the 1%-MDL acceptance bar.
    assert_eq!(out.modules, clean.modules);
    assert_eq!(out.codelength.to_bits(), clean.codelength.to_bits());
    assert_eq!(out.trace, clean.trace);
}

/// A crash late in the run restores a stage-2 checkpoint and resumes the
/// outer merge loop from the recorded level.
#[test]
fn crash_during_stage_two_resumes_the_outer_loop() {
    let g = lfr();
    let clean = DistributedInfomap::new(recovery_cfg(2, 3)).run(&g);
    // Comm event 280 on rank 1 lands in the stage-2 levels.
    let plan = FaultPlan::new(7).crash(1, 280);
    let out = DistributedInfomap::new(recovery_cfg(2, 3))
        .run_with_plan(&g, Some(plan))
        .expect("stage-2 crashes are recoverable too");

    assert_eq!(out.recovery.attempts, 2);
    assert_eq!(out.recovery.restores, 1);
    // The restoring attempt meters a Recovery phase on every rank.
    for rs in &out.rank_stats {
        assert!(
            rs.phases.contains_key("Recovery"),
            "rank {} has no Recovery",
            rs.rank
        );
    }
    assert_eq!(out.modules, clean.modules);
    assert_eq!(out.codelength.to_bits(), clean.codelength.to_bits());
    assert_eq!(out.trace, clean.trace);
}

#[test]
fn graceful_degradation_returns_the_best_checkpoint() {
    let g = lfr();
    let cfg = recovery_cfg(2, 0);
    // A repeating crash past the first merge and the level-1 commit, with
    // no retry left: the run can never finish. (A restored attempt's
    // event stream is shorter than event 200, so a retry would.)
    let plan = FaultPlan::new(7).crash_repeating(1, 200);
    let out = DistributedInfomap::new(cfg)
        .run_with_plan(&g, Some(plan))
        .expect("degradation must turn exhaustion into a result");

    assert!(out.recovery.degraded);
    assert_eq!(out.recovery.attempts, 1);
    assert_eq!(out.recovery.failures.len(), 1);
    assert!(out.recovery.checkpoints_committed > 0);
    // The degraded clustering is the checkpointed one: stage 1's, already
    // better than the one-module partition, and fully populated.
    assert_eq!(out.modules.len(), g.num_vertices());
    assert!(out.codelength.is_finite());
    assert!(out.codelength <= out.one_level_codelength);
    assert!(out.num_modules() > 1);
}

#[test]
fn retry_exhaustion_surfaces_every_failure() {
    let g = lfr();
    let cfg = recovery_cfg(2, 1);
    // Event 100 is inside stage 1, before the level-1 commit: no level is
    // agreed, so exhaustion is the error, not a degraded result.
    let plan = FaultPlan::new(7).crash_repeating(1, 100);
    let err = DistributedInfomap::new(cfg)
        .run_with_plan(&g, Some(plan))
        .expect_err("with no agreed level, exhaustion is an error");
    assert!(err.contains("failed after 2 attempt(s)"), "got `{err}`");
    assert!(err.contains("fault injected"), "got `{err}`");
}

/// Dropped messages starve a receive, fail the rank, and the retries ride
/// it out — bit-identically. The fate coins are seeded, so seed 9
/// deterministically drops a message on the first attempt and lets a
/// retry through.
#[test]
fn dropped_messages_recover_bit_identically() {
    let g = lfr();
    let cfg = recovery_cfg(2, 6);
    let clean = DistributedInfomap::new(cfg).run(&g);
    let plan = FaultPlan::new(9)
        .drop_messages(None, None, 0.004)
        .hang_timeout_ms(250);
    let out = DistributedInfomap::new(cfg)
        .run_with_plan(&g, Some(plan))
        .expect("retries must ride out the dropped messages");
    let drops: u64 = out.rank_stats.iter().map(|r| r.faults.msgs_dropped).sum();
    assert!(drops >= 1, "the plan injected no drop at all");
    assert!(out.recovery.attempts >= 2, "no retry happened");
    assert_eq!(out.modules, clean.modules);
    assert_eq!(out.codelength.to_bits(), clean.codelength.to_bits());
}

/// A straggler inflates metered compute but injects no failure: the
/// result is bit-identical with zero recovery activity, and the overhead
/// is attributed in the fault counters.
#[test]
fn stragglers_slow_but_never_diverge() {
    let g = lfr();
    let clean = DistributedInfomap::new(recovery_cfg(2, 3)).run(&g);
    let plan = FaultPlan::new(3).straggler(1, 4);
    let out = DistributedInfomap::new(recovery_cfg(2, 3))
        .run_with_plan(&g, Some(plan))
        .expect("a slow rank is not a failed rank");
    assert_eq!(out.recovery.restores, 0);
    assert_eq!(out.modules, clean.modules);
    assert_eq!(out.codelength.to_bits(), clean.codelength.to_bits());
    assert!(out.rank_stats[1].faults.straggler_units > 0);
    assert_eq!(out.rank_stats[0].faults.straggler_units, 0);
}

/// A crash before the first checkpoint leaves nothing to restore, and the
/// failed attempt's ranks already took their prepared states: the retry
/// must run from a freshly prepared program, and land on the clean answer.
#[test]
fn crash_before_any_checkpoint_reruns_from_a_fresh_prepare() {
    let g = lfr();
    let cfg = recovery_cfg(0, 1);
    let clean = DistributedInfomap::new(cfg).run(&g);
    // Comm event 5 on rank 1: inside the Init sync of stage 1.
    let plan = FaultPlan::new(7).crash(1, 5);
    let out = DistributedInfomap::new(cfg)
        .run_with_plan(&g, Some(plan))
        .expect("a fresh prepare absorbs a crash with no checkpoint");
    assert_eq!(out.recovery.attempts, 2);
    assert_eq!(out.recovery.restores, 0);
    assert_eq!(out.recovery.checkpoints_committed, 0);
    assert_eq!(out.rank_stats[1].faults.crashes, 1);
    assert_eq!(out.modules, clean.modules);
    assert_eq!(out.codelength.to_bits(), clean.codelength.to_bits());
    assert_eq!(out.trace, clean.trace);
}

/// The launcher's durable path in miniature: the one recovery loop
/// `run_with_plan` and the launcher run, with records flowing through the
/// on-disk [`FileCheckpointStore`] — binary codec, checked framing, two
/// generations. A stage-2 crash must restore a level start and still be
/// bit-identical; a divergence here isolates the durable codec path from
/// the process-management machinery around it.
#[test]
fn crash_recovers_bit_identically_through_the_file_store() {
    let g = lfr();
    let cfg = recovery_cfg(2, 3);
    let clean = DistributedInfomap::new(cfg).run(&g);

    let dir = std::env::temp_dir().join(format!("dinf-filestore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = cfg.nranks;
    let program = RankProgram::prepare(cfg, &g);
    let store = FileCheckpointStore::open(&dir, p, cfg.seed).expect("open store");
    // Comm event 240 on rank 1 lands in the stage-2 levels.
    let world = World::new(p).fault_plan(FaultPlan::new(7).crash(1, 240));
    let attempt = |_| {
        let outcome = world.run_with_outcomes(|comm| program.run_rank(comm, &store));
        rank0_result(outcome, true)
    };
    let recovered = recover(&store, p, 2, attempt, || unreachable!("the run completes"));
    let _ = std::fs::remove_dir_all(&dir);

    let Ok(Recovered::Completed((modules, _, codelength), report)) = recovered else {
        panic!("file-store recovery did not complete: {recovered:?}")
    };
    assert_eq!(report.attempts, 2, "the crash must cost exactly one retry");
    assert_eq!(report.restores, 1, "the retry must restore a level");
    assert_eq!(modules, clean.modules, "file-store recovery diverged");
    assert_eq!(codelength.to_bits(), clean.codelength.to_bits());
}
