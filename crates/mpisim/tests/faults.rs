//! Fault-injection behaviour of the simulated fabric: seeded crashes,
//! message drop/duplicate/delay, stragglers, and the receive-starvation
//! timeout that turns dropped messages into recoverable rank failures.

use std::sync::Mutex;

use infomap_mpisim::{FaultPlan, RankOutcome, ReduceOp, World};

#[test]
fn crash_fails_the_rank_and_aborts_blocked_survivors() {
    let world = World::new(3).fault_plan(FaultPlan::new(1).crash(1, 5));
    let out = world.run_with_outcomes(|c| {
        let mut acc = 0;
        for _ in 0..20 {
            acc += c.allreduce_u64(1, ReduceOp::Sum);
        }
        acc
    });
    assert!(!out.all_completed());
    let failures = out.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, 1);
    assert!(
        failures[0].1.contains("fault injected"),
        "got `{}`",
        failures[0].1
    );
    assert!(failures[0].1.contains("comm event 5"));
    assert_eq!(out.stats[1].faults.crashes, 1);
    for rank in [0, 2] {
        assert!(matches!(out.outcomes[rank], RankOutcome::Aborted));
        assert_eq!(out.stats[rank].faults.crashes, 0);
    }
}

#[test]
fn one_shot_crash_does_not_refire_on_the_same_world() {
    let world = World::new(2).fault_plan(FaultPlan::new(1).crash(0, 3));
    let first = world.run_with_outcomes(|c| {
        let mut acc = 0;
        for _ in 0..10 {
            acc = c.allreduce_u64(1, ReduceOp::Sum);
        }
        acc
    });
    assert!(!first.all_completed(), "the crash must fire on attempt 1");
    // Same world object => the fired flag persists; a retry succeeds.
    let second = world.run_with_outcomes(|c| {
        let mut acc = 0;
        for _ in 0..10 {
            acc = c.allreduce_u64(1, ReduceOp::Sum);
        }
        acc
    });
    assert!(
        second.all_completed(),
        "one-shot crashes stay fired across attempts"
    );
    assert_eq!(second.into_results(), Some(vec![2, 2]));
}

#[test]
fn repeating_crash_refires_every_attempt() {
    let world = World::new(2).fault_plan(FaultPlan::new(1).crash_repeating(0, 2));
    for attempt in 0..2 {
        let out = world.run_with_outcomes(|c| {
            c.barrier();
            c.barrier();
            c.barrier();
        });
        assert!(
            !out.all_completed(),
            "repeating crash must fire on attempt {attempt}"
        );
    }
}

#[test]
fn straggler_inflates_work_and_records_the_surplus() {
    let world = World::new(2).fault_plan(FaultPlan::new(0).straggler(0, 3));
    let report = world.run(|c| {
        c.phase("compute", |c| c.add_work(100));
        c.barrier();
    });
    assert_eq!(report.stats[0].total.work_units, 300);
    assert_eq!(report.stats[0].faults.straggler_units, 200);
    assert_eq!(report.stats[0].phase("compute").work_units, 300);
    assert_eq!(report.stats[1].total.work_units, 100);
    assert_eq!(report.stats[1].faults.straggler_units, 0);
}

/// The receiver of a dropped message fails instead of hanging: at the
/// plan's `hang` deadline while the sender lives on (it waits in the
/// barrier), at once when the sender has already returned.
#[test]
fn dropped_message_starves_the_receiver_into_a_recoverable_failure() {
    for sender_lives_on in [true, false] {
        let plan = FaultPlan::parse("seed=5;drop=1.0@0->1;hang=300").unwrap();
        let world = World::new(2).fault_plan(plan);
        let out = world.run_with_outcomes(|c| {
            if c.rank() == 0 {
                c.send(1, 4, vec![9u32]);
                if sender_lives_on {
                    c.barrier();
                }
            } else {
                let _ = c.recv::<u32>(0, 4);
            }
        });
        assert_eq!(out.stats[0].faults.msgs_dropped, 1);
        // Metered as sent — the sender cannot tell the fabric ate it.
        assert_eq!(out.stats[0].total.p2p_msgs_sent, 1);
        match &out.outcomes[1] {
            RankOutcome::Failed(msg) => {
                assert!(msg.contains("receive starved"), "got `{msg}`")
            }
            other => panic!("starved receiver should fail, got {other:?}"),
        }
        assert_eq!(
            matches!(out.outcomes[0], RankOutcome::Aborted),
            sender_lives_on,
            "a sender in the barrier falls with the receiver; one that returned is done"
        );
    }
}

#[test]
fn duplicated_message_is_delivered_and_metered_twice() {
    let world =
        World::new(2).fault_plan(FaultPlan::new(3).duplicate_messages(Some(0), Some(1), 1.0));
    let report = world.run(|c| {
        if c.rank() == 0 {
            c.send(1, 8, vec![42u64]);
            c.barrier();
            0
        } else {
            let a = c.recv::<u64>(0, 8)[0];
            let b = c.recv::<u64>(0, 8)[0];
            c.barrier();
            a + b
        }
    });
    assert_eq!(report.results[1], 84);
    assert_eq!(report.stats[0].faults.msgs_duplicated, 1);
    assert_eq!(report.stats[0].total.p2p_msgs_sent, 2);
    assert_eq!(report.stats[0].total.p2p_bytes_sent, 16);
}

#[test]
fn delayed_message_arrives_after_the_sender_advances() {
    let world =
        World::new(2).fault_plan(FaultPlan::new(0).delay_messages(Some(0), Some(1), 1.0, 3));
    let report = world.run(|c| {
        if c.rank() == 0 {
            c.send(1, 6, vec![7u8]);
        }
        // Enough collective events on rank 0 to pass the release point.
        for _ in 0..4 {
            c.barrier();
        }
        if c.rank() == 1 {
            c.recv::<u8>(0, 6)[0]
        } else {
            0
        }
    });
    assert_eq!(report.results[1], 7);
    assert_eq!(report.stats[0].faults.msgs_delayed, 1);
}

#[test]
fn message_faults_are_deterministic_for_a_given_seed() {
    let run_once = || {
        let plan = FaultPlan::parse("seed=12;drop=0.5@0->1;hang=60000").unwrap();
        let world = World::new(2).fault_plan(plan);
        let report = world.run(|c| {
            if c.rank() == 0 {
                for i in 0..20 {
                    c.send(1, 1, vec![i as u64]);
                }
            }
            c.barrier();
        });
        report.stats[0].faults.msgs_dropped
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "same plan + seed must produce identical fates");
    assert!(
        a > 0 && a < 20,
        "p=0.5 over 20 messages should drop some, not all (got {a})"
    );
}

#[test]
fn empty_fault_plan_is_a_no_op() {
    let world = World::new(2).fault_plan(FaultPlan::new(99));
    let plain = World::new(2);
    let f = |c: &mut infomap_mpisim::Comm| {
        c.phase("p", |c| {
            c.add_work(10);
            let peer = 1 - c.rank();
            c.send(peer, 0, vec![1u64; 4]);
            let _ = c.recv::<u64>(peer, 0);
        });
        c.allreduce_u64(1, ReduceOp::Sum)
    };
    let a = world.run(f);
    let b = plain.run(f);
    for rank in 0..2 {
        assert_eq!(a.stats[rank].total, b.stats[rank].total);
        assert!(!a.stats[rank].faults.any());
    }
    assert_eq!(a.results, b.results);
}

/// Collectives are all-or-nothing across a crash: whatever commits behind
/// one is held by every rank or by none. The script commits a generation
/// to a per-rank store after each of three collectives; rank 1 is crashed
/// at every comm event of the script in turn (and, past its end, not at
/// all). A survivor may read the crash before it has read the last
/// contributions of a collective the dead rank completed — it must still
/// complete that collective and commit.
#[test]
fn crash_at_any_event_leaves_every_generation_on_all_ranks_or_none() {
    const P: usize = 4;
    const ROUNDS: u64 = 3;
    for crash_at in 1..=3 * ROUNDS + 1 {
        let store: Vec<Mutex<Vec<u64>>> = (0..P).map(|_| Mutex::new(Vec::new())).collect();
        let world = World::new(P).fault_plan(FaultPlan::new(0).crash(1, crash_at));
        let out = world.run_with_outcomes(|c| {
            let commit = |rank: usize, generation: u64| {
                store[rank].lock().unwrap().push(generation);
            };
            for round in 0..ROUNDS {
                c.barrier();
                commit(c.rank(), 3 * round);
                let agreed = *c.allreduce_with(round, |rounds| rounds[0]);
                commit(c.rank(), 3 * agreed + 1);
                let buckets = vec![vec![round as u8]; c.size()];
                let (_, sum) = c.alltoallv_reduce(buckets, 1_u64, |ones| ones.iter().sum::<u64>());
                assert_eq!(sum, P as u64);
                commit(c.rank(), 3 * round + 2);
            }
        });
        assert_eq!(out.all_completed(), crash_at > 3 * ROUNDS);
        // The crash fires on entry to collective `crash_at`, before rank 1
        // contributes: generations 0 .. crash_at - 1 happened, on everyone.
        let expect: Vec<u64> = (0..crash_at - 1).collect();
        for (rank, held) in store.iter().enumerate() {
            assert_eq!(
                *held.lock().unwrap(),
                expect,
                "crash at event {crash_at}: rank {rank} split a collective"
            );
        }
    }
}
