//! Poisoning-path coverage: a rank that panics must unwind the survivors
//! promptly (no deadlock in collectives, receives, or around stashed
//! messages), and the panic that reaches the caller must be the *original*
//! failure, never the "world poisoned" cascade that healthy ranks raise
//! while unwinding.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::sleep;
use std::time::{Duration, Instant};

use infomap_mpisim::{RankOutcome, ReduceOp, Refusal, World};

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string payload>".to_string()
    }
}

/// Regression for the panic-preference bug: rank 0 unwinds *first* (in
/// rank/join order) with the poisoned-world cascade, and the original panic
/// comes from a later rank. The cascade captured first must be replaced.
#[test]
fn original_panic_from_later_rank_beats_earlier_cascade() {
    let world = World::new(3);
    let err = catch_unwind(AssertUnwindSafe(|| {
        world.run(|c| {
            if c.rank() == 2 {
                // Let ranks 0 and 1 block in the barrier first.
                sleep(Duration::from_millis(50));
                panic!("original failure from rank 2");
            }
            c.barrier();
        });
    }))
    .expect_err("a rank panicked, run must propagate");
    let msg = panic_text(err);
    assert!(
        msg.contains("original failure from rank 2"),
        "caller saw `{msg}`, expected the original panic, not a cascade"
    );
}

#[test]
fn rank_blocked_in_collective_unwinds_promptly() {
    let world = World::new(4);
    let started = Instant::now();
    let out = world.run_with_outcomes(|c| {
        if c.rank() == 1 {
            sleep(Duration::from_millis(30));
            panic!("collective peer died");
        }
        // Never completes: rank 1 refuses to join.
        c.allreduce_u64(1, ReduceOp::Sum)
    });
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "survivors must unwind promptly, not hang"
    );
    assert!(!out.all_completed());
    let failures = out.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, 1);
    assert!(failures[0].1.contains("collective peer died"));
    for (rank, o) in out.outcomes.iter().enumerate() {
        if rank != 1 {
            assert!(
                matches!(o, RankOutcome::Aborted),
                "rank {rank} should abort"
            );
        }
    }
}

#[test]
fn rank_blocked_in_recv_unwinds_promptly() {
    let world = World::new(2);
    let started = Instant::now();
    let out = world.run_with_outcomes(|c| {
        if c.rank() == 1 {
            sleep(Duration::from_millis(30));
            // A typed refusal payload is rendered by its message.
            std::panic::panic_any(Refusal("recv peer died".into()));
        }
        // Blocks forever on a healthy world: rank 1 never sends.
        let _ = c.recv::<u64>(1, 42);
    });
    assert!(started.elapsed() < Duration::from_secs(10));
    assert!(matches!(out.outcomes[0], RankOutcome::Aborted));
    match &out.outcomes[1] {
        RankOutcome::Failed(msg) => assert!(msg.contains("recv peer died")),
        other => panic!("rank 1 should have failed, got {other:?}"),
    }
}

/// A receiver holding unmatched messages in its stash must still notice the
/// poison and unwind; the stashed traffic stays metered.
#[test]
fn rank_with_stashed_messages_unwinds_and_keeps_counters() {
    let world = World::new(2);
    let out = world.run_with_outcomes(|c| {
        if c.rank() == 0 {
            // A message rank 1 will stash (wrong tag), then the failure.
            c.send(1, 7, vec![1u64, 2, 3]);
            sleep(Duration::from_millis(30));
            panic!("sender exploded after send");
        }
        // Waits for a tag that never comes; tag 7 lands in the stash.
        let _ = c.recv::<u64>(0, 9);
    });
    match &out.outcomes[0] {
        RankOutcome::Failed(msg) => assert!(msg.contains("sender exploded")),
        other => panic!("rank 0 should have failed, got {other:?}"),
    }
    assert!(matches!(out.outcomes[1], RankOutcome::Aborted));
    // Even the aborted rank's partial traffic is salvaged for costing.
    assert_eq!(out.stats[0].total.p2p_msgs_sent, 1);
    assert_eq!(out.stats[0].total.p2p_bytes_sent, 24);
}

/// Sending to a rank that already died must raise the standard
/// poisoned-world diagnostic (and thus classify as a cascade), not a
/// confusing channel error that masks the original failure.
#[test]
fn send_to_dead_rank_reports_poisoned_world() {
    let world = World::new(2);
    let out = world.run_with_outcomes(|c| {
        if c.rank() == 1 {
            panic!("rank 1 exploded");
        }
        // Give rank 1 time to die and drop its mailbox receiver.
        sleep(Duration::from_millis(200));
        c.send(1, 0, vec![0u8]);
    });
    match &out.outcomes[1] {
        RankOutcome::Failed(msg) => assert!(msg.contains("rank 1 exploded")),
        other => panic!("rank 1 should have failed, got {other:?}"),
    }
    // The sender's unwind is collateral damage, not a root cause.
    assert!(
        matches!(out.outcomes[0], RankOutcome::Aborted),
        "send-to-dead-rank must classify as a cascade, got {:?}",
        out.outcomes[0]
    );
}

/// `run` (the panicking entry point) must also prefer the original message
/// when the dead-destination send path is what unwound the survivor.
#[test]
fn run_prefers_original_panic_over_dead_destination_send() {
    let world = World::new(2);
    let err = catch_unwind(AssertUnwindSafe(|| {
        world.run(|c| {
            if c.rank() == 1 {
                panic!("the real bug");
            }
            sleep(Duration::from_millis(200));
            c.send(1, 0, vec![0u8]);
        });
    }))
    .expect_err("run must propagate the failure");
    assert!(panic_text(err).contains("the real bug"));
}

/// Collective metering counts the payload a rank ships, not the
/// `size_of` of the container header: one rank's 100 `u64`s reach both.
#[test]
fn allgatherv_meters_actual_payload_bytes() {
    let report = World::new(2).run(|c| {
        let v = if c.rank() == 0 {
            vec![0u64; 100]
        } else {
            vec![]
        };
        c.allgatherv(v).len()
    });
    assert_eq!(report.results, vec![100, 100]);
    assert_eq!(
        report.stats[0].total.collective_bytes, 800,
        "the sender must meter 100 * 8 payload bytes"
    );
    assert_eq!(
        report.stats[1].total.collective_bytes, 0,
        "an empty contribution costs nothing"
    );
    assert_eq!(report.stats[1].total.collective_bytes_recv, 800);
}
