//! The collective-schedule check: a deliberately rank-divergent
//! collective must produce an immediate per-rank diagnostic — naming the
//! diverging rank, the mismatched collective kinds, and the call sites —
//! instead of a hang or an opaque decode error.

use infomap_mpisim::{ReduceOp, World};

/// One rank calls a different collective than everyone else (the exact bug
/// spmd-lint rule R1 flags statically: a collective under a rank-keyed
/// conditional). The checker must convert it into a diagnostic.
#[test]
fn divergent_collective_reports_ranks_and_call_sites() {
    let outcome = World::new(4).run_with_outcomes(|c| {
        c.barrier();
        if c.rank() == 1 {
            // Divergent: rank 1 issues an allreduce while the others
            // issue a barrier.
            c.allreduce_u64(7, ReduceOp::Sum);
        } else {
            c.barrier();
        }
        c.rank()
    });

    assert!(
        !outcome.all_completed(),
        "the divergent schedule must not complete"
    );
    // Every rank sees all four stamps and raises the same diagnostic.
    let failures = outcome.failures();
    assert!(
        !failures.is_empty(),
        "at least one rank must carry the diagnostic"
    );
    let msg = failures[0].1;
    assert!(
        msg.contains("collective schedule divergence"),
        "diagnostic must name the failure class, got: {msg}"
    );
    assert!(
        msg.contains("rank 1: allreduce_u64"),
        "must pin rank 1's kind, got: {msg}"
    );
    assert!(
        msg.contains("rank 0: barrier"),
        "must show the peers' kind, got: {msg}"
    );
    assert!(
        msg.contains("tests/schedule.rs"),
        "must carry the call site, got: {msg}"
    );
    for f in &failures {
        assert!(
            f.1.contains("collective schedule divergence"),
            "every failed rank must fail with the schedule diagnostic, not a hang/timeout"
        );
    }
}

/// A count divergence — one rank issues fewer collectives than its peers
/// and returns early — leaves the peers waiting for a contribution that
/// will never be posted. The finished rank's transport says so when it
/// drops, behind everything that rank did send, so the waiters unwind
/// with a diagnostic and no timer is involved.
#[test]
fn skipped_collective_is_diagnosed_not_deadlocked() {
    let outcome = World::new(3).run_with_outcomes(|c| {
        c.barrier();
        if c.rank() != 2 {
            c.barrier(); // rank 2 skips this one and finishes early
        }
        c.rank()
    });
    assert!(!outcome.all_completed());
    let failures = outcome.failures();
    assert!(
        failures
            .iter()
            .any(|f| f.1.contains("collective schedule divergence")),
        "waiters must unwind with the divergence diagnostic, got: {failures:?}"
    );
    assert!(
        failures
            .iter()
            .any(|f| f.1.contains("rank(s) 2 already finished")),
        "the diagnostic must name the rank that finished early, got: {failures:?}"
    );
}

/// A healthy SPMD program is untouched by the stamps: results in rank
/// order, counters from the typed sizes alone.
#[test]
fn healthy_schedule_is_transparent() {
    let report = World::new(4).run(|c| {
        c.barrier();
        let s = c.allreduce_u64(c.rank() as u64, ReduceOp::Sum);
        let g = (*c.allgatherv(vec![c.rank() as u32])).clone();
        let m = c.allreduce_f64(c.rank() as f64, ReduceOp::Max);
        (s, g, m)
    });
    for (result, stats) in report.results.iter().zip(&report.stats) {
        assert_eq!(result, &(6, vec![0, 1, 2, 3], 3.0));
        assert_eq!(stats.total.collective_calls, 4);
        assert_eq!(stats.total.collective_bytes, 8 + 4 + 8);
    }
}

/// Two collectives whose contributions have the same wire type are still
/// told apart: the stamp carries the kind, not just the bytes.
#[test]
fn same_sized_contributions_of_different_kinds_do_not_combine() {
    let outcome = World::new(2).run_with_outcomes(|c| {
        if c.rank() == 0 {
            c.allreduce_u64(1, ReduceOp::Sum) as f64
        } else {
            c.allreduce_f64(1.0, ReduceOp::Sum)
        }
    });
    let failures = outcome.failures();
    assert_eq!(failures.len(), 2, "both ranks read both stamps");
    for (_, msg) in failures {
        assert!(msg.contains("rank 0: allreduce_u64"), "got: {msg}");
        assert!(msg.contains("rank 1: allreduce_f64"), "got: {msg}");
    }
}
