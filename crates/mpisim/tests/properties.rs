//! Property tests for the message-passing substrate: collectives must
//! behave like their MPI definitions for arbitrary inputs and world sizes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use infomap_mpisim::{ReduceOp, World};

/// The 32 cases each property runs: case `c` draws from
/// `StdRng::seed_from_u64(c)`.
fn cases() -> impl Iterator<Item = (u64, StdRng)> {
    (0..32).map(|c| (c, StdRng::seed_from_u64(c)))
}

#[test]
fn allreduce_sum_matches_reference() {
    for (case, mut rng) in cases() {
        let p = rng.gen_range(1..6);
        let values: Vec<f64> = (0..p).map(|_| rng.gen_range(-1e6..1e6)).collect();
        let expect: f64 = values.iter().sum();
        let report = World::new(p).run(|c| c.allreduce_f64(values[c.rank()], ReduceOp::Sum));
        for got in report.results {
            let tol = 1e-6 * expect.abs().max(1.0);
            assert!((got - expect).abs() <= tol, "case {case}: {got}");
        }
    }
}

#[test]
fn allreduce_min_max_match_reference() {
    for (case, mut rng) in cases() {
        let p = rng.gen_range(1..6);
        let values: Vec<u64> = (0..p).map(|_| rng.gen_range(0..1_000_000)).collect();
        let mn = *values.iter().min().unwrap();
        let mx = *values.iter().max().unwrap();
        let report = World::new(p).run(|c| {
            (
                c.allreduce_u64(values[c.rank()], ReduceOp::Min),
                c.allreduce_u64(values[c.rank()], ReduceOp::Max),
            )
        });
        for got in report.results {
            assert_eq!(got, (mn, mx), "case {case}");
        }
    }
}

#[test]
fn allgatherv_is_rank_ordered_concat() {
    for (case, mut rng) in cases() {
        let p = rng.gen_range(1..6);
        let lens: Vec<usize> = (0..p).map(|_| rng.gen_range(0..5)).collect();
        let mut expect: Vec<u32> = Vec::new();
        for (r, &len) in lens.iter().enumerate() {
            expect.extend(std::iter::repeat_n(r as u32, len));
        }
        let report = World::new(p).run(|c| {
            let local = vec![c.rank() as u32; lens[c.rank()]];
            (*c.allgatherv(local)).clone()
        });
        for got in report.results {
            assert_eq!(got, expect, "case {case}");
        }
    }
}

#[test]
fn alltoallv_is_a_transpose() {
    for (case, mut rng) in cases() {
        let (p, salt) = (rng.gen_range(1..6), rng.gen_range(0..1000u64));
        let report = World::new(p).run(|c| {
            let outgoing: Vec<Vec<u64>> = (0..c.size())
                .map(|d| vec![salt + (c.rank() * 100 + d) as u64])
                .collect();
            c.alltoallv(outgoing)
        });
        for (me, incoming) in report.results.iter().enumerate() {
            for (src, msg) in incoming.iter().enumerate() {
                let want = salt + (src * 100 + me) as u64;
                assert_eq!(msg[0], want, "case {case}: {src} -> {me}");
            }
        }
    }
}

#[test]
fn interleaved_p2p_and_collectives_agree() {
    for (case, mut rng) in cases() {
        let (p, rounds) = (rng.gen_range(2..6), rng.gen_range(1..8u64));
        let report = World::new(p).run(|c| {
            let mut acc = 0u64;
            for round in 0..rounds {
                let next = (c.rank() + 1) % c.size();
                let prev = (c.rank() + c.size() - 1) % c.size();
                c.send(next, round, vec![c.rank() as u64 + round]);
                let from_prev = c.recv::<u64>(prev, round)[0];
                acc += c.allreduce_u64(from_prev, ReduceOp::Sum);
            }
            acc
        });
        let first = report.results[0];
        assert!(report.results.iter().all(|&r| r == first), "case {case}");
    }
}

#[test]
fn metering_counts_collective_calls() {
    for (case, mut rng) in cases() {
        let (p, calls) = (rng.gen_range(1..5), rng.gen_range(1..10u64));
        let report = World::new(p).run(|c| {
            for _ in 0..calls {
                c.barrier();
            }
        });
        for s in &report.stats {
            assert_eq!(s.total.collective_calls, calls, "case {case}");
        }
    }
}
