//! Substrate microbenches: barrier, allreduce, allgatherv, alltoallv and
//! point-to-point rounds at several world sizes. These measure the
//! *in-process world's* overhead (encode, p − 1 mailbox frames per rank,
//! decode and fold on every rank), which bounds how large an experiment
//! the harness can run — not modeled cluster time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use infomap_mpisim::{ReduceOp, World};

fn bench_barrier(c: &mut Criterion) {
    let mut group = c.benchmark_group("barrier_100x");
    group.sample_size(10);
    for p in [2usize, 8, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            let world = World::new(p);
            b.iter(|| {
                world.run(|c| {
                    for _ in 0..100 {
                        c.barrier();
                    }
                })
            })
        });
    }
    group.finish();
}

fn bench_allreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("allreduce_100x");
    group.sample_size(10);
    for p in [2usize, 8, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            let world = World::new(p);
            b.iter(|| {
                world.run(|c| {
                    let mut acc = 0.0;
                    for i in 0..100 {
                        acc += c.allreduce_f64(i as f64, ReduceOp::Sum);
                    }
                    acc
                })
            })
        });
    }
    group.finish();
}

fn bench_alltoallv(c: &mut Criterion) {
    let mut group = c.benchmark_group("alltoallv_1k_items_10x");
    group.sample_size(10);
    for p in [2usize, 8, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            let world = World::new(p);
            b.iter(|| {
                world.run(|c| {
                    let mut got = 0usize;
                    for _ in 0..10 {
                        let out: Vec<Vec<u64>> = (0..c.size())
                            .map(|d| vec![d as u64; 1000 / c.size()])
                            .collect();
                        got += c.alltoallv(out).iter().map(Vec::len).sum::<usize>();
                    }
                    got
                })
            })
        });
    }
    group.finish();
}

fn bench_p2p_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("p2p_ring_100x");
    group.sample_size(10);
    for p in [2usize, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            let world = World::new(p);
            b.iter(|| {
                world.run(|c| {
                    let next = (c.rank() + 1) % c.size();
                    let prev = (c.rank() + c.size() - 1) % c.size();
                    let mut acc = 0u64;
                    for round in 0..100u64 {
                        c.send(next, round, vec![c.rank() as u64]);
                        acc += c.recv::<u64>(prev, round)[0];
                    }
                    acc
                })
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_barrier,
    bench_allreduce,
    bench_alltoallv,
    bench_p2p_ring
);
criterion_main!(benches);
