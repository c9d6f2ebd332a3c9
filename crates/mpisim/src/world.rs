//! World construction and SPMD execution.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::comm::Comm;
use crate::cost::{CostModel, PhaseBreakdown};
use crate::fault::{FaultPlan, FaultState};
use crate::mem::MemTransport;
use crate::stats::RankStats;
use crate::transport::{TransportError, TransportFault};

/// Stack of every rank thread: modest, so that worlds of hundreds of
/// ranks stay cheap.
const RANK_STACK_BYTES: usize = 2 << 20;

/// A simulated cluster of `p` ranks.
///
/// [`World::run`] executes the same closure on every rank (SPMD), each on
/// its own OS thread with a [`Comm`] over one end of a
/// [`MemTransport::mesh`], and returns the per-rank results and counters.
pub struct World {
    nranks: usize,
    /// Shared fault bookkeeping; persists across runs of the same world so
    /// one-shot crashes stay fired when a driver retries.
    fault: Option<Arc<FaultState>>,
}

/// How one rank ended a [`World::run_with_outcomes`] execution.
#[derive(Debug)]
pub enum RankOutcome<R> {
    /// The rank's closure returned normally.
    Completed(R),
    /// The rank's own code panicked (an injected fault or a genuine bug);
    /// carries the panic message.
    Failed(String),
    /// The rank was healthy but unwound because an operation needed a
    /// frame from a rank that had died.
    Aborted,
}

impl<R> RankOutcome<R> {
    pub fn is_completed(&self) -> bool {
        matches!(self, RankOutcome::Completed(_))
    }

    /// The result, if the rank completed.
    pub fn completed(self) -> Option<R> {
        match self {
            RankOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }
}

/// Everything a fault-tolerant run produced: one [`RankOutcome`] per rank,
/// plus the metering counters of every rank — including failed and aborted
/// ones, whose partial work and traffic still cost real time.
#[derive(Debug)]
pub struct WorldOutcome<R> {
    pub outcomes: Vec<RankOutcome<R>>,
    pub stats: Vec<RankStats>,
}

impl<R> WorldOutcome<R> {
    /// Did every rank complete?
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(RankOutcome::is_completed)
    }

    /// `(rank, panic message)` of every rank that failed outright
    /// (aborted ranks are collateral, not root causes).
    pub fn failures(&self) -> Vec<(usize, &str)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(rank, o)| match o {
                RankOutcome::Failed(msg) => Some((rank, msg.as_str())),
                _ => None,
            })
            .collect()
    }

    /// Per-rank results in rank order, if every rank completed.
    pub fn into_results(self) -> Option<Vec<R>> {
        if !self.all_completed() {
            return None;
        }
        Some(
            self.outcomes
                .into_iter()
                .filter_map(RankOutcome::completed)
                .collect(),
        )
    }

    /// Modeled makespan under `model` (see [`CostModel::makespan`]).
    pub fn makespan(&self, model: &CostModel) -> PhaseBreakdown {
        model.makespan(&self.stats)
    }
}

/// Everything a run produced: per-rank return values (rank order) and the
/// metering counters used by the cost model.
#[derive(Debug)]
pub struct WorldReport<R> {
    pub results: Vec<R>,
    pub stats: Vec<RankStats>,
}

impl<R> WorldReport<R> {
    /// Modeled makespan under `model` (see [`CostModel::makespan`]).
    pub fn makespan(&self, model: &CostModel) -> PhaseBreakdown {
        model.makespan(&self.stats)
    }
}

/// A panic payload and the per-rank counters salvaged from the rank that
/// raised it.
type RawOutcome<R> = (Result<R, Box<dyn std::any::Any + Send>>, RankStats);

/// Did this rank unwind only because a peer it waited on had died?
fn is_cascade_payload(payload: &Box<dyn std::any::Any + Send>) -> bool {
    matches!(
        payload.downcast_ref::<TransportFault>(),
        Some(TransportFault {
            error: TransportError::PeerDead { .. },
            ..
        })
    )
}

/// A rank's refusal of its own input, raised with `std::panic::panic_any`
/// where the rank program has no error to return: a rerun meets the same
/// refusal. A process runner exits on it as refused; [`World`] reports its
/// message.
#[derive(Clone, Debug)]
pub struct Refusal(pub String);

/// Render a panic payload as a message string.
fn payload_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(Refusal(why)) = payload.downcast_ref::<Refusal>() {
        why.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(fault) = payload.downcast_ref::<TransportFault>() {
        fault.to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Owns a rank's communicator while its closure runs, so that a panic
/// drops it *during* the unwind — that is when the transport tells the
/// peers this rank died rather than finished — and still hands the
/// counters out.
struct Salvage<'a> {
    comm: Comm,
    stats: &'a mut RankStats,
}

impl Drop for Salvage<'_> {
    fn drop(&mut self) {
        *self.stats = self.comm.take_stats();
    }
}

impl World {
    /// A world with `nranks` ranks. Panics if `nranks == 0`.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks > 0, "a world needs at least one rank");
        World {
            nranks,
            fault: None,
        }
    }

    /// Install a [`FaultPlan`]. Fault state lives on the `World`, so a
    /// one-shot crash fired in one [`World::run_with_outcomes`] call stays
    /// fired when the same world re-runs (a driver retry does not re-crash).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = if plan.is_empty() {
            None
        } else {
            Some(Arc::new(FaultState::new(plan, self.nranks)))
        };
        self
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Execute `f` on every rank; collect each rank's raw result (return
    /// value or panic payload) plus its salvaged counters, in rank order.
    fn run_raw<R, F>(&self, f: F) -> Vec<RawOutcome<R>>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        // With a fault plan, a dropped message must not hang the world:
        // the starved receive fails the rank so the driver can retry.
        let mut starvation = Duration::MAX;
        if let Some(fault) = &self.fault {
            fault.begin_attempt();
            starvation = Duration::from_millis(fault.plan().hang_timeout_ms);
        }

        thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.nranks);
            for (rank, mut transport) in MemTransport::mesh(self.nranks).into_iter().enumerate() {
                transport.recv_timeout = starvation;
                let fault = self.fault.clone();
                let f = &f;
                let builder = thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(RANK_STACK_BYTES);
                let handle = builder
                    .spawn_scoped(scope, move || {
                        // A panicking rank's peers, blocked on collectives
                        // or receives it will never feed, unwind instead of
                        // deadlocking; counters survive the unwind so even a
                        // crashed rank's partial traffic can be priced.
                        let mut stats = RankStats::new(rank);
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                let comm =
                                    Comm::over_transport(Box::new(transport)).with_faults(fault);
                                let mut guard = Salvage {
                                    comm,
                                    stats: &mut stats,
                                };
                                f(&mut guard.comm)
                            }));
                        (outcome, stats)
                    })
                    .expect("failed to spawn rank thread");
                handles.push(handle);
            }
            // The closure is wrapped in catch_unwind, so a join error means
            // the runtime itself failed; give up loudly.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    }

    /// Run `f` on every rank and collect results and counters in rank order.
    ///
    /// Panics in any rank propagate (the whole run aborts), so test failures
    /// inside SPMD code surface normally. When several ranks panicked, the
    /// re-thrown payload is the first *original* panic in rank order; the
    /// dead-peer faults of ranks that merely unwound in sympathy are only
    /// reported when no original panic was captured.
    pub fn run<R, F>(&self, f: F) -> WorldReport<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        let raw = self.run_raw(f);
        let mut results = Vec::with_capacity(self.nranks);
        let mut stats = Vec::with_capacity(self.nranks);
        let mut first_panic: Option<(Box<dyn std::any::Any + Send>, bool)> = None;
        for (outcome, s) in raw {
            stats.push(s);
            match outcome {
                Ok(r) => results.push(r),
                Err(payload) => {
                    let cascade = is_cascade_payload(&payload);
                    match &first_panic {
                        None => first_panic = Some((payload, cascade)),
                        // An original panic always beats a cascade captured
                        // earlier in rank order.
                        Some((_, true)) if !cascade => first_panic = Some((payload, cascade)),
                        _ => {}
                    }
                }
            }
        }
        if let Some((payload, _)) = first_panic {
            std::panic::resume_unwind(payload);
        }
        WorldReport { results, stats }
    }

    /// Run `f` on every rank, converting per-rank panics into
    /// [`RankOutcome`]s instead of propagating them. This is the entry point
    /// for fault-tolerant drivers: a crashed rank yields
    /// [`RankOutcome::Failed`] with its panic message, ranks that unwound on
    /// a dead peer yield [`RankOutcome::Aborted`], and every rank's
    /// counters — partial or not — are returned for costing.
    pub fn run_with_outcomes<R, F>(&self, f: F) -> WorldOutcome<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        let raw = self.run_raw(f);
        let mut outcomes = Vec::with_capacity(self.nranks);
        let mut stats = Vec::with_capacity(self.nranks);
        for (outcome, s) in raw {
            stats.push(s);
            outcomes.push(match outcome {
                Ok(r) => RankOutcome::Completed(r),
                Err(payload) if is_cascade_payload(&payload) => RankOutcome::Aborted,
                Err(payload) => RankOutcome::Failed(payload_message(&payload)),
            });
        }
        WorldOutcome { outcomes, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReduceOp;

    #[test]
    fn ranks_see_their_ids_and_world_size() {
        let report = World::new(5).run(|c| (c.rank(), c.size()));
        assert_eq!(report.results, (0..5).map(|r| (r, 5)).collect::<Vec<_>>());
    }

    #[test]
    fn allreduce_variants() {
        let report = World::new(4).run(|c| {
            let s = c.allreduce_u64(c.rank() as u64 + 1, ReduceOp::Sum);
            let mn = c.allreduce_u64(c.rank() as u64 + 1, ReduceOp::Min);
            let mx = c.allreduce_f64(c.rank() as f64, ReduceOp::Max);
            (s, mn, mx)
        });
        for (s, mn, mx) in report.results {
            assert_eq!(s, 10);
            assert_eq!(mn, 1);
            assert_eq!(mx, 3.0);
        }
    }

    #[test]
    fn allgatherv_concatenates_in_rank_order() {
        let report = World::new(4).run(|c| {
            let local = vec![c.rank() as u32; c.rank()];
            (*c.allgatherv(local)).clone()
        });
        let expect = vec![1, 2, 2, 3, 3, 3];
        for got in report.results {
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn alltoallv_transposes() {
        let p = 4;
        let report = World::new(p).run(|c| {
            let outgoing: Vec<Vec<u64>> = (0..c.size())
                .map(|d| vec![(c.rank() * 10 + d) as u64])
                .collect();
            c.alltoallv(outgoing)
        });
        for (me, incoming) in report.results.iter().enumerate() {
            for (src, msg) in incoming.iter().enumerate() {
                assert_eq!(msg, &vec![(src * 10 + me) as u64]);
            }
        }
    }

    #[test]
    fn alltoallv_reduce_transposes_and_folds_in_rank_order() {
        let p = 4;
        let report = World::new(p).run(|c| {
            let outgoing: Vec<Vec<u64>> = (0..c.size())
                .map(|d| vec![(c.rank() * 10 + d) as u64])
                .collect();
            c.alltoallv_reduce(outgoing, vec![c.rank() as u64], |parts| {
                // Concatenation exposes the fold order.
                parts.into_iter().flatten().collect::<Vec<u64>>()
            })
        });
        for (me, (incoming, folded)) in report.results.iter().enumerate() {
            for (src, msg) in incoming.iter().enumerate() {
                assert_eq!(msg, &vec![(src * 10 + me) as u64]);
            }
            assert_eq!(folded, &vec![0, 1, 2, 3], "rank {me} saw a reordered fold");
        }
        // One collective call, metered as buckets + the reduce partial:
        // 4 buckets x 8 bytes + size_of::<Vec<u64>>() per rank.
        for s in &report.stats {
            assert_eq!(s.total.collective_calls, 1);
            assert_eq!(
                s.total.collective_bytes,
                4 * 8 + std::mem::size_of::<Vec<u64>>() as u64
            );
            // Receive side: the 3 non-self buckets only.
            assert_eq!(s.total.collective_bytes_recv, 3 * 8);
        }
    }

    #[test]
    fn phases_meter_work_and_bytes() {
        let report = World::new(2).run(|c| {
            c.phase("compute", |c| c.add_work(100));
            c.phase("talk", |c| {
                let peer = 1 - c.rank();
                c.send(peer, 0, vec![0_u64; 8]);
                let _ = c.recv::<u64>(peer, 0);
            });
        });
        for s in &report.stats {
            assert_eq!(s.phase("compute").work_units, 100);
            assert_eq!(s.phase("talk").p2p_bytes_sent, 64);
            assert_eq!(s.phase("talk").p2p_bytes_recv, 64);
            assert_eq!(s.total.work_units, 100);
            assert_eq!(s.total.p2p_msgs_sent, 1);
        }
        let model = CostModel::default();
        let bd = report.makespan(&model);
        assert!(bd.phases.contains_key("compute"));
        assert!(bd.total > 0.0);
    }

    #[test]
    fn nested_phases_charge_the_innermost_phase_and_the_total() {
        let report = World::new(1).run(|c| {
            c.add_work(1); // un-phased: the total only
            c.phase("outer", |c| {
                c.add_work(10);
                c.phase("inner", |c| {
                    c.add_work(100);
                    // Read mid-phase: the counts are already there.
                    let live = c.stats();
                    assert_eq!(live.phase("inner").work_units, 100);
                    assert_eq!(live.phase("outer").work_units, 10);
                    assert_eq!(live.total.work_units, 111);
                    c.barrier();
                });
                c.add_codec_bytes(7); // back on the outer phase
                c.phase("inner", |c| c.add_work(1000));
            });
        });
        let s = &report.stats[0];
        let (outer, inner) = (s.phase("outer"), s.phase("inner"));
        assert_eq!(
            (outer.work_units, outer.codec_bytes, outer.entries),
            (10, 7, 1)
        );
        assert_eq!((inner.work_units, inner.collective_calls), (1100, 1));
        assert_eq!((inner.entries, outer.collective_calls), (2, 0));
        assert_eq!((s.total.work_units, s.total.codec_bytes), (1111, 7));
        assert_eq!((s.total.collective_calls, s.total.entries), (1, 0));
    }

    #[test]
    fn allgather_parts_keeps_rank_structure() {
        let report = World::new(3).run(|c| {
            let local = vec![c.rank() as u8; c.rank() + 1];
            (*c.allgather_parts(local)).clone()
        });
        for parts in report.results {
            assert_eq!(parts.len(), 3);
            for (src, part) in parts.iter().enumerate() {
                assert_eq!(part, &vec![src as u8; src + 1]);
            }
        }
    }

    #[test]
    fn allreduce_f64_min_handles_negatives() {
        let report = World::new(3).run(|c| c.allreduce_f64(-(c.rank() as f64), ReduceOp::Min));
        for got in report.results {
            assert_eq!(got, -2.0);
        }
    }

    #[test]
    fn single_rank_world_works() {
        let report = World::new(1).run(|c| {
            c.barrier();
            let x = c.allreduce_f64(2.5, ReduceOp::Sum);
            let g = (*c.allgatherv(vec![1_u8, 2])).clone();
            (x, g)
        });
        assert_eq!(report.results[0], (2.5, vec![1, 2]));
    }
}
