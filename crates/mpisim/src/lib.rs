//! # infomap-mpisim — a metered message-passing substrate
//!
//! This crate stands in for the MPI environment the ICPP'18 distributed
//! Infomap paper runs on. `p` ranks execute the same SPMD closure and
//! communicate exclusively through a [`Comm`] handle that offers the MPI
//! primitives the paper's algorithm uses:
//!
//! * point-to-point [`Comm::send`] / [`Comm::recv`] of typed vectors
//!   (tagged, selective receive),
//! * [`Comm::barrier`],
//! * allreduce ([`Comm::allreduce_f64`], [`Comm::allreduce_u64`],
//!   [`Comm::allreduce_with`]),
//! * [`Comm::allgatherv`], [`Comm::alltoallv`].
//!
//! A [`Comm`] runs over a byte-moving [`Transport`] and lowers every
//! operation one way — encode, move, decode, fold in rank order on every
//! rank — so what carries the bytes cannot change a result. A [`World`]
//! runs its ranks on threads of this process over [`MemTransport`];
//! `infomap-transport-socket` puts the same [`Comm`] over sockets, one OS
//! process per rank.
//!
//! Every operation is metered: bytes and message counts per rank, work units
//! per named *phase* ([`Comm::phase`]). A [`CostModel`] converts the counters
//! into modeled runtimes, which is how the benchmark harness reproduces the
//! paper's time-breakdown, scalability and efficiency figures on a machine
//! that is not a 4,096-core Titan partition: the algorithm's decisions,
//! per-rank workload and communication volume are identical to a real MPI
//! run; only the clock is modeled.
//!
//! ```
//! use infomap_mpisim::{ReduceOp, World};
//!
//! let report = World::new(4).run(|comm| {
//!     let rank_sum = comm.allreduce_u64(comm.rank() as u64, ReduceOp::Sum);
//!     assert_eq!(rank_sum, 0 + 1 + 2 + 3);
//!     comm.rank()
//! });
//! assert_eq!(report.results, vec![0, 1, 2, 3]);
//! ```
//!
//! For robustness experiments the substrate also injects faults: a seeded
//! [`FaultPlan`] can crash a rank at its N-th communication event, drop,
//! duplicate or delay point-to-point messages, and slow ranks down
//! (straggler injection). [`World::run_with_outcomes`] turns rank crashes
//! into per-rank [`RankOutcome`]s instead of propagating the panic, so a
//! driver can retry from a checkpoint; fault events land in
//! [`FaultStats`] so recovery traffic is priced by the [`CostModel`].

#![forbid(unsafe_code)]

mod comm;
mod cost;
mod fault;
mod mem;
mod payload;
mod stats;
mod transport;
mod world;

pub use comm::{Comm, ReduceOp};
pub use cost::{CostModel, PhaseBreakdown};
pub use fault::{CrashSpec, FaultPlan, MessageFaultKind, MessageFaultSpec, StragglerSpec};
pub use mem::MemTransport;
pub use payload::{WireDecodeError, WirePayload};
pub use stats::{FaultStats, PhaseStats, RankStats};
pub use transport::{OpMetrics, Transport, TransportError, TransportFault, TransportMetrics};
pub use world::{RankOutcome, Refusal, World, WorldOutcome, WorldReport};
