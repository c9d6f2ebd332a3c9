//! # infomap-distributed — the ICPP'18 distributed Infomap algorithm
//!
//! Implementation of Zeng & Yu's distributed Infomap (the paper's
//! Algorithm 2) on the [`infomap_mpisim`] message-passing substrate:
//!
//! 1. **Preprocessing** (§3.3): delegate partitioning of the input graph
//!    ([`infomap_partition`]), per-vertex visit rates, ghost/subscriber
//!    topology.
//! 2. **Parallel clustering with delegates** (lines 2–7): synchronized
//!    rounds of local greedy moves; each rank proposes the best local `δL`
//!    for every delegate copy it holds, the globally best proposal per
//!    delegate is elected at the delegate's owner rank and the winners are
//!    applied identically on all ranks (with the *minimum-label* tie-break
//!    against vertex bouncing);
//!    boundary community IDs are swapped with neighbor ranks;
//!    authoritative module statistics (`Module_Info`, List 1) are
//!    re-established every round by an owner reduction, which makes the
//!    reported global MDL exact and takes the place of Algorithm 3's
//!    per-vertex info records.
//! 3. **Distributed merging** (§3.5): modules contract into a new graph,
//!    re-partitioned 1D.
//! 4. **Parallel clustering without delegates** (lines 9–16) repeated until
//!    the MDL stops improving.
//!
//! Delegate copies are treated as *sub-vertices*: each copy carries the
//! share of the hub's visit rate corresponding to its local arcs, so the
//! owner reduction recovers the exact module flows no matter how the hub's
//! adjacency was scattered — this is what lets the replicated hubs of the
//! delegate partition coexist with an exact map-equation evaluation.
//!
//! Every phase is metered under the names the paper's Figure 8 uses
//! (`FindBestModule`, `BroadcastDelegates`, `SwapBoundaryInfo`, `Other`),
//! so the benchmark harness can regenerate the time-breakdown, scalability
//! and efficiency figures from the counters.
//!
//! The per-rank hot paths run on interned module slots with epoch-stamped
//! dense accumulators and persistent round buffers (DESIGN.md §6.12), and
//! every batch crosses the wire in the compact layout of [`codec`]
//! (DESIGN.md §6.13).
//!
//! ```
//! use infomap_graph::generators::ring_of_cliques;
//! use infomap_distributed::{DistributedConfig, DistributedInfomap};
//!
//! let (graph, _) = ring_of_cliques(4, 6, 0);
//! let out = DistributedInfomap::new(DistributedConfig {
//!     nranks: 4,
//!     ..Default::default()
//! })
//! .run(&graph);
//! assert_eq!(out.num_modules(), 4);
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod codec;
pub mod config;
pub mod driver;
pub mod idhash;
pub mod messages;
pub mod rounds;
pub mod state;

pub use checkpoint::{CheckpointStore, FileCheckpointStore, RankSnapshot, RunId, SnapshotStore};
pub use config::{DistributedConfig, RecoveryConfig};
pub use driver::{
    node_term, rank0_result, recover, AttemptFailure, DistributedInfomap, DistributedOutput,
    RankProgram, Recovered, RecoveryReport, StageTrace,
};
pub use rounds::{find_best_modules, RoundBuffers, StageStop, MAX_ROUNDS};
