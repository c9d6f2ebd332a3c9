//! # infomap-graph — graph substrate for the distributed Infomap reproduction
//!
//! Provides:
//!
//! * [`Graph`]: a compact CSR representation of undirected weighted graphs,
//!   with the degree/strength conventions the map equation needs;
//! * [`generators`]: seeded, deterministic synthetic-graph generators
//!   (Erdős–Rényi, Barabási–Albert, Chung–Lu, planted partitions, an
//!   LFR-like benchmark with power-law degrees *and* power-law community
//!   sizes, plus small structured graphs for tests);
//! * [`datasets`]: scaled synthetic stand-ins for the nine real-world
//!   datasets of the paper's Table 1 (Amazon … UK-2007), matching each
//!   dataset's edge/vertex ratio, degree-tail exponent, and community
//!   mixing (see DESIGN.md for the substitution argument);
//! * [`io`]: whitespace edge-list reading and writing;
//! * [`snapshot`]: a binary CSR snapshot format (versioned, checksummed)
//!   with one block-cached reader plus per-rank shards for out-of-core
//!   runs;
//! * [`store`]: the [`GraphStore`] trait the partitioner and driver use,
//!   implemented by both the in-memory CSR and the snapshot store.

#![forbid(unsafe_code)]

pub mod csr;
pub mod datasets;
pub mod generators;
pub mod io;
pub mod snapshot;
pub mod store;

pub use csr::{Graph, GraphBuilder, VertexId};
pub use store::GraphStore;
