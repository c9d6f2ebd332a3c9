//! # distributed-infomap — umbrella crate
//!
//! A from-scratch Rust reproduction of **Zeng & Yu, "A Distributed Infomap
//! Algorithm for Scalable and High-Quality Community Detection" (ICPP
//! 2018)**: the map equation, sequential Infomap, vertex-delegate graph
//! partitioning, a metered MPI-like execution substrate, the paper's
//! synchronized distributed algorithm, the GossipMap prior-art baseline,
//! clustering quality metrics, and a benchmark harness that
//! regenerates every table and figure of the paper's evaluation.
//!
//! This crate re-exports the component crates under stable names and hosts
//! the runnable examples (`cargo run --release --example quickstart`) and
//! the cross-crate integration tests.
//!
//! ```
//! use distributed_infomap::prelude::*;
//!
//! let (graph, _) = generators::ring_of_cliques(4, 5, 0);
//! let sequential = Infomap::new(InfomapConfig::default()).run(&graph);
//! let distributed = DistributedInfomap::new(DistributedConfig {
//!     nranks: 2,
//!     ..Default::default()
//! })
//! .run(&graph);
//! assert_eq!(sequential.num_modules(), distributed.num_modules());
//! ```

#![forbid(unsafe_code)]

pub use infomap_baselines as baselines;
pub use infomap_core as core;
pub use infomap_distributed as distributed;
pub use infomap_graph as graph;
pub use infomap_metrics as metrics;
pub use infomap_mpisim as mpisim;
pub use infomap_partition as partition;

/// The most common imports in one place.
pub mod prelude {
    pub use infomap_baselines::gossip_map;
    pub use infomap_core::sequential::{Infomap, InfomapConfig, InfomapResult};
    pub use infomap_core::FlowNetwork;
    pub use infomap_distributed::{DistributedConfig, DistributedInfomap, DistributedOutput};
    pub use infomap_graph::datasets::DatasetId;
    pub use infomap_graph::{generators, Graph};
    pub use infomap_metrics::{modularity, quality, QualityReport};
    pub use infomap_mpisim::{Comm, CostModel, ReduceOp, World};
    pub use infomap_partition::{BalanceStats, DelegateThreshold, Partition};
}
