//! # infomap-core — the map equation and sequential Infomap
//!
//! From-scratch implementation of the two-level Infomap algorithm of
//! Rosvall et al. (the paper's Algorithm 1), which the distributed
//! algorithm both builds on and is evaluated against:
//!
//! * [`accumulate`]: the neighborhood-sized, epoch-stamped accumulator
//!   shared by the sequential and distributed best-move kernels (O(deg)
//!   neighborhood aggregation without clearing, in O(deg) bytes);
//! * [`flow`]: per-vertex visit rates and normalized arc flows of the
//!   undirected random walk (`p_α = strength(α) / 2W`);
//! * [`map_equation`]: the codelength `L(M)` of Equation 3, maintained
//!   incrementally under vertex moves, with the `δL` of a candidate move
//!   computed in O(1) from module statistics;
//! * [`sequential`]: randomized greedy sweeps + module aggregation until the
//!   codelength stops improving, with a per-outer-iteration trace feeding
//!   the convergence and merge-rate experiments (Figures 4–5).
//!
//! ```
//! use infomap_graph::generators::ring_of_cliques;
//! use infomap_core::sequential::{Infomap, InfomapConfig};
//!
//! let (graph, truth) = ring_of_cliques(4, 6, 0);
//! let result = Infomap::new(InfomapConfig::default()).run(&graph);
//! // Four cliques -> four modules, and the codelength beat one-level.
//! assert_eq!(result.num_modules(), 4);
//! assert!(result.codelength < result.one_level_codelength);
//! # let _ = truth;
//! ```

#![forbid(unsafe_code)]

pub mod accumulate;
pub mod flow;
pub mod map_equation;
pub mod sequential;

pub use accumulate::{push_slot, slot_capacity, NeighborMap};
pub use flow::FlowNetwork;
pub use map_equation::{plogp, plogp_slice, DeltaBatch, MoveScratch, Partitioning, DELTA_CHUNK};
pub use sequential::{Infomap, InfomapConfig, InfomapResult, OuterIterationStats, MIN_GAIN, THETA};
