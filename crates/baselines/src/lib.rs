//! # infomap-baselines — the prior-art comparator
//!
//! The paper measures its contribution against one baseline, **GossipMap**
//! (Bae & Howe 2015): distributed Infomap on GraphLab that moves vertices
//! on local information and gossips boundary community IDs — without the
//! full `Module_Info` synchronization the paper's §3.4 argues is
//! necessary. [`gossip`] provides that protocol on the same simulated
//! substrate the paper's algorithm runs on, so Table 3's speedups compare
//! like for like.

#![forbid(unsafe_code)]

pub mod gossip;

pub use gossip::gossip_map;
