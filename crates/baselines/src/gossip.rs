//! GossipMap-like distributed baseline.
//!
//! Bae & Howe's GossipMap moves vertices on *local* information and
//! disseminates only boundary community IDs between partitions — the
//! "naive information swapping" the paper's §3.4 dissects: a processor that
//! learns vertex 3's community ID still cannot see that vertices 0 and 3
//! are co-clustered remotely, so its δL estimates are systematically off.
//!
//! We realize that protocol on the same substrate the paper's algorithm
//! uses, by configuring the distributed engine with:
//!
//! * plain 1D partitioning (no delegates — GossipMap does not replicate
//!   hubs), and
//! * `full_module_swap = false`: boundary vertex IDs travel, full
//!   `Module_Info` records do not, and ranks never receive authoritative
//!   module statistics back.
//!
//! Running both algorithms on the same simulator with the same cost model
//! is what makes Table 3's speedups a like-for-like comparison.

use infomap_distributed::{DistributedConfig, DistributedInfomap, DistributedOutput};
use infomap_graph::Graph;
use infomap_partition::DelegateThreshold;

/// Run the GossipMap-like baseline on `nranks` ranks. Returns the same
/// output type as the paper's algorithm so harnesses can compare MDL,
/// per-rank workload and modeled runtimes directly.
pub fn gossip_map(graph: &Graph, nranks: usize, seed: u64) -> DistributedOutput {
    let dcfg = DistributedConfig {
        nranks,
        // A threshold above the maximum degree disables delegation: the
        // partition degenerates to 1D, like GossipMap's vertex cuts don't —
        // which is exactly the hub-imbalance the paper fixes.
        threshold: DelegateThreshold::Fixed(usize::MAX),
        rebalance: false,
        seed,
        min_label_tiebreak: true,
        full_module_swap: false,
        ..Default::default()
    };
    DistributedInfomap::new(dcfg).run(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use infomap_distributed::{DistributedConfig, DistributedInfomap};
    use infomap_graph::generators;

    #[test]
    fn gossip_converges_but_underperforms_full_swap() {
        let (g, _) = generators::lfr_like(generators::LfrParams::with(500, 0.3), 8);
        let gossip = gossip_map(&g, 4, 0);
        let full = DistributedInfomap::new(DistributedConfig {
            nranks: 4,
            ..Default::default()
        })
        .run(&g);
        // Both beat the trivial one-level partition...
        assert!(gossip.codelength < gossip.one_level_codelength);
        assert!(full.codelength < full.one_level_codelength);
        // ...but the naive swap must not beat the full Module_Info swap.
        assert!(
            full.codelength <= gossip.codelength + 1e-9,
            "full swap {} vs gossip {}",
            full.codelength,
            gossip.codelength
        );
    }

    #[test]
    fn gossip_single_rank_equals_full_single_rank() {
        // With one rank there is no remote information to miss, so both
        // protocols coincide.
        let (g, _) = generators::planted_partition(4, 12, 0.5, 0.02, 3);
        let gossip = gossip_map(&g, 1, 0);
        assert!(gossip.codelength < gossip.one_level_codelength);
    }

    #[test]
    fn gossip_is_deterministic() {
        let (g, _) = generators::lfr_like(generators::LfrParams::default(), 5);
        let a = gossip_map(&g, 3, 7);
        let b = gossip_map(&g, 3, 7);
        assert_eq!(a.modules, b.modules);
    }
}
