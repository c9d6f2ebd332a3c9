//! Configuration of the distributed algorithm.

use infomap_partition::DelegateThreshold;

/// Tunables of [`crate::DistributedInfomap`]. The defaults follow the
/// paper's §4 setup (`d_high` = rank count, rebalancing on, minimum-label
/// tie-break on, full `Module_Info` swapping on).
#[derive(Clone, Copy, Debug)]
pub struct DistributedConfig {
    /// Number of simulated ranks.
    pub nranks: usize,
    /// Delegate degree threshold. The library default is the
    /// scale-adjusted `Auto(4.0)` (`max(p, 4×mean degree)`); the paper's
    /// literal `RankCount` rule is equivalent at the paper's world sizes
    /// and available for fidelity runs.
    pub threshold: DelegateThreshold,
    /// Run the partition-imbalance correction pass of §3.3.
    pub rebalance: bool,
    /// Seed for per-rank sweep-order randomization.
    pub seed: u64,
    /// Minimum-label tie-break against vertex bouncing (§3.4). Disabling
    /// this is the `ablation_bouncing` experiment.
    pub min_label_tiebreak: bool,
    /// Deliver full `Module_Info` records (Algorithm 3): the owner
    /// reduction publishes every module's exact totals to the ranks that
    /// touch it. Disabling degrades to the "naive swap" the paper's §3.4
    /// argues against, boundary IDs only — the `ablation_swap` experiment.
    pub full_module_swap: bool,
    /// Intra-rank worker threads for the local sweep (DESIGN.md §6 note
    /// 16). Each rank's eligible vertices are statically cut into this
    /// many arc-balanced slices, evaluated slice-parallel against the
    /// frozen round-start state, and merged in the one global shuffled
    /// order — so MDL series, moves, and assignments are **bit-identical
    /// for every value**, including 1. Only wall-clock changes.
    pub threads: usize,
    /// Checkpoint/retry policy for fault-tolerant runs.
    pub recovery: RecoveryConfig,
}

/// Checkpoint and retry policy of the fault-tolerant driver
/// ([`crate::DistributedInfomap::run_with_plan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Any value ≥ 1 checkpoints the start of every stage-2 level (see
    /// [`crate::checkpoint`]); `0` (the default) disables checkpointing
    /// entirely, leaving the fault-free execution bit-identical to a build
    /// without it.
    pub checkpoint_every: usize,
    /// How many times a failed attempt may be retried from the last
    /// checkpoint (or from scratch when none was committed yet); see
    /// [`crate::driver::recover`] for what follows when they run out.
    pub max_retries: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_every: 0,
            max_retries: 3,
        }
    }
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            nranks: 4,
            threshold: DelegateThreshold::Auto(4.0),
            rebalance: true,
            seed: 0,
            min_label_tiebreak: true,
            full_module_swap: true,
            threads: 1,
            recovery: RecoveryConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = DistributedConfig::default();
        assert_eq!(c.threshold, DelegateThreshold::Auto(4.0));
        assert!(c.rebalance);
        assert!(c.min_label_tiebreak);
        assert!(c.full_module_swap);
        assert_eq!(c.threads, 1, "thread parallelism is opt-in");
    }

    #[test]
    fn recovery_is_disabled_by_default() {
        let r = DistributedConfig::default().recovery;
        assert_eq!(r.checkpoint_every, 0, "fault-free runs must not checkpoint");
        assert_eq!(r.max_retries, 3);
    }
}
