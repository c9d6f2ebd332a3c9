//! Cost model: converts metered counters into modeled runtimes.
//!
//! The paper measures wall-clock seconds on ORNL Titan. On a single-core
//! development host the *measured* wall clock of a 256-thread world says
//! nothing about distributed performance, so the benchmark harness models
//! time from the exact quantities the simulator meters:
//!
//! * compute: `work_units × t_work` (one work unit per edge relaxation —
//!   the same "edges per processor" workload model the paper adopts from
//!   Zeng et al.),
//! * point-to-point: `bytes × t_byte + msgs × t_msg`,
//! * collectives: `calls × t_coll × ⌈log₂ p⌉ + bytes × t_byte`
//!   (tree-structured collectives).
//!
//! Because the algorithm is bulk-synchronous (barriers between phases), the
//! modeled makespan of a phase is the **maximum** modeled time over ranks,
//! and the run makespan is the sum over phases. That is exactly the
//! "communication cost is mostly determined by the slowest part" argument
//! of the paper's §4.2, and it is what makes the imbalance of 1D
//! partitioning visible as a slowdown.
//!
//! The default constants approximate a ~2010s-era HPC interconnect relative
//! to a per-edge flow update; the *shape* of every reproduced figure is
//! insensitive to modest changes of these constants (see the
//! `ablation` benches).

use std::collections::BTreeMap;

use crate::stats::{PhaseStats, RankStats};

/// Linear cost model over the metered counters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Seconds per work unit (per edge relaxation), default 20 ns.
    pub t_work: f64,
    /// Seconds per byte moved point-to-point or in collective payloads,
    /// default 1 ns/B (≈1 GB/s effective).
    pub t_byte: f64,
    /// Seconds of latency per point-to-point message, default 2 µs.
    pub t_msg: f64,
    /// Seconds per collective call per tree level, default 5 µs.
    pub t_coll: f64,
    /// Seconds per byte written to or restored from checkpoint storage,
    /// default 0.5 ns/B (≈2 GB/s aggregate burst-buffer bandwidth). Zero on
    /// fault-free runs since nothing is checkpointed unless enabled.
    pub t_ckpt_byte: f64,
    /// Seconds of CPU per byte passed through a wire codec
    /// ([`PhaseStats::codec_bytes`]). Default 0: encoding is a few shifts
    /// and table-free branches per byte, far below `t_byte`, so the honest
    /// first-order model ignores it — but the term exists so a calibrated
    /// non-zero value (see EXPERIMENTS.md) can price the compact path's CPU
    /// overhead instead of silently assuming compression is free.
    pub t_encode: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            t_work: 20e-9,
            t_byte: 1e-9,
            t_msg: 2e-6,
            t_coll: 5e-6,
            t_ckpt_byte: 0.5e-9,
            t_encode: 0.0,
        }
    }
}

/// Modeled makespan of a run, broken down by phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseBreakdown {
    /// Phase name → modeled seconds (max over ranks).
    pub phases: BTreeMap<String, f64>,
    /// Sum of the phase makespans.
    pub total: f64,
}

impl CostModel {
    /// Modeled seconds a single rank spends in one phase record.
    pub fn phase_time(&self, s: &PhaseStats, nranks: usize) -> f64 {
        let tree_depth = (nranks.max(1) as f64).log2().ceil().max(1.0);
        s.work_units as f64 * self.t_work
            + (s.p2p_bytes_sent + s.p2p_bytes_recv) as f64 * self.t_byte
            + s.p2p_msgs_sent as f64 * self.t_msg
            + s.collective_calls as f64 * self.t_coll * tree_depth
            + (s.collective_bytes + s.collective_bytes_recv) as f64 * self.t_byte
            + s.checkpoint_bytes as f64 * self.t_ckpt_byte
            + s.codec_bytes as f64 * self.t_encode
    }

    /// Modeled total seconds for one rank across the whole run.
    pub fn rank_time(&self, s: &RankStats, nranks: usize) -> f64 {
        self.phase_time(&s.total, nranks)
    }

    /// Modeled makespan per phase: for each phase, the maximum modeled time
    /// over all ranks (bulk-synchronous execution); `total` is the sum over
    /// phases plus the max over ranks of any un-phased residue.
    pub fn makespan(&self, ranks: &[RankStats]) -> PhaseBreakdown {
        let nranks = ranks.len();
        let mut out = PhaseBreakdown::default();
        let mut names: Vec<&str> = Vec::new();
        for r in ranks {
            for name in r.phases.keys() {
                if !names.contains(&name.as_str()) {
                    names.push(name);
                }
            }
        }
        for name in names {
            let worst = ranks
                .iter()
                .map(|r| self.phase_time(&r.phase(name), nranks))
                .fold(0.0, f64::max);
            out.phases.insert(name.to_string(), worst);
            out.total += worst;
        }
        // Activity outside any phase (rank totals minus phase sums).
        let residue = ranks
            .iter()
            .map(|r| {
                let phased: f64 = r.phases.values().map(|p| self.phase_time(p, nranks)).sum();
                (self.phase_time(&r.total, nranks) - phased).max(0.0)
            })
            .fold(0.0, f64::max);
        out.total += residue;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(work: u64, bytes: u64) -> PhaseStats {
        PhaseStats {
            work_units: work,
            p2p_bytes_sent: bytes,
            ..Default::default()
        }
    }

    #[test]
    fn phase_time_is_linear_in_work() {
        let m = CostModel::default();
        let a = m.phase_time(&stats(1000, 0), 4);
        let b = m.phase_time(&stats(2000, 0), 4);
        assert!((b - 2.0 * a).abs() < 1e-12);
    }

    #[test]
    fn makespan_takes_max_over_ranks_per_phase() {
        let m = CostModel {
            t_work: 1.0,
            t_byte: 0.0,
            t_msg: 0.0,
            t_coll: 0.0,
            t_ckpt_byte: 0.0,
            t_encode: 0.0,
        };
        let mut r0 = RankStats::new(0);
        r0.phases.insert("a".into(), stats(10, 0));
        r0.total.absorb(&stats(10, 0));
        let mut r1 = RankStats::new(1);
        r1.phases.insert("a".into(), stats(30, 0));
        r1.total.absorb(&stats(30, 0));
        let bd = m.makespan(&[r0, r1]);
        assert_eq!(bd.phases["a"], 30.0);
        assert_eq!(bd.total, 30.0);
    }

    #[test]
    fn unphased_residue_counts_toward_total() {
        let m = CostModel {
            t_work: 1.0,
            t_byte: 0.0,
            t_msg: 0.0,
            t_coll: 0.0,
            t_ckpt_byte: 0.0,
            t_encode: 0.0,
        };
        let mut r0 = RankStats::new(0);
        r0.phases.insert("a".into(), stats(10, 0));
        r0.total.absorb(&stats(25, 0)); // 15 units outside any phase
        let bd = m.makespan(&[r0]);
        assert_eq!(bd.phases["a"], 10.0);
        assert_eq!(bd.total, 25.0);
    }
}
