//! Per-rank, per-phase counters.
//!
//! The distributed algorithm labels its execution with named phases
//! (`FindBestModule`, `BroadcastDelegates`, `SwapBoundaryInfo`, `Other`, …).
//! All metering — work units, point-to-point bytes/messages, collective
//! participation and volume, wall time — is accumulated into the phase that
//! is active when the event happens, and additionally into a per-rank total.
//! These counters are the raw material of the paper's Figures 8–10.

use std::collections::BTreeMap;
use std::time::Duration;

/// Counters accumulated for one named phase on one rank.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseStats {
    /// Abstract compute units (the algorithms count one unit per edge
    /// relaxation / module update — proportional to the paper's workload
    /// model of "edges per processor").
    pub work_units: u64,
    /// Bytes pushed by this rank through point-to-point sends.
    pub p2p_bytes_sent: u64,
    /// Point-to-point messages sent.
    pub p2p_msgs_sent: u64,
    /// Bytes received through point-to-point receives.
    pub p2p_bytes_recv: u64,
    /// Number of collective operations this rank participated in.
    pub collective_calls: u64,
    /// Bytes this rank contributed to collectives.
    pub collective_bytes: u64,
    /// Bytes this rank *received* from collectives beyond its own
    /// contribution (the fan-in side of an allgather / alltoall).
    /// Metering both directions makes replication visible: an
    /// allgatherv of N records costs every rank ~N records on the receive
    /// side, which is exactly the O(total × p) term the owner-reduced
    /// election removes (DESIGN.md §6.13).
    pub collective_bytes_recv: u64,
    /// Bytes passed through a wire codec (encode side). Priced by
    /// [`crate::CostModel::t_encode`] so the CPU cost of compact encoding
    /// can be modeled honestly.
    pub codec_bytes: u64,
    /// Bytes written to (or read back from) checkpoint storage, priced
    /// separately from network traffic by the cost model.
    pub checkpoint_bytes: u64,
    /// Wall time spent inside the phase (informational only on a
    /// single-core host; modeled time comes from the counters).
    pub wall: Duration,
    /// Number of times the phase was entered.
    pub entries: u64,
}

impl PhaseStats {
    /// Merge another phase record into this one.
    pub fn absorb(&mut self, other: &PhaseStats) {
        self.work_units += other.work_units;
        self.p2p_bytes_sent += other.p2p_bytes_sent;
        self.p2p_msgs_sent += other.p2p_msgs_sent;
        self.p2p_bytes_recv += other.p2p_bytes_recv;
        self.collective_calls += other.collective_calls;
        self.collective_bytes += other.collective_bytes;
        self.collective_bytes_recv += other.collective_bytes_recv;
        self.codec_bytes += other.codec_bytes;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.wall += other.wall;
        self.entries += other.entries;
    }
}

/// Fault events observed on one rank (injected by a
/// [`crate::FaultPlan`]; all zero on a healthy run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Injected crashes (0 or 1 per attempt).
    pub crashes: u64,
    /// Point-to-point messages metered as sent but never delivered.
    pub msgs_dropped: u64,
    /// Messages delivered twice.
    pub msgs_duplicated: u64,
    /// Messages whose delivery was postponed.
    pub msgs_delayed: u64,
    /// Extra work units charged by straggler inflation (already included
    /// in `work_units`; recorded here so the overhead is attributable).
    pub straggler_units: u64,
}

impl FaultStats {
    /// Merge another fault record into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.crashes += other.crashes;
        self.msgs_dropped += other.msgs_dropped;
        self.msgs_duplicated += other.msgs_duplicated;
        self.msgs_delayed += other.msgs_delayed;
        self.straggler_units += other.straggler_units;
    }

    /// Any fault recorded at all?
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }
}

/// All counters for one rank: a total plus one record per named phase.
#[derive(Clone, Debug, Default)]
pub struct RankStats {
    /// Rank id within the world.
    pub rank: usize,
    /// Aggregate over the whole run (including un-phased activity).
    pub total: PhaseStats,
    /// Per-phase records, keyed by phase name, in name order.
    pub phases: BTreeMap<String, PhaseStats>,
    /// Fault events injected on this rank.
    pub faults: FaultStats,
}

impl RankStats {
    pub(crate) fn new(rank: usize) -> Self {
        RankStats {
            rank,
            ..Default::default()
        }
    }

    /// The record for `phase`, created on first use.
    pub fn phase(&self, phase: &str) -> PhaseStats {
        self.phases.get(phase).cloned().unwrap_or_default()
    }

    /// Merge the counters of another record of the *same* rank — used by
    /// retry loops to account every attempt's traffic toward the rank's
    /// total cost.
    pub fn absorb(&mut self, other: &RankStats) {
        debug_assert_eq!(self.rank, other.rank, "absorbing stats across ranks");
        self.total.absorb(&other.total);
        for (name, phase) in &other.phases {
            self.phases.entry(name.clone()).or_default().absorb(phase);
        }
        self.faults.absorb(&other.faults);
    }
}
