//! The byte-level transport abstraction under [`crate::Comm`].
//!
//! A [`crate::Comm`] encodes, folds and meters; a [`Transport`] only moves
//! the encoded frames. Two implementations exist: [`crate::MemTransport`]
//! (the ranks of one process, one mailbox each — what [`crate::World`]
//! runs on) and the socket transport of `infomap-transport-socket` (one OS
//! process per rank). The contract is deliberately small:
//!
//! * tagged, selective point-to-point [`Transport::send`] / [`Transport::recv`],
//! * [`Transport::exchange`] — an allgather of one blob per rank, the
//!   primitive every symmetric collective (barrier, allreduce, allgatherv)
//!   lowers onto; folds run *locally* on every rank in rank
//!   order, so IEEE-deterministic reductions are bit-identical over every
//!   transport,
//! * [`Transport::alltoallv`] — the personalized exchange, kept separate so
//!   a transport moves only each pair's bucket instead of replicating the
//!   full matrix.
//!
//! Every operation is fallible: a peer process can die, a deadline can
//! pass, a frame can arrive corrupt. [`TransportError`] carries enough
//! structure (which peer, which collective, how long) for the recovery
//! layer to name the failure in its diagnostics and decide between
//! checkpoint-restart and graceful degradation.

use std::time::Duration;

/// Why a transport operation failed. The recovery layer matches on this to
/// pick between retry (transient), checkpoint-restart (peer loss), and
/// abort-with-diagnostic (exhausted budgets).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// A peer is known dead: its connection closed, or its heartbeats
    /// stopped for longer than the liveness window.
    PeerDead {
        peer: usize,
        /// What revealed the death (`"connection closed"`,
        /// `"heartbeat lapsed 1500ms"`, …).
        detail: String,
    },
    /// A peer returned from its SPMD closure — cleanly, unlike
    /// [`TransportError::PeerDead`] — without sending the frame this
    /// operation waits for. The ranks' programs have diverged.
    PeerFinished { peer: usize },
    /// A deadline passed while waiting on peers that are still alive as
    /// far as heartbeats can tell (e.g. a stalled rank).
    Timeout {
        /// The operation that was blocked (`"exchange seq=42"`).
        op: String,
        /// Ranks that had not contributed when the deadline fired.
        waiting_on: Vec<usize>,
        elapsed: Duration,
    },
    /// A frame failed validation: bad magic, checksum mismatch, truncated
    /// or over-long payload, or an undecodable body.
    FrameCorrupt { peer: usize, detail: String },
    /// The bootstrap handshake failed (listener collision, connect retry
    /// budget exhausted, malformed hello).
    Setup { detail: String },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerDead { peer, detail } => {
                write!(f, "peer rank {peer} dead: {detail}")
            }
            TransportError::PeerFinished { peer } => {
                write!(f, "peer rank {peer} finished without sending this frame")
            }
            TransportError::Timeout {
                op,
                waiting_on,
                elapsed,
            } => write!(
                f,
                "timeout after {}ms in {op}, waiting on ranks {waiting_on:?}",
                elapsed.as_millis()
            ),
            TransportError::FrameCorrupt { peer, detail } => {
                write!(f, "corrupt frame from rank {peer}: {detail}")
            }
            TransportError::Setup { detail } => write!(f, "transport setup failed: {detail}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl TransportError {
    /// The peer this error names, if it names one.
    pub fn peer(&self) -> Option<usize> {
        match self {
            TransportError::PeerDead { peer, .. }
            | TransportError::PeerFinished { peer }
            | TransportError::FrameCorrupt { peer, .. } => Some(*peer),
            TransportError::Timeout { waiting_on, .. } => waiting_on.first().copied(),
            TransportError::Setup { .. } => None,
        }
    }
}

/// The panic payload a [`crate::Comm`] unwinds with when its transport
/// fails. Whoever runs the rank catches the unwind and downcasts to this:
/// [`crate::World`] to tell a rank that fell with a dead peer
/// ([`TransportError::PeerDead`]) from the rank that died, a process-level
/// rank runner to write a diagnostic naming the blocked operation (phase +
/// collective kind) and the peer.
#[derive(Clone, Debug)]
pub struct TransportFault {
    /// The rank that observed the failure.
    pub rank: usize,
    /// The communicator operation that was blocked (`"allgatherv"`,
    /// `"send"`, …).
    pub op: String,
    pub error: TransportError,
}

impl std::fmt::Display for TransportFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transport fault: rank {} blocked in {}: {}",
            self.rank, self.op, self.error
        )
    }
}

impl std::error::Error for TransportFault {}

/// A byte-moving substrate connecting `size` SPMD ranks.
///
/// Implementations must deliver frames reliably and in order per
/// `(src, dest)` pair, or fail with a [`TransportError`] — never silently
/// drop. All operations are driven from the rank's single SPMD thread, so
/// `&mut self` suffices.
pub trait Transport: Send {
    /// This rank's id, `0 <= rank() < size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// Buffered point-to-point send of one tagged frame.
    fn send(&mut self, dest: usize, tag: u64, frame: Vec<u8>) -> Result<(), TransportError>;

    /// Blocking selective receive: the next frame from `src` carrying
    /// `tag`. Frames from other `(src, tag)` pairs arriving in the
    /// meantime must be stashed for later receives.
    fn recv(&mut self, src: usize, tag: u64) -> Result<Vec<u8>, TransportError>;

    /// Allgather of blobs: contribute `mine`, return every rank's
    /// contribution indexed by rank (own blob included). `seq` is the
    /// collective sequence number; implementations use it to match
    /// contributions belonging to the same collective across ranks.
    fn exchange(&mut self, seq: u64, mine: Vec<u8>) -> Result<Vec<Vec<u8>>, TransportError>;

    /// Personalized exchange: `outgoing[d]` travels to rank `d`; returns
    /// the frames addressed to this rank, indexed by source (own bucket
    /// passed through untouched).
    fn alltoallv(
        &mut self,
        seq: u64,
        outgoing: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, TransportError>;

    /// Human-readable transport name for diagnostics (`"mem"`, `"uds:<dir>"`).
    fn describe(&self) -> String;

    /// Measured-time counters accumulated so far, if this transport meters
    /// its operations. The default (`None`) keeps transports that do not —
    /// the in-memory one, where nothing crosses a wire — honest instead of
    /// reporting zeros that look like measurements.
    fn metrics(&self) -> Option<TransportMetrics> {
        None
    }
}

/// Wall-clock and wire-volume counters for one operation kind
/// (`"exchange_logp"`, `"p2p_send"`, …). Byte counts are *wire* bytes —
/// payload plus frame header and checksum — so a cost-model fit against
/// them prices what actually crossed the socket.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpMetrics {
    /// Completed operations of this kind.
    pub calls: u64,
    /// Frames this rank wrote for the operation.
    pub frames_sent: u64,
    /// Wire bytes written (header + payload + checksum per frame).
    pub bytes_sent: u64,
    /// Frames consumed to complete the operation.
    pub frames_recv: u64,
    /// Wire bytes consumed.
    pub bytes_recv: u64,
    /// Wall-clock time from operation start to completion, summed over
    /// calls. For collectives this includes the wait for peers, which is
    /// exactly what a makespan model must price.
    pub wall: Duration,
}

/// Per-operation-kind [`OpMetrics`], keyed by a stable snake_case name.
/// A `BTreeMap` so serialized output is deterministically ordered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportMetrics {
    pub ops: std::collections::BTreeMap<String, OpMetrics>,
}

impl TransportMetrics {
    /// Merge `other` into `self` (used to aggregate ranks of a world).
    pub fn absorb(&mut self, other: &TransportMetrics) {
        for (key, m) in &other.ops {
            let slot = self.ops.entry(key.clone()).or_default();
            slot.calls += m.calls;
            slot.frames_sent += m.frames_sent;
            slot.bytes_sent += m.bytes_sent;
            slot.frames_recv += m.frames_recv;
            slot.bytes_recv += m.bytes_recv;
            slot.wall += m.wall;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_structure() {
        let e = TransportError::PeerDead {
            peer: 3,
            detail: "connection closed".into(),
        };
        assert!(e.to_string().contains("rank 3"));
        assert_eq!(e.peer(), Some(3));

        let t = TransportError::Timeout {
            op: "exchange seq=7".into(),
            waiting_on: vec![1, 2],
            elapsed: Duration::from_millis(250),
        };
        assert!(t.to_string().contains("exchange seq=7"));
        assert!(t.to_string().contains("[1, 2]"));
        assert_eq!(t.peer(), Some(1));
    }
}
