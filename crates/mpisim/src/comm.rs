//! The per-rank communicator: point-to-point messaging, collectives,
//! and phase-scoped metering.
//!
//! A [`Comm`] runs over one [`Transport`] and lowers every operation one
//! way: the typed payload is encoded with [`WirePayload`], the transport
//! moves the bytes — a blob allgather for the symmetric collectives, a
//! personalized exchange for `alltoallv` — and every rank decodes all p
//! contributions and folds them locally **in rank order**. The fold is the
//! same code on the same bits whichever transport carried them, so an
//! in-process [`crate::World`] (ranks on threads, [`crate::MemTransport`])
//! and a multi-process socket world give bit-identical results.
//!
//! Every collective frame leads with a [`Stamp`]: the sender's running
//! hash of the collectives it has issued, compared on receipt. Ranks that
//! disagree on the schedule fail at the first collective where they
//! differ, with a per-rank `kind #seq at call-site` table built from the
//! stamps. A rank whose peer returned from its SPMD closure without
//! issuing the collective is diagnosed the same way instead of waiting
//! forever.
//!
//! Metering is computed from the *typed* payload sizes before any
//! encoding, so the counters, and the modeled makespans priced from them,
//! do not depend on the transport; only wall-clock does. The `cli` crate's
//! `comm_equivalence` test holds every rank's per-phase counters equal
//! across the in-memory and socket transports.
//!
//! Fault injection ([`crate::FaultPlan`]) acts here, on the boundary to
//! the transport: the event counter and crashes at the head of every
//! operation, message fates on the encoded frame of a `send`.

use std::mem::size_of;
use std::panic::Location;
use std::sync::Arc;
use std::time::Instant;

use crate::fault::{FaultState, MessageFate};
use crate::payload::{decode_str, encode_str, WireDecodeError, WirePayload};
use crate::stats::RankStats;
use crate::transport::{Transport, TransportError, TransportFault};
use crate::wire::WireSized;

/// Reduction operators for the numeric allreduce helpers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

/// A rank's communicator. One instance per rank; not shareable across ranks.
///
/// All operations are *metered*: bytes, message counts, collective calls and
/// caller-declared work units accumulate into the currently active phase
/// (see [`Comm::phase`]) and into the rank total. The final counters are
/// returned to the caller of [`crate::World::run`] in the
/// [`crate::WorldReport`], or taken with [`Comm::finish`] on a communicator
/// built with [`Comm::over_transport`].
pub struct Comm {
    rank: usize,
    nranks: usize,
    transport: Box<dyn Transport>,
    pub(crate) stats: RankStats,
    /// Stack of active phase names; metering charges the innermost.
    phase_stack: Vec<(String, Instant)>,
    /// Fault-injection bookkeeping; `None` on a healthy world, in which
    /// case every fault hook is a no-op and the metered counters are
    /// bit-identical to a build without fault support.
    fault: Option<Arc<FaultState>>,
    /// Fault-delayed outgoing frames: `(release_event, dest, tag, frame)`,
    /// sent once this rank's event counter passes `release_event` (and
    /// unconditionally when the rank finishes).
    delayed: Vec<(u64, usize, u64, Vec<u8>)>,
    /// Compute-inflation factor injected by a straggler fault (1 = none).
    work_scale: u64,
    /// Collectives issued so far: the slot the next one's frames meet in.
    seq: u64,
    /// Running hash of this rank's `(kind, seq)` collective schedule.
    sched_hash: u64,
}

/// What every collective frame leads with. `history` is compared on
/// receipt; `kind` and the call site are read only to word the diagnostic
/// when two ranks' histories differ.
struct Stamp<'a> {
    /// Order-sensitive hash of every `(kind, seq)` the sender has issued,
    /// this collective included.
    history: u64,
    kind: &'a str,
    file: &'a str,
    line: u32,
    column: u32,
}

impl<'a> Stamp<'a> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.history.encode_into(out);
        encode_str(self.kind, out);
        encode_str(self.file, out);
        self.line.encode_into(out);
        self.column.encode_into(out);
    }

    fn decode_from(buf: &mut &'a [u8]) -> Result<Self, WireDecodeError> {
        Ok(Stamp {
            history: u64::decode_from(buf)?,
            kind: decode_str(buf)?,
            file: decode_str(buf)?,
            line: u32::decode_from(buf)?,
            column: u32::decode_from(buf)?,
        })
    }
}

impl Comm {
    /// A communicator over `transport`: a [`crate::MemTransport`] for a
    /// rank on a thread, a socket transport for a rank in its own process.
    pub fn over_transport(transport: Box<dyn Transport>) -> Self {
        let rank = transport.rank();
        let nranks = transport.size();
        Comm {
            rank,
            nranks,
            transport,
            stats: RankStats::new(rank),
            phase_stack: Vec::new(),
            fault: None,
            delayed: Vec::new(),
            work_scale: 1,
            seq: 0,
            sched_hash: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
        }
    }

    /// Put this rank under a fault plan ([`crate::World::fault_plan`]).
    pub(crate) fn with_faults(mut self, fault: Option<Arc<FaultState>>) -> Self {
        self.work_scale = fault.as_ref().map_or(1, |f| f.straggler_factor(self.rank));
        self.fault = fault;
        self
    }

    /// Measured-time counters from the underlying transport, if it meters
    /// itself. `None` for the in-memory transport — nothing crosses a
    /// wire, so there is nothing to measure.
    pub fn transport_metrics(&self) -> Option<crate::TransportMetrics> {
        self.transport.metrics()
    }

    /// Tear down the communicator and take its counters.
    pub fn finish(mut self) -> RankStats {
        self.take_stats()
    }

    /// Take the accumulated counters out (used once, at rank teardown).
    pub(crate) fn take_stats(&mut self) -> RankStats {
        std::mem::take(&mut self.stats)
    }

    // ------------------------------------------------------------------
    // Fault hooks
    // ------------------------------------------------------------------

    /// Metered-operation boundary: every send / recv / collective passes
    /// through here before doing anything else. With no fault plan this is
    /// a single branch. With one, it advances this rank's deterministic
    /// event counter, releases fault-delayed frames that have come due,
    /// and fires any crash scheduled for this event.
    fn comm_event(&mut self) {
        let Some(fault) = self.fault.clone() else {
            return;
        };
        let event = fault.next_event(self.rank);
        if !self.delayed.is_empty() {
            let (due, keep) = std::mem::take(&mut self.delayed)
                .into_iter()
                .partition(|(release, ..)| *release <= event);
            self.delayed = keep;
            for (_, dest, tag, frame) in due {
                self.deliver(dest, tag, frame);
            }
        }
        if fault.crash_due(self.rank, event) {
            self.stats.faults.crashes += 1;
            panic!(
                "fault injected: rank {} crashed at comm event {}",
                self.rank, event
            );
        }
    }

    /// Hand one point-to-point frame to the transport.
    fn deliver(&mut self, dest: usize, tag: u64, frame: Vec<u8>) {
        if let Err(error) = self.transport.send(dest, tag, frame) {
            transport_fail(self.rank, "send", error);
        }
    }

    /// This rank's id, `0 <= rank < size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.nranks
    }

    // ------------------------------------------------------------------
    // Metering
    // ------------------------------------------------------------------

    /// Charge a metering closure to the rank total plus the innermost
    /// phase, whose record [`Comm::phase`] created on entry — so this
    /// allocates nothing.
    fn charge(&mut self, f: impl Fn(&mut crate::PhaseStats)) {
        f(&mut self.stats.total);
        if let Some((name, _)) = self.phase_stack.last() {
            let live = self.stats.phases.get_mut(name.as_str());
            f(live.expect("an active phase has a record"));
        }
    }

    /// Record `units` of abstract compute work. Callers meter **logical**
    /// work — e.g. one unit per arc relaxed while searching for the best
    /// module, regardless of which kernel performs the relaxation — so
    /// modeled runtimes stay comparable across kernel implementations and
    /// only wall-clock reflects constant-factor wins. Straggler faults
    /// inflate the charge; the surplus is recorded separately so modeled
    /// overhead stays attributable.
    pub fn add_work(&mut self, units: u64) {
        let scaled = units.saturating_mul(self.work_scale);
        self.charge(|s| s.work_units += scaled);
        if self.work_scale > 1 {
            self.stats.faults.straggler_units += scaled - units;
        }
    }

    /// Record `bytes` moved to or from checkpoint storage (priced by
    /// [`crate::CostModel::t_ckpt_byte`], separate from network traffic).
    pub fn add_checkpoint_bytes(&mut self, bytes: u64) {
        self.charge(|s| s.checkpoint_bytes += bytes);
    }

    /// Record `bytes` passed through a wire codec (priced by
    /// [`crate::CostModel::t_encode`]; default-0, see EXPERIMENTS.md). The
    /// compact communication path charges every encoded buffer here so its
    /// CPU cost is modelable, not silently free.
    pub fn add_codec_bytes(&mut self, bytes: u64) {
        self.charge(|s| s.codec_bytes += bytes);
    }

    /// Run `body` inside a named phase. Phases nest; metering charges the
    /// innermost phase plus the rank total. Wall time of the phase is also
    /// recorded (informational on a single-core host).
    pub fn phase<R>(&mut self, name: &str, body: impl FnOnce(&mut Comm) -> R) -> R {
        // The stack owns the one `String` an entry builds; the record is
        // keyed by a second one only the first time the phase is seen.
        if let Some(record) = self.stats.phases.get_mut(name) {
            record.entries += 1;
        } else {
            let first = crate::PhaseStats {
                entries: 1,
                ..Default::default()
            };
            self.stats.phases.insert(name.to_string(), first);
        }
        self.phase_stack.push((name.to_string(), Instant::now()));
        let out = body(self);
        let (name, started) = self.phase_stack.pop().expect("phase stack underflow");
        let elapsed = started.elapsed();
        let entry = self.stats.phases.get_mut(name.as_str());
        entry.expect("an active phase has a record").wall += elapsed;
        out
    }

    /// Snapshot of the counters accumulated so far on this rank.
    pub fn stats(&self) -> &RankStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send `payload` to `dest` under `tag`. Non-blocking (buffered).
    ///
    /// Bytes are metered as `payload.len() * size_of::<T>()` — the size of
    /// `T`'s in-memory representation (exact for encoded `u8` packets).
    pub fn send<T: Clone + Send + WirePayload + 'static>(
        &mut self,
        dest: usize,
        tag: u64,
        payload: Vec<T>,
    ) {
        self.send_slice(dest, tag, &payload);
    }

    /// [`Comm::send`] from a borrowed staging buffer: the frame is encoded
    /// straight from the slice (as MPI's internal buffering of a
    /// non-blocking send would copy it), and the caller's buffer keeps its
    /// capacity for reuse. Metering is identical to `send`.
    pub fn send_slice<T: Clone + Send + WirePayload + 'static>(
        &mut self,
        dest: usize,
        tag: u64,
        payload: &[T],
    ) {
        let bytes = std::mem::size_of_val(payload) as u64;
        assert!(dest < self.size(), "send to rank {dest} out of range");
        self.comm_event();
        let sent = |s: &mut crate::PhaseStats| {
            s.p2p_bytes_sent += bytes;
            s.p2p_msgs_sent += 1;
        };
        self.charge(sent);
        // Frame layout: metered size (so the receiver charges the
        // identical amount), then the payload as a `Vec<T>` encodes.
        let mut frame = Vec::with_capacity(16 + bytes as usize);
        bytes.encode_into(&mut frame);
        (payload.len() as u64).encode_into(&mut frame);
        T::encode_slice(payload, &mut frame);
        let (fate, now) = match &self.fault {
            Some(f) => (f.message_fate(self.rank, dest), f.current_event(self.rank)),
            None => (MessageFate::Deliver, 0),
        };
        match fate {
            MessageFate::Deliver => self.deliver(dest, tag, frame),
            MessageFate::Drop => {
                // Metered as sent (the sender cannot tell), never
                // delivered.
                self.stats.faults.msgs_dropped += 1;
            }
            MessageFate::Duplicate => {
                // The duplicate is real traffic: meter it too.
                self.stats.faults.msgs_duplicated += 1;
                self.charge(sent);
                self.deliver(dest, tag, frame.clone());
                self.deliver(dest, tag, frame);
            }
            MessageFate::Delay { events } => {
                self.stats.faults.msgs_delayed += 1;
                self.delayed.push((now + events, dest, tag, frame));
            }
        }
    }

    /// Blocking selective receive: the next message from `src` with `tag`.
    ///
    /// Messages from other (src, tag) pairs that arrive in the meantime are
    /// stashed and delivered to later matching receives, so receive order
    /// between distinct peers does not matter — as with MPI tags.
    pub fn recv<T: Send + WirePayload + 'static>(&mut self, src: usize, tag: u64) -> Vec<T> {
        self.comm_event();
        let me = self.rank;
        let frame = match self.transport.recv(src, tag) {
            Ok(f) => f,
            // With a fault plan, a dropped message must not hang the
            // world: the receive starves out — at the transport's deadline,
            // or at once if the sender has already finished — and the rank
            // fails, so the driver can retry the round.
            Err(TransportError::Timeout { .. } | TransportError::PeerFinished { .. })
                if self.fault.is_some() =>
            {
                panic!("fault injected: rank {me} receive starved (src {src}, tag {tag:#x})")
            }
            Err(error) => transport_fail(me, "recv", error),
        };
        let mut cursor = &frame[..];
        let decoded = u64::decode_from(&mut cursor)
            .and_then(|bytes| Ok((bytes, Vec::<T>::decode_all(cursor)?)));
        let Ok((bytes, payload)) = decoded else {
            transport_fail(
                me,
                "recv",
                TransportError::FrameCorrupt {
                    peer: src,
                    detail: format!("undecodable p2p payload (tag {tag:#x})"),
                },
            )
        };
        self.charge(|s| s.p2p_bytes_recv += bytes);
        payload
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Everything a collective does before its frames move: the fault
    /// hook, the metering and the schedule hash. Returns the slot number
    /// and the head of the frame.
    fn enter(
        &mut self,
        kind: &'static str,
        bytes: u64,
        site: &'static Location<'static>,
    ) -> (u64, Vec<u8>) {
        self.comm_event();
        self.charge(|s| {
            s.collective_calls += 1;
            s.collective_bytes += bytes;
        });
        let seq = self.seq;
        self.seq += 1;
        self.sched_hash = schedule_mix(self.sched_hash, kind, seq);
        let mut head = Vec::new();
        Stamp {
            history: self.sched_hash,
            kind,
            file: site.file(),
            line: site.line(),
            column: site.column(),
        }
        .encode_into(&mut head);
        (seq, head)
    }

    /// A collective's transport call failed. A peer that *finished* without
    /// issuing it is a schedule divergence, worded as one; anything else
    /// unwinds as a [`TransportFault`].
    fn collective_fail(
        &self,
        kind: &'static str,
        seq: u64,
        site: &'static Location<'static>,
        error: TransportError,
    ) -> ! {
        if let TransportError::PeerFinished { peer } = error {
            panic!(
                "collective schedule divergence: rank {} entered {kind} #{seq} at {site}, but \
                 rank(s) {peer} already finished their SPMD closure — this collective can \
                 never complete\n",
                self.rank
            );
        }
        transport_fail(self.rank, kind, error)
    }

    /// Strip the [`Stamp`]s off one collective's frames (one per rank, own
    /// included) and return the bodies, in rank order — after checking that
    /// every rank's schedule history is this rank's. On a mismatch the
    /// ranks disagree on *which* collective slot `seq` is, and decoding the
    /// bodies would at best produce an opaque error (at worst, silently
    /// combine same-typed contributions from different call sites).
    fn open_frames<'a>(
        &self,
        kind: &'static str,
        seq: u64,
        frames: &'a [Vec<u8>],
    ) -> Vec<&'a [u8]> {
        let mut stamps = Vec::with_capacity(frames.len());
        let mut bodies = Vec::with_capacity(frames.len());
        for (src, frame) in frames.iter().enumerate() {
            let mut cursor = &frame[..];
            match Stamp::decode_from(&mut cursor) {
                Ok(stamp) => stamps.push(stamp),
                Err(_) => transport_fail(
                    self.rank,
                    kind,
                    TransportError::FrameCorrupt {
                        peer: src,
                        detail: format!("truncated collective header (seq {seq})"),
                    },
                ),
            }
            bodies.push(cursor);
        }
        if stamps.iter().any(|s| s.history != self.sched_hash) {
            let mut msg =
                format!("collective schedule divergence: ranks disagree on collective #{seq}\n");
            for (rank, s) in stamps.iter().enumerate() {
                msg.push_str(&format!(
                    "  rank {rank}: {} #{seq} (history {:#018x}) at {}:{}:{}\n",
                    s.kind, s.history, s.file, s.line, s.column
                ));
            }
            panic!("{msg}");
        }
        bodies
    }

    /// Decode one rank's part of a collective frame, which must end there.
    fn decode_body<V: WirePayload>(&self, kind: &'static str, src: usize, body: &[u8]) -> V {
        V::decode_all(body).unwrap_or_else(|e| {
            transport_fail(
                self.rank,
                kind,
                TransportError::FrameCorrupt {
                    peer: src,
                    detail: format!("{kind} payload: {e}"),
                },
            )
        })
    }

    /// The symmetric collectives: allgather one encoded contribution per
    /// rank, then fold all p of them, in rank order, on every rank.
    #[track_caller]
    fn collective<T, R, F>(
        &mut self,
        kind: &'static str,
        bytes: u64,
        contribution: T,
        combine: F,
    ) -> Arc<R>
    where
        T: Send + WirePayload + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>) -> R,
    {
        // Capture the user-facing call site before anything can panic
        // (`#[track_caller]` propagates through the public collectives).
        let site = Location::caller();
        let (seq, mut frame) = self.enter(kind, bytes, site);
        contribution.encode_into(&mut frame);
        let frames = match self.transport.exchange(seq, frame) {
            Ok(frames) => frames,
            Err(error) => self.collective_fail(kind, seq, site, error),
        };
        let values = self
            .open_frames(kind, seq, &frames)
            .into_iter()
            .enumerate()
            .map(|(src, body)| self.decode_body(kind, src, body))
            .collect();
        Arc::new(combine(values))
    }

    /// Block until every rank has reached the barrier.
    #[track_caller]
    pub fn barrier(&mut self) {
        self.collective("barrier", 0, (), |_| ());
    }

    /// Allreduce over `f64` values.
    #[track_caller]
    pub fn allreduce_f64(&mut self, value: f64, op: ReduceOp) -> f64 {
        *self.collective(
            "allreduce_f64",
            size_of::<f64>() as u64,
            value,
            move |vs| match op {
                ReduceOp::Sum => vs.iter().sum(),
                ReduceOp::Min => vs.iter().copied().fold(f64::INFINITY, f64::min),
                ReduceOp::Max => vs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            },
        )
    }

    /// Allreduce over `u64` values.
    #[track_caller]
    pub fn allreduce_u64(&mut self, value: u64, op: ReduceOp) -> u64 {
        *self.collective(
            "allreduce_u64",
            size_of::<u64>() as u64,
            value,
            move |vs| match op {
                ReduceOp::Sum => vs.iter().sum(),
                ReduceOp::Min => vs.iter().copied().min().unwrap_or(u64::MAX),
                ReduceOp::Max => vs.iter().copied().max().unwrap_or(0),
            },
        )
    }

    /// Generic allreduce: `fold` combines the per-rank contributions
    /// (provided in rank order) into the shared result.
    #[track_caller]
    pub fn allreduce_with<T, R, F>(&mut self, value: T, fold: F) -> Arc<R>
    where
        T: Send + WirePayload + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>) -> R,
    {
        self.collective("allreduce_with", size_of::<T>() as u64, value, fold)
    }

    /// Gather each rank's vector and hand everyone the concatenation, in
    /// rank order. Mirrors `MPI_Allgatherv`.
    ///
    /// Metering: the contribution is charged to `collective_bytes`, and
    /// everything gathered *from the other ranks* to
    /// `collective_bytes_recv` — an allgatherv replicates the total volume
    /// to every rank, and the receive side is where that O(total × p)
    /// blow-up lives.
    #[track_caller]
    pub fn allgatherv<T: Clone + Send + Sync + WirePayload + 'static>(
        &mut self,
        local: Vec<T>,
    ) -> Arc<Vec<T>> {
        let per = size_of::<T>() as u64;
        let bytes = local.len() as u64 * per;
        let out = self.collective("allgatherv", bytes, local, |parts| {
            let total = parts.iter().map(Vec::len).sum();
            let mut all = Vec::with_capacity(total);
            for part in parts {
                all.extend(part);
            }
            all
        });
        let recv = (out.len() as u64 * per).saturating_sub(bytes);
        self.charge(|s| s.collective_bytes_recv += recv);
        out
    }

    /// Like [`Comm::allgatherv`] but keeps the per-rank structure: everyone
    /// receives `Vec` indexed by source rank. Metering as in `allgatherv`.
    #[track_caller]
    pub fn allgather_parts<T: Clone + Send + Sync + WirePayload + 'static>(
        &mut self,
        local: Vec<T>,
    ) -> Arc<Vec<Vec<T>>> {
        let per = size_of::<T>() as u64;
        let bytes = local.len() as u64 * per;
        let me = self.rank;
        let out = self.collective("allgather_parts", bytes, local, |parts| parts);
        let recv: u64 = out
            .iter()
            .enumerate()
            .filter(|(src, _)| *src != me)
            .map(|(_, part)| part.len() as u64 * per)
            .sum();
        self.charge(|s| s.collective_bytes_recv += recv);
        out
    }

    /// Personalized all-to-all: `outgoing[d]` is delivered to rank `d`;
    /// returns the vector of messages addressed to this rank, indexed by
    /// source rank. Mirrors `MPI_Alltoallv`.
    ///
    /// Metering: outgoing buckets (self-bucket included, as MPI counts it)
    /// to `collective_bytes`; incoming buckets from other ranks to
    /// `collective_bytes_recv`.
    #[track_caller]
    pub fn alltoallv<T: Clone + Send + Sync + WirePayload + 'static>(
        &mut self,
        outgoing: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let bytes = bucket_bytes(&outgoing);
        let (incoming, _) = self.personalized("alltoallv", bytes, outgoing, None::<()>);
        incoming
    }

    /// Personalized all-to-all fused with an allreduce: one collective
    /// call exchanges `outgoing` exactly as [`Comm::alltoallv`] does while
    /// also folding one `partial` per rank — presented to `fold` in rank
    /// order, as [`Comm::allreduce_with`] does — into a shared result.
    ///
    /// Metering: the buckets as in `alltoallv`, plus the reduce payload
    /// charged at its in-memory size with nothing on the receive side —
    /// identical to the standalone `allreduce_with` it replaces (a real
    /// allreduce combines in-network, so its traffic is its contribution,
    /// not p copies). The fusion therefore saves one collective call per
    /// round without hiding bytes.
    #[track_caller]
    pub fn alltoallv_reduce<T, U, R, F>(
        &mut self,
        outgoing: Vec<Vec<T>>,
        partial: U,
        fold: F,
    ) -> (Vec<Vec<T>>, R)
    where
        T: Clone + Send + Sync + WirePayload + 'static,
        U: Send + WirePayload + 'static,
        R: Clone + Send + Sync + 'static,
        F: FnOnce(Vec<U>) -> R + Send + 'static,
    {
        let bytes = bucket_bytes(&outgoing) + size_of::<U>() as u64;
        let (incoming, partials) =
            self.personalized("alltoallv_reduce", bytes, outgoing, Some(partial));
        (incoming, fold(partials))
    }

    /// The personalized exchange behind [`Comm::alltoallv`] and
    /// [`Comm::alltoallv_reduce`]: bucket `d` travels to rank `d` only,
    /// with this rank's reduce contribution (if any) riding on every
    /// frame, so each rank ends up holding all p partials in rank order.
    /// Charges the call, `bytes` sent and the incoming buckets from other
    /// ranks.
    #[track_caller]
    fn personalized<T: WirePayload, U: WirePayload>(
        &mut self,
        kind: &'static str,
        bytes: u64,
        outgoing: Vec<Vec<T>>,
        partial: Option<U>,
    ) -> (Vec<Vec<T>>, Vec<U>) {
        assert_eq!(
            outgoing.len(),
            self.size(),
            "alltoallv needs one bucket per rank"
        );
        let site = Location::caller();
        let (seq, head) = self.enter(kind, bytes, site);
        let frames: Vec<Vec<u8>> = outgoing
            .iter()
            .map(|bucket| {
                let body = std::mem::size_of_val(&bucket[..]) + size_of::<U>() + 16;
                let mut frame = Vec::with_capacity(head.len() + body);
                frame.extend_from_slice(&head);
                partial.encode_into(&mut frame);
                bucket.encode_into(&mut frame);
                frame
            })
            .collect();
        let frames = match self.transport.alltoallv(seq, frames) {
            Ok(frames) => frames,
            Err(error) => self.collective_fail(kind, seq, site, error),
        };
        let (partials, incoming): (Vec<Option<U>>, Vec<Vec<T>>) = self
            .open_frames(kind, seq, &frames)
            .into_iter()
            .enumerate()
            .map(|(src, body)| self.decode_body(kind, src, body))
            .unzip();
        let me = self.rank;
        let recv = bucket_bytes(&incoming) - bucket_bytes(&incoming[me..=me]);
        self.charge(|s| s.collective_bytes_recv += recv);
        (incoming, partials.into_iter().flatten().collect())
    }

    /// Broadcast `value` from `root` to every rank.
    ///
    /// The root's contribution is metered at its actual wire size
    /// ([`WireSized`]), so nested payloads (`Vec`, tuples of `Vec`s, …)
    /// count their contents — mirroring how [`Comm::allgatherv`] meters
    /// element counts rather than container headers.
    #[track_caller]
    pub fn broadcast<T: Clone + Send + Sync + WireSized + WirePayload + 'static>(
        &mut self,
        root: usize,
        value: Option<T>,
    ) -> T {
        assert!(root < self.size());
        if self.rank == root {
            assert!(value.is_some(), "broadcast root must supply a value");
        }
        let bytes = match (&value, self.rank == root) {
            (Some(v), true) => v.wire_bytes(),
            _ => 0,
        };
        let shared = self.collective("broadcast", bytes, value, move |mut vs| {
            vs.swap_remove(root)
                .expect("broadcast root supplied no value")
        });
        if self.rank != root {
            let recv = shared.wire_bytes();
            self.charge(|s| s.collective_bytes_recv += recv);
        }
        (*shared).clone()
    }
}

/// Metered size of a run of per-rank buckets.
fn bucket_bytes<T>(buckets: &[Vec<T>]) -> u64 {
    buckets
        .iter()
        .map(|b| (b.len() * size_of::<T>()) as u64)
        .sum()
}

/// Unwind with a structured transport failure. The payload is a
/// [`TransportFault`] so whoever runs the rank — [`crate::World`], or a
/// process-level rank runner — can downcast it: to tell a rank that fell
/// with a dead peer from the rank that died, and to write a diagnostic
/// naming the blocked operation and the peer.
fn transport_fail(rank: usize, op: &str, error: TransportError) -> ! {
    std::panic::panic_any(TransportFault {
        rank,
        op: op.to_string(),
        error,
    });
}

/// One FNV-1a-style step folding `(kind, seq)` into the schedule hash.
fn schedule_mix(mut h: u64, kind: &str, seq: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for b in kind.as_bytes() {
        h = (h ^ *b as u64).wrapping_mul(PRIME);
    }
    for b in seq.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h
}

impl Drop for Comm {
    fn drop(&mut self) {
        // Flush fault-delayed messages whose release never came: delivery
        // was postponed, not cancelled. Peers may already be gone (rank
        // teardown, panics) — then the message is simply lost.
        for (_, dest, tag, frame) in self.delayed.drain(..) {
            let _ = self.transport.send(dest, tag, frame);
        }
    }
}
