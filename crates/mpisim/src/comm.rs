//! The per-rank communicator: point-to-point messaging, collectives,
//! and phase-scoped metering.
//!
//! A [`Comm`] fronts one of two substrates. The default is the in-process
//! *thread* backend: typed payloads move through shared memory (crossbeam
//! mailboxes and a rendezvous cell) without serialization, and collective
//! folds run once on the last-arriving rank. The alternative is a *byte*
//! backend behind the [`Transport`] trait: payloads are encoded with
//! [`WirePayload`], collectives lower onto a blob allgather (or a true
//! personalized exchange), and every rank folds the decoded contributions
//! locally **in rank order** — the same order the rendezvous presents them
//! — so IEEE-deterministic reductions produce bit-identical results on
//! both backends.
//!
//! Metering is computed from the *typed* payload sizes before any
//! encoding, with identical formulas on both backends, so modeled
//! makespans are backend-invariant; only wall-clock differs. That is what
//! lets `BENCH_transport.json` compare modeled time against reality.

use std::any::Any;
use std::collections::VecDeque;
use std::mem::size_of;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{Receiver, Sender};

use crate::fault::{FaultState, MessageFate};
use crate::payload::WirePayload;
use crate::rendezvous::{Rendezvous, ScheduleStamp};
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

pub(crate) struct Envelope {
    pub src: usize,
    pub tag: u64,
    pub payload: Box<dyn Any + Send>,
    pub bytes: u64,
}

/// Shared, immutable world plumbing every rank holds a handle to.
pub(crate) struct Fabric {
    pub nranks: usize,
    pub mailboxes: Vec<Sender<Envelope>>,
    pub rendezvous: Rendezvous,
    /// Fault-injection bookkeeping; `None` on a healthy world, in which
    /// case every fault hook is a no-op and the metered counters are
    /// bit-identical to a build without fault support.
    pub fault: Option<Arc<FaultState>>,
    /// Verify the collective schedule at every rendezvous (the dynamic
    /// counterpart of spmd-lint rule R1). Defaults to on in debug builds;
    /// see [`crate::World::check_schedule`].
    pub check_schedule: bool,
}

/// The in-process substrate: crossbeam mailboxes plus the rendezvous cell.
struct ThreadBackend {
    fabric: Arc<Fabric>,
    inbox: Receiver<Envelope>,
    /// Messages received but not yet matched by a selective `recv`.
    stash: VecDeque<Envelope>,
    /// Fault-delayed outgoing messages: `(release_event, dest, envelope)`,
    /// flushed whenever this rank's event counter passes `release_event`
    /// (and unconditionally when the rank finishes).
    delayed: Vec<(u64, usize, Envelope)>,
}

impl ThreadBackend {
    /// Push an envelope into `dest`'s mailbox. A send can only fail when
    /// the destination's receiver is gone, i.e. the destination rank died;
    /// in that case the world is (or is about to be) poisoned, so unwind
    /// with the standard poisoned-world diagnostic instead of masking the
    /// original failure with a send error.
    fn deliver(&self, dest: usize, env: Envelope) {
        if self.mailboxes_send(dest, env).is_err() {
            panic!("world poisoned: another rank panicked");
        }
    }

    fn mailboxes_send(&self, dest: usize, env: Envelope) -> Result<(), ()> {
        self.fabric.mailboxes[dest].send(env).map_err(|_| ())
    }
}

/// A byte-moving substrate behind the [`Transport`] trait.
struct ByteBackend {
    transport: Box<dyn Transport>,
    /// Collective sequence number for matching exchange/alltoallv calls
    /// across ranks (independent of the schedule checker's `sched_seq`,
    /// which only advances when checking is on).
    coll_seq: u64,
}

/// A rank's communicator. One instance per rank; not shareable across ranks.
///
/// All operations are *metered*: bytes, message counts, collective calls and
/// caller-declared work units accumulate into the currently active phase
/// (see [`Comm::phase`]) and into the rank total. The final counters are
/// returned to the caller of [`crate::World::run`] in the
/// [`crate::WorldReport`], or taken with [`Comm::finish`] on a
/// transport-backed communicator.
pub struct Comm {
    rank: usize,
    nranks: usize,
    backend: Backend,
    pub(crate) stats: RankStats,
    /// Stack of active phase names; metering charges the innermost.
    phase_stack: Vec<(String, Instant)>,
    /// Compute-inflation factor injected by a straggler fault (1 = none).
    work_scale: u64,
    /// Collectives issued so far (the schedule checker's sequence number).
    sched_seq: u64,
    /// Running hash of this rank's `(kind, seq)` collective schedule.
    sched_hash: u64,
    /// Verify the collective schedule on every collective.
    check_schedule: bool,
    /// When enabled, every stamped collective kind is appended — the
    /// observed word the static schedule automaton is checked against.
    sched_trace: Option<Vec<&'static str>>,
    /// Live conformance: a matcher over the `--emit-schedule` automaton,
    /// stepped on every collective; a dead-end panics at the divergent
    /// stamp instead of at trace-compare time.
    sched_matcher: Option<crate::schedule::Matcher>,
}

enum Backend {
    Thread(ThreadBackend),
    Byte(ByteBackend),
}

/// Charge a metering closure to the rank total plus the innermost phase.
/// Free function so backend match arms can charge while the backend is
/// mutably borrowed.
fn charge_into(
    stats: &mut RankStats,
    phase_stack: &[(String, Instant)],
    f: impl Fn(&mut crate::PhaseStats),
) {
    f(&mut stats.total);
    if let Some((name, _)) = phase_stack.last() {
        let entry = stats.phases.entry(name.clone()).or_default();
        f(entry);
    }
}

impl Comm {
    pub(crate) fn new(rank: usize, fabric: Arc<Fabric>, inbox: Receiver<Envelope>) -> Self {
        let work_scale = fabric
            .fault
            .as_ref()
            .map(|f| f.straggler_factor(rank))
            .unwrap_or(1);
        let check_schedule = fabric.check_schedule;
        Comm {
            rank,
            nranks: fabric.nranks,
            backend: Backend::Thread(ThreadBackend {
                fabric,
                inbox,
                stash: VecDeque::new(),
                delayed: Vec::new(),
            }),
            stats: RankStats::new(rank),
            phase_stack: Vec::new(),
            work_scale,
            sched_seq: 0,
            sched_hash: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
            check_schedule,
            sched_trace: None,
            sched_matcher: None,
        }
    }

    /// A communicator running over a byte-level [`Transport`] — typically
    /// one OS process per rank. Fault injection does not apply (failures
    /// are real here); schedule checking defaults to on in debug builds,
    /// like the thread world.
    pub fn over_transport(transport: Box<dyn Transport>) -> Self {
        let rank = transport.rank();
        let nranks = transport.size();
        Comm {
            rank,
            nranks,
            backend: Backend::Byte(ByteBackend {
                transport,
                coll_seq: 0,
            }),
            stats: RankStats::new(rank),
            phase_stack: Vec::new(),
            work_scale: 1,
            sched_seq: 0,
            sched_hash: 0xcbf2_9ce4_8422_2325,
            check_schedule: cfg!(debug_assertions),
            sched_trace: None,
            sched_matcher: None,
        }
    }

    /// Measured-time counters from the underlying byte transport, if this
    /// communicator runs over one that meters itself. `None` for the
    /// thread world — it moves no bytes, so there is nothing to measure.
    pub fn transport_metrics(&self) -> Option<crate::TransportMetrics> {
        match &self.backend {
            Backend::Byte(b) => b.transport.metrics(),
            Backend::Thread(_) => None,
        }
    }

    /// Toggle collective-schedule verification (builder-style, for
    /// transport-backed communicators).
    pub fn with_schedule_check(mut self, on: bool) -> Self {
        self.check_schedule = on;
        self
    }

    /// Start recording this rank's collective-kind trace — the observed
    /// word checked against the static schedule automaton
    /// ([`crate::schedule::Matcher::accepts`]). Callable from inside a
    /// rank closure; recording is independent of `check_schedule`.
    pub fn enable_schedule_trace(&mut self) {
        if self.sched_trace.is_none() {
            self.sched_trace = Some(Vec::new());
        }
    }

    /// Take the recorded trace (`None` if recording was never enabled).
    pub fn take_schedule_trace(&mut self) -> Option<Vec<&'static str>> {
        self.sched_trace.take()
    }

    /// Install a live static-schedule conformance matcher: every
    /// subsequent collective steps the automaton, and a collective the
    /// static schedule cannot explain panics at its call site rather
    /// than at trace-compare time.
    pub fn install_schedule_matcher(&mut self, m: crate::schedule::Matcher) {
        self.sched_matcher = Some(m);
    }

    /// Remove the live matcher, returning it so the caller can check
    /// end-of-schedule acceptance.
    pub fn take_schedule_matcher(&mut self) -> Option<crate::schedule::Matcher> {
        self.sched_matcher.take()
    }

    /// Tear down a transport-backed communicator and take its counters.
    pub fn finish(mut self) -> RankStats {
        std::mem::take(&mut self.stats)
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
    /// event counter, releases fault-delayed messages that have come due,
    /// and fires any crash scheduled for this event. Transport backends
    /// skip it entirely — their failures are real, not injected.
    fn comm_event(&mut self) {
        let Backend::Thread(t) = &mut self.backend else {
            return;
        };
        let Some(fault) = t.fabric.fault.clone() else {
            return;
        };
        let event = fault.next_event(self.rank);
        if !t.delayed.is_empty() {
            let mut keep = Vec::new();
            for (release, dest, env) in std::mem::take(&mut t.delayed) {
                if release <= event {
                    t.deliver(dest, env);
                } else {
                    keep.push((release, dest, env));
                }
            }
            t.delayed = keep;
        }
        if fault.crash_due(self.rank, event) {
            self.stats.faults.crashes += 1;
            panic!(
                "fault injected: rank {} crashed at comm event {}",
                self.rank, event
            );
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

    fn charge(&mut self, f: impl Fn(&mut crate::PhaseStats)) {
        charge_into(&mut self.stats, &self.phase_stack, f);
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
        self.phase_stack.push((name.to_string(), Instant::now()));
        {
            let entry = self.stats.phases.entry(name.to_string()).or_default();
            entry.entries += 1;
        }
        let out = body(self);
        let (name, started) = self.phase_stack.pop().expect("phase stack underflow");
        let elapsed = started.elapsed();
        let entry = self.stats.phases.entry(name).or_default();
        entry.wall += elapsed;
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
        let bytes = (payload.len() * size_of::<T>()) as u64;
        assert!(dest < self.size(), "send to rank {dest} out of range");
        self.comm_event();
        self.charge(|s| {
            s.p2p_bytes_sent += bytes;
            s.p2p_msgs_sent += 1;
        });
        let me = self.rank;
        let Comm {
            backend,
            stats,
            phase_stack,
            ..
        } = self;
        match backend {
            Backend::Thread(t) => {
                let fate = match &t.fabric.fault {
                    Some(f) => f.message_fate(me, dest),
                    None => MessageFate::Deliver,
                };
                match fate {
                    MessageFate::Deliver => {
                        let env = Envelope {
                            src: me,
                            tag,
                            payload: Box::new(payload),
                            bytes,
                        };
                        t.deliver(dest, env);
                    }
                    MessageFate::Drop => {
                        // Metered as sent (the sender cannot tell), never
                        // delivered.
                        stats.faults.msgs_dropped += 1;
                    }
                    MessageFate::Duplicate => {
                        // The duplicate is real traffic: meter it too.
                        stats.faults.msgs_duplicated += 1;
                        charge_into(stats, phase_stack, |s| {
                            s.p2p_bytes_sent += bytes;
                            s.p2p_msgs_sent += 1;
                        });
                        let copy = Envelope {
                            src: me,
                            tag,
                            payload: Box::new(payload.clone()),
                            bytes,
                        };
                        let env = Envelope {
                            src: me,
                            tag,
                            payload: Box::new(payload),
                            bytes,
                        };
                        t.deliver(dest, env);
                        t.deliver(dest, copy);
                    }
                    MessageFate::Delay { events } => {
                        stats.faults.msgs_delayed += 1;
                        let release = t
                            .fabric
                            .fault
                            .as_ref()
                            .map(|f| f.current_event(me) + events)
                            .unwrap_or(0);
                        let env = Envelope {
                            src: me,
                            tag,
                            payload: Box::new(payload),
                            bytes,
                        };
                        t.delayed.push((release, dest, env));
                    }
                }
            }
            Backend::Byte(b) => {
                // Frame layout: metered size (so the receiver charges the
                // identical amount) followed by the encoded payload.
                let mut frame = Vec::with_capacity(8 + payload.len() * size_of::<T>());
                bytes.encode_into(&mut frame);
                payload.encode_into(&mut frame);
                if let Err(error) = b.transport.send(dest, tag, frame) {
                    transport_fail(me, "send", error);
                }
            }
        }
    }

    /// [`Comm::send`] from a borrowed staging buffer: the fabric takes
    /// ownership of a copy (as MPI's internal buffering of a non-blocking
    /// send would), while the caller's buffer keeps its capacity for
    /// reuse. Metering is identical to `send`.
    pub fn send_slice<T: Clone + Send + WirePayload + 'static>(
        &mut self,
        dest: usize,
        tag: u64,
        payload: &[T],
    ) {
        self.send(dest, tag, payload.to_vec());
    }

    /// Blocking selective receive: the next message from `src` with `tag`.
    ///
    /// Messages from other (src, tag) pairs that arrive in the meantime are
    /// stashed and delivered to later matching receives, so receive order
    /// between distinct peers does not matter — as with MPI tags.
    pub fn recv<T: Send + WirePayload + 'static>(&mut self, src: usize, tag: u64) -> Vec<T> {
        self.comm_event();
        let me = self.rank;
        let Comm {
            backend,
            stats,
            phase_stack,
            ..
        } = self;
        match backend {
            Backend::Thread(t) => {
                // First look in the stash.
                if let Some(pos) = t.stash.iter().position(|e| e.src == src && e.tag == tag) {
                    let env = t.stash.remove(pos).unwrap();
                    return open::<T>(stats, phase_stack, env);
                }
                // With a fault plan, a dropped message must not hang the
                // world: starve out and fail the rank so the driver can
                // retry the round.
                let starvation = t
                    .fabric
                    .fault
                    .as_ref()
                    .map(|f| std::time::Duration::from_millis(f.plan().hang_timeout_ms));
                let started = Instant::now();
                loop {
                    match t.inbox.recv_timeout(std::time::Duration::from_millis(100)) {
                        Ok(env) => {
                            if env.src == src && env.tag == tag {
                                return open::<T>(stats, phase_stack, env);
                            }
                            t.stash.push_back(env);
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                            // A peer that died can never send; fail fast
                            // instead of blocking the whole world.
                            if t.fabric.rendezvous.is_poisoned() {
                                panic!("world poisoned: another rank panicked");
                            }
                            if let Some(limit) = starvation {
                                if started.elapsed() >= limit {
                                    panic!(
                                        "fault injected: rank {me} receive starved (src {src}, tag {tag:#x})",
                                    );
                                }
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                            panic!("all senders dropped while a receive was pending");
                        }
                    }
                }
            }
            Backend::Byte(b) => {
                let frame = match b.transport.recv(src, tag) {
                    Ok(f) => f,
                    Err(error) => transport_fail(me, "recv", error),
                };
                let mut cursor = &frame[..];
                let (bytes, payload) = match (|| {
                    let bytes = u64::decode_from(&mut cursor)?;
                    let payload = Vec::<T>::decode_from(&mut cursor)?;
                    Ok::<_, crate::payload::WireDecodeError>((bytes, payload))
                })() {
                    Ok(v) if cursor.is_empty() => v,
                    _ => transport_fail(
                        me,
                        "recv",
                        TransportError::FrameCorrupt {
                            peer: src,
                            detail: format!("undecodable p2p payload (tag {tag:#x})"),
                        },
                    ),
                };
                charge_into(stats, phase_stack, |s| s.p2p_bytes_recv += bytes);
                payload
            }
        }
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Advance the schedule checker and produce this collective's stamp.
    fn stamp(
        &mut self,
        kind: &'static str,
        site: &'static std::panic::Location<'static>,
    ) -> Option<ScheduleStamp> {
        if let Some(trace) = &mut self.sched_trace {
            trace.push(kind);
        }
        if let Some(m) = &mut self.sched_matcher {
            if !m.step(kind) {
                panic!(
                    "schedule conformance: rank {} issued {kind} as collective #{} \
                     but no path of the static schedule automaton explains it \
                     (issued at {site})",
                    self.rank,
                    m.consumed() - 1,
                );
            }
        }
        if !self.check_schedule {
            return None;
        }
        let seq = self.sched_seq;
        self.sched_seq += 1;
        self.sched_hash = schedule_mix(self.sched_hash, kind, seq);
        Some(ScheduleStamp {
            kind,
            seq,
            history: self.sched_hash,
            site,
        })
    }

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
        let site = std::panic::Location::caller();
        self.comm_event();
        self.charge(|s| {
            s.collective_calls += 1;
            s.collective_bytes += bytes;
        });
        let stamp = self.stamp(kind, site);
        let me = self.rank;
        match &mut self.backend {
            Backend::Thread(t) => t
                .fabric
                .rendezvous
                .exchange(me, contribution, stamp, combine),
            Backend::Byte(b) => {
                let seq = b.coll_seq;
                b.coll_seq += 1;
                // The frame leads with the schedule history hash (0 when
                // checking is off) so divergent schedules are caught at
                // the first collective where they differ, naming both
                // ranks — the byte-path counterpart of the rendezvous
                // checker.
                let history = stamp.as_ref().map(|s| s.history).unwrap_or(0);
                let mut frame = Vec::new();
                history.encode_into(&mut frame);
                contribution.encode_into(&mut frame);
                let parts = match b.transport.exchange(seq, frame) {
                    Ok(p) => p,
                    Err(error) => transport_fail(me, kind, error),
                };
                let mut values = Vec::with_capacity(parts.len());
                for (src, part) in parts.into_iter().enumerate() {
                    let mut cursor = &part[..];
                    let theirs = match u64::decode_from(&mut cursor) {
                        Ok(h) => h,
                        Err(_) => transport_fail(
                            me,
                            kind,
                            TransportError::FrameCorrupt {
                                peer: src,
                                detail: format!("truncated collective header (seq {seq})"),
                            },
                        ),
                    };
                    if theirs != history {
                        panic!(
                            "collective schedule mismatch: rank {me} issued {kind} #{} \
                             (history {history:#018x}) but rank {src} sent history \
                             {theirs:#018x} on the same slot — the SPMD ranks have \
                             diverged (issued at {site})",
                            seq
                        );
                    }
                    match T::decode_from_exact_one(&mut cursor) {
                        Ok(v) => values.push(v),
                        Err(detail) => transport_fail(
                            me,
                            kind,
                            TransportError::FrameCorrupt { peer: src, detail },
                        ),
                    }
                }
                Arc::new(combine(values))
            }
        }
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
        assert_eq!(
            outgoing.len(),
            self.size(),
            "alltoallv needs one bucket per rank"
        );
        let per = size_of::<T>() as u64;
        let bytes: u64 = outgoing.iter().map(|b| b.len() as u64 * per).sum();
        let me = self.rank;
        let incoming: Vec<Vec<T>> = if self.is_thread() {
            let matrix = self.collective("alltoallv", bytes, outgoing, |rows| rows);
            matrix.iter().map(|row| row[me].clone()).collect()
        } else {
            self.byte_alltoallv("alltoallv", bytes, outgoing, None::<()>)
                .0
        };
        let recv: u64 = incoming
            .iter()
            .enumerate()
            .filter(|(src, _)| *src != me)
            .map(|(_, b)| b.len() as u64 * per)
            .sum();
        self.charge(|s| s.collective_bytes_recv += recv);
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
        assert_eq!(
            outgoing.len(),
            self.size(),
            "alltoallv needs one bucket per rank"
        );
        let bytes: u64 = outgoing
            .iter()
            .map(|b| (b.len() * size_of::<T>()) as u64)
            .sum::<u64>()
            + size_of::<U>() as u64;
        let me = self.rank;
        let (incoming, folded): (Vec<Vec<T>>, R) = if self.is_thread() {
            let shared = self.collective(
                "alltoallv_reduce",
                bytes,
                (outgoing, partial),
                move |rows| {
                    let (mats, parts): (Vec<Vec<Vec<T>>>, Vec<U>) = rows.into_iter().unzip();
                    (mats, fold(parts))
                },
            );
            let incoming = shared.0.iter().map(|row| row[me].clone()).collect();
            (incoming, shared.1.clone())
        } else {
            let (incoming, partials) =
                self.byte_alltoallv("alltoallv_reduce", bytes, outgoing, Some(partial));
            let parts = partials.expect("byte alltoallv with partial returns partials");
            (incoming, fold(parts))
        };
        let recv: u64 = incoming
            .iter()
            .enumerate()
            .filter(|(src, _)| *src != me)
            .map(|(_, b)| (b.len() * size_of::<T>()) as u64)
            .sum();
        self.charge(|s| s.collective_bytes_recv += recv);
        (incoming, folded)
    }

    fn is_thread(&self) -> bool {
        matches!(self.backend, Backend::Thread(_))
    }

    /// Byte-backend personalized exchange, optionally piggybacking one
    /// reduce contribution to every destination (the fused
    /// `alltoallv_reduce`: each rank then holds all p partials and folds
    /// them locally in rank order). Charges the collective call + bytes;
    /// the caller charges the receive side with its own formula.
    #[track_caller]
    fn byte_alltoallv<T, U>(
        &mut self,
        kind: &'static str,
        bytes: u64,
        outgoing: Vec<Vec<T>>,
        partial: Option<U>,
    ) -> (Vec<Vec<T>>, Option<Vec<U>>)
    where
        T: WirePayload,
        U: WirePayload,
    {
        let site = std::panic::Location::caller();
        self.comm_event();
        self.charge(|s| {
            s.collective_calls += 1;
            s.collective_bytes += bytes;
        });
        let stamp = self.stamp(kind, site);
        let history = stamp.as_ref().map(|s| s.history).unwrap_or(0);
        let me = self.rank;
        let Backend::Byte(b) = &mut self.backend else {
            unreachable!("byte_alltoallv on a thread backend");
        };
        let seq = b.coll_seq;
        b.coll_seq += 1;
        let frames: Vec<Vec<u8>> = outgoing
            .iter()
            .map(|bucket| {
                let mut frame = Vec::new();
                history.encode_into(&mut frame);
                partial.encode_into(&mut frame);
                bucket.encode_into(&mut frame);
                frame
            })
            .collect();
        let rows = match b.transport.alltoallv(seq, frames) {
            Ok(r) => r,
            Err(error) => transport_fail(me, kind, error),
        };
        let mut incoming = Vec::with_capacity(rows.len());
        let mut partials = partial.as_ref().map(|_| Vec::with_capacity(rows.len()));
        for (src, row) in rows.into_iter().enumerate() {
            let mut cursor = &row[..];
            let decoded = (|| {
                let theirs = u64::decode_from(&mut cursor)
                    .map_err(|_| format!("truncated alltoallv header (seq {seq})"))?;
                if theirs != history {
                    return Err(format!(
                        "schedule mismatch: mine {history:#018x} theirs {theirs:#018x}"
                    ));
                }
                let part = Option::<U>::decode_from(&mut cursor)
                    .map_err(|e| format!("alltoallv partial: {e}"))?;
                let bucket = Vec::<T>::decode_from(&mut cursor)
                    .map_err(|e| format!("alltoallv bucket: {e}"))?;
                if !cursor.is_empty() {
                    return Err("trailing bytes in alltoallv frame".to_string());
                }
                Ok((part, bucket))
            })();
            match decoded {
                Ok((part, bucket)) => {
                    if let (Some(ps), Some(p)) = (&mut partials, part) {
                        ps.push(p);
                    }
                    incoming.push(bucket);
                }
                Err(detail) => {
                    transport_fail(me, kind, TransportError::FrameCorrupt { peer: src, detail })
                }
            }
        }
        if let Some(ps) = &partials {
            assert_eq!(
                ps.len(),
                incoming.len(),
                "fused {kind} lost a reduce contribution (issued at {site})"
            );
        }
        (incoming, partials)
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

/// Decode one message payload from the stash-side charge point.
fn open<T: Send + 'static>(
    stats: &mut RankStats,
    phase_stack: &[(String, Instant)],
    env: Envelope,
) -> Vec<T> {
    let bytes = env.bytes;
    charge_into(stats, phase_stack, |s| s.p2p_bytes_recv += bytes);
    *env.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
        panic!(
            "message type mismatch on recv (src {}, tag {})",
            env.src, env.tag
        )
    })
}

/// Unwind with a structured transport failure. The payload is a
/// [`TransportFault`] so a process-level rank runner can downcast it and
/// write a diagnostic naming the blocked operation and the peer.
fn transport_fail(rank: usize, op: &str, error: TransportError) -> ! {
    std::panic::panic_any(TransportFault {
        rank,
        op: op.to_string(),
        error,
    });
}

trait DecodeExactOne: Sized {
    fn decode_from_exact_one(cursor: &mut &[u8]) -> Result<Self, String>;
}

impl<T: WirePayload> DecodeExactOne for T {
    fn decode_from_exact_one(cursor: &mut &[u8]) -> Result<Self, String> {
        let v = T::decode_from(cursor).map_err(|e| format!("collective payload: {e}"))?;
        if !cursor.is_empty() {
            return Err("trailing bytes in collective frame".to_string());
        }
        Ok(v)
    }
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
        if let Backend::Thread(t) = &mut self.backend {
            for (_, dest, env) in t.delayed.drain(..) {
                let _ = t.fabric.mailboxes[dest].send(env);
            }
        }
    }
}
