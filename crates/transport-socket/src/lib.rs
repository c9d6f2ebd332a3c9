//! # infomap-transport-socket — a real multi-process backend for `Comm`
//!
//! Implements [`infomap_mpisim::Transport`] over Unix-domain or local TCP
//! sockets, one OS process per rank. Where the in-process thread world can
//! only *simulate* failures, this backend faces genuine ones — SIGKILLed
//! peers, torn writes, stalled processes — so every operation is bounded
//! and named:
//!
//! * **Framing**: all traffic travels in length-prefixed, checksummed
//!   frames ([`frame`]); torn writes surface as incomplete reads (retried)
//!   and corruption as `TransportError::FrameCorrupt`, never as garbage
//!   payloads.
//! * **Bootstrap**: every rank binds a listener, dials every lower rank
//!   (with exponential backoff while peers are still starting), identifies
//!   itself with a `Hello` frame, then runs a rank-0-coordinated
//!   `Ready`/`Go` handshake so no rank starts computing before the mesh is
//!   complete.
//! * **Liveness**: a heartbeat thread beacons every interval; per-peer
//!   reader threads stamp a last-seen clock on every frame. A peer whose
//!   connection closes or whose beacons lapse past the timeout window is
//!   declared dead *by name* (`TransportError::PeerDead`).
//! * **Deadlines**: every receive and collective carries a deadline; on
//!   expiry the error names the operation and the ranks still missing
//!   (`TransportError::Timeout`), so a hung collective can never hang the
//!   job.
//! * **Bounded reconnect**: transient send failures retry with exponential
//!   backoff and a bounded redial before declaring the peer dead.
//!
//! The recovery story on top (round-boundary checkpoint/restart, graceful
//! degradation with per-rank diagnostics) lives in the driver and the
//! `dinfomap launch` process launcher; this crate's job is to turn messy
//! OS failures into structured, attributable errors.

#![forbid(unsafe_code)]

pub mod collectives;
pub mod frame;

use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use frame::{Decoded, Frame, FrameKind, FrameReader};
use infomap_mpisim::{Transport, TransportError, TransportMetrics};

/// Where the mesh lives.
#[derive(Clone, Debug)]
pub enum Endpoint {
    /// Unix-domain sockets `<dir>/rank-<r>.sock` (the default: no port
    /// allocation, cleaned up with the directory).
    Uds { dir: PathBuf },
    /// Loopback TCP, rank `r` listening on `base_port + r`.
    Tcp { base_port: u16 },
}

impl Endpoint {
    fn describe(&self) -> String {
        match self {
            Endpoint::Uds { dir } => format!("uds:{}", dir.display()),
            Endpoint::Tcp { base_port } => format!("tcp:127.0.0.1:{base_port}+r"),
        }
    }
}

/// Tuning knobs for the robustness layer. The defaults suit tests and
/// local runs; production-sized graphs want a larger `timeout`.
#[derive(Clone, Debug)]
pub struct SocketConfig {
    pub endpoint: Endpoint,
    /// Deadline for every receive/collective AND the liveness window: a
    /// peer silent for longer is declared dead.
    pub timeout: Duration,
    /// Heartbeat beacon interval; must be well under `timeout` (a quarter
    /// of it is a good ratio).
    pub heartbeat: Duration,
    /// Redial attempts during bootstrap and on transient send failures.
    pub connect_retries: u32,
    /// Base of the exponential backoff between redials (doubles per
    /// attempt).
    pub connect_backoff: Duration,
    /// Extra allowance for the whole bootstrap handshake (process spawn +
    /// mesh dial + Ready/Go), on top of `timeout`.
    pub setup_timeout: Duration,
}

impl SocketConfig {
    pub fn uds(dir: impl Into<PathBuf>) -> Self {
        SocketConfig {
            endpoint: Endpoint::Uds { dir: dir.into() },
            timeout: Duration::from_millis(2000),
            heartbeat: Duration::from_millis(250),
            connect_retries: 6,
            connect_backoff: Duration::from_millis(20),
            setup_timeout: Duration::from_millis(10_000),
        }
    }

    pub fn tcp(base_port: u16) -> Self {
        let mut cfg = SocketConfig::uds("/unused");
        cfg.endpoint = Endpoint::Tcp { base_port };
        cfg
    }
}

/// A full-duplex stream of either flavor.
enum Stream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Uds(s) => s.try_clone().map(Stream::Uds),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    fn shutdown(&self) {
        match self {
            Stream::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Uds(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }

    /// Forward to the sockets' real vectored write (the `Write` default
    /// would silently write only the first buffer) so the zero-copy frame
    /// path issues header + payload + checksum in one syscall.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write_vectored(bufs),
            Stream::Tcp(s) => s.write_vectored(bufs),
        }
    }
}

enum Listener {
    Uds(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Listener::Uds(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // Small scalar collectives must not sit behind Nagle /
                // delayed-ACK interactions; frames are already batched at
                // the sender, so coalescing buys nothing here.
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
        }
    }
}

/// What reader threads report to the transport's single consumer thread.
enum Event {
    Frame(usize, Frame),
    Dead { src: usize, detail: String },
    Corrupt { src: usize, detail: String },
}

/// Shared peer table: writers for the send side, installed/replaced by
/// the bootstrap dial, the accept thread (reconnects), and cleared by
/// reader threads on connection loss.
type PeerTable = Arc<Vec<Mutex<Option<Stream>>>>;

pub struct SocketTransport {
    rank: usize,
    size: usize,
    cfg: SocketConfig,
    peers: PeerTable,
    events: mpsc::Receiver<Event>,
    events_tx: mpsc::Sender<Event>,
    /// Last frame (any kind) seen from each peer; stamped by readers.
    last_seen: Arc<Vec<Mutex<Instant>>>,
    /// Death reason per peer, once known.
    dead: Vec<Option<String>>,
    /// Corruption detail per peer (also implies dead — framing is lost).
    corrupt: Vec<Option<String>>,
    p2p_stash: HashMap<(usize, u64), VecDeque<Vec<u8>>>,
    /// Collective contributions by sequence number, then source rank.
    coll_stash: HashMap<u64, Vec<Option<Vec<u8>>>>,
    /// Log-round collective payloads by `(sequence, source)`. One slot per
    /// pair suffices: within one exchange every round's frame arrives from
    /// a distinct peer (see `collectives::tests::senders_are_distinct…`),
    /// and a fast peer can be at most one exchange ahead under a *new*
    /// sequence number.
    round_stash: HashMap<(u64, usize), Vec<u8>>,
    /// Bootstrap control frames (Ready/Go) in arrival order.
    ctrl_queue: VecDeque<(usize, FrameKind)>,
    stop: Arc<AtomicBool>,
    /// Own listener socket path (UDS), unlinked on drop.
    own_path: Option<PathBuf>,
    /// Reusable staging buffer for small frames: header + payload +
    /// checksum coalesce into one buffered write (no per-frame allocation
    /// once warm).
    send_buf: Vec<u8>,
    /// Measured per-operation counters (wall-clock, frames, wire bytes),
    /// surfaced through [`Transport::metrics`] for cost-model calibration.
    metrics: TransportMetrics,
}

/// Frames with payloads up to this size are staged and written in one
/// contiguous buffered write; larger payloads go through a vectored write
/// directly from the caller's buffer (zero copy).
const SMALL_FRAME: usize = 4096;

/// Write one frame from a borrowed payload. Small payloads are coalesced
/// into `staging` (reused across calls) so header, payload and checksum
/// leave in a single write; large payloads are written vectored —
/// `[header | payload | checksum]` — straight from the caller's buffer,
/// never copied into a fresh `Vec` as `frame::encode` would.
fn write_frame_parts(
    stream: &mut Stream,
    staging: &mut Vec<u8>,
    kind: FrameKind,
    src: u32,
    tag: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    if payload.len() <= SMALL_FRAME {
        staging.clear();
        frame::encode_into(kind, src, tag, payload, staging);
        return stream.write_all(staging);
    }
    let hdr = frame::header(kind, src, tag, payload.len());
    let sum = frame::fnv1a_update(frame::fnv1a_update(frame::FNV_OFFSET, &hdr[2..]), payload);
    let trailer = sum.to_le_bytes();
    let mut slices = [
        IoSlice::new(&hdr),
        IoSlice::new(payload),
        IoSlice::new(&trailer),
    ];
    let mut bufs: &mut [IoSlice<'_>] = &mut slices;
    while !bufs.is_empty() {
        let n = stream.write_vectored(bufs)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "vectored frame write made no progress",
            ));
        }
        IoSlice::advance_slices(&mut bufs, n);
    }
    Ok(())
}

fn dial(endpoint: &Endpoint, dest: usize) -> std::io::Result<Stream> {
    match endpoint {
        Endpoint::Uds { dir } => {
            UnixStream::connect(dir.join(format!("rank-{dest}.sock"))).map(Stream::Uds)
        }
        Endpoint::Tcp { base_port } => {
            TcpStream::connect(("127.0.0.1", base_port + dest as u16)).map(|s| {
                // See Listener::accept: disable Nagle on the dial side too.
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            })
        }
    }
}

fn dial_with_backoff(
    endpoint: &Endpoint,
    dest: usize,
    retries: u32,
    backoff: Duration,
) -> Result<Stream, TransportError> {
    let mut last_err = None;
    for attempt in 0..=retries {
        match dial(endpoint, dest) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last_err = Some(e);
                if attempt < retries {
                    // Exponential backoff, capped so total wait stays sane.
                    let exp = backoff.saturating_mul(1u32 << attempt.min(8));
                    std::thread::sleep(exp.min(Duration::from_millis(500)));
                }
            }
        }
    }
    Err(TransportError::Setup {
        detail: format!(
            "could not reach rank {dest} at {} after {} attempts: {}",
            endpoint.describe(),
            retries + 1,
            last_err.map(|e| e.to_string()).unwrap_or_default()
        ),
    })
}

fn write_frame(stream: &mut Stream, f: &Frame) -> std::io::Result<()> {
    stream.write_all(&frame::encode(f))
}

/// Spawn the per-connection reader: decodes frames, stamps liveness, and
/// forwards data frames to the transport's event queue. `initial` holds
/// bytes already read off the stream during the hello handshake (anything
/// the peer sent right behind its `Hello`). Exits on EOF, error,
/// corruption, or the stop flag.
fn spawn_reader(
    src: usize,
    stream: Stream,
    initial: Vec<u8>,
    events: mpsc::Sender<Event>,
    last_seen: Arc<Vec<Mutex<Instant>>>,
    peers: PeerTable,
    stop: Arc<AtomicBool>,
) {
    std::thread::Builder::new()
        .name(format!("tsock-read-{src}"))
        .spawn(move || {
            // A read timeout lets the thread notice the stop flag even on
            // an idle connection.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
            let mut stream = stream;
            let mut reader = FrameReader::new();
            reader.push(&initial);
            let mut chunk = [0u8; 64 * 1024];
            let close = |detail: String, corrupt: bool| {
                // Clear the writer so sends stop using a broken stream.
                if let Ok(mut w) = peers[src].lock() {
                    *w = None;
                }
                let _ = events.send(if corrupt {
                    Event::Corrupt { src, detail }
                } else {
                    Event::Dead { src, detail }
                });
            };
            loop {
                // Drain every complete frame before blocking on the socket
                // (covers frames carried in `initial` and coalesced reads).
                loop {
                    match reader.next_frame() {
                        Decoded::Incomplete => break,
                        Decoded::Corrupt(detail) => {
                            close(detail, true);
                            return;
                        }
                        Decoded::Frame { frame, .. } => match frame.kind {
                            FrameKind::Heartbeat | FrameKind::Hello => {}
                            _ => {
                                if events.send(Event::Frame(src, frame)).is_err() {
                                    return; // transport dropped
                                }
                            }
                        },
                    }
                }
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                match stream.read(&mut chunk) {
                    Ok(0) => {
                        close("connection closed".to_string(), false);
                        return;
                    }
                    Ok(n) => {
                        if let Ok(mut seen) = last_seen[src].lock() {
                            *seen = Instant::now();
                        }
                        reader.push(&chunk[..n]);
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(e) => {
                        close(format!("read error: {e}"), false);
                        return;
                    }
                }
            }
        })
        .expect("spawn reader thread");
}

impl SocketTransport {
    /// Bind, dial the mesh, and run the rank-0 `Ready`/`Go` handshake.
    /// Blocks until all `size` ranks are connected or the setup deadline
    /// passes.
    pub fn connect(rank: usize, size: usize, cfg: SocketConfig) -> Result<Self, TransportError> {
        assert!(rank < size, "rank {rank} out of range for size {size}");
        let setup_deadline = Instant::now() + cfg.setup_timeout;

        // 1. Bind our listener so lower ranks can find us while we dial.
        let (listener, own_path) = match &cfg.endpoint {
            Endpoint::Uds { dir } => {
                std::fs::create_dir_all(dir).map_err(|e| TransportError::Setup {
                    detail: format!("create socket dir {}: {e}", dir.display()),
                })?;
                let path = dir.join(format!("rank-{rank}.sock"));
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path).map_err(|e| TransportError::Setup {
                    detail: format!("bind {}: {e}", path.display()),
                })?;
                (Listener::Uds(l), Some(path))
            }
            Endpoint::Tcp { base_port } => {
                let port = base_port + rank as u16;
                let l =
                    TcpListener::bind(("127.0.0.1", port)).map_err(|e| TransportError::Setup {
                        detail: format!("bind 127.0.0.1:{port}: {e}"),
                    })?;
                (Listener::Tcp(l), None)
            }
        };

        let peers: PeerTable = Arc::new((0..size).map(|_| Mutex::new(None)).collect());
        let last_seen: Arc<Vec<Mutex<Instant>>> =
            Arc::new((0..size).map(|_| Mutex::new(Instant::now())).collect());
        let (events_tx, events) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));

        // 2. Dial every lower rank (they bound their listeners first or
        // are about to; backoff absorbs the race).
        for dest in 0..rank {
            let mut stream = dial_with_backoff(
                &cfg.endpoint,
                dest,
                cfg.connect_retries,
                cfg.connect_backoff,
            )?;
            write_frame(
                &mut stream,
                &Frame {
                    kind: FrameKind::Hello,
                    src: rank as u32,
                    tag: 0,
                    payload: vec![],
                },
            )
            .map_err(|e| TransportError::Setup {
                detail: format!("hello to rank {dest}: {e}"),
            })?;
            let reader_stream = stream.try_clone().map_err(|e| TransportError::Setup {
                detail: format!("clone stream to rank {dest}: {e}"),
            })?;
            spawn_reader(
                dest,
                reader_stream,
                Vec::new(),
                events_tx.clone(),
                Arc::clone(&last_seen),
                Arc::clone(&peers),
                Arc::clone(&stop),
            );
            *peers[dest].lock().unwrap() = Some(stream);
        }

        // 3. Accept every higher rank; each identifies itself with Hello.
        listener
            .set_nonblocking(true)
            .map_err(|e| TransportError::Setup {
                detail: format!("listener nonblocking: {e}"),
            })?;
        let mut expected: usize = size - 1 - rank;
        while expected > 0 {
            match listener.accept() {
                Ok(stream) => {
                    let (src, leftover) = read_hello(&stream, setup_deadline)?;
                    if src >= size || src <= rank {
                        return Err(TransportError::Setup {
                            detail: format!("unexpected hello from rank {src}"),
                        });
                    }
                    let reader_stream = stream.try_clone().map_err(|e| TransportError::Setup {
                        detail: format!("clone stream from rank {src}: {e}"),
                    })?;
                    spawn_reader(
                        src,
                        reader_stream,
                        leftover,
                        events_tx.clone(),
                        Arc::clone(&last_seen),
                        Arc::clone(&peers),
                        Arc::clone(&stop),
                    );
                    *peers[src].lock().unwrap() = Some(stream);
                    expected -= 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > setup_deadline {
                        let missing: Vec<usize> = (rank + 1..size)
                            .filter(|&s| peers[s].lock().unwrap().is_none())
                            .collect();
                        return Err(TransportError::Setup {
                            detail: format!(
                                "bootstrap timed out waiting for hello from rank(s) {missing:?}"
                            ),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    return Err(TransportError::Setup {
                        detail: format!("accept: {e}"),
                    })
                }
            }
        }

        // 4. Keep accepting in the background: a peer redialing after a
        // transient failure lands here and replaces its connection.
        {
            let events_tx = events_tx.clone();
            let last_seen = Arc::clone(&last_seen);
            let peers = Arc::clone(&peers);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("tsock-accept".to_string())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok(stream) => {
                                let deadline = Instant::now() + Duration::from_millis(2000);
                                let Ok((src, leftover)) = read_hello(&stream, deadline) else {
                                    continue;
                                };
                                if src >= peers.len() {
                                    continue;
                                }
                                if let Ok(reader_stream) = stream.try_clone() {
                                    spawn_reader(
                                        src,
                                        reader_stream,
                                        leftover,
                                        events_tx.clone(),
                                        Arc::clone(&last_seen),
                                        Arc::clone(&peers),
                                        Arc::clone(&stop),
                                    );
                                    if let Ok(mut w) = peers[src].lock() {
                                        *w = Some(stream);
                                    }
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(20));
                            }
                            Err(_) => return,
                        }
                    }
                })
                .expect("spawn accept thread");
        }

        // 5. Heartbeat beacon to every peer.
        {
            let peers = Arc::clone(&peers);
            let stop = Arc::clone(&stop);
            let interval = cfg.heartbeat;
            let me = rank as u32;
            std::thread::Builder::new()
                .name("tsock-heartbeat".to_string())
                .spawn(move || {
                    let beacon = frame::encode(&Frame {
                        kind: FrameKind::Heartbeat,
                        src: me,
                        tag: 0,
                        payload: vec![],
                    });
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(interval);
                        for slot in peers.iter() {
                            if let Ok(mut guard) = slot.lock() {
                                if let Some(stream) = guard.as_mut() {
                                    // Failures are the readers' problem to
                                    // diagnose; the beacon just keeps going.
                                    let _ = stream.write_all(&beacon);
                                }
                            }
                        }
                    }
                })
                .expect("spawn heartbeat thread");
        }

        let mut transport = SocketTransport {
            rank,
            size,
            cfg,
            peers,
            events,
            events_tx,
            last_seen,
            dead: vec![None; size],
            corrupt: vec![None; size],
            p2p_stash: HashMap::new(),
            coll_stash: HashMap::new(),
            round_stash: HashMap::new(),
            ctrl_queue: VecDeque::new(),
            stop,
            own_path,
            send_buf: Vec::new(),
            metrics: TransportMetrics::default(),
        };
        transport.bootstrap_barrier(setup_deadline)?;
        Ok(transport)
    }

    /// Rank-0-coordinated release: everyone reports `Ready` to rank 0;
    /// rank 0 answers `Go` once the whole world has reported. Guarantees
    /// no rank starts the SPMD program against a half-built mesh.
    fn bootstrap_barrier(&mut self, deadline: Instant) -> Result<(), TransportError> {
        let mut ready = vec![false; self.size];
        ready[self.rank] = true;
        if self.rank == 0 {
            while ready.iter().any(|r| !r) {
                let waiting: Vec<usize> = (0..self.size).filter(|&s| !ready[s]).collect();
                match self.next_ctrl(
                    deadline,
                    &format!("bootstrap ready (waiting on rank(s) {waiting:?})"),
                )? {
                    (src, FrameKind::Ready) => ready[src] = true,
                    (src, kind) => {
                        return Err(TransportError::Setup {
                            detail: format!("unexpected {kind:?} from rank {src} during bootstrap"),
                        })
                    }
                }
            }
            for dest in 1..self.size {
                self.send_frame(dest, FrameKind::Go, 0, &[])?;
            }
        } else {
            self.send_frame(0, FrameKind::Ready, 0, &[])?;
            match self.next_ctrl(deadline, "bootstrap go from rank 0")? {
                (0, FrameKind::Go) => {}
                (src, kind) => {
                    return Err(TransportError::Setup {
                        detail: format!("unexpected {kind:?} from rank {src} during bootstrap"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Wait for the next control frame (Ready/Go), stashing data frames.
    fn next_ctrl(
        &mut self,
        deadline: Instant,
        what: &str,
    ) -> Result<(usize, FrameKind), TransportError> {
        loop {
            self.drain_events();
            if let Some(hit) = self.ctrl_queue_pop() {
                return Ok(hit);
            }
            if let Some(peer) = self.first_dead() {
                return Err(self.peer_dead(peer));
            }
            if Instant::now() > deadline {
                return Err(TransportError::Setup {
                    detail: format!("{what} timed out"),
                });
            }
            self.wait_for_event_until(deadline);
        }
    }

    fn ctrl_queue_pop(&mut self) -> Option<(usize, FrameKind)> {
        self.ctrl_queue.pop_front()
    }

    fn first_dead(&self) -> Option<usize> {
        self.dead.iter().position(|d| d.is_some())
    }

    fn peer_dead(&self, peer: usize) -> TransportError {
        if let Some(detail) = &self.corrupt[peer] {
            return TransportError::FrameCorrupt {
                peer,
                detail: detail.clone(),
            };
        }
        TransportError::PeerDead {
            peer,
            detail: self.dead[peer].clone().unwrap_or_default(),
        }
    }

    /// Move everything already queued by reader threads into the stashes.
    fn drain_events(&mut self) {
        while let Ok(ev) = self.events.try_recv() {
            self.absorb(ev);
        }
    }

    /// Block for one event (then drain the rest without blocking). The
    /// event channel wakes immediately on any frame arrival, peer death or
    /// corruption — the common cases are event-driven, not polled.
    fn block_for_event(&mut self, wait: Duration) {
        if let Ok(ev) = self.events.recv_timeout(wait) {
            self.absorb(ev);
            self.drain_events();
        }
    }

    /// Event-driven wait bounded by the caller's real deadline. The only
    /// reason not to sleep until the deadline outright is heartbeat-lapse
    /// detection: readers stamp `last_seen` without posting an event (a
    /// frozen peer posts nothing at all), so the wait is additionally
    /// capped at the heartbeat interval — the granularity at which a lapse
    /// can become observable. Small-message latency is *not* quantized by
    /// this cap: an arriving frame wakes the channel immediately.
    fn wait_for_event_until(&mut self, deadline: Instant) {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let wait = remaining
            .min(self.cfg.heartbeat)
            .max(Duration::from_millis(1));
        self.block_for_event(wait);
    }

    fn absorb(&mut self, ev: Event) {
        match ev {
            Event::Frame(src, f) => match f.kind {
                FrameKind::P2p => self
                    .p2p_stash
                    .entry((src, f.tag))
                    .or_default()
                    .push_back(f.payload),
                FrameKind::Coll => {
                    let slots = self
                        .coll_stash
                        .entry(f.tag)
                        .or_insert_with(|| vec![None; self.size]);
                    slots[src] = Some(f.payload);
                }
                FrameKind::CollRound => {
                    if self.round_stash.insert((f.tag, src), f.payload).is_some() {
                        // Two round frames from the same peer within one
                        // collective violate the Bruck schedule — the
                        // stream can no longer be trusted.
                        let detail = format!("duplicate collective round frame (seq {})", f.tag);
                        if self.corrupt[src].is_none() {
                            self.corrupt[src] = Some(detail.clone());
                        }
                        if self.dead[src].is_none() {
                            self.dead[src] = Some(format!("framing lost: {detail}"));
                        }
                    }
                }
                FrameKind::Ready | FrameKind::Go => {
                    self.ctrl_queue.push_back((src, f.kind));
                }
                FrameKind::Hello | FrameKind::Heartbeat => {}
            },
            Event::Dead { src, detail } => {
                if self.dead[src].is_none() {
                    self.dead[src] = Some(detail);
                }
            }
            Event::Corrupt { src, detail } => {
                if self.corrupt[src].is_none() {
                    self.corrupt[src] = Some(detail.clone());
                }
                if self.dead[src].is_none() {
                    self.dead[src] = Some(format!("framing lost: {detail}"));
                }
            }
        }
    }

    /// A peer is late: decide whether it is *dead* (connection gone or
    /// heartbeats lapsed — name it) or merely slow.
    fn liveness_verdict(&self, peer: usize) -> Option<TransportError> {
        if self.dead[peer].is_some() {
            return Some(self.peer_dead(peer));
        }
        let lapsed = self.last_seen[peer]
            .lock()
            .map(|t| t.elapsed())
            .unwrap_or_default();
        if lapsed > self.cfg.timeout {
            return Some(TransportError::PeerDead {
                peer,
                detail: format!("heartbeat lapsed {}ms", lapsed.as_millis()),
            });
        }
        None
    }

    /// Write one frame to `dest` from a borrowed payload (zero-copy path,
    /// see [`write_frame_parts`]), with bounded reconnect on failure:
    /// retry the write after redialing with exponential backoff, up to
    /// `connect_retries` attempts, then declare the peer dead.
    fn send_frame(
        &mut self,
        dest: usize,
        kind: FrameKind,
        tag: u64,
        payload: &[u8],
    ) -> Result<(), TransportError> {
        if let Some(detail) = &self.corrupt[dest] {
            return Err(TransportError::FrameCorrupt {
                peer: dest,
                detail: detail.clone(),
            });
        }
        let src = self.rank as u32;
        let mut attempt = 0u32;
        loop {
            let write_result = {
                let mut guard = self.peers[dest].lock().unwrap();
                match guard.as_mut() {
                    Some(stream) => {
                        write_frame_parts(stream, &mut self.send_buf, kind, src, tag, payload)
                            .map_err(|e| e.to_string())
                    }
                    None => Err("no connection".to_string()),
                }
            };
            match write_result {
                Ok(()) => {
                    // A successful write through a redialed stream clears
                    // a stale death verdict (transient error recovered).
                    if attempt > 0 {
                        self.dead[dest] = None;
                    }
                    return Ok(());
                }
                Err(first_err) => {
                    if attempt >= self.cfg.connect_retries {
                        let detail =
                            format!("send failed after {} attempts: {first_err}", attempt + 1);
                        self.dead[dest].get_or_insert_with(|| detail.clone());
                        return Err(TransportError::PeerDead { peer: dest, detail });
                    }
                    let backoff = self
                        .cfg
                        .connect_backoff
                        .saturating_mul(1u32 << attempt.min(8))
                        .min(Duration::from_millis(500));
                    std::thread::sleep(backoff);
                    // Redial and reinstall connection + reader.
                    if let Ok(mut stream) = dial(&self.cfg.endpoint, dest) {
                        let hello = Frame {
                            kind: FrameKind::Hello,
                            src: self.rank as u32,
                            tag: 0,
                            payload: vec![],
                        };
                        if write_frame(&mut stream, &hello).is_ok() {
                            if let Ok(reader_stream) = stream.try_clone() {
                                spawn_reader(
                                    dest,
                                    reader_stream,
                                    Vec::new(),
                                    self.events_tx.clone(),
                                    Arc::clone(&self.last_seen),
                                    Arc::clone(&self.peers),
                                    Arc::clone(&self.stop),
                                );
                                *self.peers[dest].lock().unwrap() = Some(stream);
                            }
                        }
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Gather one `Coll` contribution per rank for collective `seq`.
    /// `mine` fills our own slot (moved, not cloned). Deadline-bounded; a
    /// missing peer is named either dead or late.
    fn gather_collective(
        &mut self,
        seq: u64,
        op_name: &str,
        mine: Vec<u8>,
    ) -> Result<Vec<Vec<u8>>, TransportError> {
        let deadline = Instant::now() + self.cfg.timeout;
        let started = Instant::now();
        let mut mine = Some(mine);
        loop {
            self.drain_events();
            let complete = {
                let slots = self
                    .coll_stash
                    .entry(seq)
                    .or_insert_with(|| vec![None; self.size]);
                slots
                    .iter()
                    .enumerate()
                    .all(|(src, s)| src == self.rank || s.is_some())
            };
            if complete {
                let mut slots = self.coll_stash.remove(&seq).unwrap();
                let mut out = Vec::with_capacity(self.size);
                for (src, slot) in slots.iter_mut().enumerate() {
                    if src == self.rank {
                        out.push(mine.take().expect("own contribution consumed once"));
                    } else {
                        out.push(slot.take().unwrap());
                    }
                }
                return Ok(out);
            }
            // Missing contributions: is any missing peer dead?
            let waiting: Vec<usize> = {
                let slots = self.coll_stash.get(&seq).unwrap();
                (0..self.size)
                    .filter(|&src| src != self.rank && slots[src].is_none())
                    .collect()
            };
            for &peer in &waiting {
                if let Some(err) = self.liveness_verdict(peer) {
                    return Err(err);
                }
            }
            if Instant::now() > deadline {
                return Err(TransportError::Timeout {
                    op: format!("{op_name} seq={seq}"),
                    waiting_on: waiting,
                    elapsed: started.elapsed(),
                });
            }
            self.wait_for_event_until(deadline);
        }
    }

    /// Wait for the `CollRound` frame of `remaining[0]`. Fails fast on any
    /// dead *remaining upstream* (current or future round) that never
    /// delivered its round frame — under log-round routing those frames
    /// can never be replaced, so the exchange is doomed the moment such a
    /// peer dies, and naming it now beats a timeout naming an innocent
    /// relay. A peer that finished the exchange and exited is never
    /// misnamed: its frames precede EOF on the connection and the event
    /// queue is FIFO, so by the time its death is visible its round frame
    /// is already stashed.
    fn await_round(
        &mut self,
        seq: u64,
        remaining: &[collectives::RoundPlan],
        deadline: Instant,
        started: Instant,
    ) -> Result<Vec<u8>, TransportError> {
        let plan = remaining[0];
        loop {
            self.drain_events();
            if let Some(payload) = self.round_stash.remove(&(seq, plan.recv_from)) {
                return Ok(payload);
            }
            for later in remaining {
                if !self.round_stash.contains_key(&(seq, later.recv_from)) {
                    if let Some(err) = self.liveness_verdict(later.recv_from) {
                        return Err(err);
                    }
                }
            }
            if Instant::now() > deadline {
                return Err(TransportError::Timeout {
                    op: format!("exchange seq={seq} round={}", plan.round),
                    waiting_on: vec![plan.recv_from],
                    elapsed: started.elapsed(),
                });
            }
            self.wait_for_event_until(deadline);
        }
    }

    /// Mark `peer`'s stream untrustworthy after an undecodable relayed
    /// round payload and produce the named error. The per-hop frame
    /// checksum was valid, so this is corruption (or a protocol bug)
    /// upstream of the relay — framing can't be resynchronized either way.
    fn round_corrupt(&mut self, peer: usize, detail: String) -> TransportError {
        let detail = format!("collective round payload: {detail}");
        if self.corrupt[peer].is_none() {
            self.corrupt[peer] = Some(detail.clone());
        }
        if self.dead[peer].is_none() {
            self.dead[peer] = Some(format!("framing lost: {detail}"));
        }
        TransportError::FrameCorrupt { peer, detail }
    }

    /// Fold one finished operation into the measured-time metrics.
    /// `fsfr` is `[frames_sent, bytes_sent, frames_recv, bytes_recv]`.
    fn op_done(&mut self, key: &'static str, started: Instant, fsfr: [u64; 4]) {
        let m = self.metrics.ops.entry(key.to_string()).or_default();
        m.calls += 1;
        m.frames_sent += fsfr[0];
        m.bytes_sent += fsfr[1];
        m.frames_recv += fsfr[2];
        m.bytes_recv += fsfr[3];
        m.wall += started.elapsed();
    }
}

/// Receive-side frame/byte counts of a gathered exchange: one frame per
/// non-own slot, wire-priced.
fn recv_side(out: &[Vec<u8>], rank: usize) -> (u64, u64) {
    let mut frames = 0u64;
    let mut bytes = 0u64;
    for (src, blob) in out.iter().enumerate() {
        if src != rank {
            frames += 1;
            bytes += frame::wire_bytes(blob.len());
        }
    }
    (frames, bytes)
}

/// Read the identifying `Hello` frame off a freshly accepted connection.
/// Returns the dialing rank plus any bytes the peer sent right behind the
/// hello (they belong to the long-lived reader, not the floor).
fn read_hello(stream: &Stream, deadline: Instant) -> Result<(usize, Vec<u8>), TransportError> {
    let mut s = stream.try_clone().map_err(|e| TransportError::Setup {
        detail: format!("clone for hello: {e}"),
    })?;
    let _ = s.set_read_timeout(Some(Duration::from_millis(50)));
    let mut reader = FrameReader::new();
    let mut chunk = [0u8; 256];
    loop {
        match reader.next_frame() {
            Decoded::Frame { frame, .. } => {
                if frame.kind != FrameKind::Hello {
                    return Err(TransportError::Setup {
                        detail: format!("expected hello, got {:?}", frame.kind),
                    });
                }
                return Ok((frame.src as usize, reader.into_pending()));
            }
            Decoded::Corrupt(detail) => {
                return Err(TransportError::Setup {
                    detail: format!("corrupt hello: {detail}"),
                })
            }
            Decoded::Incomplete => {}
        }
        if Instant::now() > deadline {
            return Err(TransportError::Setup {
                detail: "hello timed out".to_string(),
            });
        }
        match s.read(&mut chunk) {
            Ok(0) => {
                return Err(TransportError::Setup {
                    detail: "connection closed before hello".to_string(),
                })
            }
            Ok(n) => reader.push(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => {
                return Err(TransportError::Setup {
                    detail: format!("hello read: {e}"),
                })
            }
        }
    }
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, dest: usize, tag: u64, payload: Vec<u8>) -> Result<(), TransportError> {
        assert!(dest < self.size, "send to rank {dest} out of range");
        let started = Instant::now();
        let wire = frame::wire_bytes(payload.len());
        self.send_frame(dest, FrameKind::P2p, tag, &payload)?;
        self.op_done("p2p_send", started, [1, wire, 0, 0]);
        Ok(())
    }

    fn recv(&mut self, src: usize, tag: u64) -> Result<Vec<u8>, TransportError> {
        let deadline = Instant::now() + self.cfg.timeout;
        let started = Instant::now();
        loop {
            self.drain_events();
            if let Some(queue) = self.p2p_stash.get_mut(&(src, tag)) {
                if let Some(payload) = queue.pop_front() {
                    let wire = frame::wire_bytes(payload.len());
                    self.op_done("p2p_recv", started, [0, 0, 1, wire]);
                    return Ok(payload);
                }
            }
            if let Some(err) = self.liveness_verdict(src) {
                return Err(err);
            }
            if Instant::now() > deadline {
                return Err(TransportError::Timeout {
                    op: format!("recv src={src} tag={tag:#x}"),
                    waiting_on: vec![src],
                    elapsed: started.elapsed(),
                });
            }
            self.wait_for_event_until(deadline);
        }
    }

    /// Bruck/dissemination allgather: ⌈log₂ p⌉ rounds, one send and one
    /// receive per rank per round, any p (see [`collectives`]). Every rank
    /// ends with all p blobs indexed by source rank, so the rank-order
    /// folds above the transport see the same input on any carrier.
    fn exchange(&mut self, seq: u64, mine: Vec<u8>) -> Result<Vec<Vec<u8>>, TransportError> {
        let started = Instant::now();
        let p = self.size;
        if p == 1 {
            self.op_done("exchange_logp", started, [0, 0, 0, 0]);
            return Ok(vec![mine]);
        }
        let deadline = started + self.cfg.timeout;
        let mut frames_sent = 0u64;
        let mut bytes_sent = 0u64;
        let mut frames_recv = 0u64;
        let mut bytes_recv = 0u64;
        // Virtual-order buffer: slot v holds the blob of rank (rank+v)%p.
        let mut have: Vec<Option<Vec<u8>>> = vec![None; p];
        have[0] = Some(mine);
        let plans = collectives::bruck_rounds(self.rank, p);
        for step in 0..plans.len() {
            let plan = plans[step];
            let body = collectives::encode_round(
                plan.round,
                (0..plan.send_blocks).map(|v| {
                    (
                        (self.rank + v) % p,
                        have[v].as_deref().expect("bruck invariant: prefix held"),
                    )
                }),
            );
            self.send_frame(plan.send_to, FrameKind::CollRound, seq, &body)?;
            frames_sent += 1;
            bytes_sent += frame::wire_bytes(body.len());
            let payload = self.await_round(seq, &plans[step..], deadline, started)?;
            frames_recv += 1;
            bytes_recv += frame::wire_bytes(payload.len());
            let (round, blocks) = match collectives::decode_round(&payload) {
                Ok(d) => d,
                Err(detail) => return Err(self.round_corrupt(plan.recv_from, detail)),
            };
            if round != plan.round {
                return Err(self.round_corrupt(
                    plan.recv_from,
                    format!("round {round} frame arrived in round {}", plan.round),
                ));
            }
            if blocks.len() != plan.send_blocks {
                return Err(self.round_corrupt(
                    plan.recv_from,
                    format!(
                        "round {round} carried {} blocks, schedule says {}",
                        blocks.len(),
                        plan.send_blocks
                    ),
                ));
            }
            for (i, (gsrc, blob)) in blocks.into_iter().enumerate() {
                let expected = (plan.recv_from + i) % p;
                if gsrc != expected {
                    return Err(self.round_corrupt(
                        plan.recv_from,
                        format!(
                            "round {round} block {i} claims source {gsrc}, expected {expected}"
                        ),
                    ));
                }
                let v = plan.recv_at + i;
                debug_assert!(have[v].is_none(), "bruck slot filled twice");
                have[v] = Some(blob);
            }
        }
        self.op_done(
            "exchange_logp",
            started,
            [frames_sent, bytes_sent, frames_recv, bytes_recv],
        );
        Ok(collectives::reindex(self.rank, have))
    }

    fn alltoallv(
        &mut self,
        seq: u64,
        outgoing: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, TransportError> {
        assert_eq!(
            outgoing.len(),
            self.size,
            "alltoallv needs a bucket per rank"
        );
        let started = Instant::now();
        let mut frames_sent = 0u64;
        let mut bytes_sent = 0u64;
        let mut own = None;
        for (dest, bucket) in outgoing.into_iter().enumerate() {
            if dest == self.rank {
                own = Some(bucket);
            } else {
                self.send_frame(dest, FrameKind::Coll, seq, &bucket)?;
                frames_sent += 1;
                bytes_sent += frame::wire_bytes(bucket.len());
            }
        }
        let out = self.gather_collective(seq, "alltoallv", own.unwrap_or_default())?;
        let (frames_recv, bytes_recv) = recv_side(&out, self.rank);
        self.op_done(
            "alltoallv",
            started,
            [frames_sent, bytes_sent, frames_recv, bytes_recv],
        );
        Ok(out)
    }

    fn describe(&self) -> String {
        self.cfg.endpoint.describe()
    }

    fn metrics(&self) -> Option<TransportMetrics> {
        Some(self.metrics.clone())
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for slot in self.peers.iter() {
            if let Ok(guard) = slot.lock() {
                if let Some(stream) = guard.as_ref() {
                    stream.shutdown();
                }
            }
        }
        if let Some(path) = &self.own_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn test_cfg(name: &str) -> SocketConfig {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("tsock-{}-{name}-{seq}", std::process::id()));
        let mut cfg = SocketConfig::uds(dir);
        cfg.timeout = Duration::from_millis(1500);
        cfg.heartbeat = Duration::from_millis(100);
        cfg
    }

    /// Run one closure per rank, each over its own SocketTransport.
    /// The ranks happen to live in threads of one process, but each one
    /// only ever talks through its sockets — the transport cannot tell.
    fn mesh<R: Send + 'static>(
        size: usize,
        cfg: SocketConfig,
        f: impl Fn(SocketTransport) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let f = Arc::new(f);
        let handles: Vec<_> = (0..size)
            .map(|rank| {
                let cfg = cfg.clone();
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    let t = SocketTransport::connect(rank, size, cfg)
                        .unwrap_or_else(|e| panic!("rank {rank} connect: {e}"));
                    f(t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn bootstrap_and_exchange_four_ranks() {
        let out = mesh(4, test_cfg("exch"), |mut t| {
            let mine = vec![t.rank() as u8; t.rank() + 1];
            let all = t.exchange(0, mine).unwrap();
            all
        });
        for (rank, all) in out.iter().enumerate() {
            assert_eq!(all.len(), 4, "rank {rank}");
            for (src, blob) in all.iter().enumerate() {
                assert_eq!(blob, &vec![src as u8; src + 1], "rank {rank} slot {src}");
            }
        }
    }

    #[test]
    fn repeated_collectives_stay_in_sequence() {
        let out = mesh(3, test_cfg("seq"), |mut t| {
            let mut sums = Vec::new();
            for seq in 0..20u64 {
                let mine = (t.rank() as u64 * 1000 + seq).to_le_bytes().to_vec();
                let all = t.exchange(seq, mine).unwrap();
                let sum: u64 = all
                    .iter()
                    .map(|b| u64::from_le_bytes(b[..8].try_into().unwrap()))
                    .sum();
                sums.push(sum);
            }
            sums
        });
        for sums in &out {
            assert_eq!(sums, &out[0], "all ranks fold the same contributions");
        }
    }

    #[test]
    fn p2p_send_recv_with_tags() {
        let out = mesh(2, test_cfg("p2p"), |mut t| {
            if t.rank() == 0 {
                t.send(1, 7, vec![1, 2, 3]).unwrap();
                t.send(1, 9, vec![4, 5]).unwrap();
                t.recv(1, 1).unwrap()
            } else {
                // Receive out of send order: selective receive must stash.
                let b = t.recv(0, 9).unwrap();
                let a = t.recv(0, 7).unwrap();
                assert_eq!(a, vec![1, 2, 3]);
                assert_eq!(b, vec![4, 5]);
                t.send(0, 1, vec![9]).unwrap();
                vec![]
            }
        });
        assert_eq!(out[0], vec![9]);
    }

    #[test]
    fn alltoallv_routes_per_destination() {
        let out = mesh(3, test_cfg("a2av"), |mut t| {
            let outgoing: Vec<Vec<u8>> = (0..3).map(|d| vec![(t.rank() * 10 + d) as u8]).collect();
            t.alltoallv(5, outgoing).unwrap()
        });
        for (rank, incoming) in out.iter().enumerate() {
            for (src, blob) in incoming.iter().enumerate() {
                assert_eq!(
                    blob,
                    &vec![(src * 10 + rank) as u8],
                    "rank {rank} from {src}"
                );
            }
        }
    }

    #[test]
    fn dead_peer_is_detected_and_named() {
        let cfg = test_cfg("dead");
        let out: Vec<Result<Vec<u8>, TransportError>> = mesh(3, cfg, |mut t| {
            if t.rank() == 2 {
                // Rank 2 exits without contributing: its connections close.
                return Ok(vec![]);
            }
            // Give rank 2 time to vanish, then collect.
            std::thread::sleep(Duration::from_millis(200));
            t.exchange(0, vec![t.rank() as u8]).map(|_| vec![])
        });
        for (rank, r) in out.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            match r {
                Err(TransportError::PeerDead { peer: 2, .. }) => {}
                other => panic!("rank {rank}: expected PeerDead{{peer: 2}}, got {other:?}"),
            }
        }
    }

    #[test]
    fn timeout_names_the_operation_and_laggards() {
        let cfg = {
            let mut c = test_cfg("timeout");
            c.timeout = Duration::from_millis(400);
            c
        };
        let out: Vec<Result<Vec<u8>, TransportError>> = mesh(2, cfg, |mut t| {
            if t.rank() == 1 {
                // Rank 1 stays alive (heartbeating) but never contributes
                // to the collective within rank 0's deadline.
                std::thread::sleep(Duration::from_millis(1200));
                return Ok(vec![]);
            }
            t.exchange(3, vec![0]).map(|_| vec![])
        });
        match &out[0] {
            Err(TransportError::Timeout { op, waiting_on, .. }) => {
                assert!(op.contains("exchange seq=3"), "op was {op}");
                assert_eq!(waiting_on, &vec![1]);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn tcp_endpoint_works_end_to_end() {
        // Fixed high port; the base shifts by test-process id to dodge
        // collisions between concurrent test runs.
        let base = 41000 + (std::process::id() % 1000) as u16;
        let cfg = {
            let mut c = SocketConfig::tcp(base);
            c.timeout = Duration::from_millis(1500);
            c
        };
        let out = mesh(2, cfg, |mut t| {
            let all = t.exchange(0, vec![t.rank() as u8 + 40]).unwrap();
            all
        });
        assert_eq!(out[0], vec![vec![40], vec![41]]);
        assert_eq!(out[1], vec![vec![40], vec![41]]);
    }

    /// Per-rank contribution mix designed to stress the exchange: an empty
    /// blob, a blob crossing the `SMALL_FRAME` vectored-write threshold,
    /// and odd sizes in between.
    fn stress_blob(rank: usize, seq: u64) -> Vec<u8> {
        let len = match rank % 4 {
            0 => 0,
            1 => SMALL_FRAME + 777, // forces the vectored large-frame path
            2 => 1,
            _ => 93 + rank,
        };
        (0..len)
            .map(|i| (rank as u8) ^ (seq as u8) ^ (i as u8))
            .collect()
    }

    #[test]
    fn exchange_returns_every_ranks_blob_for_many_world_sizes() {
        for p in [2usize, 3, 5, 8] {
            let outs = mesh(p, test_cfg(&format!("eq{p}")), |mut t| {
                let mut outs = Vec::new();
                for seq in 0..3u64 {
                    outs.push(t.exchange(seq, stress_blob(t.rank(), seq)).unwrap());
                }
                outs
            });
            for (rank, outs) in outs.iter().enumerate() {
                for (seq, all) in outs.iter().enumerate() {
                    assert_eq!(all.len(), p, "p={p} rank={rank} seq={seq}");
                    for (src, blob) in all.iter().enumerate() {
                        assert_eq!(
                            blob,
                            &stress_blob(src, seq as u64),
                            "p={p} rank={rank} seq={seq} slot={src}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exchange_costs_ceil_log2_p_frames() {
        let p = 5;
        let exchanges = 3u64;
        let metrics = mesh(p, test_cfg("budget"), move |mut t| {
            for seq in 0..exchanges {
                t.exchange(seq, vec![t.rank() as u8; 16]).unwrap();
            }
            t.metrics().expect("socket transport meters itself")
        });
        let per_exchange = collectives::ceil_log2(p) as u64;
        for (rank, m) in metrics.iter().enumerate() {
            let op = &m.ops["exchange_logp"];
            assert_eq!(op.calls, exchanges, "rank {rank} calls");
            assert_eq!(op.frames_sent, exchanges * per_exchange, "rank {rank} sent");
            assert_eq!(op.frames_recv, exchanges * per_exchange, "rank {rank} recv");
            assert!(op.bytes_sent > 0 && op.wall > Duration::ZERO, "rank {rank}");
        }
    }

    #[test]
    fn corrupt_relayed_round_frame_is_named() {
        // Rank 1 speaks the frame protocol correctly (valid header and
        // checksum) but the CollRound *payload* it relays is garbage — as
        // if a block was mangled before its hop re-framed it. Rank 0 must
        // fail its exchange with FrameCorrupt naming rank 1, not hang and
        // not deliver garbage.
        let out: Vec<Result<(), TransportError>> = mesh(2, test_cfg("mangled"), |mut t| {
            if t.rank() == 1 {
                t.send_frame(0, FrameKind::CollRound, 0, &[0xde, 0xad, 0xbe])?;
                std::thread::sleep(Duration::from_millis(400));
                return Ok(());
            }
            t.exchange(0, vec![7]).map(|_| ())
        });
        match &out[0] {
            Err(TransportError::FrameCorrupt { peer: 1, detail }) => {
                assert!(
                    detail.contains("collective round payload"),
                    "detail was {detail}"
                );
            }
            other => panic!("expected FrameCorrupt{{peer: 1}}, got {other:?}"),
        }
    }

    #[test]
    fn round_frame_claiming_wrong_source_is_named() {
        // A well-formed round body whose block claims the wrong global
        // source rank: schedule validation must reject it by name.
        let out: Vec<Result<(), TransportError>> = mesh(2, test_cfg("wrongsrc"), |mut t| {
            if t.rank() == 1 {
                // Round 0 from rank 1 must carry rank 1's own blob; claim
                // rank 0's identity instead.
                let body = collectives::encode_round(0, [(0usize, &[9u8][..])].into_iter());
                t.send_frame(0, FrameKind::CollRound, 0, &body)?;
                std::thread::sleep(Duration::from_millis(400));
                return Ok(());
            }
            t.exchange(0, vec![7]).map(|_| ())
        });
        match &out[0] {
            Err(TransportError::FrameCorrupt { peer: 1, detail }) => {
                assert!(detail.contains("claims source"), "detail was {detail}");
            }
            other => panic!("expected FrameCorrupt{{peer: 1}}, got {other:?}"),
        }
    }
}
