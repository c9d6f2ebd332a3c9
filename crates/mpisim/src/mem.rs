//! The in-memory [`Transport`]: the ranks of one process, one mailbox each.
//!
//! [`crate::World`] runs its ranks over a [`MemTransport::mesh`], so an
//! in-process world and a socket world differ only in what carries the
//! encoded frames. A frame is pushed straight into the destination's
//! unbounded mailbox; `recv`, `exchange` and `alltoallv` all wait for "the
//! frame from `src` in this slot", stashing whatever else arrives first.
//!
//! **Leaving, and all-or-nothing collectives.** Dropping a rank's transport
//! posts a `Gone` marker to every peer — `dead` if the drop is a panic
//! unwinding, finished otherwise. A mailbox is FIFO per sender, so
//! the marker arrives after everything that rank ever sent: a waiter gives
//! up on a frame only once it has read its sender's marker, never because
//! some *other* rank died. Posting a collective contribution is a loop of
//! sends that cannot fail part-way (a send to a rank that already left is
//! skipped), so a contribution reaches every live peer or none. Together:
//! if any rank completed a collective, all p contributions were posted to
//! everyone, and every surviving rank completes it too — even when a peer
//! dies right after. Whatever commits behind a collective (a checkpoint)
//! is therefore held by all ranks or by none; the dying world still
//! unwinds each survivor at the first operation that needs a frame the
//! dead rank never sent.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::transport::{Transport, TransportError};

/// What a frame answers to: a tagged message or the `seq`-th collective.
/// Collectives match on `seq` alone, so ranks that disagree on *which*
/// collective slot `seq` is still meet, and [`crate::Comm`]'s header check
/// names the divergence instead of both sides waiting forever.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    P2p(u64),
    Coll(u64),
}

enum Frame {
    Data {
        src: usize,
        slot: Slot,
        bytes: Vec<u8>,
    },
    /// `src` sends nothing after this: it finished, or (`dead`) panicked.
    Gone { src: usize, dead: bool },
}

/// One rank's end of an in-memory mesh.
pub struct MemTransport {
    rank: usize,
    /// Every rank's mailbox, this one's included.
    mailboxes: Arc<Vec<Sender<Frame>>>,
    inbox: Receiver<Frame>,
    /// Frames received but not yet asked for: `(src, slot, bytes)`.
    stash: VecDeque<(usize, Slot, Vec<u8>)>,
    /// Per rank: its `Gone` marker was read, and whether it said `dead`.
    gone: Vec<Option<bool>>,
    /// How long a `recv` may wait before it fails with `Timeout`: forever
    /// (`Duration::MAX`), unless a fault plan that can drop messages says.
    pub(crate) recv_timeout: Duration,
}

impl MemTransport {
    /// A fully connected world of `nranks` ranks; element `r` is rank `r`'s
    /// transport, to be moved to the thread that runs that rank.
    pub fn mesh(nranks: usize) -> Vec<MemTransport> {
        let (mailboxes, inboxes): (Vec<_>, Vec<_>) = (0..nranks).map(|_| channel()).unzip();
        let mailboxes = Arc::new(mailboxes);
        inboxes
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| MemTransport {
                rank,
                mailboxes: mailboxes.clone(),
                inbox,
                stash: VecDeque::new(),
                gone: vec![None; nranks],
                recv_timeout: Duration::MAX,
            })
            .collect()
    }

    /// Push one frame into `dest`'s mailbox; `false` if `dest` already left.
    fn post(&self, dest: usize, slot: Slot, bytes: Vec<u8>) -> bool {
        let src = self.rank;
        self.mailboxes[dest]
            .send(Frame::Data { src, slot, bytes })
            .is_ok()
    }

    fn accept(&mut self, frame: Frame) {
        match frame {
            Frame::Data { src, slot, bytes } => self.stash.push_back((src, slot, bytes)),
            Frame::Gone { src, dead } => self.gone[src] = Some(dead),
        }
    }

    /// Why a frame from `peer` will never come, once its marker was read.
    fn gone_error(&self, peer: usize) -> Option<TransportError> {
        self.gone[peer].map(|dead| {
            if dead {
                TransportError::PeerDead {
                    peer,
                    detail: "rank panicked".to_string(),
                }
            } else {
                TransportError::PeerFinished { peer }
            }
        })
    }

    /// Block until the frame from `src` in `slot` is here, for at most
    /// `limit`.
    fn wait(&mut self, src: usize, slot: Slot, limit: Duration) -> Result<Vec<u8>, TransportError> {
        let started = Instant::now();
        loop {
            let hit = self.stash.iter().position(|f| f.0 == src && f.1 == slot);
            if let Some((_, _, bytes)) = hit.and_then(|at| self.stash.remove(at)) {
                return Ok(bytes);
            }
            // Not stashed, and the marker came after all `src` sent.
            if let Some(error) = self.gone_error(src) {
                return Err(error);
            }
            match self
                .inbox
                .recv_timeout(limit.saturating_sub(started.elapsed()))
            {
                Ok(frame) => self.accept(frame),
                // This rank holds a sender to every mailbox, its own
                // included: only the deadline can end the wait.
                Err(_) => {
                    return Err(TransportError::Timeout {
                        op: format!("recv from rank {src}"),
                        waiting_on: vec![src],
                        elapsed: started.elapsed(),
                    })
                }
            }
        }
    }

    /// One collective: post `outgoing[d]` to every peer `d`, then collect
    /// the peers' frames in rank order around this rank's own.
    fn collect(
        &mut self,
        seq: u64,
        mut outgoing: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, TransportError> {
        let slot = Slot::Coll(seq);
        let me = self.rank;
        for (dest, bytes) in outgoing.iter_mut().enumerate() {
            if dest != me {
                self.post(dest, slot, std::mem::take(bytes));
            }
        }
        let mut incoming = outgoing;
        for src in (0..incoming.len()).filter(|&src| src != me) {
            incoming[src] = self.wait(src, slot, Duration::MAX)?;
        }
        Ok(incoming)
    }
}

impl Transport for MemTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.gone.len()
    }

    fn send(&mut self, dest: usize, tag: u64, frame: Vec<u8>) -> Result<(), TransportError> {
        if self.post(dest, Slot::P2p(tag), frame) {
            return Ok(());
        }
        // `dest` dropped its mailbox, which it does only after posting its
        // marker: that marker is already in this rank's inbox.
        while let Ok(frame) = self.inbox.try_recv() {
            self.accept(frame);
        }
        Err(self
            .gone_error(dest)
            .expect("a rank posts its marker before it drops its mailbox"))
    }

    fn recv(&mut self, src: usize, tag: u64) -> Result<Vec<u8>, TransportError> {
        self.wait(src, Slot::P2p(tag), self.recv_timeout)
    }

    fn exchange(&mut self, seq: u64, mine: Vec<u8>) -> Result<Vec<Vec<u8>>, TransportError> {
        self.collect(seq, vec![mine; self.size()])
    }

    fn alltoallv(
        &mut self,
        seq: u64,
        outgoing: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, TransportError> {
        self.collect(seq, outgoing)
    }

    fn describe(&self) -> String {
        "mem".to_string()
    }
}

impl Drop for MemTransport {
    fn drop(&mut self) {
        let (src, dead) = (self.rank, std::thread::panicking());
        for (peer, mailbox) in self.mailboxes.iter().enumerate() {
            if peer != src {
                // A peer that already left has no mailbox to tell.
                let _ = mailbox.send(Frame::Gone { src, dead });
            }
        }
    }
}
