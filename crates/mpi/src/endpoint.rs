//! Per-rank mailbox with tag-selective blocking receive.
//!
//! A mailbox is shared by *all threads of one rank* (the paper's slaves run
//! a communication thread and an execution thread concurrently, §III-B).
//! Receives are selective on `(context, src, tag)`, so two threads can block
//! on different tags without stealing each other's messages — the property
//! a raw channel cannot provide.

use crate::lock;
use crate::message::{Envelope, Tag};
use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A matching message can no longer arrive: the peer's connection is gone
/// and nothing is queued. Returned by [`Mailbox::recv_from_live`] so a rank
/// blocked on a dead peer fails loudly instead of hanging forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerLost {
    /// World rank of the lost peer.
    pub world_rank: usize,
}

impl std::fmt::Display for PeerLost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "connection to world rank {} lost with a receive pending", self.world_rank)
    }
}

impl std::error::Error for PeerLost {}

/// A rank's incoming-message queue.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: Mutex<VecDeque<Envelope>>,
    arrived: Condvar,
    /// World ranks whose transport connection is gone (multi-process
    /// backends mark these from their reader threads; the in-process
    /// universe marks a rank whose thread panicked). Queued envelopes from a dead peer remain receivable —
    /// death only means nothing *new* can arrive.
    dead_peers: Mutex<HashSet<usize>>,
}

impl Mailbox {
    /// New empty mailbox behind an `Arc` (shared with the fabric).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Deliver an envelope (called by the *sending* rank's thread).
    pub fn deliver(&self, env: Envelope) {
        let mut q = lock(&self.queue);
        q.push_back(env);
        // Multiple threads may be waiting on different matches.
        self.arrived.notify_all();
    }

    /// Record that the transport connection to `world_rank` is gone and
    /// wake every blocked receiver so waits on that peer can fail loudly.
    pub fn mark_peer_dead(&self, world_rank: usize) {
        lock(&self.dead_peers).insert(world_rank);
        // Waiters re-check their source's liveness on wake.
        let _q = lock(&self.queue);
        self.arrived.notify_all();
    }

    /// Is `world_rank`'s connection known to be gone?
    pub fn peer_is_dead(&self, world_rank: usize) -> bool {
        lock(&self.dead_peers).contains(&world_rank)
    }

    /// Forget a peer's death after its connection has been replaced (the
    /// in-flight rank-replacement link swap): waits pinned to `world_rank`
    /// block normally again. Wakes blocked receivers so anyone who observed
    /// the dead flag mid-wait re-evaluates.
    pub fn clear_peer_dead(&self, world_rank: usize) {
        lock(&self.dead_peers).remove(&world_rank);
        let _q = lock(&self.queue);
        self.arrived.notify_all();
    }

    /// Blocking selective receive: first queued envelope matching
    /// `(context, src, tag)`, in arrival order.
    pub fn recv(&self, context: u16, src: Option<usize>, tag: Tag) -> Envelope {
        self.recv_from_live(context, src, tag, None).expect("no liveness bound requested")
    }

    /// [`Mailbox::recv`] that additionally fails with [`PeerLost`] when the
    /// awaited source's connection (identified by its *world* rank, which
    /// is what transports track) dies with nothing matching queued. Pass
    /// `src_world = None` for sources whose liveness cannot be pinned
    /// (from-any receives) — then this blocks exactly like [`Mailbox::recv`].
    pub fn recv_from_live(
        &self,
        context: u16,
        src: Option<usize>,
        tag: Tag,
        src_world: Option<usize>,
    ) -> Result<Envelope, PeerLost> {
        let mut q = lock(&self.queue);
        loop {
            if let Some(pos) = q.iter().position(|e| e.matches(context, src, tag)) {
                return Ok(q.remove(pos).expect("position valid under lock"));
            }
            if let Some(world_rank) = src_world {
                if self.peer_is_dead(world_rank) {
                    return Err(PeerLost { world_rank });
                }
            }
            q = self.arrived.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Selective receive with a deadline. `None` on timeout.
    pub fn recv_timeout(
        &self,
        context: u16,
        src: Option<usize>,
        tag: Tag,
        timeout: Duration,
    ) -> Option<Envelope> {
        let deadline = Instant::now() + timeout;
        let mut q = lock(&self.queue);
        loop {
            if let Some(pos) = q.iter().position(|e| e.matches(context, src, tag)) {
                return Some(q.remove(pos).expect("position valid under lock"));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, waited) = self
                .arrived
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
            if waited.timed_out() {
                // Check once more in case a message arrived exactly at the
                // deadline boundary.
                if let Some(pos) = q.iter().position(|e| e.matches(context, src, tag)) {
                    return Some(q.remove(pos).expect("position valid under lock"));
                }
                return None;
            }
        }
    }

    /// Non-blocking probe: is a matching message queued?
    pub fn probe(&self, context: u16, src: Option<usize>, tag: Tag) -> bool {
        lock(&self.queue).iter().any(|e| e.matches(context, src, tag))
    }

    /// Number of queued envelopes (diagnostics).
    pub fn len(&self) -> usize {
        lock(&self.queue).len()
    }

    /// True when no envelopes are queued.
    pub fn is_empty(&self) -> bool {
        lock(&self.queue).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn env(src: usize, tag: Tag) -> Envelope {
        Envelope::new(0, src, tag, vec![src as u8, tag as u8])
    }

    #[test]
    fn fifo_per_matching_key() {
        let mb = Mailbox::new();
        mb.deliver(Envelope::new(0, 1, 5, vec![1]));
        mb.deliver(Envelope::new(0, 1, 5, vec![2]));
        assert_eq!(mb.recv(0, Some(1), 5).payload, vec![1]);
        assert_eq!(mb.recv(0, Some(1), 5).payload, vec![2]);
    }

    #[test]
    fn selective_receive_skips_other_tags() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 10));
        mb.deliver(env(1, 20));
        // Receive the later tag first; the earlier one stays queued.
        assert_eq!(mb.recv(0, Some(1), 20).tag, 20);
        assert_eq!(mb.recv(0, Some(1), 10).tag, 10);
        assert!(mb.is_empty());
    }

    #[test]
    fn receive_from_any_source() {
        let mb = Mailbox::new();
        mb.deliver(env(3, 7));
        let got = mb.recv(0, None, 7);
        assert_eq!(got.src, 3);
    }

    #[test]
    fn context_isolation() {
        let mb = Mailbox::new();
        mb.deliver(Envelope::new(1, 0, 5, vec![1]));
        mb.deliver(Envelope::new(2, 0, 5, vec![2]));
        assert_eq!(mb.recv(2, Some(0), 5).payload, vec![2]);
        assert_eq!(mb.recv(1, Some(0), 5).payload, vec![1]);
    }

    #[test]
    fn timeout_expires_without_message() {
        let mb = Mailbox::new();
        let got = mb.recv_timeout(0, None, 1, Duration::from_millis(20));
        assert!(got.is_none());
    }

    #[test]
    fn timeout_returns_message_delivered_while_waiting() {
        let mb = Mailbox::new();
        let mb2 = Arc::clone(&mb);
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            mb2.deliver(env(0, 9));
        });
        let got = mb.recv_timeout(0, Some(0), 9, Duration::from_secs(5));
        assert!(got.is_some());
        t.join().unwrap();
    }

    #[test]
    fn blocking_recv_wakes_on_delivery() {
        let mb = Mailbox::new();
        let mb2 = Arc::clone(&mb);
        let t = thread::spawn(move || mb2.recv(0, Some(4), 2));
        thread::sleep(Duration::from_millis(20));
        mb.deliver(env(4, 2));
        let got = t.join().unwrap();
        assert_eq!(got.src, 4);
    }

    #[test]
    fn two_threads_blocking_on_different_tags() {
        // The core property a raw channel lacks: concurrent selective recvs.
        let mb = Mailbox::new();
        let mb_a = Arc::clone(&mb);
        let mb_b = Arc::clone(&mb);
        let ta = thread::spawn(move || mb_a.recv(0, None, 100));
        let tb = thread::spawn(move || mb_b.recv(0, None, 200));
        thread::sleep(Duration::from_millis(10));
        // Deliver in the "wrong" order; each thread must get its own tag.
        mb.deliver(env(0, 200));
        mb.deliver(env(1, 100));
        assert_eq!(ta.join().unwrap().tag, 100);
        assert_eq!(tb.join().unwrap().tag, 200);
    }

    #[test]
    fn recv_from_live_fails_when_peer_dies() {
        let mb = Mailbox::new();
        let mb2 = Arc::clone(&mb);
        let t = thread::spawn(move || mb2.recv_from_live(0, Some(3), 7, Some(3)));
        thread::sleep(Duration::from_millis(20));
        mb.mark_peer_dead(3);
        assert_eq!(t.join().unwrap(), Err(PeerLost { world_rank: 3 }));
    }

    #[test]
    fn recv_from_live_ignores_other_peers_deaths() {
        let mb = Mailbox::new();
        let mb2 = Arc::clone(&mb);
        let t = thread::spawn(move || mb2.recv_from_live(0, Some(3), 7, Some(3)));
        thread::sleep(Duration::from_millis(10));
        // A different peer dying must not fail a wait on rank 3.
        mb.mark_peer_dead(5);
        thread::sleep(Duration::from_millis(10));
        mb.deliver(env(3, 7));
        assert!(t.join().unwrap().is_ok());
    }

    #[test]
    fn queued_messages_from_a_dead_peer_remain_receivable() {
        // Death means nothing *new* arrives; a frame delivered before the
        // EOF must still be consumed (the final-result race on shutdown).
        let mb = Mailbox::new();
        mb.deliver(env(2, 9));
        mb.mark_peer_dead(2);
        assert!(mb.recv_from_live(0, Some(2), 9, Some(2)).is_ok());
        // Now the queue is empty and the peer is dead: fail.
        assert!(mb.recv_from_live(0, Some(2), 9, Some(2)).is_err());
    }

    #[test]
    fn cleared_peer_death_unblocks_future_receives() {
        let mb = Mailbox::new();
        mb.mark_peer_dead(4);
        assert!(mb.recv_from_live(0, Some(4), 1, Some(4)).is_err());
        // Replace the link: the peer is live again and deliveries flow.
        mb.clear_peer_dead(4);
        assert!(!mb.peer_is_dead(4));
        let mb2 = Arc::clone(&mb);
        let t = thread::spawn(move || mb2.recv_from_live(0, Some(4), 1, Some(4)));
        thread::sleep(Duration::from_millis(20));
        mb.deliver(env(4, 1));
        assert!(t.join().unwrap().is_ok());
    }

    #[test]
    fn probe_and_len() {
        let mb = Mailbox::new();
        assert!(!mb.probe(0, None, 1));
        mb.deliver(env(0, 1));
        assert!(mb.probe(0, None, 1));
        assert_eq!(mb.len(), 1);
        mb.recv(0, None, 1);
        assert!(mb.is_empty());
    }
}
