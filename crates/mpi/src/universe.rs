//! Launching a set of ranks.

use crate::comm::{Comm, Fabric};
use crate::transport::Transport;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Marks a rank dead in every mailbox if its thread unwinds, so peers
/// blocked on it fail with `PeerLost` — as a TCP reader does for a torn
/// connection — instead of waiting forever for a rank that is gone.
struct DeathNotice<'a> {
    fabric: &'a Fabric,
    rank: usize,
    /// The first rank to panic (`usize::MAX` while none has): the cause,
    /// as opposed to the peers its death then fails.
    first: &'a AtomicUsize,
}

impl Drop for DeathNotice<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let _ = self.first.compare_exchange(
            usize::MAX,
            self.rank,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        for r in 0..self.fabric.world_size() {
            self.fabric.mailbox(r).mark_peer_dead(self.rank);
        }
    }
}

/// Entry point: runs `n` ranks as threads, each receiving its WORLD
/// communicator (the analogue of `mpiexec -n <n>`).
pub struct Universe;

impl Universe {
    /// Join an externally-bootstrapped universe as world rank `rank` over
    /// `transport` — the multi-process analogue of [`Universe::run`], where
    /// each OS process calls `attach` once with its end of a socket
    /// transport (see [`crate::tcp::TcpFabric`]) instead of one process
    /// spawning every rank as a thread.
    pub fn attach(transport: Arc<dyn Transport>, rank: usize) -> Comm {
        Comm::world(transport, rank)
    }
    /// Run `f` on `n` ranks and return their results in rank order.
    ///
    /// A panic in any rank is propagated (with the rank number) after all
    /// ranks have been joined. A panicking rank is marked dead in every
    /// mailbox, so peers blocked on it fail too instead of deadlocking; the
    /// panic re-raised is that of the rank that failed first.
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        Self::run_on(Fabric::new(n), f)
    }

    /// [`Universe::run`] over a caller-built fabric — the way to run an
    /// in-process universe under a [`crate::fault::FaultPlan`]
    /// (see [`Fabric::with_faults`]).
    pub fn run_on<R, F>(fabric: std::sync::Arc<Fabric>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        let n = fabric.world_size();
        assert!(n > 0, "need at least one rank");
        let f = &f;
        let first = &AtomicUsize::new(usize::MAX);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let comm = Comm::world(fabric.clone(), rank);
                    let fabric = &*fabric;
                    s.spawn(move || {
                        let _notice = DeathNotice { fabric, rank, first };
                        f(comm)
                    })
                })
                .collect();
            let mut results = Vec::with_capacity(n);
            let mut panics = Vec::new();
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(r) => results.push(r),
                    Err(p) => panics.push((rank, p)),
                }
            }
            let first = first.load(Ordering::SeqCst);
            if let Some((rank, p)) = panics.into_iter().find(|(rank, _)| *rank == first) {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                panic!("rank {rank} panicked: {msg}");
            }
            results
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_rank_order() {
        let results = Universe::run(6, |comm| comm.rank() * 2);
        assert_eq!(results, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn single_rank_universe() {
        let results = Universe::run(1, |comm| {
            assert_eq!(comm.size(), 1);
            comm.barrier(); // degenerate barrier must not hang
            assert_eq!(comm.gather(0, &7u8), Some(vec![7]));
            comm.allgather_bytes(&[7u8])
        });
        assert_eq!(results[0], vec![vec![7u8]]);
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked")]
    fn panic_is_propagated_with_rank() {
        Universe::run(4, |comm| {
            if comm.rank() == 2 {
                panic!("deliberate failure");
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked: deliberate failure")]
    fn panicking_rank_fails_its_blocked_peers_and_is_the_one_named() {
        // Ranks 0 and 1 block in a collective rank 2 never joins: they must
        // fail instead of hanging, and the re-raised panic is the cause's,
        // not that of the lowest-numbered rank it took down.
        Universe::run(3, |comm| {
            if comm.rank() == 2 {
                panic!("deliberate failure");
            }
            comm.allgather_bytes(&[comm.rank() as u8]);
        });
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Universe::run(0, |_comm| ());
    }

    #[test]
    fn ranks_see_consistent_world() {
        let results = Universe::run(5, |comm| (comm.rank(), comm.size()));
        for (i, (rank, size)) in results.iter().enumerate() {
            assert_eq!(*rank, i);
            assert_eq!(*size, 5);
        }
    }
}
