//! Resident worker pool for intra-rank parallelism.
//!
//! The paper's implementation is two-level parallel: MPI across ranks plus
//! multithreading inside each process (§III-A). [`Pool`] is that inner level.
//! Workers are spawned once and parked on a condvar between jobs, so the
//! per-call cost of a parallel section is one mutex hand-off instead of a
//! `thread::scope` spawn/join cycle — the training loop issues thousands of
//! pooled matrix products per iteration, which made the per-call spawn the
//! dominant overhead.
//!
//! A job is split into chunks that the submitting thread *and* the resident
//! workers claim from a shared counter, so the caller is always one of the
//! workers and `Pool::new(1)` spawns no threads at all and runs everything
//! inline (single-threaded baselines pay zero synchronization cost).
//! Chunks are disjoint, and every kernel built on the pool accumulates
//! per-element in a fixed order, so results are bit-identical for every
//! worker count.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A fixed-width fork/join helper backed by resident threads.
///
/// `Pool::new(1)` (or [`Pool::serial`]) makes every dispatch execute
/// inline. Cloning a pool shares the same resident workers; the threads shut
/// down when the last clone is dropped.
///
/// # Fan-out cap
///
/// Splitting a compute-bound kernel across more threads than the host has
/// cores is pure loss: the chunks time-slice on the same cores and pay the
/// hand-off latency on top. [`Pool::new`] therefore caps the *dispatch*
/// fan-out at the host's available parallelism and only spawns as many
/// resident threads as that cap can ever dispatch to (the cap is fixed at
/// construction, so extra threads could never be used). The determinism
/// suites use [`Pool::uncapped`] to exercise the chunked code paths
/// regardless of the host they run on — results are bit-identical either
/// way, only wall-clock differs.
pub struct Pool {
    workers: usize,
    /// Upper bound on chunks per dispatch (host cores for [`Pool::new`],
    /// `workers` for [`Pool::uncapped`]).
    fanout_cap: usize,
    registry: Option<Arc<Registry>>,
}

/// Lifetime-erased fat pointer to the caller's job closure.
///
/// Only ever dereferenced while the submitting call is blocked in
/// [`Pool::execute`], which keeps the closure alive.
#[derive(Clone, Copy)]
struct RawJob(*const (dyn Fn(usize) + Sync));

impl RawJob {
    /// Erase the closure's borrow lifetime. Sound because the pointer is
    /// only dereferenced while the submitting [`Pool::execute`] call (which
    /// borrows the closure) is blocked waiting for the job to retire.
    fn erase(f: &(dyn Fn(usize) + Sync)) -> Self {
        // SAFETY: reference-to-reference transmute only changes the
        // lifetime; layout is identical.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        Self(erased)
    }
}

// SAFETY: the pointee is `Sync` (the bound on every job closure), and the
// submitting thread outlives every dereference (it blocks until the job is
// retired), so sending the pointer to worker threads is sound.
unsafe impl Send for RawJob {}

/// One in-flight job: a chunked closure plus claim/completion bookkeeping.
/// All fields are only touched under the pool mutex.
struct Job {
    func: RawJob,
    next: usize,
    nchunks: usize,
    running: usize,
}

struct State {
    job: Option<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The submitting thread parks here while straggler chunks finish.
    done_cv: Condvar,
}

/// Owns the worker handles; joining happens when the last [`Pool`] clone
/// drops this registry.
struct Registry {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for Registry {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut st = shared.state.lock();
    loop {
        if st.shutdown {
            return;
        }
        let claimed = match st.job.as_mut() {
            Some(job) if job.next < job.nchunks => {
                let c = job.next;
                job.next += 1;
                job.running += 1;
                Some((c, job.func))
            }
            _ => None,
        };
        match claimed {
            Some((chunk, func)) => {
                drop(st);
                // SAFETY: see `RawJob` — the submitter keeps the closure
                // alive until the job slot is cleared below.
                unsafe { (*func.0)(chunk) };
                st = shared.state.lock();
                let job = st.job.as_mut().expect("job retired while chunks were running");
                job.running -= 1;
                if job.next == job.nchunks && job.running == 0 {
                    st.job = None;
                    shared.done_cv.notify_all();
                }
            }
            None => shared.work_cv.wait(&mut st),
        }
    }
}

impl Pool {
    /// Create a pool that splits work across `workers` threads (min 1),
    /// with the dispatch fan-out capped at the host's core count.
    ///
    /// Spawns `workers - 1` resident threads; the calling thread is always
    /// the remaining worker.
    pub fn new(workers: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_fanout_cap(workers, cores)
    }

    /// Like [`Pool::new`] but without the host-core fan-out cap: every
    /// dispatch splits into up to `workers` chunks even on a smaller host.
    /// Used by the determinism tests (the chunked code paths must be
    /// exercised on any CI machine) and by cross-host benchmarks.
    pub fn uncapped(workers: usize) -> Self {
        Self::with_fanout_cap(workers, workers.max(1))
    }

    fn with_fanout_cap(workers: usize, fanout_cap: usize) -> Self {
        let workers = workers.max(1);
        let fanout_cap = fanout_cap.max(1);
        // Resident threads beyond the fan-out cap could never be handed a
        // chunk (the cap is fixed at construction), so don't spawn them —
        // a Pool::new(8) on a 1-core host runs fully inline with zero
        // threads instead of parking seven forever.
        let spawnable = workers.min(fanout_cap);
        if spawnable == 1 {
            return Self { workers, fanout_cap, registry: None };
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State { job: None, shutdown: false }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..spawnable - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lipiz-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        let registry = Registry { shared, handles: Mutex::new(handles) };
        Self { workers, fanout_cap, registry: Some(Arc::new(registry)) }
    }

    /// A pool that always runs inline on the calling thread.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Number of worker threads this pool fans out to.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Effective dispatch width: `workers` clamped to the fan-out cap (the
    /// host's core count for pools built by [`Pool::new`]).
    #[inline]
    pub fn fanout(&self) -> usize {
        self.workers.min(self.fanout_cap)
    }

    /// Run `f(chunk_index)` for every chunk in `0..nchunks`, fanning out to
    /// the resident workers and returning when all chunks are done.
    ///
    /// Runs inline when the pool is serial, the job is a single chunk, or a
    /// job is already in flight on this pool (nested or concurrent submit),
    /// so re-entrant use is safe — just not additionally parallel.
    fn execute(&self, nchunks: usize, f: &(dyn Fn(usize) + Sync)) {
        let run_inline = || {
            for c in 0..nchunks {
                f(c);
            }
        };
        let Some(registry) = &self.registry else {
            return run_inline();
        };
        if nchunks <= 1 {
            return run_inline();
        }
        let shared = &registry.shared;
        let mut st = shared.state.lock();
        if st.job.is_some() {
            drop(st);
            return run_inline();
        }
        st.job = Some(Job { func: RawJob::erase(f), next: 0, nchunks, running: 0 });
        drop(st);
        shared.work_cv.notify_all();
        // Participate as a worker, then wait out straggler chunks.
        let mut st = shared.state.lock();
        loop {
            let claimed = match st.job.as_mut() {
                Some(job) if job.next < job.nchunks => {
                    let c = job.next;
                    job.next += 1;
                    job.running += 1;
                    Some((c, job.func))
                }
                Some(_) => None,
                None => break,
            };
            match claimed {
                Some((chunk, func)) => {
                    drop(st);
                    // SAFETY: `func` is the closure `f` borrowed above; it
                    // outlives this call frame.
                    unsafe { (*func.0)(chunk) };
                    st = shared.state.lock();
                    let job = st.job.as_mut().expect("job retired while chunks were running");
                    job.running -= 1;
                    if job.next == job.nchunks && job.running == 0 {
                        st.job = None;
                        shared.done_cv.notify_all();
                        break;
                    }
                }
                None => shared.done_cv.wait(&mut st),
            }
        }
    }

    /// Split `rows` rows of a `row_width`-wide output buffer across workers,
    /// into at most `max_chunks` chunks.
    ///
    /// `f(start_row, n_rows, chunk)` receives a disjoint mutable chunk of
    /// `out` covering rows `[start_row, start_row + n_rows)`. `max_chunks`
    /// is the work-size gate of the pooled kernels: a caller that knows the
    /// job is only worth so many ways of parallelism (e.g. from a flop
    /// count) passes it here, and a ceiling of one runs the whole job inline
    /// with zero synchronization.
    ///
    /// # Panics
    /// Panics if `out.len() != rows * row_width`.
    pub fn run_rows_limited(
        &self,
        rows: usize,
        row_width: usize,
        out: &mut [f32],
        max_chunks: usize,
        f: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
    ) {
        assert_eq!(out.len(), rows * row_width, "run_rows buffer size");
        let nchunks = self.fanout().min(rows).min(max_chunks.max(1));
        if nchunks <= 1 {
            f(0, rows, out);
            return;
        }
        let bounds = chunk_bounds(rows, nchunks);
        let base = SyncPtr(out.as_mut_ptr());
        self.execute(nchunks, &|c| {
            let (start, take) = bounds(c);
            // SAFETY: chunk row ranges are disjoint and within `out`, so
            // each chunk index maps to a non-overlapping sub-slice.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(
                    base.get().add(start * row_width),
                    take * row_width,
                )
            };
            f(start, take, chunk);
        });
    }
}

/// Shared mutable base pointer for disjoint row chunks.
struct SyncPtr(*mut f32);

impl SyncPtr {
    /// The base pointer (method access keeps closures capturing the whole
    /// `Sync` wrapper rather than the raw field).
    fn get(&self) -> *mut f32 {
        self.0
    }
}
// SAFETY: only used to derive non-overlapping sub-slices (one per chunk
// index), so concurrent access never aliases.
unsafe impl Sync for SyncPtr {}

/// Balanced partition of `n` items into `nchunks` chunks: returns a
/// `chunk_index -> (start, len)` map with the remainder spread over the
/// leading chunks (same layout the scoped pool used).
fn chunk_bounds(n: usize, nchunks: usize) -> impl Fn(usize) -> (usize, usize) + Sync {
    let base = n / nchunks;
    let extra = n % nchunks;
    move |c: usize| {
        let start = c * base + c.min(extra);
        let take = base + usize::from(c < extra);
        (start, take)
    }
}

impl Clone for Pool {
    fn clone(&self) -> Self {
        Self {
            workers: self.workers,
            fanout_cap: self.fanout_cap,
            registry: self.registry.clone(),
        }
    }
}

impl PartialEq for Pool {
    fn eq(&self, other: &Self) -> bool {
        self.workers == other.workers
    }
}

impl Eq for Pool {}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("workers", &self.workers).finish()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Ungated dispatch: as many chunks as the pool's fan-out allows.
    fn run_rows(
        pool: &Pool,
        rows: usize,
        row_width: usize,
        out: &mut [f32],
        f: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
    ) {
        pool.run_rows_limited(rows, row_width, out, usize::MAX, f);
    }

    /// Dispatch `n` unit-width rows and count how many each chunk was handed.
    fn count_rows(pool: &Pool, n: usize, hits: &AtomicUsize) {
        run_rows(pool, n, 1, &mut vec![0.0; n], &|_, rows, _| {
            hits.fetch_add(rows, Ordering::SeqCst);
        });
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = Pool::serial();
        let mut out = vec![0.0; 6];
        run_rows(&pool, 3, 2, &mut out, &|r0, rows, chunk| {
            for (i, row) in chunk.chunks_exact_mut(2).enumerate() {
                row[0] = (r0 + i) as f32;
                row[1] = rows as f32;
            }
        });
        assert_eq!(out, vec![0.0, 3.0, 1.0, 3.0, 2.0, 3.0]);
    }

    #[test]
    fn parallel_rows_cover_everything_once() {
        let pool = Pool::uncapped(4);
        let rows = 13;
        let width = 3;
        let mut out = vec![0.0; rows * width];
        run_rows(&pool, rows, width, &mut out, &|r0, _rows, chunk| {
            for (i, row) in chunk.chunks_exact_mut(width).enumerate() {
                for v in row.iter_mut() {
                    *v += (r0 + i) as f32 + 1.0;
                }
            }
        });
        for r in 0..rows {
            for c in 0..width {
                assert_eq!(out[r * width + c], (r + 1) as f32, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn chunk_ceiling_caps_the_fan_out() {
        let pool = Pool::uncapped(4);
        for (max_chunks, expect) in [(0, 1), (1, 1), (2, 2), (usize::MAX, 4)] {
            let calls = AtomicUsize::new(0);
            pool.run_rows_limited(12, 1, &mut [0.0; 12], max_chunks, &|_, _, _| {
                calls.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(calls.load(Ordering::SeqCst), expect, "max_chunks {max_chunks}");
        }
    }

    #[test]
    fn more_workers_than_rows() {
        let pool = Pool::uncapped(8);
        let mut out = vec![0.0; 2];
        run_rows(&pool, 2, 1, &mut out, &|r0, _n, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (r0 + i) as f32;
            }
        });
        assert_eq!(out, vec![0.0, 1.0]);
    }

    #[test]
    fn zero_rows_is_noop() {
        let pool = Pool::uncapped(2);
        let mut out: Vec<f32> = vec![];
        run_rows(&pool, 0, 4, &mut out, &|_, rows, chunk| {
            assert_eq!((rows, chunk.len()), (0, 0));
        });
    }

    #[test]
    fn resident_workers_survive_many_jobs() {
        // The resident pool must hand off thousands of consecutive jobs
        // without deadlock or lost chunks (the whole point of residency).
        let pool = Pool::uncapped(3);
        let hits = AtomicUsize::new(0);
        for _ in 0..2000 {
            count_rows(&pool, 7, &hits);
        }
        assert_eq!(hits.load(Ordering::SeqCst), 7 * 2000);
    }

    #[test]
    fn nested_jobs_run_inline_without_deadlock() {
        let pool = Pool::uncapped(2);
        let hits = AtomicUsize::new(0);
        run_rows(&pool, 4, 1, &mut [0.0; 4], &|_, outer_rows, _| {
            // A pooled call from inside a pooled call must not deadlock.
            for _ in 0..outer_rows {
                count_rows(&pool, 3, &hits);
            }
        });
        // One inner sweep of 3 rows per outer row.
        assert_eq!(hits.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn clones_share_workers_and_drop_cleanly() {
        let pool = Pool::uncapped(4);
        let clone = pool.clone();
        assert_eq!(pool, clone);
        let hits = AtomicUsize::new(0);
        count_rows(&clone, 9, &hits);
        drop(clone);
        // Original still works after a clone is dropped.
        count_rows(&pool, 9, &hits);
        assert_eq!(hits.load(Ordering::SeqCst), 18);
    }

    #[test]
    fn chunk_bounds_cover_exactly() {
        for n in 0..40usize {
            for nchunks in 1..=8usize.min(n.max(1)) {
                let bounds = chunk_bounds(n, nchunks);
                let mut next = 0;
                for c in 0..nchunks {
                    let (start, take) = bounds(c);
                    assert_eq!(start, next, "n={n} nchunks={nchunks} c={c}");
                    next += take;
                }
                assert_eq!(next, n);
            }
        }
    }
}
