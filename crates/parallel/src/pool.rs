//! A shared, persistent worker pool for coarse-grained jobs.
//!
//! The scoped-thread helpers in the crate root parallelize *inside* one kernel call.
//! The [`Pool`] solves the complementary problem: many concurrent *callers* (the
//! serving layer's transform batches, background fits) each wanting CPU time. Routing
//! every such job through one process-wide pool bounds the number of jobs running at
//! once to [`crate::max_threads`], so concurrent transforms queue up instead of
//! oversubscribing the machine — each running job still uses the in-kernel
//! parallelism of the dense kernels, which reads the same thread budget.
//!
//! Jobs are executed in FIFO submission order by a fixed set of detached worker
//! threads. [`Pool::spawn`] is fire-and-forget, the shape the micro-batching
//! engine needs: each of its batch jobs runs one coalesced `transform` on the
//! pool, replies, and re-spawns itself at the back of the queue while the
//! engine's queue holds work. [`Pool::run`] blocks the submitting thread until
//! its job finishes and returns the job's value.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Signalled when a job is queued or shutdown begins.
    wake: Condvar,
}

/// A fixed-size worker pool executing boxed jobs in FIFO order.
pub struct Pool {
    inner: Arc<PoolInner>,
    workers: usize,
}

impl Pool {
    /// Spawn a pool with the given number of worker threads (at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        for i in 0..workers {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("tcca-pool-{i}"))
                .spawn(move || worker_loop(&inner))
                .expect("spawning a pool worker thread");
        }
        Self { inner, workers }
    }

    /// The process-wide shared pool, sized by [`crate::max_threads`] (so
    /// `TCCA_NUM_THREADS` bounds serving concurrency exactly as it bounds the dense
    /// kernels). Created on first use and never torn down.
    pub fn global() -> &'static Pool {
        global_arc()
    }

    /// The [`Pool::global`] pool behind a cloneable handle — the shape components
    /// that *default* to the shared pool but accept a dedicated one (a serving
    /// shard's private execution pool) want to store.
    pub fn shared() -> Arc<Pool> {
        Arc::clone(global_arc())
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Queued jobs not yet picked up by a worker.
    pub fn backlog(&self) -> usize {
        self.inner.state.lock().expect("pool lock").queue.len()
    }

    /// Submit a fire-and-forget job.
    ///
    /// # Panics
    /// Panics if the pool is shutting down (only possible for a dropped non-global
    /// pool; the global pool never shuts down).
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = self.inner.state.lock().expect("pool lock");
        assert!(!state.shutdown, "spawn on a shut-down pool");
        state.queue.push_back(Box::new(job));
        drop(state);
        self.inner.wake.notify_one();
    }

    /// Submit a job and block until it completes, returning its result.
    ///
    /// # Panics
    /// Re-panics (with a generic message) if the job itself panicked on the worker.
    pub fn run<T, F>(&self, job: F) -> T
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.spawn(move || {
            // Ignore a dropped receiver: the caller vanished, the work is discarded.
            let _ = tx.send(job());
        });
        rx.recv()
            .expect("pool job panicked before producing a result")
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().expect("pool lock");
        state.shutdown = true;
        drop(state);
        self.inner.wake.notify_all();
    }
}

/// Backing storage for [`Pool::global`] / [`Pool::shared`]: one `Arc` in a static,
/// so the `&'static` and the cloneable handle are the same pool.
fn global_arc() -> &'static Arc<Pool> {
    static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Pool::new(crate::max_threads())))
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut state = inner.state.lock().expect("pool lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = inner.wake.wait(state).expect("pool lock");
            }
        };
        // A panicking job must not kill the worker: the global pool is never
        // respawned, so a dead worker would strand queued jobs (and every caller
        // blocked in `run`) forever. `run` callers observe the panic through their
        // dropped result channel.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_jobs_and_returns_results() {
        let pool = Pool::new(3);
        assert_eq!(pool.workers(), 3);
        assert_eq!(pool.run(|| 6 * 7), 42);
        let s = pool.run(|| "hello".to_string());
        assert_eq!(s, "hello");
    }

    #[test]
    fn spawned_jobs_all_execute() {
        let pool = Pool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        // run() joins behind the spawned jobs of this single-submitter test only
        // once the queue has drained past them on both workers; poll instead.
        for _ in 0..200 {
            if counter.load(Ordering::SeqCst) == 50 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Arc::new(Pool::new(2));
        let mut handles = Vec::new();
        for t in 0..8 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || pool.run(move || t * t)));
        }
        let mut results: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort_unstable();
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        // (The expected panic prints a backtrace to stderr; that's harmless noise.)
        let pool = Pool::new(1);
        pool.spawn(|| panic!("job blew up"));
        // The single worker must survive and keep serving.
        assert_eq!(pool.run(|| 7), 7);
    }

    #[test]
    fn zero_workers_is_clamped() {
        let pool = Pool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.run(|| 1), 1);
    }

    #[test]
    fn global_pool_is_shared_and_sized_by_max_threads() {
        let a = Pool::global();
        let b = Pool::global();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.workers(), crate::max_threads());
        assert_eq!(a.run(|| 5), 5);
        // The cloneable handle is the same pool, not a second one.
        let c = Pool::shared();
        assert!(std::ptr::eq(a, &*c));
        assert_eq!(c.run(|| 8), 8);
    }
}
