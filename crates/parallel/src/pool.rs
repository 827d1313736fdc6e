//! A long-lived worker pool on `std` threads.
//!
//! [`parallel_map`](crate::parallel_map) spawns scoped workers per call and
//! tears them down when the map returns — the right shape for a one-shot
//! batch, but wrong for a resident service that fields many requests over
//! its lifetime.  [`WorkerPool`] keeps its workers alive between
//! submissions and feeds them from one FIFO queue behind one lock: an idle
//! worker takes the oldest queued job, so an uneven submission (one huge
//! family next to a tiny one) still saturates every worker.
//!
//! The pool makes **no ordering promises** — completion order is whatever
//! the scheduler produces.  Deterministic-report callers impose order above
//! the pool by tagging jobs with their index and reassembling (the serve
//! engine does exactly this), which keeps streaming-in-completion-order and
//! byte-stable reports from fighting each other.
//!
//! A panicking job is contained to that job: the worker catches the unwind
//! and moves on.  Callers that need the payload route it through
//! [`catch_crash`](crate::catch_crash) inside the job instead.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

/// A fixed-size pool of long-lived worker threads fed from one FIFO queue
/// (see the [module docs](self)).
///
/// Dropping the pool shuts it down: queued jobs still run to completion,
/// then the workers exit and are joined.
///
/// # Examples
///
/// ```
/// use std::sync::mpsc;
/// use nncps_parallel::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let (tx, rx) = mpsc::channel();
/// for i in 0..8u64 {
///     let tx = tx.clone();
///     pool.spawn(move || tx.send(i * i).unwrap());
/// }
/// let mut squares: Vec<u64> = rx.iter().take(8).collect();
/// squares.sort_unstable();
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Starts a pool with `threads` workers (`0` = one per available core).
    /// With the `threads` feature disabled the pool degrades to a single
    /// worker, matching [`parallel_map`](crate::parallel_map)'s sequential
    /// fallback.
    pub fn new(threads: usize) -> Self {
        let threads = if cfg!(feature = "threads") {
            crate::effective_threads(threads).max(1)
        } else {
            1
        };
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Appends a job to the queue; the next idle worker runs it.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .push_back(Box::new(job));
        self.shared.work_ready.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            // A worker that panicked outside a job (it cannot: jobs are
            // unwind-caught) would surface here; ignore so Drop never
            // panics while unwinding.
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            // Contain per-job panics: the job owner routes payloads through
            // `catch_crash` if it wants them; the pool itself must survive.
            Some(job) => {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn all_jobs_run_once_across_thread_counts() {
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.threads(), threads);
            let counter = Arc::new(AtomicUsize::new(0));
            let (tx, rx) = mpsc::channel();
            for _ in 0..64 {
                let counter = Arc::clone(&counter);
                let tx = tx.clone();
                pool.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                    tx.send(()).unwrap();
                });
            }
            for _ in 0..64 {
                rx.recv().unwrap();
            }
            assert_eq!(counter.load(Ordering::Relaxed), 64);
        }
    }

    #[test]
    fn panicking_jobs_do_not_kill_the_pool() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        for i in 0..16 {
            let tx = tx.clone();
            pool.spawn(move || {
                if i % 3 == 0 {
                    panic!("job {i} goes down");
                }
                tx.send(i).unwrap();
            });
        }
        let mut survivors: Vec<i32> = rx.iter().take(10).collect();
        survivors.sort_unstable();
        assert_eq!(survivors, vec![1, 2, 4, 5, 7, 8, 10, 11, 13, 14]);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            for _ in 0..32 {
                let counter = Arc::clone(&counter);
                pool.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        // Drop joined the worker, which drained the queue first.
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn a_slow_job_does_not_block_the_rest_of_the_queue() {
        // Job 0 holds one worker until the other 19 jobs have reported; if
        // anything queued behind it waited for that worker, the timeouts
        // below would fire instead of the test hanging.
        let pool = WorkerPool::new(2);
        if pool.threads() < 2 {
            return; // the `threads` feature is off: one worker, no overlap
        }
        let timeout = std::time::Duration::from_secs(10);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (tx, rx) = mpsc::channel();
        let slow_tx = tx.clone();
        pool.spawn(move || {
            let _ = gate_rx.recv_timeout(timeout);
            slow_tx.send(0).unwrap();
        });
        for i in 1..20u32 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        let mut fast: Vec<u32> = (0..19).map(|_| rx.recv_timeout(timeout).unwrap()).collect();
        fast.sort_unstable();
        assert_eq!(fast, (1..20).collect::<Vec<u32>>());
        gate_tx.send(()).unwrap();
        assert_eq!(rx.recv_timeout(timeout).unwrap(), 0);
    }

    #[test]
    fn zero_resolves_to_available_cores() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
    }
}
