//! Deterministic parallelism primitives: a reusable scoped worker pool,
//! an order-preserving parallel map built on it, and a long-lived owned
//! work queue for daemons.
//!
//! Three layers share this module. The experiment drivers (scheme
//! comparisons, threshold sweeps, figure scripts) run many *independent*
//! simulations through [`par_map`]; each simulation stays deterministic,
//! so running N of them on N cores changes nothing about any individual
//! result. [`par_map`] is a thin client of [`Pool`], a scoped pool whose
//! workers live for one call frame. Finally, the `dynapar-server`
//! daemon needs workers that outlive any one call frame and *survive
//! panicking jobs*: that is [`WorkQueue`], the owned (non-scoped)
//! sibling of `Pool` built on the same task-queue internals.
//!
//! There is no dependency on a thread-pool crate: workers are
//! [`std::thread::scope`] (or, for [`WorkQueue`], [`std::thread::spawn`])
//! threads looping on a mutex-protected task queue with a condvar,
//! returning results over a bounded channel. A panic in any [`Pool`] job
//! is caught on the worker and re-raised on the caller at the matching
//! [`Pool::recv`], exactly like the serial loop; a panic in a
//! [`WorkQueue`] job is swallowed after the job's own handler had its
//! chance, and the worker lives on to serve the next task.
//!
//! # Examples
//!
//! ```
//! use dynapar_engine::par::par_map;
//!
//! let squares = par_map((0u64..8).collect(), 4, |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// Environment variable consulted by [`default_jobs`]; same meaning as
/// the `--jobs` flag on the experiment binaries.
pub const JOBS_ENV: &str = "DYNAPAR_JOBS";

/// Resolves the worker count to use when the caller gave no explicit
/// `--jobs`: the `DYNAPAR_JOBS` environment variable if set to a
/// positive integer, else the machine's available parallelism, else 1.
///
/// The environment value is capped at the available parallelism:
/// oversubscribing cores cannot make deterministic simulations faster,
/// it only adds scheduler churn, so `DYNAPAR_JOBS=64` on a 4-core box
/// means 4. Degenerate environments (no detectable parallelism) get 1.
pub fn default_jobs() -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    jobs_from_env(std::env::var(JOBS_ENV).ok().as_deref(), hw)
}

/// Pure core of [`default_jobs`], split out so both paths (env override
/// capped at hardware, fallback to hardware) are testable without
/// process-global environment mutation.
fn jobs_from_env(env: Option<&str>, hw: usize) -> usize {
    let hw = hw.max(1);
    match env.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n.min(hw),
        _ => hw,
    }
}

/// Task queue shared between the submitting thread and the workers.
struct Queue<T> {
    tasks: VecDeque<T>,
    /// Set once the pool scope is over; woken workers exit instead of
    /// sleeping again.
    shutdown: bool,
}

/// The mutex+condvar task queue both [`Pool`] (scoped, borrowing) and
/// [`WorkQueue`] (owned, `'static`) workers loop on.
struct Shared<T> {
    queue: Mutex<Queue<T>>,
    cv: Condvar,
}

impl<T> Shared<T> {
    fn with_capacity(capacity: usize) -> Self {
        Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::with_capacity(capacity),
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues one task and wakes one sleeping worker.
    fn push(&self, task: T) {
        self.queue
            .lock()
            .expect("pool queue poisoned")
            .tasks
            .push_back(task);
        self.cv.notify_one();
    }

    /// Blocks until a task is available (FIFO) or shutdown is flagged
    /// with the queue empty. Queued tasks are drained before shutdown
    /// takes effect, so a graceful stop finishes accepted work.
    fn next_task(&self) -> Option<T> {
        let mut q = self.queue.lock().expect("pool queue poisoned");
        loop {
            if let Some(t) = q.tasks.pop_front() {
                return Some(t);
            }
            if q.shutdown {
                return None;
            }
            q = self.cv.wait(q).expect("pool queue poisoned");
        }
    }

    /// Flags shutdown and wakes every worker. With `discard`, queued
    /// tasks are dropped (prompt stop); without, workers drain them
    /// first. Returns the tasks discarded, so callers can account for
    /// work that will never run.
    fn stop(&self, discard: bool) -> Vec<T> {
        let dropped = {
            let mut q = match self.queue.lock() {
                Ok(q) => q,
                Err(_) => {
                    self.cv.notify_all();
                    return Vec::new();
                }
            };
            q.shutdown = true;
            if discard {
                q.tasks.drain(..).collect()
            } else {
                Vec::new()
            }
        };
        self.cv.notify_all();
        dropped
    }

    fn queued(&self) -> usize {
        self.queue.lock().expect("pool queue poisoned").tasks.len()
    }
}

/// Sets `shutdown` and wakes every worker. Runs on drop so workers are
/// released even when the pool body panics — otherwise
/// `std::thread::scope` would join blocked workers forever.
struct ShutdownGuard<'a, T>(&'a Shared<T>);

impl<T> Drop for ShutdownGuard<'_, T> {
    fn drop(&mut self) {
        self.0.stop(false);
    }
}

enum Mode<'a, T, R> {
    /// `jobs <= 1`: tasks run inline on `send`, results queue locally.
    /// A faithful serial baseline with zero thread machinery.
    Serial {
        f: &'a dyn Fn(T) -> R,
        ready: VecDeque<R>,
    },
    /// Worker threads drain the shared queue; results come back over a
    /// bounded channel in completion order.
    Threads {
        shared: &'a Shared<T>,
        rx: mpsc::Receiver<std::thread::Result<R>>,
    },
}

/// A scoped worker pool: submit tasks with [`send`](Pool::send), collect
/// results with [`recv`](Pool::recv). Results arrive in *completion*
/// order (serial mode: submission order); callers that need positional
/// order tag tasks with their index, as [`par_map`] does.
///
/// Built by [`Pool::scope`], which fixes the worker function for the
/// pool's whole lifetime — the same N threads serve every task, so
/// feeding the pool from a hot loop costs a queue push and a condvar
/// signal, not a thread spawn.
pub struct Pool<'a, T, R> {
    mode: Mode<'a, T, R>,
    pending: usize,
}

impl<T: Send, R: Send> Pool<'_, T, R> {
    /// Runs `body` with a pool of `jobs` workers all executing `f`, and
    /// returns `body`'s result. Workers live exactly as long as `body`:
    /// they are scoped threads, joined before `scope` returns, so `f`
    /// may borrow from the caller's stack.
    ///
    /// `capacity` pre-sizes the task queue and result channel; sized to
    /// the maximum number of in-flight tasks, the steady state allocates
    /// nothing per task. With `jobs <= 1` no threads are created and
    /// every task runs inline on `send`.
    pub fn scope<F, B, Out>(jobs: usize, capacity: usize, f: F, body: B) -> Out
    where
        F: Fn(T) -> R + Sync,
        B: FnOnce(&mut Pool<'_, T, R>) -> Out,
    {
        if jobs <= 1 {
            let mut pool = Pool {
                mode: Mode::Serial {
                    f: &f,
                    ready: VecDeque::with_capacity(capacity),
                },
                pending: 0,
            };
            return body(&mut pool);
        }
        let shared = Shared::with_capacity(capacity);
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        std::thread::scope(|scope| {
            let _guard = ShutdownGuard(&shared);
            for _ in 0..jobs {
                let tx = tx.clone();
                let shared = &shared;
                let f = &f;
                scope.spawn(move || {
                    while let Some(task) = shared.next_task() {
                        // Catch so one panicking task reaches the caller
                        // as a result instead of deadlocking its `recv`.
                        let res = catch_unwind(AssertUnwindSafe(|| f(task)));
                        if tx.send(res).is_err() {
                            return; // caller gone (body panicked); stop
                        }
                    }
                });
            }
            let mut pool = Pool {
                mode: Mode::Threads {
                    shared: &shared,
                    rx,
                },
                pending: 0,
            };
            body(&mut pool)
            // _guard drops here: shutdown + notify_all, then the scope
            // joins the (now exiting) workers.
        })
    }

    /// Submits one task. Serial mode runs it immediately on the calling
    /// thread; threaded mode enqueues it and wakes one worker.
    pub fn send(&mut self, task: T) {
        self.pending += 1;
        match &mut self.mode {
            Mode::Serial { f, ready } => ready.push_back(f(task)),
            Mode::Threads { shared, .. } => shared.push(task),
        }
    }

    /// Receives one result, blocking until a task completes. Results
    /// arrive in completion order (serial mode: submission order). If
    /// the corresponding task panicked, the panic resumes here.
    ///
    /// # Panics
    ///
    /// Panics if called with no outstanding [`send`](Pool::send).
    pub fn recv(&mut self) -> R {
        assert!(self.pending > 0, "Pool::recv without a matching send");
        self.pending -= 1;
        match &mut self.mode {
            Mode::Serial { ready, .. } => ready.pop_front().expect("serial result is ready"),
            Mode::Threads { rx, .. } => match rx.recv().expect("pool workers alive") {
                Ok(r) => r,
                Err(payload) => resume_unwind(payload),
            },
        }
    }

    /// Number of submitted tasks whose results have not been received.
    pub fn pending(&self) -> usize {
        self.pending
    }
}

/// A long-lived, owned worker queue: the daemon-grade sibling of
/// [`Pool`].
///
/// Where `Pool` is scoped (workers live exactly as long as one call
/// frame and panics re-raise at `recv`), a `WorkQueue` owns `'static`
/// worker threads that keep serving tasks for the queue's whole
/// lifetime. Tasks run strictly FIFO across all submitters, which is
/// what gives the `dynapar-server` job queue its cross-client fairness.
///
/// A panicking task does **not** kill its worker: the handler is
/// expected to do its own `catch_unwind` bookkeeping (e.g. mark the job
/// failed), and the queue adds a backstop catch so even a handler that
/// panics before its own bookkeeping leaves the worker alive for the
/// next task.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
/// use dynapar_engine::par::WorkQueue;
///
/// let sum = Arc::new(AtomicU64::new(0));
/// let s = sum.clone();
/// let q = WorkQueue::new(2, move |x: u64| {
///     s.fetch_add(x, Ordering::SeqCst);
/// });
/// for x in 1..=10 {
///     q.submit(x);
/// }
/// q.join(); // graceful: drains queued tasks, then stops the workers
/// assert_eq!(sum.load(Ordering::SeqCst), 55);
/// ```
pub struct WorkQueue<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<T: Send + 'static> WorkQueue<T> {
    /// Starts `jobs.max(1)` worker threads, each running `f` on every
    /// task it pops. Unlike [`Pool::scope`] there is no serial mode: a
    /// daemon must not execute jobs on its control thread, so even
    /// `jobs = 1` gets a real worker.
    pub fn new<F>(jobs: usize, f: F) -> Self
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        let shared = Arc::new(Shared::with_capacity(64));
        let f = Arc::new(f);
        let workers = (0..jobs.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    while let Some(task) = shared.next_task() {
                        // Backstop only: the handler is responsible for
                        // recording the failure; this keeps the worker
                        // alive even if the handler itself panicked.
                        let _ = catch_unwind(AssertUnwindSafe(|| f(task)));
                    }
                })
            })
            .collect();
        WorkQueue { shared, workers }
    }

    /// Enqueues one task (FIFO). Tasks submitted after
    /// [`shutdown_now`](WorkQueue::shutdown_now) or
    /// [`join`](WorkQueue::join) began are never run.
    pub fn submit(&self, task: T) {
        self.shared.push(task);
    }

    /// Number of tasks accepted but not yet popped by a worker.
    pub fn queued(&self) -> usize {
        self.shared.queued()
    }

    /// Prompt stop: discards queued-but-unstarted tasks, waits only for
    /// tasks already running, and returns the discarded tasks so the
    /// caller can account for them (the server marks those jobs
    /// cancelled).
    pub fn shutdown_now(mut self) -> Vec<T> {
        let dropped = self.shared.stop(true);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        dropped
    }

    /// Graceful stop: drains every queued task, then joins the workers.
    pub fn join(mut self) {
        self.shared.stop(false);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<T: Send + 'static> Drop for WorkQueue<T> {
    /// Dropping without an explicit `join`/`shutdown_now` stops
    /// promptly (queued tasks discarded), so an abandoned queue cannot
    /// wedge process exit behind unbounded queued work.
    fn drop(&mut self) {
        self.shared.stop(true);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Maps `f` over `items` using up to `jobs` worker threads, returning
/// results in input order.
///
/// The output is identical to `items.into_iter().map(f).collect()` for
/// any `jobs` value: parallelism only changes wall-clock time, never
/// results. With `jobs <= 1` (or one item or fewer) the map runs on the
/// calling thread with no thread machinery at all, so `--jobs 1` is a
/// faithful serial baseline.
///
/// If any invocation of `f` panics, the panic propagates to the caller
/// (other in-flight jobs run to completion first; queued jobs are
/// abandoned).
pub fn par_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Tag each item with its index so completion order cannot leak into
    // the output: results land positionally.
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    Pool::scope(
        jobs.min(n),
        n,
        |(i, item): (usize, T)| (i, f(item)),
        |pool| {
            for task in items.into_iter().enumerate() {
                pool.send(task);
            }
            for _ in 0..n {
                let (i, r) = pool.recv();
                out[i] = Some(r);
            }
        },
    );
    out.into_iter()
        .map(|slot| slot.expect("every index receives exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 200] {
            assert_eq!(par_map(items.clone(), jobs, |x| x * 3 + 1), expect, "jobs {jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(empty, 8, |x: u32| x).is_empty());
        assert_eq!(par_map(vec![41], 8, |x| x + 1), vec![42]);
    }

    #[test]
    fn handles_non_clone_items_and_results() {
        // T and R only need Send: boxed values exercise the move path.
        let items: Vec<Box<u64>> = (0..20).map(Box::new).collect();
        let out = par_map(items, 4, |b| Box::new(*b + 100));
        for (i, b) in out.iter().enumerate() {
            assert_eq!(**b, i as u64 + 100);
        }
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Early items take longest, so completion order inverts input
        // order — results must not.
        let items: Vec<u64> = (0..16).collect();
        let out = par_map(items, 8, |x| {
            let mut acc = x;
            for _ in 0..(16 - x) * 50_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, &(x, _)) in out.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    fn panic_in_job_propagates() {
        let r = std::panic::catch_unwind(|| {
            par_map((0..8).collect::<Vec<u32>>(), 4, |x| {
                if x == 5 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn env_jobs_capped_at_available_parallelism() {
        // DYNAPAR_JOBS above the machine's parallelism is clamped down.
        assert_eq!(jobs_from_env(Some("64"), 4), 4);
        assert_eq!(jobs_from_env(Some("3"), 4), 3);
        assert_eq!(jobs_from_env(Some("4"), 4), 4);
        assert_eq!(jobs_from_env(Some(" 2 "), 8), 2);
    }

    #[test]
    fn degenerate_environments_resolve_to_at_least_one() {
        // No detectable parallelism never yields 0 and never panics.
        assert_eq!(jobs_from_env(None, 0), 1);
        assert_eq!(jobs_from_env(Some("16"), 0), 1);
        // Unset / invalid / zero env falls back to the hardware count.
        assert_eq!(jobs_from_env(None, 6), 6);
        assert_eq!(jobs_from_env(Some("zap"), 6), 6);
        assert_eq!(jobs_from_env(Some("0"), 6), 6);
        assert_eq!(jobs_from_env(Some(""), 6), 6);
    }

    #[test]
    fn pool_runs_tasks_and_returns_results() {
        for jobs in [1, 2, 4] {
            let total: u64 = Pool::scope(jobs, 16, |x: u64| x * 2, |pool| {
                for x in 0..16u64 {
                    pool.send(x);
                }
                (0..16).map(|_| pool.recv()).sum()
            });
            assert_eq!(total, (0..16u64).map(|x| x * 2).sum(), "jobs {jobs}");
        }
    }

    #[test]
    fn pool_is_reusable_across_waves() {
        // The sim backend's shape: many small send/recv waves against
        // the same pool, with full drains between waves.
        Pool::scope(3, 8, |x: u32| x + 1, |pool| {
            for wave in 0..200u32 {
                let k = (wave % 5) + 1;
                for i in 0..k {
                    pool.send(wave * 10 + i);
                }
                let mut got: Vec<u32> = (0..k).map(|_| pool.recv()).collect();
                got.sort_unstable();
                let want: Vec<u32> = (0..k).map(|i| wave * 10 + i + 1).collect();
                assert_eq!(got, want);
                assert_eq!(pool.pending(), 0);
            }
        });
    }

    #[test]
    fn pool_serial_mode_runs_inline_in_order() {
        Pool::scope(1, 4, |x: u32| x * x, |pool| {
            pool.send(2);
            pool.send(3);
            assert_eq!(pool.pending(), 2);
            assert_eq!(pool.recv(), 4);
            assert_eq!(pool.recv(), 9);
        });
    }

    #[test]
    fn pool_task_panic_reaches_recv() {
        for jobs in [1, 4] {
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Pool::scope(jobs, 4, |x: u32| {
                    if x == 1 {
                        panic!("task boom");
                    }
                    x
                }, |pool| {
                    pool.send(1);
                    pool.recv()
                })
            }));
            assert!(r.is_err(), "jobs {jobs}");
        }
    }

    #[test]
    fn work_queue_runs_tasks_fifo_with_one_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        let started = std::sync::Arc::new(AtomicUsize::new(0));
        let (o, s) = (order.clone(), started.clone());
        let q = WorkQueue::new(1, move |x: u32| {
            o.lock().unwrap().push(x);
            s.fetch_add(1, Ordering::SeqCst);
        });
        for x in 0..32 {
            q.submit(x);
        }
        q.join();
        assert_eq!(*order.lock().unwrap(), (0..32).collect::<Vec<u32>>());
        assert_eq!(started.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn work_queue_workers_survive_panicking_tasks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let done = std::sync::Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        let q = WorkQueue::new(2, move |x: u32| {
            if x % 3 == 0 {
                panic!("task {x} boom");
            }
            d.fetch_add(1, Ordering::SeqCst);
        });
        for x in 0..30 {
            q.submit(x);
        }
        q.join();
        // 10 of the 30 tasks panic; the other 20 must all have run.
        assert_eq!(done.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn work_queue_shutdown_now_returns_undrained_tasks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // One worker blocked on a gate; everything behind it stays
        // queued until shutdown_now discards it.
        let gate = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let ran = std::sync::Arc::new(AtomicUsize::new(0));
        let (g, r) = (gate.clone(), ran.clone());
        let q = WorkQueue::new(1, move |_x: u32| {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            r.fetch_add(1, Ordering::SeqCst);
        });
        for x in 0..5 {
            q.submit(x);
        }
        // Wait until the worker has popped the first task.
        while q.queued() > 4 {
            std::thread::yield_now();
        }
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        let dropped = q.shutdown_now();
        // The running task finishes; between 0 and 4 remain discarded
        // (the worker may pop more after the gate opens, racing stop).
        assert!(dropped.len() <= 4, "dropped {:?}", dropped);
        assert_eq!(ran.load(Ordering::SeqCst) + dropped.len(), 5);
    }

    #[test]
    fn pool_body_panic_does_not_deadlock_workers() {
        // Body panics with tasks still queued; the shutdown guard must
        // release the sleeping workers so the scope can join them.
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Pool::scope(2, 4, |x: u32| x, |pool| {
                pool.send(7);
                panic!("body boom");
            })
        }));
        assert!(r.is_err());
    }
}
