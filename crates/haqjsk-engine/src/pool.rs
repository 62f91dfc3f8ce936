//! A reusable pool of worker threads with scoped (borrow-friendly) job
//! execution.
//!
//! Every Gram matrix in the workspace is an embarrassingly parallel batch of
//! expensive, independent jobs. Before the engine existed each kernel spawned
//! its own scoped threads per call; the pool amortises thread creation over
//! the process lifetime and gives one place to control the worker count (the
//! `HAQJSK_THREADS` environment variable).
//!
//! The central entry point is [`WorkerPool::scoped_run`], which runs a
//! borrowed closure over an index range and *blocks until every index has
//! been processed*. Blocking-before-return is what makes it sound to hand
//! the workers a non-`'static` closure: the closure reference is only
//! reachable through a task structure whose lifetime ends, with all workers
//! done, before `scoped_run` returns.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// Name of the environment variable overriding the worker count.
pub const THREADS_ENV_VAR: &str = "HAQJSK_THREADS";

/// Upper bound on auto-detected workers; explicit `HAQJSK_THREADS` values
/// may exceed it.
const MAX_AUTO_WORKERS: usize = 16;

/// Resolves the worker count: `HAQJSK_THREADS` if set to a positive integer,
/// otherwise the available parallelism capped at 16.
pub fn default_thread_count() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV_VAR) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_AUTO_WORKERS)
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued helper job, tagged with the address of the batch it helps so
/// the batch can withdraw the ones no worker started.
struct Queued {
    batch: usize,
    job: Job,
}

struct PoolShared {
    queue: Mutex<VecDeque<Queued>>,
    work_available: Condvar,
    shutting_down: AtomicBool,
}

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
            shutting_down: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("haqjsk-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a worker thread")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Runs `f(index)` for every `index in 0..count`, distributing indices
    /// over the workers (and the calling thread, which participates too).
    /// Returns once every index has been processed. If any invocation
    /// panics, the remaining indices are still drained and the panic is
    /// re-raised on the caller.
    pub fn scoped_run(&self, count: usize, f: &(dyn Fn(usize) + Sync)) {
        if count == 0 {
            return;
        }
        if count == 1 {
            f(0);
            return;
        }

        let task = Arc::new(ScopedTask {
            // SAFETY (lifetime erasure): the reference is only dereferenced
            // by workers that have claimed an index not yet counted as
            // complete, and this function blocks on the completion latch
            // until every index has completed — so no worker can observe
            // `f` after `scoped_run` returns. Helper jobs arriving later
            // see the exhausted index counter and return without ever
            // touching `f`.
            f: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(f as *const _)
            },
            next: AtomicUsize::new(0),
            count,
            incomplete: Mutex::new(count),
            all_done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });

        // One helper job per worker is enough: each drains the shared
        // index counter until the batch is exhausted. The caller's trace
        // context (if any) rides along so spans opened inside the jobs
        // stay children of the dispatching request.
        let trace_ctx = haqjsk_obs::TraceContext::current();
        let jobs = self.threads().min(count);
        let batch = Arc::as_ptr(&task) as usize;
        {
            let mut queue = self.shared.queue.lock().expect("queue poisoned");
            for _ in 0..jobs {
                let task = Arc::clone(&task);
                queue.push_back(Queued {
                    batch,
                    job: Box::new(move || {
                        let _trace = haqjsk_obs::TraceContext::attach(trace_ctx);
                        task.run_indices()
                    }),
                });
            }
        }
        crate::obs::pool_jobs_counter().add(jobs as u64);
        self.shared.work_available.notify_all();

        // The caller participates instead of idling; this also guarantees
        // progress if every pool worker is busy with other batches.
        task.run_indices();

        // Every index is claimed now, so a helper no worker has started
        // would only pop as a no-op: withdraw them. The task (and hence
        // its address) is alive until this function returns, so no other
        // batch's helpers carry the same tag.
        self.shared
            .queue
            .lock()
            .expect("queue poisoned")
            .retain(|queued| queued.batch != batch);

        // Wait for every *index* (not every helper job) to complete: the
        // workers still running claimed indices finish them.
        let mut incomplete = task.incomplete.lock().expect("latch poisoned");
        while *incomplete > 0 {
            incomplete = task
                .all_done
                .wait(incomplete)
                .expect("completion latch poisoned");
        }
        drop(incomplete);

        if task.panicked.load(Ordering::Acquire) {
            panic!("a worker panicked inside WorkerPool::scoped_run");
        }
    }

    /// Runs `f(index)` for `0..count` and collects the return values in
    /// index order.
    pub fn map<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        collect_indexed(count, f, |fill| self.scoped_run(count, fill))
    }
}

/// Collects `f(0..count)` in index order by handing `run` a fill closure to
/// execute over every index — the shared slot machinery behind
/// [`WorkerPool::map`] and the engine's backend-dispatched map. `run` must
/// invoke the fill closure for every index in `0..count` exactly once and
/// return only after all invocations completed.
pub(crate) fn collect_indexed<T, F>(
    count: usize,
    f: F,
    run: impl FnOnce(&(dyn Fn(usize) + Sync)),
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let out = SlotWriter(slots.as_mut_ptr());
    run(&|i| {
        // SAFETY: each index writes exactly one distinct slot, and the
        // slots vector outlives `run`'s blocking completion.
        unsafe { *out.slot(i) = Some(f(i)) };
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index filled its slot"))
        .collect()
}

/// Raw pointer to the output slots of [`collect_indexed`], shared across
/// workers; disjoint index access makes the aliasing sound.
struct SlotWriter<T>(*mut Option<T>);

unsafe impl<T: Send> Send for SlotWriter<T> {}
unsafe impl<T: Send> Sync for SlotWriter<T> {}

impl<T> SlotWriter<T> {
    unsafe fn slot(&self, i: usize) -> *mut Option<T> {
        self.0.add(i)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        self.shared.work_available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(queued) = queue.pop_front() {
                    break queued.job;
                }
                if shared.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.work_available.wait(queue).expect("queue poisoned");
            }
        };
        job();
    }
}

/// One `scoped_run` batch: the erased closure, the index counter and the
/// per-index completion latch.
struct ScopedTask {
    f: *const (dyn Fn(usize) + Sync + 'static),
    next: AtomicUsize,
    count: usize,
    /// Number of indices not yet completed; `scoped_run` returns when this
    /// reaches zero.
    incomplete: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
}

// SAFETY: the raw closure pointer is only dereferenced while scoped_run
// blocks the owning stack frame, and the pointee is Sync.
unsafe impl Send for ScopedTask {}
unsafe impl Sync for ScopedTask {}

impl ScopedTask {
    fn run_indices(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.count {
                break;
            }
            // SAFETY: index `i` is claimed but not yet completed, so the
            // caller is still blocked on the completion latch and the
            // borrowed closure is alive. The dereference happens only on
            // this path — a straggler job that finds the counter exhausted
            // never touches `f`.
            let f = unsafe { &*self.f };
            if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            let mut incomplete = self.incomplete.lock().expect("latch poisoned");
            *incomplete -= 1;
            if *incomplete == 0 {
                self.all_done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn queued(pool: &WorkerPool) -> usize {
        pool.shared.queue.lock().expect("queue poisoned").len()
    }

    #[test]
    fn a_finished_batch_withdraws_the_helpers_no_worker_started() {
        let pool = WorkerPool::new(2);
        let threads = pool.threads();
        // Every worker and the holding batch's caller, plus this thread.
        let (started, release) = (Barrier::new(threads + 2), Barrier::new(threads + 2));
        let (prior, after) = thread::scope(|scope| {
            scope.spawn(|| {
                pool.scoped_run(threads + 1, &|_| {
                    started.wait();
                    release.wait();
                })
            });
            started.wait();
            let prior = queued(&pool);
            let after: Vec<(usize, usize)> = (0..5)
                .map(|_| {
                    let seen = AtomicUsize::new(0);
                    pool.scoped_run(2, &|_| {
                        seen.fetch_add(1, Ordering::SeqCst);
                    });
                    (seen.load(Ordering::SeqCst), queued(&pool))
                })
                .collect();
            release.wait();
            (prior, after)
        });
        assert_eq!(
            after,
            vec![(2, prior); 5],
            "finished batches left helpers queued"
        );
        assert_eq!(queued(&pool), 0);
    }
}
