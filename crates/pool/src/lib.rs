//! A reusable worker pool with deterministic chunked work assignment.
//!
//! Every hot path in the workspace that previously spawned fresh
//! `std::thread::scope` threads per call (GEMM row blocks, data-parallel
//! gradient accumulation, campaign grids) dispatches
//! onto one set of long-lived workers instead. The pool's contract is
//! the determinism contract of DESIGN.md Contract 9:
//!
//! * **Static assignment** ([`WorkerPool::run`], [`WorkerPool::scatter`]):
//!   task `t` always runs on worker `t % threads`, and each worker
//!   processes its tasks in ascending order. Which OS thread executes a
//!   task never influences results — tasks write disjoint outputs — so
//!   outputs are bit-identical for every pool size, including the
//!   inline (single-threaded) path.
//! * **Dynamic assignment** ([`WorkerPool::run_dynamic`]): workers drain
//!   an atomic counter. Only for coarse-grained independent tasks whose
//!   results are written to per-task slots and do not depend on
//!   execution order (campaign tasks, multi-seed panels).
//!
//! Nested dispatch is safe: a task that itself calls into the pool runs
//! its sub-tasks inline on the current worker (ascending order, same
//! results), so layered parallelism (training batch → GEMM) can never
//! deadlock the fixed-size pool. The tradeoff is that nested levels do
//! not fan out: when fewer coarse tasks than workers are in flight, the
//! idle workers stay idle (the previous scoped-thread design
//! oversubscribed the machine instead). Size coarse-grained dispatches
//! to at least the worker count to saturate the pool.
//!
//! **Panic isolation** ([`WorkerPool::run_dynamic_isolated`]): the
//! supervision entry point. Each task runs under its own `catch_unwind`,
//! so one panicking task cannot abort its worker's remaining tasks or
//! unwind into the dispatcher; the call returns a per-task
//! [`TaskOutcome`] instead of re-throwing. Surviving tasks run and
//! produce the results they would have had with no panic in the batch —
//! the pool-level half of DESIGN.md Contract 13.

#![deny(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// One dispatch epoch: a type-erased borrow of the caller's closure plus
/// the task count.
#[derive(Clone, Copy)]
struct JobMsg {
    /// Erased `&(dyn Fn(usize) + Sync)` owned by the dispatching call.
    ///
    /// Validity: the dispatcher blocks until every worker has finished
    /// the epoch, so the borrow outlives every dereference.
    func: *const (dyn Fn(usize) + Sync),
    tasks: usize,
}

// SAFETY: see `JobMsg::func` — the pointee is kept alive (and only
// shared, `Sync`) for the whole epoch.
unsafe impl Send for JobMsg {}

struct State {
    epoch: u64,
    job: Option<JobMsg>,
    active: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
}

impl Shared {
    /// Locks the state, recovering from a poisoned mutex (a worker panic
    /// is already captured separately and re-thrown at the dispatcher).
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

thread_local! {
    /// The worker index of the current thread, when it is a pool worker
    /// (of any pool — indices are per-pool, 0-based, stable for the
    /// thread's lifetime).
    static WORKER_ID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// A fixed set of long-lived worker threads executing borrowed closures
/// with deterministic task assignment. See the crate docs for the
/// determinism contract.
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: usize,
    /// Serializes dispatches from distinct (non-worker) caller threads.
    dispatch: Mutex<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (clamped to at least 1).
    /// With one thread no OS threads are spawned at all: every dispatch
    /// runs inline on the caller.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = if threads == 1 {
            Vec::new()
        } else {
            (0..threads)
                .map(|id| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("cv-pool-{id}"))
                        .spawn(move || worker_loop(&shared, id, threads))
                        .expect("worker spawn")
                })
                .collect()
        };
        WorkerPool {
            shared,
            threads,
            dispatch: Mutex::new(()),
            handles,
        }
    }

    /// The process-wide shared pool, sized by `CV_POOL_THREADS` when set
    /// (clamped to 1..=256) and `std::thread::available_parallelism()`
    /// otherwise. Built lazily on first use.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = std::env::var("CV_POOL_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .map(|n| n.clamp(1, 256))
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                });
            WorkerPool::new(threads)
        })
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether the current thread is one of this process's pool workers
    /// (any pool — a nested dispatch always runs inline).
    pub fn on_worker_thread() -> bool {
        Self::current_worker().is_some()
    }

    /// The current thread's worker index (0-based, stable for the
    /// thread's lifetime), when it is a pool worker. Non-worker threads
    /// (including the dispatcher, and every thread of a 1-thread pool,
    /// which runs inline) return `None`.
    fn current_worker() -> Option<usize> {
        WORKER_ID.with(std::cell::Cell::get)
    }

    /// Runs `f(t)` for every `t in 0..tasks` with static assignment:
    /// task `t` on worker `t % threads`, ascending per worker. Blocks
    /// until all tasks finish; a panicking task is re-thrown here after
    /// the epoch drains. Tasks must write disjoint outputs (keyed by
    /// `t`) for the determinism contract to hold.
    pub fn run<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        if tasks == 0 {
            return;
        }
        if self.handles.is_empty() || tasks == 1 || Self::on_worker_thread() {
            for t in 0..tasks {
                f(t);
            }
            return;
        }
        let _dispatch = self
            .dispatch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let erased: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: erasing the borrow's lifetime is sound because this
        // call does not return until `active == 0`, i.e. until no worker
        // can dereference the pointer again.
        let func: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(erased)
        };
        let mut st = self.shared.lock();
        st.job = Some(JobMsg { func, tasks });
        st.epoch = st.epoch.wrapping_add(1);
        st.active = self.handles.len();
        self.shared.work_cv.notify_all();
        while st.active != 0 {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.job = None;
        let panic = st.panic.take();
        drop(st);
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }

    /// Splits `data` into contiguous chunks of `chunk_len` (the last one
    /// shorter, mirroring `slice::chunks_mut`) and runs
    /// `f(chunk_index, chunk)` across the workers with static
    /// assignment. The lock-free counterpart of collecting per-item
    /// mutexes: each chunk is written by exactly one task.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`.
    pub fn scatter<T: Send, F: Fn(usize, &mut [T]) + Sync>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        f: F,
    ) {
        assert!(chunk_len > 0, "scatter chunk_len must be positive");
        let n_chunks = data.len().div_ceil(chunk_len);
        let base = data.as_mut_ptr() as usize;
        let len = data.len();
        self.run(n_chunks, |c| {
            let start = c * chunk_len;
            let end = (start + chunk_len).min(len);
            // SAFETY: chunk `c` covers `start..end`; chunks are disjoint
            // and each chunk index is executed exactly once, so no two
            // tasks alias. `base` round-trips through `usize` only to
            // keep the closure `Sync`.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut((base as *mut T).add(start), end - start) };
            f(c, chunk);
        });
    }

    /// The panic-isolated counterpart of [`WorkerPool::run_dynamic`]:
    /// dynamic assignment across at most `max_workers` workers, each
    /// task under its own `catch_unwind`, and one [`TaskOutcome`] per
    /// task returned instead of re-thrown. A panicking task never derails
    /// the other tasks of the batch — its worker moves on to the next
    /// task, and the pool stays fully usable.
    ///
    /// The closure may hold state across the unwind boundary
    /// (`AssertUnwindSafe`): callers own the judgement that a panicked
    /// task's partial effects are discarded or isolated per task slot —
    /// the supervision layers above (e.g. `campaignd`) discard the
    /// poisoned per-task state and rebuild it from durable storage.
    pub fn run_dynamic_isolated<F: Fn(usize) + Sync>(
        &self,
        tasks: usize,
        max_workers: usize,
        f: F,
    ) -> Vec<TaskOutcome> {
        let slots: Vec<std::sync::Mutex<Option<String>>> =
            (0..tasks).map(|_| std::sync::Mutex::new(None)).collect();
        self.run_dynamic(tasks, max_workers, |t| {
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(t))) {
                let msg = panic_message(p);
                *slots[t]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(msg);
            }
        });
        slots
            .into_iter()
            .map(|s| {
                match s
                    .into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                {
                    None => TaskOutcome::Completed,
                    Some(msg) => TaskOutcome::Panicked(msg),
                }
            })
            .collect()
    }

    /// Runs `f(t)` for every `t in 0..tasks` with **dynamic** (atomic
    /// work-stealing) assignment across at most `max_workers` workers.
    /// Use only when results are written to per-task slots and do not
    /// depend on which worker ran which task — coarse independent units
    /// such as campaign tasks.
    pub fn run_dynamic<F: Fn(usize) + Sync>(&self, tasks: usize, max_workers: usize, f: F) {
        if tasks == 0 {
            return;
        }
        let width = max_workers.clamp(1, tasks);
        if self.handles.is_empty() || width == 1 || tasks == 1 || Self::on_worker_thread() {
            for t in 0..tasks {
                f(t);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        self.run(self.threads, |w| {
            if w >= width {
                return;
            }
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                f(i);
            }
        });
    }
}

/// The per-task result of an isolated dispatch
/// ([`WorkerPool::run_dynamic_isolated`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskOutcome {
    /// The task ran to completion.
    Completed,
    /// The task panicked; the payload is rendered to a string (the
    /// panic message, or a placeholder for non-string payloads).
    Panicked(String),
}

impl TaskOutcome {
    /// Whether this task panicked.
    pub fn panicked(&self) -> bool {
        matches!(self, TaskOutcome::Panicked(_))
    }
}

/// Renders a caught panic payload as a message string.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, id: usize, threads: usize) {
    WORKER_ID.with(|f| f.set(Some(id)));
    let mut seen = 0u64;
    loop {
        let msg = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break st.job.expect("job present while epoch is live");
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // SAFETY: the dispatcher keeps the closure alive until this
        // worker (and all others) decrement `active` below.
        let func = unsafe { &*msg.func };
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut t = id;
            while t < msg.tasks {
                func(t);
                t += threads;
            }
        }));
        let mut st = shared.lock();
        if let Err(p) = result {
            if st.panic.is_none() {
                st.panic = Some(p);
            }
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_executes_every_task_exactly_once() {
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
            pool.run(hits.len(), |t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn scatter_chunks_match_chunks_mut_semantics() {
        for threads in [1, 2, 5] {
            let pool = WorkerPool::new(threads);
            let mut data = vec![0usize; 23];
            pool.scatter(&mut data, 4, |c, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = c * 100 + i;
                }
            });
            let mut expect = vec![0usize; 23];
            for (c, chunk) in expect.chunks_mut(4).enumerate() {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = c * 100 + i;
                }
            }
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn results_are_independent_of_pool_size() {
        // The same deterministic per-task computation lands in the same
        // slot whatever the worker count.
        let reference: Vec<u64> = (0..101u64).map(|t| t.wrapping_mul(0x9E3779B9)).collect();
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            let mut out = vec![0u64; 101];
            pool.scatter(&mut out, 9, |c, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    let t = (c * 9 + i) as u64;
                    *v = t.wrapping_mul(0x9E3779B9);
                }
            });
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        pool.run(4, |outer| {
            // Nested call on a worker thread: must run inline.
            WorkerPool::global().run(8, |inner| {
                total.fetch_add((outer * 8 + inner) as u64 + 1, Ordering::Relaxed);
            });
        });
        let expect: u64 = (0..32u64).map(|x| x + 1).sum();
        assert_eq!(total.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn dynamic_assignment_covers_all_tasks() {
        for (threads, width) in [(1, 4), (4, 1), (4, 2), (3, 99)] {
            let pool = WorkerPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..29).map(|_| AtomicUsize::new(0)).collect();
            pool.run_dynamic(hits.len(), width, |t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads} width={width}"
            );
        }
    }

    #[test]
    fn worker_panic_propagates_to_the_dispatcher() {
        let pool = WorkerPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |t| {
                if t == 5 {
                    panic!("task five exploded");
                }
            });
        }));
        let msg = *r
            .expect_err("panic must propagate")
            .downcast::<&str>()
            .unwrap();
        assert_eq!(msg, "task five exploded");
        // The pool stays usable after a panic.
        let count = AtomicUsize::new(0);
        pool.run(3, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn empty_dispatch_is_a_no_op() {
        let pool = WorkerPool::new(3);
        pool.run(0, |_| panic!("must not run"));
        let mut empty: [u8; 0] = [];
        pool.scatter(&mut empty, 5, |_, _| panic!("must not run"));
        pool.run_dynamic(0, 3, |_| panic!("must not run"));
        assert!(pool
            .run_dynamic_isolated(0, 3, |_| panic!("must not run"))
            .is_empty());
    }

    #[test]
    fn isolated_run_contains_panics_and_reports_per_task_outcomes() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
            let outcomes = pool.run_dynamic_isolated(hits.len(), threads, |t| {
                if t == 3 || t == 7 {
                    panic!("task {t} exploded");
                }
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(outcomes.len(), 16, "threads={threads}");
            for (t, outcome) in outcomes.iter().enumerate() {
                if t == 3 || t == 7 {
                    assert_eq!(
                        *outcome,
                        TaskOutcome::Panicked(format!("task {t} exploded")),
                        "threads={threads}"
                    );
                    assert_eq!(hits[t].load(Ordering::Relaxed), 0);
                } else {
                    assert_eq!(*outcome, TaskOutcome::Completed, "threads={threads} t={t}");
                    assert_eq!(
                        hits[t].load(Ordering::Relaxed),
                        1,
                        "threads={threads} t={t}: a panic elsewhere must not \
                         derail this task"
                    );
                }
            }
        }
    }

    #[test]
    fn isolated_dynamic_covers_all_tasks_despite_panics() {
        for (threads, width) in [(1, 4), (4, 2), (3, 99)] {
            let pool = WorkerPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..29).map(|_| AtomicUsize::new(0)).collect();
            let outcomes = pool.run_dynamic_isolated(hits.len(), width, |t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
                if t % 5 == 0 {
                    panic!("boom {t}");
                }
            });
            for (t, outcome) in outcomes.iter().enumerate() {
                assert_eq!(
                    hits[t].load(Ordering::Relaxed),
                    1,
                    "threads={threads} width={width} t={t}"
                );
                assert_eq!(
                    outcome.panicked(),
                    t % 5 == 0,
                    "threads={threads} width={width} t={t}"
                );
            }
        }
    }

    #[test]
    fn pool_stays_usable_after_isolated_panics() {
        let pool = WorkerPool::new(2);
        let outcomes = pool.run_dynamic_isolated(4, 2, |_| panic!("all of them"));
        assert!(outcomes.iter().all(TaskOutcome::panicked));
        // Both the isolated and the re-throwing entry points still work.
        let count = AtomicUsize::new(0);
        pool.run(5, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 5);
        let outcomes = pool.run_dynamic_isolated(3, 2, |_| {});
        assert!(outcomes.iter().all(|o| *o == TaskOutcome::Completed));
    }

    #[test]
    fn isolated_panic_payloads_render_to_messages() {
        let pool = WorkerPool::new(1);
        let outcomes = pool.run_dynamic_isolated(3, 1, |t| match t {
            0 => panic!("{}", format!("owned string {t}")),
            1 => panic!("static str"),
            _ => std::panic::panic_any(42usize),
        });
        assert_eq!(
            outcomes,
            vec![
                TaskOutcome::Panicked("owned string 0".to_string()),
                TaskOutcome::Panicked("static str".to_string()),
                TaskOutcome::Panicked("non-string panic payload".to_string()),
            ]
        );
    }
}
