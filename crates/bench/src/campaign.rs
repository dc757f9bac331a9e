//! The resumable campaign orchestrator: method×seed×width×tech grids
//! executed on the process-wide [`cv_pool::WorkerPool`], with per-round
//! JSONL telemetry and durable checkpoints that make an interrupted
//! campaign resume bit-for-bit (Contract 8, DESIGN.md §7).
//!
//! A campaign task is a [`JobSpec`] — the same description a `campaignd`
//! job submits — so a spec leaves the same files under the same stem
//! ([`JobSpec::id`]) whichever front end runs it. Tasks are coarse and
//! independent (each owns its evaluator, archive, and on-disk files),
//! so they ride the pool's *dynamic* assignment: scheduling balances
//! load without influencing any result.
//!
//! Each task runs one `MethodDriver` through the shared
//! `crate::persist::RunningTask` step engine — the same engine the
//! `campaignd` service (DESIGN.md §10) interleaves across jobs. Every
//! `checkpoint_every` simulations the engine appends one record of the
//! work since the previous checkpoint (the new simulations in order,
//! the new telemetry lines, the driver's state) to the task journal
//! `<id>.journal`, then appends the new lines to the telemetry stream
//! `<id>.jsonl`.
//!
//! On completion the engine rotates the journal down to one *completed*
//! record and writes the final `<id>.jsonl` and `<id>.done` (outcome +
//! archive bytes). A re-run of the same campaign directory skips
//! `.done` tasks, resumes the rest from their journal's latest
//! checkpoint (or starts them fresh) — so after a kill (or a
//! deterministic `halt_after` stop) the final outputs byte-match an
//! uninterrupted run; the CI `crash-smoke` job enforces exactly that.
//!
//! **Durability (Contract 10, DESIGN.md §9).** Every persistent
//! artifact flows through the audited write path in [`cv_journal::fs`]
//! (unique staging names, fsync before rename, parent-directory sync),
//! and each task records its life in an append-only checksummed
//! [`cv_journal::Journal`]: *started*, one *checkpoint* record per
//! checkpoint, *completed* (the final result and telemetry bytes) at
//! the end. The journal is the only resume source. Recovery folds the
//! checkpoint records of its durable prefix into the state at the last
//! one and rewrites `<id>.jsonl` from them: a torn tail is truncated, a
//! corrupt or truncated `.done` is logged and treated as absent (never
//! a panic), and a crash that landed after the *completed* record but
//! before the result files heals the files from the journal — so every
//! injected crash point resumes to byte-identical outputs. The fault-injection
//! proptests in `tests/crash_recovery.rs` and the CI `crash-smoke` job
//! (`CV_FAILPOINT`) pin exactly that.

use crate::persist::{tech_slug, OpenedTask, RunningTask, TaskStep};
use cv_journal::{failpoint, fs};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

pub use crate::persist::{JobSpec, TaskResult};

/// Campaign execution policy.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Where journals, telemetry and results live.
    pub dir: PathBuf,
    /// Simulations between checkpoints.
    pub checkpoint_every: usize,
    /// Worker threads of the persistent pool.
    pub threads: usize,
    /// Stop the whole campaign after this many checkpoint writes — the
    /// deterministic stand-in for a mid-run kill, used by the CI
    /// resume-equality smoke. `None` runs to completion.
    pub halt_after: Option<usize>,
    /// Rotate a task's event journal once its segment exceeds this many
    /// bytes (compacting it to one record of the latest durable state). Keeps
    /// long-running tasks' journals bounded; tests shrink it to force
    /// rotation under fault injection.
    pub journal_max_bytes: u64,
}

/// Default journal segment cap (see
/// [`CampaignConfig::journal_max_bytes`]).
pub const JOURNAL_MAX_BYTES: u64 = 1 << 20;

/// Shared halt bookkeeping: counts checkpoint writes and flips the halt
/// flag once the configured limit is reached.
struct HaltState {
    checkpoints: AtomicUsize,
    halted: AtomicBool,
    limit: Option<usize>,
}

impl HaltState {
    fn new(limit: Option<usize>) -> Self {
        HaltState {
            checkpoints: AtomicUsize::new(0),
            halted: AtomicBool::new(false),
            limit,
        }
    }

    fn halted(&self) -> bool {
        self.halted.load(Ordering::Relaxed)
    }

    fn note_checkpoint(&self) {
        let n = self.checkpoints.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(limit) = self.limit {
            if n >= limit {
                self.halted.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Runs one task to completion (or to the campaign halt) through the
/// shared [`RunningTask`] step engine. Returns `Ok(None)` when the task
/// was interrupted by the halt flag (its checkpoint is on disk).
///
/// # Errors
///
/// Propagates persistence failures — including crashes injected by an
/// armed [`failpoint`] in `Error` mode, which the campaign treats as a
/// process death.
fn run_task(
    task: &JobSpec,
    cfg: &CampaignConfig,
    halt: &HaltState,
) -> io::Result<Option<TaskResult>> {
    let mut running = match RunningTask::open(task, &cfg.dir, cfg.journal_max_bytes)? {
        OpenedTask::Done(result) => return Ok(Some(result)),
        OpenedTask::Run(running) => running,
    };
    loop {
        if halt.halted() {
            running.checkpoint_now()?;
            running.detach();
            return Ok(None);
        }
        match running.step(cfg.checkpoint_every)? {
            TaskStep::Done(result) => return Ok(Some(*result)),
            TaskStep::Running { checkpointed } => {
                if checkpointed {
                    halt.note_checkpoint();
                }
            }
        }
    }
}

/// Executes a campaign grid on the shared worker pool (at most
/// [`CampaignConfig::threads`] tasks in flight). Returns one entry per
/// task, in task order; `None` marks tasks interrupted by
/// [`CampaignConfig::halt_after`] (resume by re-running with the same
/// directory) or never started before the halt.
pub fn run_campaign(tasks: &[JobSpec], cfg: &CampaignConfig) -> Vec<Option<TaskResult>> {
    std::fs::create_dir_all(&cfg.dir).expect("campaign dir must be creatable");
    // Recovery step zero: staging files orphaned by a kill are noise the
    // directory must shed before it can byte-match a clean run.
    fs::sweep_tmp(&cfg.dir).expect("campaign dir must be sweepable");
    let halt = HaltState::new(cfg.halt_after);
    let results: Vec<parking_lot::Mutex<Option<TaskResult>>> = tasks
        .iter()
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    cv_pool::WorkerPool::global().run_dynamic(tasks.len(), cfg.threads.max(1), |i| {
        if halt.halted() {
            return;
        }
        match run_task(&tasks[i], cfg, &halt) {
            Ok(result) => *results[i].lock() = result,
            Err(e) if failpoint::is_crash(&e) => {
                // An injected crash: this "process" is dead. Stop the
                // campaign exactly as a halt would; the on-disk state is
                // whatever the crash point left durable.
                halt.halted.store(true, Ordering::Relaxed);
            }
            Err(e) => panic!("campaign persistence failed for {}: {e}", tasks[i].id()),
        }
    });
    results.into_iter().map(|m| m.into_inner()).collect()
}

/// Renders the campaign summary CSV (one row per completed task, in
/// task order) — the shared artifact the `campaign` binary publishes
/// and the crash-recovery suite byte-compares across resumes.
///
/// # Panics
///
/// Panics when any task is incomplete; callers gate on completeness.
pub fn summary_csv(tasks: &[JobSpec], results: &[Option<TaskResult>]) -> String {
    let mut csv = String::from("tech,width,method,seed,sims,best_cost,front_size\n");
    for (task, result) in tasks.iter().zip(results) {
        let r = result.as_ref().expect("campaign completed");
        let sims = r.outcome.history.last().map_or(0, |&(s, _)| s);
        csv.push_str(&format!(
            "{},{},{},{},{sims},{:.9},{}\n",
            tech_slug(task.tech),
            task.width,
            task.method.label(),
            task.seed,
            r.outcome.best_cost,
            r.archive.len()
        ));
    }
    csv
}

/// A boxed unit of pool work (what [`run_units`] consumes).
pub type Unit<T> = Box<dyn FnOnce() -> T + Send>;

/// Runs independent units on the shared worker pool, preserving input
/// order in the returned vector. The generic cousin of [`run_campaign`]
/// — `frontier` panels and multi-seed curve sets ride on it.
pub fn run_units<T: Send>(units: Vec<Unit<T>>, threads: usize) -> Vec<T> {
    let n = units.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return units.into_iter().map(|u| u()).collect();
    }
    let slots: Vec<parking_lot::Mutex<Option<Unit<T>>>> = units
        .into_iter()
        .map(|u| parking_lot::Mutex::new(Some(u)))
        .collect();
    let results: Vec<parking_lot::Mutex<Option<T>>> =
        (0..n).map(|_| parking_lot::Mutex::new(None)).collect();
    cv_pool::WorkerPool::global().run_dynamic(n, threads, |i| {
        let unit = slots[i].lock().take().expect("each unit runs once");
        *results[i].lock() = Some(unit());
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("all units completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Method, TechLibrary};
    use cv_prefix::CircuitKind;

    fn tiny_task(method: Method, seed: u64) -> JobSpec {
        JobSpec {
            method,
            kind: CircuitKind::Adder,
            width: 8,
            tech: TechLibrary::Nangate45Like,
            delay_weight: 0.5,
            budget: 30,
            seed,
        }
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cv_campaign_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn campaign_matches_direct_runs() {
        let dir = test_dir("direct");
        let tasks = vec![tiny_task(Method::Sa, 3), tiny_task(Method::Random, 4)];
        let cfg = CampaignConfig {
            dir: dir.clone(),
            checkpoint_every: usize::MAX,
            threads: 2,
            halt_after: None,
            journal_max_bytes: JOURNAL_MAX_BYTES,
        };
        let results = run_campaign(&tasks, &cfg);
        for (task, result) in tasks.iter().zip(&results) {
            let direct = crate::harness::run_method(task.method, &task.to_spec(), task.seed);
            let got = &result.as_ref().expect("completed").outcome;
            assert_eq!(got.to_ckpt_bytes(), direct.to_ckpt_bytes());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn halted_campaign_resumes_to_byte_identical_outputs() {
        let base = test_dir("halt");
        let clean_dir = base.join("clean");
        let resumed_dir = base.join("resumed");
        let tasks = vec![tiny_task(Method::Sa, 9), tiny_task(Method::Ga, 9)];
        let cfg = |dir: &PathBuf, halt: Option<usize>| CampaignConfig {
            dir: dir.clone(),
            checkpoint_every: 7,
            threads: 1,
            halt_after: halt,
            journal_max_bytes: JOURNAL_MAX_BYTES,
        };

        let clean = run_campaign(&tasks, &cfg(&clean_dir, None));
        assert!(clean.iter().all(Option::is_some));

        // Halt after two checkpoints (mid-first-task), then resume.
        let halted = run_campaign(&tasks, &cfg(&resumed_dir, Some(2)));
        assert!(
            halted.iter().any(Option::is_none),
            "the halt must interrupt at least one task"
        );
        let resumed = run_campaign(&tasks, &cfg(&resumed_dir, None));
        assert!(resumed.iter().all(Option::is_some));

        for (a, b) in clean.iter().zip(&resumed) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.outcome.to_ckpt_bytes(), b.outcome.to_ckpt_bytes());
            assert_eq!(a.archive.to_ckpt_bytes(), b.archive.to_ckpt_bytes());
        }
        // On-disk telemetry byte-matches too.
        for task in &tasks {
            let id = task.id();
            let a = std::fs::read(clean_dir.join(format!("{id}.jsonl"))).unwrap();
            let b = std::fs::read(resumed_dir.join(format!("{id}.jsonl"))).unwrap();
            assert_eq!(a, b, "telemetry for {id} must byte-match");
            let a = std::fs::read(clean_dir.join(format!("{id}.done"))).unwrap();
            let b = std::fs::read(resumed_dir.join(format!("{id}.done"))).unwrap();
            assert_eq!(a, b, "results for {id} must byte-match");
            let a = std::fs::read(clean_dir.join(format!("{id}.journal"))).unwrap();
            let b = std::fs::read(resumed_dir.join(format!("{id}.journal"))).unwrap();
            assert_eq!(a, b, "journals for {id} must byte-match");
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn run_units_preserves_order() {
        let units: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..17usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = run_units(units, 4);
        assert_eq!(out, (0..17usize).map(|i| i * i).collect::<Vec<_>>());
    }
}
