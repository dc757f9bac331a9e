//! The batch campaign: a method×seed×width×tech grid of [`JobSpec`]s
//! drained by an in-process `campaignd` [`Daemon`] with no socket
//! (DESIGN.md §7).
//!
//! [`run_campaign`] opens the campaign directory as the daemon's state
//! directory, refuses it if it holds another grid's unfinished jobs,
//! submits every task, runs [`Daemon::rounds`] while one of its tasks
//! is runnable or awaiting a retry, and reads each result back. A
//! campaign is therefore one `campaignd` session: the same scheduler,
//! the same per-task files under the same stem ([`JobSpec::id`]) —
//! `<id>.journal`, `<id>.jsonl`, `<id>.done` — plus the service journal
//! `campaignd.journal`, and the same guarantees:
//!
//! * every task's files are byte-identical whichever front end runs it
//!   and however rounds interleave it with others (Contract 11, DESIGN.md
//!   §10), so `threads` never changes a result;
//! * an uninterrupted campaign drains its grid in one pool dispatch:
//!   each task is opened by the worker that reaches it and runs to
//!   completion, so at most `threads` tasks are in memory at once;
//! * a killed campaign (or one stopped by `halt_after`) re-run over its
//!   directory replays the service journal and every task journal and
//!   ends byte-identical to an uninterrupted run — and `campaignd serve
//!   --dir` can finish it just as well. Each task's durability is
//!   Contract 10 (DESIGN.md §9); the `tests/crash_recovery.rs` proptests
//!   and the CI `kill-smoke` job (`CV_FAILPOINT`) pin the whole
//!   directory;
//! * a task whose step panics or whose durable writes fail is parked and
//!   retried from its last checkpoint without taking the others down,
//!   and quarantined once its retries run out (Contract 13).

use crate::persist::tech_slug;
use crate::service::{Daemon, DaemonConfig, JobStatus, Request, Response};
use cv_journal::failpoint;
use std::fmt;
use std::io;

pub use crate::persist::{JobSpec, TaskResult};

/// Why [`run_campaign`] did not bring its grid to an end.
#[derive(Debug)]
pub enum CampaignError {
    /// The directory holds unfinished jobs that are not tasks of this
    /// grid (their ids): another campaign's, which a run over it would
    /// otherwise finish. Nothing was submitted.
    Foreign(Vec<String>),
    /// Tasks ended quarantined (one line each, with its reason), or the
    /// directory could not be opened or a task submitted.
    Failed(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Foreign(ids) => write!(
                f,
                "{} unfinished jobs of another grid (first: {})",
                ids.len(),
                ids.first().map_or("", String::as_str)
            ),
            CampaignError::Failed(why) => f.write_str(why),
        }
    }
}

/// Drains `tasks` on an in-process [`Daemon`] over `cfg.dir`. Returns
/// one entry per task, in task order; `None` marks a task still pending
/// — stopped by `halt_after` — which a re-run over the same directory
/// resumes. An injected process death reports every task as `None`.
///
/// `halt_after` stops the campaign after that many scheduling rounds
/// and checkpoints every running task, as a `campaignd shutdown` does:
/// the deterministic stand-in for a kill. Every task steps the same
/// number of times per round, so the halted directory does not depend
/// on `cfg.threads`. Without it, the daemon drains the grid
/// ([`Daemon::rounds`]`(usize::MAX)`).
///
/// # Errors
///
/// [`CampaignError::Foreign`] when the directory holds unfinished jobs
/// outside `tasks`; otherwise the reasons of the tasks that ended
/// quarantined, or why the directory could not be opened or a task
/// submitted.
pub fn run_campaign(
    tasks: &[JobSpec],
    cfg: &DaemonConfig,
    halt_after: Option<usize>,
) -> Result<Vec<Option<TaskResult>>, CampaignError> {
    let mut daemon = match Daemon::open(cfg.clone()) {
        Ok(daemon) => daemon,
        Err(e) if failpoint::is_crash(&e) => return Ok(vec![None; tasks.len()]),
        Err(e) => {
            let why = format!("cannot open {}: {e}", cfg.dir.display());
            return Err(CampaignError::Failed(why));
        }
    };
    let ids: Vec<String> = tasks.iter().map(JobSpec::id).collect();
    let foreign: Vec<String> = status(&mut daemon)
        .into_iter()
        .filter(|job| job.state != "done" && !ids.contains(&job.id))
        .map(|job| job.id)
        .collect();
    if !foreign.is_empty() {
        return Err(CampaignError::Foreign(foreign));
    }
    match drain(&mut daemon, tasks, &ids, halt_after) {
        // An injected crash: this "process" is dead and reports nothing;
        // the directory holds whatever the crash point left durable.
        Err(e) if failpoint::is_crash(&e) => return Ok(vec![None; tasks.len()]),
        Err(e) => return Err(CampaignError::Failed(e.to_string())),
        Ok(()) => {}
    }
    let mut quarantined = Vec::new();
    let mut results = Vec::with_capacity(tasks.len());
    for id in &ids {
        let result = daemon.result(id);
        if result.is_none() {
            if let Ok(Response::FailInfo {
                state: "quarantined",
                reason,
                ..
            }) = daemon.handle(&Request::FailInfo { id: id.clone() })
            {
                quarantined.push(format!(
                    "task {id} quarantined: {}",
                    reason.unwrap_or_default()
                ));
            }
        }
        results.push(result);
    }
    if quarantined.is_empty() {
        Ok(results)
    } else {
        Err(CampaignError::Failed(quarantined.join("\n")))
    }
}

/// Every job of the daemon's table, as `status` reports it.
fn status(daemon: &mut Daemon) -> Vec<JobStatus> {
    match daemon.handle(&Request::Status { id: None }) {
        Ok(Response::Status { jobs }) => jobs,
        _ => Vec::new(),
    }
}

/// Submits every task, then runs rounds while one of them is running
/// or awaiting a retry, until `halt_after` rounds have run (then
/// checkpoints every running task). `Err` is an injected process death
/// or a refused submission.
fn drain(
    daemon: &mut Daemon,
    tasks: &[JobSpec],
    ids: &[String],
    halt_after: Option<usize>,
) -> io::Result<()> {
    for task in tasks {
        match daemon.handle(&Request::Submit(task.clone()))? {
            Response::Submitted { .. } => {}
            reply => {
                let why = format!("cannot submit {}: {}", task.id(), reply.render());
                return Err(io::Error::other(why));
            }
        }
    }
    let mut rounds = 0usize;
    while status(daemon)
        .iter()
        .any(|job| matches!(job.state, "running" | "failed") && ids.contains(&job.id))
    {
        match halt_after {
            Some(halt) if rounds >= halt => return daemon.checkpoint_all(),
            Some(halt) => rounds += daemon.rounds(halt - rounds)?,
            None => {
                daemon.rounds(usize::MAX)?;
            }
        }
    }
    Ok(())
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
/// order in the returned vector — the compute units with no durable
/// files (`frontier` panels, multi-seed curve sets) that ride beside
/// [`run_campaign`]'s journaled tasks.
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
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};

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
        let cfg = DaemonConfig {
            threads: 2,
            checkpoint_every: usize::MAX,
            ..DaemonConfig::new(&dir)
        };
        let results = run_campaign(&tasks, &cfg, None).expect("no task quarantined");
        for (task, result) in tasks.iter().zip(&results) {
            let direct = crate::harness::run_method(task.method, &task.to_spec(), task.seed);
            let got = &result.as_ref().expect("completed").outcome;
            assert_eq!(got.to_ckpt_bytes(), direct.to_ckpt_bytes());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every file in `dir` as name → bytes.
    fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .expect("campaign dir exists")
            .map(|entry| {
                let entry = entry.expect("dir entry");
                let name = entry.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(entry.path()).expect("file readable"))
            })
            .collect()
    }

    #[test]
    fn halted_campaign_resumes_to_byte_identical_outputs() {
        // Two tasks, and a grid larger than the daemon's cap, whose halt
        // leaves the tasks past the cap queued, with no files.
        let small = vec![tiny_task(Method::Sa, 9), tiny_task(Method::Ga, 9)];
        let large: Vec<JobSpec> = (0..crate::service::MAX_OPEN_JOBS as u64 + 2)
            .map(|seed| tiny_task(Method::Random, 100 + seed))
            .collect();
        for tasks in [small, large] {
            let base = test_dir(&format!("halt_{}", tasks.len()));
            let cfg = |dir: &str, threads: usize| DaemonConfig {
                threads,
                checkpoint_every: 7,
                ..DaemonConfig::new(base.join(dir))
            };
            let run =
                |cfg: &DaemonConfig, halt| run_campaign(&tasks, cfg, halt).expect("no quarantine");

            let clean = run(&cfg("clean", 1), None);
            assert!(clean.iter().all(Option::is_some));

            // Halt after two rounds (mid-run for every opened task) at
            // two pool sizes: the halted directories are byte-identical.
            let halted = run(&cfg("resumed", 2), Some(2));
            assert!(
                halted.iter().all(Option::is_none),
                "the halt must interrupt every task"
            );
            let opened = tasks
                .iter()
                .filter(|t| {
                    base.join("resumed")
                        .join(format!("{}.journal", t.id()))
                        .exists()
                })
                .count();
            assert_eq!(opened, tasks.len().min(crate::service::MAX_OPEN_JOBS));
            assert_eq!(run(&cfg("halted_t1", 1), Some(2)).len(), tasks.len());
            assert_eq!(
                dir_files(&base.join("resumed")),
                dir_files(&base.join("halted_t1")),
                "the halted directory must not depend on the pool size"
            );

            let resumed = run(&cfg("resumed", 2), None);
            assert!(resumed.iter().all(Option::is_some));
            for (a, b) in clean.iter().zip(&resumed) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.outcome.to_ckpt_bytes(), b.outcome.to_ckpt_bytes());
                assert_eq!(a.archive.to_ckpt_bytes(), b.archive.to_ckpt_bytes());
            }
            // On disk, every telemetry stream, result, task journal and
            // the service journal byte-match too.
            assert_eq!(
                dir_files(&base.join("clean")),
                dir_files(&base.join("resumed"))
            );
            let _ = std::fs::remove_dir_all(&base);
        }
    }

    /// A task that keeps panicking is parked, retried and quarantined
    /// while the others finish, and the campaign reports why; a re-run
    /// without the fault retries it to completion.
    #[test]
    fn quarantined_task_fails_the_campaign_and_spares_the_rest() {
        let dir = test_dir("quarantine");
        let tasks = vec![tiny_task(Method::Sa, 77), tiny_task(Method::Random, 78)];
        let (victim, healthy) = (tasks[0].id(), tasks[1].id());
        let cfg = DaemonConfig {
            max_retries: 1,
            ..DaemonConfig::new(&dir)
        };
        crate::faults::arm_panic(&victim, 4);
        let failed = run_campaign(&tasks, &cfg, None);
        crate::faults::disarm();
        let reason = failed.expect_err("the victim ends quarantined").to_string();
        assert!(reason.contains(&victim), "{reason}");
        assert!(reason.contains("fault injection"), "{reason}");
        assert!(dir.join(format!("{healthy}.done")).exists());

        let healed = run_campaign(&tasks, &cfg, None).expect("the re-run heals the victim");
        assert!(healed.iter().all(Option::is_some));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A campaign over a directory that holds another grid's unfinished
    /// tasks refuses to run instead of finishing them: the first grid
    /// stays pending (its files untouched), and still resumes.
    #[test]
    fn another_grid_leaves_a_halted_campaign_pending() {
        let dir = test_dir("foreign");
        let (first, second) = (
            vec![tiny_task(Method::Sa, 21)],
            vec![tiny_task(Method::Random, 22)],
        );
        let cfg = DaemonConfig::new(&dir);
        let halted = run_campaign(&first, &cfg, Some(1)).expect("halts");
        assert!(halted[0].is_none(), "the halt must interrupt the task");
        let before = dir_files(&dir);
        match run_campaign(&second, &cfg, None) {
            Err(CampaignError::Foreign(ids)) => assert_eq!(ids, vec![first[0].id()]),
            other => panic!("the second grid must be refused: {other:?}"),
        }
        assert_eq!(
            dir_files(&dir),
            before,
            "a refused campaign changes nothing"
        );
        let resumed = run_campaign(&first, &cfg, None).expect("the first grid resumes");
        assert!(resumed[0].is_some());
        let _ = std::fs::remove_dir_all(&dir);
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
