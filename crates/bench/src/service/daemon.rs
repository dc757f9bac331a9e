//! The `campaignd` job table, scheduler, and service journal
//! (DESIGN.md §10, Contract 11).
//!
//! A [`Daemon`] owns a directory of durable state and a table of jobs,
//! each a `crate::persist::RunningTask` step engine, so per-job
//! artifacts (`.done`/`.jsonl`/rotated task journal) are byte-identical
//! however the schedule interleaves them. It is the workspace's one
//! scheduler: `campaignd serve` drives it behind a socket, and the batch
//! campaign ([`crate::campaign::run_campaign`]) drives it in-process.
//! On top of the per-job files the daemon keeps one *service journal*
//! (`campaignd.journal`): an append-only
//! [`cv_journal::Journal`] of job-table transitions (*submitted*,
//! *paused*, *resumed*, *cancelled*, *finished*), appended **before**
//! the transition is applied or acknowledged. Restart replays the
//! journal's durable prefix, reopens every surviving job that has files
//! from its own durable state (a job that never ran stays queued), and
//! compacts the journal to its canonical form — so a
//! `kill -9` at any tick resumes every in-flight job byte-identically
//! and, once drained, the directory `diff -r`-matches a never-killed
//! run (Contract 11).
//!
//! **Canonical journal form.** At startup (unless the journal already
//! is canonical) and at every GC point (the last runnable job
//! finishing, a job being cancelled, or the segment outgrowing its cap)
//! the journal is rotated down to a normal form: for each live job in id
//! order, its *submitted* record, then *paused* if paused, then
//! *finished* if done; cancelled jobs vanish entirely. The normal form
//! is a pure function of the job table, which is what makes the final
//! on-disk bytes independent of the crash/restart history.
//!
//! **Scheduling.** A submitted job is *queued*: journaled, but with no
//! engine in memory and no files on disk (`status` reports it as
//! `running`, with no progress yet). One [`Daemon::round`] admits
//! queued jobs, in table order, while fewer than [`MAX_OPEN_JOBS`] jobs
//! run, and gives every running job a fair slice of
//! [`DaemonConfig::slice_steps`] driver steps, dispatched onto the
//! shared [`cv_pool::WorkerPool`] (dynamic assignment — job results
//! never depend on which worker runs a slice); an admitted job is
//! opened by the worker that runs its first slice. The cap bounds memory
//! by a constant rather than by the number of jobs, and it is no
//! function of [`DaemonConfig::threads`], so neither is the state of
//! the directory after a given number of rounds. [`Daemon::rounds`]
//! runs several rounds with no command between them in one dispatch
//! when no job waits for a slot or a retry, and drains the table — each
//! job opened by the worker that reaches it and run to completion —
//! when asked for all of them; that is how the batch campaign runs.
//! The serving loop
//! interleaves rounds with command handling, so `pause`/`cancel` take
//! effect at step granularity. After every round and every command the
//! daemon publishes a read view — an immutable snapshot of the job
//! table — from which `status`/`frontier`/`fail-info` are answered
//! without waiting for the scheduler.
//!
//! **Failure lifecycle (Contract 13).** A job whose driver step panics,
//! or whose durable writes fail *transiently* (anything short of an
//! injected process death), is **parked**: its poisoned in-memory
//! engine is discarded, a *failed* transition is journaled, and the
//! scheduler retries it from its last durable checkpoint after an
//! exponential, round-counted backoff (1, 2, 4, … rounds) — up to
//! [`DaemonConfig::max_retries`] automatic retries, after which the job
//! is **quarantined** until a manual `retry` (or an idempotent
//! re-submit) resets its budget. Because retries resume the job's own
//! deterministic driver/evaluator streams from durable state, a healed
//! job's artifacts are byte-identical to a never-faulted run — and a
//! fault never escapes the failing job: every other job's bytes,
//! schedule, and archives are untouched, and the daemon keeps serving.
//! Failure records are best-effort durable: losing one to the fault
//! that caused it merely replays the job as running (an immediate
//! retry). A transiently torn *service-journal* handle is discarded and
//! lazily reopened + recompacted — the in-memory table is authoritative
//! and never behind the journal's durable prefix.

use crate::persist::{
    has_task_files, remove_task_files, result_front, OpenedTask, RunningTask, TaskResult, TaskStep,
};
use crate::service::protocol::{JobSpec, JobStatus, Request, Response};
use cv_journal::{fs, Journal};
use cv_pool::TaskOutcome;
use cv_synth::ckpt::{CkptError, Dec, Enc};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Default journal segment cap ([`DaemonConfig::journal_max_bytes`]).
pub const JOURNAL_MAX_BYTES: u64 = 1 << 20;

/// Most jobs a round runs at once: queued jobs wait for a slot, so
/// running jobs hold at most this many engines (evaluator, archive,
/// driver), however many are submitted. A paused job keeps its engine
/// but not its slot.
pub const MAX_OPEN_JOBS: usize = 16;

/// Daemon execution policy.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The durable state directory (created if absent).
    pub dir: PathBuf,
    /// Max workers a scheduling round may occupy.
    pub threads: usize,
    /// Simulations between periodic per-job checkpoints.
    pub checkpoint_every: usize,
    /// Driver steps per job per scheduling round.
    pub slice_steps: usize,
    /// Compact journals (service and per-task) past this many bytes — a
    /// task journal only once its segment has also doubled since its
    /// last compaction; tests shrink it to force compaction under fault
    /// injection.
    pub journal_max_bytes: u64,
    /// Automatic retries a failing job gets before quarantine.
    pub max_retries: u32,
}

impl DaemonConfig {
    /// A sensible default policy rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            dir: dir.into(),
            threads: 4,
            checkpoint_every: 16,
            slice_steps: 4,
            journal_max_bytes: JOURNAL_MAX_BYTES,
            max_retries: 3,
        }
    }
}

// ---------------------------------------------------------------------
// Service journal events
// ---------------------------------------------------------------------

const SJ_SUBMITTED: u8 = 1;
const SJ_PAUSED: u8 = 2;
const SJ_RESUMED: u8 = 3;
const SJ_CANCELLED: u8 = 4;
const SJ_FINISHED: u8 = 5;
const SJ_FAILED: u8 = 6;
const SJ_QUARANTINED: u8 = 7;
const SJ_RETRYING: u8 = 8;

fn method_tag(method: crate::harness::Method) -> u8 {
    use crate::harness::Method::*;
    match method {
        CircuitVae => 0,
        LatentBo => 1,
        Ga => 2,
        GaNsga2 => 3,
        Rl => 4,
        Sa => 5,
        Random => 6,
    }
}

fn method_from_tag(tag: u8) -> Result<crate::harness::Method, CkptError> {
    use crate::harness::Method::*;
    Ok(match tag {
        0 => CircuitVae,
        1 => LatentBo,
        2 => Ga,
        3 => GaNsga2,
        4 => Rl,
        5 => Sa,
        6 => Random,
        _ => return Err(CkptError::Invalid("method tag")),
    })
}

fn kind_tag(kind: cv_prefix::CircuitKind) -> u8 {
    use cv_prefix::CircuitKind::*;
    match kind {
        Adder => 0,
        GrayToBinary => 1,
        LeadingZero => 2,
    }
}

fn kind_from_tag(tag: u8) -> Result<cv_prefix::CircuitKind, CkptError> {
    use cv_prefix::CircuitKind::*;
    Ok(match tag {
        0 => Adder,
        1 => GrayToBinary,
        2 => LeadingZero,
        _ => return Err(CkptError::Invalid("kind tag")),
    })
}

fn tech_tag(tech: crate::harness::TechLibrary) -> u8 {
    match tech {
        crate::harness::TechLibrary::Nangate45Like => 0,
        crate::harness::TechLibrary::Scaled8nmLike => 1,
    }
}

fn tech_from_tag(tag: u8) -> Result<crate::harness::TechLibrary, CkptError> {
    Ok(match tag {
        0 => crate::harness::TechLibrary::Nangate45Like,
        1 => crate::harness::TechLibrary::Scaled8nmLike,
        _ => return Err(CkptError::Invalid("tech tag")),
    })
}

/// One durable job-table transition.
#[derive(Debug, Clone, PartialEq)]
enum ServiceEvent {
    Submitted(JobSpec),
    Paused(String),
    Resumed(String),
    Cancelled(String),
    Finished(String),
    Failed {
        id: String,
        retries: u32,
        sims: u64,
        reason: String,
    },
    Quarantined {
        id: String,
        retries: u32,
        sims: u64,
        reason: String,
    },
    Retrying(String),
}

impl ServiceEvent {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        match self {
            ServiceEvent::Submitted(spec) => {
                enc.u8(SJ_SUBMITTED);
                enc.u8(method_tag(spec.method));
                enc.u8(kind_tag(spec.kind));
                enc.u8(tech_tag(spec.tech));
                enc.usize(spec.width);
                enc.f64(spec.delay_weight);
                enc.usize(spec.budget);
                enc.u64(spec.seed);
            }
            ServiceEvent::Paused(id) => {
                enc.u8(SJ_PAUSED);
                enc.str(id);
            }
            ServiceEvent::Resumed(id) => {
                enc.u8(SJ_RESUMED);
                enc.str(id);
            }
            ServiceEvent::Cancelled(id) => {
                enc.u8(SJ_CANCELLED);
                enc.str(id);
            }
            ServiceEvent::Finished(id) => {
                enc.u8(SJ_FINISHED);
                enc.str(id);
            }
            ServiceEvent::Failed {
                id,
                retries,
                sims,
                reason,
            } => {
                enc.u8(SJ_FAILED);
                enc.str(id);
                enc.u32(*retries);
                enc.u64(*sims);
                enc.str(reason);
            }
            ServiceEvent::Quarantined {
                id,
                retries,
                sims,
                reason,
            } => {
                enc.u8(SJ_QUARANTINED);
                enc.str(id);
                enc.u32(*retries);
                enc.u64(*sims);
                enc.str(reason);
            }
            ServiceEvent::Retrying(id) => {
                enc.u8(SJ_RETRYING);
                enc.str(id);
            }
        }
        enc.finish()
    }

    fn decode(payload: &[u8]) -> Result<ServiceEvent, CkptError> {
        let mut dec = Dec::new(payload);
        let ev = match dec.u8()? {
            SJ_SUBMITTED => ServiceEvent::Submitted(JobSpec {
                method: method_from_tag(dec.u8()?)?,
                kind: kind_from_tag(dec.u8()?)?,
                tech: tech_from_tag(dec.u8()?)?,
                width: dec.usize()?,
                delay_weight: dec.f64()?,
                budget: dec.usize()?,
                seed: dec.u64()?,
            }),
            SJ_PAUSED => ServiceEvent::Paused(dec.str()?),
            SJ_RESUMED => ServiceEvent::Resumed(dec.str()?),
            SJ_CANCELLED => ServiceEvent::Cancelled(dec.str()?),
            SJ_FINISHED => ServiceEvent::Finished(dec.str()?),
            SJ_FAILED => ServiceEvent::Failed {
                id: dec.str()?,
                retries: dec.u32()?,
                sims: dec.u64()?,
                reason: dec.str()?,
            },
            SJ_QUARANTINED => ServiceEvent::Quarantined {
                id: dec.str()?,
                retries: dec.u32()?,
                sims: dec.u64()?,
                reason: dec.str()?,
            },
            SJ_RETRYING => ServiceEvent::Retrying(dec.str()?),
            _ => return Err(CkptError::Invalid("service event tag")),
        };
        dec.finish()?;
        Ok(ev)
    }
}

/// A replayed job-table entry (pre-reopen).
#[derive(Debug)]
struct ReplayedJob {
    spec: JobSpec,
    paused: bool,
    failure: Option<ReplayedFailure>,
}

/// A replayed *failed*/*quarantined* record: the job restarts parked,
/// with its backoff recomputed from the retry count.
#[derive(Debug)]
struct ReplayedFailure {
    quarantined: bool,
    retries: u32,
    sims: u64,
    reason: String,
}

/// Replays the service journal's durable prefix into the job table it
/// described. Returns the surviving jobs (in first-submission order)
/// and the ids whose cancellation may still need its file GC re-run.
fn replay_service(records: &[Vec<u8>]) -> (Vec<(String, ReplayedJob)>, Vec<String>) {
    let mut jobs: Vec<(String, ReplayedJob)> = Vec::new();
    let mut cancelled = Vec::new();
    for record in records {
        let ev = match ServiceEvent::decode(record) {
            Ok(ev) => ev,
            // A record that fails to decode ends the trusted prefix
            // (CRC framing already screened out corruption).
            Err(_) => break,
        };
        match ev {
            ServiceEvent::Submitted(spec) => {
                let id = spec.id();
                if !jobs.iter().any(|(j, _)| *j == id) {
                    jobs.push((
                        id,
                        ReplayedJob {
                            spec,
                            paused: false,
                            failure: None,
                        },
                    ));
                }
            }
            ServiceEvent::Paused(id) => {
                if let Some((_, job)) = jobs.iter_mut().find(|(j, _)| *j == id) {
                    job.paused = true;
                }
            }
            ServiceEvent::Resumed(id) => {
                if let Some((_, job)) = jobs.iter_mut().find(|(j, _)| *j == id) {
                    job.paused = false;
                }
            }
            ServiceEvent::Cancelled(id) => {
                jobs.retain(|(j, _)| *j != id);
                cancelled.push(id);
            }
            // `finished` is advisory during replay: the job's own
            // durable files are authoritative for its result, and
            // reopening them yields `Done` regardless.
            ServiceEvent::Finished(_) => {}
            ServiceEvent::Failed {
                id,
                retries,
                sims,
                reason,
            } => {
                if let Some((_, job)) = jobs.iter_mut().find(|(j, _)| *j == id) {
                    job.failure = Some(ReplayedFailure {
                        quarantined: false,
                        retries,
                        sims,
                        reason,
                    });
                }
            }
            ServiceEvent::Quarantined {
                id,
                retries,
                sims,
                reason,
            } => {
                if let Some((_, job)) = jobs.iter_mut().find(|(j, _)| *j == id) {
                    job.failure = Some(ReplayedFailure {
                        quarantined: true,
                        retries,
                        sims,
                        reason,
                    });
                }
            }
            ServiceEvent::Retrying(id) => {
                if let Some((_, job)) = jobs.iter_mut().find(|(j, _)| *j == id) {
                    job.failure = None;
                }
            }
        }
    }
    (jobs, cancelled)
}

// ---------------------------------------------------------------------
// Job table
// ---------------------------------------------------------------------

/// Why a job is parked: the failure-lifecycle payload (DESIGN.md §10).
#[derive(Debug, Clone)]
struct FailureInfo {
    /// Automatic retries burned before this failure.
    retries: u32,
    /// Scheduler rounds until the next automatic retry (0 = none
    /// pending).
    backoff: u32,
    /// Simulations consumed when the job failed (best-effort: 0 if the
    /// poisoned engine could not even report it).
    sims: usize,
    /// The failure reason (panic message or IO error).
    reason: String,
}

/// The exponential, round-counted backoff before automatic retry
/// `attempt` (1-indexed): 1, 2, 4, … rounds, capped at 64. Counted in
/// scheduler rounds — not wall-clock — so recovery timing is as
/// deterministic as the schedule itself.
fn backoff_for(attempt: u32) -> u32 {
    1 << attempt.saturating_sub(1).min(6)
}

/// A job's lifecycle state.
enum JobState {
    /// Submitted or revived, but with no engine in memory: reported as
    /// `running` (or `paused`) with no progress until a round with a
    /// free slot opens it (from its files, when it has any).
    Queued {
        paused: bool,
    },
    Running(Box<RunningTask>),
    Paused(Box<RunningTask>),
    Done(TaskResult),
    /// Parked after a panic or transient persistence failure; an
    /// automatic retry is pending once the backoff drains.
    Failed(FailureInfo),
    /// Retry budget exhausted; only a manual `retry` (or idempotent
    /// re-submit) revives it.
    Quarantined(FailureInfo),
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Running(_) | JobState::Queued { paused: false } => "running",
            JobState::Paused(_) | JobState::Queued { paused: true } => "paused",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Quarantined(_) => "quarantined",
        }
    }
}

/// One slot of the job table. The state sits behind a mutex so
/// scheduling rounds can step disjoint jobs from pool workers.
struct JobSlot {
    id: String,
    spec: JobSpec,
    /// Automatic retries burned so far (reset by a manual retry; after
    /// a restart, recovered from the replayed failure record).
    retries: AtomicU32,
    state: parking_lot::Mutex<JobState>,
}

impl JobSlot {
    /// This job's row of a [`ReadView`].
    fn view(&self) -> ViewJob {
        let state = self.state.lock();
        let (sims, best, front, failure) = match &*state {
            JobState::Queued { .. } => (0, f64::INFINITY, Some(Vec::new()), None),
            JobState::Running(rt) | JobState::Paused(rt) => {
                (rt.sims_used(), rt.best_cost(), Some(rt.front()), None)
            }
            JobState::Done(r) => (
                r.outcome.history.last().map_or(0, |&(s, _)| s),
                r.outcome.best_cost,
                Some(result_front(r)),
                None,
            ),
            JobState::Failed(info) | JobState::Quarantined(info) => {
                (info.sims, f64::INFINITY, None, Some(info.clone()))
            }
        };
        ViewJob {
            status: JobStatus {
                id: self.id.clone(),
                state: state.label(),
                sims,
                budget: self.spec.budget,
                best,
            },
            front,
            failure,
        }
    }
}

/// The filename of the service journal inside the daemon directory.
pub const SERVICE_JOURNAL: &str = "campaignd.journal";

/// One job as a [`ReadView`] shows it.
#[derive(Debug, Clone)]
struct ViewJob {
    status: JobStatus,
    /// The live frontier; `None` while the job is parked.
    front: Option<Vec<(f64, f64, usize)>>,
    /// Failure details while the job is parked.
    failure: Option<FailureInfo>,
}

/// An immutable snapshot of the job table, taken after a round or a
/// command completed: what the read verbs (`status`, `frontier`,
/// `fail-info`) answer from, so a read never waits for a round
/// (DESIGN.md §10).
#[derive(Debug, Clone, Default)]
pub(crate) struct ReadView {
    dead: bool,
    jobs: Vec<ViewJob>,
}

impl ReadView {
    /// Answers `req` from this snapshot if it is a read verb; `None` for
    /// every command, which must go through the [`Daemon`] itself.
    pub(crate) fn answer(&self, req: &Request) -> Option<Response> {
        let reply = match req {
            Request::Status { id } => self.status(id.as_deref()),
            Request::Frontier { id } => self.frontier(id),
            Request::FailInfo { id } => self.fail_info(id),
            _ => return None,
        };
        Some(if self.dead { dead_error() } else { reply })
    }

    fn find(&self, id: &str) -> Option<&ViewJob> {
        self.jobs.iter().find(|j| j.status.id == id)
    }

    fn status(&self, id: Option<&str>) -> Response {
        let rows: Vec<JobStatus> = self
            .jobs
            .iter()
            .filter(|j| id.map_or(true, |id| j.status.id == id))
            .map(|j| j.status.clone())
            .collect();
        if id.is_some() && rows.is_empty() {
            return Response::error(format!("unknown job {}", id.unwrap_or_default()));
        }
        Response::Status { jobs: rows }
    }

    fn frontier(&self, id: &str) -> Response {
        let Some(job) = self.find(id) else {
            return Response::error(format!("unknown job {id}"));
        };
        match &job.front {
            Some(front) => Response::Frontier {
                id: id.to_string(),
                front: front.clone(),
            },
            None => Response::error(format!(
                "job {id} is {}; no live frontier (retry it first)",
                job.status.state
            )),
        }
    }

    fn fail_info(&self, id: &str) -> Response {
        let Some(job) = self.find(id) else {
            return Response::error(format!("unknown job {id}"));
        };
        match &job.failure {
            Some(info) => Response::FailInfo {
                id: id.to_string(),
                state: job.status.state,
                retries: info.retries,
                backoff_rounds: info.backoff,
                reason: Some(info.reason.clone()),
            },
            None => Response::error(format!(
                "job {id} is not failed (state: {})",
                job.status.state
            )),
        }
    }
}

/// The reply to every request once the durable write path has failed.
fn dead_error() -> Response {
    Response::error("daemon is dead (durable write path failed)")
}

/// Where a [`Daemon`] publishes its latest [`ReadView`]; clones share
/// the slot, so reader threads see each publication.
#[derive(Debug, Clone, Default)]
pub(crate) struct ViewHandle(Arc<Mutex<Arc<ReadView>>>);

impl ViewHandle {
    /// The most recently published snapshot.
    pub(crate) fn latest(&self) -> Arc<ReadView> {
        Arc::clone(&self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn publish(&self, view: ReadView) {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = Arc::new(view);
    }
}

/// The `campaignd` core: a journaled, crash-replayable multi-job
/// scheduler. See the module docs for the durability contract.
pub struct Daemon {
    cfg: DaemonConfig,
    journal: Option<Journal>,
    jobs: Vec<JobSlot>,
    /// Set when a persistence failure (an injected crash in `Error`
    /// mode, or a real filesystem error) has killed the durable write
    /// path: the daemon refuses all further mutation, exactly as a dead
    /// process would.
    dead: bool,
    /// The read view, republished after every round and command.
    view: ViewHandle,
}

impl Daemon {
    /// Opens (or creates) a daemon over `cfg.dir`, replaying the service
    /// journal: sweeps orphaned staging files, reopens every surviving
    /// job that has files from its durable per-job state (the others
    /// stay queued), re-runs pending cancellation GC, and compacts the
    /// journal to canonical form unless it already is.
    ///
    /// # Errors
    ///
    /// Propagates persistence failures (including injected crashes).
    pub fn open(cfg: DaemonConfig) -> io::Result<Daemon> {
        std::fs::create_dir_all(&cfg.dir)?;
        // Startup GC half 1: staging files orphaned by a kill.
        fs::sweep_tmp(&cfg.dir)?;

        let opened = Journal::open(&cfg.dir.join(SERVICE_JOURNAL))?;
        if opened.truncated_bytes > 0 {
            eprintln!(
                "campaignd: truncated {} bytes of torn tail from the service journal",
                opened.truncated_bytes
            );
        }
        let (replayed, cancelled) = replay_service(&opened.records);
        // Re-run cancellation GC: a crash between the durable
        // *cancelled* record and the file removal leaves artifacts the
        // replay must finish deleting (removal is idempotent).
        for id in &cancelled {
            remove_task_files(&cfg.dir, id);
        }

        let mut jobs = Vec::with_capacity(replayed.len());
        for (id, job) in replayed {
            let ReplayedJob {
                spec,
                paused,
                failure,
            } = job;
            // A replayed failure keeps the job parked (no reopen yet);
            // its backoff is recomputed from the retry count.
            let (state, retries) = match failure {
                Some(f) => {
                    let info = FailureInfo {
                        retries: f.retries,
                        backoff: if f.quarantined {
                            0
                        } else {
                            backoff_for(f.retries + 1)
                        },
                        sims: f.sims as usize,
                        reason: f.reason,
                    };
                    let retries = f.retries;
                    let state = if f.quarantined {
                        JobState::Quarantined(info)
                    } else {
                        JobState::Failed(info)
                    };
                    (state, retries)
                }
                // A job that never reached its first round has no files
                // and stays queued; the rest reopen from their own files.
                None if !has_task_files(&cfg.dir, &id) => (JobState::Queued { paused }, 0),
                None => (open_job(&spec, &cfg, paused)?, 0),
            };
            jobs.push(JobSlot {
                id,
                spec,
                retries: AtomicU32::new(retries),
                state: parking_lot::Mutex::new(state),
            });
        }

        let mut daemon = Daemon {
            cfg,
            journal: Some(opened.journal),
            jobs,
            dead: false,
            view: ViewHandle::default(),
        };
        // Startup GC half 2: compact the journal to canonical form
        // (this also durably records *finished* for jobs that completed
        // after the last compaction), unless it already is.
        if daemon.canonical_records() != opened.records {
            daemon.rotate_canonical()?;
        }
        daemon.publish();
        Ok(daemon)
    }

    /// The slot this daemon publishes its [`ReadView`] to. A view is
    /// published after every [`Daemon::round`], every command handled
    /// by [`Daemon::handle`] (before it returns its reply), and every
    /// [`Daemon::checkpoint_all`].
    pub(crate) fn view(&self) -> ViewHandle {
        self.view.clone()
    }

    /// Snapshots the job table into a fresh [`ReadView`].
    fn publish(&self) {
        let jobs = if self.dead {
            Vec::new()
        } else {
            self.jobs.iter().map(JobSlot::view).collect()
        };
        self.view.publish(ReadView {
            dead: self.dead,
            jobs,
        });
    }

    /// Whether the durable write path has failed (simulated or real
    /// process death): all further mutation is refused.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Whether any job is currently runnable (running or queued) or
    /// awaiting an automatic retry (failed jobs need scheduler rounds to
    /// drain their backoff; quarantined jobs do not).
    pub fn has_running(&self) -> bool {
        self.jobs.iter().any(|j| {
            matches!(
                &*j.state.lock(),
                JobState::Running(_) | JobState::Queued { paused: false } | JobState::Failed(_)
            )
        })
    }

    /// The result of job `id` once it is done; `None` while it is
    /// running, paused or parked, or when no such job exists.
    pub fn result(&self, id: &str) -> Option<TaskResult> {
        let idx = self.find(id)?;
        match &*self.jobs[idx].state.lock() {
            JobState::Done(result) => Some(result.clone()),
            _ => None,
        }
    }

    /// The canonical journal records for the current job table (id
    /// order; see the module docs).
    fn canonical_records(&self) -> Vec<Vec<u8>> {
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        order.sort_by(|&a, &b| self.jobs[a].id.cmp(&self.jobs[b].id));
        let mut records = Vec::new();
        for idx in order {
            let slot = &self.jobs[idx];
            records.push(ServiceEvent::Submitted(slot.spec.clone()).encode());
            match &*slot.state.lock() {
                JobState::Running(_) | JobState::Queued { paused: false } => {}
                JobState::Paused(_) | JobState::Queued { paused: true } => {
                    records.push(ServiceEvent::Paused(slot.id.clone()).encode());
                }
                JobState::Done(_) => {
                    records.push(ServiceEvent::Finished(slot.id.clone()).encode());
                }
                JobState::Failed(info) => {
                    records.push(
                        ServiceEvent::Failed {
                            id: slot.id.clone(),
                            retries: info.retries,
                            sims: info.sims as u64,
                            reason: info.reason.clone(),
                        }
                        .encode(),
                    );
                }
                JobState::Quarantined(info) => {
                    records.push(
                        ServiceEvent::Quarantined {
                            id: slot.id.clone(),
                            retries: info.retries,
                            sims: info.sims as u64,
                            reason: info.reason.clone(),
                        }
                        .encode(),
                    );
                }
            }
        }
        records
    }

    /// Rotates the service journal down to canonical form. A `None`
    /// journal handle (discarded after a transient tear) is healed
    /// here: reopening truncates any torn tail, and the rotation
    /// rewrites the canonical form from the authoritative in-memory
    /// table. On error the handle stays `None` for the next attempt.
    fn rotate_canonical(&mut self) -> io::Result<()> {
        let journal = match self.journal.take() {
            Some(journal) => journal,
            None => Journal::open(&self.cfg.dir.join(SERVICE_JOURNAL))?.journal,
        };
        let records = self.canonical_records();
        let refs: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
        self.journal = Some(journal.rotate(&refs)?);
        Ok(())
    }

    /// [`Daemon::rotate_canonical`], degraded: a transient rotation
    /// failure is logged and deferred (the handle stays `None`, healed
    /// on the next append) instead of failing the caller — used at GC
    /// points *after* a transition has already been applied and must be
    /// acknowledged.
    fn rotate_canonical_degraded(&mut self) -> io::Result<()> {
        match self.rotate_canonical() {
            Err(e) if cv_journal::failpoint::is_crash(&e) => {
                self.dead = true;
                Err(e)
            }
            Err(e) => {
                eprintln!(
                    "campaignd: service journal rotation failed transiently ({e}); healing deferred"
                );
                Ok(())
            }
            Ok(()) => Ok(()),
        }
    }

    /// Appends one transition event (healing a discarded journal handle
    /// first, and rotating if the segment has outgrown its cap). On a
    /// non-crash append error the handle is discarded: the tail may be
    /// torn mid-frame, and appending further through it would write
    /// records a scan can never reach.
    fn append_event(&mut self, ev: &ServiceEvent) -> io::Result<()> {
        if self.journal.is_none() {
            self.rotate_canonical()?;
        }
        let journal = self.journal.as_mut().expect("healed above");
        if journal.len() > self.cfg.journal_max_bytes {
            self.rotate_canonical()?;
        }
        let result = self
            .journal
            .as_mut()
            .expect("service journal open")
            .append(&ev.encode());
        if let Err(e) = &result {
            if !cv_journal::failpoint::is_crash(e) {
                self.journal = None;
            }
        }
        result
    }

    fn find(&self, id: &str) -> Option<usize> {
        self.jobs.iter().position(|j| j.id == id)
    }

    /// Handles one client request, journaling every state transition
    /// before applying or acknowledging it.
    ///
    /// # Errors
    ///
    /// `Err` means an injected process death killed the durable write
    /// path mid-command (the in-memory table may be behind the journal,
    /// never ahead of it); the daemon is dead from then on. Every
    /// *other* persistence failure degrades: the affected job is parked
    /// or the journal handle discarded for lazy healing, and the client
    /// sees a retryable [`Response::Error`]. Client-level failures
    /// (unknown id, spec collision, invalid transition) are `Ok` with
    /// [`Response::Error`] and change nothing.
    ///
    /// Read verbs (`status`, `frontier`, `fail-info`) are answered from
    /// the read view published after the last round or command, exactly
    /// as the server's connection threads answer them.
    pub fn handle(&mut self, req: &Request) -> io::Result<Response> {
        if let Some(reply) = self.view.latest().answer(req) {
            return Ok(reply);
        }
        let result = self.command(req);
        self.publish();
        result
    }

    fn command(&mut self, req: &Request) -> io::Result<Response> {
        if self.dead {
            return Ok(dead_error());
        }
        let result = match req {
            Request::Submit(spec) => self.submit(spec),
            Request::Pause { id } => self.pause(id),
            Request::Resume { id } => self.resume(id),
            Request::Cancel { id } => self.cancel(id),
            Request::Retry { id } => self.retry(id),
            Request::Ping | Request::Shutdown => Ok(Response::Ok),
            Request::Status { .. } | Request::Frontier { .. } | Request::FailInfo { .. } => {
                unreachable!("read verbs are answered from the view")
            }
        };
        match result {
            Err(e) if cv_journal::failpoint::is_crash(&e) => {
                self.dead = true;
                Err(e)
            }
            Err(e) => {
                // Transient degradation before the transition applied:
                // state is unchanged (every command journals first),
                // the possibly-torn journal handle is discarded, and
                // the client may simply retry.
                self.journal = None;
                Ok(Response::Transient {
                    message: format!("transient persistence failure: {e}; retry"),
                })
            }
            ok => ok,
        }
    }

    fn submit(&mut self, spec: &JobSpec) -> io::Result<Response> {
        let id = spec.id();
        if let Some(idx) = self.find(&id) {
            if self.jobs[idx].spec != *spec {
                return Ok(Response::error(format!(
                    "job {id} exists with a different spec"
                )));
            }
            // Idempotent re-submit: the crash-retry path. For a failed
            // or quarantined job it doubles as the resubmit-to-retry
            // path (retry budget reset, like a manual `retry`).
            let parked = matches!(
                &*self.jobs[idx].state.lock(),
                JobState::Failed(_) | JobState::Quarantined(_)
            );
            if parked {
                self.retry_job(idx, true)?;
            }
            return Ok(Response::Submitted { id, existing: true });
        }
        // Journal first, then admit: a crash after the append replays
        // into exactly the submit the client will retry. The job is
        // opened by the round that first runs it.
        self.append_event(&ServiceEvent::Submitted(spec.clone()))?;
        self.jobs.push(JobSlot {
            id: id.clone(),
            spec: spec.clone(),
            retries: AtomicU32::new(0),
            state: parking_lot::Mutex::new(JobState::Queued { paused: false }),
        });
        Ok(Response::Submitted {
            id,
            existing: false,
        })
    }

    fn pause(&mut self, id: &str) -> io::Result<Response> {
        let Some(idx) = self.find(id) else {
            return Ok(Response::error(format!("unknown job {id}")));
        };
        {
            let mut state = self.jobs[idx].state.lock();
            match &mut *state {
                JobState::Paused(_) | JobState::Queued { paused: true } => {
                    return Ok(Response::Ok); // idempotent
                }
                // Nothing in memory to persist.
                JobState::Queued { paused: false } => {}
                JobState::Done(_) => {
                    return Ok(Response::error(format!("job {id} already finished")))
                }
                JobState::Failed(_) | JobState::Quarantined(_) => {
                    return Ok(Response::error(format!(
                        "job {id} is {}; retry it first",
                        state.label()
                    )))
                }
                JobState::Running(rt) => {
                    // Persist progress before the durable transition, so
                    // a paused job survives a crash at its exact step.
                    match rt.checkpoint_now() {
                        Ok(()) => {}
                        Err(e) if cv_journal::failpoint::is_crash(&e) => return Err(e),
                        Err(e) => {
                            // The task journal may be torn: park the job
                            // (discarding the handle); a retry reopens
                            // from disk, which truncates any torn tail.
                            let sims =
                                catch_unwind(AssertUnwindSafe(|| rt.sims_used())).unwrap_or(0);
                            drop(state);
                            self.park_job(idx, sims, format!("checkpoint failed: {e}"))?;
                            return Ok(Response::error(format!(
                                "job {id} parked: transient checkpoint failure ({e})"
                            )));
                        }
                    }
                }
            }
        }
        self.append_event(&ServiceEvent::Paused(id.to_string()))?;
        let mut state = self.jobs[idx].state.lock();
        *state = match std::mem::replace(&mut *state, JobState::Queued { paused: true }) {
            JobState::Running(rt) => JobState::Paused(rt),
            JobState::Queued { .. } => JobState::Queued { paused: true },
            other => other,
        };
        Ok(Response::Ok)
    }

    fn resume(&mut self, id: &str) -> io::Result<Response> {
        let Some(idx) = self.find(id) else {
            return Ok(Response::error(format!("unknown job {id}")));
        };
        {
            let state = self.jobs[idx].state.lock();
            match &*state {
                JobState::Running(_) | JobState::Queued { paused: false } => {
                    return Ok(Response::Ok); // idempotent
                }
                JobState::Done(_) => {
                    return Ok(Response::error(format!("job {id} already finished")))
                }
                JobState::Failed(_) | JobState::Quarantined(_) => {
                    return Ok(Response::error(format!(
                        "job {id} is {}; retry it first",
                        state.label()
                    )))
                }
                JobState::Paused(_) | JobState::Queued { paused: true } => {}
            }
        }
        self.append_event(&ServiceEvent::Resumed(id.to_string()))?;
        let mut state = self.jobs[idx].state.lock();
        *state = match std::mem::replace(&mut *state, JobState::Queued { paused: false }) {
            JobState::Paused(rt) => JobState::Running(rt),
            JobState::Queued { .. } => JobState::Queued { paused: false },
            other => other,
        };
        Ok(Response::Ok)
    }

    fn cancel(&mut self, id: &str) -> io::Result<Response> {
        let Some(idx) = self.find(id) else {
            return Ok(Response::error(format!("unknown job {id}")));
        };
        if matches!(&*self.jobs[idx].state.lock(), JobState::Done(_)) {
            return Ok(Response::error(format!(
                "job {id} already finished (results kept)"
            )));
        }
        // Durable tombstone first; the file GC below is idempotent and
        // re-run on replay if a crash interrupts it.
        self.append_event(&ServiceEvent::Cancelled(id.to_string()))?;
        let slot = self.jobs.remove(idx);
        match slot.state.into_inner() {
            JobState::Running(rt) | JobState::Paused(rt) => rt.remove_files(),
            // A queued or parked job holds no engine; GC its files
            // directly.
            JobState::Queued { .. } | JobState::Failed(_) | JobState::Quarantined(_) => {
                remove_task_files(&self.cfg.dir, &slot.id)
            }
            JobState::Done(_) => unreachable!("checked above"),
        }
        // GC point: drop the cancelled job's events from the journal.
        self.rotate_canonical_degraded()?;
        Ok(Response::Ok)
    }

    fn retry(&mut self, id: &str) -> io::Result<Response> {
        let Some(idx) = self.find(id) else {
            return Ok(Response::error(format!("unknown job {id}")));
        };
        let parked = matches!(
            &*self.jobs[idx].state.lock(),
            JobState::Failed(_) | JobState::Quarantined(_)
        );
        if !parked {
            return Ok(Response::error(format!("job {id} is not failed")));
        }
        self.retry_job(idx, true)?;
        Ok(Response::Ok)
    }

    /// Revives a parked job from its last durable checkpoint: journals
    /// the *retrying* transition, adjusts the retry budget (`manual`
    /// resets it, an automatic retry burns one), and queues the job, so
    /// the round that next runs it reopens the step engine from disk —
    /// which truncates any transiently torn task journal tail. A reopen
    /// failure parks the job again (counting toward quarantine).
    fn retry_job(&mut self, idx: usize, manual: bool) -> io::Result<()> {
        let id = self.jobs[idx].id.clone();
        match self.append_event(&ServiceEvent::Retrying(id.clone())) {
            Err(e) if cv_journal::failpoint::is_crash(&e) => return Err(e),
            Err(e) => eprintln!("campaignd: failed to journal retry of {id} ({e})"),
            Ok(()) => {}
        }
        if manual {
            self.jobs[idx].retries.store(0, Ordering::Relaxed);
        } else {
            self.jobs[idx].retries.fetch_add(1, Ordering::Relaxed);
        }
        eprintln!("campaignd: retrying job {id} from its last durable checkpoint");
        *self.jobs[idx].state.lock() = JobState::Queued { paused: false };
        Ok(())
    }

    /// Parks job `idx` as failed — or quarantined once its retry budget
    /// is exhausted — journaling the transition (best-effort) and
    /// discarding the poisoned in-memory engine. Returns `Err` only for
    /// injected process death.
    fn park_job(&mut self, idx: usize, sims: usize, reason: String) -> io::Result<()> {
        let id = self.jobs[idx].id.clone();
        let retries = self.jobs[idx].retries.load(Ordering::Relaxed);
        let quarantined = retries >= self.cfg.max_retries;
        let info = FailureInfo {
            retries,
            backoff: if quarantined {
                0
            } else {
                backoff_for(retries + 1)
            },
            sims,
            reason,
        };
        let ev = if quarantined {
            ServiceEvent::Quarantined {
                id: id.clone(),
                retries,
                sims: sims as u64,
                reason: info.reason.clone(),
            }
        } else {
            ServiceEvent::Failed {
                id: id.clone(),
                retries,
                sims: sims as u64,
                reason: info.reason.clone(),
            }
        };
        // Best-effort durability: an injected process death propagates,
        // but a transient IO error must not stop the parking itself —
        // losing the record only means a restart replays the job as
        // running and retries immediately.
        match self.append_event(&ev) {
            Err(e) if cv_journal::failpoint::is_crash(&e) => {
                self.dead = true;
                return Err(e);
            }
            Err(e) => eprintln!("campaignd: failed to journal failure of {id} ({e})"),
            Ok(()) => {}
        }
        eprintln!(
            "campaignd: job {id} {}: {}",
            if quarantined {
                "quarantined"
            } else {
                "parked for retry"
            },
            info.reason
        );
        let mut state = self.jobs[idx].state.lock();
        if let JobState::Running(rt) | JobState::Paused(rt) = &*state {
            // Best-effort detach; a poisoned engine may panic even here.
            let _ = catch_unwind(AssertUnwindSafe(|| rt.detach()));
        }
        *state = if quarantined {
            JobState::Quarantined(info)
        } else {
            JobState::Failed(info)
        };
        Ok(())
    }

    /// Drains every failed job's backoff by one round, reviving the
    /// jobs whose backoff reaches zero.
    fn tick_retries(&mut self) -> io::Result<()> {
        for idx in 0..self.jobs.len() {
            let due = {
                let mut state = self.jobs[idx].state.lock();
                match &mut *state {
                    JobState::Failed(info) => {
                        info.backoff = info.backoff.saturating_sub(1);
                        info.backoff == 0
                    }
                    _ => false,
                }
            };
            if due {
                self.retry_job(idx, false)?;
            }
        }
        Ok(())
    }

    /// Runs one scheduling round: failed jobs drain one round of
    /// backoff (reviving the ones that reach zero), queued jobs are
    /// admitted in table order while fewer than [`MAX_OPEN_JOBS`] run,
    /// then every running job advances by up to
    /// [`DaemonConfig::slice_steps`] driver steps, dispatched onto the
    /// shared worker pool with **per-job panic isolation** — an admitted
    /// job is opened by the worker running its slice, and a panicking or
    /// transiently-failing job is parked (Contract 13) while every other
    /// job's slice proceeds untouched. The last runnable job completing
    /// triggers the finished-job GC (journal compaction). Returns the
    /// number of jobs stepped (`0` = the daemon is idle).
    ///
    /// # Errors
    ///
    /// Only an injected process death (the daemon is dead from then
    /// on); every other failure degrades to parking.
    pub fn round(&mut self) -> io::Result<usize> {
        let result = self.run_rounds(1).map(|(_, stepped)| stepped);
        self.publish();
        result
    }

    /// Runs `n` scheduling rounds with no command between them, in as
    /// few pool dispatches as the table allows, and returns how many ran
    /// (at least one, unless the daemon is dead). While no queued job waits for a slot and no
    /// failed job for its retry, rounds only step the same running jobs,
    /// so one dispatch runs each job's next `n` slices without a barrier
    /// between them: a job's steps, files and the directory after the
    /// last of the `n` rounds are those of [`Daemon::round`] called `n`
    /// times (a job that fails mid-batch is parked at the batch's end).
    ///
    /// `n = usize::MAX` drains the table: every runnable job, queued ones
    /// included, runs to completion in one dispatch, opened when a
    /// worker reaches it — so beyond the jobs already open, at most
    /// [`DaemonConfig::threads`] engines are in memory at once, and the
    /// cap does not apply. Failed jobs first get single rounds until
    /// their retries are due.
    ///
    /// # Errors
    ///
    /// As [`Daemon::round`].
    pub fn rounds(&mut self, n: usize) -> io::Result<usize> {
        let result = self.run_rounds(n).map(|(rounds, _)| rounds);
        self.publish();
        result
    }

    /// [`Daemon::rounds`]: returns the rounds run and the jobs stepped.
    fn run_rounds(&mut self, n: usize) -> io::Result<(usize, usize)> {
        if self.dead {
            return Ok((0, 0));
        }
        self.tick_retries()?;
        let retrying = self
            .jobs
            .iter()
            .any(|j| matches!(&*j.state.lock(), JobState::Failed(_)));
        let drain = n == usize::MAX && !retrying;
        let mut open = self
            .jobs
            .iter()
            .filter(|j| matches!(&*j.state.lock(), JobState::Running(_)))
            .count();
        let (mut running, mut waiting) = (Vec::new(), false);
        for (i, job) in self.jobs.iter().enumerate() {
            match &*job.state.lock() {
                JobState::Running(_) => running.push(i),
                JobState::Queued { paused: false } if drain || open < MAX_OPEN_JOBS => {
                    open += 1;
                    running.push(i);
                }
                JobState::Queued { paused: false } => waiting = true,
                _ => {}
            }
        }
        let batch = if retrying || waiting { 1 } else { n.max(1) };
        if running.is_empty() {
            return Ok((1, 0));
        }
        // A failed job's error, and what failed: its open or its steps.
        type Failure = Option<(&'static str, io::Error)>;
        let errors: Vec<parking_lot::Mutex<Failure>> = running
            .iter()
            .map(|_| parking_lot::Mutex::new(None))
            .collect();
        let finished = parking_lot::Mutex::new(false);
        let (jobs, cfg) = (&self.jobs, &self.cfg);
        let steps = cfg.slice_steps.max(1).saturating_mul(batch);
        let width = cfg.threads.clamp(1, MAX_OPEN_JOBS);
        let outcomes =
            cv_pool::WorkerPool::global().run_dynamic_isolated(running.len(), width, |i| {
                let job = &jobs[running[i]];
                let mut state = job.state.lock();
                if let JobState::Queued { .. } = &*state {
                    match open_job(&job.spec, cfg, false) {
                        Ok(opened) => {
                            if let JobState::Done(_) = opened {
                                // Completed durably in an earlier life.
                                *finished.lock() = true;
                            }
                            *state = opened;
                        }
                        Err(e) => {
                            *errors[i].lock() = Some(("open failed", e));
                            return;
                        }
                    }
                }
                let JobState::Running(rt) = &mut *state else {
                    return;
                };
                for _ in 0..steps {
                    match rt.step(cfg.checkpoint_every) {
                        Ok(TaskStep::Running) => {}
                        Ok(TaskStep::Done(result)) => {
                            *state = JobState::Done(*result);
                            *finished.lock() = true;
                            break;
                        }
                        Err(e) => {
                            *errors[i].lock() = Some(("persistence failure", e));
                            break;
                        }
                    }
                }
            });
        let mut errs: Vec<Failure> = errors.into_iter().map(|m| m.into_inner()).collect();
        // Injected process death kills the daemon, exactly as before …
        for e in errs.iter_mut() {
            if e.as_ref()
                .is_some_and(|(_, e)| cv_journal::failpoint::is_crash(e))
            {
                self.dead = true;
                return Err(e.take().expect("checked some").1);
            }
        }
        // … while panics and transient IO errors park only their job.
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let idx = running[i];
            let reason = match outcome {
                TaskOutcome::Panicked(msg) => Some(format!("panic: {msg}")),
                TaskOutcome::Completed => errs[i].take().map(|(what, e)| format!("{what}: {e}")),
            };
            let Some(reason) = reason else { continue };
            let sims = {
                let state = self.jobs[idx].state.lock();
                match &*state {
                    JobState::Running(rt) | JobState::Paused(rt) => {
                        catch_unwind(AssertUnwindSafe(|| rt.sims_used())).unwrap_or(0)
                    }
                    _ => 0,
                }
            };
            self.park_job(idx, sims, reason)?;
        }
        if finished.into_inner() && !self.has_running() {
            // Finished-job GC, once the table has nothing left to run:
            // compact the journal so completed jobs occupy exactly their
            // canonical *submitted* + *finished* pair — and so a fully
            // drained table always leaves the same journal bytes, crash
            // history or not. (*finished* is advisory: until then a
            // replay learns it from the job's own files.)
            self.rotate_canonical_degraded()?;
        }
        Ok((batch, running.len()))
    }

    /// Durably checkpoints every running job (the graceful-shutdown
    /// path; paused, done, and parked jobs are already durable). A
    /// transient checkpoint failure parks that job and continues with
    /// the rest.
    ///
    /// # Errors
    ///
    /// Only an injected process death (the daemon is dead from then
    /// on).
    pub fn checkpoint_all(&mut self) -> io::Result<()> {
        let result = self.checkpoint_running();
        self.publish();
        result
    }

    fn checkpoint_running(&mut self) -> io::Result<()> {
        if self.dead {
            return Ok(());
        }
        for idx in 0..self.jobs.len() {
            let result = {
                let mut state = self.jobs[idx].state.lock();
                match &mut *state {
                    JobState::Running(rt) => rt
                        .checkpoint_now()
                        .map_err(|e| (e, catch_unwind(AssertUnwindSafe(|| rt.sims_used())))),
                    _ => Ok(()),
                }
            };
            match result {
                Ok(()) => {}
                Err((e, _)) if cv_journal::failpoint::is_crash(&e) => {
                    self.dead = true;
                    return Err(e);
                }
                Err((e, sims)) => {
                    self.park_job(idx, sims.unwrap_or(0), format!("checkpoint failed: {e}"))?;
                }
            }
        }
        Ok(())
    }
}

/// Opens (or resumes) one job's step engine from its durable per-job
/// state, classifying it into the replayed lifecycle state.
fn open_job(spec: &JobSpec, cfg: &DaemonConfig, paused: bool) -> io::Result<JobState> {
    Ok(
        match RunningTask::open(spec, &cfg.dir, cfg.journal_max_bytes)? {
            OpenedTask::Done(result) => JobState::Done(result),
            OpenedTask::Run(rt) if paused => JobState::Paused(rt),
            OpenedTask::Run(rt) => JobState::Running(rt),
        },
    )
}
