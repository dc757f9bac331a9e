//! Per-task durable persistence — the layer shared by the batch
//! campaign orchestrator ([`crate::campaign`]) and the `campaignd`
//! search service ([`crate::service`]).
//!
//! One *task* is a [`JobSpec`] — method × circuit × width × tech × ω ×
//! budget × seed — run as a search with an on-disk life (Contract 10,
//! DESIGN.md §9). Its files share the stem [`JobSpec::id`], whichever
//! front end runs it:
//!
//! * `<id>.journal` — append-only [`cv_journal::Journal`] of task
//!   events (*started*, *progress* + *checkpoint* pairs, *completed*),
//!   written **before** any derived file. It is the task's only resume
//!   source: replaying its durable prefix always reconstructs (or
//!   heals) the rest;
//! * `<id>.jsonl` — the per-round telemetry stream;
//! * `<id>.done`  — the final outcome + frontier archive.
//!
//! [`RunningTask`] is the single step engine both callers drive: the
//! campaign loops it to completion inside one pool unit, while the
//! service interleaves *slices* of steps from many tasks on the same
//! pool (Contract 11, DESIGN.md §10). Because every durable artifact
//! depends only on the task's own deterministic driver/evaluator
//! streams — never on slicing, scheduling, or checkpoint cadence — both
//! callers produce byte-identical `.done`/`.jsonl` files and identical
//! rotated journals for the same task.

use crate::driver::{make_driver, MethodDriver};
use crate::harness::{build_evaluator, ExperimentSpec, Method, TechLibrary};
use circuitvae::driver::{Checkpointable, SearchDriver, StepStatus};
use cv_journal::{fs, Journal};
use cv_prefix::CircuitKind;
use cv_synth::ckpt::{CkptError, Dec, Enc};
use cv_synth::{CachedEvaluator, EvaluatorState, ParetoArchive, SearchOutcome, SharedArchive};
use std::io;
use std::path::{Path, PathBuf};

/// A task specification: what one campaign grid cell or one `campaignd`
/// job searches. Its identity ([`JobSpec::id`]) is a pure function of
/// the spec, so re-running or re-submitting after a crash finds the same
/// files.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The search method.
    pub method: Method,
    /// The prefix-circuit family.
    pub kind: CircuitKind,
    /// Circuit bitwidth.
    pub width: usize,
    /// Technology library.
    pub tech: TechLibrary,
    /// Delay weight ω of the scalarized objective.
    pub delay_weight: f64,
    /// Total simulation budget.
    pub budget: usize,
    /// Method seed.
    pub seed: u64,
}

/// The machine slug of a tech library (wire, file-stem and CSV
/// vocabulary).
pub fn tech_slug(tech: TechLibrary) -> &'static str {
    match tech {
        TechLibrary::Nangate45Like => "nangate45",
        TechLibrary::Scaled8nmLike => "scaled8nm",
    }
}

/// The machine slug of a method (wire + file-stem vocabulary): the
/// paper label, lowercased, separators removed (`GA-NSGA2` → `gansga2`).
pub fn method_slug(method: Method) -> String {
    method.label().to_lowercase().replace('-', "")
}

impl JobSpec {
    /// The task's stable identity — the stem of its on-disk files and the
    /// handle every `campaignd` lifecycle command uses. Deterministic in
    /// the spec, so a client can re-submit blindly after a restart.
    pub fn id(&self) -> String {
        format!(
            "{}_{}_w{}_{}_b{}_s{}",
            tech_slug(self.tech),
            self.kind.name(),
            self.width,
            method_slug(self.method),
            self.budget,
            self.seed
        )
    }

    /// The experiment spec this task runs (standard IO/init policy).
    pub fn to_spec(&self) -> ExperimentSpec {
        let mut spec =
            ExperimentSpec::standard(self.width, self.kind, self.delay_weight, self.budget);
        spec.tech = self.tech;
        spec
    }
}

/// A completed task: the outcome plus the frontier its run traced.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// The search outcome.
    pub outcome: SearchOutcome,
    /// The archive observed during the run.
    pub archive: ParetoArchive,
}

const DONE_MAGIC: &[u8; 8] = b"CVCPDN01";
const CKPT_MAGIC: &[u8; 8] = b"CVCPCK01";

// ---------------------------------------------------------------------
// Task event journal (Contract 10)
// ---------------------------------------------------------------------

/// One durable event in a task's journal. Payloads ride inside
/// checksummed journal frames, so decoding sees only intact records.
#[derive(Debug, Clone, PartialEq)]
enum TaskEvent {
    /// The task began a fresh run.
    Started,
    /// The task has consumed `sims` simulations (stamped alongside each
    /// checkpoint — the budget axis of the journal).
    Progress {
        /// Simulations consumed so far.
        sims: u64,
    },
    /// A full resume snapshot (driver + evaluator + archive +
    /// telemetry).
    Checkpoint {
        /// Encoded [`encode_ckpt`] bytes.
        bytes: Vec<u8>,
    },
    /// The task finished: the final result and telemetry, byte-exact.
    Completed {
        /// Encoded [`encode_done`] bytes.
        done: Vec<u8>,
        /// The final `.jsonl` content.
        jsonl: Vec<u8>,
    },
}

const EV_STARTED: u8 = 1;
const EV_PROGRESS: u8 = 2;
const EV_CHECKPOINT: u8 = 3;
const EV_COMPLETED: u8 = 4;

impl TaskEvent {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        match self {
            TaskEvent::Started => enc.u8(EV_STARTED),
            TaskEvent::Progress { sims } => {
                enc.u8(EV_PROGRESS);
                enc.u64(*sims);
            }
            TaskEvent::Checkpoint { bytes } => {
                enc.u8(EV_CHECKPOINT);
                enc.bytes(bytes);
            }
            TaskEvent::Completed { done, jsonl } => {
                enc.u8(EV_COMPLETED);
                enc.bytes(done);
                enc.bytes(jsonl);
            }
        }
        enc.finish()
    }

    fn decode(payload: &[u8]) -> Result<TaskEvent, CkptError> {
        let mut dec = Dec::new(payload);
        let ev = match dec.u8()? {
            EV_STARTED => TaskEvent::Started,
            EV_PROGRESS => TaskEvent::Progress { sims: dec.u64()? },
            EV_CHECKPOINT => TaskEvent::Checkpoint {
                bytes: dec.bytes()?.to_vec(),
            },
            EV_COMPLETED => TaskEvent::Completed {
                done: dec.bytes()?.to_vec(),
                jsonl: dec.bytes()?.to_vec(),
            },
            _ => return Err(CkptError::Invalid("task event tag")),
        };
        dec.finish()?;
        Ok(ev)
    }
}

/// What a journal's durable prefix reconstructs: exactly the state the
/// orchestrator held at the last durable record.
#[derive(Debug, Default)]
struct ReplayedState {
    /// The latest durable checkpoint snapshot, if any.
    checkpoint: Option<Vec<u8>>,
    /// The final result + telemetry, if the task completed durably.
    completed: Option<(Vec<u8>, Vec<u8>)>,
    /// The highest durable simulation count.
    sims: u64,
}

/// Replays decoded journal records into orchestrator state. A record
/// that fails to decode (a version change — CRCs already screened out
/// corruption) ends the trusted prefix, mirroring the torn-tail rule.
fn replay(records: &[Vec<u8>]) -> ReplayedState {
    let mut state = ReplayedState::default();
    for record in records {
        match TaskEvent::decode(record) {
            Ok(TaskEvent::Started) => {}
            Ok(TaskEvent::Progress { sims }) => state.sims = state.sims.max(sims),
            Ok(TaskEvent::Checkpoint { bytes }) => state.checkpoint = Some(bytes),
            Ok(TaskEvent::Completed { done, jsonl }) => state.completed = Some((done, jsonl)),
            Err(_) => break,
        }
    }
    state
}

/// A task's open journal plus the rotation policy.
struct TaskJournal {
    journal: Option<Journal>,
    max_bytes: u64,
}

impl TaskJournal {
    fn open(path: &Path, max_bytes: u64) -> io::Result<(TaskJournal, ReplayedState)> {
        let opened = Journal::open(path)?;
        if opened.truncated_bytes > 0 {
            eprintln!(
                "campaign: truncated {} bytes of torn tail from {}",
                opened.truncated_bytes,
                path.display()
            );
        }
        let state = replay(&opened.records);
        Ok((
            TaskJournal {
                journal: Some(opened.journal),
                max_bytes,
            },
            state,
        ))
    }

    fn started(&mut self) -> io::Result<()> {
        let payload = TaskEvent::Started.encode();
        self.journal
            .as_mut()
            .expect("journal open")
            .append(&payload)
    }

    /// Appends the per-checkpoint event pair (one durable write +
    /// fsync) and rotates the segment down to it when the cap is
    /// exceeded.
    fn checkpoint(&mut self, sims: u64, bytes: &[u8]) -> io::Result<()> {
        let payloads = [
            TaskEvent::Progress { sims }.encode(),
            TaskEvent::Checkpoint {
                bytes: bytes.to_vec(),
            }
            .encode(),
        ];
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let journal = self.journal.as_mut().expect("journal open");
        journal.append_all(&refs)?;
        if journal.len() > self.max_bytes {
            let rotated = self.journal.take().expect("journal open").rotate(&refs)?;
            self.journal = Some(rotated);
        }
        Ok(())
    }

    /// Rotates the segment down to the single *completed* record — the
    /// durable statement that this task's results are final.
    fn complete(&mut self, done: &[u8], jsonl: &[u8]) -> io::Result<()> {
        let payload = TaskEvent::Completed {
            done: done.to_vec(),
            jsonl: jsonl.to_vec(),
        }
        .encode();
        let rotated = self
            .journal
            .take()
            .expect("journal open")
            .rotate(&[&payload])?;
        self.journal = Some(rotated);
        Ok(())
    }
}

fn encode_done(result: &TaskResult) -> Vec<u8> {
    let mut enc = Enc::with_magic(DONE_MAGIC);
    result.outcome.write_ckpt(&mut enc);
    result.archive.write_ckpt(&mut enc);
    enc.finish()
}

fn decode_done(bytes: &[u8]) -> Result<TaskResult, CkptError> {
    let mut dec = Dec::with_magic(bytes, DONE_MAGIC)?;
    let outcome = SearchOutcome::read_ckpt(&mut dec)?;
    let archive = ParetoArchive::read_ckpt(&mut dec)?;
    dec.finish()?;
    Ok(TaskResult { outcome, archive })
}

fn encode_ckpt(
    driver: &MethodDriver,
    evaluator_state: &EvaluatorState,
    archive: &ParetoArchive,
    round: usize,
    last_line_sims: usize,
    lines: &[String],
) -> Vec<u8> {
    let mut enc = Enc::with_magic(CKPT_MAGIC);
    enc.bytes(&driver.save());
    evaluator_state.write_ckpt(&mut enc);
    archive.write_ckpt(&mut enc);
    enc.usize(round);
    enc.usize(last_line_sims);
    enc.usize(lines.len());
    for l in lines {
        enc.str(l);
    }
    enc.finish()
}

struct ResumedTask {
    driver: MethodDriver,
    evaluator_state: EvaluatorState,
    archive: ParetoArchive,
    round: usize,
    last_line_sims: usize,
    lines: Vec<String>,
}

fn decode_ckpt(bytes: &[u8]) -> Result<ResumedTask, CkptError> {
    let mut dec = Dec::with_magic(bytes, CKPT_MAGIC)?;
    let driver = MethodDriver::load(dec.bytes()?)?;
    let evaluator_state = EvaluatorState::read_ckpt(&mut dec)?;
    let archive = ParetoArchive::read_ckpt(&mut dec)?;
    let round = dec.usize()?;
    let last_line_sims = dec.usize()?;
    let n = dec.seq_len()?;
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        lines.push(dec.str()?);
    }
    dec.finish()?;
    Ok(ResumedTask {
        driver,
        evaluator_state,
        archive,
        round,
        last_line_sims,
        lines,
    })
}

fn telemetry_line(task_id: &str, round: usize, sims: usize, best: f64) -> String {
    if best.is_finite() {
        format!(r#"{{"task":"{task_id}","round":{round},"sims":{sims},"best":{best:.9}}}"#)
    } else {
        format!(r#"{{"task":"{task_id}","round":{round},"sims":{sims},"best":null}}"#)
    }
}

/// The on-disk file set of one persistent task.
struct TaskPaths {
    done: PathBuf,
    jsonl: PathBuf,
    journal: PathBuf,
}

impl TaskPaths {
    fn new(dir: &Path, id: &str) -> TaskPaths {
        TaskPaths {
            done: dir.join(format!("{id}.done")),
            jsonl: dir.join(format!("{id}.jsonl")),
            journal: dir.join(format!("{id}.journal")),
        }
    }

    /// Removes every on-disk artifact of the task (cancellation GC).
    /// Idempotent: missing files are fine.
    fn remove_all(&self) {
        for p in [&self.done, &self.jsonl, &self.journal] {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// The outcome of opening a task against its on-disk state.
pub(crate) enum OpenedTask {
    /// The task had already completed durably (its stored — or
    /// journal-healed — result is returned verbatim).
    Done(TaskResult),
    /// The task is resumable (from its durable checkpoint) or fresh.
    Run(Box<RunningTask>),
}

/// One step of a [`RunningTask`].
pub(crate) enum TaskStep {
    /// The driver advanced; `checkpointed` reports whether this step
    /// crossed the checkpoint cadence (and persisted durably).
    Running {
        /// Whether a checkpoint was written this step.
        checkpointed: bool,
    },
    /// The driver finished; the result and its files are final.
    Done(Box<TaskResult>),
}

/// A resumable in-flight task: the step engine plus its durable tail.
///
/// Both orchestrators drive this engine — the campaign runs one task
/// per pool unit to completion, the service interleaves step slices of
/// many tasks. All durable writes happen inside [`RunningTask::step`] /
/// [`RunningTask::checkpoint_now`], journal-first (Contract 10).
pub(crate) struct RunningTask {
    id: String,
    paths: TaskPaths,
    journal: TaskJournal,
    evaluator: CachedEvaluator,
    driver: MethodDriver,
    archive: SharedArchive,
    round: usize,
    last_line_sims: usize,
    lines: Vec<String>,
    last_ckpt: usize,
}

impl RunningTask {
    /// Opens the task `spec` against its on-disk state under `dir`.
    ///
    /// Recovery order (Contract 10): a decodable `.done` wins; then the
    /// task journal's durable *completed* record (healing the result
    /// files byte-exactly); then the journal's latest durable
    /// checkpoint; then a fresh start. A corrupt `.done` is quarantined,
    /// never a panic.
    ///
    /// # Errors
    ///
    /// Propagates persistence failures — including crashes injected by
    /// an armed failpoint in `Error` mode.
    pub(crate) fn open(
        spec: &JobSpec,
        dir: &Path,
        journal_max_bytes: u64,
    ) -> io::Result<OpenedTask> {
        let id = spec.id();
        let paths = TaskPaths::new(dir, &id);

        // Completed on a previous run: reuse the stored result verbatim.
        // A corrupt or truncated `.done` is logged and deleted, and
        // recovery falls through to the journal.
        if let Ok(bytes) = std::fs::read(&paths.done) {
            match decode_done(&bytes) {
                Ok(result) => return Ok(OpenedTask::Done(result)),
                Err(e) => {
                    eprintln!(
                        "campaign: corrupt .done file at {} ({e}); treating as absent",
                        paths.done.display()
                    );
                    let _ = std::fs::remove_file(&paths.done);
                }
            }
        }

        // Open the event journal and replay its durable prefix. The
        // journal is authoritative: its records were appended *before*
        // the matching `.jsonl`/`.done` files were published, so it is
        // never behind them.
        let (mut journal, state) = TaskJournal::open(&paths.journal, journal_max_bytes)?;
        if let Some((done_bytes, jsonl_bytes)) = &state.completed {
            if let Ok(result) = decode_done(done_bytes) {
                // The task completed durably but died before (or while)
                // publishing its result files: heal them from the
                // journal, byte-exact.
                fs::write_atomic(&paths.jsonl, jsonl_bytes)?;
                fs::write_atomic(&paths.done, done_bytes)?;
                return Ok(OpenedTask::Done(result));
            }
            eprintln!(
                "campaign: undecodable completed record in {}; replaying from checkpoint",
                paths.journal.display()
            );
        }

        let experiment = spec.to_spec();
        let evaluator = build_evaluator(&experiment);
        // Resume from the journal's latest durable checkpoint, or start
        // fresh.
        let resumed = state
            .checkpoint
            .as_deref()
            .and_then(|bytes| match decode_ckpt(bytes) {
                Ok(r) => Some(r),
                Err(e) => {
                    eprintln!("campaign: undecodable journal checkpoint for {id} ({e})");
                    None
                }
            });

        let (driver, archive, round, last_line_sims, lines) = match resumed {
            Some(resumed) => {
                evaluator.restore_state(&resumed.evaluator_state);
                let shared = resumed.archive.into_shared();
                evaluator.attach_archive(shared.clone());
                (
                    resumed.driver,
                    shared,
                    resumed.round,
                    resumed.last_line_sims,
                    resumed.lines,
                )
            }
            None => {
                journal.started()?;
                let shared = ParetoArchive::new().with_log().into_shared();
                evaluator.attach_archive(shared.clone());
                (
                    make_driver(spec.method, &experiment, spec.seed),
                    shared,
                    0,
                    usize::MAX, // sentinel: force a line on the first progress
                    Vec::new(),
                )
            }
        };
        let last_ckpt = driver.sims_used();
        Ok(OpenedTask::Run(Box::new(RunningTask {
            id,
            paths,
            journal,
            evaluator,
            driver,
            archive,
            round,
            last_line_sims,
            lines,
            last_ckpt,
        })))
    }

    /// Advances the driver by one step, appending telemetry, writing
    /// the periodic durable checkpoint when `checkpoint_every` new
    /// simulations have accumulated, and — on completion — publishing
    /// the final result (journal rotation first, then `.jsonl`/`.done`).
    ///
    /// # Errors
    ///
    /// Propagates persistence failures (including injected crashes).
    pub(crate) fn step(&mut self, checkpoint_every: usize) -> io::Result<TaskStep> {
        crate::faults::maybe_panic(&self.id, self.driver.sims_used());
        match self.driver.step(&self.evaluator) {
            StepStatus::Done => {
                self.evaluator.detach_archive();
                let outcome = self.driver.outcome().cloned().expect("driver completed");
                self.lines.push(telemetry_line(
                    &self.id,
                    self.round,
                    self.driver.sims_used(),
                    outcome.best_cost,
                ));
                let result = TaskResult {
                    outcome,
                    archive: self.archive.lock().clone(),
                };
                let done_bytes = encode_done(&result);
                let jsonl_bytes = self.lines.join("\n").into_bytes();
                // Durable completion first (journal rotated down to the
                // single *completed* record), then the derived files: a
                // crash anywhere in this sequence heals to the same bytes
                // on resume.
                self.journal.complete(&done_bytes, &jsonl_bytes)?;
                fs::write_atomic(&self.paths.jsonl, &jsonl_bytes)?;
                fs::write_atomic(&self.paths.done, &done_bytes)?;
                Ok(TaskStep::Done(Box::new(result)))
            }
            StepStatus::Running => {
                self.round += 1;
                let sims = self.driver.sims_used();
                // One telemetry line per round that made progress on the
                // budget axis (phase transitions and cache hits stay
                // silent, so the stream length is bounded by the budget).
                if sims != self.last_line_sims && sims > 0 {
                    self.lines.push(telemetry_line(
                        &self.id,
                        self.round,
                        sims,
                        self.driver.best_cost(),
                    ));
                    self.last_line_sims = sims;
                }
                let mut checkpointed = false;
                if sims - self.last_ckpt >= checkpoint_every {
                    self.checkpoint_now()?;
                    checkpointed = true;
                }
                Ok(TaskStep::Running { checkpointed })
            }
        }
    }

    /// Persists a full resume snapshot now (the journal record first,
    /// then the `.jsonl` telemetry) — the halt/pause/shutdown hook.
    ///
    /// # Errors
    ///
    /// Propagates persistence failures (including injected crashes).
    pub(crate) fn checkpoint_now(&mut self) -> io::Result<()> {
        let sims = self.driver.sims_used();
        let bytes = encode_ckpt(
            &self.driver,
            &self.evaluator.state(),
            &self.archive.lock(),
            self.round,
            self.last_line_sims,
            &self.lines,
        );
        self.journal.checkpoint(sims as u64, &bytes)?;
        fs::write_atomic(&self.paths.jsonl, self.lines.join("\n").as_bytes())?;
        self.last_ckpt = sims;
        Ok(())
    }

    /// Simulations consumed so far.
    pub(crate) fn sims_used(&self) -> usize {
        self.driver.sims_used()
    }

    /// Best scalar cost so far (`inf` before the first evaluation).
    pub(crate) fn best_cost(&self) -> f64 {
        self.driver.best_cost()
    }

    /// The current in-memory frontier as `(area, delay, sims)` triples —
    /// what a live `frontier` query serves.
    pub(crate) fn front(&self) -> Vec<(f64, f64, usize)> {
        self.archive
            .lock()
            .front()
            .iter()
            .map(|p| (p.ppa.area_um2, p.ppa.delay_ns, p.sims))
            .collect()
    }

    /// Detaches the evaluator's archive hook (halt path — the task is
    /// about to be dropped without completing).
    pub(crate) fn detach(&self) {
        self.evaluator.detach_archive();
    }

    /// Cancellation GC: detaches, drops the journal handle, and removes
    /// every on-disk artifact of the task. Idempotent against crashes —
    /// a re-run of the removal (after a service-journal replay) is
    /// harmless.
    pub(crate) fn remove_files(self) {
        self.evaluator.detach_archive();
        let RunningTask { journal, paths, .. } = self;
        drop(journal); // close the segment handle before unlinking
        paths.remove_all();
    }
}

/// Frontier of a finished task as `(area, delay, sims)` triples.
pub(crate) fn result_front(result: &TaskResult) -> Vec<(f64, f64, usize)> {
    result
        .archive
        .front()
        .iter()
        .map(|p| (p.ppa.area_um2, p.ppa.delay_ns, p.sims))
        .collect()
}

/// Removes the on-disk artifacts of a (possibly never-opened) task id —
/// the service's cancellation GC for jobs replayed as cancelled.
pub(crate) fn remove_task_files(dir: &Path, id: &str) {
    TaskPaths::new(dir, id).remove_all();
}
