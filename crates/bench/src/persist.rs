//! Per-task durable persistence — the layer under the one scheduler,
//! the `campaignd` [`crate::service::Daemon`], which the batch campaign
//! ([`crate::campaign`]) drives in-process and the service drives
//! behind a socket.
//!
//! One *task* is a [`JobSpec`] — method × circuit × width × tech × ω ×
//! budget × seed — run as a search with an on-disk life (Contract 10,
//! DESIGN.md §9). Its files share the stem [`JobSpec::id`], whichever
//! front end runs it:
//!
//! * `<id>.journal` — append-only [`cv_journal::Journal`] of task
//!   events, written **before** any derived file: *started*, one
//!   *checkpoint* record per checkpoint, *completed*. A checkpoint
//!   record holds only the work since the previous one: the new
//!   simulations in order, the new telemetry lines, and the driver's
//!   own state. The journal is the task's only resume source: replay
//!   folds its records into the state at the last durable one, and a
//!   segment past its cap and twice its length after the previous
//!   compaction (or open) is compacted into one record covering
//!   everything since *started*;
//! * `<id>.jsonl` — the per-round telemetry stream. Mid-run it grows
//!   by an unsynced append after each checkpoint record and is rebuilt
//!   from the journal, unsynced too, whenever the task is opened;
//!   completion publishes it atomically;
//! * `<id>.done`  — the final outcome + frontier archive.
//!
//! [`RunningTask`] is the step engine the daemon drives, interleaving
//! *slices* of steps from many tasks on the shared pool (Contract 11,
//! DESIGN.md §10). Because every durable artifact depends only on the
//! task's own deterministic driver/evaluator streams — never on
//! slicing, scheduling, or checkpoint cadence — every schedule and both
//! front ends produce byte-identical `.done`/`.jsonl` files and
//! identical rotated journals for the same task.

use crate::driver::{make_driver, MethodDriver};
use crate::harness::{build_evaluator, ExperimentSpec, Method, TechLibrary};
use circuitvae::driver::{Checkpointable, SearchDriver, StepStatus};
use cv_journal::{fs, Journal};
use cv_prefix::{CircuitKind, PrefixGrid};
use cv_synth::ckpt::{CkptError, Dec, Enc};
use cv_synth::{
    CachedEvaluator, EvalRecord, EvaluatorState, ParetoArchive, SearchOutcome, SharedArchive,
};
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

// ---------------------------------------------------------------------
// Task event journal (Contract 10)
// ---------------------------------------------------------------------

/// One durable event in a task's journal. Payloads ride inside
/// checksummed journal frames, so decoding sees only intact records.
#[derive(Debug, Clone, PartialEq)]
enum TaskEvent {
    /// The task began a fresh run: every earlier record is void.
    Started,
    /// The work since the previous durable record.
    Checkpoint(Delta),
    /// The task finished: the final result and telemetry, byte-exact.
    Completed {
        /// Encoded [`encode_done`] bytes.
        done: Vec<u8>,
        /// The final `.jsonl` content.
        jsonl: Vec<u8>,
    },
}

/// The work a task did between two durable records — its one
/// checkpoint record. Deltas fold by concatenation, so the fold of
/// every delta since *started* is itself a delta: the whole resume
/// state, and the one record a compacted segment holds.
#[derive(Debug, Clone, Default, PartialEq)]
struct Delta {
    /// Simulations counted when the record was cut.
    sims: usize,
    /// The simulations since the previous record, in simulation order:
    /// the last one was simulation `sims`.
    simulated: Vec<(PrefixGrid, EvalRecord)>,
    /// The telemetry lines added since the previous record.
    lines: Vec<String>,
    /// The step engine's round counter.
    round: usize,
    /// The sims stamp of the latest telemetry line (`usize::MAX` before
    /// the first).
    last_line_sims: usize,
    /// The driver's full state ([`Checkpointable::save`]).
    driver: Vec<u8>,
}

impl Delta {
    /// Appends `next`, the delta cut after `self`.
    fn fold(&mut self, next: Delta) {
        self.sims = next.sims;
        self.simulated.extend(next.simulated);
        self.lines.extend(next.lines);
        self.round = next.round;
        self.last_line_sims = next.last_line_sims;
        self.driver = next.driver;
    }

    fn write(&self, enc: &mut Enc) {
        enc.usize(self.sims);
        enc.usize(self.simulated.len());
        for (grid, record) in &self.simulated {
            enc.grid(grid);
            enc.record(record);
        }
        enc.usize(self.lines.len());
        for line in &self.lines {
            enc.str(line);
        }
        enc.usize(self.round);
        enc.usize(self.last_line_sims);
        enc.bytes(&self.driver);
    }

    /// Reads a delta. Counts are checked against the bytes left before
    /// any element is read, and vectors grow only with decoded elements.
    fn read(dec: &mut Dec<'_>) -> Result<Delta, CkptError> {
        let sims = dec.usize()?;
        let mut simulated = Vec::new();
        for _ in 0..dec.seq_len()? {
            simulated.push((dec.grid()?, dec.record()?));
        }
        let mut lines = Vec::new();
        for _ in 0..dec.seq_len()? {
            lines.push(dec.str()?);
        }
        Ok(Delta {
            sims,
            simulated,
            lines,
            round: dec.usize()?,
            last_line_sims: dec.usize()?,
            driver: dec.bytes()?.to_vec(),
        })
    }
}

// Tags 2 and 3 were the retired *progress* + full-snapshot pair; replay
// reads neither.
const EV_STARTED: u8 = 1;
const EV_COMPLETED: u8 = 4;
const EV_CHECKPOINT: u8 = 5;

impl TaskEvent {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        match self {
            TaskEvent::Started => enc.u8(EV_STARTED),
            TaskEvent::Checkpoint(delta) => {
                enc.u8(EV_CHECKPOINT);
                delta.write(&mut enc);
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
            EV_CHECKPOINT => TaskEvent::Checkpoint(Delta::read(&mut dec)?),
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
/// step engine held at the last durable record.
#[derive(Debug, Default)]
struct ReplayedState {
    /// Every checkpoint since the last *started*, folded; `None` when
    /// the task has none (a fresh start).
    checkpoint: Option<Delta>,
    /// The final result + telemetry, if the task completed durably.
    completed: Option<(Vec<u8>, Vec<u8>)>,
    /// How many leading records replay trusted.
    trusted: usize,
}

/// Folds decoded journal records into step-engine state. A record that
/// fails to decode or does not follow its predecessor (a version change
/// — CRCs already screened out corruption) ends the trusted prefix,
/// mirroring the torn-tail rule.
fn replay(records: &[Vec<u8>]) -> ReplayedState {
    let mut state = ReplayedState::default();
    for record in records {
        match TaskEvent::decode(record) {
            Ok(TaskEvent::Started) => {
                state.checkpoint = None;
                state.completed = None;
            }
            Ok(TaskEvent::Checkpoint(delta)) => {
                let base = state.checkpoint.as_ref().map_or(0, |folded| folded.sims);
                if base.checked_add(delta.simulated.len()) != Some(delta.sims) {
                    break;
                }
                match &mut state.checkpoint {
                    Some(folded) => folded.fold(delta),
                    None => state.checkpoint = Some(delta),
                }
            }
            Ok(TaskEvent::Completed { done, jsonl }) => state.completed = Some((done, jsonl)),
            Err(_) => break,
        }
        state.trusted += 1;
    }
    state
}

/// A task's open journal plus the compaction policy.
struct TaskJournal {
    journal: Option<Journal>,
    max_bytes: u64,
    /// The segment length after the last rotation or open. A compacted
    /// record is as large as the task's whole history, so compaction
    /// waits until the segment has doubled past it: a history beyond
    /// `max_bytes` is re-encoded once per doubling, not per checkpoint.
    base_len: u64,
}

impl TaskJournal {
    /// Opens and replays the journal at `path`. A segment holding
    /// records past the trusted prefix is cut down to that prefix, so
    /// later appends are never stranded behind an unreadable record.
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
        let mut journal = opened.journal;
        if state.trusted < opened.records.len() {
            eprintln!(
                "campaign: dropping {} unreadable journal record(s) from {}",
                opened.records.len() - state.trusted,
                path.display()
            );
            let trusted: Vec<&[u8]> = opened.records[..state.trusted]
                .iter()
                .map(Vec::as_slice)
                .collect();
            journal = journal.rotate(&trusted)?;
        }
        Ok((
            TaskJournal {
                base_len: journal.len(),
                journal: Some(journal),
                max_bytes,
            },
            state,
        ))
    }

    /// Atomically replaces the segment with `payloads`.
    fn rotate(&mut self, payloads: &[&[u8]]) -> io::Result<()> {
        let journal = self
            .journal
            .take()
            .expect("journal open")
            .rotate(payloads)?;
        self.base_len = journal.len();
        self.journal = Some(journal);
        Ok(())
    }

    /// Records a fresh start. A segment that already holds records is
    /// rotated down to the single *started* record instead.
    fn started(&mut self) -> io::Result<()> {
        let payload = TaskEvent::Started.encode();
        let journal = self.journal.as_mut().expect("journal open");
        if journal.is_empty() {
            journal.append(&payload)
        } else {
            self.rotate(&[&payload])
        }
    }

    /// Appends one checkpoint record (one durable write + fsync). Past
    /// the cap and twice [`TaskJournal::base_len`], the segment is
    /// compacted: its records fold into one record covering everything
    /// since *started*.
    fn checkpoint(&mut self, delta: Delta) -> io::Result<()> {
        let journal = self.journal.as_mut().expect("journal open");
        journal.append(&TaskEvent::Checkpoint(delta).encode())?;
        if journal.len() > self.max_bytes.max(self.base_len.saturating_mul(2)) {
            let folded = replay(&Journal::read_back(journal.path())?)
                .checkpoint
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "task journal does not replay")
                })?;
            self.rotate(&[&TaskEvent::Checkpoint(folded).encode()])?;
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
        self.rotate(&[&payload])
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
    /// The driver advanced (and checkpointed, when this step crossed the
    /// checkpoint cadence).
    Running,
    /// The driver finished; the result and its files are final.
    Done(Box<TaskResult>),
}

/// A resumable in-flight task: the step engine plus its durable tail.
///
/// The daemon interleaves step slices of many such tasks. All durable
/// writes happen inside [`RunningTask::step`] /
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
    /// How many of `lines` the journal holds (and `.jsonl` received).
    journaled_lines: usize,
    last_ckpt: usize,
}

impl RunningTask {
    /// Opens the task `spec` against its on-disk state under `dir`.
    ///
    /// Recovery order (Contract 10): a decodable `.done` wins; then the
    /// task journal's durable *completed* record (healing the result
    /// files byte-exactly); then the fold of the journal's checkpoint
    /// records, which replays every simulation in order into the cache
    /// and the archive; then a fresh start. A resumed or fresh task gets
    /// its `.jsonl` rewritten from the journal's lines. A corrupt
    /// `.done` is quarantined, never a panic.
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
        evaluator.log_simulations();
        let archive = ParetoArchive::new().with_log().into_shared();
        // Resume from the journal's folded checkpoints, or start fresh.
        let resumed = state
            .checkpoint
            .and_then(|delta| match MethodDriver::load(&delta.driver) {
                Ok(driver) => Some((driver, delta)),
                Err(e) => {
                    eprintln!("campaign: undecodable journal checkpoint for {id} ({e})");
                    None
                }
            });

        let (driver, round, last_line_sims, lines) = match resumed {
            Some((driver, delta)) => {
                // Replaying the simulations in order rebuilds the cache
                // and the archive exactly as the run built them (the
                // evaluator stamped its `i`-th simulation `i + 1`).
                {
                    let mut archive = archive.lock();
                    for (i, (grid, record)) in delta.simulated.iter().enumerate() {
                        archive.insert(grid.clone(), record.ppa, i + 1);
                    }
                }
                evaluator.restore_state(&EvaluatorState {
                    entries: delta.simulated,
                    sims: delta.sims,
                });
                (driver, delta.round, delta.last_line_sims, delta.lines)
            }
            None => {
                journal.started()?;
                (
                    make_driver(spec.method, &experiment, spec.seed),
                    0,
                    usize::MAX, // sentinel: force a line on the first progress
                    Vec::new(),
                )
            }
        };
        // The mid-run `.jsonl` only ever received unsynced appends (or
        // belongs to a void run): rebuild it from the journal, unsynced
        // too — nothing trusts it before completion publishes it.
        fs::overwrite(&paths.jsonl, lines.join("\n").as_bytes())?;
        evaluator.attach_archive(archive.clone());
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
            journaled_lines: lines.len(),
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
                if sims - self.last_ckpt >= checkpoint_every {
                    self.checkpoint_now()?;
                }
                Ok(TaskStep::Running)
            }
        }
    }

    /// Persists the work since the previous checkpoint now: one journal
    /// record, then an unsynced append of the new telemetry lines to
    /// `.jsonl` — the halt/pause/shutdown hook. After an error the task
    /// must be dropped and reopened from disk.
    ///
    /// # Errors
    ///
    /// Propagates persistence failures (including injected crashes).
    pub(crate) fn checkpoint_now(&mut self) -> io::Result<()> {
        let new_lines = &self.lines[self.journaled_lines..];
        self.journal.checkpoint(Delta {
            sims: self.evaluator.counter().count(),
            simulated: self.evaluator.take_simulated(),
            lines: new_lines.to_vec(),
            round: self.round,
            last_line_sims: self.last_line_sims,
            driver: self.driver.save(),
        })?;
        if !new_lines.is_empty() {
            let sep = if self.journaled_lines > 0 { "\n" } else { "" };
            let tail = format!("{sep}{}", new_lines.join("\n"));
            fs::append(&self.paths.jsonl, tail.as_bytes())?;
        }
        self.journaled_lines = self.lines.len();
        self.last_ckpt = self.driver.sims_used();
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

    /// Detaches the evaluator's archive hook (parking path — the task is
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

/// Whether task `id` was ever opened under `dir`: its journal or its
/// result exists (an open creates the journal before anything else).
pub(crate) fn has_task_files(dir: &Path, id: &str) -> bool {
    let paths = TaskPaths::new(dir, id);
    paths.journal.exists() || paths.done.exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(method: Method, seed: u64) -> JobSpec {
        JobSpec {
            method,
            kind: CircuitKind::Adder,
            width: 8,
            tech: TechLibrary::Nangate45Like,
            delay_weight: 0.5,
            budget: 40,
            seed,
        }
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cv_persist_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    fn open_running(spec: &JobSpec, dir: &Path, max_bytes: u64) -> Box<RunningTask> {
        match RunningTask::open(spec, dir, max_bytes).expect("open") {
            OpenedTask::Run(task) => task,
            OpenedTask::Done(_) => panic!("{} is already done", spec.id()),
        }
    }

    /// Steps `task` through its next periodic checkpoint; `false` when
    /// the task completed first.
    fn step_to_checkpoint(task: &mut RunningTask, every: usize) -> bool {
        let last = task.last_ckpt;
        loop {
            match task.step(every).expect("step") {
                TaskStep::Running if task.last_ckpt != last => return true,
                TaskStep::Running => {}
                TaskStep::Done(_) => return false,
            }
        }
    }

    /// Everything a resume must reproduce.
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        sims: usize,
        evaluator: EvaluatorState,
        archive: Vec<u8>,
        lines: Vec<String>,
        driver: Vec<u8>,
        round: usize,
        last_line_sims: usize,
    }

    fn snapshot(task: &RunningTask) -> Snapshot {
        Snapshot {
            sims: task.evaluator.counter().count(),
            evaluator: task.evaluator.state(),
            archive: task.archive.lock().to_ckpt_bytes(),
            lines: task.lines.clone(),
            driver: task.driver.save(),
            round: task.round,
            last_line_sims: task.last_line_sims,
        }
    }

    /// The checkpoint records of a task halted after `checkpoints`
    /// periodic checkpoints, as raw journal payloads.
    fn halted_deltas(spec: &JobSpec, checkpoints: usize) -> Vec<Vec<u8>> {
        let dir = test_dir(&format!("deltas_{}", spec.id()));
        let mut task = open_running(spec, &dir, 1 << 20);
        for _ in 0..checkpoints {
            assert!(step_to_checkpoint(&mut task, 5), "halt lands mid-run");
        }
        task.detach();
        drop(task);
        let path = dir.join(format!("{}.journal", spec.id()));
        let deltas: Vec<Vec<u8>> = Journal::read_back(&path)
            .expect("journal readable")
            .into_iter()
            .filter(|r| r.first() == Some(&EV_CHECKPOINT))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(deltas.len(), checkpoints);
        deltas
    }

    #[test]
    fn reopened_task_matches_the_uninterrupted_run_at_every_checkpoint() {
        for method in [Method::Sa, Method::Ga, Method::Random] {
            let spec = spec(method, 7);
            let every = 5;
            let clean_dir = test_dir(&format!("clean_{}", spec.id()));
            let mut clean = open_running(&spec, &clean_dir, 1 << 20);
            let mut reference = Vec::new();
            while step_to_checkpoint(&mut clean, every) {
                reference.push(snapshot(&clean));
            }
            assert!(reference.len() >= 4, "several checkpoints to compare");

            // Halted at each checkpoint and reopened — plainly, and under
            // a 1-byte cap, where the segment is compacted whenever it
            // has doubled since the last compaction or open. Every
            // checkpoint write appends one record, so a segment that
            // did not gain one was compacted.
            for max_bytes in [1 << 20, 1] {
                let dir = test_dir(&format!("halted_{max_bytes}_{}", spec.id()));
                let path = dir.join(format!("{}.journal", spec.id()));
                let mut task = open_running(&spec, &dir, max_bytes);
                let mut records = Journal::read_back(&path).expect("journal").len();
                let mut compactions = 0;
                let mut count = |records: &mut usize| {
                    let now = Journal::read_back(&path).expect("journal").len();
                    compactions += usize::from(now <= *records);
                    *records = now;
                };
                for (k, want) in reference.iter().enumerate() {
                    assert!(step_to_checkpoint(&mut task, every));
                    count(&mut records);
                    if k % 2 == 1 {
                        // The halt hook: an empty delta on top.
                        task.checkpoint_now().expect("halt checkpoint");
                        count(&mut records);
                    }
                    task.detach();
                    drop(task);
                    task = open_running(&spec, &dir, max_bytes);
                    let got = snapshot(&task);
                    assert_eq!(&got, want, "{} at checkpoint {k}", spec.id());
                    let jsonl = std::fs::read(dir.join(format!("{}.jsonl", spec.id())))
                        .expect("reopen rewrites .jsonl");
                    assert_eq!(jsonl, got.lines.join("\n").into_bytes());
                }
                if max_bytes == 1 {
                    assert!(compactions >= 2, "{}: {compactions} compactions", spec.id());
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
            let _ = std::fs::remove_dir_all(&clean_dir);
        }
    }

    #[test]
    fn unreadable_record_is_cut_so_a_fresh_run_survives_reopen() {
        let spec = spec(Method::Sa, 3);
        let dir = test_dir("unreadable");
        let path = dir.join(format!("{}.journal", spec.id()));
        {
            let mut journal = Journal::open(&path).expect("create journal").journal;
            journal.append(&[EV_STARTED]).expect("started");
            journal
                .append(&[0xEE, 1, 2, 3])
                .expect("unknown tag, valid CRC");
        }
        let mut task = open_running(&spec, &dir, 1 << 20);
        assert_eq!(task.sims_used(), 0, "an unreadable journal starts fresh");
        assert!(step_to_checkpoint(&mut task, 5));
        let sims = task.sims_used();
        task.detach();
        drop(task);
        let task = open_running(&spec, &dir, 1 << 20);
        assert!(sims > 0);
        assert_eq!(task.sims_used(), sims, "the fresh run's checkpoint is kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_records_decode_totally() {
        let mut payloads = halted_deltas(&spec(Method::Sa, 5), 3);
        payloads.extend(halted_deltas(&spec(Method::Ga, 5), 2));
        // Every decoded record must also survive the resume path's
        // driver decoder.
        let decode = |bytes: &[u8]| {
            if let Ok(TaskEvent::Checkpoint(delta)) = TaskEvent::decode(bytes) {
                let _ = MethodDriver::load(&delta.driver);
            }
        };
        for payload in &payloads {
            let Ok(TaskEvent::Checkpoint(delta)) = TaskEvent::decode(payload) else {
                panic!("a real delta decodes");
            };
            assert_eq!(TaskEvent::Checkpoint(delta).encode(), *payload);
            let mut flipped = payload.clone();
            for bit in 0..payload.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                decode(&flipped);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            for len in 0..payload.len() {
                assert!(TaskEvent::decode(&payload[..len]).is_err());
            }
        }
    }

    #[test]
    fn oversized_counts_are_rejected_before_allocating() {
        let huge = |lines: bool| {
            let mut enc = Enc::new();
            enc.u8(EV_CHECKPOINT);
            enc.usize(0); // sims
            if lines {
                enc.usize(0); // no simulations
            }
            enc.u64(u64::MAX / 2); // a count far past the bytes left
            enc.finish()
        };
        for lines in [false, true] {
            assert_eq!(TaskEvent::decode(&huge(lines)), Err(CkptError::Truncated));
        }
    }

    #[test]
    fn replay_stops_at_a_delta_that_does_not_follow() {
        let record = |sims: usize, n: usize| {
            TaskEvent::Checkpoint(Delta {
                sims,
                simulated: vec![
                    (
                        PrefixGrid::ripple(8),
                        EvalRecord {
                            cost: 1.0,
                            ppa: cv_synth::PpaReport {
                                area_um2: 1.0,
                                delay_ns: 1.0,
                                gate_count: 1,
                                buffers_inserted: 0,
                                gates_upsized: 0,
                            },
                        },
                    );
                    n
                ],
                ..Delta::default()
            })
            .encode()
        };
        let state = replay(&[
            TaskEvent::Started.encode(),
            record(2, 2),
            record(3, 1),
            record(9, 1), // skips simulations 4..=8
            record(10, 1),
        ]);
        assert_eq!(state.trusted, 3);
        let folded = state.checkpoint.expect("two deltas fold");
        assert_eq!((folded.sims, folded.simulated.len()), (3, 3));
        // A record starting past zero cannot open a fold either.
        assert!(replay(&[record(4, 1)]).checkpoint.is_none());
    }
}
