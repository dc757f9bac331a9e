//! Fault-injection suite for campaign durability: each task's journal
//! (Contract 10) and the whole directory of the daemon the campaign
//! drives in-process (Contract 11).
//!
//! Every test kills a campaign at an injected crash point — a random
//! durable tick, a named op boundary (pre-fsync, pre-rename), a torn
//! journal tail, or a truncated `.done` — then resumes with the harness
//! disarmed and asserts the directory and the summary CSV byte-match an
//! uninterrupted run. The crash points are driven by the `cv-journal`
//! failpoint harness in `Error` mode, so one process can die and resume
//! hundreds of times; the CI `kill-smoke` job replays the same
//! contract with real `CV_FAILPOINT` process aborts.

use cv_bench::campaign::{run_campaign, summary_csv, JobSpec, TaskResult};
use cv_bench::harness::{Method, TechLibrary};
use cv_bench::service::{Daemon, DaemonConfig, Request};
use cv_journal::failpoint::{self, FailOp, Mode};
use cv_journal::Journal;
use cv_prefix::CircuitKind;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The failpoint harness is process-global state: tests must not
/// overlap. Every test body runs under this lock, starting disarmed.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    failpoint::disarm();
    guard
}

fn base_dir() -> PathBuf {
    std::env::temp_dir().join(format!("cv_crash_recovery_{}", std::process::id()))
}

/// The fixed grid every test runs: two cheap methods, small budget,
/// frequent checkpoints (several durable writes per task).
fn tasks() -> Vec<JobSpec> {
    let task = |method, seed| JobSpec {
        method,
        kind: CircuitKind::Adder,
        width: 8,
        tech: TechLibrary::Nangate45Like,
        delay_weight: 0.5,
        budget: 24,
        seed,
    };
    vec![task(Method::Sa, 11), task(Method::Random, 12)]
}

fn cfg(dir: &Path, journal_max_bytes: u64) -> DaemonConfig {
    DaemonConfig {
        checkpoint_every: 5,
        threads: 1,
        journal_max_bytes,
        ..DaemonConfig::new(dir)
    }
}

/// Every file in `dir` as name → bytes; asserts no staging files leak.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("campaign dir exists") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(
            !name.ends_with(".tmp"),
            "staging file {name} leaked into the final directory"
        );
        files.insert(name, std::fs::read(entry.path()).expect("file readable"));
    }
    files
}

fn assert_snapshots_equal(got: &BTreeMap<String, Vec<u8>>, want: &BTreeMap<String, Vec<u8>>) {
    let names = |m: &BTreeMap<String, Vec<u8>>| m.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(got), names(want), "directory listings differ");
    for (name, want_bytes) in want {
        assert_eq!(&got[name], want_bytes, "{name} differs from the clean run");
    }
}

/// The uninterrupted reference run: its directory snapshot, summary
/// CSV, per-task result bytes, and the durable tick length of the run.
struct Baseline {
    files: BTreeMap<String, Vec<u8>>,
    summary: String,
    results: Vec<(Vec<u8>, Vec<u8>)>,
    span: u64,
}

fn baseline() -> &'static Baseline {
    static BASELINE: OnceLock<Baseline> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let dir = base_dir().join("baseline");
        let _ = std::fs::remove_dir_all(&dir);
        let tasks = tasks();
        let before = failpoint::ticks();
        let results = run_campaign(&tasks, &cfg(&dir, 1 << 20), None).expect("no quarantine");
        let span = failpoint::ticks() - before;
        assert!(results.iter().all(Option::is_some), "clean run completes");
        assert!(span > 0, "a persistent campaign spends durable ticks");
        Baseline {
            files: snapshot(&dir),
            summary: summary_csv(&tasks, &results),
            results: result_bytes(&results),
            span,
        }
    })
}

fn result_bytes(results: &[Option<TaskResult>]) -> Vec<(Vec<u8>, Vec<u8>)> {
    results
        .iter()
        .map(|r| {
            let r = r.as_ref().expect("completed");
            (r.outcome.to_ckpt_bytes(), r.archive.to_ckpt_bytes())
        })
        .collect()
}

/// Resumes `dir` with the harness disarmed and asserts everything —
/// results, summary CSV, and on-disk bytes — matches the baseline.
fn resume_and_check(dir: &Path, journal_max_bytes: u64) {
    failpoint::disarm();
    let tasks = tasks();
    let resumed = run_campaign(&tasks, &cfg(dir, journal_max_bytes), None).expect("no quarantine");
    assert!(
        resumed.iter().all(Option::is_some),
        "a disarmed resume runs to completion"
    );
    let base = baseline();
    assert_eq!(result_bytes(&resumed), base.results);
    assert_eq!(summary_csv(&tasks, &resumed), base.summary);
    assert_snapshots_equal(&snapshot(dir), &base.files);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: kill the campaign at a *random* durable
    /// tick — which can land in the middle of any write, tearing it at
    /// an arbitrary byte — and the resume replays to the same
    /// `campaign_summary.csv` and the same directory bytes as a clean
    /// run (Contract 8 extended by Contract 10).
    #[test]
    fn random_tick_crash_resumes_byte_identical(t in 0u64..1_000_000) {
        let _guard = serialize();
        let base = baseline();
        let tick = 1 + t % base.span;
        let dir = base_dir().join("random_tick");
        let _ = std::fs::remove_dir_all(&dir);

        failpoint::arm_ticks(tick, Mode::Error);
        let halted = run_campaign(&tasks(), &cfg(&dir, 1 << 20), None).expect("no quarantine");
        prop_assert!(failpoint::crashed(), "tick {tick} lies inside the run");
        prop_assert!(
            halted.iter().any(Option::is_none),
            "the crashing task cannot report a result"
        );

        resume_and_check(&dir, 1 << 20);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The named crash points from the durability contract: dying right
/// before an fsync (bytes written, nothing durable), right before a
/// rename (tmp complete, never published), and right before a parent
/// directory sync (published, directory entry not yet durable).
#[test]
fn op_boundary_crashes_resume_byte_identical() {
    let _guard = serialize();
    baseline();
    for op in [FailOp::Fsync, FailOp::Rename, FailOp::DirSync] {
        for nth in [1u64, 2, 4, 7] {
            let dir = base_dir().join("op_boundary");
            let _ = std::fs::remove_dir_all(&dir);
            failpoint::arm_op(op, nth, Mode::Error);
            let halted = run_campaign(&tasks(), &cfg(&dir, 1 << 20), None).expect("no quarantine");
            assert!(
                failpoint::crashed(),
                "{op:?} #{nth} occurs during the campaign"
            );
            assert!(halted.iter().any(Option::is_none));
            resume_and_check(&dir, 1 << 20);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A crash in the middle of a journal append leaves a torn tail. Build
/// the reachable state directly: halt after the first checkpoint (two
/// rounds of four steps, checkpointing every five simulations), cut
/// the journal mid-frame, and resume from the shorter journal prefix —
/// with the task's mid-run `.jsonl` present and deleted, so the journal
/// alone must resume the task. The halt leaves no `.ckpt` file: the
/// journal is the only resume source.
#[test]
fn mid_append_torn_journal_tail_recovers() {
    let _guard = serialize();
    baseline();
    let first_id = tasks()[0].id();
    for cut in [1usize, 3, 7, 16] {
        for keep_jsonl in [true, false] {
            let dir = base_dir().join("torn_tail");
            let _ = std::fs::remove_dir_all(&dir);
            let halted =
                run_campaign(&tasks(), &cfg(&dir, 1 << 20), Some(2)).expect("no quarantine");
            assert!(halted.iter().any(Option::is_none), "halt interrupts");
            let names = snapshot(&dir).into_keys().collect::<Vec<_>>();
            assert!(
                !names.iter().any(|n| n.ends_with(".ckpt")),
                "no checkpoint file besides the journal: {names:?}"
            );

            let journal_path = dir.join(format!("{first_id}.journal"));
            let bytes = std::fs::read(&journal_path).expect("journal written");
            assert!(bytes.len() > 8 + cut, "journal holds records to tear");
            std::fs::write(&journal_path, &bytes[..bytes.len() - cut]).expect("tear tail");
            if !keep_jsonl {
                std::fs::remove_file(dir.join(format!("{first_id}.jsonl")))
                    .expect("the halt left mid-run telemetry");
            }

            resume_and_check(&dir, 1 << 20);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The `.done` decode-panic regression (satellite 2): truncate a task's
/// `.done` at **every** byte boundary; recovery must never panic, must
/// quarantine the corrupt file, and must heal it byte-exactly from the
/// journal's *completed* record.
#[test]
fn done_truncated_at_every_byte_boundary_heals_from_journal() {
    let _guard = serialize();
    let base = baseline();
    let dir = base_dir().join("done_truncate");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    // Materialize a completed directory from the baseline snapshot.
    for (name, bytes) in &base.files {
        std::fs::write(dir.join(name), bytes).expect("copy baseline file");
    }
    let done_name = format!("{}.done", tasks()[0].id());
    let done_bytes = base.files[&done_name].clone();
    for k in 0..done_bytes.len() {
        std::fs::write(dir.join(&done_name), &done_bytes[..k]).expect("truncate .done");
        resume_and_check(&dir, 1 << 20);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a journal (one lost with the disk), a truncated `.done`
/// falls back to a full fresh re-run — still byte-identical, just not
/// instant.
#[test]
fn done_truncated_without_journal_falls_back_to_fresh_run() {
    let _guard = serialize();
    let base = baseline();
    let done_name = format!("{}.done", tasks()[0].id());
    let journal_name = format!("{}.journal", tasks()[0].id());
    let done_len = base.files[&done_name].len();
    for k in [0, done_len / 2, done_len - 1] {
        let dir = base_dir().join("done_fallback");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create dir");
        for (name, bytes) in &base.files {
            std::fs::write(dir.join(name), bytes).expect("copy baseline file");
        }
        std::fs::write(dir.join(&done_name), &base.files[&done_name][..k]).expect("truncate .done");
        std::fs::remove_file(dir.join(&journal_name)).expect("drop journal");
        resume_and_check(&dir, 1 << 20);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Journal compaction under a 1-byte cap must not change any final
/// artifact — and a crash while compacting must still resume clean. A
/// segment is compacted once it doubles its length after the previous
/// compaction, so each task here still compacts at least twice.
#[test]
fn forced_journal_rotation_preserves_outputs() {
    let _guard = serialize();
    let base = baseline();

    // Clean run under constant compaction pressure, watched round by
    // round (at most one checkpoint per task and round): a segment that
    // changed without gaining a record was compacted. Same final bytes.
    let dir = base_dir().join("rotation_clean");
    let _ = std::fs::remove_dir_all(&dir);
    let tasks_v = tasks();
    let mut daemon = Daemon::open(cfg(&dir, 1)).expect("open");
    for task in &tasks_v {
        daemon
            .handle(&Request::Submit(task.clone()))
            .expect("submit");
    }
    let mut segments = vec![Vec::new(); tasks_v.len()];
    let mut compactions = vec![0; tasks_v.len()];
    while daemon.has_running() {
        daemon.round().expect("round");
        for (k, task) in tasks_v.iter().enumerate() {
            if daemon.result(&task.id()).is_none() {
                let path = dir.join(format!("{}.journal", task.id()));
                let records = Journal::read_back(&path).expect("journal readable");
                if records != segments[k] && records.len() <= segments[k].len() {
                    compactions[k] += 1;
                }
                segments[k] = records;
            }
        }
    }
    assert!(
        compactions.iter().all(|&n| n >= 2),
        "every task compacts at least twice: {compactions:?}"
    );
    let results: Vec<_> = tasks_v.iter().map(|t| daemon.result(&t.id())).collect();
    assert_eq!(result_bytes(&results), base.results);
    assert_snapshots_equal(&snapshot(&dir), &base.files);
    let _ = std::fs::remove_dir_all(&dir);

    // Crash mid-run (rotation traffic included), then resume.
    for divisor in [4u64, 2, 1] {
        let dir = base_dir().join("rotation_crash");
        let _ = std::fs::remove_dir_all(&dir);
        failpoint::arm_ticks((base.span / divisor).max(1), Mode::Error);
        let halted = run_campaign(&tasks_v, &cfg(&dir, 1), None).expect("no quarantine");
        if failpoint::crashed() {
            assert!(halted.iter().any(Option::is_none));
        }
        resume_and_check(&dir, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Each checkpoint writes only the work since the previous one, and a
/// segment is compacted only once it has doubled, so a task's durable
/// bytes grow linearly with its simulations: at the same cadence, 4× the
/// budget spends about 4× the durable ticks (rewriting the whole history
/// at every checkpoint would grow them 4²×) — also under a cap the
/// history outgrows.
#[test]
fn durable_bytes_grow_linearly_with_simulations() {
    let _guard = serialize();
    let ticks_for = |budget: usize, journal_max_bytes: u64| {
        let dir = base_dir().join(format!("linear_b{budget}"));
        let _ = std::fs::remove_dir_all(&dir);
        let task = JobSpec {
            method: Method::Sa,
            kind: CircuitKind::Adder,
            width: 8,
            tech: TechLibrary::Nangate45Like,
            delay_weight: 0.5,
            budget,
            seed: 21,
        };
        let before = failpoint::ticks();
        let results =
            run_campaign(&[task], &cfg(&dir, journal_max_bytes), None).expect("no quarantine");
        let spent = failpoint::ticks() - before;
        assert!(results[0].is_some(), "budget {budget} completes");
        let _ = std::fs::remove_dir_all(&dir);
        spent
    };
    for journal_max_bytes in [1 << 20, 8 << 10] {
        let (small, large) = (
            ticks_for(60, journal_max_bytes),
            ticks_for(240, journal_max_bytes),
        );
        let ratio = large as f64 / small as f64;
        assert!(
            ratio < 6.0,
            "cap {journal_max_bytes}: 4x the budget spent {ratio:.2}x the durable ticks \
             ({small} -> {large})"
        );
    }
}
