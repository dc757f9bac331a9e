//! Fault-injection suite for the `campaignd` service (Contract 11).
//!
//! Each test boots a daemon over a state directory, submits a mixed set
//! of **eight concurrent jobs** (both techs × four methods, width 8),
//! and kills the run at an injected crash point — a random durable
//! tick or a named op boundary — via the `cv-journal` failpoint in
//! `Error` mode (the in-process simulation of `kill -9`: the crashing
//! operation and every later durable write fail, leaving exactly the
//! bytes a dead process would). A fresh daemon then replays the service
//! journal, the client blindly re-submits the whole job set (submits
//! are idempotent), the table drains, and the directory must byte-match
//! a never-killed run — journals, telemetry, results, everything. The
//! CI `kill-smoke` job replays the same contract with real
//! process aborts over TCP.

use cv_bench::harness::{Method, TechLibrary};
use cv_bench::service::{Daemon, DaemonConfig, JobSpec, Request, Response};
use cv_journal::failpoint::{self, FailOp, Mode};
use cv_prefix::CircuitKind;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io;
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
    std::env::temp_dir().join(format!("cv_service_crash_{}", std::process::id()))
}

/// The mixed job set of the acceptance criterion: eight concurrent
/// jobs — both techs × {SA, Random, GA, GA-NSGA2} — at width 8.
fn jobs() -> Vec<JobSpec> {
    let methods = [Method::Sa, Method::Random, Method::Ga, Method::GaNsga2];
    let techs = [TechLibrary::Nangate45Like, TechLibrary::Scaled8nmLike];
    let mut specs = Vec::new();
    for &tech in &techs {
        for &method in &methods {
            specs.push(JobSpec {
                method,
                kind: CircuitKind::Adder,
                width: 8,
                tech,
                delay_weight: 0.5,
                budget: 20,
                seed: 31,
            });
        }
    }
    specs
}

fn cfg(dir: &Path) -> DaemonConfig {
    DaemonConfig {
        dir: dir.to_path_buf(),
        threads: 2,
        checkpoint_every: 5,
        slice_steps: 2,
        // Small cap: long runs force service-journal rotation too.
        journal_max_bytes: 4096,
        max_retries: 3,
    }
}

/// Every file in `dir` as name → bytes; asserts no staging files leak.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("service dir exists") {
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

/// One daemon lifetime: open, blindly (re-)submit the whole job set,
/// optionally cancel `cancel_id`, then drain. `Err` means the injected
/// crash killed this "process"; the on-disk state is whatever the crash
/// point left durable.
fn drive(dir: &Path, specs: &[JobSpec], cancel_id: Option<&str>) -> io::Result<()> {
    let mut daemon = Daemon::open(cfg(dir))?;
    for spec in specs {
        match daemon.handle(&Request::Submit(spec.clone()))? {
            Response::Submitted { .. } => {}
            Response::Error { message } => panic!("submit rejected: {message}"),
            other => panic!("unexpected submit response: {other:?}"),
        }
    }
    if let Some(id) = cancel_id {
        // Give the victim a few slices first so cancellation tears down
        // real progress (checkpoints, journal, telemetry).
        for _ in 0..3 {
            daemon.round()?;
        }
        // After a restart the victim is already gone: `unknown job` is
        // the expected (side-effect-free) answer then.
        match daemon.handle(&Request::Cancel { id: id.to_string() })? {
            Response::Ok | Response::Error { .. } => {}
            other => panic!("unexpected cancel response: {other:?}"),
        }
    }
    while daemon.has_running() {
        daemon.round()?;
    }
    Ok(())
}

/// The uninterrupted reference: directory snapshot + durable tick span.
struct Baseline {
    files: BTreeMap<String, Vec<u8>>,
    span: u64,
}

fn baseline_for(name: &str, cancel_id: Option<&str>) -> Baseline {
    let dir = base_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let before = failpoint::ticks();
    drive(&dir, &jobs(), cancel_id).expect("clean run completes");
    let span = failpoint::ticks() - before;
    assert!(span > 0, "a persistent service spends durable ticks");
    Baseline {
        files: snapshot(&dir),
        span,
    }
}

fn baseline() -> &'static Baseline {
    static BASELINE: OnceLock<Baseline> = OnceLock::new();
    BASELINE.get_or_init(|| baseline_for("baseline", None))
}

/// Kills a drive at `arm` (ticks into the run), then reopens with the
/// harness disarmed and drains to completion. Panics on non-crash
/// errors.
fn crash_then_recover(dir: &Path, arm: impl Fn(), cancel_id: Option<&str>) {
    let _ = std::fs::remove_dir_all(dir);
    arm();
    match drive(dir, &jobs(), cancel_id) {
        // The budget outlived the run: fine, recovery is then a no-op
        // replay — still asserted byte-identical below.
        Ok(()) => {}
        Err(e) => assert!(
            failpoint::is_crash(&e),
            "only injected crashes may kill a drive: {e}"
        ),
    }
    failpoint::disarm();
    drive(dir, &jobs(), cancel_id).expect("recovery run completes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance criterion, in-process: eight concurrent jobs,
    /// killed at a random durable tick, restarted (with the client
    /// blindly re-submitting the whole set) and drained — the directory
    /// byte-matches the never-killed run, journals included.
    #[test]
    fn killed_service_recovers_byte_identically(tick_frac in 0.0f64..1.0) {
        let _guard = serialize();
        let want = baseline();
        let tick = ((want.span as f64) * tick_frac).max(1.0) as u64;
        let dir = base_dir().join("tick_crash");
        crash_then_recover(&dir, || failpoint::arm_ticks(tick, Mode::Error), None);
        assert_snapshots_equal(&snapshot(&dir), &want.files);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn op_boundary_kills_recover_byte_identically() {
    let _guard = serialize();
    let want = baseline();
    // The classic crash points by name: before an fsync (bytes written,
    // not durable), before a rename (tmp complete, never published),
    // before a dirsync (published, parent not yet durable), and before
    // a journal-recovery truncate on the *second* life.
    let cases: &[(FailOp, u64)] = &[
        (FailOp::Fsync, 1),
        (FailOp::Fsync, 7),
        (FailOp::Rename, 1),
        (FailOp::Rename, 5),
        (FailOp::DirSync, 3),
        (FailOp::Create, 4),
    ];
    for &(op, nth) in cases {
        let dir = base_dir().join("op_crash");
        crash_then_recover(&dir, || failpoint::arm_op(op, nth, Mode::Error), None);
        assert_snapshots_equal(&snapshot(&dir), &want.files);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn double_kill_still_recovers_byte_identically() {
    let _guard = serialize();
    let want = baseline();
    let dir = base_dir().join("double_crash");
    let _ = std::fs::remove_dir_all(&dir);
    // First life dies early (mid-submission), second life dies midway
    // through the drain, third life completes.
    for frac in [0.07, 0.55] {
        let tick = ((want.span as f64) * frac).max(1.0) as u64;
        failpoint::arm_ticks(tick, Mode::Error);
        match drive(&dir, &jobs(), None) {
            Ok(()) => {}
            Err(e) => assert!(failpoint::is_crash(&e), "unexpected error: {e}"),
        }
    }
    failpoint::disarm();
    drive(&dir, &jobs(), None).expect("third life completes");
    assert_snapshots_equal(&snapshot(&dir), &want.files);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancellation_survives_kills_byte_identically() {
    let _guard = serialize();
    let victim = jobs()[2].id(); // GA on nangate45
    let want = baseline_for("cancel_baseline", Some(&victim));
    // The cancelled job must leave no trace in the final directory.
    for name in want.files.keys() {
        assert!(
            !name.starts_with(&victim),
            "cancelled job left {name} behind"
        );
    }
    for frac in [0.2f64, 0.6, 0.9] {
        let tick = ((want.span as f64) * frac).max(1.0) as u64;
        let dir = base_dir().join("cancel_crash");
        crash_then_recover(
            &dir,
            || failpoint::arm_ticks(tick, Mode::Error),
            Some(&victim),
        );
        assert_snapshots_equal(&snapshot(&dir), &want.files);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn paused_jobs_survive_kills() {
    let _guard = serialize();
    // Pause one job mid-run, crash, restart: the job must come back
    // paused at its checkpointed progress; resuming and draining then
    // lands on the clean-run bytes.
    let want = baseline();
    let specs = jobs();
    let paused_id = specs[5].id();
    let dir = base_dir().join("pause_crash");
    let _ = std::fs::remove_dir_all(&dir);

    let mut daemon = Daemon::open(cfg(&dir)).expect("open");
    for spec in &specs {
        daemon
            .handle(&Request::Submit(spec.clone()))
            .expect("submit");
    }
    for _ in 0..2 {
        daemon.round().expect("round");
    }
    daemon
        .handle(&Request::Pause {
            id: paused_id.clone(),
        })
        .expect("pause");
    let sims_at_pause = pause_sims(&mut daemon, &paused_id);
    // Kill the daemon a little later (other jobs keep running).
    failpoint::arm_ticks(2_000, Mode::Error);
    loop {
        match daemon.round() {
            Ok(0) => break, // everything else drained before the crash
            Ok(_) => {}
            Err(e) => {
                assert!(failpoint::is_crash(&e), "unexpected error: {e}");
                break;
            }
        }
    }
    if daemon.is_dead() {
        // Reads and commands alike get the dead-daemon error.
        for req in [Request::Status { id: None }, Request::Ping] {
            match daemon.handle(&req).expect("a dead daemon still answers") {
                Response::Error { message } => {
                    assert!(message.contains("daemon is dead"), "{message}")
                }
                other => panic!("a dead daemon answered {other:?}"),
            }
        }
    }
    drop(daemon);
    failpoint::disarm();

    // Restart: the pause must have survived, at the exact checkpointed
    // progress.
    let mut daemon = Daemon::open(cfg(&dir)).expect("reopen");
    assert_eq!(pause_sims(&mut daemon, &paused_id), sims_at_pause);
    daemon
        .handle(&Request::Resume {
            id: paused_id.clone(),
        })
        .expect("resume");
    drop(daemon);
    // Let the shared drive path finish the drain (idempotent resubmit).
    drive(&dir, &specs, None).expect("drain completes");
    assert_snapshots_equal(&snapshot(&dir), &want.files);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts `id` is paused and returns its reported progress.
fn pause_sims(daemon: &mut Daemon, id: &str) -> usize {
    match daemon
        .handle(&Request::Status {
            id: Some(id.to_string()),
        })
        .expect("status")
    {
        Response::Status { jobs } => {
            assert_eq!(jobs.len(), 1);
            assert_eq!(jobs[0].state, "paused", "{id} must be paused");
            jobs[0].sims
        }
        other => panic!("status failed: {other:?}"),
    }
}
