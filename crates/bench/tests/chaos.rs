//! Chaos suite for `campaignd` supervision (Contract 13).
//!
//! Contract 11 (`tests/service_crash.rs`) proves the daemon survives
//! *process death*. This suite proves it survives everything short of
//! that: a job whose evaluator **panics mid-step** (the `cv-bench`
//! fault harness), transient IO brown-outs (`cv-journal`'s
//! `Mode::TransientError` windows), and random interleavings of both.
//! The invariant under test is per-job fault isolation — a poisoned
//! job is parked (failed → bounded automatic retries → quarantined)
//! while the daemon keeps serving and every *surviving* job's durable
//! artifacts stay byte-identical to a run with no faults injected.
//! Once the faults clear, retrying the parked jobs drains the table to
//! the exact clean-run directory, canonical journal included.
//!
//! The CI `kill-smoke` job replays the panic half of this contract
//! against the real binary over TCP (`CV_PANIC_JOB`); the
//! malformed-frame / torn-connection half of the ingress story lives
//! in `tests/service.rs`.

use cv_bench::faults;
use cv_bench::harness::{Method, TechLibrary};
use cv_bench::service::{Daemon, DaemonConfig, JobSpec, JobStatus, Request, Response};
use cv_journal::failpoint;
use cv_prefix::CircuitKind;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Both fault harnesses are process-global state: tests must not
/// overlap. Every test body runs under this lock, starting disarmed.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    failpoint::disarm();
    faults::disarm();
    guard
}

fn base_dir() -> PathBuf {
    std::env::temp_dir().join(format!("cv_chaos_{}", std::process::id()))
}

/// The mixed job set of the crash suite: eight concurrent jobs — both
/// techs × {SA, Random, GA, GA-NSGA2} — at width 8. Full job ids are
/// unique substrings across the set, so a whole id is a precise panic
/// fragment.
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

/// Asserts job `id`'s durable artifacts (every `<id>.*` file) are
/// byte-identical between `got` and the clean-run `want`.
fn assert_job_unperturbed(
    got: &BTreeMap<String, Vec<u8>>,
    want: &BTreeMap<String, Vec<u8>>,
    id: &str,
) {
    let prefix = format!("{id}.");
    let of = |m: &BTreeMap<String, Vec<u8>>| {
        m.keys()
            .filter(|n| n.starts_with(&prefix))
            .cloned()
            .collect::<Vec<_>>()
    };
    let names = of(got);
    assert_eq!(
        names,
        of(want),
        "job {id} file set differs from the clean run"
    );
    for name in names {
        assert_eq!(got[&name], want[&name], "{name} differs from the clean run");
    }
}

/// The uninterrupted reference: directory snapshot + durable tick span.
struct Baseline {
    files: BTreeMap<String, Vec<u8>>,
    span: u64,
}

fn baseline() -> &'static Baseline {
    static BASELINE: OnceLock<Baseline> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let dir = base_dir().join("baseline");
        let _ = std::fs::remove_dir_all(&dir);
        let before = failpoint::ticks();
        let mut daemon = Daemon::open(cfg(&dir)).expect("open");
        submit_all(&mut daemon, &jobs());
        drain(&mut daemon);
        drop(daemon);
        let span = failpoint::ticks() - before;
        assert!(span > 0, "a persistent service spends durable ticks");
        Baseline {
            files: snapshot(&dir),
            span,
        }
    })
}

/// Submits the whole job set, retrying submissions a transient
/// brown-out sheds (submits are idempotent; a shed one consumes a
/// fault-window slot, so this terminates).
fn submit_all(daemon: &mut Daemon, specs: &[JobSpec]) {
    for spec in specs {
        loop {
            match daemon
                .handle(&Request::Submit(spec.clone()))
                .expect("only injected process death escapes handle()")
            {
                Response::Submitted { .. } => break,
                Response::Transient { .. } => {}
                other => panic!("unexpected submit response: {other:?}"),
            }
        }
    }
}

/// Opens the daemon, retrying transient brown-out failures during
/// replay (each failed attempt consumes fault-window slots).
fn open_tolerant(dir: &Path) -> Daemon {
    loop {
        match Daemon::open(cfg(dir)) {
            Ok(daemon) => return daemon,
            Err(e) => assert!(
                !failpoint::is_crash(&e),
                "no process death is armed, yet open crashed: {e}"
            ),
        }
    }
}

/// Drains the table: failed jobs burn their backoff and retry,
/// quarantined jobs stay parked. The daemon must survive every round
/// (Contract 13: only injected process death may kill it).
fn drain(daemon: &mut Daemon) {
    while daemon.has_running() {
        daemon
            .round()
            .expect("a fault must park a job, not kill the daemon");
    }
    assert!(!daemon.is_dead(), "daemon died under chaos");
}

/// The full job table via the status verb.
fn rows(daemon: &mut Daemon) -> Vec<JobStatus> {
    match daemon
        .handle(&Request::Status { id: None })
        .expect("status")
    {
        Response::Status { jobs } => jobs,
        other => panic!("status failed: {other:?}"),
    }
}

/// The failure details of a parked job: (state, retries, backoff, reason).
fn fail_info(daemon: &mut Daemon, id: &str) -> (String, u32, u32, String) {
    match daemon
        .handle(&Request::FailInfo { id: id.to_string() })
        .expect("fail-info")
    {
        Response::FailInfo {
            state,
            retries,
            backoff_rounds,
            reason,
            ..
        } => (
            state.to_string(),
            retries,
            backoff_rounds,
            reason.unwrap_or_default(),
        ),
        other => panic!("fail-info failed: {other:?}"),
    }
}

/// Issues the manual retry verb and asserts it is accepted.
fn retry(daemon: &mut Daemon, id: &str) {
    match daemon
        .handle(&Request::Retry { id: id.to_string() })
        .expect("retry")
    {
        Response::Ok => {}
        other => panic!("retry rejected: {other:?}"),
    }
}

/// Drains, then revives quarantined jobs and drains again until the
/// whole table is done. Terminates only once the armed faults are
/// exhausted or disarmed; bounded to fail loudly instead of hanging.
fn revive_and_drain(daemon: &mut Daemon) {
    for _ in 0..32 {
        drain(daemon);
        let quarantined: Vec<String> = rows(daemon)
            .into_iter()
            .filter(|j| j.state == "quarantined")
            .map(|j| j.id)
            .collect();
        if quarantined.is_empty() {
            return;
        }
        for id in quarantined {
            retry(daemon, &id);
        }
    }
    panic!("table failed to drain after 32 revival passes");
}

#[test]
fn panicking_job_quarantines_and_survivors_stay_byte_identical() {
    let _guard = serialize();
    let want = baseline();
    let specs = jobs();
    let victim = specs[2].id(); // GA on nangate45
    let dir = base_dir().join("panic_quarantine");
    let _ = std::fs::remove_dir_all(&dir);

    // The victim's evaluator panics at its first step past 8 sims, on
    // the initial attempt and on every automatic retry.
    faults::arm_panic(&victim, 8);
    let mut daemon = Daemon::open(cfg(&dir)).expect("open");
    submit_all(&mut daemon, &specs);
    drain(&mut daemon);

    // The victim crash-looped through its retry budget into quarantine
    // with a stable, attributable reason.
    let (state, retries, backoff, reason) = fail_info(&mut daemon, &victim);
    assert_eq!(state, "quarantined");
    assert_eq!(retries, cfg(&dir).max_retries);
    assert_eq!(backoff, 0, "quarantined jobs have no pending retry");
    assert!(
        reason.starts_with("panic: cv-bench fault injection"),
        "unexpected failure reason: {reason}"
    );
    assert!(
        reason.contains(&victim),
        "reason must name the victim: {reason}"
    );

    // Contract 13, mid-quarantine: every other job drained to done with
    // artifacts byte-identical to the clean run, and the poisoned job
    // published no result.
    let mid = snapshot(&dir);
    for row in rows(&mut daemon) {
        if row.id != victim {
            assert_eq!(row.state, "done", "survivor {} not done", row.id);
            assert_job_unperturbed(&mid, &want.files, &row.id);
        }
    }
    assert!(
        !mid.contains_key(&format!("{victim}.done")),
        "a quarantined job must not publish a result"
    );

    // Still armed: a manual retry crash-loops straight back to
    // quarantine, and — because retries resume from a durable
    // checkpoint on a deterministic trajectory — with the byte-equal
    // reason string.
    retry(&mut daemon, &victim);
    drain(&mut daemon);
    let (state2, _, _, reason2) = fail_info(&mut daemon, &victim);
    assert_eq!(state2, "quarantined");
    assert_eq!(
        reason2, reason,
        "crash-loop reason must be deterministic across retries"
    );

    // Disarm and retry once more: the victim completes and the whole
    // directory — canonical journal included — byte-matches the run
    // that never saw a fault.
    faults::disarm();
    retry(&mut daemon, &victim);
    drain(&mut daemon);
    drop(daemon);
    assert_snapshots_equal(&snapshot(&dir), &want.files);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_survives_restart_and_blind_resubmit_revives_it() {
    let _guard = serialize();
    let want = baseline();
    let specs = jobs();
    let victim = specs[5].id(); // Random on scaled8nm
    let dir = base_dir().join("restart_failed");
    let _ = std::fs::remove_dir_all(&dir);

    faults::arm_panic(&victim, 6);
    let mut daemon = Daemon::open(cfg(&dir)).expect("open");
    submit_all(&mut daemon, &specs);
    drain(&mut daemon);
    let before = fail_info(&mut daemon, &victim);
    assert_eq!(before.0, "quarantined");
    drop(daemon);

    // Restart with the fault gone: the journaled failure record must
    // replay the quarantine verbatim — state, retry count, and reason.
    faults::disarm();
    let mut daemon = Daemon::open(cfg(&dir)).expect("reopen");
    assert_eq!(
        fail_info(&mut daemon, &victim),
        before,
        "failure details must replay across restarts"
    );

    // The client's blind recovery path — idempotently re-submitting the
    // whole set — revives the quarantined job in place.
    submit_all(&mut daemon, &specs);
    drain(&mut daemon);
    drop(daemon);
    assert_snapshots_equal(&snapshot(&dir), &want.files);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Transient IO brown-outs at a random durable tick, for a random
    /// window of failing operations: jobs caught mid-write are parked
    /// and automatically retried from their last durable checkpoint,
    /// the daemon keeps serving, and the drained directory byte-matches
    /// the clean run.
    #[test]
    fn transient_brownouts_degrade_then_drain_byte_identically(
        tick_frac in 0.02f64..0.98,
        window in 1u64..10,
    ) {
        let _guard = serialize();
        let want = baseline();
        let tick = ((want.span as f64) * tick_frac).max(1.0) as u64;
        let dir = base_dir().join("brownout");
        let _ = std::fs::remove_dir_all(&dir);

        failpoint::arm_transient_ticks(tick, window);
        let mut daemon = open_tolerant(&dir);
        submit_all(&mut daemon, &jobs());
        revive_and_drain(&mut daemon);
        for row in rows(&mut daemon) {
            assert_eq!(row.state, "done", "{} did not recover from the brown-out", row.id);
        }
        drop(daemon);
        failpoint::disarm();
        assert_snapshots_equal(&snapshot(&dir), &want.files);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The acceptance criterion: random panic × brown-out
    /// interleavings. A random victim panics at a random progress
    /// threshold while (optionally) a transient IO window fails durable
    /// writes under every job; the daemon must never die, every job
    /// that reports *done* mid-fault must be byte-identical to the
    /// clean run, and once the faults clear the table drains to the
    /// exact clean-run directory.
    #[test]
    fn random_fault_interleavings_leave_survivors_byte_identical(
        victim_idx in 0usize..8,
        panic_sims in 1usize..20,
        io_frac in 0.0f64..1.0,
        window in 0u64..6, // 0 = panic only, no brown-out
    ) {
        let _guard = serialize();
        let want = baseline();
        let specs = jobs();
        let victim = specs[victim_idx].id();
        let dir = base_dir().join("fault_interleave");
        let _ = std::fs::remove_dir_all(&dir);

        faults::arm_panic(&victim, panic_sims);
        if window > 0 {
            let tick = ((want.span as f64) * io_frac).max(1.0) as u64;
            failpoint::arm_transient_ticks(tick, window);
        }
        let mut daemon = open_tolerant(&dir);
        submit_all(&mut daemon, &specs);
        drain(&mut daemon);

        // Contract 13, mid-fault: completed jobs are unperturbed.
        let mid = snapshot(&dir);
        for row in rows(&mut daemon) {
            if row.state == "done" {
                assert_job_unperturbed(&mid, &want.files, &row.id);
            }
        }

        // Heal everything; revive whatever quarantined; full identity.
        faults::disarm();
        failpoint::disarm();
        revive_and_drain(&mut daemon);
        drop(daemon);
        assert_snapshots_equal(&snapshot(&dir), &want.files);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
