//! Deterministic evaluator-panic fault injection for supervision tests.
//!
//! The chaos suites and the CI `kill-smoke` job need a job that
//! *panics mid-step* — not one that errors or crashes the process —
//! to prove the daemon's per-job isolation (DESIGN.md Contract 13).
//! This module is that lever: arm a `(fragment, sims)` pair and every
//! job whose id contains `fragment` panics at the entry of the first
//! step where its driver has consumed at least `sims` simulations.
//!
//! The trigger is **deterministic across retries**: a retry resumes
//! from a durable checkpoint taken at or before the panic point on the
//! same deterministic driver trajectory, so the first crossing of the
//! `sims` threshold — and therefore the panic message — is identical
//! every time. A crash-looping job thus reaches quarantine with a
//! stable, reproducible reason string.
//!
//! The harness stays armed until [`disarm`] (retries must re-fire),
//! costs one relaxed atomic load per step when disarmed, and is
//! process-global like its sibling `cv_journal::failpoint`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// `true` only while a panic spec is armed — the disarmed fast path.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The armed spec: (job-id fragment, simulation threshold).
static SPEC: Mutex<Option<(String, usize)>> = Mutex::new(None);

/// Arms the panic failpoint: every job whose id contains `fragment`
/// panics at the first step entry where it has consumed at least
/// `sims` simulations. Replaces any previously armed spec.
pub fn arm_panic(fragment: &str, sims: usize) {
    *SPEC
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some((fragment.to_string(), sims));
    ARMED.store(true, Ordering::Release);
}

/// Disarms the failpoint; steps proceed normally again.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    *SPEC
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// Arms from the `CV_PANIC_JOB` environment variable when present
/// (`"<fragment>@<sims>"`, e.g. `"w8_ga_b@60"`). Returns whether the
/// failpoint was armed. Panics loudly on a malformed value — a chaos
/// harness silently running without its fault is worse than a crash.
pub fn arm_from_env() -> bool {
    let Ok(spec) = std::env::var("CV_PANIC_JOB") else {
        return false;
    };
    let Some((fragment, sims)) = spec.split_once('@') else {
        panic!("CV_PANIC_JOB must be \"<fragment>@<sims>\", got {spec:?}");
    };
    let sims: usize = sims
        .parse()
        .unwrap_or_else(|e| panic!("CV_PANIC_JOB sims {sims:?}: {e}"));
    if fragment.is_empty() {
        panic!("CV_PANIC_JOB fragment must be non-empty, got {spec:?}");
    }
    arm_panic(fragment, sims);
    true
}

/// The step-entry hook: panics if `id` matches the armed spec and
/// `sims` has reached its threshold. Called by `RunningTask::step`.
pub(crate) fn maybe_panic(id: &str, sims: usize) {
    if !ARMED.load(Ordering::Acquire) {
        return;
    }
    let guard = SPEC
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some((fragment, threshold)) = guard.as_ref() {
        if sims >= *threshold && id.contains(fragment.as_str()) {
            let fragment = fragment.clone();
            drop(guard);
            panic!("cv-bench fault injection: job matching {fragment:?} panicked at {sims} sims");
        }
    }
}
