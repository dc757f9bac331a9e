//! Deterministic fault injection for the durable write path.
//!
//! Every durable primitive in [`crate::fs`] and [`crate::Journal`]
//! announces itself here before touching the filesystem. When a
//! failpoint is **armed**, the announced operations are metered and the
//! run "crashes" at a precisely reproducible point:
//!
//! * **Tick trigger** — every operation costs ticks (`Write` costs one
//!   tick *per byte*, everything else costs one tick). The crash fires
//!   when the cumulative tick budget is exhausted, which lets a test
//!   kill a run *in the middle of a write*: the write is torn at the
//!   exact surviving-byte boundary, just like a power cut between
//!   `write(2)` and `fsync(2)`.
//! * **Op trigger** — the crash fires immediately *before* the N-th
//!   occurrence of one [`FailOp`] kind, encoding the classic crash
//!   points by name: before an `Fsync` (bytes written but not durable),
//!   before a `Rename` (tmp file complete but never published), and so
//!   on.
//!
//! Three failure modes:
//!
//! * [`Mode::Abort`] — the process dies via [`std::process::abort`].
//!   This is the real-kill mode the CI `kill-smoke` job drives through
//!   the `CV_FAILPOINT` environment variable (see [`arm_from_env`]).
//! * [`Mode::Error`] — the current operation returns a crash error and
//!   **every subsequent durable operation fails too**, so an in-process
//!   test observes exactly the on-disk state a killed process would
//!   have left behind. The harness stays in this dead state until
//!   [`disarm`] is called.
//! * [`Mode::TransientError`] — a bounded IO brown-out rather than a
//!   death: once the trigger fires, the next `window` announced
//!   operations (including the firing one, which may tear a write at
//!   its byte boundary) fail with a *transient* error, then the harness
//!   disarms itself and durable writes succeed again. [`crashed`] stays
//!   `false` throughout, and the injected errors answer to
//!   [`is_transient`], not [`is_crash`] — callers are expected to
//!   degrade (park the affected work, heal torn journal tails) instead
//!   of treating the process as dead.
//!
//! The global tick counter runs even while disarmed (at negligible
//! cost), so a test can measure the tick length of a clean run with
//! [`ticks`] and then replay crashes at every interesting offset.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The kinds of durable operation the write path announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailOp {
    /// Creating (or truncating) a file, or opening one for append.
    Create,
    /// Writing payload bytes (tick cost = byte count).
    Write,
    /// `File::sync_all` on a data file.
    Fsync,
    /// Atomically renaming a tmp file over its destination.
    Rename,
    /// Syncing the parent directory after a rename.
    DirSync,
    /// Truncating a journal's torn tail during recovery.
    Truncate,
}

#[derive(Debug, Clone, Copy)]
enum Trigger {
    Ticks(u64),
    Op {
        op: FailOp,
        remaining: u64,
    },
    /// A fired [`Mode::TransientError`] window: this many more announced
    /// operations fail transiently, then the harness disarms itself.
    Window(u64),
}

/// What happens when an armed failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Kill the process (`std::process::abort`) — a real crash.
    Abort,
    /// Fail the operation and every later one — a simulated crash.
    Error,
    /// Fail the operation and a bounded window of later ones, then
    /// recover — a simulated IO brown-out, not a death.
    TransientError,
}

#[derive(Debug)]
struct Armed {
    trigger: Trigger,
    mode: Mode,
    /// Total ops that fail once a [`Mode::TransientError`] trigger
    /// fires, counting the firing op itself. Unused in other modes.
    window: u64,
}

static ARMED: Mutex<Option<Armed>> = Mutex::new(None);
static CRASHED: AtomicBool = AtomicBool::new(false);
static TICKS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether the most recent fired verdict on this thread came from a
    /// transient window (each op's `begin_op`/`enforce_crash` pair runs
    /// on one thread, so this safely routes the error kind between
    /// them).
    static FIRED_TRANSIENT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The verdict for one announced operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Proceed with the full operation.
    Proceed,
    /// Write only this many leading bytes, then crash (only for
    /// [`FailOp::Write`]; `0` tears the write before any byte lands).
    Torn(usize),
    /// Crash before performing the operation at all.
    Crash,
}

/// Announces a durable operation of kind `op` touching `bytes` payload
/// bytes (0 for non-write ops) and returns the injection verdict.
pub(crate) fn begin_op(op: FailOp, bytes: usize) -> Verdict {
    let cost = match op {
        FailOp::Write => (bytes as u64).max(1),
        _ => 1,
    };
    TICKS.fetch_add(cost, Ordering::Relaxed);
    FIRED_TRANSIENT.with(|f| f.set(false));
    if CRASHED.load(Ordering::SeqCst) {
        // The simulated process is already dead: nothing else lands.
        return Verdict::Crash;
    }
    let mut armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    let Some(state) = armed.as_mut() else {
        return Verdict::Proceed;
    };
    if let Trigger::Window(remaining) = &mut state.trigger {
        // An open transient window: this op fails cleanly; the harness
        // disarms itself once the window is spent.
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            *armed = None;
        }
        FIRED_TRANSIENT.with(|f| f.set(true));
        return Verdict::Crash;
    }
    let verdict = match &mut state.trigger {
        Trigger::Ticks(remaining) => {
            if *remaining > cost {
                *remaining -= cost;
                Verdict::Proceed
            } else if op == FailOp::Write {
                // Tear the write at the exact byte the budget allows.
                Verdict::Torn((*remaining).saturating_sub(1) as usize)
            } else {
                Verdict::Crash
            }
        }
        Trigger::Op {
            op: target,
            remaining,
        } => {
            if op != *target {
                Verdict::Proceed
            } else if *remaining > 1 {
                *remaining -= 1;
                Verdict::Proceed
            } else {
                Verdict::Crash
            }
        }
        Trigger::Window(_) => unreachable!("handled above"),
    };
    if verdict != Verdict::Proceed {
        if state.mode == Mode::TransientError {
            // The firing op consumes the first slot of the window.
            FIRED_TRANSIENT.with(|f| f.set(true));
            if state.window <= 1 {
                *armed = None;
            } else {
                state.trigger = Trigger::Window(state.window - 1);
            }
        } else {
            CRASHED.store(true, Ordering::SeqCst);
        }
    }
    verdict
}

/// Carries out a fired crash: aborts the process in [`Mode::Abort`]
/// (after any torn bytes already landed), or reports the crash error in
/// [`Mode::Error`]. Callers invoke this *after* performing the torn
/// prefix of a write, so a real kill and a simulated one leave the same
/// bytes on disk.
pub(crate) fn enforce_crash(op: FailOp) -> std::io::Error {
    if FIRED_TRANSIENT.with(std::cell::Cell::get) {
        return transient_error();
    }
    let mode = {
        let armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
        armed.as_ref().map_or(Mode::Error, |a| a.mode)
    };
    if mode == Mode::Abort {
        eprintln!("cv-journal failpoint: injected crash at {op:?} — aborting");
        std::process::abort();
    }
    crash_error()
}

fn arm(trigger: Trigger, mode: Mode, window: u64) {
    let mut armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    CRASHED.store(false, Ordering::SeqCst);
    *armed = Some(Armed {
        trigger,
        mode,
        window,
    });
}

/// Arms a tick-budget failpoint: the run crashes once `ticks` durable
/// ticks have been spent (writes cost one tick per byte).
pub fn arm_ticks(ticks: u64, mode: Mode) {
    arm(Trigger::Ticks(ticks.max(1)), mode, 1);
}

/// Arms an operation failpoint: the run crashes immediately before the
/// `nth` (1-based) occurrence of `op`.
pub fn arm_op(op: FailOp, nth: u64, mode: Mode) {
    arm(
        Trigger::Op {
            op,
            remaining: nth.max(1),
        },
        mode,
        1,
    );
}

/// Arms a transient IO brown-out: once `ticks` durable ticks have been
/// spent, the next `window` announced operations (including the firing
/// one) fail with a transient error — see [`is_transient`] — then the
/// harness disarms itself and durable writes succeed again. [`crashed`]
/// never becomes `true` on this path.
pub fn arm_transient_ticks(ticks: u64, window: u64) {
    arm(
        Trigger::Ticks(ticks.max(1)),
        Mode::TransientError,
        window.max(1),
    );
}

/// Disarms the harness and clears the crashed state.
pub fn disarm() {
    let mut armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    *armed = None;
    CRASHED.store(false, Ordering::SeqCst);
}

/// Whether an armed [`Mode::Abort`]/[`Mode::Error`] failpoint has fired
/// since the last [`disarm`] (transient windows never set this — the
/// simulated process survives them).
pub fn crashed() -> bool {
    CRASHED.load(Ordering::SeqCst)
}

/// Cumulative durable ticks spent by this process (counted even while
/// disarmed) — the yardstick tests use to enumerate crash points.
pub fn ticks() -> u64 {
    TICKS.load(Ordering::Relaxed)
}

/// Arms the real-kill mode from the `CV_FAILPOINT` environment variable
/// (a tick budget), as the `campaign` binary does on startup for the CI
/// `kill-smoke` job. Returns `true` when a failpoint was armed.
///
/// # Panics
///
/// Panics when `CV_FAILPOINT` is set but not a positive integer — a
/// misconfigured harness must fail loudly, not run clean.
pub fn arm_from_env() -> bool {
    match std::env::var("CV_FAILPOINT") {
        Ok(v) => {
            let ticks: u64 = v
                .parse()
                .unwrap_or_else(|_| panic!("CV_FAILPOINT must be a positive integer, got `{v}`"));
            assert!(ticks > 0, "CV_FAILPOINT must be positive");
            arm_ticks(ticks, Mode::Abort);
            true
        }
        Err(_) => false,
    }
}

/// Arms a transient IO brown-out from the `CV_TRANSIENT_IO` environment
/// variable (`<ticks>:<window>`), as the `campaignd` binary does on
/// startup for the CI `kill-smoke` job. Returns `true` when a
/// failpoint was armed.
///
/// # Panics
///
/// Panics when `CV_TRANSIENT_IO` is set but not `<ticks>:<window>` with
/// two positive integers — a misconfigured harness must fail loudly,
/// not run clean.
pub fn arm_transient_from_env() -> bool {
    match std::env::var("CV_TRANSIENT_IO") {
        Ok(v) => {
            let parsed = v
                .split_once(':')
                .and_then(|(t, w)| Some((t.parse::<u64>().ok()?, w.parse::<u64>().ok()?)));
            let Some((ticks, window)) = parsed else {
                panic!("CV_TRANSIENT_IO must be `<ticks>:<window>`, got `{v}`");
            };
            assert!(
                ticks > 0 && window > 0,
                "CV_TRANSIENT_IO ticks and window must be positive"
            );
            arm_transient_ticks(ticks, window);
            true
        }
        Err(_) => false,
    }
}

/// The error payload carried by crash-injected [`std::io::Error`]s.
pub(crate) const CRASH_MSG: &str = "cv-journal failpoint: injected crash";

/// The error payload carried by transient-injected [`std::io::Error`]s.
pub(crate) const TRANSIENT_MSG: &str = "cv-journal failpoint: injected transient IO error";

/// The `io::Error` a torn/crashed operation reports in [`Mode::Error`].
pub(crate) fn crash_error() -> std::io::Error {
    std::io::Error::other(CRASH_MSG)
}

/// The `io::Error` an operation reports inside a transient window.
pub(crate) fn transient_error() -> std::io::Error {
    std::io::Error::other(TRANSIENT_MSG)
}

/// Whether `err` is a crash injected by this harness (as opposed to a
/// genuine filesystem failure).
pub fn is_crash(err: &std::io::Error) -> bool {
    err.get_ref().is_some_and(|e| e.to_string() == CRASH_MSG)
}

/// Whether `err` was injected by a [`Mode::TransientError`] window — an
/// IO failure the caller should degrade around, not die from.
pub fn is_transient(err: &std::io::Error) -> bool {
    err.get_ref()
        .is_some_and(|e| e.to_string() == TRANSIENT_MSG)
}
