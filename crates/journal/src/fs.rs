//! The audited durable write path.
//!
//! Every persistent artifact of a campaign — checkpoints, results,
//! JSONL telemetry, journal segments, summary CSVs — flows through the
//! primitives here, which enforce the durability contract (Contract 10,
//! DESIGN.md §9):
//!
//! * **Unique tmp names.** [`write_atomic`] stages into
//!   `.<name>.<pid>.<seq>.tmp` — two writers aiming at the same
//!   destination can never clobber each other's staging file, and a
//!   crash-orphaned tmp is recognizable (and swept by [`sweep_tmp`])
//!   without ever matching a real artifact's name.
//! * **fsync before publish.** The staged file is `sync_all`ed before
//!   the rename, and the parent directory is synced after it, so a
//!   crash can never durably publish an empty or torn file: the
//!   destination either keeps its old content or has the complete new
//!   content.
//! * **Unsynced derived files.** [`append`] extends and [`overwrite`]
//!   replaces a derived file that recovery rebuilds from the journal,
//!   so both skip the fsync.
//! * **Fault observability.** Every step announces itself to
//!   [`crate::failpoint`], which is how the deterministic crash tests
//!   tear writes at byte boundaries and kill runs between steps.

use crate::failpoint::{self, FailOp, Verdict};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The suffix every staging file carries (see [`sweep_tmp`]).
const TMP_SUFFIX: &str = ".tmp";

/// A process-unique staging path next to `path`: hidden, suffixed
/// `.tmp`, and disambiguated by pid + a global sequence number.
fn unique_tmp(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_string());
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!(".{name}.{}.{seq}{TMP_SUFFIX}", std::process::id()))
}

/// Creates (truncating) `path` through the failpoint harness.
pub(crate) fn create(path: &Path) -> io::Result<File> {
    match failpoint::begin_op(FailOp::Create, 0) {
        Verdict::Proceed => File::create(path),
        _ => Err(failpoint::enforce_crash(FailOp::Create)),
    }
}

/// Writes `bytes` to `file` through the failpoint harness; a torn
/// verdict lands exactly the surviving prefix before the crash.
pub(crate) fn write_all(file: &mut File, bytes: &[u8]) -> io::Result<()> {
    match failpoint::begin_op(FailOp::Write, bytes.len()) {
        Verdict::Proceed => file.write_all(bytes),
        Verdict::Torn(k) => {
            let k = k.min(bytes.len());
            let _ = file.write_all(&bytes[..k]);
            let _ = file.sync_all(); // the torn prefix is what survives
            Err(failpoint::enforce_crash(FailOp::Write))
        }
        Verdict::Crash => Err(failpoint::enforce_crash(FailOp::Write)),
    }
}

/// `sync_all`s `file` through the failpoint harness.
pub(crate) fn sync(file: &File) -> io::Result<()> {
    match failpoint::begin_op(FailOp::Fsync, 0) {
        Verdict::Proceed => file.sync_all(),
        _ => Err(failpoint::enforce_crash(FailOp::Fsync)),
    }
}

/// Renames `from` → `to` through the failpoint harness.
pub(crate) fn rename(from: &Path, to: &Path) -> io::Result<()> {
    match failpoint::begin_op(FailOp::Rename, 0) {
        Verdict::Proceed => std::fs::rename(from, to),
        _ => Err(failpoint::enforce_crash(FailOp::Rename)),
    }
}

/// Best-effort fsync of `path`'s parent directory (making a completed
/// rename durable). Platforms where directories cannot be opened tick
/// the failpoint but skip the sync.
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if failpoint::begin_op(FailOp::DirSync, 0) != Verdict::Proceed {
        return Err(failpoint::enforce_crash(FailOp::DirSync));
    }
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Truncates `file` to `len` through the failpoint harness (recovery's
/// torn-tail cut).
pub(crate) fn truncate(file: &File, len: u64) -> io::Result<()> {
    match failpoint::begin_op(FailOp::Truncate, 0) {
        Verdict::Proceed => file.set_len(len),
        _ => Err(failpoint::enforce_crash(FailOp::Truncate)),
    }
}

/// Appends `bytes` to `path`, creating it if absent — **without** an
/// fsync. Only for derived files that recovery rewrites from a journal
/// and never trusts (a task's mid-run `.jsonl`). A crash can leave any
/// prefix of the appended bytes, exactly as any torn write does.
///
/// # Errors
///
/// Any underlying I/O failure, or an injected crash.
pub fn append(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = match failpoint::begin_op(FailOp::Create, 0) {
        Verdict::Proceed => OpenOptions::new().create(true).append(true).open(path)?,
        _ => return Err(failpoint::enforce_crash(FailOp::Create)),
    };
    write_all(&mut f, bytes)
}

/// Replaces the content of `path` with `bytes` in place, creating it if
/// absent — **without** an fsync or a rename. Only for derived files
/// that recovery rewrites from a journal and never trusts (a task's
/// mid-run `.jsonl`). A crash can leave an empty file or any prefix of
/// the new bytes, exactly as a torn [`append`] does.
///
/// # Errors
///
/// Any underlying I/O failure, or an injected crash.
pub fn overwrite(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = create(path)?;
    write_all(&mut f, bytes)
}

/// Atomically and durably replaces `path` with `bytes`.
///
/// The audited sequence: stage into a unique tmp name, write, fsync the
/// staged file, rename over the destination, fsync the parent
/// directory. A crash at any step leaves either the old content or the
/// complete new content at `path` — never a torn or empty file — plus
/// at most one orphaned `.tmp` staging file (swept by [`sweep_tmp`]).
///
/// # Errors
///
/// Any underlying I/O failure, or an injected crash when a failpoint is
/// armed in [`crate::failpoint::Mode::Error`].
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = unique_tmp(path);
    let result = (|| {
        let mut f = create(&tmp)?;
        write_all(&mut f, bytes)?;
        sync(&f)?;
        drop(f);
        rename(&tmp, path)?;
        sync_parent_dir(path)
    })();
    if result.is_err() {
        // Leave crash-injected state untouched — the orphaned tmp *is*
        // the state a kill leaves behind, and recovery must sweep it.
        if !failpoint::crashed() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
    result
}

/// Removes orphaned staging files (`.<name>.<pid>.<seq>.tmp`) from
/// `dir`. Recovery runs this before trusting directory contents; it is
/// what keeps a crash-then-resume directory byte-identical to a clean
/// run's.
///
/// # Errors
///
/// Propagates directory-read failures; a missing `dir` is fine.
pub fn sweep_tmp(dir: &Path) -> io::Result<usize> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut swept = 0;
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') && name.ends_with(TMP_SUFFIX) {
            std::fs::remove_file(entry.path())?;
            swept += 1;
        }
    }
    Ok(swept)
}
