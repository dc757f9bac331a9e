//! Durability properties of the journal and the audited write path:
//! torn tails truncate to the durable prefix at *every* byte boundary,
//! atomic writes never publish partial content, rotation is all-or-
//! nothing, and the failpoint harness tears writes at exact byte
//! offsets.

use cv_journal::failpoint::{self, FailOp, Mode};
use cv_journal::{crc32, fs, Journal, FRAME_OVERHEAD, JOURNAL_MAGIC};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The failpoint harness is process-global; tests that arm it (or
/// depend on exact tick counts) must not interleave.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    failpoint::disarm();
    guard
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cv_journal_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn records(tag: u8) -> Vec<Vec<u8>> {
    vec![
        vec![tag; 5],
        Vec::new(), // empty payloads are legal records
        (0..200).map(|i| (i as u8).wrapping_mul(tag)).collect(),
    ]
}

#[test]
fn append_and_reopen_roundtrips() {
    let _guard = serialize();
    let dir = tmp_dir("roundtrip");
    let path = dir.join("task.journal");
    let mut j = Journal::open(&path).unwrap().journal;
    for r in records(3) {
        j.append(&r).unwrap();
    }
    drop(j);
    let opened = Journal::open(&path).unwrap();
    assert_eq!(opened.records, records(3));
    assert_eq!(opened.truncated_bytes, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_truncates_at_every_byte_boundary() {
    let _guard = serialize();
    let dir = tmp_dir("torn");
    let path = dir.join("task.journal");
    let mut j = Journal::open(&path).unwrap().journal;
    let full = records(7);
    for r in &full {
        j.append(r).unwrap();
    }
    drop(j);
    let clean = std::fs::read(&path).unwrap();
    let last_frame = FRAME_OVERHEAD + full.last().unwrap().len();
    let durable_prefix_len = clean.len() - last_frame;

    // Tear the file at every byte inside the last frame: recovery must
    // yield exactly the first two records and cut the file back to the
    // durable prefix.
    for cut in durable_prefix_len..clean.len() {
        std::fs::write(&path, &clean[..cut]).unwrap();
        let opened = Journal::open(&path).unwrap();
        assert_eq!(opened.records, full[..2].to_vec(), "cut at byte {cut}");
        assert_eq!(opened.truncated_bytes, (cut - durable_prefix_len) as u64);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            durable_prefix_len as u64,
            "torn tail must be truncated away (cut at byte {cut})"
        );
        // A second open sees a clean segment.
        let again = Journal::open(&path).unwrap();
        assert_eq!(again.truncated_bytes, 0);
        // …and the journal still accepts appends after recovery.
        let mut j = again.journal;
        j.append(full.last().unwrap()).unwrap();
        drop(j);
        assert_eq!(Journal::read_back(&path).unwrap(), full);
        std::fs::write(&path, &clean).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_record_distrusts_everything_after_it() {
    let _guard = serialize();
    let dir = tmp_dir("corrupt");
    let path = dir.join("task.journal");
    let mut j = Journal::open(&path).unwrap().journal;
    for r in records(9) {
        j.append(&r).unwrap();
    }
    drop(j);
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one payload byte of the *first* record.
    let first_payload_at = JOURNAL_MAGIC.len() + FRAME_OVERHEAD;
    bytes[first_payload_at] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let opened = Journal::open(&path).unwrap();
    assert_eq!(opened.records, Vec::<Vec<u8>>::new());
    assert!(opened.truncated_bytes > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_bytes_reset_to_an_empty_segment() {
    let _guard = serialize();
    let dir = tmp_dir("foreign");
    let path = dir.join("task.journal");
    std::fs::write(&path, b"this is not a journal at all").unwrap();
    let opened = Journal::open(&path).unwrap();
    assert!(opened.records.is_empty());
    assert!(opened.journal.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rotation_compacts_atomically() {
    let _guard = serialize();
    let dir = tmp_dir("rotate");
    let path = dir.join("task.journal");
    let mut j = Journal::open(&path).unwrap().journal;
    for r in records(5) {
        j.append(&r).unwrap();
    }
    let keep: Vec<u8> = vec![0xAB; 32];
    let j = j.rotate(&[&keep]).unwrap();
    assert_eq!(
        j.len(),
        (JOURNAL_MAGIC.len() + FRAME_OVERHEAD + keep.len()) as u64
    );
    drop(j);
    assert_eq!(Journal::read_back(&path).unwrap(), vec![keep]);
    // No staging leftovers.
    assert_eq!(fs::sweep_tmp(&dir).unwrap(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn write_atomic_is_all_or_nothing_under_injected_crashes() {
    let _guard = serialize();
    let dir = tmp_dir("atomic");
    let path = dir.join("state.bin");
    let old = vec![1u8; 100];
    fs::write_atomic(&path, &old).unwrap();
    let new = vec![2u8; 300];

    // Crash at every tick of the replacement write: the destination
    // must always hold either the complete old or complete new bytes.
    let mut saw_old = false;
    let mut saw_new = false;
    for tick in 1..=new.len() as u64 + 10 {
        failpoint::arm_ticks(tick, Mode::Error);
        let result = fs::write_atomic(&path, &new);
        let crashed = failpoint::crashed();
        failpoint::disarm();
        let on_disk = std::fs::read(&path).unwrap();
        assert!(
            on_disk == old || on_disk == new,
            "tick {tick}: destination must never be torn (got {} bytes)",
            on_disk.len()
        );
        saw_old |= on_disk == old;
        saw_new |= on_disk == new;
        if !crashed {
            result.unwrap();
            break;
        }
        assert!(result.is_err());
        assert!(failpoint::is_crash(&result.unwrap_err()));
        // Orphaned staging files are swept, then invisible.
        fs::sweep_tmp(&dir).unwrap();
        fs::write_atomic(&path, &old).unwrap();
    }
    assert!(saw_old, "some crash point must leave the old content");
    assert!(
        saw_new,
        "running past the last tick must publish the new content"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_append_tears_at_every_byte_and_a_dead_process_creates_nothing() {
    let _guard = serialize();
    let dir = tmp_dir("file_append");
    let path = dir.join("task.jsonl");
    fs::append(&path, b"first").unwrap();
    fs::append(&path, b"\nsecond").unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), b"first\nsecond");

    // Tick 1 is the open; tick 1 + k tears the write after k bytes.
    let tail = b"\nthird line";
    for tick in 1..=tail.len() as u64 + 1 {
        std::fs::write(&path, b"first").unwrap();
        failpoint::arm_ticks(tick, Mode::Error);
        let err = fs::append(&path, tail).unwrap_err();
        assert!(failpoint::is_crash(&err));
        failpoint::disarm();
        let kept = (tick as usize).saturating_sub(2).min(tail.len());
        let mut want = b"first".to_vec();
        want.extend_from_slice(&tail[..kept]);
        assert_eq!(std::fs::read(&path).unwrap(), want, "tick {tick}");
    }
    failpoint::arm_ticks(tail.len() as u64 + 2, Mode::Error);
    fs::append(&path, tail).unwrap();
    failpoint::disarm();

    // The open is announced: after a crash, no file is created.
    failpoint::arm_op(FailOp::Fsync, 1, Mode::Error);
    assert!(fs::write_atomic(&dir.join("x"), b"x").is_err());
    assert!(fs::append(&dir.join("absent.jsonl"), b"y").is_err());
    failpoint::disarm();
    assert!(!dir.join("absent.jsonl").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_overwrite_tears_at_every_byte_and_a_dead_create_keeps_the_old_file() {
    let _guard = serialize();
    let dir = tmp_dir("file_overwrite");
    let path = dir.join("task.jsonl");
    fs::overwrite(&path, b"old content").unwrap();
    fs::overwrite(&path, b"new").unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), b"new");

    // Tick 1 is the create: a crash there leaves the old file. Past it
    // the file is truncated, and tick 2 + k tears the write after k
    // bytes.
    let bytes = b"rebuilt lines";
    for tick in 1..=bytes.len() as u64 + 1 {
        std::fs::write(&path, b"old content").unwrap();
        failpoint::arm_ticks(tick, Mode::Error);
        let err = fs::overwrite(&path, bytes).unwrap_err();
        assert!(failpoint::is_crash(&err));
        failpoint::disarm();
        let want: &[u8] = match tick {
            1 => b"old content",
            _ => &bytes[..tick as usize - 2],
        };
        assert_eq!(std::fs::read(&path).unwrap(), want, "tick {tick}");
    }
    failpoint::arm_ticks(bytes.len() as u64 + 2, Mode::Error);
    fs::overwrite(&path, bytes).unwrap();
    failpoint::disarm();
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_append_crash_tears_the_tail_and_recovery_truncates_it() {
    let _guard = serialize();
    let dir = tmp_dir("midappend");
    let path = dir.join("task.journal");
    let mut j = Journal::open(&path).unwrap().journal;
    let first = vec![3u8; 64];
    j.append(&first).unwrap();
    let durable_len = j.len();

    // Arm a tick budget that dies inside the second append's write.
    let second = vec![4u8; 128];
    failpoint::arm_ticks(20, Mode::Error);
    let err = j.append(&second).unwrap_err();
    assert!(failpoint::is_crash(&err));
    failpoint::disarm();
    drop(j);
    let torn_len = std::fs::metadata(&path).unwrap().len();
    assert!(
        torn_len > durable_len && torn_len < durable_len + (FRAME_OVERHEAD + second.len()) as u64,
        "the crash must leave a partial frame on disk"
    );

    let opened = Journal::open(&path).unwrap();
    assert_eq!(opened.records, vec![first.clone()]);
    assert!(opened.truncated_bytes > 0);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), durable_len);

    // The recovered journal keeps working.
    let mut j = opened.journal;
    j.append(&second).unwrap();
    drop(j);
    assert_eq!(Journal::read_back(&path).unwrap(), vec![first, second]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn op_failpoints_fire_before_the_named_operation() {
    let _guard = serialize();
    let dir = tmp_dir("opfp");
    let path = dir.join("state.bin");
    fs::write_atomic(&path, b"old").unwrap();

    // Pre-fsync: bytes staged, nothing published.
    failpoint::arm_op(FailOp::Fsync, 1, Mode::Error);
    assert!(fs::write_atomic(&path, b"new").is_err());
    failpoint::disarm();
    assert_eq!(std::fs::read(&path).unwrap(), b"old");

    // Pre-rename: staged + fsynced, still nothing published.
    fs::sweep_tmp(&dir).unwrap();
    failpoint::arm_op(FailOp::Rename, 1, Mode::Error);
    assert!(fs::write_atomic(&path, b"new").is_err());
    failpoint::disarm();
    assert_eq!(std::fs::read(&path).unwrap(), b"old");
    assert_eq!(fs::sweep_tmp(&dir).unwrap(), 1, "one orphaned staging file");

    // After the rename the content is published even if the directory
    // sync never happens.
    failpoint::arm_op(FailOp::DirSync, 1, Mode::Error);
    assert!(fs::write_atomic(&path, b"new").is_err());
    failpoint::disarm();
    assert_eq!(std::fs::read(&path).unwrap(), b"new");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_harness_fails_every_subsequent_operation() {
    let _guard = serialize();
    let dir = tmp_dir("dead");
    failpoint::arm_ticks(1, Mode::Error);
    assert!(fs::write_atomic(&dir.join("a"), b"x").is_err());
    assert!(failpoint::crashed());
    // The "process" is dead: later writes fail without being armed for
    // them specifically.
    assert!(fs::write_atomic(&dir.join("b"), b"y").is_err());
    assert!(Journal::open(&dir.join("c.journal")).is_err());
    failpoint::disarm();
    assert!(fs::write_atomic(&dir.join("b"), b"y").is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_window_fails_boundedly_then_recovers() {
    let _guard = serialize();
    let dir = tmp_dir("transient");
    let path = dir.join("state.bin");
    fs::write_atomic(&path, b"old").unwrap();

    // Fire on the first durable op of the next write, with a window of
    // 3 ops: the write fails (destination keeps the old content, the
    // staging file is cleaned up — the process is alive), and once the
    // window is spent the harness disarms itself.
    failpoint::arm_transient_ticks(1, 3);
    let err = fs::write_atomic(&path, b"new").unwrap_err();
    assert!(
        failpoint::is_transient(&err),
        "transient, not a crash: {err}"
    );
    assert!(!failpoint::is_crash(&err));
    assert!(
        !failpoint::crashed(),
        "a transient window must not mark the harness dead"
    );
    assert_eq!(std::fs::read(&path).unwrap(), b"old");
    assert_eq!(
        fs::sweep_tmp(&dir).unwrap(),
        0,
        "a surviving process cleans its own staging file"
    );

    // write_atomic consumed create(1) + its error; the window still has
    // ops left, so the next attempt fails too...
    let err = fs::write_atomic(&path, b"new").unwrap_err();
    assert!(failpoint::is_transient(&err));
    // ...and after the window is exhausted, writes succeed unaided.
    let mut ok = false;
    for _ in 0..4 {
        if fs::write_atomic(&path, b"new").is_ok() {
            ok = true;
            break;
        }
    }
    assert!(ok, "the window must close on its own");
    assert_eq!(std::fs::read(&path).unwrap(), b"new");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_mid_append_tears_the_tail_and_reopen_heals_it() {
    let _guard = serialize();
    let dir = tmp_dir("transientappend");
    let path = dir.join("task.journal");
    let mut j = Journal::open(&path).unwrap().journal;
    let first = vec![5u8; 64];
    j.append(&first).unwrap();
    let durable_len = j.len();

    // Tear the second append mid-write, transiently (window of one op:
    // the recovery truncate below must run outside the brown-out).
    let second = vec![6u8; 128];
    failpoint::arm_transient_ticks(20, 1);
    let err = j.append(&second).unwrap_err();
    assert!(failpoint::is_transient(&err));
    assert!(!failpoint::crashed());
    drop(j);
    assert!(
        std::fs::metadata(&path).unwrap().len() > durable_len,
        "the torn partial frame is on disk"
    );

    // The degraded caller's recovery move: reopen, which truncates the
    // torn tail back to the durable prefix; appends work again.
    let opened = Journal::open(&path).unwrap();
    assert_eq!(opened.records, vec![first.clone()]);
    assert!(opened.truncated_bytes > 0);
    let mut j = opened.journal;
    j.append(&second).unwrap();
    drop(j);
    assert_eq!(Journal::read_back(&path).unwrap(), vec![first, second]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ticks_advance_even_while_disarmed() {
    let _guard = serialize();
    let dir = tmp_dir("ticks");
    let before = failpoint::ticks();
    fs::write_atomic(&dir.join("t"), &[0u8; 17]).unwrap();
    let spent = failpoint::ticks() - before;
    // create + 17 write bytes + fsync + rename + dirsync.
    assert_eq!(spent, 1 + 17 + 1 + 1 + 1);
    assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    let _ = std::fs::remove_dir_all(&dir);
}
