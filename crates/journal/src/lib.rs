//! Crash-safe durability substrate for long-running campaigns.
//!
//! This crate is the load-bearing layer under the campaign orchestrator
//! (and the future `campaignd` service, ROADMAP item 3): everything a
//! campaign persists flows through an **audited write path** ([`fs`]),
//! and every task's life is recorded in an **append-only, checksummed
//! event journal** ([`Journal`]) whose replay reconstructs the exact
//! state the orchestrator held at the last durable record. A
//! deterministic **fault-injection harness** ([`failpoint`]) can kill
//! the run at any byte of any write — the crash-recovery proptests and
//! the CI `kill-smoke` job drive it to prove that every injected crash
//! point resumes to outputs byte-identical to an uninterrupted run
//! (Contract 10, DESIGN.md §9).
//!
//! ## Journal format
//!
//! A journal segment is a single file:
//!
//! ```text
//! [8-byte magic "CVJL0001"]
//! [u32 len | u32 crc32(payload) | payload]   — record 0
//! [u32 len | u32 crc32(payload) | payload]   — record 1
//! ...
//! ```
//!
//! Appends write one frame and `fsync`. On open, the segment is scanned
//! front to back; the first frame that is incomplete or fails its CRC
//! marks the **torn tail**, which is truncated away — everything before
//! it is the durable prefix, everything after it never happened.
//! [`Journal::rotate`] atomically replaces the segment (staged tmp +
//! fsync + rename + directory sync) with a compacted set of records, so
//! a journal never grows without bound and rotation can never lose the
//! previous durable state to a crash.
//!
//! Payloads are opaque bytes: the campaign layer encodes its own events
//! (task started / checkpoint of the work since the last one /
//! completed) through the `cv_synth::ckpt` codec and folds them into
//! orchestrator state.

#![deny(missing_docs)]

pub mod failpoint;
pub mod fs;

use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::path::{Path, PathBuf};

/// Magic bytes opening every journal segment.
pub const JOURNAL_MAGIC: &[u8; 8] = b"CVJL0001";

/// Bytes of framing overhead per record (length + checksum).
pub const FRAME_OVERHEAD: usize = 8;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, dependency-free.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// The CRC-32 (IEEE) checksum of `bytes` — the per-record integrity
/// check that makes torn journal tails detectable.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

/// An open append-only journal segment (see the crate docs for the
/// format and recovery discipline).
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    len: u64,
}

/// The outcome of opening a journal: the handle plus the decoded
/// durable records and what recovery had to do to get them.
#[derive(Debug)]
pub struct Opened {
    /// The journal, positioned for appends.
    pub journal: Journal,
    /// Every durable record's payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of torn tail (or mid-file corruption) truncated away; `0`
    /// for a clean segment.
    pub truncated_bytes: u64,
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(&crc32(payload).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

impl Journal {
    fn append_handle(path: &Path) -> io::Result<File> {
        OpenOptions::new().read(true).append(true).open(path)
    }

    /// Opens (or creates) the journal at `path`, scanning the segment
    /// and truncating any torn tail so the returned records are exactly
    /// the durable prefix.
    ///
    /// A file that does not even carry the journal magic (pre-journal
    /// garbage or a torn segment rotation on a filesystem without
    /// atomic rename) is reset to an empty segment — recovery never
    /// panics on corrupt input; callers fall back to their checkpoint.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures and injected crashes only; corruption is
    /// recovered, not reported.
    pub fn open(path: &Path) -> io::Result<Opened> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // Fresh segment: magic, durably published.
                let mut f = fs::create(path)?;
                fs::write_all(&mut f, JOURNAL_MAGIC)?;
                fs::sync(&f)?;
                drop(f);
                fs::sync_parent_dir(path)?;
                return Ok(Opened {
                    journal: Journal {
                        file: Self::append_handle(path)?,
                        path: path.to_path_buf(),
                        len: JOURNAL_MAGIC.len() as u64,
                    },
                    records: Vec::new(),
                    truncated_bytes: 0,
                });
            }
            Err(e) => return Err(e),
        };

        if bytes.len() < JOURNAL_MAGIC.len() || &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            // Not a journal segment at all: reset to empty rather than
            // trusting (or panicking on) foreign bytes.
            fs::write_atomic(path, JOURNAL_MAGIC)?;
            return Ok(Opened {
                journal: Journal {
                    file: Self::append_handle(path)?,
                    path: path.to_path_buf(),
                    len: JOURNAL_MAGIC.len() as u64,
                },
                records: Vec::new(),
                truncated_bytes: bytes.len() as u64,
            });
        }

        let mut records = Vec::new();
        let mut pos = JOURNAL_MAGIC.len();
        loop {
            let rest = bytes.len() - pos;
            if rest == 0 {
                break;
            }
            if rest < FRAME_OVERHEAD {
                break; // torn frame header
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4")) as usize;
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4"));
            if rest - FRAME_OVERHEAD < len {
                break; // torn payload
            }
            let payload = &bytes[pos + FRAME_OVERHEAD..pos + FRAME_OVERHEAD + len];
            if crc32(payload) != crc {
                break; // corrupt record: distrust it and everything after
            }
            records.push(payload.to_vec());
            pos += FRAME_OVERHEAD + len;
        }

        let truncated_bytes = (bytes.len() - pos) as u64;
        let file = Self::append_handle(path)?;
        if truncated_bytes > 0 {
            fs::truncate(&file, pos as u64)?;
            fs::sync(&file)?;
        }
        Ok(Opened {
            journal: Journal {
                file,
                path: path.to_path_buf(),
                len: pos as u64,
            },
            records,
            truncated_bytes,
        })
    }

    /// Appends one record and makes it durable (single write + fsync).
    ///
    /// # Errors
    ///
    /// Underlying I/O failures and injected crashes; on error the
    /// on-disk tail may be torn, which the next [`Journal::open`]
    /// truncates away.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let bytes = frame(payload);
        fs::write_all(&mut self.file, &bytes)?;
        fs::sync(&self.file)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Atomically replaces the whole segment with `payloads` (staged
    /// tmp + fsync + rename + directory sync) — compaction for a
    /// journal that would otherwise grow without bound. A crash leaves
    /// either the old segment or the complete new one.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures and injected crashes.
    pub fn rotate(self, payloads: &[&[u8]]) -> io::Result<Journal> {
        let mut bytes = Vec::from(JOURNAL_MAGIC.as_slice());
        for p in payloads {
            bytes.extend_from_slice(&frame(p));
        }
        let path = self.path.clone();
        drop(self); // release the handle before replacing the file
        fs::write_atomic(&path, &bytes)?;
        Ok(Journal {
            file: Self::append_handle(&path)?,
            len: bytes.len() as u64,
            path,
        })
    }

    /// The segment's durable length in bytes (header + intact frames).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.len <= JOURNAL_MAGIC.len() as u64
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Re-reads and re-scans the segment from disk (test/debug aid):
    /// the records a fresh recovery would see, without touching the
    /// file.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    pub fn read_back(path: &Path) -> io::Result<Vec<Vec<u8>>> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let mut records = Vec::new();
        let mut pos = JOURNAL_MAGIC.len().min(bytes.len());
        if bytes.len() < JOURNAL_MAGIC.len() || &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Ok(records);
        }
        while bytes.len() - pos >= FRAME_OVERHEAD {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4")) as usize;
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4"));
            if bytes.len() - pos - FRAME_OVERHEAD < len {
                break;
            }
            let payload = &bytes[pos + FRAME_OVERHEAD..pos + FRAME_OVERHEAD + len];
            if crc32(payload) != crc {
                break;
            }
            records.push(payload.to_vec());
            pos += FRAME_OVERHEAD + len;
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }
}
