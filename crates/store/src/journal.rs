//! The write-ahead job journal.
//!
//! An append-only file of job state transitions, fsynced on every
//! append so that an acknowledgement sent over the wire is always backed
//! by durable bytes. The file layout:
//!
//! ```text
//! header   magic b"SLIFJRNL" (8) | version u32 LE (currently 1)
//! record*  len u32 LE | crc u64 LE | id u64 LE | kind u8 | payload
//! ```
//!
//! `len` counts everything after itself (crc through payload); `crc` is
//! FNV-1a 64 over `id | kind | payload`. Record kinds: `1` Accepted
//! (payload = the re-runnable request bytes), `2` Completed (payload =
//! status `u16` LE + result body), `3` Cancelled (empty payload).
//!
//! # Recovery
//!
//! [`Journal::open`] scans the file front to back and classifies every
//! prefix of bytes exactly one way:
//!
//! * a bad or stale **header** quarantines the *whole file* (renamed to
//!   `<name>.corrupt`) and starts fresh — a version this build does not
//!   read cannot be partially trusted;
//! * the first torn, oversized, or CRC-failing **record** truncates the
//!   journal at that record's start; the damaged tail goes to the
//!   `.corrupt` sidecar. Everything before it — the acknowledged
//!   prefix — replays normally. A record is only acknowledged after its
//!   fsync returns, so a real torn write can cost at most the final,
//!   unacknowledged record;
//! * a clean end-of-file replays everything.
//!
//! No input byte sequence panics, and no corrupt record is ever
//! replayed.

use crate::error::StoreError;
use slif_core::atomic_io::{self, fnv1a, le_u32, le_u64};
use slif_core::codec::{Dec, Enc};
use std::collections::HashSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The 8-byte journal file magic.
pub const JOURNAL_MAGIC: [u8; 8] = *b"SLIFJRNL";
/// The current (and only) journal format version.
pub const JOURNAL_VERSION: u32 = 1;
const HEADER_LEN: usize = 12;
/// Fixed bytes of a record body before the payload: crc + id + kind.
const RECORD_FIXED: usize = 8 + 8 + 1;
/// Upper bound on a single record, as a corruption tripwire: a declared
/// length past this is treated as damage, not as an allocation request.
pub const MAX_RECORD_BYTES: usize = 16 * 1024 * 1024;

/// One journal state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobRecord {
    /// A job was admitted; `payload` holds the re-runnable request.
    Accepted {
        /// The durable job id.
        id: u64,
        /// Opaque request bytes (enough to re-run the job on recovery).
        payload: Vec<u8>,
    },
    /// A job reached a terminal result.
    Completed {
        /// The durable job id.
        id: u64,
        /// The wire status the result was (or will be) served with.
        status: u16,
        /// The result body.
        body: Vec<u8>,
    },
    /// A job was cancelled (shutdown, drain, or admission rollback).
    Cancelled {
        /// The durable job id.
        id: u64,
    },
}

impl JobRecord {
    /// The job id the record concerns.
    pub fn id(&self) -> u64 {
        match self {
            Self::Accepted { id, .. } | Self::Completed { id, .. } | Self::Cancelled { id } => *id,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        match self {
            Self::Accepted { id, payload } => {
                e.u64(*id);
                e.u8(1);
                e.buf.extend_from_slice(payload);
            }
            Self::Completed { id, status, body } => {
                e.u64(*id);
                e.u8(2);
                e.u16(*status);
                e.buf.extend_from_slice(body);
            }
            Self::Cancelled { id } => {
                e.u64(*id);
                e.u8(3);
            }
        }
        e.buf
    }

    /// Decodes the `id | kind | payload` tail of a record body.
    fn decode(body: &[u8]) -> Result<Self, StoreError> {
        let mut d = Dec::new(body);
        let id = d.u64("record id")?;
        let kind = d.u8("record kind")?;
        let rest = d.take(body.len() - 9, "record payload")?;
        match kind {
            1 => Ok(Self::Accepted {
                id,
                payload: rest.to_vec(),
            }),
            2 => {
                let mut p = Dec::new(rest);
                let status = p.u16("completed status")?;
                let b = p.take(rest.len() - 2, "completed body")?;
                Ok(Self::Completed {
                    id,
                    status,
                    body: b.to_vec(),
                })
            }
            3 => {
                if !rest.is_empty() {
                    return Err(StoreError::Corrupt {
                        context: "cancelled payload",
                    });
                }
                Ok(Self::Cancelled { id })
            }
            _ => Err(StoreError::Corrupt {
                context: "record kind",
            }),
        }
    }
}

/// A job that was accepted but never reached a terminal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingJob {
    /// The durable job id.
    pub id: u64,
    /// The request bytes journaled at acceptance.
    pub payload: Vec<u8>,
}

/// What [`Journal::open`] found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact records replayed.
    pub records_replayed: u64,
    /// Byte offset of the first damaged record, if the file was
    /// truncated there.
    pub truncated_at: Option<u64>,
    /// Bytes quarantined to the `.corrupt` sidecar (damaged tail or
    /// whole file).
    pub quarantined_bytes: u64,
    /// The whole file was quarantined for a bad or stale header.
    pub header_quarantined: bool,
    /// Jobs accepted but never terminal, in acceptance order — the
    /// recovery pass re-enqueues these.
    pub pending: Vec<PendingJob>,
    /// Terminal results: `(id, status, body)`.
    pub done: Vec<(u64, u16, Vec<u8>)>,
    /// Cancelled job ids.
    pub cancelled: Vec<u64>,
    /// One past the highest id seen (safe next id to allocate).
    pub next_id: u64,
}

/// An open, append-only job journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: fs::File,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, running the
    /// recovery scan described in the module docs.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the file cannot be read, created, repaired,
    /// or quarantined. Corruption of journal *content* is never an
    /// error — it is truncated, quarantined, and reported.
    pub fn open(path: &Path) -> Result<(Self, RecoveryReport), StoreError> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, &e))?;
        }
        let mut report = RecoveryReport::default();
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(StoreError::io(path, &e)),
        };

        let fresh = |path: &Path| -> Result<(), StoreError> {
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(&JOURNAL_MAGIC);
            header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
            atomic_io::write_atomic(path, &header).map_err(|e| StoreError::io(path, &e))
        };

        if bytes.is_empty() {
            fresh(path)?;
        } else if bytes.len() < HEADER_LEN
            || bytes[..8] != JOURNAL_MAGIC
            || le_u32(&bytes[8..12]) != JOURNAL_VERSION
        {
            // A header this build cannot vouch for poisons every byte
            // after it: quarantine the whole file and start fresh.
            Self::quarantine_whole(path, bytes.len() as u64, &mut report)?;
            fresh(path)?;
        } else {
            Self::scan(path, &bytes, &mut report)?;
        }

        let file = fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| StoreError::io(path, &e))?;
        Ok((
            Self {
                path: path.to_path_buf(),
                file,
            },
            report,
        ))
    }

    /// Appends a record and fsyncs it. Only after this returns may the
    /// transition it records be acknowledged to anyone.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the write or fsync fails,
    /// [`StoreError::RecordTooLarge`] past [`MAX_RECORD_BYTES`].
    pub fn append(&mut self, record: &JobRecord) -> Result<(), StoreError> {
        let body = record.encode();
        if body.len() > MAX_RECORD_BYTES {
            return Err(StoreError::RecordTooLarge { bytes: body.len() });
        }
        let mut framed = Vec::with_capacity(4 + 8 + body.len());
        framed.extend_from_slice(&(body.len() as u32 + 8).to_le_bytes());
        framed.extend_from_slice(&fnv1a(&body).to_le_bytes());
        framed.extend_from_slice(&body);
        self.file
            .write_all(&framed)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| StoreError::io(&self.path, &e))
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn sidecar(path: &Path) -> PathBuf {
        let mut name = path.as_os_str().to_os_string();
        name.push(".corrupt");
        PathBuf::from(name)
    }

    fn quarantine_whole(
        path: &Path,
        len: u64,
        report: &mut RecoveryReport,
    ) -> Result<(), StoreError> {
        let sidecar = Self::sidecar(path);
        fs::rename(path, &sidecar).map_err(|e| StoreError::io(path, &e))?;
        report.header_quarantined = true;
        report.quarantined_bytes = len;
        Ok(())
    }

    /// Walks the records after a verified header, truncating at the
    /// first damage.
    fn scan(path: &Path, bytes: &[u8], report: &mut RecoveryReport) -> Result<(), StoreError> {
        let mut off = HEADER_LEN;
        let mut accepted: Vec<PendingJob> = Vec::new();
        let mut terminal: HashSet<u64> = HashSet::new();
        let mut damage = None;
        while off < bytes.len() {
            let rest = &bytes[off..];
            if rest.len() < 4 {
                damage = Some(off);
                break;
            }
            let len = le_u32(&rest[..4]) as usize;
            if !(RECORD_FIXED..=MAX_RECORD_BYTES + 8).contains(&len) || rest.len() < 4 + len {
                damage = Some(off);
                break;
            }
            let crc = le_u64(&rest[4..12]);
            let body = &rest[12..4 + len];
            if fnv1a(body) != crc {
                damage = Some(off);
                break;
            }
            let record = match JobRecord::decode(body) {
                Ok(r) => r,
                Err(_) => {
                    damage = Some(off);
                    break;
                }
            };
            report.records_replayed += 1;
            report.next_id = report.next_id.max(record.id() + 1);
            match record {
                JobRecord::Accepted { id, payload } => {
                    if !terminal.contains(&id) && !accepted.iter().any(|p| p.id == id) {
                        accepted.push(PendingJob { id, payload });
                    }
                }
                JobRecord::Completed { id, status, body } => {
                    terminal.insert(id);
                    report.done.push((id, status, body));
                }
                JobRecord::Cancelled { id } => {
                    terminal.insert(id);
                    report.cancelled.push(id);
                }
            }
            off += 4 + len;
        }
        if let Some(at) = damage {
            let tail = &bytes[at..];
            report.truncated_at = Some(at as u64);
            report.quarantined_bytes = tail.len() as u64;
            atomic_io::write_atomic(&Self::sidecar(path), tail)
                .map_err(|e| StoreError::io(path, &e))?;
            let file = fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| StoreError::io(path, &e))?;
            file.set_len(at as u64)
                .and_then(|()| file.sync_all())
                .map_err(|e| StoreError::io(path, &e))?;
        }
        report.pending = accepted
            .into_iter()
            .filter(|p| !terminal.contains(&p.id))
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "slif-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir.join("jobs.journal")
    }

    fn cleanup(path: &Path) {
        if let Some(dir) = path.parent() {
            let _ = fs::remove_dir_all(dir);
        }
    }

    fn sample_records() -> Vec<JobRecord> {
        vec![
            JobRecord::Accepted {
                id: 1,
                payload: b"estimate spec-a".to_vec(),
            },
            JobRecord::Completed {
                id: 1,
                status: 200,
                body: b"result body one".to_vec(),
            },
            JobRecord::Accepted {
                id: 2,
                payload: b"explore spec-b with a longer payload".to_vec(),
            },
            JobRecord::Accepted {
                id: 3,
                payload: b"analyze spec-c".to_vec(),
            },
            JobRecord::Cancelled { id: 3 },
        ]
    }

    fn written_file(path: &Path) -> Vec<u8> {
        let (mut j, report) = Journal::open(path).unwrap();
        assert_eq!(report, RecoveryReport::default());
        for r in sample_records() {
            j.append(&r).unwrap();
        }
        drop(j);
        fs::read(path).unwrap()
    }

    #[test]
    fn replay_classifies_every_job() {
        let path = temp_path("replay");
        let _ = written_file(&path);
        let (_, report) = Journal::open(&path).unwrap();
        assert_eq!(report.records_replayed, 5);
        assert_eq!(report.truncated_at, None);
        assert!(!report.header_quarantined);
        assert_eq!(report.pending.len(), 1);
        assert_eq!(report.pending[0].id, 2);
        assert_eq!(report.pending[0].payload, b"explore spec-b with a longer payload");
        assert_eq!(report.done, vec![(1, 200, b"result body one".to_vec())]);
        assert_eq!(report.cancelled, vec![3]);
        assert_eq!(report.next_id, 4);
        cleanup(&path);
    }

    #[test]
    fn kill_at_every_byte_offset_recovers_exactly_the_written_prefix() {
        let scratch = temp_path("every-offset");
        let full = written_file(&scratch);
        cleanup(&scratch);

        // Record boundaries: offsets at which a prefix is "clean".
        let mut boundaries = vec![HEADER_LEN];
        let mut off = HEADER_LEN;
        while off < full.len() {
            let len = le_u32(&full[off..off + 4]) as usize;
            off += 4 + len;
            boundaries.push(off);
        }

        let path = temp_path("every-offset-run");
        for cut in 0..=full.len() {
            cleanup(&path);
            if let Some(dir) = path.parent() {
                fs::create_dir_all(dir).unwrap();
            }
            fs::write(&path, &full[..cut]).unwrap();
            let (mut j, report) = Journal::open(&path).unwrap();
            if cut == 0 {
                // Empty file: fresh start, nothing quarantined.
                assert_eq!(report, RecoveryReport::default(), "cut {cut}");
            } else if cut < HEADER_LEN {
                assert!(report.header_quarantined, "cut {cut}");
                assert_eq!(report.records_replayed, 0, "cut {cut}");
            } else {
                // Exactly the fully-written records replay.
                let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
                assert_eq!(report.records_replayed, complete as u64, "cut {cut}");
                let clean = boundaries.contains(&cut);
                assert_eq!(report.truncated_at.is_none(), clean, "cut {cut}");
                if !clean {
                    let at = *boundaries.iter().filter(|&&b| b <= cut).max().unwrap();
                    assert_eq!(report.truncated_at, Some(at as u64), "cut {cut}");
                    assert_eq!(report.quarantined_bytes, (cut - at) as u64, "cut {cut}");
                }
            }
            // The repaired journal is append-clean: a new record lands and
            // a further reopen finds no damage.
            j.append(&JobRecord::Cancelled { id: 99 }).unwrap();
            drop(j);
            let (_, again) = Journal::open(&path).unwrap();
            assert_eq!(again.truncated_at, None, "cut {cut} left damage behind");
            assert!(!again.header_quarantined, "cut {cut}");
            assert!(again.cancelled.contains(&99), "cut {cut}");
        }
        cleanup(&path);
    }

    #[test]
    fn bit_flip_truncates_at_the_damaged_record() {
        let path = temp_path("bitflip");
        let full = written_file(&path);
        // Flip a bit inside the second record's body.
        let first_len = le_u32(&full[HEADER_LEN..HEADER_LEN + 4]) as usize;
        let second_start = HEADER_LEN + 4 + first_len;
        let mut bad = full.clone();
        bad[second_start + 20] ^= 0x10;
        fs::write(&path, &bad).unwrap();
        let (_, report) = Journal::open(&path).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(report.truncated_at, Some(second_start as u64));
        // The sidecar holds the damaged tail bit-for-bit.
        let sidecar = fs::read(Journal::sidecar(&path)).unwrap();
        assert_eq!(sidecar, &bad[second_start..]);
        // The journal itself was truncated to the intact prefix.
        assert_eq!(fs::read(&path).unwrap(), &full[..second_start]);
        cleanup(&path);
    }

    #[test]
    fn stale_version_quarantines_the_whole_file() {
        let path = temp_path("stale");
        let full = written_file(&path);
        let mut bad = full.clone();
        bad[8..12].copy_from_slice(&7u32.to_le_bytes());
        fs::write(&path, &bad).unwrap();
        let (_, report) = Journal::open(&path).unwrap();
        assert!(report.header_quarantined);
        assert_eq!(report.records_replayed, 0);
        assert_eq!(report.quarantined_bytes, bad.len() as u64);
        assert_eq!(fs::read(Journal::sidecar(&path)).unwrap(), bad);
        // The replacement journal is a bare, valid header.
        let (_, again) = Journal::open(&path).unwrap();
        assert_eq!(again, RecoveryReport::default());
        cleanup(&path);
    }

    #[test]
    fn oversized_declared_length_is_damage_not_allocation() {
        let path = temp_path("oversize");
        let full = written_file(&path);
        let mut bad = full[..HEADER_LEN].to_vec();
        bad.extend_from_slice(&(u32::MAX).to_le_bytes());
        bad.extend_from_slice(&full[HEADER_LEN + 4..HEADER_LEN + 40]);
        fs::write(&path, &bad).unwrap();
        let (_, report) = Journal::open(&path).unwrap();
        assert_eq!(report.records_replayed, 0);
        assert_eq!(report.truncated_at, Some(HEADER_LEN as u64));
        cleanup(&path);
    }

    #[test]
    fn append_rejects_oversized_records() {
        let path = temp_path("toolarge");
        let (mut j, _) = Journal::open(&path).unwrap();
        let err = j
            .append(&JobRecord::Accepted {
                id: 1,
                payload: vec![0; MAX_RECORD_BYTES + 1],
            })
            .unwrap_err();
        assert!(matches!(err, StoreError::RecordTooLarge { .. }));
        cleanup(&path);
    }

    #[test]
    fn duplicate_accepted_and_out_of_order_terminals_are_tolerated() {
        let path = temp_path("dupes");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&JobRecord::Accepted {
            id: 5,
            payload: b"x".to_vec(),
        })
        .unwrap();
        j.append(&JobRecord::Accepted {
            id: 5,
            payload: b"y".to_vec(),
        })
        .unwrap();
        j.append(&JobRecord::Cancelled { id: 8 }).unwrap();
        drop(j);
        let (_, report) = Journal::open(&path).unwrap();
        assert_eq!(report.pending.len(), 1);
        assert_eq!(report.pending[0].payload, b"x");
        assert_eq!(report.next_id, 9);
        cleanup(&path);
    }
}
