//! The append-only write-ahead log.
//!
//! ## On-disk format
//!
//! ```text
//! file   := MAGIC record*
//! MAGIC  := "ETWAL" 0x00 0x01 0x0A                 (8 bytes, version 1)
//! record := len:u32le  crc:u32le  type:u8  payload:[u8; len-1]
//! ```
//!
//! `len` counts the type byte plus the payload; `crc` is the IEEE CRC-32 of
//! exactly those `len` bytes. Records are written with a single `write_all`
//! so the common torn-write shape is a truncated tail, not an interleaving.
//!
//! ## Failed appends
//!
//! [`Wal`] tracks the end of its last whole record. An append whose write
//! or fsync fails truncates the file back to that offset and seeks there,
//! so a retried record lands where the failed one began, never behind a
//! torn frame that the next [`Wal::open`] would cut it off at. When the
//! rollback itself fails the log is poisoned: every later append returns
//! an error, and the torn tail is left for [`Wal::open`] to truncate.
//!
//! ## Torn-tail truncation
//!
//! [`Wal::open`] scans the whole file and stops at the first frame that is
//! truncated, oversized, or fails its checksum. Everything before that point
//! is returned as [`WalRecord`]s; everything from it onward is physically
//! truncated away and reported in [`WalOpen::truncated_bytes`]. This is the
//! correct policy for a log whose writer appends one fsynced record per
//! acknowledgement: a bad frame can only be the unacknowledged tail of a
//! crashed write, so dropping it never loses acknowledged data. A bad
//! *header* (wrong magic on a non-empty file) is different — that file was
//! never ours, and open refuses with [`DurableError::Corrupt`] rather than
//! destroy it.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy::Always`] issues `fdatasync` after every append — the
//! durability contract ("acknowledged implies recoverable") requires it.
//! [`FsyncPolicy::Never`] leaves flushing to the OS; crash recovery then
//! only guarantees a *prefix* of acknowledged labels. `bench_json` prices
//! the difference per append (`durable_wal_append_fsync` against
//! `durable_wal_append`).

#![expect(
    clippy::indexing_slicing,
    reason = "every frame slice in the scan is preceded by an explicit length comparison; short or impossible frames end the scan as a torn tail instead of indexing past the buffer"
)]

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::{crc32, DurableError};

/// The 8-byte file header: name, NUL, format version, newline.
pub const WAL_MAGIC: [u8; 8] = *b"ETWAL\x00\x01\x0A";

/// Upper bound on a single record's framed length; anything larger is
/// treated as corruption (a real label batch is a few hundred bytes).
pub const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// When the log forces bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append and snapshot — acknowledged implies
    /// recoverable, even through power loss.
    Always,
    /// Leave flushing to the OS page cache. Fast; a crash may lose a suffix
    /// of acknowledged records.
    Never,
}

impl FsyncPolicy {
    /// Parses the wire/CLI spelling (`"always"` / `"never"`).
    ///
    /// # Errors
    /// A usage message naming the valid spellings.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!("fsync policy must be always|never, got {other:?}")),
        }
    }
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Application-level record type tag.
    pub rec_type: u8,
    /// The record payload.
    pub payload: Vec<u8>,
}

/// The result of [`Wal::open`]: the writable log plus everything legible
/// that was already in it.
#[derive(Debug)]
pub struct WalOpen {
    /// The log, positioned for appending.
    pub wal: Wal,
    /// All valid records, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes discarded from the tail (0 on a clean file).
    pub truncated_bytes: u64,
}

/// An open append-only log file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    /// Byte length of the whole records (header included): where the next
    /// frame starts, and where a failed append rolls back to.
    end: u64,
    /// A failed append could not be rolled back; appends are refused.
    poisoned: bool,
}

/// A failure the unit tests inject into this thread's next append.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
struct Fault {
    /// The append writes this many bytes of its frame, then fails.
    torn_at: usize,
    /// The rollback's truncate fails too.
    truncate_fails: bool,
}

#[cfg(test)]
thread_local! {
    static FAULT: std::cell::Cell<Option<Fault>> = const { std::cell::Cell::new(None) };
}

#[cfg(test)]
impl Fault {
    /// Writes the torn prefix of `frame`, then fails as the disk would.
    fn tear(self, file: &mut File, frame: &[u8]) -> std::io::Result<()> {
        file.write_all(&frame[..self.torn_at.min(frame.len())])?;
        Err(std::io::Error::other("injected torn write"))
    }
}

impl Wal {
    /// Opens (or creates) the log at `path`, validates its contents, and
    /// truncates any torn tail. See the module docs for the exact policy.
    ///
    /// # Errors
    /// [`DurableError::Io`] on filesystem failures; [`DurableError::Corrupt`]
    /// when a non-empty file does not carry the WAL magic.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<WalOpen, DurableError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| DurableError::io("open wal", path, &e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| DurableError::io("read wal", path, &e))?;

        let mut records = Vec::new();
        let mut truncated_bytes = 0u64;
        if bytes.is_empty() {
            // Fresh file: stamp the header.
            file.write_all(&WAL_MAGIC)
                .map_err(|e| DurableError::io("write wal header", path, &e))?;
            if policy == FsyncPolicy::Always {
                file.sync_data()
                    .map_err(|e| DurableError::io("fsync wal header", path, &e))?;
                fsync_parent_dir(path)?;
            }
        } else if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            // A short file could be a torn header from our own crashed
            // create — but so could any other writer's file. Refuse either
            // way; the caller decides whether to delete and restart.
            return Err(DurableError::Corrupt {
                path: path.to_path_buf(),
                offset: 0,
                reason: "missing or wrong WAL magic".to_string(),
            });
        } else {
            let valid_end = scan_records(&bytes, &mut records);
            let total = bytes.len() as u64;
            if valid_end < total {
                truncated_bytes = total - valid_end;
                file.set_len(valid_end)
                    .map_err(|e| DurableError::io("truncate wal tail", path, &e))?;
                if policy == FsyncPolicy::Always {
                    file.sync_data()
                        .map_err(|e| DurableError::io("fsync wal truncate", path, &e))?;
                }
            }
        }
        let end = file
            .seek(SeekFrom::End(0))
            .map_err(|e| DurableError::io("seek wal end", path, &e))?;
        Ok(WalOpen {
            wal: Wal {
                file,
                path: path.to_path_buf(),
                policy,
                end,
                poisoned: false,
            },
            records,
            truncated_bytes,
        })
    }

    /// Appends one record and, under [`FsyncPolicy::Always`], forces it to
    /// stable storage before returning. Only after this returns `Ok` may the
    /// caller acknowledge the data the record carries.
    ///
    /// # Errors
    /// [`DurableError::Io`] when the write or sync fails. The file is then
    /// truncated back to the previous record, so the caller may retry; if
    /// that truncate fails too, this and every later append fail (see the
    /// module docs).
    pub fn append(&mut self, rec_type: u8, payload: &[u8]) -> Result<(), DurableError> {
        if self.poisoned {
            return Err(DurableError::Io {
                op: "append wal record",
                path: self.path.clone(),
                source: "log poisoned: an earlier failed append could not be rolled back"
                    .to_string(),
            });
        }
        let body_len = payload.len() + 1;
        let len = u32::try_from(body_len).map_err(|_| DurableError::Corrupt {
            path: self.path.clone(),
            offset: 0,
            reason: format!("record of {body_len} bytes exceeds u32 framing"),
        })?;
        if len > MAX_RECORD_LEN {
            return Err(DurableError::Corrupt {
                path: self.path.clone(),
                offset: 0,
                reason: format!("record of {body_len} bytes exceeds MAX_RECORD_LEN"),
            });
        }
        let mut frame = Vec::with_capacity(8 + body_len);
        frame.extend_from_slice(&len.to_le_bytes());
        let mut body = Vec::with_capacity(body_len);
        body.push(rec_type);
        body.extend_from_slice(payload);
        frame.extend_from_slice(&crc32::checksum(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        if let Err(e) = self.write_frame(&frame) {
            self.roll_back();
            return Err(DurableError::io("append wal record", &self.path, &e));
        }
        if self.policy == FsyncPolicy::Always {
            if let Err(e) = self.file.sync_data() {
                self.roll_back();
                return Err(DurableError::io("fsync wal append", &self.path, &e));
            }
        }
        self.end += frame.len() as u64;
        Ok(())
    }

    fn write_frame(&mut self, frame: &[u8]) -> std::io::Result<()> {
        #[cfg(test)]
        if let Some(fault) = FAULT.with(std::cell::Cell::get) {
            return fault.tear(&mut self.file, frame);
        }
        self.file.write_all(frame)
    }

    /// Cuts a failed append's bytes off the file and moves the cursor back
    /// to the end of the last whole record; poisons the log when it cannot.
    fn roll_back(&mut self) {
        #[cfg(test)]
        if FAULT
            .with(std::cell::Cell::take)
            .is_some_and(|f| f.truncate_fails)
        {
            self.poisoned = true;
            return;
        }
        let restored = self
            .file
            .set_len(self.end)
            .and_then(|()| self.file.seek(SeekFrom::Start(self.end)));
        if restored.is_err() {
            self.poisoned = true;
        }
    }

    /// Forces any buffered appends to stable storage regardless of policy
    /// (used by eviction flushes under [`FsyncPolicy::Never`]).
    ///
    /// # Errors
    /// [`DurableError::Io`] when the sync fails.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.file
            .sync_data()
            .map_err(|e| DurableError::io("fsync wal", &self.path, &e))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }
}

/// Decodes frames starting after the magic; returns the byte offset of the
/// end of the last valid record (i.e. where any truncation should cut).
fn scan_records(bytes: &[u8], out: &mut Vec<WalRecord>) -> u64 {
    let mut pos = WAL_MAGIC.len();
    loop {
        let start = pos;
        if bytes.len() - pos < 8 {
            return start as u64; // torn length/crc prefix (or clean EOF)
        }
        let mut w = [0u8; 4];
        w.copy_from_slice(&bytes[pos..pos + 4]);
        let len = u32::from_le_bytes(w);
        w.copy_from_slice(&bytes[pos + 4..pos + 8]);
        let crc = u32::from_le_bytes(w);
        if len == 0 || len > MAX_RECORD_LEN {
            return start as u64; // impossible frame ⇒ treat as tail
        }
        let body_len = len as usize;
        if bytes.len() - pos - 8 < body_len {
            return start as u64; // torn body
        }
        let body = &bytes[pos + 8..pos + 8 + body_len];
        if crc32::checksum(body) != crc {
            return start as u64; // checksum mismatch ⇒ torn or corrupt tail
        }
        out.push(WalRecord {
            rec_type: body[0],
            payload: body[1..].to_vec(),
        });
        pos += 8 + body_len;
    }
}

/// Fsyncs the parent directory of `path` so a newly created or renamed file
/// survives power loss. No-op on platforms without directory fds.
pub fn fsync_parent_dir(path: &Path) -> Result<(), DurableError> {
    #[cfg(unix)]
    {
        if let Some(parent) = path.parent() {
            let dir = File::open(parent).map_err(|e| DurableError::io("open dir", parent, &e))?;
            dir.sync_all()
                .map_err(|e| DurableError::io("fsync dir", parent, &e))?;
        }
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "et-durable-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        p
    }

    fn append_n(path: &Path, n: u8) {
        let mut open = Wal::open(path, FsyncPolicy::Never).expect("open");
        for i in 0..n {
            open.wal
                .append(1, &[i, i.wrapping_mul(3), 0xAB])
                .expect("append");
        }
    }

    #[test]
    fn round_trip_and_reopen() {
        let path = temp_path("roundtrip");
        let _ = fs::remove_file(&path);
        append_n(&path, 5);
        let open = Wal::open(&path, FsyncPolicy::Always).expect("reopen");
        assert_eq!(open.truncated_bytes, 0);
        assert_eq!(open.records.len(), 5);
        assert_eq!(open.records[2].payload, vec![2, 6, 0xAB]);
        assert!(open.records.iter().all(|r| r.rec_type == 1));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut() {
        let path = temp_path("torn");
        let _ = fs::remove_file(&path);
        append_n(&path, 3);
        let full = fs::read(&path).expect("read");
        // Cut the file at every possible byte boundary inside the last
        // record; the first two records must always survive.
        let record_len = (full.len() - WAL_MAGIC.len()) / 3;
        let last_start = full.len() - record_len;
        for cut in last_start..full.len() {
            fs::write(&path, &full[..cut]).expect("write cut");
            let open = Wal::open(&path, FsyncPolicy::Never).expect("open cut");
            assert_eq!(open.records.len(), 2, "cut at {cut}");
            assert_eq!(open.truncated_bytes, (cut - last_start) as u64);
            assert_eq!(
                fs::metadata(&path).expect("meta").len(),
                last_start as u64,
                "file physically truncated at {cut}"
            );
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_byte_truncates_from_there() {
        let path = temp_path("corrupt");
        let _ = fs::remove_file(&path);
        append_n(&path, 3);
        let mut bytes = fs::read(&path).expect("read");
        let record_len = (bytes.len() - WAL_MAGIC.len()) / 3;
        // Flip a payload byte inside record #2 (index 1).
        let idx = WAL_MAGIC.len() + record_len + 9;
        bytes[idx] ^= 0xFF;
        fs::write(&path, &bytes).expect("write");
        let open = Wal::open(&path, FsyncPolicy::Never).expect("open");
        assert_eq!(open.records.len(), 1, "only the record before the flip");
        assert_eq!(open.truncated_bytes, 2 * record_len as u64);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn foreign_file_is_refused_not_destroyed() {
        let path = temp_path("foreign");
        fs::write(&path, b"definitely not a wal file").expect("write");
        let err = Wal::open(&path, FsyncPolicy::Never);
        assert!(matches!(err, Err(DurableError::Corrupt { .. })));
        assert_eq!(
            fs::read(&path).expect("read"),
            b"definitely not a wal file".to_vec(),
            "refusal must not modify the file"
        );
        let _ = fs::remove_file(&path);
    }

    /// A torn append is rolled back, so the retried record is the one the
    /// next open reads, with nothing truncated.
    #[test]
    fn failed_append_rolls_back_so_a_retry_survives_reopen() {
        let path = temp_path("rollback");
        let _ = fs::remove_file(&path);
        append_n(&path, 2);
        let before = fs::metadata(&path).expect("meta").len();
        let mut open = Wal::open(&path, FsyncPolicy::Always).expect("open");
        FAULT.with(|f| {
            f.set(Some(Fault {
                torn_at: 6,
                truncate_fails: false,
            }));
        });
        assert!(open.wal.append(2, b"acknowledged-on-retry").is_err());
        assert_eq!(fs::metadata(&path).expect("meta").len(), before);
        open.wal.append(2, b"acknowledged-on-retry").expect("retry");
        drop(open);
        let reopened = Wal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert_eq!(reopened.truncated_bytes, 0);
        assert_eq!(reopened.records.len(), 3);
        assert_eq!(
            reopened.records[2].payload,
            b"acknowledged-on-retry".to_vec()
        );
        let _ = fs::remove_file(&path);
    }

    /// When the rollback cannot truncate, the log refuses every later
    /// append; the next open cuts the torn tail and keeps the rest.
    #[test]
    fn failed_rollback_poisons_the_log() {
        let path = temp_path("poison");
        let _ = fs::remove_file(&path);
        append_n(&path, 2);
        let mut open = Wal::open(&path, FsyncPolicy::Never).expect("open");
        FAULT.with(|f| {
            f.set(Some(Fault {
                torn_at: 6,
                truncate_fails: true,
            }));
        });
        assert!(open.wal.append(2, b"lost").is_err());
        assert!(open.wal.append(2, b"refused").is_err());
        drop(open);
        let reopened = Wal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert_eq!(reopened.truncated_bytes, 6);
        assert_eq!(reopened.records.len(), 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn appends_after_truncated_reopen_continue_cleanly() {
        let path = temp_path("continue");
        let _ = fs::remove_file(&path);
        append_n(&path, 2);
        // Tear the tail by hand.
        let full = fs::read(&path).expect("read");
        fs::write(&path, &full[..full.len() - 3]).expect("tear");
        let mut open = Wal::open(&path, FsyncPolicy::Never).expect("open");
        assert_eq!(open.records.len(), 1);
        open.wal.append(2, b"after-recovery").expect("append");
        drop(open);
        let reopened = Wal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert_eq!(reopened.records.len(), 2);
        assert_eq!(reopened.records[1].rec_type, 2);
        assert_eq!(reopened.records[1].payload, b"after-recovery".to_vec());
        let _ = fs::remove_file(&path);
    }
}
