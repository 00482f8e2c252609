//! Atomic, checksum-verified snapshot blobs.
//!
//! ## On-disk format
//!
//! ```text
//! file  := MAGIC crc:u32le len:u64le payload:[u8; len]
//! MAGIC := "ETSNAP" 0x00 0x01                        (8 bytes, version 1)
//! ```
//!
//! ## Atomicity
//!
//! [`write_atomic`] writes to `.<name>.tmp` in the same directory, fsyncs
//! the file, renames it over the final name, and fsyncs the directory. A
//! crash at any point leaves either the old state or the new one — never a
//! half-written snapshot under the final name. Readers validate magic,
//! length, and CRC, so even a snapshot torn by filesystem misbehavior is
//! *detected* and the caller can fall back to an older snapshot plus a
//! longer WAL replay.
//!
//! ## Naming
//!
//! Session snapshots are named `snap-<t:020>.bin` so lexicographic order is
//! numeric order. [`list`] collects and sorts entries newest-first rather
//! than trusting `read_dir` iteration order, which is platform-dependent
//! (et-lint L11 treats directory order as a nondeterminism source).

#![expect(
    clippy::indexing_slicing,
    reason = "header slices are guarded by an explicit minimum-length check that returns a typed Corrupt error; payload bounds are validated against the recorded length"
)]

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::wal::fsync_parent_dir;
use crate::{crc32, DurableError};

/// The 8-byte snapshot header: name, NUL, format version.
pub const SNAP_MAGIC: [u8; 8] = *b"ETSNAP\x00\x01";

/// The filename for the snapshot taken at round `t`.
pub fn file_name(t: u64) -> String {
    format!("snap-{t:020}.bin")
}

/// Parses a [`file_name`]-shaped filename back to its round, or `None` for
/// any other file.
pub fn parse_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snap-")?.strip_suffix(".bin")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Writes `payload` to `dir/name` atomically (tmp + fsync + rename + dir
/// fsync when `sync` is set), returning the final path.
///
/// # Errors
/// [`DurableError::Io`] on any filesystem failure; the final name is never
/// left half-written.
pub fn write_atomic(
    dir: &Path,
    name: &str,
    payload: &[u8],
    sync: bool,
) -> Result<PathBuf, DurableError> {
    let final_path = dir.join(name);
    let tmp_path = dir.join(format!(".{name}.tmp"));
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(|e| DurableError::io("create snapshot tmp", &tmp_path, &e))?;
        let mut header = Vec::with_capacity(SNAP_MAGIC.len() + 12);
        header.extend_from_slice(&SNAP_MAGIC);
        header.extend_from_slice(&crc32::checksum(payload).to_le_bytes());
        header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        f.write_all(&header)
            .map_err(|e| DurableError::io("write snapshot header", &tmp_path, &e))?;
        f.write_all(payload)
            .map_err(|e| DurableError::io("write snapshot payload", &tmp_path, &e))?;
        if sync {
            f.sync_data()
                .map_err(|e| DurableError::io("fsync snapshot", &tmp_path, &e))?;
        }
    }
    fs::rename(&tmp_path, &final_path)
        .map_err(|e| DurableError::io("rename snapshot", &final_path, &e))?;
    if sync {
        fsync_parent_dir(&final_path)?;
    }
    Ok(final_path)
}

/// Reads and validates a snapshot written by [`write_atomic`], returning
/// its payload.
///
/// # Errors
/// [`DurableError::Io`] on filesystem failures; [`DurableError::Corrupt`]
/// when magic, length, or checksum do not validate — the caller should fall
/// back to an older snapshot.
pub fn read(path: &Path) -> Result<Vec<u8>, DurableError> {
    let mut f = File::open(path).map_err(|e| DurableError::io("open snapshot", path, &e))?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)
        .map_err(|e| DurableError::io("read snapshot", path, &e))?;
    let corrupt = |offset: u64, reason: &str| DurableError::Corrupt {
        path: path.to_path_buf(),
        offset,
        reason: reason.to_string(),
    };
    if bytes.len() < SNAP_MAGIC.len() + 12 {
        return Err(corrupt(0, "snapshot shorter than header"));
    }
    if bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err(corrupt(0, "missing or wrong snapshot magic"));
    }
    let mut w4 = [0u8; 4];
    w4.copy_from_slice(&bytes[8..12]);
    let crc = u32::from_le_bytes(w4);
    let mut w8 = [0u8; 8];
    w8.copy_from_slice(&bytes[12..20]);
    let len = u64::from_le_bytes(w8);
    let payload = &bytes[20..];
    if payload.len() as u64 != len {
        return Err(corrupt(12, "snapshot length mismatch"));
    }
    if crc32::checksum(payload) != crc {
        return Err(corrupt(8, "snapshot checksum mismatch"));
    }
    Ok(payload.to_vec())
}

/// Lists the snapshots in `dir`, newest (highest `t`) first. Non-snapshot
/// files are ignored; entries are sorted explicitly because `read_dir`
/// order is platform-dependent.
///
/// # Errors
/// [`DurableError::Io`] when the directory cannot be read.
pub fn list(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurableError> {
    let rd = fs::read_dir(dir).map_err(|e| DurableError::io("read snapshot dir", dir, &e))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| DurableError::io("read snapshot dir entry", dir, &e))?;
        let name = entry.file_name();
        if let Some(t) = name.to_str().and_then(parse_file_name) {
            out.push((t, entry.path()));
        }
    }
    out.sort_by_key(|&(t, _)| std::cmp::Reverse(t));
    Ok(out)
}

/// Deletes all snapshots in `dir` strictly older than round `keep_from`
/// (retention after a newer snapshot lands). Errors on individual unlinks
/// are returned after attempting every candidate.
///
/// # Errors
/// [`DurableError::Io`] from listing or from the last failed unlink.
pub fn prune_older_than(dir: &Path, keep_from: u64) -> Result<usize, DurableError> {
    let mut removed = 0usize;
    let mut last_err = None;
    for (t, path) in list(dir)? {
        if t < keep_from {
            match fs::remove_file(&path) {
                Ok(()) => removed += 1,
                Err(e) => last_err = Some(DurableError::io("remove old snapshot", &path, &e)),
            }
        }
    }
    match last_err {
        Some(e) => Err(e),
        None => Ok(removed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "et-durable-snap-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).expect("mkdir");
        p
    }

    #[test]
    fn write_read_round_trip() {
        let dir = temp_dir("roundtrip");
        let payload = b"beliefs and pending presentation".to_vec();
        let path = write_atomic(&dir, &file_name(7), &payload, true).expect("write");
        assert_eq!(read(&path).expect("read"), payload);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected() {
        let dir = temp_dir("corrupt");
        let path = write_atomic(&dir, &file_name(1), b"payload-bytes", false).expect("write");
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(read(&path), Err(DurableError::Corrupt { .. })));
        // Truncated payload also detected.
        fs::write(&path, &bytes[..bytes.len() - 4]).expect("truncate");
        assert!(matches!(read(&path), Err(DurableError::Corrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn naming_and_listing_sort_newest_first() {
        assert_eq!(parse_file_name(&file_name(42)), Some(42));
        assert_eq!(parse_file_name("snap-junk.bin"), None);
        assert_eq!(parse_file_name("other.bin"), None);

        let dir = temp_dir("list");
        for t in [3u64, 11, 7] {
            write_atomic(&dir, &file_name(t), &[1], false).expect("write");
        }
        fs::write(dir.join("meta.bin"), b"not a snapshot").expect("noise");
        let listed = list(&dir).expect("list");
        let ts: Vec<u64> = listed.iter().map(|(t, _)| *t).collect();
        assert_eq!(ts, vec![11, 7, 3]);

        assert_eq!(prune_older_than(&dir, 7).expect("prune"), 1);
        let ts: Vec<u64> = list(&dir).expect("list").iter().map(|(t, _)| *t).collect();
        assert_eq!(ts, vec![11, 7]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_file_never_shadows_final() {
        let dir = temp_dir("tmp");
        write_atomic(&dir, &file_name(1), b"v1", true).expect("write");
        // The tmp name must not be left behind.
        assert!(!dir.join(format!(".{}.tmp", file_name(1))).exists());
        // Overwrite with new content atomically.
        write_atomic(&dir, &file_name(1), b"v2", true).expect("rewrite");
        assert_eq!(read(&dir.join(file_name(1))).expect("read"), b"v2".to_vec());
        let _ = fs::remove_dir_all(&dir);
    }
}
