//! Durability substrate for exploratory-training sessions.
//!
//! A session is a deterministic function of `(seed, config, label sequence)`
//! — PR 2's step-API bit-identity tests pin this. That makes persistence
//! cheap: durably log the *labels* (the only external input), periodically
//! snapshot the mutable state to bound replay time, and rederive everything
//! else (relation matrix, partition cache, candidate pool) on recovery.
//!
//! This crate holds the storage-layer half of that plan, with no knowledge
//! of sessions themselves:
//!
//! - [`Wal`]: an append-only write-ahead log of length-prefixed,
//!   CRC32-checksummed records, with torn-tail truncation on open and a
//!   configurable [`FsyncPolicy`].
//! - [`snapshot`]: atomic write (tmp + fsync + rename + dir fsync) and
//!   checksum-verified read of point-in-time state blobs, plus the
//!   `snap-<t>.bin` naming scheme and newest-first directory listing.
//! - [`codec`]: a tiny length-safe binary encoder/decoder with bit-exact
//!   `f64` transport (`to_bits`/`from_bits`).
//! - [`crc32`]: the IEEE CRC-32 both layers frame with.
//!
//! Everything fallible returns a typed [`DurableError`] — the workspace
//! lint table rejects `unwrap` and unvetted indexing in library code, so a
//! panic on the IO path is a build failure, not a style nit.

pub mod codec;
pub mod crc32;
pub mod snapshot;
pub mod wal;

pub use codec::{Dec, Enc};
pub use wal::{FsyncPolicy, Wal, WalOpen, WalRecord};

use std::fmt;
use std::path::{Path, PathBuf};

/// Every way the durability layer can fail, as data (never a panic).
#[derive(Debug)]
pub enum DurableError {
    /// An OS-level IO failure, tagged with the operation and path so the
    /// caller's log line is actionable without a backtrace.
    Io {
        /// What we were doing ("open wal", "fsync dir", ...).
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error, stringified (io::Error is not `Clone`).
        source: String,
    },
    /// Stored bytes failed validation (bad magic, checksum mismatch, or an
    /// impossible length) somewhere *other* than a WAL tail — WAL tails are
    /// truncated silently by design, see [`wal`].
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// Byte offset of the first bad byte, when known.
        offset: u64,
        /// Human-readable diagnosis.
        reason: String,
    },
    /// A decode ran off the end of a payload or met an out-of-range value.
    Decode {
        /// Human-readable diagnosis.
        reason: String,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io { op, path, source } => {
                write!(f, "{op} {}: {source}", path.display())
            }
            DurableError::Corrupt {
                path,
                offset,
                reason,
            } => write!(
                f,
                "corrupt data in {} at byte {offset}: {reason}",
                path.display()
            ),
            DurableError::Decode { reason } => write!(f, "decode error: {reason}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl DurableError {
    /// Wraps an [`std::io::Error`] with its operation and path.
    pub fn io(op: &'static str, path: &Path, e: &std::io::Error) -> Self {
        DurableError::Io {
            op,
            path: path.to_path_buf(),
            source: e.to_string(),
        }
    }

    /// A decode failure with the given diagnosis.
    pub fn decode(reason: impl Into<String>) -> Self {
        DurableError::Decode {
            reason: reason.into(),
        }
    }
}
