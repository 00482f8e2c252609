//! Per-connection state for the server's event loop: newline framing
//! over non-blocking reads, a buffered write side, and the bookkeeping the
//! shard loop needs (token, in-flight request, activity clock).
//!
//! This layer knows nothing about the protocol beyond "requests are lines":
//! byte accumulation and line extraction live here, while parsing and
//! dispatch stay in `protocol.rs` / `server.rs`.

#![expect(
    clippy::indexing_slicing,
    reason = "framer maintains scanned <= buf.len() at every drain (reset to 0 after each extracted line); scratch[..n] is bounded by the read contract n <= scratch.len(); out[out_cursor..] holds out_cursor <= out.len() because the cursor only advances by bytes the socket accepted"
)]

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Hard ceiling on a single request line, enforced *while accumulating* so
/// a peer cannot balloon memory by never sending a newline.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// The byte stream violated the line-framing contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramingError {
    /// More than `max` bytes accumulated without (or within) one line.
    Oversized {
        /// The configured per-line ceiling that was exceeded.
        max: usize,
    },
}

/// Accumulates raw bytes and yields complete newline-terminated lines.
///
/// Framing is byte-exact: a line is everything up to `\n`, with an
/// optional trailing `\r` stripped. Once oversized, the framer is
/// poisoned — the connection must be torn down after the typed
/// `protocol_error` reply is flushed.
pub struct LineFramer {
    buf: Vec<u8>,
    /// Scan resume point: bytes before this offset are known newline-free.
    scanned: usize,
    max_line: usize,
    poisoned: bool,
}

impl LineFramer {
    /// A framer enforcing `max_line` bytes per request line.
    pub fn new(max_line: usize) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            scanned: 0,
            max_line: max_line.max(1),
            poisoned: false,
        }
    }

    /// Appends freshly-read bytes to the frame buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        if !self.poisoned {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Extracts the next complete line, if one is buffered.
    ///
    /// # Errors
    /// [`FramingError::Oversized`] once the current (complete or partial)
    /// line exceeds the ceiling; every subsequent call repeats the error.
    pub fn next_line(&mut self) -> Result<Option<String>, FramingError> {
        if self.poisoned {
            return Err(FramingError::Oversized { max: self.max_line });
        }
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(rel) => {
                let end = self.scanned + rel;
                if end > self.max_line {
                    self.poisoned = true;
                    return Err(FramingError::Oversized { max: self.max_line });
                }
                let mut line: Vec<u8> = self.buf.drain(..=end).collect();
                line.pop(); // the newline itself
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.scanned = 0;
                Ok(Some(String::from_utf8_lossy(&line).into_owned()))
            }
            None => {
                if self.buf.len() > self.max_line {
                    self.poisoned = true;
                    return Err(FramingError::Oversized { max: self.max_line });
                }
                self.scanned = self.buf.len();
                Ok(None)
            }
        }
    }

    /// True once the framer has rejected the stream.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Bytes currently buffered awaiting a newline.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

/// What a readable-edge drain of the socket produced.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Socket drained to `WouldBlock`; `lines` complete requests surfaced.
    Progress {
        /// Number of complete lines extracted by this drain.
        lines: usize,
    },
    /// Peer closed its write side (EOF) after `lines` final requests.
    Eof {
        /// Number of complete lines extracted before EOF.
        lines: usize,
    },
    /// The stream violated framing; reply `protocol_error` and close.
    Protocol(FramingError),
}

/// One live connection owned by an event shard.
pub struct Conn {
    stream: TcpStream,
    /// The shard-unique token this connection is registered under.
    pub token: u64,
    framer: LineFramer,
    /// Complete request lines not yet answered or handed to the worker
    /// pool.
    pub inbox: VecDeque<String>,
    /// Encoded replies awaiting socket writability.
    out: Vec<u8>,
    /// How much of `out` has already been written.
    out_cursor: usize,
    /// True while a create is at the worker pool; enforces ≤1 in-flight
    /// request per connection, which is what keeps per-session ordering.
    pub in_flight: bool,
    /// Close the connection once `out` fully flushes.
    pub close_after_flush: bool,
    /// Peer half-closed (EOF seen); close once buffered requests are
    /// answered and flushed (drain-then-close).
    pub eof: bool,
    /// Advanced only when a *complete* request line arrives — dribbling
    /// bytes without a newline does not count as activity, so slow-loris
    /// peers hit the idle timeout like silent ones.
    pub last_activity: Instant,
    /// The interest set currently registered with the poller.
    pub want_write: bool,
}

impl Conn {
    /// Wraps an accepted stream. The caller has already set non-blocking.
    pub fn new(stream: TcpStream, token: u64, max_line: usize, now: Instant) -> Conn {
        Conn {
            stream,
            token,
            framer: LineFramer::new(max_line),
            inbox: VecDeque::new(),
            out: Vec::new(),
            out_cursor: 0,
            in_flight: false,
            close_after_flush: false,
            eof: false,
            last_activity: now,
            want_write: false,
        }
    }

    /// The underlying socket (for poller registration / shutdown).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Drains the socket until `WouldBlock`/EOF, extracting complete lines
    /// into `inbox` and stamping `last_activity` per completed line.
    ///
    /// # Errors
    /// A hard socket error (not `WouldBlock`/`Interrupted`): close the
    /// connection.
    pub fn read_ready(&mut self, now: Instant) -> io::Result<ReadOutcome> {
        let mut scratch = [0u8; 16 * 1024];
        let mut lines = 0usize;
        let mut eof = false;
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => self.framer.push(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        loop {
            match self.framer.next_line() {
                Ok(Some(line)) => {
                    self.last_activity = now;
                    self.inbox.push_back(line);
                    lines += 1;
                }
                Ok(None) => break,
                Err(e) => return Ok(ReadOutcome::Protocol(e)),
            }
        }
        if eof {
            Ok(ReadOutcome::Eof { lines })
        } else {
            Ok(ReadOutcome::Progress { lines })
        }
    }

    /// Queues an encoded reply (already newline-terminated) for writing.
    pub fn queue_write(&mut self, bytes: &[u8]) {
        self.out_buf().extend_from_slice(bytes);
    }

    /// The output queue, for encoding replies straight into it: whatever
    /// is appended (newline-terminated lines) is written after the bytes
    /// already queued.
    pub fn out_buf(&mut self) -> &mut Vec<u8> {
        // Compact lazily: reclaim the flushed prefix before growing.
        if self.out_cursor > 0 && self.out_cursor == self.out.len() {
            self.out.clear();
            self.out_cursor = 0;
        }
        &mut self.out
    }

    /// Writes as much queued output as the socket accepts. Returns `true`
    /// when the queue is fully flushed.
    ///
    /// # Errors
    /// A hard socket error (not `WouldBlock`/`Interrupted`): close the
    /// connection.
    pub fn flush_ready(&mut self) -> io::Result<bool> {
        while self.out_cursor < self.out.len() {
            match self.stream.write(&self.out[self.out_cursor..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.out_cursor += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_cursor = 0;
        Ok(true)
    }

    /// True when queued output remains unflushed.
    pub fn has_pending_output(&self) -> bool {
        self.out_cursor < self.out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framer_extracts_lines_across_partial_pushes() {
        let mut f = LineFramer::new(1024);
        f.push(b"hel");
        assert_eq!(f.next_line().expect("frame"), None);
        f.push(b"lo\nwor");
        assert_eq!(f.next_line().expect("frame").as_deref(), Some("hello"));
        assert_eq!(f.next_line().expect("frame"), None);
        f.push(b"ld\n");
        assert_eq!(f.next_line().expect("frame").as_deref(), Some("world"));
        assert_eq!(f.next_line().expect("frame"), None);
    }

    #[test]
    fn framer_handles_pipelined_segment() {
        let mut f = LineFramer::new(1024);
        f.push(b"a\r\nb\n\nc\n");
        let mut got = Vec::new();
        while let Some(line) = f.next_line().expect("frame") {
            got.push(line);
        }
        assert_eq!(got, vec!["a", "b", "", "c"]);
    }

    #[test]
    fn framer_poisons_on_oversized_partial() {
        let mut f = LineFramer::new(8);
        f.push(b"123456789"); // 9 bytes, no newline
        assert_eq!(f.next_line(), Err(FramingError::Oversized { max: 8 }));
        assert!(f.poisoned());
        // Error is sticky even if a newline arrives later.
        f.push(b"\n");
        assert_eq!(f.next_line(), Err(FramingError::Oversized { max: 8 }));
    }

    #[test]
    fn framer_poisons_on_oversized_complete_line() {
        let mut f = LineFramer::new(4);
        f.push(b"short\n");
        assert_eq!(f.next_line(), Err(FramingError::Oversized { max: 4 }));
    }

    #[test]
    fn framer_accepts_line_exactly_at_limit() {
        let mut f = LineFramer::new(4);
        f.push(b"abcd\nef\n");
        assert_eq!(f.next_line().expect("frame").as_deref(), Some("abcd"));
        assert_eq!(f.next_line().expect("frame").as_deref(), Some("ef"));
    }
}
