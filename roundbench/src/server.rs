//! The `serve` child process and the raw-line client that drives it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// A running `serve` process. Dropping it kills and reaps the process, so
/// no exit path of the benchmark leaves a server behind.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Seconds from spawn to the `listening on` line.
    pub ready_s: f64,
}

impl Server {
    /// Spawns `serve` with `args` and waits for it to listen.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Server, String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("serve stdout was not captured".into());
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                let ready_s = start.elapsed().as_secs_f64();
                return Ok(Server {
                    addr: addr.to_string(),
                    child,
                    _stdout: stdout,
                    ready_s,
                });
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time of every thread of the server, in seconds, from the
    /// nanosecond `schedstat` counters.
    pub fn cpu_s(&self) -> f64 {
        task_cpu_s(self.pid())
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        proc_status_kb(self.pid(), "VmHWM:") / 1024.0
    }

    /// SIGKILL and reap.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU mask wide enough for 1024 CPUs (glibc's `cpu_set_t`).
type CpuMask = [u64; 16];

/// Holds the calling thread on one CPU until dropped, then restores its
/// previous CPU set. Processes and threads started meanwhile inherit the
/// single CPU.
///
/// Client and server share that CPU so that every hand-off inside a
/// request (client → event loop → worker → event loop → client) is a
/// context switch on a running CPU. Spread over two vCPUs, each hand-off
/// may wake a halted vCPU through the hypervisor, and that wake-up time
/// follows the host's load, not the program.
pub struct OneCpu {
    saved: CpuMask,
}

impl OneCpu {
    /// Pins to the highest-numbered CPU the thread may run on; `None`
    /// when the CPU set cannot be read or changed.
    pub fn pin() -> Option<OneCpu> {
        let mut saved: CpuMask = [0; 16];
        // SAFETY: `saved` is a writable buffer of exactly the size passed.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), saved.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let cpu = (0..1024)
            .rev()
            .find(|&c| saved[c / 64] & (1u64 << (c % 64)) != 0)?;
        let mut one: CpuMask = [0; 16];
        one[cpu / 64] = 1u64 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of exactly the size passed.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), one.as_ptr()) };
        (rc == 0).then_some(OneCpu { saved })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: `saved` is a readable buffer of exactly the size passed.
        let _ =
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), self.saved.as_ptr()) };
    }
}

/// CPU time of every thread of process `pid`, in seconds, from the
/// nanosecond `schedstat` counters.
pub fn task_cpu_s(pid: u32) -> f64 {
    let task_dir = PathBuf::from(format!("/proc/{pid}/task"));
    let mut ns = 0u64;
    if let Ok(entries) = std::fs::read_dir(&task_dir) {
        for e in entries.flatten() {
            if let Ok(s) = std::fs::read_to_string(e.path().join("schedstat")) {
                ns += s
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    ns as f64 / 1e9
}

/// A `kB` field of `/proc/<pid>/status`, or 0 when unreadable.
pub fn proc_status_kb(pid: u32, field: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// One connection speaking the newline protocol. A request is timed from
/// the start of its write to the arrival of the reply's newline; nothing
/// is parsed on the clock.
pub struct RawClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RawClient {
    pub fn connect(addr: &str) -> Result<RawClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(RawClient {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Sends `line` (no trailing newline) and returns the reply line
    /// (without its newline) and the latency in milliseconds.
    pub fn call(&mut self, line: &str) -> Result<(String, f64), String> {
        let mut msg = Vec::with_capacity(line.len() + 1);
        msg.extend_from_slice(line.as_bytes());
        msg.push(b'\n');
        self.buf.clear();
        let start = Instant::now();
        self.stream
            .write_all(&msg)
            .map_err(|e| format!("write: {e}"))?;
        let mut chunk = [0u8; 1 << 16];
        loop {
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            let seen = self.buf.len();
            self.buf.extend_from_slice(&chunk[..n]);
            if chunk[..n].contains(&b'\n') {
                let ms = start.elapsed().as_secs_f64() * 1e3;
                let end = seen + chunk[..n].iter().position(|&b| b == b'\n').unwrap_or(0);
                let reply = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                return Ok((reply, ms));
            }
        }
    }
}
