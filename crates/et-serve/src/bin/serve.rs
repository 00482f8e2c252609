//! The `serve` binary: bind the session service and run until a wire
//! `shutdown` request (or a fatal bind error).
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--capacity N]
//!       [--idle-timeout-secs N] [--seed N]
//!       [--data-dir PATH] [--fsync always|never] [--snapshot-every N]
//!       [--shards N] [--conn-idle-timeout-secs N] [--max-line-bytes N]
//! ```
//!
//! `--help` (or `-h`) prints the usage line and exits 0.
//!
//! With `--data-dir`, sessions are journaled (write-ahead label log plus
//! periodic snapshots). At start the journaled sessions are registered,
//! not rebuilt, so `listening on` comes at once; each is revived on its
//! first request. Without `--data-dir` the store is purely in-memory.
//!
//! The transport is the readiness-based event loop (Linux epoll). Each of
//! the `--shards` event threads runs its connections' rounds to completion;
//! the `--workers` threads only build sessions: for `create_session`, and
//! for the first request that names a journaled session not in memory.
//! `--capacity` bounds the sessions held in memory; journaled sessions on
//! disk do not count against it.
//! `--conn-idle-timeout-secs` bounds how long a connection may go without
//! completing a request line (slow-loris defense; 0 disables it).

use std::process::ExitCode;
use std::time::Duration;

use et_durable::FsyncPolicy;
use et_serve::{spawn, ServerConfig};

const USAGE: &str = "usage: serve [--addr HOST:PORT] [--workers N] [--capacity N] \
     [--idle-timeout-secs N] [--seed N] \
     [--data-dir PATH] [--fsync always|never] [--snapshot-every N] \
     [--shards N] [--conn-idle-timeout-secs N] [--max-line-bytes N]\n  \
     --shards N   event threads; each runs its connections' rounds (default 2)\n  \
     --workers N  threads that build sessions: creates, and revives of\n               \
     journaled sessions on their first request (default 4)\n  \
     --capacity N sessions held in memory; journaled sessions on disk\n               \
     do not count (default 64)";

/// The server configuration the flags ask for, or `None` for `--help`.
fn parse_args(args: &[String]) -> Result<Option<ServerConfig>, String> {
    let mut cfg = ServerConfig::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        // The flag is matched before its value is taken, so an unknown
        // flag is reported as unknown wherever it stands.
        let mut value = || {
            args.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--help" | "-h" => return Ok(None),
            "--addr" => cfg.addr = value()?.to_owned(),
            "--workers" => cfg.workers = number(flag, value()?)?,
            "--capacity" => cfg.store.capacity = number(flag, value()?)?,
            "--idle-timeout-secs" => {
                cfg.store.idle_timeout = Duration::from_secs(number(flag, value()?)?);
            }
            "--seed" => cfg.store.base_seed = number(flag, value()?)?,
            "--data-dir" => cfg.store.data_dir = Some(std::path::PathBuf::from(value()?)),
            "--fsync" => {
                cfg.store.journal.fsync =
                    FsyncPolicy::from_name(value()?).map_err(|e| format!("--fsync: {e}"))?;
            }
            "--snapshot-every" => cfg.store.journal.snapshot_every = number(flag, value()?)?,
            "--shards" => cfg.shards = number(flag, value()?)?,
            "--conn-idle-timeout-secs" => {
                cfg.conn_idle_timeout = Duration::from_secs(number(flag, value()?)?);
            }
            "--max-line-bytes" => cfg.max_line_bytes = number(flag, value()?)?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Some(cfg))
}

/// `value` parsed as `flag`'s number.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} must be a number, got {value:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("serve: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let durable = cfg.store.data_dir.is_some();
    let handle = match spawn(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if durable {
        let report = handle.recovery_report();
        println!(
            "recovered {} sessions ({} failed; each revives on its first request)",
            report.registered,
            report.failed.len()
        );
        for (dir, reason) in &report.failed {
            eprintln!("serve: listing {} failed: {reason}", dir.display());
        }
    }
    println!("listening on {}", handle.addr());
    // Runs until a client sends {"op":"shutdown"}.
    handle.wait();
    println!("shut down cleanly");
    ExitCode::SUCCESS
}
