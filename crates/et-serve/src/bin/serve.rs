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
//! periodic snapshots) and recovered on start; without it the store is
//! purely in-memory, exactly as before.
//!
//! The transport is the readiness-based event loop (Linux epoll).
//! `--conn-idle-timeout-secs` bounds how long a connection may go without
//! completing a request line (slow-loris defense; 0 disables it).

use std::process::ExitCode;
use std::time::Duration;

use et_durable::FsyncPolicy;
use et_serve::{spawn, ServerConfig};

const USAGE: &str = "usage: serve [--addr HOST:PORT] [--workers N] [--capacity N] \
     [--idle-timeout-secs N] [--seed N] \
     [--data-dir PATH] [--fsync always|never] [--snapshot-every N] \
     [--shards N] [--conn-idle-timeout-secs N] [--max-line-bytes N]";

/// The server configuration the flags ask for, or `None` for `--help`.
fn parse_args(args: &[String]) -> Result<Option<ServerConfig>, String> {
    let mut cfg = ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--addr" => cfg.addr = value.clone(),
            "--workers" => {
                cfg.workers = value
                    .parse()
                    .map_err(|_| format!("--workers must be a number, got {value:?}"))?;
            }
            "--capacity" => {
                cfg.store.capacity = value
                    .parse()
                    .map_err(|_| format!("--capacity must be a number, got {value:?}"))?;
            }
            "--idle-timeout-secs" => {
                let secs: u64 = value
                    .parse()
                    .map_err(|_| format!("--idle-timeout-secs must be a number, got {value:?}"))?;
                cfg.store.idle_timeout = Duration::from_secs(secs);
            }
            "--seed" => {
                cfg.store.base_seed = value
                    .parse()
                    .map_err(|_| format!("--seed must be a number, got {value:?}"))?;
            }
            "--data-dir" => {
                cfg.store.data_dir = Some(std::path::PathBuf::from(value));
            }
            "--fsync" => {
                cfg.store.journal.fsync =
                    FsyncPolicy::from_name(value).map_err(|e| format!("--fsync: {e}"))?;
            }
            "--snapshot-every" => {
                cfg.store.journal.snapshot_every = value
                    .parse()
                    .map_err(|_| format!("--snapshot-every must be a number, got {value:?}"))?;
            }
            "--shards" => {
                cfg.shards = value
                    .parse()
                    .map_err(|_| format!("--shards must be a number, got {value:?}"))?;
            }
            "--conn-idle-timeout-secs" => {
                let secs: u64 = value.parse().map_err(|_| {
                    format!("--conn-idle-timeout-secs must be a number, got {value:?}")
                })?;
                cfg.conn_idle_timeout = Duration::from_secs(secs);
            }
            "--max-line-bytes" => {
                cfg.max_line_bytes = value
                    .parse()
                    .map_err(|_| format!("--max-line-bytes must be a number, got {value:?}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    Ok(Some(cfg))
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
            "recovered {} sessions ({} failed, {} skipped at capacity)",
            report.recovered,
            report.failed.len(),
            report.skipped_capacity
        );
        for (dir, reason) in &report.failed {
            eprintln!("serve: recovery of {} failed: {reason}", dir.display());
        }
    }
    println!("listening on {}", handle.addr());
    // Runs until a client sends {"op":"shutdown"}.
    handle.wait();
    println!("shut down cleanly");
    ExitCode::SUCCESS
}
