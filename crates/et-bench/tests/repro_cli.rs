//! `repro`'s size flags through the binary: a zero `--runs`, `--rows` or
//! `--iters` is a usage error (exit 2 with an `error:` line), not a panic
//! deep inside an experiment.

// Test helpers run outside `#[test]` fns, where the workspace
// allow-expect-in-tests carve-out does not reach.
#![allow(clippy::expect_used)]

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn size_flags_reject_zero_and_take_one() {
    for flag in ["--runs", "--rows", "--iters"] {
        let out = repro(&["--all", "--quick", flag, "0"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {err}");
        assert_eq!(err.trim_end(), format!("error: {flag} must be at least 1"));
        assert!(out.stdout.is_empty(), "{flag} 0 ran something");

        let out = repro(&["--exp", "table1", flag, "1"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{flag} 1: {err}");
    }
}
