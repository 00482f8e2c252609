//! `repro`'s size flags through the binary: a zero `--runs`, `--rows` or
//! `--iters`, or a row count too small for a session to play a round, is a
//! usage error (exit 2 with an `error:` line), not a panic deep inside an
//! experiment.

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

#[test]
fn a_table_too_small_for_a_round_is_a_usage_error() {
    // `--digest` keeps the experiments that run first from writing CSVs.
    for (args, rows) in [
        (&["--all", "--quick", "--digest", "--rows", "5"][..], 5),
        (&["--all", "--quick", "--digest", "--rows", "6"][..], 6),
        (
            &[
                "--exp",
                "ablation-gamma",
                "--quick",
                "--digest",
                "--rows",
                "5",
            ][..],
            5,
        ),
        (
            &["--exp", "drift", "--quick", "--digest", "--rows", "1"][..],
            1,
        ),
    ] {
        let out = repro(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(
            err.contains(&format!("a {rows}-row OMDB table played no round")),
            "{args:?}: {err}"
        );
    }
}
