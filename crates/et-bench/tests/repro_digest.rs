//! `repro --digest` hashes exactly what a plain run writes: each CSV's
//! bytes, and the stdout report less its volatile lines.

// Test helpers run outside `#[test]` fns, where the workspace
// allow-expect-in-tests carve-out does not reach.
#![allow(clippy::expect_used)]

use std::path::Path;
use std::process::Command;

use et_bench::digest::{fnv1a64, is_volatile_line};

fn repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "repro {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn digest_hashes_what_a_plain_run_writes() {
    let dir = std::env::temp_dir().join(format!("et-repro-digest-{}", std::process::id()));
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let exps = [
        "--exp", "table1", "--exp", "table3", "--exp", "fig2", "--quick",
    ];

    let plain = repro(&[&exps[..], &["--out", dir_arg]].concat());
    let mut report = String::new();
    let mut want = Vec::new();
    for line in plain.lines() {
        if let Some(path) = line.strip_prefix("wrote ") {
            let name = Path::new(path).file_name().expect("csv name");
            let bytes = std::fs::read(path).expect("written csv");
            want.push(format!(
                "{:016x}  {}",
                fnv1a64(&bytes),
                name.to_string_lossy()
            ));
        }
        if !is_volatile_line(line) {
            report.push_str(line);
            report.push('\n');
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(want.len(), 2, "table3 and fig2 each write one CSV");
    want.push(format!("{:016x}  stdout", fnv1a64(report.as_bytes())));

    let digest = repro(&[&exps[..], &["--digest"]].concat());
    assert_eq!(digest.lines().collect::<Vec<_>>(), want);
}
