//! The `serve` binary's command line: `--help` and `-h` print the usage
//! line and exit 0; an unknown flag prints it to stderr and exits 1,
//! whether or not a value follows it.

use std::process::Command;

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .arg(flag)
            .output()
            .expect("run serve");
        assert!(out.status.success(), "{flag}: {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: serve "), "{flag}: {stdout:?}");
        assert!(out.stderr.is_empty(), "{flag}: {:?}", out.stderr);
    }
}

#[test]
fn unknown_flag_prints_usage_and_exits_one() {
    let cases: [&[&str]; 3] = [
        &["--blocking", "1"],
        &["--blocking"],
        &["--workers", "2", "--blocking"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .output()
            .expect("run serve");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag \"--blocking\""),
            "{args:?}: {stderr:?}"
        );
        assert!(stderr.contains("usage: serve "), "{args:?}: {stderr:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {:?}", out.stdout);
    }
}

#[test]
fn known_flag_without_value_is_reported_missing() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--seed", "3", "--workers"])
        .output()
        .expect("run serve");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--workers requires a value"), "{stderr:?}");
}
