//! End-to-end self-test: the `et-lint` *binary* must exit non-zero on a
//! seeded violation of each rule L5, L6, L8, L10 and L11, zero on a clean
//! tree, and two — never one, never a panic — on configuration or I/O
//! failures.

// Test-support helpers outside #[test] fns may expect/unwrap freely.
#![allow(clippy::expect_used, clippy::unwrap_used)]
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("et-lint-exit-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (rel, content) in files {
        let path = root.join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("mkdir");
        }
        std::fs::write(&path, content).expect("write");
    }
    root
}

fn lint(root: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_et-lint"))
        .args(["--root"])
        .arg(root)
        .output()
        .expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn clean_tree_exits_zero() {
    let root = scratch(
        "clean",
        &[(
            "crates/a/src/lib.rs",
            "//! Docs.\npub fn ok(x: usize) -> usize { x + 1 }\n",
        )],
    );
    let (code, out) = lint(&root);
    assert_eq!(code, 0, "stdout: {out}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn allowlisted_violation_exits_zero() {
    let root = scratch(
        "allowed",
        &[
            (
                "crates/a/src/lib.rs",
                "use std::sync::atomic::{AtomicU32, Ordering};\n\
                 pub fn f(x: &AtomicU32) -> u32 { x.load(Ordering::Relaxed) }\n",
            ),
            (
                "et-lint.toml",
                "[[allow]]\nrule = \"L6\"\npath = \"crates/a/src/lib.rs\"\n\
                 pattern = \"Ordering::Relaxed\"\nreason = \"seeded exception for the exit-code test\"\n",
            ),
        ],
    );
    let (code, out) = lint(&root);
    assert_eq!(code, 0, "stdout: {out}");
    assert!(out.contains("1 suppressed"), "stdout: {out}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bad_allowlist_exits_two() {
    // Unknown or retired rule ids, a `rule` key in an `[[entry]]` or
    // `[[source]]` table, missing required keys, a taint source that is not
    // a Rust path (so could never match a call), and non-toml garbage must
    // all exit 2 (configuration error), not 1 and not a panic.
    let configs = [
        "[[allow]]\nrule = \"L99\"\npath = \"x.rs\"\nreason = \"r\"\n",
        "[[allow]]\nrule = \"L1\"\npath = \"x.rs\"\nreason = \"r\"\n",
        "[[allow]]\nrule = \"L7\"\npath = \"x.rs\"\nreason = \"r\"\n",
        "[[allow]]\nrule = \"L9\"\npath = \"x.rs\"\nreason = \"r\"\n",
        "[[entry]]\nrule = \"L9\"\npattern = \"a::entry\"\n",
        "[[entry]]\nrule = \"L11\"\npattern = \"a::entry\"\n",
        "[[source]]\nrule = \"L11\"\npattern = \"Instant::now\"\n",
        "[[allow]]\nrule = \"L6\"\n",
        "[[source]]\npattern = \"Instant:now\"\n",
        "rule = \"L6\"\n",
        "[[allow]]\nnot a key value line\n",
    ];
    for (n, cfg) in configs.iter().enumerate() {
        let root = scratch(
            &format!("badconf{n}"),
            &[
                ("crates/a/src/lib.rs", "//! Fine.\n"),
                ("et-lint.toml", cfg),
            ],
        );
        let (code, _) = lint(&root);
        assert_eq!(code, 2, "config #{n}: {cfg}");
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[cfg(unix)]
#[test]
fn unreadable_tree_exits_two() {
    // A dangling symlink makes the walk's read fail even when running as
    // root (permission bits would be ignored); the engine must report a
    // configuration/IO error, not a finding and not a panic.
    let root = scratch("unreadable", &[("crates/a/src/lib.rs", "//! Fine.\n")]);
    std::os::unix::fs::symlink(
        "/nonexistent-et-lint-target",
        root.join("crates/a/src/gone.rs"),
    )
    .expect("symlink");
    let (code, out) = lint(&root);
    assert_eq!(code, 2, "stdout: {out}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A `--root` that does not exist, or is a file, is a configuration error:
/// a mistyped root must not pass as an empty, clean workspace.
#[test]
fn missing_or_file_root_exits_two() {
    let dir = scratch("fileroot", &[("lib.rs", "//! Fine.\n")]);
    for root in [dir.join("no-such-dir"), dir.join("lib.rs")] {
        let out = Command::new(env!("CARGO_BIN_EXE_et-lint"))
            .arg("--root")
            .arg(&root)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{}", root.display());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("not a directory"), "stderr: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One seeded violation per token-level rule.
#[test]
fn each_token_rule_seeded_violation_exits_nonzero() {
    let cases: [(&str, &str, &str); 3] = [
        (
            "l5",
            "use std::sync::{Mutex, mpsc::Receiver};\n\
             pub fn f(rx: &Mutex<Receiver<u32>>) -> Option<u32> {\n\
                 let guard = rx.lock().unwrap();\n\
                 guard.recv().ok()\n\
             }\n",
            "[L5]",
        ),
        (
            "l6",
            "use std::sync::atomic::{AtomicBool, Ordering};\n\
             pub fn f(a: &AtomicBool) -> bool {\n\
                 a.load(Ordering::Acquire)\n\
             }\n",
            "[L6]",
        ),
        (
            "l8",
            "use std::collections::HashMap;\n\
             pub fn keys(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                 m.keys().copied().collect()\n\
             }\n",
            "[L8]",
        ),
    ];
    for (name, content, marker) in cases {
        let root = scratch(name, &[("crates/a/src/lib.rs", content)]);
        let (code, out) = lint(&root);
        assert_eq!(code, 1, "rule {name} should fail; stdout: {out}");
        assert!(out.contains(marker), "rule {name} marker in: {out}");
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// The escape hatch for each token-level rule: an et-lint.toml entry for
/// L5/L8, and the `// ord:` justification comment for L6 (which has no
/// allowlist escape by design).
#[test]
fn token_rules_allowlisted_or_annotated_exit_zero() {
    let root = scratch(
        "tokallow",
        &[
            (
                "crates/a/src/lib.rs",
                "use std::collections::HashMap;\n\
                 use std::sync::atomic::{AtomicBool, Ordering};\n\
                 pub fn keys(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                     m.keys().copied().collect()\n\
                 }\n\
                 pub fn flag(a: &AtomicBool) -> bool {\n\
                     a.load(Ordering::Acquire) // ord: pairs with the Release store in set()\n\
                 }\n",
            ),
            (
                "et-lint.toml",
                "[[allow]]\nrule = \"L8\"\npath = \"crates/a/src/lib.rs\"\n\
                 pattern = \"collect\"\nreason = \"seeded: caller sorts\"\n",
            ),
        ],
    );
    let (code, out) = lint(&root);
    assert_eq!(code, 0, "stdout: {out}");
    assert!(out.contains("1 suppressed"), "stdout: {out}");
    let _ = std::fs::remove_dir_all(&root);
}

/// An `// ord:` comment with no justification text, or on a line with no
/// Ordering use at all (stale), both fire L6.
#[test]
fn empty_or_stale_ord_comment_exits_nonzero() {
    let root = scratch(
        "ordstale",
        &[(
            "crates/a/src/lib.rs",
            "use std::sync::atomic::{AtomicBool, Ordering};\n\
             pub fn f(a: &AtomicBool) -> bool {\n\
                 let x = 1 + 1; // ord: stale, no atomic on this line\n\
                 let _ = x;\n\
                 a.load(Ordering::Acquire) // ord:\n\
             }\n",
        )],
    );
    let (code, out) = lint(&root);
    assert_eq!(code, 1, "stdout: {out}");
    assert_eq!(out.matches("[L6]").count(), 2, "stdout: {out}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn explain_mode_covers_every_rule_and_rejects_unknown_ids() {
    for id in ["L5", "L6", "L8", "L10", "L11", "L12", "L13", "L14"] {
        let out = Command::new(env!("CARGO_BIN_EXE_et-lint"))
            .args(["--explain", id])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{id}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with(&format!("{id} — ")), "{id}: {text}");
        assert!(text.len() > 80, "{id} explain too thin: {text}");
    }
    for retired in ["L1", "L7", "L9", "L99"] {
        let out = Command::new(env!("CARGO_BIN_EXE_et-lint"))
            .args(["--explain", retired])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{retired}");
    }
}

#[test]
fn list_rules_prints_l5_through_l14() {
    let out = Command::new(env!("CARGO_BIN_EXE_et-lint"))
        .arg("--list-rules")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(ids, ["L5", "L6", "L8", "L10", "L11", "L12", "L13", "L14"]);
}

#[test]
fn workspace_at_head_is_clean() {
    // The real acceptance gate: the repository this test compiles from must
    // itself lint clean.
    let ws_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (code, out) = lint(&ws_root);
    assert_eq!(code, 0, "workspace must lint clean:\n{out}");
}

/// The graph rules end-to-end through the binary: entry and source
/// declarations in et-lint.toml, a clock read three calls deep, exit 1 with
/// the witness chain.
#[test]
fn graph_rule_seeded_violation_exits_nonzero() {
    let root = scratch(
        "l11bin",
        &[
            (
                "crates/a/src/lib.rs",
                "//! Fixture.\n                 /// Entry.\n                 pub fn entry() -> u32 { middle() }\n                 fn middle() -> u32 { deep() }\n                 fn deep() -> u32 { Instant::now().elapsed().subsec_nanos() }\n",
            ),
            (
                "et-lint.toml",
                "[[entry]]\npattern = \"a::entry\"\n\
                 [[source]]\npattern = \"Instant::now\"\n",
            ),
        ],
    );
    let (code, out) = lint(&root);
    assert_eq!(code, 1, "stdout: {out}");
    assert!(out.contains("[L11]"), "stdout: {out}");
    assert!(out.contains("via "), "witness chain rendered: {out}");
    let _ = std::fs::remove_dir_all(&root);
}

/// `--json` emits the documented machine-readable schema with the same
/// exit-code contract as the human renderer.
#[test]
fn json_flag_emits_schema_with_same_exit_codes() {
    let root = scratch(
        "jsonbin",
        &[(
            "crates/a/src/lib.rs",
            "use std::sync::atomic::{AtomicU32, Ordering};\n\
             pub fn f(x: &AtomicU32) -> u32 { x.load(Ordering::Relaxed) }\n",
        )],
    );
    let out = Command::new(env!("CARGO_BIN_EXE_et-lint"))
        .args(["--json", "--root"])
        .arg(&root)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let doc = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"version\": 2,",
        "\"rule\": \"L6\"",
        "\"witness\": []",
        "\"cost_report\": []",
        "\"clean\": false",
    ] {
        assert!(doc.contains(needle), "missing {needle} in: {doc}");
    }
    let _ = std::fs::remove_dir_all(&root);

    let root = scratch("jsonclean", &[("crates/a/src/lib.rs", "//! Fine.\n")]);
    let out = Command::new(env!("CARGO_BIN_EXE_et-lint"))
        .args(["--json", "--root"])
        .arg(&root)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let doc = String::from_utf8_lossy(&out.stdout);
    assert!(doc.contains("\"clean\": true"), "{doc}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A malformed `[[hot]]` table (no pattern) is a configuration error:
/// exit 2 before any scanning.
#[test]
fn malformed_hot_table_is_config_error() {
    let root = scratch(
        "badhot",
        &[
            ("crates/a/src/lib.rs", "//! Fine.\n"),
            ("et-lint.toml", "[[hot]]\nnote = \"no pattern given\"\n"),
        ],
    );
    let out = Command::new(env!("CARGO_BIN_EXE_et-lint"))
        .arg("--root")
        .arg(&root)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[[hot]]"), "stderr names the table: {err}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A `[[hot]]` pattern matching no function keeps the run dirty (exit 1)
/// and suggests the nearest real function, so a renamed root cannot
/// silently drop its budget.
#[test]
fn stale_hot_root_suggests_nearest_function() {
    let root = scratch(
        "stalehot",
        &[
            (
                "crates/a/src/lib.rs",
                "//! Fixture.\n                 /// Scoring root.\n                 pub fn score_all(words: &[u64]) -> u64 { words.iter().sum() }\n",
            ),
            (
                "et-lint.toml",
                "[[hot]]\npattern = \"a::scoer_all\"\n",
            ),
        ],
    );
    let (code, out) = lint(&root);
    assert_eq!(code, 1, "stale hot root keeps the run dirty: {out}");
    assert!(out.contains("matches no function"), "stdout: {out}");
    assert!(
        out.contains("did you mean") && out.contains("score_all"),
        "stdout: {out}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// `--cost-report` emits the HOTPATH schema document and exits with the
/// same clean/dirty contract as the normal run.
#[test]
fn cost_report_flag_emits_hotpath_schema() {
    let root = scratch(
        "costreport",
        &[
            (
                "crates/a/src/lib.rs",
                "//! Fixture.\n                 /// Scoring root: allocation-free fold.\n                 pub fn score_all(words: &[u64]) -> u64 { words.iter().fold(0, |a, &w| a ^ w) }\n",
            ),
            (
                "et-lint.toml",
                "[[hot]]\npattern = \"a::score_all\"\n",
            ),
        ],
    );
    let out = Command::new(env!("CARGO_BIN_EXE_et-lint"))
        .args(["--cost-report", "--root"])
        .arg(&root)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let doc = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"schema\": \"et-lint/hotpath-v1\"",
        "\"pattern\": \"a::score_all\"",
        "\"cost_sites\": {\"alloc\": 0, \"lock\": 0, \"io\": 0}",
    ] {
        assert!(doc.contains(needle), "missing {needle} in: {doc}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A stale allowlist entry whose path is one rename away from a scanned
/// file gets a "did you mean" suggestion in the report.
#[test]
fn stale_allow_suggests_nearest_path() {
    let root = scratch(
        "stalesuggest",
        &[
            ("crates/a/src/session.rs", "//! Fine.\n"),
            ("crates/a/src/lib.rs", "//! Fine.\n"),
            (
                "et-lint.toml",
                "[[allow]]\nrule = \"L6\"\npath = \"crates/a/src/sesssion.rs\"\n                 reason = \"points at a renamed file\"\n",
            ),
        ],
    );
    let (code, out) = lint(&root);
    assert_eq!(code, 1, "stale allow keeps the run dirty: {out}");
    assert!(
        out.contains("did you mean 'crates/a/src/session.rs'"),
        "stdout: {out}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
