//! `et-lint`: the workspace's repo-specific static-analysis engine.
//!
//! The reproduction's claims — convergence of (FP, Stochastic Best) per
//! Proposition 1, g1 violation measures, Beta-belief updates — are floating-
//! point and RNG-sensitive: a silent NaN, an unseeded RNG, or a stray
//! `unwrap()` corrupts a figure rather than crashing a test. rustc and
//! clippy own the token-level rules (panics, indexing, float equality,
//! `# Panics` docs, truncating and sign-losing casts; the workspace lint
//! table in the root `Cargo.toml`). This crate walks every workspace
//! library source (`src/` of the root and of each crate) and enforces eight
//! rules the compiler cannot express, in three tiers (L5, L6, L8, L10–L14;
//! the retired L1–L4, L7 and L9 keep their numbers unused):
//!
//! Each file is read and lexed once ([`lexer`]); every per-file rule and
//! the item parser run on that one token stream.
//!
//! - **L5, L6, L8** (token-structure scans, [`conc_rules`]) — no guard
//!   held across a blocking call; atomic `Ordering`s justified; no
//!   `HashMap`/`HashSet` iteration-order leaks (the one hash-order
//!   detector).
//! - **L10, L11** (interprocedural, [`graph_rules`]) — over the workspace
//!   call graph ([`parser`] + [`callgraph`]): no lock-order cycles, no
//!   nondeterminism source reachable from session entry points.
//! - **L12–L14** (hot-path cost model, [`cost_rules`]) — no allocation,
//!   lock/blocking call, or I/O reachable from a declared `[[hot]]` root;
//!   per-root cost aggregates feed the `--cost-report` emitter
//!   ([`json_out::render_hotpath`]) and the checked-in `HOTPATH.json`.
//!
//! Vetted exceptions and graph entry/source/hot declarations live in
//! `et-lint.toml` at the repo root (see [`allowlist`]). Exit codes:
//! 0 clean, 1 violations, 2 configuration/IO error.

pub mod allowlist;
pub mod callgraph;
pub mod conc_rules;
pub mod cost_rules;
pub mod graph_rules;
pub mod json_out;
pub mod lexer;
pub mod parser;
pub mod rules;

use std::path::{Path, PathBuf};

use allowlist::Allowlist;
use rules::{Rule, Violation};

/// A violation bound to the file it occurred in.
#[derive(Debug)]
pub struct Finding {
    /// Repo-relative, '/'-separated path.
    pub path: String,
    /// The underlying rule violation.
    pub violation: Violation,
    /// For graph rules (L10–L14): the witness call chain, entry first.
    /// Empty for the per-file rules L5, L6 and L8.
    pub witness: Vec<String>,
}

/// Outcome of a full workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not covered by the allowlist.
    pub findings: Vec<Finding>,
    /// Violations suppressed by an allowlist entry.
    pub suppressed: usize,
    /// Indices of allowlist entries that never matched anything.
    pub stale_allows: Vec<usize>,
    /// For each stale entry (parallel to `stale_allows`): the closest
    /// scanned path by edit distance, when one is plausible — the file
    /// probably moved there.
    pub stale_suggestions: Vec<Option<String>>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Functions in the workspace call graph (library files only).
    pub graph_fns: usize,
    /// Call sites the graph declined to resolve (see `callgraph`).
    pub unresolved_calls: usize,
    /// Per-`[[hot]]`-root cost aggregates (see [`cost_rules`]); the
    /// substrate of `--cost-report` and the `--json` cost block.
    pub hot_roots: Vec<cost_rules::HotRootStat>,
}

impl Report {
    /// True when the run found nothing to complain about.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale_allows.is_empty()
    }
}

/// A fatal engine error (bad allowlist, unreadable tree).
#[derive(Debug)]
pub enum EngineError {
    /// The allowlist failed to parse.
    Allowlist(allowlist::AllowlistError),
    /// A filesystem operation failed.
    Io {
        /// Path involved.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Allowlist(e) => write!(f, "{e}"),
            EngineError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Runs the engine over the workspace rooted at `root`.
///
/// Scans `src/` at the root and of every crate under `crates/`. Test-like
/// trees (`tests/`, `benches/`, `examples/`), the `vendor/` tree (offline
/// dependency shims that deliberately mirror foreign APIs) and `target/`
/// are never scanned. A `root` that is not a directory is an error.
#[expect(
    clippy::indexing_slicing,
    reason = "used holds one flag per allowlist entry, and Allowlist::matches and stale_allows yield positions in that list"
)]
pub fn run(root: &Path) -> Result<Report, EngineError> {
    if !root.is_dir() {
        return Err(EngineError::Io {
            path: root.to_path_buf(),
            source: std::io::ErrorKind::NotADirectory.into(),
        });
    }
    let allow_text = match std::fs::read_to_string(root.join("et-lint.toml")) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => {
            return Err(EngineError::Io {
                path: root.join("et-lint.toml"),
                source: e,
            })
        }
    };
    let allowlist = Allowlist::parse(&allow_text).map_err(EngineError::Allowlist)?;

    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries = std::fs::read_dir(&crates_dir).map_err(|e| EngineError::Io {
            path: crates_dir.clone(),
            source: e,
        })?;
        let mut crate_dirs: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            collect_rs(&crate_dir.join("src"), &mut files)?;
        }
    }

    let mut report = Report::default();
    let mut used = vec![false; allowlist.entries.len()];
    let mut parsed: Vec<(String, parser::FileAst)> = Vec::new();
    let mut scanned_rels: Vec<String> = Vec::new();
    let mut record =
        |report: &mut Report, rel: &str, violation: Violation, witness: Vec<String>| {
            let matched = allowlist.matches(rel, &violation);
            if matched.is_empty() {
                report.findings.push(Finding {
                    path: rel.to_string(),
                    violation,
                    witness,
                });
            } else {
                for m in matched {
                    used[m] = true;
                }
                report.suppressed += 1;
            }
        };
    // Per-file stage (read, lex once, then L5, L6, L8 and the parser on that
    // one token stream), serially in file order: the first IO error in
    // file order wins.
    for path in &files {
        let scanned = scan_one(root, path)?;
        report.files_scanned += 1;
        for violation in scanned.violations {
            record(&mut report, &scanned.rel, violation, Vec::new());
        }
        parsed.push((scanned.rel.clone(), scanned.ast));
        scanned_rels.push(scanned.rel);
    }

    // Interprocedural stage: link the workspace call graph from library
    // files and run L10 and L11 over it, then the hot-path cost tier L12–L14.
    let graph = callgraph::CallGraph::link(&parsed);
    report.graph_fns = graph.nodes.len();
    report.unresolved_calls = graph.unresolved_count;
    for gf in graph_rules::check(&graph, &allowlist) {
        record(&mut report, &gf.path, gf.violation, gf.witness);
    }
    let (cost_findings, hot_stats) = cost_rules::check(&graph, &allowlist);
    for gf in cost_findings {
        record(&mut report, &gf.path, gf.violation, gf.witness);
    }
    report.hot_roots = hot_stats;

    report.stale_allows = used
        .iter()
        .enumerate()
        .filter(|&(_, u)| !u)
        .map(|(i, _)| i)
        .collect();
    report.stale_suggestions = report
        .stale_allows
        .iter()
        .map(|&i| {
            allowlist::suggest_path(&allowlist.entries[i].path, &scanned_rels).map(str::to_string)
        })
        .collect();
    Ok(report)
}

/// Output of the per-file stage for one source file.
struct Scanned {
    /// Repo-relative path.
    rel: String,
    /// L5, L6 and L8 violations.
    violations: Vec<Violation>,
    /// Parsed items, for the call graph.
    ast: parser::FileAst,
}

/// Reads and checks one file.
fn scan_one(root: &Path, path: &Path) -> Result<Scanned, EngineError> {
    let text = std::fs::read_to_string(path).map_err(|e| EngineError::Io {
        path: path.to_path_buf(),
        source: e,
    })?;
    let rel = rel_path(root, path);
    let ts = lexer::lex(&text);
    Ok(Scanned {
        rel,
        violations: rules::check_file(&ts),
        ast: parser::parse(&ts),
    })
}

/// Renders the report for terminal consumption; returns the exit code.
pub fn render(report: &Report, allowlist_path: &Path, out: &mut impl std::io::Write) -> i32 {
    for f in &report.findings {
        let _ = writeln!(
            out,
            "{}:{}: [{}] {}\n    {}",
            f.path,
            f.violation.line,
            f.violation.rule.id(),
            f.violation.message,
            f.violation.excerpt
        );
        for (i, hop) in f.witness.iter().enumerate() {
            let _ = writeln!(out, "    {}{hop}", if i == 0 { "via " } else { "  → " });
        }
    }
    for (k, &i) in report.stale_allows.iter().enumerate() {
        let hint = match report.stale_suggestions.get(k) {
            Some(Some(s)) => format!("; did you mean '{s}'?"),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "{}: [stale-allow] entry #{} never matched any violation; remove it{hint}",
            allowlist_path.display(),
            i + 1
        );
    }
    let _ = writeln!(
        out,
        "et-lint: {} file(s) scanned, {} violation(s), {} suppressed, {} stale allow(s), \
         {} graph fn(s), {} unresolved call(s)",
        report.files_scanned,
        report.findings.len(),
        report.suppressed,
        report.stale_allows.len(),
        report.graph_fns,
        report.unresolved_calls
    );
    if report.is_clean() {
        0
    } else {
        1
    }
}

/// Prints the rule catalogue.
pub fn list_rules(out: &mut impl std::io::Write) {
    for rule in Rule::all() {
        let _ = writeln!(out, "{}  {}", rule.id(), rule.describe());
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), EngineError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| EngineError::Io {
        path: dir.to_path_buf(),
        source: e,
    })?;
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_tree(files: &[(&str, &str)]) -> PathBuf {
        let id = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or_default();
        let root = std::env::temp_dir().join(format!("et-lint-test-{id}-{:p}", &files));
        for (rel, content) in files {
            let path = root.join(rel);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).expect("mkdir");
            }
            std::fs::write(&path, content).expect("write");
        }
        root
    }

    #[test]
    fn clean_tree_reports_clean() {
        let root = write_tree(&[(
            "crates/a/src/lib.rs",
            "//! Docs.\npub fn ok(x: usize) -> usize { x + 1 }\n",
        )]);
        let report = run(&root).expect("runs");
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.files_scanned, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn allowlist_suppresses_and_stale_entries_flagged() {
        let root = write_tree(&[
            (
                "crates/a/src/lib.rs",
                "pub fn l6(x: &AtomicU32) -> u32 { x.load(Ordering::Relaxed) }\n",
            ),
            (
                "et-lint.toml",
                "[[allow]]\nrule = \"L6\"\npath = \"crates/a/src/lib.rs\"\n\
                 reason = \"seeded for the suppression test\"\n\
                 [[allow]]\nrule = \"L8\"\npath = \"never/matches.rs\"\nreason = \"stale\"\n",
            ),
        ]);
        let report = run(&root).expect("runs");
        assert!(report.findings.is_empty(), "{report:?}");
        assert_eq!(report.suppressed, 1);
        assert_eq!(report.stale_allows, vec![1]);
        assert!(!report.is_clean(), "stale allow keeps the run dirty");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn vendor_test_like_and_unknown_dirs_not_scanned() {
        // Each skipped file holds an L6 ordering that would fire in `src/`.
        let relaxed = "pub fn f(x: &AtomicU32) -> u32 { x.load(Ordering::Relaxed) }\n";
        let root = write_tree(&[
            ("vendor/rand/src/lib.rs", relaxed),
            ("tests/t.rs", relaxed),
            ("examples/e.rs", relaxed),
            ("crates/a/tests/t.rs", relaxed),
            ("crates/a/benches/b.rs", relaxed),
            ("crates/a/examples/demo.rs", relaxed),
            ("crates/a/src/lib.rs", "//! Fine.\n"),
        ]);
        let report = run(&root).expect("runs");
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.files_scanned, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn render_exit_codes() {
        let clean = Report::default();
        let mut sink = Vec::new();
        assert_eq!(render(&clean, Path::new("et-lint.toml"), &mut sink), 0);
        let dirty = Report {
            findings: vec![Finding {
                path: "x.rs".into(),
                violation: rules::Violation {
                    rule: rules::Rule::L6,
                    line: 1,
                    message: "m".into(),
                    excerpt: "e".into(),
                },
                witness: Vec::new(),
            }],
            ..Default::default()
        };
        assert_eq!(render(&dirty, Path::new("et-lint.toml"), &mut sink), 1);
        let out = String::from_utf8(sink).expect("utf8");
        assert!(out.contains("[L6]"), "{out}");
    }
}
