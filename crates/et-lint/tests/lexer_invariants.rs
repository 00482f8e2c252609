//! Workspace-wide lexer invariants: for every `.rs` file under `crates/`
//! (fixture, test, bench and example trees included) and the root `src/`,
//! `tests/` and `examples/` — a superset of the library files et-lint
//! scans — the token spans must be strictly in order, non-overlapping,
//! and must cover every non-whitespace byte of the source, and each
//! token's line must be its true source line. A gap that swallows code,
//! or a drifted line, would silently blind or misreport every rule (L5–L8
//! and the parser all read this one token stream), so this is checked
//! against the real corpus, not just unit snippets.

use std::path::{Path, PathBuf};

use et_lint::lexer::lex;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn spans_are_ordered_disjoint_and_cover_all_code_bytes() {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        collect_rs(&workspace_root().join(dir), &mut files);
    }
    assert!(
        files.len() >= 20,
        "corpus sanity: expected a real workspace, found {} files",
        files.len()
    );

    for path in files {
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue; // non-UTF-8 files are out of the lexer's contract
        };
        let ts = lex(&source);
        let mut prev_end = 0usize;
        let mut line = 1usize;
        let (mut counted_to, mut true_line) = (0usize, 1usize);
        for (i, tok) in ts.tokens.iter().enumerate() {
            assert!(
                tok.start >= prev_end,
                "{}: token {i} overlaps its predecessor ({} < {prev_end})",
                path.display(),
                tok.start
            );
            assert!(
                tok.end > tok.start,
                "{}: token {i} is empty at byte {}",
                path.display(),
                tok.start
            );
            assert!(
                tok.line >= line,
                "{}: token {i} line went backwards ({} < {line})",
                path.display(),
                tok.line
            );
            line = tok.line;
            true_line += source[counted_to..tok.start].matches('\n').count();
            counted_to = tok.start;
            assert_eq!(
                tok.line,
                true_line,
                "{}: token {i} at byte {} has a drifted line",
                path.display(),
                tok.start
            );
            gap_is_whitespace(&path, &source, prev_end, tok.start);
            prev_end = tok.end;
        }
        gap_is_whitespace(&path, &source, prev_end, source.len());
    }
}

fn gap_is_whitespace(path: &Path, source: &str, from: usize, to: usize) {
    let gap = &source[from..to];
    assert!(
        gap.chars().all(char::is_whitespace),
        "{}: bytes {from}..{to} are untokenized code: {gap:?}",
        path.display()
    );
}
