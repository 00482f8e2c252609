//! The `et-lint.toml` allowlist: vetted exceptions to the L-rules, plus the
//! graph-rule configuration (entry points, taint sources, hot roots).
//!
//! The file is a sequence of `[[allow]]`, `[[entry]]`, `[[source]]`, and
//! `[[hot]]` tables; only the TOML subset below is parsed (std-only, no
//! TOML dependency):
//!
//! ```toml
//! [[allow]]
//! rule = "L12"                      # required: a rule id (L5, L6, L8, L10..L14)
//! path = "crates/et-data/src/x.rs"  # required: repo-relative, '/'-separated
//! pattern = "Vec::new"              # optional: substring of offending line
//! line = 76                         # optional: exact 1-based line
//! reason = "why this is sound"      # required, non-empty
//!
//! [[entry]]                         # L11 entry point (no rule key:
//! pattern = "SessionState::"        # L11 is the one graph rule it feeds)
//! note = "session step surface"     # optional
//!
//! [[source]]                        # L11 taint source (no rule key)
//! pattern = "Instant::now"          # Rust path; substring of call text
//! note = "wall clock"               # optional
//!
//! [[hot]]                           # L12-L14 hot-path root (no rule key:
//! pattern = "RelationMatrix::score" # one root feeds all three cost rules)
//! note = "per-round scoring loop"   # optional
//! ```
//!
//! Only `[[allow]]` takes a `rule` key; in the other tables it is a
//! configuration error.
//!
//! An `[[allow]]` entry matches a violation when the rule matches, the
//! violation's path ends with `path`, and every provided narrowing field
//! matches. Unused entries are reported so the allowlist cannot rot
//! silently (with a nearest-path suggestion when the path looks moved).
//! `[[entry]]`/`[[source]]`/`[[hot]]` tables configure rules rather than
//! suppress findings; without any of them the graph rules are vacuous. An
//! `[[entry]]` or `[[hot]]` pattern that roots no function is reported.
//! A `[[source]]` is exempt from that stale check: a source no call renders
//! is the state L11 wants (the `thread_rng` guard keeps OS-seeded RNGs out
//! before any code calls one). Instead the parser rejects a source pattern
//! that could never match: it must be Rust identifiers joined by `::`.

#![expect(
    clippy::indexing_slicing,
    reason = "the suffix length k is at most the shorter path's part count, and edit_distance's rows hold b.len() + 1 cells indexed by j + 1 <= b.len()"
)]

use crate::rules::Violation;

/// One `[[allow]]` entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule id the exception applies to (L5, L6, L8, L10..L14).
    pub rule: String,
    /// Repo-relative path suffix.
    pub path: String,
    /// Optional substring the offending line must contain.
    pub pattern: Option<String>,
    /// Optional exact line number.
    pub line: Option<usize>,
    /// Mandatory justification.
    pub reason: String,
}

/// One `[[entry]]` (L11 entry point), `[[source]]` (L11 taint source) or
/// `[[hot]]` (hot-path root) table. Each table kind configures a fixed
/// rule set (L11, or L12, L13 and L14 alike), so none carries a `rule`
/// key.
#[derive(Debug, Clone)]
pub struct GraphSpec {
    /// Substring pattern: matched against qualified fn names for entries
    /// and hot roots, rendered call text for sources.
    pub pattern: String,
    /// Optional annotation; a hot root's is surfaced in `HOTPATH.json`.
    pub note: Option<String>,
    /// 1-based line of the table header in `et-lint.toml`, so an
    /// `[[entry]]` or `[[hot]]` that roots nothing can be reported at its
    /// declaration.
    pub line: usize,
}

/// The parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// All `[[allow]]` entries in file order.
    pub entries: Vec<AllowEntry>,
    /// All `[[entry]]` graph entry points in file order.
    pub graph_entries: Vec<GraphSpec>,
    /// All `[[source]]` taint sources in file order.
    pub graph_sources: Vec<GraphSpec>,
    /// All `[[hot]]` cost-rule roots in file order.
    pub hot_roots: Vec<GraphSpec>,
}

/// A parse failure with its line number.
#[derive(Debug)]
pub struct AllowlistError {
    /// 1-based line in `et-lint.toml`.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AllowlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "et-lint.toml:{}: {}", self.line, self.message)
    }
}

/// Which table a parsed block belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TableKind {
    Allow,
    Entry,
    Source,
    Hot,
}

impl Allowlist {
    /// Parses the allowlist text.
    pub fn parse(text: &str) -> Result<Self, AllowlistError> {
        let mut list = Allowlist::default();
        let mut current: Option<(usize, TableKind, PartialEntry)> = None;

        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let header = match line {
                "[[allow]]" => Some(TableKind::Allow),
                "[[entry]]" => Some(TableKind::Entry),
                "[[source]]" => Some(TableKind::Source),
                "[[hot]]" => Some(TableKind::Hot),
                _ => None,
            };
            if let Some(kind) = header {
                if let Some((at, k, partial)) = current.take() {
                    list.push_finished(at, k, partial)?;
                }
                current = Some((line_no, kind, PartialEntry::default()));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(AllowlistError {
                    line: line_no,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let Some((_, kind, partial)) = current.as_mut() else {
                return Err(AllowlistError {
                    line: line_no,
                    message: "key outside any [[allow]]/[[entry]]/[[source]]/[[hot]] table".into(),
                });
            };
            partial.set(*kind, key.trim(), value.trim(), line_no)?;
        }
        if let Some((at, kind, partial)) = current.take() {
            list.push_finished(at, kind, partial)?;
        }
        Ok(list)
    }

    fn push_finished(
        &mut self,
        at: usize,
        kind: TableKind,
        partial: PartialEntry,
    ) -> Result<(), AllowlistError> {
        match kind {
            TableKind::Allow => self.entries.push(partial.finish_allow(at)?),
            TableKind::Entry => self
                .graph_entries
                .push(partial.finish_spec(at, "[[entry]]")?),
            TableKind::Source => {
                let spec = partial.finish_spec(at, "[[source]]")?;
                if !is_rust_path(&spec.pattern) {
                    return Err(AllowlistError {
                        line: at,
                        message: format!(
                            "[[source]] pattern `{}` is not a Rust path \
                             (identifiers joined by `::`)",
                            spec.pattern
                        ),
                    });
                }
                self.graph_sources.push(spec);
            }
            TableKind::Hot => self.hot_roots.push(partial.finish_spec(at, "[[hot]]")?),
        }
        Ok(())
    }

    /// Indices of entries matching `v` in `path` (forward-slash normalised).
    pub fn matches(&self, path: &str, v: &Violation) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                e.rule == v.rule.id()
                    && path.ends_with(e.path.as_str())
                    && e.line.is_none_or(|l| l == v.line)
                    && e.pattern.as_ref().is_none_or(|p| v.excerpt.contains(p))
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// True when `pattern` is one or more Rust identifiers joined by `::`.
fn is_rust_path(pattern: &str) -> bool {
    pattern.split("::").all(|segment| {
        let mut chars = segment.chars();
        chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
    })
}

fn strip_comment(line: &str) -> &str {
    // A '#' outside quotes starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[derive(Debug, Default)]
struct PartialEntry {
    rule: Option<String>,
    path: Option<String>,
    pattern: Option<String>,
    line: Option<usize>,
    reason: Option<String>,
    note: Option<String>,
}

impl PartialEntry {
    fn set(
        &mut self,
        kind: TableKind,
        key: &str,
        value: &str,
        line_no: usize,
    ) -> Result<(), AllowlistError> {
        let err = |message: String| AllowlistError {
            line: line_no,
            message,
        };
        match key {
            "rule" if kind == TableKind::Allow => {
                let v = unquote(value).ok_or_else(|| err("rule must be a string".into()))?;
                if crate::rules::Rule::from_id(&v).is_none() {
                    return Err(err(format!("unknown rule `{v}`")));
                }
                self.rule = Some(v);
            }
            "path" if kind == TableKind::Allow => {
                self.path =
                    Some(unquote(value).ok_or_else(|| err("path must be a string".into()))?);
            }
            "pattern" => {
                self.pattern =
                    Some(unquote(value).ok_or_else(|| err("pattern must be a string".into()))?);
            }
            "reason" if kind == TableKind::Allow => {
                let v = unquote(value).ok_or_else(|| err("reason must be a string".into()))?;
                if v.trim().is_empty() {
                    return Err(err("reason must not be empty".into()));
                }
                self.reason = Some(v);
            }
            "line" if kind == TableKind::Allow => {
                self.line = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| err(format!("line must be an integer: {e}")))?,
                );
            }
            "note" if kind != TableKind::Allow => {
                self.note =
                    Some(unquote(value).ok_or_else(|| err("note must be a string".into()))?);
            }
            other => return Err(err(format!("unknown key `{other}` for this table"))),
        }
        Ok(())
    }

    fn finish_allow(self, table_line: usize) -> Result<AllowEntry, AllowlistError> {
        let err = |message: &str| AllowlistError {
            line: table_line,
            message: message.into(),
        };
        Ok(AllowEntry {
            rule: self.rule.ok_or_else(|| err("missing `rule`"))?,
            path: self.path.ok_or_else(|| err("missing `path`"))?,
            pattern: self.pattern,
            line: self.line,
            reason: self.reason.ok_or_else(|| err("missing `reason`"))?,
        })
    }

    /// The spec of a `table` (`[[entry]]`, `[[source]]` or `[[hot]]`)
    /// whose header is on `table_line`.
    fn finish_spec(self, table_line: usize, table: &str) -> Result<GraphSpec, AllowlistError> {
        let err = |message: String| AllowlistError {
            line: table_line,
            message,
        };
        let pattern = self
            .pattern
            .ok_or_else(|| err(format!("{table} table missing `pattern`")))?;
        if pattern.trim().is_empty() {
            return Err(err(format!("{table} pattern must not be empty")));
        }
        Ok(GraphSpec {
            pattern,
            note: self.note,
            line: table_line,
        })
    }
}

/// For a stale allowlist `path`, the scanned path it most plausibly meant:
/// the candidate minimizing edit distance over same-length path suffixes,
/// accepted only when the distance is small relative to the entry's length
/// (a moved or renamed file, not a different one).
pub fn suggest_path<'a>(stale: &str, scanned: &'a [String]) -> Option<&'a str> {
    let stale_parts: Vec<&str> = stale.split('/').collect();
    let mut best: Option<(usize, &str)> = None;
    for cand in scanned {
        let cand_parts: Vec<&str> = cand.split('/').collect();
        let k = stale_parts.len().min(cand_parts.len());
        let stale_suffix = stale_parts[stale_parts.len() - k..].join("/");
        let cand_suffix = cand_parts[cand_parts.len() - k..].join("/");
        let d = edit_distance(&stale_suffix, &cand_suffix);
        if best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, cand.as_str()));
        }
    }
    let (d, cand) = best?;
    // Accept only near-misses: more than a third of the name changed is a
    // different file, not a typo or a move.
    if d * 3 <= stale.len() {
        Some(cand)
    } else {
        None
    }
}

/// Levenshtein distance, two-row DP, byte-wise (paths are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.is_empty() {
        return b.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

fn unquote(value: &str) -> Option<String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Some(v[1..v.len() - 1].to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Rule, Violation};

    fn violation(rule: Rule, line: usize, excerpt: &str) -> Violation {
        Violation {
            rule,
            line,
            message: String::new(),
            excerpt: excerpt.into(),
        }
    }

    #[test]
    fn parses_full_and_minimal_entries() {
        let text = r#"
# exceptions vetted in PR review
[[allow]]
rule = "L6"
path = "crates/et-serve/src/store.rs"
pattern = "Ordering::Relaxed"
reason = "a statistics counter read by nothing that orders on it"

[[allow]]
rule = "L8"                     # trailing comment
path = "crates/et-core/src/x.rs"
line = 12
reason = "the caller sorts the result"
"#;
        let list = Allowlist::parse(text).expect("parses");
        assert_eq!(list.entries.len(), 2);
        assert_eq!(list.entries[0].rule, "L6");
        assert_eq!(
            list.entries[0].pattern.as_deref(),
            Some("Ordering::Relaxed")
        );
        assert_eq!(list.entries[1].line, Some(12));
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(Allowlist::parse("[[allow]]\nrule = \"L99\"\n").is_err());
        for retired in ["L1", "L7", "L9"] {
            let text = format!("[[allow]]\nrule = \"{retired}\"\npath = \"x\"\nreason = \"y\"\n");
            assert!(
                Allowlist::parse(&text).is_err(),
                "retired rule id {retired}"
            );
        }
        assert!(
            Allowlist::parse("[[allow]]\nrule = \"L6\"\n").is_err(),
            "missing path/reason"
        );
        assert!(
            Allowlist::parse("rule = \"L6\"\n").is_err(),
            "key outside table"
        );
        assert!(
            Allowlist::parse("[[allow]]\nrule = \"L6\"\npath = \"x\"\nreason = \"\"\n").is_err()
        );
        assert!(Allowlist::parse("[[allow]]\nwhat = 3\n").is_err());
    }

    #[test]
    fn matching_honours_all_narrowing_fields() {
        let text = "[[allow]]\nrule = \"L6\"\npath = \"src/a.rs\"\npattern = \"Ordering::Relaxed\"\nreason = \"ok\"\n";
        let list = Allowlist::parse(text).expect("parses");
        let hit = violation(Rule::L6, 5, "x.load(Ordering::Relaxed)");
        assert_eq!(list.matches("crates/c/src/a.rs", &hit).len(), 1);
        // Wrong rule, wrong path, wrong pattern.
        assert!(list
            .matches(
                "crates/c/src/a.rs",
                &violation(Rule::L8, 5, "x.load(Ordering::Relaxed)")
            )
            .is_empty());
        assert!(list.matches("crates/c/src/b.rs", &hit).is_empty());
        assert!(list
            .matches("crates/c/src/a.rs", &violation(Rule::L6, 5, "clean line"))
            .is_empty());
    }

    #[test]
    fn parses_entry_and_source_tables() {
        let text = r#"
[[entry]]
pattern = "SessionState::"
note = "session step surface"

[[entry]]
pattern = "replay_history"

[[source]]
pattern = "Instant::now"
"#;
        let list = Allowlist::parse(text).expect("parses");
        assert!(list.entries.is_empty());
        assert_eq!(list.graph_entries.len(), 2);
        assert_eq!(list.graph_sources.len(), 1);
        let patterns: Vec<&str> = list
            .graph_entries
            .iter()
            .map(|s| s.pattern.as_str())
            .collect();
        assert_eq!(patterns, ["SessionState::", "replay_history"]);
        assert_eq!(
            list.graph_entries[0].note.as_deref(),
            Some("session step surface")
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        // Entries and sources configure L11 alone: any `rule` key is an
        // error, L11's own included.
        for rule in ["L11", "L6", "L9"] {
            for table in ["entry", "source"] {
                let text = format!("[[{table}]]\nrule = \"{rule}\"\npattern = \"x\"\n");
                let err = Allowlist::parse(&text).expect_err(&format!("{table} {rule}"));
                assert!(err.message.contains("unknown key `rule`"), "{err}");
            }
        }
        // A source pattern is a Rust path; anything else could never match.
        for ok in ["read_dir", "Instant::now", "rand::random", "_x::y2"] {
            let text = format!("[[source]]\npattern = \"{ok}\"\n");
            assert!(Allowlist::parse(&text).is_ok(), "{ok}");
        }
        for bad in [
            "Instant:now",
            "Instant::",
            "::now",
            "now()",
            "a b",
            "2x",
            "hash-iter",
        ] {
            let text = format!("[[source]]\npattern = \"{bad}\"\n");
            let err = Allowlist::parse(&text).expect_err(bad);
            assert!(err.message.contains("not a Rust path"), "{bad}: {err}");
        }
        // pattern is mandatory and non-empty.
        assert!(Allowlist::parse("[[entry]]\nnote = \"x\"\n").is_err());
        assert!(Allowlist::parse("[[entry]]\npattern = \"\"\n").is_err());
        // Allow-only keys are rejected in spec tables and vice versa.
        assert!(Allowlist::parse("[[entry]]\npattern = \"x\"\nreason = \"y\"\n").is_err());
        assert!(Allowlist::parse(
            "[[allow]]\nrule = \"L6\"\npath = \"x\"\nreason = \"y\"\nnote = \"z\"\n"
        )
        .is_err());
    }

    #[test]
    fn parses_hot_tables() {
        let text = r#"
[[hot]]
pattern = "RelationMatrix::score_all"
note = "per-round scoring loop"

[[hot]]
pattern = "SessionState::apply_labels"
"#;
        let list = Allowlist::parse(text).expect("parses");
        assert_eq!(list.hot_roots.len(), 2);
        assert_eq!(list.hot_roots[0].pattern, "RelationMatrix::score_all");
        assert_eq!(
            list.hot_roots[0].note.as_deref(),
            Some("per-round scoring loop")
        );
        assert!(list.hot_roots[1].note.is_none());
    }

    #[test]
    fn rejects_malformed_hot_tables() {
        // pattern is mandatory and non-empty.
        assert!(Allowlist::parse("[[hot]]\nnote = \"x\"\n").is_err());
        assert!(Allowlist::parse("[[hot]]\npattern = \"\"\n").is_err());
        // A hot root feeds all three cost rules: a `rule` key is an error.
        assert!(Allowlist::parse("[[hot]]\nrule = \"L12\"\npattern = \"x\"\n").is_err());
        // Allow-only keys are rejected.
        assert!(Allowlist::parse("[[hot]]\npattern = \"x\"\nreason = \"y\"\n").is_err());
    }

    #[test]
    fn suggest_path_finds_moved_files_and_rejects_strangers() {
        let scanned = vec![
            "crates/et-core/src/session.rs".to_string(),
            "crates/et-serve/src/server.rs".to_string(),
            "crates/et-fd/src/cache.rs".to_string(),
        ];
        // A renamed file is a near-miss.
        assert_eq!(
            suggest_path("crates/et-core/src/sessions.rs", &scanned),
            Some("crates/et-core/src/session.rs")
        );
        // A crate move keeps the stem close enough.
        assert_eq!(
            suggest_path("crates/et-server/src/server.rs", &scanned),
            Some("crates/et-serve/src/server.rs")
        );
        // A completely different path yields no suggestion.
        assert_eq!(suggest_path("docs/zzz_qqq_www.md", &scanned), None);
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
