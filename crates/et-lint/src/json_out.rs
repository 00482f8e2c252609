//! Machine-readable report output (`cargo lint -- --json` and
//! `--cost-report`).
//!
//! Hand-rolled serialization: the workspace is std-only, the schema is
//! small, and every value is either a count, a bool, or a string we escape
//! ourselves. The schema is documented in DESIGN.md §12/§14 and is
//! versioned — consumers should reject a `version` they don't know.
//! Schema v2 added the L12–L14 findings (no structural change — findings
//! are findings) and the `cost_report` block mirroring `HOTPATH.json`.

use std::path::Path;

use crate::cost_rules::HotRootStat;
use crate::Report;

/// Schema version emitted in every `--json` document.
pub const SCHEMA_VERSION: u32 = 2;

/// Schema tag emitted in every `HOTPATH.json` document.
pub const HOTPATH_SCHEMA: &str = "et-lint/hotpath-v1";

/// Renders the report as a single JSON document; returns the exit code
/// (same contract as [`crate::render`]: 0 clean, 1 findings or stale
/// allowlist entries).
pub fn render_json(report: &Report, allowlist_path: &Path, out: &mut impl std::io::Write) -> i32 {
    let mut s = String::new();
    s.push_str("{\n");
    push_kv(&mut s, 1, "version", &SCHEMA_VERSION.to_string(), true);
    push_kv(
        &mut s,
        1,
        "files_scanned",
        &report.files_scanned.to_string(),
        true,
    );
    push_kv(
        &mut s,
        1,
        "suppressed",
        &report.suppressed.to_string(),
        true,
    );
    push_kv(&mut s, 1, "graph_fns", &report.graph_fns.to_string(), true);
    push_kv(
        &mut s,
        1,
        "unresolved_calls",
        &report.unresolved_calls.to_string(),
        true,
    );
    s.push_str("  \"allowlist\": ");
    s.push_str(&quote(&allowlist_path.display().to_string()));
    s.push_str(",\n");

    s.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str("    {");
        s.push_str(&format!("\"rule\": {}, ", quote(f.violation.rule.id())));
        s.push_str(&format!("\"path\": {}, ", quote(&f.path)));
        s.push_str(&format!("\"line\": {}, ", f.violation.line));
        s.push_str(&format!("\"message\": {}, ", quote(&f.violation.message)));
        s.push_str(&format!("\"excerpt\": {}, ", quote(&f.violation.excerpt)));
        s.push_str("\"witness\": [");
        for (j, hop) in f.witness.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&quote(hop));
        }
        s.push_str("]}");
    }
    s.push_str(if report.findings.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    s.push_str("  \"stale_allows\": [");
    for (k, &i) in report.stale_allows.iter().enumerate() {
        s.push_str(if k == 0 { "\n" } else { ",\n" });
        s.push_str(&format!("    {{\"index\": {}, \"suggestion\": ", i + 1));
        match report.stale_suggestions.get(k) {
            Some(Some(sugg)) => s.push_str(&quote(sugg)),
            _ => s.push_str("null"),
        }
        s.push('}');
    }
    s.push_str(if report.stale_allows.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    s.push_str("  \"cost_report\": [");
    for (i, stat) in report.hot_roots.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        push_hot_root(&mut s, 2, stat);
    }
    s.push_str(if report.hot_roots.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    s.push_str(&format!("  \"clean\": {}\n", report.is_clean()));
    s.push_str("}\n");
    let _ = out.write_all(s.as_bytes());
    if report.is_clean() {
        0
    } else {
        1
    }
}

/// Renders the standalone `HOTPATH.json` document (`--cost-report`): the
/// per-hot-root cost aggregates, nothing else. Deterministic — no
/// timestamps, no environment — so ci.sh can regenerate and byte-diff it
/// against the checked-in baseline.
pub fn render_hotpath(report: &Report, out: &mut impl std::io::Write) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": {},\n", quote(HOTPATH_SCHEMA)));
    s.push_str("  \"hot_roots\": [");
    for (i, stat) in report.hot_roots.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        push_hot_root(&mut s, 2, stat);
    }
    s.push_str(if report.hot_roots.is_empty() {
        "]\n"
    } else {
        "\n  ]\n"
    });
    s.push_str("}\n");
    let _ = out.write_all(s.as_bytes());
}

/// Appends one hot-root aggregate object (shared by `--json`'s
/// `cost_report` block and `HOTPATH.json`).
fn push_hot_root(s: &mut String, indent: usize, stat: &HotRootStat) {
    let pad = "  ".repeat(indent);
    s.push_str(&pad);
    s.push_str("{\n");
    let field = |s: &mut String, body: String, comma: bool| {
        s.push_str(&pad);
        s.push_str("  ");
        s.push_str(&body);
        s.push_str(if comma { ",\n" } else { "\n" });
    };
    field(s, format!("\"pattern\": {}", quote(&stat.pattern)), true);
    let note = stat
        .note
        .as_deref()
        .map_or_else(|| "null".to_string(), quote);
    field(s, format!("\"note\": {note}"), true);
    let roots: Vec<String> = stat.roots.iter().map(|r| quote(r)).collect();
    field(s, format!("\"roots\": [{}]", roots.join(", ")), true);
    field(
        s,
        format!("\"reachable_fns\": {}", stat.reachable_fns),
        true,
    );
    field(
        s,
        format!(
            "\"cost_sites\": {{\"alloc\": {}, \"lock\": {}, \"io\": {}}}",
            stat.alloc_sites, stat.lock_sites, stat.io_sites
        ),
        true,
    );
    field(
        s,
        format!("\"witness_depth\": {}", stat.witness_depth),
        true,
    );
    s.push_str(&pad);
    s.push_str("  \"vetted\": [");
    for (i, v) in stat.vetted.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str(&pad);
        s.push_str(&format!(
            "    {{\"kind\": {}, \"path\": {}, \"line\": {}, \"what\": {}, \"bound\": {}}}",
            quote(v.kind.key()),
            quote(&v.path),
            v.line,
            quote(&v.what),
            quote(&v.bound)
        ));
    }
    if stat.vetted.is_empty() {
        s.push_str("]\n");
    } else {
        s.push('\n');
        s.push_str(&pad);
        s.push_str("  ]\n");
    }
    s.push_str(&pad);
    s.push('}');
}

/// Appends `"key": value,\n` (value unquoted — numbers only).
fn push_kv(s: &mut String, indent: usize, key: &str, value: &str, comma: bool) {
    for _ in 0..indent {
        s.push_str("  ");
    }
    s.push('"');
    s.push_str(key);
    s.push_str("\": ");
    s.push_str(value);
    if comma {
        s.push(',');
    }
    s.push('\n');
}

/// JSON string literal with the minimal escape set (RFC 8259 §7).
fn quote(raw: &str) -> String {
    let mut s = String::with_capacity(raw.len() + 2);
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if u32::from(c) < 0x20 => s.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_rules::VettedSite;
    use crate::parser::CostKind;
    use crate::rules::{Rule, Violation};
    use crate::Finding;

    fn sample() -> Report {
        Report {
            findings: vec![Finding {
                path: "crates/a/src/x.rs".into(),
                violation: Violation {
                    rule: Rule::L11,
                    line: 7,
                    message: "clock \"reachable\"".into(),
                    excerpt: "let t = Instant::now();".into(),
                },
                witness: vec!["a::entry (crates/a/src/x.rs:1)".into()],
            }],
            suppressed: 2,
            stale_allows: vec![3],
            stale_suggestions: vec![Some("crates/a/src/moved.rs".into())],
            files_scanned: 5,
            graph_fns: 11,
            unresolved_calls: 4,
            hot_roots: vec![HotRootStat {
                pattern: "RelationMatrix::score_all".into(),
                note: Some("per-round scoring loop".into()),
                roots: vec!["et_fd::relmatrix::RelationMatrix::score_all".into()],
                reachable_fns: 4,
                alloc_sites: 1,
                lock_sites: 0,
                io_sites: 0,
                vetted: vec![VettedSite {
                    kind: CostKind::Alloc,
                    path: "crates/et-fd/src/relmatrix.rs".into(),
                    line: 42,
                    what: "Vec::with_capacity".into(),
                    bound: "bounded: one-time setup".into(),
                }],
                witness_depth: 2,
            }],
        }
    }

    #[test]
    fn document_round_trips_the_report() {
        let mut sink = Vec::new();
        let code = render_json(&sample(), std::path::Path::new("et-lint.toml"), &mut sink);
        assert_eq!(code, 1);
        let doc = String::from_utf8(sink).expect("utf8");
        for needle in [
            "\"version\": 2,",
            "\"files_scanned\": 5,",
            "\"graph_fns\": 11,",
            "\"unresolved_calls\": 4,",
            "\"rule\": \"L11\"",
            "\"line\": 7",
            "\"message\": \"clock \\\"reachable\\\"\"",
            "\"witness\": [\"a::entry (crates/a/src/x.rs:1)\"]",
            "{\"index\": 4, \"suggestion\": \"crates/a/src/moved.rs\"}",
            "\"pattern\": \"RelationMatrix::score_all\"",
            "\"cost_sites\": {\"alloc\": 1, \"lock\": 0, \"io\": 0}",
            "\"bound\": \"bounded: one-time setup\"",
            "\"clean\": false",
        ] {
            assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
        }
    }

    #[test]
    fn hotpath_document_is_self_contained() {
        let mut sink = Vec::new();
        render_hotpath(&sample(), &mut sink);
        let doc = String::from_utf8(sink).expect("utf8");
        for needle in [
            "\"schema\": \"et-lint/hotpath-v1\"",
            "\"pattern\": \"RelationMatrix::score_all\"",
            "\"note\": \"per-round scoring loop\"",
            "\"roots\": [\"et_fd::relmatrix::RelationMatrix::score_all\"]",
            "\"reachable_fns\": 4",
            "\"witness_depth\": 2",
            "\"kind\": \"alloc\"",
        ] {
            assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
        }
        assert!(
            !doc.contains("findings"),
            "the cost report carries no findings: {doc}"
        );
    }

    #[test]
    fn hotpath_without_roots_is_minimal() {
        let mut sink = Vec::new();
        render_hotpath(&Report::default(), &mut sink);
        let doc = String::from_utf8(sink).expect("utf8");
        assert!(doc.contains("\"hot_roots\": []"), "{doc}");
    }

    #[test]
    fn clean_report_exits_zero_with_empty_arrays() {
        let mut sink = Vec::new();
        let code = render_json(
            &Report::default(),
            std::path::Path::new("et-lint.toml"),
            &mut sink,
        );
        assert_eq!(code, 0);
        let doc = String::from_utf8(sink).expect("utf8");
        assert!(doc.contains("\"findings\": [],"), "{doc}");
        assert!(doc.contains("\"stale_allows\": [],"), "{doc}");
        assert!(doc.contains("\"clean\": true"), "{doc}");
    }

    #[test]
    fn quote_escapes_controls_and_specials() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }
}
