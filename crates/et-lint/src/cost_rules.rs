//! The hot-path cost tier L12–L14, powered by [`crate::callgraph`].
//!
//! The paper's annotator sits in the interaction loop every round, so
//! round latency is the product's ceiling. These rules make the latency
//! budget *structural*: `[[hot]]` tables in `et-lint.toml` declare the
//! functions that run once (or more) per round, and the rules walk the
//! workspace call graph from each root, firing on every reachable
//! cost-bearing operation the parser tagged:
//!
//! - **L12** — heap allocation (`Vec::new`/`vec!`/`format!`/`collect`/
//!   `clone`/push-family growth) reachable from a hot root.
//! - **L13** — lock acquisition or a blocking call reachable.
//! - **L14** — I/O or a syscall reachable.
//!
//! A `[[hot]]` pattern that matches no function is itself a finding (the
//! root rotted out from under the config), with a nearest-name suggestion
//! when one is plausible — the same "did you mean" machinery stale
//! `[[allow]]` paths use. L11 `[[entry]]` tables get the same finding
//! through `stale_root_finding`.
//!
//! Vetted operations (an `[[allow]]` whose reason states the bound) stay
//! out of the violation list but are *not* forgotten: [`check`] also
//! aggregates per-root [`HotRootStat`]s — reachable-fn count, cost-site
//! counts per class, every vetted site with its stated bound, and the
//! deepest witness chain — which `--cost-report` serializes into
//! `HOTPATH.json` for ci.sh to diff against the checked-in baseline. A PR
//! that adds cost to a hot path fails that diff loudly even when every
//! individual site is vetted.
//!
//! Determinism: roots are processed in declaration order, reachable nodes
//! in id order, operations in source order — identical trees produce
//! byte-identical findings and reports.

#![expect(
    clippy::indexing_slicing,
    reason = "root ids come from match_entries and reach over the same graph, the closure holds one mask per node, and allow indices are positions that Allowlist::matches returned"
)]

use crate::allowlist::{suggest_path, Allowlist};
use crate::callgraph::CallGraph;
use crate::graph_rules::GraphFinding;
use crate::parser::CostKind;
use crate::rules::{Rule, Violation};

/// One vetted cost site under a hot root: suppressed by an `[[allow]]`
/// entry whose reason states the bound.
#[derive(Debug, Clone)]
pub struct VettedSite {
    /// Cost class of the operation.
    pub kind: CostKind,
    /// Repo-relative path of the containing file.
    pub path: String,
    /// 1-based line of the operation.
    pub line: usize,
    /// The operation text (`format!`, `collect`, `Vec::with_capacity`).
    pub what: String,
    /// The `[[allow]]` reason — by policy a stated bound.
    pub bound: String,
}

/// Per-`[[hot]]`-table aggregate for the cost report.
#[derive(Debug, Clone)]
pub struct HotRootStat {
    /// The declared pattern.
    pub pattern: String,
    /// The declared note, if any.
    pub note: Option<String>,
    /// Qualified names the pattern matched (id order).
    pub roots: Vec<String>,
    /// Functions reachable from the roots (roots included).
    pub reachable_fns: usize,
    /// Reachable allocation sites (vetted ones included).
    pub alloc_sites: usize,
    /// Reachable lock-acquisition/blocking sites (vetted ones included).
    pub lock_sites: usize,
    /// Reachable I/O sites (vetted ones included).
    pub io_sites: usize,
    /// Every vetted site with its stated bound, in deterministic order.
    pub vetted: Vec<VettedSite>,
    /// Length in hops of the deepest witness chain to a cost-bearing fn
    /// (0 when no reachable fn carries a cost op).
    pub witness_depth: usize,
}

/// The rule a cost class maps onto.
fn rule_for(kind: CostKind) -> Rule {
    match kind {
        CostKind::Alloc => Rule::L12,
        CostKind::Lock => Rule::L13,
        CostKind::Io => Rule::L14,
    }
}

/// Runs L12–L14 over the linked graph: returns the findings (vetted ones
/// included — the engine's allowlist pass suppresses them and tracks entry
/// usage) plus the per-root aggregates for the cost report.
pub fn check(graph: &CallGraph, config: &Allowlist) -> (Vec<GraphFinding>, Vec<HotRootStat>) {
    let mut findings = Vec::new();
    let mut stats = Vec::new();
    if config.hot_roots.is_empty() {
        return (findings, stats);
    }
    let closure = graph.cost_closure();

    for root in &config.hot_roots {
        let entries = graph.match_entries(&root.pattern);
        if entries.is_empty() {
            findings.push(stale_root_finding(
                graph,
                Rule::L12,
                "[[hot]]",
                &root.pattern,
                root.line,
            ));
            stats.push(HotRootStat {
                pattern: root.pattern.clone(),
                note: root.note.clone(),
                roots: Vec::new(),
                reachable_fns: 0,
                alloc_sites: 0,
                lock_sites: 0,
                io_sites: 0,
                vetted: Vec::new(),
                witness_depth: 0,
            });
            continue;
        }
        let mut stat = HotRootStat {
            pattern: root.pattern.clone(),
            note: root.note.clone(),
            roots: entries.iter().map(|&id| graph.nodes[id].qual()).collect(),
            reachable_fns: 0,
            alloc_sites: 0,
            lock_sites: 0,
            io_sites: 0,
            vetted: Vec::new(),
            witness_depth: 0,
        };
        let parents = graph.reach(&entries);
        stat.reachable_fns = parents.len();
        // The closure mask lets a provably-clean root skip the node walk
        // entirely — the common case once the tree is at steady state.
        if entries.iter().all(|&id| closure[id] == 0) {
            stats.push(stat);
            continue;
        }
        for &id in parents.keys() {
            let node = &graph.nodes[id];
            if node.item.costs.is_empty() {
                continue;
            }
            let witness = graph.witness(&parents, id);
            let entry_desc = witness.first().cloned().unwrap_or_else(|| node.qual());
            stat.witness_depth = stat.witness_depth.max(witness.len());
            for op in &node.item.costs {
                match op.kind {
                    CostKind::Alloc => stat.alloc_sites += 1,
                    CostKind::Lock => stat.lock_sites += 1,
                    CostKind::Io => stat.io_sites += 1,
                }
                let violation = Violation {
                    rule: rule_for(op.kind),
                    line: op.line,
                    message: format!(
                        "`{}` is reachable from hot root {} and performs {} `{}`",
                        node.qual(),
                        entry_desc,
                        op.kind.label(),
                        op.what
                    ),
                    excerpt: op.line_text.clone(),
                };
                if let Some(&idx) = config.matches(&node.file, &violation).first() {
                    stat.vetted.push(VettedSite {
                        kind: op.kind,
                        path: node.file.clone(),
                        line: op.line,
                        what: op.what.clone(),
                        bound: config.entries[idx].reason.clone(),
                    });
                }
                findings.push(GraphFinding {
                    path: node.file.clone(),
                    violation,
                    witness: witness.clone(),
                });
            }
        }
        stats.push(stat);
    }
    (findings, stats)
}

/// A `[[hot]]` or `[[entry]]` pattern that matches nothing: the root moved
/// or was renamed, and the rule it configured is silently unenforced from
/// it. Reported as `rule` at the table's line in `et-lint.toml`, with the
/// nearest qualified name suggested when plausible.
pub(crate) fn stale_root_finding(
    graph: &CallGraph,
    rule: Rule,
    table: &str,
    pattern: &str,
    line: usize,
) -> GraphFinding {
    // Reuse the path-suggestion machinery: qualified names are paths with
    // `::` separators, so map to '/' for the suffix-wise edit distance and
    // back for display.
    let candidates: Vec<String> = graph
        .nodes
        .iter()
        .filter(|n| !n.item.is_test)
        .map(|n| n.qual().replace("::", "/"))
        .collect();
    let hint = suggest_path(&pattern.replace("::", "/"), &candidates)
        .map(|s| format!("; did you mean `{}`?", s.replace('/', "::")))
        .unwrap_or_default();
    GraphFinding {
        path: "et-lint.toml".to_string(),
        violation: Violation {
            rule,
            line,
            message: format!(
                "{table} pattern `{pattern}` matches no function in the workspace \
                 call graph{hint}"
            ),
            excerpt: format!("pattern = \"{pattern}\""),
        },
        witness: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::lexer::lex;
    use crate::parser::{parse, FileAst};

    fn run(files: &[(&str, &str)], config: &str) -> (Vec<GraphFinding>, Vec<HotRootStat>) {
        let parsed: Vec<(String, FileAst)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), parse(&lex(src))))
            .collect();
        let graph = CallGraph::link(&parsed);
        let allow = Allowlist::parse(config).expect("test config parses");
        check(&graph, &allow)
    }

    const SRC: &str = r#"
        pub fn score_all(xs: &[u64]) -> u64 { fold_words(xs) }
        fn fold_words(xs: &[u64]) -> u64 {
            let label = format!("{} words", xs.len());
            label.len() as u64
        }
        pub fn label_pending(&mut self) {
            let g = self.store_lock.lock();
            std::fs::write("journal", "x");
        }
        fn untouched() { let v = vec![1, 2, 3]; }
    "#;

    #[test]
    fn no_hot_roots_means_no_findings() {
        let (findings, stats) = run(&[("crates/a/src/api.rs", SRC)], "");
        assert!(findings.is_empty(), "{findings:?}");
        assert!(stats.is_empty());
    }

    #[test]
    fn l12_fires_on_transitive_alloc_with_witness() {
        let (findings, stats) = run(
            &[("crates/a/src/api.rs", SRC)],
            "[[hot]]\npattern = \"api::score_all\"\n",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.violation.rule.id(), "L12");
        assert!(
            f.violation.message.contains("api::fold_words")
                && f.violation.message.contains("format!"),
            "{}",
            f.violation.message
        );
        assert_eq!(
            f.witness.len(),
            2,
            "score_all -> fold_words: {:?}",
            f.witness
        );
        assert!(f.witness[0].contains("api::score_all"), "{:?}", f.witness);
        assert!(
            !findings
                .iter()
                .any(|f| f.violation.message.contains("untouched")),
            "unreachable alloc must not fire: {findings:?}"
        );
        let s = &stats[0];
        assert_eq!(s.roots, ["a::api::score_all"]);
        assert_eq!(s.reachable_fns, 2);
        assert_eq!(
            (s.alloc_sites, s.lock_sites, s.io_sites, s.witness_depth),
            (1, 0, 0, 2),
            "{s:?}"
        );
    }

    #[test]
    fn l13_and_l14_fire_on_direct_ops() {
        let (findings, _) = run(
            &[("crates/a/src/api.rs", SRC)],
            "[[hot]]\npattern = \"api::label_pending\"\nnote = \"per-round\"\n",
        );
        let rules: Vec<&str> = findings.iter().map(|f| f.violation.rule.id()).collect();
        assert_eq!(rules, ["L13", "L14"], "{findings:?}");
    }

    #[test]
    fn vetted_sites_still_counted_and_carry_bounds() {
        let config = "[[hot]]\npattern = \"api::score_all\"\n\
                      [[allow]]\nrule = \"L12\"\npath = \"crates/a/src/api.rs\"\n\
                      pattern = \"format!\"\n\
                      reason = \"bounded: one label per call, N <= 64 bytes\"\n";
        let (findings, stats) = run(&[("crates/a/src/api.rs", SRC)], config);
        // The finding is still emitted; the engine's allowlist pass
        // suppresses it downstream.
        assert_eq!(findings.len(), 1);
        let s = &stats[0];
        assert_eq!(s.alloc_sites, 1, "vetted sites still counted");
        assert_eq!(s.vetted.len(), 1);
        assert_eq!(
            s.vetted[0].bound,
            "bounded: one label per call, N <= 64 bytes"
        );
        assert_eq!(s.vetted[0].what, "format!");
    }

    #[test]
    fn stale_hot_root_fires_with_suggestion() {
        let (findings, _) = run(
            &[("crates/a/src/api.rs", SRC)],
            "[[hot]]\npattern = \"api::scoer_all\"\n",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.path, "et-lint.toml");
        assert!(
            f.violation.message.contains("matches no function"),
            "{}",
            f.violation.message
        );
        assert!(
            f.violation.message.contains("did you mean")
                && f.violation.message.contains("a::api::score_all"),
            "suggestion machinery engaged: {}",
            f.violation.message
        );
    }

    #[test]
    fn clean_hot_root_reports_zero_cost() {
        let src = r#"
            pub fn hot(xs: &[u64]) -> u64 { helper(xs) }
            fn helper(xs: &[u64]) -> u64 { xs.len() as u64 }
        "#;
        let (findings, stats) = run(
            &[("crates/a/src/api.rs", src)],
            "[[hot]]\npattern = \"api::hot\"\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
        let s = &stats[0];
        assert_eq!(s.reachable_fns, 2);
        assert_eq!((s.alloc_sites, s.lock_sites, s.io_sites), (0, 0, 0));
        assert_eq!(s.witness_depth, 0);
    }

    /// A `#[cfg(test)]` block inside a hot fn is test code, as it is to
    /// the token rules: its allocation is no hot-path cost, while the
    /// fn's own and the next fn's costs still count.
    #[test]
    fn cfg_test_blocks_in_hot_fns_are_not_cost_sites() {
        let src = r#"
            pub fn append(&mut self, frame: &[u8]) {
                #[cfg(test)]
                {
                    let torn = frame.to_vec();
                    self.tear(torn);
                }
                self.sink.extend_from_slice(frame);
                roll_back();
            }
            fn roll_back() { let label = format!("rolled back"); }
        "#;
        let (findings, stats) = run(
            &[("crates/a/src/wal.rs", src)],
            "[[hot]]\npattern = \"wal::append\"\n",
        );
        let what: Vec<&str> = findings
            .iter()
            .map(|f| f.violation.excerpt.as_str())
            .collect();
        assert_eq!(
            what,
            [
                "self.sink.extend_from_slice(frame);",
                "fn roll_back() { let label = format!(\"rolled back\"); }"
            ],
            "{findings:?}"
        );
        let s = &stats[0];
        assert_eq!(s.reachable_fns, 2, "roll_back stays a non-test fn");
        assert_eq!(s.alloc_sites, 2);
    }
}
