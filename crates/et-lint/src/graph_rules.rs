//! The interprocedural rules L10 and L11, powered by [`crate::callgraph`].
//!
//! Both analyses are deterministic: entries, reachability frontiers,
//! lock classes, and cycle scans all iterate `BTreeMap`/`BTreeSet`s or
//! id-ordered vectors, so two runs over the same tree produce identical
//! findings in identical order.
//!
//! Configuration comes from `et-lint.toml` (see [`crate::allowlist`]):
//! `[[entry]]` tables select entry-point functions by qualified-name
//! substring, `[[source]]` tables declare L11 taint sources. With no
//! configuration the rules are vacuous — the graph is still built (and its
//! unresolved bucket still reported), but nothing can fire. An `[[entry]]`
//! that matches no function roots nothing and is itself a finding, as a
//! stale `[[hot]]` root is.

#![expect(
    clippy::indexing_slicing,
    reason = "node ids come from the graph (reach and 0..n loops), and gateway, acqs and closure hold one entry per node; a cycle is the non-empty stack suffix from a position that position() found"
)]

use std::collections::{BTreeMap, BTreeSet};

use crate::allowlist::Allowlist;
use crate::callgraph::CallGraph;
use crate::cost_rules::stale_root_finding;
use crate::parser::Callee;
use crate::rules::{Rule, Violation};

/// A graph-rule finding: a violation plus its witness call chain.
#[derive(Debug)]
pub struct GraphFinding {
    /// Repo-relative path of the offending function's file.
    pub path: String,
    /// The violation (rule, line, message, excerpt).
    pub violation: Violation,
    /// Witness chain, entry first, one `qual (file:line)` hop per element.
    pub witness: Vec<String>,
}

/// Runs L10 and L11 over the linked graph.
pub fn check(graph: &CallGraph, config: &Allowlist) -> Vec<GraphFinding> {
    let mut out = Vec::new();
    l10_lock_order(graph, &mut out);
    l11_determinism_taint(graph, config, &mut out);
    out
}

/// The fns the L11 `[[entry]]` tables root, reporting every table that
/// roots none.
fn entry_roots(graph: &CallGraph, config: &Allowlist, out: &mut Vec<GraphFinding>) -> Vec<usize> {
    let mut entries = Vec::new();
    for spec in &config.graph_entries {
        let matched = graph.match_entries(&spec.pattern);
        if matched.is_empty() {
            out.push(stale_root_finding(
                graph,
                Rule::L11,
                "[[entry]]",
                &spec.pattern,
                spec.line,
            ));
        }
        entries.extend(matched);
    }
    entries
}

/// One lock acquisition inside a function, attributed to a lock class.
#[derive(Debug, Clone)]
struct Acq {
    /// Lock class, e.g. `SessionStore.shards` or `et_serve::rx`.
    class: String,
    /// Token index of the acquiring call.
    tok: usize,
    /// Token index one past the guard's live region.
    guard_end: usize,
    /// 1-based line of the acquisition.
    line: usize,
    /// Trimmed source line.
    line_text: String,
}

/// One edge of the lock-order relation, with its witness site.
#[derive(Debug, Clone)]
struct OrderWitness {
    text: String,
    file: String,
    line: usize,
    line_text: String,
}

/// L10: cycles in the workspace lock-acquisition order graph.
fn l10_lock_order(graph: &CallGraph, out: &mut Vec<GraphFinding>) {
    // Pass 1: gateway fixpoint. A gateway acquires a lock passed in by its
    // caller (`fn lock<T>(m: &Mutex<T>)`), directly or through another
    // gateway, so its acquisitions are attributed at the call site.
    let n = graph.nodes.len();
    let mut gateway = vec![false; n];
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..n {
            if gateway[id] {
                continue;
            }
            let node = &graph.nodes[id];
            let is_gw = node.item.calls.iter().enumerate().any(|(ci, c)| {
                let param_hint = |h: &Option<String>| {
                    h.as_ref()
                        .is_some_and(|h| node.item.params.iter().any(|p| p == h))
                };
                match &c.callee {
                    Callee::Method { name, recv } if name == "lock" => param_hint(&recv.hint),
                    _ => {
                        param_hint(&c.arg_hint)
                            && graph.edges[id]
                                .iter()
                                .any(|e| e.call_idx == ci && gateway[e.callee])
                    }
                }
            });
            if is_gw {
                gateway[id] = true;
                changed = true;
            }
        }
    }

    // Pass 2: per-node direct acquisitions with resolved lock classes.
    let mut acqs: Vec<Vec<Acq>> = vec![Vec::new(); n];
    for (id, node) in graph.nodes.iter().enumerate() {
        if node.item.is_test {
            continue;
        }
        for (ci, c) in node.item.calls.iter().enumerate() {
            let classify = |hint: &Option<String>, on_self: bool| -> Option<String> {
                let h = hint.as_ref()?;
                if node.item.params.iter().any(|p| p == h) {
                    return None; // parametric: attributed at *our* call sites
                }
                match (&node.item.self_type, on_self) {
                    (Some(t), true) => Some(format!("{t}.{h}")),
                    _ => Some(format!("{}::{h}", node.krate)),
                }
            };
            let class = match &c.callee {
                Callee::Method { name, recv } if name == "lock" => {
                    classify(&recv.hint, recv.is_self)
                }
                _ => {
                    let hits_gateway = graph.edges[id]
                        .iter()
                        .any(|e| e.call_idx == ci && gateway[e.callee]);
                    if hits_gateway {
                        classify(&c.arg_hint, c.arg_is_self)
                    } else {
                        None
                    }
                }
            };
            if let Some(class) = class {
                acqs[id].push(Acq {
                    class,
                    tok: c.tok,
                    guard_end: c.guard_end_tok,
                    line: c.line,
                    line_text: c.line_text.clone(),
                });
            }
        }
    }

    // Pass 3: transitive lock closure per node (classes a call into this
    // fn may acquire), by fixpoint over resolved edges.
    let mut closure: Vec<BTreeSet<String>> = acqs
        .iter()
        .map(|a| a.iter().map(|x| x.class.clone()).collect())
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..n {
            let mut add: Vec<String> = Vec::new();
            for e in &graph.edges[id] {
                for c in &closure[e.callee] {
                    if !closure[id].contains(c) {
                        add.push(c.clone());
                    }
                }
            }
            for c in add {
                if closure[id].insert(c) {
                    changed = true;
                }
            }
        }
    }

    // Pass 4: the order relation. While class A's guard is live, any
    // direct acquisition of B or any call whose closure contains B adds
    // the edge A → B. First witness per (A, B) wins (id order, so
    // deterministic).
    let mut order: BTreeMap<String, BTreeMap<String, OrderWitness>> = BTreeMap::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        for a in &acqs[id] {
            let mut record = |b_class: &str, w: OrderWitness| {
                if b_class == a.class {
                    return;
                }
                order
                    .entry(a.class.clone())
                    .or_default()
                    .entry(b_class.to_string())
                    .or_insert(w);
            };
            for b in &acqs[id] {
                if b.tok > a.tok && b.tok < a.guard_end {
                    record(
                        &b.class,
                        OrderWitness {
                            text: format!("{} then {} in `{}`", a.class, b.class, node.qual()),
                            file: node.file.clone(),
                            line: b.line,
                            line_text: b.line_text.clone(),
                        },
                    );
                }
            }
            for (ci, c) in node.item.calls.iter().enumerate() {
                if c.tok <= a.tok || c.tok >= a.guard_end {
                    continue;
                }
                for e in &graph.edges[id] {
                    if e.call_idx != ci {
                        continue;
                    }
                    for b_class in &closure[e.callee] {
                        record(
                            b_class,
                            OrderWitness {
                                text: format!(
                                    "{} held across `{}` which acquires {} in `{}`",
                                    a.class,
                                    graph.nodes[e.callee].qual(),
                                    b_class,
                                    node.qual()
                                ),
                                file: node.file.clone(),
                                line: c.line,
                                line_text: c.line_text.clone(),
                            },
                        );
                    }
                }
            }
        }
    }

    // Pass 5: cycle detection (DFS, deterministic order), one finding per
    // distinct cycle class-set.
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in order.keys() {
        let mut stack = vec![start.clone()];
        let mut on_stack: BTreeSet<String> = [start.clone()].into();
        dfs_cycles(&order, &mut stack, &mut on_stack, &mut reported, out);
    }
}

/// DFS from the last element of `stack`, emitting a finding per new cycle.
fn dfs_cycles(
    order: &BTreeMap<String, BTreeMap<String, OrderWitness>>,
    stack: &mut Vec<String>,
    on_stack: &mut BTreeSet<String>,
    reported: &mut BTreeSet<Vec<String>>,
    out: &mut Vec<GraphFinding>,
) {
    let Some(cur) = stack.last().cloned() else {
        return;
    };
    let Some(nexts) = order.get(&cur) else {
        return;
    };
    for nxt in nexts.keys() {
        if on_stack.contains(nxt) {
            // Cycle: the stack suffix from `nxt` back to `cur`.
            let Some(pos) = stack.iter().position(|c| c == nxt) else {
                continue;
            };
            let cycle: Vec<String> = stack[pos..].to_vec();
            let mut key = cycle.clone();
            key.sort();
            if !reported.insert(key) {
                continue;
            }
            // Render each edge of the cycle with its witness.
            let mut witness = Vec::new();
            let mut first_site: Option<&OrderWitness> = None;
            for i in 0..cycle.len() {
                let from = &cycle[i];
                let to = &cycle[(i + 1) % cycle.len()];
                if let Some(w) = order.get(from).and_then(|m| m.get(to)) {
                    witness.push(format!("{} ({}:{})", w.text, w.file, w.line));
                    if first_site.is_none() {
                        first_site = Some(w);
                    }
                }
            }
            let Some(site) = first_site else {
                continue;
            };
            let ring = {
                let mut r = cycle.clone();
                r.push(cycle[0].clone());
                r.join(" -> ")
            };
            out.push(GraphFinding {
                path: site.file.clone(),
                violation: Violation {
                    rule: Rule::L10,
                    line: site.line,
                    message: format!("lock-order cycle: {ring}"),
                    excerpt: site.line_text.clone(),
                },
                witness,
            });
            continue;
        }
        if stack.len() > order.len() {
            continue; // depth bound; cannot happen with on_stack, belt and braces
        }
        stack.push(nxt.clone());
        on_stack.insert(nxt.clone());
        dfs_cycles(order, stack, on_stack, reported, out);
        stack.pop();
        on_stack.remove(nxt);
    }
}

/// L11: nondeterminism sources reachable from session entry points.
fn l11_determinism_taint(graph: &CallGraph, config: &Allowlist, out: &mut Vec<GraphFinding>) {
    let entries = entry_roots(graph, config, out);
    if entries.is_empty() {
        return;
    }
    let parents = graph.reach(&entries);
    for &id in parents.keys() {
        let node = &graph.nodes[id];
        // Calls are in source order, so the first matching one is the
        // anchor (lowest line).
        let Some((call, what)) = node.item.calls.iter().find_map(|c| {
            let rendered = c.callee.render();
            config
                .graph_sources
                .iter()
                .any(|s| rendered.contains(s.pattern.as_str()))
                .then_some((c, rendered))
        }) else {
            continue;
        };
        let witness = graph.witness(&parents, id);
        let entry_desc = witness.first().cloned().unwrap_or_else(|| node.qual());
        out.push(GraphFinding {
            path: node.file.clone(),
            violation: Violation {
                rule: Rule::L11,
                line: call.line,
                message: format!(
                    "`{}` is reachable from session entry {} and touches \
                     nondeterminism source `{}`",
                    node.qual(),
                    entry_desc,
                    what
                ),
                excerpt: call.line_text.clone(),
            },
            witness,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::{parse, FileAst};

    fn run(files: &[(&str, &str)], config: &str) -> Vec<GraphFinding> {
        let parsed: Vec<(String, FileAst)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), parse(&lex(src))))
            .collect();
        let graph = CallGraph::link(&parsed);
        let allow = Allowlist::parse(config).expect("test config parses");
        check(&graph, &allow)
    }

    fn rules_of(findings: &[GraphFinding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.violation.rule.id()).collect()
    }

    #[test]
    fn no_config_means_no_findings() {
        let findings = run(
            &[(
                "crates/a/src/api.rs",
                "pub fn entry() { helper(); }\nfn helper() { let t = Instant::now(); }\n",
            )],
            "",
        );
        assert!(findings.is_empty(), "vacuous without entries: {findings:?}");
    }

    #[test]
    fn l11_fires_on_transitive_source_with_witness() {
        let findings = run(
            &[(
                "crates/a/src/api.rs",
                r#"
                pub fn entry() { middle(); }
                fn middle() { deep(); }
                fn deep() { let t = Instant::now(); }
                fn unreached() { let t = Instant::now(); }
                "#,
            )],
            "[[entry]]\npattern = \"api::entry\"\n\
             [[source]]\npattern = \"Instant::now\"\n",
        );
        assert_eq!(
            rules_of(&findings),
            ["L11"],
            "exactly the reachable source fires: {findings:?}"
        );
        let f = &findings[0];
        assert!(
            f.violation.message.contains("api::deep"),
            "{}",
            f.violation.message
        );
        assert_eq!(
            f.witness.len(),
            3,
            "entry -> middle -> deep: {:?}",
            f.witness
        );
        assert!(f.witness[0].contains("api::entry"), "{:?}", f.witness);
        assert!(f.witness[2].contains("api::deep"), "{:?}", f.witness);
    }

    #[test]
    fn entry_patterns_never_root_test_fns() {
        let findings = run(
            &[(
                "crates/a/src/api.rs",
                "#[cfg(test)]\nfn hidden() { let t = Instant::now(); }\n",
            )],
            "[[entry]]\npattern = \"api::hidden\"\n\
             [[source]]\npattern = \"Instant::now\"\n",
        );
        // The test fn's clock read is not reached, and the entry that
        // roots nothing is reported as stale.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].path, "et-lint.toml");
        let msg = &findings[0].violation.message;
        assert!(msg.contains("matches no function"), "{msg}");
    }

    #[test]
    fn dead_entry_roots_are_reported_at_their_table() {
        let src = r#"
            pub fn step() { pure(); }
            fn pure() -> u32 { 7 }
        "#;
        let config = "[[entry]]\npattern = \"api::step\"\n\
                      [[entry]]\npattern = \"api::replay_history\"\n\
                      [[entry]]\npattern = \"api::stpe\"\n\
                      [[source]]\npattern = \"Instant::now\"\n";
        let findings = run(&[("crates/a/src/api.rs", src)], config);
        let stale: Vec<(&str, usize)> = findings
            .iter()
            .map(|f| (f.violation.rule.id(), f.violation.line))
            .collect();
        assert_eq!(stale, [("L11", 3), ("L11", 5)], "{findings:?}");
        for f in &findings {
            assert_eq!(f.path, "et-lint.toml");
            assert!(
                f.violation.message.starts_with("[[entry]] pattern"),
                "{}",
                f.violation.message
            );
        }
        let msg = &findings[1].violation.message;
        assert!(msg.contains("did you mean `a::api::step`"), "{msg}");
    }

    #[test]
    fn l10_detects_two_lock_inversion_with_witness_cycle() {
        let src = r#"
            pub struct Store { a: u32, b: u32 }
            impl Store {
                pub fn ab(&self) {
                    let ga = self.a.lock();
                    let gb = self.b.lock();
                }
                pub fn ba(&self) {
                    let gb = self.b.lock();
                    let ga = self.a.lock();
                }
            }
        "#;
        let findings = run(&[("crates/a/src/store.rs", src)], "");
        assert_eq!(rules_of(&findings), vec!["L10"], "{findings:?}");
        let f = &findings[0];
        assert!(
            f.violation.message.contains("Store.a") && f.violation.message.contains("Store.b"),
            "cycle names both classes: {}",
            f.violation.message
        );
        assert_eq!(
            f.witness.len(),
            2,
            "one witness per cycle edge: {:?}",
            f.witness
        );
        assert!(
            f.witness.iter().any(|w| w.contains("a::store::Store::ab")),
            "{:?}",
            f.witness
        );
        assert!(
            f.witness.iter().any(|w| w.contains("a::store::Store::ba")),
            "{:?}",
            f.witness
        );
    }

    #[test]
    fn l10_consistent_order_is_clean() {
        let src = r#"
            pub struct Store { a: u32, b: u32 }
            impl Store {
                pub fn one(&self) {
                    let ga = self.a.lock();
                    let gb = self.b.lock();
                }
                pub fn two(&self) {
                    let ga = self.a.lock();
                    let gb = self.b.lock();
                }
            }
        "#;
        let findings = run(&[("crates/a/src/store.rs", src)], "");
        assert!(
            findings.is_empty(),
            "same order everywhere is fine: {findings:?}"
        );
    }

    #[test]
    fn l10_sees_through_gateway_helpers_and_callees() {
        // `grab` is a gateway (locks its parameter); `take_b` acquires B
        // behind a call. ab holds A while calling take_b; ba holds B then A.
        let src = r#"
            pub struct Store { a: u32, b: u32 }
            pub fn grab(m: &Mutex<u32>) -> u32 { m.lock() }
            impl Store {
                fn take_b(&self) -> u32 { grab(&self.b) }
                pub fn ab(&self) {
                    let ga = grab(&self.a);
                    let v = self.take_b();
                }
                pub fn ba(&self) {
                    let gb = grab(&self.b);
                    let ga = grab(&self.a);
                }
            }
        "#;
        let findings = run(&[("crates/a/src/store.rs", src)], "");
        assert_eq!(rules_of(&findings), vec!["L10"], "{findings:?}");
        let f = &findings[0];
        assert!(
            f.witness.iter().any(|w| w.contains("held across")),
            "call-mediated edge carries a via-witness: {:?}",
            f.witness
        );
    }

    #[test]
    fn l10_guard_dropped_before_second_lock_is_clean() {
        let src = r#"
            pub struct Store { a: u32, b: u32 }
            impl Store {
                pub fn ab(&self) {
                    let ga = self.a.lock();
                    drop(ga);
                    let gb = self.b.lock();
                }
                pub fn ba(&self) {
                    let gb = self.b.lock();
                    drop(gb);
                    let ga = self.a.lock();
                }
            }
        "#;
        let findings = run(&[("crates/a/src/store.rs", src)], "");
        assert!(
            findings.is_empty(),
            "explicit drop ends the guard region: {findings:?}"
        );
    }

    #[test]
    fn l11_fires_on_declared_source_with_chain() {
        let src = r#"
            use std::time::Instant;
            pub fn step() { helper(); }
            fn helper() { let t = Instant::now(); }
        "#;
        let config = "[[entry]]\npattern = \"api::step\"\n\
                      [[source]]\npattern = \"Instant::now\"\n";
        let findings = run(&[("crates/a/src/api.rs", src)], config);
        assert_eq!(rules_of(&findings), vec!["L11"], "{findings:?}");
        let f = &findings[0];
        assert!(
            f.violation.message.contains("api::helper"),
            "{}",
            f.violation.message
        );
        assert!(
            f.violation.message.contains("Instant::now"),
            "{}",
            f.violation.message
        );
        assert_eq!(f.witness.len(), 2, "step -> helper: {:?}", f.witness);
    }

    #[test]
    fn l11_entries_may_be_private_and_clean_graph_reports_nothing() {
        let src = r#"
            fn replay() { pure(); }
            fn pure() -> u32 { 7 }
        "#;
        let config = "[[entry]]\npattern = \"api::replay\"\n\
                      [[source]]\npattern = \"Instant::now\"\n";
        let findings = run(&[("crates/a/src/api.rs", src)], config);
        assert!(findings.is_empty(), "no sources reached: {findings:?}");
    }
}
