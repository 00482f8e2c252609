//! The workspace call graph: per-crate symbol tables and best-effort call
//! resolution over [`crate::parser`] output.
//!
//! ## Resolution policy
//!
//! Every call site resolves to zero or more graph nodes. The policy is
//! engineered so that a *wrong* edge is far less likely than a *missing*
//! one, and every missing one is counted in an explicit unresolved bucket
//! rather than silently dropped:
//!
//! 1. **Self method** (`self.m(…)` inside `impl T`): exact lookup of
//!    `crate::T::m`; falls through to the general method rule when the
//!    impl type has no such method (trait default impls, derefs).
//! 2. **General method** (`x.m(…)`): all workspace methods named `m` —
//!    *unless* `m` is in the ubiquitous-name stoplist (`UBIQUITOUS`:
//!    `new`, `len`, `get`, `insert`, `iter`, …), in which case the call is
//!    unresolved (std methods share those names; edges would be noise).
//!    When the parser recorded a receiver hint, candidate sets are first
//!    narrowed to impl types whose lowercased name relates to the hint.
//! 3. **Path call** (`a::b::f(…)`): segments are normalized (leading
//!    `crate`/`super`/`self` dropped, `Self` replaced by the impl type)
//!    and suffix-matched against every node's qualified segment vector.
//! 4. **Bare call** (`f(…)` after import expansion found nothing): same
//!    module first, then same crate, then unresolved.
//!
//! ## Determinism
//!
//! Files are parsed in the engine's sorted file order (parallel workers
//! write into disjoint, pre-allocated slots, so thread scheduling cannot
//! reorder results — see [`crate::run`]). Node ids are assigned in that
//! order; symbol tables are `BTreeMap`s; candidate lists are sorted by
//! node id. Every downstream analysis iterates nodes and edges by id, so
//! two runs over the same tree produce byte-identical reports.

#![expect(
    clippy::indexing_slicing,
    reason = "node ids are positions in nodes, and edges and the closure masks hold one entry per node; call indices enumerate the caller's own calls; a file path's parts and a call path's segments are read after a length check (split always yields one part), and a node's segments end with its fn name, so they are never empty"
)]

use std::collections::BTreeMap;

use crate::parser::{Callee, CostKind, FileAst, FnItem};

/// Cost-closure bit: a heap allocation is contained or reachable.
pub const COST_ALLOC: u8 = 1;
/// Cost-closure bit: a lock acquisition or blocking call is reachable.
pub const COST_LOCK: u8 = 2;
/// Cost-closure bit: I/O or a syscall is reachable.
pub const COST_IO: u8 = 4;

/// The closure bit for one [`CostKind`].
pub fn cost_bit(kind: CostKind) -> u8 {
    match kind {
        CostKind::Alloc => COST_ALLOC,
        CostKind::Lock => COST_LOCK,
        CostKind::Io => COST_IO,
    }
}

/// Method names too common to resolve by name alone: nearly all collide
/// with `std` types, so a name-only edge would be noise. Calls to these
/// resolve only through the self-method rule (exact `crate::T::m` hit).
const UBIQUITOUS: [&str; 38] = [
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "iter_mut",
    "into_iter",
    "enumerate",
    "next",
    "collect",
    "contains",
    "contains_key",
    "keys",
    "values",
    "from",
    "into",
    "to_string",
    "to_owned",
    "as_ref",
    "as_mut",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "write",
    "read",
    "send",
    "recv",
    "clear",
    "parse",
];

/// One function node in the workspace graph.
#[derive(Debug)]
pub struct FnNode {
    /// The parsed item (calls, costs, params, …).
    pub item: FnItem,
    /// Repo-relative path of the defining file.
    pub file: String,
    /// Crate name with `-` mapped to `_` (`et_serve`).
    pub krate: String,
    /// Qualified segments: `[crate, modules…, Type?, name]`.
    pub segments: Vec<String>,
}

impl FnNode {
    /// `crate::mod::Type::name` rendering for messages and witnesses.
    pub fn qual(&self) -> String {
        self.segments.join("::")
    }
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee node id.
    pub callee: usize,
    /// Index into the caller's `item.calls` (for lines and witnesses).
    pub call_idx: usize,
}

/// The linked workspace graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All nodes, in deterministic (file order, source order) id order.
    pub nodes: Vec<FnNode>,
    /// Outgoing resolved edges per node, ordered by call-site order.
    pub edges: Vec<Vec<Edge>>,
    /// Rendered names of calls no rule could resolve (deduplicated,
    /// sorted); sized by `unresolved_count`.
    pub unresolved: std::collections::BTreeSet<String>,
    /// Total unresolved call sites (a rendered name can repeat).
    pub unresolved_count: usize,
}

impl CallGraph {
    /// Builds the graph from per-file parses. `files` pairs each
    /// repo-relative path with its AST, already in the engine's sorted
    /// file order; only library files belong here.
    pub fn link(files: &[(String, FileAst)]) -> CallGraph {
        let mut nodes: Vec<FnNode> = Vec::new();
        for (rel, ast) in files {
            let (krate, file_mods) = module_prefix(rel);
            for item in &ast.fns {
                let mut segments = Vec::with_capacity(2 + file_mods.len() + 2);
                segments.push(krate.clone());
                segments.extend(file_mods.iter().cloned());
                segments.extend(item.module_path.iter().cloned());
                if let Some(t) = &item.self_type {
                    if !t.is_empty() {
                        segments.push(t.clone());
                    }
                }
                segments.push(item.name.clone());
                nodes.push(FnNode {
                    item: item.clone(),
                    file: rel.clone(),
                    krate: krate.clone(),
                    segments,
                });
            }
        }

        // Symbol tables. All are BTreeMaps keyed by strings; values are
        // id lists in ascending id order by construction.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut typed: BTreeMap<(String, String, String), Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            by_name.entry(&n.item.name).or_default().push(id);
            if let Some(t) = &n.item.self_type {
                if !t.is_empty() {
                    methods.entry(&n.item.name).or_default().push(id);
                    typed
                        .entry((n.krate.clone(), t.clone(), n.item.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }

        let mut graph = CallGraph {
            edges: vec![Vec::new(); nodes.len()],
            ..CallGraph::default()
        };

        for (id, node) in nodes.iter().enumerate() {
            for (call_idx, call) in node.item.calls.iter().enumerate() {
                let targets = resolve(node, call_idx, &nodes, &by_name, &methods, &typed);
                if targets.is_empty() {
                    graph.unresolved_count += 1;
                    graph.unresolved.insert(call.callee.render());
                } else {
                    for callee in targets {
                        graph.edges[id].push(Edge { callee, call_idx });
                    }
                }
            }
        }
        graph.nodes = nodes;
        graph
    }

    /// Node ids whose qualified name contains `pattern` (substring match),
    /// test fns excluded. The entry-point selector for L11 and the
    /// `[[hot]]` roots.
    pub fn match_entries(&self, pattern: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.item.is_test)
            .filter(|(_, n)| n.qual().contains(pattern))
            .map(|(id, _)| id)
            .collect()
    }

    /// Breadth-first reachability from `entries` over resolved edges,
    /// returning for each reached node the id of the node it was first
    /// reached *from* (entries map to themselves). Deterministic: the
    /// frontier is processed in id order.
    pub fn reach(&self, entries: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut frontier: Vec<usize> = Vec::new();
        let mut sorted_entries = entries.to_vec();
        sorted_entries.sort_unstable();
        sorted_entries.dedup();
        for &e in &sorted_entries {
            parent.insert(e, e);
            frontier.push(e);
        }
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &id in &frontier {
                for edge in &self.edges[id] {
                    // Never traverse *into* test fns: cfg(test) code
                    // is exempt from every graph rule.
                    if self.nodes[edge.callee].item.is_test {
                        continue;
                    }
                    if let std::collections::btree_map::Entry::Vacant(slot) =
                        parent.entry(edge.callee)
                    {
                        slot.insert(id);
                        next.push(edge.callee);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        parent
    }

    /// Per-node transitive cost masks (`COST_ALLOC | COST_LOCK | COST_IO`):
    /// bit set when the node itself contains a cost-bearing operation of
    /// that class or can reach one over resolved edges. Computed as a
    /// reverse-reachability fixpoint — callers inherit callee bits until
    /// nothing changes — so the cost rules can skip whole hot roots whose
    /// mask is clean without walking them. Test fns neither carry nor
    /// propagate cost (mirroring [`Self::reach`]'s traversal policy).
    pub fn cost_closure(&self) -> Vec<u8> {
        let n = self.nodes.len();
        let mut mask: Vec<u8> = self
            .nodes
            .iter()
            .map(|node| {
                if node.item.is_test {
                    0
                } else {
                    node.item
                        .costs
                        .iter()
                        .fold(0u8, |m, c| m | cost_bit(c.kind))
                }
            })
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for id in 0..n {
                if self.nodes[id].item.is_test {
                    continue;
                }
                let mut m = mask[id];
                for e in &self.edges[id] {
                    if self.nodes[e.callee].item.is_test {
                        continue;
                    }
                    m |= mask[e.callee];
                }
                if m != mask[id] {
                    mask[id] = m;
                    changed = true;
                }
            }
        }
        mask
    }

    /// The witness chain from an entry down to `target`, rendered as
    /// `qual (file:line)` hops, using the BFS parent map from [`Self::reach`].
    pub fn witness(&self, parents: &BTreeMap<usize, usize>, target: usize) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cur = target;
        let mut hops = 0usize;
        while let Some(&p) = parents.get(&cur) {
            let n = &self.nodes[cur];
            chain.push(format!("{} ({}:{})", n.qual(), n.file, n.item.line));
            if p == cur || hops > self.nodes.len() {
                break;
            }
            cur = p;
            hops += 1;
        }
        chain.reverse();
        chain
    }
}

/// Splits a repo-relative library path into its crate name and
/// file-derived module segments: `crates/et-fd/src/cache.rs` →
/// (`et_fd`, [`cache`]); `src/lib.rs` → (`exploratory_training`, []).
/// `lib`/`main`/`mod` stems and `bin` directories contribute no segment.
fn module_prefix(rel: &str) -> (String, Vec<String>) {
    let parts: Vec<&str> = rel.split('/').collect();
    let (krate, rest) = if parts.first() == Some(&"crates") && parts.len() > 2 {
        (parts[1].replace('-', "_"), &parts[3..])
    } else {
        ("exploratory_training".to_string(), &parts[1..])
    };
    let mut mods = Vec::new();
    for (i, part) in rest.iter().enumerate() {
        let is_last = i + 1 == rest.len();
        let name = if is_last {
            part.strip_suffix(".rs").unwrap_or(part)
        } else {
            part
        };
        if matches!(name, "lib" | "main" | "mod" | "bin") {
            continue;
        }
        mods.push(name.to_string());
    }
    (krate, mods)
}

/// Resolves one call site to its candidate node ids (possibly empty).
fn resolve(
    caller: &FnNode,
    call_idx: usize,
    nodes: &[FnNode],
    by_name: &BTreeMap<&str, Vec<usize>>,
    methods: &BTreeMap<&str, Vec<usize>>,
    typed: &BTreeMap<(String, String, String), Vec<usize>>,
) -> Vec<usize> {
    let call = &caller.item.calls[call_idx];
    match &call.callee {
        Callee::Method { name, recv } => {
            // Rule 1: `self.m()` inside `impl T` → crate::T::m.
            if recv.is_self && recv.hint.is_none() {
                if let Some(t) = &caller.item.self_type {
                    if let Some(ids) = typed.get(&(caller.krate.clone(), t.clone(), name.clone())) {
                        return ids.clone();
                    }
                }
            }
            // Rule 2: general method. Ubiquitous names resolve only via
            // rule 1 above.
            if UBIQUITOUS.contains(&name.as_str()) {
                return Vec::new();
            }
            let Some(ids) = methods.get(name.as_str()) else {
                return Vec::new();
            };
            // Hint narrowing: `self.cache.rebuild()` with a field hint
            // `cache` prefers impl types whose lowercased name and the
            // hint share a stem in either direction.
            if let Some(hint) = &recv.hint {
                let hint_l = hint.to_lowercase().replace('_', "");
                let narrowed: Vec<usize> = ids
                    .iter()
                    .copied()
                    .filter(|&id| {
                        nodes[id].item.self_type.as_ref().is_some_and(|t| {
                            let t_l = t.to_lowercase();
                            !hint_l.is_empty() && (t_l.contains(&hint_l) || hint_l.contains(&t_l))
                        })
                    })
                    .collect();
                if !narrowed.is_empty() {
                    return narrowed;
                }
            }
            ids.clone()
        }
        Callee::Path { segments } => {
            let normalized = normalize_path(segments, caller);
            if normalized.is_empty() {
                return Vec::new();
            }
            if normalized.len() == 1 {
                return resolve_bare(&normalized[0], caller, nodes, by_name);
            }
            // Rule 3: suffix match against qualified segment vectors.
            // External paths (std::…, vendored crates) match nothing and
            // land in the unresolved bucket, which is correct: their
            // behaviour is covered by taint *sources*, not edges.
            let hits: Vec<usize> = nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| !n.item.is_test)
                .filter(|(_, n)| ends_with(&n.segments, &normalized))
                .map(|(id, _)| id)
                .collect();
            hits
        }
    }
}

/// Drops leading `crate`/`super`/`self` segments and substitutes `Self`
/// with the caller's impl type.
fn normalize_path(segments: &[String], caller: &FnNode) -> Vec<String> {
    let mut out = Vec::with_capacity(segments.len());
    for (i, s) in segments.iter().enumerate() {
        if i == 0 && matches!(s.as_str(), "crate" | "super" | "self") {
            continue;
        }
        if s == "Self" {
            if let Some(t) = &caller.item.self_type {
                out.push(t.clone());
                continue;
            }
        }
        out.push(s.clone());
    }
    out
}

/// Rule 4: a bare `f()` resolves within the caller's module, then the
/// caller's crate; ambiguity across crates stays unresolved.
fn resolve_bare(
    name: &str,
    caller: &FnNode,
    nodes: &[FnNode],
    by_name: &BTreeMap<&str, Vec<usize>>,
) -> Vec<usize> {
    let Some(ids) = by_name.get(name) else {
        return Vec::new();
    };
    // Free functions only: a bare call cannot hit a method.
    let frees: Vec<usize> = ids
        .iter()
        .copied()
        .filter(|&id| nodes[id].item.self_type.is_none() && !nodes[id].item.is_test)
        .collect();
    let same_module: Vec<usize> = frees
        .iter()
        .copied()
        .filter(|&id| {
            nodes[id].krate == caller.krate && nodes[id].file == caller.file
                || nodes[id].segments[..nodes[id].segments.len() - 1]
                    == caller.segments[..caller.segments.len().saturating_sub(1)]
        })
        .collect();
    if !same_module.is_empty() {
        return same_module;
    }
    let same_crate: Vec<usize> = frees
        .iter()
        .copied()
        .filter(|&id| nodes[id].krate == caller.krate)
        .collect();
    same_crate
}

/// True when `hay` ends with `needle`.
fn ends_with(hay: &[String], needle: &[String]) -> bool {
    needle.len() <= hay.len() && hay[hay.len() - needle.len()..] == *needle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<(String, FileAst)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), parse(&lex(src))))
            .collect();
        CallGraph::link(&parsed)
    }

    fn id_of(g: &CallGraph, qual: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.qual() == qual)
            .unwrap_or_else(|| {
                let all: Vec<String> = g.nodes.iter().map(FnNode::qual).collect();
                panic!("no node {qual}; have {all:?}")
            })
    }

    fn callees(g: &CallGraph, id: usize) -> Vec<String> {
        g.edges[id]
            .iter()
            .map(|e| g.nodes[e.callee].qual())
            .collect()
    }

    #[test]
    fn qualified_names_follow_file_layout() {
        let g = graph(&[
            (
                "crates/et-fd/src/cache.rs",
                "impl PartitionCache { fn hit(&self) {} }",
            ),
            ("src/lib.rs", "pub fn root() {}"),
            ("crates/et-serve/src/bin/serve.rs", "fn main() {}"),
        ]);
        assert_eq!(g.nodes[0].qual(), "et_fd::cache::PartitionCache::hit");
        assert_eq!(g.nodes[1].qual(), "exploratory_training::root");
        assert_eq!(g.nodes[2].qual(), "et_serve::serve::main");
    }

    #[test]
    fn self_method_resolves_exactly() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            r#"
            impl Engine {
                pub fn step(&self) { self.advance(); }
                fn advance(&self) {}
            }
            impl Other {
                fn advance(&self) {}
            }
            "#,
        )]);
        let step = id_of(&g, "a::Engine::step");
        assert_eq!(callees(&g, step), ["a::Engine::advance"]);
    }

    #[test]
    fn ubiquitous_method_names_stay_unresolved() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            r#"
            impl Store { pub fn insert(&self, k: u32) {} }
            impl Space { pub fn enumerate(&self) -> Vec<u32> { Vec::new() } }
            fn caller(v: &Vec<u32>) {
                v.clear();
                other.insert(3);
                for (i, x) in v.iter().enumerate() {}
            }
            "#,
        )]);
        let caller = id_of(&g, "a::caller");
        assert!(callees(&g, caller).is_empty(), "{:?}", callees(&g, caller));
        assert!(g.unresolved.contains("v.clear"), "{:?}", g.unresolved);
        assert!(g.unresolved_count >= 3);
    }

    #[test]
    fn path_calls_suffix_match_and_cross_crates() {
        let g = graph(&[
            (
                "crates/et-core/src/session.rs",
                "impl SessionState { pub fn present(&self) {} }",
            ),
            (
                "crates/et-serve/src/server.rs",
                r#"
                use et_core::session::SessionState;
                fn handle() { SessionState::present(); crate::local(); }
                fn local() {}
                "#,
            ),
        ]);
        let handle = id_of(&g, "et_serve::server::handle");
        let got = callees(&g, handle);
        assert!(
            got.contains(&"et_core::session::SessionState::present".to_string()),
            "{got:?}"
        );
        assert!(
            got.contains(&"et_serve::server::local".to_string()),
            "{got:?}"
        );
    }

    #[test]
    fn bare_calls_prefer_same_module_then_same_crate() {
        let g = graph(&[
            ("crates/a/src/x.rs", "fn f() { helper(); } fn helper() {}"),
            ("crates/a/src/y.rs", "fn helper() {}"),
            ("crates/b/src/lib.rs", "fn helper() {}"),
        ]);
        let f = id_of(&g, "a::x::f");
        assert_eq!(callees(&g, f), ["a::x::helper"], "same-module wins");
    }

    #[test]
    fn reach_and_witness_find_shortest_chain() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            r#"
            pub fn entry() { middle(); }
            fn middle() { deep(); }
            fn deep() {}
            "#,
        )]);
        let entry = id_of(&g, "a::entry");
        let deep = id_of(&g, "a::deep");
        let parents = g.reach(&[entry]);
        assert!(parents.contains_key(&deep));
        let w = g.witness(&parents, deep);
        assert_eq!(w.len(), 3, "{w:?}");
        assert!(w[0].starts_with("a::entry"), "{w:?}");
        assert!(w[2].starts_with("a::deep"), "{w:?}");
    }

    #[test]
    fn test_fns_are_never_traversed() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            r#"
            pub fn entry() { support(); }
            #[cfg(test)]
            mod tests {
                fn support() { Some(1u32).unwrap(); }
            }
            fn support() {}
            "#,
        )]);
        let entry = id_of(&g, "a::entry");
        let parents = g.reach(&[entry]);
        let reached: Vec<String> = parents.keys().map(|&id| g.nodes[id].qual()).collect();
        assert!(
            reached.contains(&"a::support".to_string()),
            "non-test twin is reached: {reached:?}"
        );
        assert!(
            !reached.contains(&"a::tests::support".to_string()),
            "test fn must not be traversed: {reached:?}"
        );
    }

    #[test]
    fn cost_closure_propagates_to_callers_only() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            r#"
            pub fn hot() { helper(); }
            fn helper() { let s = format!("x"); }
            fn cold() -> u32 { 7 }
            "#,
        )]);
        let mask = g.cost_closure();
        assert_eq!(mask[id_of(&g, "a::helper")], COST_ALLOC, "direct op");
        assert_eq!(mask[id_of(&g, "a::hot")], COST_ALLOC, "inherited");
        assert_eq!(mask[id_of(&g, "a::cold")], 0, "unrelated fn stays clean");
    }

    #[test]
    fn cost_closure_ignores_test_fns() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            r#"
            pub fn hot() {}
            #[cfg(test)]
            mod tests {
                fn noisy() { println!("only in tests"); }
            }
            "#,
        )]);
        let mask = g.cost_closure();
        assert_eq!(mask[id_of(&g, "a::hot")], 0);
        assert_eq!(mask[id_of(&g, "a::tests::noisy")], 0);
    }

    #[test]
    fn hint_narrowing_prefers_matching_type() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            r#"
            impl PartitionCache { pub fn rebuild(&self) {} }
            impl Renderer { pub fn rebuild(&self) {} }
            fn f(&self) { self.cache.rebuild(); }
            "#,
        )]);
        let f = id_of(&g, "a::f");
        assert_eq!(callees(&g, f), ["a::PartitionCache::rebuild"]);
    }
}
