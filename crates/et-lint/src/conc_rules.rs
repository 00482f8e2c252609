//! The token-level concurrency & determinism rules L5, L6 and L8.
//!
//! These rules walk the file's one [`crate::lexer`] token stream (through
//! [`crate::rules::check_file`]) for expression structure: what a
//! `let` binds, where a statement ends, which block a guard lives in. All
//! three target hazards that corrupt the reproduction's figures silently
//! instead of crashing a test:
//!
//! - **L5** — a `MutexGuard` held across a blocking call serializes the
//!   worker pool (or deadlocks it) without failing any functional test.
//! - **L6** — an atomic `Ordering` argument without a trailing `// ord:`
//!   justification is unreviewable: Relaxed-vs-AcqRel is exactly the kind
//!   of choice that reads fine and loses counts under load.
//! - **L8** — `HashMap`/`HashSet` iteration order is randomized per
//!   process; letting it reach a return value, a `Vec`, or the wire makes
//!   responses and replay files non-reproducible.

#![expect(
    clippy::indexing_slicing,
    reason = "token indices come from loops over 0..tokens.len() or from next_code, prev_code, statement_end and matching_close, which return only positions inside the stream"
)]

use crate::lexer::{Delim, TokenKind, TokenStream};
use crate::rules::{excerpt_line, in_regions, Rule, Violation};

/// Runs L5, L6 and L8 over one lexed library file. `regions` are its
/// `#[cfg(test)]` byte ranges (see `rules::test_regions`).
pub fn check(ts: &TokenStream<'_>, regions: &[(usize, usize)], out: &mut Vec<Violation>) {
    l5_guard_across_blocking(ts, regions, out);
    l6_ordering_justified(ts, regions, out);
    l8_hash_iteration_order(ts, regions, out);
}

/// Calls that block the current thread indefinitely (or for a configured
/// timeout) — holding a lock across any of these stalls every other
/// thread contending for the same shard.
pub(crate) const BLOCKING_METHODS: [&str; 5] =
    ["recv", "recv_timeout", "accept", "read_line", "join"];

/// L5: no `lock()` guard live across a blocking call.
///
/// Detection: each `.lock()` call either feeds a `let` binding (guard
/// lives from the statement end to the enclosing block's `}` or an
/// explicit `drop(binding)`) or is a temporary (guard lives to the end of
/// its own statement). Any blocking call inside the live range fires.
fn l5_guard_across_blocking(
    ts: &TokenStream<'_>,
    regions: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    for i in 0..ts.tokens.len() {
        if !(ts.is_code(i) && ts.text(i) == "lock" && ts.tokens[i].kind == TokenKind::Ident) {
            continue;
        }
        let prev_dot = ts.prev_code(i).is_some_and(|p| ts.text(p) == ".");
        let next_paren = ts
            .next_code(i)
            .is_some_and(|n| ts.tokens[n].kind == TokenKind::Open(Delim::Paren));
        if !prev_dot || !next_paren {
            continue;
        }
        if in_regions(regions, ts.tokens[i].start) {
            continue;
        }
        let stmt_start = ts.statement_start(i);
        let stmt_end = ts.statement_end(i);
        // The guard outlives its statement only when a `let` binds the
        // guard itself: the value of `.lock()` possibly piped through
        // guard-preserving adapters (`unwrap`, `match` on the poison
        // result). A chain that keeps calling into the guard
        // (`.lock().recv_timeout(…)`) consumes it within the statement.
        let is_let = ts.text(stmt_start) == "let";
        let guard_bound = is_let && !chain_continues_past_guard(ts, i);
        let binding = guard_bound.then(|| {
            let mut j = stmt_start + 1;
            while j < ts.tokens.len() && (!ts.is_code(j) || ts.text(j) == "mut") {
                j += 1;
            }
            (ts.tokens[j].kind == TokenKind::Ident).then(|| ts.text(j))
        });
        let (scope_start, mut scope_end) = match binding {
            Some(Some(_)) => (stmt_end, ts.enclosing_block_close(stmt_start)),
            // Destructuring `let (a, b) = …`, temporaries, non-let
            // statements: the guard dies at the end of its own statement.
            _ => (i, stmt_end),
        };
        // An explicit `drop(binding)` ends the guard early.
        if let Some(Some(name)) = binding {
            for j in scope_start..scope_end {
                if ts.is_code(j) && ts.text(j) == "drop" && ts.matches_seq(j + 1, &["(", name]) {
                    scope_end = j;
                    break;
                }
            }
        }
        for j in scope_start..scope_end.min(ts.tokens.len()) {
            if !ts.is_code(j) || ts.tokens[j].kind != TokenKind::Ident {
                continue;
            }
            let name = ts.text(j);
            let is_method = BLOCKING_METHODS.contains(&name)
                && ts.prev_code(j).is_some_and(|p| ts.text(p) == ".")
                && ts
                    .next_code(j)
                    .is_some_and(|n| ts.tokens[n].kind == TokenKind::Open(Delim::Paren));
            let is_connect = name == "connect"
                && ts
                    .prev_code(j)
                    .and_then(|c1| ts.prev_code(c1).map(|c2| (c1, c2)))
                    .and_then(|(c1, c2)| ts.prev_code(c2).map(|t| (c1, c2, t)))
                    .is_some_and(|(c1, c2, t)| {
                        ts.text(c1) == ":" && ts.text(c2) == ":" && ts.text(t) == "TcpStream"
                    });
            if is_method || is_connect {
                let line = ts.tokens[j].line;
                out.push(Violation {
                    rule: Rule::L5,
                    line,
                    message: format!(
                        "mutex guard from `.lock()` (line {}) is still live across \
                         blocking `{name}`; drop the guard first or move the wait \
                         out of the critical section",
                        ts.tokens[i].line
                    ),
                    excerpt: excerpt_line(ts.source, line),
                });
                break; // one finding per guard is enough
            }
        }
    }
}

/// Adapters that return the guard itself (or its poisoned twin).
const GUARD_PRESERVING: [&str; 5] = [
    "unwrap",
    "expect",
    "unwrap_or_else",
    "unwrap_or_default",
    "into_inner",
];

/// For a `lock` ident at `lock_idx`, true when the method chain keeps
/// going after the guard-returning prefix — meaning the guard is a
/// temporary consumed inside its own statement, not the bound value.
fn chain_continues_past_guard(ts: &TokenStream<'_>, lock_idx: usize) -> bool {
    // `lock ( … )` — find the call's closing paren.
    let Some(open) = ts.next_code(lock_idx) else {
        return false;
    };
    let mut at = match ts.matching_close(open) {
        Some(c) => c,
        None => return false,
    };
    loop {
        let Some(dot) = ts.next_code(at).filter(|&d| ts.text(d) == ".") else {
            return false; // chain ends here: `;`, `{`, `}` — guard is the value
        };
        let Some(m) = ts.next_code(dot) else {
            return false;
        };
        if !GUARD_PRESERVING.contains(&ts.text(m)) {
            return true;
        }
        let Some(o) = ts
            .next_code(m)
            .filter(|&o| ts.tokens[o].kind == TokenKind::Open(Delim::Paren))
        else {
            return true; // `.await`-style or field access: treat as consumed
        };
        at = match ts.matching_close(o) {
            Some(c) => c,
            None => return false,
        };
    }
}

/// The five memory-ordering modes of `std::sync::atomic::Ordering`.
const ORDERING_MODES: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// L6: every line using `Ordering::<mode>` must carry a non-empty
/// `// ord: <why>` comment — trailing on the same line, or standalone on
/// the line immediately above (where rustfmt keeps it for `{`-ending
/// statements). An `// ord:` comment justifying no ordering use is stale
/// and also fires.
fn l6_ordering_justified(
    ts: &TokenStream<'_>,
    regions: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    use std::collections::BTreeMap;
    // line -> (has ordering use, ord comment state)
    #[derive(Default)]
    struct LineInfo {
        uses: bool,
        ord_comment: Option<bool>, // Some(justified?)
        in_test: bool,
    }
    let mut lines: BTreeMap<usize, LineInfo> = BTreeMap::new();
    for i in 0..ts.tokens.len() {
        let t = &ts.tokens[i];
        if t.kind == TokenKind::Ident
            && ts.text(i) == "Ordering"
            && ts.matches_seq(i + 1, &[":", ":"])
            && ts
                .tokens
                .get(i + 3)
                .is_some_and(|_| ORDERING_MODES.contains(&ts.text(i + 3)))
        {
            let e = lines.entry(t.line).or_default();
            e.uses = true;
            e.in_test |= in_regions(regions, t.start);
        }
        if t.kind == TokenKind::LineComment {
            let body = ts.text(i).trim_start_matches('/').trim_start();
            if let Some(rest) = body.strip_prefix("ord:") {
                let e = lines.entry(t.line).or_default();
                e.ord_comment = Some(!rest.trim().is_empty());
                e.in_test |= in_regions(regions, t.start);
            }
        }
    }
    // Pass 1: resolve each ordering use to its justification — trailing on
    // the same line, or a standalone `// ord:` line directly above.
    let mut consumed: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for (&line, info) in &lines {
        if !info.uses || info.in_test {
            continue;
        }
        let comment = match info.ord_comment {
            Some(j) => Some((line, j)),
            None => lines
                .get(&line.saturating_sub(1))
                .filter(|above| !above.uses)
                .and_then(|above| above.ord_comment)
                .map(|j| (line - 1, j)),
        };
        match comment {
            None => out.push(Violation {
                rule: Rule::L6,
                line,
                message: "atomic `Ordering` argument has no `// ord:` justification on \
                          this line or the line above (state why this ordering is \
                          strong enough)"
                    .to_string(),
                excerpt: excerpt_line(ts.source, line),
            }),
            Some((cline, justified)) => {
                consumed.insert(cline);
                if !justified {
                    out.push(Violation {
                        rule: Rule::L6,
                        line,
                        message: "`// ord:` justification is empty; state why this \
                                  ordering is strong enough"
                            .to_string(),
                        excerpt: excerpt_line(ts.source, line),
                    });
                }
            }
        }
    }
    // Pass 2: any `// ord:` comment that justified nothing is stale.
    for (&line, info) in &lines {
        if info.ord_comment.is_some() && !info.uses && !info.in_test && !consumed.contains(&line) {
            out.push(Violation {
                rule: Rule::L6,
                line,
                message: "stale `// ord:` comment: no `Ordering::` use on this line \
                          or the line below"
                    .to_string(),
                excerpt: excerpt_line(ts.source, line),
            });
        }
    }
}

/// Iterator-source methods on hash containers.
const HASH_ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Order-sensitive sinks: tokens in the same statement (or loop body)
/// that let iteration order escape.
const ORDER_SINKS: [&str; 6] = ["collect", "push", "push_str", "extend", "join", "write_all"];

/// Order-insensitive evidence: a statement containing one of these on the
/// chain is deterministic regardless of iteration order.
const ORDER_NEUTRALIZERS: [&str; 9] = [
    "sum", "count", "min", "max", "all", "any", "product", "BTreeMap", "BTreeSet",
];

/// L8: iteration over a `HashMap`/`HashSet` may not feed an
/// order-sensitive sink unless sorted (or rehomed into a `BTreeMap`).
///
/// Hash-typed names are collected lexically: `name: HashMap<…>`
/// annotations (struct fields, params, lets — outermost type only, seen
/// through `&`/`Arc`/`Mutex`/guard wrappers), `let name = <hash-expr>`,
/// and functions whose return type mentions the containers.
fn l8_hash_iteration_order(
    ts: &TokenStream<'_>,
    regions: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    let marked = collect_hash_names(ts);
    if marked.is_empty() {
        return;
    }
    let mut flagged_lines: Vec<usize> = Vec::new();
    for i in 0..ts.tokens.len() {
        if !ts.is_code(i) || ts.tokens[i].kind != TokenKind::Ident {
            continue;
        }
        if !marked.contains(&ts.text(i).to_string()) {
            continue;
        }
        if in_regions(regions, ts.tokens[i].start) {
            continue;
        }
        // Case 1: `name.iter()`-style chain.
        let chain = ts
            .next_code(i)
            .filter(|&d| ts.text(d) == ".")
            .and_then(|d| ts.next_code(d))
            .filter(|&m| HASH_ITER_METHODS.contains(&ts.text(m)))
            .filter(|&m| {
                ts.next_code(m)
                    .is_some_and(|p| ts.tokens[p].kind == TokenKind::Open(Delim::Paren))
            });
        if let Some(m) = chain {
            let start = ts.statement_start(i);
            let end = ts.statement_end(i);
            if statement_sinks_order(ts, start, end)
                && !sorted_later(ts, start, end)
                && !flagged_lines.contains(&ts.tokens[m].line)
            {
                let line = ts.tokens[m].line;
                flagged_lines.push(line);
                out.push(Violation {
                    rule: Rule::L8,
                    line,
                    message: format!(
                        "iteration over hash container `{}` feeds an order-sensitive \
                         sink; sort the result or use a BTreeMap/BTreeSet",
                        ts.text(i)
                    ),
                    excerpt: excerpt_line(ts.source, line),
                });
            }
            continue;
        }
        // Case 2: `for pat in [&] name { body }`.
        let stmt = ts.statement_start(i);
        if ts.text(stmt) != "for" {
            continue;
        }
        // `i` must sit between `in` and the body `{`.
        let header_depth = ts.tokens[stmt].depth;
        let mut saw_in = false;
        let mut body_open = None;
        for j in stmt..ts.tokens.len() {
            if !ts.is_code(j) || ts.tokens[j].depth != header_depth {
                continue;
            }
            if ts.text(j) == "in" {
                saw_in = j < i;
            }
            if ts.tokens[j].kind == TokenKind::Open(Delim::Brace) {
                body_open = (j > i).then_some(j);
                break;
            }
        }
        let Some(open) = body_open else {
            continue;
        };
        if !saw_in {
            continue;
        }
        let body_end = ts.enclosing_block_close(open + 1);
        if statement_sinks_order(ts, open, body_end)
            && !sorted_later(ts, open, body_end)
            && !flagged_lines.contains(&ts.tokens[stmt].line)
        {
            let line = ts.tokens[stmt].line;
            flagged_lines.push(line);
            out.push(Violation {
                rule: Rule::L8,
                line,
                message: format!(
                    "`for` loop over hash container `{}` feeds an order-sensitive \
                     sink; sort first or use a BTreeMap/BTreeSet",
                    ts.text(i)
                ),
                excerpt: excerpt_line(ts.source, line),
            });
        }
    }
}

/// Idents lexically known to denote hash containers (or values derefing
/// to one) in this file.
fn collect_hash_names(ts: &TokenStream<'_>) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let mark = |n: &str, names: &mut Vec<String>| {
        if !names.iter().any(|m| m == n) {
            names.push(n.to_string());
        }
    };
    // Pass 1: `name : <type>` annotations and `fn name(..) -> <type>`.
    for i in 0..ts.tokens.len() {
        if !ts.is_code(i) || ts.tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let text = ts.text(i);
        if text == "fn" {
            if let Some(name_idx) = ts.next_code(i) {
                if return_type_is_hash(ts, name_idx) {
                    mark(ts.text(name_idx), &mut names);
                }
            }
            continue;
        }
        // `name :` single colon (not `::`).
        let Some(colon) = ts.next_code(i).filter(|&c| ts.text(c) == ":") else {
            continue;
        };
        if ts.next_code(colon).is_some_and(|c2| ts.text(c2) == ":") {
            continue; // path `::`
        }
        if ts.prev_code(i).is_some_and(|p| ts.text(p) == ":") {
            continue; // second segment of `a::b`
        }
        if let Some(ty_start) = ts.next_code(colon) {
            if outermost_type_is_hash(ts, ty_start) {
                mark(text, &mut names);
            }
        }
    }
    // Pass 2 (after pass 1 so markings propagate): `let [mut] name = init`
    // where init's leading ident is hash-typed, a hash constructor, or a
    // hash-returning fn.
    for i in 0..ts.tokens.len() {
        if !ts.is_code(i) || ts.text(i) != "let" {
            continue;
        }
        let mut j = match ts.next_code(i) {
            Some(j) => j,
            None => continue,
        };
        if ts.text(j) == "mut" {
            j = match ts.next_code(j) {
                Some(j) => j,
                None => continue,
            };
        }
        if ts.tokens[j].kind != TokenKind::Ident {
            continue;
        }
        let name = ts.text(j);
        // Skip over an optional `: type` annotation (pass 1 handled it).
        let Some(mut k) = ts.next_code(j) else {
            continue;
        };
        if ts.text(k) != "=" {
            let end = ts.statement_end(i);
            let eq = (k..end).find(|&e| ts.is_code(e) && ts.text(e) == "=");
            k = match eq {
                Some(e) => e,
                None => continue,
            };
        }
        // Leading ident of the initializer (skip `&`, `mut`, `*`).
        let mut lead = ts.next_code(k);
        while let Some(l) = lead {
            if matches!(ts.text(l), "&" | "mut" | "*") {
                lead = ts.next_code(l);
            } else {
                break;
            }
        }
        if let Some(l) = lead {
            let lt = ts.text(l);
            if matches!(lt, "HashMap" | "HashSet") || names.iter().any(|m| m == lt) {
                mark(name, &mut names);
            }
        }
    }
    names
}

/// Starting at a `fn`'s name token, true when its `-> <type>` return
/// mentions `HashMap`/`HashSet` (any wrapper — a guard or ref to a hash
/// container still iterates like one).
fn return_type_is_hash(ts: &TokenStream<'_>, name_idx: usize) -> bool {
    let mut j = name_idx;
    let mut arrow = None;
    while j < ts.tokens.len() {
        if !ts.is_code(j) {
            j += 1;
            continue;
        }
        let t = &ts.tokens[j];
        if t.kind == TokenKind::Open(Delim::Brace) || ts.text(j) == ";" {
            break;
        }
        if ts.text(j) == ">" && j > 0 && ts.text(j - 1) == "-" {
            arrow = Some(j);
        }
        j += 1;
    }
    let Some(a) = arrow else {
        return false;
    };
    (a..j).any(|k| ts.is_code(k) && matches!(ts.text(k), "HashMap" | "HashSet"))
}

/// Walks a type annotation's tokens: true when the outermost concrete
/// container is `HashMap`/`HashSet`, seeing through reference and
/// smart-pointer/guard wrappers. A sequence container (`Vec`, arrays)
/// stops the walk — iterating a `Vec<HashMap<…>>` is order-stable.
fn outermost_type_is_hash(ts: &TokenStream<'_>, mut i: usize) -> bool {
    const PASS_THROUGH: [&str; 11] = [
        "Arc",
        "Rc",
        "Box",
        "Option",
        "Mutex",
        "RwLock",
        "MutexGuard",
        "RwLockReadGuard",
        "RwLockWriteGuard",
        "Ref",
        "RefMut",
    ];
    let mut hops = 0;
    while i < ts.tokens.len() && hops < 32 {
        hops += 1;
        if !ts.is_code(i) {
            i += 1;
            continue;
        }
        match ts.tokens[i].kind {
            TokenKind::Ident => {
                let t = ts.text(i);
                if matches!(t, "HashMap" | "HashSet") {
                    return true;
                }
                if t == "dyn" || t == "mut" {
                    i += 1;
                    continue;
                }
                if PASS_THROUGH.contains(&t) {
                    // Step past `Name <` into the parameter list; also
                    // tolerate `std :: sync :: Mutex` style paths.
                    i += 1;
                    continue;
                }
                return false;
            }
            TokenKind::Lifetime => {
                i += 1;
            }
            TokenKind::Punct => {
                // `&`, `<`, `,`, `::` path separators are transparent.
                if matches!(ts.text(i), "&" | "<" | ":" | "," | "_") {
                    i += 1;
                } else {
                    return false;
                }
            }
            _ => return false,
        }
    }
    false
}

/// True when the token range contains an order-sensitive sink and the
/// statement is not an order-insensitive reduction.
fn statement_sinks_order(ts: &TokenStream<'_>, start: usize, end: usize) -> bool {
    let mut sink = false;
    for j in start..end.min(ts.tokens.len()) {
        if !ts.is_code(j) || ts.tokens[j].kind != TokenKind::Ident {
            continue;
        }
        let t = ts.text(j);
        if ORDER_NEUTRALIZERS.contains(&t) {
            return false;
        }
        if ORDER_SINKS.contains(&t) {
            sink = true;
        }
        if t.starts_with("sort") {
            return false;
        }
    }
    sink
}

/// True when, after the statement/loop, the enclosing block sorts
/// something (`.sort*` on any ident) before the block ends — the
/// collect-then-sort idiom.
fn sorted_later(ts: &TokenStream<'_>, start: usize, end: usize) -> bool {
    let close = ts.enclosing_block_close(start.min(ts.tokens.len().saturating_sub(1)));
    (end..close.min(ts.tokens.len())).any(|j| {
        ts.is_code(j)
            && ts.tokens[j].kind == TokenKind::Ident
            && ts.text(j).starts_with("sort")
            && ts.prev_code(j).is_some_and(|p| ts.text(p) == ".")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_regions;

    fn check_src(src: &str) -> Vec<Violation> {
        let ts = lex(src);
        let regions = test_regions(&ts);
        let mut out = Vec::new();
        check(&ts, &regions, &mut out);
        out.sort_by_key(|v| (v.line, v.rule.id()));
        out
    }

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.rule.id()).collect()
    }

    // ---- L5 ----

    #[test]
    fn l5_guard_binding_across_recv_fires() {
        let src = "fn f(rx: &Mutex<Receiver<u32>>) {\n\
                   \x20   let guard = rx.lock().unwrap_or_default();\n\
                   \x20   let x = guard.recv();\n\
                   }\n";
        let v = check_src(src);
        assert_eq!(rules_of(&v), ["L5"], "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn l5_scope_ends_at_block_close() {
        let src = "fn f(rx: &Mutex<u32>, ch: &Receiver<u32>) {\n\
                   \x20   { let g = rx.lock(); g.get(); }\n\
                   \x20   let x = ch.recv();\n\
                   }\n";
        assert!(check_src(src).is_empty());
    }

    #[test]
    fn l5_drop_ends_guard_early() {
        let src = "fn f(rx: &Mutex<u32>, ch: &Receiver<u32>) {\n\
                   \x20   let g = rx.lock();\n\
                   \x20   drop(g);\n\
                   \x20   let x = ch.recv();\n\
                   }\n";
        assert!(check_src(src).is_empty());
    }

    #[test]
    fn l5_temporary_guard_same_statement_fires() {
        let src = "fn f(rx: &Mutex<Receiver<u32>>) {\n\
                   \x20   let x = rx.lock().recv_timeout(T);\n\
                   }\n";
        let v = check_src(src);
        assert_eq!(rules_of(&v), ["L5"], "{v:?}");
    }

    #[test]
    fn l5_tcpstream_connect_fires_and_tests_exempt() {
        let src = "fn f(m: &Mutex<u32>) {\n\
                   \x20   let g = m.lock();\n\
                   \x20   let s = TcpStream::connect(addr);\n\
                   }\n\
                   #[cfg(test)]\nmod tests {\n\
                   \x20   fn t(m: &Mutex<Receiver<u32>>) { let g = m.lock(); g.recv(); }\n\
                   }\n";
        let v = check_src(src);
        assert_eq!(rules_of(&v), ["L5"], "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn l5_join_on_thread_handle_fires_but_not_without_guard() {
        let src = "fn f(h: JoinHandle<()>) { let _ = h.join(); }\n";
        assert!(check_src(src).is_empty(), "no guard, no finding");
        let src2 = "fn f(m: &Mutex<u32>, h: JoinHandle<()>) {\n\
                    \x20   let g = m.lock();\n\
                    \x20   let _ = h.join();\n\
                    }\n";
        assert_eq!(rules_of(&check_src(src2)), ["L5"]);
    }

    // ---- L6 ----

    #[test]
    fn l6_missing_ord_comment_fires() {
        let src = "fn f(a: &AtomicBool) { a.store(true, Ordering::Release); }\n";
        let v = check_src(src);
        assert_eq!(rules_of(&v), ["L6"], "{v:?}");
    }

    #[test]
    fn l6_justified_line_is_clean() {
        let src = "fn f(a: &AtomicBool) {\n\
                   \x20   a.store(true, Ordering::Release); // ord: publishes the stop flag\n\
                   }\n";
        assert!(check_src(src).is_empty());
    }

    #[test]
    fn l6_empty_justification_fires() {
        let src = "fn f(a: &AtomicBool) { a.load(Ordering::Acquire); // ord:\n}\n";
        let v = check_src(src);
        assert_eq!(rules_of(&v), ["L6"], "{v:?}");
        assert!(v[0].message.contains("empty"), "{v:?}");
    }

    #[test]
    fn l6_stale_ord_comment_fires() {
        let src = "fn f() { let x = 1; // ord: left over from a refactor\n}\n";
        let v = check_src(src);
        assert_eq!(rules_of(&v), ["L6"], "{v:?}");
        assert!(v[0].message.contains("stale"), "{v:?}");
    }

    #[test]
    fn l6_two_orderings_one_line_one_comment() {
        let src = "fn f(a: &AtomicUsize) {\n\
                   \x20   a.fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| Some(v)); \
                   // ord: RMW publishes the slot count; failure path re-reads it\n\
                   }\n";
        assert!(check_src(src).is_empty());
    }

    #[test]
    fn l6_comment_on_line_above_is_accepted() {
        // rustfmt moves a trailing comment off a `{`-ending statement, so
        // the justification may sit on the line directly above instead.
        let src = "fn f(a: &AtomicBool) {\n\
                   \x20   // ord: Acquire pairs with the Release store in shutdown\n\
                   \x20   if a.load(Ordering::Acquire) {\n\
                   \x20       return;\n\
                   \x20   }\n\
                   }\n";
        assert!(check_src(src).is_empty(), "{:?}", check_src(src));
    }

    #[test]
    fn l6_line_above_comment_serves_only_one_use() {
        // The standalone comment justifies the line below; a second,
        // uncommented use two lines down still fires.
        let src = "fn f(a: &AtomicBool) {\n\
                   \x20   // ord: covers only the next line\n\
                   \x20   a.store(true, Ordering::Release);\n\
                   \x20   a.store(false, Ordering::Release);\n\
                   }\n";
        let v = check_src(src);
        assert_eq!(rules_of(&v), ["L6"], "{v:?}");
        assert_eq!(v[0].line, 4, "{v:?}");
    }

    #[test]
    fn l6_ignores_ordering_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   \x20   fn t(a: &AtomicBool) { a.load(Ordering::Acquire); }\n\
                   }\n";
        assert!(check_src(src).is_empty());
    }

    // ---- L8 ----

    #[test]
    fn l8_collect_from_hashmap_iter_fires() {
        let src = "use std::collections::HashMap;\n\
                   pub fn f(m: &HashMap<u64, u32>) -> Vec<u64> {\n\
                   \x20   m.keys().copied().collect()\n\
                   }\n";
        let v = check_src(src);
        assert_eq!(rules_of(&v), ["L8"], "{v:?}");
    }

    #[test]
    fn l8_collect_then_sort_is_clean() {
        let src = "pub fn f(m: &HashMap<u64, u32>) -> Vec<u64> {\n\
                   \x20   let mut v: Vec<u64> = m.keys().copied().collect();\n\
                   \x20   v.sort_unstable();\n\
                   \x20   v\n\
                   }\n";
        assert!(check_src(src).is_empty());
    }

    #[test]
    fn l8_sum_and_count_are_clean() {
        let src = "pub fn f(m: &HashMap<u64, u32>) -> u32 { m.values().sum() }\n\
                   pub fn g(m: &HashMap<u64, u32>) -> usize { m.iter().count() }\n";
        assert!(check_src(src).is_empty());
    }

    #[test]
    fn l8_for_loop_push_fires() {
        let src = "pub fn f(set: &HashSet<u32>) -> Vec<u32> {\n\
                   \x20   let mut out = Vec::new();\n\
                   \x20   for v in set {\n\
                   \x20       out.push(*v);\n\
                   \x20   }\n\
                   \x20   out\n\
                   }\n";
        let v = check_src(src);
        assert_eq!(rules_of(&v), ["L8"], "{v:?}");
    }

    #[test]
    fn l8_for_loop_then_sort_is_clean() {
        let src = "pub fn f(set: &HashSet<u32>) -> Vec<u32> {\n\
                   \x20   let mut out = Vec::new();\n\
                   \x20   for v in set {\n\
                   \x20       out.push(*v);\n\
                   \x20   }\n\
                   \x20   out.sort_unstable();\n\
                   \x20   out\n\
                   }\n";
        assert!(check_src(src).is_empty());
    }

    #[test]
    fn l8_sees_through_guard_returning_fn() {
        let src =
            "fn lock_shard(m: &Mutex<HashMap<u64, u32>>) -> MutexGuard<'_, HashMap<u64, u32>> {\n\
                   \x20   m.lock().unwrap_or_else(|p| p.into_inner())\n\
                   }\n\
                   pub fn stale(m: &Mutex<HashMap<u64, u32>>) -> Vec<u64> {\n\
                   \x20   let shard = lock_shard(m);\n\
                   \x20   shard.iter().map(|(&k, _)| k).collect()\n\
                   }\n";
        let v = check_src(src);
        assert_eq!(rules_of(&v), ["L8"], "{v:?}");
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn l8_vec_of_hashmaps_not_marked() {
        let src = "pub fn f(shards: &Vec<Mutex<HashMap<u64, u32>>>) -> Vec<usize> {\n\
                   \x20   let mut out = Vec::new();\n\
                   \x20   for s in shards {\n\
                   \x20       out.push(1);\n\
                   \x20   }\n\
                   \x20   out\n\
                   }\n";
        assert!(check_src(src).is_empty());
    }

    #[test]
    fn l8_btreemap_is_clean() {
        let src = "pub fn f(m: &BTreeMap<u64, u32>) -> Vec<u64> { m.keys().copied().collect() }\n";
        assert!(check_src(src).is_empty());
    }
}
