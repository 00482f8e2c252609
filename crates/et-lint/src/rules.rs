//! The repo-specific lint rules (L5, L6, L8, L10–L14), and the per-file entry point.
//!
//! Every per-file rule ([`crate::conc_rules`]) and the item parser read
//! the file's one [`crate::lexer`] stream. "Test code" means byte regions
//! covered by a `#[cfg(test)]` item (`test_regions`). The numbers L1–L4,
//! L7 and L9 belonged to rules the compiler now owns (DESIGN.md §7.1).

#![expect(
    clippy::indexing_slicing,
    reason = "token indices come from loops over 0..tokens.len() and from matching_close, which returns only positions inside the stream"
)]

use crate::lexer::{Delim, TokenKind, TokenStream};

/// Which rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// No mutex guard held across a blocking call.
    L5,
    /// Atomic `Ordering` arguments need a trailing `// ord:` justification.
    L6,
    /// No hash-container iteration feeding order-sensitive sinks.
    L8,
    /// No cycle in the workspace lock-acquisition order graph.
    L10,
    /// No nondeterminism source reachable from session scoring/step/replay
    /// entry points (sources and entries in `et-lint.toml`).
    L11,
    /// No heap allocation reachable from a declared `[[hot]]` root
    /// (interprocedural cost model; roots in `et-lint.toml`).
    L12,
    /// No lock acquisition or blocking call reachable from a `[[hot]]` root.
    L13,
    /// No I/O or syscall reachable from a `[[hot]]` root.
    L14,
}

impl Rule {
    /// The stable rule identifier used in reports and `et-lint.toml`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::L5 => "L5",
            Rule::L6 => "L6",
            Rule::L8 => "L8",
            Rule::L10 => "L10",
            Rule::L11 => "L11",
            Rule::L12 => "L12",
            Rule::L13 => "L13",
            Rule::L14 => "L14",
        }
    }

    /// Parses a rule id.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::all().into_iter().find(|r| r.id() == id)
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::L5 => {
                "no mutex guard held across a blocking call (recv/accept/read_line/join/connect)"
            }
            Rule::L6 => "every atomic Ordering argument needs an `// ord:` justification comment",
            Rule::L8 => "no HashMap/HashSet iteration feeding order-sensitive sinks unless sorted",
            Rule::L10 => "no cycle in the workspace lock-acquisition order graph",
            Rule::L11 => {
                "no nondeterminism source (wall clock, OS entropy, directory order) reachable \
                 from session entry points"
            }
            Rule::L12 => {
                "no heap allocation (Vec::new/vec!/format!/collect/clone/to_vec) reachable \
                 from a [[hot]] root"
            }
            Rule::L13 => "no lock acquisition or blocking call reachable from a [[hot]] root",
            Rule::L14 => {
                "no I/O or syscall (std::fs/net/io, println!, spawn) reachable from a [[hot]] root"
            }
        }
    }

    /// The full rationale plus the `et-lint.toml` exception format,
    /// printed by `cargo lint -- --explain L<N>`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::L5 => {
                "L5 — no mutex guard held across a blocking call.\n\n\
                 Why: et-serve shards its session store behind Mutex<HashMap>; a\n\
                 guard held across recv/recv_timeout/accept/read_line/join or\n\
                 TcpStream::connect stalls every thread contending for that shard\n\
                 for the full wait. Nothing crashes — throughput just collapses,\n\
                 which is exactly the failure mode functional tests cannot see.\n\
                 Detection tracks `let g = ….lock()` bindings to the enclosing\n\
                 block close (or an explicit drop(g)).\n\n\
                 Exception: when the wait is deliberately inside the lock (e.g. a\n\
                 shared-receiver worker pool with a bounded poll):\n\n\
                 [[allow]]\n\
                 rule = \"L5\"\n\
                 path = \"crates/et-serve/src/server.rs\"\n\
                 pattern = \"recv_timeout\"\n\
                 reason = \"bounded 250ms poll; the guard must cover the recv by design\""
            }
            Rule::L6 => {
                "L6 — every atomic Ordering argument carries an `// ord:`\n\
                 justification, either trailing on the same line or as a\n\
                 standalone comment on the line immediately above (the placement\n\
                 rustfmt keeps for `{`-ending statements); an `// ord:` comment\n\
                 that justifies no use is stale and also fires.\n\n\
                 Why: the store mixes Relaxed counters with AcqRel capacity\n\
                 reservation. A too-weak ordering loses counts only under real\n\
                 concurrency, so the choice must be reviewable in place — the\n\
                 comment states what the ordering synchronizes with, making drift\n\
                 between code and justification a lint failure in both directions.\n\n\
                 There is no allowlist escape for a missing justification: write\n\
                 the comment. Format: `x.load(Ordering::Acquire); // ord: pairs\n\
                 with the Release store in shutdown()`."
            }
            Rule::L8 => {
                "L8 — no iteration over HashMap/HashSet whose items feed a return\n\
                 value, Vec push, or serialization, unless sorted or rehomed into a\n\
                 BTreeMap/BTreeSet.\n\n\
                 Why: hash iteration order is randomized per process. Letting it\n\
                 reach the wire or a replay file makes responses non-byte-stable, so\n\
                 replays and golden files diverge run to run. Order-insensitive\n\
                 reductions (sum/count/min/max/all/any/product) are exempt; a\n\
                 `.sort*` on the collected result anywhere in the same block\n\
                 satisfies the rule.\n\n\
                 Exception: when downstream order is provably irrelevant:\n\n\
                 [[allow]]\n\
                 rule = \"L8\"\n\
                 path = \"...\"\n\
                 reason = \"collected ids are removed from the same map; order cannot escape\""
            }
            Rule::L10 => {
                "L10 — no cycle in the workspace lock-acquisition order graph.\n\n\
                 Why: et-serve shards its session store behind mutexes and et-fd's\n\
                 PartitionCache holds two more; a thread taking A then B while\n\
                 another takes B then A deadlocks only under contention — the one\n\
                 schedule tests never exercise. L10 extracts per-function lock\n\
                 acquisitions (`.lock()` method calls and calls into lock-gateway\n\
                 helpers, attributed to a lock class like `SessionStore.shards` or\n\
                 `PartitionCache.parts` via receiver/argument field hints), tracks\n\
                 the guard's live region (let-binding to block close, or statement\n\
                 end for temporaries, honoring drop(guard)), propagates acquisitions\n\
                 through the call graph, and fires on any cycle in the resulting\n\
                 lock-order relation, printing one witness edge per hop.\n\n\
                 Exception: when the cycle is a false positive (e.g. two locks\n\
                 provably never held by the same thread):\n\n\
                 [[allow]]\n\
                 rule = \"L10\"\n\
                 path = \"crates/<crate>/src/<file>.rs\"\n\
                 pattern = \"<substring of the witness line>\"\n\
                 reason = \"<why the interleave cannot happen>\""
            }
            Rule::L11 => {
                "L11 — no nondeterminism source reachable from session\n\
                 scoring/step/replay entry points.\n\n\
                 Why: the reproduction's trainer/learner game is deterministic by\n\
                 construction — replayed sessions must be bit-identical to\n\
                 uninterrupted ones. A transitive Instant::now() folded into state,\n\
                 or an OS-entropy draw breaks that proof invisibly. L11 marks\n\
                 entry fns via `[[entry]]` patterns, declares\n\
                 taint sources via `[[source]]` patterns matched against rendered\n\
                 call text (`Instant::now`, `SystemTime::now`, `thread_rng`,\n\
                 `read_dir`), and fires on every reachable fn that touches a\n\
                 source, with the per-edge witness chain printed. Hash-container\n\
                 iteration order is L8's, which covers every library file.\n\n\
                 [[source]]\n\
                 pattern = \"Instant::now\"\n\n\
                 Exception: when the source provably never feeds session state\n\
                 (e.g. logging-only timing):\n\n\
                 [[allow]]\n\
                 rule = \"L11\"\n\
                 path = \"crates/<crate>/src/<file>.rs\"\n\
                 pattern = \"<substring of the offending line>\"\n\
                 reason = \"<why the value cannot reach state>\""
            }
            Rule::L12 => {
                "L12 — no heap allocation reachable from a declared hot root.\n\n\
                 Why: the annotator sits in the loop every round, so round latency\n\
                 is the product's ceiling. A stray collect()/format!/to_vec in\n\
                 RelationMatrix::score_all or a strategy fold eats the per-round\n\
                 budget invisibly until a bench run notices. L12 marks every fn\n\
                 matching a `[[hot]]` pattern (same substring matching as\n\
                 `[[entry]]`) as a hot root, walks the resolved call graph, and\n\
                 fires on every reachable non-test fn containing an allocating\n\
                 operation (Vec::new/with_capacity/vec!/Box::new/String::from/\n\
                 format!/to_vec/to_string/clone/collect/push-family growth), with\n\
                 the witness call chain printed. Hoist temporaries into reusable\n\
                 scratch buffers owned by the caller instead.\n\n\
                 [[hot]]\n\
                 pattern = \"RelationMatrix::score_all\"\n\
                 note = \"inner scoring loop; ROADMAP item 4 latency ceiling\"\n\n\
                 Exception: when the allocation is provably one-time setup or\n\
                 bounded (state the bound — it is surfaced in HOTPATH.json):\n\n\
                 [[allow]]\n\
                 rule = \"L12\"\n\
                 path = \"crates/<crate>/src/<file>.rs\"\n\
                 pattern = \"<substring of the offending line>\"\n\
                 reason = \"bounded: <the bound, e.g. with_capacity once per session>\""
            }
            Rule::L13 => {
                "L13 — no lock acquisition or blocking call reachable from a\n\
                 declared hot root.\n\n\
                 Why: a hot path that takes a Mutex/RwLock — or blocks on\n\
                 recv/join/sleep — couples round latency to scheduler contention;\n\
                 the p99 collapses under load with no functional failure. L13\n\
                 reuses the L5/L10 lock-site extraction (`.lock()`, `.read()`/\n\
                 `.write()` on lock-ish receivers) plus the blocking-call list,\n\
                 and fires on every fn reachable from a `[[hot]]` pattern that\n\
                 acquires or blocks, with the witness chain printed. Hot paths\n\
                 should be handed owned or immutable-borrowed data instead.\n\n\
                 [[hot]]\n\
                 pattern = \"SessionState::apply_labels\"\n\
                 note = \"label application minus the journal append\"\n\n\
                 Exception: when the acquisition is provably uncontended or\n\
                 bounded (state the bound):\n\n\
                 [[allow]]\n\
                 rule = \"L13\"\n\
                 path = \"crates/<crate>/src/<file>.rs\"\n\
                 pattern = \"<substring of the offending line>\"\n\
                 reason = \"bounded: <why the wait cannot exceed the budget>\""
            }
            Rule::L14 => {
                "L14 — no I/O or syscall reachable from a declared hot root.\n\n\
                 Why: one transitive println! or fs::write in a scoring loop adds\n\
                 a syscall (and possibly a flush) per round; a journal fsync in\n\
                 the wrong place adds milliseconds. I/O belongs at the round\n\
                 boundary, not inside it. L14 tags std::fs/std::net/std::io\n\
                 calls, print-family macros, File:: operations, sync_all/fsync\n\
                 and thread::spawn, and fires on every fn reachable from a\n\
                 `[[hot]]` pattern that performs one, with the witness chain\n\
                 printed.\n\n\
                 [[hot]]\n\
                 pattern = \"RelationMatrix::score_all\"\n\
                 note = \"inner scoring loop\"\n\n\
                 Exception: when the I/O is deliberate and bounded (state the\n\
                 bound — e.g. an acknowledged write-ahead append the caller\n\
                 already budgets for):\n\n\
                 [[allow]]\n\
                 rule = \"L14\"\n\
                 path = \"crates/<crate>/src/<file>.rs\"\n\
                 pattern = \"<substring of the offending line>\"\n\
                 reason = \"bounded: <why this I/O is part of the contract>\""
            }
        }
    }

    /// All rules, in report order.
    pub fn all() -> [Rule; 8] {
        [
            Rule::L5,
            Rule::L6,
            Rule::L8,
            Rule::L10,
            Rule::L11,
            Rule::L12,
            Rule::L13,
            Rule::L14,
        ]
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule that fired.
    pub rule: Rule,
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

/// Byte ranges covered by `#[cfg(test)]` items: the literal attribute
/// through the end of the item it marks (see [`item_end`]), so `mod tests
/// { .. }` and `fn x() { .. }` are covered to their closing brace and a
/// test-only field, `use` or `const` only to its own `,` or `;`.
pub(crate) fn test_regions(ts: &TokenStream<'_>) -> Vec<(usize, usize)> {
    const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut regions = Vec::new();
    let mut i = 0;
    while i < ts.tokens.len() {
        if !ts.matches_seq(i, &CFG_TEST) {
            i += 1;
            continue;
        }
        let end = item_end(ts, i + CFG_TEST.len(), ts.tokens[i].depth);
        regions.push((ts.tokens[i].start, end));
        i = ts.tokens.partition_point(|t| t.start < end);
    }
    regions
}

/// Keywords of items with a brace body (or a `;` in its place): a comma
/// before the body belongs to their generics or `where` clause.
const BODY_ITEMS: [&str; 8] = [
    "fn",
    "mod",
    "impl",
    "trait",
    "struct",
    "enum",
    "union",
    "macro_rules",
];

/// Byte offset where the item whose tokens start at `from`, at nesting
/// `depth`, ends. Only tokens at `depth` decide: a `{` ends the item at
/// its matching `}` (a block that never closes runs to the end of the
/// file), a `;` ends it, and so does a `,` outside `<…>` unless the item
/// is a [`BODY_ITEMS`] item, which makes it a struct field, a
/// struct-literal field or a list entry. The close of the enclosing group
/// ends a last entry that has no `,`.
fn item_end(ts: &TokenStream<'_>, from: usize, depth: u32) -> usize {
    let mut body_item = false;
    let mut angles = 0u32;
    for j in from..ts.tokens.len() {
        let t = &ts.tokens[j];
        if t.depth < depth {
            return t.start;
        }
        if t.depth > depth || !ts.is_code(j) {
            continue;
        }
        match (t.kind, ts.text(j)) {
            (TokenKind::Open(Delim::Brace), _) => {
                return ts
                    .matching_close(j)
                    .map_or(ts.source.len(), |c| ts.tokens[c].end);
            }
            (TokenKind::Ident, word) if BODY_ITEMS.contains(&word) => body_item = true,
            (TokenKind::Punct, ";") => return t.end,
            (TokenKind::Punct, ",") if !body_item && angles == 0 => return t.end,
            (TokenKind::Punct, "<") => angles += 1,
            (TokenKind::Punct, ">") if !ts.prev_is_adjacent(j, "-") => {
                angles = angles.saturating_sub(1);
            }
            _ => {}
        }
    }
    ts.source.len()
}

pub(crate) fn in_regions(regions: &[(usize, usize)], pos: usize) -> bool {
    regions.iter().any(|&(a, b)| pos >= a && pos < b)
}

pub(crate) fn excerpt_line(original: &str, line: usize) -> String {
    original
        .lines()
        .nth(line - 1)
        .unwrap_or_default()
        .trim()
        .to_string()
}

/// Runs the per-file rules L5, L6 and L8 ([`crate::conc_rules`]) over one lexed
/// library file.
pub fn check_file(ts: &TokenStream<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    crate::conc_rules::check(ts, &test_regions(ts), &mut out);
    out.sort_by_key(|v| (v.line, v.rule.id()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(src: &str) -> Vec<Violation> {
        check_file(&lex(src))
    }

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.rule.id()).collect()
    }

    #[test]
    fn a_test_only_field_covers_only_itself() {
        // A `#[cfg(test)]` struct field, and the struct-literal field that
        // fills it, end at their own `,`: the fn after them stays linted.
        let src = "pub struct Wal {\n    file: u32,\n    #[cfg(test)]\n    fault: Option<Box<dyn Fn(u32, u32) -> u32>>,\n    len: HashMap<u32, u32>,\n}\n\
                   pub fn open() -> Wal {\n    Wal {\n        file: 1,\n        #[cfg(test)]\n        fault: None,\n        len: HashMap::new(),\n    }\n}\n\
                   pub fn append(x: &AtomicU32) -> u32 { x.load(Ordering::Relaxed) }\n";
        let ts = lex(src);
        let regions = test_regions(&ts);
        let covered: Vec<&str> = regions.iter().map(|&(a, b)| &src[a..b]).collect();
        assert_eq!(
            covered,
            [
                "#[cfg(test)]\n    fault: Option<Box<dyn Fn(u32, u32) -> u32>>,",
                "#[cfg(test)]\n        fault: None,",
            ]
        );
        assert_eq!(rules_of(&check(src)), ["L6"]);
    }

    #[test]
    fn a_last_test_only_literal_field_ends_at_the_close() {
        let src = "pub fn open() -> Wal { Wal { file: 1, #[cfg(test)] fault: None } }\n\
                   pub fn append(x: &AtomicU32) -> u32 { x.load(Ordering::Relaxed) }\n";
        let regions = test_regions(&lex(src));
        let covered: Vec<&str> = regions.iter().map(|&(a, b)| &src[a..b]).collect();
        assert_eq!(covered, ["#[cfg(test)] fault: None "]);
        assert_eq!(rules_of(&check(src)), ["L6"]);
    }

    #[test]
    fn test_only_uses_consts_and_generic_fns_cover_their_items() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\n\
                   #[cfg(test)]\nconst PAIRS: [(u32, u32); 2] = [(0, 1), (1, 2)];\n\
                   #[cfg(test)]\nfn helper<A, B>(a: A, n: &AtomicU32) -> Result<(), B> where A: Clone, B: Copy { let _ = n.load(Ordering::Relaxed); Ok(()) }\n\
                   pub fn f(x: &AtomicU32) -> u32 { x.load(Ordering::Relaxed) }\n";
        let regions = test_regions(&lex(src));
        let covered: Vec<&str> = regions.iter().map(|&(a, b)| &src[a..b]).collect();
        assert_eq!(covered.len(), 3);
        assert!(covered[0].ends_with("HashMap;"));
        assert!(covered[1].ends_with("(1, 2)];"));
        assert!(covered[2].ends_with("Ok(()) }"));
        // Only `f`'s ordering is outside every region.
        let v = check(src);
        assert_eq!(rules_of(&v), ["L6"]);
        assert!(v[0].excerpt.starts_with("pub fn f"), "{v:?}");
    }

    #[test]
    fn violations_carry_lines_and_excerpts() {
        let src = "fn a() {}\n\npub fn f(x: &AtomicU32) -> u32 { x.load(Ordering::Relaxed) }\n";
        let v = check(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
        assert!(v[0].excerpt.contains("pub fn f"));
    }

    #[test]
    fn every_rule_has_explain_text_and_round_trips_by_id() {
        for rule in Rule::all() {
            let text = rule.explain();
            assert!(
                text.len() > 80,
                "{} explain text too thin: {text:?}",
                rule.id()
            );
            assert!(
                !rule.describe().is_empty(),
                "{} has no one-line description",
                rule.id()
            );
            assert_eq!(Rule::from_id(rule.id()), Some(rule), "{}", rule.id());
            // Every rule except L6 documents the allowlist escape hatch; L6
            // deliberately has none (write the comment instead).
            if rule == Rule::L6 {
                assert!(!text.contains("[[allow]]"), "L6 must not offer an escape");
            } else {
                assert!(
                    text.contains("[[allow]]"),
                    "{} explain must show the exception format",
                    rule.id()
                );
            }
        }
        for retired in ["L1", "L2", "L3", "L4", "L7", "L9", "L15", ""] {
            assert_eq!(Rule::from_id(retired), None, "{retired}");
        }
    }
}
