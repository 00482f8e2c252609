//! The repo-specific lint rules (L1–L14), and the per-file rules L1–L4.
//!
//! L1–L4 are token-sequence matches over the file's one
//! [`crate::lexer`] stream, the same stream L5–L8 ([`crate::conc_rules`])
//! and the item parser read: string, char and comment contents are single
//! tokens, so they never trigger a rule. "Test code" means byte regions
//! covered by a `#[cfg(test)]` item (plus whole files under `tests/`,
//! `benches/` or `examples/`).

use std::ops::Range;

use crate::lexer::{Delim, TokenKind, TokenStream};

/// Which rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// No `unwrap()`/`expect()`/`panic!` in non-test library code.
    L1,
    /// No unseeded RNG anywhere (`thread_rng`, `from_entropy`, `rand::random`).
    L2,
    /// No `==`/`!=` against f64 expressions outside tests.
    L3,
    /// Panicking `pub fn`s must document `# Panics`.
    L4,
    /// No mutex guard held across a blocking call.
    L5,
    /// Atomic `Ordering` arguments need a trailing `// ord:` justification.
    L6,
    /// No truncating `as` casts between numeric types in library code.
    L7,
    /// No hash-container iteration feeding order-sensitive sinks.
    L8,
    /// No panic-capable operation reachable from public API entry points
    /// (interprocedural; entry patterns in `et-lint.toml`).
    L9,
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
            Rule::L1 => "L1",
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
            Rule::L7 => "L7",
            Rule::L8 => "L8",
            Rule::L9 => "L9",
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
            Rule::L1 => "no unwrap()/expect()/panic! in non-test library code",
            Rule::L2 => "no unseeded RNG (thread_rng/from_entropy/rand::random) anywhere",
            Rule::L3 => "no ==/!= between f64 expressions outside tests",
            Rule::L4 => "pub fns that can panic must carry a `# Panics` doc section",
            Rule::L5 => {
                "no mutex guard held across a blocking call (recv/accept/read_line/join/connect)"
            }
            Rule::L6 => "every atomic Ordering argument needs an `// ord:` justification comment",
            Rule::L7 => "no truncating `as` casts between numeric types in library code",
            Rule::L8 => "no HashMap/HashSet iteration feeding order-sensitive sinks unless sorted",
            Rule::L9 => {
                "no panic-capable op (panic!/unwrap/expect/indexing) reachable from public API \
                 entry points"
            }
            Rule::L10 => "no cycle in the workspace lock-acquisition order graph",
            Rule::L11 => {
                "no nondeterminism source (wall clock, OS entropy, hash iteration) reachable \
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
            Rule::L1 => {
                "L1 — no unwrap()/expect()/panic! in non-test library code.\n\n\
                 Why: the reproduction's claims are floating-point and RNG-sensitive;\n\
                 a panic in library code turns a recoverable bad input into a dead\n\
                 worker thread, and under et-serve load that silently shrinks the\n\
                 worker pool instead of failing a test. Return typed errors.\n\n\
                 Exception: add to et-lint.toml when the invariant is structural\n\
                 (provable from adjacent code) and a typed error would obscure it:\n\n\
                 [[allow]]\n\
                 rule = \"L1\"\n\
                 path = \"crates/<crate>/src/<file>.rs\"\n\
                 pattern = \"<substring of the offending line>\"\n\
                 reason = \"<why the panic is unreachable>\""
            }
            Rule::L2 => {
                "L2 — no unseeded RNG anywhere, tests included.\n\n\
                 Why: every figure in the reproduction must be re-derivable from a\n\
                 seed. thread_rng/from_entropy/rand::random draw OS entropy, so a\n\
                 rerun can never bit-match and a flaky test can never be replayed.\n\
                 Use StdRng::seed_from_u64 (or the session's SplitMix64 derivation).\n\n\
                 Exception format (rarely justified):\n\n\
                 [[allow]]\n\
                 rule = \"L2\"\n\
                 path = \"...\"\n\
                 reason = \"...\""
            }
            Rule::L3 => {
                "L3 — no ==/!= against f64 expressions outside tests.\n\n\
                 Why: MAE curves and g1 measures accumulate rounding; exact float\n\
                 equality encodes an assumption the math does not guarantee and\n\
                 flips silently across optimization levels. Compare with an epsilon\n\
                 or total_cmp. The rule is lexical; clippy::float_cmp is the precise\n\
                 companion check.\n\n\
                 Exception format:\n\n\
                 [[allow]]\n\
                 rule = \"L3\"\n\
                 path = \"...\"\n\
                 reason = \"...\""
            }
            Rule::L4 => {
                "L4 — pub fns that can panic must carry a `# Panics` doc section.\n\n\
                 Why: a caller in another crate cannot see an assert! in the body;\n\
                 the doc section is the contract that makes the panic reviewable at\n\
                 the call site.\n\n\
                 Exception format:\n\n\
                 [[allow]]\n\
                 rule = \"L4\"\n\
                 path = \"...\"\n\
                 reason = \"e.g. doc inherited from trait\""
            }
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
            Rule::L7 => {
                "L7 — no truncating `as` cast between numeric types in non-test\n\
                 library code.\n\n\
                 Why: `as` wraps silently. A u64 session counter cast to u32, or an\n\
                 f64 metric cast to usize, corrupts figures and wire ids without a\n\
                 panic. Use From (widening) or try_from (checked) instead. Source\n\
                 types are inferred lexically (suffixes, cast chains, .len()/.round(),\n\
                 float arithmetic in parens); unknown sources fire only on narrow\n\
                 targets (u8/i8/u16/i16/u32/i32/f32).\n\n\
                 Exception: when the value is bounded by construction:\n\n\
                 [[allow]]\n\
                 rule = \"L7\"\n\
                 path = \"crates/et-fd/src/partitions.rs\"\n\
                 pattern = \"row as u32\"\n\
                 reason = \"row ids are u32 by design; tables are far below 2^32 rows\""
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
            Rule::L9 => {
                "L9 — no panic-capable operation reachable from a public API entry\n\
                 point (the interprocedural closure of L1).\n\n\
                 Why: L1 keeps unwrap()/panic! out of individual library lines, but\n\
                 a clean-looking handler can still transitively call a helper that\n\
                 indexes a slice or asserts. Under et-serve load that panic kills a\n\
                 worker thread silently. L9 builds the workspace call graph, marks\n\
                 every fn matching an `[[entry]]` pattern (rule = \"L9\") as a public\n\
                 entry, and walks the resolved edges: any reachable non-test fn\n\
                 containing panic!/assert-family macros, .unwrap()/.expect(, or an\n\
                 index/slice expression fires, with the witness call chain printed.\n\
                 Entry patterns are substring matches on the qualified fn name\n\
                 (`crate::module::Type::fn`), declared in et-lint.toml:\n\n\
                 [[entry]]\n\
                 rule = \"L9\"\n\
                 pattern = \"SessionState::\"\n\n\
                 Exception: when the operation is provably in-bounds/infallible:\n\n\
                 [[allow]]\n\
                 rule = \"L9\"\n\
                 path = \"crates/<crate>/src/<file>.rs\"\n\
                 pattern = \"<substring of the offending line>\"\n\
                 reason = \"<why the panic is unreachable>\""
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
                 an OS-entropy draw, or an unsorted HashMap iteration breaks that\n\
                 proof invisibly. L11 marks entry fns via `[[entry]]` patterns\n\
                 (rule = \"L11\"), declares taint sources via `[[source]]` patterns\n\
                 matched against rendered call text (`Instant::now`,\n\
                 `SystemTime::now`, `thread_rng`; the special pattern `hash-iter`\n\
                 matches unsorted HashMap/HashSet iteration), and fires on every\n\
                 reachable fn that touches a source, with the per-edge witness\n\
                 chain printed.\n\n\
                 [[source]]\n\
                 rule = \"L11\"\n\
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
    pub fn all() -> [Rule; 14] {
        [
            Rule::L1,
            Rule::L2,
            Rule::L3,
            Rule::L4,
            Rule::L5,
            Rule::L6,
            Rule::L7,
            Rule::L8,
            Rule::L9,
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

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Crate `src/` code: all rules apply outside `#[cfg(test)]` regions.
    Library,
    /// Integration tests, benches, examples: only L2 applies.
    TestLike,
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

/// Index of the first `{` after token `i`.
fn next_open_brace(ts: &TokenStream<'_>, i: usize) -> Option<usize> {
    (i + 1..ts.tokens.len()).find(|&j| ts.tokens[j].kind == TokenKind::Open(Delim::Brace))
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

/// Indices where the code-token sequence `seq` starts.
fn seq_hits<'t>(ts: &'t TokenStream<'_>, seq: &'t [&str]) -> impl Iterator<Item = usize> + 't {
    (0..ts.tokens.len()).filter(move |&i| ts.matches_seq(i, seq))
}

/// Runs every applicable rule over one lexed file: L1–L4 here, then L5–L8
/// from [`crate::conc_rules`], all on the same token stream.
pub fn check_file(ts: &TokenStream<'_>, kind: FileKind) -> Vec<Violation> {
    let mut out = Vec::new();
    let regions = test_regions(ts);

    l2_unseeded_rng(ts, &mut out);
    if kind == FileKind::Library {
        l1_no_panics(ts, &regions, &mut out);
        l3_float_eq(ts, &regions, &mut out);
        l4_panics_doc(ts, &regions, &mut out);
        crate::conc_rules::check(ts, &regions, &mut out);
    }

    out.sort_by_key(|v| (v.line, v.rule.id()));
    out
}

/// L1: `.unwrap()`, `.expect(`, `panic!` in non-test library code.
fn l1_no_panics(ts: &TokenStream<'_>, regions: &[(usize, usize)], out: &mut Vec<Violation>) {
    const BANNED: [(&[&str], &str, &str); 3] = [
        (
            &[".", "unwrap", "(", ")"],
            "unwrap()",
            "use a typed error or document the invariant",
        ),
        (
            &[".", "expect", "("],
            "expect(",
            "use a typed error or document the invariant",
        ),
        (
            &["panic", "!"],
            "panic!",
            "return an error instead of panicking in library code",
        ),
    ];
    for (seq, shown, hint) in BANNED {
        for i in seq_hits(ts, seq) {
            if in_regions(regions, ts.tokens[i].start) {
                continue;
            }
            let line = ts.tokens[i].line;
            out.push(Violation {
                rule: Rule::L1,
                line,
                message: format!("`{shown}` in library code; {hint}"),
                excerpt: excerpt_line(ts.source, line),
            });
        }
    }
}

/// L2: unseeded RNG constructors anywhere, test code included.
fn l2_unseeded_rng(ts: &TokenStream<'_>, out: &mut Vec<Violation>) {
    const BANNED: [(&[&str], &str); 3] = [
        (&["thread_rng"], "thread_rng"),
        (&["from_entropy"], "from_entropy"),
        (&["rand", ":", ":", "random"], "rand::random"),
    ];
    for (seq, shown) in BANNED {
        for i in seq_hits(ts, seq) {
            let line = ts.tokens[i].line;
            out.push(Violation {
                rule: Rule::L2,
                line,
                message: format!(
                    "`{shown}` draws entropy; every generator must be seeded \
                     (determinism is load-bearing for the reproduction)"
                ),
                excerpt: excerpt_line(ts.source, line),
            });
        }
    }
}

/// L3: `==`/`!=` where one operand is a float literal (or an expression
/// ending in `as f64`), outside tests. Lexical by design: the 100%-precise
/// version of this check is `clippy::float_cmp`, which the workspace also
/// enables; this rule catches the idiom clippy misses in macro output.
fn l3_float_eq(ts: &TokenStream<'_>, regions: &[(usize, usize)], out: &mut Vec<Violation>) {
    for (first, op) in [("=", "=="), ("!", "!=")] {
        let mut i = 0;
        while i < ts.tokens.len() {
            // The operator is two adjacent `Punct`s; pairs never overlap.
            if !(ts.text(i) == first
                && ts.tokens[i].kind == TokenKind::Punct
                && ts.next_is_adjacent(i, "="))
            {
                i += 1;
                continue;
            }
            let at = i;
            i += 2;
            if in_regions(regions, ts.tokens[at].start) {
                continue;
            }
            // `<=`, `>=`, `!=` and `=>` end or start with `=` too: an `==`
            // glued to another operator byte is not an equality test.
            if op == "=="
                && (["=", "<", ">", "!"]
                    .iter()
                    .any(|p| ts.prev_is_adjacent(at, p))
                    || ts.next_is_adjacent(at + 1, "="))
            {
                continue;
            }
            let lhs = left_operand(ts, at);
            let rhs = right_operand(ts, at + 2);
            if is_floatish(ts, lhs.clone()) || is_floatish(ts, rhs.clone()) {
                let line = ts.tokens[at].line;
                out.push(Violation {
                    rule: Rule::L3,
                    line,
                    message: format!(
                        "float compared with `{op}`; use an epsilon or total_cmp \
                         (lhs `{}`, rhs `{}`)",
                        operand_text(ts, lhs),
                        operand_text(ts, rhs)
                    ),
                    excerpt: excerpt_line(ts.source, line),
                });
            }
        }
    }
}

/// True when a line break separates byte offsets `a..b`, or lies inside
/// token `j` (a multi-line string or comment).
fn breaks_line(ts: &TokenStream<'_>, a: usize, b: usize, j: usize) -> bool {
    ts.source[a..b].contains('\n') || ts.text(j).contains('\n')
}

/// The tokens immediately left of the operator at `op`, scanned back to
/// the nearest low-precedence boundary: an unmatched `(`/`[`/`{`, a `,` or
/// `;`, an `&`/`|`/`=`/`<`/`>`, or a line break, each outside brackets.
fn left_operand(ts: &TokenStream<'_>, op: usize) -> Range<usize> {
    let mut depth = 0i32;
    let mut j = op;
    while j > 0 {
        let t = ts.tokens[j - 1];
        if depth == 0 && breaks_line(ts, t.end, ts.tokens[j].start, j - 1) {
            break;
        }
        match (t.kind, ts.text(j - 1)) {
            (TokenKind::Close(Delim::Paren | Delim::Bracket), _) => depth += 1,
            (TokenKind::Open(_), _) | (TokenKind::Punct, "," | ";") if depth == 0 => break,
            (TokenKind::Open(Delim::Paren | Delim::Bracket), _) => depth -= 1,
            (TokenKind::Punct, "&" | "|" | "=" | "<" | ">") if depth == 0 => break,
            _ => {}
        }
        j -= 1;
    }
    j..op
}

/// The tokens immediately right of an operator, starting at token
/// `after`: up to an unmatched closer, a `,` or `;`, an `&`/`|`/`<`/`>`,
/// or a line break, each outside brackets.
fn right_operand(ts: &TokenStream<'_>, after: usize) -> Range<usize> {
    let mut depth = 0i32;
    let mut j = after;
    while j < ts.tokens.len() {
        let t = ts.tokens[j];
        if depth == 0 && breaks_line(ts, ts.tokens[j - 1].end, t.start, j) {
            break;
        }
        match (t.kind, ts.text(j)) {
            (TokenKind::Open(Delim::Paren | Delim::Bracket), _) => depth += 1,
            (TokenKind::Close(_), _) | (TokenKind::Punct, "," | ";") if depth == 0 => break,
            (TokenKind::Close(Delim::Paren | Delim::Bracket), _) => depth -= 1,
            (TokenKind::Punct, "&" | "|" | "<" | ">") if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    after..j
}

/// True when an operand clearly denotes a float: it holds a float literal
/// (`0.5`, `1e-9`, `2f64`) or ends in an `as f64`/`as f32` cast.
fn is_floatish(ts: &TokenStream<'_>, run: Range<usize>) -> bool {
    let code: Vec<usize> = run.filter(|&j| ts.is_code(j)).collect();
    let cast =
        matches!(code[..], [.., a, t] if ts.text(a) == "as" && matches!(ts.text(t), "f64" | "f32"));
    cast || code.iter().any(|&j| ts.tokens[j].kind == TokenKind::Float)
}

/// An operand as L3 quotes it: its source text from the first to the last
/// code token, with comments and string/char contents blanked (quotes
/// kept), so a report never echoes prose.
fn operand_text(ts: &TokenStream<'_>, run: Range<usize>) -> String {
    let mut code = run.filter(|&j| ts.is_code(j));
    let Some(first) = code.next() else {
        return String::new();
    };
    let last = code.next_back().unwrap_or(first);
    let base = ts.tokens[first].start;
    let mut text = ts.source.as_bytes()[base..ts.tokens[last].end].to_vec();
    for t in &ts.tokens[first..=last] {
        let span = &mut text[t.start - base..t.end - base];
        let quote = |b: &u8| matches!(b, b'"' | b'\'');
        let inner = match t.kind {
            TokenKind::LineComment | TokenKind::BlockComment => 0..span.len(),
            TokenKind::Str | TokenKind::Char => {
                let open = span.iter().position(quote).map_or(0, |q| q + 1);
                let close = span.iter().rposition(quote).filter(|&q| q >= open);
                open..close.unwrap_or(span.len())
            }
            _ => continue,
        };
        for b in &mut span[inner] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }
    String::from_utf8_lossy(&text).into_owned()
}

/// L4: a `pub fn` whose body contains `assert!`/`assert_eq!`/`assert_ne!`/
/// `panic!` must have a doc comment with a `# Panics` section.
fn l4_panics_doc(ts: &TokenStream<'_>, regions: &[(usize, usize)], out: &mut Vec<Violation>) {
    const PANICS: [[&str; 2]; 4] = [
        ["assert", "!"],
        ["assert_eq", "!"],
        ["assert_ne", "!"],
        ["panic", "!"],
    ];
    for f in seq_hits(ts, &["fn"]) {
        let Some(name) = ts
            .next_code(f)
            .filter(|&n| ts.tokens[n].kind == TokenKind::Ident)
        else {
            continue;
        };
        let Some(vis) = pub_of_fn(ts, f) else {
            continue;
        };
        if in_regions(regions, ts.tokens[vis].start) {
            continue;
        }
        let Some(open) = next_open_brace(ts, f) else {
            continue;
        };
        let close = ts.matching_close(open).unwrap_or(ts.tokens.len());
        let panics = (open..close).any(|j| PANICS.iter().any(|p| ts.matches_seq(j, p)));
        if !panics || doc_has_panics(ts, vis) {
            continue;
        }
        let line = ts.tokens[vis].line;
        out.push(Violation {
            rule: Rule::L4,
            line,
            message: format!(
                "`pub fn {}` can panic (assert/panic in body) but its doc \
                 comment has no `# Panics` section",
                ts.text(name)
            ),
            excerpt: excerpt_line(ts.source, line),
        });
    }
}

/// For the `fn` keyword at `f`, the index of its `pub` token when the fn
/// is exactly `pub` (not `pub(crate)`), walking back over the
/// `const`/`async`/`unsafe` modifiers.
fn pub_of_fn(ts: &TokenStream<'_>, f: usize) -> Option<usize> {
    let mut j = f;
    loop {
        j = ts.prev_code(j)?;
        match ts.text(j) {
            "const" | "async" | "unsafe" => {}
            "pub" => return Some(j),
            _ => return None,
        }
    }
}

/// Walks back from the item starting at token `item` over `#[…]` groups
/// and `///` doc lines; true when one of those lines holds `# Panics`.
fn doc_has_panics(ts: &TokenStream<'_>, item: usize) -> bool {
    let mut saw_panics = false;
    let mut j = item;
    while j > 0 {
        let p = j - 1;
        match ts.tokens[p].kind {
            TokenKind::LineComment if ts.text(p).starts_with("///") => {
                saw_panics |= ts.text(p).contains("# Panics");
                j = p;
            }
            TokenKind::Close(Delim::Bracket) => {
                let hash = ts
                    .matching_open(p)
                    .and_then(|o| ts.prev_code(o))
                    .filter(|&h| ts.text(h) == "#");
                let Some(hash) = hash else {
                    break;
                };
                j = hash;
            }
            _ => break,
        }
    }
    saw_panics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(src: &str, kind: FileKind) -> Vec<Violation> {
        check_file(&lex(src), kind)
    }

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.rule.id()).collect()
    }

    #[test]
    fn l1_fires_on_unwrap_expect_panic() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   pub fn g(x: Option<u32>) -> u32 { x.expect(\"oops\") }\n\
                   pub fn h() { panic!(\"boom\"); }\n";
        let v = check(src, FileKind::Library);
        // `h` both panics in library code (L1) and lacks a `# Panics`
        // section (L4).
        assert_eq!(rules_of(&v), ["L1", "L1", "L1", "L4"]);
    }

    #[test]
    fn l1_ignores_tests_and_testlike_files() {
        let src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(check(src, FileKind::Library).is_empty());
        let bench = "fn main() { None::<u32>.unwrap(); }";
        assert!(check(bench, FileKind::TestLike).is_empty());
    }

    #[test]
    fn a_test_only_field_covers_only_itself() {
        // A `#[cfg(test)]` struct field, and the struct-literal field that
        // fills it, end at their own `,`: the fn after them stays linted.
        let src = "pub struct Wal {\n    file: u32,\n    #[cfg(test)]\n    fault: Option<Box<dyn Fn(u32, u32) -> u32>>,\n    len: HashMap<u32, u32>,\n}\n\
                   pub fn open() -> Wal {\n    Wal {\n        file: 1,\n        #[cfg(test)]\n        fault: None,\n        len: HashMap::new(),\n    }\n}\n\
                   pub fn append(x: Option<u32>) -> u32 { x.unwrap() }\n";
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
        assert_eq!(rules_of(&check(src, FileKind::Library)), ["L1"]);
    }

    #[test]
    fn a_last_test_only_literal_field_ends_at_the_close() {
        let src = "pub fn open() -> Wal { Wal { file: 1, #[cfg(test)] fault: None } }\n\
                   pub fn append(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let regions = test_regions(&lex(src));
        let covered: Vec<&str> = regions.iter().map(|&(a, b)| &src[a..b]).collect();
        assert_eq!(covered, ["#[cfg(test)] fault: None "]);
        assert_eq!(rules_of(&check(src, FileKind::Library)), ["L1"]);
    }

    #[test]
    fn test_only_uses_consts_and_generic_fns_cover_their_items() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\n\
                   #[cfg(test)]\nconst PAIRS: [(u32, u32); 2] = [(0, 1), (1, 2)];\n\
                   #[cfg(test)]\nfn helper<A, B>(a: A) -> Result<(), B> where A: Clone, B: Copy { None::<u32>.unwrap(); Ok(()) }\n\
                   pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let regions = test_regions(&lex(src));
        let covered: Vec<&str> = regions.iter().map(|&(a, b)| &src[a..b]).collect();
        assert_eq!(covered.len(), 3);
        assert!(covered[0].ends_with("HashMap;"));
        assert!(covered[1].ends_with("(1, 2)];"));
        assert!(covered[2].ends_with("Ok(()) }"));
        // Only `f`'s unwrap is outside every region.
        assert_eq!(rules_of(&check(src, FileKind::Library)), ["L1"]);
    }

    #[test]
    fn l1_ignores_strings_comments_and_debug_assert() {
        let src = "// panic! here is prose\npub fn f() { let _ = \"don't panic!\"; }\n\
                   pub fn g() { debug_assert!(true); }\n\
                   // thread_rng here\n/* panic! */ pub fn h() {\n\
                   let s = \"unwrap() panic!\"; let t = r#\"thread_rng\"#; }\n";
        let v = check(src, FileKind::Library);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn l2_fires_everywhere_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let mut r = rand::thread_rng(); }\n}\n";
        let v = check(src, FileKind::Library);
        assert_eq!(rules_of(&v), ["L2"]);
        let bench = "fn main() { let r = StdRng::from_entropy(); let x: f64 = rand::random(); }";
        let v = check(bench, FileKind::TestLike);
        assert_eq!(rules_of(&v), ["L2", "L2"]);
    }

    #[test]
    fn l3_fires_on_float_literal_comparison() {
        let src = "pub fn f(x: f64) -> bool { x == 0.5 }\n\
                   pub fn g(x: f64) -> bool { 1.0 != x }\n\
                   pub fn h(n: usize) -> bool { n as f64 == total() }\n";
        let v = check(src, FileKind::Library);
        assert_eq!(rules_of(&v), ["L3", "L3", "L3"]);
    }

    #[test]
    fn l3_ignores_integers_ranges_and_tests() {
        let src = "pub fn f(x: usize) -> bool { x == 10 }\n\
                   pub fn g(x: usize) -> bool { (0..5).contains(&x) && x != 3 }\n\
                   pub fn ver(s: &str) -> bool { s == \"1.0\" }\n\
                   #[cfg(test)]\nmod tests { fn t(x: f64) -> bool { x == 0.5 } }\n";
        let v = check(src, FileKind::Library);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn l3_not_confused_by_other_operators() {
        let src = "pub fn f(x: f64) -> bool { x <= 0.5 && x >= 0.1 }\n\
                   pub fn g(x: f64) -> f64 { let y = 0.5; y }\n";
        assert!(check(src, FileKind::Library).is_empty());
    }

    #[test]
    fn l4_requires_panics_doc() {
        let bad = "/// Does things.\npub fn f(x: usize) { assert!(x > 0); }\n";
        let v = check(bad, FileKind::Library);
        assert_eq!(rules_of(&v), ["L4"]);

        let good = "/// Does things.\n///\n/// # Panics\n/// Panics when x is 0.\n\
                    pub fn f(x: usize) { assert!(x > 0); }\n";
        assert!(check(good, FileKind::Library).is_empty());
    }

    #[test]
    fn l4_skips_private_fns_debug_asserts_and_tests() {
        let src = "fn private(x: usize) { assert!(x > 0); }\n\
                   pub fn soft(x: usize) { debug_assert!(x > 0); }\n\
                   #[cfg(test)]\nmod tests { pub fn t() { assert!(true); } }\n";
        assert!(check(src, FileKind::Library).is_empty());
    }

    #[test]
    fn l4_sees_docs_across_attributes() {
        let src = "/// Docs.\n///\n/// # Panics\n/// On bad input.\n#[must_use]\n\
                   pub fn f(x: usize) -> usize { assert!(x > 0); x }\n";
        assert!(check(src, FileKind::Library).is_empty());
    }

    #[test]
    fn violations_carry_lines_and_excerpts() {
        let src = "fn a() {}\n\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let v = check(src, FileKind::Library);
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
        assert_eq!(Rule::from_id("L15"), None);
        assert_eq!(Rule::from_id(""), None);
    }
}
