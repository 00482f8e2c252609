//! A std-only recursive-descent *item* parser on top of [`crate::lexer`]:
//! the substrate for the interprocedural rules L10–L14.
//!
//! The parser extracts exactly what the workspace call graph needs and
//! nothing more: modules, `fn` items (with parameters and the enclosing
//! `impl`/`trait` type), call sites (method calls with a best-effort
//! receiver hint, path/bare calls, with the first argument's field hint for
//! lock-gateway attribution), cost-bearing operations (allocation, lock/blocking, and I/O call sites,
//! for the hot-path tier), and `use` imports for bare-call expansion. `#[cfg(test)]` / `#[test]`
//! items are parsed but marked, so graph rules can skip them. A cost site
//! inside a `#[cfg(test)]` region of a non-test fn (a test seam in a
//! library body) is not recorded: the regions are `rules::test_regions`,
//! the same definition of test code the token rules L5, L6 and L8 skip.
//!
//! Out of scope, deliberately: macro expansion, type inference, trait
//! solving. Anything the parser cannot classify degrades to an unresolved
//! call in [`crate::callgraph`], never to a wrong edge, by construction of
//! the resolution policy documented there.

#![expect(
    clippy::indexing_slicing,
    reason = "token indices come from the parse loop over 0..tokens.len() or from next_code, prev_code and matching_close, which return only positions inside the stream; fn_idx is a position in fns that current_fn() returned; a path is sliced after its length was checked"
)]

use std::collections::BTreeMap;

use crate::conc_rules::BLOCKING_METHODS;
use crate::lexer::{Delim, TokenKind, TokenStream};
use crate::rules::{in_regions, test_regions};

/// How a method call names its receiver.
#[derive(Debug, Clone, Default)]
pub struct Recv {
    /// The receiver chain starts at `self` (`self.x.m()`).
    pub is_self: bool,
    /// Nearest field/variable identifier before the method dot
    /// (`self.shards[i].lock()` → `shards`), skipping index brackets and
    /// call parens.
    pub hint: Option<String>,
}

/// What a call site invokes.
#[derive(Debug, Clone)]
pub enum Callee {
    /// `recv.name(…)`.
    Method {
        /// Method name.
        name: String,
        /// Receiver description.
        recv: Recv,
    },
    /// `a::b::name(…)` or a bare `name(…)` (one segment).
    Path {
        /// Path segments in source order, `use`-imports already expanded.
        segments: Vec<String>,
    },
}

impl Callee {
    /// Human-readable rendering used for unresolved buckets and taint
    /// source matching (`Instant::now`, `shards.lock`).
    pub fn render(&self) -> String {
        match self {
            Callee::Method { name, recv } => match &recv.hint {
                Some(h) => format!("{h}.{name}"),
                None if recv.is_self => format!("self.{name}"),
                None => format!(".{name}"),
            },
            Callee::Path { segments } => segments.join("::"),
        }
    }

    /// The final name segment (method name or last path segment).
    pub fn name(&self) -> &str {
        match self {
            Callee::Method { name, .. } => name,
            Callee::Path { segments } => segments.last().map_or("", |s| s.as_str()),
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What is being called.
    pub callee: Callee,
    /// 1-based source line.
    pub line: usize,
    /// Trimmed source line text (for excerpts and allowlist patterns).
    pub line_text: String,
    /// Token index of the callee name (orders call sites within the body).
    pub tok: usize,
    /// Token index one past the region in which a guard returned by this
    /// call stays live: the enclosing block close for `let`-bound results
    /// (minus an explicit `drop(binding)`), the statement end otherwise.
    pub guard_end_tok: usize,
    /// Nearest field identifier inside the first argument
    /// (`lock(&self.parts)` → `parts`); lock-class attribution for calls
    /// into lock-gateway helpers.
    pub arg_hint: Option<String>,
    /// The first argument's chain mentions `self`.
    pub arg_is_self: bool,
}

/// Which cost class a cost-bearing operation belongs to (the tier-4
/// rules L12/L13/L14 map onto these one-to-one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CostKind {
    /// Heap allocation or growth (`Vec::new`, `vec!`, `format!`,
    /// `collect`, `clone`, push-family methods).
    Alloc,
    /// Lock acquisition (`.lock()`, `.read()`/`.write()` on lock-ish
    /// receivers) or a blocking call (`recv`, `join`, `sleep`, …).
    Lock,
    /// I/O or a syscall (`std::fs`/`std::net`/`std::io`, print-family
    /// macros, `sync_all`, `thread::spawn`).
    Io,
}

impl CostKind {
    /// Short label used in messages and the cost report.
    pub fn label(self) -> &'static str {
        match self {
            CostKind::Alloc => "heap allocation",
            CostKind::Lock => "lock/blocking call",
            CostKind::Io => "I/O or syscall",
        }
    }

    /// The JSON key used in `HOTPATH.json` per-root counters.
    pub fn key(self) -> &'static str {
        match self {
            CostKind::Alloc => "alloc",
            CostKind::Lock => "lock",
            CostKind::Io => "io",
        }
    }
}

/// One cost-bearing operation inside a function body (before looking at
/// callees; reachability is the cost rules' job).
#[derive(Debug, Clone)]
pub struct CostOp {
    /// Which cost class.
    pub kind: CostKind,
    /// Offending operation text (`format!`, `collect`, `Vec::new`).
    pub what: String,
    /// 1-based source line.
    pub line: usize,
    /// Trimmed source line text.
    pub line_text: String,
}

/// One parsed function item.
#[derive(Debug, Clone, Default)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Module path inside the file (inline `mod` nesting only; the
    /// file-derived part is prepended by the call graph).
    pub module_path: Vec<String>,
    /// Enclosing `impl`/`trait` type name, when any.
    pub self_type: Option<String>,
    /// Covered by `#[cfg(test)]` / `#[test]` (directly or via an enclosing
    /// item).
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Trimmed signature line text.
    pub line_text: String,
    /// Parameter names (`self` included when present).
    pub params: Vec<String>,
    /// Call sites in source order.
    pub calls: Vec<CallSite>,
    /// Cost-bearing operations in source order (allocation, lock/blocking,
    /// I/O), consumed by the L12–L14 hot-path rules.
    pub costs: Vec<CostOp>,
}

/// Everything the call graph needs from one file.
#[derive(Debug, Default)]
pub struct FileAst {
    /// All function items, nested ones included, in source order.
    pub fns: Vec<FnItem>,
    /// `use` imports: alias → full segment path (`BTreeMap` so downstream
    /// iteration order is deterministic).
    pub imports: BTreeMap<String, Vec<String>>,
}

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: [&str; 16] = [
    "if", "while", "match", "for", "in", "as", "loop", "else", "break", "continue", "move", "ref",
    "mut", "let", "return", "where",
];

/// Macros that allocate (`vec![…]`, `format!(…)`).
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Macros that perform I/O (print family; `write!`/`writeln!` target a
/// writer, which in hot paths is never a plain in-memory buffer worth
/// distinguishing lexically).
const IO_MACROS: [&str; 7] = [
    "println", "eprintln", "print", "eprint", "write", "writeln", "dbg",
];

/// Method names that allocate or grow a heap container. Amortized-O(1)
/// growth (`push`/`extend`/`insert`) counts: a hot path must run at
/// steady-state capacity, and a vetted `[[allow]]` states that bound.
const ALLOC_METHODS: [&str; 16] = [
    "to_vec",
    "to_string",
    "to_owned",
    "clone",
    "cloned",
    "collect",
    "push",
    "push_str",
    "extend",
    "extend_from_slice",
    "append",
    "insert",
    "resize",
    "reserve",
    "repeat",
    "concat",
];

/// Method names that block the calling thread beyond L5's
/// [`BLOCKING_METHODS`]; both lists are classified under
/// [`CostKind::Lock`] for L13.
const WAIT_METHODS: [&str; 4] = ["connect", "wait", "wait_timeout", "park"];

/// Method names that perform I/O on their receiver.
const IO_METHODS: [&str; 8] = [
    "sync_all",
    "sync_data",
    "flush",
    "write_all",
    "read_to_string",
    "read_to_end",
    "read_exact",
    "spawn",
];

/// Path-call type heads whose constructor-family calls allocate.
const ALLOC_PATH_TYPES: [&str; 6] = ["Vec", "Box", "String", "VecDeque", "Rc", "Arc"];

/// Path heads that mean I/O or a syscall.
const IO_PATH_HEADS: [&str; 9] = [
    "fs",
    "net",
    "io",
    "File",
    "OpenOptions",
    "TcpStream",
    "TcpListener",
    "UdpSocket",
    "Command",
];

/// Parses one lexed file into its [`FileAst`].
pub fn parse(ts: &TokenStream<'_>) -> FileAst {
    Parser::new(ts).run()
}

/// An open scope: a recognized `{ … }` region the parser tracks.
struct Scope {
    kind: ScopeKind,
    /// Depth carried by the scope's `Open(Brace)` token; the matching
    /// `Close(Brace)` carries the same depth, and no deeper tracked scope
    /// can share it while this one is open.
    open_depth: u32,
    is_test: bool,
}

enum ScopeKind {
    Mod(String),
    /// `impl T { … }`, `impl Trait for T { … }`, `trait T { … }`.
    Typed(String),
    Fn(usize),
}

struct Parser<'a, 'b> {
    ts: &'b TokenStream<'a>,
    fns: Vec<FnItem>,
    imports: BTreeMap<String, Vec<String>>,
    scopes: Vec<Scope>,
    pending_test: bool,
    /// `#[cfg(test)]` byte ranges (`rules::test_regions`).
    test_regions: Vec<(usize, usize)>,
}

impl<'a, 'b> Parser<'a, 'b> {
    fn new(ts: &'b TokenStream<'a>) -> Self {
        Parser {
            ts,
            fns: Vec::new(),
            imports: BTreeMap::new(),
            scopes: Vec::new(),
            pending_test: false,
            test_regions: test_regions(ts),
        }
    }

    fn run(mut self) -> FileAst {
        let n = self.ts.tokens.len();
        let mut i = 0;
        while i < n {
            if !self.ts.is_code(i) {
                i += 1;
                continue;
            }
            let tok = self.ts.tokens[i];
            match tok.kind {
                TokenKind::Close(Delim::Brace) => {
                    if self
                        .scopes
                        .last()
                        .is_some_and(|s| s.open_depth == tok.depth)
                    {
                        self.scopes.pop();
                    }
                    i += 1;
                }
                TokenKind::Punct if self.ts.text(i) == "#" => {
                    i = self.attribute(i);
                }
                TokenKind::Ident => i = self.ident(i),
                _ => i += 1,
            }
        }
        FileAst {
            fns: self.fns,
            imports: self.imports,
        }
    }

    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s.kind {
            ScopeKind::Fn(idx) => Some(idx),
            _ => None,
        })
    }

    fn current_type(&self) -> Option<&str> {
        self.scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::Typed(t) => Some(t.as_str()),
            _ => None,
        })
    }

    fn module_path(&self) -> Vec<String> {
        self.scopes
            .iter()
            .filter_map(|s| match &s.kind {
                ScopeKind::Mod(m) => Some(m.clone()),
                _ => None,
            })
            .collect()
    }

    fn in_test_scope(&self) -> bool {
        self.scopes.iter().any(|s| s.is_test)
    }

    /// Consumes an outer (`#[…]`) or inner (`#![…]`) attribute; outer
    /// attributes containing a bare `test` identifier (`#[test]`,
    /// `#[cfg(test)]`, nested `all`/`any` forms) set the pending-test flag
    /// for the next item. Skipping the whole group also keeps `cfg(…)`
    /// contents and derive lists out of call-site extraction.
    fn attribute(&mut self, hash: usize) -> usize {
        let Some(mut j) = self.ts.next_code(hash) else {
            return hash + 1;
        };
        let inner = self.ts.text(j) == "!";
        if inner {
            let Some(k) = self.ts.next_code(j) else {
                return j + 1;
            };
            j = k;
        }
        if self.ts.tokens[j].kind != TokenKind::Open(Delim::Bracket) {
            return hash + 1;
        }
        let close = self.matching_close(j);
        // In a fn body, an attribute on anything but a nested item marks a
        // statement or expression, not the next fn the file declares.
        let marks_item = self.current_fn().is_none()
            || self
                .ts
                .next_code(close)
                .is_some_and(|n| matches!(self.ts.text(n), "fn" | "mod"));
        if !inner && marks_item {
            let has_test = (j + 1..close).any(|k| {
                self.ts.is_code(k)
                    && self.ts.tokens[k].kind == TokenKind::Ident
                    && self.ts.text(k) == "test"
            });
            self.pending_test |= has_test;
        }
        close + 1
    }

    /// Index of the close delimiter matching the open delimiter at `open`,
    /// or the last token on unbalanced input.
    fn matching_close(&self, open: usize) -> usize {
        if !matches!(self.ts.tokens[open].kind, TokenKind::Open(_)) {
            return open;
        }
        self.ts
            .matching_close(open)
            .unwrap_or(self.ts.tokens.len().saturating_sub(1))
    }

    fn ident(&mut self, i: usize) -> usize {
        let text = self.ts.text(i);
        match text {
            "mod" => self.item_mod(i),
            "impl" | "trait" => self.item_typed(i),
            "fn" => self.item_fn(i),
            "use" if self.current_fn().is_none() => self.item_use(i),
            _ if self.current_fn().is_some() => self.body_ident(i),
            _ => {
                // Any other item-level keyword consumes the pending
                // attribute flag so `#[test]` can't leak past one item.
                if matches!(
                    text,
                    "struct" | "enum" | "static" | "const" | "union" | "type"
                ) {
                    self.pending_test = false;
                }
                i + 1
            }
        }
    }

    fn item_mod(&mut self, kw: usize) -> usize {
        let test = self.pending_test || self.in_test_scope();
        self.pending_test = false;
        let Some(name_tok) = self.ts.next_code(kw) else {
            return kw + 1;
        };
        let name = self.ts.text(name_tok).to_string();
        match self.ts.next_code(name_tok) {
            Some(j) if self.ts.tokens[j].kind == TokenKind::Open(Delim::Brace) => {
                self.scopes.push(Scope {
                    kind: ScopeKind::Mod(name),
                    open_depth: self.ts.tokens[j].depth,
                    is_test: test,
                });
                j + 1
            }
            // `mod x;` file-module declaration, or something malformed.
            Some(j) => j + 1,
            None => kw + 1,
        }
    }

    /// Parses `impl … {` / `trait … {`: the implemented-on type is the
    /// first generic-depth-0 identifier after `for` when present, after
    /// the keyword otherwise; pushes a typed scope.
    fn item_typed(&mut self, kw: usize) -> usize {
        let test = self.pending_test || self.in_test_scope();
        self.pending_test = false;
        let item_depth = self.ts.tokens[kw].depth;
        let mut angle = 0i32;
        let mut candidate: Option<String> = None;
        let mut in_where = false;
        let mut j = kw + 1;
        while j < self.ts.tokens.len() {
            if !self.ts.is_code(j) {
                j += 1;
                continue;
            }
            let t = self.ts.tokens[j];
            if t.kind == TokenKind::Open(Delim::Brace) && t.depth == item_depth {
                break;
            }
            if t.kind == TokenKind::Punct && self.ts.text(j) == ";" && t.depth == item_depth {
                // Bodyless robustness path (not valid Rust, but never
                // trust input).
                return j + 1;
            }
            match t.kind {
                TokenKind::Punct => {
                    let txt = self.ts.text(j);
                    if txt == "<" {
                        angle += 1;
                    } else if txt == ">"
                        && !self.ts.prev_is_adjacent(j, "-")
                        && !self.ts.prev_is_adjacent(j, "=")
                    {
                        angle -= 1;
                    }
                }
                TokenKind::Ident if angle <= 0 => {
                    let txt = self.ts.text(j);
                    if txt == "for" {
                        candidate = None;
                    } else if txt == "where" {
                        in_where = true;
                    } else if !in_where
                        && candidate.is_none()
                        && !matches!(txt, "dyn" | "impl" | "trait" | "unsafe" | "const")
                    {
                        candidate = Some(txt.to_string());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j < self.ts.tokens.len() {
            self.scopes.push(Scope {
                kind: ScopeKind::Typed(candidate.unwrap_or_default()),
                open_depth: self.ts.tokens[j].depth,
                is_test: test,
            });
            return j + 1;
        }
        j
    }

    /// Parses a `fn` item: signature (name, visibility, params), then
    /// either pushes a body scope or skips a bodyless declaration.
    fn item_fn(&mut self, kw: usize) -> usize {
        let test = self.pending_test || self.in_test_scope();
        self.pending_test = false;
        let fn_depth = self.ts.tokens[kw].depth;
        let Some(name_tok) = self.ts.next_code(kw) else {
            return kw + 1;
        };
        if self.ts.tokens[name_tok].kind != TokenKind::Ident {
            // `fn(u32) -> u32` function-pointer type; not an item.
            return kw + 1;
        }
        let name = self.ts.text(name_tok).to_string();
        let line = self.ts.tokens[kw].line;

        // Walk the signature to find the body `{` (or `;` for bodyless
        // trait/extern declarations) at the fn's own depth. `<` carries no
        // lexer depth, so `{` cannot hide inside generics — but closure
        // bodies in default-argument positions cannot occur in signatures,
        // so the first same-depth `{` is the body.
        let mut body_open = None;
        let mut j = name_tok + 1;
        while j < self.ts.tokens.len() {
            if !self.ts.is_code(j) {
                j += 1;
                continue;
            }
            let t = self.ts.tokens[j];
            if t.depth == fn_depth {
                if t.kind == TokenKind::Open(Delim::Brace) {
                    body_open = Some(j);
                    break;
                }
                if t.kind == TokenKind::Punct && self.ts.text(j) == ";" {
                    break;
                }
            }
            j += 1;
        }

        let item = FnItem {
            name,
            module_path: self.module_path(),
            self_type: self.current_type().map(str::to_string),
            is_test: test,
            line,
            line_text: excerpt(self.ts.source, line),
            params: self.fn_params(name_tok, fn_depth),
            calls: Vec::new(),
            costs: Vec::new(),
        };
        let idx = self.fns.len();
        self.fns.push(item);

        match body_open {
            Some(open) => {
                self.scopes.push(Scope {
                    kind: ScopeKind::Fn(idx),
                    open_depth: self.ts.tokens[open].depth,
                    is_test: test,
                });
                open + 1
            }
            None => j + 1,
        }
    }

    /// Parameter names: identifiers directly followed by `:` at the
    /// parameter-list paren depth, plus a bare/`&`-qualified `self`.
    fn fn_params(&self, name_tok: usize, fn_depth: u32) -> Vec<String> {
        let mut out = Vec::new();
        // Find the parameter `(`, skipping `<…>` generics — angle brackets
        // carry no lexer depth, so `Fn(u32)` bounds inside generics would
        // otherwise masquerade as the parameter list.
        let mut angle = 0i32;
        let mut j = name_tok + 1;
        let open = loop {
            if j >= self.ts.tokens.len() {
                return out;
            }
            if self.ts.is_code(j) {
                let t = self.ts.tokens[j];
                let txt = self.ts.text(j);
                if t.kind == TokenKind::Punct && txt == "<" {
                    angle += 1;
                } else if t.kind == TokenKind::Punct
                    && txt == ">"
                    && !self.ts.prev_is_adjacent(j, "-")
                    && !self.ts.prev_is_adjacent(j, "=")
                {
                    angle -= 1;
                } else if t.kind == TokenKind::Open(Delim::Paren)
                    && t.depth == fn_depth
                    && angle <= 0
                {
                    break j;
                } else if t.kind == TokenKind::Open(Delim::Brace) && t.depth == fn_depth {
                    return out; // malformed: body before params
                }
            }
            j += 1;
        };
        let close = self.matching_close(open);
        let inner_depth = self.ts.tokens[open].depth + 1;
        for k in open + 1..close {
            if !self.ts.is_code(k)
                || self.ts.tokens[k].kind != TokenKind::Ident
                || self.ts.tokens[k].depth != inner_depth
            {
                continue;
            }
            let txt = self.ts.text(k);
            if txt == "self" {
                out.push("self".to_string());
                continue;
            }
            if txt == "mut" {
                continue;
            }
            if self
                .ts
                .next_code(k)
                .is_some_and(|n| self.ts.text(n) == ":" && !self.ts.next_is_adjacent(n, ":"))
            {
                out.push(txt.to_string());
            }
        }
        out
    }

    fn item_use(&mut self, kw: usize) -> usize {
        self.pending_test = false;
        let depth = self.ts.tokens[kw].depth;
        let mut end = kw + 1;
        while end < self.ts.tokens.len() {
            let t = self.ts.tokens[end];
            if self.ts.is_code(end)
                && t.kind == TokenKind::Punct
                && self.ts.text(end) == ";"
                && t.depth == depth
            {
                break;
            }
            end += 1;
        }
        self.collect_use(kw + 1, end, &[]);
        end + 1
    }

    /// Recursively collects import leaves in `lo..hi` under `prefix`:
    /// `{…}` groups fork the prefix, `as` renames, `*` globs are dropped.
    fn collect_use(&mut self, lo: usize, hi: usize, prefix: &[String]) {
        let mut segs: Vec<String> = prefix.to_vec();
        let mut alias: Option<String> = None;
        let mut k = lo;
        while k < hi {
            if !self.ts.is_code(k) {
                k += 1;
                continue;
            }
            match self.ts.tokens[k].kind {
                TokenKind::Ident => {
                    let txt = self.ts.text(k).to_string();
                    if txt == "as" {
                        if let Some(n) = self.ts.next_code(k) {
                            alias = Some(self.ts.text(n).to_string());
                            k = n + 1;
                            continue;
                        }
                    } else {
                        segs.push(txt);
                    }
                    k += 1;
                }
                TokenKind::Open(Delim::Brace) => {
                    let close = self.matching_close(k);
                    // Split the group body on top-level commas and recurse;
                    // the group terminates this path — nothing to flush.
                    let inner_prefix = segs.clone();
                    let group_depth = self.ts.tokens[k].depth + 1;
                    let mut part_lo = k + 1;
                    for c in k + 1..close {
                        if self.ts.is_code(c)
                            && self.ts.tokens[c].kind == TokenKind::Punct
                            && self.ts.text(c) == ","
                            && self.ts.tokens[c].depth == group_depth
                        {
                            self.collect_use(part_lo, c, &inner_prefix);
                            part_lo = c + 1;
                        }
                    }
                    self.collect_use(part_lo, close, &inner_prefix);
                    return;
                }
                TokenKind::Punct if self.ts.text(k) == "," => {
                    self.flush_use(&mut segs, &mut alias, prefix.len());
                    k += 1;
                }
                _ => k += 1,
            }
        }
        self.flush_use(&mut segs, &mut alias, prefix.len());
    }

    /// Records one completed import path and resets to the prefix length.
    fn flush_use(&mut self, segs: &mut Vec<String>, alias: &mut Option<String>, keep: usize) {
        if segs.len() > keep {
            let name = alias
                .take()
                .or_else(|| segs.last().cloned())
                .unwrap_or_default();
            if !name.is_empty() && name != "*" {
                self.imports.insert(name, segs.clone());
            }
        }
        segs.truncate(keep);
        *alias = None;
    }

    /// Handles an identifier inside a fn body: call sites and the
    /// allocating and I/O macros.
    fn body_ident(&mut self, i: usize) -> usize {
        let Some(fn_idx) = self.current_fn() else {
            return i + 1;
        };
        let text = self.ts.text(i).to_string();
        let Some(next) = self.ts.next_code(i) else {
            return i + 1;
        };

        // Macro invocation `name!(…)` / `name![…]` / `name!{…}`.
        if self.ts.text(next) == "!" && next_is_open(self.ts, next) {
            if ALLOC_MACROS.contains(&text.as_str()) {
                self.push_cost(fn_idx, CostKind::Alloc, &format!("{text}!"), i);
            } else if IO_MACROS.contains(&text.as_str()) {
                self.push_cost(fn_idx, CostKind::Io, &format!("{text}!"), i);
            }
            return i + 1;
        }

        if self.ts.tokens[next].kind != TokenKind::Open(Delim::Paren) {
            return i + 1;
        }
        if NON_CALL_KEYWORDS.contains(&text.as_str()) {
            return i + 1;
        }

        let line = self.ts.tokens[i].line;
        let prev_is_dot = self
            .ts
            .prev_code(i)
            .is_some_and(|p| self.ts.text(p) == "." && !self.ts.prev_is_adjacent(p, "."));

        if prev_is_dot {
            let recv = self.receiver(i);
            self.method_cost(fn_idx, &text, &recv, i);
            self.push_call(fn_idx, Callee::Method { name: text, recv }, i, next, line);
        } else {
            let segments = self.path_segments(i);
            self.path_cost(fn_idx, &segments, i);
            self.push_call(fn_idx, Callee::Path { segments }, i, next, line);
        }
        i + 1
    }

    /// Classifies a method call's cost class, if any, and records it.
    /// `.read()`/`.write()` count as lock acquisition only when the
    /// receiver hint looks like a lock (the L5/L10 attribution heuristic);
    /// on anything else they are reader/writer calls L14 has no opinion on
    /// without a receiver type.
    fn method_cost(&mut self, fn_idx: usize, name: &str, recv: &Recv, at: usize) {
        let lockish = recv.hint.as_deref().is_some_and(|h| {
            let h = h.to_ascii_lowercase();
            h.contains("lock") || h.contains("mutex") || h.starts_with("rw")
        });
        let kind = if name == "lock"
            || ((name == "read" || name == "write") && lockish)
            || BLOCKING_METHODS.contains(&name)
            || WAIT_METHODS.contains(&name)
        {
            Some(CostKind::Lock)
        } else if ALLOC_METHODS.contains(&name) {
            Some(CostKind::Alloc)
        } else if IO_METHODS.contains(&name) {
            Some(CostKind::Io)
        } else {
            None
        };
        if let Some(kind) = kind {
            self.push_cost(fn_idx, kind, name, at);
        }
    }

    /// Classifies a path call's cost class, if any, and records it.
    fn path_cost(&mut self, fn_idx: usize, segments: &[String], at: usize) {
        let segs: Vec<&str> = segments.iter().map(String::as_str).collect();
        let rest: &[&str] = if segs.first() == Some(&"std") {
            &segs[1..]
        } else {
            &segs[..]
        };
        if rest.len() < 2 {
            return;
        }
        let (head, last) = (rest[0], rest[rest.len() - 1]);
        let what = segments.join("::");
        if head == "thread" {
            match last {
                "sleep" | "park" => self.push_cost(fn_idx, CostKind::Lock, &what, at),
                "spawn" => self.push_cost(fn_idx, CostKind::Io, &what, at),
                _ => {}
            }
            return;
        }
        if ALLOC_PATH_TYPES.contains(&head)
            && matches!(
                last,
                "new" | "with_capacity" | "from" | "from_iter" | "from_elem"
            )
        {
            self.push_cost(fn_idx, CostKind::Alloc, &what, at);
            return;
        }
        if IO_PATH_HEADS.contains(&head) {
            self.push_cost(fn_idx, CostKind::Io, &what, at);
        }
    }

    /// Records the cost site at token `at`, unless it is test code.
    fn push_cost(&mut self, fn_idx: usize, kind: CostKind, what: &str, at: usize) {
        let tok = self.ts.tokens[at];
        if in_regions(&self.test_regions, tok.start) {
            return;
        }
        let line = tok.line;
        self.fns[fn_idx].costs.push(CostOp {
            kind,
            what: what.to_string(),
            line,
            line_text: excerpt(self.ts.source, line),
        });
    }

    /// Walks the receiver chain left of the `.` before method token `m`.
    fn receiver(&self, m: usize) -> Recv {
        let mut recv = Recv::default();
        let Some(dot) = self.ts.prev_code(m) else {
            return recv;
        };
        let mut j = match self.ts.prev_code(dot) {
            Some(j) => j,
            None => return recv,
        };
        // True when the previous hop crossed `::` rather than `.`: in
        // `Type::ctor(..).method()` the type name is the better hint than
        // the constructor name.
        let mut via_path = false;
        loop {
            match self.ts.tokens[j].kind {
                TokenKind::Close(Delim::Paren) | TokenKind::Close(Delim::Bracket) => {
                    let Some(open) = self.ts.matching_open(j) else {
                        return recv;
                    };
                    match self.ts.prev_code(open) {
                        Some(p) => j = p,
                        None => return recv,
                    }
                }
                TokenKind::Ident => {
                    let txt = self.ts.text(j);
                    if txt == "self" {
                        recv.is_self = true;
                        return recv;
                    }
                    if recv.hint.is_none()
                        || (via_path && txt.starts_with(|c: char| c.is_ascii_uppercase()))
                    {
                        recv.hint = Some(txt.to_string());
                    }
                    // Continue left across `.` or `::`.
                    let Some(p) = self.ts.prev_code(j) else {
                        return recv;
                    };
                    if self.ts.text(p) == "." && !self.ts.prev_is_adjacent(p, ".") {
                        via_path = false;
                        match self.ts.prev_code(p) {
                            Some(pp) => j = pp,
                            None => return recv,
                        }
                    } else if self.ts.text(p) == ":" && self.ts.prev_is_adjacent(p, ":") {
                        via_path = true;
                        let Some(c2) = self.ts.prev_code(p) else {
                            return recv;
                        };
                        match self.ts.prev_code(c2) {
                            Some(pp) => j = pp,
                            None => return recv,
                        }
                    } else {
                        return recv;
                    }
                }
                TokenKind::Punct if self.ts.text(j) == "?" => match self.ts.prev_code(j) {
                    Some(p) => j = p,
                    None => return recv,
                },
                _ => return recv,
            }
        }
    }

    /// Collects `a::b::name` path segments ending at the name token `i`,
    /// expanding the first segment through the file's `use` imports.
    fn path_segments(&self, i: usize) -> Vec<String> {
        let mut segs = vec![self.ts.text(i).to_string()];
        let mut j = i;
        while let Some(c1) = self.ts.prev_code(j) {
            if !(self.ts.text(c1) == ":" && self.ts.prev_is_adjacent(c1, ":")) {
                break;
            }
            let Some(c2) = self.ts.prev_code(c1) else {
                break;
            };
            let Some(p) = self.ts.prev_code(c2) else {
                break;
            };
            if self.ts.tokens[p].kind == TokenKind::Ident {
                segs.insert(0, self.ts.text(p).to_string());
                j = p;
            } else {
                break;
            }
        }
        // Expand the head through imports: `use a::b::c;` + `c::f()` →
        // `a::b::c::f`.
        if let Some(full) = self.imports.get(&segs[0]) {
            let mut expanded = full.clone();
            expanded.extend(segs.drain(1..));
            segs = expanded;
        }
        segs
    }

    fn push_call(
        &mut self,
        fn_idx: usize,
        callee: Callee,
        name_tok: usize,
        open: usize,
        line: usize,
    ) {
        let (arg_hint, arg_is_self) = self.first_arg_hint(open);
        let guard_end_tok = self.guard_scope_end(name_tok);
        self.fns[fn_idx].calls.push(CallSite {
            callee,
            line,
            line_text: excerpt(self.ts.source, line),
            tok: name_tok,
            guard_end_tok,
            arg_hint,
            arg_is_self,
        });
    }

    /// The last field identifier of the first argument (index brackets and
    /// nested call parens skipped), plus whether the chain mentions `self`.
    fn first_arg_hint(&self, open: usize) -> (Option<String>, bool) {
        let close = self.matching_close(open);
        let arg_depth = self.ts.tokens[open].depth + 1;
        let mut hint: Option<String> = None;
        let mut is_self = false;
        let mut k = open + 1;
        while k < close {
            if !self.ts.is_code(k) {
                k += 1;
                continue;
            }
            let t = self.ts.tokens[k];
            if t.kind == TokenKind::Punct && self.ts.text(k) == "," && t.depth == arg_depth {
                break;
            }
            match t.kind {
                TokenKind::Ident => {
                    let txt = self.ts.text(k);
                    if txt == "self" {
                        is_self = true;
                    } else {
                        hint = Some(txt.to_string());
                    }
                    k += 1;
                }
                TokenKind::Open(Delim::Bracket) | TokenKind::Open(Delim::Paren) => {
                    k = self.matching_close(k) + 1;
                }
                _ => k += 1,
            }
        }
        (hint, is_self)
    }

    /// Token index one past the region where a guard returned by the call
    /// at `name_tok` stays live: the enclosing block close for `let`-bound
    /// results whose chain preserves the guard, cut short by an explicit
    /// `drop(binding)`; the statement end otherwise.
    fn guard_scope_end(&self, name_tok: usize) -> usize {
        let mut stmt_start = self.ts.statement_start(name_tok);
        // `statement_start` can land on a leading comment token.
        while stmt_start < name_tok && !self.ts.is_code(stmt_start) {
            stmt_start += 1;
        }
        let stmt_end = self.ts.statement_end(name_tok);
        if self.ts.text(stmt_start) != "let" {
            return stmt_end;
        }
        // `let v = lock(&m).deref_chain()` consumes the guard within the
        // statement — unless the chain is a guard-preserving
        // `.unwrap()`/`.expect(…)` tail.
        if let Some(open) = self.ts.next_code(name_tok) {
            if self.ts.tokens[open].kind == TokenKind::Open(Delim::Paren) {
                let close = self.matching_close(open);
                if let Some(n) = self.ts.next_code(close) {
                    if self.ts.text(n) == "." {
                        let keeps_guard = self
                            .ts
                            .next_code(n)
                            .is_some_and(|m| matches!(self.ts.text(m), "unwrap" | "expect"));
                        if !keeps_guard {
                            return stmt_end;
                        }
                    }
                }
            }
        }
        // Binding name: first identifier after `let` (skipping `mut`).
        let mut b = stmt_start + 1;
        while b < self.ts.tokens.len() && (!self.ts.is_code(b) || self.ts.text(b) == "mut") {
            b += 1;
        }
        let binding = (b < self.ts.tokens.len() && self.ts.tokens[b].kind == TokenKind::Ident)
            .then(|| self.ts.text(b));
        let block_close = self.ts.enclosing_block_close(stmt_start);
        if let Some(name) = binding {
            for k in stmt_end..block_close.min(self.ts.tokens.len()) {
                if self.ts.is_code(k)
                    && self.ts.text(k) == "drop"
                    && self.ts.matches_seq(k + 1, &["(", name])
                {
                    return k;
                }
            }
        }
        block_close
    }
}

/// True when the token after `j` opens any delimiter group (macro bodies).
fn next_is_open(ts: &TokenStream<'_>, j: usize) -> bool {
    ts.tokens
        .get(j + 1)
        .is_some_and(|t| matches!(t.kind, TokenKind::Open(_)))
}

/// The trimmed text of 1-based `line` in `source`.
fn excerpt(source: &str, line: usize) -> String {
    source
        .lines()
        .nth(line.saturating_sub(1))
        .unwrap_or_default()
        .trim()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn names(ast: &FileAst) -> Vec<&str> {
        ast.fns.iter().map(|f| f.name.as_str()).collect()
    }

    #[test]
    fn fns_modules_and_impls_are_scoped() {
        let src = r#"
            pub fn top() {}
            mod inner {
                pub(crate) fn helper() {}
                impl Widget {
                    pub fn poke(&self) {}
                    fn quiet() {}
                }
            }
            trait Act {
                fn go(&self);
                fn act_default(&self) { self.go(); }
            }
        "#;
        let ast = parse(&lex(src));
        assert_eq!(
            names(&ast),
            ["top", "helper", "poke", "quiet", "go", "act_default"]
        );
        let top = &ast.fns[0];
        assert!(top.module_path.is_empty() && top.self_type.is_none());
        let helper = &ast.fns[1];
        assert_eq!(helper.module_path, ["inner"]);
        let poke = &ast.fns[2];
        assert_eq!(poke.self_type.as_deref(), Some("Widget"));
        assert_eq!(poke.module_path, ["inner"]);
        assert_eq!(poke.params, ["self"]);
        let go = &ast.fns[4];
        assert_eq!(go.self_type.as_deref(), Some("Act"));
        assert!(go.calls.is_empty(), "bodyless decl has no calls");
        let dflt = &ast.fns[5];
        assert_eq!(dflt.calls.len(), 1);
        assert!(matches!(
            &dflt.calls[0].callee,
            Callee::Method { name, recv } if name == "go" && recv.is_self
        ));
    }

    #[test]
    fn impl_trait_for_type_names_the_type() {
        let src = "impl<T: Clone> Display for Grid<T> { fn fmt(&self) {} }";
        let ast = parse(&lex(src));
        assert_eq!(ast.fns[0].self_type.as_deref(), Some("Grid"));
    }

    #[test]
    fn test_markers_propagate() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn support() {}
                #[test]
                fn case() {}
            }
            #[test]
            fn naked_case() {}
            #[cfg(feature = "latest")]
            fn not_a_test() {}
        "#;
        let ast = parse(&lex(src));
        let by_name = |n: &str| ast.fns.iter().find(|f| f.name == n).expect("fn present");
        assert!(by_name("support").is_test, "enclosing cfg(test) mod");
        assert!(by_name("case").is_test);
        assert!(by_name("naked_case").is_test);
        assert!(
            !by_name("not_a_test").is_test,
            "`latest` must not substring-match `test`"
        );
    }

    /// A `#[cfg(test)]` statement in a fn body marks that statement (its
    /// cost sites are dropped), never the next fn the file declares.
    #[test]
    fn cfg_test_statements_mark_only_themselves() {
        let src = r#"
            fn write_frame(&mut self, frame: &[u8]) {
                #[cfg(test)]
                if let Some(fault) = FAULT.get() { return fault.tear(frame.to_vec()); }
                self.file.write_all(frame)
            }
            fn roll_back(&mut self) { self.file.set_len(self.end); }
            fn outer() {
                #[cfg(test)]
                fn nested_seam() {}
            }
        "#;
        let ast = parse(&lex(src));
        let by_name = |n: &str| ast.fns.iter().find(|f| f.name == n).expect("fn present");
        assert!(
            !by_name("roll_back").is_test,
            "the flag leaked past a statement"
        );
        assert!(by_name("nested_seam").is_test);
        let costs: Vec<&str> = by_name("write_frame")
            .costs
            .iter()
            .map(|c| c.what.as_str())
            .collect();
        assert_eq!(costs, ["write_all"], "the test seam's to_vec is not a cost");
    }

    #[test]
    fn calls_methods_paths_and_imports() {
        let src = r#"
            use std::time::Instant;
            use crate::cache::{lock as grab, PartitionCache};
            fn f(&self) {
                let t = Instant::now();
                let g = grab(&self.parts);
                self.shards[idx].clear();
                free_standing(t);
            }
        "#;
        let ast = parse(&lex(src));
        let f = &ast.fns[0];
        let rendered: Vec<String> = f.calls.iter().map(|c| c.callee.render()).collect();
        assert!(
            rendered.contains(&"std::time::Instant::now".to_string()),
            "import-expanded path call: {rendered:?}"
        );
        assert!(
            rendered.contains(&"crate::cache::lock".to_string()),
            "aliased import expands: {rendered:?}"
        );
        assert!(
            rendered.contains(&"shards.clear".to_string()),
            "{rendered:?}"
        );
        assert!(
            rendered.contains(&"free_standing".to_string()),
            "{rendered:?}"
        );
        let grab = f
            .calls
            .iter()
            .find(|c| c.callee.name() == "lock")
            .expect("grab call");
        assert_eq!(grab.arg_hint.as_deref(), Some("parts"));
        assert!(grab.arg_is_self);
        // Method on an indexed self field: receiver walks over `[idx]`.
        let clear = f
            .calls
            .iter()
            .find(|c| c.callee.name() == "clear")
            .expect("clear call");
        assert!(matches!(
            &clear.callee,
            Callee::Method { recv, .. } if recv.is_self && recv.hint.as_deref() == Some("shards")
        ));
    }

    #[test]
    fn guard_scope_let_vs_temporary() {
        let src = r#"
            fn f(&self) {
                let g = lock(&self.parts);
                g.insert(1);
                lock(&self.owners).remove(&2);
                after();
            }
        "#;
        let ast = parse(&lex(src));
        let f = &ast.fns[0];
        let locks: Vec<&CallSite> = f
            .calls
            .iter()
            .filter(|c| c.callee.name() == "lock")
            .collect();
        assert_eq!(locks.len(), 2);
        let after_tok = f
            .calls
            .iter()
            .find(|c| c.callee.name() == "after")
            .expect("after call")
            .tok;
        assert!(
            locks[0].guard_end_tok > after_tok,
            "let-bound guard lives to end of block"
        );
        assert!(
            locks[1].guard_end_tok <= after_tok,
            "temporary guard dies at statement end (region is exclusive)"
        );
    }

    #[test]
    fn guard_scope_drop_cuts_liveness() {
        let src = r#"
            fn f(&self) {
                let g = lock(&self.parts);
                g.insert(1);
                drop(g);
                after();
            }
        "#;
        let ast = parse(&lex(src));
        let f = &ast.fns[0];
        let lock = f
            .calls
            .iter()
            .find(|c| c.callee.name() == "lock")
            .expect("lock");
        let after_tok = f
            .calls
            .iter()
            .find(|c| c.callee.name() == "after")
            .expect("after")
            .tok;
        assert!(
            lock.guard_end_tok < after_tok,
            "drop(g) ends the guard region before after()"
        );
    }

    #[test]
    fn generic_fn_bounds_do_not_eat_params() {
        let src = "fn apply<F: Fn(u32) -> u32>(input: u32, op: F) -> u32 { op(input) }";
        let ast = parse(&lex(src));
        assert_eq!(ast.fns[0].params, ["input", "op"]);
    }

    #[test]
    fn use_groups_and_globs() {
        let src = r#"
            use std::collections::{BTreeMap, HashMap as Map};
            use crate::session::*;
            fn f() { let m = Map::new(); }
        "#;
        let ast = parse(&lex(src));
        assert_eq!(
            ast.imports.get("Map").map(Vec::as_slice),
            Some(
                &[
                    "std".to_string(),
                    "collections".to_string(),
                    "HashMap".to_string()
                ][..]
            )
        );
        assert_eq!(
            ast.imports.get("BTreeMap").map(Vec::len),
            Some(3),
            "group members keep the shared prefix"
        );
        assert!(!ast.imports.contains_key("*"), "globs are dropped");
        let new_call = &ast.fns[0].calls[0];
        assert_eq!(new_call.callee.render(), "std::collections::HashMap::new");
    }

    fn cost_kinds(f: &FnItem) -> Vec<(CostKind, &str)> {
        f.costs.iter().map(|c| (c.kind, c.what.as_str())).collect()
    }

    #[test]
    fn alloc_ops_are_tagged() {
        let src = r#"
            fn f(xs: &[u64]) -> Vec<u64> {
                let mut v = Vec::with_capacity(xs.len());
                let s = format!("{}", xs.len());
                let t = xs.to_vec();
                let c: Vec<u64> = xs.iter().copied().collect();
                v.push(s.len() as u64);
                v
            }
        "#;
        let ast = parse(&lex(src));
        let kinds = cost_kinds(&ast.fns[0]);
        for what in ["Vec::with_capacity", "format!", "to_vec", "collect", "push"] {
            assert!(
                kinds.contains(&(CostKind::Alloc, what)),
                "{what} missing from {kinds:?}"
            );
        }
        assert!(
            !kinds.iter().any(|(k, _)| *k != CostKind::Alloc),
            "pure-alloc body must not tag lock/io: {kinds:?}"
        );
    }

    #[test]
    fn lock_and_blocking_ops_are_tagged() {
        let src = r#"
            fn f(&self) {
                let g = self.shard_lock.lock();
                let r = self.state_rwlock.read();
                let x = self.rx.recv_timeout(ms);
                std::thread::sleep(ms);
            }
            fn reader_is_not_a_lock(&self) {
                let n = self.file.read(&mut buf);
            }
        "#;
        let ast = parse(&lex(src));
        let kinds = cost_kinds(&ast.fns[0]);
        for what in ["lock", "read", "recv_timeout", "std::thread::sleep"] {
            assert!(
                kinds.contains(&(CostKind::Lock, what)),
                "{what} missing from {kinds:?}"
            );
        }
        assert!(
            ast.fns[1].costs.is_empty(),
            ".read() on a non-lock receiver is not an acquisition"
        );
    }

    #[test]
    fn io_ops_are_tagged() {
        let src = r#"
            use std::fs;
            fn f(path: &str) {
                let data = fs::read_to_string(path);
                println!("{}", path.len());
                file.sync_all();
                std::thread::spawn(work);
            }
        "#;
        let ast = parse(&lex(src));
        let kinds = cost_kinds(&ast.fns[0]);
        for what in [
            "std::fs::read_to_string",
            "println!",
            "sync_all",
            "std::thread::spawn",
        ] {
            assert!(
                kinds.contains(&(CostKind::Io, what)),
                "{what} missing from {kinds:?}"
            );
        }
    }

    #[test]
    fn cost_free_body_stays_clean() {
        let src = r#"
            fn fold(&self, acc: u64, w: u64) -> u64 {
                let masked = w & self.mask;
                acc + masked.count_ones() as u64
            }
        "#;
        let ast = parse(&lex(src));
        assert!(ast.fns[0].costs.is_empty(), "{:?}", ast.fns[0].costs);
    }
}
