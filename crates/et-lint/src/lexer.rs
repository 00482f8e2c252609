//! A hand-rolled Rust lexer: the one front-end every per-file rule
//! (L5, L6 and L8) and the item parser read. `scan_one` lexes each file once.
//!
//! The lexer is std-only like the rest of the crate and deliberately
//! smaller than rustc's: it produces a flat [`Token`] stream with byte
//! spans, 1-based lines, and a delimiter-nesting depth per token, plus
//! the handful of navigation helpers the rules need (statement bounds,
//! matching delimiters, enclosing-block close). Comments are *kept* as
//! tokens (L6 reads trailing `// ord:`
//! justifications); string/char contents are opaque single tokens, so no
//! rule ever fires on prose.
//!
//! Out of scope, harmlessly: macro expansion, type inference, and exotic
//! literals (`c"…"` C strings) — files using them still lex, the tokens
//! just degrade to punctuation + strings.

#![expect(
    clippy::indexing_slicing,
    reason = "token indices passed in are positions in this stream (callers take them from 0..tokens.len() loops or from next_code, prev_code and matching_close), and byte offsets are compared with bytes.len() before each read"
)]

/// Delimiter kind for [`TokenKind::Open`]/[`TokenKind::Close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `{` / `}`
    Brace,
    /// `(` / `)`
    Paren,
    /// `[` / `]`
    Bracket,
}

/// What one token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw `r#ident`).
    Ident,
    /// `'a` lifetime (not a char literal).
    Lifetime,
    /// Integer literal, suffix included (`42`, `0xFF`, `7u64`).
    Int,
    /// Float literal, suffix included (`0.5`, `1e-9`, `2f64`).
    Float,
    /// Any string-ish literal: `"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// `'x'` or `b'x'` char literal.
    Char,
    /// `// …` through end of line (newline excluded).
    LineComment,
    /// `/* … */`, nesting handled.
    BlockComment,
    /// Opening delimiter.
    Open(Delim),
    /// Closing delimiter.
    Close(Delim),
    /// One punctuation byte (`.`, `:`, `=`, …). Multi-byte operators are
    /// adjacent `Punct` tokens; rules match them by span adjacency.
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Token kind.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based source line of `start`.
    pub line: usize,
    /// Delimiter-nesting depth at the token: a token inside one `{ … }`
    /// or `( … )` has depth 1. `Open`/`Close` tokens carry the *outer*
    /// depth (the depth of the block they delimit).
    pub depth: u32,
}

/// A lexed file: the source plus its token stream.
pub struct TokenStream<'a> {
    /// The original source text.
    pub source: &'a str,
    /// Tokens in source order, comments included.
    pub tokens: Vec<Token>,
}

impl<'a> TokenStream<'a> {
    /// The source text of token `i`.
    pub fn text(&self, i: usize) -> &'a str {
        let t = &self.tokens[i];
        &self.source[t.start..t.end]
    }

    /// True when token `i` is not a comment.
    pub fn is_code(&self, i: usize) -> bool {
        !matches!(
            self.tokens[i].kind,
            TokenKind::LineComment | TokenKind::BlockComment
        )
    }

    /// Index of the next non-comment token after `i`.
    pub fn next_code(&self, i: usize) -> Option<usize> {
        (i + 1..self.tokens.len()).find(|&j| self.is_code(j))
    }

    /// Index of the previous non-comment token before `i`.
    pub fn prev_code(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| self.is_code(j))
    }

    /// True when tokens `i..i+needles.len()` are exactly `needles`
    /// (comparing source text, comments break the match).
    pub fn matches_seq(&self, i: usize, needles: &[&str]) -> bool {
        needles.iter().enumerate().all(|(k, n)| {
            self.tokens
                .get(i + k)
                .is_some_and(|_| self.is_code(i + k) && self.text(i + k) == *n)
        })
    }

    /// Index just past the statement containing token `i`: the token after
    /// the first `;` at the same depth, or the token closing the enclosing
    /// block when the statement is a tail expression.
    pub fn statement_end(&self, i: usize) -> usize {
        let depth = self.tokens[i].depth;
        let mut j = i;
        while j < self.tokens.len() {
            let t = &self.tokens[j];
            // Leaving the enclosing block ends the statement (tail expr).
            // Same-depth `Close` tokens belong to groups opened *inside*
            // the statement and are traversed.
            if t.depth < depth {
                return j;
            }
            if t.depth == depth && t.kind == TokenKind::Punct && self.text(j) == ";" {
                return j + 1;
            }
            j += 1;
        }
        j
    }

    /// Index of the first token of the statement containing token `i`:
    /// walks back to just after the previous `;`, `{`, or `}` at the same
    /// depth.
    pub fn statement_start(&self, i: usize) -> usize {
        let depth = self.tokens[i].depth;
        let mut j = i;
        while j > 0 {
            let t = &self.tokens[j - 1];
            // Boundaries: the enclosing block's `{` (lower depth), a prior
            // `;`, or the `}` of a preceding block statement. Same-depth
            // `)` / `]` are internal to this statement and traversed.
            if t.depth < depth
                || (t.depth == depth
                    && (t.kind == TokenKind::Close(Delim::Brace)
                        || (t.kind == TokenKind::Punct && self.text(j - 1) == ";")))
            {
                return j;
            }
            j -= 1;
        }
        0
    }

    /// Index of the `Close(Brace)` token ending the innermost brace block
    /// containing token `i`, or `tokens.len()` when `i` is at top level.
    pub fn enclosing_block_close(&self, i: usize) -> usize {
        let depth = self.tokens[i].depth;
        if depth == 0 {
            return self.tokens.len();
        }
        (i + 1..self.tokens.len())
            .find(|&j| self.tokens[j].depth < depth && self.is_close_brace(j))
            .unwrap_or(self.tokens.len())
    }

    fn is_close_brace(&self, j: usize) -> bool {
        matches!(self.tokens[j].kind, TokenKind::Close(Delim::Brace))
    }

    /// Index of the `Close` matching the `Open` token at `open` (same
    /// family, same depth), or `None` on unbalanced input or when `open`
    /// is not an `Open` token.
    pub fn matching_close(&self, open: usize) -> Option<usize> {
        let TokenKind::Open(d) = self.tokens[open].kind else {
            return None;
        };
        let depth = self.tokens[open].depth;
        (open + 1..self.tokens.len())
            .find(|&j| self.tokens[j].kind == TokenKind::Close(d) && self.tokens[j].depth == depth)
    }

    /// Index of the `Open` matching the `Close` token at `close`.
    pub fn matching_open(&self, close: usize) -> Option<usize> {
        let TokenKind::Close(d) = self.tokens[close].kind else {
            return None;
        };
        let depth = self.tokens[close].depth;
        (0..close)
            .rev()
            .find(|&j| self.tokens[j].kind == TokenKind::Open(d) && self.tokens[j].depth == depth)
    }

    /// True when the raw token before `j` is `what` and ends exactly where
    /// `j` starts (multi-byte operators are adjacent `Punct` tokens).
    pub fn prev_is_adjacent(&self, j: usize, what: &str) -> bool {
        j > 0 && self.text(j - 1) == what && self.tokens[j - 1].end == self.tokens[j].start
    }

    /// True when the raw token after `j` is `what`, byte-adjacent.
    pub fn next_is_adjacent(&self, j: usize, what: &str) -> bool {
        self.tokens
            .get(j + 1)
            .is_some_and(|t| t.start == self.tokens[j].end)
            && self.text(j + 1) == what
    }
}

/// Lexes `source` into a token stream.
pub fn lex(source: &str) -> TokenStream<'_> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1usize;
    let mut depth = 0u32;

    // A `#!…` shebang at byte 0 is one opaque line comment: a `'` or `"`
    // inside the interpreter path must not open a char/string state, and
    // its span must stay contiguous for the span-coverage invariant.
    // `#![…]` is an inner attribute, not a shebang, and lexes normally.
    if bytes.starts_with(b"#!") && bytes.get(2) != Some(&b'[') {
        while i < bytes.len() && bytes[i] != b'\n' {
            i += 1;
        }
        push(&mut tokens, TokenKind::LineComment, 0, i, 1, 0);
    }

    while i < bytes.len() {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied();
        let start = i;
        let start_line = line;

        if b == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }

        // Comments.
        if b == b'/' && next == Some(b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            push(
                &mut tokens,
                TokenKind::LineComment,
                start,
                i,
                start_line,
                depth,
            );
            continue;
        }
        if b == b'/' && next == Some(b'*') {
            let mut nest = 1u32;
            i += 2;
            while i < bytes.len() && nest > 0 {
                if bytes[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    nest += 1;
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    nest -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            push(
                &mut tokens,
                TokenKind::BlockComment,
                start,
                i,
                start_line,
                depth,
            );
            continue;
        }

        // String-family literals, longest prefix first: br#"…"#, br"…",
        // b"…", r#"…"#, r"…", "…".
        if let Some((len, newlines)) = str_literal_len(bytes, i) {
            i += len;
            line += newlines;
            push(&mut tokens, TokenKind::Str, start, i, start_line, depth);
            continue;
        }

        // Byte char `b'x'` — consumed before ident so `b` doesn't lex alone.
        if b == b'b' && next == Some(b'\'') {
            if let Some(len) = char_literal_len(bytes, i + 1) {
                i += 1 + len;
                push(&mut tokens, TokenKind::Char, start, i, start_line, depth);
                continue;
            }
        }

        // Char literal vs lifetime.
        if b == b'\'' {
            if let Some(len) = char_literal_len(bytes, i) {
                i += len;
                push(&mut tokens, TokenKind::Char, start, i, start_line, depth);
            } else {
                i += 1;
                while i < bytes.len() && is_ident_continue(bytes[i]) {
                    i += 1;
                }
                push(
                    &mut tokens,
                    TokenKind::Lifetime,
                    start,
                    i,
                    start_line,
                    depth,
                );
            }
            continue;
        }

        // Identifiers (incl. raw `r#ident`; raw strings were consumed above).
        if is_ident_start(b) {
            i += 1;
            if b == b'r' && next == Some(b'#') {
                i += 1; // the '#'
            }
            while i < bytes.len() && is_ident_continue(bytes[i]) {
                i += 1;
            }
            push(&mut tokens, TokenKind::Ident, start, i, start_line, depth);
            continue;
        }

        // Numeric literals.
        if b.is_ascii_digit() {
            let (len, kind) = number_len(bytes, i);
            i += len;
            push(&mut tokens, kind, start, i, start_line, depth);
            continue;
        }

        // Delimiters and punctuation.
        let kind = match b {
            b'{' => Some((TokenKind::Open(Delim::Brace), true)),
            b'(' => Some((TokenKind::Open(Delim::Paren), true)),
            b'[' => Some((TokenKind::Open(Delim::Bracket), true)),
            b'}' => Some((TokenKind::Close(Delim::Brace), false)),
            b')' => Some((TokenKind::Close(Delim::Paren), false)),
            b']' => Some((TokenKind::Close(Delim::Bracket), false)),
            _ => None,
        };
        match kind {
            Some((k, true)) => {
                push(&mut tokens, k, start, i + 1, start_line, depth);
                depth += 1;
            }
            Some((k, false)) => {
                depth = depth.saturating_sub(1);
                push(&mut tokens, k, start, i + 1, start_line, depth);
            }
            None => push(
                &mut tokens,
                TokenKind::Punct,
                start,
                i + 1,
                start_line,
                depth,
            ),
        }
        i += 1;
    }

    TokenStream { source, tokens }
}

fn push(
    tokens: &mut Vec<Token>,
    kind: TokenKind,
    start: usize,
    end: usize,
    line: usize,
    depth: u32,
) {
    tokens.push(Token {
        kind,
        start,
        end,
        line,
        depth,
    });
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Length and newline count of a string-family literal starting at `i`, or
/// `None` when `i` does not start one. Handles `"…"`, `r"…"`, `r#"…"#`,
/// `b"…"`, `br"…"`, `br##"…"##` with escapes in the cooked forms.
fn str_literal_len(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    let mut raw = false;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        raw = true;
        j += 1;
    }
    let mut hashes = 0usize;
    if raw {
        while bytes.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    // `b` / `r` prefixes only count when they belong to this literal, not
    // to a preceding identifier (`let xr = "…"` must lex `xr` first).
    if j > i && i > 0 && is_ident_continue(bytes[i - 1]) {
        return None;
    }
    j += 1; // opening quote
    let mut newlines = 0usize;
    while j < bytes.len() {
        match bytes[j] {
            b'\n' => {
                newlines += 1;
                j += 1;
            }
            b'\\' if !raw => {
                // An escaped newline (line continuation) is still a line.
                newlines += usize::from(bytes.get(j + 1) == Some(&b'\n'));
                j += 2;
            }
            b'"' => {
                if raw {
                    if (0..hashes).all(|h| bytes.get(j + 1 + h) == Some(&b'#')) {
                        return Some((j + 1 + hashes - i, newlines));
                    }
                    j += 1;
                } else {
                    return Some((j + 1 - i, newlines));
                }
            }
            _ => j += 1,
        }
    }
    // Unterminated: consume to EOF so the lexer always terminates.
    Some((j - i, newlines))
}

/// Length of a char literal starting at the `'` at `i`, or `None` when the
/// quote starts a lifetime.
fn char_literal_len(bytes: &[u8], i: usize) -> Option<usize> {
    let second = *bytes.get(i + 1)?;
    if second == b'\\' {
        let mut k = i + 2;
        while k < bytes.len() && bytes[k] != b'\'' && bytes[k] != b'\n' {
            k += 1;
        }
        if bytes.get(k) == Some(&b'\'') {
            return Some(k - i + 1);
        }
        return None;
    }
    if second == b'\'' {
        return None; // `''` is not a char literal
    }
    let first_len = utf8_len(second);
    let k = i + 1 + first_len;
    if bytes.get(k) == Some(&b'\'') {
        Some(k - i + 1)
    } else {
        None
    }
}

fn utf8_len(b: u8) -> usize {
    if b < 0x80 {
        1
    } else if b >> 5 == 0b110 {
        2
    } else if b >> 4 == 0b1110 {
        3
    } else {
        4
    }
}

/// Length and kind of a numeric literal starting at digit `i`.
fn number_len(bytes: &[u8], i: usize) -> (usize, TokenKind) {
    let mut j = i;
    let mut float = false;
    if bytes[i] == b'0' && matches!(bytes.get(i + 1), Some(b'x' | b'o' | b'b')) {
        j += 2;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        return (j - i, TokenKind::Int);
    }
    while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
        j += 1;
    }
    // Fraction: a `.` followed by a digit, or a lone trailing `.` that is
    // not a range (`1..n`) or method call (`1.max(2)`).
    if bytes.get(j) == Some(&b'.') {
        match bytes.get(j + 1) {
            Some(d) if d.is_ascii_digit() => {
                float = true;
                j += 1;
                while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
                    j += 1;
                }
            }
            Some(c) if *c == b'.' || is_ident_start(*c) => {}
            _ => {
                float = true;
                j += 1;
            }
        }
    }
    // Exponent.
    if matches!(bytes.get(j), Some(b'e' | b'E')) {
        let mut k = j + 1;
        if matches!(bytes.get(k), Some(b'+' | b'-')) {
            k += 1;
        }
        if bytes.get(k).is_some_and(u8::is_ascii_digit) {
            float = true;
            j = k;
            while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
                j += 1;
            }
        }
    }
    // Suffix (`u64`, `f32`, …).
    let suffix_start = j;
    while j < bytes.len() && is_ident_continue(bytes[j]) {
        j += 1;
    }
    let suffix = &bytes[suffix_start..j];
    if suffix.starts_with(b"f") {
        float = true;
    }
    (
        j - i,
        if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        let ts = lex(src);
        (0..ts.tokens.len())
            .map(|i| (ts.tokens[i].kind, ts.text(i).to_string()))
            .collect()
    }

    #[test]
    fn idents_keywords_and_puncts() {
        let ts = lex("let x = a.b();");
        let texts: Vec<&str> = (0..ts.tokens.len()).map(|i| ts.text(i)).collect();
        assert_eq!(texts, ["let", "x", "=", "a", ".", "b", "(", ")", ";"]);
    }

    #[test]
    fn numbers_int_vs_float() {
        for (src, kind) in [
            ("42", TokenKind::Int),
            ("0xFF_u64", TokenKind::Int),
            ("7u64", TokenKind::Int),
            ("0.5", TokenKind::Float),
            ("1e-9", TokenKind::Float),
            ("2f64", TokenKind::Float),
            ("12.", TokenKind::Float),
        ] {
            let ts = lex(src);
            assert_eq!(ts.tokens.len(), 1, "{src}");
            assert_eq!(ts.tokens[0].kind, kind, "{src}");
            assert_eq!(ts.text(0), src, "{src}");
        }
        // Range and method-call dots do not glue onto the int.
        assert_eq!(kinds("0..n").len(), 4);
        assert_eq!(kinds("1.max(2)")[0].0, TokenKind::Int);
    }

    #[test]
    fn string_family_is_one_opaque_token() {
        for src in [
            "\"plain unwrap()\"",
            "r\"raw\"",
            "r#\"with \" quote\"#",
            "r##\"nested \"# still\"##",
            "b\"bytes\"",
            "br#\"raw bytes \" here\"#",
        ] {
            let ts = lex(src);
            assert_eq!(ts.tokens.len(), 1, "{src} -> {:?}", kinds(src));
            assert_eq!(ts.tokens[0].kind, TokenKind::Str, "{src}");
            assert_eq!(ts.text(0), src, "{src}");
        }
    }

    #[test]
    fn ident_ending_in_r_or_b_does_not_eat_a_string() {
        for (src, ident) in [("xr\"s\"", "xr"), ("grab\"panic!\"; done();", "grab")] {
            let ts = lex(src);
            assert_eq!(ts.tokens[0].kind, TokenKind::Ident);
            assert_eq!(ts.text(0), ident);
            assert_eq!(ts.tokens[1].kind, TokenKind::Str);
        }
    }

    #[test]
    fn chars_bytes_and_lifetimes() {
        let ts = lex("fn f<'a>(c: char) { let q = '\"'; let b = b'x'; let n = '\\n'; }");
        let lifetimes: Vec<&str> = (0..ts.tokens.len())
            .filter(|&i| ts.tokens[i].kind == TokenKind::Lifetime)
            .map(|i| ts.text(i))
            .collect();
        assert_eq!(lifetimes, ["'a"]);
        let chars: Vec<&str> = (0..ts.tokens.len())
            .filter(|&i| ts.tokens[i].kind == TokenKind::Char)
            .map(|i| ts.text(i))
            .collect();
        assert_eq!(chars, ["'\"'", "b'x'", "'\\n'"]);

        // A brace inside a char literal opens no block.
        let ts = lex("fn f<'a>(x: &'a str) { let c = '{'; let d = '\\n'; }");
        let open = (0..ts.tokens.len())
            .find(|&i| ts.tokens[i].kind == TokenKind::Open(Delim::Brace))
            .expect("body");
        assert_eq!(ts.matching_close(open), Some(ts.tokens.len() - 1));
    }

    #[test]
    fn char_with_quote_does_not_derail_strings() {
        // The '"' char literal must not open a string state; neither may an
        // escaped quote, a `"#` inside `r##"…"##`, or the backslash of a raw
        // byte string (`br"\"` ends at its second quote) end one early.
        for src in [
            "let q = '\"'; x.unwrap();",
            "let c = '\"'; let s = \"unwrap()\"; x.unwrap();",
            r#"let s = "he said \"unwrap()\""; x.unwrap();"#,
            "let s = r##\"quote \"# panic! \"##; x.unwrap();",
            "let x = br\"\\\"; y.unwrap();",
            "let x = br#\"panic! \"quoted\" unwrap()\"#; real.unwrap();",
            "let s = b\"unwrap()\"; let c = b'\\''; x.unwrap();",
        ] {
            let ts = lex(src);
            let unwraps = (0..ts.tokens.len())
                .filter(|&i| ts.text(i) == "unwrap")
                .count();
            assert_eq!(unwraps, 1, "{src}");
            assert!((0..ts.tokens.len()).all(|i| ts.text(i) != "panic"), "{src}");
        }
    }

    #[test]
    fn comments_kept_as_tokens_nested_blocks() {
        let src = "a(); // ord: Relaxed ok\n/* outer /* inner */ end */ b();";
        let ts = lex(src);
        let comments: Vec<(TokenKind, &str)> = (0..ts.tokens.len())
            .filter(|&i| !ts.is_code(i))
            .map(|i| (ts.tokens[i].kind, ts.text(i)))
            .collect();
        assert_eq!(comments.len(), 2);
        assert_eq!(comments[0].0, TokenKind::LineComment);
        assert!(comments[0].1.contains("ord:"));
        assert_eq!(comments[1].0, TokenKind::BlockComment);
        assert!(comments[1].1.ends_with("end */"));
    }

    #[test]
    fn lines_and_depth_tracked() {
        let src = "fn f() {\n    g(\n        h());\n}\n";
        let ts = lex(src);
        let g = (0..ts.tokens.len())
            .find(|&i| ts.text(i) == "g")
            .expect("g");
        let h = (0..ts.tokens.len())
            .find(|&i| ts.text(i) == "h")
            .expect("h");
        assert_eq!(ts.tokens[g].line, 2);
        assert_eq!(ts.tokens[h].line, 3);
        assert_eq!(ts.tokens[g].depth, 1, "inside fn body");
        assert_eq!(ts.tokens[h].depth, 2, "inside call parens");

        // Newlines inside strings, comments, and `\`-continued strings
        // all count.
        let ts = lex("a\n\"two\nline\"\n// c\n\"x \\\n y\"\n/* d\n */ b");
        assert_eq!(ts.tokens.last().map(|t| t.line), Some(8));
    }

    #[test]
    fn statement_and_block_navigation() {
        let src = "fn f() { let a = x(); a.go(); }";
        let ts = lex(src);
        let let_tok = (0..ts.tokens.len())
            .find(|&i| ts.text(i) == "let")
            .expect("let");
        let end = ts.statement_end(let_tok);
        assert_eq!(ts.text(end), "a", "first token of next statement");
        assert_eq!(ts.statement_start(end), end);
        let close = ts.enclosing_block_close(let_tok);
        assert_eq!(ts.tokens[close].kind, TokenKind::Close(Delim::Brace));
    }

    #[test]
    fn raw_ident_lexes_whole() {
        let ts = lex("r#type");
        assert_eq!(ts.tokens.len(), 1);
        assert_eq!(ts.tokens[0].kind, TokenKind::Ident);
        assert_eq!(ts.text(0), "r#type");
    }

    #[test]
    fn shebang_is_one_line_comment() {
        // The apostrophe and quote in the shebang must not open char/string
        // states; the code after it must lex normally with correct lines.
        let src = "#!/usr/bin/env weird's \"driver\"\nfn main() { x.unwrap(); }\n";
        let ts = lex(src);
        assert_eq!(ts.tokens[0].kind, TokenKind::LineComment);
        assert_eq!(ts.text(0), "#!/usr/bin/env weird's \"driver\"");
        assert_eq!(ts.tokens[0].line, 1);
        let f = (0..ts.tokens.len())
            .find(|&i| ts.text(i) == "fn")
            .expect("fn");
        assert_eq!(ts.tokens[f].line, 2);
        let unwraps = (0..ts.tokens.len())
            .filter(|&i| ts.text(i) == "unwrap")
            .count();
        assert_eq!(unwraps, 1);
    }

    #[test]
    fn inner_attribute_is_not_a_shebang() {
        // `#![…]` at byte 0 lexes as `#`, `!`, `[`, …: four code tokens at
        // minimum, with contiguous in-order spans (pinned for the parser,
        // which skips inner attributes token-wise).
        let src = "#![allow(dead_code)]\nfn f() {}\n";
        let ts = lex(src);
        let texts: Vec<&str> = (0..6).map(|i| ts.text(i)).collect();
        assert_eq!(texts, ["#", "!", "[", "allow", "(", "dead_code"]);
        for w in ts.tokens.windows(2) {
            assert!(w[0].end <= w[1].start, "spans must not overlap");
        }
    }

    #[test]
    fn shebang_then_inner_attribute_spans_cover_source() {
        let src = "#!/usr/bin/env cargo\n#![deny(missing_docs)]\nfn f() {}\n";
        let ts = lex(src);
        assert_eq!(ts.tokens[0].kind, TokenKind::LineComment);
        // Every non-whitespace byte is covered by exactly one token span.
        let mut covered = vec![false; src.len()];
        for t in &ts.tokens {
            for c in covered.iter_mut().take(t.end).skip(t.start) {
                assert!(!*c, "overlapping spans");
                *c = true;
            }
        }
        for (i, b) in src.bytes().enumerate() {
            if !b.is_ascii_whitespace() {
                assert!(covered[i], "byte {i} ({:?}) uncovered", b as char);
            }
        }
    }

    #[test]
    fn unterminated_string_terminates_lexer() {
        let ts = lex("let s = \"oops");
        assert_eq!(ts.tokens.last().map(|t| t.kind), Some(TokenKind::Str));
    }
}
