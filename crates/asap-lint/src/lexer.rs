//! A minimal Rust lexer: just enough to find identifiers, numeric literals,
//! and punctuation with accurate line/column spans, while *never* looking
//! inside comments, strings, or char literals. The build environment has no
//! crates.io access, so this replaces `syn`/`proc-macro2`; the syntax layer
//! in [`crate::syntax`] and the rules in [`crate::rules`] are token-pattern
//! checks, which a token stream serves as well as a syntax tree.

use crate::pragma::{self, Pragma};

/// One lexed token. Columns are 1-based byte offsets within the line
/// (identical to character columns for ASCII sources, which is all this
/// repo contains).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub line: u32,
    pub col: u32,
    pub kind: TokKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    Ident(String),
    /// A numeric literal; `float` is true for `1.5`, `2e3`, `1f64`, ….
    /// `raw` is the literal text normalized for comparison: lower-cased with
    /// `_` separators stripped (so `0xFA17_0B5E` matches `0xfa170b5e`) — the
    /// RNG stream-salt registry (rule R6) matches against it.
    Num {
        float: bool,
        raw: String,
    },
    Punct(char),
}

impl Tok {
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// Rendered width of the token, for diagnostic carets.
    pub fn width(&self) -> usize {
        match &self.kind {
            TokKind::Ident(s) => s.len(),
            TokKind::Num { raw, .. } => raw.len().max(1),
            TokKind::Punct(_) => 1,
        }
    }
}

/// Normalize a numeric literal for registry comparison: strip `_`, lowercase.
pub fn normalize_literal(text: &str) -> String {
    text.chars()
        .filter(|&c| c != '_')
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

#[derive(Debug, Default)]
pub struct LexOutput {
    pub tokens: Vec<Tok>,
    pub pragmas: Vec<Pragma>,
}

/// Lex `source` into tokens and pragmas. Never fails: unterminated
/// constructs simply run to end-of-file (the real compiler reports those).
pub fn lex(source: &str) -> LexOutput {
    Lexer {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        line_had_code: false,
        out: LexOutput::default(),
    }
    .run()
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    line: u32,
    col: u32,
    line_had_code: bool,
    out: LexOutput,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.pos + ahead).unwrap_or(&0)
    }

    fn bump(&mut self) {
        if self.peek(0) == b'\n' {
            self.line += 1;
            self.col = 1;
            self.line_had_code = false;
        } else {
            self.col += 1;
        }
        self.pos += 1;
    }

    fn run(mut self) -> LexOutput {
        while self.pos < self.src.len() {
            let c = self.peek(0);
            match c {
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                b'r' | b'b' if self.raw_or_byte_prefix() => {}
                _ if c.is_ascii_whitespace() => self.bump(),
                _ if c.is_ascii_digit() => self.number(),
                _ if c == b'_' || c.is_ascii_alphabetic() => self.ident(),
                _ => {
                    self.push(TokKind::Punct(c as char));
                    self.bump();
                }
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokKind) {
        self.out.tokens.push(Tok {
            line: self.line,
            col: self.col,
            kind,
        });
        self.line_had_code = true;
    }

    /// Handle `r"…"`, `r#"…"#`, `br"…"`, `b"…"`, `b'…'`, and `r#ident`;
    /// returns false (without consuming) when the `r`/`b` is a plain ident.
    fn raw_or_byte_prefix(&mut self) -> bool {
        let c = self.peek(0);
        let (mut i, raw) = match (c, self.peek(1)) {
            (b'r', b'"') | (b'r', b'#') => (1, true),
            (b'b', b'"') => (1, false),
            (b'b', b'\'') => {
                // Byte literal b'…': same shape as a char literal.
                self.bump();
                self.char_or_lifetime();
                return true;
            }
            (b'b', b'r') if matches!(self.peek(2), b'"' | b'#') => (2, true),
            _ => return false,
        };
        if raw {
            let mut hashes = 0;
            while self.peek(i) == b'#' {
                hashes += 1;
                i += 1;
            }
            if self.peek(i) != b'"' {
                // `r#ident` (raw identifier): consume the prefix, lex the rest
                // as a normal identifier.
                if hashes == 1 {
                    self.bump();
                    self.bump();
                    self.ident();
                    return true;
                }
                return false;
            }
            for _ in 0..=i {
                self.bump(); // prefix + opening quote
            }
            // Scan for `"` followed by `hashes` hash marks.
            while self.pos < self.src.len() {
                if self.peek(0) == b'"' {
                    let done = (1..=hashes).all(|k| self.peek(k) == b'#');
                    self.bump();
                    if done {
                        for _ in 0..hashes {
                            self.bump();
                        }
                        return true;
                    }
                } else {
                    self.bump();
                }
            }
            return true;
        }
        // b"…": byte string with escapes.
        self.bump();
        self.string();
        true
    }

    fn line_comment(&mut self) {
        let own_line = !self.line_had_code;
        let (line, col) = (self.line, self.col);
        let start = self.pos;
        while self.pos < self.src.len() && self.peek(0) != b'\n' {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("");
        if let Some(p) = pragma::parse_comment(text, line, col, own_line) {
            self.out.pragmas.push(p);
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while self.pos < self.src.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                self.bump();
                self.bump();
            } else {
                self.bump();
            }
        }
    }

    fn string(&mut self) {
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            match self.peek(0) {
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// `'a` (lifetime) vs `'x'` / `'\n'` (char literal).
    fn char_or_lifetime(&mut self) {
        self.bump(); // the quote
        let c = self.peek(0);
        if c == b'_' || c.is_ascii_alphabetic() {
            // Identifier-shaped: lifetime unless a quote closes right after
            // a single character (`'a'`).
            let mut i = 0;
            while {
                let b = self.peek(i);
                b == b'_' || b.is_ascii_alphanumeric()
            } {
                i += 1;
            }
            let closes = self.peek(i) == b'\'';
            for _ in 0..i {
                self.bump();
            }
            if closes {
                self.bump();
            }
            return;
        }
        // Escape or plain symbol char literal.
        if c == b'\\' {
            self.bump();
            self.bump();
        } else {
            self.bump();
        }
        if self.peek(0) == b'\'' {
            self.bump();
        }
    }

    fn ident(&mut self) {
        let start = self.pos;
        let (line, col) = (self.line, self.col);
        while {
            let b = self.peek(0);
            b == b'_' || b.is_ascii_alphanumeric()
        } {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .unwrap_or("")
            .to_string();
        self.out.tokens.push(Tok {
            line,
            col,
            kind: TokKind::Ident(text),
        });
        self.line_had_code = true;
    }

    fn number(&mut self) {
        let (line, col) = (self.line, self.col);
        let start = self.pos;
        let mut float = false;
        if self.peek(0) == b'0' && matches!(self.peek(1), b'x' | b'o' | b'b') {
            // Radix literal: no dots, no exponents, letters are digits.
            self.bump();
            self.bump();
            while {
                let b = self.peek(0);
                b == b'_' || b.is_ascii_alphanumeric()
            } {
                self.bump();
            }
        } else {
            while {
                let b = self.peek(0);
                b == b'_' || b.is_ascii_digit()
            } {
                self.bump();
            }
            if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
                float = true;
                self.bump();
                while {
                    let b = self.peek(0);
                    b == b'_' || b.is_ascii_digit()
                } {
                    self.bump();
                }
            }
            if matches!(self.peek(0), b'e' | b'E')
                && (self.peek(1).is_ascii_digit()
                    || (matches!(self.peek(1), b'+' | b'-') && self.peek(2).is_ascii_digit()))
            {
                float = true;
                self.bump();
                self.bump();
                while {
                    let b = self.peek(0);
                    b == b'_' || b.is_ascii_digit()
                } {
                    self.bump();
                }
            }
            // Type suffix (`1u32`, `1.0f64`, `1f32`).
            if self.peek(0) == b'f' && self.peek(1).is_ascii_digit() {
                float = true;
            }
            while {
                let b = self.peek(0);
                b == b'_' || b.is_ascii_alphanumeric()
            } {
                self.bump();
            }
        }
        let raw = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("");
        self.out.tokens.push(Tok {
            line,
            col,
            kind: TokKind::Num {
                float,
                raw: normalize_literal(raw),
            },
        });
        self.line_had_code = true;
    }
}

/// Mark which tokens sit inside `#[cfg(test)]`-gated items (or `#[test]`
/// functions): rules R3/R4 exempt test code, which may assert on floats and
/// unwrap freely. `#[cfg(not(test))]` does not gate.
pub fn mark_test_regions(tokens: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let (idents, after_attr) = scan_attribute(tokens, i + 2);
        let is_cfg_test = idents.iter().any(|s| s == "cfg")
            && idents.iter().any(|s| s == "test")
            && !idents.iter().any(|s| s == "not");
        let is_test_attr = idents.len() == 1 && idents[0] == "test";
        if !(is_cfg_test || is_test_attr) {
            i = after_attr;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut j = after_attr;
        while j < tokens.len()
            && tokens[j].is_punct('#')
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            j = scan_attribute(tokens, j + 2).1;
        }
        // The gated item extends to its first top-level `{…}` block or, for
        // block-less items (`use`, type aliases), the terminating `;`.
        let mut k = j;
        while k < tokens.len() {
            if tokens[k].is_punct('{') {
                k = matching_brace(tokens, k);
                break;
            }
            if tokens[k].is_punct(';') {
                break;
            }
            k += 1;
        }
        for flag in in_test.iter_mut().take((k + 1).min(tokens.len())).skip(i) {
            *flag = true;
        }
        i = k + 1;
    }
    in_test
}

/// Scan an attribute's interior from just past `#[`; returns the identifiers
/// seen and the index just past the closing `]`.
fn scan_attribute(tokens: &[Tok], mut i: usize) -> (Vec<String>, usize) {
    let mut depth = 1u32;
    let mut idents = Vec::new();
    while i < tokens.len() && depth > 0 {
        match &tokens[i].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => depth -= 1,
            TokKind::Ident(s) => idents.push(s.clone()),
            _ => {}
        }
        i += 1;
    }
    (idents, i)
}

/// Index of the token just past the brace block opening at `open` (which
/// must be `{`); saturates at end-of-stream for unbalanced input.
fn matching_brace(tokens: &[Tok], open: usize) -> usize {
    let mut depth = 0u32;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct('{') {
            depth += 1;
        } else if tokens[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn comments_and_strings_are_invisible() {
        let src = r##"
            // HashMap in a comment
            /* HashSet in /* a nested */ block */
            let s = "HashMap::new()";
            let r = r#"HashSet"#;
            let c = 'H';
            let real = HashBrown;
        "##;
        assert_eq!(
            idents(src),
            vec![
                "let",
                "s",
                "let",
                "r",
                "let",
                "c",
                "let",
                "real",
                "HashBrown"
            ]
        );
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) -> Ctx<'a, M> { unwrap }";
        let ids = idents(src);
        assert!(ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"Ctx".to_string()));
    }

    #[test]
    fn float_literals_are_classified() {
        let toks = lex("let x = 1.5 + 2 + 3e4 + 0x1F + 1f64; a.0").tokens;
        let floats: Vec<bool> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Num { float, .. } => Some(*float),
                _ => None,
            })
            .collect();
        // 1.5 float, 2 int, 3e4 float, 0x1F int, 1f64 float, 0 (tuple) int
        assert_eq!(floats, vec![true, false, true, false, true, false]);
    }

    #[test]
    fn spans_are_one_based() {
        let toks = lex("ab\n  cd").tokens;
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn pragma_parses() {
        let out = lex("x(); // lint: allow(unwrap, float, reason=math is exact, always)");
        assert_eq!(out.pragmas.len(), 1);
        let p = &out.pragmas[0];
        assert!(!p.own_line);
        assert!(!p.malformed);
        assert_eq!(p.rules, vec!["unwrap", "float"]);
        assert_eq!(p.reason.as_deref(), Some("math is exact, always"));
    }

    #[test]
    fn own_line_pragma_and_malformed() {
        let out = lex("  // lint: allow(unwrap)\ny();\n// lint: suppress(x)\n");
        assert_eq!(out.pragmas.len(), 2);
        assert!(out.pragmas[0].own_line);
        assert!(out.pragmas[0].reason.is_none());
        assert!(out.pragmas[1].malformed);
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { b.unwrap(); } }\nfn tail() { c }";
        let out = lex(src);
        let marks = mark_test_regions(&out.tokens);
        let flagged: Vec<&str> = out
            .tokens
            .iter()
            .zip(&marks)
            .filter(|(_, &m)| m)
            .filter_map(|(t, _)| t.ident())
            .collect();
        assert!(flagged.contains(&"b"));
        assert!(!flagged.contains(&"a"));
        assert!(!flagged.contains(&"tail"));
    }

    #[test]
    fn cfg_not_test_is_not_gated() {
        let src = "#[cfg(not(test))]\nfn live() { a.unwrap(); }";
        let out = lex(src);
        let marks = mark_test_regions(&out.tokens);
        assert!(marks.iter().all(|&m| !m));
    }
}
