//! A lightweight Rust *syntax* layer on top of the token lexer: item
//! extraction (free functions, `impl` methods, `trait` declarations) with
//! body token ranges, plus call-site extraction from those bodies. This is
//! what the workspace call graph ([`crate::callgraph`]) is built from.
//!
//! It is deliberately not a full parser — no expressions, no types, no
//! generic resolution — just enough structure for interprocedural rules:
//! *which functions exist, which trait/impl do they belong to, and which
//! names do they call*. The approximations (documented inline) are all
//! over-approximations of the real call relation, which keeps the
//! reachability rules (R4 panic-reachability, R3 digest-taint, R6 stream
//! discipline) sound-for-reachability at the cost of occasional extra edges
//! that the fixture tests and pragma triage keep in check.

use crate::lexer::Tok;

/// One function definition (free fn, impl method, or trait default method).
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// The `impl` target type for methods (`impl Foo` / `impl Tr for Foo`
    /// both give `Foo`); `None` for free functions and trait declarations.
    pub self_ty: Option<String>,
    /// The trait being implemented (`impl Tr for Foo` gives `Tr`), or — for
    /// a default method body inside `trait Tr { … }` — the declaring trait.
    pub trait_name: Option<String>,
    pub line: u32,
    pub col: u32,
    /// Token index range of the signature: `fn` through the token before
    /// the body `{` (or the `;` of a body-less declaration).
    pub sig: (usize, usize),
    /// Token index range of the body, *inside* the braces (empty for
    /// body-less trait method declarations).
    pub body: (usize, usize),
    /// Inside a `#[cfg(test)]` region or `#[test]` fn.
    pub is_test: bool,
}

impl FnDef {
    /// `Type::name` for methods, plain `name` for free functions.
    pub fn qual_name(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => match &self.trait_name {
                Some(t) => format!("{t}::{}", self.name),
                None => self.name.clone(),
            },
        }
    }
}

/// A `trait Name { … }` declaration and its method names (declared or
/// defaulted) — used to resolve "every implementation of trait T" roots.
#[derive(Debug, Clone)]
pub struct TraitDef {
    pub name: String,
    pub methods: Vec<String>,
}

/// Everything the syntax pass extracts from one file.
#[derive(Debug, Default)]
pub struct FileSyntax {
    pub fns: Vec<FnDef>,
    pub traits: Vec<TraitDef>,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `.name(` — a method call; resolves to any visible impl method `name`.
    Method(String),
    /// `Qual::name(` — resolves to methods `name` on impls of `Qual` when
    /// `Qual` looks like a type, else (module path segment) to free `name`.
    Path(String, String),
    /// `name(` — a free call; also covers tuple-struct constructors, which
    /// simply resolve to nothing.
    Free(String),
}

/// Keywords that precede `(` without being calls.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "in", "as", "loop", "move", "else", "let", "mut",
    "ref", "dyn",
];

/// Parse the item structure of a lexed file. `in_test` comes from
/// [`crate::lexer::mark_test_regions`].
pub fn parse(tokens: &[Tok], in_test: &[bool]) -> FileSyntax {
    let mut out = FileSyntax::default();
    walk(tokens, in_test, 0, tokens.len(), None, None, &mut out);
    out
}

#[derive(Clone)]
struct ImplCtx {
    self_ty: Option<String>,
    trait_name: Option<String>,
}

/// Linear scan of `[i, end)` collecting items. `impl_ctx` is set inside an
/// `impl` block, `trait_ctx` inside a `trait` block.
fn walk(
    tokens: &[Tok],
    in_test: &[bool],
    mut i: usize,
    end: usize,
    impl_ctx: Option<&ImplCtx>,
    trait_ctx: Option<&str>,
    out: &mut FileSyntax,
) {
    while i < end {
        let id = tokens[i].ident().unwrap_or("");
        match id {
            "impl" => {
                let Some((ctx, open)) = parse_impl_header(tokens, i + 1, end) else {
                    i += 1;
                    continue;
                };
                let close = matching(tokens, open, end, '{', '}');
                walk(tokens, in_test, open + 1, close, Some(&ctx), None, out);
                i = close + 1;
            }
            "trait" => {
                let Some(name_ix) = next_ident(tokens, i + 1, end) else {
                    i += 1;
                    continue;
                };
                let name = tokens[name_ix].ident().unwrap_or("").to_string();
                // Supertraits/where clauses hold no braces; the body starts
                // at the first `{`.
                let Some(open) = next_punct(tokens, name_ix + 1, end, '{') else {
                    i = name_ix + 1;
                    continue;
                };
                let close = matching(tokens, open, end, '{', '}');
                let before = out.fns.len();
                walk(tokens, in_test, open + 1, close, None, Some(&name), out);
                let methods = out.fns[before..].iter().map(|f| f.name.clone()).collect();
                out.traits.push(TraitDef { name, methods });
                i = close + 1;
            }
            "fn" => {
                let (def, next) = parse_fn(tokens, in_test, i, end, impl_ctx, trait_ctx);
                if let Some(def) = def {
                    out.fns.push(def);
                }
                i = next;
            }
            "mod" => {
                // `mod name { … }`: descend; `mod name;` skip. No path
                // tracking — names are resolved workspace-wide anyway.
                match next_ident(tokens, i + 1, end) {
                    Some(n) => match tokens.get(n + 1) {
                        Some(t) if t.is_punct('{') => {
                            i = n + 2;
                        }
                        _ => i = n + 1,
                    },
                    None => i += 1,
                }
            }
            "macro_rules" => {
                // Skip `macro_rules! name { … }` entirely: its token
                // patterns would read as phantom items and calls.
                match next_punct(tokens, i + 1, end, '{') {
                    Some(open) => i = matching(tokens, open, end, '{', '}') + 1,
                    None => i += 1,
                }
            }
            _ => i += 1,
        }
    }
}

/// Parse from just past `impl`: optional generics, a type path, optionally
/// `for` + second path, up to the opening `{`. Returns the context and the
/// index of that `{`.
fn parse_impl_header(tokens: &[Tok], mut i: usize, end: usize) -> Option<(ImplCtx, usize)> {
    if i < end && tokens[i].is_punct('<') {
        i = skip_angles(tokens, i, end);
    }
    let mut first_path_last = None; // last path ident at angle-depth 0
    let mut second_path_last = None;
    let mut saw_for = false;
    while i < end {
        let t = &tokens[i];
        if t.is_punct('{') {
            let (trait_name, self_ty) = if saw_for {
                (first_path_last, second_path_last)
            } else {
                (None, first_path_last)
            };
            return Some((
                ImplCtx {
                    self_ty,
                    trait_name,
                },
                i,
            ));
        }
        if t.is_punct(';') {
            return None;
        }
        if t.is_punct('<') {
            i = skip_angles(tokens, i, end);
            continue;
        }
        if let Some(id) = t.ident() {
            match id {
                "for" => saw_for = true,
                "where" => {
                    // Where clauses name types we must not mistake for the
                    // impl target; scan straight to the body brace.
                    let open = next_punct(tokens, i + 1, end, '{')?;
                    let (trait_name, self_ty) = if saw_for {
                        (first_path_last, second_path_last)
                    } else {
                        (None, first_path_last)
                    };
                    return Some((
                        ImplCtx {
                            self_ty,
                            trait_name,
                        },
                        open,
                    ));
                }
                "dyn" | "mut" | "const" => {}
                _ => {
                    if saw_for {
                        second_path_last = Some(id.to_string());
                    } else {
                        first_path_last = Some(id.to_string());
                    }
                }
            }
        }
        i += 1;
    }
    None
}

/// Parse a `fn` item starting at the `fn` token. Returns the definition
/// (None if unparseable) and the index to resume scanning from.
fn parse_fn(
    tokens: &[Tok],
    in_test: &[bool],
    fn_ix: usize,
    end: usize,
    impl_ctx: Option<&ImplCtx>,
    trait_ctx: Option<&str>,
) -> (Option<FnDef>, usize) {
    let Some(name_ix) = next_ident(tokens, fn_ix + 1, end) else {
        return (None, fn_ix + 1);
    };
    let name = tokens[name_ix].ident().unwrap_or("").to_string();
    let mut i = name_ix + 1;
    if i < end && tokens[i].is_punct('<') {
        i = skip_angles(tokens, i, end);
    }
    // Parameter list.
    let Some(open_paren) = next_punct(tokens, i, end, '(') else {
        return (None, name_ix + 1);
    };
    let after_params = matching(tokens, open_paren, end, '(', ')') + 1;
    // Scan to the body `{` or a declaration-terminating `;`, skipping
    // return-type parens/angles on the way.
    let mut j = after_params;
    let (sig_end, body) = loop {
        if j >= end {
            return (None, after_params);
        }
        let t = &tokens[j];
        if t.is_punct('{') {
            let close = matching(tokens, j, end, '{', '}');
            break (j, (j + 1, close));
        }
        if t.is_punct(';') {
            break (j, (j, j)); // body-less declaration
        }
        if t.is_punct('(') {
            j = matching(tokens, j, end, '(', ')') + 1;
            continue;
        }
        if t.is_punct('<') {
            j = skip_angles(tokens, j, end);
            continue;
        }
        j += 1;
    };
    let def = FnDef {
        name,
        self_ty: impl_ctx.and_then(|c| c.self_ty.clone()),
        trait_name: impl_ctx
            .and_then(|c| c.trait_name.clone())
            .or_else(|| trait_ctx.map(str::to_string)),
        line: tokens[name_ix].line,
        col: tokens[name_ix].col,
        sig: (fn_ix, sig_end),
        body: (body.0.min(end), body.1.min(end)),
        is_test: in_test.get(name_ix).copied().unwrap_or(false),
    };
    (Some(def), body.1.min(end).max(sig_end) + 1)
}

/// Extract call sites from a function's body token range.
pub fn calls_in(tokens: &[Tok], body: (usize, usize)) -> Vec<Call> {
    let (start, end) = (body.0, body.1.min(tokens.len()));
    let mut out = Vec::new();
    for i in start..end {
        let Some(name) = tokens[i].ident() else {
            continue;
        };
        // `name(` or, through a turbofish, `name::<T>(`.
        let mut after = i + 1;
        if after + 2 < end
            && tokens[after].is_punct(':')
            && tokens[after + 1].is_punct(':')
            && tokens[after + 2].is_punct('<')
        {
            after = skip_angles(tokens, after + 2, end);
        }
        if !tokens.get(after).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &tokens[p]);
        // `fn helper(` inside the body: a nested definition, not a call.
        if prev.is_some_and(|t| t.ident() == Some("fn")) {
            continue;
        }
        if prev.is_some_and(|t| t.is_punct('.')) {
            out.push(Call::Method(name.to_string()));
        } else if prev.is_some_and(|t| t.is_punct(':')) && i >= 2 && tokens[i - 2].is_punct(':') {
            // `Qual::name(`. Walk back over `::` to the qualifier segment
            // (skipping turbofish generics is not needed: `::<…>::` keeps
            // the qualifier one more hop back, which the loop handles).
            if let Some(qual) = i.checked_sub(3).and_then(|q| tokens[q].ident()) {
                out.push(Call::Path(qual.to_string(), name.to_string()));
            } else {
                out.push(Call::Free(name.to_string()));
            }
        } else {
            out.push(Call::Free(name.to_string()));
        }
    }
    out
}

fn next_ident(tokens: &[Tok], mut i: usize, end: usize) -> Option<usize> {
    while i < end {
        if tokens[i].ident().is_some() {
            return Some(i);
        }
        i += 1;
    }
    None
}

fn next_punct(tokens: &[Tok], mut i: usize, end: usize, c: char) -> Option<usize> {
    while i < end {
        if tokens[i].is_punct(c) {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Index just past a balanced `open..close` group starting at `open`.
/// Saturates at `end` for unbalanced input.
fn matching(tokens: &[Tok], open: usize, end: usize, oc: char, cc: char) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        if tokens[i].is_punct(oc) {
            depth += 1;
        } else if tokens[i].is_punct(cc) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    end.saturating_sub(1)
}

/// Skip a generics group starting at `<`; `->` arrows inside (Fn-trait
/// sugar) must not count as closing angles. Returns the index just past the
/// matching `>`.
fn skip_angles(tokens: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        if tokens[i].is_punct('<') {
            depth += 1;
        } else if tokens[i].is_punct('>') {
            // `->`: the `-` immediately precedes; not a closer.
            if i > 0 && tokens[i - 1].is_punct('-') {
                i += 1;
                continue;
            }
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, mark_test_regions};

    fn parse_src(src: &str) -> FileSyntax {
        let lexed = lex(src);
        let in_test = mark_test_regions(&lexed.tokens);
        parse(&lexed.tokens, &in_test)
    }

    #[test]
    fn free_impl_and_trait_fns_are_extracted() {
        let s = parse_src(
            r#"
            pub fn free(x: u32) -> u32 { helper(x) }
            fn helper(x: u32) -> u32 { x }
            pub struct Sim;
            impl Sim {
                pub fn run(&mut self) { self.step(); dispatch(self) }
                fn step(&mut self) {}
            }
            pub trait Protocol {
                fn on_query(&mut self);
                fn on_init(&mut self) { self.on_query() }
            }
            impl Protocol for Sim {
                fn on_query(&mut self) { free(1); }
            }
            "#,
        );
        let names: Vec<String> = s.fns.iter().map(|f| f.qual_name()).collect();
        assert_eq!(
            names,
            vec![
                "free",
                "helper",
                "Sim::run",
                "Sim::step",
                "Protocol::on_query",
                "Protocol::on_init",
                "Sim::on_query"
            ]
        );
        let on_query_impl = s.fns.last().expect("has fns");
        assert_eq!(on_query_impl.trait_name.as_deref(), Some("Protocol"));
        assert_eq!(s.traits.len(), 1);
        assert_eq!(s.traits[0].methods, vec!["on_query", "on_init"]);
    }

    #[test]
    fn generic_fns_and_impls_parse() {
        let s = parse_src(
            "impl<'a, P: Protocol> Simulation<'a, P> {\n\
             fn go<F: Fn(u32) -> u32>(&self, f: F) -> Vec<u32> { vec![f(1)] }\n}\n\
             fn free_generic<T>(t: T) where T: Clone { drop(t) }",
        );
        let names: Vec<String> = s.fns.iter().map(|f| f.qual_name()).collect();
        assert_eq!(names, vec!["Simulation::go", "free_generic"]);
    }

    #[test]
    fn calls_are_classified() {
        let src = "fn f() { g(); x.h(); Type::make(); path::seg::free_in_mod(); \
                   wire::decode::<P>(b); x.get::<Vec<u8>>(); let y = a::<B>::C; }";
        let s = parse_src(src);
        let lexed = lex(src);
        let calls = calls_in(&lexed.tokens, s.fns[0].body);
        assert_eq!(
            calls,
            vec![
                Call::Free("g".into()),
                Call::Method("h".into()),
                Call::Path("Type".into(), "make".into()),
                Call::Path("seg".into(), "free_in_mod".into()),
                // Turbofish calls are calls; a turbofish not followed by
                // `(` is not.
                Call::Path("wire".into(), "decode".into()),
                Call::Method("get".into()),
            ]
        );
    }

    #[test]
    fn test_regions_mark_fns() {
        let s =
            parse_src("fn live() {}\n#[cfg(test)]\nmod tests { fn helper() {} #[test] fn t() {} }");
        let flags: Vec<(String, bool)> =
            s.fns.iter().map(|f| (f.name.clone(), f.is_test)).collect();
        assert_eq!(
            flags,
            vec![
                ("live".to_string(), false),
                ("helper".to_string(), true),
                ("t".to_string(), true)
            ]
        );
    }

    #[test]
    fn trait_method_declarations_have_empty_bodies() {
        let s = parse_src("trait T { fn decl(&self); fn with_default(&self) { self.decl() } }");
        assert_eq!(s.fns[0].body.0, s.fns[0].body.1, "declaration has no body");
        assert!(s.fns[1].body.1 > s.fns[1].body.0, "default body captured");
    }
}
