//! The single home of the `// lint: allow(...)` suppression pragma: parsing
//! (called from the lexer, which owns comment extraction), target-line
//! resolution, suppression matching, and validation. Before this module the
//! parser lived in `lexer.rs` while validation and matching lived in
//! `rules.rs`, and the two could drift; now every consumer goes through one
//! implementation.
//!
//! Validation is strict by design: a malformed pragma, a pragma naming an
//! **unknown rule id**, or a missing `reason=` is a hard `P0` error — a
//! suppression that silently fails to apply (or applies without
//! justification) is worse than no suppression at all. `P0` problems are
//! reported for every scanned file, even ones no rule is scoped to.

use crate::lexer::LexOutput;
use crate::rules::RuleId;

/// A `// lint: allow(...)` suppression comment (parsed, not yet validated —
/// see [`problems`]).
#[derive(Debug, Clone)]
pub struct Pragma {
    pub line: u32,
    pub col: u32,
    /// True when the pragma comment is the only thing on its line, in which
    /// case it suppresses the *next* code line instead of its own.
    pub own_line: bool,
    /// Raw rule names as written, e.g. `["unwrap"]`.
    pub rules: Vec<String>,
    /// The `reason=` text, required for a pragma to be honored.
    pub reason: Option<String>,
    /// Set when the comment mentions `lint:` but does not parse.
    pub malformed: bool,
}

/// Parse a line comment into a [`Pragma`], if it carries one. Accepted
/// shape: `// lint: allow(rule[, rule…][, reason=free text])`.
pub fn parse_comment(comment: &str, line: u32, col: u32, own_line: bool) -> Option<Pragma> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("lint:")?.trim();
    let malformed = Pragma {
        line,
        col,
        own_line,
        rules: Vec::new(),
        reason: None,
        malformed: true,
    };
    let Some(args) = rest
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|a| a.strip_prefix('('))
        .and_then(|a| a.rfind(')').map(|end| &a[..end]))
    else {
        return Some(malformed);
    };
    let mut rules = Vec::new();
    let mut reason = None;
    let mut parts = args.split(',');
    while let Some(part) = parts.next() {
        let part = part.trim();
        if let Some(r) = part.strip_prefix("reason=") {
            // The reason is free text and may itself contain commas: consume
            // the remainder of the argument list.
            let tail: Vec<&str> = parts.collect();
            let mut full = r.to_string();
            for t in tail {
                full.push(',');
                full.push_str(t);
            }
            reason = Some(full.trim().to_string());
            break;
        }
        if !part.is_empty() {
            rules.push(part.to_string());
        }
    }
    Some(Pragma {
        line,
        col,
        own_line,
        rules,
        reason,
        malformed: false,
    })
}

/// Which source line each pragma suppresses: its own line, or (for own-line
/// pragmas) the first code line after it. Returns `(pragma_index,
/// suppressed_line)` pairs for all well-formed, reasoned pragmas.
pub fn targets(lexed: &LexOutput) -> Vec<(usize, u32)> {
    lexed
        .pragmas
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.malformed && p.reason.is_some())
        .map(|(i, p)| {
            let target = if p.own_line {
                lexed
                    .tokens
                    .iter()
                    .map(|t| t.line)
                    .find(|&l| l > p.line)
                    .unwrap_or(p.line)
            } else {
                p.line
            };
            (i, target)
        })
        .collect()
}

/// Does some pragma suppress `rule` on `line`? (The pragma must name the
/// rule — by id, canonical name, or alias — and carry a reason; an own-line
/// pragma covers the next code line.)
pub fn suppresses(rule: RuleId, line: u32, lexed: &LexOutput, targets: &[(usize, u32)]) -> bool {
    targets.iter().any(|&(i, target)| {
        target == line
            && lexed.pragmas[i]
                .rules
                .iter()
                .any(|r| RuleId::from_alias(r) == Some(rule))
    })
}

/// Diagnostics for the pragmas themselves: malformed syntax, unknown rule
/// names, and missing `reason=` are hard errors.
pub fn problems(pragmas: &[Pragma]) -> Vec<(u32, u32, String)> {
    let mut out = Vec::new();
    for p in pragmas {
        if p.malformed {
            out.push((
                p.line,
                p.col,
                "malformed lint pragma; expected `// lint: allow(rule, …, reason=…)`".into(),
            ));
            continue;
        }
        if p.rules.is_empty() {
            out.push((p.line, p.col, "lint pragma names no rules".into()));
        }
        for r in &p.rules {
            if RuleId::from_alias(r).is_none() {
                out.push((
                    p.line,
                    p.col,
                    format!("lint pragma names unknown rule `{r}`"),
                ));
            }
        }
        if p.reason.as_deref().unwrap_or("").is_empty() {
            out.push((
                p.line,
                p.col,
                "lint pragma is missing a non-empty `reason=…`".into(),
            ));
        }
    }
    out
}
