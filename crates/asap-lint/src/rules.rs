//! The rule set. R1/R2/R5 are token-pattern checks over single files; R3
//! (digest-taint), R4 (panic-reachability), and R6 (rng-stream-discipline)
//! are *interprocedural*: this module contributes their site detectors
//! (which tokens constitute taint, a panic, a seed call, a salt mention),
//! and [`crate::analysis`] decides which sites are violations by walking
//! the workspace call graph. Scoping comes from `lint.toml`; suppression
//! comes from `// lint: allow(…)` pragmas ([`crate::pragma`]) or committed
//! `[[allow]]` entries.

use crate::config::LintConfig;
use crate::lexer::{LexOutput, Tok, TokKind};

/// Stable rule identifiers (the `R<n>` in diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// No RandomState-hashed std collections in simulation-facing crates.
    R1,
    /// No ambient clocks or entropy outside the bench harness.
    R2,
    /// Digest taint: no floats/clocks/RandomState in any function reachable
    /// from a digest/event-ordering sink through the call graph (plus the
    /// direct float ban on the configured digest-path files).
    R3,
    /// Panic reachability: no `unwrap()`/`expect()` in functions reachable
    /// from `Simulation::run` or any `Protocol` implementation.
    R4,
    /// No release-mode `assert!`/`panic!` family macros on simulation hot
    /// paths; invariants belong at construction time plus `debug_assert!`.
    R5,
    /// RNG stream discipline: every subsystem draws only from its own
    /// salted stream. Registered salts may not leak outside their owner
    /// files, and every `seed_from_u64` must use a registered salt.
    R6,
}

pub const ALL_RULES: [RuleId; 6] = [
    RuleId::R1,
    RuleId::R2,
    RuleId::R3,
    RuleId::R4,
    RuleId::R5,
    RuleId::R6,
];

impl RuleId {
    /// Canonical lower-case name, used in `lint.toml` and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::R1 => "det-collections",
            RuleId::R2 => "ambient-entropy",
            RuleId::R3 => "digest-taint",
            RuleId::R4 => "panic-reachability",
            RuleId::R5 => "release-assert",
            RuleId::R6 => "rng-stream-discipline",
        }
    }

    pub fn id(self) -> &'static str {
        match self {
            RuleId::R1 => "R1",
            RuleId::R2 => "R2",
            RuleId::R3 => "R3",
            RuleId::R4 => "R4",
            RuleId::R5 => "R5",
            RuleId::R6 => "R6",
        }
    }

    /// Accepts the id (`R1`), the canonical name, snake_case, the short
    /// aliases used in pragmas, and the pre-call-graph names (`float-arith`,
    /// `unwrap`) so existing in-tree pragmas keep applying.
    pub fn from_alias(s: &str) -> Option<RuleId> {
        match s {
            "R1" | "r1" | "det-collections" | "det_collections" | "hashmap" => Some(RuleId::R1),
            "R2" | "r2" | "ambient-entropy" | "ambient_entropy" | "entropy" => Some(RuleId::R2),
            "R3" | "r3" | "digest-taint" | "digest_taint" | "float-arith" | "float_arith"
            | "float" => Some(RuleId::R3),
            "R4" | "r4" | "panic-reachability" | "panic_reachability" | "unwrap" | "expect" => {
                Some(RuleId::R4)
            }
            "R5" | "r5" | "release-assert" | "release_assert" => Some(RuleId::R5),
            "R6" | "r6" | "rng-stream-discipline" | "rng_stream_discipline" | "stream" => {
                Some(RuleId::R6)
            }
            _ => None,
        }
    }

    /// R3/R4/R5/R6 exempt `#[cfg(test)]` regions: test assertions may
    /// compare floats, unwrap, assert, and seed throwaway RNGs freely.
    /// R1/R2 apply to tests too — a test that iterates a RandomState map or
    /// reads a wall clock is exactly as flaky as a protocol that does.
    pub fn skips_test_code(self) -> bool {
        matches!(self, RuleId::R3 | RuleId::R4 | RuleId::R5 | RuleId::R6)
    }

    pub fn summary(self, found: &str) -> String {
        match self {
            RuleId::R1 => format!(
                "`{found}` hashes with per-process RandomState; iteration order is nondeterministic"
            ),
            RuleId::R2 => format!("`{found}` is an ambient clock/entropy source"),
            RuleId::R3 => format!("`{found}` taints a digest/event-ordering path"),
            RuleId::R4 => format!("`{found}()` can panic in code reachable from the simulation"),
            RuleId::R5 => format!(
                "release-mode `{found}!` on a simulation hot path can abort a run mid-trace"
            ),
            RuleId::R6 => format!("RNG stream discipline: {found}"),
        }
    }

    pub fn help(self) -> &'static str {
        match self {
            RuleId::R1 => {
                "use DetHashMap/DetHashSet (asap_sim::collections, re-exported from \
                 asap_overlay::collections) or BTreeMap/BTreeSet"
            }
            RuleId::R2 => {
                "take time from Ctx::now_us() and randomness from the seeded Ctx::rng; \
                 only asap-bench may touch the host clock"
            }
            RuleId::R3 => {
                "keep digest and event-ordering state in integer µs/bytes; float summaries \
                 belong to the metrics summary layer (see the lint.toml allowlist)"
            }
            RuleId::R4 => {
                "handle the None/Err arm (the engine must survive any message interleaving), \
                 or justify with `// lint: allow(panic-reachability, reason=…)`"
            }
            RuleId::R5 => {
                "prove the invariant once at construction time (before Simulation::run) \
                 and downgrade the hot-path check to `debug_assert!`, or justify with \
                 `// lint: allow(release-assert, reason=…)`"
            }
            RuleId::R6 => {
                "seed subsystem RNGs as `SmallRng::seed_from_u64(run_seed ^ <STREAM_SALT>)` \
                 using the salt registered for this file in lint.toml [streams.*]; derived \
                 child streams need `// lint: allow(rng-stream-discipline, reason=…)`"
            }
        }
    }
}

/// One rule violation, before suppression filtering.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: RuleId,
    pub line: u32,
    pub col: u32,
    pub width: usize,
    pub found: String,
    /// Interprocedural context (an example call path, the owning stream…),
    /// appended to the diagnostic summary when present.
    pub note: Option<String>,
}

fn violation(rule: RuleId, tok: &Tok, found: &str) -> Violation {
    Violation {
        rule,
        line: tok.line,
        col: tok.col,
        width: tok.width(),
        found: found.to_string(),
        note: None,
    }
}

const BANNED_COLLECTIONS: [&str; 2] = ["HashMap", "HashSet"];
const BANNED_ENTROPY: [&str; 4] = ["thread_rng", "from_entropy", "SystemTime", "Instant"];
const BANNED_FLOAT_TYPES: [&str; 2] = ["f32", "f64"];
const BANNED_PANICS: [&str; 2] = ["unwrap", "expect"];
/// Idents that taint a digest path beyond floats: per-process hash state and
/// ambient clock/entropy sources.
const TAINT_IDENTS: [&str; 5] = [
    "RandomState",
    "SystemTime",
    "Instant",
    "thread_rng",
    "from_entropy",
];
/// R5 matches these idents followed by `!`. The `debug_assert*` family lexes
/// as distinct idents, so it is exempt by construction.
const BANNED_RELEASE_ASSERTS: [&str; 5] =
    ["assert", "assert_eq", "assert_ne", "panic", "unreachable"];

/// Run the *intraprocedural* face of `rule` over a lexed file: R1/R2/R5
/// token patterns plus R3's direct float ban (which applies to the
/// configured digest-path files independent of the call graph). R4 and R6
/// have no intraprocedural face — their sites are judged by
/// [`crate::analysis`]. `in_test[i]` marks tokens inside `#[cfg(test)]`
/// regions (see [`crate::lexer::mark_test_regions`]).
pub fn check(rule: RuleId, lexed: &LexOutput, in_test: &[bool]) -> Vec<Violation> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if rule.skips_test_code() && in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        match rule {
            RuleId::R1 => {
                if let Some(id) = tok.ident() {
                    if BANNED_COLLECTIONS.contains(&id) {
                        out.push(violation(rule, tok, id));
                    }
                }
            }
            RuleId::R2 => {
                if let Some(id) = tok.ident() {
                    if BANNED_ENTROPY.contains(&id) {
                        out.push(violation(rule, tok, id));
                    }
                }
            }
            RuleId::R3 => match &tok.kind {
                TokKind::Ident(id) if BANNED_FLOAT_TYPES.contains(&id.as_str()) => {
                    out.push(violation(rule, tok, id));
                }
                TokKind::Num { float: true, .. } => {
                    out.push(violation(rule, tok, "float literal"));
                }
                _ => {}
            },
            RuleId::R5 => {
                if let Some(id) = tok.ident() {
                    if BANNED_RELEASE_ASSERTS.contains(&id)
                        && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                    {
                        out.push(violation(rule, tok, id));
                    }
                }
            }
            RuleId::R4 | RuleId::R6 => {}
        }
    }
    out
}

/// R4 sites: `.unwrap(` / `.expect(` / `Option::unwrap(` … inside the token
/// range `[start, end)` (a function body). Test tokens are skipped.
pub fn panic_sites(lexed: &LexOutput, in_test: &[bool], range: (usize, usize)) -> Vec<Violation> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for i in range.0..range.1.min(toks.len()) {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        if let Some(id) = toks[i].ident() {
            if BANNED_PANICS.contains(&id)
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && i > 0
                && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'))
            {
                out.push(violation(RuleId::R4, &toks[i], id));
            }
        }
    }
    out
}

/// R3 taint sites inside `[start, end)`: float types/literals plus the
/// nondeterminism sources in `TAINT_IDENTS`. Test tokens are skipped.
pub fn taint_sites(lexed: &LexOutput, in_test: &[bool], range: (usize, usize)) -> Vec<Violation> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    let end = range.1.min(toks.len());
    for (i, tok) in toks.iter().enumerate().take(end).skip(range.0) {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        match &tok.kind {
            TokKind::Ident(id)
                if BANNED_FLOAT_TYPES.contains(&id.as_str())
                    || TAINT_IDENTS.contains(&id.as_str()) =>
            {
                out.push(violation(RuleId::R3, tok, id));
            }
            TokKind::Num { float: true, .. } => {
                out.push(violation(RuleId::R3, tok, "float literal"));
            }
            _ => {}
        }
    }
    out
}

/// R6 direct checks over one file (run on every file in the rule's scope):
///
/// 1. A registered stream salt (literal or const identifier) mentioned in a
///    file its stream does not own leaks that stream to another subsystem.
/// 2. A `seed_from_u64(…)` call whose arguments mention no registered salt
///    creates an undisciplined stream (derived child streams carry a
///    justifying pragma).
pub fn check_streams(
    lexed: &LexOutput,
    in_test: &[bool],
    rel_path: &str,
    cfg: &LintConfig,
) -> Vec<Violation> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let (ident, literal) = match &tok.kind {
            TokKind::Ident(id) => (Some(id.as_str()), None),
            TokKind::Num { raw, .. } => (None, Some(raw.as_str())),
            TokKind::Punct(_) => (None, None),
        };
        if let Some(stream) = cfg.stream_of_salt(ident, literal) {
            if !stream.owns(rel_path) {
                let what = ident.unwrap_or("salt literal");
                out.push(Violation {
                    note: Some(format!(
                        "stream `{}` is owned by {}",
                        stream.name,
                        stream.owners.join(", ")
                    )),
                    ..violation(
                        RuleId::R6,
                        tok,
                        &format!(
                            "`{what}` is the salt of stream `{}`, used outside its owner",
                            stream.name
                        ),
                    )
                });
            }
        }
        if ident == Some("seed_from_u64") && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            let close = arg_close(toks, i + 1);
            let salted = (i + 2..close).any(|j| match &toks[j].kind {
                TokKind::Ident(id) => cfg.stream_of_salt(Some(id), None).is_some(),
                TokKind::Num { raw, .. } => cfg.stream_of_salt(None, Some(raw)).is_some(),
                TokKind::Punct(_) => false,
            });
            if !salted {
                out.push(violation(
                    RuleId::R6,
                    tok,
                    "`seed_from_u64` draws no registered stream salt",
                ));
            }
        }
    }
    out
}

/// Index of the `)` matching the `(` at `open` (saturating at end).
fn arg_close(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, mark_test_regions};

    #[test]
    fn stream_salts_are_matched_by_const_and_literal() {
        let toml = r#"
            [streams.fault]
            salt = "0xFA17_0B5E_55ED_C0DE"
            consts = ["FAULT_STREAM_SALT"]
            owners = ["crates/asap-sim/src/fault.rs"]
        "#;
        let cfg = LintConfig::parse(toml).expect("config parses");
        let src = "fn seed(run: u64) -> u64 { run ^ 0xFA17_0B5E_55ED_C0DE ^ FAULT_STREAM_SALT }";
        let lexed = lex(src);
        let in_test = mark_test_regions(&lexed.tokens);
        let owner = check_streams(&lexed, &in_test, "crates/asap-sim/src/fault.rs", &cfg);
        assert!(owner.is_empty(), "owner file may mention its salt");
        let outsider = check_streams(&lexed, &in_test, "crates/asap-sim/src/engine.rs", &cfg);
        assert_eq!(
            outsider.len(),
            2,
            "literal + const both flagged: {outsider:?}"
        );
    }

    #[test]
    fn unsalted_seeding_is_flagged() {
        let toml = r#"
            [streams.fault]
            consts = ["FAULT_STREAM_SALT"]
            owners = ["crates/asap-sim/src/fault.rs"]
        "#;
        let cfg = LintConfig::parse(toml).expect("config parses");
        let good = lex("fn f(s: u64) { let r = SmallRng::seed_from_u64(s ^ FAULT_STREAM_SALT); }");
        let bad = lex("fn f(s: u64) { let r = SmallRng::seed_from_u64(s.wrapping_add(1)); }");
        let fixture_path = "crates/asap-sim/src/fault.rs";
        let gt = mark_test_regions(&good.tokens);
        let bt = mark_test_regions(&bad.tokens);
        assert!(check_streams(&good, &gt, fixture_path, &cfg).is_empty());
        let v = check_streams(&bad, &bt, fixture_path, &cfg);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RuleId::R6);
    }

    #[test]
    fn taint_and_panic_sites_respect_ranges_and_tests() {
        let src = "fn a() { let x = 1.5; o.unwrap(); }\n\
                   #[cfg(test)] mod t { fn b() { q.unwrap(); let y: f64 = 0.0; } }";
        let lexed = lex(src);
        let in_test = mark_test_regions(&lexed.tokens);
        let whole = (0, lexed.tokens.len());
        let panics = panic_sites(&lexed, &in_test, whole);
        assert_eq!(panics.len(), 1, "test unwrap exempt: {panics:?}");
        let taints = taint_sites(&lexed, &in_test, whole);
        assert_eq!(taints.len(), 1, "test float exempt: {taints:?}");
        assert!(
            panic_sites(&lexed, &in_test, (0, 0)).is_empty(),
            "empty range"
        );
    }
}
