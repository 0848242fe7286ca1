//! `lint.toml` loading. The build environment has no crates.io access, so
//! this is a hand-rolled parser for the *subset* of TOML the config uses:
//!
//! * `[rules.<name>]` tables with `crates`/`paths` string arrays plus the
//!   rule-specific keys `sinks` (digest-taint), `roots`/`root_traits`
//!   (panic-reachability);
//! * `[streams.<name>]` tables declaring the RNG stream-salt registry for
//!   R6 (`salt`/`salts`, `consts`, `owners`);
//! * `[[allow]]` entries with `rule`/`path`/`reason` strings.
//!
//! Values (arrays in particular) may span multiple lines: the parser joins
//! physical lines until brackets balance, so `[[allow]]` entries and long
//! crate lists can be formatted one element per line. `#` comments are
//! stripped anywhere outside strings.

use crate::lexer::normalize_literal;
use crate::rules::RuleId;
use std::collections::BTreeMap;

/// Where a rule applies. A file is in scope when its workspace-relative
/// path either lives under `crates/<c>/` for a listed crate `c`, or starts
/// with one of the listed path prefixes. An empty scope means "nowhere".
#[derive(Debug, Default, Clone)]
pub struct RuleScope {
    pub crates: Vec<String>,
    pub paths: Vec<String>,
}

impl RuleScope {
    pub fn covers(&self, rel_path: &str) -> bool {
        self.crates.iter().any(|c| {
            rel_path.strip_prefix("crates/").is_some_and(|r| {
                r.strip_prefix(c.as_str())
                    .is_some_and(|r| r.starts_with('/'))
            })
        }) || self.paths.iter().any(|p| rel_path.starts_with(p.as_str()))
    }

    /// Scope matching every file — used by the fixture tests.
    pub fn everywhere() -> Self {
        Self {
            crates: Vec::new(),
            paths: vec![String::new()],
        }
    }
}

/// One entry of the RNG stream-salt registry (rule R6). A stream is named
/// (`engine`, `fault`, …), carries the salt(s) that seed it — as normalized
/// numeric literals and/or the `const` identifiers holding them — and the
/// source files that *own* it. The salt may only be mentioned inside owner
/// files, and every `seed_from_u64` inside R6's scope must use a registered
/// salt (or carry a justifying pragma for derived child streams).
#[derive(Debug, Default, Clone)]
pub struct StreamDef {
    pub name: String,
    /// Normalized literal forms (lower-case, `_`-stripped), e.g.
    /// `0xfa170b5e55edc0de`.
    pub salts: Vec<String>,
    /// Identifier forms, e.g. `FAULT_STREAM_SALT`.
    pub consts: Vec<String>,
    /// Path prefixes of the owning files.
    pub owners: Vec<String>,
}

impl StreamDef {
    pub fn owns(&self, rel_path: &str) -> bool {
        self.owners.iter().any(|o| rel_path.starts_with(o.as_str()))
    }
}

/// A committed file-level suppression.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: RuleId,
    pub path: String,
    pub reason: String,
}

#[derive(Debug, Default)]
pub struct LintConfig {
    pub scopes: BTreeMap<RuleId, RuleScope>,
    pub allows: Vec<AllowEntry>,
    /// R6 stream-salt registry, in declaration order.
    pub streams: Vec<StreamDef>,
    /// R3 digest/event-ordering sink patterns (`Fnv64::*`, `EventKey::cmp`,
    /// bare fn names). Functions these sinks (transitively) call are the
    /// digest path; float/clock/RandomState taint inside it is flagged.
    pub taint_sinks: Vec<String>,
    /// R4 reachability roots as `Type::fn` patterns (`Simulation::run`).
    pub panic_roots: Vec<String>,
    /// R4 reachability root traits: every method of every impl of these
    /// traits (plus trait default bodies) is a root (`Protocol`).
    pub panic_root_traits: Vec<String>,
}

impl LintConfig {
    pub fn scope(&self, rule: RuleId) -> Option<&RuleScope> {
        self.scopes.get(&rule)
    }

    /// Is `rule` switched off for this whole file by a `[[allow]]` entry?
    pub fn file_allowed(&self, rule: RuleId, rel_path: &str) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && a.path == rel_path)
    }

    /// The stream owning `rel_path`, if any.
    pub fn stream_of(&self, rel_path: &str) -> Option<&StreamDef> {
        self.streams.iter().find(|s| s.owns(rel_path))
    }

    /// Which stream a token mentions: `ident` matches registered const
    /// names, `literal` (already normalized by the lexer) matches salts.
    pub fn stream_of_salt(&self, ident: Option<&str>, literal: Option<&str>) -> Option<&StreamDef> {
        self.streams.iter().find(|s| {
            ident.is_some_and(|id| s.consts.iter().any(|c| c == id))
                || literal.is_some_and(|l| s.salts.iter().any(|sl| sl == l))
        })
    }

    /// Parse `lint.toml` text. Returns `Err` with a message naming the
    /// offending line for anything outside the understood subset.
    pub fn parse(text: &str) -> Result<Self, String> {
        enum Target {
            None,
            Rule(RuleId),
            Stream(usize),
            Allow,
        }
        let mut cfg = LintConfig::default();
        let mut target = Target::None;
        for (lineno, line) in logical_lines(text)? {
            let err = |msg: &str| format!("lint.toml:{lineno}: {msg}");
            if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                if header.trim() != "allow" {
                    return Err(err("only [[allow]] array tables are supported"));
                }
                cfg.allows.push(AllowEntry {
                    rule: RuleId::R1,
                    path: String::new(),
                    reason: String::new(),
                });
                target = Target::Allow;
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let header = header.trim();
                if let Some(name) = header.strip_prefix("rules.") {
                    let id =
                        RuleId::from_alias(name.trim()).ok_or_else(|| err("unknown rule name"))?;
                    cfg.scopes.entry(id).or_default();
                    target = Target::Rule(id);
                } else if let Some(name) = header.strip_prefix("streams.") {
                    cfg.streams.push(StreamDef {
                        name: name.trim().to_string(),
                        ..StreamDef::default()
                    });
                    target = Target::Stream(cfg.streams.len() - 1);
                } else {
                    return Err(err("expected [rules.<name>] or [streams.<name>]"));
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err("expected key = value"))?;
            let (key, value) = (key.trim(), value.trim());
            match &target {
                Target::None => return Err(err("key outside any table")),
                Target::Rule(id) => {
                    let id = *id;
                    match key {
                        "crates" => {
                            cfg.scopes.entry(id).or_default().crates =
                                parse_string_array(value).map_err(&err)?;
                        }
                        "paths" => {
                            cfg.scopes.entry(id).or_default().paths =
                                parse_string_array(value).map_err(&err)?;
                        }
                        "sinks" if id == RuleId::R3 => {
                            cfg.taint_sinks = parse_string_array(value).map_err(&err)?;
                        }
                        "roots" if id == RuleId::R4 => {
                            cfg.panic_roots = parse_string_array(value).map_err(&err)?;
                        }
                        "root_traits" if id == RuleId::R4 => {
                            cfg.panic_root_traits = parse_string_array(value).map_err(&err)?;
                        }
                        _ => {
                            return Err(err(
                                "unknown rule key (want crates/paths, digest_taint sinks, \
                                 panic_reachability roots/root_traits)",
                            ))
                        }
                    }
                }
                Target::Stream(ix) => {
                    let stream = &mut cfg.streams[*ix];
                    match key {
                        "salt" => stream
                            .salts
                            .push(normalize_literal(&parse_string(value).map_err(&err)?)),
                        "salts" => {
                            stream.salts = parse_string_array(value)
                                .map_err(&err)?
                                .iter()
                                .map(|s| normalize_literal(s))
                                .collect();
                        }
                        "consts" => stream.consts = parse_string_array(value).map_err(&err)?,
                        "owners" => stream.owners = parse_string_array(value).map_err(&err)?,
                        _ => return Err(err("unknown stream key (want salt/salts/consts/owners)")),
                    }
                }
                Target::Allow => {
                    let entry = cfg.allows.last_mut().ok_or_else(|| err("internal"))?;
                    let s = parse_string(value).map_err(&err)?;
                    match key {
                        "rule" => {
                            entry.rule =
                                RuleId::from_alias(&s).ok_or_else(|| err("unknown rule name"))?;
                        }
                        "path" => entry.path = s,
                        "reason" => entry.reason = s,
                        _ => return Err(err("unknown allow key (want rule/path/reason)")),
                    }
                }
            }
        }
        for a in &cfg.allows {
            if a.path.is_empty() || a.reason.is_empty() {
                return Err("lint.toml: every [[allow]] needs path and a non-empty reason".into());
            }
        }
        for s in &cfg.streams {
            if s.owners.is_empty() || (s.salts.is_empty() && s.consts.is_empty()) {
                return Err(format!(
                    "lint.toml: stream `{}` needs owners and at least one salt/const",
                    s.name
                ));
            }
        }
        Ok(cfg)
    }
}

/// Join physical lines into logical `(first_line_no, text)` statements:
/// a statement continues while `[`…`]` brackets are unbalanced (array
/// values spanning lines). Comments are stripped and quotes respected.
fn logical_lines(text: &str) -> Result<Vec<(usize, String)>, String> {
    let mut out = Vec::new();
    let mut buf = String::new();
    let mut start = 0usize;
    let mut depth = 0i32;
    for (idx, raw) in text.lines().enumerate() {
        let stripped = strip_comment(raw).trim();
        if stripped.is_empty() {
            continue;
        }
        if buf.is_empty() {
            start = idx + 1;
        } else {
            buf.push(' ');
        }
        buf.push_str(stripped);
        depth += bracket_delta(stripped);
        if depth < 0 {
            return Err(format!("lint.toml:{}: unbalanced `]`", idx + 1));
        }
        if depth == 0 {
            // A table header `[x]` / `[[x]]` is balanced on its own line and
            // must not absorb following keys — flush per balanced statement.
            out.push((start, std::mem::take(&mut buf)));
        }
    }
    if depth != 0 {
        return Err(format!(
            "lint.toml:{start}: unterminated `[` (array value never closed)"
        ));
    }
    Ok(out)
}

/// Net `[`/`]` count outside double-quoted strings.
fn bracket_delta(line: &str) -> i32 {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in line.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// Strip a `#` comment, respecting `"…"` quoting.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str) -> Result<String, &'static str> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or("expected a double-quoted string")
}

fn parse_string_array(value: &str) -> Result<Vec<String>, &'static str> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or("expected a [\"…\", …] array")?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_real_shape() {
        let cfg = LintConfig::parse(
            r#"
            # comment
            [rules.det_collections]
            crates = ["asap-sim", "asap-core"]  # trailing comment

            [rules.digest_taint]
            paths = ["crates/asap-sim/src"]
            sinks = ["Fnv64::*", "EventKey::cmp"]

            [rules.panic_reachability]
            roots = ["Simulation::run"]
            root_traits = ["Protocol"]

            [streams.fault]
            salt = "0xFA17_0B5E_55ED_C0DE"
            consts = ["FAULT_STREAM_SALT"]
            owners = ["crates/asap-sim/src/fault.rs"]

            [[allow]]
            rule = "digest_taint"
            path = "crates/asap-metrics/src/summary.rs"
            reason = "presentation layer"
            "#,
        )
        .expect("parses");
        let r1 = cfg.scope(RuleId::R1).expect("configured");
        assert!(r1.covers("crates/asap-sim/src/util.rs"));
        assert!(
            !r1.covers("crates/asap-simx/src/util.rs"),
            "no prefix bleed"
        );
        assert!(!r1.covers("crates/asap-metrics/src/load.rs"));
        let r3 = cfg.scope(RuleId::R3).expect("configured");
        assert!(r3.covers("crates/asap-sim/src/event.rs"));
        assert!(!r3.covers("crates/asap-sim/tests/x.rs"));
        assert!(cfg.file_allowed(RuleId::R3, "crates/asap-metrics/src/summary.rs"));
        assert!(!cfg.file_allowed(RuleId::R1, "crates/asap-metrics/src/summary.rs"));
        assert_eq!(cfg.taint_sinks, vec!["Fnv64::*", "EventKey::cmp"]);
        assert_eq!(cfg.panic_roots, vec!["Simulation::run"]);
        assert_eq!(cfg.panic_root_traits, vec!["Protocol"]);
        let fault = &cfg.streams[0];
        assert_eq!(fault.name, "fault");
        assert_eq!(fault.salts, vec!["0xfa170b5e55edc0de"], "salt normalized");
        assert!(fault.owns("crates/asap-sim/src/fault.rs"));
        assert!(cfg
            .stream_of_salt(Some("FAULT_STREAM_SALT"), None)
            .is_some());
        assert!(cfg
            .stream_of_salt(None, Some("0xfa170b5e55edc0de"))
            .is_some());
    }

    #[test]
    fn arrays_and_allow_entries_span_lines() {
        let cfg = LintConfig::parse(
            r#"
            [rules.det_collections]
            crates = [
                "asap-sim",   # one per line
                "asap-core",
                "asap-search",
            ]

            [[allow]]
            rule = "det_collections"
            path = "crates/asap-overlay/src/collections.rs"
            reason = "defines the deterministic aliases"

            [streams.adversary]
            salts = [
                "0xBAD5_EED5_0DD0_5A17",
            ]
            owners = [
                "crates/asap-sim/src/adversary.rs",
            ]
            "#,
        )
        .expect("multi-line arrays parse");
        let r1 = cfg.scope(RuleId::R1).expect("configured");
        assert_eq!(r1.crates.len(), 3);
        assert!(r1.covers("crates/asap-search/src/lib.rs"));
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.streams[0].salts, vec!["0xbad5eed50dd05a17"]);
    }

    #[test]
    fn rejects_unknown_rules_and_reasonless_allows() {
        assert!(LintConfig::parse("[rules.nonsense]\n").is_err());
        assert!(LintConfig::parse("[[allow]]\nrule = \"unwrap\"\npath = \"x.rs\"\n").is_err());
        assert!(LintConfig::parse("stray = \"value\"\n").is_err());
        assert!(
            LintConfig::parse("[streams.x]\nsalt = \"0x1\"\n").is_err(),
            "stream without owners rejected"
        );
        assert!(
            LintConfig::parse("[rules.det_collections]\ncrates = [\"a\",\n").is_err(),
            "unterminated array rejected"
        );
    }
}
