//! Fixture tests for the interprocedural (call-graph) rules: R6 stream
//! discipline, R3v2 digest taint, and the cross-file R4 reachability class
//! the old lexer-only checker could not see. Configs are parsed from TOML
//! snippets so these also exercise the `lint.toml` parser end to end.

use asap_lint::{lint_source, lint_unit, LintConfig};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).expect("fixture readable")
}

fn findings(name: &str, toml: &str) -> Vec<(String, u32)> {
    let cfg = LintConfig::parse(toml).expect("test config parses");
    lint_source(name, &fixture(name), &cfg)
        .into_iter()
        .map(|d| (d.rule_id.to_string(), d.line))
        .collect()
}

/// R6 config: one stream whose salt const is owned by `alpha.rs` and the
/// clean fixture; the multi-line array exercises logical-line joining.
const R6_TOML: &str = "\
[rules.rng_stream_discipline]
paths = [
    \"\",
]

[streams.alpha]
consts = [\"ALPHA_STREAM_SALT\"]
owners = [
    \"alpha.rs\",
    \"r6_stream_ok.rs\",
]
";

#[test]
fn r6_flags_foreign_salts_and_unsalted_seeds() {
    // Line 7: ALPHA_STREAM_SALT referenced outside its owner files.
    // Line 11: seed_from_u64 with no registered salt in its arguments.
    assert_eq!(
        findings("r6_stream.rs", R6_TOML),
        vec![("R6".to_string(), 7), ("R6".to_string(), 11)]
    );
}

#[test]
fn r6_allows_owners_and_justified_derived_streams() {
    assert_eq!(
        findings("r6_stream_ok.rs", R6_TOML),
        Vec::<(String, u32)>::new(),
        "owner salt use is fine; the derived stream carries a pragma"
    );
}

/// R3 config: the fixture path is outside the direct `paths` scope, so any
/// finding comes from the taint pass over the sink's callee closure.
const TAINT_TOML: &str = "\
[rules.digest_taint]
paths = [\"elsewhere/\"]
sinks = [\"Digest::write_u64\"]
";

#[test]
fn r3_taint_flags_floats_in_the_sink_callee_closure() {
    // `widen` is called by the sink: both the `f64` cast and the `1.5`
    // literal on line 13 fire. `off_path` has floats but is unreachable
    // from the sink, so it stays clean.
    assert_eq!(
        findings("taint_sink.rs", TAINT_TOML),
        vec![("R3".to_string(), 13), ("R3".to_string(), 13)]
    );
}

#[test]
fn r3_taint_notes_name_the_digest_path() {
    let cfg = LintConfig::parse(TAINT_TOML).expect("test config parses");
    let diags = lint_source("taint_sink.rs", &fixture("taint_sink.rs"), &cfg);
    let note = diags[0].note.as_deref().expect("taint finding has a note");
    assert!(
        note.contains("Digest::write_u64"),
        "note names the sink: {note}"
    );
}

#[test]
fn r3_taint_respects_pragmas() {
    assert_eq!(
        findings("taint_sink_ok.rs", TAINT_TOML),
        Vec::<(String, u32)>::new()
    );
}

/// Regression for the false-negative class the lexer-only R4 had: the
/// panicking helper lives in a file no `paths` list ever named, and is a
/// violation only because a `Protocol` impl in *another* file reaches it.
#[test]
fn r4_crosses_files_from_protocol_impls() {
    let cfg = LintConfig::parse("[rules.panic_reachability]\nroot_traits = [\"Protocol\"]\n")
        .expect("test config parses");
    let out = lint_unit(
        vec![
            ("reach_entry.rs".to_string(), fixture("reach_entry.rs")),
            ("reach_helper.rs".to_string(), fixture("reach_helper.rs")),
        ],
        &cfg,
        None,
    );
    let got: Vec<(String, String, u32)> = out
        .diagnostics
        .iter()
        .map(|d| (d.path.clone(), d.rule_id.to_string(), d.line))
        .collect();
    assert_eq!(
        got,
        vec![("reach_helper.rs".to_string(), "R4".to_string(), 6)],
        "the reachable unwrap fires; `untouched` (line 10) does not"
    );
    let note = out.diagnostics[0].note.as_deref().expect("has a path note");
    assert!(
        note.contains("on_message") && note.contains("fetch_remote"),
        "note shows the call path from the Protocol impl: {note}"
    );
}
