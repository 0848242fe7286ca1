//! Fixture-driven rule tests: each fixture under `tests/fixtures/` carries
//! known violations, and we assert the exact rule IDs and line numbers the
//! linter reports — not just counts — so span regressions fail loudly.

use asap_lint::{lint_source, LintConfig, RuleScope, ALL_RULES};

/// Config with every rule in scope for every path (fixtures bypass
/// `lint.toml` scoping so they exercise the rules themselves). R4 roots
/// mirror the workspace config so `impl Protocol` fixtures are reachable.
fn everywhere() -> LintConfig {
    let mut cfg = LintConfig::default();
    for rule in ALL_RULES {
        cfg.scopes.insert(rule, RuleScope::everywhere());
    }
    cfg.panic_roots = vec!["Simulation::run".to_string()];
    cfg.panic_root_traits = vec!["Protocol".to_string()];
    cfg
}

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).expect("fixture readable")
}

/// `(rule_id, line)` pairs for a fixture, in report order.
fn findings(name: &str) -> Vec<(String, u32)> {
    lint_source(name, &fixture(name), &everywhere())
        .into_iter()
        .map(|d| (d.rule_id.to_string(), d.line))
        .collect()
}

fn lines_for(name: &str, rule_id: &str) -> Vec<u32> {
    findings(name)
        .into_iter()
        .filter(|(r, _)| r == rule_id)
        .map(|(_, l)| l)
        .collect()
}

#[test]
fn r1_flags_every_hashmap_and_hashset_mention() {
    assert_eq!(lines_for("r1_hashmap.rs", "R1"), vec![3, 4, 6, 7, 8, 8]);
    // Nothing else fires on this fixture.
    assert_eq!(findings("r1_hashmap.rs").len(), 6);
}

#[test]
fn r2_flags_clocks_and_entropy() {
    assert_eq!(lines_for("r2_entropy.rs", "R2"), vec![4, 5, 11]);
}

#[test]
fn r3_flags_float_types_and_literals() {
    assert_eq!(lines_for("r3_float.rs", "R3"), vec![3, 4, 5, 5, 6]);
}

#[test]
fn r4_flags_unwrap_and_expect_in_protocol_impls() {
    // The fixture's panicking fn is an `impl Protocol` method, which the
    // `panic_root_traits` config makes a reachability root.
    assert_eq!(lines_for("r4_unwrap.rs", "R4"), vec![7, 8]);
}

#[test]
fn r5_flags_release_asserts_only() {
    // assert!/assert_eq! at 4/5 and panic!/unreachable! at 9/10 fire; the
    // debug_assert* family (6/7), the pragma-suppressed assert_ne! (14),
    // and the #[cfg(test)] assert are exempt.
    assert_eq!(lines_for("r5_release_assert.rs", "R5"), vec![4, 5, 9, 10]);
    assert_eq!(findings("r5_release_assert.rs").len(), 4);
}

#[test]
fn pragmas_suppress_in_both_positions() {
    assert_eq!(
        findings("pragma_ok.rs"),
        Vec::<(String, u32)>::new(),
        "own-line and same-line pragmas with reasons must fully suppress"
    );
}

#[test]
fn bad_pragmas_error_and_do_not_suppress() {
    // Line 8: reason-less pragma; line 13: unknown rule id. Both are P0
    // hard errors, and neither suppresses the unwrap on the next line.
    let got = findings("bad_pragma.rs");
    assert_eq!(
        got,
        vec![
            ("P0".to_string(), 8),
            ("R4".to_string(), 9),
            ("P0".to_string(), 13),
            ("R4".to_string(), 14),
        ],
        "each pragma is a hard error AND the unwraps still fire"
    );
}

#[test]
fn clean_fixture_is_clean() {
    assert_eq!(findings("clean.rs"), Vec::<(String, u32)>::new());
}

#[test]
fn cfg_test_exempts_r3_r4_but_not_r1() {
    assert_eq!(lines_for("cfg_test_exempt.rs", "R3"), Vec::<u32>::new());
    assert_eq!(lines_for("cfg_test_exempt.rs", "R4"), Vec::<u32>::new());
    assert_eq!(lines_for("cfg_test_exempt.rs", "R1"), vec![18]);
}

#[test]
fn scoping_gates_rules_per_file() {
    // Same source, but a config whose R4 scope does not cover the path.
    let mut cfg = LintConfig::default();
    cfg.scopes
        .insert(asap_lint::RuleId::R4, RuleScope::default());
    let diags = lint_source("r4_unwrap.rs", &fixture("r4_unwrap.rs"), &cfg);
    assert!(
        diags.is_empty(),
        "out-of-scope files produce no diagnostics"
    );
}

#[test]
fn workspace_config_keeps_fault_layer_in_scope() {
    // The fault-injection layer is replay state: its decisions feed the
    // pinned golden digests, so it must stay inside R2 (no ambient
    // entropy — all randomness from the dedicated seeded stream) and R3
    // (integer-only ppm probabilities and µs jitter), with no [[allow]]
    // escape hatch.
    let toml = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint.toml"),
    )
    .expect("workspace lint.toml readable");
    let cfg = LintConfig::parse(&toml).expect("workspace lint.toml parses");
    let fault = "crates/asap-sim/src/fault.rs";
    for rule in [asap_lint::RuleId::R2, asap_lint::RuleId::R3] {
        let scope = cfg.scope(rule).expect("rule configured");
        assert!(scope.covers(fault), "{rule:?} must cover {fault}");
        assert!(
            !cfg.file_allowed(rule, fault),
            "{rule:?} must not be allowed-off for {fault}"
        );
    }
}

#[test]
fn workspace_config_scopes_r5_to_dispatch_files() {
    // R5 pins the no-release-assert policy to the per-event dispatch files
    // (hot paths), while protocol constructors stay free to reject bad
    // configs with release asserts.
    let toml = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint.toml"),
    )
    .expect("workspace lint.toml readable");
    let cfg = LintConfig::parse(&toml).expect("workspace lint.toml parses");
    let scope = cfg.scope(asap_lint::RuleId::R5).expect("R5 configured");
    for covered in [
        "crates/asap-topology/src/latency.rs",
        "crates/asap-sim/src/engine.rs",
        "crates/asap-sim/src/event.rs",
        "crates/asap-sim/src/fault.rs",
        "crates/asap-core/src/delivery.rs",
        "crates/asap-core/src/protocol.rs",
    ] {
        assert!(scope.covers(covered), "R5 must cover {covered}");
        assert!(!cfg.file_allowed(asap_lint::RuleId::R5, covered));
    }
    // Constructors outside the dispatch files are intentionally out of scope.
    assert!(!scope.covers("crates/asap-search/src/gsa.rs"));
    assert!(!scope.covers("crates/asap-search/src/flooding.rs"));
}

#[test]
fn diagnostics_render_with_span_and_caret() {
    let src = fixture("r4_unwrap.rs");
    let diags = lint_source("crates/x/src/lib.rs", &src, &everywhere());
    let annotation = diags[0].github_annotation();
    assert!(
        annotation.starts_with("::error file=crates/x/src/lib.rs,line=7,col="),
        "workflow-command annotation well-formed: {annotation}"
    );
    let rendered = diags[0].render(Some(&src));
    assert!(
        rendered.contains("error[R4/panic-reachability]"),
        "{rendered}"
    );
    assert!(
        rendered.contains("--> crates/x/src/lib.rs:7:"),
        "{rendered}"
    );
    assert!(
        rendered.contains("^^^^^^"),
        "caret line present: {rendered}"
    );
    assert!(rendered.contains("= note: reachable via"), "{rendered}");
    assert!(rendered.contains("= help:"), "{rendered}");
}
