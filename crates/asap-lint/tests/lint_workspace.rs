//! The committed `lint.toml` applied to the real workspace must report
//! zero violations — this is the same invariant CI's `cargo lint` job
//! enforces, kept here so `cargo test` alone catches regressions.

use std::path::Path;

use asap_lint::{analysis, lint_workspace, lint_workspace_unit, LintConfig};

#[test]
fn workspace_is_lint_clean_under_committed_config() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives at <root>/crates/asap-lint");
    let cfg_text =
        std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml at workspace root");
    let cfg = LintConfig::parse(&cfg_text).expect("committed lint.toml parses");
    let report = lint_workspace(root, &cfg).expect("workspace walk succeeds");
    assert!(
        report.files_scanned > 40,
        "walker found only {} files — skip list too aggressive?",
        report.files_scanned
    );
    if !report.is_clean() {
        for rendered in &report.rendered {
            eprintln!("{rendered}");
        }
        panic!(
            "{} lint violation(s) in the workspace (see above)",
            report.diagnostics.len()
        );
    }
}

/// The wire decoder is reached only through the generic `C::unpack` in the
/// engine's dispatch, which name-based resolution cannot follow — it is in
/// R4's scope because `Carrier` is a root trait. If that ever stops being
/// true (trait renamed, root dropped, unpack no longer calling the
/// decoder) the decoder would silently leave panic-reachability; this pins
/// it inside, down to the interner lookup a filter-bearing frame goes
/// through (reached from `BloomFilter`'s `Codec` impl, a root as well) and
/// the public interner-less entry points (roots by name in `lint.toml`).
#[test]
fn wire_decoder_is_in_the_panic_reachable_set() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives at <root>/crates/asap-lint");
    let cfg_text =
        std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml at workspace root");
    let cfg = LintConfig::parse(&cfg_text).expect("committed lint.toml parses");
    let graph = lint_workspace_unit(root, &cfg)
        .expect("workspace walk succeeds")
        .graph;
    let seen = graph.reach(&analysis::panic_roots(&graph, &cfg), |_| false);
    for name in [
        "Framed::unpack",
        "decode_exact_sharing",
        "decode_sharing",
        "checksum",
        "BloomFilter::pull_shared",
        "intern_filter",
        "Interner::intern",
        "decode_frame_exact",
        "decode_frame",
    ] {
        let nodes = graph.match_pattern(name);
        assert!(!nodes.is_empty(), "`{name}` is gone from the call graph");
        assert!(
            nodes.iter().all(|&n| seen[n]),
            "`{name}` fell out of R4 panic-reachability"
        );
    }
}
