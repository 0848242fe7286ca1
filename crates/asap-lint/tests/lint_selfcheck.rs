//! Call-graph self-check: pins the per-crate function and edge counts the
//! analyzer extracts from the real workspace. A drop here means the syntax
//! layer stopped seeing code (a lexer/parser regression silently shrinking
//! every interprocedural rule's reach); a jump means resolution got noisier.
//!
//! When a legitimate code change shifts the numbers, re-pin from:
//! `cargo lint --format json | python3 -m json.tool` (the `graph` object).

use std::collections::BTreeMap;
use std::path::Path;

use asap_lint::{lint_workspace, LintConfig};

/// `(crate, functions, edges)` as of this commit.
const PINNED: &[(&str, usize, usize)] = &[
    ("asap-bench", 145, 1105),
    ("asap-bloom", 61, 108),
    ("asap-core", 143, 1698),
    ("asap-lint", 93, 200),
    ("asap-metrics", 71, 53),
    ("asap-net", 38, 284),
    ("asap-overlay", 109, 187),
    ("asap-search", 36, 168),
    ("asap-sim", 226, 1097),
    ("asap-topology", 49, 82),
    ("asap-trace", 39, 63),
    ("asap-workload", 95, 348),
    ("xtask", 7, 6),
];

#[test]
fn call_graph_shape_matches_pinned_counts() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives at <root>/crates/asap-lint");
    let cfg_text =
        std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml at workspace root");
    let cfg = LintConfig::parse(&cfg_text).expect("committed lint.toml parses");
    let report = lint_workspace(root, &cfg).expect("workspace walk succeeds");

    let expected: BTreeMap<String, (usize, usize)> = PINNED
        .iter()
        .map(|&(k, f, e)| (k.to_string(), (f, e)))
        .collect();
    let actual = &report.graph_summary;
    if *actual != expected {
        let fmt = |m: &BTreeMap<String, (usize, usize)>| {
            m.iter()
                .map(|(k, (f, e))| format!("    (\"{k}\", {f}, {e}),"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        panic!(
            "call-graph shape drifted from the pins.\n\
             expected:\n{}\nactual (paste into PINNED if intentional):\n{}",
            fmt(&expected),
            fmt(actual)
        );
    }

    // Global sanity floors: the graph must stay *connected enough* to power
    // reachability rules, independent of exact pins.
    let fns: usize = actual.values().map(|(f, _)| f).sum();
    let edges: usize = actual.values().map(|(_, e)| e).sum();
    assert!(fns > 500, "only {fns} functions — syntax layer regression?");
    assert!(
        edges > fns,
        "only {edges} edges for {fns} fns — resolution broke?"
    );
}
