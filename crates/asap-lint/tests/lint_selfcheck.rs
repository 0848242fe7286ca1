//! Call-graph self-check: the analyzer must extract a graph from the real
//! workspace that is big and connected enough to power the
//! interprocedural rules. A drop below the floors means the syntax layer
//! stopped seeing code (a lexer/parser regression silently shrinking every
//! interprocedural rule's reach) or resolution broke. What the graph must
//! reach is pinned by name in `lint_workspace.rs`.

use std::path::Path;

use asap_lint::{lint_workspace, LintConfig};

#[test]
fn call_graph_is_large_and_connected() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives at <root>/crates/asap-lint");
    let cfg_text =
        std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml at workspace root");
    let cfg = LintConfig::parse(&cfg_text).expect("committed lint.toml parses");
    let report = lint_workspace(root, &cfg).expect("workspace walk succeeds");
    let actual = &report.graph_summary;

    let fns: usize = actual.values().map(|(f, _)| f).sum();
    let edges: usize = actual.values().map(|(_, e)| e).sum();
    assert!(fns > 500, "only {fns} functions — syntax layer regression?");
    assert!(
        edges > fns,
        "only {edges} edges for {fns} fns — resolution broke?"
    );
}
