//! The interprocedural pass: evaluates the call-graph rules (R4
//! panic-reachability, R3 digest-taint, R6 rng-stream-discipline) over a
//! set of lexed+parsed files and the [`CallGraph`] built from them. The
//! token-level site detectors live in [`crate::rules`]; this module decides
//! which sites are violations by reachability, and attaches the
//! interprocedural context (example call paths, owning streams) that makes
//! the diagnostics actionable.

use crate::callgraph::{self, CallGraph, CrateDeps};
use crate::config::LintConfig;
use crate::lexer::{self, LexOutput};
use crate::rules::{self, RuleId, Violation};
use crate::syntax::{self, Call, FileSyntax};
use std::collections::BTreeMap;

/// One source file, lexed and parsed — the unit the analyses share.
pub struct FileData {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    pub source: String,
    pub lexed: LexOutput,
    pub in_test: Vec<bool>,
    pub syntax: FileSyntax,
}

/// Lex, test-mark, and item-parse one file.
pub fn load(rel: String, source: String) -> FileData {
    let lexed = lexer::lex(&source);
    let in_test = lexer::mark_test_regions(&lexed.tokens);
    let syntax = syntax::parse(&lexed.tokens, &in_test);
    FileData {
        rel,
        source,
        lexed,
        in_test,
        syntax,
    }
}

/// Build the workspace call graph over the loaded files.
pub fn build_graph(files: &[FileData], deps: Option<&CrateDeps>) -> CallGraph {
    let units: Vec<(String, &FileSyntax, Vec<Vec<Call>>)> = files
        .iter()
        .map(|f| {
            let calls = f
                .syntax
                .fns
                .iter()
                .map(|d| syntax::calls_in(&f.lexed.tokens, d.body))
                .collect();
            (f.rel.clone(), &f.syntax, calls)
        })
        .collect();
    CallGraph::build(&units, deps)
}

/// Run every graph rule whose table is present in `cfg`. Returns
/// `(file_index, violation)` pairs, unsuppressed — pragma filtering happens
/// in [`crate::lint_unit`] where the per-file pragma targets live.
pub fn graph_violations(
    files: &[FileData],
    graph: &CallGraph,
    cfg: &LintConfig,
) -> Vec<(usize, Violation)> {
    let by_path: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(ix, f)| (f.rel.as_str(), ix))
        .collect();
    let mut out = Vec::new();
    panic_reachability(files, graph, cfg, &by_path, &mut out);
    digest_taint(files, graph, cfg, &by_path, &mut out);
    stream_discipline(files, graph, cfg, &mut out);
    out
}

/// The R4 root set: nodes matching `roots` plus every method of every impl
/// of a `root_traits` trait, sorted and deduplicated.
pub fn panic_roots(graph: &CallGraph, cfg: &LintConfig) -> Vec<usize> {
    let mut roots: Vec<usize> = Vec::new();
    for p in &cfg.panic_roots {
        roots.extend(graph.match_pattern(p));
    }
    for t in &cfg.panic_root_traits {
        roots.extend(graph.trait_impl_methods(t));
    }
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// R4: `unwrap`/`expect` in any function reachable from the configured
/// roots (`Simulation::run`) or any implementation of a root trait
/// (`Protocol`). Unlike the old path-scoped check this follows calls across
/// files and crates, so a helper in `asap-bloom` that the engine reaches is
/// flagged even though `asap-bloom` never appears in a `paths` list.
fn panic_reachability(
    files: &[FileData],
    graph: &CallGraph,
    cfg: &LintConfig,
    by_path: &BTreeMap<&str, usize>,
    out: &mut Vec<(usize, Violation)>,
) {
    if cfg.scope(RuleId::R4).is_none() {
        return;
    }
    let roots = panic_roots(graph, cfg);
    if roots.is_empty() {
        return;
    }
    let seen = graph.reach(&roots, |_| false);
    for (ix, node) in graph.nodes.iter().enumerate() {
        if !seen[ix] || cfg.file_allowed(RuleId::R4, &node.file) {
            continue;
        }
        let Some(&fix) = by_path.get(node.file.as_str()) else {
            continue;
        };
        let f = &files[fix];
        let sites = rules::panic_sites(&f.lexed, &f.in_test, node.def.body);
        if sites.is_empty() {
            continue;
        }
        let note = graph
            .example_path(&roots, ix)
            .map(|p| format!("reachable via {}", p.join(" → ")));
        for mut v in sites {
            v.note.clone_from(&note);
            out.push((fix, v));
        }
    }
}

/// R3 (interprocedural face): any function *reachable from* a digest or
/// event-ordering sink — i.e. anything the digest computation transitively
/// calls, across crate boundaries — may not contain floats, wall clocks,
/// or RandomState. Files already covered by R3's direct `paths` scope are
/// skipped (the token check reports every float there); the taint pass
/// extends coverage to the helpers those files call in crates the `paths`
/// list never mentions (asap-overlay graph queries under `check_overlay`,
/// asap-bloom filter reads under the digest, …). `[[allow]]` entries do
/// not apply here: an allowlisted float module must never become a digest
/// callee.
fn digest_taint(
    files: &[FileData],
    graph: &CallGraph,
    cfg: &LintConfig,
    by_path: &BTreeMap<&str, usize>,
    out: &mut Vec<(usize, Violation)>,
) {
    let Some(direct_scope) = cfg.scope(RuleId::R3) else {
        return;
    };
    let mut sinks: Vec<usize> = Vec::new();
    for p in &cfg.taint_sinks {
        sinks.extend(graph.match_pattern(p));
    }
    sinks.sort_unstable();
    sinks.dedup();
    if sinks.is_empty() {
        return;
    }
    // The digest path: the sinks plus everything they transitively call.
    let fwd = graph.reach(&sinks, |_| false);
    let is_sink = |ix: usize| sinks.binary_search(&ix).is_ok();
    for (ix, node) in graph.nodes.iter().enumerate() {
        if !fwd[ix] || direct_scope.covers(&node.file) {
            continue;
        }
        let Some(&fix) = by_path.get(node.file.as_str()) else {
            continue;
        };
        let f = &files[fix];
        let sites = rules::taint_sites(&f.lexed, &f.in_test, node.def.body);
        if sites.is_empty() {
            continue;
        }
        let note = if is_sink(ix) {
            Some(format!(
                "`{}` is a configured digest sink",
                node.def.qual_name()
            ))
        } else {
            graph
                .example_path(&sinks, ix)
                .map(|p| format!("on the digest path via {}", p.join(" → ")))
        };
        for mut v in sites {
            v.note.clone_from(&note);
            out.push((fix, v));
        }
    }
}

/// R6: the per-file registry checks from [`rules::check_streams`] over
/// every production file in scope, with unsalted-seed findings annotated by
/// the subsystem stream(s) whose owner functions reach the offending
/// function (boundary-stopped: a stream's closure does not extend through
/// another stream's owner files).
fn stream_discipline(
    files: &[FileData],
    graph: &CallGraph,
    cfg: &LintConfig,
    out: &mut Vec<(usize, Violation)>,
) {
    let Some(scope) = cfg.scope(RuleId::R6) else {
        return;
    };
    // Per-stream boundary-stopped reachability.
    let owned_by_other =
        |stream: &str, file: &str| cfg.stream_of(file).is_some_and(|s| s.name != stream);
    let stream_reach: Vec<(&str, Vec<bool>)> = cfg
        .streams
        .iter()
        .map(|s| {
            let roots: Vec<usize> = graph
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| s.owns(&n.file))
                .map(|(ix, _)| ix)
                .collect();
            let seen = graph.reach(&roots, |n| owned_by_other(&s.name, &graph.nodes[n].file));
            (s.name.as_str(), seen)
        })
        .collect();
    for (fix, f) in files.iter().enumerate() {
        if !scope.covers(&f.rel)
            || !callgraph::is_production_path(&f.rel)
            || cfg.file_allowed(RuleId::R6, &f.rel)
        {
            continue;
        }
        for mut v in rules::check_streams(&f.lexed, &f.in_test, &f.rel, cfg) {
            if v.note.is_none() {
                // Unsalted seed: name the subsystem(s) this function serves.
                if let Some(node) = enclosing_node(graph, &f.rel, &f.lexed, v.line, v.col) {
                    let reaching: Vec<&str> = stream_reach
                        .iter()
                        .filter(|(name, seen)| {
                            seen[node] && cfg.stream_of(&f.rel).is_none_or(|s| s.name != *name)
                        })
                        .map(|(name, _)| *name)
                        .collect();
                    if !reaching.is_empty() {
                        v.note = Some(format!(
                            "on a call path from stream(s): {}",
                            reaching.join(", ")
                        ));
                    }
                }
            }
            out.push((fix, v));
        }
    }
}

/// The graph node whose body contains the token at `(line, col)` in `rel`.
fn enclosing_node(
    graph: &CallGraph,
    rel: &str,
    lexed: &LexOutput,
    line: u32,
    col: u32,
) -> Option<usize> {
    let tok_ix = lexed
        .tokens
        .iter()
        .position(|t| t.line == line && t.col == col)?;
    graph
        .nodes
        .iter()
        .position(|n| n.file == rel && n.def.body.0 <= tok_ix && tok_ix < n.def.body.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(files: &[(&str, &str)], toml: &str) -> (Vec<FileData>, CallGraph, LintConfig) {
        let cfg = LintConfig::parse(toml).expect("config parses");
        let data: Vec<FileData> = files
            .iter()
            .map(|(p, s)| load(p.to_string(), s.to_string()))
            .collect();
        let graph = build_graph(&data, None);
        (data, graph, cfg)
    }

    #[test]
    fn panic_reachability_crosses_files() {
        let (files, graph, cfg) = unit(
            &[
                (
                    "a.rs",
                    "pub struct Sim; impl Sim { pub fn run(&mut self) { helper(); } }",
                ),
                (
                    "b.rs",
                    "pub fn helper() { maybe().unwrap(); }\nfn maybe() -> Option<u32> { None }",
                ),
                (
                    "c.rs",
                    "pub fn island() { nothing().unwrap(); }\nfn nothing() -> Option<u32> { None }",
                ),
            ],
            "[rules.panic_reachability]\nroots = [\"Sim::run\"]\n",
        );
        let v = graph_violations(&files, &graph, &cfg);
        assert_eq!(v.len(), 1, "only the reachable unwrap: {v:?}");
        assert_eq!(files[v[0].0].rel, "b.rs");
        assert_eq!(v[0].1.rule, RuleId::R4);
        let note = v[0].1.note.as_deref().expect("has a path note");
        assert!(note.contains("Sim::run"), "note names the root: {note}");
    }

    #[test]
    fn digest_taint_covers_the_sink_callee_closure() {
        let (files, graph, cfg) = unit(
            &[
                (
                    "digest.rs",
                    "pub struct Fnv64; impl Fnv64 { pub fn write(&mut self, b: u64) { mix(b) } }",
                ),
                ("mixer.rs", "pub fn mix(b: u64) { let _scale = 0.5; }"),
                ("far.rs", "pub fn unrelated() { let _x = 1.25; }"),
            ],
            "[rules.digest_taint]\npaths = [\"never/\"]\nsinks = [\"Fnv64::*\"]\n",
        );
        let v = graph_violations(&files, &graph, &cfg);
        let flagged: Vec<&str> = v.iter().map(|(fix, _)| files[*fix].rel.as_str()).collect();
        assert_eq!(
            flagged,
            vec!["mixer.rs"],
            "sink callee flagged, off-path float ignored"
        );
        let note = v[0].1.note.as_deref().expect("has a path note");
        assert!(note.contains("Fnv64::write"), "note names the sink: {note}");
    }

    #[test]
    fn stream_notes_name_the_reaching_subsystem() {
        let (files, graph, cfg) = unit(
            &[
                (
                    "crates/asap-sim/src/fault.rs",
                    "pub fn fault_tick() { reseed(7); }",
                ),
                (
                    "crates/asap-sim/src/util.rs",
                    "pub fn reseed(s: u64) { let _r = SmallRng::seed_from_u64(s); }",
                ),
            ],
            "[rules.rng_stream_discipline]\ncrates = [\"asap-sim\"]\n\
             [streams.fault]\nconsts = [\"FAULT_STREAM_SALT\"]\n\
             owners = [\"crates/asap-sim/src/fault.rs\"]\n",
        );
        let v = graph_violations(&files, &graph, &cfg);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].1.rule, RuleId::R6);
        let note = v[0].1.note.as_deref().expect("annotated");
        assert!(note.contains("fault"), "note names the stream: {note}");
    }
}
