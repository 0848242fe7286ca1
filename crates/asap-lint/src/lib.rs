//! `asap-lint`: repo-specific determinism & safety static analysis.
//!
//! The ASAP evaluation is a deterministic trace-driven simulation whose
//! replay digests are pinned in `crates/asap-bench/golden/`. Those digests
//! catch nondeterminism only *after* it ships; this tool rejects it at
//! analysis time. Run as `cargo lint` (alias in `.cargo/config.toml`);
//! scoping lives in `lint.toml` at the workspace root.
//!
//! The analyzer works in two layers. A token layer (lexer + per-file
//! pattern checks) drives the local rules; a syntax layer
//! ([`syntax`] item extraction over the same tokens) feeds a
//! workspace-wide call graph ([`callgraph`]) that drives the
//! interprocedural rules ([`analysis`]). Rules:
//!
//! * **R1 `det-collections`** — no `std::collections::HashMap`/`HashSet`
//!   (RandomState-seeded) in simulation-facing crates; use the fixed-seed
//!   `DetHashMap`/`DetHashSet` aliases or `BTreeMap`/`BTreeSet`.
//! * **R2 `ambient-entropy`** — no `SystemTime`/`Instant`/`thread_rng`/
//!   `from_entropy` outside `asap-bench`.
//! * **R3 `digest-taint`** — no floats on the configured digest-path
//!   files, and *interprocedurally*: no floats/clocks/RandomState in any
//!   function reachable from a digest/event-ordering sink (`sinks` in
//!   `lint.toml`) — anything the digest computation calls, wherever it
//!   lives.
//! * **R4 `panic-reachability`** — no `unwrap()`/`expect()` in non-test
//!   code reachable (through the call graph, across crates) from
//!   `Simulation::run` or any `Protocol` implementation; justify survivors
//!   with `// lint: allow(panic-reachability, reason=…)`.
//! * **R5 `release-assert`** — no release-mode `assert!`/`assert_eq!`/
//!   `assert_ne!`/`panic!`/`unreachable!` in the per-event dispatch files;
//!   prove invariants at construction time and keep hot-path checks as
//!   `debug_assert!` (exempt by construction), or justify with
//!   `// lint: allow(release-assert, reason=…)`.
//! * **R6 `rng-stream-discipline`** — every subsystem draws only from its
//!   own salted RNG stream: registered salts (`[streams.*]` in
//!   `lint.toml`) may not appear outside their owner files, and every
//!   `seed_from_u64` must mix in a registered salt.
//!
//! Everything is deny-by-default: any violation (or broken pragma) makes
//! the binary exit nonzero. Pragma problems (`P0`) are reported for every
//! scanned file, even ones no rule is scoped to.

pub mod analysis;
pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod pragma;
pub mod rules;
pub mod syntax;

pub use config::{AllowEntry, LintConfig, RuleScope, StreamDef};
pub use rules::{RuleId, ALL_RULES};

use callgraph::CallGraph;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A rendered finding with its span and rule metadata.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub width: usize,
    /// `R1`…`R6`, or `P0` for pragma problems.
    pub rule_id: &'static str,
    pub rule_name: &'static str,
    pub summary: String,
    /// Interprocedural context: an example call path, the owning stream….
    pub note: Option<String>,
    pub help: Option<&'static str>,
}

impl Diagnostic {
    /// Render in rustc style, with the offending source line and a caret
    /// span when `source` is provided.
    pub fn render(&self, source: Option<&str>) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "error[{}/{}]: {}",
            self.rule_id, self.rule_name, self.summary
        );
        let _ = writeln!(out, "  --> {}:{}:{}", self.path, self.line, self.col);
        if let Some(text) = source.and_then(|s| s.lines().nth(self.line as usize - 1)) {
            let gutter = self.line.to_string();
            let pad = " ".repeat(gutter.len());
            let _ = writeln!(out, "{pad} |");
            let _ = writeln!(out, "{gutter} | {text}");
            let caret_pad = " ".repeat(self.col.saturating_sub(1) as usize);
            let carets = "^".repeat(self.width.max(1));
            let _ = writeln!(out, "{pad} | {caret_pad}{carets}");
        }
        if let Some(note) = &self.note {
            let _ = writeln!(out, "  = note: {note}");
        }
        if let Some(help) = self.help {
            let _ = writeln!(out, "  = help: {help}");
        }
        out
    }

    /// One-line GitHub Actions workflow command (`::error …::…`) so the CI
    /// lint job surfaces findings as inline PR annotations.
    pub fn github_annotation(&self) -> String {
        let mut message = self.summary.clone();
        if let Some(note) = &self.note {
            message.push_str(" — ");
            message.push_str(note);
        }
        format!(
            "::error file={},line={},col={},title={} {}::{}",
            gh_property(&self.path),
            self.line,
            self.col,
            self.rule_id,
            gh_property(self.rule_name),
            gh_message(&message),
        )
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"path\":{},\"line\":{},\"col\":{},\"rule_id\":{},\"rule\":{},\"summary\":{}",
            json_string(&self.path),
            self.line,
            self.col,
            json_string(self.rule_id),
            json_string(self.rule_name),
            json_string(&self.summary),
        );
        if let Some(note) = &self.note {
            let _ = write!(out, ",\"note\":{}", json_string(note));
        }
        if let Some(help) = self.help {
            let _ = write!(out, ",\"help\":{}", json_string(help));
        }
        out.push('}');
        out
    }
}

/// Escape a GitHub workflow-command message (data portion).
fn gh_message(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escape a GitHub workflow-command property (before the `::`).
fn gh_property(s: &str) -> String {
    gh_message(s).replace(':', "%3A").replace(',', "%2C")
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The full outcome of linting one unit (one file or the whole workspace):
/// diagnostics plus the call graph they were judged against.
pub struct UnitOutcome {
    pub files: Vec<analysis::FileData>,
    pub diagnostics: Vec<Diagnostic>,
    pub graph: CallGraph,
}

/// Lint a set of files as one unit: token rules per file, then the
/// interprocedural rules over the call graph built from *all* of them.
/// `deps` (the crate dependency closure) bounds cross-crate resolution;
/// `None` lets every name resolve everywhere (fixture units).
pub fn lint_unit(
    inputs: Vec<(String, String)>,
    cfg: &LintConfig,
    deps: Option<&callgraph::CrateDeps>,
) -> UnitOutcome {
    let files: Vec<analysis::FileData> = inputs
        .into_iter()
        .map(|(rel, source)| analysis::load(rel, source))
        .collect();
    let graph = analysis::build_graph(&files, deps);

    // (file index, violation) from both layers, then shared suppression.
    let mut violations: Vec<(usize, rules::Violation)> = Vec::new();
    for (fix, f) in files.iter().enumerate() {
        for rule in ALL_RULES {
            if cfg.scope(rule).is_some_and(|s| s.covers(&f.rel)) && !cfg.file_allowed(rule, &f.rel)
            {
                violations.extend(
                    rules::check(rule, &f.lexed, &f.in_test)
                        .into_iter()
                        .map(|v| (fix, v)),
                );
            }
        }
    }
    violations.extend(analysis::graph_violations(&files, &graph, cfg));

    let mut diagnostics = Vec::new();
    for (fix, f) in files.iter().enumerate() {
        // Pragma problems are hard errors on every file — including files
        // no rule is scoped to, so a typo'd suppression can never sit
        // silently in the tree.
        for (line, col, summary) in pragma::problems(&f.lexed.pragmas) {
            diagnostics.push(Diagnostic {
                path: f.rel.clone(),
                line,
                col,
                width: 2,
                rule_id: "P0",
                rule_name: "pragma",
                summary,
                note: None,
                help: None,
            });
        }
        let targets = pragma::targets(&f.lexed);
        for (vfix, v) in &violations {
            if *vfix != fix || pragma::suppresses(v.rule, v.line, &f.lexed, &targets) {
                continue;
            }
            diagnostics.push(Diagnostic {
                path: f.rel.clone(),
                line: v.line,
                col: v.col,
                width: v.width,
                rule_id: v.rule.id(),
                rule_name: v.rule.name(),
                summary: v.rule.summary(&v.found),
                note: v.note.clone(),
                help: Some(v.rule.help()),
            });
        }
    }
    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule_id).cmp(&(
            b.path.as_str(),
            b.line,
            b.col,
            b.rule_id,
        ))
    });
    diagnostics.dedup_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule_id) == (b.path.as_str(), b.line, b.col, b.rule_id)
    });
    UnitOutcome {
        files,
        diagnostics,
        graph,
    }
}

/// Lint one file's source text. This is the unit the fixture tests drive
/// directly; the call graph is built from just this file.
pub fn lint_source(rel_path: &str, source: &str, cfg: &LintConfig) -> Vec<Diagnostic> {
    lint_unit(vec![(rel_path.to_string(), source.to_string())], cfg, None).diagnostics
}

/// Outcome of a workspace run.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
    /// Rendered text, aligned index-for-index with `diagnostics`.
    pub rendered: Vec<String>,
    /// Per-crate `(functions, edges)` call-graph summary.
    pub graph_summary: BTreeMap<String, (usize, usize)>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Machine-readable report: findings plus the call-graph summary. This
    /// is what `cargo lint --format json` prints and what the CI annotation
    /// step consumes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"files_scanned\":{}", self.files_scanned);
        out.push_str(",\"graph\":{");
        for (i, (krate, (fns, edges))) in self.graph_summary.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"functions\":{fns},\"edges\":{edges}}}",
                json_string(krate)
            );
        }
        out.push_str("},\"findings\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// Directories never descended into: build products, vendored third-party
/// shims (not ours to lint), VCS metadata, experiment output, the
/// linter's own intentionally-violating test fixtures, and the standalone
/// `benchmark` package (not a workspace member, in no rule's scope — its
/// functions would otherwise land in the see-everything `(unit)` crate).
const SKIP_DIRS: [&str; 6] = [
    "target",
    "vendor",
    ".git",
    "results",
    "fixtures",
    "benchmark",
];

/// Collect every `.rs` file under `root`, workspace-relative, sorted.
pub fn collect_rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lint the whole workspace rooted at `root` with `cfg`: every `.rs` file
/// becomes one unit, so the interprocedural rules see the complete
/// first-party call graph (bounded by the crate dependency DAG parsed from
/// the `Cargo.toml` manifests).
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> std::io::Result<Report> {
    let outcome = lint_workspace_unit(root, cfg)?;
    let sources: BTreeMap<&str, &str> = outcome
        .files
        .iter()
        .map(|f| (f.rel.as_str(), f.source.as_str()))
        .collect();
    let rendered = outcome
        .diagnostics
        .iter()
        .map(|d| d.render(sources.get(d.path.as_str()).copied()))
        .collect();
    Ok(Report {
        files_scanned: outcome.files.len(),
        diagnostics: outcome.diagnostics,
        rendered,
        graph_summary: outcome.graph.summary(),
    })
}

/// The workspace as one [`lint_unit`]: what [`lint_workspace`] reports on,
/// with the call graph still attached (tests query reachability on it).
pub fn lint_workspace_unit(root: &Path, cfg: &LintConfig) -> std::io::Result<UnitOutcome> {
    let mut inputs = Vec::new();
    for path in collect_rust_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        inputs.push((rel, std::fs::read_to_string(&path)?));
    }
    let deps = callgraph::parse_crate_deps(root);
    Ok(lint_unit(inputs, cfg, Some(&deps)))
}

/// Locate the workspace root: the nearest ancestor of `start` containing
/// `lint.toml`. Falls back to the compile-time manifest's grandparent so
/// `cargo run -p asap-lint` works from anywhere inside the repo.
pub fn find_root(start: &Path) -> PathBuf {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("lint.toml").is_file() {
            return d.to_path_buf();
        }
        dir = d.parent();
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap_or_else(|| Path::new("."))
        .to_path_buf()
}
