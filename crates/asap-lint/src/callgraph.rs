//! The workspace call graph: one node per (non-test, production) function
//! definition, edges by name-based resolution of the call sites the syntax
//! layer extracts, filtered through the crate dependency DAG so a call in
//! `asap-sim` can never resolve into a crate that `asap-sim` does not
//! depend on. This is what makes the interprocedural rules (R4
//! panic-reachability, R3 digest-taint, R6 stream discipline) *workspace*
//! analyses instead of per-file pattern scans.
//!
//! Resolution is a deliberate over-approximation of the real call relation:
//!
//! * `.name(…)` method calls resolve to **every** visible impl method named
//!   `name` (no receiver types without rustc). Extra edges only ever grow
//!   reachable sets, so the reachability rules stay conservative.
//! * `Qual::name(…)` resolves to methods of impls of `Qual` when any exist,
//!   else (a module-path qualifier) to any visible *free* function named
//!   `name` — never to methods, so `Vec::new()` cannot edge into every
//!   first-party `new`.
//! * `name(…)` resolves to visible free functions named `name`.
//!
//! Test code (`#[cfg(test)]` regions, `tests/`, `benches/`, `examples/`)
//! contributes no nodes: the graph models what can execute in production.

use crate::syntax::{Call, FileSyntax, FnDef};
use std::collections::{BTreeMap, BTreeSet};

/// A function node: where it lives plus its parsed definition.
#[derive(Debug)]
pub struct FnNode {
    /// Workspace-relative file path, `/`-separated.
    pub file: String,
    /// Owning crate (`asap-sim`, …; `asap-p2p` for the root `src/`).
    pub krate: String,
    pub def: FnDef,
}

/// Crate dependency closure: `visible["asap-sim"]` contains `asap-sim`
/// itself and every crate it (transitively) depends on. `None` disables
/// filtering (single-unit fixture graphs).
pub type CrateDeps = BTreeMap<String, BTreeSet<String>>;

#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// Adjacency: `edges[caller]` → callee node indices, deduplicated.
    pub edges: Vec<Vec<usize>>,
    /// Trait name → implementing/default method node indices.
    trait_methods: BTreeMap<String, Vec<usize>>,
}

/// Which crate a workspace-relative path belongs to.
pub fn crate_of(rel_path: &str) -> String {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    if rel_path.starts_with("src/") {
        return "asap-p2p".to_string();
    }
    if rel_path.starts_with("xtask/") {
        return "xtask".to_string();
    }
    // Fixture paths and anything unrecognized share one pseudo-crate, which
    // the dependency filter treats as seeing everything.
    "(unit)".to_string()
}

/// Is this file part of the production build — i.e. does it contribute
/// call-graph nodes? (Unit tests inside `src/` files are excluded per-fn
/// via `FnDef::is_test`.)
pub fn is_production_path(rel_path: &str) -> bool {
    !(rel_path.contains("/tests/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/")
        || rel_path.starts_with("tests/")
        || rel_path.starts_with("benches/")
        || rel_path.starts_with("examples/"))
}

impl CallGraph {
    /// Build the graph over `(rel_path, syntax, calls_per_fn)` units.
    /// `calls[k][j]` are the call sites of `files[k]`'s `j`-th fn.
    pub fn build(
        files: &[(String, &FileSyntax, Vec<Vec<Call>>)],
        deps: Option<&CrateDeps>,
    ) -> CallGraph {
        let mut g = CallGraph::default();
        let mut node_calls: Vec<Vec<Call>> = Vec::new();
        for (path, syntax, calls) in files {
            if !is_production_path(path) {
                continue;
            }
            let krate = crate_of(path);
            for (j, def) in syntax.fns.iter().enumerate() {
                if def.is_test {
                    continue;
                }
                if let Some(tr) = &def.trait_name {
                    g.trait_methods
                        .entry(tr.clone())
                        .or_default()
                        .push(g.nodes.len());
                }
                g.nodes.push(FnNode {
                    file: path.clone(),
                    krate: krate.clone(),
                    def: def.clone(),
                });
                node_calls.push(calls.get(j).cloned().unwrap_or_default());
            }
        }

        // Name indexes over the nodes.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut frees: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (ix, n) in g.nodes.iter().enumerate() {
            match &n.def.self_ty {
                Some(ty) => {
                    methods.entry(&n.def.name).or_default().push(ix);
                    typed.entry((ty, &n.def.name)).or_default().push(ix);
                }
                None => {
                    if n.def.trait_name.is_some() {
                        // Trait default method: callable as a method.
                        methods.entry(&n.def.name).or_default().push(ix);
                    } else {
                        frees.entry(&n.def.name).or_default().push(ix);
                    }
                }
            }
        }

        let visible = |caller: usize, callee: usize| -> bool {
            let Some(deps) = deps else { return true };
            let from = &g.nodes[caller].krate;
            let to = &g.nodes[callee].krate;
            from == to || from == "(unit)" || deps.get(from).is_some_and(|set| set.contains(to))
        };

        g.edges = vec![Vec::new(); g.nodes.len()];
        for (caller, calls) in node_calls.iter().enumerate() {
            let mut targets: BTreeSet<usize> = BTreeSet::new();
            for call in calls {
                match call {
                    Call::Method(name) => {
                        if let Some(v) = methods.get(name.as_str()) {
                            targets.extend(v.iter().copied());
                        }
                    }
                    Call::Path(qual, name) => {
                        let self_qual = qual == "Self";
                        let resolved = if self_qual {
                            g.nodes[caller]
                                .def
                                .self_ty
                                .as_deref()
                                .and_then(|ty| typed.get(&(ty, name.as_str())))
                        } else {
                            typed.get(&(qual.as_str(), name.as_str()))
                        };
                        if let Some(v) = resolved {
                            targets.extend(v.iter().copied());
                        } else if !self_qual {
                            // Module-path qualifier: fall back to free fns.
                            // Deliberately NOT to methods — `Vec::new()` /
                            // `SmallRng::seed_from_u64()` would otherwise
                            // edge into every first-party `new`/`seed…`
                            // method and drown the reachability rules.
                            // (Generic `T::method(x)` UFCS is the one shape
                            // this under-approximates; it does not occur on
                            // the simulation paths these rules guard.)
                            if let Some(v) = frees.get(name.as_str()) {
                                targets.extend(v.iter().copied());
                            }
                        }
                    }
                    Call::Free(name) => {
                        if let Some(v) = frees.get(name.as_str()) {
                            targets.extend(v.iter().copied());
                        }
                    }
                }
            }
            g.edges[caller] = targets
                .into_iter()
                .filter(|&t| visible(caller, t))
                .collect();
        }
        g
    }

    /// Nodes matching a `Type::name` / `Type::*` / bare-`name` pattern.
    pub fn match_pattern(&self, pattern: &str) -> Vec<usize> {
        let mut out = Vec::new();
        if let Some((ty, name)) = pattern.split_once("::") {
            for (ix, n) in self.nodes.iter().enumerate() {
                let ty_matches = n.def.self_ty.as_deref() == Some(ty)
                    || (n.def.self_ty.is_none() && n.def.trait_name.as_deref() == Some(ty));
                if ty_matches && (name == "*" || n.def.name == name) {
                    out.push(ix);
                }
            }
        } else {
            for (ix, n) in self.nodes.iter().enumerate() {
                if n.def.name == pattern {
                    out.push(ix);
                }
            }
        }
        out
    }

    /// Every method node of every impl of `trait_name` (plus the trait's
    /// own default bodies).
    pub fn trait_impl_methods(&self, trait_name: &str) -> Vec<usize> {
        self.trait_methods
            .get(trait_name)
            .cloned()
            .unwrap_or_default()
    }

    /// Forward reachability (callee direction) from `roots`, inclusive.
    /// `stop(n)` halts expansion *through* a node: the node is still marked
    /// reachable, but its callees are not visited via it.
    pub fn reach(&self, roots: &[usize], stop: impl Fn(usize) -> bool) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = Vec::new();
        for &r in roots {
            if !seen[r] {
                seen[r] = true;
                stack.push(r);
            }
        }
        while let Some(n) = stack.pop() {
            if stop(n) {
                continue;
            }
            for &m in &self.edges[n] {
                if !seen[m] {
                    seen[m] = true;
                    stack.push(m);
                }
            }
        }
        seen
    }

    /// One shortest call path `root → … → target` for diagnostics, as
    /// `Type::fn` segments. Roots are searched breadth-first so the message
    /// names a minimal chain.
    pub fn example_path(&self, roots: &[usize], target: usize) -> Option<Vec<String>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        for &r in roots {
            if !seen[r] {
                seen[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            if n == target {
                let mut path = vec![n];
                let mut cur = n;
                while let Some(p) = parent[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(
                    path.into_iter()
                        .map(|ix| self.nodes[ix].def.qual_name())
                        .collect(),
                );
            }
            for &m in &self.edges[n] {
                if !seen[m] {
                    seen[m] = true;
                    parent[m] = Some(n);
                    queue.push_back(m);
                }
            }
        }
        None
    }

    /// Per-crate `(functions, edges)` summary — pinned by the
    /// `lint_selfcheck` test so analyzer regressions (lost nodes, resolution
    /// changes) are loud.
    pub fn summary(&self) -> BTreeMap<String, (usize, usize)> {
        let mut out: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for (ix, n) in self.nodes.iter().enumerate() {
            let e = out.entry(n.krate.clone()).or_default();
            e.0 += 1;
            e.1 += self.edges[ix].len();
        }
        out
    }
}

/// Parse the `asap-*` dependency sets out of every first-party crate
/// manifest under `root` (plus the root package itself), and close them
/// transitively. A line-oriented scan is enough: first-party deps appear as
/// `asap-foo.workspace = true` or `asap-foo = { … }` under a
/// `[dependencies]`/`[dev-dependencies]`/`[build-dependencies]` table.
pub fn parse_crate_deps(root: &std::path::Path) -> CrateDeps {
    let mut direct: CrateDeps = BTreeMap::new();
    let mut manifests: Vec<(String, std::path::PathBuf)> =
        vec![("asap-p2p".to_string(), root.join("Cargo.toml"))];
    let xtask = root.join("xtask/Cargo.toml");
    if xtask.is_file() {
        manifests.push(("xtask".to_string(), xtask));
    }
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            let manifest = entry.path().join("Cargo.toml");
            if manifest.is_file() {
                manifests.push((name, manifest));
            }
        }
    }
    for (name, manifest) in manifests {
        let text = std::fs::read_to_string(&manifest).unwrap_or_default();
        let mut in_deps = false;
        let mut set: BTreeSet<String> = BTreeSet::new();
        for line in text.lines() {
            let line = line.trim();
            if let Some(header) = line.strip_prefix('[') {
                in_deps = header.contains("dependencies");
                continue;
            }
            if !in_deps {
                continue;
            }
            if let Some((key, _)) = line.split_once('=') {
                let dep = key.trim().trim_end_matches(".workspace").trim();
                if dep.starts_with("asap-") {
                    set.insert(dep.to_string());
                }
            }
        }
        set.insert(name.clone());
        direct.insert(name, set);
    }
    // Transitive closure (the DAG is tiny; fixpoint iteration is fine).
    let mut changed = true;
    while changed {
        changed = false;
        let keys: Vec<String> = direct.keys().cloned().collect();
        for k in keys {
            let current = direct.get(&k).cloned().unwrap_or_default();
            let mut grown = current.clone();
            for dep in &current {
                if let Some(indirect) = direct.get(dep) {
                    grown.extend(indirect.iter().cloned());
                }
            }
            if grown.len() != current.len() {
                direct.insert(k, grown);
                changed = true;
            }
        }
    }
    direct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, mark_test_regions};
    use crate::syntax;

    fn build_unit(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<(String, FileSyntax, Vec<Vec<Call>>)> = files
            .iter()
            .map(|(path, src)| {
                let lexed = lex(src);
                let in_test = mark_test_regions(&lexed.tokens);
                let s = syntax::parse(&lexed.tokens, &in_test);
                let calls = s
                    .fns
                    .iter()
                    .map(|f| syntax::calls_in(&lexed.tokens, f.body))
                    .collect();
                (path.to_string(), s, calls)
            })
            .collect();
        let refs: Vec<(String, &FileSyntax, Vec<Vec<Call>>)> = parsed
            .iter()
            .map(|(p, s, c)| (p.clone(), s, c.clone()))
            .collect();
        CallGraph::build(&refs, None)
    }

    #[test]
    fn cross_file_edges_and_reachability() {
        let g = build_unit(&[
            ("a.rs", "pub fn entry() { helper(); }"),
            (
                "b.rs",
                "pub fn helper() { leaf(); } pub fn leaf() {} pub fn island() {}",
            ),
        ]);
        let entry = g.match_pattern("entry")[0];
        let island = g.match_pattern("island")[0];
        let leaf = g.match_pattern("leaf")[0];
        let seen = g.reach(&[entry], |_| false);
        assert!(seen[leaf], "entry → helper → leaf");
        assert!(!seen[island], "island is unreachable");
        assert_eq!(
            g.example_path(&[entry], leaf).unwrap(),
            vec!["entry", "helper", "leaf"]
        );
    }

    #[test]
    fn trait_impl_methods_resolve_as_roots() {
        let g = build_unit(&[(
            "p.rs",
            "pub trait Protocol { fn on_query(&mut self); }\n\
             struct A; impl Protocol for A { fn on_query(&mut self) { deep() } }\n\
             fn deep() {}",
        )]);
        let roots = g.trait_impl_methods("Protocol");
        assert_eq!(roots.len(), 2, "declaration + impl");
        let deep = g.match_pattern("deep")[0];
        assert!(g.reach(&roots, |_| false)[deep]);
    }

    #[test]
    fn method_calls_over_approximate_but_respect_stop() {
        let g = build_unit(&[(
            "m.rs",
            "struct S; impl S { fn step(&self) { inner() } }\n\
             fn inner() {}\n\
             fn caller(s: &S) { s.step(); }",
        )]);
        let caller = g.match_pattern("caller")[0];
        let step = g.match_pattern("S::step")[0];
        let inner = g.match_pattern("inner")[0];
        let all = g.reach(&[caller], |_| false);
        assert!(all[step] && all[inner]);
        let stopped = g.reach(&[caller], |n| n == step);
        assert!(stopped[step], "stop nodes are included");
        assert!(!stopped[inner], "…but not expanded through");
    }

    #[test]
    fn tests_and_test_dirs_contribute_no_nodes() {
        let g = build_unit(&[
            (
                "src/a.rs",
                "#[cfg(test)] mod t { fn phantom() {} } fn real() {}",
            ),
            ("crates/x/tests/it.rs", "fn integration_only() {}"),
        ]);
        let names: Vec<String> = g.nodes.iter().map(|n| n.def.qual_name()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn dependency_dag_filters_resolution() {
        let mut deps: CrateDeps = BTreeMap::new();
        deps.insert(
            "asap-sim".into(),
            ["asap-sim", "asap-overlay"].map(String::from).into(),
        );
        deps.insert(
            "asap-bench".into(),
            ["asap-bench", "asap-sim"].map(String::from).into(),
        );
        deps.insert(
            "asap-overlay".into(),
            ["asap-overlay"].map(String::from).into(),
        );
        let files = [
            ("crates/asap-sim/src/lib.rs", "pub fn tick() { shared(); }"),
            ("crates/asap-overlay/src/lib.rs", "pub fn shared() {}"),
            ("crates/asap-bench/src/lib.rs", "pub fn shared() {}"),
        ];
        let parsed: Vec<(String, FileSyntax, Vec<Vec<Call>>)> = files
            .iter()
            .map(|(path, src)| {
                let lexed = lex(src);
                let in_test = mark_test_regions(&lexed.tokens);
                let s = syntax::parse(&lexed.tokens, &in_test);
                let calls = s
                    .fns
                    .iter()
                    .map(|f| syntax::calls_in(&lexed.tokens, f.body))
                    .collect();
                (path.to_string(), s, calls)
            })
            .collect();
        let refs: Vec<(String, &FileSyntax, Vec<Vec<Call>>)> = parsed
            .iter()
            .map(|(p, s, c)| (p.clone(), s, c.clone()))
            .collect();
        let g = CallGraph::build(&refs, Some(&deps));
        let tick = g.match_pattern("tick")[0];
        let targets: Vec<&str> = g.edges[tick]
            .iter()
            .map(|&t| g.nodes[t].file.as_str())
            .collect();
        assert_eq!(
            targets,
            vec!["crates/asap-overlay/src/lib.rs"],
            "the bench `shared` is invisible to asap-sim"
        );
    }
}
