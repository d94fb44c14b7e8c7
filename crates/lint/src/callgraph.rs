//! Workspace-wide symbol table and cross-crate call graph.
//!
//! Built once per lint run from every file's AST, then shared by the
//! interprocedural rules (panic-reachability, determinism taint). The
//! design bias is *conservative over-approximation*: a call that might
//! resolve to a workspace function produces an edge, and method calls
//! resolve by name across every impl in the workspace — so trait-object
//! dispatch, generic dispatch, and closures-captured-methods are all
//! covered without type inference. The cost is false edges (reported
//! chains are always real source locations, but a chain may be
//! infeasible at runtime); the `lint:allow` protocol at chain edges is
//! the escape hatch. Calls that resolve to nothing in the workspace are
//! external (std, vendored deps) and are ignored.
//!
//! Resolution rules, in order:
//! - `.method(args)` → every workspace method (`self` receiver) of that
//!   name; argument count must match unless a closure argument makes
//!   the count opaque.
//! - `Self::name(...)` → `name` in the caller's own impl container.
//! - `Type::name(...)` (capitalized qualifier) → `name` in any impl or
//!   trait container of that type name, workspace-wide.
//! - `module::name(...)` (lowercase qualifier) → free `name` defined in
//!   a file of that module (`.../module.rs`, `.../module/...`) or in a
//!   crate of that name; `livephase_x::...` pins the crate.
//! - bare `name(...)` → a `use` import of `name` in the calling file
//!   expands it to its full path first; otherwise a free `name` in the
//!   calling crate.

use std::collections::HashMap;

use crate::ast::{Ast, CallSite, ItemKind};
use crate::source::SourceFile;

/// One function in the workspace.
#[derive(Debug)]
pub struct FnNode {
    /// Index into the file list the graph was built from.
    pub file: usize,
    /// Crate the function lives in (`core`, `serve`, ...).
    pub crate_name: String,
    /// Enclosing impl's self type or trait's name, if any.
    pub container: Option<String>,
    /// For impl-block methods: the trait being implemented, if any.
    pub trait_impl: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based location of the definition.
    pub line: u32,
    /// 1-based column of the definition.
    pub col: u32,
    /// Byte extent of the body, when present.
    pub body: Option<(usize, usize)>,
    /// Parameter count, `self` excluded.
    pub params: usize,
    /// Whether the function takes `self`.
    pub has_self: bool,
    /// Whether the definition sits inside a test region.
    pub in_test: bool,
    /// Resolved call edges, in source order.
    pub edges: Vec<Edge>,
}

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Callee function id.
    pub callee: usize,
    /// 1-based line of the call site (in the caller's file).
    pub line: u32,
    /// 1-based column of the call site.
    pub col: u32,
    /// The callee as written at the call site (`.step`, `wire::decode`).
    pub via: String,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All functions, in (file, source) order.
    pub fns: Vec<FnNode>,
}

/// Breadth-first reachability result: for each function, whether it is
/// reachable from the root set and through which call edge.
#[derive(Debug)]
pub struct Reach {
    /// `visited[f]` — `f` is reachable (roots included).
    pub visited: Vec<bool>,
    /// `parent[f]` — the `(caller, line, col)` edge that first reached
    /// `f`; `None` for roots and unreached functions.
    pub parent: Vec<Option<(usize, u32, u32)>>,
}

impl CallGraph {
    /// Builds the graph from parallel arrays of analyzed files and
    /// their ASTs.
    #[must_use]
    pub fn build(files: &[SourceFile], asts: &[Ast]) -> Self {
        let mut graph = CallGraph::default();
        // calls[i] parallels graph.fns[i].
        let mut calls: Vec<Vec<CallSite>> = Vec::new();
        for (fi, (file, ast)) in files.iter().zip(asts).enumerate() {
            collect_fns(fi, file, ast, &mut graph.fns, &mut calls);
        }

        // Secondary indexes for resolution.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (id, f) in graph.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(id);
        }
        let imports: Vec<HashMap<String, Vec<String>>> = asts.iter().map(import_map).collect();

        let all_edges: Vec<Vec<Edge>> = (0..graph.fns.len())
            .map(|id| {
                let mut edges = Vec::new();
                for call in &calls[id] {
                    let mut targets = resolve(&graph.fns, &by_name, &imports, files, id, call);
                    // Self-edges carry no reachability information.
                    targets.retain(|&t| t != id);
                    for t in targets {
                        edges.push(Edge {
                            callee: t,
                            line: call.span.line,
                            col: call.span.col,
                            via: call.display(),
                        });
                    }
                }
                edges
            })
            .collect();
        drop(by_name);
        for (node, edges) in graph.fns.iter_mut().zip(all_edges) {
            node.edges = edges;
        }
        graph
    }

    /// `crate::Container::name` (or `crate::name`) for messages.
    #[must_use]
    pub fn display(&self, id: usize) -> String {
        let f = &self.fns[id];
        match &f.container {
            Some(c) => format!("{}::{}::{}", f.crate_name, c, f.name),
            None => format!("{}::{}", f.crate_name, f.name),
        }
    }

    /// The function whose body most tightly encloses `byte` in `file`
    /// (nested-fn bytes attribute to the innermost tracked body).
    #[must_use]
    pub fn enclosing(&self, file: usize, byte: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (span len, id)
        for (id, f) in self.fns.iter().enumerate() {
            if f.file != file {
                continue;
            }
            if let Some((s, e)) = f.body {
                if byte >= s && byte < e {
                    let len = e - s;
                    if best.is_none_or(|(blen, _)| len < blen) {
                        best = Some((len, id));
                    }
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// BFS from `roots` over edges accepted by `allow_edge` (the
    /// suppression hook: a rejected edge is cut from the graph).
    /// Deterministic: roots in given order, edges in source order.
    pub fn reach(
        &self,
        roots: &[usize],
        mut allow_edge: impl FnMut(&FnNode, &Edge) -> bool,
    ) -> Reach {
        let mut visited = vec![false; self.fns.len()];
        let mut parent: Vec<Option<(usize, u32, u32)>> = vec![None; self.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        for &r in roots {
            if r < visited.len() && !visited[r] {
                visited[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            let node = &self.fns[id];
            for edge in &node.edges {
                if visited[edge.callee] || self.fns[edge.callee].in_test {
                    continue;
                }
                if !allow_edge(node, edge) {
                    continue;
                }
                visited[edge.callee] = true;
                parent[edge.callee] = Some((id, edge.line, edge.col));
                queue.push_back(edge.callee);
            }
        }
        Reach { visited, parent }
    }

    /// The call chain root → ... → `target` as `(caller id, call line)`
    /// hops, ending at `target` itself with its definition line.
    #[must_use]
    pub fn chain(&self, reach: &Reach, target: usize) -> Vec<(usize, u32)> {
        let mut rev = vec![(target, self.fns[target].line)];
        let mut cur = target;
        // Bounded by fns.len(): BFS parents cannot cycle.
        for _ in 0..self.fns.len() {
            match reach.parent[cur] {
                Some((p, line, _)) => {
                    rev.push((p, line));
                    cur = p;
                }
                None => break,
            }
        }
        rev.reverse();
        rev
    }
}

/// Walks one AST collecting `FnNode`s (container tracked through impls
/// and traits) and their raw call lists.
fn collect_fns(
    fi: usize,
    file: &SourceFile,
    ast: &Ast,
    fns: &mut Vec<FnNode>,
    calls: &mut Vec<Vec<CallSite>>,
) {
    fn go(
        fi: usize,
        file: &SourceFile,
        items: &[crate::ast::Item],
        container: Option<&str>,
        trait_impl: Option<&str>,
        fns: &mut Vec<FnNode>,
        calls: &mut Vec<Vec<CallSite>>,
    ) {
        for item in items {
            match &item.kind {
                ItemKind::Fn(def) => {
                    fns.push(FnNode {
                        file: fi,
                        crate_name: file.crate_name.clone(),
                        container: container.map(str::to_owned),
                        trait_impl: trait_impl.map(str::to_owned),
                        name: item.name.clone(),
                        line: item.span.line,
                        col: item.span.col,
                        body: def.body.map(|b| (b.start, b.end)),
                        params: def.params,
                        has_self: def.has_self,
                        in_test: file.in_test(item.span.start),
                        edges: Vec::new(),
                    });
                    calls.push(def.calls.clone());
                }
                ItemKind::Impl(imp) => go(
                    fi,
                    file,
                    &imp.items,
                    Some(&imp.self_ty),
                    imp.trait_name.as_deref(),
                    fns,
                    calls,
                ),
                ItemKind::Trait(items) => {
                    go(fi, file, items, Some(&item.name), None, fns, calls);
                }
                ItemKind::Mod(items) => {
                    go(fi, file, items, container, trait_impl, fns, calls);
                }
                _ => {}
            }
        }
    }
    go(fi, file, &ast.items, None, None, fns, calls);
}

/// `name in scope → full path` from a file's `use` declarations.
fn import_map(ast: &Ast) -> HashMap<String, Vec<String>> {
    let mut map = HashMap::new();
    ast.walk(|item| {
        if let ItemKind::Use(u) = &item.kind {
            for (name, path) in &u.leaves {
                if name != "*" && name != "self" {
                    map.insert(name.clone(), path.clone());
                }
            }
        }
    });
    map
}

/// Resolves one call site to workspace function ids (possibly many —
/// method calls fan out across impls; empty means external).
fn resolve(
    fns: &[FnNode],
    by_name: &HashMap<&str, Vec<usize>>,
    imports: &[HashMap<String, Vec<String>>],
    files: &[SourceFile],
    caller: usize,
    call: &CallSite,
) -> Vec<usize> {
    let Some(name) = call.path.last() else {
        return Vec::new();
    };
    let candidates = match by_name.get(name.as_str()) {
        Some(c) => c,
        None => return Vec::new(),
    };
    let caller_node = &fns[caller];

    if call.method {
        return candidates
            .iter()
            .copied()
            .filter(|&id| {
                let f = &fns[id];
                f.has_self && (call.opaque_args || f.params == call.args)
            })
            .collect();
    }

    // Expand a leading import: `use crate::wire::decode; decode(x)`
    // becomes `crate::wire::decode(x)` for resolution purposes.
    let mut path: Vec<String> = call.path.clone();
    if let Some(expansion) = imports[caller_node.file].get(&path[0]) {
        let mut full = expansion.clone();
        full.extend(path.drain(1..));
        path = full;
    }

    // Strip `crate`/`super`/`self` prefixes and pin `livephase_x` to
    // crate `x`.
    let mut target_crate: Option<String> = None;
    while path.len() > 1 && matches!(path[0].as_str(), "crate" | "super" | "self") {
        path.remove(0);
    }
    if path.len() > 1 {
        if let Some(rest) = path[0].strip_prefix("livephase_") {
            target_crate = Some(rest.replace('_', "-"));
            path.remove(0);
        }
    }
    let crate_ok = |f: &FnNode| match &target_crate {
        Some(c) => &f.crate_name == c || f.crate_name == c.replace('-', "_"),
        None => true,
    };

    let qualifier = if path.len() >= 2 {
        Some(path[path.len() - 2].clone())
    } else {
        None
    };
    match qualifier.as_deref() {
        Some("Self") => {
            let container = caller_node.container.clone();
            candidates
                .iter()
                .copied()
                .filter(|&id| fns[id].container == container && container.is_some())
                .collect()
        }
        Some(q) if q.chars().next().is_some_and(char::is_uppercase) => candidates
            .iter()
            .copied()
            .filter(|&id| {
                let f = &fns[id];
                crate_ok(f) && f.container.as_deref() == Some(q)
            })
            .collect(),
        Some(q) => {
            // Lowercase qualifier: a module. Match free fns defined in
            // that module's file(s) or in a crate of that name.
            let needle_file = format!("/{q}.rs");
            let needle_dir = format!("/{q}/");
            candidates
                .iter()
                .copied()
                .filter(|&id| {
                    let f = &fns[id];
                    if f.container.is_some() || !crate_ok(f) {
                        return false;
                    }
                    let p = &files[f.file].path;
                    f.crate_name == q || p.ends_with(&needle_file) || p.contains(&needle_dir)
                })
                .collect()
        }
        None => {
            // Bare call: a free fn in the calling crate (or the pinned
            // crate when the import told us one).
            candidates
                .iter()
                .copied()
                .filter(|&id| {
                    let f = &fns[id];
                    f.container.is_none()
                        && match &target_crate {
                            Some(_) => crate_ok(f),
                            None => f.crate_name == caller_node.crate_name,
                        }
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn build(sources: &[(&str, &str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, c, s)| SourceFile::analyze(*p, *c, (*s).to_owned()))
            .collect();
        let asts: Vec<Ast> = files.iter().map(parse).collect();
        let graph = CallGraph::build(&files, &asts);
        (files, graph)
    }

    fn id(graph: &CallGraph, name: &str) -> usize {
        graph
            .fns
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("fn {name} not in graph"))
    }

    #[test]
    fn method_calls_fan_out_by_name_and_arity() {
        let (_, g) = build(&[(
            "crates/a/src/lib.rs",
            "a",
            "struct S; struct T;\n\
             impl S { fn go(&self, x: u32) {} }\n\
             impl T { fn go(&self, x: u32) {} fn go2(&self) {} }\n\
             fn driver(s: S) { s.go(1); }",
        )]);
        let driver = id(&g, "driver");
        let callees: Vec<&str> = g.fns[driver]
            .edges
            .iter()
            .map(|e| g.fns[e.callee].name.as_str())
            .collect();
        assert_eq!(callees, vec!["go", "go"], "both impls, arity-matched");
    }

    #[test]
    fn wrapped_method_call_with_trailing_comma_gets_an_edge() {
        let (_, g) = build(&[(
            "crates/a/src/lib.rs",
            "a",
            "struct S;\n\
             impl S { fn m(&self, a: u8, b: u8) {} }\n\
             fn driver(x: S) {\n    x.m(\n        1,\n        2,\n    );\n}",
        )]);
        let (driver, m) = (id(&g, "driver"), id(&g, "m"));
        let callees: Vec<usize> = g.fns[driver].edges.iter().map(|e| e.callee).collect();
        assert_eq!(callees, vec![m]);
    }

    #[test]
    fn qualified_and_bare_calls_resolve_within_crate() {
        let (_, g) = build(&[
            (
                "crates/a/src/wire.rs",
                "a",
                "pub fn decode(x: u8) -> u8 { x }",
            ),
            (
                "crates/a/src/main.rs",
                "a",
                "fn run() { wire::decode(1); helper(); }\nfn helper() {}",
            ),
        ]);
        let run = id(&g, "run");
        let callees: Vec<String> = g.fns[run]
            .edges
            .iter()
            .map(|e| g.display(e.callee))
            .collect();
        assert_eq!(callees, vec!["a::decode", "a::helper"]);
    }

    #[test]
    fn use_imports_pin_cross_crate_bare_calls() {
        let (_, g) = build(&[
            ("crates/core/src/phase.rs", "core", "pub fn classify() {}"),
            (
                "crates/b/src/lib.rs",
                "b",
                "use livephase_core::phase::classify;\nfn run() { classify(); }",
            ),
        ]);
        let run = id(&g, "run");
        assert_eq!(g.fns[run].edges.len(), 1);
        assert_eq!(g.display(g.fns[run].edges[0].callee), "core::classify");
    }

    #[test]
    fn self_calls_resolve_to_own_impl_only() {
        let (_, g) = build(&[(
            "crates/a/src/lib.rs",
            "a",
            "struct A; struct B;\n\
             impl A { fn new() {} fn go(&self) { Self::new(); } }\n\
             impl B { fn new() {} }",
        )]);
        let go = id(&g, "go");
        assert_eq!(g.fns[go].edges.len(), 1);
        assert_eq!(g.display(g.fns[go].edges[0].callee), "a::A::new");
    }

    #[test]
    fn test_fns_are_excluded_from_reachability() {
        let (_, g) = build(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn root() { leaf(); }\nfn leaf() {}\n\
             #[cfg(test)]\nmod tests { fn check() { super::leaf(); } }",
        )]);
        let root = id(&g, "root");
        let reach = g.reach(&[root], |_, _| true);
        let check = id(&g, "check");
        assert!(g.fns[check].in_test);
        assert!(reach.visited[id(&g, "leaf")]);
        assert!(!reach.visited[check]);
    }

    #[test]
    fn chains_reconstruct_shortest_paths() {
        let (_, g) = build(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn root() { mid(); }\nfn mid() { deep(); }\nfn deep() {}",
        )]);
        let reach = g.reach(&[id(&g, "root")], |_, _| true);
        let chain = g.chain(&reach, id(&g, "deep"));
        let names: Vec<&str> = chain.iter().map(|&(f, _)| g.fns[f].name.as_str()).collect();
        assert_eq!(names, vec!["root", "mid", "deep"]);
        assert_eq!(chain[0].1, 1, "hop line is the call site");
        assert_eq!(chain[1].1, 2);
    }

    #[test]
    fn edge_filter_cuts_reachability() {
        let (_, g) = build(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn root() { mid(); }\nfn mid() { deep(); }\nfn deep() {}",
        )]);
        let reach = g.reach(&[id(&g, "root")], |_, e| e.line != 2);
        assert!(reach.visited[id(&g, "mid")]);
        assert!(!reach.visited[id(&g, "deep")], "cut edge stops the walk");
    }

    #[test]
    fn enclosing_maps_bytes_to_fns() {
        let src = "fn a() { inner(); }\nfn b() {}";
        let (files, g) = build(&[("crates/a/src/lib.rs", "a", src)]);
        let at = files[0].text.find("inner").unwrap();
        assert_eq!(g.enclosing(0, at), Some(id(&g, "a")));
        assert_eq!(g.enclosing(0, files[0].text.len() - 1), Some(id(&g, "b")));
    }
}
