//! The shared interprocedural analysis engine: given per-file *source
//! sites* (panicky constructs, nondeterminism reads) and the workspace
//! call graph, prove which sites the deployed hot-path roots can reach
//! and report each reachable one with its full call chain.
//!
//! Both `panic-reachable` and `determinism-taint` are instances of the
//! same fixed point: breadth-first reachability from
//! [`HOT_PATH_ROOTS`], so every reported chain is the *shortest* chain
//! from a root to the offending site — the most useful one to read.
//! Taint propagates in the caller→callee direction (a root reaching a
//! tainted function is exactly a tainted value flowing back into the
//! root), with test functions excluded from the walk.
//!
//! Suppression is chain-aware, at two levels:
//! - **edge cuts** — a justified `lint:allow(<rule>)` on a *call-site*
//!   line severs every call edge on that line for the walk (and only
//!   those: a call on the next line stays live). Use it where the
//!   resolver's conservative fan-out picked an impossible callee, or
//!   where the callee is provably not entered on the hot path.
//! - **site exemptions** — a justified allow of the rule's own id on
//!   the *source* line exempts the site, via the ordinary suppression
//!   pass.

use crate::callgraph::CallGraph;
use crate::lexer::Token;
use crate::report::{Finding, Severity};
use crate::source::{SourceFile, Suppression};

/// How a hot-path root function is anchored.
#[derive(Debug, Clone, Copy)]
pub enum RootContainer {
    /// A free function (no impl/trait container).
    Free,
    /// A method or associated fn of the named impl/trait container.
    Named(&'static str),
    /// Any `self`-taking method of that name (trait impls fan out).
    Method,
}

/// One hot-path root: the functions the deployed system actually calls
/// per sample/frame/quantum.
#[derive(Debug, Clone, Copy)]
pub struct RootSpec {
    /// Crate the root lives in.
    pub crate_name: &'static str,
    /// Function name.
    pub name: &'static str,
    /// Container constraint.
    pub container: RootContainer,
}

/// The deployed hot paths, per DESIGN.md: the engine's per-sample
/// decision steps, the serve reactor's shard loop, the tenants
/// scheduler quantum and arbiter grant pass, and every power-model
/// backend's costing methods (the arbiter's never-exceed-budget proof
/// rests on them).
pub const HOT_PATH_ROOTS: &[RootSpec] = &[
    RootSpec {
        crate_name: "engine",
        name: "step",
        container: RootContainer::Named("DecisionEngine"),
    },
    RootSpec {
        crate_name: "engine",
        name: "step_many",
        container: RootContainer::Named("DecisionEngine"),
    },
    RootSpec {
        crate_name: "serve",
        name: "shard_reactor_loop",
        container: RootContainer::Free,
    },
    RootSpec {
        crate_name: "tenants",
        name: "step_decision",
        container: RootContainer::Free,
    },
    RootSpec {
        crate_name: "tenants",
        name: "arbitrate",
        container: RootContainer::Named("Arbiter"),
    },
    RootSpec {
        crate_name: "pmsim",
        name: "power",
        container: RootContainer::Method,
    },
    RootSpec {
        crate_name: "pmsim",
        name: "worst_case",
        container: RootContainer::Method,
    },
];

/// Whether one function matches a root spec.
fn matches_root(graph: &CallGraph, id: usize, spec: &RootSpec) -> bool {
    let f = &graph.fns[id];
    if f.in_test || f.crate_name != spec.crate_name || f.name != spec.name {
        return false;
    }
    match spec.container {
        RootContainer::Free => f.container.is_none(),
        RootContainer::Named(c) => f.container.as_deref() == Some(c),
        RootContainer::Method => f.has_self,
    }
}

/// All function ids matching the root set, in graph order.
#[must_use]
pub fn root_ids(graph: &CallGraph, roots: &[RootSpec]) -> Vec<usize> {
    (0..graph.fns.len())
        .filter(|&id| roots.iter().any(|spec| matches_root(graph, id, spec)))
        .collect()
}

/// Root specs whose crate is present in the scan set but which match no
/// function — a rename would otherwise silently drop a root and the
/// reachability proof with it.
pub(crate) fn missing_root_findings(
    rule: &'static str,
    graph: &CallGraph,
    files: &[SourceFile],
    roots: &[RootSpec],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for spec in roots {
        let crate_present = files.iter().any(|f| f.crate_name == spec.crate_name);
        if !crate_present {
            continue;
        }
        if (0..graph.fns.len()).any(|id| matches_root(graph, id, spec)) {
            continue;
        }
        // Anchor at the first file of the crate: stable and clickable.
        let path = files
            .iter()
            .find(|f| f.crate_name == spec.crate_name)
            .map(|f| f.path.clone())
            .unwrap_or_default();
        out.push(Finding {
            rule,
            severity: Severity::Deny,
            path,
            line: 1,
            col: 1,
            message: format!(
                "hot-path root `{}::{}` matches no function — it was renamed or removed; \
                 update taint::HOT_PATH_ROOTS or the reachability proof silently shrinks",
                spec.crate_name, spec.name
            ),
        });
    }
    out
}

/// One source site for a chain analysis (a panicky construct or a
/// nondeterminism read), in file coordinates.
pub(crate) struct Source {
    /// Byte offset, for enclosing-function attribution.
    pub byte: usize,
    /// 1-based location.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Short human name of the construct for the chain message.
    pub what: String,
}

impl Source {
    /// A site anchored at `tok`.
    pub(crate) fn at(tok: &Token, what: String) -> Self {
        Self {
            byte: tok.start,
            line: tok.line,
            col: tok.col,
            what,
        }
    }
}

/// Runs one chain analysis and returns its findings (unsorted; the
/// report sorts globally).
///
/// `sources_by_file[i]` are the source sites of `files[i]`. A justified
/// `lint:allow(<rule>)` on a call-site line cuts the edges on that line
/// (and is marked used); one on a source line is left to the generic
/// suppression pass.
pub(crate) fn analyze_reachable(
    rule: &'static str,
    files: &[SourceFile],
    graph: &CallGraph,
    sources_by_file: &[Vec<Source>],
) -> Vec<Finding> {
    let roots = root_ids(graph, HOT_PATH_ROOTS);
    let cuts = |s: &Suppression, line: u32| {
        s.justified && s.applies_line == line && s.rules.iter().any(|r| r == rule)
    };
    let reach = graph.reach(&roots, |caller, edge| {
        !files[caller.file]
            .suppressions
            .iter()
            .any(|s| cuts(s, edge.line))
    });
    // Mark edge-cut allows used: any justified edge allow sitting on a
    // call-site line of a *reachable* caller did real work, whether or
    // not the callee stayed reachable through another path.
    for (id, node) in graph.fns.iter().enumerate() {
        if !reach.visited[id] {
            continue;
        }
        for edge in &node.edges {
            for s in &files[node.file].suppressions {
                if cuts(s, edge.line) {
                    s.used.set(true);
                }
            }
        }
    }

    let mut out = Vec::new();
    for (fi, (file, sources)) in files.iter().zip(sources_by_file).enumerate() {
        for src in sources {
            let Some(owner) = graph.enclosing(fi, src.byte) else {
                continue; // module-level site: no fn to attribute to
            };
            if !reach.visited[owner] || graph.fns[owner].in_test {
                continue;
            }
            let chain = graph.chain(&reach, owner);
            let hops: Vec<String> = chain
                .iter()
                .map(|&(f, line)| {
                    format!(
                        "{} ({}:{})",
                        graph.display(f),
                        files[graph.fns[f].file].path,
                        line
                    )
                })
                .collect();
            let root_name = chain
                .first()
                .map_or_else(String::new, |&(f, _)| graph.display(f));
            out.push(Finding {
                rule,
                severity: Severity::Deny,
                path: file.path.clone(),
                line: src.line,
                col: src.col,
                message: format!(
                    "{} is reachable from hot path `{}`: {} -> {} at line {}; \
                     fix the site, cut a false edge with a call-site lint:allow({}), \
                     or justify the site itself",
                    src.what,
                    root_name,
                    hops.join(" -> "),
                    src.what,
                    src.line,
                    rule,
                ),
            });
        }
    }
    out
}
