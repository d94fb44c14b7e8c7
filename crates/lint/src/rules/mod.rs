//! The rule set: each rule encodes one invariant the workspace's tests
//! and review process previously enforced only by convention.
//!
//! | rule                       | scope                  | invariant |
//! |----------------------------|------------------------|-----------|
//! | `panic-reachable`          | whole workspace        | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`/`[...]` indexing is transitively reachable from the deployed hot-path roots (call graph) |
//! | `determinism-taint`        | whole workspace        | no `Instant`/`SystemTime`/`std::env` read or `HashMap`/`HashSet` iteration is transitively reachable from the hot-path roots (call graph) |
//! | `safety-comment`           | whole workspace        | every `unsafe` is preceded by a `// SAFETY:` comment |
//!
//! The two call-graph rules start from the *hot-path roots* (see
//! [`crate::taint::HOT_PATH_ROOTS`]) and follow the workspace call
//! graph across crates, so a helper crate cannot launder a panic or a
//! wall-clock read into the decision path, and code no root reaches
//! needs no annotation.
//!
//! Frame-tag uniqueness and decoder exhaustiveness are not rules: the
//! serve crate's frame tags are a `#[repr(u8)]` enum, so rustc rejects a
//! duplicate tag and every dispatch over it is an exhaustive `match`.
//! Nor is metric naming: every metric is declared once in
//! `livephase_telemetry::catalogue`, whose unit test checks the names
//! and the metric mentions in `ci.sh`, README and DESIGN.md, and
//! `timed_span!` rejects a bad span literal at compile time. Nor is
//! CLI-flag documentation: every command and flag is declared once in
//! `livephase_cli::args`, whose tables drive both `parse()` and
//! `usage()`, and a unit test there parses every README command line.

pub mod determinism_taint;
pub mod panic_reachable;
pub mod safety;

use crate::ast::Ast;
use crate::callgraph::CallGraph;
use crate::report::{Finding, Severity};
use crate::source::SourceFile;

/// Everything a workspace-level check can see: the analyzed files, their
/// ASTs (parallel to `files`) and the resolved cross-crate call graph.
/// Built once per lint run and shared by every rule.
#[derive(Debug)]
pub struct Workspace<'a> {
    /// Every analyzed first-party source file.
    pub files: &'a [SourceFile],
    /// `asts[i]` is the parse of `files[i]`.
    pub asts: &'a [Ast],
    /// The workspace call graph over `files`/`asts`.
    pub graph: &'a CallGraph,
    /// Whether the scan set is the *full* workspace. Guards that only
    /// make sense over everything — "hot-path root exists" — are
    /// skipped for partial scans (fixtures, unit tests).
    pub strict_roots: bool,
}

/// One lint rule.
pub trait Rule {
    /// Stable rule id, usable in `lint:allow(<id>)`.
    fn id(&self) -> &'static str;

    /// Whether findings from this rule gate the run.
    fn severity(&self) -> Severity {
        Severity::Deny
    }

    /// Scans one file in isolation.
    fn check_file(&self, _file: &SourceFile, _out: &mut Vec<Finding>) {}

    /// Scans cross-file state (after every file was analyzed and the
    /// call graph built).
    fn check_workspace(&self, _ws: &Workspace<'_>, _out: &mut Vec<Finding>) {}
}

/// The full shipped ruleset, in a fixed order.
#[must_use]
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(panic_reachable::PanicReachable),
        Box::new(determinism_taint::DeterminismTaint),
        Box::new(safety::SafetyComment),
    ]
}

/// Test helper: run one rule's workspace pass over ad-hoc files with a
/// freshly built AST set and call graph.
#[cfg(test)]
pub(crate) fn run_workspace_rule(rule: &dyn Rule, files: &[SourceFile]) -> Vec<Finding> {
    let asts: Vec<Ast> = files.iter().map(crate::parser::parse).collect();
    let graph = CallGraph::build(files, &asts);
    let ws = Workspace {
        files,
        asts: &asts,
        graph: &graph,
        strict_roots: false,
    };
    let mut out = Vec::new();
    rule.check_workspace(&ws, &mut out);
    out
}

/// Helper: build a finding anchored at a token.
pub(crate) fn finding_at(
    rule: &'static str,
    severity: Severity,
    file: &SourceFile,
    tok: &crate::lexer::Token,
    message: String,
) -> Finding {
    Finding {
        rule,
        severity,
        path: file.path.clone(),
        line: tok.line,
        col: tok.col,
        message,
    }
}
