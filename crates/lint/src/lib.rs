//! livephase-lint: a zero-dependency, workspace-aware invariant linter.
//!
//! `clippy` checks Rust; this crate checks *livephase*. It encodes the
//! workspace invariants that keep the phase-monitoring pipeline
//! reproducible and crash-free — panic-freedom and determinism of
//! everything the hot-path roots reach over the workspace call graph,
//! and `SAFETY:` discipline around `unsafe` — as three machine-checked
//! rules over a hand-rolled token stream (no `syn`, no `rustc`
//! internals, no dependencies at all). It runs as
//! `livephase-cli lint [--json]` and gates `ci.sh`.
//!
//! Findings are suppressed per-site with
//! `// lint:allow(<rule>): <justification>`; the justification is
//! mandatory (an allow without one is itself a deny finding) and a
//! justified allow that no longer matches anything is reported as a
//! warning so stale suppressions cannot accumulate.
//!
//! See `DESIGN.md` §3f for the architecture and the rationale behind
//! each rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod source;
pub mod taint;
pub mod workspace;

use std::path::Path;

use report::{Finding, Report, Severity};
use source::SourceFile;

/// Synthetic rule id for a `lint:allow` missing its justification.
pub const RULE_ALLOW_JUSTIFICATION: &str = "lint-allow-justification";

/// Synthetic rule id for a justified `lint:allow` that suppressed
/// nothing (a typo'd rule id or a stale comment).
pub const RULE_UNUSED_SUPPRESSION: &str = "unused-suppression";

/// Lints a set of analyzed files with the full ruleset, applies
/// suppressions, and returns the sorted report.
///
/// Partial-scan entry point (unit tests, fixtures): whole-workspace-only
/// guards (hot-path-root existence) are off. The CLI path is
/// [`lint_workspace`], which turns them on.
#[must_use]
pub fn lint_files(files: &[SourceFile]) -> Report {
    lint_with(files, false)
}

/// [`lint_files`] with the strictness of a full-workspace scan made
/// explicit.
#[must_use]
fn lint_with(files: &[SourceFile], strict_roots: bool) -> Report {
    let asts: Vec<ast::Ast> = files.iter().map(parser::parse).collect();
    let graph = callgraph::CallGraph::build(files, &asts);
    let ws = rules::Workspace {
        files,
        asts: &asts,
        graph: &graph,
        strict_roots,
    };
    let rules = rules::all_rules();
    let mut raw: Vec<Finding> = Vec::new();
    for file in files {
        for rule in &rules {
            rule.check_file(file, &mut raw);
        }
    }
    for rule in &rules {
        rule.check_workspace(&ws, &mut raw);
    }

    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    // A finding survives unless a justified allow for its rule targets
    // its line in its file. Matching marks the allow as used.
    for finding in raw {
        let suppressed = files
            .iter()
            .find(|f| f.path == finding.path)
            .and_then(|f| {
                f.suppressions.iter().find(|s| {
                    s.justified
                        && s.applies_line == finding.line
                        && s.rules.iter().any(|r| r == finding.rule)
                })
            })
            .map(|s| s.used.set(true));
        if suppressed.is_some() {
            report.suppressed += 1;
        } else {
            report.findings.push(finding);
        }
    }
    // Meta-findings about the suppressions themselves.
    for file in files {
        for s in &file.suppressions {
            if !s.justified {
                report.findings.push(Finding {
                    rule: RULE_ALLOW_JUSTIFICATION,
                    severity: Severity::Deny,
                    path: file.path.clone(),
                    line: s.line,
                    col: 1,
                    message: "`lint:allow` without a justification suppresses nothing; \
                              write `// lint:allow(<rule>): <why this site is sound>`"
                        .to_owned(),
                });
            } else if !s.used.get() {
                report.findings.push(Finding {
                    rule: RULE_UNUSED_SUPPRESSION,
                    severity: Severity::Warn,
                    path: file.path.clone(),
                    line: s.line,
                    col: 1,
                    message: format!(
                        "`lint:allow({})` suppressed nothing; remove it or fix the rule id",
                        s.rules.join(", ")
                    ),
                });
            }
        }
    }
    report.sort();
    report
}

/// Lints the workspace rooted at `root`.
///
/// # Errors
///
/// Returns an error if the workspace's source tree cannot be read.
pub fn lint_workspace(root: &Path) -> Result<Report, workspace::WorkspaceError> {
    let files = workspace::load_sources(root)?;
    Ok(lint_with(&files, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(path: &str, crate_name: &str, src: &str) -> Vec<SourceFile> {
        vec![SourceFile::analyze(path, crate_name, src.to_owned())]
    }

    // `step_decision` is a tenants hot-path root, so its body is what
    // the chain rules report on.
    #[test]
    fn justified_allow_suppresses_and_counts() {
        let src = "pub fn step_decision(v: &[u8]) -> u8 { v[0] } // lint:allow(panic-reachable): caller guarantees non-empty";
        let report = lint_files(&one("a.rs", "tenants", src));
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(report.suppressed, 1);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn unjustified_allow_is_a_deny_finding_and_does_not_suppress() {
        let src = "pub fn step_decision(v: &[u8]) -> u8 { v[0] } // lint:allow(panic-reachable)";
        let report = lint_files(&one("a.rs", "tenants", src));
        assert!(!report.is_clean());
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"panic-reachable"), "{rules:?}");
        assert!(rules.contains(&RULE_ALLOW_JUSTIFICATION), "{rules:?}");
    }

    #[test]
    fn unused_allow_warns_without_gating() {
        let src = "// lint:allow(panic-reachable): nothing here actually panics\nfn f() {}";
        let report = lint_files(&one("a.rs", "tenants", src));
        assert!(report.is_clean());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, RULE_UNUSED_SUPPRESSION);
        assert_eq!(report.findings[0].severity, Severity::Warn);
    }

    #[test]
    fn allow_for_one_rule_does_not_hide_another() {
        let src = "pub fn step_decision(v: Vec<u8>) { let t = Instant::now(); let x = v[0]; } // lint:allow(panic-reachable): v is seeded with one element";
        let report = lint_files(&one("a.rs", "tenants", src));
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["determinism-taint"], "{rules:?}");
    }

    #[test]
    fn standalone_allow_covers_the_next_code_line() {
        let src = "pub fn step_decision() {\n    // lint:allow(determinism-taint): latency telemetry only, never a decision input\n    let t = Instant::now();\n}";
        let report = lint_files(&one("a.rs", "tenants", src));
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn report_is_sorted_across_files() {
        let files = vec![
            SourceFile::analyze(
                "b.rs",
                "tenants",
                "pub fn step_decision(v: &[u8]) { g(); v[0]; }".to_owned(),
            ),
            SourceFile::analyze("a.rs", "tenants", "fn g() { panic!(\"x\"); }".to_owned()),
        ];
        let report = lint_files(&files);
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.findings[0].path, "a.rs");
        assert_eq!(report.findings[1].path, "b.rs");
    }
}
