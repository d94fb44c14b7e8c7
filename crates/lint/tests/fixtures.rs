//! Fixture-driven end-to-end tests.
//!
//! Each file under `lint_fixtures/` trips exactly one rule at known
//! locations; the `lint_allow` fixture exercises the suppression
//! protocol (justified, unjustified, unused). Together they pin the
//! exit-code contract the CI gate relies on: a fixture report is never
//! clean, so `livephase-cli lint` over such code exits 1.

use livephase_lint::report::{Report, Severity};
use livephase_lint::source::SourceFile;
use livephase_lint::{lint_files, RULE_ALLOW_JUSTIFICATION, RULE_UNUSED_SUPPRESSION};

/// Lints one fixture in isolation under the given crate identity.
fn lint_fixture(path: &str, crate_name: &str, src: &str) -> Report {
    let files = vec![SourceFile::analyze(path, crate_name, src.to_owned())];
    lint_files(&files)
}

/// Lines at which `rule` fired, in report order.
fn lines(report: &Report, rule: &str) -> Vec<u32> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn safety_fixture_fires_only_on_the_undocumented_site() {
    // Inside the sanctioned unsafe island, documentation is what gates.
    let report = lint_fixture(
        "crates/serve/src/reactor.rs",
        "serve",
        include_str!("lint_fixtures/safety_comment.rs"),
    );
    assert!(!report.is_clean());
    assert_eq!(
        lines(&report, "safety-comment"),
        vec![3],
        "{}",
        report.render_text()
    );
    assert_eq!(report.findings.len(), 1, "the documented site passes");
}

#[test]
fn safety_fixture_fires_everywhere_outside_the_island() {
    // Off the island, even the impeccably documented site is a finding:
    // the allowlist in `rules::safety` is the only sanctioned scope.
    let report = lint_fixture(
        "safety_comment.rs",
        "workloads", // the rule applies workspace-wide, not just one crate
        include_str!("lint_fixtures/safety_comment.rs"),
    );
    assert!(!report.is_clean());
    assert_eq!(
        lines(&report, "safety-comment"),
        vec![3, 6],
        "{}",
        report.render_text()
    );
    assert_eq!(report.findings.len(), 2, "both sites fire off-island");
}

#[test]
fn panic_reachable_fixture_prints_the_full_call_chain() {
    let report = lint_fixture(
        "crates/tenants/src/cluster.rs",
        "tenants",
        include_str!("lint_fixtures/panic_reachable.rs"),
    );
    assert!(!report.is_clean());
    // `.unwrap()`, `.expect()`, `panic!`, `unimplemented!`, `todo!`,
    // indexing; `cold`'s indexing is reached by no root.
    assert_eq!(
        lines(&report, "panic-reachable"),
        vec![6, 7, 9, 12, 20, 26],
        "{}",
        report.render_text()
    );
    let chain = report
        .findings
        .iter()
        .find(|f| f.rule == "panic-reachable" && f.line == 26)
        .expect("chain finding");
    assert!(
        chain
            .message
            .contains("reachable from hot path `tenants::step_decision`"),
        "{}",
        chain.message
    );
    for hop in ["tenants::step_decision", "tenants::route", "tenants::pick"] {
        assert!(
            chain.message.contains(hop),
            "missing hop {hop}: {}",
            chain.message
        );
    }
    assert!(
        chain.message.contains(" -> ") && chain.message.contains("crates/tenants/src/cluster.rs:"),
        "hops carry clickable locations: {}",
        chain.message
    );
    assert_eq!(report.findings.len(), 6, "no other rule fires here");
}

#[test]
fn determinism_taint_fixture_chains_through_the_helper() {
    let report = lint_fixture(
        "crates/tenants/src/sched.rs",
        "tenants",
        include_str!("lint_fixtures/determinism_taint.rs"),
    );
    assert!(!report.is_clean());
    // `SystemTime`, `std::env`, `.values()` and `for .. in &m` over a
    // HashMap, then `Instant` in the helper; the module-level import
    // and `cold`'s read are reached by no root.
    assert_eq!(
        lines(&report, "determinism-taint"),
        vec![9, 10, 12, 15, 23],
        "{}",
        report.render_text()
    );
    let chain = report
        .findings
        .iter()
        .find(|f| f.line == 23)
        .expect("chain finding");
    assert!(
        chain.message.contains("tenants::step_decision")
            && chain.message.contains("tenants::jitter")
            && chain.message.contains("wall-clock `Instant`"),
        "{}",
        chain.message
    );
    assert_eq!(report.findings.len(), 5);
}

#[test]
fn lint_allow_fixture_exercises_the_suppression_protocol() {
    let report = lint_fixture(
        "crates/tenants/src/lint_allow.rs",
        "tenants",
        include_str!("lint_fixtures/lint_allow.rs"),
    );
    // The justified trailing allow on line 8 suppresses its finding.
    assert_eq!(report.suppressed, 1, "{}", report.render_text());
    // The unjustified allow on line 12 suppresses nothing: the indexing
    // finding survives AND the bare allow is itself a deny finding.
    assert_eq!(lines(&report, "panic-reachable"), vec![12]);
    assert_eq!(lines(&report, RULE_ALLOW_JUSTIFICATION), vec![12]);
    // The justified-but-unused allow on line 15 warns without gating.
    assert_eq!(lines(&report, RULE_UNUSED_SUPPRESSION), vec![15]);
    let unused = report
        .findings
        .iter()
        .find(|f| f.rule == RULE_UNUSED_SUPPRESSION)
        .expect("unused-suppression reported");
    assert_eq!(unused.severity, Severity::Warn);
    assert!(!report.is_clean(), "the unjustified allow still gates");
    assert_eq!(report.deny_count(), 2);
    assert_eq!(report.findings.len(), 3);
}

#[test]
fn every_fixture_would_fail_the_ci_gate() {
    // The gate's contract: any fixture-bearing tree exits 1. Checked at
    // the library level: no fixture report is clean.
    let fixtures: [(&str, &str, &str); 4] = [
        (
            "safety_comment.rs",
            "workloads",
            include_str!("lint_fixtures/safety_comment.rs"),
        ),
        (
            "crates/tenants/src/lint_allow.rs",
            "tenants",
            include_str!("lint_fixtures/lint_allow.rs"),
        ),
        (
            "crates/tenants/src/cluster.rs",
            "tenants",
            include_str!("lint_fixtures/panic_reachable.rs"),
        ),
        (
            "crates/tenants/src/sched.rs",
            "tenants",
            include_str!("lint_fixtures/determinism_taint.rs"),
        ),
    ];
    for (path, crate_name, src) in fixtures {
        let report = lint_fixture(path, crate_name, src);
        assert!(!report.is_clean(), "{path} must gate");
        assert!(
            report.render_json().contains("\"details\": ["),
            "{path} renders machine-readable details"
        );
    }
}

#[test]
fn power_model_zoo_backends_are_hot_path_roots() {
    // The pmsim `power/` subdirectory holds the model zoo; every
    // backend's `power` method is a hot-path root (the arbiter's budget
    // proof rests on it), so a panicky construct there must gate.
    let report = lint_fixture(
        "crates/pmsim/src/power/linear.rs",
        "pmsim",
        "impl Linear { fn power(&self, xs: &[f64]) -> f64 { xs[0] } }\n",
    );
    assert_eq!(
        lines(&report, "panic-reachable"),
        vec![1],
        "{}",
        report.render_text()
    );

    // And the workspace walk actually visits every zoo source file (a
    // rename could otherwise silently drop the module from the scan).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = livephase_lint::workspace::load_sources(&root).unwrap();
    for module in ["mod.rs", "analytic.rs", "linear.rs", "tree.rs"] {
        assert!(
            files
                .iter()
                .any(|f| f.crate_name == "pmsim"
                    && f.path == format!("crates/pmsim/src/power/{module}")),
            "workspace scan misses power/{module}"
        );
    }
}
