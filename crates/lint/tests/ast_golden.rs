//! Golden AST dumps: one representative file per workspace crate,
//! parsed and rendered with [`Ast::render`], compared byte-for-byte
//! against committed snapshots under `tests/ast_golden/`.
//!
//! These pin what the parser *sees* — item structure, fn signatures,
//! call sites, match arms — so a parser change that silently drops or
//! reshapes facts the rules depend on fails loudly here, with a diff.
//!
//! When a snapshot is stale because the source or the renderer changed
//! on purpose, regenerate with:
//! `LINT_AST_GOLDEN_REGEN=1 cargo test -p livephase-lint --test ast_golden`

use livephase_lint::parser::parse;
use livephase_lint::source::SourceFile;
use std::fs;
use std::path::Path;

/// (crate, workspace-relative path) of each representative file.
const REPRESENTATIVES: &[(&str, &str)] = &[
    ("core", "crates/core/src/lib.rs"),
    ("engine", "crates/engine/src/config.rs"),
    ("serve", "crates/serve/src/server.rs"),
    ("governor", "crates/governor/src/lib.rs"),
    ("pmsim", "crates/pmsim/src/lib.rs"),
    ("tenants", "crates/tenants/src/report.rs"),
    ("telemetry", "crates/telemetry/src/lib.rs"),
    ("workloads", "crates/workloads/src/lib.rs"),
    ("daq", "crates/daq/src/sense.rs"),
    ("experiments", "crates/experiments/src/table1.rs"),
    ("cli", "crates/cli/src/spec.rs"),
    ("lint", "crates/lint/src/report.rs"),
    ("bench", "crates/bench/src/lib.rs"),
];

#[test]
fn representative_files_match_their_committed_ast_dumps() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/ast_golden");
    let regen = std::env::var_os("LINT_AST_GOLDEN_REGEN").is_some();
    let mut failures = Vec::new();
    for (crate_name, rel) in REPRESENTATIVES {
        let src_path = root.join(rel);
        let text =
            fs::read_to_string(&src_path).unwrap_or_else(|e| panic!("{}: {e}", src_path.display()));
        let file = SourceFile::analyze(*rel, *crate_name, text);
        let rendered = parse(&file).render();
        let golden_path = golden_dir.join(format!("{crate_name}.ast.txt"));
        if regen {
            fs::create_dir_all(&golden_dir).unwrap();
            fs::write(&golden_path, &rendered).unwrap();
            continue;
        }
        let want = fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}; regenerate with LINT_AST_GOLDEN_REGEN=1",
                golden_path.display()
            )
        });
        if rendered != want {
            failures.push(format!(
                "{rel}: AST dump drifted from {} (regenerate with \
                 LINT_AST_GOLDEN_REGEN=1 if the change is intended)",
                golden_path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn dumps_are_nonempty_and_name_real_items() {
    // Sanity independent of the snapshots: every representative file
    // parses to at least one item and renders deterministically.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (crate_name, rel) in REPRESENTATIVES {
        let text = fs::read_to_string(root.join(rel)).unwrap();
        let file = SourceFile::analyze(*rel, *crate_name, text);
        let ast = parse(&file);
        assert!(ast.item_count() > 0, "{rel} parsed to zero items");
        assert_eq!(
            ast.render(),
            parse(&file).render(),
            "{rel} nondeterministic"
        );
    }
}
