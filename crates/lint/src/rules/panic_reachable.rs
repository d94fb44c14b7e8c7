//! `panic-reachable`: the deployed hot paths must not be able to
//! panic. Sources are the panicky constructs in any crate's non-test
//! code: `.unwrap()`, `.expect(...)`, the `panic!`/`todo!`/
//! `unimplemented!` macros, and slice/array indexing with `[...]`
//! (which hides a bounds panic). `unreachable!` stays legal: the
//! workspace idiom for construction-time impossibilities (validated
//! static configuration) is an explicit `unreachable!` with the
//! invariant named, and those sites run before any sample is in flight.
//! Reachability runs over the workspace call graph from
//! [`crate::taint::HOT_PATH_ROOTS`]; each violation prints the full
//! shortest call chain from the root to the site.
//!
//! Suppression: a justified `lint:allow(panic-reachable)` on a call-site
//! line cuts the edges on that line; on the source line it exempts the
//! site (via the ordinary suppression pass).

use super::{Rule, Workspace};
use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::source::SourceFile;
use crate::taint::{self, Source};

/// See the module docs.
#[derive(Debug)]
pub struct PanicReachable;

const METHODS: [&str; 2] = ["unwrap", "expect"];
const MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];

/// Rust keywords that can legitimately precede a `[` without the bracket
/// being an index expression (slice patterns, array types, and friends).
const KEYWORDS_BEFORE_BRACKET: [&str; 37] = [
    "as", "await", "become", "box", "break", "const", "continue", "crate", "do", "dyn", "else",
    "enum", "extern", "fn", "for", "if", "impl", "in", "let", "loop", "macro", "match", "mod",
    "move", "mut", "pub", "ref", "return", "static", "struct", "trait", "type", "union", "unsafe",
    "use", "where", "yield",
];

/// Scans one file for panicky constructs in non-test, non-attr code.
/// The site's `what` names the construct: `` `.unwrap()` ``,
/// `` `panic!` ``, `` indexing `[...]` ``.
pub(crate) fn panic_sites(file: &SourceFile) -> Vec<Source> {
    let toks: Vec<_> = file.code_tokens().collect();
    let text = |k: usize| toks.get(k).map_or("", |t| file.tok_text(t));
    let mut out = Vec::new();
    for k in 0..toks.len() {
        let t = toks[k];
        if file.in_test(t.start) || file.in_attr(t.start) {
            continue;
        }
        // `.unwrap(` / `.expect(`
        if text(k) == "."
            && METHODS.contains(&text(k + 1))
            && text(k + 2) == "("
            && !file.in_test(toks[k + 1].start)
        {
            out.push(Source::at(toks[k + 1], format!("`.{}()`", text(k + 1))));
        }
        // `panic!` / `todo!` / `unimplemented!`
        if t.kind == TokenKind::Ident && MACROS.contains(&text(k)) && text(k + 1) == "!" {
            out.push(Source::at(t, format!("`{}!`", text(k))));
        }
        // Index expressions: `expr[...]`. A `[` is an index when the
        // previous code token can end an expression (identifier that
        // is not a keyword, `)`, `]`, or `?`) and is not the tail of
        // an attribute.
        if text(k) == "[" && k > 0 {
            let prev = toks[k - 1];
            if file.in_attr(prev.start) {
                continue;
            }
            let prev_text = file.tok_text(prev);
            let indexes = match prev.kind {
                TokenKind::Ident => !KEYWORDS_BEFORE_BRACKET.contains(&prev_text),
                TokenKind::Punct => matches!(prev_text, ")" | "]" | "?"),
                _ => false,
            };
            if indexes {
                out.push(Source::at(t, "indexing `[...]`".to_owned()));
            }
        }
    }
    out
}

impl Rule for PanicReachable {
    fn id(&self) -> &'static str {
        "panic-reachable"
    }

    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>) {
        if ws.strict_roots {
            out.extend(taint::missing_root_findings(
                self.id(),
                ws.graph,
                ws.files,
                taint::HOT_PATH_ROOTS,
            ));
        }
        let sources: Vec<Vec<Source>> = ws.files.iter().map(panic_sites).collect();
        out.extend(taint::analyze_reachable(
            self.id(),
            ws.files,
            ws.graph,
            &sources,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::run_workspace_rule;
    use crate::source::SourceFile;

    fn check(sources: &[(&str, &str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, c, s)| SourceFile::analyze(*p, *c, (*s).to_owned()))
            .collect();
        run_workspace_rule(&PanicReachable, &files)
    }

    // A minimal tenants crate: both roots present so the missing-root
    // guard stays quiet even in strict mode.
    const TENANTS_ROOTS: &str = "pub struct Arbiter;\n\
         impl Arbiter { pub fn arbitrate(&mut self, r: u32) -> u32 { helper(r) } }\n\
         pub fn step_decision(x: u32) -> u32 { x }\n";

    #[test]
    fn reachable_panic_reports_the_full_chain() {
        let got = check(&[(
            "crates/tenants/src/cluster.rs",
            "tenants",
            &format!("{TENANTS_ROOTS}fn helper(r: u32) -> u32 {{ deep(r) }}\nfn deep(r: u32) -> u32 {{ VALUES[r as usize] }}\nconst VALUES: [u32; 4] = [0, 1, 2, 3];\n"),
        )]);
        assert_eq!(got.len(), 1, "{got:?}");
        let f = &got[0];
        assert_eq!(f.rule, "panic-reachable");
        assert!(
            f.message.contains("tenants::Arbiter::arbitrate")
                && f.message.contains("tenants::helper")
                && f.message.contains("tenants::deep"),
            "chain names every hop: {}",
            f.message
        );
        assert!(f.message.contains("indexing `[...]`"), "{}", f.message);
    }

    #[test]
    fn unreachable_panics_do_not_fire() {
        let got = check(&[(
            "crates/tenants/src/cluster.rs",
            "tenants",
            &format!("{TENANTS_ROOTS}fn cold_path(v: &[u8]) -> u8 {{ v[0] }}\n"),
        )]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn cross_crate_laundering_is_caught() {
        // A helper crate with no root of its own unwraps; the tenants
        // hot path calls into it.
        let got = check(&[
            (
                "crates/tenants/src/cluster.rs",
                "tenants",
                &format!("{}\n", TENANTS_ROOTS.trim_end()),
            ),
            (
                "crates/util/src/lib.rs",
                "util",
                "pub fn helper(r: u32) -> u32 { std::env::var(\"X\").unwrap(); r }\n",
            ),
        ]);
        // The arbiter's bare `helper(r)` resolves within its own crate
        // only, so wire it explicitly via an import.
        let got2 = check(&[
            (
                "crates/tenants/src/cluster.rs",
                "tenants",
                &format!("use livephase_util::helper;\n{TENANTS_ROOTS}"),
            ),
            (
                "crates/util/src/lib.rs",
                "util",
                "pub fn helper(r: u32) -> u32 { std::env::var(\"X\").unwrap(); r }\n",
            ),
        ]);
        assert!(got.is_empty(), "bare name does not cross crates: {got:?}");
        assert_eq!(got2.len(), 1, "{got2:?}");
        assert!(got2[0].path.contains("util"), "{got2:?}");
        assert!(got2[0].message.contains("`.unwrap()`"));
    }

    #[test]
    fn call_site_allow_cuts_the_edge() {
        let got = check(&[(
            "crates/tenants/src/cluster.rs",
            "tenants",
            "pub struct Arbiter;\n\
             impl Arbiter { pub fn arbitrate(&mut self, r: u32) -> u32 { helper(r) } } // lint:allow(panic-reachable): helper's panic is a cold startup path\n\
             pub fn step_decision(x: u32) -> u32 { x }\n\
             fn helper(r: u32) -> u32 { panic!(\"boom\") }\n",
        )]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn call_site_cut_severs_only_its_own_line() {
        // The cut sits on `cold(r)`'s line; `hot(r)` on the next line is
        // a sibling call from the same root and must stay reachable.
        let got = check(&[(
            "crates/tenants/src/cluster.rs",
            "tenants",
            "pub struct Arbiter;\n\
             impl Arbiter { pub fn arbitrate(&mut self, r: u32) -> u32 { r } }\n\
             pub fn step_decision(r: u32) -> u32 {\n\
                 // lint:allow(panic-reachable): cold is entered only at startup\n\
                 let a = cold(r);\n\
                 a + hot(r)\n\
             }\n\
             fn cold(r: u32) -> u32 { panic!(\"boom\") }\n\
             fn hot(r: u32) -> u32 { TABLE[r as usize] }\n\
             const TABLE: [u32; 4] = [0, 1, 2, 3];\n",
        )]);
        let lines: Vec<u32> = got.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![9], "{got:?}");
        assert!(
            got[0].message.contains("tenants::hot"),
            "{}",
            got[0].message
        );
    }

    fn site_lines(src: &str) -> Vec<u32> {
        let f = SourceFile::analyze("x.rs", "core", src.to_owned());
        panic_sites(&f).iter().map(|s| s.line).collect()
    }

    #[test]
    fn sites_cover_every_forbidden_construct() {
        let src = "fn f(v: Vec<u8>) {\n    v.unwrap();\n    v.expect(\"x\");\n    panic!(\"no\");\n    todo!();\n    unimplemented!();\n    let _ = v[0];\n}";
        assert_eq!(site_lines(src), vec![2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn f(v: Vec<u8>) { v.unwrap(); let _ = v[0]; } }";
        assert!(site_lines(src).is_empty());
    }

    #[test]
    fn non_index_brackets_are_not_sites() {
        let src = "#[derive(Debug)]\n#[repr(u8)]\nstruct S;\nfn f() {\n    let a: [u8; 2] = [0, 1];\n    let v = vec![1];\n    let [x, y] = a;\n    let s: &[u8] = &a;\n    let _ = (x, y, v, s);\n}";
        assert!(site_lines(src).is_empty());
    }

    #[test]
    fn index_after_call_or_question_mark_is_a_site() {
        let src = "fn f() { g()[0]; h?[1]; m[0][1]; }";
        assert_eq!(site_lines(src).len(), 4, "g()[0], h?[1], m[0], [1]");
    }

    #[test]
    fn unreachable_is_legal() {
        assert!(site_lines("fn f() { unreachable!(\"static config is valid\") }").is_empty());
    }

    #[test]
    fn comments_and_strings_are_not_sites() {
        let src = "// v.unwrap() in a comment\nfn f() { let s = \"v.unwrap()\"; let _ = s; }";
        assert!(site_lines(src).is_empty());
    }

    #[test]
    fn strict_mode_reports_renamed_roots() {
        let files = vec![SourceFile::analyze(
            "crates/engine/src/engine.rs",
            "engine",
            "pub struct DecisionEngine;\nimpl DecisionEngine { pub fn stepp(&mut self) {} }"
                .to_owned(),
        )];
        let asts: Vec<crate::ast::Ast> = files.iter().map(crate::parser::parse).collect();
        let graph = crate::callgraph::CallGraph::build(&files, &asts);
        let ws = Workspace {
            files: &files,
            asts: &asts,
            graph: &graph,
            strict_roots: true,
        };
        let mut out = Vec::new();
        PanicReachable.check_workspace(&ws, &mut out);
        let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("engine::step`")), "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("engine::step_many`")),
            "{msgs:?}"
        );
        assert_eq!(out.len(), 2, "only the engine roots are checked here");
    }
}
