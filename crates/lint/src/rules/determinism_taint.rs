//! `determinism-taint`: decision streams must be bit-reproducible, so
//! the hot-path roots must not *reach* a wall-clock read
//! (`std::time::Instant` / `SystemTime`), a process-environment read
//! (`std::env`), or a `HashMap`/`HashSet` iteration (its order varies
//! run to run under the default seeded hasher) anywhere in the
//! workspace. Simulated time and sorted or dense structures only.
//! Sources are those constructs in any crate's non-test code;
//! reachability runs over the call graph from
//! [`crate::taint::HOT_PATH_ROOTS`], and each violation prints the
//! shortest call chain from the root to the tainting construct.
//!
//! Wall-clock reads that feed *telemetry only* — latency histograms,
//! trace timestamps — are the sanctioned exception, carried per-site
//! with a justified `lint:allow(determinism-taint)` on the source line
//! so each one stays visible and reviewed. As in `panic-reachable`, the
//! same allow on a call-site line cuts the edges on that line.

use super::{Rule, Workspace};
use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::source::SourceFile;
use crate::taint::{self, Source};

/// See the module docs.
#[derive(Debug)]
pub struct DeterminismTaint;

const WALL_CLOCK_TYPES: [&str; 2] = ["Instant", "SystemTime"];
const MAP_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Scans one file for nondeterminism sources in non-test code. The
/// site's `what` names the construct: `` wall-clock `Instant` ``,
/// `` `std::env` ``, `` iteration of `seen` (HashMap/HashSet) ``.
pub(crate) fn determinism_sites(file: &SourceFile) -> Vec<Source> {
    let toks: Vec<_> = file.code_tokens().collect();
    let text = |k: usize| toks.get(k).map_or("", |t| file.tok_text(t));

    // Aliases of map types (`type PidMap = HashMap<...>;`) count too.
    let mut map_types: Vec<String> = MAP_TYPES.iter().map(|s| (*s).to_owned()).collect();
    for k in 0..toks.len() {
        if text(k) == "type" && toks.get(k + 1).map(|t| t.kind) == Some(TokenKind::Ident) {
            let mut m = k + 2;
            while m < toks.len() && text(m) != ";" {
                if MAP_TYPES.contains(&text(m)) {
                    map_types.push(text(k + 1).to_owned());
                    break;
                }
                m += 1;
            }
        }
    }

    // Variables declared with a map type: `name: HashMap<..>`,
    // `name: PidMap`, or `let [mut] name = HashMap::new()`.
    let mut map_vars: Vec<String> = Vec::new();
    for k in 0..toks.len() {
        if toks[k].kind != TokenKind::Ident || !map_types.contains(&text(k).to_owned()) {
            continue;
        }
        // Walk back over a `std :: collections ::`-style path prefix.
        let mut j = k;
        while j >= 3 && text(j - 1) == ":" && text(j - 2) == ":" {
            j -= 3; // the preceding path segment ident
        }
        if j >= 2 && text(j - 1) == ":" && text(j - 2) != ":" {
            // `name : <map type>` — an annotation.
            if toks[j - 2].kind == TokenKind::Ident {
                map_vars.push(text(j - 2).to_owned());
            }
        } else if j >= 2 && text(j - 1) == "=" && toks[j - 2].kind == TokenKind::Ident {
            // `let [mut] name = HashMap::new()` — a constructor bind.
            map_vars.push(text(j - 2).to_owned());
        }
    }

    let mut out = Vec::new();
    for k in 0..toks.len() {
        let t = toks[k];
        if file.in_test(t.start) || file.in_attr(t.start) {
            continue;
        }
        if t.kind == TokenKind::Ident && WALL_CLOCK_TYPES.contains(&text(k)) {
            out.push(Source::at(t, format!("wall-clock `{}`", text(k))));
        }
        if text(k) == "std" && text(k + 1) == ":" && text(k + 2) == ":" && text(k + 3) == "env" {
            out.push(Source::at(t, "`std::env`".to_owned()));
        }
        // `map.iter()`-family calls on a known map variable.
        if t.kind == TokenKind::Ident
            && map_vars.contains(&text(k).to_owned())
            && text(k + 1) == "."
            && ITER_METHODS.contains(&text(k + 2))
            && text(k + 3) == "("
        {
            out.push(Source::at(
                t,
                format!("iteration of `{}` (HashMap/HashSet)", text(k)),
            ));
        }
        // `for ... in <expr mentioning a map var> {`
        if text(k) == "for" {
            let mut m = k + 1;
            let mut seen_in = false;
            while m < toks.len() && m < k + 64 && text(m) != "{" {
                if text(m) == "in" {
                    seen_in = true;
                } else if seen_in
                        && toks[m].kind == TokenKind::Ident
                        && map_vars.contains(&text(m).to_owned())
                        // `for x in map.keys()` is already reported above.
                        && text(m + 1) != "."
                {
                    out.push(Source::at(
                        toks[m],
                        format!("iteration of `{}` (HashMap/HashSet)", text(m)),
                    ));
                }
                m += 1;
            }
        }
    }
    out
}

impl Rule for DeterminismTaint {
    fn id(&self) -> &'static str {
        "determinism-taint"
    }

    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>) {
        let sources: Vec<Vec<Source>> = ws.files.iter().map(determinism_sites).collect();
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
        run_workspace_rule(&DeterminismTaint, &files)
    }

    #[test]
    fn wall_clock_behind_a_helper_crate_is_caught() {
        let got = check(&[
            (
                "crates/engine/src/engine.rs",
                "engine",
                "use livephase_clock::stamp;\n\
                 pub struct DecisionEngine;\n\
                 impl DecisionEngine { pub fn step(&mut self) -> u64 { stamp() } }\n",
            ),
            (
                "crates/clock/src/lib.rs",
                "clock",
                "pub fn stamp() -> u64 { Instant::now().elapsed().as_micros() as u64 }\n",
            ),
        ]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, "determinism-taint");
        assert!(
            got[0].message.contains("engine::DecisionEngine::step")
                && got[0].message.contains("clock::stamp")
                && got[0].message.contains("wall-clock `Instant`"),
            "{}",
            got[0].message
        );
    }

    #[test]
    fn cold_sites_stay_quiet() {
        let got = check(&[
            (
                "crates/engine/src/engine.rs",
                "engine",
                "pub struct DecisionEngine;\n\
                 impl DecisionEngine { pub fn step(&mut self) -> u64 { 0 } }\n",
            ),
            (
                "crates/clock/src/lib.rs",
                "clock",
                "pub fn cold() -> String { std::env::var(\"HOME\").unwrap_or_default() }\n",
            ),
        ]);
        assert!(got.is_empty(), "{got:?}");
    }

    fn site_lines(src: &str) -> Vec<u32> {
        let f = SourceFile::analyze("x.rs", "engine", src.to_owned());
        determinism_sites(&f).iter().map(|s| s.line).collect()
    }

    #[test]
    fn wall_clock_and_env_are_sites() {
        let src = "use std::time::Instant;\nfn f() {\n    let t = Instant::now();\n    let s = SystemTime::now();\n    let v = std::env::var(\"X\");\n}";
        assert_eq!(site_lines(src), vec![1, 3, 4, 5]);
    }

    #[test]
    fn hashmap_iteration_is_a_site_but_lookup_is_not() {
        let src = "use std::collections::HashMap;\nfn f(m: HashMap<u32, u32>) {\n    let _ = m.get(&1);\n    for v in m.values() { let _ = v; }\n    m.insert(1, 2);\n}";
        assert_eq!(site_lines(src), vec![4]);
    }

    #[test]
    fn alias_and_constructor_binds_are_tracked() {
        let src = "type PidMap = HashMap<u32, u32>;\nstruct S { pids: PidMap }\nimpl S {\n    fn g(&self) { self.pids.values().count(); }\n}\nfn h() {\n    let mut seen = HashMap::new();\n    for k in &seen { let _ = k; }\n    seen.insert(1, 1);\n}";
        assert_eq!(site_lines(src), vec![4, 8]);
    }

    #[test]
    fn btreemap_iteration_is_not_a_site() {
        let src = "fn f(m: std::collections::BTreeMap<u32, u32>) { for v in m.values() {} }";
        assert!(site_lines(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn f() { let t = std::time::Instant::now(); } }";
        assert!(site_lines(src).is_empty());
    }
}
