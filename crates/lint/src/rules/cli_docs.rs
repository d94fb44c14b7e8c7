//! `cli-flag-docs`: the CLI's parsed `--flags` and its documented
//! `--flags` must agree, in both directions. The parsed set comes from
//! the string-literal match arms of `crates/cli/src/args.rs` (the
//! hand-rolled parser dispatches on exact flag strings); the documented
//! set comes from string literals in `crates/cli/src/lib.rs` (the
//! `usage()` text) plus the README's command lines. A parsed flag no
//! document mentions is invisible to users; a documented flag the
//! parser rejects is a promise the binary breaks with "unknown option".
//!
//! README lines count as command lines when they invoke the binary:
//! `cargo run ... -- <args>` lines contribute the text after the last
//! ` -- ` separator (so cargo's own `--release` is not misread), and
//! non-cargo lines mentioning `livephase` contribute the text after it.

use super::{Rule, Workspace};
use crate::report::{Finding, Severity};

/// See the module docs.
#[derive(Debug)]
pub struct CliFlagDocs;

/// `--help` aliases the `help` subcommand in the command (not flag)
/// dispatch; it is not an option and needs no flag-table entry.
const EXEMPT: [&str; 1] = ["--help"];

/// Extracts every `--flag` occurrence from `text` with its byte offset.
/// A flag starts at `--` not preceded by `-`/alphanumeric, continues
/// with a lowercase letter, then `[-a-z0-9]*`.
fn extract_flags(text: &str) -> Vec<(String, usize)> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < b.len() {
        let boundary = i == 0 || !(b[i - 1] == b'-' || b[i - 1].is_ascii_alphanumeric());
        if boundary && b[i] == b'-' && b[i + 1] == b'-' && b[i + 2].is_ascii_lowercase() {
            let mut j = i + 2;
            while j < b.len()
                && (b[j] == b'-' || b[j].is_ascii_lowercase() || b[j].is_ascii_digit())
            {
                j += 1;
            }
            out.push((text[i..j].to_owned(), i));
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// Flags a README line documents, if it is a command line at all.
fn readme_line_flags(line: &str) -> Vec<String> {
    let segment = if line.contains("cargo") {
        // Only the binary's own args, after the last ` -- ` separator;
        // a cargo line without one documents nothing (its flags are
        // cargo's).
        match line.rfind(" -- ") {
            Some(at) => &line[at + 4..],
            None => return Vec::new(),
        }
    } else if let Some(at) = line.find("livephase") {
        &line[at..]
    } else {
        return Vec::new();
    };
    extract_flags(segment).into_iter().map(|(f, _)| f).collect()
}

impl Rule for CliFlagDocs {
    fn id(&self) -> &'static str {
        "cli-flag-docs"
    }

    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>) {
        let Some(args_idx) = ws
            .files
            .iter()
            .position(|f| f.crate_name == "cli" && f.path.ends_with("src/args.rs"))
        else {
            return; // no CLI parser in the scan set
        };

        // Parsed flags: string-literal match-arm patterns of args.rs.
        let mut parsed: Vec<(String, u32)> = Vec::new();
        ws.asts[args_idx].walk(|item| {
            if let crate::ast::ItemKind::Fn(f) = &item.kind {
                for m in &f.matches {
                    for arm in &m.arms {
                        for pat in &arm.pat {
                            let lit = pat.trim_matches('"');
                            if pat.starts_with('"')
                                && lit.starts_with("--")
                                && lit.len() > 2
                                && !EXEMPT.contains(&lit)
                            {
                                parsed.push((lit.to_owned(), arm.span.line));
                            }
                        }
                    }
                }
            }
        });

        // Documented flags: usage() string literals + README command
        // lines, each with an anchor for the reverse direction.
        let mut documented: Vec<(String, String, u32)> = Vec::new();
        for file in ws.files {
            if file.crate_name != "cli" || !file.path.ends_with("src/lib.rs") {
                continue;
            }
            for tok in file.code_tokens() {
                if tok.kind != crate::lexer::TokenKind::Str {
                    continue;
                }
                let text = file.tok_text(tok);
                for (flag, off) in extract_flags(text) {
                    // Multi-line literal: count newlines up to the match.
                    let line = tok.line
                        + u32::try_from(text[..off].bytes().filter(|&b| b == b'\n').count())
                            .unwrap_or(0);
                    documented.push((flag, file.path.clone(), line));
                }
            }
        }
        for doc in ws.docs {
            for (i, line) in doc.text.lines().enumerate() {
                for flag in readme_line_flags(line) {
                    let lineno = u32::try_from(i + 1).unwrap_or(u32::MAX);
                    documented.push((flag, doc.path.clone(), lineno));
                }
            }
        }

        let args_path = &ws.files[args_idx].path;
        let mut reported: Vec<&str> = Vec::new();
        for (flag, line) in &parsed {
            if documented.iter().any(|(d, _, _)| d == flag) || reported.contains(&flag.as_str()) {
                continue;
            }
            reported.push(flag);
            out.push(Finding {
                rule: self.id(),
                severity: Severity::Deny,
                path: args_path.clone(),
                line: *line,
                col: 1,
                message: format!(
                    "flag `{flag}` is parsed but documented nowhere (usage() or README); \
                     users cannot discover it"
                ),
            });
        }
        let mut reported: Vec<&str> = Vec::new();
        for (flag, path, line) in &documented {
            if parsed.iter().any(|(p, _)| p == flag) || reported.contains(&flag.as_str()) {
                continue;
            }
            reported.push(flag);
            out.push(Finding {
                rule: self.id(),
                severity: Severity::Deny,
                path: path.clone(),
                line: *line,
                col: 1,
                message: format!(
                    "documents flag `{flag}` but no parser match arm accepts it; \
                     the binary would reject it as an unknown option"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{run_workspace_rule, Doc};
    use crate::source::SourceFile;

    fn cli_files(args_src: &str, usage_src: &str) -> Vec<SourceFile> {
        vec![
            SourceFile::analyze("crates/cli/src/args.rs", "cli", args_src.to_owned()),
            SourceFile::analyze("crates/cli/src/lib.rs", "cli", usage_src.to_owned()),
        ]
    }

    const ARGS: &str = "fn parse(a: &str) -> u8 {\n    match a {\n        \"--seed\" => 1,\n        \"--port\" => 2,\n        \"help\" | \"--help\" | \"-h\" => 3,\n        _ => 0,\n    }\n}\n";

    #[test]
    fn agreeing_sets_pass() {
        let usage =
            "fn usage() -> &'static str { \"  --seed <n>  the seed\\n  --port <n>  the port\\n\" }";
        let files = cli_files(ARGS, usage);
        let got = run_workspace_rule(&CliFlagDocs, &files, &[]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn undocumented_parsed_flag_fires_at_its_arm() {
        let usage = "fn usage() -> &'static str { \"  --seed <n>  the seed\\n\" }";
        let files = cli_files(ARGS, usage);
        let got = run_workspace_rule(&CliFlagDocs, &files, &[]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].path.ends_with("args.rs"));
        assert_eq!(got[0].line, 4, "the --port arm");
        assert!(got[0].message.contains("`--port`"), "{}", got[0].message);
    }

    #[test]
    fn documented_unparsed_flag_fires_at_the_doc() {
        let usage =
            "fn usage() -> &'static str { \"  --seed <n>\\n  --port <n>\\n  --turbo  gone\\n\" }";
        let files = cli_files(ARGS, usage);
        let got = run_workspace_rule(&CliFlagDocs, &files, &[]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].path.ends_with("lib.rs"));
        assert!(got[0].message.contains("`--turbo`"), "{}", got[0].message);
    }

    #[test]
    fn readme_counts_and_cargo_flags_are_not_misread() {
        let usage = "fn usage() -> &'static str { \"  --seed <n>  --port <n>\" }";
        let files = cli_files(ARGS, usage);
        let docs = [Doc {
            path: "README.md".to_owned(),
            text: "Build with cargo build --release first.\n\
                   cargo run -p livephase-cli --release -- serve --port 7070\n\
                   livephase-cli serve --frobnicate\n"
                .to_owned(),
        }];
        let got = run_workspace_rule(&CliFlagDocs, &files, &docs);
        assert_eq!(got.len(), 1, "--release must not be misread: {got:?}");
        assert_eq!(got[0].path, "README.md");
        assert_eq!(got[0].line, 3);
        assert!(got[0].message.contains("`--frobnicate`"));
    }

    #[test]
    fn no_cli_crate_means_no_findings() {
        let f = SourceFile::analyze(
            "crates/engine/src/lib.rs",
            "engine",
            "fn f(a: &str) -> u8 { match a { \"--x\" => 1, _ => 0 } }".to_owned(),
        );
        assert!(run_workspace_rule(&CliFlagDocs, &[f], &[]).is_empty());
    }
}
