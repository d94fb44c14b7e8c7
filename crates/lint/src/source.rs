//! Per-file analysis shared by every rule: the token stream, which byte
//! ranges are test code (`#[cfg(test)]` / `#[test]` items, `mod tests`
//! blocks), which ranges are attribute bodies, and the file's
//! `// lint:allow(<rule>): <justification>` suppressions.

use crate::lexer::{lex, Token, TokenKind};

/// An inline suppression comment, `// lint:allow(rule-a, rule-b): why`.
///
/// A suppression applies to findings on its own line when it trails code
/// (`foo[i] // lint:allow(panic-reachable): i < len by construction`), or
/// to the next line carrying any code token when it stands alone. The
/// justification after the closing parenthesis is mandatory: an allow
/// without one does not suppress anything and is itself reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule ids being allowed.
    pub rules: Vec<String>,
    /// Line the comment sits on.
    pub line: u32,
    /// Line whose findings it suppresses.
    pub applies_line: u32,
    /// Whether a non-empty justification follows the rule list.
    pub justified: bool,
    /// Set during matching; unused justified suppressions are reported
    /// (they usually mean a typo'd rule id or stale comment).
    pub used: std::cell::Cell<bool>,
}

/// One analyzed source file, ready for rules to scan.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, e.g. `crates/core/src/phase.rs`.
    pub path: String,
    /// Short crate name (`core`, `serve`, ... or `livephase` for the
    /// root façade) used for per-crate rule scoping.
    pub crate_name: String,
    /// The file's text.
    pub text: String,
    /// Every token, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Byte ranges of test-only items.
    test_regions: Vec<(usize, usize)>,
    /// Byte ranges of attribute bodies (`#[...]` / `#![...]`).
    attr_regions: Vec<(usize, usize)>,
    /// Parsed `lint:allow` comments.
    pub suppressions: Vec<Suppression>,
}

const TEST_MOD_NAMES: [&str; 2] = ["tests", "test"];

impl SourceFile {
    /// Lexes and analyzes one file.
    #[must_use]
    pub fn analyze(path: impl Into<String>, crate_name: impl Into<String>, text: String) -> Self {
        let tokens = lex(&text);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.kind.is_comment())
            .map(|(i, _)| i)
            .collect();
        let attr_regions = find_attr_regions(&text, &tokens, &code);
        let test_regions = find_test_regions(&text, &tokens, &code, &attr_regions);
        let suppressions = find_suppressions(&text, &tokens, &code);
        Self {
            path: path.into(),
            crate_name: crate_name.into(),
            text,
            tokens,
            code,
            test_regions,
            attr_regions,
            suppressions,
        }
    }

    /// The text of a token of this file.
    #[must_use]
    pub fn tok_text(&self, t: &Token) -> &str {
        t.text(&self.text)
    }

    /// Whether the byte offset falls inside a test-only item.
    #[must_use]
    pub fn in_test(&self, byte: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| byte >= s && byte < e)
    }

    /// Whether the byte offset falls inside an attribute body.
    #[must_use]
    pub fn in_attr(&self, byte: usize) -> bool {
        self.attr_regions
            .iter()
            .any(|&(s, e)| byte >= s && byte < e)
    }

    /// The code tokens (comments skipped), as `(index_in_tokens, &Token)`
    /// pairs — rules scan these with window patterns.
    pub fn code_tokens(&self) -> impl Iterator<Item = &Token> + '_ {
        self.code.iter().map(move |&i| &self.tokens[i])
    }
}

/// Collects `#[...]` and `#![...]` spans over code tokens.
fn find_attr_regions(text: &str, tokens: &[Token], code: &[usize]) -> Vec<(usize, usize)> {
    let tok_is = |k: usize, s: &str| -> bool {
        code.get(k)
            .and_then(|&i| tokens.get(i))
            .is_some_and(|t| t.text(text) == s)
    };
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        if tok_is(k, "#") {
            let mut j = k + 1;
            if tok_is(j, "!") {
                j += 1;
            }
            if tok_is(j, "[") {
                let mut depth = 0i32;
                let mut m = j;
                let mut end = tokens[code[j]].end;
                while m < code.len() {
                    if tok_is(m, "[") {
                        depth += 1;
                    } else if tok_is(m, "]") {
                        depth -= 1;
                        if depth == 0 {
                            end = tokens[code[m]].end;
                            break;
                        }
                    }
                    m += 1;
                }
                out.push((tokens[code[k]].start, end));
                k = m + 1;
                continue;
            }
        }
        k += 1;
    }
    out
}

/// Byte ranges of test-only items: anything annotated `#[test]` or
/// `#[cfg(test)]`, plus `mod tests { ... }` bodies.
fn find_test_regions(
    text: &str,
    tokens: &[Token],
    code: &[usize],
    attrs: &[(usize, usize)],
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    // Attribute-driven regions.
    for &(start, end) in attrs {
        let inner: Vec<&str> = tokens
            .iter()
            .filter(|t| t.start >= start && t.end <= end && !t.kind.is_comment())
            .map(|t| t.text(text))
            .collect();
        let is_test_attr =
            inner == ["#", "[", "test", "]"] || inner == ["#", "[", "cfg", "(", "test", ")", "]"];
        if !is_test_attr {
            continue;
        }
        if let Some(item_end) = item_extent_after(text, tokens, code, end) {
            out.push((start, item_end));
        }
    }
    // `mod tests {` / `mod test {` without an attribute.
    for w in 0..code.len().saturating_sub(2) {
        let a = &tokens[code[w]];
        let b = &tokens[code[w + 1]];
        let c = &tokens[code[w + 2]];
        if a.kind == TokenKind::Ident
            && a.text(text) == "mod"
            && b.kind == TokenKind::Ident
            && TEST_MOD_NAMES.contains(&b.text(text))
            && c.text(text) == "{"
        {
            if let Some(close) = balance_braces(text, tokens, code, w + 2) {
                out.push((a.start, close));
            }
        }
    }
    out
}

/// Given the byte offset where an attribute ends, finds the end of the
/// item it annotates: skip further attributes, then the item runs to the
/// close of its first `{ ... }` block, or to the first `;` if none opens.
fn item_extent_after(
    text: &str,
    tokens: &[Token],
    code: &[usize],
    attr_end: usize,
) -> Option<usize> {
    let mut k = code.iter().position(|&i| tokens[i].start >= attr_end)?;
    // Skip stacked attributes (`#[cfg(test)] #[allow(...)] fn ...`).
    while k < code.len() && tokens[code[k]].text(text) == "#" {
        let mut depth = 0i32;
        let mut m = k + 1;
        if m < code.len() && tokens[code[m]].text(text) == "!" {
            m += 1;
        }
        while m < code.len() {
            match tokens[code[m]].text(text) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            m += 1;
        }
        k = m + 1;
    }
    // Scan for the first `{` (balance it) or a `;` before any brace.
    let mut m = k;
    while m < code.len() {
        match tokens[code[m]].text(text) {
            "{" => return balance_braces(text, tokens, code, m),
            ";" => return Some(tokens[code[m]].end),
            _ => m += 1,
        }
    }
    // Ran off the file (truncated input): treat the rest as the item.
    Some(text.len())
}

/// With `open` the code-token position of a `{`, returns the byte offset
/// just past its matching `}` (or end of file if unbalanced).
fn balance_braces(text: &str, tokens: &[Token], code: &[usize], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for &i in code.get(open..)? {
        match tokens[i].text(text) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(tokens[i].end);
                }
            }
            _ => {}
        }
    }
    Some(text.len())
}

/// Parses `lint:allow` comments and resolves which line each applies to.
fn find_suppressions(text: &str, tokens: &[Token], code: &[usize]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let body = t.text(text).trim_start_matches('/').trim_start();
        let Some(rest) = body.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            // Malformed: report as unjustified so it cannot silently rot.
            out.push(Suppression {
                rules: Vec::new(),
                line: t.line,
                applies_line: t.line,
                justified: false,
                used: std::cell::Cell::new(false),
            });
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_owned())
            .filter(|r| !r.is_empty())
            .collect();
        let after = rest[close + 1..].trim_start();
        let justified = after
            .strip_prefix(':')
            .is_some_and(|j| !j.trim().is_empty());
        // Trailing a code token on the same line -> applies to that line;
        // standalone -> applies to the next line that carries code.
        let trails_code = code
            .iter()
            .any(|&i| tokens[i].line == t.line && tokens[i].start < t.start);
        let applies_line = if trails_code {
            t.line
        } else {
            code.iter()
                .map(|&i| tokens[i].line)
                .find(|&l| l > t.line)
                .unwrap_or(t.line)
        };
        out.push(Suppression {
            rules,
            line: t.line,
            applies_line,
            justified,
            used: std::cell::Cell::new(false),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::analyze("test.rs", "core", src.to_owned())
    }

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn inner() { x.unwrap(); }\n}\nfn after() {}";
        let f = file(src);
        let unwrap_at = src.find("unwrap").unwrap();
        assert!(f.in_test(unwrap_at));
        assert!(!f.in_test(src.find("live").unwrap()));
        assert!(!f.in_test(src.find("after").unwrap()));
    }

    #[test]
    fn test_attribute_covers_one_fn() {
        let src = "#[test]\nfn check() { a.unwrap(); }\nfn live() { b; }";
        let f = file(src);
        assert!(f.in_test(src.find("unwrap").unwrap()));
        assert!(!f.in_test(src.find("live").unwrap()));
    }

    #[test]
    fn stacked_attributes_are_skipped() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn x() {} }\nfn live() {}";
        let f = file(src);
        assert!(f.in_test(src.find("fn x").unwrap()));
        assert!(!f.in_test(src.find("live").unwrap()));
    }

    #[test]
    fn bare_mod_tests_is_a_test_region() {
        let src = "mod tests { fn x() {} }\nfn live() {}";
        let f = file(src);
        assert!(f.in_test(src.find("fn x").unwrap()));
        assert!(!f.in_test(src.find("live").unwrap()));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn live() { a.unwrap(); }";
        let f = file(src);
        assert!(!f.in_test(src.find("unwrap").unwrap()));
    }

    #[test]
    fn attr_regions_cover_derives() {
        let src = "#[derive(Debug)]\nstruct S;\nlet x = v[0];";
        let f = file(src);
        assert!(f.in_attr(src.find("Debug").unwrap()));
        assert!(!f.in_attr(src.find("v[0]").unwrap()));
    }

    #[test]
    fn suppressions_parse_and_resolve_lines() {
        let src = "let a = v[i]; // lint:allow(panic-reachable): i is bounded above\n\
                   // lint:allow(determinism-taint): telemetry only\n\
                   let t = Instant::now();\n\
                   // lint:allow(panic-reachable)\n\
                   let b = v[j];";
        let f = file(src);
        assert_eq!(f.suppressions.len(), 3);
        let s = &f.suppressions[0];
        assert_eq!(s.rules, vec!["panic-reachable"]);
        assert_eq!((s.line, s.applies_line, s.justified), (1, 1, true));
        let s = &f.suppressions[1];
        assert_eq!((s.line, s.applies_line, s.justified), (2, 3, true));
        let s = &f.suppressions[2];
        assert!(!s.justified, "missing justification is not justified");
    }

    #[test]
    fn comment_text_never_becomes_code() {
        let f = file("// not code: x.unwrap()\nfn live() {}");
        assert!(!f.code_tokens().any(|t| f.tok_text(t) == "unwrap"));
    }
}
