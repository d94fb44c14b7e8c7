//! Findings and the machine-readable report.
//!
//! The exit-code contract (enforced by the CLI, documented in `ci.sh`):
//! a run with zero unsuppressed deny-severity findings is *clean* and
//! exits 0; any unsuppressed deny finding exits 1 with the report on
//! stdout; usage or I/O failures exit 2. Warn-severity findings are
//! reported but never gate.

/// How a finding affects the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, never gates.
    Warn,
    /// Gates: one unsuppressed deny finding fails the run.
    Deny,
}

impl Severity {
    /// Lowercase name used in text and JSON output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One rule violation at a specific location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `panic-reachable`.
    pub rule: &'static str,
    /// Whether it gates.
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human-readable explanation with the offending construct named.
    pub message: String,
}

/// The outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned (fixture and vendor trees excluded upstream).
    pub files_scanned: usize,
    /// Unsuppressed findings, sorted by (path, line, col, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a justified `lint:allow`.
    pub suppressed: usize,
    /// Findings absorbed by the committed baseline (see
    /// [`Report::apply_baseline`]).
    pub baselined: usize,
}

/// Synthetic rule id for a baseline entry that matched no finding: the
/// debt it recorded was paid and the baseline file should shrink.
pub const RULE_STALE_BASELINE: &str = "stale-baseline";

impl Report {
    /// Unsuppressed findings that gate the run.
    #[must_use]
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    }

    /// Whether the run passes the gate.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// Canonical ordering so output is byte-stable across runs.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
        });
    }

    /// One line per finding plus a summary, for humans.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}:{} [{}] {}: {}",
                f.path,
                f.line,
                f.col,
                f.severity.as_str(),
                f.rule,
                f.message
            );
        }
        let warn = self.findings.len() - self.deny_count();
        let _ = write!(
            out,
            "lint: {} finding(s) ({} deny, {} warn), {} suppressed, {} baselined, {} files scanned",
            self.findings.len(),
            self.deny_count(),
            warn,
            self.suppressed,
            self.baselined,
            self.files_scanned
        );
        out
    }

    /// The machine-readable report. `"findings"` in the summary is the
    /// count of unsuppressed deny findings — the number the CI gate
    /// greps for — while the `"details"` array carries every
    /// unsuppressed finding, warn included.
    #[must_use]
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"findings\": {},\n  \"warnings\": {},\n  \"suppressed\": {},\n  \"baselined\": {},\n  \"files_scanned\": {},\n  \"details\": [",
            self.deny_count(),
            self.findings.len() - self.deny_count(),
            self.suppressed,
            self.baselined,
            self.files_scanned
        );
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"rule\": \"{}\", \"severity\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                json_escape(f.rule),
                f.severity.as_str(),
                json_escape(&f.path),
                f.line,
                f.col,
                json_escape(&f.message)
            );
        }
        if self.findings.is_empty() {
            out.push_str("]\n}");
        } else {
            out.push_str("\n  ]\n}");
        }
        out
    }
}

impl Report {
    /// Applies a committed baseline (the saved `render_json` output of a
    /// prior run): every current finding matching a baseline entry on
    /// (rule, path, message) — line-insensitively, so unrelated edits
    /// above a known site don't break the gate — is moved out of
    /// `findings` into the `baselined` count, multiset-style (one entry
    /// absorbs one finding). A baseline entry matching nothing becomes a
    /// [`RULE_STALE_BASELINE`] warning: the recorded debt was paid and
    /// the baseline file should be regenerated to shrink.
    pub fn apply_baseline(&mut self, baseline_json: &str) {
        let mut entries = parse_baseline(baseline_json);
        let mut kept = Vec::with_capacity(self.findings.len());
        for finding in self.findings.drain(..) {
            let hit = entries.iter().position(|e| {
                e.rule == finding.rule && e.path == finding.path && e.message == finding.message
            });
            match hit {
                Some(i) => {
                    entries.swap_remove(i);
                    self.baselined += 1;
                }
                None => kept.push(finding),
            }
        }
        self.findings = kept;
        for e in entries {
            self.findings.push(Finding {
                rule: RULE_STALE_BASELINE,
                severity: Severity::Warn,
                path: e.path,
                line: 1,
                col: 1,
                message: format!(
                    "baseline entry [{}] \"{}\" matched no finding; regenerate the baseline \
                     with `lint --json` to retire it",
                    e.rule, e.message
                ),
            });
        }
        self.sort();
    }
}

/// One baseline entry: the identity fields of a recorded finding.
#[derive(Debug)]
struct BaselineEntry {
    rule: String,
    path: String,
    message: String,
}

/// Extracts the finding entries from a saved `render_json` report. This
/// parses only the linter's own output format (objects with `"rule"`,
/// `"path"`, and `"message"` string fields); unknown text is skipped,
/// so an empty or malformed baseline degrades to "no entries" rather
/// than crashing the gate.
fn parse_baseline(text: &str) -> Vec<BaselineEntry> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("{\"rule\":") {
        let obj = &rest[at..];
        let end = obj.find('}').map_or(obj.len(), |e| e + 1);
        let obj_text = &obj[..end];
        let field = |key: &str| -> Option<String> {
            let marker = format!("\"{key}\": \"");
            let start = obj_text.find(&marker)? + marker.len();
            let tail = &obj_text[start..];
            let mut value = String::new();
            let mut chars = tail.chars();
            loop {
                match chars.next()? {
                    '"' => return Some(value),
                    '\\' => match chars.next()? {
                        'n' => value.push('\n'),
                        'r' => value.push('\r'),
                        't' => value.push('\t'),
                        'u' => {
                            let hex: String = chars.by_ref().take(4).collect();
                            let c = u32::from_str_radix(&hex, 16)
                                .ok()
                                .and_then(char::from_u32)?;
                            value.push(c);
                        }
                        c => value.push(c),
                    },
                    c => value.push(c),
                }
            }
        };
        if let (Some(rule), Some(path), Some(message)) =
            (field("rule"), field("path"), field("message"))
        {
            out.push(BaselineEntry {
                rule,
                path,
                message,
            });
        }
        rest = &rest[at + end..];
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line: u32, sev: Severity) -> Finding {
        Finding {
            rule,
            severity: sev,
            path: path.to_owned(),
            line,
            col: 1,
            message: "msg with \"quotes\"".to_owned(),
        }
    }

    #[test]
    fn clean_report_renders_zero_findings() {
        let r = Report {
            files_scanned: 3,
            ..Report::default()
        };
        assert!(r.is_clean());
        assert!(r.render_json().contains("\"findings\": 0"));
        assert!(r.render_text().contains("0 finding(s)"));
    }

    #[test]
    fn warn_findings_do_not_gate() {
        let mut r = Report::default();
        r.findings
            .push(finding("unused-suppression", "a.rs", 1, Severity::Warn));
        assert!(r.is_clean());
        assert_eq!(r.deny_count(), 0);
        assert!(r.render_json().contains("\"findings\": 0"));
        assert!(r.render_json().contains("\"warnings\": 1"));
    }

    #[test]
    fn baseline_absorbs_matches_multiset_style_and_flags_stale_entries() {
        // Baseline: two identical entries on a.rs plus one paid-off debt.
        let mut recorded = Report::default();
        recorded
            .findings
            .push(finding("r", "a.rs", 10, Severity::Deny));
        recorded
            .findings
            .push(finding("r", "a.rs", 20, Severity::Deny));
        recorded
            .findings
            .push(finding("gone", "b.rs", 5, Severity::Deny));
        let baseline = recorded.render_json();

        // Current run: three identical a.rs findings (one more than the
        // baseline recorded — the extra one must still gate), different
        // lines than recorded (line drift must not matter).
        let mut r = Report::default();
        r.findings.push(finding("r", "a.rs", 11, Severity::Deny));
        r.findings.push(finding("r", "a.rs", 21, Severity::Deny));
        r.findings.push(finding("r", "a.rs", 31, Severity::Deny));
        r.apply_baseline(&baseline);

        assert_eq!(r.baselined, 2);
        assert_eq!(r.deny_count(), 1, "the third occurrence still gates");
        let stale: Vec<&Finding> = r
            .findings
            .iter()
            .filter(|f| f.rule == RULE_STALE_BASELINE)
            .collect();
        assert_eq!(stale.len(), 1, "{:?}", r.findings);
        assert_eq!(stale[0].severity, Severity::Warn);
        assert_eq!(stale[0].path, "b.rs");
        assert!(r.render_json().contains("\"baselined\": 2"));
    }

    #[test]
    fn empty_or_garbage_baseline_changes_nothing() {
        let mut r = Report::default();
        r.findings.push(finding("r", "a.rs", 1, Severity::Deny));
        r.apply_baseline("");
        r.apply_baseline("{\"findings\": 0, \"details\": []}");
        r.apply_baseline("not json at all");
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.baselined, 0);
    }

    #[test]
    fn baseline_round_trips_escaped_messages() {
        let mut recorded = Report::default();
        recorded.findings.push(Finding {
            rule: "r",
            severity: Severity::Deny,
            path: "a.rs".to_owned(),
            line: 1,
            col: 1,
            message: "say \"hi\"\tok\\done".to_owned(),
        });
        let baseline = recorded.render_json();
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: "r",
            severity: Severity::Deny,
            path: "a.rs".to_owned(),
            line: 9,
            col: 4,
            message: "say \"hi\"\tok\\done".to_owned(),
        });
        r.apply_baseline(&baseline);
        assert_eq!(r.baselined, 1);
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn sort_is_stable_and_json_escapes() {
        let mut r = Report::default();
        r.findings
            .push(finding("b-rule", "b.rs", 9, Severity::Deny));
        r.findings
            .push(finding("a-rule", "a.rs", 2, Severity::Deny));
        r.sort();
        assert_eq!(r.findings[0].path, "a.rs");
        assert!(!r.is_clean());
        let json = r.render_json();
        assert!(json.contains("msg with \\\"quotes\\\""));
        assert!(json.contains("\"findings\": 2"));
    }
}
