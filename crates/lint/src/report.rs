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
}

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
            "lint: {} finding(s) ({} deny, {} warn), {} suppressed, {} files scanned",
            self.findings.len(),
            self.deny_count(),
            warn,
            self.suppressed,
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
            "{{\n  \"findings\": {},\n  \"warnings\": {},\n  \"suppressed\": {},\n  \"files_scanned\": {},\n  \"details\": [",
            self.deny_count(),
            self.findings.len() - self.deny_count(),
            self.suppressed,
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
