//! `BENCH_<area>.json` records: the committed perf trajectory.
//!
//! One record per area per run, hand-rolled JSON (the workspace is
//! zero-dependency — no serde on the gate path). The schema is pinned
//! by a golden test in `tests/harness.rs`: downstream tooling diffs
//! these files across commits, so field order and float formatting are
//! part of the contract. Wall-clock timestamps are **passed in** by the
//! caller — nothing in the measurement path reads the clock-of-day, so
//! records stay reproducible modulo the machine.

use crate::calibrate::Calibration;
use crate::stats::Summary;

/// Schema identifier embedded in every record.
pub const SCHEMA: &str = "livephase-bench/v1";

/// Where the record was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// Hostname, or `"unknown"`.
    pub host: String,
    /// CPU model string, or `"unknown"`.
    pub cpu: String,
    /// Logical cores visible to the process.
    pub cores: usize,
}

impl Machine {
    /// Fingerprints the current machine from procfs (best-effort; every
    /// field degrades to a placeholder off-Linux).
    #[must_use]
    pub fn detect() -> Self {
        let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|s| s.trim().to_owned())
            .ok()
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self { host, cpu, cores }
    }
}

/// One area's measurement, ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Area name (`BENCH_<area>.json`).
    pub area: String,
    /// The area's per-iteration summary.
    pub summary: Summary,
    /// Untimed warmup iterations that preceded the summary.
    pub warmup: usize,
    /// The calibration this run's ratio is relative to.
    pub calibration: Calibration,
    /// The committed expected ratio for the area.
    pub expected_ratio: f64,
    /// Machine fingerprint.
    pub machine: Machine,
    /// Git revision the record was measured at (short hash or
    /// `"unknown"`), passed in by the caller.
    pub git_rev: String,
    /// Wall-clock milliseconds since the Unix epoch, passed in by the
    /// caller — the measurement path never reads the clock-of-day.
    pub unix_ms: u64,
}

impl BenchRecord {
    /// Measured cost relative to the calibration baseline — the number
    /// the gate thresholds.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.summary.median_ns as f64 / self.calibration.baseline_ns.max(1) as f64
        }
    }

    /// The record's on-disk filename.
    #[must_use]
    pub fn filename(&self) -> String {
        format!("BENCH_{}.json", self.area)
    }

    /// Serializes the record. Field order and `{:.6}` float formatting
    /// are pinned by the schema golden test.
    #[must_use]
    pub fn to_json(&self) -> String {
        let s = &self.summary;
        let c = &self.calibration;
        let mut out = String::with_capacity(640);
        out.push_str("{\n");
        push_str_field(&mut out, "schema", SCHEMA, true);
        push_str_field(&mut out, "area", &self.area, true);
        push_u64_field(&mut out, "iterations", s.iterations as u64, true);
        push_u64_field(&mut out, "warmup", self.warmup as u64, true);
        push_u64_field(&mut out, "median_ns", s.median_ns, true);
        push_u64_field(&mut out, "p90_ns", s.p90_ns, true);
        push_u64_field(&mut out, "mad_ns", s.mad_ns, true);
        push_u64_field(&mut out, "min_ns", s.min_ns, true);
        push_u64_field(&mut out, "max_ns", s.max_ns, true);
        push_u64_field(&mut out, "baseline_ns", c.baseline_ns, true);
        push_u64_field(&mut out, "baseline_mad_ns", c.mad_ns, true);
        push_f64_field(&mut out, "ratio", self.ratio(), true);
        push_f64_field(&mut out, "expected_ratio", self.expected_ratio, true);
        out.push_str("  \"machine\": {\n");
        out.push_str(&format!(
            "    \"host\": \"{}\",\n",
            escape(&self.machine.host)
        ));
        out.push_str(&format!(
            "    \"cpu\": \"{}\",\n",
            escape(&self.machine.cpu)
        ));
        out.push_str(&format!("    \"cores\": {}\n", self.machine.cores));
        out.push_str("  },\n");
        push_str_field(&mut out, "git_rev", &self.git_rev, true);
        push_u64_field(&mut out, "unix_ms", self.unix_ms, false);
        out.push_str("}\n");
        out
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str, comma: bool) {
    out.push_str(&format!(
        "  \"{key}\": \"{}\"{}\n",
        escape(value),
        if comma { "," } else { "" }
    ));
}

fn push_u64_field(out: &mut String, key: &str, value: u64, comma: bool) {
    out.push_str(&format!(
        "  \"{key}\": {value}{}\n",
        if comma { "," } else { "" }
    ));
}

fn push_f64_field(out: &mut String, key: &str, value: f64, comma: bool) {
    out.push_str(&format!(
        "  \"{key}\": {value:.6}{}\n",
        if comma { "," } else { "" }
    ));
}

/// Minimal JSON string escaping: the fingerprint strings are the only
/// free-form values and they never legitimately contain control bytes.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Reads the short git revision of the repository enclosing `dir`, or
/// `"unknown"`. Plumbed through the CLI so the bench library itself
/// never shells out.
#[must_use]
pub fn git_rev(dir: &std::path::Path) -> String {
    let Some(repo_dir) = dir.ancestors().find(|d| d.join(".git").is_dir()) else {
        return "unknown".to_owned();
    };
    let Ok(head) = std::fs::read_to_string(repo_dir.join(".git/HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let full = if let Some(reference) = head.strip_prefix("ref: ") {
        std::fs::read_to_string(repo_dir.join(".git").join(reference))
            .map(|s| s.trim().to_owned())
            .unwrap_or_default()
    } else {
        head.to_owned()
    };
    if full.len() >= 12 && full.chars().all(|c| c.is_ascii_hexdigit()) {
        full[..12].to_owned()
    } else {
        "unknown".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BenchRecord {
        BenchRecord {
            area: "wire_encode".to_owned(),
            summary: Summary::from_ns(&[100, 110, 120, 130, 140]).unwrap(),
            warmup: 3,
            calibration: Calibration {
                baseline_ns: 1000,
                mad_ns: 10,
                reps: 15,
            },
            expected_ratio: 0.06,
            machine: Machine {
                host: "ci-runner".to_owned(),
                cpu: "Example CPU".to_owned(),
                cores: 8,
            },
            git_rev: "abcdef123456".to_owned(),
            unix_ms: 1_754_000_000_000,
        }
    }

    #[test]
    fn ratio_is_median_over_baseline() {
        let r = record();
        assert!((r.ratio() - 0.12).abs() < 1e-9);
        assert_eq!(r.filename(), "BENCH_wire_encode.json");
    }

    #[test]
    fn json_carries_every_field_once() {
        let json = record().to_json();
        for key in [
            "schema",
            "area",
            "iterations",
            "warmup",
            "median_ns",
            "p90_ns",
            "mad_ns",
            "min_ns",
            "max_ns",
            "baseline_ns",
            "baseline_mad_ns",
            "ratio",
            "expected_ratio",
            "machine",
            "host",
            "cpu",
            "cores",
            "git_rev",
            "unix_ms",
        ] {
            assert_eq!(
                json.matches(&format!("\"{key}\":")).count(),
                1,
                "field {key} appears exactly once"
            );
        }
        assert!(json.contains("\"schema\": \"livephase-bench/v1\""));
        assert!(json.contains("\"ratio\": 0.120000"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn escape_handles_quotes_and_control_bytes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("x\u{1}y"), "x\\u0001y");
    }

    #[test]
    fn machine_detect_never_panics() {
        let m = Machine::detect();
        assert!(m.cores >= 1);
        assert!(!m.host.is_empty());
        assert!(!m.cpu.is_empty());
    }
}
