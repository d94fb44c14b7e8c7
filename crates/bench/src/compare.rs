//! `bench --compare <dir-a> <dir-b>`: trend diff over two committed
//! `BENCH_<area>.json` snapshot directories.
//!
//! CI archives each run's records under a dated directory (see
//! `results/bench/`). This module diffs two such snapshots area by
//! area on the **baseline-relative ratio** — the machine-independent
//! number the gate thresholds — so a perf PR can show its before/after
//! table without re-running anything, and a drift between two CI
//! archives is visible as a ratio delta rather than raw nanoseconds
//! that mean nothing across machines. Parsing is hand-rolled over the
//! schema `record.rs` pins with a golden test.

use std::collections::BTreeMap;
use std::path::Path;

/// A ratio increase beyond this fraction of the older snapshot flags
/// the area as a regression. Matches the spirit of the live gate's
/// multiplier but is deliberately tighter: comparing two committed
/// snapshots already cancels machine noise through the calibration
/// baseline, so a 15 % ratio drift is signal.
pub const REGRESSION_FRACTION: f64 = 0.15;

/// One area's before/after ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaDelta {
    /// Area name shared by both records.
    pub area: String,
    /// Baseline-relative ratio in the older (first) snapshot.
    pub ratio_a: f64,
    /// Baseline-relative ratio in the newer (second) snapshot.
    pub ratio_b: f64,
    /// Raw median nanoseconds in the older snapshot (context only).
    pub median_a_ns: u64,
    /// Raw median nanoseconds in the newer snapshot (context only).
    pub median_b_ns: u64,
}

impl AreaDelta {
    /// Ratio change from A to B, in percent (positive = slower).
    #[must_use]
    pub fn delta_pct(&self) -> f64 {
        if self.ratio_a <= 0.0 {
            return 0.0;
        }
        (self.ratio_b - self.ratio_a) / self.ratio_a * 100.0
    }

    /// Whether the newer snapshot regressed past the flagging threshold.
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.ratio_b > self.ratio_a * (1.0 + REGRESSION_FRACTION)
    }
}

/// The full diff between two snapshot directories.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// The older snapshot's path, as given.
    pub dir_a: String,
    /// The newer snapshot's path, as given.
    pub dir_b: String,
    /// Areas present in both snapshots, sorted by name.
    pub rows: Vec<AreaDelta>,
    /// Areas only the older snapshot has (dropped since).
    pub only_a: Vec<String>,
    /// Areas only the newer snapshot has (added since).
    pub only_b: Vec<String>,
}

impl CompareReport {
    /// Whether any shared area regressed past [`REGRESSION_FRACTION`].
    #[must_use]
    pub fn has_regressions(&self) -> bool {
        self.rows.iter().any(AreaDelta::regressed)
    }

    /// Renders the per-area delta table plus added/dropped notes.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "bench compare: {} -> {}", self.dir_a, self.dir_b);
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>10} {:>12} {:>12} {:>9}  flag",
            "area", "ratio A", "ratio B", "median A ns", "median B ns", "delta"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<18} {:>10.3} {:>10.3} {:>12} {:>12} {:>+8.1}%  {}",
                r.area,
                r.ratio_a,
                r.ratio_b,
                r.median_a_ns,
                r.median_b_ns,
                r.delta_pct(),
                if r.regressed() { "REGRESSION" } else { "" }
            );
        }
        for a in &self.only_a {
            let _ = writeln!(out, "dropped since {}: {a}", self.dir_a);
        }
        for b in &self.only_b {
            let _ = writeln!(out, "added in {}: {b}", self.dir_b);
        }
        let regressions = self.rows.iter().filter(|r| r.regressed()).count();
        if regressions == 0 {
            let _ = writeln!(
                out,
                "no regressions ({} shared areas within +{:.0}% ratio drift)",
                self.rows.len(),
                REGRESSION_FRACTION * 100.0
            );
        } else {
            let _ = writeln!(
                out,
                "{regressions} regression(s) past +{:.0}% ratio drift",
                REGRESSION_FRACTION * 100.0
            );
        }
        out
    }
}

/// One parsed record: the three fields the diff needs.
#[derive(Debug, Clone, PartialEq)]
struct Parsed {
    ratio: f64,
    median_ns: u64,
}

/// Diffs every `BENCH_*.json` under `dir_a` against `dir_b`.
///
/// # Errors
///
/// Returns a message when either directory is unreadable, contains no
/// records, or a record fails to parse.
pub fn compare_dirs(dir_a: &str, dir_b: &str) -> Result<CompareReport, String> {
    let a = load_dir(dir_a)?;
    let b = load_dir(dir_b)?;
    let mut rows = Vec::new();
    let mut only_a = Vec::new();
    let mut only_b: Vec<String> = b.keys().filter(|k| !a.contains_key(*k)).cloned().collect();
    only_b.sort();
    for (area, ra) in &a {
        match b.get(area) {
            Some(rb) => rows.push(AreaDelta {
                area: area.clone(),
                ratio_a: ra.ratio,
                ratio_b: rb.ratio,
                median_a_ns: ra.median_ns,
                median_b_ns: rb.median_ns,
            }),
            None => only_a.push(area.clone()),
        }
    }
    Ok(CompareReport {
        dir_a: dir_a.to_owned(),
        dir_b: dir_b.to_owned(),
        rows,
        only_a,
        only_b,
    })
}

/// Loads every record in one snapshot directory, keyed by area.
fn load_dir(dir: &str) -> Result<BTreeMap<String, Parsed>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read directory {dir}: {e}"))?;
    let mut out = BTreeMap::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {dir}: {e}"))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let (area, parsed) = load_record(&path)?;
        out.insert(area, parsed);
    }
    if out.is_empty() {
        return Err(format!("no BENCH_*.json records under {dir}"));
    }
    Ok(out)
}

/// Extracts (area, ratio, median_ns) from one record. The schema is
/// line-oriented (`  "key": value,`), pinned by the record golden test,
/// so a trimmed line-by-line scan is exact — `"ratio"` never collides
/// with `"expected_ratio"` because keys are matched whole.
fn load_record(path: &Path) -> Result<(String, Parsed), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut area = None;
    let mut ratio = None;
    let mut median_ns = None;
    for line in text.lines() {
        let Some((key, value)) = line.trim().split_once(':') else {
            continue;
        };
        let value = value.trim().trim_end_matches(',');
        match key.trim() {
            "\"area\"" => area = Some(value.trim_matches('"').to_owned()),
            "\"ratio\"" => ratio = value.parse::<f64>().ok(),
            "\"median_ns\"" => median_ns = value.parse::<u64>().ok(),
            _ => {}
        }
    }
    match (area, ratio, median_ns) {
        (Some(a), Some(r), Some(m)) => Ok((
            a,
            Parsed {
                ratio: r,
                median_ns: m,
            },
        )),
        _ => Err(format!(
            "{}: missing area/ratio/median_ns fields",
            path.display()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_record(dir: &Path, area: &str, ratio: f64, median_ns: u64) {
        let body = format!(
            "{{\n  \"schema\": \"livephase-bench/v1\",\n  \"area\": \"{area}\",\n  \
             \"median_ns\": {median_ns},\n  \"ratio\": {ratio:.6},\n  \
             \"expected_ratio\": 9.999999\n}}\n"
        );
        std::fs::write(dir.join(format!("BENCH_{area}.json")), body).unwrap();
    }

    fn temp_dirs(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let base = std::env::temp_dir().join(format!("livephase_bench_compare_{tag}"));
        let a = base.join("a");
        let b = base.join("b");
        std::fs::create_dir_all(&a).unwrap();
        std::fs::create_dir_all(&b).unwrap();
        (a, b)
    }

    #[test]
    fn diffs_shared_areas_and_flags_regressions() {
        let (a, b) = temp_dirs("flags");
        write_record(&a, "engine_step", 0.30, 300_000);
        write_record(&b, "engine_step", 0.40, 400_000);
        write_record(&a, "wire_encode", 0.012, 12_000);
        write_record(&b, "wire_encode", 0.011, 11_000);
        write_record(&a, "dropped_area", 0.5, 1);
        write_record(&b, "added_area", 0.5, 1);
        let report = compare_dirs(a.to_str().unwrap(), b.to_str().unwrap()).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert!(report.has_regressions());
        let engine = report
            .rows
            .iter()
            .find(|r| r.area == "engine_step")
            .unwrap();
        assert!(engine.regressed());
        assert!((engine.delta_pct() - 33.333).abs() < 0.01);
        let wire = report
            .rows
            .iter()
            .find(|r| r.area == "wire_encode")
            .unwrap();
        assert!(!wire.regressed());
        assert_eq!(report.only_a, vec!["dropped_area".to_owned()]);
        assert_eq!(report.only_b, vec!["added_area".to_owned()]);
        let rendered = report.render();
        assert!(rendered.contains("REGRESSION"), "{rendered}");
        assert!(rendered.contains("added in"), "{rendered}");
        std::fs::remove_dir_all(a.parent().unwrap()).ok();
    }

    #[test]
    fn clean_diff_reports_no_regressions() {
        let (a, b) = temp_dirs("clean");
        write_record(&a, "engine_step", 0.30, 300_000);
        write_record(&b, "engine_step", 0.31, 310_000);
        let report = compare_dirs(a.to_str().unwrap(), b.to_str().unwrap()).unwrap();
        assert!(!report.has_regressions());
        assert!(report.render().contains("no regressions"));
        std::fs::remove_dir_all(a.parent().unwrap()).ok();
    }

    #[test]
    fn missing_directory_is_an_error() {
        let err = compare_dirs("/nonexistent_livephase_a", "/nonexistent_livephase_b").unwrap_err();
        assert!(err.contains("cannot read directory"), "{err}");
    }

    #[test]
    fn committed_snapshots_diff_cleanly() {
        // The repo commits real snapshot directories; when running from
        // the workspace they must parse end to end.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench");
        let pre = root.join("2026-08-07-pre-opt");
        let post = root.join("2026-08-07-post-opt");
        if !(pre.is_dir() && post.is_dir()) {
            return; // packaged builds may omit results/
        }
        let report = compare_dirs(pre.to_str().unwrap(), post.to_str().unwrap()).unwrap();
        assert!(report.rows.len() >= 5, "{report:?}");
    }
}
