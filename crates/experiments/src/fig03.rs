//! Figure 3 — benchmark categories based on stability and power-saving
//! potential.
//!
//! For every SPEC run, plots (average Mem/Uop, % samples with
//! ΔMem/Uop > 0.005) and assigns the quadrant the paper discusses:
//! Q1 stable/low-savings, Q2 stable/high-savings, Q3 variable/high,
//! Q4 variable/low.

use crate::format::{num, Table};
use crate::ShapeViolations;
use livephase_governor::par_map;
use livephase_workloads::{registry, Quadrant, TraceStats};
use std::fmt;

/// Quadrant thresholds used to classify the measured coordinates. The
/// paper's quadrants are drawn visually; these splits reproduce its
/// assignments — it calls apsi and ammp (variation 13–17 %) "Q1
/// applications ... with relatively higher variability", so the variation
/// split sits at 20 %, and applu (the least memory-bound Q3 member)
/// anchors the savings split just below 0.01 Mem/Uop.
pub const VARIATION_SPLIT_PCT: f64 = 20.0;
/// See [`VARIATION_SPLIT_PCT`].
pub const SAVINGS_SPLIT_MEM_UOP: f64 = 0.008;

/// One benchmark's Figure 3 coordinate.
#[derive(Debug, Clone)]
pub struct Point {
    /// Benchmark name.
    pub name: String,
    /// The quadrant the calibration targets (from the spec).
    pub intended: Quadrant,
    /// Measured stats.
    pub stats: TraceStats,
}

impl Point {
    /// The quadrant the *measured* coordinate falls into.
    #[must_use]
    pub fn measured_quadrant(&self) -> Quadrant {
        let variable = self.stats.sample_variation_pct > VARIATION_SPLIT_PCT;
        let savings = self.stats.mean_mem_uop > SAVINGS_SPLIT_MEM_UOP;
        match (variable, savings) {
            (false, false) => Quadrant::Q1,
            (false, true) => Quadrant::Q2,
            (true, true) => Quadrant::Q3,
            (true, false) => Quadrant::Q4,
        }
    }
}

/// The full Figure 3 scatter.
#[derive(Debug, Clone)]
pub struct Figure3 {
    /// All 33 benchmark coordinates.
    pub points: Vec<Point>,
}

/// Characterizes every registered benchmark, one worker per benchmark,
/// in registry order.
#[must_use]
pub fn run(seed: u64) -> Figure3 {
    let points = par_map(&registry(), |spec| Point {
        name: spec.name().to_owned(),
        intended: spec.quadrant(),
        stats: spec.generate(seed).characterize(),
    });
    Figure3 { points }
}

/// Shape claims: the named anchors of the paper's Figure 3 land in their
/// quadrants, with equake the most variable and mcf the most memory-bound.
#[must_use]
pub fn check(fig: &Figure3) -> ShapeViolations {
    let mut v = Vec::new();
    let find = |name: &str| fig.points.iter().find(|p| p.name == name);

    for (name, want) in [
        ("swim_in", Quadrant::Q2),
        ("mcf_inp", Quadrant::Q2),
        ("applu_in", Quadrant::Q3),
        ("equake_in", Quadrant::Q3),
        ("mgrid_in", Quadrant::Q3),
        ("bzip2_source", Quadrant::Q4),
        ("crafty_in", Quadrant::Q1),
        ("sixtrack_in", Quadrant::Q1),
    ] {
        match find(name) {
            Some(p) if p.measured_quadrant() == want => {}
            Some(p) => v.push(format!(
                "{name}: measured {} (mean {:.4}, var {:.1}%), expected {want}",
                p.measured_quadrant(),
                p.stats.mean_mem_uop,
                p.stats.sample_variation_pct
            )),
            None => v.push(format!("{name} missing from registry")),
        }
    }

    if let (Some(equake), Some(applu)) = (find("equake_in"), find("applu_in")) {
        if equake.stats.sample_variation_pct <= applu.stats.sample_variation_pct {
            v.push("equake should be more variable than applu".to_owned());
        }
        if applu.stats.sample_variation_pct < 35.0 {
            v.push(format!(
                "applu variation {:.1}% should be ~47%",
                applu.stats.sample_variation_pct
            ));
        }
    }
    if let Some(mcf) = find("mcf_inp") {
        if mcf.stats.mean_mem_uop < 0.09 {
            v.push(format!(
                "mcf mean Mem/Uop {:.3} should exceed 0.09 (broken axis)",
                mcf.stats.mean_mem_uop
            ));
        }
    }
    // Most of SPEC hugs the origin (Q1).
    let q1 = fig
        .points
        .iter()
        .filter(|p| p.measured_quadrant() == Quadrant::Q1)
        .count();
    if q1 < 20 {
        v.push(format!(
            "only {q1} Q1 benchmarks; most of SPEC should be Q1"
        ));
    }
    v
}

impl Figure3 {
    /// The scatter as a table, sorted by decreasing variation.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "benchmark".into(),
            "mean Mem/Uop".into(),
            "variation %".into(),
            "quadrant".into(),
        ]);
        let mut sorted: Vec<&Point> = self.points.iter().collect();
        sorted.sort_by(|a, b| {
            b.stats
                .sample_variation_pct
                .total_cmp(&a.stats.sample_variation_pct)
        });
        for p in sorted {
            t.row(vec![
                p.name.clone(),
                num(p.stats.mean_mem_uop, 4),
                num(p.stats.sample_variation_pct, 1),
                p.measured_quadrant().to_string(),
            ]);
        }
        t
    }
}

impl fmt::Display for Figure3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Figure 3. Benchmark categories based on stability and power \
             saving potentials.\n\n{}",
            self.table().render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_shape_holds() {
        let fig = run(crate::DEFAULT_SEED);
        let violations = check(&fig);
        assert!(violations.is_empty(), "{violations:#?}");
        assert_eq!(fig.points.len(), 33);
    }

    #[test]
    fn display_lists_all_benchmarks() {
        let fig = run(1);
        let s = fig.to_string();
        assert!(s.contains("applu_in"));
        assert!(s.contains("mcf_inp"));
        assert_eq!(s.lines().count(), 33 + 4);
    }
}
