//! Figure 12 — EDP improvement and performance degradation with GPHT vs
//! last-value (reactive) management for the Q2/Q3/Q4 benchmarks.

use crate::format::{num, Table};
use crate::runs::{require_benchmark, Outcome};
use crate::ShapeViolations;
use livephase_governor::par_map;
use livephase_pmsim::PlatformConfig;
use livephase_workloads::spec;
use std::fmt;

/// One benchmark's head-to-head comparison.
#[derive(Debug, Clone)]
pub struct Head2Head {
    /// Benchmark name.
    pub name: String,
    /// Reactive EDP improvement (%).
    pub reactive_edp_pct: f64,
    /// GPHT EDP improvement (%).
    pub gpht_edp_pct: f64,
    /// Reactive performance degradation (%).
    pub reactive_deg_pct: f64,
    /// GPHT performance degradation (%).
    pub gpht_deg_pct: f64,
}

/// The Figure 12 comparison set.
#[derive(Debug, Clone)]
pub struct Figure12 {
    /// Rows in the paper's x-axis order.
    pub rows: Vec<Head2Head>,
}

impl Figure12 {
    /// Looks up one row.
    #[must_use]
    pub fn row(&self, name: &str) -> Option<&Head2Head> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Measures the Figure 12 benchmark set under both managed systems, one
/// worker per benchmark on a shared platform.
#[must_use]
pub fn run(seed: u64) -> Figure12 {
    let platform = PlatformConfig::pentium_m();
    let rows = par_map(&spec::figure12_set(), |name| {
        let bench = require_benchmark(name);
        let o = Outcome::measure(&platform, &bench, seed);
        let r = o.reactive_vs_baseline();
        let g = o.gpht_vs_baseline();
        Head2Head {
            name: (*name).to_owned(),
            reactive_edp_pct: r.edp_improvement_pct(),
            gpht_edp_pct: g.edp_improvement_pct(),
            reactive_deg_pct: r.perf_degradation_pct(),
            gpht_deg_pct: g.perf_degradation_pct(),
        }
    });
    Figure12 { rows }
}

/// The paper's claims about proactive vs reactive management.
#[must_use]
pub fn check(fig: &Figure12) -> ShapeViolations {
    let mut v = Vec::new();

    // GPHT EDP never loses to reactive; clearly better on the variable Q3.
    for r in &fig.rows {
        if r.gpht_edp_pct < r.reactive_edp_pct - 1.5 {
            v.push(format!(
                "{}: GPHT EDP {:.1}% below reactive {:.1}%",
                r.name, r.gpht_edp_pct, r.reactive_edp_pct
            ));
        }
    }
    for name in ["applu_in", "equake_in", "mgrid_in"] {
        if let Some(r) = fig.row(name) {
            if r.gpht_edp_pct < r.reactive_edp_pct + 2.0 {
                v.push(format!(
                    "{name}: GPHT ({:.1}%) should clearly beat reactive ({:.1}%)",
                    r.gpht_edp_pct, r.reactive_edp_pct
                ));
            }
            if r.gpht_deg_pct > r.reactive_deg_pct + 1.0 {
                v.push(format!(
                    "{name}: GPHT degradation {:.1}% should not exceed reactive {:.1}%",
                    r.gpht_deg_pct, r.reactive_deg_pct
                ));
            }
        } else {
            v.push(format!("{name} missing"));
        }
    }

    // swim: virtually no variability — both systems nearly identical.
    if let Some(r) = fig.row("swim_in") {
        if (r.gpht_edp_pct - r.reactive_edp_pct).abs() > 3.0 {
            v.push(format!(
                "swim: GPHT {:.1}% vs reactive {:.1}% should be ~equal",
                r.gpht_edp_pct, r.reactive_edp_pct
            ));
        }
    }

    // Averages: the paper reports 27% (GPHT) vs 20% (reactive) EDP
    // improvement — i.e. a clear multi-point gap — with comparable or
    // lower degradation.
    let n = fig.rows.len() as f64;
    let avg_g: f64 = fig.rows.iter().map(|r| r.gpht_edp_pct).sum::<f64>() / n;
    let avg_r: f64 = fig.rows.iter().map(|r| r.reactive_edp_pct).sum::<f64>() / n;
    if avg_g - avg_r < 2.0 {
        v.push(format!(
            "average GPHT EDP gain {avg_g:.1}% should exceed reactive {avg_r:.1}% by ~7 points"
        ));
    }
    let avg_gd: f64 = fig.rows.iter().map(|r| r.gpht_deg_pct).sum::<f64>() / n;
    let avg_rd: f64 = fig.rows.iter().map(|r| r.reactive_deg_pct).sum::<f64>() / n;
    if avg_gd > avg_rd + 1.0 {
        v.push(format!(
            "average GPHT degradation {avg_gd:.1}% should be <= reactive {avg_rd:.1}%"
        ));
    }
    v
}

impl Figure12 {
    /// The head-to-head comparison as a table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "benchmark".into(),
            "EDP gain LV %".into(),
            "EDP gain GPHT %".into(),
            "deg LV %".into(),
            "deg GPHT %".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                num(r.reactive_edp_pct, 1),
                num(r.gpht_edp_pct, 1),
                num(r.reactive_deg_pct, 1),
                num(r.gpht_deg_pct, 1),
            ]);
        }
        t
    }
}

impl fmt::Display for Figure12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Figure 12. EDP improvement and performance degradation with \
             GPHT and last-value (reactive) management.\n\n{}",
            self.table().render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure12_shape_holds() {
        let fig = run(crate::DEFAULT_SEED);
        let violations = check(&fig);
        assert!(violations.is_empty(), "{violations:#?}");
        assert_eq!(fig.rows.len(), 8);
    }
}
