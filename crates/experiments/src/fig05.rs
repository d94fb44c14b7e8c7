//! Figure 5 — GPHT prediction accuracy for different numbers of PHT
//! entries.
//!
//! The paper varies the PHT from 1024 entries down to 1 on the 18
//! less-predictable benchmarks and finds: 128 entries ≈ 1024 entries,
//! observable degradation at 64, and convergence to last-value at 1 (the
//! tag virtually never matches, so the predictor always falls back).

use crate::format::{pct, Table};
use crate::predictors::accuracy_on;
use crate::runs::require_benchmark;
use crate::ShapeViolations;
use livephase_core::{Gpht, GphtConfig, LastValue};
use livephase_governor::par_map;
use livephase_workloads::spec;
use std::fmt;

/// The benchmarks shown in the paper's Figure 5, in its x-axis order.
pub const FIGURE5_BENCHMARKS: [&str; 18] = [
    "gzip_log",
    "mcf_inp",
    "gcc_200",
    "gcc_scilab",
    "wupwise_ref",
    "gap_ref",
    "gcc_integrate",
    "gcc_expr",
    "ammp_in",
    "gcc_166",
    "parser_ref",
    "apsi_ref",
    "bzip2_program",
    "mgrid_in",
    "bzip2_source",
    "bzip2_graphic",
    "applu_in",
    "equake_in",
];

/// The PHT sizes swept, as in the paper.
pub const PHT_SIZES: [usize; 4] = [1024, 128, 64, 1];

/// Accuracy of each configuration on one benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkRow {
    /// Benchmark name.
    pub name: String,
    /// Last-value accuracy (the convergence floor).
    pub last_value: f64,
    /// `(pht_entries, accuracy)`, largest table first.
    pub gpht: Vec<(usize, f64)>,
}

impl BenchmarkRow {
    /// GPHT accuracy at a PHT size.
    #[must_use]
    pub fn at(&self, pht_entries: usize) -> Option<f64> {
        self.gpht
            .iter()
            .find(|&&(n, _)| n == pht_entries)
            .map(|&(_, a)| a)
    }
}

/// The Figure 5 sweep.
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// One row per benchmark, in the paper's order.
    pub rows: Vec<BenchmarkRow>,
}

/// Runs the PHT-size sweep, one worker per benchmark, in the paper's
/// order.
#[must_use]
pub fn run(seed: u64) -> Figure5 {
    let rows = par_map(&FIGURE5_BENCHMARKS, |name| {
        let trace = require_benchmark(name).generate(seed);
        let last_value = accuracy_on(&mut LastValue::new(), &trace).accuracy();
        let gpht = PHT_SIZES
            .iter()
            .map(|&entries| {
                let mut p = Gpht::new(GphtConfig {
                    gphr_depth: 8,
                    pht_entries: entries,
                });
                (entries, accuracy_on(&mut p, &trace).accuracy())
            })
            .collect();
        BenchmarkRow {
            name: (*name).to_owned(),
            last_value,
            gpht,
        }
    });
    Figure5 { rows }
}

/// The paper's claims: 128 ≈ 1024; 64 observably worse on the variable
/// runs; 1 entry ≈ last value.
#[must_use]
pub fn check(fig: &Figure5) -> ShapeViolations {
    let mut v = Vec::new();
    for r in &fig.rows {
        let a1024 = r.at(1024).unwrap_or(0.0);
        let a128 = r.at(128).unwrap_or(0.0);
        let a1 = r.at(1).unwrap_or(0.0);
        if (a128 - a1024).abs() > 0.03 {
            v.push(format!(
                "{}: PHT 128 ({a128:.3}) should track PHT 1024 ({a1024:.3})",
                r.name
            ));
        }
        if (a1 - r.last_value).abs() > 0.02 {
            v.push(format!(
                "{}: PHT 1 ({a1:.3}) should converge to last value ({:.3})",
                r.name, r.last_value
            ));
        }
    }
    // Observable degradation with 64 entries on the most variable runs.
    let mut degraded = 0;
    for name in spec::variable_six() {
        if let Some(r) = fig.rows.iter().find(|r| r.name == name) {
            let a128 = r.at(128).unwrap_or(0.0);
            let a64 = r.at(64).unwrap_or(0.0);
            if a128 - a64 > 0.01 {
                degraded += 1;
            }
        }
    }
    if degraded < 3 {
        v.push(format!(
            "PHT 64 should observably degrade on the variable benchmarks \
             (only {degraded}/6 degraded)"
        ));
    }
    v
}

impl Figure5 {
    /// The sweep as an accuracy table (percent).
    #[must_use]
    pub fn table(&self) -> Table {
        let mut header = vec!["benchmark".to_owned(), "LastValue".to_owned()];
        header.extend(PHT_SIZES.iter().map(|n| format!("PHT:{n}")));
        let mut t = Table::new(header);
        for r in &self.rows {
            let mut row = vec![r.name.clone(), pct(r.last_value)];
            row.extend(PHT_SIZES.iter().map(|&n| pct(r.at(n).unwrap_or(0.0))));
            t.row(row);
        }
        t
    }
}

impl fmt::Display for Figure5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Figure 5. GPHT prediction accuracy (%) for different number of \
             PHT entries (GPHR depth 8).\n\n{}",
            self.table().render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_shape_holds() {
        let fig = run(crate::DEFAULT_SEED);
        let violations = check(&fig);
        assert!(violations.is_empty(), "{violations:#?}");
        assert_eq!(fig.rows.len(), 18);
    }
}
