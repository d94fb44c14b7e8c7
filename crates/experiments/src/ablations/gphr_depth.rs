//! GPHR depth ablation: why the deployed predictor keeps 8 phases of
//! history.
//!
//! Too shallow a register cannot disambiguate positions inside repetitive
//! patterns; too deep a register dilutes the PHT with long tags that
//! rarely recur (and costs tag-compare time).

use crate::format::{pct, Table};
use crate::predictors::accuracy_on;
use crate::runs::require_benchmark;
use crate::ShapeViolations;
use livephase_core::{Gpht, GphtConfig};
use livephase_workloads::spec;
use std::fmt;

/// The depths swept.
pub const DEPTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Accuracy of each depth on one benchmark (PHT fixed at 128 entries).
#[derive(Debug, Clone)]
pub struct DepthRow {
    /// Benchmark name.
    pub name: String,
    /// `(depth, accuracy)` pairs, shallow first.
    pub by_depth: Vec<(usize, f64)>,
}

impl DepthRow {
    /// Accuracy at a given depth.
    #[must_use]
    pub fn at(&self, depth: usize) -> Option<f64> {
        self.by_depth
            .iter()
            .find(|&&(d, _)| d == depth)
            .map(|&(_, a)| a)
    }
}

/// The ablation result.
#[derive(Debug, Clone)]
pub struct GphrDepthAblation {
    /// One row per variable benchmark.
    pub rows: Vec<DepthRow>,
}

/// Sweeps GPHR depth over the paper's "variable six".
#[must_use]
pub fn run(seed: u64) -> GphrDepthAblation {
    let rows = spec::variable_six()
        .iter()
        .map(|name| {
            let trace = require_benchmark(name).generate(seed);
            let by_depth = DEPTHS
                .iter()
                .map(|&depth| {
                    let mut g = Gpht::new(GphtConfig {
                        gphr_depth: depth,
                        pht_entries: 128,
                    });
                    (depth, accuracy_on(&mut g, &trace).accuracy())
                })
                .collect();
            DepthRow {
                name: (*name).to_owned(),
                by_depth,
            }
        })
        .collect();
    GphrDepthAblation { rows }
}

/// Depth 8 should be on the plateau: clearly better than depth 1–2,
/// and within noise of 16.
#[must_use]
pub fn check(a: &GphrDepthAblation) -> ShapeViolations {
    let mut v = Vec::new();
    let mut better_than_shallow = 0;
    for r in &a.rows {
        let d8 = r.at(8).unwrap_or(0.0);
        let d1 = r.at(1).unwrap_or(0.0);
        let d16 = r.at(16).unwrap_or(0.0);
        if d8 > d1 + 0.05 {
            better_than_shallow += 1;
        }
        if d16 > d8 + 0.05 {
            v.push(format!(
                "{}: depth 16 ({d16:.3}) much better than 8 ({d8:.3}) — plateau broken",
                r.name
            ));
        }
    }
    if better_than_shallow < 4 {
        v.push(format!(
            "depth 8 should clearly beat depth 1 on the variable six \
             (only {better_than_shallow}/6)"
        ));
    }
    v
}

impl fmt::Display for GphrDepthAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut header = vec!["benchmark".to_owned()];
        header.extend(DEPTHS.iter().map(|d| format!("depth {d}")));
        let mut t = Table::new(header);
        for r in &self.rows {
            let mut row = vec![r.name.clone()];
            row.extend(r.by_depth.iter().map(|&(_, a)| pct(a)));
            t.row(row);
        }
        write!(
            f,
            "Ablation: GPHT accuracy (%) vs GPHR depth (PHT 128).\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_ablation_shape_holds() {
        let a = run(crate::DEFAULT_SEED);
        let violations = check(&a);
        assert!(violations.is_empty(), "{violations:#?}");
        assert_eq!(a.rows.len(), 6);
    }
}
