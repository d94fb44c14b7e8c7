//! Overhead sensitivity: the paper's "no observable overheads" claim,
//! stress-tested.
//!
//! The deployed system's per-PMI costs (≈ 10 µs handler, ≈ 50 µs DVFS
//! switch) are invisible against ≈ 100 ms sampling intervals. This
//! ablation sweeps both costs upward until they *do* show, locating the
//! safety margin of the 100 M-uop design point.

use crate::format::{num, Table};
use crate::runs::require_benchmark;
use crate::ShapeViolations;
use livephase_governor::{par_map, Manager, ManagerConfig};
use livephase_pmsim::PlatformConfig;
use std::fmt;

/// One overhead configuration's outcome.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Handler execution cost per PMI, in seconds.
    pub handler_s: f64,
    /// DVFS transition stall, in seconds.
    pub transition_s: f64,
    /// Measured EDP improvement over the *zero-overhead baseline run* (%).
    pub edp_pct: f64,
    /// Fraction of wall time spent in overheads (%).
    pub overhead_share_pct: f64,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct OverheadAblation {
    /// One row per configuration, mildest first.
    pub rows: Vec<OverheadRow>,
}

/// The (handler, transition) grid swept, in seconds.
pub const SWEEP: [(f64, f64); 5] = [
    (0.0, 0.0),
    (10e-6, 50e-6),   // the deployed values
    (100e-6, 500e-6), // 10x
    (1e-3, 5e-3),     // 100x
    (5e-3, 20e-3),    // pathological
];

/// Runs applu under GPHT management with each overhead configuration.
#[must_use]
pub fn run(seed: u64) -> OverheadAblation {
    let trace = require_benchmark("applu_in")
        .with_length(400)
        .generate(seed);
    // Baseline measured with zero overheads: the reference is the ideal
    // unmanaged machine.
    let base_platform = PlatformConfig {
        dvfs_transition_s: 0.0,
        ..PlatformConfig::pentium_m()
    };
    let baseline = Manager::baseline_with(ManagerConfig {
        handler_overhead_s: 0.0,
        ..ManagerConfig::pentium_m()
    })
    .run(&trace, &base_platform);

    let rows = par_map(&SWEEP, |&(handler_s, transition_s)| {
        let platform = PlatformConfig {
            dvfs_transition_s: transition_s,
            ..PlatformConfig::pentium_m()
        };
        let report = Manager::gpht_deployed_with(ManagerConfig {
            handler_overhead_s: handler_s,
            ..ManagerConfig::pentium_m()
        })
        .run(&trace, &platform);
        let c = report.compare_to(&baseline);
        let overhead_s = handler_s * report.intervals.len() as f64
            + transition_s * report.dvfs_transitions as f64;
        OverheadRow {
            handler_s,
            transition_s,
            edp_pct: c.edp_improvement_pct(),
            overhead_share_pct: 100.0 * overhead_s / report.totals.time_s,
        }
    });
    OverheadAblation { rows }
}

/// The deployed overheads must be invisible (≈ the zero-overhead result);
/// the pathological end must visibly hurt.
#[must_use]
pub fn check(a: &OverheadAblation) -> ShapeViolations {
    let mut v = Vec::new();
    let zero = a.rows[0].edp_pct;
    let deployed = a.rows[1].edp_pct;
    let worst = a.rows.last().expect("non-empty").edp_pct;
    if (deployed - zero).abs() > 0.5 {
        v.push(format!(
            "deployed overheads shift EDP by {:.2} points — should be invisible",
            (deployed - zero).abs()
        ));
    }
    if a.rows[1].overhead_share_pct > 0.2 {
        v.push(format!(
            "deployed overhead share {:.3}% should be ~0.05%",
            a.rows[1].overhead_share_pct
        ));
    }
    if zero - worst < 2.0 {
        v.push(format!(
            "pathological overheads should visibly erode EDP \
             (zero {zero:.1}% vs worst {worst:.1}%)"
        ));
    }
    v
}

impl fmt::Display for OverheadAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(vec![
            "handler".into(),
            "transition".into(),
            "EDP gain %".into(),
            "overhead share %".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                format!("{:.0} us", r.handler_s * 1e6),
                format!("{:.0} us", r.transition_s * 1e6),
                num(r.edp_pct, 1),
                num(r.overhead_share_pct, 3),
            ]);
        }
        write!(
            f,
            "Ablation: PMI-handler and DVFS-transition overhead sensitivity \
             (applu, 100 M-uop sampling).\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_ablation_shape_holds() {
        let a = run(crate::DEFAULT_SEED);
        let violations = check(&a);
        assert!(violations.is_empty(), "{violations:#?}");
        assert_eq!(a.rows.len(), SWEEP.len());
    }
}
