//! Duration-guided adaptive sampling: fewer interrupts for stable phases.
//!
//! The companion duration-prediction work exists so a manager can *skip
//! re-evaluation* while a long phase persists. With the platform's PMI
//! window re-armable from the handler, the manager stretches the next
//! window (up to 4x the 100 M-uop base) whenever its duration predictor
//! expects the current phase to continue — cutting handler invocations on
//! stable workloads at (near) zero efficiency cost.

use crate::format::{num, Table};
use crate::runs::require_benchmark;
use crate::ShapeViolations;
use livephase_governor::{par_map, AdaptiveSampling, ManagerConfig, Session};
use livephase_pmsim::PlatformConfig;
use std::fmt;

/// One benchmark's plain-vs-adaptive comparison.
#[derive(Debug, Clone)]
pub struct SamplingRow {
    /// Benchmark name.
    pub name: String,
    /// Handler invocations under fixed 100 M-uop sampling.
    pub plain_pmis: usize,
    /// Handler invocations under adaptive sampling.
    pub adaptive_pmis: usize,
    /// EDP improvement vs baseline, fixed sampling (%).
    pub plain_edp_pct: f64,
    /// EDP improvement vs baseline, adaptive sampling (%).
    pub adaptive_edp_pct: f64,
}

impl SamplingRow {
    /// Interrupt-rate reduction factor.
    #[must_use]
    pub fn pmi_reduction(&self) -> f64 {
        self.plain_pmis as f64 / self.adaptive_pmis.max(1) as f64
    }
}

/// The experiment result.
#[derive(Debug, Clone)]
pub struct AdaptiveSamplingExperiment {
    /// One row per probed benchmark.
    pub rows: Vec<SamplingRow>,
}

/// The probe set: a stable run (long phases: big wins expected), the
/// paper's variable example (short phases: little to skip), and a
/// mid-pack run.
pub const BENCHMARKS: [&str; 3] = ["swim_in", "applu_in", "gzip_log"];

/// Runs each benchmark with fixed and adaptive sampling.
#[must_use]
pub fn run(seed: u64) -> AdaptiveSamplingExperiment {
    let platform = PlatformConfig::pentium_m();
    let session = Session::new(&platform);
    let adaptive_session = session.clone().with_config(ManagerConfig {
        adaptive_sampling: Some(AdaptiveSampling::pentium_m()),
        ..ManagerConfig::pentium_m()
    });
    let rows = par_map(&BENCHMARKS, |name| {
        let bench = require_benchmark(name).with_length(600);
        let baseline = session.baseline(bench.stream(seed));
        let plain = session.gpht(bench.stream(seed));
        let adaptive = adaptive_session.gpht(bench.stream(seed));
        SamplingRow {
            name: (*name).to_owned(),
            plain_pmis: plain.intervals.len(),
            adaptive_pmis: adaptive.intervals.len(),
            plain_edp_pct: plain.compare_to(&baseline).edp_improvement_pct(),
            adaptive_edp_pct: adaptive.compare_to(&baseline).edp_improvement_pct(),
        }
    });
    AdaptiveSamplingExperiment { rows }
}

/// Stable workloads shed most interrupts at near-zero EDP cost; variable
/// workloads must not be hurt.
#[must_use]
pub fn check(e: &AdaptiveSamplingExperiment) -> ShapeViolations {
    let mut v = Vec::new();
    let find = |n: &str| e.rows.iter().find(|r| r.name == n);
    if let Some(swim) = find("swim_in") {
        // The first (long) run must complete at 1x before durations are
        // learnable, so over 600 intervals the ceiling is ~2.5-3x.
        if swim.pmi_reduction() < 2.0 {
            v.push(format!(
                "swim (flat phases) should shed most interrupts, got {:.1}x",
                swim.pmi_reduction()
            ));
        }
        if (swim.plain_edp_pct - swim.adaptive_edp_pct).abs() > 2.0 {
            v.push(format!(
                "swim: adaptive sampling changed EDP by {:.1} points",
                (swim.plain_edp_pct - swim.adaptive_edp_pct).abs()
            ));
        }
    }
    for r in &e.rows {
        if r.adaptive_edp_pct < r.plain_edp_pct - 4.0 {
            v.push(format!(
                "{}: adaptive sampling costs {:.1} EDP points",
                r.name,
                r.plain_edp_pct - r.adaptive_edp_pct
            ));
        }
        if r.adaptive_pmis > r.plain_pmis {
            v.push(format!("{}: adaptive sampling added interrupts?", r.name));
        }
    }
    v
}

impl fmt::Display for AdaptiveSamplingExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(vec![
            "benchmark".into(),
            "PMIs fixed".into(),
            "PMIs adaptive".into(),
            "reduction".into(),
            "EDP fixed %".into(),
            "EDP adaptive %".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                r.plain_pmis.to_string(),
                r.adaptive_pmis.to_string(),
                format!("{:.1}x", r.pmi_reduction()),
                num(r.plain_edp_pct, 1),
                num(r.adaptive_edp_pct, 1),
            ]);
        }
        write!(
            f,
            "Extension: duration-guided adaptive sampling (PMI window \
             stretched up to 4x through predicted-stable phases).\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_sampling_shape_holds() {
        let e = run(crate::DEFAULT_SEED);
        let violations = check(&e);
        assert!(violations.is_empty(), "{violations:#?}");
        assert_eq!(e.rows.len(), 3);
    }
}
