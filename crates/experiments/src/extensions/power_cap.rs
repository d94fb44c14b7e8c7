//! Bounding power consumption with phase predictions.
//!
//! Sweeps the cap from generous to tight on a mixed-behaviour workload and
//! verifies the cap is honoured while performance degrades gracefully.

use crate::format::{num, Table};
use crate::runs::require_benchmark;
use crate::ShapeViolations;
use livephase_governor::{par_map, Manager, PowerCap, PowerEstimator, RunReport, Session};
use livephase_pmsim::{PlatformConfig, PowerModelKind};
use livephase_workloads::WorkloadTrace;
use std::fmt;

/// Caps swept, in watts.
pub const CAPS: [f64; 4] = [12.0, 9.0, 6.0, 3.5];

/// One cap's outcome.
#[derive(Debug, Clone)]
pub struct CapRow {
    /// The configured cap, W.
    pub cap_w: f64,
    /// Measured average power, W.
    pub avg_power_w: f64,
    /// Measured peak interval power, W.
    pub peak_power_w: f64,
    /// Whole-run BIPS.
    pub bips: f64,
}

/// The experiment result.
#[derive(Debug, Clone)]
pub struct PowerCapExperiment {
    /// Uncapped (baseline) power and BIPS for reference.
    pub uncapped_power_w: f64,
    /// Uncapped BIPS.
    pub uncapped_bips: f64,
    /// One row per swept cap, loosest first.
    pub rows: Vec<CapRow>,
}

/// Runs applu under each cap with the default (analytic) estimator.
#[must_use]
pub fn run(seed: u64) -> PowerCapExperiment {
    run_with_model(seed, &PowerModelKind::default())
}

/// The capped workload: 400 intervals of applu.
pub(crate) fn workload(seed: u64) -> WorkloadTrace {
    require_benchmark("applu_in")
        .with_length(400)
        .generate(seed)
}

/// One GPHT-managed run of `trace` under a `cap_w`-watt cap, with
/// `model` pricing the policy's estimator. The platform physics stays
/// analytic — only the capping policy's beliefs about per-setting power
/// change.
pub(crate) fn capped_run(trace: &WorkloadTrace, model: &PowerModelKind, cap_w: f64) -> RunReport {
    let estimator = PowerEstimator::for_platform(&PlatformConfig {
        power: model.clone(),
        ..PlatformConfig::pentium_m()
    });
    Manager::gpht_deployed()
        .with_hook(Box::new(PowerCap::new(estimator, cap_w)))
        .run(trace, &PlatformConfig::pentium_m())
}

/// Runs applu under each cap with the given power backend pricing the
/// policy's estimator, so the measured cap/throughput trade-off isolates
/// the estimator's quality.
#[must_use]
pub fn run_with_model(seed: u64, model: &PowerModelKind) -> PowerCapExperiment {
    let trace = workload(seed);
    let baseline = Session::new(&PlatformConfig::pentium_m()).baseline(&trace);

    let rows = par_map(&CAPS, |&cap_w| {
        let report = capped_run(&trace, model, cap_w);
        let peak = report
            .intervals
            .iter()
            .map(livephase_governor::IntervalLog::power_w)
            .fold(0.0, f64::max);
        CapRow {
            cap_w,
            avg_power_w: report.average_power_w(),
            peak_power_w: peak,
            bips: report.bips(),
        }
    });
    PowerCapExperiment {
        uncapped_power_w: baseline.average_power_w(),
        uncapped_bips: baseline.bips(),
        rows,
    }
}

/// Every cap is honoured on average (mispredicted intervals may peak
/// past it briefly — one interval at most, like any reactive guard), and
/// tighter caps trade monotonically more performance.
#[must_use]
pub fn check(e: &PowerCapExperiment) -> ShapeViolations {
    let mut v = Vec::new();
    for r in &e.rows {
        if r.avg_power_w > r.cap_w * 1.02 {
            v.push(format!(
                "cap {} W: average power {:.2} W breaks the bound",
                r.cap_w, r.avg_power_w
            ));
        }
    }
    for w in e.rows.windows(2) {
        if w[1].bips > w[0].bips + 1e-9 {
            v.push(format!(
                "tighter cap {} W should not run faster than {} W",
                w[1].cap_w, w[0].cap_w
            ));
        }
        if w[1].avg_power_w > w[0].avg_power_w + 1e-9 {
            v.push("power must fall with the cap".into());
        }
    }
    // The loosest cap should barely constrain the run.
    if let Some(first) = e.rows.first() {
        if first.bips < e.uncapped_bips * 0.90 {
            v.push(format!(
                "a {} W cap on a ~{:.1} W workload should be nearly free",
                first.cap_w, e.uncapped_power_w
            ));
        }
    }
    v
}

impl fmt::Display for PowerCapExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(vec![
            "cap [W]".into(),
            "avg power [W]".into(),
            "peak power [W]".into(),
            "BIPS".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                num(r.cap_w, 1),
                num(r.avg_power_w, 2),
                num(r.peak_power_w, 2),
                num(r.bips, 2),
            ]);
        }
        write!(
            f,
            "Extension: bounding power consumption (applu; uncapped: \
             {:.2} W at {:.2} BIPS).\n\n{}",
            self.uncapped_power_w,
            self.uncapped_bips,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_cap_shape_holds() {
        let e = run(crate::DEFAULT_SEED);
        let violations = check(&e);
        assert!(violations.is_empty(), "{violations:#?}");
        assert_eq!(e.rows.len(), CAPS.len());
    }
}
