//! Sampling-granularity ablation.
//!
//! The paper "experimented with various instruction granularities and used
//! 100 million instructions as a safe granularity". This ablation re-runs
//! the managed system at finer and coarser PMI granularities: finer
//! sampling sees each workload level as a long stable run (easier to
//! predict, more handler invocations); coarser sampling blurs adjacent
//! levels together (phases average out, opportunities vanish).

use crate::format::{num, pct, Table};
use crate::runs::require_benchmark;
use crate::ShapeViolations;
use livephase_governor::{par_map, Manager};
use livephase_pmsim::PlatformConfig;
use std::fmt;

/// Granularities swept, in retired uops per PMI.
pub const GRANULARITIES: [u64; 4] = [10_000_000, 50_000_000, 100_000_000, 500_000_000];

/// One granularity's outcome on applu.
#[derive(Debug, Clone)]
pub struct GranularityRow {
    /// Uops per sampling interval.
    pub granularity: u64,
    /// Sampling intervals the run produced.
    pub intervals: usize,
    /// GPHT prediction accuracy.
    pub accuracy: f64,
    /// EDP improvement vs the baseline at the same granularity (%).
    pub edp_pct: f64,
    /// Performance degradation (%).
    pub deg_pct: f64,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct GranularityAblation {
    /// One row per granularity, finest first.
    pub rows: Vec<GranularityRow>,
}

/// Runs applu managed vs baseline at each granularity.
#[must_use]
pub fn run(seed: u64) -> GranularityAblation {
    let trace = require_benchmark("applu_in")
        .with_length(400)
        .generate(seed);
    let rows = par_map(&GRANULARITIES, |&granularity| {
        let platform = PlatformConfig {
            pmi_granularity_uops: granularity,
            ..PlatformConfig::pentium_m()
        };
        let baseline = Manager::baseline().run(&trace, &platform);
        let managed = Manager::gpht_deployed().run(&trace, &platform);
        let c = managed.compare_to(&baseline);
        GranularityRow {
            granularity,
            intervals: managed.intervals.len(),
            accuracy: managed.prediction.accuracy(),
            edp_pct: c.edp_improvement_pct(),
            deg_pct: c.perf_degradation_pct(),
        }
    });
    GranularityAblation { rows }
}

/// Fine sampling must not *lose* EDP (it sees the same phases, more
/// often); very coarse sampling must blur phases and shrink the win.
#[must_use]
pub fn check(a: &GranularityAblation) -> ShapeViolations {
    let mut v = Vec::new();
    let at = |g: u64| a.rows.iter().find(|r| r.granularity == g);
    let (Some(fine), Some(paper), Some(coarse)) =
        (at(10_000_000), at(100_000_000), at(500_000_000))
    else {
        return vec!["sweep incomplete".to_owned()];
    };
    if fine.accuracy < paper.accuracy - 0.02 {
        v.push(format!(
            "finer sampling should predict at least as well \
             ({:.3} vs {:.3})",
            fine.accuracy, paper.accuracy
        ));
    }
    if coarse.edp_pct > paper.edp_pct - 1.0 {
        v.push(format!(
            "5x coarser sampling should blur phases and shrink EDP \
             ({:.1}% vs {:.1}%)",
            coarse.edp_pct, paper.edp_pct
        ));
    }
    if fine.intervals <= paper.intervals {
        v.push("finer granularity must produce more intervals".to_owned());
    }
    v
}

impl fmt::Display for GranularityAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(vec![
            "uops/PMI".into(),
            "intervals".into(),
            "accuracy %".into(),
            "EDP gain %".into(),
            "deg %".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                format!("{}M", r.granularity / 1_000_000),
                r.intervals.to_string(),
                pct(r.accuracy),
                num(r.edp_pct, 1),
                num(r.deg_pct, 1),
            ]);
        }
        write!(
            f,
            "Ablation: PMI sampling granularity (applu under GPHT management).\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_ablation_shape_holds() {
        let a = run(crate::DEFAULT_SEED);
        let violations = check(&a);
        assert!(violations.is_empty(), "{violations:#?}");
        assert_eq!(a.rows.len(), GRANULARITIES.len());
    }
}
