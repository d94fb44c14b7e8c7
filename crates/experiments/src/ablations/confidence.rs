//! Confidence-gating ablation: does gating the GPHT behind a saturating
//! confidence counter reduce misprediction damage?
//!
//! On learnable workloads the gate should be transparent (GPHT stays
//! trusted); on hostile streams it bounds the damage toward the reactive
//! result. The interesting question is whether it costs anything where
//! GPHT is already good.

use crate::format::{num, pct, Table};
use crate::runs::require_benchmark;
use crate::ShapeViolations;
use livephase_core::{ConfidentPredictor, Gpht, GphtConfig};
use livephase_engine::{DecisionEngine, EngineConfig};
use livephase_governor::{par_map, Manager};
use livephase_pmsim::PlatformConfig;
use livephase_workloads::spec;
use std::fmt;

/// One benchmark's gated-vs-plain comparison.
#[derive(Debug, Clone)]
pub struct ConfidenceRow {
    /// Benchmark name.
    pub name: String,
    /// Plain GPHT prediction accuracy.
    pub plain_acc: f64,
    /// Gated GPHT prediction accuracy.
    pub gated_acc: f64,
    /// Plain GPHT EDP improvement (%).
    pub plain_edp_pct: f64,
    /// Gated GPHT EDP improvement (%).
    pub gated_edp_pct: f64,
}

/// The ablation result.
#[derive(Debug, Clone)]
pub struct ConfidenceAblation {
    /// One row per Figure 12 benchmark.
    pub rows: Vec<ConfidenceRow>,
}

/// Runs the Figure 12 set under plain and confidence-gated GPHT.
#[must_use]
pub fn run(seed: u64) -> ConfidenceAblation {
    let platform = PlatformConfig::pentium_m();
    let rows = par_map(&spec::figure12_set(), |name| {
        let bench = require_benchmark(name);
        let baseline = Manager::baseline().run(bench.stream(seed), &platform);
        let plain = Manager::gpht_deployed().run(bench.stream(seed), &platform);
        let gated = DecisionEngine::new(EngineConfig::pentium_m(), || {
            Box::new(ConfidentPredictor::new(
                Gpht::new(GphtConfig::DEPLOYED),
                2,
                2,
            ))
        });
        let gated = Manager::with_engine(gated).run(bench.stream(seed), &platform);
        ConfidenceRow {
            name: (*name).to_owned(),
            plain_acc: plain.prediction.accuracy(),
            gated_acc: gated.prediction.accuracy(),
            plain_edp_pct: plain.compare_to(&baseline).edp_improvement_pct(),
            gated_edp_pct: gated.compare_to(&baseline).edp_improvement_pct(),
        }
    });
    ConfidenceAblation { rows }
}

/// The gate must be essentially free where GPHT is good.
#[must_use]
pub fn check(a: &ConfidenceAblation) -> ShapeViolations {
    let mut v = Vec::new();
    for r in &a.rows {
        if r.gated_edp_pct < r.plain_edp_pct - 2.0 {
            v.push(format!(
                "{}: gating costs {:.1} EDP points",
                r.name,
                r.plain_edp_pct - r.gated_edp_pct
            ));
        }
        if r.gated_acc < r.plain_acc - 0.05 {
            v.push(format!(
                "{}: gating costs {:.1} accuracy points",
                r.name,
                (r.plain_acc - r.gated_acc) * 100.0
            ));
        }
    }
    v
}

impl fmt::Display for ConfidenceAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(vec![
            "benchmark".into(),
            "acc plain %".into(),
            "acc gated %".into(),
            "EDP plain %".into(),
            "EDP gated %".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                pct(r.plain_acc),
                pct(r.gated_acc),
                num(r.plain_edp_pct, 1),
                num(r.gated_edp_pct, 1),
            ]);
        }
        write!(
            f,
            "Ablation: confidence-gated GPHT (2-bit counter, threshold 2) \
             vs plain GPHT.\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_ablation_shape_holds() {
        let a = run(crate::DEFAULT_SEED);
        let violations = check(&a);
        assert!(violations.is_empty(), "{violations:#?}");
        assert_eq!(a.rows.len(), 8);
    }
}
