//! How much of the perfect-prediction headroom does the GPHT capture?
//!
//! Runs the Figure 12 benchmark set under an [`Oracle`] policy that knows
//! the actual next phase, and reports GPHT's EDP gain as a fraction of the
//! oracle's.

use crate::format::{num, Table};
use crate::runs::require_benchmark;
use crate::ShapeViolations;
use livephase_core::PhaseMap;
use livephase_engine::{DecisionEngine, EngineConfig};
use livephase_governor::{par_map, Manager, Oracle};
use livephase_pmsim::PlatformConfig;
use livephase_workloads::spec;
use std::fmt;

/// One benchmark's oracle-vs-GPHT comparison.
#[derive(Debug, Clone)]
pub struct OracleRow {
    /// Benchmark name.
    pub name: String,
    /// GPHT EDP improvement (%).
    pub gpht_edp_pct: f64,
    /// Oracle EDP improvement (%).
    pub oracle_edp_pct: f64,
}

impl OracleRow {
    /// GPHT's share of the oracle headroom (1.0 = fully captured).
    #[must_use]
    pub fn capture(&self) -> f64 {
        if self.oracle_edp_pct.abs() < 1e-9 {
            1.0
        } else {
            self.gpht_edp_pct / self.oracle_edp_pct
        }
    }
}

/// The ablation result.
#[derive(Debug, Clone)]
pub struct OracleGap {
    /// Rows over the Figure 12 set.
    pub rows: Vec<OracleRow>,
}

/// Measures GPHT vs oracle over the Figure 12 set.
#[must_use]
pub fn run(seed: u64) -> OracleGap {
    let platform = PlatformConfig::pentium_m();
    let map = PhaseMap::pentium_m();
    let rows = par_map(&spec::figure12_set(), |name| {
        let bench = require_benchmark(name);
        // The oracle needs the whole future, so this one driver still
        // materializes the trace.
        let trace = bench.generate(seed);
        let baseline = Manager::baseline().run(&trace, &platform);
        let gpht = Manager::gpht_deployed().run(&trace, &platform);
        let oracle = Oracle::from_trace(&trace, &map);
        let oracle =
            DecisionEngine::new(EngineConfig::pentium_m(), move || Box::new(oracle.clone()))
                .with_name("Oracle");
        let oracle = Manager::with_engine(oracle).run(&trace, &platform);
        OracleRow {
            name: (*name).to_owned(),
            gpht_edp_pct: gpht.compare_to(&baseline).edp_improvement_pct(),
            oracle_edp_pct: oracle.compare_to(&baseline).edp_improvement_pct(),
        }
    });
    OracleGap { rows }
}

/// The GPHT should capture the bulk of the oracle headroom on learnable
/// workloads and never exceed it by more than noise.
#[must_use]
pub fn check(a: &OracleGap) -> ShapeViolations {
    let mut v = Vec::new();
    for r in &a.rows {
        if r.gpht_edp_pct > r.oracle_edp_pct + 1.0 {
            v.push(format!(
                "{}: GPHT ({:.1}%) beats the oracle ({:.1}%)?",
                r.name, r.gpht_edp_pct, r.oracle_edp_pct
            ));
        }
    }
    let captures: Vec<f64> = a.rows.iter().map(OracleRow::capture).collect();
    let mean = captures.iter().sum::<f64>() / captures.len() as f64;
    if mean < 0.7 {
        v.push(format!(
            "GPHT captures only {:.0}% of oracle headroom on average",
            mean * 100.0
        ));
    }
    v
}

impl fmt::Display for OracleGap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(vec![
            "benchmark".into(),
            "EDP gain GPHT %".into(),
            "EDP gain Oracle %".into(),
            "captured".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                num(r.gpht_edp_pct, 1),
                num(r.oracle_edp_pct, 1),
                format!("{:.0}%", r.capture() * 100.0),
            ]);
        }
        write!(
            f,
            "Ablation: GPHT vs a perfect next-phase oracle.\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_gap_shape_holds() {
        let a = run(crate::DEFAULT_SEED);
        let violations = check(&a);
        assert!(violations.is_empty(), "{violations:#?}");
        assert_eq!(a.rows.len(), 8);
    }
}
