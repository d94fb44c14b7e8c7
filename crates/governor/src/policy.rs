//! What the manager applies after the engine decides: the post-decision
//! hook, the platform state it sees, and the oracle's perfect-knowledge
//! predictor.

use livephase_core::{PhaseId, PhaseMap, PhaseSample, Predictor};
use livephase_engine::Decision;
use livephase_workloads::WorkloadTrace;

/// Runtime feedback available to a [`DecisionHook`] at each PMI.
///
/// Plain power management needs only the engine's decision; thermal
/// management and power capping (the paper's other named applications)
/// additionally read back platform state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Environment {
    /// Junction temperature at the interrupt, when the manager tracks a
    /// thermal model.
    pub temperature_c: Option<f64>,
    /// DVFS setting in effect during the elapsed interval.
    pub current_setting: usize,
    /// Average power of the elapsed interval, in watts.
    pub interval_power_w: f64,
}

/// The manager's one extension point: turns the engine's [`Decision`] for
/// the next interval into the DVFS setting to apply, with the platform's
/// [`Environment`] in view.
///
/// Classification, prediction and translation stay in the engine; a hook
/// only reshapes the outcome (throttle for temperature, cap power, hold a
/// setting). Without a hook the manager applies `decision.op_point`.
pub trait DecisionHook {
    /// The DVFS setting index to apply for the next interval.
    fn setting(&mut self, decision: &Decision, env: &Environment) -> usize;

    /// The run's display name, given the engine's (e.g. `MinDwell_2(…)`).
    fn name(&self, engine: &str) -> String;
}

/// A perfect-knowledge upper bound: a [`Predictor`] that replays the
/// workload's *actual* phase sequence, so every interval runs at the
/// setting its phase deserves.
///
/// Not implementable on a real system — it exists to measure how much of
/// the oracle headroom the GPHT captures (an ablation the paper's
/// framework invites but does not run). It runs on the engine like any
/// predictor, labelled `Oracle`.
#[derive(Debug, Clone)]
pub struct Oracle {
    phases: Vec<PhaseId>,
    /// Index of the interval whose sample arrives next.
    cursor: usize,
}

impl Oracle {
    /// Builds the oracle for a workload under a phase map.
    #[must_use]
    pub fn from_trace(trace: &WorkloadTrace, map: &PhaseMap) -> Self {
        let phases = trace.iter().map(|w| map.classify(w.mem_uop())).collect();
        Self { phases, cursor: 0 }
    }
}

impl Predictor for Oracle {
    fn observe(&mut self, _sample: PhaseSample) {
        self.cursor += 1;
    }

    /// The phase of interval `cursor` — after the sample ending interval
    /// `cursor - 1`, that is the next one; past the end, the last known
    /// phase.
    fn predict(&self) -> PhaseId {
        self.phases
            .get(self.cursor)
            .or_else(|| self.phases.last())
            .copied()
            .unwrap_or(PhaseId::CPU_BOUND)
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }

    fn name(&self) -> String {
        "Oracle".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{Manager, ManagerConfig};
    use livephase_engine::{DecisionEngine, EngineConfig};
    use livephase_pmsim::PlatformConfig;
    use livephase_workloads::spec;

    #[test]
    fn oracle_predicts_perfectly() {
        let trace = spec::benchmark("applu_in")
            .unwrap()
            .with_length(120)
            .generate(3);
        let oracle = Oracle::from_trace(&trace, &PhaseMap::pentium_m());
        let engine =
            DecisionEngine::new(EngineConfig::pentium_m(), move || Box::new(oracle.clone()))
                .with_name("Oracle");
        let report = Manager::with_engine(engine, ManagerConfig::pentium_m())
            .run(&trace, &PlatformConfig::pentium_m());
        assert_eq!(report.policy, "Oracle");
        assert_eq!(
            report.prediction.correct, report.prediction.total,
            "the oracle never mispredicts"
        );
        // And it dominates GPHT on EDP for the same workload.
        let baseline = Manager::baseline().run(&trace, &PlatformConfig::pentium_m());
        let gpht = Manager::gpht_deployed().run(&trace, &PlatformConfig::pentium_m());
        let oracle_edp = report.compare_to(&baseline).edp_improvement_pct();
        let gpht_edp = gpht.compare_to(&baseline).edp_improvement_pct();
        assert!(
            oracle_edp >= gpht_edp - 0.5,
            "oracle {oracle_edp:.1}% vs GPHT {gpht_edp:.1}%"
        );
    }
}
