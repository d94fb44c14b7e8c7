//! The standard predictor line-up of the paper's Section 3.2 and shared
//! evaluation plumbing.

use livephase_core::{
    evaluate, FixedWindow, Gpht, GphtConfig, LastValue, PhaseMap, PhaseSample, PredictionStats,
    Predictor, Selector, VariableWindow,
};
use livephase_workloads::WorkloadTrace;

/// Builds the six predictors compared in Figure 4, in the paper's legend
/// order: fixed windows 8 and 128, variable windows (128, 0.005) and
/// (128, 0.030), GPHT(8, 1024), last value.
#[must_use]
pub fn figure4_lineup() -> Vec<Box<dyn Predictor>> {
    vec![
        Box::new(FixedWindow::new(8, Selector::Majority)),
        Box::new(FixedWindow::new(128, Selector::Majority)),
        Box::new(VariableWindow::new(128, 0.005)),
        Box::new(VariableWindow::new(128, 0.030)),
        Box::new(Gpht::new(GphtConfig::REFERENCE)),
        Box::new(LastValue::new()),
    ]
}

/// Converts a workload trace into the phase-sample stream a live monitor
/// would observe under `map`.
#[must_use]
pub fn sample_stream(trace: &WorkloadTrace, map: &PhaseMap) -> Vec<PhaseSample> {
    trace
        .iter()
        .map(|w| {
            let rate = w.mem_uop();
            PhaseSample::new(rate, map.classify(rate))
        })
        .collect()
}

/// Evaluates one predictor over a trace under the Table 1 phase map.
#[must_use]
pub fn accuracy_on(predictor: &mut dyn Predictor, trace: &WorkloadTrace) -> PredictionStats {
    let map = PhaseMap::pentium_m();
    evaluate(predictor, sample_stream(trace, &map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::require_benchmark;
    use livephase_engine::{DecisionEngine, EngineConfig, Sample};
    use livephase_workloads::counter_samples;

    #[test]
    fn lineup_matches_figure4_legend() {
        let names: Vec<String> = figure4_lineup().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "FixWindow_8",
                "FixWindow_128",
                "VarWindow_128_0.005",
                "VarWindow_128_0.03",
                "GPHT_8_1024",
                "LastValue",
            ]
        );
    }

    #[test]
    fn stream_classifies_each_interval() {
        let trace = require_benchmark("swim_in").with_length(20).generate(1);
        let stream = sample_stream(&trace, &PhaseMap::pentium_m());
        assert_eq!(stream.len(), 20);
        // swim is phase 5 (0.020..0.030) nearly everywhere.
        let p5 = stream.iter().filter(|s| s.phase.get() == 5).count();
        assert!(p5 >= 18, "{p5}/20 intervals at phase 5");
    }

    #[test]
    fn accuracy_on_runs_end_to_end() {
        let trace = require_benchmark("crafty_in").with_length(100).generate(1);
        let mut lv = LastValue::new();
        let stats = accuracy_on(&mut lv, &trace);
        assert_eq!(stats.total, 99);
        assert!(stats.accuracy() > 0.9);
    }

    #[test]
    fn engine_scoring_agrees_with_evaluate() {
        // The harness's offline scoring and the deployment pipeline's
        // own scoring (the trace's counter stream batched through a
        // DecisionEngine) are the same code path; their numbers must
        // agree exactly, predictor family by predictor family.
        let trace = require_benchmark("applu_in").with_length(150).generate(7);
        let samples: Vec<Sample> = counter_samples(&trace)
            .map(|s| Sample {
                pid: 0,
                uops: s.uops,
                mem_transactions: s.mem_transactions,
            })
            .collect();
        for (spec, mut predictor) in [
            (
                "lastvalue",
                Box::new(LastValue::new()) as Box<dyn Predictor>,
            ),
            ("gpht:8:1024", Box::new(Gpht::new(GphtConfig::REFERENCE))),
            (
                "fixwindow:8",
                Box::new(FixedWindow::new(8, Selector::Majority)),
            ),
        ] {
            let offline = accuracy_on(predictor.as_mut(), &trace);
            let mut engine = DecisionEngine::from_spec(EngineConfig::pentium_m(), spec).unwrap();
            let mut decisions = Vec::with_capacity(samples.len());
            engine.step_many(&samples, &mut decisions);
            assert_eq!(engine.stats(), offline, "{spec} diverged");
        }
        assert!(DecisionEngine::from_spec(EngineConfig::pentium_m(), "bogus").is_err());
    }
}
