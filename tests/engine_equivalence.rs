//! Engine equivalence: the former copies of the decision pipeline — the
//! governor's in-process loop, the serve shard's sessions, and the
//! experiment harness — all run one `DecisionEngine`. These tests prove
//! the entry points are bit-exact: the same counter stream produces
//! identical phases, predictions, operating points, and confidence basis
//! points through each of them.

use livephase::engine::{Decision, DecisionEngine, EngineConfig, Sample};
use livephase::governor::Manager;
use livephase::pmsim::PlatformConfig;
use livephase::workloads::{counter_samples, spec, WorkloadTrace};

const PREDICTOR: &str = "gpht:8:128";

fn trace() -> WorkloadTrace {
    spec::benchmark("applu_in")
        .unwrap()
        .with_length(200)
        .generate(9)
}

fn samples_for(trace: &WorkloadTrace, pid: u32) -> Vec<Sample> {
    counter_samples(trace)
        .map(|s| Sample {
            pid,
            uops: s.uops,
            mem_transactions: s.mem_transactions,
        })
        .collect()
}

fn engine() -> DecisionEngine {
    DecisionEngine::from_spec(EngineConfig::pentium_m(), PREDICTOR).unwrap()
}

/// `step`, `step_many`, and a serve session (an engine built from the
/// spec a client's `Hello` names, draining whatever run of samples its
/// socket delivered — here one at a time) emit identical decision
/// streams, including the per-decision confidence basis points, which
/// `Decision`'s `Eq` compares field by field.
#[test]
fn step_step_many_and_session_are_bit_exact() {
    let trace = trace();
    let samples = samples_for(&trace, 0);

    let mut stepped_engine = engine();
    let stepped: Vec<Decision> = samples.iter().map(|s| stepped_engine.step(s)).collect();

    let mut batched_engine = engine();
    let mut batched = Vec::new();
    batched_engine.step_many(&samples, &mut batched);
    assert_eq!(batched, stepped, "step_many diverged from step");

    let mut session =
        DecisionEngine::from_spec(livephase::serve::EngineConfig::pentium_m(), PREDICTOR).unwrap();
    let mut served = Vec::new();
    for s in &samples {
        session.step_many(std::slice::from_ref(s), &mut served);
    }
    assert_eq!(served, stepped, "serve session diverged from step");

    // The two engines also agree on the aggregate score.
    assert_eq!(batched_engine.stats(), stepped_engine.stats());
}

/// The governor's full simulated run and a raw engine fed the run's
/// counter stream agree on every classification, standing prediction,
/// DVFS decision, and on the final prediction score.
#[test]
fn manager_run_matches_the_raw_engine() {
    let trace = trace();
    let samples = samples_for(&trace, 0);

    let mut eng = engine();
    let stepped: Vec<Decision> = samples.iter().map(|s| eng.step(s)).collect();

    let report = Manager::gpht_deployed().run(&trace, &PlatformConfig::pentium_m());
    assert_eq!(report.intervals.len(), stepped.len());

    // The decision at PMI k governs interval k + 1, so the report's
    // decision trace is the engine's op-point stream minus its last entry.
    let expected: Vec<usize> = stepped[..stepped.len() - 1]
        .iter()
        .map(|d| usize::from(d.op_point))
        .collect();
    assert_eq!(report.decision_trace(), expected);

    for (k, (log, d)) in report.intervals.iter().zip(&stepped).enumerate() {
        assert_eq!(log.phase, d.phase, "interval {k} classification");
        // The prediction standing when interval k's PMI fired was made at
        // PMI k - 1; the first interval has none.
        let standing = if k == 0 {
            None
        } else {
            Some(stepped[k - 1].predicted)
        };
        assert_eq!(log.predicted, standing, "interval {k} standing prediction");
    }

    assert_eq!(report.prediction, eng.stats(), "hit/miss accounting");
}

/// One shared session multiplexing several pids gives each pid exactly
/// the stream a dedicated single-pid engine would give it — predictor
/// state, scoring, and confidence never bleed across processes.
#[test]
fn multiplexed_pids_match_dedicated_engines() {
    let trace = trace();
    let pids = [3u32, 7, 11];

    // Round-robin interleaving of the same counter stream under each pid.
    let mut interleaved = Vec::new();
    for s in counter_samples(&trace) {
        for &pid in &pids {
            interleaved.push(Sample {
                pid,
                uops: s.uops,
                mem_transactions: s.mem_transactions,
            });
        }
    }

    let mut session = engine();
    let mut decisions = Vec::new();
    session.step_many(&interleaved, &mut decisions);

    for &pid in &pids {
        let mut dedicated = engine();
        let expected: Vec<Decision> = samples_for(&trace, pid)
            .iter()
            .map(|s| dedicated.step(s))
            .collect();
        let got: Vec<Decision> = decisions.iter().filter(|d| d.pid == pid).copied().collect();
        assert_eq!(got, expected, "pid {pid} diverged under multiplexing");
    }
}
