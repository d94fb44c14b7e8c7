//! Cross-crate integration tests: workload → platform → governor → DAQ.

use livephase::core::{PhaseMap, PredictionStats};
use livephase::daq::DaqSystem;
use livephase::governor::{Manager, ManagerConfig};
use livephase::pmsim::PlatformConfig;
use livephase::workloads::spec;

/// The full deployed pipeline produces self-consistent numbers on a
/// variable workload.
#[test]
fn full_pipeline_is_self_consistent() {
    let trace = spec::benchmark("applu_in")
        .unwrap()
        .with_length(200)
        .generate(9);
    let platform = PlatformConfig::pentium_m().with_power_trace();
    let report = Manager::gpht_deployed().run(&trace, &platform);

    // Interval accounting sums to the totals, up to the final PMI's own
    // handler execution + DVFS switch, which follow the last record.
    let t: f64 = report.intervals.iter().map(|i| i.duration_s).sum();
    let e: f64 = report.intervals.iter().map(|i| i.energy_j).sum();
    let tail_slack_s = 10e-6 + 50e-6 + 1e-9;
    assert!(report.totals.time_s - t >= -1e-12);
    assert!(report.totals.time_s - t <= tail_slack_s);
    assert!(report.totals.energy_j - e >= -1e-9);
    assert!(
        report.totals.energy_j - e <= tail_slack_s * 15.0,
        "15 W bound"
    );

    // The recorded waveform carries exactly the run's energy and time.
    let wave = report.power_trace.as_ref().unwrap();
    assert!((wave.total_energy_j() - report.totals.energy_j).abs() < 1e-6);
    assert!((wave.total_time_s() - report.totals.time_s).abs() < 1e-9);

    // And the external measurement chain agrees within its noise budget.
    let log = DaqSystem::pentium_m(1).measure(wave);
    let err = (log.total_energy_j() - report.totals.energy_j).abs() / report.totals.energy_j;
    assert!(err < 0.02, "DAQ relative error {err}");
}

/// Every instruction the workload generator emits is retired exactly once,
/// whatever the policy.
#[test]
fn no_work_is_lost_or_duplicated() {
    let trace = spec::benchmark("mgrid_in")
        .unwrap()
        .with_length(97)
        .generate(3);
    let expected_uops: u64 = trace.iter().map(|w| w.uops).sum();
    let expected_instr: u64 = trace.iter().map(|w| w.instructions).sum();
    for manager in [
        Manager::baseline(),
        Manager::reactive(),
        Manager::gpht_deployed(),
    ] {
        let r = manager.run(&trace, &PlatformConfig::pentium_m());
        assert_eq!(r.totals.uops, expected_uops);
        assert_eq!(r.totals.instructions, expected_instr);
    }
}

/// The whole stack is deterministic: same seed, same report.
#[test]
fn stack_is_deterministic() {
    let run = || {
        let trace = spec::benchmark("equake_in")
            .unwrap()
            .with_length(120)
            .generate(5);
        Manager::gpht_deployed().run(&trace, &PlatformConfig::pentium_m())
    };
    let a = run();
    let b = run();
    assert_eq!(a.totals, b.totals);
    assert_eq!(a.prediction, b.prediction);
    assert_eq!(a.dvfs_transitions, b.dvfs_transitions);
}

/// Management never alters the observed Mem/Uop stream (the DVFS
/// invariance the whole design rests on), even though it changes timing.
#[test]
fn management_does_not_perturb_the_phase_signal() {
    let trace = spec::benchmark("applu_in")
        .unwrap()
        .with_length(150)
        .generate(11);
    let platform = PlatformConfig::pentium_m();
    let baseline = Manager::baseline().run(&trace, &platform);
    let managed = Manager::gpht_deployed().run(&trace, &platform);
    for (b, m) in baseline.intervals.iter().zip(&managed.intervals) {
        assert!(
            (b.mem_uop - m.mem_uop).abs() < 1e-9,
            "interval {}: {} vs {}",
            b.index,
            b.mem_uop,
            m.mem_uop
        );
        assert_eq!(b.phase, m.phase);
    }
}

/// The governor's internal prediction accounting matches an offline
/// evaluation of the same predictor on the same stream.
#[test]
fn online_and_offline_prediction_scores_agree() {
    use livephase::core::{evaluate, Gpht, GphtConfig, PhaseSample};
    let trace = spec::benchmark("bzip2_source")
        .unwrap()
        .with_length(300)
        .generate(2);
    let managed = Manager::gpht_deployed().run(&trace, &PlatformConfig::pentium_m());

    let map = PhaseMap::pentium_m();
    let stream = trace
        .iter()
        .map(|w| PhaseSample::new(w.mem_uop(), map.classify(w.mem_uop())));
    let offline: PredictionStats = evaluate(&mut Gpht::new(GphtConfig::DEPLOYED), stream);

    assert_eq!(managed.prediction.total, offline.total);
    assert_eq!(managed.prediction.correct, offline.correct);
}

/// Reconfiguring the phase map changes behaviour without touching the
/// rest of the stack (the paper's deployment-time flexibility claim).
#[test]
fn phase_map_reconfiguration_is_isolated() {
    use livephase::core::{Gpht, GphtConfig};
    use livephase::engine::{DecisionEngine, EngineConfig};
    use livephase::governor::TranslationTable;

    let trace = spec::benchmark("swim_in")
        .unwrap()
        .with_length(80)
        .generate(4);
    let platform = PlatformConfig::pentium_m();

    // Single-phase map: everything is "phase 1" -> setting 0: must behave
    // exactly like the baseline modulo handler overhead.
    let config = EngineConfig::new(
        "pentium_m",
        PhaseMap::new(vec![1.0]).unwrap(),
        TranslationTable::new(vec![0, 0], 6).unwrap(),
    )
    .unwrap();
    let engine = DecisionEngine::new(config, || Box::new(Gpht::new(GphtConfig::DEPLOYED)));
    let degenerate =
        Manager::with_engine(engine, ManagerConfig::pentium_m()).run(&trace, &platform);
    assert_eq!(degenerate.dvfs_transitions, 0);

    let baseline = Manager::baseline().run(&trace, &platform);
    let ratio = degenerate.totals.time_s / baseline.totals.time_s;
    assert!((ratio - 1.0).abs() < 1e-6, "only handler overhead differs");
}
