//! The paper's headline claims as an executable acceptance suite.
//!
//! Each test quotes one sentence from Isci, Contreras & Martonosi
//! (MICRO 2006) and asserts it end to end on this reproduction, at a
//! reduced scale suitable for `cargo test` (the full-scale equivalents run
//! in `livephase-cli repro all`).

use livephase::core::{evaluate, Gpht, GphtConfig, LastValue, PhaseMap, PhaseSample};
use livephase::governor::Manager;
use livephase::pmsim::{Frequency, PlatformConfig, TimingModel};
use livephase::workloads::{spec, IpcxMemConfig, IpcxMemSuite};

fn stream(name: &str, len: usize) -> Vec<PhaseSample> {
    let map = PhaseMap::pentium_m();
    spec::benchmark(name)
        .unwrap()
        .with_length(len)
        .generate(42)
        .iter()
        .map(|w| PhaseSample::new(w.mem_uop(), map.classify(w.mem_uop())))
        .collect()
}

/// "Our runtime phase prediction methodology achieves above 90% prediction
/// accuracies for many of the experimented benchmarks."
#[test]
fn claim_gpht_exceeds_90_percent_on_many_benchmarks() {
    let mut above = 0;
    for name in ["crafty_in", "swim_in", "gzip_log", "applu_in", "mcf_inp"] {
        let acc = evaluate(&mut Gpht::new(GphtConfig::REFERENCE), stream(name, 800)).accuracy();
        if acc > 0.90 {
            above += 1;
        }
    }
    assert!(above >= 4, "only {above}/5 probes above 90%");
}

/// "For highly variable applications, our approach can reduce
/// mispredictions by more than 6X over commonly-used statistical
/// approaches." (applu is the paper's example.)
#[test]
fn claim_6x_fewer_mispredictions_on_applu() {
    let st = stream("applu_in", 2000);
    let gpht = evaluate(&mut Gpht::new(GphtConfig::REFERENCE), st.iter().copied());
    let lv = evaluate(&mut LastValue::new(), st.iter().copied());
    let reduction = lv.misprediction_rate() / gpht.misprediction_rate().max(1e-9);
    assert!(reduction > 5.0, "reduction {reduction:.1}x");
}

/// "Mem/Uop behavior is virtually invariant to the responses of our
/// dynamic management technique, [while] UPC can fluctuate strongly" —
/// "up to 80% across frequencies" for memory-bound configurations.
#[test]
fn claim_mem_uop_invariant_upc_not() {
    let suite = IpcxMemSuite::pentium_m();
    let timing = TimingModel::pentium_m();
    let level = suite
        .solve(IpcxMemConfig {
            target_upc: 0.1,
            mem_uop: 0.0475,
        })
        .unwrap();
    let work = level.interval(100_000_000, 1.25, level.mem_uop);
    let upc_slow = timing.upc(&work, Frequency::from_mhz(600));
    let upc_fast = timing.upc(&work, Frequency::from_mhz(1500));
    assert!(
        (upc_slow - upc_fast) / upc_fast > 0.7,
        "UPC moved only {:.0}%",
        (upc_slow - upc_fast) / upc_fast * 100.0
    );
    // Mem/Uop is a pure work property: identical at any frequency.
    assert!((work.mem_uop() - 0.0475).abs() < 1e-9);
}

/// "DVFS, guided by these phase predictions, improves the energy-delay
/// product of variable workloads by as much as 34%."
#[test]
fn claim_large_edp_improvements_on_variable_workloads() {
    let trace = spec::benchmark("equake_in")
        .unwrap()
        .with_length(400)
        .generate(42);
    let platform = PlatformConfig::pentium_m();
    let baseline = Manager::baseline().run(&trace, &platform);
    let managed = Manager::gpht_deployed().run(&trace, &platform);
    let edp = managed.compare_to(&baseline).edp_improvement_pct();
    assert!(edp > 25.0, "equake EDP improvement {edp:.1}%");
}

/// "The trivial Q2 applications swim and mcf exhibit above 60% EDP
/// improvements."
#[test]
fn claim_q2_exceeds_60_percent_edp() {
    for name in ["swim_in", "mcf_inp"] {
        let trace = spec::benchmark(name).unwrap().with_length(300).generate(42);
        let platform = PlatformConfig::pentium_m();
        let baseline = Manager::baseline().run(&trace, &platform);
        let managed = Manager::gpht_deployed().run(&trace, &platform);
        let edp = managed.compare_to(&baseline).edp_improvement_pct();
        assert!(edp > 50.0, "{name} EDP improvement {edp:.1}%");
    }
}

/// "Applying dynamic management under the supervision of our on-the-fly
/// phase predictions provides a[n] ... EDP improvement over reactive
/// methods, while inducing comparable or less performance degradations."
#[test]
fn claim_proactive_beats_reactive() {
    let trace = spec::benchmark("applu_in")
        .unwrap()
        .with_length(600)
        .generate(42);
    let platform = PlatformConfig::pentium_m();
    let baseline = Manager::baseline().run(&trace, &platform);
    let reactive = Manager::reactive().run(&trace, &platform);
    let proactive = Manager::gpht_deployed().run(&trace, &platform);
    let r = reactive.compare_to(&baseline);
    let p = proactive.compare_to(&baseline);
    assert!(
        p.edp_improvement_pct() > r.edp_improvement_pct(),
        "proactive {:.1}% vs reactive {:.1}%",
        p.edp_improvement_pct(),
        r.edp_improvement_pct()
    );
    assert!(p.perf_degradation_pct() <= r.perf_degradation_pct() + 1.0);
}

/// "With our new conservative phase definitions, all of these applications
/// experience performance degradations significantly lower than 5%."
#[test]
fn claim_conservative_definitions_bound_degradation() {
    use livephase::governor::ConservativeDerivation;
    let derivation = ConservativeDerivation::pentium_m();
    for name in ["applu_in", "swim_in", "mgrid_in"] {
        let trace = spec::benchmark(name).unwrap().with_length(300).generate(42);
        let platform = PlatformConfig::pentium_m();
        let baseline = Manager::baseline().run(&trace, &platform);
        let conservative = derivation.manager(0.05).run(&trace, &platform);
        let deg = conservative.compare_to(&baseline).perf_degradation_pct();
        assert!(deg < 5.0, "{name} degraded {deg:.1}%");
    }
}

/// "Our 100 million instruction granularity ... guarantees that the
/// overheads induced by interrupt handling and DVFS application ... are
/// essentially invisible to native application execution."
#[test]
fn claim_overheads_are_invisible() {
    let trace = spec::benchmark("applu_in")
        .unwrap()
        .with_length(300)
        .generate(42);
    let platform = PlatformConfig::pentium_m();
    let managed = Manager::gpht_deployed().run(&trace, &platform);
    // Total handler + transition time against total wall time.
    let overhead_s =
        10e-6 * managed.intervals.len() as f64 + 50e-6 * managed.dvfs_transitions as f64;
    let share = overhead_s / managed.totals.time_s;
    assert!(share < 0.001, "overhead share {:.4}%", share * 100.0);
}

/// "After the initial configuration ... all phase prediction and dynamic
/// management actions operate autonomously" — and deterministically, in
/// this reproduction, so results are exactly reproducible.
#[test]
fn claim_deployed_system_is_autonomous_and_reproducible() {
    let run = || {
        let trace = spec::benchmark("bzip2_source")
            .unwrap()
            .with_length(200)
            .generate(9);
        Manager::gpht_deployed().run(&trace, &PlatformConfig::pentium_m())
    };
    let (a, b) = (run(), run());
    assert_eq!(a.totals, b.totals);
    assert_eq!(a.prediction, b.prediction);
}
