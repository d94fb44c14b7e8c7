//! Property-based tests for the governor: translation tables, engine
//! decisions under them, hooks, the conservative derivation and run
//! comparisons.

use livephase_core::{PhaseId, PhaseMap};
use livephase_engine::{DecisionEngine, EngineConfig, Sample};
use livephase_governor::{ConservativeDerivation, Manager, TranslationTable};
use livephase_pmsim::PlatformConfig;
use livephase_workloads::{registry, PhaseLevel, WorkloadTrace};
use proptest::prelude::*;

fn arb_table() -> impl Strategy<Value = TranslationTable> {
    proptest::collection::vec(0usize..6, 1..9).prop_map(|mut v| {
        v.sort_unstable();
        TranslationTable::new(v, 6).expect("sorted => monotonic")
    })
}

/// An engine over the Table 1 phases and `table`, predicting with `spec`.
fn engine(table: &TranslationTable, spec: &str) -> DecisionEngine {
    let config = EngineConfig::new("test", PhaseMap::pentium_m(), table.clone()).unwrap();
    DecisionEngine::from_spec(config, spec).unwrap()
}

/// A 100 M-uop sample whose Mem/Uop rate sits inside Table 1 phase `p`.
fn sample_in(p: u8) -> Sample {
    let bounds = PhaseMap::pentium_m().boundaries().to_vec();
    let i = usize::from(p) - 1;
    let rate = match i {
        0 => 0.0,
        _ if i < bounds.len() => (bounds[i - 1] + bounds[i]) / 2.0,
        _ => bounds[i - 1] + 0.01,
    };
    Sample {
        pid: 0,
        uops: 100_000_000,
        mem_transactions: (rate * 1e8).round() as u64,
    }
}

proptest! {
    /// Any monotone mapping yields monotone settings over phases, and
    /// clamping beyond the table returns the deepest setting.
    #[test]
    fn tables_are_monotone_and_clamping(table in arb_table()) {
        let mut prev = 0usize;
        for k in 1..=table.phase_count() {
            let s = table.setting_for(PhaseId::new(u8::try_from(k).unwrap()));
            prop_assert!(s >= prev);
            prev = s;
        }
        let beyond = table.setting_for(PhaseId::new(200));
        prop_assert_eq!(beyond, *table.settings().last().unwrap());
    }

    /// A last-value engine is pure table lookup of the observed phase.
    #[test]
    fn reactive_is_table_of_last(table in arb_table(), phases in proptest::collection::vec(1u8..=6, 1..50)) {
        let mut r = engine(&table, "lastvalue");
        for &p in &phases {
            let got = r.step(&sample_in(p));
            prop_assert_eq!(got.phase, PhaseId::new(p));
            prop_assert_eq!(usize::from(got.op_point), table.setting_for(PhaseId::new(p)));
        }
    }

    /// For any degradation target, the derived conservative configuration
    /// respects it for the reference behaviour across the whole axis.
    #[test]
    fn conservative_derivation_respects_any_target(target in 0.01f64..0.30, probe in 0.0f64..0.12) {
        let d = ConservativeDerivation::pentium_m();
        let (map, table) = d.derive(target);
        let setting = table.setting_for(map.classify(probe));
        prop_assert!(
            d.degradation(probe, setting) <= target + 1e-9,
            "m={probe}: setting {setting} degrades {}",
            d.degradation(probe, setting)
        );
    }

    /// Looser targets never produce strictly faster settings at any rate.
    #[test]
    fn conservative_targets_order_settings(probe in 0.0f64..0.12) {
        let d = ConservativeDerivation::pentium_m();
        let (m1, t1) = d.derive(0.03);
        let (m2, t2) = d.derive(0.10);
        let strict = t1.setting_for(m1.classify(probe));
        let loose = t2.setting_for(m2.classify(probe));
        prop_assert!(strict <= loose, "strict {strict} vs loose {loose} at {probe}");
    }

    /// A GPHT engine only ever emits settings from its table.
    #[test]
    fn proactive_stays_in_table(table in arb_table(), phases in proptest::collection::vec(1u8..=6, 1..60)) {
        let mut p = engine(&table, "gpht:8:128");
        for &ph in &phases {
            let got = usize::from(p.step(&sample_in(ph)).op_point);
            prop_assert!(table.settings().contains(&got));
        }
    }

    /// For any constant workload, baseline and managed runs retire the
    /// same work and the managed run's average power never exceeds the
    /// baseline's.
    #[test]
    fn constant_workloads_never_cost_power(mem in 0.0f64..0.08, len in 5usize..40) {
        let level = PhaseLevel::reference_family(mem);
        let work = level.interval(100_000_000, 1.25, mem);
        let trace = WorkloadTrace::new("const", vec![work; len]);
        let platform = PlatformConfig::pentium_m();
        let base = Manager::baseline().run(&trace, &platform);
        let managed = Manager::gpht_deployed().run(&trace, &platform);
        prop_assert_eq!(base.totals.instructions, managed.totals.instructions);
        prop_assert!(managed.average_power_w() <= base.average_power_w() + 1e-9);
    }

    /// Adaptive sampling never loses or duplicates work, whatever the
    /// multiplier cap, and never takes more interrupts than fixed sampling.
    #[test]
    fn adaptive_sampling_conserves_work(
        idx in 0usize..33,
        max_multiplier in 1u64..8,
        len in 20usize..80,
    ) {
        use livephase_governor::{AdaptiveSampling, ManagerConfig};
        let spec = registry().swap_remove(idx).with_length(len);
        let trace = spec.generate(7);
        let platform = PlatformConfig::pentium_m();
        let fixed = Manager::gpht_deployed().run(&trace, &platform);
        let adaptive = Manager::gpht_deployed().with_config(ManagerConfig {
            adaptive_sampling: Some(AdaptiveSampling {
                base_uops: 100_000_000,
                max_multiplier,
            }),
            ..ManagerConfig::pentium_m()
        })
        .run(&trace, &platform);
        prop_assert_eq!(adaptive.totals.uops, fixed.totals.uops);
        prop_assert_eq!(adaptive.totals.instructions, fixed.totals.instructions);
        prop_assert!(adaptive.intervals.len() <= fixed.intervals.len());
    }

    /// The thermal-aware hook respects any feasible junction limit on
    /// any benchmark (the platform's coolest steady state bounds
    /// feasibility from below).
    #[test]
    fn thermal_policy_respects_any_feasible_limit(
        idx in 0usize..33,
        limit in 55.0f64..90.0,
    ) {
        use livephase_governor::{ManagerConfig, PowerEstimator, ThermalAware};
        use livephase_pmsim::ThermalModel;
        let spec = registry().swap_remove(idx).with_length(120);
        let trace = spec.generate(3);
        let guard = ThermalAware::new(PowerEstimator::pentium_m(), ThermalModel::pentium_m(), limit);
        let report = Manager::gpht_deployed().with_config(ManagerConfig {
            thermal: Some(ThermalModel::pentium_m()),
            ..ManagerConfig::pentium_m()
        })
        .with_hook(Box::new(guard))
        .run(&trace, &PlatformConfig::pentium_m());
        let peak = report.peak_temperature_c.expect("tracked");
        prop_assert!(
            peak <= limit + 1.0,
            "peak {peak:.1} C exceeded limit {limit:.1} C on {}",
            trace.name()
        );
    }

    /// Reports normalize consistently: comparing a run to itself is
    /// neutral in every metric, for any benchmark.
    #[test]
    fn self_comparison_is_neutral(idx in 0usize..33) {
        let spec = registry().swap_remove(idx).with_length(20);
        let trace = spec.generate(1);
        let r = Manager::reactive().run(&trace, &PlatformConfig::pentium_m());
        let c = r.compare_to(&r);
        prop_assert!((c.bips_ratio - 1.0).abs() < 1e-12);
        prop_assert!((c.edp_ratio - 1.0).abs() < 1e-12);
        prop_assert!(c.edp_improvement_pct().abs() < 1e-9);
    }
}
