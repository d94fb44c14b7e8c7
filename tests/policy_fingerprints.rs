//! Pinned fingerprints of the managed runs behind the ablations, the
//! extensions, the examples and the CLI's policy menu.
//!
//! `repro all` pins Figures 12 and 13 byte for byte, but the other
//! experiment drivers print rounded aggregates, so a change to how their
//! managers are built could shift a decision without moving a printed
//! digit. Each run here is reduced to one FNV-1a fingerprint over
//! everything a decision can influence: the decision trace, the
//! per-interval predicted phase, the run's time and energy bits, the
//! prediction score, the DVFS transition count and the peak-temperature
//! bits. The constants were captured before the governor's decision paths
//! were merged onto the engine; any drift in any run fails here with its
//! name.

use livephase::core::{ConfidentPredictor, Gpht, GphtConfig, LastValue, PhaseMap, Predictor};
use livephase::engine::{DecisionEngine, EngineConfig};
use livephase::experiments::ablations::overheads::SWEEP;
use livephase::experiments::extensions::adaptive_sampling::BENCHMARKS as SAMPLING_SET;
use livephase::experiments::extensions::power_cap::CAPS;
use livephase::experiments::power_zoo;
use livephase::governor::{
    AdaptiveSampling, ConservativeDerivation, Manager, ManagerConfig, Oracle, PowerCap,
    PowerEstimator, RunReport, ThermalAware, TranslationTable,
};
use livephase::pmsim::{PlatformConfig, ThermalModel};
use livephase::workloads::{spec, WorkloadTrace};

const SEED: u64 = livephase::experiments::DEFAULT_SEED;

/// Capped-run power budget of the power-model zoo's race.
const ZOO_RACE_CAP_W: f64 = 9.0;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// One FNV-1a digest over every decision-dependent field of a report.
fn fingerprint(r: &RunReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for setting in r.decision_trace() {
        fnv(&mut h, &(setting as u64).to_le_bytes());
    }
    for interval in &r.intervals {
        fnv(&mut h, &[interval.predicted.map_or(0, |p| p.get())]);
    }
    fnv(&mut h, &r.totals.time_s.to_bits().to_le_bytes());
    fnv(&mut h, &r.totals.energy_j.to_bits().to_le_bytes());
    fnv(&mut h, &r.prediction.total.to_le_bytes());
    fnv(&mut h, &r.prediction.correct.to_le_bytes());
    fnv(&mut h, &r.dvfs_transitions.to_le_bytes());
    let peak = r.peak_temperature_c.map_or(u64::MAX, f64::to_bits);
    fnv(&mut h, &peak.to_le_bytes());
    h
}

fn trace(name: &str, len: usize, seed: u64) -> WorkloadTrace {
    spec::benchmark(name)
        .unwrap()
        .with_length(len)
        .generate(seed)
}

fn full_trace(name: &str) -> WorkloadTrace {
    spec::benchmark(name).unwrap().generate(SEED)
}

/// A manager over an engine whose per-pid predictors `factory` builds.
fn on_engine(
    config: EngineConfig,
    factory: impl Fn() -> Box<dyn Predictor> + Send + 'static,
) -> Manager {
    Manager::with_engine(DecisionEngine::new(config, factory))
}

fn thermal_config() -> ManagerConfig {
    ManagerConfig {
        thermal: Some(ThermalModel::pentium_m()),
        ..ManagerConfig::pentium_m()
    }
}

/// Every pinned run, by name, in a fixed order.
fn runs() -> Vec<(String, RunReport)> {
    let pentium_m = PlatformConfig::pentium_m();
    let mut runs: Vec<(String, RunReport)> = Vec::new();

    // The prior-work reactive system and the deployed proactive one: a
    // last-value and a GPHT predictor over the Table 2 translation.
    let applu_120 = trace("applu_in", 120, 11);
    runs.push((
        "reactive".into(),
        on_engine(EngineConfig::pentium_m(), || Box::new(LastValue::new()))
            .run(&applu_120, &pentium_m),
    ));
    runs.push((
        "proactive".into(),
        on_engine(EngineConfig::pentium_m(), || {
            Box::new(Gpht::new(GphtConfig::DEPLOYED))
        })
        .run(&applu_120, &pentium_m),
    ));

    // Overhead sensitivity: the zero-overhead baseline and every sweep row.
    let applu_400 = trace("applu_in", 400, SEED);
    runs.push((
        "overheads/baseline".into(),
        Manager::baseline()
            .with_config(ManagerConfig {
                handler_overhead_s: 0.0,
                ..ManagerConfig::pentium_m()
            })
            .run(
                &applu_400,
                &PlatformConfig {
                    dvfs_transition_s: 0.0,
                    ..PlatformConfig::pentium_m()
                },
            ),
    ));
    for (handler_s, transition_s) in SWEEP {
        let platform = PlatformConfig {
            dvfs_transition_s: transition_s,
            ..PlatformConfig::pentium_m()
        };
        let config = ManagerConfig {
            handler_overhead_s: handler_s,
            ..ManagerConfig::pentium_m()
        };
        runs.push((
            format!("overheads/{handler_s}/{transition_s}"),
            Manager::gpht_deployed()
                .with_config(config)
                .run(&applu_400, &platform),
        ));
    }

    // Confidence gating and the oracle, over the Figure 12 set.
    for name in spec::figure12_set() {
        let full = full_trace(name);
        let gated = on_engine(EngineConfig::pentium_m(), || {
            Box::new(ConfidentPredictor::new(
                Gpht::new(GphtConfig::DEPLOYED),
                2,
                2,
            ))
        });
        runs.push((format!("confidence/{name}"), gated.run(&full, &pentium_m)));
        let oracle = Oracle::from_trace(&full, &PhaseMap::pentium_m());
        let oracle = on_engine(EngineConfig::pentium_m(), move || Box::new(oracle.clone()));
        runs.push((format!("oracle/{name}"), oracle.run(&full, &pentium_m)));
    }

    // Dynamic thermal management: unmanaged, energy-managed, thermal-aware.
    let crafty_900 = trace("crafty_in", 900, SEED);
    runs.push((
        "dtm/unmanaged".into(),
        Manager::baseline()
            .with_config(thermal_config())
            .run(&crafty_900, &pentium_m),
    ));
    runs.push((
        "dtm/energy".into(),
        Manager::gpht_deployed()
            .with_config(thermal_config())
            .run(&crafty_900, &pentium_m),
    ));
    let guard = ThermalAware::new(PowerEstimator::pentium_m(), ThermalModel::pentium_m(), 65.0);
    runs.push((
        "dtm/thermal".into(),
        Manager::gpht_deployed()
            .with_config(thermal_config())
            .with_hook(Box::new(guard))
            .run(&crafty_900, &pentium_m),
    ));

    // Power capping, and the power-model zoo's capped race run.
    for cap_w in CAPS {
        let capped = PowerCap::new(PowerEstimator::pentium_m(), cap_w);
        runs.push((
            format!("power_cap/{cap_w}"),
            Manager::gpht_deployed()
                .with_hook(Box::new(capped))
                .run(&applu_400, &pentium_m),
        ));
    }
    let linear = power_zoo::model("linear", SEED).unwrap();
    let zoo_estimator = PowerEstimator::for_platform(&PlatformConfig {
        power: linear,
        ..PlatformConfig::pentium_m()
    });
    runs.push((
        "power_zoo/linear".into(),
        Manager::gpht_deployed()
            .with_hook(Box::new(PowerCap::new(zoo_estimator, ZOO_RACE_CAP_W)))
            .run(&applu_400, &pentium_m),
    ));

    // Duration-guided adaptive sampling.
    for name in SAMPLING_SET {
        let workload = trace(name, 600, SEED);
        let config = ManagerConfig {
            adaptive_sampling: Some(AdaptiveSampling::pentium_m()),
            ..ManagerConfig::pentium_m()
        };
        runs.push((
            format!("adaptive_sampling/{name}"),
            Manager::gpht_deployed()
                .with_config(config)
                .run(&workload, &pentium_m),
        ));
    }

    // A user-defined coarse phase map, and the derived conservative one.
    let equake_42 = trace("equake_in", 400, SEED);
    let coarse = EngineConfig::new(
        "pentium_m",
        PhaseMap::new(vec![0.02]).unwrap(),
        TranslationTable::new(vec![0, 4], 6).unwrap(),
    )
    .unwrap();
    runs.push((
        "custom_map/coarse".into(),
        on_engine(coarse, || Box::new(Gpht::new(GphtConfig::DEPLOYED))).run(&equake_42, &pentium_m),
    ));
    runs.push((
        "custom_map/conservative".into(),
        ConservativeDerivation::pentium_m()
            .manager(0.05)
            .run(&equake_42, &pentium_m),
    ));
    runs
}

/// `(run name, fingerprint)`, captured when these runs still went through
/// per-policy decision code outside the engine.
const PINNED: &[(&str, u64)] = &[
    ("reactive", 0x4a8e4fec8d6e5518),
    ("proactive", 0xd065170ac228717c),
    ("overheads/baseline", 0x218e47c827105f9c),
    ("overheads/0/0", 0x4c38d25b071fef95),
    ("overheads/0.00001/0.00005", 0x06c6102ed5b4c402),
    ("overheads/0.0001/0.0005", 0x1fc13f0137ee6080),
    ("overheads/0.001/0.005", 0xbaa810812775c36d),
    ("overheads/0.005/0.02", 0x0b493b641c4ac938),
    ("confidence/bzip2_program", 0xd7d8a8c6c8918279),
    ("oracle/bzip2_program", 0xd75499f3e9ce6c98),
    ("confidence/bzip2_source", 0x3721ff862c86f702),
    ("oracle/bzip2_source", 0xb05f538ba6e6c4f6),
    ("confidence/bzip2_graphic", 0x379355940009865b),
    ("oracle/bzip2_graphic", 0x7ddd2ad1ea737cd7),
    ("confidence/mgrid_in", 0xb7e40f7dfa1dff9e),
    ("oracle/mgrid_in", 0x84b838374f59dbdf),
    ("confidence/applu_in", 0xc5eaa177974435f3),
    ("oracle/applu_in", 0xa612022b22cac350),
    ("confidence/equake_in", 0x2549dffa0480903f),
    ("oracle/equake_in", 0xdc46604d5ecb9475),
    ("confidence/swim_in", 0x824a749b3aec1f01),
    ("oracle/swim_in", 0x2f8f462e9171bec6),
    ("confidence/mcf_inp", 0x73e9a75ace6a8288),
    ("oracle/mcf_inp", 0xa4c07e877f40a76a),
    ("dtm/unmanaged", 0x19835922d430eb80),
    ("dtm/energy", 0x0f738e693da40130),
    ("dtm/thermal", 0x48d3dfd698b29066),
    ("power_cap/12", 0xff1338ef865a2185),
    ("power_cap/9", 0x7e53248ff790c3e5),
    ("power_cap/6", 0x1d08efd83c3445f1),
    ("power_cap/3.5", 0xaed51560f5a1e309),
    ("power_zoo/linear", 0x40bebe99f08d0ddd),
    ("adaptive_sampling/swim_in", 0xa159988de95a6475),
    ("adaptive_sampling/applu_in", 0x341834eabfb691d4),
    ("adaptive_sampling/gzip_log", 0x4801f0bc1603ea14),
    ("custom_map/coarse", 0x7a31617921aa82f1),
    ("custom_map/conservative", 0x978a3fdd64c34c2a),
];

#[test]
fn policy_path_runs_match_their_pinned_fingerprints() {
    let got: Vec<(String, u64)> = runs()
        .iter()
        .map(|(name, r)| (name.clone(), fingerprint(r)))
        .collect();
    let mut drifted = Vec::new();
    for ((name, f), (want_name, want)) in got.iter().zip(PINNED) {
        assert_eq!(name, want_name, "run order changed");
        if f != want {
            drifted.push(format!("{name}: 0x{f:016x}, pinned 0x{want:016x}"));
        }
    }
    assert_eq!(got.len(), PINNED.len(), "run count changed");
    assert!(drifted.is_empty(), "drifted runs:\n{}", drifted.join("\n"));
}

/// The named managers the reactive/proactive pins stand for.
#[test]
fn reactive_and_gpht_constructors_are_the_pinned_systems() {
    let applu_120 = trace("applu_in", 120, 11);
    let platform = PlatformConfig::pentium_m();
    let reactive = Manager::reactive().run(&applu_120, &platform);
    let gpht = Manager::gpht_deployed().run(&applu_120, &platform);
    assert_eq!(reactive.policy, "Reactive(LastValue)");
    assert_eq!(gpht.policy, "Proactive(GPHT_8_128)");
    let pinned = |name: &str| PINNED.iter().find(|(n, _)| *n == name).map(|&(_, f)| f);
    assert_eq!(Some(fingerprint(&reactive)), pinned("reactive"));
    assert_eq!(Some(fingerprint(&gpht)), pinned("proactive"));
}
