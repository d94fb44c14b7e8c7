//! Reconfiguring the deployed system: user-defined phase maps and
//! performance-bounded management (the paper's Section 6.3).
//!
//! ```bash
//! cargo run --release --example custom_phases
//! ```
//!
//! Shows the framework's versatility claim: the same GPHT predictor and
//! manager run under (a) the paper's Table 1/2 definitions, (b) a custom
//! coarse two-phase definition, and (c) definitions *derived* to bound
//! worst-case slowdown by 5 % — all reconfigured without touching the
//! predictor or the platform.

use livephase::core::{Gpht, GphtConfig, PhaseMap};
use livephase::engine::{DecisionEngine, EngineConfig};
use livephase::governor::{ConservativeDerivation, Manager, TranslationTable};
use livephase::pmsim::PlatformConfig;
use livephase::workloads::spec;

fn main() {
    let bench = spec::benchmark("equake_in").expect("registered");
    let trace = bench.with_length(400).generate(42);
    let platform = PlatformConfig::pentium_m();
    let baseline = Manager::baseline().run(&trace, &platform);

    // (a) The paper's deployed configuration.
    let table12 = Manager::gpht_deployed().run(&trace, &platform);

    // (b) A custom, coarse definition: "CPU-ish" vs "memory-ish" at
    //     0.02 Mem/Uop, mapped to 1500 MHz / 800 MHz.
    let coarse_map = PhaseMap::new(vec![0.02]).expect("one boundary");
    let coarse_table = TranslationTable::new(vec![0, 4], 6).expect("valid");
    let coarse_config =
        EngineConfig::new("pentium_m", coarse_map, coarse_table).expect("one-byte settings");
    let engine = DecisionEngine::new(coarse_config, || Box::new(Gpht::new(GphtConfig::DEPLOYED)));
    let coarse = Manager::with_engine(engine).run(&trace, &platform);

    // (c) Conservative definitions derived from the IPCxMEM
    //     characterization to bound slowdown by 5 %.
    let derivation = ConservativeDerivation::pentium_m();
    let (cons_map, cons_table) = derivation.derive(0.05);
    println!(
        "derived conservative boundaries: {:?}\nderived setting map: {:?}\n",
        cons_map.boundaries(),
        cons_table.settings()
    );
    let conservative = derivation.manager(0.05).run(&trace, &platform);

    println!(
        "{:<28} {:>10} {:>10} {:>12}",
        "configuration", "EDP gain", "slowdown", "avg power"
    );
    println!("{}", "-".repeat(64));
    for (label, report) in [
        ("Table 1/2 (paper default)", &table12),
        ("coarse 2-phase custom map", &coarse),
        ("conservative (<=5% bound)", &conservative),
    ] {
        let c = report.compare_to(&baseline);
        println!(
            "{label:<28} {:>9.1}% {:>9.1}% {:>10.2} W",
            c.edp_improvement_pct(),
            c.perf_degradation_pct(),
            report.average_power_w()
        );
    }

    let c = conservative.compare_to(&baseline);
    assert!(
        c.perf_degradation_pct() < 5.0,
        "the conservative configuration must respect its bound"
    );
    println!(
        "\nconservative bound respected: {:.1}% < 5%",
        c.perf_degradation_pct()
    );
}
