//! Beyond DVFS-for-energy: the same phase predictions driving dynamic
//! thermal management and power capping (the paper's Section 8 claims).
//!
//! ```bash
//! cargo run --release --example thermal_manager
//! ```

use livephase::governor::{Manager, ManagerConfig, PowerCap, PowerEstimator, ThermalAware};
use livephase::pmsim::{PlatformConfig, ThermalModel};
use livephase::workloads::spec;

fn main() {
    // A hot, CPU-bound workload: crafty never earns a slow setting from
    // the energy mapping, so it runs flat out and heats up.
    let trace = spec::benchmark("crafty_in")
        .expect("registered")
        .with_length(700)
        .generate(42);
    let platform = PlatformConfig::pentium_m();
    let thermal_cfg = ManagerConfig {
        thermal: Some(ThermalModel::pentium_m()),
        ..ManagerConfig::pentium_m()
    };

    let unmanaged = Manager::baseline_with(thermal_cfg.clone()).run(&trace, &platform);

    // Both guards reshape the deployed GPHT engine's decisions.
    let limit_c = 65.0;
    let guard = ThermalAware::new(
        PowerEstimator::pentium_m(),
        ThermalModel::pentium_m(),
        limit_c,
    );
    let dtm = Manager::gpht_deployed_with(thermal_cfg.clone())
        .with_hook(Box::new(guard))
        .run(&trace, &platform);

    let cap_w = 7.0;
    let capped = Manager::gpht_deployed_with(thermal_cfg)
        .with_hook(Box::new(PowerCap::new(PowerEstimator::pentium_m(), cap_w)))
        .run(&trace, &platform);

    println!(
        "{:<26} {:>9} {:>10} {:>7}",
        "system", "peak T", "avg power", "BIPS"
    );
    println!("{}", "-".repeat(56));
    for (label, r) in [
        ("unmanaged", &unmanaged),
        ("thermal-aware (65 C)", &dtm),
        ("power cap (7 W)", &capped),
    ] {
        println!(
            "{:<26} {:>7.1} C {:>8.2} W {:>7.2}",
            label,
            r.peak_temperature_c.expect("thermal tracked"),
            r.average_power_w(),
            r.bips()
        );
    }

    assert!(unmanaged.peak_temperature_c.unwrap() > limit_c);
    assert!(dtm.peak_temperature_c.unwrap() <= limit_c + 0.5);
    assert!(capped.average_power_w() <= cap_w * 1.02);
    println!("\nthermal limit and power cap both respected by prediction-guided management");
}
