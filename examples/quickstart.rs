//! Quickstart: monitor, classify, predict, and govern one workload.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full pipeline of the paper on the `applu` benchmark — the
//! highly variable workload its Figure 2 uses as the running example:
//!
//! 1. pick the workload (generated lazily, one interval at a time);
//! 2. run it unmanaged (baseline, always 1500 MHz);
//! 3. run it under GPHT-guided DVFS (the deployed system);
//! 4. compare power, performance and energy-delay product.

use livephase::governor::Manager;
use livephase::pmsim::PlatformConfig;
use livephase::workloads::spec;

fn main() {
    // 1. A calibrated SPEC CPU2000 stand-in: 500 sampling intervals of
    //    100 M uops each, deterministic for a given seed. `stream(seed)`
    //    feeds the platform interval-by-interval — the workload is never
    //    materialized (`generate(seed)` still returns the whole trace
    //    when you want to inspect it).
    let applu = spec::benchmark("applu_in")
        .expect("applu_in ships with the workload registry")
        .with_length(500);
    println!(
        "workload: {} ({} intervals, mean Mem/Uop {:.4})",
        applu.name(),
        500,
        applu.generate(42).characterize().mean_mem_uop
    );

    // 2. Baseline: the unmanaged system. Every run borrows the one
    //    platform, so any number of managers can share it.
    let platform = PlatformConfig::pentium_m();
    let baseline = Manager::baseline().run(applu.stream(42), &platform);

    // 3. The paper's deployed system: GPHT(8, 128) predictions drive the
    //    Table 2 phase -> DVFS translation inside the PMI handler.
    let managed = Manager::gpht_deployed().run(applu.stream(42), &platform);

    // 4. Compare.
    let cmp = managed.compare_to(&baseline);
    println!("\n                      baseline     GPHT-managed");
    println!(
        "time          [s]   {:>10.3}   {:>12.3}",
        baseline.totals.time_s, managed.totals.time_s
    );
    println!(
        "energy        [J]   {:>10.1}   {:>12.1}",
        baseline.totals.energy_j, managed.totals.energy_j
    );
    println!(
        "avg power     [W]   {:>10.2}   {:>12.2}",
        baseline.average_power_w(),
        managed.average_power_w()
    );
    println!(
        "BIPS                {:>10.2}   {:>12.2}",
        baseline.bips(),
        managed.bips()
    );
    println!(
        "\nGPHT accuracy: {:.1}%  |  DVFS transitions: {}",
        managed.prediction.accuracy() * 100.0,
        managed.dvfs_transitions
    );
    println!(
        "EDP improvement: {:.1}%  at {:.1}% performance degradation",
        cmp.edp_improvement_pct(),
        cmp.perf_degradation_pct()
    );

    assert!(
        cmp.edp_improvement_pct() > 0.0,
        "managed applu must improve EDP"
    );
}
