//! Full deployed-system demo: GPHT-guided DVFS with external power
//! measurement through the simulated DAQ rig (the paper's Figure 9 setup).
//!
//! ```bash
//! cargo run --release --example dvfs_manager [benchmark]
//! ```
//!
//! Runs the benchmark baseline vs managed with waveform recording, pushes
//! both analog waveforms through the sense-resistor + conditioning + 40 µs
//! sampler chain, and prints a per-interval excerpt in the style of the
//! paper's Figure 10, followed by whole-run numbers from both the ground
//! truth and the measurement path.

use livephase::daq::{DaqLog, DaqSystem};
use livephase::governor::Manager;
use livephase::pmsim::PlatformConfig;
use livephase::workloads::spec;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "applu_in".into());
    let bench = spec::benchmark(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark {name:?} — try `applu_in`, `swim_in`, `mcf_inp`");
        std::process::exit(2);
    });
    // Keep the DAQ stream small enough for a demo: 300 applu intervals are
    // ≈ 38.5 s of simulated execution unmanaged (≈ 963k DAQ samples) and
    // ≈ 41 s managed (≈ 1.03M samples).
    let trace = bench.with_length(300).generate(42);

    let platform = PlatformConfig::pentium_m().with_power_trace();
    println!("running {name} baseline ...");
    let baseline = Manager::baseline().run(&trace, &platform);
    println!("running {name} under GPHT-guided DVFS ...");
    let managed = Manager::gpht_deployed().run(&trace, &platform);

    println!("measuring both runs through the DAQ chain (40 us sampling) ...");
    let waveforms = [&baseline, &managed].map(|r| r.power_trace.as_ref().expect("recorded"));
    let [base_log, mgd_log]: [DaqLog; 2] = DaqSystem::pentium_m(42)
        .measure_all(&waveforms)
        .try_into()
        .expect("one log per waveform");

    println!("\ninterval  phase  pred   f[idx]  P_base[W]  P_gpht[W]");
    println!("{}", "-".repeat(56));
    for i in (trace.len() - 24)..trace.len() {
        let b = &baseline.intervals[i];
        let m = &managed.intervals[i];
        println!(
            "{i:>8}  {:>5}  {:>4}  {:>6}  {:>9.2}  {:>9.2}",
            m.phase,
            m.predicted.map_or_else(|| "-".into(), |p| p.to_string()),
            m.dvfs_index,
            b.power_w(),
            m.power_w(),
        );
    }

    let cmp = managed.compare_to(&baseline);
    println!("\nwhole-run (ground truth / DAQ-measured):");
    println!(
        "  baseline power: {:.2} W / {:.2} W",
        baseline.average_power_w(),
        base_log.average_power_w()
    );
    println!(
        "  managed  power: {:.2} W / {:.2} W",
        managed.average_power_w(),
        mgd_log.average_power_w()
    );
    println!(
        "  DAQ samples: {} baseline, {} managed ({} phases attributed)",
        base_log.samples_taken(),
        mgd_log.samples_taken(),
        mgd_log.phases().len()
    );
    println!(
        "  EDP improvement {:.1}% | degradation {:.1}% | prediction accuracy {:.1}%",
        cmp.edp_improvement_pct(),
        cmp.perf_degradation_pct(),
        managed.prediction.accuracy() * 100.0
    );
}
