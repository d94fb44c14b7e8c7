//! Shared plumbing for the dynamic-management experiments: every benchmark
//! executed under the three systems the paper compares.
//!
//! The sweep generates each benchmark once ([`BenchmarkSpec::generate`],
//! ≈80 KB at the default 2 000 intervals) and runs all three systems over
//! that one trace; a run over a generated trace is bit-identical to a run
//! straight off the spec's stream, since generating *is* collecting the
//! stream. It fans the registry over worker threads with [`par_map`],
//! which preserves registry order and per-benchmark seeding, so the
//! parallel sweep is element-for-element identical to the sequential
//! loop it replaced. Figures 11–13 compare whole runs, so each run is cut
//! down to its [`RunSummary`] as soon as it returns: the sweep holds one
//! trace per worker and no per-interval log, and a worker's next run
//! reuses the freed log buffer.

use livephase_governor::{par_map, Manager, NormalizedComparison, RunSummary};
use livephase_pmsim::PlatformConfig;
use livephase_workloads::{registry, spec, BenchmarkSpec};

/// Looks up a registered benchmark by name.
///
/// Experiment drivers only ever name registry benchmarks, so an unknown
/// name is a programming error; this wraps the lookup-and-panic that
/// every driver used to hand-roll.
///
/// # Panics
///
/// Panics if `name` is not in the workload registry.
#[must_use]
pub fn require_benchmark(name: &str) -> BenchmarkSpec {
    spec::benchmark(name).unwrap_or_else(|| panic!("benchmark {name:?} is not registered"))
}

/// One benchmark's outcomes under baseline, reactive and GPHT management.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Benchmark name.
    pub name: String,
    /// The unmanaged run (always 1500 MHz).
    pub baseline: RunSummary,
    /// Last-value reactive management.
    pub reactive: RunSummary,
    /// GPHT(8, 128) proactive management — the deployed system.
    pub gpht: RunSummary,
}

impl Outcome {
    /// Runs one benchmark spec under the three systems on `platform`.
    /// The workload is generated once and the three systems run over
    /// that trace, each with the summary a run off its own stream of the
    /// spec would give.
    #[must_use]
    pub fn measure(platform: &PlatformConfig, spec: &BenchmarkSpec, seed: u64) -> Self {
        let trace = spec.generate(seed);
        Self {
            name: spec.name().to_owned(),
            baseline: Manager::baseline().run(&trace, platform).into_summary(),
            reactive: Manager::reactive().run(&trace, platform).into_summary(),
            gpht: Manager::gpht_deployed()
                .run(&trace, platform)
                .into_summary(),
        }
    }

    /// GPHT management normalized to baseline.
    #[must_use]
    pub fn gpht_vs_baseline(&self) -> NormalizedComparison {
        self.gpht.compare_to(&self.baseline)
    }

    /// Reactive management normalized to baseline.
    #[must_use]
    pub fn reactive_vs_baseline(&self) -> NormalizedComparison {
        self.reactive.compare_to(&self.baseline)
    }
}

/// Measures every registered benchmark (the Figure 11 sweep), in parallel,
/// in registry order.
#[must_use]
pub fn measure_all(seed: u64) -> Vec<Outcome> {
    let platform = PlatformConfig::pentium_m();
    let specs = registry();
    par_map(&specs, |spec| Outcome::measure(&platform, spec, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use livephase_governor::RunReport;

    #[test]
    fn outcome_covers_three_systems() {
        let spec = require_benchmark("swim_in").with_length(100);
        let o = Outcome::measure(&PlatformConfig::pentium_m(), &spec, 1);
        assert_eq!(o.baseline.policy, "Baseline");
        assert!(o.reactive.policy.contains("Reactive"));
        assert!(o.gpht.policy.contains("GPHT"));
        // swim: memory-bound -> both managed systems save a lot of EDP.
        assert!(o.gpht_vs_baseline().edp_improvement_pct() > 30.0);
        assert!(o.reactive_vs_baseline().edp_improvement_pct() > 30.0);
    }

    #[test]
    fn measure_shares_the_platform() {
        let platform = PlatformConfig::pentium_m();
        let spec = require_benchmark("swim_in").with_length(60);
        let shared = Outcome::measure(&platform, &spec, 1);
        let owned = Outcome::measure(&PlatformConfig::pentium_m(), &spec, 1);
        assert_eq!(shared.baseline, owned.baseline);
        assert_eq!(shared.reactive, owned.reactive);
        assert_eq!(shared.gpht, owned.gpht);
        // Each summary is its full report, less the per-interval data.
        let report = Manager::gpht_deployed().run(spec.stream(1), &platform);
        assert!(!report.intervals.is_empty());
        assert_eq!(shared.gpht, report.into_summary());
    }

    /// The three systems run over one generated trace each get the
    /// summary of their own run straight off the spec's stream, to the
    /// bit. 203 intervals is a prime length, off every power-of-two
    /// boundary of the predictors' tables and histories; every interval
    /// is one 100 M-uop PMI window, so a registry trace always ends on
    /// the PMI grid.
    #[test]
    fn one_trace_for_three_systems_equals_three_streamed_runs() {
        let platform = PlatformConfig::pentium_m();
        for name in ["applu_in", "mcf_inp", "swim_in"] {
            let spec = require_benchmark(name).with_length(203);
            let shared = Outcome::measure(&platform, &spec, 7);
            let streamed = [
                Manager::baseline().run(spec.stream(7), &platform),
                Manager::reactive().run(spec.stream(7), &platform),
                Manager::gpht_deployed().run(spec.stream(7), &platform),
            ]
            .map(RunReport::into_summary);
            for (summary, alone) in [shared.baseline, shared.reactive, shared.gpht]
                .iter()
                .zip(&streamed)
            {
                assert_eq!(summary, alone, "{name}");
                assert_eq!(summary.totals.uops, 203 * 100_000_000, "{name}");
                assert_eq!(
                    summary.totals.time_s.to_bits(),
                    alone.totals.time_s.to_bits(),
                    "{name}: {}",
                    alone.policy
                );
                assert_eq!(
                    summary.totals.energy_j.to_bits(),
                    alone.totals.energy_j.to_bits(),
                    "{name}: {}",
                    alone.policy
                );
            }
        }
    }
}
