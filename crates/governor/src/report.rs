//! Run reports and baseline-normalized comparisons.

use livephase_core::{PhaseId, PredictionStats};
use livephase_pmsim::cpu::RunTotals;
use livephase_pmsim::trace::PowerTrace;

/// What the kernel log records per sampling interval (Section 5.4: "actual
/// observed and predicted phases for each sample as well as memory
/// accesses per Uop and Uops per cycle").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalLog {
    /// Zero-based interval index.
    pub index: usize,
    /// Observed Mem/Uop for the interval.
    pub mem_uop: f64,
    /// Observed UPC for the interval.
    pub upc: f64,
    /// Phase the interval was classified into.
    pub phase: PhaseId,
    /// Phase that had been predicted for this interval (`None` for the
    /// first interval and for non-predicting policies).
    pub predicted: Option<PhaseId>,
    /// DVFS setting index in effect when the interval's PMI fired.
    pub dvfs_index: usize,
    /// Wall-clock duration of the interval, in seconds.
    pub duration_s: f64,
    /// Energy consumed in the interval, in joules.
    pub energy_j: f64,
    /// Instructions retired in the interval.
    pub instructions: u64,
}

impl IntervalLog {
    /// Billions of instructions per second achieved in this interval.
    #[must_use]
    pub fn bips(&self) -> f64 {
        if self.duration_s == 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.duration_s / 1e9
        }
    }

    /// Average power over this interval, in watts.
    #[must_use]
    pub fn power_w(&self) -> f64 {
        if self.duration_s == 0.0 {
            0.0
        } else {
            self.energy_j / self.duration_s
        }
    }
}

/// The complete outcome of one managed (or baseline) run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Ground-truth totals.
    pub totals: RunTotals,
    /// Next-phase prediction accuracy over the run.
    pub prediction: PredictionStats,
    /// Per-interval log.
    pub intervals: Vec<IntervalLog>,
    /// Number of actual DVFS transitions performed.
    pub dvfs_transitions: u64,
    /// Peak junction temperature over the run, when the manager tracked a
    /// thermal model.
    pub peak_temperature_c: Option<f64>,
    /// Junction temperature at the end of the run, when tracked.
    pub final_temperature_c: Option<f64>,
    /// The analog power waveform, when the platform recorded one.
    pub power_trace: Option<PowerTrace>,
}

impl RunReport {
    /// Whole-run BIPS.
    #[must_use]
    pub fn bips(&self) -> f64 {
        self.totals.bips()
    }

    /// Whole-run average power in watts.
    #[must_use]
    pub fn average_power_w(&self) -> f64 {
        self.totals.average_power_w()
    }

    /// Whole-run energy-delay product in joule-seconds.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.totals.edp()
    }

    /// The DVFS decisions the policy made, as observable from the
    /// interval log.
    ///
    /// The decision taken at PMI *k* governs interval *k + 1*, so the
    /// sequence is `intervals[1..]`'s `dvfs_index` — one entry per PMI
    /// except the last, whose chosen setting no logged interval ran
    /// under. This is the oracle a remote phase-prediction service is
    /// checked against: a server fed the same counter stream must emit
    /// exactly these settings.
    #[must_use]
    pub fn decision_trace(&self) -> Vec<usize> {
        self.intervals
            .iter()
            .skip(1)
            .map(|i| i.dvfs_index)
            .collect()
    }

    /// Normalizes this run against a baseline run of the same workload;
    /// see [`NormalizedComparison::between`].
    ///
    /// # Panics
    ///
    /// Panics if the two runs did different work or the baseline has zero
    /// time/energy.
    #[must_use]
    pub fn compare_to(&self, baseline: &RunReport) -> NormalizedComparison {
        NormalizedComparison::between(&self.totals, &baseline.totals)
    }

    /// The run's whole-run summary, dropping the per-interval log and
    /// the power waveform.
    #[must_use]
    pub fn into_summary(self) -> RunSummary {
        RunSummary {
            workload: self.workload,
            policy: self.policy,
            totals: self.totals,
            prediction: self.prediction,
            dvfs_transitions: self.dvfs_transitions,
            peak_temperature_c: self.peak_temperature_c,
            final_temperature_c: self.final_temperature_c,
        }
    }
}

/// What a [`RunReport`] says about the run as a whole: everything but
/// the per-interval log and the power waveform. Whole-run comparisons
/// (Figures 11–13) need no more, and a summary's size does not grow with
/// the run's length.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Ground-truth totals.
    pub totals: RunTotals,
    /// Next-phase prediction accuracy over the run.
    pub prediction: PredictionStats,
    /// Number of actual DVFS transitions performed.
    pub dvfs_transitions: u64,
    /// Peak junction temperature over the run, when tracked.
    pub peak_temperature_c: Option<f64>,
    /// Junction temperature at the end of the run, when tracked.
    pub final_temperature_c: Option<f64>,
}

impl RunSummary {
    /// Normalizes this run against a baseline run of the same workload;
    /// see [`NormalizedComparison::between`].
    ///
    /// # Panics
    ///
    /// Panics if the two runs did different work or the baseline has zero
    /// time/energy.
    #[must_use]
    pub fn compare_to(&self, baseline: &RunSummary) -> NormalizedComparison {
        NormalizedComparison::between(&self.totals, &baseline.totals)
    }
}

/// A managed run normalized to its baseline, in the units of Figures 11–13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedComparison {
    /// Managed BIPS / baseline BIPS (≤ 1 in practice).
    pub bips_ratio: f64,
    /// Managed average power / baseline average power.
    pub power_ratio: f64,
    /// Managed energy / baseline energy.
    pub energy_ratio: f64,
    /// Managed EDP / baseline EDP.
    pub edp_ratio: f64,
}

impl NormalizedComparison {
    /// Normalizes one run's totals against a baseline run of the same
    /// workload: the one place the Figures 11–13 ratios are computed.
    ///
    /// # Panics
    ///
    /// Panics if the baseline retired a different instruction count (the
    /// comparison would be meaningless) or has zero time/energy.
    #[must_use]
    pub fn between(run: &RunTotals, baseline: &RunTotals) -> Self {
        assert_eq!(
            run.instructions, baseline.instructions,
            "compared runs must execute the same work"
        );
        assert!(
            baseline.time_s > 0.0 && baseline.energy_j > 0.0,
            "baseline must have run"
        );
        Self {
            bips_ratio: run.bips() / baseline.bips(),
            power_ratio: run.average_power_w() / baseline.average_power_w(),
            energy_ratio: run.energy_j / baseline.energy_j,
            edp_ratio: run.edp() / baseline.edp(),
        }
    }

    /// Percent EDP improvement over baseline (positive is better).
    #[must_use]
    pub fn edp_improvement_pct(&self) -> f64 {
        (1.0 - self.edp_ratio) * 100.0
    }

    /// Percent performance (BIPS) degradation versus baseline.
    #[must_use]
    pub fn perf_degradation_pct(&self) -> f64 {
        (1.0 - self.bips_ratio) * 100.0
    }

    /// Percent average-power savings versus baseline.
    #[must_use]
    pub fn power_savings_pct(&self) -> f64 {
        (1.0 - self.power_ratio) * 100.0
    }

    /// Percent energy savings versus baseline.
    #[must_use]
    pub fn energy_savings_pct(&self) -> f64 {
        (1.0 - self.energy_ratio) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(time_s: f64, energy_j: f64) -> RunReport {
        RunReport {
            workload: "toy".into(),
            policy: "test".into(),
            totals: RunTotals {
                time_s,
                energy_j,
                instructions: 1_000_000,
                uops: 1_250_000,
                mem_transactions: 10_000,
            },
            prediction: PredictionStats::default(),
            intervals: vec![],
            dvfs_transitions: 0,
            peak_temperature_c: None,
            final_temperature_c: None,
            power_trace: None,
        }
    }

    #[test]
    fn comparison_math() {
        let baseline = report(1.0, 10.0);
        let managed = report(1.05, 6.0); // 5% slower, 40% less energy
        let c = managed.compare_to(&baseline);
        assert!((c.bips_ratio - 1.0 / 1.05).abs() < 1e-12);
        assert!((c.energy_ratio - 0.6).abs() < 1e-12);
        assert!((c.edp_ratio - 0.6 * 1.05).abs() < 1e-12);
        assert!((c.edp_improvement_pct() - 37.0).abs() < 0.1);
        assert!((c.perf_degradation_pct() - 4.76).abs() < 0.1);
        assert!((c.energy_savings_pct() - 40.0).abs() < 1e-9);
        assert!(c.power_savings_pct() > 0.0);
    }

    #[test]
    fn identical_runs_are_neutral() {
        let a = report(1.0, 10.0);
        let c = a.compare_to(&report(1.0, 10.0));
        assert!((c.edp_ratio - 1.0).abs() < 1e-12);
        assert_eq!(c.edp_improvement_pct(), 0.0);
    }

    #[test]
    fn summaries_compare_like_their_reports() {
        let (baseline, managed) = (report(1.0, 10.0), report(1.05, 6.0));
        let c = managed.compare_to(&baseline);
        let summary = managed.into_summary();
        assert_eq!(summary.policy, "test");
        assert_eq!(summary.compare_to(&baseline.into_summary()), c);
    }

    #[test]
    #[should_panic(expected = "same work")]
    fn rejects_mismatched_instruction_counts() {
        let mut other = report(1.0, 10.0);
        other.totals.instructions = 5;
        let _ = report(1.0, 10.0).compare_to(&other);
    }

    #[test]
    fn interval_log_derived_metrics() {
        let log = IntervalLog {
            index: 0,
            mem_uop: 0.01,
            upc: 1.0,
            phase: PhaseId::new(3),
            predicted: None,
            dvfs_index: 2,
            duration_s: 0.1,
            energy_j: 1.0,
            instructions: 80_000_000,
        };
        assert!((log.bips() - 0.8).abs() < 1e-12);
        assert!((log.power_w() - 10.0).abs() < 1e-12);
    }
}
