//! Figure 10 — overall operation of the framework on `applu`, compared to
//! the baseline system, with power measured through the DAQ rig.
//!
//! Three panels in the paper: (top) Mem/Uop and actual/predicted phases of
//! the baseline and managed runs — near-identical Mem/Uop curves
//! demonstrate DVFS invariance on the live system; (middle) per-phase
//! power, whose gap is the saving; (bottom) BIPS, whose gap is the small
//! performance cost.

use crate::format::{num, Table};
use crate::runs::require_benchmark;
use crate::ShapeViolations;
use livephase_daq::{DaqLog, DaqSystem};
use livephase_governor::{Manager, RunReport};
use livephase_pmsim::PlatformConfig;
use std::fmt;

/// The Figure 10 data: the two instrumented runs plus DAQ measurements.
#[derive(Debug, Clone)]
pub struct Figure10 {
    /// Baseline (unmanaged) run.
    pub baseline: RunReport,
    /// GPHT-managed run.
    pub managed: RunReport,
    /// DAQ-measured per-phase power for the baseline run.
    pub baseline_daq: DaqLog,
    /// DAQ-measured per-phase power for the managed run.
    pub managed_daq: DaqLog,
}

/// Runs `applu` under both systems with waveform recording and measures
/// both waveforms through the DAQ chain.
///
/// # Panics
///
/// Panics if `applu_in` is missing or waveforms were not recorded.
#[must_use]
pub fn run(seed: u64) -> Figure10 {
    // A shorter applu slice keeps the 40 us DAQ stream manageable while
    // covering dozens of phase swings.
    let bench = require_benchmark("applu_in").with_length(600);
    let platform = PlatformConfig::pentium_m().with_power_trace();
    let baseline = Manager::baseline().run(bench.stream(seed), &platform);
    let managed = Manager::gpht_deployed().run(bench.stream(seed), &platform);
    // One pass for both captures: they share the noise realisation, so
    // the channel noise is drawn once per sample instant.
    let waveforms = [&baseline, &managed].map(|r| r.power_trace.as_ref().expect("recorded"));
    let [baseline_daq, managed_daq]: [DaqLog; 2] = DaqSystem::pentium_m(seed)
        .measure_all(&waveforms)
        .try_into()
        .expect("one log per trace");
    Figure10 {
        baseline,
        managed,
        baseline_daq,
        managed_daq,
    }
}

/// The paper's claims about the live system.
#[must_use]
pub fn check(fig: &Figure10) -> ShapeViolations {
    let mut v = Vec::new();

    // (i) Mem/Uop is identical between the two real runs (DVFS-invariant
    // phases, resilient to system variation).
    let n = fig
        .baseline
        .intervals
        .len()
        .min(fig.managed.intervals.len());
    let mean_delta: f64 = (0..n)
        .map(|i| (fig.baseline.intervals[i].mem_uop - fig.managed.intervals[i].mem_uop).abs())
        .sum::<f64>()
        / n as f64;
    if mean_delta > 5e-4 {
        v.push(format!(
            "Mem/Uop curves diverge (mean |delta| {mean_delta:.5}); must be DVFS-invariant"
        ));
    }

    // (ii) GPHT predicts well on this highly variable run.
    if fig.managed.prediction.accuracy() < 0.85 {
        v.push(format!(
            "managed-run GPHT accuracy {:.3} should be ~0.9",
            fig.managed.prediction.accuracy()
        ));
    }

    // (iii) Power savings with modest slowdown.
    let c = fig.managed.compare_to(&fig.baseline);
    if c.power_savings_pct() < 10.0 {
        v.push(format!(
            "power savings {:.1}% should be substantial",
            c.power_savings_pct()
        ));
    }
    if c.perf_degradation_pct() > 12.0 {
        v.push(format!(
            "performance degradation {:.1}% should stay small",
            c.perf_degradation_pct()
        ));
    }
    if c.edp_improvement_pct() < 10.0 {
        v.push(format!(
            "EDP improvement {:.1}% should be >15% territory",
            c.edp_improvement_pct()
        ));
    }

    // (iv) The external measurement path agrees with ground truth.
    for (name, daq, truth) in [
        ("baseline", &fig.baseline_daq, &fig.baseline),
        ("managed", &fig.managed_daq, &fig.managed),
    ] {
        let err = (daq.total_energy_j() - truth.totals.energy_j).abs() / truth.totals.energy_j;
        if err > 0.03 {
            v.push(format!("{name}: DAQ energy off by {:.1}%", err * 100.0));
        }
        // One DAQ phase per sampling interval (bit-0 protocol).
        let measured = daq.phases().len();
        let expected = truth.intervals.len();
        if measured.abs_diff(expected) > 2 {
            v.push(format!(
                "{name}: DAQ attributed {measured} phases, handler ran {expected}"
            ));
        }
    }

    // (v) The "no observable overheads" claim, read off the measurement
    // rig itself: samples caught inside the PMI handler (bit 1 high) must
    // be a vanishing share of the capture.
    let handler: u64 = fig
        .managed_daq
        .phases()
        .iter()
        .map(|p| p.handler_samples)
        .sum();
    let share = handler as f64 / fig.managed_daq.samples_taken().max(1) as f64;
    if share > 0.005 {
        v.push(format!(
            "handler execution covers {:.2}% of DAQ samples; the paper's \
             overheads are invisible at this granularity",
            share * 100.0
        ));
    }
    v
}

impl fmt::Display for Figure10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 10. Overall operation of the framework on applu vs the \
             baseline system.\n"
        )?;
        let mut t = Table::new(vec![
            "interval".into(),
            "Mem/Uop base".into(),
            "Mem/Uop GPHT".into(),
            "actual".into(),
            "pred".into(),
            "P base [W]".into(),
            "P GPHT [W]".into(),
            "BIPS base".into(),
            "BIPS GPHT".into(),
        ]);
        let n = self
            .baseline
            .intervals
            .len()
            .min(self.managed.intervals.len());
        let window = n.saturating_sub(60)..n;
        for i in window {
            let b = &self.baseline.intervals[i];
            let m = &self.managed.intervals[i];
            t.row(vec![
                i.to_string(),
                num(b.mem_uop, 4),
                num(m.mem_uop, 4),
                m.phase.to_string(),
                m.predicted.map_or_else(|| "-".into(), |p| p.to_string()),
                num(b.power_w(), 2),
                num(m.power_w(), 2),
                num(b.bips(), 2),
                num(m.bips(), 2),
            ]);
        }
        writeln!(f, "{}", t.render())?;
        let n = self
            .baseline
            .intervals
            .len()
            .min(self.managed.intervals.len());
        let series = |f_: fn(&livephase_governor::IntervalLog) -> f64, r: &RunReport| {
            r.intervals[..n].iter().map(f_).collect::<Vec<f64>>()
        };
        writeln!(
            f,
            "power base {}",
            crate::format::sparkline(
                &series(livephase_governor::IntervalLog::power_w, &self.baseline)
                    [n.saturating_sub(100)..]
            )
        )?;
        writeln!(
            f,
            "power GPHT {}",
            crate::format::sparkline(
                &series(livephase_governor::IntervalLog::power_w, &self.managed)
                    [n.saturating_sub(100)..]
            )
        )?;
        let c = self.managed.compare_to(&self.baseline);
        writeln!(
            f,
            "whole-run: power {:.2} -> {:.2} W (DAQ: {:.2} -> {:.2} W), \
             BIPS {:.2} -> {:.2}, EDP improvement {:.1}%, degradation {:.1}%",
            self.baseline.average_power_w(),
            self.managed.average_power_w(),
            self.baseline_daq.average_power_w(),
            self.managed_daq.average_power_w(),
            self.baseline.bips(),
            self.managed.bips(),
            c.edp_improvement_pct(),
            c.perf_degradation_pct(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure10_shape_holds() {
        let fig = run(crate::DEFAULT_SEED);
        let violations = check(&fig);
        assert!(violations.is_empty(), "{violations:#?}");
    }
}
