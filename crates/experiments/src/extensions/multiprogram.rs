//! Phase prediction on multiprogrammed mixes.
//!
//! The deployed system monitors whatever the OS runs. When several
//! programs timeslice the core, the PMI handler sees their phase streams
//! spliced together. This experiment quantifies the damage and the fix,
//! on the deployed [`DecisionEngine`]:
//!
//! * an engine stepping every interval under one pid keeps a shared GPHT
//!   whose history register fills with cross-program garbage;
//! * an engine keyed by the owning pid keeps one GPHT per process and
//!   recovers most of each program's isolated predictability, since the
//!   handler knows the pid.

use crate::format::{pct, Table};
use crate::runs::require_benchmark;
use crate::ShapeViolations;
use livephase_core::PredictionStats;
use livephase_engine::{DecisionEngine, EngineConfig, Sample};
use livephase_pmsim::IntervalWork;
use livephase_workloads::{round_robin_source, WorkloadTrace};
use std::fmt;

/// The mix used: three variable benchmarks, round-robin.
pub const MIX: [&str; 3] = ["applu_in", "equake_in", "mgrid_in"];

/// The deployed GPHT configuration, as an engine predictor spec.
const GPHT: &str = "gpht:8:128";

/// Accuracy of one prediction scheme on the mix.
#[derive(Debug, Clone)]
pub struct SchemeRow {
    /// Scheme label.
    pub scheme: String,
    /// Next-phase accuracy over the interleaved stream.
    pub accuracy: f64,
}

/// The experiment result.
#[derive(Debug, Clone)]
pub struct MultiprogramExperiment {
    /// Scheduler timeslice, in sampling intervals.
    pub timeslice: usize,
    /// Context switches in the schedule.
    pub context_switches: usize,
    /// Accuracy per scheme.
    pub rows: Vec<SchemeRow>,
    /// Mean isolated (single-program) GPHT accuracy, for reference.
    pub isolated_gpht: f64,
}

/// A Pentium M engine running `spec` per pid.
fn engine(spec: &str) -> DecisionEngine {
    DecisionEngine::from_spec(EngineConfig::pentium_m(), spec).expect("registered predictor spec")
}

/// The counter sample the PMI handler reads for `pid` at the end of `w`.
fn sample(pid: u32, w: &IntervalWork) -> Sample {
    Sample {
        pid,
        uops: w.uops,
        mem_transactions: w.mem_transactions,
    }
}

/// The GPHT engine's score on `trace` running alone.
fn isolated(trace: &WorkloadTrace) -> PredictionStats {
    let mut solo = engine(GPHT);
    for w in trace.iter() {
        solo.step(&sample(0, w));
    }
    solo.stats()
}

/// Streams `traces` (pids 1, 2, …) round-robin through three engines —
/// shared last value, shared GPHT, per-process GPHT — and returns them
/// with the number of context switches seen.
fn step_mix(traces: &[WorkloadTrace], timeslice: usize) -> ([DecisionEngine; 3], usize) {
    let mut engines = [engine("lastvalue"), engine(GPHT), engine(GPHT)];
    let members = (1..)
        .zip(traces.iter().map(WorkloadTrace::stream))
        .collect();
    let mut mix = round_robin_source(members, timeslice, "mix3");
    let (mut context_switches, mut last) = (0, None);
    while let Some((pid, w)) = mix.next_tagged() {
        context_switches += usize::from(last.is_some_and(|p| p != pid));
        last = Some(pid);
        let [shared_lv, shared_gpht, per_process] = &mut engines;
        let shared = sample(0, &w);
        shared_lv.step(&shared);
        shared_gpht.step(&shared);
        per_process.step(&sample(pid, &w));
    }
    (engines, context_switches)
}

/// Builds the mix and evaluates the three schemes.
#[must_use]
pub fn run(seed: u64) -> MultiprogramExperiment {
    let timeslice = 7;
    let traces: Vec<WorkloadTrace> = MIX
        .iter()
        .map(|name| require_benchmark(name).with_length(800).generate(seed))
        .collect();
    let (engines, context_switches) = step_mix(&traces, timeslice);
    let schemes = [
        "shared LastValue",
        "shared GPHT_8_128",
        "per-process GPHT_8_128",
    ];
    let isolated_gpht =
        traces.iter().map(|t| isolated(t).accuracy()).sum::<f64>() / traces.len() as f64;

    MultiprogramExperiment {
        timeslice,
        context_switches,
        rows: schemes
            .iter()
            .zip(&engines)
            .map(|(scheme, e)| SchemeRow {
                scheme: (*scheme).into(),
                accuracy: e.stats().accuracy(),
            })
            .collect(),
        isolated_gpht,
    }
}

/// Per-process must recover (nearly) the isolated accuracy and beat the
/// shared predictor, which in turn beats last value.
#[must_use]
pub fn check(e: &MultiprogramExperiment) -> ShapeViolations {
    let mut v = Vec::new();
    let acc = |name: &str| {
        e.rows
            .iter()
            .find(|r| r.scheme.starts_with(name))
            .map_or(0.0, |r| r.accuracy)
    };
    let lv = acc("shared LastValue");
    let shared = acc("shared GPHT");
    let pp = acc("per-process");
    if shared < lv {
        v.push(format!(
            "shared GPHT ({shared:.3}) should beat LastValue ({lv:.3})"
        ));
    }
    if pp < shared + 0.02 {
        v.push(format!(
            "per-process ({pp:.3}) should clearly beat shared ({shared:.3})"
        ));
    }
    if pp < e.isolated_gpht - 0.05 {
        v.push(format!(
            "per-process ({pp:.3}) should approach isolated accuracy ({:.3})",
            e.isolated_gpht
        ));
    }
    v
}

impl fmt::Display for MultiprogramExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(vec!["scheme".into(), "accuracy %".into()]);
        for r in &self.rows {
            t.row(vec![r.scheme.clone(), pct(r.accuracy)]);
        }
        write!(
            f,
            "Extension: multiprogrammed mix of {:?} (round-robin, timeslice \
             {}, {} context switches).\n\n{}\nisolated single-program GPHT \
             reference: {}%",
            MIX,
            self.timeslice,
            self.context_switches,
            t.render(),
            pct(self.isolated_gpht)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_process_engine_keeps_each_job_isolated() {
        let traces: Vec<WorkloadTrace> = MIX
            .iter()
            .map(|name| require_benchmark(name).with_length(120).generate(3))
            .collect();
        let ([.., per_process], switches) = step_mix(&traces, 5);
        assert!(switches > 0);
        let mut sum = PredictionStats::default();
        for (pid, trace) in (1..).zip(&traces) {
            let solo = isolated(trace);
            assert_eq!(per_process.pid_stats(pid), Some(solo), "pid {pid}");
            sum.total += solo.total;
            sum.correct += solo.correct;
        }
        assert_eq!(per_process.stats(), sum);
    }

    #[test]
    fn multiprogram_shape_holds() {
        let e = run(crate::DEFAULT_SEED);
        let violations = check(&e);
        assert!(violations.is_empty(), "{violations:#?}");
    }
}
