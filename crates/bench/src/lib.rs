//! # livephase-bench
//!
//! The workspace's one benchmark system: what `livephase-cli bench` and
//! ci.sh run, a zero-dependency, in-process benchmark pipeline.
//! [`calibrate`] measures a bundled calibration workload — a fixed
//! `DecisionEngine::step_many` run over a deterministic interval stream
//! — once per invocation (cached in a `OnceLock`); [`areas`] registers
//! every hot path worth gating (engine stepping, the GPHT predictor,
//! simulated PMI intervals, whole managed runs, wire framing, histogram
//! math, workload generation, the tenants scheduler) and reports each
//! as a **ratio to that baseline**, so thresholds survive the trip
//! between machines of different speeds; [`stats`] supplies the robust
//! median/p90/MAD summaries; [`record`] emits the committed
//! `BENCH_<area>.json` trajectory; [`gate`] turns records into a
//! pass/skip/fail verdict; [`compare`] diffs two snapshot directories;
//! and [`profile`] renders the `timed_span!` telemetry as a hot-path
//! table.

#![forbid(unsafe_code)]

pub mod areas;
pub mod calibrate;
pub mod compare;
pub mod gate;
pub mod profile;
pub mod record;
pub mod stats;

pub use areas::{find, registry, Area, DEFAULT_ITERS, DEFAULT_WARMUP};
pub use calibrate::{calibration, measure_calibration, Calibration};
pub use compare::{compare_dirs, AreaDelta, CompareReport};
pub use gate::{evaluate, under_floor, GateOutcome, DEFAULT_MULTIPLIER, FLOOR_NS};
pub use profile::{collect, render, ProfileRow};
pub use record::{git_rev, BenchRecord, Machine, SCHEMA};
pub use stats::Summary;

/// A deterministic phase-id sequence: a rapidly varying applu-like
/// pattern.
#[must_use]
pub fn synthetic_phase_pattern(len: usize) -> Vec<u8> {
    [1u8, 1, 1, 3, 5, 5, 3, 1, 1, 2, 3, 3, 2, 1]
        .iter()
        .copied()
        .cycle()
        .take(len)
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn pattern_has_requested_length() {
        assert_eq!(super::synthetic_phase_pattern(100).len(), 100);
    }
}
