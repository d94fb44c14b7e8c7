//! # livephase-bench
//!
//! Two harnesses live here.
//!
//! **The calibrated gate harness** (this library) is what
//! `livephase-cli bench` and ci.sh run: a zero-dependency, in-process
//! benchmark pipeline. [`calibrate`] measures a bundled calibration
//! workload — a fixed `DecisionEngine::step_many` run over a
//! deterministic interval stream — once per invocation (cached in a
//! `OnceLock`); [`areas`] registers every hot path worth gating
//! (engine stepping, whole managed runs, wire framing, histogram math,
//! workload generation, the tenants scheduler) and reports each as a **ratio to
//! that baseline**, so thresholds survive the trip between machines of
//! different speeds; [`stats`] supplies the robust median/p90/MAD
//! summaries; [`record`] emits the committed `BENCH_<area>.json`
//! trajectory; [`gate`] turns records into a pass/skip/fail verdict;
//! and [`profile`] renders the `timed_span!` telemetry as a hot-path
//! table.
//!
//! **The Criterion benches** under `benches/` remain the exploratory,
//! statistics-heavy harness for development (`cargo bench
//! --workspace`); nothing on the CI gate path depends on them:
//!
//! * `predictors` — per-sample cost of every phase predictor (the code
//!   that runs inside the paper's PMI handler, where "no visible
//!   overheads" is a hard requirement), including the GPHT's sensitivity
//!   to PHT size (the performance side of Figure 5);
//! * `platform` — simulated-CPU interval throughput, timing/power model
//!   evaluation and DVFS switching;
//! * `figures` — end-to-end regeneration cost of every table and figure
//!   at reduced scale (one bench per paper artifact);
//! * `engine`, `telemetry` — serving-stack micro-benches.

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
pub use gate::{evaluate, GateConfig, GateOutcome};
pub use profile::{collect, render, ProfileRow};
pub use record::{git_rev, BenchRecord, Machine, SCHEMA};
pub use stats::Summary;

/// A deterministic phase-id sequence used by several benches: a rapidly
/// varying applu-like pattern.
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
