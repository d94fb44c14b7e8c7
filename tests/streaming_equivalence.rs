//! Golden equivalence of the streaming pipeline.
//!
//! The O(1)-memory interval sources must be indistinguishable — bit for
//! bit — from the materialized traces they replaced, and the parallel
//! Figure 11 sweep must reproduce the sequential loop's run summaries
//! element for element.

use livephase::experiments::runs::{measure_all, Outcome};
use livephase::governor::{par_map, Manager, RunReport, RunSummary};
use livephase::pmsim::PlatformConfig;
use livephase::workloads::{registry, IntervalSource};

const SEED: u64 = 17;

/// Energy, EDP and the phase sequence of two reports must agree exactly
/// (no tolerance: the streaming path executes the same chunks in the same
/// order, so every float is the same float).
fn assert_bit_identical(label: &str, streamed: &RunReport, materialized: &RunReport) {
    assert_eq!(
        streamed.totals.energy_j.to_bits(),
        materialized.totals.energy_j.to_bits(),
        "{label}: energy diverged"
    );
    assert_eq!(
        (streamed.totals.energy_j * streamed.totals.time_s).to_bits(),
        (materialized.totals.energy_j * materialized.totals.time_s).to_bits(),
        "{label}: EDP diverged"
    );
    let phases = |r: &RunReport| r.intervals.iter().map(|i| i.phase).collect::<Vec<_>>();
    assert_eq!(
        phases(streamed),
        phases(materialized),
        "{label}: phase sequence diverged"
    );
    assert_eq!(streamed, materialized, "{label}: report diverged");
}

/// Every registered benchmark, under all three managed systems: running
/// straight off the generator stream equals running the pre-materialized
/// trace.
#[test]
fn streaming_matches_materialized_for_all_benchmarks() {
    let platform = PlatformConfig::pentium_m();
    let specs = registry();
    assert_eq!(specs.len(), 33);
    par_map(&specs, |spec| {
        let trace = spec.generate(SEED);
        assert_eq!(
            spec.stream(SEED).collect_trace().intervals(),
            trace.intervals(),
            "{}: stream() and generate() diverged",
            spec.name()
        );
        for (system, streamed, materialized) in [
            (
                "baseline",
                Manager::baseline().run(spec.stream(SEED), &platform),
                Manager::baseline().run(&trace, &platform),
            ),
            (
                "reactive",
                Manager::reactive().run(spec.stream(SEED), &platform),
                Manager::reactive().run(&trace, &platform),
            ),
            (
                "gpht",
                Manager::gpht_deployed().run(spec.stream(SEED), &platform),
                Manager::gpht_deployed().run(&trace, &platform),
            ),
        ] {
            let label = format!("{}/{system}", spec.name());
            assert_bit_identical(&label, &streamed, &materialized);
        }
    });
}

/// Two whole-run summaries must agree bit for bit: every total, the
/// prediction score, the transition count and the temperatures. The
/// per-interval logs they came from are covered by
/// `streaming_matches_materialized_for_all_benchmarks`.
fn assert_summaries_bit_identical(label: &str, a: &RunSummary, b: &RunSummary) {
    let totals = |s: &RunSummary| {
        let t = &s.totals;
        (
            t.time_s.to_bits(),
            t.energy_j.to_bits(),
            t.instructions,
            t.uops,
            t.mem_transactions,
        )
    };
    assert_eq!(totals(a), totals(b), "{label}: totals diverged");
    assert_eq!(a.prediction, b.prediction, "{label}: prediction diverged");
    assert_eq!(
        a.dvfs_transitions, b.dvfs_transitions,
        "{label}: transitions diverged"
    );
    let temps = |s: &RunSummary| {
        (
            s.peak_temperature_c.map(f64::to_bits),
            s.final_temperature_c.map(f64::to_bits),
        )
    };
    assert_eq!(temps(a), temps(b), "{label}: temperatures diverged");
    assert_eq!(a, b, "{label}: summary diverged");
}

/// The parallel Figure 11 sweep returns exactly what the sequential loop
/// returns, in registry order.
#[test]
fn parallel_figure11_sweep_equals_sequential() {
    let parallel = measure_all(SEED);
    let platform = PlatformConfig::pentium_m();
    let specs = registry();
    let sequential: Vec<Outcome> = specs
        .iter()
        .map(|spec| Outcome::measure(&platform, spec, SEED))
        .collect();
    assert_eq!(parallel.len(), sequential.len());
    for (p, s) in parallel.iter().zip(&sequential) {
        assert_eq!(p.name, s.name);
        for (system, a, b) in [
            ("baseline", &p.baseline, &s.baseline),
            ("reactive", &p.reactive, &s.reactive),
            ("gpht", &p.gpht, &s.gpht),
        ] {
            assert_summaries_bit_identical(&format!("{}/{system}", p.name), a, b);
        }
    }
}
