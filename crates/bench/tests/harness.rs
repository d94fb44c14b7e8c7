//! Integration tests for the calibrated bench harness: property tests
//! pinning the summary statistics, a golden test pinning the
//! `BENCH_<area>.json` schema byte-for-byte, and gate behavior over
//! synthetic calibrations.

use livephase_bench::{
    evaluate, BenchRecord, Calibration, GateOutcome, Machine, Summary, DEFAULT_MULTIPLIER,
};
use proptest::collection;
use proptest::prelude::*;

fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    collection::vec(
        prop_oneof![0u64..1_000, 1_000u64..10_000_000, Just(u64::MAX)],
        1usize..64,
    )
}

proptest! {
    /// Summaries are a pure function of the multiset of samples: any
    /// reordering yields the identical summary.
    #[test]
    fn summary_is_order_independent(samples in arb_samples()) {
        let forward = Summary::from_ns(&samples).unwrap();
        let mut reversed = samples.clone();
        reversed.reverse();
        prop_assert_eq!(forward, Summary::from_ns(&reversed).unwrap());
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(forward, Summary::from_ns(&sorted).unwrap());
    }

    /// The robust statistics sit inside the sample range, the p90
    /// dominates the median, and the extremes are the true extremes.
    #[test]
    fn summary_statistics_are_ordered_and_bounded(samples in arb_samples()) {
        let s = Summary::from_ns(&samples).unwrap();
        prop_assert_eq!(s.iterations, samples.len());
        prop_assert_eq!(s.min_ns, *samples.iter().min().unwrap());
        prop_assert_eq!(s.max_ns, *samples.iter().max().unwrap());
        prop_assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
        prop_assert!(s.median_ns <= s.p90_ns && s.p90_ns <= s.max_ns);
        // MAD is a deviation: it cannot exceed the full range.
        prop_assert!(s.mad_ns <= s.max_ns.saturating_sub(s.min_ns).max(1));
    }

    /// Nearest-rank p90: at least 90% of samples sit at or below it.
    #[test]
    fn p90_covers_ninety_percent(samples in arb_samples()) {
        let s = Summary::from_ns(&samples).unwrap();
        let at_or_below = samples.iter().filter(|&&v| v <= s.p90_ns).count();
        prop_assert!(at_or_below * 10 >= samples.len() * 9);
    }

    /// All-equal inputs collapse every statistic onto the value.
    #[test]
    fn constant_streams_have_zero_spread(v in 0u64..=u64::MAX, n in 1usize..40) {
        let s = Summary::from_ns(&vec![v; n]).unwrap();
        prop_assert_eq!(s.median_ns, v);
        prop_assert_eq!(s.p90_ns, v);
        prop_assert_eq!(s.mad_ns, 0);
    }
}

fn golden_record() -> BenchRecord {
    BenchRecord {
        area: "wire_encode".to_owned(),
        summary: Summary::from_ns(&[90, 100, 100, 110, 130]).unwrap(),
        warmup: 3,
        calibration: Calibration {
            baseline_ns: 1_000,
            mad_ns: 25,
            reps: 15,
        },
        expected_ratio: 0.06,
        machine: Machine {
            host: "ci-runner".to_owned(),
            cpu: "Example CPU @ 2.0GHz".to_owned(),
            cores: 8,
        },
        git_rev: "abcdef123456".to_owned(),
        unix_ms: 1_754_000_000_000,
    }
}

/// The committed perf trajectory is diffed across commits by schema;
/// any field rename, reorder, or float-formatting change must update
/// this golden deliberately.
#[test]
fn bench_record_schema_is_pinned() {
    let expected = r#"{
  "schema": "livephase-bench/v1",
  "area": "wire_encode",
  "iterations": 5,
  "warmup": 3,
  "median_ns": 100,
  "p90_ns": 130,
  "mad_ns": 10,
  "min_ns": 90,
  "max_ns": 130,
  "baseline_ns": 1000,
  "baseline_mad_ns": 25,
  "ratio": 0.100000,
  "expected_ratio": 0.060000,
  "machine": {
    "host": "ci-runner",
    "cpu": "Example CPU @ 2.0GHz",
    "cores": 8
  },
  "git_rev": "abcdef123456",
  "unix_ms": 1754000000000
}
"#;
    assert_eq!(golden_record().to_json(), expected);
}

/// End to end over real measurements: a real calibration plus a real
/// area measurement gates clean under the default config (the committed
/// expected ratios carry 5x headroom), and the emitted record parses as
/// the pinned schema.
#[test]
fn live_measurement_passes_the_default_gate_or_skips() {
    let calibration = *livephase_bench::calibration();
    let area = livephase_bench::find("wire_encode").expect("registered");
    let summary = area.measure(1, 5);
    let record = BenchRecord {
        area: area.name.to_owned(),
        summary,
        warmup: 1,
        calibration,
        expected_ratio: area.expected_ratio,
        machine: Machine::detect(),
        git_rev: "test".to_owned(),
        unix_ms: 0,
    };
    let json = record.to_json();
    assert!(json.contains("\"schema\": \"livephase-bench/v1\""));
    assert!(json.contains("\"area\": \"wire_encode\""));
    match evaluate(DEFAULT_MULTIPLIER, &calibration, &[record]) {
        GateOutcome::Pass | GateOutcome::Skip(_) => {}
        GateOutcome::Fail(findings) => {
            panic!("a freshly measured area must not fail its own committed ratio: {findings:?}")
        }
    }
}

/// The acceptance scenario: a synthetic 10x regression on one area
/// fails the gate with the area named, while the untouched sibling
/// record passes — on any machine, because thresholds are ratios.
#[test]
fn injected_ten_x_slowdown_fails_on_any_machine() {
    // Baselines spanning fast and slow machines; all comfortably above
    // the absolute floor, which shields only sub-floor medians (its own
    // unit test in gate.rs).
    for baseline_ns in [1_000_000u64, 80_000_000] {
        let calibration = Calibration {
            baseline_ns,
            mad_ns: baseline_ns / 100,
            reps: 15,
        };
        let honest_ns = (baseline_ns as f64 * 0.1) as u64;
        let make = |area: &str, median_ns: u64| BenchRecord {
            area: area.to_owned(),
            summary: Summary::from_ns(&[median_ns]).unwrap(),
            warmup: 0,
            calibration,
            expected_ratio: 0.1,
            machine: Machine {
                host: "x".to_owned(),
                cpu: "x".to_owned(),
                cores: 1,
            },
            git_rev: "x".to_owned(),
            unix_ms: 0,
        };
        let records = vec![
            make("healthy", honest_ns),
            make("regressed", honest_ns.saturating_mul(10)),
        ];
        let GateOutcome::Fail(findings) = evaluate(DEFAULT_MULTIPLIER, &calibration, &records)
        else {
            panic!("10x over a 5x threshold must fail (baseline {baseline_ns})");
        };
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("regressed:"), "{findings:?}");
    }
}
