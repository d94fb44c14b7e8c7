//! Property tests for the histogram: every value lands in a bucket no
//! wider than the advertised relative error, quantile estimates stay
//! within that bound, and what is recorded is what renders.

use livephase_telemetry::catalogue::GOVERNOR_DECISION_US;
use livephase_telemetry::histogram::{bucket_bounds, bucket_index, BUCKETS, SUB_COUNT};
use livephase_telemetry::{Histogram, Registry};
use proptest::collection;
use proptest::prelude::*;

/// Observation streams spanning every octave, not just small ints.
fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    collection::vec(
        prop_oneof![
            0u64..64,
            64u64..100_000,
            1u64 << 20..1u64 << 40,
            Just(u64::MAX),
            0u64..=u64::MAX,
        ],
        0usize..200,
    )
}

fn hist_of(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// Every value lands in a bucket that contains it, and the bucket
    /// is narrow enough for the advertised 1/SUB_COUNT relative error.
    #[test]
    fn bucket_layout_contains_and_bounds_error(v in 0u64..=u64::MAX) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKETS);
        let (lower, upper) = bucket_bounds(i);
        prop_assert!(lower <= v && v <= upper);
        prop_assert!(upper - lower <= v / SUB_COUNT);
    }

    /// Quantile estimates never undershoot the true order statistic and
    /// overshoot by at most the bucket width: `t <= est <= t + t/32`.
    #[test]
    fn quantiles_are_within_relative_error(values in arb_values(), q in 0.0f64..=1.0) {
        prop_assume!(!values.is_empty());
        let h = hist_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let est = h.quantile(q).expect("non-empty");
        prop_assert!(est >= truth, "estimate {est} under truth {truth}");
        prop_assert!(
            est <= truth.saturating_add(truth / SUB_COUNT),
            "estimate {est} past error bound for truth {truth}"
        );
    }

    /// Record → render round trip: the exposition text reports exactly
    /// the recorded count and sum, and its +Inf bucket equals the count.
    #[test]
    fn recorded_streams_render_faithfully(values in arb_values()) {
        let r = Registry::new();
        let h = r.histogram(&GOVERNOR_DECISION_US, &[]);
        let mut sum = 0u64;
        for &v in &values {
            h.record(v);
            sum = sum.wrapping_add(v);
        }
        let text = r.render();
        prop_assert!(text.contains("# TYPE governor_decision_us histogram"));
        prop_assert!(text.contains(&format!("governor_decision_us_bucket{{le=\"+Inf\"}} {}", values.len())));
        prop_assert!(text.contains(&format!("governor_decision_us_sum {sum}")));
        prop_assert!(text.contains(&format!("governor_decision_us_count {}", values.len())));
        // Cumulative bucket lines are non-decreasing and end at count.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("governor_decision_us_bucket")) {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            prop_assert!(n >= last, "cumulative counts decreased: {line}");
            last = n;
        }
        prop_assert_eq!(last, values.len() as u64);
    }
}
