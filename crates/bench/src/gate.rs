//! The calibrated regression gate ci.sh runs.
//!
//! A record fails when its measured ratio exceeds `multiplier ×
//! expected_ratio` **and** its median exceeds an absolute floor — the
//! floor keeps sub-microsecond areas from failing on clock
//! granularity. When the calibration itself is too noisy to trust
//! (relative MAD above [`MAX_VARIANCE`]), the gate refuses
//! to judge and reports a loud [`GateOutcome::Skip`] instead of a
//! meaningless verdict; ci.sh prints the reason and moves on.

use crate::calibrate::Calibration;
use crate::record::BenchRecord;

/// The default headroom: a record fails when `ratio > multiplier ×
/// expected_ratio`. Deliberately loose — the gate exists to catch
/// order-of-magnitude regressions (an accidental `O(n²)`, a lock on the
/// hot path), not 10% drift.
pub const DEFAULT_MULTIPLIER: f64 = 5.0;

/// Absolute floor: medians at or below this never fail, whatever the
/// ratio says.
pub const FLOOR_NS: u64 = 20_000;

/// Calibration relative-MAD bound above which the gate skips.
pub const MAX_VARIANCE: f64 = 0.25;

/// The failing threshold for one area, in nanoseconds.
#[must_use]
pub fn threshold_ns(multiplier: f64, expected_ratio: f64, calibration: &Calibration) -> u64 {
    #[allow(clippy::cast_precision_loss)]
    let scaled = multiplier * expected_ratio * calibration.baseline_ns as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let scaled = if scaled.is_finite() && scaled > 0.0 {
        scaled.min(u64::MAX as f64) as u64
    } else {
        0
    };
    scaled.max(FLOOR_NS)
}

/// What the gate concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateOutcome {
    /// Every record under threshold.
    Pass,
    /// The machine was too noisy to judge; the string says why.
    Skip(String),
    /// One finding line per failing record.
    Fail(Vec<String>),
}

/// The records the gate cannot fail: their median is at or under the
/// absolute floor, where no ratio makes them fail. `bench --gate`
/// names them, so an area that shrank under the floor cannot pass
/// unnoticed.
#[must_use]
pub fn under_floor(records: &[BenchRecord]) -> Vec<&str> {
    records
        .iter()
        .filter(|r| r.summary.median_ns <= FLOOR_NS)
        .map(|r| r.area.as_str())
        .collect()
}

/// Judges a set of records against one calibration, with `multiplier`
/// times each area's expected ratio as its headroom.
#[must_use]
pub fn evaluate(
    multiplier: f64,
    calibration: &Calibration,
    records: &[BenchRecord],
) -> GateOutcome {
    let variance = calibration.variance();
    if variance > MAX_VARIANCE {
        return GateOutcome::Skip(format!(
            "calibration too noisy to gate on: relative MAD {variance:.3} exceeds the {:.3} sanity bound \
             (baseline {} ns, MAD {} ns over {} reps); rerun on a quieter machine",
            MAX_VARIANCE, calibration.baseline_ns, calibration.mad_ns, calibration.reps
        ));
    }
    let mut findings = Vec::new();
    for r in records {
        let threshold = threshold_ns(multiplier, r.expected_ratio, calibration);
        if r.summary.median_ns > threshold {
            findings.push(format!(
                "{}: median {} ns exceeds threshold {} ns (ratio {:.3} vs expected {:.3} × {:.1})",
                r.area,
                r.summary.median_ns,
                threshold,
                r.ratio(),
                r.expected_ratio,
                multiplier
            ));
        }
    }
    if findings.is_empty() {
        GateOutcome::Pass
    } else {
        GateOutcome::Fail(findings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Machine;
    use crate::stats::Summary;

    fn calibration() -> Calibration {
        Calibration {
            baseline_ns: 1_000_000,
            mad_ns: 10_000,
            reps: 15,
        }
    }

    fn record(area: &str, median_ns: u64, expected_ratio: f64) -> BenchRecord {
        BenchRecord {
            area: area.to_owned(),
            summary: Summary::from_ns(&[median_ns]).unwrap(),
            warmup: 0,
            calibration: calibration(),
            expected_ratio,
            machine: Machine {
                host: "test".to_owned(),
                cpu: "test".to_owned(),
                cores: 1,
            },
            git_rev: "unknown".to_owned(),
            unix_ms: 0,
        }
    }

    #[test]
    fn clean_records_pass() {
        // expected 0.1 × baseline 1ms → threshold 5 × 100µs = 500µs.
        let records = vec![record("a", 100_000, 0.1), record("b", 499_999, 0.1)];
        assert_eq!(
            evaluate(DEFAULT_MULTIPLIER, &calibration(), &records),
            GateOutcome::Pass
        );
    }

    #[test]
    fn a_ten_x_slowdown_fails_with_a_named_finding() {
        // Honest cost would be ~100µs; a 10× regression lands at 1ms.
        let records = vec![record("wire_encode", 1_000_000, 0.1)];
        let GateOutcome::Fail(findings) = evaluate(DEFAULT_MULTIPLIER, &calibration(), &records)
        else {
            panic!("expected Fail");
        };
        assert_eq!(findings.len(), 1);
        assert!(findings[0].starts_with("wire_encode:"), "{}", findings[0]);
        assert!(findings[0].contains("exceeds threshold"));
    }

    #[test]
    fn the_floor_shields_fast_areas_from_clock_noise() {
        // Ratio blown 100×, but the median sits under the 20µs floor.
        let records = vec![record("tiny", 19_000, 0.0001), record("big", 20_001, 0.1)];
        assert_eq!(
            evaluate(DEFAULT_MULTIPLIER, &calibration(), &records),
            GateOutcome::Pass
        );
        // ... so the gate names it as not judged.
        assert_eq!(under_floor(&records), ["tiny"]);
    }

    #[test]
    fn noisy_calibration_skips_loudly() {
        let noisy = Calibration {
            baseline_ns: 1_000_000,
            mad_ns: 400_000,
            reps: 15,
        };
        let records = vec![record("a", 1, 0.1)];
        let GateOutcome::Skip(reason) = evaluate(DEFAULT_MULTIPLIER, &noisy, &records) else {
            panic!("expected Skip");
        };
        assert!(reason.contains("too noisy"), "{reason}");
        assert!(reason.contains("0.400"), "{reason}");
    }

    #[test]
    fn threshold_never_drops_below_the_floor() {
        let m = DEFAULT_MULTIPLIER;
        assert_eq!(threshold_ns(m, 0.0, &calibration()), FLOOR_NS);
        assert_eq!(threshold_ns(m, f64::NAN, &calibration()), FLOOR_NS);
    }
}
