//! The calibrated regression gate ci.sh runs.
//!
//! A record fails when its measured ratio exceeds `multiplier ×
//! expected_ratio` **and** its median exceeds an absolute floor — the
//! floor keeps sub-microsecond areas from failing on clock
//! granularity. When the calibration itself is too noisy to trust
//! (relative MAD above [`GateConfig::max_variance`]), the gate refuses
//! to judge and reports a loud [`GateOutcome::Skip`] instead of a
//! meaningless verdict; ci.sh prints the reason and moves on.

use crate::calibrate::Calibration;
use crate::record::BenchRecord;

/// Gate thresholds. Defaults are deliberately loose — the gate exists
/// to catch order-of-magnitude regressions (an accidental `O(n²)`, a
/// lock on the hot path), not 10% drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// A record fails when `ratio > multiplier × expected_ratio`.
    /// `LIVEPHASE_BENCH_STRICT=1` in ci.sh tightens this to 2×.
    pub multiplier: f64,
    /// Absolute floor: medians at or below this never fail, whatever
    /// the ratio says.
    pub floor_ns: u64,
    /// Calibration relative-MAD bound above which the gate skips.
    pub max_variance: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            multiplier: 5.0,
            floor_ns: 20_000,
            max_variance: 0.25,
        }
    }
}

impl GateConfig {
    /// The strict profile (`LIVEPHASE_BENCH_STRICT=1`).
    #[must_use]
    pub fn strict() -> Self {
        Self {
            multiplier: 2.0,
            ..Self::default()
        }
    }

    /// The failing threshold for one area, in nanoseconds.
    #[must_use]
    pub fn threshold_ns(&self, expected_ratio: f64, calibration: &Calibration) -> u64 {
        #[allow(clippy::cast_precision_loss)]
        let scaled = self.multiplier * expected_ratio * calibration.baseline_ns as f64;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let scaled = if scaled.is_finite() && scaled > 0.0 {
            scaled.min(u64::MAX as f64) as u64
        } else {
            0
        };
        scaled.max(self.floor_ns)
    }
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
pub fn under_floor<'a>(config: &GateConfig, records: &'a [BenchRecord]) -> Vec<&'a str> {
    records
        .iter()
        .filter(|r| r.summary.median_ns <= config.floor_ns)
        .map(|r| r.area.as_str())
        .collect()
}

/// Judges a set of records against one calibration.
#[must_use]
pub fn evaluate(
    config: &GateConfig,
    calibration: &Calibration,
    records: &[BenchRecord],
) -> GateOutcome {
    let variance = calibration.variance();
    if variance > config.max_variance {
        return GateOutcome::Skip(format!(
            "calibration too noisy to gate on: relative MAD {variance:.3} exceeds the {:.3} sanity bound \
             (baseline {} ns, MAD {} ns over {} reps); rerun on a quieter machine",
            config.max_variance, calibration.baseline_ns, calibration.mad_ns, calibration.reps
        ));
    }
    let mut findings = Vec::new();
    for r in records {
        let threshold = config.threshold_ns(r.expected_ratio, calibration);
        if r.summary.median_ns > threshold {
            findings.push(format!(
                "{}: median {} ns exceeds threshold {} ns (ratio {:.3} vs expected {:.3} × {:.1})",
                r.area,
                r.summary.median_ns,
                threshold,
                r.ratio(),
                r.expected_ratio,
                config.multiplier
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
            evaluate(&GateConfig::default(), &calibration(), &records),
            GateOutcome::Pass
        );
    }

    #[test]
    fn a_ten_x_slowdown_fails_with_a_named_finding() {
        // Honest cost would be ~100µs; a 10× regression lands at 1ms.
        let records = vec![record("wire_encode", 1_000_000, 0.1)];
        let GateOutcome::Fail(findings) =
            evaluate(&GateConfig::default(), &calibration(), &records)
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
            evaluate(&GateConfig::default(), &calibration(), &records),
            GateOutcome::Pass
        );
        // ... so the gate names it as not judged.
        assert_eq!(under_floor(&GateConfig::default(), &records), ["tiny"]);
    }

    #[test]
    fn noisy_calibration_skips_loudly() {
        let noisy = Calibration {
            baseline_ns: 1_000_000,
            mad_ns: 400_000,
            reps: 15,
        };
        let records = vec![record("a", 1, 0.1)];
        let GateOutcome::Skip(reason) = evaluate(&GateConfig::default(), &noisy, &records) else {
            panic!("expected Skip");
        };
        assert!(reason.contains("too noisy"), "{reason}");
        assert!(reason.contains("0.400"), "{reason}");
    }

    #[test]
    fn strict_profile_halves_the_headroom() {
        let config = GateConfig::strict();
        assert_eq!(config.multiplier, 2.0);
        // 2 × 0.1 × 1ms = 200µs: 250µs fails strict but passes default.
        let records = vec![record("a", 250_000, 0.1)];
        assert!(matches!(
            evaluate(&config, &calibration(), &records),
            GateOutcome::Fail(_)
        ));
        assert_eq!(
            evaluate(&GateConfig::default(), &calibration(), &records),
            GateOutcome::Pass
        );
    }

    #[test]
    fn threshold_never_drops_below_the_floor() {
        let config = GateConfig::default();
        assert_eq!(config.threshold_ns(0.0, &calibration()), config.floor_ns);
        assert_eq!(
            config.threshold_ns(f64::NAN, &calibration()),
            config.floor_ns
        );
    }
}
