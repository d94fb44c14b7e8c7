//! A budget below the all-slowest floor, end to end through
//! `run_scenario`: every core freezes at the slowest level on the first
//! check. A single-test binary, because it reads the process-global
//! arbiter counters, which any test running alongside would move.

use livephase_pmsim::PlatformConfig;
use livephase_telemetry::catalogue::{TENANTS_ARBITER_DENIALS_TOTAL, TENANTS_ARBITER_GRANTS_TOTAL};
use livephase_tenants::{run_scenario, Arbiter, ArbiterPolicy, ScenarioSpec};

/// Requests granted or denied so far, by granted setting.
fn outcomes_by_op(slowest: usize) -> Vec<u64> {
    let registry = livephase_telemetry::global();
    (0..=slowest)
        .map(|op| {
            let label = op.to_string();
            registry
                .counter(&TENANTS_ARBITER_GRANTS_TOTAL, &[&label])
                .get()
                + registry
                    .counter(&TENANTS_ARBITER_DENIALS_TOTAL, &[&label])
                    .get()
        })
        .collect()
}

#[test]
fn a_budget_below_the_floor_grants_only_the_slowest_setting() {
    for policy in [ArbiterPolicy::WaterFill, ArbiterPolicy::Priority] {
        let mut spec = ScenarioSpec::new(6, 2);
        spec.intervals = 6;
        spec.noisy = 1;
        // Two cores at the slowest setting draw more than 1 W.
        spec.budget_w = 1.0;
        spec.policy = policy;
        let slowest = Arbiter::new(
            &PlatformConfig::pentium_m(),
            spec.budget_w,
            policy,
            spec.cores,
        )
        .slowest();

        let before = outcomes_by_op(slowest);
        let report = run_scenario(&spec).unwrap();
        let moved: Vec<u64> = outcomes_by_op(slowest)
            .iter()
            .zip(&before)
            .map(|(now, then)| now - then)
            .collect();
        assert!(!report.budget_feasible, "{policy}: 1 W is below the floor");
        assert!(
            moved[slowest] > 0 && moved[..slowest].iter().all(|&n| n == 0),
            "{policy}: every grant must be the slowest setting, got {moved:?}"
        );
        assert!(
            report.cap_violation_s > 0.0,
            "{policy}: DVFS alone cannot meet the cap, and the report must say so"
        );

        // Grants only re-time a tenant: its streams still equal its solo run.
        for t in 0..spec.tenants as u32 {
            let solo = run_scenario(&spec.solo(t)).unwrap();
            let (muxed, solo) = (&report.tenants[t as usize], &solo.tenants[0]);
            assert_eq!(
                muxed.sample_digest, solo.sample_digest,
                "{policy} tenant {t}"
            );
            assert_eq!(
                muxed.decision_digest, solo.decision_digest,
                "{policy} tenant {t}"
            );
        }
    }
}
