//! Integration bar for the multi-tenant cluster: determinism under a
//! fixed seed, bit-exact counter virtualization against solo runs, and
//! the arbiter's budget guarantee — the ISSUE's acceptance criteria,
//! pinned as tests.

use livephase_tenants::{
    fnv1a, run_scenario, ArbiterPolicy, ClusterReport, ScenarioSpec, DIGEST_SEED,
};

fn small_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(6, 2);
    spec.intervals = 8;
    spec.noisy = 1;
    spec.budget_w = 20.0;
    spec
}

#[test]
fn same_seed_same_digests() {
    let spec = small_spec();
    let a = run_scenario(&spec).unwrap();
    let b = run_scenario(&spec).unwrap();
    assert_eq!(a.decision_digest(), b.decision_digest());
    assert_eq!(a.tenants, b.tenants, "entire per-tenant reports agree");
    assert_eq!(a.epochs, b.epochs);
    assert_eq!(a.context_switches, b.context_switches);
}

#[test]
fn different_seeds_diverge() {
    let spec = small_spec();
    let mut other = spec.clone();
    other.seed = 1234;
    let a = run_scenario(&spec).unwrap();
    let b = run_scenario(&other).unwrap();
    assert_ne!(a.decision_digest(), b.decision_digest());
}

#[test]
fn counter_virtualization_is_exact_against_solo_runs() {
    // Every tenant's sample stream (uops, mem per interval) and decision
    // stream in the multiplexed cluster must equal its solo run bit for
    // bit, no matter the neighbors, the power cap, or the slicing.
    let spec = small_spec();
    let muxed = run_scenario(&spec).unwrap();
    for t in 0..spec.tenants as u32 {
        let solo = run_scenario(&spec.solo(t)).unwrap();
        let muxed_t = muxed.tenants.iter().find(|r| r.tenant == t).unwrap();
        let solo_t = solo.tenants.first().unwrap();
        assert_eq!(
            muxed_t.sample_digest, solo_t.sample_digest,
            "tenant {t}: counter stream diverged from solo run"
        );
        assert_eq!(
            muxed_t.decision_digest, solo_t.decision_digest,
            "tenant {t}: decision stream diverged from solo run"
        );
        assert_eq!(muxed_t.intervals, solo_t.intervals);
        assert_eq!(
            (muxed_t.scored, muxed_t.correct),
            (solo_t.scored, solo_t.correct),
            "tenant {t}: prediction accuracy diverged from solo run"
        );
    }
}

#[test]
fn quantum_size_does_not_change_decisions() {
    // Slicing is invisible to the virtualized counters: a different
    // scheduling quantum re-times everything but decides identically.
    let spec = small_spec();
    let mut fine = spec.clone();
    fine.quantum_uops = 7_000_000;
    let a = run_scenario(&spec).unwrap();
    let b = run_scenario(&fine).unwrap();
    assert!(b.context_switches >= a.context_switches);
    for (x, y) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(x.sample_digest, y.sample_digest, "tenant {}", x.tenant);
        assert_eq!(x.decision_digest, y.decision_digest, "tenant {}", x.tenant);
    }
}

#[test]
fn cap_is_honoured_under_both_policies() {
    for policy in [ArbiterPolicy::Priority, ArbiterPolicy::WaterFill] {
        let mut spec = small_spec();
        spec.policy = policy;
        // Tight enough to force denials: two cores cannot both run the
        // fastest setting (≈13 W each) under 20 W.
        spec.budget_w = 20.0;
        let report = run_scenario(&spec).unwrap();
        assert!(report.budget_feasible, "{policy}: floor must fit");
        assert_eq!(
            report.cap_violation_s, 0.0,
            "{policy}: measured power exceeded the budget"
        );
        assert!(
            report.peak_epoch_power_w <= spec.budget_w + 1e-6,
            "{policy}: peak {} exceeds budget",
            report.peak_epoch_power_w
        );
        assert!(
            report.denied_epochs() > 0,
            "{policy}: a tight budget must deny someone"
        );
    }
}

#[test]
fn generous_budget_never_denies() {
    let mut spec = small_spec();
    spec.budget_w = 500.0;
    let report = run_scenario(&spec).unwrap();
    assert_eq!(report.denied_epochs(), 0);
    assert_eq!(report.cap_violation_s, 0.0);
}

#[test]
fn capping_stretches_time_but_not_decisions() {
    // Grants floor the operating-point index, so a capped tenant can
    // only run slower than (or as fast as) its uncapped self: per-tenant
    // execution time never shrinks. (EDP, by contrast, may legitimately
    // *improve* under a cap — slowing memory-bound phases is the paper's
    // headline result — so time is the invariant, not energy-delay.)
    let tight = small_spec();
    let mut uncapped = tight.clone();
    uncapped.budget_w = 500.0;
    let capped_report = run_scenario(&tight).unwrap();
    let free_report = run_scenario(&uncapped).unwrap();
    for (c, f) in capped_report.tenants.iter().zip(&free_report.tenants) {
        assert!(
            c.time_s >= f.time_s * 0.999,
            "tenant {}: capped run finished faster than uncapped",
            c.tenant
        );
        assert_eq!(
            c.decision_digest, f.decision_digest,
            "tenant {}: the cap changed the decision stream (it must only re-time it)",
            c.tenant
        );
    }
}

#[test]
fn acceptance_scenario_m64_k8_is_deterministic_and_capped() {
    // The ISSUE's acceptance criterion verbatim: M=64 tenants on K=8
    // cores under a power cap, deterministic digests across two runs,
    // cap-violation time zero.
    let mut spec = ScenarioSpec::new(64, 8);
    spec.intervals = 4;
    spec.noisy = 8;
    spec.budget_w = 75.0; // eight cores cannot all run flat out (~13 W each)
    let a = run_scenario(&spec).unwrap();
    let b = run_scenario(&spec).unwrap();
    assert_eq!(a.decision_digest(), b.decision_digest());
    assert!(a.budget_feasible);
    assert_eq!(a.cap_violation_s, 0.0);
    assert!(a.peak_epoch_power_w <= spec.budget_w + 1e-6);
    assert!(a.denied_epochs() > 0, "75 W over 8 cores must throttle");
    assert_eq!(a.tenants.len(), 64);
    assert!(a.tenants.iter().all(|t| t.intervals == 4));
}

#[test]
fn sixty_four_tenants_on_one_core_stay_exact_and_capped() {
    // One budget slot for everyone: the core freezes at the first level
    // its lowest-id candidate cannot afford, and all 64 tenants take
    // turns on it.
    let mut spec = ScenarioSpec::new(64, 1);
    spec.intervals = 4;
    spec.noisy = 8;
    spec.budget_w = 8.0; // one core cannot run flat out (~13 W)
    let report = run_scenario(&spec).unwrap();
    assert!(report.budget_feasible);
    assert!(report.denied_epochs() > 0, "8 W on one core must bind");
    assert_eq!(report.cap_violation_s, 0.0);
    for t in 0..spec.tenants as u32 {
        let solo = run_scenario(&spec.solo(t)).unwrap();
        let (muxed, solo) = (&report.tenants[t as usize], &solo.tenants[0]);
        assert_eq!(muxed.sample_digest, solo.sample_digest, "tenant {t}");
        assert_eq!(muxed.decision_digest, solo.decision_digest, "tenant {t}");
    }
}

/// FNV-1a fingerprint of every tenant's arbiter-dependent outcome:
/// denial count, execution time and energy, bit for bit. Decision
/// digests cannot see grants (a grant floors the operating point after
/// the decision), so this is what pins the arbiter's output end to end.
fn outcome_fingerprint(report: &ClusterReport) -> u64 {
    let mut h = DIGEST_SEED;
    for t in &report.tenants {
        h = fnv1a(h, &t.denied_epochs.to_le_bytes());
        h = fnv1a(h, &t.time_s.to_bits().to_le_bytes());
        h = fnv1a(h, &t.energy_j.to_bits().to_le_bytes());
    }
    h
}

#[test]
fn arbiter_outcomes_are_pinned_under_a_binding_cap() {
    // The 64-tenant/2-core/8-noisy/18 W benchmark shape, shortened. The
    // constants were captured from the original quadratic arbiter, so
    // any change to which tenant gets which grant shows up here.
    for (policy, expected) in [
        (ArbiterPolicy::WaterFill, 0x6bbe_ebcd_1d00_0ed8),
        (ArbiterPolicy::Priority, 0xb7a1_d88c_873b_7882),
    ] {
        let mut spec = ScenarioSpec::new(64, 2);
        spec.intervals = 16;
        spec.noisy = 8;
        spec.budget_w = 18.0;
        spec.policy = policy;
        let report = run_scenario(&spec).unwrap();
        assert!(report.denied_epochs() > 0, "{policy}: 18 W must bind");
        assert_eq!(
            outcome_fingerprint(&report),
            expected,
            "{policy}: arbiter outcomes changed (got {:#018x})",
            outcome_fingerprint(&report)
        );
    }
}
