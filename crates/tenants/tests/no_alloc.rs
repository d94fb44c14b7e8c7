//! The arbiter's per-epoch path never allocates once warm, and a
//! cluster run's allocations do not grow with its trace length: the
//! runner streams each tenant's workload, so a run holds O(tenants)
//! workload state. A counting global allocator watches this thread.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocated_bytes, allocations};
use livephase_pmsim::PlatformConfig;
use livephase_tenants::{run_scenario, Arbiter, ArbiterPolicy, Request, ScenarioSpec};

/// 64 requests over 2 cores and every setting, the top eight ids at the
/// lowest priority: the `tenants_cluster` request shape.
fn requests() -> Vec<Request> {
    (0..64u32)
        .map(|tenant| Request {
            tenant,
            core: tenant as usize % 2,
            requested_op: (tenant as usize * 7) % 6,
            priority: u8::from(tenant < 56),
        })
        .collect()
}

#[test]
fn warm_arbitration_never_allocates() {
    let requests = requests();
    let platform = PlatformConfig::pentium_m();
    for policy in [ArbiterPolicy::WaterFill, ArbiterPolicy::Priority] {
        // 18 W over two cores binds, so both outcomes are counted.
        let mut arbiter = Arbiter::new(&platform, 18.0, policy, 2);
        let grants = arbiter.arbitrate(&requests);
        assert!(
            grants.iter().any(|g| g.denied),
            "{policy}: the budget binds"
        );
        assert!(grants.iter().any(|g| !g.denied), "{policy}");

        let before = allocations();
        for _ in 0..100 {
            std::hint::black_box(arbiter.arbitrate(&requests));
        }
        assert_eq!(allocations() - before, 0, "{policy}: arbitrate");

        let before = allocations();
        for _ in 0..100 {
            std::hint::black_box(arbiter.reissue());
        }
        assert_eq!(allocations() - before, 0, "{policy}: reissue");
    }
}

#[test]
fn run_allocations_do_not_grow_with_trace_length() {
    // Telemetry series are keyed by label, and each run looks up the
    // ones it touches (DVFS transition pairs, granted settings) by
    // formatted label: the label set must not depend on the length. So
    // every tenant runs `swim_in`, whose phase (and so its transitions
    // and requests) is the same at 8 intervals as at 64.
    let spec = |intervals: usize| {
        let mut spec = ScenarioSpec::new(12, 2);
        spec.mix = vec!["swim_in".to_owned()];
        spec.budget_w = 18.0;
        spec.intervals = intervals;
        spec
    };
    let (short, long) = (spec(8), spec(64));
    // Warm-up: the process-global telemetry series both runs publish to
    // are registered once, by whichever run touches them first.
    for s in [&short, &long] {
        run_scenario(s).unwrap();
    }
    let bytes = |s: &ScenarioSpec| {
        let before = allocated_bytes();
        let report = run_scenario(s).unwrap();
        let moved = allocated_bytes() - before;
        drop(report);
        moved
    };
    assert_eq!(
        bytes(&short),
        bytes(&long),
        "a run at 64 intervals per tenant allocates what one at 8 does"
    );
}
