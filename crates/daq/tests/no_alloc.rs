//! A capture allocates per trace, per block buffer and per phase, never
//! per sample: `DaqSystem::measure_all` draws each block of noise into
//! one reused buffer and walks segment runs through it. A counting
//! global allocator watches this thread while two captures with the
//! same phases, one ten times as long per phase as the other, run, for
//! two traces and for three.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use livephase_daq::DaqSystem;
use livephase_pmsim::trace::{pport, PowerSegment, PowerTrace};

/// 40 phases of `periods` samples each (plus half a period of slack),
/// each split into an application segment and a handler segment.
fn phases(periods: f64) -> PowerTrace {
    (0..40u8)
        .flat_map(|i| {
            let toggle = i & pport::PHASE_TOGGLE;
            let power_w = 3.0 + f64::from(i % 5) * 2.0;
            [
                (0.75, power_w, pport::APP_RUNNING | toggle),
                (0.25, power_w + 1.0, pport::IN_HANDLER | toggle),
            ]
        })
        .map(|(share, power_w, pport_bits)| PowerSegment {
            duration_s: (periods + 0.5) * share * 40e-6,
            power_w,
            voltage_v: 1.484,
            pport_bits,
        })
        .collect()
}

/// Allocations of one `measure_all` over the traces, and its sample count.
fn capture(system: &DaqSystem, traces: &[PowerTrace]) -> (u64, u64) {
    let refs: Vec<&PowerTrace> = traces.iter().collect();
    let before = allocations();
    let logs = system.measure_all(&refs);
    let allocated = allocations() - before;
    assert!(logs.iter().all(|log| log.phases().len() == 40));
    (allocated, logs.iter().map(|log| log.samples_taken()).sum())
}

/// A pair, stepped in lockstep, and three traces, a pair plus one fed
/// alone.
#[test]
fn allocations_do_not_grow_with_samples_per_phase() {
    for system in [DaqSystem::pentium_m(42), DaqSystem::ideal()] {
        for periods in [&[60.0, 90.0][..], &[60.0, 90.0, 75.0]] {
            let short: Vec<PowerTrace> = periods.iter().map(|&p| phases(p)).collect();
            let long: Vec<PowerTrace> = periods.iter().map(|&p| phases(10.0 * p)).collect();
            // Warm-up: builds the normal sampler's table.
            let _ = capture(&system, &short);
            let (few, few_samples) = capture(&system, &short);
            let (many, many_samples) = capture(&system, &long);
            assert!(
                many_samples > 9 * few_samples,
                "{few_samples} vs {many_samples}"
            );
            assert_eq!(few, many, "{few_samples} samples vs {many_samples}");
        }
    }
}
