//! A capture allocates per trace, per block buffer and per phase, never
//! per sample: `DaqSystem::measure_all` draws each block of noise into
//! one reused buffer, or into a fixed ring of them on a producer thread,
//! and walks segment runs through it. A counting global allocator
//! watches this thread while two captures with the same phases, one ten
//! times as long per phase as the other, run, for two traces and for
//! three, with the noise drawn on this thread and on a producer thread.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use livephase_daq::{DaqLog, DaqSystem};
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

/// Allocations on this thread of one capture of the traces, and its
/// sample count.
fn capture(traces: &[PowerTrace], measure: impl Fn(&[&PowerTrace]) -> Vec<DaqLog>) -> (u64, u64) {
    let refs: Vec<&PowerTrace> = traces.iter().collect();
    let before = allocations();
    let logs = measure(&refs);
    let allocated = allocations() - before;
    assert!(logs.iter().all(|log| log.phases().len() == 40));
    (allocated, logs.iter().map(DaqLog::samples_taken).sum())
}

/// The same phases at 60 and 90 samples each, and at ten times that.
fn short_and_long(periods: &[f64]) -> [Vec<PowerTrace>; 2] {
    [1.0, 10.0].map(|scale| periods.iter().map(|&p| phases(scale * p)).collect())
}

/// A pair, stepped in lockstep, and three traces, a pair plus one fed
/// alone: 6 040 and 60 040 samples for the pair. The short pair's
/// longest trace is 3 620 instants, three pipeline blocks with a partial
/// last one; the long one's is 36 020, twenty-one.
#[test]
fn allocations_do_not_grow_with_samples_per_phase() {
    for system in [DaqSystem::pentium_m(42), DaqSystem::ideal()] {
        for periods in [&[60.0, 90.0][..], &[60.0, 90.0, 75.0]] {
            let [short, long] = short_and_long(periods);
            for threaded in [false, true] {
                let measure = |refs: &[&PowerTrace]| system.measure_all_threaded(refs, threaded);
                // Warm-up: builds the normal sampler's table.
                let _ = capture(&short, measure);
                let (few, few_samples) = capture(&short, measure);
                let (many, many_samples) = capture(&long, measure);
                assert!(
                    many_samples > 9 * few_samples,
                    "{few_samples} vs {many_samples}"
                );
                assert_eq!(
                    few, many,
                    "threaded {threaded}: {few_samples} samples vs {many_samples}"
                );
            }
        }
    }
}

/// `measure_all` starts no thread for a capture of at most 16 384
/// instants, nor for any capture on one core: there it allocates what
/// the inline path does. A longer capture asks for the core count (which
/// may read the cgroup's limits) and, on two or more cores, allocates
/// what the threaded path does, the producer's spawn included.
#[test]
fn measure_all_threads_only_long_captures_on_several_cores() {
    let before = allocations();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asking = allocations() - before;
    let system = &DaqSystem::pentium_m(42);
    let [short, long] = short_and_long(&[60.0, 90.0]);
    let on = |threaded| move |refs: &[&PowerTrace]| system.measure_all_threaded(refs, threaded);
    let _ = capture(&short, on(true));
    let inline = capture(&short, on(false)).0;
    let threaded = capture(&short, on(true)).0;
    assert_ne!(inline, threaded, "a spawn allocates on the spawning thread");
    let measure_all = |refs: &[&PowerTrace]| system.measure_all(refs);
    assert_eq!(capture(&short, measure_all).0, inline);
    let expected = asking + if cores >= 2 { threaded } else { inline };
    assert_eq!(capture(&long, measure_all).0, expected, "{cores} cores");
}
