//! Both GPHT organizations size every table in `new`, so observing a
//! sample never allocates. A counting global allocator watches this
//! thread while warm tables hit, miss, evict and reset.

use livephase_core::{
    Gpht, GphtConfig, HashedGpht, HashedGphtConfig, PhaseId, PhaseSample, Predictor,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so the allocator can touch it without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A period-14 six-phase stream with one sample in eight replaced by
/// xorshift noise: patterns recur (hits) and keep appearing (misses past
/// capacity, hence evictions).
fn stream() -> Vec<PhaseSample> {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    (0..20_000u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = if x.is_multiple_of(8) {
                x >> 8
            } else {
                i * 5 % 14
            };
            let id = u8::try_from(1 + k % 6).expect("1..=6");
            PhaseSample::new(f64::from(id) * 0.005, PhaseId::new(id))
        })
        .collect()
}

/// Allocations made while `p` observes `samples`, reset halfway through.
fn allocations_observing(p: &mut impl Predictor, samples: &[PhaseSample]) -> u64 {
    let before = allocations();
    for (i, &s) in samples.iter().enumerate() {
        if i == samples.len() / 2 {
            p.reset();
        }
        p.observe(s);
    }
    allocations() - before
}

#[test]
fn observing_never_allocates() {
    let samples = stream();
    for config in [
        GphtConfig::DEPLOYED,
        GphtConfig::REFERENCE,
        GphtConfig {
            gphr_depth: 17,
            pht_entries: 64,
        },
    ] {
        let mut g = Gpht::new(config);
        assert_eq!(allocations_observing(&mut g, &samples), 0, "{config:?}");
        assert!(g.hits() > 0, "{config:?} hits");
        assert!(g.misses() > config.pht_entries as u64, "{config:?} evicts");
    }
    let mut h = HashedGpht::new(HashedGphtConfig::DEPLOYED);
    assert_eq!(allocations_observing(&mut h, &samples), 0, "hashed");
    assert!(h.hits() > 0 && h.misses() > 0);
}
