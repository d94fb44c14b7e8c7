//! Both GPHT organizations and both window predictors size all their
//! state in `new`, so observing a sample and predicting never allocate.
//! A counting global allocator watches this thread while warm tables
//! hit, miss, evict and reset, and while windows fill, slide, flush on
//! transitions and reset.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use livephase_core::{
    FixedWindow, Gpht, GphtConfig, HashedGpht, HashedGphtConfig, PhaseId, PhaseSample, Predictor,
    Selector, VariableWindow,
};

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

/// Allocations made while `p` observes `samples` and predicts after
/// each, reset halfway through.
fn allocations_observing(p: &mut impl Predictor, samples: &[PhaseSample]) -> u64 {
    let before = allocations();
    for (i, &s) in samples.iter().enumerate() {
        if i == samples.len() / 2 {
            p.reset();
        }
        std::hint::black_box(p.next(s));
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

#[test]
fn windows_never_allocate() {
    let samples = stream();
    for size in [8, 128] {
        for selector in [
            Selector::Majority,
            Selector::Mean,
            Selector::Ema { alpha: 0.5 },
        ] {
            let mut w = FixedWindow::new(size, selector);
            assert_eq!(
                allocations_observing(&mut w, &samples),
                0,
                "{size} {selector:?}"
            );
            assert_eq!(w.len(), size, "{size} {selector:?} slid full");
        }
    }
    // Neighbouring ids are 0.005 apart in Mem/Uop: threshold 0 flushes on
    // every phase change, 0.005 on every jump of two or more ids, and
    // 0.030 never, so its window slides full.
    for threshold in [0.005, 0.030, 0.0] {
        let mut w = VariableWindow::new(128, threshold);
        assert_eq!(allocations_observing(&mut w, &samples), 0, "{threshold}");
        if threshold < 0.030 {
            assert!(w.len() < 128, "{threshold} flushed");
        } else {
            assert_eq!(w.len(), 128, "{threshold} slid full");
        }
    }
}
