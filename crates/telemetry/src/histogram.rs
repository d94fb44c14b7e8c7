//! A log-linear histogram with a fixed, process-wide bucket layout.
//!
//! The layout is the classic HdrHistogram/DDSketch compromise: values
//! below [`SUB_COUNT`] get one bucket each (exact), and every octave
//! above that is split into [`SUB_COUNT`] linear sub-buckets, so the
//! bucket width is always at most `value / SUB_COUNT`. That bounds the
//! relative error of any quantile estimate at `1 / SUB_COUNT` (3.125%)
//! while keeping `record` a single array index plus one atomic add —
//! no allocation, no lock, no resizing, safe for the per-PMI and
//! per-frame hot paths.
//!
//! Because the layout is fixed, every histogram renders the same bucket
//! bounds, whichever layer recorded it.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the number of linear sub-buckets per octave.
pub const SUB_BITS: u32 = 5;
/// Linear sub-buckets per octave; also the denominator of the relative
/// error bound (a recorded value and its bucket upper bound differ by
/// at most `value / SUB_COUNT`).
pub const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Total bucket count: one per value below `SUB_COUNT`, then
/// `SUB_COUNT` per octave for the remaining `63 - SUB_BITS + 1` octaves
/// of the u64 range.
pub const BUCKETS: usize = (SUB_COUNT as usize) + (64 - SUB_BITS as usize) * (SUB_COUNT as usize);

/// Index of the bucket holding `value`. Total over all of u64.
#[must_use]
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT {
        // value < SUB_COUNT = 32, so the conversion cannot fail.
        return usize::try_from(value).unwrap_or(0);
    }
    let msb = 63 - value.leading_zeros(); // >= SUB_BITS here
    let octave = msb - SUB_BITS;
    let offset = (value >> octave) - SUB_COUNT; // 0..SUB_COUNT
                                                // The index is at most BUCKETS - 1 (< 2^12), so it always fits usize.
    usize::try_from(SUB_COUNT + u64::from(octave) * SUB_COUNT + offset).unwrap_or(BUCKETS - 1)
}

/// Inclusive `[lower, upper]` value range covered by bucket `index`.
///
/// # Panics
///
/// Panics if `index >= BUCKETS`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index out of range");
    let i = index as u64;
    if i < SUB_COUNT {
        return (i, i);
    }
    let octave = (i - SUB_COUNT) / SUB_COUNT;
    let offset = (i - SUB_COUNT) % SUB_COUNT;
    // index < BUCKETS bounds octave below 64, so the conversion cannot fail.
    let width_log2 = u32::try_from(octave).unwrap_or(63);
    let lower = (SUB_COUNT + offset) << width_log2;
    let upper = lower + ((1u64 << width_log2) - 1);
    (lower, upper)
}

/// A concurrent log-linear histogram of `u64` observations.
///
/// All methods take `&self`; recording is a single relaxed atomic add
/// on a fixed-size array. Snapshot-style reads (`count`, `quantile`,
/// `render`) are only as consistent as relaxed loads allow, which is
/// fine for monitoring.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Observations that arrived wider than `u64` and were clamped into
    /// the top bucket by [`record_saturating`](Self::record_saturating).
    /// Kept separate from the buckets so saturation is visible: a
    /// nonzero cell means quantile estimates near the cap undercount
    /// the true tail and must not be trusted blindly.
    overflow: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

impl Histogram {
    /// Creates an empty histogram. Allocates its full (fixed) bucket
    /// array up front — roughly 15 KiB — so recording never allocates.
    #[must_use]
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> = buckets
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("vec built with BUCKETS elements"));
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        }
    }

    /// Records one observation. Hot path: one index computation, three
    /// relaxed atomic RMWs, and two relaxed loads — the min/max RMWs
    /// are elided once the extremes stabilize (see `update_extremes`).
    /// No branch allocates or locks.
    #[inline]
    pub fn record(&self, value: u64) {
        #[expect(
            clippy::indexing_slicing,
            reason = "bucket_index is total over u64 and < BUCKETS"
        )]
        let bucket = &self.buckets[bucket_index(value)];
        bucket.fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.update_extremes(value);
    }

    /// Folds `value` into `min`/`max`, paying an RMW only when the
    /// extreme would actually move. `min` is monotonically
    /// non-increasing, so a stale loaded value only over-approximates:
    /// when `value >= loaded`, the true min is already `<= loaded <=
    /// value` and the `fetch_min` would be a no-op — skipping it is
    /// exact, not approximate. Symmetrically for `max`. In steady state
    /// the extremes stabilize after the first few observations and both
    /// RMWs vanish from the hot path.
    #[inline]
    fn update_extremes(&self, value: u64) {
        if value < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Records `n` observations of the same value in one swing — at
    /// most five relaxed atomic RMWs total, however large `n` is. Used
    /// by batch consumers (a shard draining its queue) that attribute
    /// one amortized value to every element of the batch.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "bucket_index is total over u64 and < BUCKETS"
        )]
        let bucket = &self.buckets[bucket_index(value)];
        bucket.fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum
            .fetch_add(value.saturating_mul(n), Ordering::Relaxed);
        self.update_extremes(value);
    }

    /// Records an observation that may be wider than the histogram's
    /// `u64` domain (durations in microseconds arrive as `u128`).
    /// Values that fit are recorded exactly; values past `u64::MAX`
    /// are clamped into the top bucket **and counted** in the
    /// [`overflow`](Self::overflow) cell, so saturation is never
    /// silent. This replaces the old
    /// `u64::try_from(x).unwrap_or(u64::MAX)` idiom at call sites,
    /// which recorded the same clamped value but left no trace that
    /// clamping happened.
    #[inline]
    pub fn record_saturating(&self, value: u128) {
        match u64::try_from(value) {
            Ok(v) => self.record(v),
            Err(_) => {
                self.overflow.fetch_add(1, Ordering::Relaxed);
                self.record(u64::MAX);
            }
        }
    }

    /// Bulk counterpart of [`record_saturating`](Self::record_saturating):
    /// `n` observations of one possibly-wider-than-`u64` value. A
    /// clamped value counts **`n`** overflows — every one of the `n`
    /// attributed observations is individually untrustworthy near the
    /// cap.
    #[inline]
    pub fn record_n_saturating(&self, value: u128, n: u64) {
        match u64::try_from(value) {
            Ok(v) => self.record_n(v, n),
            Err(_) => {
                self.overflow.fetch_add(n, Ordering::Relaxed);
                self.record_n(u64::MAX, n);
            }
        }
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Observations clamped into the top bucket because they exceeded
    /// the `u64` domain (see [`record_saturating`](Self::record_saturating)).
    /// Rendered as the `_overflow` series so scrapes can flag
    /// untrustworthy near-cap quantiles.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded observation, exact; `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }

    /// Largest recorded observation, exact; `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of the recorded
    /// distribution, or `None` when empty.
    ///
    /// The estimate is the upper bound of the bucket holding the
    /// rank-`ceil(q * count)` observation, clamped to the exact
    /// recorded max, so for a true value `t` the estimate `e`
    /// satisfies `t <= e <= t + t / SUB_COUNT`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        #[expect(
            clippy::cast_sign_loss,
            clippy::cast_possible_truncation,
            reason = "q * count lies in [0, count], clamped again below"
        )]
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(bucket.load(Ordering::Relaxed));
            if seen >= rank {
                let (_, upper) = bucket_bounds(i);
                return Some(upper.min(self.max.load(Ordering::Relaxed)));
            }
        }
        // Racy concurrent records can leave rank past the scanned total.
        Some(self.max.load(Ordering::Relaxed))
    }

    /// Visits every non-empty bucket as `(upper_bound, count)`, in
    /// ascending bucket order. This is the exposition renderer's view.
    pub fn for_each_nonempty(&self, mut f: impl FnMut(u64, u64)) {
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n != 0 {
                let (_, upper) = bucket_bounds(i);
                f(upper, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_n_is_n_records_in_one_swing() {
        let a = Histogram::new();
        let b = Histogram::new();
        for _ in 0..7 {
            a.record(42);
        }
        a.record(9);
        b.record_n(42, 7);
        b.record_n(9, 1);
        b.record_n(1_000, 0); // no-op
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
        assert_eq!(a.quantile(1.0), b.quantile(1.0));
    }

    #[test]
    fn layout_is_total_and_ordered() {
        // Every index maps into range, bounds tile the u64 line.
        let mut prev_upper: Option<u64> = None;
        for i in 0..BUCKETS {
            let (lower, upper) = bucket_bounds(i);
            assert!(lower <= upper, "bucket {i}");
            if let Some(p) = prev_upper {
                assert_eq!(lower, p.wrapping_add(1), "bucket {i} not contiguous");
            }
            prev_upper = Some(upper);
        }
        assert_eq!(prev_upper, Some(u64::MAX), "layout covers all of u64");
    }

    #[test]
    fn values_land_in_their_own_bucket() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1_000, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            let (lower, upper) = bucket_bounds(i);
            assert!(lower <= v && v <= upper, "value {v} bucket {i}");
            // Relative error bound: bucket width <= value / SUB_COUNT.
            assert!(upper - lower <= v / SUB_COUNT, "value {v} width too wide");
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_COUNT {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v));
        }
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        let p50 = h.quantile(0.5).unwrap();
        assert!((500..=516).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), Some(1000), "p100 is the exact max");
    }

    #[test]
    fn saturation_is_counted_not_silent() {
        let h = Histogram::new();
        h.record_saturating(7); // fits: exact, no overflow
        h.record_saturating(u128::from(u64::MAX)); // top of the domain, still exact
        assert_eq!(h.overflow(), 0, "in-domain values never count as overflow");
        h.record_saturating(u128::from(u64::MAX) + 1);
        h.record_saturating(u128::MAX);
        assert_eq!(h.overflow(), 2, "clamped values are counted");
        assert_eq!(h.count(), 4, "clamped values still land in the top bucket");
        assert_eq!(h.max(), Some(u64::MAX));
        // The regression this guards against: before the overflow cell,
        // a clamped record was indistinguishable from a genuine
        // u64::MAX observation.
        let quiet = Histogram::new();
        quiet.record(u64::MAX);
        assert_eq!(quiet.overflow(), 0);
    }

    #[test]
    fn extremes_track_through_the_elided_fast_path() {
        // Monotone runs in both directions force the slow path every
        // record; a constant run afterwards must take only the elided
        // fast path and leave the extremes untouched.
        let h = Histogram::new();
        for v in (1..=100u64).rev() {
            h.record(v); // each is a new min
        }
        for v in 101..=200u64 {
            h.record(v); // each is a new max
        }
        for _ in 0..1000 {
            h.record(150); // neither extreme moves
        }
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(200));
        let n = Histogram::new();
        n.record_n(7, 3);
        n.record_n(7, 5); // fast path for both extremes
        assert_eq!(n.min(), Some(7));
        assert_eq!(n.max(), Some(7));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }
}
