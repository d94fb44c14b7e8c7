//! The windowed majority vote both window predictors keep their history in.
//!
//! The vote is maintained incrementally rather than recounted: every
//! phase id has a count and the stamp of its latest occurrence, a bitset
//! marks the ids present, and the current winner is cached. A push is
//! O(1); so is a pop, except that when the phase leaving the window is
//! the winner the present set is rescanned, which costs O(distinct
//! phases) and never O(window). Reading the winner is O(1).

use super::spec::MAX_WINDOW;
use crate::phase::PhaseId;
use std::collections::VecDeque;

/// One phase's share of the window.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Occurrences in the window.
    count: u16,
    /// The push clock at the latest occurrence.
    stamp: u16,
}

/// The last `capacity` phases and their majority vote.
///
/// The winner is the phase with the most occurrences; a tie goes to the
/// tied phase whose latest occurrence is the most recent, which keeps a
/// window no worse than last-value on alternating input.
///
/// Counts and stamps are `u16`: a count never exceeds the capacity, and
/// every present phase occurred within the last `capacity` pushes, so its
/// age `clock − stamp` is exact in wrapping arithmetic while the capacity
/// is at most [`MAX_WINDOW`]. The whole vote is about 1 KiB.
#[derive(Debug, Clone)]
pub(super) struct MajorityWindow {
    history: VecDeque<PhaseId>,
    capacity: usize,
    /// Indexed by phase id. Slot 0 is never pushed, so its count stays 0
    /// and `leader == 0` means "no winner".
    tallies: [Tally; 256],
    /// Bit `id` is set while phase `id` has a non-zero count.
    present: [u64; 4],
    /// The stamp of the next push; wraps.
    clock: u16,
    /// The winning phase id, 0 while the window is empty.
    leader: u8,
    /// Sum of the held phase ids, for the mean selector.
    sum: u32,
}

impl MajorityWindow {
    /// An empty window of `capacity` phases. This is the window's only
    /// allocation: pushes never grow the ring.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds [`MAX_WINDOW`].
    pub(super) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "window size must be at least 1");
        assert!(
            capacity <= MAX_WINDOW,
            "window size must be at most {MAX_WINDOW}, got {capacity}"
        );
        Self {
            history: VecDeque::with_capacity(capacity),
            capacity,
            tallies: [Tally::default(); 256],
            present: [0; 4],
            clock: 0,
            leader: 0,
            sum: 0,
        }
    }

    /// The most phases held at once.
    pub(super) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of phases held (at most the capacity).
    pub(super) fn len(&self) -> usize {
        self.history.len()
    }

    /// Whether no phase is held.
    pub(super) fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// The majority phase, `None` while empty.
    pub(super) fn leader(&self) -> Option<PhaseId> {
        (self.leader != 0).then(|| PhaseId::new(self.leader))
    }

    /// The mean of the held phase ids, `None` while empty.
    pub(super) fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then(|| f64::from(self.sum) / self.history.len() as f64)
    }

    /// Appends `phase` as the most recent phase, dropping the oldest once
    /// the window is full.
    pub(super) fn push(&mut self, phase: PhaseId) {
        let evicted = if self.history.len() == self.capacity {
            self.history.pop_front()
        } else {
            None
        };
        if let Some(old) = evicted {
            self.sum -= u32::from(old.get());
            if let Some(t) = self.tallies.get_mut(usize::from(old.get())) {
                t.count -= 1;
                if t.count == 0 {
                    self.mark(old.get(), false);
                }
            }
        }
        let id = phase.get();
        self.history.push_back(phase);
        self.sum += u32::from(id);
        if let Some(t) = self.tallies.get_mut(usize::from(id)) {
            t.count += 1;
            t.stamp = self.clock;
        }
        self.clock = self.clock.wrapping_add(1);
        self.mark(id, true);
        if evicted.is_some_and(|old| old.get() == self.leader && old != phase) {
            // The winner lost a vote: any phase it led by one may now tie
            // or beat it.
            self.rescan();
        } else if self.count(id) >= self.count(self.leader) {
            // The newest phase wins every tie it is part of.
            self.leader = id;
        }
    }

    /// Empties the window, touching only the phases present.
    pub(super) fn clear(&mut self) {
        for id in present_ids(self.present) {
            if let Some(t) = self.tallies.get_mut(id) {
                t.count = 0;
            }
        }
        self.present = [0; 4];
        self.history.clear();
        self.leader = 0;
        self.sum = 0;
    }

    fn count(&self, id: u8) -> u16 {
        self.tallies.get(usize::from(id)).map_or(0, |t| t.count)
    }

    fn mark(&mut self, id: u8, present: bool) {
        if let Some(word) = self.present.get_mut(usize::from(id >> 6)) {
            let bit = 1u64 << (id & 63);
            if present {
                *word |= bit;
            } else {
                *word &= !bit;
            }
        }
    }

    /// Re-elects the leader from the present phases: the most votes, then
    /// the youngest latest occurrence. Stamps of present phases are
    /// distinct, so the order is total.
    fn rescan(&mut self) {
        let mut best: Option<(u16, u16, usize)> = None;
        for id in present_ids(self.present) {
            let Some(&t) = self.tallies.get(id) else {
                continue;
            };
            let age = self.clock.wrapping_sub(t.stamp);
            if best.is_none_or(|(count, best_age, _)| {
                t.count > count || (t.count == count && age < best_age)
            }) {
                best = Some((t.count, age, id));
            }
        }
        self.leader = best.map_or(0, |(_, _, id)| id as u8);
    }
}

/// The ids whose bits are set, in increasing order.
fn present_ids(present: [u64; 4]) -> impl Iterator<Item = usize> {
    present.into_iter().enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::super::fixed_window::{FixedWindow, Selector};
    use super::super::variable_window::VariableWindow;
    use super::super::{PhaseSample, Predictor};
    use super::*;
    use proptest::prelude::*;

    /// The two-pass scan the incremental vote replaced, kept as its
    /// oracle: count every phase in the window, then walk it oldest first
    /// and let each phase with at least the current best's count take
    /// over, so the most recent of the tied phases wins.
    fn scan(history: &VecDeque<PhaseId>) -> Option<PhaseId> {
        let mut counts = [0u32; 256];
        for p in history {
            counts[p.index()] += 1;
        }
        let mut best: Option<PhaseId> = None;
        for &p in history {
            match best {
                None => best = Some(p),
                Some(b) => {
                    if counts[p.index()] >= counts[b.index()] {
                        best = Some(p);
                    }
                }
            }
        }
        best
    }

    /// Both window predictors as they were before the vote: a plain
    /// history, flushed on a Mem/Uop jump above `threshold` when one is
    /// set, and reduced on every prediction by `scan`, a sum over the
    /// whole window, or the EMA.
    struct Oracle {
        capacity: usize,
        selector: Selector,
        threshold: Option<f64>,
        history: VecDeque<PhaseId>,
        last_rate: Option<f64>,
        ema: Option<f64>,
    }

    impl Oracle {
        fn new(capacity: usize, selector: Selector, threshold: Option<f64>) -> Self {
            Self {
                capacity,
                selector,
                threshold,
                history: VecDeque::new(),
                last_rate: None,
                ema: None,
            }
        }

        fn observe(&mut self, sample: PhaseSample) {
            let rate = sample.rate.get();
            if let (Some(last), Some(threshold)) = (self.last_rate, self.threshold) {
                if (rate - last).abs() > threshold {
                    self.history.clear();
                }
            }
            if self.history.len() == self.capacity {
                self.history.pop_front();
            }
            self.history.push_back(sample.phase);
            self.last_rate = Some(rate);
            if let Selector::Ema { alpha } = self.selector {
                let x = f64::from(sample.phase.get());
                self.ema = Some(self.ema.map_or(x, |e| alpha * x + (1.0 - alpha) * e));
            }
        }

        fn predict(&self) -> PhaseId {
            let round = |x: f64| PhaseId::new(x.round().clamp(1.0, 255.0) as u8);
            let selected = match self.selector {
                Selector::Majority => scan(&self.history),
                Selector::Mean => (!self.history.is_empty()).then(|| {
                    let sum: u32 = self.history.iter().map(|p| u32::from(p.get())).sum();
                    round(f64::from(sum) / self.history.len() as f64)
                }),
                Selector::Ema { .. } => self.ema.map(round),
            };
            selected.unwrap_or(PhaseId::CPU_BOUND)
        }

        fn reset(&mut self) {
            self.history.clear();
            self.last_rate = None;
            self.ema = None;
        }
    }

    /// One generated step: `(roll, noise, rate_draw, reset_draw)`.
    type Op = (u8, u8, u8, u16);

    /// How a case turns its steps into samples. A `skew`/256 share of the
    /// steps repeat the dominant phase `lo`; the rest cycle through `span`
    /// consecutive ids (equal counts: tie-heavy) or draw among them at
    /// random. Ids wrap within 1–255. The rate takes one of `levels`
    /// values 0.004 apart, so one level never jumps and more jump often.
    #[derive(Debug, Clone, Copy)]
    struct Stream {
        lo: u8,
        span: u8,
        skew: u8,
        cyclic: bool,
        levels: u8,
    }

    impl Stream {
        fn sample(self, i: usize, (roll, noise, rate_draw, _): Op) -> PhaseSample {
            let k = if roll < self.skew {
                0
            } else if self.cyclic {
                i % usize::from(self.span)
            } else {
                usize::from(noise % self.span)
            };
            let id = 1 + (usize::from(self.lo) - 1 + k) % 255;
            let rate = f64::from(rate_draw % self.levels) * 0.004;
            PhaseSample::new(rate, PhaseId::new(id as u8))
        }
    }

    /// Feeds `ops` to `p` and `oracle`, resetting both on a zero reset
    /// draw, and requires the same prediction and length at every step.
    fn run_against_oracle<P: Predictor>(
        p: &mut P,
        len: fn(&P) -> usize,
        oracle: &mut Oracle,
        stream: Stream,
        ops: &[Op],
    ) {
        for (i, &op) in ops.iter().enumerate() {
            if op.3 == 0 {
                p.reset();
                oracle.reset();
            }
            let s = stream.sample(i, op);
            p.observe(s);
            oracle.observe(s);
            assert_eq!(p.predict(), oracle.predict(), "prediction at {i}");
            assert_eq!(len(p), oracle.history.len(), "length at {i}");
        }
    }

    fn capacity() -> impl Strategy<Value = usize> {
        prop_oneof![1usize..=8, 1usize..=300, Just(MAX_WINDOW)]
    }

    fn stream() -> impl Strategy<Value = Stream> {
        (
            1u8..=255,
            prop_oneof![1u8..=3, 1u8..=255],
            prop_oneof![Just(0u8), 0u8..=255],
            0u8..2,
            1u8..=4,
        )
            .prop_map(|(lo, span, skew, cyclic, levels)| Stream {
                lo,
                span,
                skew,
                cyclic: cyclic == 1,
                levels,
            })
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u16..400), 0..=1500)
    }

    proptest! {
        /// `FixedWindow` under every selector predicts exactly what the
        /// two-pass scan, the full-window mean and the EMA predicted, at
        /// every step: windows of 1–300 and `MAX_WINDOW`, ids across
        /// 1–255, tie-heavy and skewed streams, resets mid-stream.
        #[test]
        fn fixed_window_matches_the_two_pass_scan(
            capacity in capacity(),
            selector in prop_oneof![
                Just(Selector::Majority),
                Just(Selector::Mean),
                (0.01f64..=1.0).prop_map(|alpha| Selector::Ema { alpha }),
            ],
            stream in stream(),
            ops in ops(),
        ) {
            let mut p = FixedWindow::new(capacity, selector);
            let mut oracle = Oracle::new(capacity, selector, None);
            run_against_oracle(&mut p, FixedWindow::len, &mut oracle, stream, &ops);
        }

        /// `VariableWindow` matches the scan over the same streams, with
        /// the paper's thresholds, zero (flush on any change) and others.
        #[test]
        fn variable_window_matches_the_two_pass_scan(
            capacity in capacity(),
            threshold in prop_oneof![Just(0.0), Just(0.005), Just(0.030), 0.0f64..0.02],
            stream in stream(),
            ops in ops(),
        ) {
            let mut p = VariableWindow::new(capacity, threshold);
            let mut oracle = Oracle::new(capacity, Selector::Majority, Some(threshold));
            run_against_oracle(&mut p, VariableWindow::len, &mut oracle, stream, &ops);
        }
    }

    /// Past 65 536 pushes the `u16` clock wraps, and ages must stay
    /// exact. The window is filled with a run of Z, a run of X one
    /// shorter with the wrap falling inside it, and Y and V alternating
    /// (each rarer than X). Pushing W evicts a Z, and the rescan must
    /// prefer X, whose latest occurrence is younger but whose raw stamp
    /// is smaller.
    #[test]
    fn ties_are_broken_by_age_across_the_clock_wrap() {
        let [filler, z, x, y, v, w] =
            [1, 2, 3, 4, 5, 6].map(|id| PhaseSample::new(0.01, PhaseId::new(id)));
        for capacity in [6, 7, 300, MAX_WINDOW] {
            let x_run = capacity / 3;
            let z_run = x_run + 1;
            let rest = capacity - z_run - x_run;
            let fill = (1 << 16) - z_run - x_run / 2;
            let mut p = FixedWindow::new(capacity, Selector::Majority);
            let mut oracle = Oracle::new(capacity, Selector::Majority, None);
            let stream = std::iter::repeat_n(filler, fill)
                .chain(std::iter::repeat_n(z, z_run))
                .chain(std::iter::repeat_n(x, x_run))
                .chain([y, v].into_iter().cycle().take(rest))
                .chain([w]);
            for s in stream {
                p.observe(s);
                oracle.observe(s);
            }
            assert_eq!(p.predict(), x.phase, "window {capacity}");
            assert_eq!(oracle.predict(), x.phase, "window {capacity}");
        }
    }

    #[test]
    #[should_panic(expected = "window size must be at most 16384")]
    fn oversized_window_rejected() {
        let _ = MajorityWindow::new(MAX_WINDOW + 1);
    }
}
