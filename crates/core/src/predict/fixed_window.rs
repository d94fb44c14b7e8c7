//! The fixed history window predictor.
//!
//! `Phase[t+1] = f(Phase[t], …, Phase[t-(winsize-1)])` where `f` is a simple
//! statistical selector over the last `winsize` observations. The paper
//! evaluates windows of 8 and 128 and mentions that `f()` "can be a simple
//! averaging function, an exponential moving average or a selector, based on
//! population counts" — all three are provided via [`Selector`].
//!
//! The window keeps its statistics up to date as phases enter and leave
//! it, so a prediction never re-reads the window. The majority vote is
//! incremental (`predict::majority`): a count and a latest-occurrence
//! stamp per phase, a bitset of the phases present and the cached
//! winner — `u16` fields, about 1 KiB per predictor. Observing is O(1)
//! amortised: only when the winner itself leaves the window are the
//! phases present rescanned. The mean is a running integer sum of the
//! phase ids, exact and hence bit-identical to summing the window.

use super::majority::MajorityWindow;
use super::{PhaseSample, Predictor};
use crate::phase::PhaseId;

/// The statistic used to reduce a window of phases to one prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Selector {
    /// Majority vote: the most frequent phase in the window. Ties break
    /// toward the most recently observed of the tied phases, which keeps
    /// the predictor no worse than last-value for alternating inputs.
    Majority,
    /// Arithmetic mean of the phase ids, rounded to the nearest phase.
    Mean,
    /// Exponential moving average over phase ids with smoothing factor
    /// `alpha` in `(0, 1]`; larger alpha weights recent phases more.
    Ema {
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
    },
}

impl Selector {
    fn validate(self) {
        if let Selector::Ema { alpha } = self {
            assert!(
                alpha > 0.0 && alpha <= 1.0 && alpha.is_finite(),
                "EMA alpha must be in (0, 1], got {alpha}"
            );
        }
    }
}

/// Predicts from a statistic over the last `window_size` observed phases.
///
/// ```
/// use livephase_core::{FixedWindow, Selector, PhaseSample, PhaseId, Predictor};
/// let mut p = FixedWindow::new(8, Selector::Majority);
/// for _ in 0..5 { p.observe(PhaseSample::new(0.001, PhaseId::new(1))); }
/// for _ in 0..3 { p.observe(PhaseSample::new(0.040, PhaseId::new(6))); }
/// // Five 1s out-vote three 6s.
/// assert_eq!(p.predict().get(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FixedWindow {
    selector: Selector,
    window: MajorityWindow,
    ema: Option<f64>,
}

impl FixedWindow {
    /// Creates a predictor over the last `window_size` phases.
    ///
    /// # Panics
    ///
    /// Panics if `window_size` is zero or above
    /// [`MAX_WINDOW`](super::spec::MAX_WINDOW), or the EMA alpha is out
    /// of range.
    #[must_use]
    pub fn new(window_size: usize, selector: Selector) -> Self {
        let window = MajorityWindow::new(window_size);
        selector.validate();
        Self {
            selector,
            window,
            ema: None,
        }
    }

    /// The configured window size.
    #[must_use]
    pub fn window_size(&self) -> usize {
        self.window.capacity()
    }

    /// The configured selector.
    #[must_use]
    pub fn selector(&self) -> Selector {
        self.selector
    }

    /// Number of observations currently held (saturates at the window size).
    #[must_use]
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no observation has been made yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    fn select(&self) -> Option<PhaseId> {
        match self.selector {
            Selector::Majority => self.window.leader(),
            Selector::Mean => self.window.mean().map(|m| PhaseId::new(round_to_phase(m))),
            Selector::Ema { .. } => self.ema.map(|e| PhaseId::new(round_to_phase(e))),
        }
    }
}

fn round_to_phase(x: f64) -> u8 {
    let r = x.round().clamp(1.0, 255.0);
    // `r` is in [1, 255] by construction, hence exactly representable.
    r as u8
}

impl Predictor for FixedWindow {
    fn observe(&mut self, sample: PhaseSample) {
        self.window.push(sample.phase);
        if let Selector::Ema { alpha } = self.selector {
            let x = f64::from(sample.phase.get());
            self.ema = Some(match self.ema {
                None => x,
                Some(e) => alpha * x + (1.0 - alpha) * e,
            });
        }
    }

    fn predict(&self) -> PhaseId {
        self.select().unwrap_or(PhaseId::CPU_BOUND)
    }

    fn reset(&mut self) {
        self.window.clear();
        self.ema = None;
    }

    fn name(&self) -> String {
        let sel = match self.selector {
            Selector::Majority => String::new(),
            Selector::Mean => "_mean".to_owned(),
            Selector::Ema { alpha } => format!("_ema{alpha}"),
        };
        format!("FixWindow_{}{sel}", self.window_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u8) -> PhaseSample {
        PhaseSample::new(0.01, PhaseId::new(id))
    }

    #[test]
    fn majority_vote_wins() {
        let mut p = FixedWindow::new(5, Selector::Majority);
        for id in [2, 2, 2, 5, 5] {
            p.observe(s(id));
        }
        assert_eq!(p.predict().get(), 2);
    }

    #[test]
    fn majority_tie_breaks_recent() {
        let mut p = FixedWindow::new(4, Selector::Majority);
        for id in [2, 2, 5, 5] {
            p.observe(s(id));
        }
        assert_eq!(p.predict().get(), 5, "tie goes to most recent phase");
    }

    #[test]
    fn window_slides() {
        let mut p = FixedWindow::new(2, Selector::Majority);
        for id in [1, 1, 6, 6] {
            p.observe(s(id));
        }
        assert_eq!(p.predict().get(), 6, "old 1s slid out of the window");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn mean_rounds() {
        let mut p = FixedWindow::new(4, Selector::Mean);
        for id in [1, 1, 6, 6] {
            p.observe(s(id));
        }
        // mean 3.5 rounds to 4
        assert_eq!(p.predict().get(), 4);
    }

    #[test]
    fn ema_follows_recent() {
        let mut p = FixedWindow::new(128, Selector::Ema { alpha: 0.9 });
        for _ in 0..20 {
            p.observe(s(1));
        }
        for _ in 0..3 {
            p.observe(s(6));
        }
        assert_eq!(p.predict().get(), 6, "alpha 0.9 converges fast");
    }

    #[test]
    fn empty_predicts_cpu_bound() {
        assert_eq!(
            FixedWindow::new(8, Selector::Majority).predict(),
            PhaseId::CPU_BOUND
        );
    }

    #[test]
    fn reset_clears() {
        let mut p = FixedWindow::new(8, Selector::Ema { alpha: 0.5 });
        p.observe(s(6));
        p.reset();
        assert!(p.is_empty());
        assert_eq!(p.predict(), PhaseId::CPU_BOUND);
    }

    #[test]
    fn names() {
        assert_eq!(
            FixedWindow::new(8, Selector::Majority).name(),
            "FixWindow_8"
        );
        assert_eq!(
            FixedWindow::new(128, Selector::Mean).name(),
            "FixWindow_128_mean"
        );
    }

    #[test]
    #[should_panic(expected = "window size must be at least 1")]
    fn zero_window_rejected() {
        let _ = FixedWindow::new(0, Selector::Majority);
    }

    #[test]
    #[should_panic(expected = "EMA alpha")]
    fn bad_alpha_rejected() {
        let _ = FixedWindow::new(8, Selector::Ema { alpha: 1.5 });
    }

    #[test]
    fn window_of_one_equals_last_value() {
        let mut p = FixedWindow::new(1, Selector::Majority);
        for id in [3, 1, 6, 2] {
            p.observe(s(id));
            assert_eq!(p.predict().get(), id);
        }
    }
}
