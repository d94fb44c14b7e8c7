//! The variable history window predictor.
//!
//! Like [`FixedWindow`](super::fixed_window::FixedWindow), but "the history
//! can be shrunk in case of a phase transition, where previous history
//! becomes obsolete for the following phase predictions" (Section 3). A
//! transition is detected when the observed Mem/Uop rate moves by more than
//! a configurable threshold between consecutive samples — the paper uses
//! thresholds of **0.005** and **0.030** with a 128-entry window.
//!
//! The history is the same incremental majority vote `FixedWindow` keeps
//! (`predict::majority`): per-phase counts and latest-occurrence stamps,
//! a bitset of the phases present and the cached winner, about 1 KiB.
//! Predicting is O(1) and observing O(1) amortised; a transition flush
//! clears only the phases present, never the whole table.

use super::majority::MajorityWindow;
use super::{PhaseSample, Predictor};
use crate::phase::PhaseId;

/// A windowed majority predictor whose history is flushed whenever the
/// Mem/Uop rate jumps by more than `transition_threshold`.
///
/// ```
/// use livephase_core::{VariableWindow, PhaseSample, PhaseId, Predictor};
/// let mut p = VariableWindow::new(128, 0.005);
/// for _ in 0..10 { p.observe(PhaseSample::new(0.001, PhaseId::new(1))); }
/// // A large jump flushes the stale history; the new phase wins instantly.
/// p.observe(PhaseSample::new(0.04, PhaseId::new(6)));
/// assert_eq!(p.predict().get(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct VariableWindow {
    transition_threshold: f64,
    window: MajorityWindow,
    last_rate: Option<f64>,
}

impl VariableWindow {
    /// Creates a predictor with at most `max_window` retained phases and the
    /// given Mem/Uop transition threshold.
    ///
    /// # Panics
    ///
    /// Panics if `max_window` is zero or above
    /// [`MAX_WINDOW`](super::spec::MAX_WINDOW), or if the threshold is
    /// negative or non-finite.
    #[must_use]
    pub fn new(max_window: usize, transition_threshold: f64) -> Self {
        let window = MajorityWindow::new(max_window);
        assert!(
            transition_threshold.is_finite() && transition_threshold >= 0.0,
            "transition threshold must be finite and non-negative, got {transition_threshold}"
        );
        Self {
            transition_threshold,
            window,
            last_rate: None,
        }
    }

    /// The maximum number of retained phases.
    #[must_use]
    pub fn max_window(&self) -> usize {
        self.window.capacity()
    }

    /// The Mem/Uop jump that invalidates accumulated history.
    #[must_use]
    pub fn transition_threshold(&self) -> f64 {
        self.transition_threshold
    }

    /// Number of phases currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no history is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }
}

impl Predictor for VariableWindow {
    fn observe(&mut self, sample: PhaseSample) {
        let rate = sample.rate.get();
        if let Some(last) = self.last_rate {
            if (rate - last).abs() > self.transition_threshold {
                // Phase transition: everything before it is obsolete.
                self.window.clear();
            }
        }
        self.window.push(sample.phase);
        self.last_rate = Some(rate);
    }

    fn predict(&self) -> PhaseId {
        // Majority vote over the (possibly shrunk) history; ties break
        // toward the most recent phase, as in FixedWindow.
        self.window.leader().unwrap_or(PhaseId::CPU_BOUND)
    }

    fn reset(&mut self) {
        self.window.clear();
        self.last_rate = None;
    }

    fn name(&self) -> String {
        format!(
            "VarWindow_{}_{}",
            self.max_window(),
            self.transition_threshold
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flushes_on_transition() {
        let mut p = VariableWindow::new(128, 0.005);
        for _ in 0..50 {
            p.observe(PhaseSample::new(0.001, PhaseId::new(1)));
        }
        assert_eq!(p.len(), 50);
        p.observe(PhaseSample::new(0.031, PhaseId::new(6)));
        assert_eq!(p.len(), 1, "jump of 0.03 > 0.005 flushed history");
        assert_eq!(p.predict().get(), 6);
    }

    #[test]
    fn small_moves_keep_history() {
        let mut p = VariableWindow::new(128, 0.030);
        for _ in 0..50 {
            p.observe(PhaseSample::new(0.001, PhaseId::new(1)));
        }
        // A 0.011 jump is below the 0.030 threshold: history persists and
        // the stale majority still wins.
        p.observe(PhaseSample::new(0.012, PhaseId::new(3)));
        assert_eq!(p.len(), 51);
        assert_eq!(p.predict().get(), 1);
    }

    #[test]
    fn caps_at_max_window() {
        let mut p = VariableWindow::new(4, 1.0);
        for i in 0..10 {
            p.observe(PhaseSample::new(0.001, PhaseId::new(1 + (i % 2))));
        }
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn empty_predicts_cpu_bound() {
        assert_eq!(VariableWindow::new(8, 0.005).predict(), PhaseId::CPU_BOUND);
    }

    #[test]
    fn reset_clears_rate_tracking() {
        let mut p = VariableWindow::new(8, 0.005);
        p.observe(PhaseSample::new(0.04, PhaseId::new(6)));
        p.reset();
        assert!(p.is_empty());
        // After reset the next observation must not be treated as a
        // transition relative to pre-reset state.
        p.observe(PhaseSample::new(0.001, PhaseId::new(1)));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn name_encodes_parameters() {
        assert_eq!(
            VariableWindow::new(128, 0.005).name(),
            "VarWindow_128_0.005"
        );
    }

    #[test]
    #[should_panic(expected = "window size")]
    fn zero_window_rejected() {
        let _ = VariableWindow::new(0, 0.005);
    }

    #[test]
    #[should_panic(expected = "transition threshold")]
    fn negative_threshold_rejected() {
        let _ = VariableWindow::new(8, -0.1);
    }
}
