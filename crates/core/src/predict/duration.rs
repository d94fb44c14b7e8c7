//! Phase *duration* prediction: run-length views of a phase stream.
//!
//! The authors' companion work (Isci, Martonosi & Buyuktosunoglu, *IEEE
//! Micro* 2005 — reference \[14\] of the paper) extends phase prediction
//! from "what phase comes next?" to "how long will it last?", which lets
//! a manager skip re-evaluation while a long phase persists. This module
//! provides that extension on top of the same sample stream:
//!
//! * [`RunLengthEncoder`] — incrementally turns the per-interval phase
//!   stream into `(phase, duration)` runs;
//! * [`DurationPredictor`] — predicts the duration of the run that just
//!   started, from a per-phase history of previous run lengths (last
//!   value or a windowed average, the two schemes the companion work
//!   found most practical).

use crate::phase::PhaseId;
use livephase_collections::{HashMap, VecDeque};

/// A completed run: a phase and the number of consecutive sampling
/// intervals it persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhaseRun {
    /// The phase of the run.
    pub phase: PhaseId,
    /// Consecutive sampling intervals spent in the phase (≥ 1).
    pub length: u64,
}

/// Incremental run-length encoder over a phase stream.
///
/// ```
/// use livephase_core::{PhaseId, predict::duration::RunLengthEncoder};
/// let mut enc = RunLengthEncoder::new();
/// let mut runs = Vec::new();
/// for p in [1u8, 1, 1, 5, 5, 1] {
///     if let Some(run) = enc.observe(PhaseId::new(p)) {
///         runs.push((run.phase.get(), run.length));
///     }
/// }
/// if let Some(run) = enc.finish() {
///     runs.push((run.phase.get(), run.length));
/// }
/// assert_eq!(runs, vec![(1, 3), (5, 2), (1, 1)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunLengthEncoder {
    current: Option<PhaseRun>,
}

impl RunLengthEncoder {
    /// Creates an empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one interval's phase; returns the run that *ended*, if any.
    pub fn observe(&mut self, phase: PhaseId) -> Option<PhaseRun> {
        match &mut self.current {
            Some(run) if run.phase == phase => {
                run.length += 1;
                None
            }
            other => {
                let finished = other.take();
                *other = Some(PhaseRun { phase, length: 1 });
                finished
            }
        }
    }

    /// The run currently in progress, if any.
    #[must_use]
    pub fn in_progress(&self) -> Option<PhaseRun> {
        self.current
    }

    /// Terminates the stream, returning the final run.
    pub fn finish(&mut self) -> Option<PhaseRun> {
        self.current.take()
    }
}

/// The duration-estimation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurationScheme {
    /// Predict the last completed duration of the same phase.
    LastDuration,
    /// Predict the mean of up to `window` previous durations of the phase.
    WindowedMean {
        /// History window per phase (≥ 1).
        window: usize,
    },
}

/// Predicts how long a newly entered phase will persist.
///
/// ```
/// use livephase_core::{PhaseId, predict::duration::{DurationPredictor, DurationScheme}};
/// let mut p = DurationPredictor::new(DurationScheme::LastDuration);
/// // Phase 3 has historically run for 4 intervals.
/// for ph in [3u8, 3, 3, 3, 1, 3, 3, 3, 3, 1] {
///     p.observe(PhaseId::new(ph));
/// }
/// assert_eq!(p.predict_duration(PhaseId::new(3)), Some(4));
/// assert_eq!(p.predict_duration(PhaseId::new(6)), None); // never seen
/// ```
#[derive(Debug, Clone)]
pub struct DurationPredictor {
    scheme: DurationScheme,
    encoder: RunLengthEncoder,
    history: HashMap<PhaseId, VecDeque<u64>>,
}

impl DurationPredictor {
    /// Creates a predictor with the given scheme.
    ///
    /// # Panics
    ///
    /// Panics if a windowed scheme has a zero window.
    #[must_use]
    pub fn new(scheme: DurationScheme) -> Self {
        if let DurationScheme::WindowedMean { window } = scheme {
            assert!(window >= 1, "duration window must be at least 1");
        }
        Self {
            scheme,
            encoder: RunLengthEncoder::new(),
            history: HashMap::new(),
        }
    }

    /// Feeds one interval's observed phase.
    pub fn observe(&mut self, phase: PhaseId) {
        if let Some(run) = self.encoder.observe(phase) {
            let window = match self.scheme {
                DurationScheme::LastDuration => 1,
                DurationScheme::WindowedMean { window } => window,
            };
            let h = self.history.entry(run.phase).or_default();
            if h.len() == window {
                h.pop_front();
            }
            h.push_back(run.length);
        }
    }

    /// Predicted duration (in sampling intervals) of a run of `phase`, or
    /// `None` when the phase has never completed a run.
    #[must_use]
    pub fn predict_duration(&self, phase: PhaseId) -> Option<u64> {
        let h = self.history.get(&phase)?;
        match self.scheme {
            DurationScheme::LastDuration => h.back().copied(),
            DurationScheme::WindowedMean { .. } => {
                let sum: u64 = h.iter().sum();
                #[expect(
                    clippy::cast_precision_loss,
                    reason = "a run length sum stays far below 2^52"
                )]
                Some((sum as f64 / h.len() as f64).round() as u64)
            }
        }
    }

    /// Remaining intervals the current run is predicted to last (saturated
    /// at zero once it outlives its prediction).
    #[must_use]
    pub fn predicted_remaining(&self) -> Option<u64> {
        let run = self.encoder.in_progress()?;
        let predicted = self.predict_duration(run.phase)?;
        Some(predicted.saturating_sub(run.length))
    }

    /// Clears all history.
    pub fn reset(&mut self) {
        self.encoder = RunLengthEncoder::new();
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(id: u8) -> PhaseId {
        PhaseId::new(id)
    }

    #[test]
    fn encoder_handles_alternation() {
        let mut enc = RunLengthEncoder::new();
        assert_eq!(enc.observe(p(1)), None);
        assert_eq!(
            enc.observe(p(2)),
            Some(PhaseRun {
                phase: p(1),
                length: 1
            })
        );
        assert_eq!(enc.observe(p(2)), None);
        assert_eq!(
            enc.in_progress(),
            Some(PhaseRun {
                phase: p(2),
                length: 2
            })
        );
        assert_eq!(
            enc.finish(),
            Some(PhaseRun {
                phase: p(2),
                length: 2
            })
        );
        assert_eq!(enc.finish(), None);
    }

    #[test]
    fn last_duration_tracks_most_recent() {
        let mut d = DurationPredictor::new(DurationScheme::LastDuration);
        for ph in [3u8, 3, 1, 3, 3, 3, 1] {
            d.observe(p(ph));
        }
        // Runs of phase 3: lengths 2 then 3.
        assert_eq!(d.predict_duration(p(3)), Some(3));
        assert_eq!(d.predict_duration(p(1)), Some(1));
    }

    #[test]
    fn windowed_mean_averages() {
        let mut d = DurationPredictor::new(DurationScheme::WindowedMean { window: 4 });
        // Phase 2 runs of lengths 2, 4, 6 -> mean 4.
        for ph in [2u8, 2, 1, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1] {
            d.observe(p(ph));
        }
        assert_eq!(d.predict_duration(p(2)), Some(4));
    }

    #[test]
    fn windowed_mean_evicts_old_runs() {
        let mut d = DurationPredictor::new(DurationScheme::WindowedMean { window: 1 });
        for ph in [2u8, 2, 2, 2, 1, 2, 2, 1] {
            d.observe(p(ph));
        }
        // Window 1: only the latest run (length 2) counts.
        assert_eq!(d.predict_duration(p(2)), Some(2));
    }

    #[test]
    fn remaining_saturates() {
        let mut d = DurationPredictor::new(DurationScheme::LastDuration);
        for ph in [5u8, 5, 1, 5, 5, 5] {
            d.observe(p(ph));
        }
        // Phase-5 history: one completed run of 2; current run age 3.
        assert_eq!(d.predicted_remaining(), Some(0), "outlived its prediction");
    }

    #[test]
    fn unseen_phase_predicts_none() {
        let d = DurationPredictor::new(DurationScheme::LastDuration);
        assert_eq!(d.predict_duration(p(4)), None);
        assert_eq!(d.predicted_remaining(), None);
    }

    #[test]
    fn reset_clears_everything() {
        let mut d = DurationPredictor::new(DurationScheme::LastDuration);
        for ph in [2u8, 2, 3] {
            d.observe(p(ph));
        }
        d.reset();
        assert_eq!(d.predict_duration(p(2)), None);
    }

    #[test]
    #[should_panic(expected = "duration window")]
    fn zero_window_rejected() {
        let _ = DurationPredictor::new(DurationScheme::WindowedMean { window: 0 });
    }
}
