//! Runtime phase predictors.
//!
//! All predictors consume a stream of per-interval [`PhaseSample`]s (the
//! observed Mem/Uop rate and its classified phase) and emit, after each
//! observation, a prediction for the **next** interval's phase.
//!
//! The paper evaluates four families (Section 3):
//!
//! * [`last_value::LastValue`] — `Phase[t+1] = Phase[t]`;
//! * [`fixed_window::FixedWindow`] — a function of the last *N* phases;
//! * [`variable_window::VariableWindow`] — like fixed window, but history is
//!   discarded on a phase transition (obsolete history hurts);
//! * [`gpht::Gpht`] — the proposed Global Phase History Table, a software
//!   analogue of two-level global branch predictors (Yeh & Patt).

pub mod confidence;
pub mod duration;
pub mod fixed_window;
mod gphr;
pub mod gpht;
pub mod hashed_gpht;
pub mod last_value;
mod majority;
pub mod markov;
pub mod spec;
pub mod variable_window;

use crate::metrics::MemUopRate;
use crate::phase::PhaseId;

/// One observed sampling interval, as presented to a predictor.
///
/// Carries both the classified [`PhaseId`] and the underlying
/// [`MemUopRate`]: phase-granular predictors ignore the rate, while the
/// variable-window predictor uses it to detect transitions against a raw
/// Mem/Uop threshold (the paper's 0.005 / 0.030 parameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSample {
    /// The observed Mem/Uop rate of the elapsed interval.
    pub rate: MemUopRate,
    /// The phase the elapsed interval was classified into.
    pub phase: PhaseId,
}

impl PhaseSample {
    /// Builds a sample from a raw rate and its phase.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or non-finite.
    #[must_use]
    pub fn new(rate: f64, phase: PhaseId) -> Self {
        Self {
            rate: MemUopRate::new(rate),
            phase,
        }
    }
}

/// A live phase predictor.
///
/// The protocol mirrors the paper's PMI handler (Figure 8): at each
/// sampling interrupt the handler *observes* the actual phase of the
/// interval that just finished, updates predictor state, and asks for the
/// phase of the interval about to start.
///
/// Implementations must be deterministic and cheap — the paper runs them
/// inside an interrupt handler.
pub trait Predictor {
    /// Feeds the observed sample for the elapsed interval into the
    /// predictor, updating internal state.
    fn observe(&mut self, sample: PhaseSample);

    /// The current prediction for the next interval's phase.
    ///
    /// Before any observation this returns the most CPU-bound phase
    /// ([`PhaseId::CPU_BOUND`]) — the conservative power-management choice
    /// (run fast until evidence says otherwise).
    fn predict(&self) -> PhaseId;

    /// Convenience: observe, then predict. This is the call made once per
    /// PMI in a live deployment.
    fn next(&mut self, sample: PhaseSample) -> PhaseId {
        self.observe(sample);
        self.predict()
    }

    /// Clears all history, returning the predictor to its initial state.
    fn reset(&mut self);

    /// A short human-readable name used in reports, e.g. `GPHT_8_128`.
    fn name(&self) -> String;
}

impl<P: Predictor + ?Sized> Predictor for Box<P> {
    fn observe(&mut self, sample: PhaseSample) {
        (**self).observe(sample);
    }
    fn predict(&self) -> PhaseId {
        (**self).predict()
    }
    fn reset(&mut self) {
        (**self).reset();
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::last_value::LastValue;
    use super::*;

    #[test]
    fn sample_construction() {
        let s = PhaseSample::new(0.012, PhaseId::new(3));
        assert_eq!(s.phase.get(), 3);
        assert!((s.rate.get() - 0.012).abs() < 1e-12);
    }

    #[test]
    fn boxed_predictor_dispatches() {
        let mut p: Box<dyn Predictor> = Box::new(LastValue::new());
        assert_eq!(p.predict(), PhaseId::CPU_BOUND);
        let got = p.next(PhaseSample::new(0.04, PhaseId::new(6)));
        assert_eq!(got.get(), 6);
        assert_eq!(p.name(), "LastValue");
        p.reset();
        assert_eq!(p.predict(), PhaseId::CPU_BOUND);
    }
}
