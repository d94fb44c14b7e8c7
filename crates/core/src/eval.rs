//! Streaming evaluation of phase predictors.
//!
//! Reproduces the accuracy methodology of Section 3.2: at each sampling
//! interval the prediction made at the *previous* interval is scored
//! against the phase actually observed now. The very first interval has no
//! prior prediction and is not scored.

use crate::phase::PhaseId;
use crate::predict::{PhaseSample, Predictor};
use std::fmt;

/// Scale of confidence values reported in basis points: 10 000 means
/// every scored prediction so far was correct.
///
/// This is the canonical definition; the serve wire protocol re-exports
/// it so `Decision::confidence` on the wire and
/// [`PredictionStats::confidence_bp`] share one scale.
pub const CONFIDENCE_SCALE: u16 = 10_000;

/// Aggregate accuracy of one predictor over one phase stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredictionStats {
    /// Number of scored intervals (stream length minus one).
    pub total: u64,
    /// Predictions that matched the subsequently observed phase.
    pub correct: u64,
}

impl PredictionStats {
    /// Fraction of scored intervals predicted correctly, in `[0, 1]`.
    ///
    /// Returns `1.0` for an empty evaluation (nothing was mispredicted).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Fraction of scored intervals mispredicted, in `[0, 1]`.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        1.0 - self.accuracy()
    }

    /// Number of mispredicted intervals.
    #[must_use]
    pub fn mispredictions(&self) -> u64 {
        self.total - self.correct
    }

    /// Accuracy in basis points of [`CONFIDENCE_SCALE`]
    /// (`CONFIDENCE_SCALE` for an empty evaluation, mirroring
    /// [`accuracy`](Self::accuracy)).
    #[must_use]
    pub fn confidence_bp(&self) -> u16 {
        if self.total == 0 {
            return CONFIDENCE_SCALE;
        }
        let bp = self.correct * u64::from(CONFIDENCE_SCALE) / self.total;
        // correct <= total, so bp <= CONFIDENCE_SCALE and always fits.
        u16::try_from(bp).unwrap_or(CONFIDENCE_SCALE)
    }

    fn score(&mut self, predicted: PhaseId, observed: PhaseId) -> bool {
        self.total += 1;
        let correct = predicted == observed;
        if correct {
            self.correct += 1;
        }
        correct
    }
}

/// The one streaming scoring loop of Section 3.2, shared by every
/// consumer of prediction accuracy: at each interval the prediction
/// *standing* when the sample arrives is scored against the phase
/// actually observed; the first interval has no standing prediction and
/// is not scored.
///
/// [`evaluate`], the governor's run accounting and the decision engine's
/// per-pid confidence all drive this same state machine, so their
/// accuracy numbers are one implementation, not three.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamScorer {
    pending: Option<PhaseId>,
    stats: PredictionStats,
}

impl StreamScorer {
    /// Creates a scorer with no prediction standing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Scores the standing prediction (if any) against `observed`,
    /// consuming it. Returns the prediction and whether it was correct,
    /// or `None` if nothing was standing (the stream's first interval).
    pub fn score(&mut self, observed: PhaseId) -> Option<(PhaseId, bool)> {
        let predicted = self.pending.take()?;
        let correct = self.stats.score(predicted, observed);
        Some((predicted, correct))
    }

    /// Stands a prediction for the next interval.
    pub fn predict(&mut self, predicted: PhaseId) {
        self.pending = Some(predicted);
    }

    /// The prediction currently standing, if any.
    #[must_use]
    pub fn pending(&self) -> Option<PhaseId> {
        self.pending
    }

    /// Aggregate statistics over everything scored so far.
    #[must_use]
    pub fn stats(&self) -> PredictionStats {
        self.stats
    }

    /// Running accuracy in basis points of [`CONFIDENCE_SCALE`].
    #[must_use]
    pub fn confidence_bp(&self) -> u16 {
        self.stats.confidence_bp()
    }
}

impl fmt::Display for PredictionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} correct ({:.1}%)",
            self.correct,
            self.total,
            self.accuracy() * 100.0
        )
    }
}

/// Full per-interval record of an evaluation, for trace-style figures
/// (Figure 2 plots actual vs predicted phase series for `applu`).
#[derive(Debug, Clone, Default)]
pub struct EvaluationTrace {
    /// The observed sample at each interval.
    pub observed: Vec<PhaseSample>,
    /// The prediction that had been made *for* each interval (index 0 is
    /// the predictor's initial prediction).
    pub predicted: Vec<crate::phase::PhaseId>,
    /// Aggregate statistics.
    pub stats: PredictionStats,
}

/// Evaluates `predictor` over a sample stream, returning aggregate stats.
///
/// The predictor is driven exactly as the live PMI handler would: each
/// sample is observed, the resulting prediction is scored against the
/// *next* sample's phase.
///
/// ```
/// use livephase_core::{evaluate, LastValue, PhaseSample, PhaseId};
/// let stream = [1u8, 1, 2, 2].iter()
///     .map(|&p| PhaseSample::new(0.001 * f64::from(p), PhaseId::new(p)));
/// let stats = evaluate(&mut LastValue::new(), stream);
/// assert_eq!(stats.total, 3);
/// assert_eq!(stats.correct, 2); // mispredicts only the 1 -> 2 transition
/// ```
pub fn evaluate<P, I>(predictor: &mut P, samples: I) -> PredictionStats
where
    P: Predictor + ?Sized,
    I: IntoIterator<Item = PhaseSample>,
{
    let mut scorer = StreamScorer::new();
    for sample in samples {
        scorer.score(sample.phase);
        scorer.predict(predictor.next(sample));
    }
    scorer.stats()
}

/// A per-phase breakdown of prediction outcomes: rows are the phase that
/// actually occurred, columns the phase that had been predicted for it.
///
/// Aggregate accuracy hides *where* a predictor fails; for management the
/// direction matters — predicting too CPU-bound wastes energy, predicting
/// too memory-bound costs performance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// `counts[(actual, predicted)]` over scored intervals.
    counts: livephase_collections::BTreeMap<(u8, u8), u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one scored interval.
    pub fn record(&mut self, actual: crate::phase::PhaseId, predicted: crate::phase::PhaseId) {
        *self
            .counts
            .entry((actual.get(), predicted.get()))
            .or_insert(0) += 1;
    }

    /// Count for an (actual, predicted) cell.
    #[must_use]
    pub fn get(&self, actual: u8, predicted: u8) -> u64 {
        self.counts.get(&(actual, predicted)).copied().unwrap_or(0)
    }

    /// Intervals whose actual phase was `phase`.
    #[must_use]
    pub fn actual_total(&self, phase: u8) -> u64 {
        self.counts
            .iter()
            .filter(|&(&(a, _), _)| a == phase)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Recall for one actual phase (1.0 when the phase never occurred).
    #[must_use]
    pub fn recall(&self, phase: u8) -> f64 {
        let total = self.actual_total(phase);
        if total == 0 {
            1.0
        } else {
            self.get(phase, phase) as f64 / total as f64
        }
    }

    /// Of the scored mispredictions, the fraction that guessed a *more
    /// CPU-bound* phase than actually occurred — the energy-wasting (but
    /// performance-safe) direction.
    #[must_use]
    pub fn underestimation_share(&self) -> f64 {
        let mut wrong = 0u64;
        let mut under = 0u64;
        for (&(a, p), &c) in &self.counts {
            if a != p {
                wrong += c;
                if p < a {
                    under += c;
                }
            }
        }
        if wrong == 0 {
            0.0
        } else {
            under as f64 / wrong as f64
        }
    }

    /// Total scored intervals.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The distinct phases appearing as actual or predicted, ascending.
    #[must_use]
    pub fn phases(&self) -> Vec<u8> {
        let mut v: Vec<u8> = self.counts.keys().flat_map(|&(a, p)| [a, p]).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Evaluates a predictor and builds the per-phase confusion matrix
/// alongside the aggregate statistics.
pub fn evaluate_confusion<P, I>(predictor: &mut P, samples: I) -> (PredictionStats, ConfusionMatrix)
where
    P: Predictor + ?Sized,
    I: IntoIterator<Item = PhaseSample>,
{
    let mut scorer = StreamScorer::new();
    let mut matrix = ConfusionMatrix::new();
    for sample in samples {
        if let Some((predicted, _)) = scorer.score(sample.phase) {
            matrix.record(sample.phase, predicted);
        }
        scorer.predict(predictor.next(sample));
    }
    (scorer.stats(), matrix)
}

/// Like [`evaluate`] but also records the full per-interval trace.
pub fn evaluate_trace<P, I>(predictor: &mut P, samples: I) -> EvaluationTrace
where
    P: Predictor + ?Sized,
    I: IntoIterator<Item = PhaseSample>,
{
    let mut trace = EvaluationTrace::default();
    let mut scorer = StreamScorer::new();
    for sample in samples {
        // Index 0 records the predictor's initial prediction even though
        // nothing is standing to score yet.
        let standing = scorer.pending().unwrap_or_else(|| predictor.predict());
        scorer.score(sample.phase);
        trace.predicted.push(standing);
        trace.observed.push(sample);
        scorer.predict(predictor.next(sample));
    }
    trace.stats = scorer.stats();
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseId;
    use crate::predict::gpht::{Gpht, GphtConfig};
    use crate::predict::last_value::LastValue;

    fn stream(ids: &[u8]) -> Vec<PhaseSample> {
        ids.iter()
            .map(|&p| PhaseSample::new(0.001 * f64::from(p), PhaseId::new(p)))
            .collect()
    }

    #[test]
    fn empty_stream() {
        let st = evaluate(&mut LastValue::new(), stream(&[]));
        assert_eq!(st.total, 0);
        assert_eq!(st.accuracy(), 1.0);
    }

    #[test]
    fn single_sample_scores_nothing() {
        let st = evaluate(&mut LastValue::new(), stream(&[4]));
        assert_eq!(st.total, 0);
    }

    #[test]
    fn last_value_scoring() {
        // 1 1 1 2 2: transitions at index 3 only -> 3/4 correct.
        let st = evaluate(&mut LastValue::new(), stream(&[1, 1, 1, 2, 2]));
        assert_eq!(st.total, 4);
        assert_eq!(st.correct, 3);
        assert_eq!(st.mispredictions(), 1);
        assert!((st.misprediction_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn trace_records_everything() {
        let tr = evaluate_trace(&mut LastValue::new(), stream(&[1, 2, 2]));
        assert_eq!(tr.observed.len(), 3);
        assert_eq!(tr.predicted.len(), 3);
        // Initial prediction is CPU-bound phase 1.
        assert_eq!(tr.predicted[0].get(), 1);
        // Prediction for interval 1 was made after seeing phase 1.
        assert_eq!(tr.predicted[1].get(), 1);
        assert_eq!(tr.predicted[2].get(), 2);
        assert_eq!(tr.stats.total, 2);
        assert_eq!(tr.stats.correct, 1);
    }

    #[test]
    fn trace_and_evaluate_agree() {
        let ids: Vec<u8> = [1u8, 3, 6, 3].iter().copied().cycle().take(200).collect();
        let st = evaluate(&mut Gpht::new(GphtConfig::DEPLOYED), stream(&ids));
        let tr = evaluate_trace(&mut Gpht::new(GphtConfig::DEPLOYED), stream(&ids));
        assert_eq!(st, tr.stats);
    }

    #[test]
    fn gpht_beats_last_value_on_periodic_stream() {
        let ids: Vec<u8> = [1u8, 3, 6, 3].iter().copied().cycle().take(400).collect();
        let g = evaluate(&mut Gpht::new(GphtConfig::REFERENCE), stream(&ids));
        let l = evaluate(&mut LastValue::new(), stream(&ids));
        assert!(g.accuracy() > 0.9);
        assert!(l.accuracy() < 0.3);
    }

    #[test]
    fn confusion_matrix_bookkeeping() {
        // actual: 1 1 2 2 1; last-value predictions: -, 1, 1, 2, 2.
        let (stats, m) = evaluate_confusion(&mut LastValue::new(), stream(&[1, 1, 2, 2, 1]));
        assert_eq!(stats.total, 4);
        assert_eq!(m.total(), 4);
        assert_eq!(m.get(1, 1), 1);
        assert_eq!(m.get(2, 1), 1, "2 arrived while 1 was predicted");
        assert_eq!(m.get(2, 2), 1);
        assert_eq!(m.get(1, 2), 1);
        assert_eq!(m.actual_total(2), 2);
        assert!((m.recall(2) - 0.5).abs() < 1e-12);
        assert_eq!(m.recall(6), 1.0, "never-seen phase has vacuous recall");
        // Of the 2 errors, 1 guessed a more CPU-bound phase than actual.
        assert!((m.underestimation_share() - 0.5).abs() < 1e-12);
        assert_eq!(m.phases(), vec![1, 2]);
    }

    #[test]
    fn confusion_agrees_with_evaluate() {
        let ids: Vec<u8> = [1u8, 3, 6, 3].iter().copied().cycle().take(100).collect();
        let st = evaluate(&mut Gpht::new(GphtConfig::DEPLOYED), stream(&ids));
        let (st2, m) = evaluate_confusion(&mut Gpht::new(GphtConfig::DEPLOYED), stream(&ids));
        assert_eq!(st, st2);
        let diag: u64 = m.phases().iter().map(|&p| m.get(p, p)).sum();
        assert_eq!(diag, st.correct);
    }

    #[test]
    fn scorer_matches_evaluate_step_for_step() {
        let ids: Vec<u8> = [1u8, 3, 6, 3, 2]
            .iter()
            .copied()
            .cycle()
            .take(150)
            .collect();
        let st = evaluate(&mut Gpht::new(GphtConfig::DEPLOYED), stream(&ids));
        let mut predictor = Gpht::new(GphtConfig::DEPLOYED);
        let mut scorer = StreamScorer::new();
        for sample in stream(&ids) {
            scorer.score(sample.phase);
            scorer.predict(predictor.next(sample));
        }
        assert_eq!(scorer.stats(), st);
        assert_eq!(scorer.confidence_bp(), st.confidence_bp());
    }

    #[test]
    fn scorer_first_interval_is_unscored() {
        let mut scorer = StreamScorer::new();
        assert_eq!(scorer.score(PhaseId::new(3)), None);
        scorer.predict(PhaseId::new(4));
        assert_eq!(scorer.pending(), Some(PhaseId::new(4)));
        assert_eq!(scorer.score(PhaseId::new(4)), Some((PhaseId::new(4), true)));
        assert_eq!(scorer.pending(), None, "scoring consumes the prediction");
        scorer.predict(PhaseId::new(1));
        assert_eq!(
            scorer.score(PhaseId::new(2)),
            Some((PhaseId::new(1), false))
        );
        assert_eq!(scorer.stats().total, 2);
        assert_eq!(scorer.stats().correct, 1);
        assert_eq!(scorer.confidence_bp(), CONFIDENCE_SCALE / 2);
    }

    #[test]
    fn confidence_bp_bounds() {
        assert_eq!(PredictionStats::default().confidence_bp(), CONFIDENCE_SCALE);
        let perfect = PredictionStats {
            total: 7,
            correct: 7,
        };
        assert_eq!(perfect.confidence_bp(), CONFIDENCE_SCALE);
        let none = PredictionStats {
            total: 7,
            correct: 0,
        };
        assert_eq!(none.confidence_bp(), 0);
        let third = PredictionStats {
            total: 3,
            correct: 1,
        };
        assert_eq!(third.confidence_bp(), 3_333);
    }

    #[test]
    fn display_is_informative() {
        let st = PredictionStats {
            total: 10,
            correct: 9,
        };
        assert_eq!(st.to_string(), "9/10 correct (90.0%)");
    }
}
