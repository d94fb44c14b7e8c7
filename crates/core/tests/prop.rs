//! Property-based tests for the phase classification and predictors.

use livephase_core::{
    evaluate, FixedWindow, Gpht, GphtConfig, LastValue, PhaseId, PhaseMap, PhaseSample, Predictor,
    Selector, VariableWindow,
};
use proptest::prelude::*;

/// Strictly increasing positive boundary lists.
fn arb_boundaries() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1e-4..0.2f64, 1..12).prop_map(|mut v| {
        v.sort_by(f64::total_cmp);
        v.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        v
    })
}

fn arb_stream(max_phase: u8) -> impl Strategy<Value = Vec<PhaseSample>> {
    proptest::collection::vec((1..=max_phase, 0.0..0.2f64), 1..200).prop_map(|v| {
        v.into_iter()
            .map(|(p, r)| PhaseSample::new(r, PhaseId::new(p)))
            .collect()
    })
}

proptest! {
    /// Any valid boundary list yields a total, ordered partition of the
    /// non-negative axis: classification is monotone and every phase's
    /// interval reclassifies to itself.
    #[test]
    fn phase_map_partition_properties(bounds in arb_boundaries(), probe in 0.0..0.25f64) {
        let map = PhaseMap::new(bounds.clone()).expect("sorted positive boundaries");
        prop_assert_eq!(map.phase_count(), bounds.len() + 1);
        let phase = map.classify(probe);
        let (lo, hi) = map.interval(phase);
        prop_assert!(probe >= lo && probe < hi);
        // Representative rates reclassify into their own phase.
        for p in map.phases() {
            prop_assert_eq!(map.classify(map.representative_rate(p)), p);
        }
    }

    /// Classification commutes with ordering for any map.
    #[test]
    fn classification_is_monotone(bounds in arb_boundaries(), a in 0.0..0.25f64, b in 0.0..0.25f64) {
        let map = PhaseMap::new(bounds).expect("valid");
        if a <= b {
            prop_assert!(map.classify(a) <= map.classify(b));
        } else {
            prop_assert!(map.classify(b) <= map.classify(a));
        }
    }

    /// A window-1 majority fixed-window predictor is exactly last value.
    #[test]
    fn window_one_is_last_value(stream in arb_stream(6)) {
        let mut fw = FixedWindow::new(1, Selector::Majority);
        let mut lv = LastValue::new();
        for &s in &stream {
            prop_assert_eq!(fw.next(s), lv.next(s));
        }
    }

    /// A variable window with an infinite threshold never flushes and is
    /// equivalent to the fixed window of the same size.
    #[test]
    fn variable_window_without_transitions_is_fixed(stream in arb_stream(6)) {
        let mut vw = VariableWindow::new(16, f64::MAX);
        let mut fw = FixedWindow::new(16, Selector::Majority);
        for &s in &stream {
            prop_assert_eq!(vw.next(s), fw.next(s));
        }
    }

    /// A variable window with threshold 0 flushes on every rate change,
    /// making it last-value whenever the rate actually moved.
    #[test]
    fn variable_window_zero_threshold_tracks_last(stream in arb_stream(6)) {
        let mut vw = VariableWindow::new(64, 0.0);
        let mut prev_rate: Option<f64> = None;
        for &s in &stream {
            let got = vw.next(s);
            if prev_rate.is_some_and(|r| (r - s.rate.get()).abs() > 0.0) {
                prop_assert_eq!(got, s.phase, "flush leaves only the new sample");
            }
            prev_rate = Some(s.rate.get());
        }
    }

    /// The GPHT never stores more patterns than its capacity, and its
    /// hit/miss counters account for every post-warm-up observation.
    #[test]
    fn gpht_capacity_and_accounting(
        stream in arb_stream(6),
        depth in 1usize..=32,
        entries in 1usize..=1024,
    ) {
        let mut g = Gpht::new(GphtConfig { gphr_depth: depth, pht_entries: entries });
        for &s in &stream {
            g.observe(s);
            prop_assert!(g.valid_entries() <= entries);
        }
        let post_warmup = stream.len().saturating_sub(depth - 1) as u64;
        prop_assert_eq!(g.hits() + g.misses(), post_warmup);
    }

    /// Evaluation scoring is exact: accuracy * total == correct, and the
    /// trace variant agrees with the streaming variant.
    #[test]
    fn evaluation_identities(stream in arb_stream(4)) {
        let stats = evaluate(&mut LastValue::new(), stream.iter().copied());
        prop_assert_eq!(stats.total as usize, stream.len().saturating_sub(1));
        prop_assert!(stats.correct <= stats.total);
        prop_assert!((stats.accuracy() + stats.misprediction_rate() - 1.0).abs() < 1e-12);
        let trace = livephase_core::evaluate_trace(&mut LastValue::new(), stream.iter().copied());
        prop_assert_eq!(trace.stats, stats);
        prop_assert_eq!(trace.predicted.len(), stream.len());
    }

    /// The hashed GPHT obeys the same worst-case bound as the associative
    /// one: every error is a transition or a (conflict-induced) stale
    /// slot, and staleness requires a prior transition or eviction.
    #[test]
    fn hashed_gpht_is_never_catastrophic(
        seq in proptest::collection::vec(1u8..=6, 50..250),
        entries in 1usize..256,
    ) {
        use livephase_core::{HashedGpht, HashedGphtConfig};
        let stream: Vec<PhaseSample> = seq
            .iter()
            .map(|&p| PhaseSample::new(f64::from(p) * 0.005, PhaseId::new(p)))
            .collect();
        let h = evaluate(
            &mut HashedGpht::new(HashedGphtConfig { gphr_depth: 8, pht_entries: entries }),
            stream.iter().copied(),
        );
        let l = evaluate(&mut LastValue::new(), stream.iter().copied());
        prop_assert!(
            h.mispredictions() <= 2 * l.mispredictions() + 8,
            "hashed missed {} vs LastValue {} of {}",
            h.mispredictions(), l.mispredictions(), h.total
        );
    }

    /// The Markov predictor is exactly right whenever the stream's
    /// transition function is deterministic (each phase has one successor).
    #[test]
    fn markov_is_perfect_on_deterministic_chains(
        perm in proptest::sample::subsequence(vec![1u8, 2, 3, 4, 5, 6], 2..=6),
        reps in 20usize..80,
    ) {
        use livephase_core::MarkovPredictor;
        // A cycle over distinct phases: successor function is a bijection.
        let seq: Vec<u8> = perm.iter().copied().cycle().take(perm.len() * reps).collect();
        let stream: Vec<PhaseSample> = seq
            .iter()
            .map(|&p| PhaseSample::new(f64::from(p) * 0.004, PhaseId::new(p)))
            .collect();
        let stats = evaluate(&mut MarkovPredictor::new(), stream);
        // One full cycle of warm-up; everything after is exact.
        let warmup = perm.len() as u64 + 1;
        prop_assert!(
            stats.mispredictions() <= warmup,
            "{} misses on a deterministic chain of period {}",
            stats.mispredictions(),
            perm.len()
        );
    }

    /// The confidence gate never does much worse than the better of its
    /// two constituents (inner predictor, last value) on any stream: its
    /// errors are bounded by whichever constituent it is currently
    /// emitting plus the switching lag.
    #[test]
    fn confidence_gate_is_bounded_by_constituents(
        seq in proptest::collection::vec(1u8..=6, 30..200),
    ) {
        use livephase_core::ConfidentPredictor;
        let stream: Vec<PhaseSample> = seq
            .iter()
            .map(|&p| PhaseSample::new(f64::from(p) * 0.004, PhaseId::new(p)))
            .collect();
        let gated = evaluate(
            &mut ConfidentPredictor::new(Gpht::new(GphtConfig::DEPLOYED), 2, 2),
            stream.iter().copied(),
        );
        let inner = evaluate(
            &mut Gpht::new(GphtConfig::DEPLOYED),
            stream.iter().copied(),
        );
        let lv = evaluate(&mut LastValue::new(), stream.iter().copied());
        let best = inner.correct.max(lv.correct);
        // The gate may lag each regime change by up to the counter range.
        prop_assert!(
            gated.correct as f64 >= best as f64 * 0.7 - 4.0,
            "gated {} vs best constituent {}",
            gated.correct,
            best
        );
    }

    /// Duration prediction: the run-length encoder's output always
    /// reconstructs the input stream exactly.
    #[test]
    fn run_length_encoding_reconstructs(seq in proptest::collection::vec(1u8..=6, 1..200)) {
        use livephase_core::RunLengthEncoder;
        let mut enc = RunLengthEncoder::new();
        let mut runs = Vec::new();
        for &p in &seq {
            if let Some(r) = enc.observe(PhaseId::new(p)) {
                runs.push(r);
            }
        }
        if let Some(r) = enc.finish() {
            runs.push(r);
        }
        let rebuilt: Vec<u8> = runs
            .iter()
            .flat_map(|r| std::iter::repeat_n(r.phase.get(), usize::try_from(r.length).unwrap()))
            .collect();
        prop_assert_eq!(rebuilt, seq);
        // No two consecutive runs share a phase (maximality).
        for w in runs.windows(2) {
            prop_assert_ne!(w[0].phase, w[1].phase);
        }
    }

    /// Deeper history never changes the constant-stream behaviour: any
    /// GPHT predicts a constant stream perfectly after warm-up.
    #[test]
    fn constant_streams_are_perfect(
        phase in 1u8..=6,
        len in 20usize..100,
        depth in 1usize..8,
    ) {
        let stream: Vec<PhaseSample> =
            std::iter::repeat_n(PhaseSample::new(0.01, PhaseId::new(phase)), len).collect();
        let stats = evaluate(
            &mut Gpht::new(GphtConfig { gphr_depth: depth, pht_entries: 8 }),
            stream,
        );
        prop_assert_eq!(stats.correct, stats.total);
    }
}
