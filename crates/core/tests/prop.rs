//! Property-based tests for the phase classification and predictors.

use livephase_core::predict::spec::MAX_WINDOW;
use livephase_core::{
    evaluate, predictor_from_spec, FixedWindow, Gpht, GphtConfig, LastValue, PhaseId, PhaseMap,
    PhaseSample, Predictor, Selector, VariableWindow,
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

/// The spec grammar's families: the kind, then each field's size limit
/// (`None` marks `varwindow`'s threshold).
const FAMILIES: [(&str, &[Option<usize>]); 6] = [
    ("lastvalue", &[]),
    ("markov", &[]),
    ("fixwindow", &[Some(MAX_WINDOW)]),
    ("varwindow", &[Some(MAX_WINDOW), None]),
    (
        "gpht",
        &[Some(GphtConfig::MAX_DEPTH), Some(GphtConfig::MAX_ENTRIES)],
    ),
    (
        "hashedgpht",
        &[Some(GphtConfig::MAX_DEPTH), Some(GphtConfig::MAX_ENTRIES)],
    ),
];

/// A valid spec as its family's field limits and its `:`-separated
/// fields: the kind, sizes spread over `1..=limit`, a threshold in
/// `[0, 0.1)`.
fn arb_valid_spec() -> impl Strategy<Value = (&'static [Option<usize>], Vec<String>)> {
    (0..FAMILIES.len(), 0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.1).prop_map(|(f, a, b, thr)| {
        let (kind, limits) = FAMILIES[f];
        let mut fractions = [a, b].into_iter();
        let fields = std::iter::once(kind.to_owned())
            .chain(limits.iter().map(|limit| match limit {
                Some(max) => {
                    let frac = fractions.next().unwrap_or(0.0);
                    (1 + (frac * (*max - 1) as f64) as usize).to_string()
                }
                None => thr.to_string(),
            }))
            .collect();
        (limits, fields)
    })
}

/// Every single-field mutation of a valid spec: each size at 0, at its
/// limit ±1, at `u64::MAX`, signed, padded, emptied or fractional; the
/// threshold negative, non-finite or padded; a field dropped or added;
/// the kind unknown or miscased.
fn mutations(limits: &[Option<usize>], fields: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let with = |i: usize, value: String| {
        let mut f = fields.to_vec();
        f[i] = value;
        f.join(":")
    };
    for (i, limit) in limits.iter().enumerate() {
        let v = &fields[i + 1];
        let values = match limit {
            Some(max) => vec![
                "0".to_owned(),
                "1".to_owned(),
                (max - 1).to_string(),
                max.to_string(),
                (max + 1).to_string(),
                u64::MAX.to_string(),
                format!("{}0", u64::MAX),
                format!("-{v}"),
                format!("+{v}"),
                format!(" {v}"),
                format!("{v} "),
                format!("{v}\t"),
                String::new(),
                format!("{v}.0"),
                "1e3".to_owned(),
            ],
            None => vec![
                "0".to_owned(),
                format!("-{v}"),
                format!("+{v}"),
                "-0".to_owned(),
                "nan".to_owned(),
                "inf".to_owned(),
                "-inf".to_owned(),
                "1e309".to_owned(),
                format!(" {v}"),
                String::new(),
            ],
        };
        out.extend(values.into_iter().map(|value| with(i + 1, value)));
    }
    let joined = fields.join(":");
    out.push(fields[..fields.len() - 1].join(":"));
    out.push(format!("{joined}:1"));
    out.push(format!("{joined}:"));
    out.push(format!(":{joined}"));
    out.push(format!(" {joined}"));
    for unknown in ["", "GPHT", "gpht2", "frobnicate", "gpht\u{0}"] {
        out.push(with(0, unknown.to_owned()));
    }
    out
}

/// Fragments arbitrary specs are glued from: every kind, separators,
/// numbers at and around the limits, signs, spaces, non-ASCII.
const FRAGMENTS: [&str; 24] = [
    "gpht",
    "hashedgpht",
    "fixwindow",
    "varwindow",
    "markov",
    "lastvalue",
    ":",
    ":",
    "0",
    "1",
    "8",
    "64",
    "65",
    "16384",
    "16385",
    "18446744073709551615",
    "-",
    "+",
    " ",
    ".",
    "e9",
    "nan",
    "\u{e9}",
    "\u{1f600}",
];

fn arb_soup() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(0..FRAGMENTS.len(), 0..10)
            .prop_map(|v| v.into_iter().map(|i| FRAGMENTS[i]).collect::<String>()),
        proptest::collection::vec(0u32..0x300, 0..24)
            .prop_map(|v| v.into_iter().filter_map(char::from_u32).collect::<String>()),
    ]
}

/// The oracle: the name of the predictor a spec within the grammar and
/// its limits builds, `None` for every other string. A size is an
/// optional `+` then ASCII digits, as `usize`'s parser reads it.
fn accepted_name(spec: &str) -> Option<String> {
    let size = |s: &str, max: usize| {
        let digits = s.strip_prefix('+').unwrap_or(s);
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let n: u128 = digits.parse().ok()?;
        (1..=max as u128).contains(&n).then_some(n)
    };
    let parts: Vec<&str> = spec.split(':').collect();
    let (depth, entries) = (GphtConfig::MAX_DEPTH, GphtConfig::MAX_ENTRIES);
    match parts.as_slice() {
        ["lastvalue"] => Some("LastValue".to_owned()),
        ["markov"] => Some("Markov1".to_owned()),
        ["fixwindow", n] => Some(format!("FixWindow_{}", size(n, MAX_WINDOW)?)),
        ["varwindow", n, thr] => {
            let n = size(n, MAX_WINDOW)?;
            let thr: f64 = thr.parse().ok()?;
            (thr.is_finite() && thr >= 0.0).then(|| format!("VarWindow_{n}_{thr}"))
        }
        ["gpht", d, e] => Some(format!("GPHT_{}_{}", size(d, depth)?, size(e, entries)?)),
        ["hashedgpht", d, e] => Some(format!(
            "HashedGPHT_{}_{}",
            size(d, depth)?,
            size(e, entries)?
        )),
        _ => None,
    }
}

/// `from_spec` on one input: no panic, and either the oracle's
/// predictor or a typed error naming the input.
fn check_spec(spec: &str) {
    let built = std::panic::catch_unwind(|| predictor_from_spec(spec).map(|p| p.name()))
        .unwrap_or_else(|_| panic!("from_spec panicked on {spec:?}"));
    match built {
        Ok(name) => assert_eq!(Some(name), accepted_name(spec), "{spec:?} was accepted"),
        Err(e) => {
            assert_eq!(accepted_name(spec), None, "{spec:?} was refused: {e}");
            assert_eq!(e.spec(), spec);
        }
    }
}

proptest! {
    /// Specs arrive from network clients, so every string must build a
    /// predictor within `GphtConfig::MAX_*` and `MAX_WINDOW` or be a
    /// typed `PredictorSpecError`, never a panic or an oversized table:
    /// a valid spec, each of its single-field mutations, and arbitrary
    /// strings glued from spec fragments or drawn char by char.
    #[test]
    fn predictor_specs_build_within_limits_or_fail_typed(
        (limits, fields) in arb_valid_spec(),
        soup in arb_soup(),
    ) {
        let valid = fields.join(":");
        prop_assert!(accepted_name(&valid).is_some(), "{} is valid", valid);
        check_spec(&valid);
        for spec in mutations(limits, &fields) {
            check_spec(&spec);
        }
        check_spec(&soup);
    }
}
