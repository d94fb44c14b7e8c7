//! The Global Phase History Table (GPHT) predictor — the paper's proposal.
//!
//! Structurally a software analogue of a two-level *global* branch
//! predictor (Yeh & Patt): a **Global Phase History Register** (GPHR) shift
//! register holds the last `gphr_depth` observed phases; its contents index
//! a **Pattern History Table** (PHT) that associates previously seen phase
//! patterns with the phase that followed them.
//!
//! Per Section 3 of the paper, each PMI the predictor:
//!
//! 1. shifts the newly observed phase into the GPHR;
//! 2. looks the GPHR up among the stored PHT tags;
//! 3. on a **match**, emits the stored next-phase prediction and, at the
//!    *next* sampling period, updates that entry's prediction with the
//!    actually observed phase;
//! 4. on a **mismatch**, falls back to last-value prediction (`GPHR[0]`)
//!    and inserts the current GPHR into the PHT, evicting the least
//!    recently used entry when the table is full (an `Age/Invalid` field
//!    tracks both validity and recency).
//!
//! The paper compares the GPHR against every tag associatively, which is
//! why it shrank the table from 1024 to 128 entries. Here a hash index
//! over the packed GPHR finds the same row in O(1): tags are unique (a row
//! is only allocated on a miss), so at most one row can match. Rows are
//! never invalidated before a reset, so "first invalid row, else LRU" is
//! the next unused row while the table fills and the oldest row of a
//! recency list after that; ages are unique (each observation touches one
//! row), so the list orders rows exactly as the age field would. Hits,
//! misses, victims and predictions are those of the associative table.
//!
//! With a PHT of one entry the predictor degenerates to last-value (nearly
//! 100 % tag mismatches), which the paper observes in Figure 5 and which is
//! enforced here by a property test.

use super::gphr::Gphr;
use super::{PhaseSample, Predictor};
use crate::phase::PhaseId;

/// Sizing of a [`Gpht`] predictor.
///
/// The paper's exploration settles on `gphr_depth = 8` and
/// `pht_entries = 128` for the deployed system (Figure 5 shows 128 entries
/// match the 1024-entry predictor almost exactly); the constants
/// [`GphtConfig::DEPLOYED`] and [`GphtConfig::REFERENCE`] capture the two
/// configurations used throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GphtConfig {
    /// Number of past phases held in the global phase history register.
    pub gphr_depth: usize,
    /// Number of pattern entries in the pattern history table.
    pub pht_entries: usize,
}

impl GphtConfig {
    /// The configuration deployed on the paper's real system: GPHR depth 8,
    /// 128 PHT entries.
    pub const DEPLOYED: GphtConfig = GphtConfig {
        gphr_depth: 8,
        pht_entries: 128,
    };

    /// The reference configuration used in the prediction study
    /// (Figures 2 and 4): GPHR depth 8, 1024 PHT entries.
    pub const REFERENCE: GphtConfig = GphtConfig {
        gphr_depth: 8,
        pht_entries: 1024,
    };

    /// The deepest GPHR either GPHT organization is built with: twice
    /// the deepest point of the `gphr_depth` ablation.
    pub const MAX_DEPTH: usize = 64;

    /// The largest PHT either GPHT organization is built with: 16 times
    /// the reference table.
    pub const MAX_ENTRIES: usize = 16_384;

    pub(super) fn validate(gphr_depth: usize, pht_entries: usize) {
        assert!(gphr_depth >= 1, "GPHR depth must be at least 1");
        assert!(pht_entries >= 1, "PHT must have at least 1 entry");
        assert!(
            gphr_depth <= Self::MAX_DEPTH && pht_entries <= Self::MAX_ENTRIES,
            "GPHR depth {gphr_depth} / {pht_entries} PHT entries exceed the \
             limits {} / {}",
            Self::MAX_DEPTH,
            Self::MAX_ENTRIES
        );
    }
}

impl Default for GphtConfig {
    fn default() -> Self {
        Self::DEPLOYED
    }
}

/// Row link meaning "none".
const NIL: u32 = u32::MAX;

/// A valid pattern-history-table row. Its tag is kept apart, in
/// `Gpht::tags`.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// The next-phase prediction associated with the tag.
    prediction: PhaseId,
    /// The next row in the same bucket.
    chain: u32,
    /// The row touched next after this one (`NIL`: this is the newest).
    newer: u32,
    /// The row touched last before this one (`NIL`: this is the least
    /// recently used, the next victim).
    older: u32,
}

/// The Global Phase History Table predictor.
///
/// ```
/// use livephase_core::{Gpht, GphtConfig, PhaseSample, PhaseId, Predictor};
///
/// let mut gpht = Gpht::new(GphtConfig::DEPLOYED);
/// // A short repeating pattern: 1 3 6 3, 1 3 6 3, ...
/// let pattern = [1u8, 3, 6, 3];
/// let mut correct = 0;
/// let mut total = 0;
/// let mut pred = gpht.predict();
/// for i in 0..400 {
///     let actual = PhaseId::new(pattern[i % 4]);
///     if i > 0 {
///         total += 1;
///         if pred == actual { correct += 1; }
///     }
///     pred = gpht.next(PhaseSample::new(0.01, actual));
/// }
/// // After warm-up the pattern is learned perfectly; last-value would be 0 %.
/// assert!(correct as f64 / total as f64 > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct Gpht {
    config: GphtConfig,
    gphr: Gphr,
    /// The valid rows. They fill in order, one per missed pattern, until
    /// the table is full; then each miss replaces the least recently used.
    rows: Vec<Row>,
    /// Row tags back to back, `gphr.words().len()` words per row.
    tags: Vec<u64>,
    /// First row of each bucket's chain; a power of two of them.
    buckets: Vec<u32>,
    /// Right shift taking a tag's hash to its bucket.
    bucket_shift: u32,
    /// Most and least recently touched rows (`NIL` while the table is
    /// empty).
    newest: u32,
    oldest: u32,
    /// Row used (matched or inserted) in the previous period, whose
    /// prediction is trained by the next observed phase.
    pending_update: Option<u32>,
    /// The prediction emitted for the upcoming interval.
    prediction: PhaseId,
    /// Running count of PHT tag hits (for diagnostics / ablations).
    hits: u64,
    /// Running count of PHT tag misses.
    misses: u64,
}

impl Gpht {
    /// Creates a GPHT predictor with the given sizing. All of its storage
    /// is allocated here: observing never allocates.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or above
    /// [`GphtConfig::MAX_DEPTH`] / [`GphtConfig::MAX_ENTRIES`].
    #[must_use]
    pub fn new(config: GphtConfig) -> Self {
        GphtConfig::validate(config.gphr_depth, config.pht_entries);
        let gphr = Gphr::new(config.gphr_depth);
        // At most one row per two buckets keeps chains short.
        let buckets = (2 * config.pht_entries).next_power_of_two();
        Self {
            config,
            rows: Vec::with_capacity(config.pht_entries),
            tags: vec![0; config.pht_entries * gphr.words().len()],
            gphr,
            buckets: vec![NIL; buckets],
            bucket_shift: 64 - buckets.trailing_zeros(),
            newest: NIL,
            oldest: NIL,
            pending_update: None,
            prediction: PhaseId::CPU_BOUND,
            hits: 0,
            misses: 0,
        }
    }

    /// The sizing this predictor was built with.
    #[must_use]
    pub fn config(&self) -> GphtConfig {
        self.config
    }

    /// Number of currently valid PHT rows.
    #[must_use]
    pub fn valid_entries(&self) -> usize {
        self.rows.len()
    }

    /// PHT tag hits since construction or [`reset`](Predictor::reset).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// PHT tag misses since construction or [`reset`](Predictor::reset).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The current GPHR contents, most recent phase first.
    #[must_use]
    pub fn history(&self) -> Vec<PhaseId> {
        self.gphr.bytes().map(PhaseId::new).collect()
    }

    /// The index bucket of a tag: the top bits of a multiplicative mix
    /// of its words. A stream crafted to put every pattern in one bucket
    /// costs a walk over the whole table per lookup, as the associative
    /// search did.
    fn bucket(&self, tag: &[u64]) -> usize {
        let hash = tag.iter().fold(0u64, |h, &w| {
            (h.rotate_left(29) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        });
        (hash >> self.bucket_shift) as usize
    }

    /// Row `r`'s tag.
    fn tag(&self, r: u32) -> Option<&[u64]> {
        let n = self.gphr.words().len();
        let start = r as usize * n;
        self.tags.get(start..start + n)
    }

    /// The row in bucket `b` whose tag is the current GPHR, if any.
    fn find(&self, b: usize) -> Option<u32> {
        let mut r = self.buckets.get(b).copied().unwrap_or(NIL);
        while let Some(row) = self.rows.get(r as usize) {
            if self.tag(r) == Some(self.gphr.words()) {
                return Some(r);
            }
            r = row.chain;
        }
        None
    }

    /// Closes the gap row `r` leaves in the recency list: its neighbours
    /// point at each other, or the list ends move inward.
    fn unlink(&mut self, r: u32) {
        let Some(&Row { newer, older, .. }) = self.rows.get(r as usize) else {
            return;
        };
        match self.rows.get_mut(newer as usize) {
            Some(n) => n.older = older,
            None => self.newest = older,
        }
        match self.rows.get_mut(older as usize) {
            Some(o) => o.newer = newer,
            None => self.oldest = newer,
        }
    }

    /// Links row `r`, which is on no list, in at the newest end.
    fn link_newest(&mut self, r: u32) {
        let older = std::mem::replace(&mut self.newest, r);
        match self.rows.get_mut(older as usize) {
            Some(o) => o.newer = r,
            None => self.oldest = r,
        }
        if let Some(row) = self.rows.get_mut(r as usize) {
            row.newer = NIL;
            row.older = older;
        }
    }

    /// Takes row `r` out of its bucket's chain.
    fn unchain(&mut self, r: u32) {
        let (Some(&Row { chain, .. }), Some(tag)) = (self.rows.get(r as usize), self.tag(r)) else {
            return;
        };
        let b = self.bucket(tag);
        let Some(head) = self.buckets.get_mut(b) else {
            return;
        };
        let mut cur = *head;
        if cur == r {
            *head = chain;
            return;
        }
        while let Some(row) = self.rows.get_mut(cur as usize) {
            if row.chain == r {
                row.chain = chain;
                return;
            }
            cur = row.chain;
        }
    }

    /// Stores the current GPHR, whose bucket is `b`, as the tag of a new
    /// row predicting `prediction`: the next unused row, else the least
    /// recently used one. Returns the row, not yet on the recency list.
    fn insert(&mut self, b: usize, prediction: PhaseId) -> u32 {
        let r = if self.rows.len() < self.config.pht_entries {
            // Fits: rows.len() < MAX_ENTRIES < NIL.
            let r = self.rows.len() as u32;
            self.rows.push(Row {
                prediction,
                chain: NIL,
                newer: NIL,
                older: NIL,
            });
            r
        } else {
            let victim = self.oldest;
            self.unlink(victim);
            self.unchain(victim);
            if let Some(row) = self.rows.get_mut(victim as usize) {
                row.prediction = prediction;
            }
            victim
        };
        if let Some(head) = self.buckets.get_mut(b) {
            let next = std::mem::replace(head, r);
            if let Some(row) = self.rows.get_mut(r as usize) {
                row.chain = next;
            }
        }
        let words = self.gphr.words();
        let start = r as usize * words.len();
        if let Some(tag) = self.tags.get_mut(start..start + words.len()) {
            tag.copy_from_slice(words);
        }
        r
    }
}

impl Predictor for Gpht {
    fn observe(&mut self, sample: PhaseSample) {
        // (3)/(4): train the row used last period with the actual outcome.
        if let Some(row) = self
            .pending_update
            .take()
            .and_then(|r| self.rows.get_mut(r as usize))
        {
            row.prediction = sample.phase;
        }

        // (1) Shift the observed phase into the GPHR.
        self.gphr.push(sample.phase);

        if !self.gphr.is_full() {
            // Warm-up: no full pattern yet; behave as last-value and do not
            // pollute the PHT with short tags.
            self.prediction = sample.phase;
            return;
        }

        // (2) Tag lookup through the index.
        let b = self.bucket(self.gphr.words());
        let r = match self.find(b) {
            Some(r) => {
                self.hits += 1;
                if let Some(row) = self.rows.get(r as usize) {
                    self.prediction = row.prediction;
                }
                if r != self.newest {
                    self.unlink(r);
                    self.link_newest(r);
                }
                r
            }
            None => {
                self.misses += 1;
                // Fall back to last value and allocate the pattern, seeded
                // with last value until trained next period.
                self.prediction = sample.phase;
                let r = self.insert(b, sample.phase);
                self.link_newest(r);
                r
            }
        };
        self.pending_update = Some(r);
    }

    fn predict(&self) -> PhaseId {
        self.prediction
    }

    fn reset(&mut self) {
        self.gphr.clear();
        self.rows.clear();
        self.buckets.fill(NIL);
        self.newest = NIL;
        self.oldest = NIL;
        self.pending_update = None;
        self.prediction = PhaseId::CPU_BOUND;
        self.hits = 0;
        self.misses = 0;
    }

    fn name(&self) -> String {
        format!(
            "GPHT_{}_{}",
            self.config.gphr_depth, self.config.pht_entries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u8) -> PhaseSample {
        PhaseSample::new(0.01, PhaseId::new(id))
    }

    /// Runs `seq` through `p` and returns accuracy of next-phase prediction.
    fn accuracy(p: &mut dyn Predictor, seq: &[u8]) -> f64 {
        let mut correct = 0usize;
        let mut pred = p.predict();
        for (i, &id) in seq.iter().enumerate() {
            let actual = PhaseId::new(id);
            if i > 0 && pred == actual {
                correct += 1;
            }
            pred = p.next(PhaseSample::new(0.01, actual));
        }
        correct as f64 / (seq.len() - 1) as f64
    }

    #[test]
    fn learns_periodic_pattern() {
        let mut g = Gpht::new(GphtConfig::DEPLOYED);
        let seq: Vec<u8> = [1u8, 2, 4, 6, 4, 2]
            .iter()
            .copied()
            .cycle()
            .take(600)
            .collect();
        let acc = accuracy(&mut g, &seq);
        assert!(
            acc > 0.95,
            "GPHT should learn a period-6 pattern, got {acc}"
        );
    }

    #[test]
    fn last_value_fails_same_pattern() {
        use super::super::last_value::LastValue;
        let mut lv = LastValue::new();
        let seq: Vec<u8> = [1u8, 2, 4, 6, 4, 2]
            .iter()
            .copied()
            .cycle()
            .take(600)
            .collect();
        let acc = accuracy(&mut lv, &seq);
        assert!(
            acc < 0.2,
            "last value cannot track a fully varying pattern: {acc}"
        );
    }

    #[test]
    fn constant_input_matches_last_value() {
        let mut g = Gpht::new(GphtConfig::DEPLOYED);
        let seq = vec![3u8; 100];
        assert!((accuracy(&mut g, &seq) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_entry_pht_degenerates_to_last_value() {
        use super::super::last_value::LastValue;
        let cfg = GphtConfig {
            gphr_depth: 8,
            pht_entries: 1,
        };
        let mut g = Gpht::new(cfg);
        let mut lv = LastValue::new();
        // A varied sequence where patterns rarely repeat back-to-back.
        let seq: Vec<u8> = (0..500).map(|i| 1 + ((i * 7 + i / 13) % 6) as u8).collect();
        for &id in &seq {
            let gp = g.next(s(id));
            let lp = lv.next(s(id));
            assert_eq!(gp, lp, "1-entry PHT must behave as last-value");
        }
    }

    #[test]
    fn capacity_is_respected_and_lru_evicts() {
        let cfg = GphtConfig {
            gphr_depth: 2,
            pht_entries: 4,
        };
        let mut g = Gpht::new(cfg);
        // Feed many distinct patterns.
        for i in 0..100u8 {
            g.observe(s(1 + (i % 6)));
        }
        assert!(g.valid_entries() <= 4);
    }

    #[test]
    fn hit_miss_accounting() {
        let mut g = Gpht::new(GphtConfig {
            gphr_depth: 2,
            pht_entries: 16,
        });
        for _ in 0..10 {
            g.observe(s(1));
        }
        // Constant stream: first full-GPHR step misses, rest hit.
        assert_eq!(g.misses(), 1);
        assert!(g.hits() >= 7);
    }

    #[test]
    fn prediction_is_trained_next_period() {
        let mut g = Gpht::new(GphtConfig {
            gphr_depth: 2,
            pht_entries: 16,
        });
        // Pattern [2,1] is always followed by 5: observe 1,2,5 cycling.
        for _ in 0..30 {
            for id in [1u8, 2, 5] {
                g.observe(s(id));
            }
        }
        // Bring GPHR to [2,1] again and check the trained prediction.
        g.observe(s(1));
        g.observe(s(2));
        assert_eq!(g.predict().get(), 5);
    }

    #[test]
    fn warmup_behaves_as_last_value() {
        let mut g = Gpht::new(GphtConfig {
            gphr_depth: 4,
            pht_entries: 16,
        });
        for id in [3u8, 5, 2] {
            let p = g.next(s(id));
            assert_eq!(p.get(), id, "during warm-up prediction = last observed");
        }
        assert_eq!(g.hits() + g.misses(), 0, "no PHT activity during warm-up");
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut g = Gpht::new(GphtConfig::DEPLOYED);
        for i in 0..50u8 {
            g.observe(s(1 + (i % 6)));
        }
        g.reset();
        assert_eq!(g.valid_entries(), 0);
        assert_eq!(g.predict(), PhaseId::CPU_BOUND);
        assert_eq!(g.hits(), 0);
        assert_eq!(g.misses(), 0);
        assert!(g.history().is_empty());
    }

    #[test]
    fn name_encodes_config() {
        assert_eq!(Gpht::new(GphtConfig::REFERENCE).name(), "GPHT_8_1024");
    }

    #[test]
    #[should_panic(expected = "GPHR depth")]
    fn zero_depth_rejected() {
        let _ = Gpht::new(GphtConfig {
            gphr_depth: 0,
            pht_entries: 8,
        });
    }

    #[test]
    #[should_panic(expected = "PHT")]
    fn zero_entries_rejected() {
        let _ = Gpht::new(GphtConfig {
            gphr_depth: 8,
            pht_entries: 0,
        });
    }

    #[test]
    fn history_reports_most_recent_first() {
        let mut g = Gpht::new(GphtConfig {
            gphr_depth: 3,
            pht_entries: 8,
        });
        for id in [1u8, 2, 3, 4] {
            g.observe(s(id));
        }
        let h: Vec<u8> = g.history().iter().map(|p| p.get()).collect();
        assert_eq!(h, vec![4, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "exceed the limits")]
    fn oversized_table_rejected() {
        let _ = Gpht::new(GphtConfig {
            gphr_depth: 8,
            pht_entries: GphtConfig::MAX_ENTRIES + 1,
        });
    }

    /// The associative table the index replaced, kept as its oracle: a
    /// linear search over the tags, and a victim scan for the first
    /// invalid row, else the row with the smallest age.
    struct AssocGpht {
        depth: usize,
        /// Most recent phase at the front (`GPHR[0]`).
        gphr: std::collections::VecDeque<PhaseId>,
        /// `None` = invalid row: `(tag, prediction, age)`.
        pht: Vec<Option<(Vec<PhaseId>, PhaseId, u64)>>,
        tick: u64,
        pending_update: Option<usize>,
        prediction: PhaseId,
        hits: u64,
        misses: u64,
    }

    impl AssocGpht {
        fn new(depth: usize, entries: usize) -> Self {
            Self {
                depth,
                gphr: std::collections::VecDeque::new(),
                pht: vec![None; entries],
                tick: 0,
                pending_update: None,
                prediction: PhaseId::CPU_BOUND,
                hits: 0,
                misses: 0,
            }
        }

        fn valid_entries(&self) -> usize {
            self.pht.iter().filter(|e| e.is_some()).count()
        }

        fn victim(&self) -> usize {
            let mut lru = 0;
            let mut lru_age = u64::MAX;
            for (i, row) in self.pht.iter().enumerate() {
                match row {
                    None => return i,
                    Some((_, _, age)) if *age < lru_age => {
                        lru_age = *age;
                        lru = i;
                    }
                    Some(_) => {}
                }
            }
            lru
        }

        fn next(&mut self, phase: PhaseId) -> PhaseId {
            self.tick += 1;
            if let Some(i) = self.pending_update.take() {
                if let Some((_, prediction, _)) = self.pht[i].as_mut() {
                    *prediction = phase;
                }
            }
            if self.gphr.len() == self.depth {
                self.gphr.pop_back();
            }
            self.gphr.push_front(phase);
            if self.gphr.len() < self.depth {
                self.prediction = phase;
                return phase;
            }
            let hit = self.pht.iter().position(|slot| {
                slot.as_ref()
                    .is_some_and(|(tag, _, _)| tag.iter().eq(self.gphr.iter()))
            });
            let i = match hit {
                Some(i) => {
                    self.hits += 1;
                    let (_, prediction, age) = self.pht[i].as_mut().expect("hit row is valid");
                    *age = self.tick;
                    self.prediction = *prediction;
                    i
                }
                None => {
                    self.misses += 1;
                    self.prediction = phase;
                    let i = self.victim();
                    self.pht[i] = Some((self.gphr.iter().copied().collect(), phase, self.tick));
                    i
                }
            };
            self.pending_update = Some(i);
            self.prediction
        }

        fn reset(&mut self) {
            *self = Self::new(self.depth, self.pht.len());
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The indexed table is the associative one, observation by
            /// observation: every prediction, the hit and miss counts,
            /// the valid rows and the GPHR agree, across the packed
            /// GPHR's word boundaries, from one row to the reference
            /// size, over phase ids up to 255, and through resets. The
            /// stream repeats a motif (so patterns recur and hit) with a
            /// per-case rate of noise (so tables fill and evict).
            #[test]
            fn indexed_table_matches_the_associative_search(
                depth in prop_oneof![Just(8usize), Just(9), Just(16), Just(17), 1usize..=32],
                entries in prop_oneof![1usize..=8, 1usize..=1024],
                lo in 1u8..=255,
                span in 1u8..=6,
                noise_per_64 in 0u8..=16,
                motif in prop_oneof![
                    proptest::collection::vec(0u8..=255, 1..=6),
                    proptest::collection::vec(0u8..=255, 1..=40),
                ],
                ops in proptest::collection::vec((0u8..=255, 0u8..64, 0u16..400), 0..=1500),
            ) {
                let mut g = Gpht::new(GphtConfig { gphr_depth: depth, pht_entries: entries });
                let mut oracle = AssocGpht::new(depth, entries);
                for (i, &(noise, roll, reset)) in ops.iter().enumerate() {
                    if reset == 0 {
                        g.reset();
                        oracle.reset();
                        prop_assert_eq!(g.predict(), oracle.prediction);
                    }
                    let byte = if roll < noise_per_64 { noise } else { motif[i % motif.len()] };
                    let phase = PhaseId::new(lo.saturating_add(byte % span));
                    let want = oracle.next(phase);
                    prop_assert_eq!(g.next(s(phase.get())), want, "prediction at {}", i);
                    prop_assert_eq!((g.hits(), g.misses()), (oracle.hits, oracle.misses));
                    prop_assert_eq!(g.valid_entries(), oracle.valid_entries());
                    prop_assert!(g.history().iter().eq(oracle.gphr.iter()));
                }
            }
        }
    }
}
