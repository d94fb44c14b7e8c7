//! A direct-mapped (hashed) variant of the GPHT.
//!
//! The paper notes that "holding and associatively searching through a
//! 1024 entry PHT may be undesirable" on a real system and answers by
//! shrinking the table to 128 entries. The classic hardware alternative
//! is to drop associativity instead: hash the GPHR pattern to a single
//! table index and keep only a tag check. That saves the comparators and
//! the LRU state a hardware table would need, at the cost of conflict
//! misses. It buys no speed in software, where [`Gpht`](super::gpht::Gpht)
//! finds its row through an index in O(1) as well. [`HashedGpht`]
//! implements the design so the accuracy lost to conflict misses can be
//! measured (see the `pht_organization` ablation).

use super::gphr::Gphr;
use super::gpht::GphtConfig;
use super::{PhaseSample, Predictor};
use crate::phase::PhaseId;

/// Sizing of a [`HashedGpht`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashedGphtConfig {
    /// Number of past phases hashed into the index.
    pub gphr_depth: usize,
    /// Number of direct-mapped PHT slots.
    pub pht_entries: usize,
}

impl HashedGphtConfig {
    /// A deployment-friendly configuration matching the associative
    /// GPHT(8, 128) in storage.
    pub const DEPLOYED: HashedGphtConfig = HashedGphtConfig {
        gphr_depth: 8,
        pht_entries: 128,
    };
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot {
    /// Full-pattern fingerprint used as the tag (the slot index alone
    /// aliases many patterns).
    tag: u64,
    prediction: PhaseId,
}

/// The direct-mapped GPHT: one hash, one compare, per sample.
#[derive(Debug, Clone)]
pub struct HashedGpht {
    config: HashedGphtConfig,
    gphr: Gphr,
    slots: Vec<Option<Slot>>,
    pending_update: Option<usize>,
    prediction: PhaseId,
    hits: u64,
    misses: u64,
}

impl HashedGpht {
    /// Creates a hashed GPHT.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or above
    /// [`GphtConfig::MAX_DEPTH`] / [`GphtConfig::MAX_ENTRIES`].
    #[must_use]
    pub fn new(config: HashedGphtConfig) -> Self {
        GphtConfig::validate(config.gphr_depth, config.pht_entries);
        Self {
            config,
            gphr: Gphr::new(config.gphr_depth),
            slots: vec![None; config.pht_entries],
            pending_update: None,
            prediction: PhaseId::CPU_BOUND,
            hits: 0,
            misses: 0,
        }
    }

    /// The sizing this predictor was built with.
    #[must_use]
    pub fn config(&self) -> HashedGphtConfig {
        self.config
    }

    /// Slot hits since construction or reset.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Slot misses (cold or conflict) since construction or reset.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// FNV-1a over the GPHR contents, with a murmur-style finalizer: FNV
    /// alone diffuses poorly into the low bits on short small-alphabet
    /// inputs, which is exactly what `tag % entries` indexes on.
    fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for p in self.gphr.bytes() {
            h ^= u64::from(p);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

impl Predictor for HashedGpht {
    fn observe(&mut self, sample: PhaseSample) {
        // Train the slot used last period with the actual outcome.
        if let Some(i) = self.pending_update.take() {
            if let Some(slot) = self.slots.get_mut(i).and_then(Option::as_mut) {
                slot.prediction = sample.phase;
            }
        }

        self.gphr.push(sample.phase);

        if !self.gphr.is_full() {
            self.prediction = sample.phase;
            return;
        }

        let tag = self.fingerprint();
        let index = (tag % self.slots.len() as u64) as usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "index < slots.len() by the modulo above"
        )]
        let entry = &mut self.slots[index];
        match entry {
            Some(slot) if slot.tag == tag => {
                self.hits += 1;
                self.prediction = slot.prediction;
            }
            other => {
                // Cold or conflict miss: fall back to last value and claim
                // the slot (direct-mapped tables evict on conflict).
                self.misses += 1;
                self.prediction = sample.phase;
                *other = Some(Slot {
                    tag,
                    prediction: sample.phase,
                });
            }
        }
        self.pending_update = Some(index);
    }

    fn predict(&self) -> PhaseId {
        self.prediction
    }

    fn reset(&mut self) {
        self.gphr.clear();
        self.slots.iter_mut().for_each(|s| *s = None);
        self.pending_update = None;
        self.prediction = PhaseId::CPU_BOUND;
        self.hits = 0;
        self.misses = 0;
    }

    fn name(&self) -> String {
        format!(
            "HashedGPHT_{}_{}",
            self.config.gphr_depth, self.config.pht_entries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::predict::gpht::{Gpht, GphtConfig};

    fn s(id: u8) -> PhaseSample {
        PhaseSample::new(f64::from(id) * 0.005, PhaseId::new(id))
    }

    fn periodic(pattern: &[u8], len: usize) -> Vec<PhaseSample> {
        pattern.iter().copied().cycle().take(len).map(s).collect()
    }

    #[test]
    fn learns_periodic_patterns_like_the_associative_table() {
        let stream = periodic(&[1, 2, 4, 6, 4, 2], 600);
        let hashed = evaluate(
            &mut HashedGpht::new(HashedGphtConfig::DEPLOYED),
            stream.iter().copied(),
        );
        let assoc = evaluate(&mut Gpht::new(GphtConfig::DEPLOYED), stream.iter().copied());
        assert!(hashed.accuracy() > 0.95, "hashed {}", hashed.accuracy());
        assert!(
            (hashed.accuracy() - assoc.accuracy()).abs() < 0.03,
            "small working sets fit either organization"
        );
    }

    #[test]
    fn conflicts_degrade_gracefully() {
        // A tiny table forces conflicts; accuracy must still be bounded
        // below by last-value behaviour.
        let stream = periodic(&[1, 3, 5, 3, 1, 2, 6, 2], 800);
        let tiny = evaluate(
            &mut HashedGpht::new(HashedGphtConfig {
                gphr_depth: 8,
                pht_entries: 2,
            }),
            stream.iter().copied(),
        );
        let lv = evaluate(
            &mut crate::predict::last_value::LastValue::new(),
            stream.iter().copied(),
        );
        assert!(
            tiny.mispredictions() <= 2 * lv.mispredictions() + 8,
            "worst-case bound holds for the hashed variant too"
        );
    }

    #[test]
    fn hit_miss_accounting() {
        let mut g = HashedGpht::new(HashedGphtConfig {
            gphr_depth: 2,
            pht_entries: 16,
        });
        for _ in 0..10 {
            g.observe(s(1));
        }
        assert_eq!(g.misses(), 1);
        assert_eq!(g.hits(), 8);
    }

    #[test]
    fn warmup_and_reset() {
        let mut g = HashedGpht::new(HashedGphtConfig::DEPLOYED);
        for id in [3u8, 5, 2] {
            assert_eq!(g.next(s(id)).get(), id, "warm-up = last value");
        }
        g.reset();
        assert_eq!(g.predict(), PhaseId::CPU_BOUND);
        assert_eq!(g.hits() + g.misses(), 0);
    }

    #[test]
    fn name_encodes_config() {
        assert_eq!(
            HashedGpht::new(HashedGphtConfig::DEPLOYED).name(),
            "HashedGPHT_8_128"
        );
    }

    #[test]
    #[should_panic(expected = "PHT")]
    fn zero_entries_rejected() {
        let _ = HashedGpht::new(HashedGphtConfig {
            gphr_depth: 8,
            pht_entries: 0,
        });
    }
}
