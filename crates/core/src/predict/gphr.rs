//! The global phase history register both GPHT organizations shift
//! their observations into.

use crate::phase::PhaseId;

/// The last `depth` observed phases, packed 8 bits per phase into `u64`
/// words: the most recent phase is the low byte of word 0, and every
/// observation shifts the whole register up one byte, carrying each
/// word's top byte into the next word.
///
/// Phase ids start at 1, so a zero byte is a slot not filled yet. The
/// bytes above `depth` in the last word are kept zero, so two full
/// registers hold the same `depth` phases exactly when their words are
/// equal — which is what lets a pattern table compare and hash whole
/// words instead of phases.
#[derive(Debug, Clone)]
pub(super) struct Gphr {
    words: Box<[u64]>,
    /// Clears the last word's bytes above `depth`.
    top_mask: u64,
    depth: usize,
    /// Phases shifted in since construction or `clear`, capped at `depth`.
    len: usize,
}

impl Gphr {
    /// An empty register of `depth` phases.
    pub(super) fn new(depth: usize) -> Self {
        let words = depth.div_ceil(8);
        let unused_bytes = words * 8 - depth;
        Self {
            words: vec![0; words].into_boxed_slice(),
            top_mask: u64::MAX >> (8 * unused_bytes),
            depth,
            len: 0,
        }
    }

    /// Shifts `phase` in as the most recent phase, dropping the oldest
    /// once the register is full.
    pub(super) fn push(&mut self, phase: PhaseId) {
        let mut carry = u64::from(phase.get());
        for word in self.words.iter_mut() {
            let top = *word >> 56;
            *word = (*word << 8) | carry;
            carry = top;
        }
        if let Some(last) = self.words.last_mut() {
            *last &= self.top_mask;
        }
        self.len = (self.len + 1).min(self.depth);
    }

    /// Whether `depth` phases have been observed, i.e. the register holds
    /// a full pattern.
    pub(super) fn is_full(&self) -> bool {
        self.len == self.depth
    }

    /// The packed words, `depth.div_ceil(8)` of them.
    pub(super) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The held phase ids, most recent first.
    pub(super) fn bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .take(self.len)
    }

    /// Empties the register.
    pub(super) fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_histories_have_equal_words() {
        // Same last 9 phases, different older history: the bytes above
        // the depth must not remember it.
        let (mut a, mut b) = (Gphr::new(9), Gphr::new(9));
        for id in [200u8, 1, 2, 3, 4, 5, 6, 7, 8, 9] {
            a.push(PhaseId::new(id));
        }
        for id in [255u8, 1, 2, 3, 4, 5, 6, 7, 8, 9] {
            b.push(PhaseId::new(id));
        }
        assert_eq!(a.words(), b.words());
        a.clear();
        assert!(a.words().iter().all(|&w| w == 0));
        assert_eq!(a.bytes().count(), 0);
    }
}
