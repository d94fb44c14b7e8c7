//! Phase identifiers and the Mem/Uop → phase classification map.
//!
//! Table 1 of the paper partitions the Mem/Uop axis into six categories:
//!
//! | Mem/Uop            | Phase |
//! |--------------------|-------|
//! | `< 0.005`          | 1 (highly CPU-bound)    |
//! | `[0.005, 0.010)`   | 2     |
//! | `[0.010, 0.015)`   | 3     |
//! | `[0.015, 0.020)`   | 4     |
//! | `[0.020, 0.030)`   | 5     |
//! | `≥ 0.030`          | 6 (highly memory-bound) |
//!
//! The partition is *reconfigurable after deployment* (Section 6.3 uses an
//! alternative, more conservative partition to bound performance loss), so
//! [`PhaseMap`] accepts any strictly increasing boundary list.

use crate::metrics::MemUopRate;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A phase category identifier.
///
/// Phases are numbered from **1** (most CPU-bound) upwards, matching the
/// paper's Table 1. `PhaseId` is ordered: a larger id means a more
/// memory-bound phase.
///
/// ```
/// use livephase_core::PhaseId;
/// let p = PhaseId::new(3);
/// assert_eq!(p.get(), 3);
/// assert!(PhaseId::new(1) < PhaseId::new(6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PhaseId(u8);

impl PhaseId {
    /// Creates a phase id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is zero — phase numbering starts at 1.
    #[must_use]
    pub fn new(id: u8) -> Self {
        assert!(id >= 1, "phase ids start at 1, got {id}");
        Self(id)
    }

    /// The numeric id (1-based).
    #[must_use]
    pub fn get(self) -> u8 {
        self.0
    }

    /// Zero-based index, convenient for table lookups.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0) - 1
    }

    /// Phase 1: the most CPU-bound category.
    pub const CPU_BOUND: PhaseId = PhaseId(1);
}

impl fmt::Display for PhaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Error constructing a [`PhaseMap`].
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseMapError {
    /// The boundary list was empty; at least one boundary (two phases) is
    /// required for the map to be meaningful.
    Empty,
    /// Boundaries must be strictly increasing; the offending pair is given.
    NotIncreasing(f64, f64),
    /// A boundary was non-finite or not positive.
    InvalidBoundary(f64),
    /// More than 254 boundaries would overflow the `u8` phase id space.
    TooManyPhases(usize),
}

impl fmt::Display for PhaseMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "phase map requires at least one boundary"),
            Self::NotIncreasing(a, b) => {
                write!(f, "boundaries must be strictly increasing: {a} >= {b}")
            }
            Self::InvalidBoundary(b) => {
                write!(f, "boundary must be finite and positive: {b}")
            }
            Self::TooManyPhases(n) => {
                write!(f, "{n} boundaries exceed the 254 boundary limit")
            }
        }
    }
}

impl Error for PhaseMapError {}

/// A total, ordered partition of the Mem/Uop axis into phase categories.
///
/// `n` boundaries define `n + 1` phases. A rate `r` belongs to phase `k+1`
/// where `k` is the number of boundaries `b` with `r >= b` — i.e. boundary
/// values themselves belong to the *higher* (more memory-bound) phase,
/// matching the half-open intervals of Table 1.
///
/// ```
/// use livephase_core::PhaseMap;
/// let map = PhaseMap::pentium_m();
/// assert_eq!(map.phase_count(), 6);
/// assert_eq!(map.classify(0.0).get(), 1);
/// assert_eq!(map.classify(0.005).get(), 2); // boundary -> upper phase
/// assert_eq!(map.classify(0.12).get(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseMap {
    boundaries: Vec<f64>,
}

impl PhaseMap {
    /// Creates a phase map from strictly increasing, positive boundaries.
    ///
    /// # Errors
    ///
    /// Returns a [`PhaseMapError`] if the list is empty, not strictly
    /// increasing, contains non-finite or non-positive values, or defines
    /// more than 255 phases.
    pub fn new(boundaries: Vec<f64>) -> Result<Self, PhaseMapError> {
        if boundaries.is_empty() {
            return Err(PhaseMapError::Empty);
        }
        if boundaries.len() > 254 {
            return Err(PhaseMapError::TooManyPhases(boundaries.len()));
        }
        for &b in &boundaries {
            if !b.is_finite() || b <= 0.0 {
                return Err(PhaseMapError::InvalidBoundary(b));
            }
        }
        for (&a, &b) in boundaries.iter().zip(boundaries.iter().skip(1)) {
            if a >= b {
                return Err(PhaseMapError::NotIncreasing(a, b));
            }
        }
        Ok(Self { boundaries })
    }

    /// The paper's Table 1 partition for the Pentium-M platform: six phases
    /// with boundaries at 0.005, 0.010, 0.015, 0.020 and 0.030 Mem/Uop.
    #[must_use]
    pub fn pentium_m() -> Self {
        match Self::new(vec![0.005, 0.010, 0.015, 0.020, 0.030]) {
            Ok(map) => map,
            Err(_) => unreachable!("static Table 1 boundaries are valid"),
        }
    }

    /// Number of phase categories (`boundaries + 1`).
    #[must_use]
    pub fn phase_count(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The boundary list (strictly increasing).
    #[must_use]
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Classifies a raw Mem/Uop ratio into its phase.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or non-finite (see [`MemUopRate::new`]).
    #[must_use]
    pub fn classify(&self, rate: f64) -> PhaseId {
        self.classify_rate(MemUopRate::new(rate))
    }

    /// Classifies a validated [`MemUopRate`] into its phase.
    #[must_use]
    pub fn classify_rate(&self, rate: MemUopRate) -> PhaseId {
        let r = rate.get();
        // partition_point: number of boundaries <= r, i.e. boundary values
        // fall into the upper phase (half-open intervals, Table 1).
        let k = self.boundaries.partition_point(|&b| b <= r);
        // k <= boundaries.len() <= 254 (checked in `new`), so k + 1 <= 255.
        PhaseId::new(u8::try_from(k + 1).unwrap_or(u8::MAX))
    }

    /// The half-open Mem/Uop interval `[low, high)` covered by `phase`.
    ///
    /// Phase 1 starts at `0.0`; the last phase is unbounded above
    /// (`f64::INFINITY`).
    ///
    /// # Panics
    ///
    /// Panics if `phase` is not a member of this map.
    #[must_use]
    pub fn interval(&self, phase: PhaseId) -> (f64, f64) {
        let i = phase.index();
        assert!(
            i < self.phase_count(),
            "{phase} is out of range for a {}-phase map",
            self.phase_count()
        );
        let low = i.checked_sub(1).and_then(|j| self.boundaries.get(j));
        let high = self.boundaries.get(i);
        (
            low.copied().unwrap_or(0.0),
            high.copied().unwrap_or(f64::INFINITY),
        )
    }

    /// A representative Mem/Uop value for `phase`: the interval midpoint,
    /// or `low * 1.25` for the unbounded top phase.
    ///
    /// Useful for translating a phase back into an approximate rate, e.g.
    /// when deriving DVFS tables from characterization sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is not a member of this map.
    #[must_use]
    pub fn representative_rate(&self, phase: PhaseId) -> f64 {
        let (low, high) = self.interval(phase);
        if high.is_finite() {
            f64::midpoint(low, high)
        } else {
            low * 1.25
        }
    }

    /// Iterates over all phases of this map in increasing order.
    pub fn phases(&self) -> impl Iterator<Item = PhaseId> + '_ {
        // phase_count <= 255 by the `new` validation, so i always fits.
        (1..=self.phase_count()).map(|i| PhaseId::new(u8::try_from(i).unwrap_or(u8::MAX)))
    }
}

impl Default for PhaseMap {
    /// The Pentium-M Table 1 map.
    fn default() -> Self {
        Self::pentium_m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_classification() {
        let m = PhaseMap::pentium_m();
        // One probe per row of Table 1.
        assert_eq!(m.classify(0.0049).get(), 1);
        assert_eq!(m.classify(0.0050).get(), 2);
        assert_eq!(m.classify(0.0099).get(), 2);
        assert_eq!(m.classify(0.0100).get(), 3);
        assert_eq!(m.classify(0.0149).get(), 3);
        assert_eq!(m.classify(0.0150).get(), 4);
        assert_eq!(m.classify(0.0199).get(), 4);
        assert_eq!(m.classify(0.0200).get(), 5);
        assert_eq!(m.classify(0.0299).get(), 5);
        assert_eq!(m.classify(0.0300).get(), 6);
        assert_eq!(m.classify(0.5).get(), 6);
    }

    #[test]
    fn interval_roundtrip() {
        let m = PhaseMap::pentium_m();
        assert_eq!(m.interval(PhaseId::new(1)), (0.0, 0.005));
        assert_eq!(m.interval(PhaseId::new(5)), (0.020, 0.030));
        let (lo, hi) = m.interval(PhaseId::new(6));
        assert_eq!(lo, 0.030);
        assert!(hi.is_infinite());
    }

    #[test]
    fn representative_rate_is_inside_interval() {
        let m = PhaseMap::pentium_m();
        for p in m.phases() {
            let r = m.representative_rate(p);
            assert_eq!(m.classify(r), p, "representative of {p} reclassifies");
        }
    }

    #[test]
    fn rejects_bad_boundaries() {
        assert_eq!(PhaseMap::new(vec![]), Err(PhaseMapError::Empty));
        assert!(matches!(
            PhaseMap::new(vec![0.01, 0.01]),
            Err(PhaseMapError::NotIncreasing(_, _))
        ));
        assert!(matches!(
            PhaseMap::new(vec![0.02, 0.01]),
            Err(PhaseMapError::NotIncreasing(_, _))
        ));
        assert!(matches!(
            PhaseMap::new(vec![-0.1]),
            Err(PhaseMapError::InvalidBoundary(_))
        ));
        assert!(matches!(
            PhaseMap::new(vec![0.0]),
            Err(PhaseMapError::InvalidBoundary(_))
        ));
        assert!(matches!(
            PhaseMap::new(vec![f64::NAN]),
            Err(PhaseMapError::InvalidBoundary(_))
        ));
    }

    #[test]
    fn custom_two_phase_map() {
        let m = PhaseMap::new(vec![0.01]).unwrap();
        assert_eq!(m.phase_count(), 2);
        assert_eq!(m.classify(0.0).get(), 1);
        assert_eq!(m.classify(0.5).get(), 2);
    }

    #[test]
    fn phases_iterator_covers_map() {
        let m = PhaseMap::pentium_m();
        let ids: Vec<u8> = m.phases().map(PhaseId::get).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn interval_rejects_foreign_phase() {
        let _ = PhaseMap::pentium_m().interval(PhaseId::new(7));
    }

    #[test]
    #[should_panic(expected = "phase ids start at 1")]
    fn phase_zero_is_rejected() {
        let _ = PhaseId::new(0);
    }

    #[test]
    fn display() {
        assert_eq!(PhaseId::new(4).to_string(), "P4");
    }

    #[test]
    fn error_display_nonempty() {
        // C-DEBUG-NONEMPTY / C-GOOD-ERR: all variants render to prose.
        let variants = [
            PhaseMapError::Empty,
            PhaseMapError::NotIncreasing(1.0, 0.5),
            PhaseMapError::InvalidBoundary(-1.0),
            PhaseMapError::TooManyPhases(300),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
