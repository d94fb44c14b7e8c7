//! The phase → DVFS-setting look-up table (the paper's Table 2).
//!
//! Defined once at module initialization on the deployed system and
//! consulted inside the interrupt handler; "for alternative phase
//! definitions or management schemes, we can simply reconfigure this
//! table" (Section 5.2).

use livephase_core::{PhaseId, PhaseMap};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error constructing a [`TranslationTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslationTableError {
    /// The table must cover at least one phase.
    Empty,
    /// An entry referenced a DVFS setting index beyond the platform table.
    SettingOutOfRange {
        /// Phase (1-based) holding the bad entry.
        phase: u8,
        /// The offending setting index.
        setting: usize,
        /// Number of platform settings.
        available: usize,
    },
    /// Entries must be non-decreasing: a more memory-bound phase must not
    /// map to a *faster* setting than a less memory-bound one.
    NotMonotonic {
        /// First phase (1-based) violating monotonicity.
        phase: u8,
    },
}

impl fmt::Display for TranslationTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "translation table must cover at least one phase"),
            Self::SettingOutOfRange {
                phase,
                setting,
                available,
            } => write!(
                f,
                "phase {phase} maps to setting {setting}, but only {available} exist"
            ),
            Self::NotMonotonic { phase } => write!(
                f,
                "phase {phase} maps to a faster setting than a less memory-bound phase"
            ),
        }
    }
}

impl Error for TranslationTableError {}

/// Maps each phase to a DVFS setting index (0 = fastest).
///
/// ```
/// use livephase_engine::TranslationTable;
/// use livephase_core::PhaseId;
/// let t = TranslationTable::pentium_m();
/// assert_eq!(t.setting_for(PhaseId::new(1)), 0); // CPU-bound -> 1500 MHz
/// assert_eq!(t.setting_for(PhaseId::new(6)), 5); // memory-bound -> 600 MHz
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TranslationTable {
    settings: Vec<usize>,
}

impl TranslationTable {
    /// Creates a table; entry `i` is the setting for phase `i + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`TranslationTableError`] if the table is empty, references
    /// a setting `>= available_settings`, or is not monotonic (more
    /// memory-bound phases must map to equal-or-slower settings).
    pub fn new(
        settings: Vec<usize>,
        available_settings: usize,
    ) -> Result<Self, TranslationTableError> {
        if settings.is_empty() {
            return Err(TranslationTableError::Empty);
        }
        for (i, &s) in settings.iter().enumerate() {
            if s >= available_settings {
                return Err(TranslationTableError::SettingOutOfRange {
                    phase: u8::try_from(i + 1).unwrap_or(u8::MAX),
                    setting: s,
                    available: available_settings,
                });
            }
        }
        for (i, (prev, next)) in settings.iter().zip(settings.iter().skip(1)).enumerate() {
            if next < prev {
                return Err(TranslationTableError::NotMonotonic {
                    phase: u8::try_from(i + 2).unwrap_or(u8::MAX),
                });
            }
        }
        Ok(Self { settings })
    }

    /// The paper's Table 2: phase *k* → setting *k − 1* on the six-point
    /// Pentium-M platform (phase 1 → 1500 MHz … phase 6 → 600 MHz).
    #[must_use]
    pub fn pentium_m() -> Self {
        // Built directly rather than through `new`: the identity mapping
        // over six settings is in-range and monotonic by inspection, so
        // this constructor is infallible.
        Self {
            settings: vec![0, 1, 2, 3, 4, 5],
        }
    }

    /// The DVFS setting for `phase`. Phases beyond the table clamp to the
    /// last entry (most conservative slow setting), so a table may be used
    /// with a finer phase map than it was built for.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "i < settings.len() by the min; the table is non-empty by construction"
    )]
    pub fn setting_for(&self, phase: PhaseId) -> usize {
        let i = phase.index().min(self.settings.len() - 1);
        self.settings[i]
    }

    /// Number of phases covered.
    #[must_use]
    pub fn phase_count(&self) -> usize {
        self.settings.len()
    }

    /// The raw mapping, indexed by zero-based phase.
    #[must_use]
    pub fn settings(&self) -> &[usize] {
        &self.settings
    }

    /// Checks that this table covers exactly the phases of `map`.
    #[must_use]
    pub fn covers(&self, map: &PhaseMap) -> bool {
        self.settings.len() == map.phase_count()
    }
}

impl Default for TranslationTable {
    fn default() -> Self {
        Self::pentium_m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pentium_m_is_the_validated_identity_mapping() {
        assert_eq!(
            TranslationTable::pentium_m(),
            TranslationTable::new(vec![0, 1, 2, 3, 4, 5], 6).unwrap()
        );
    }

    #[test]
    fn table2_mapping() {
        let t = TranslationTable::pentium_m();
        for k in 1..=6u8 {
            assert_eq!(t.setting_for(PhaseId::new(k)), usize::from(k) - 1);
        }
        assert!(t.covers(&PhaseMap::pentium_m()));
    }

    #[test]
    fn clamps_beyond_table() {
        let t = TranslationTable::pentium_m();
        assert_eq!(t.setting_for(PhaseId::new(9)), 5);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            TranslationTable::new(vec![], 6),
            Err(TranslationTableError::Empty)
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            TranslationTable::new(vec![0, 6], 6),
            Err(TranslationTableError::SettingOutOfRange {
                phase: 2,
                setting: 6,
                available: 6
            })
        ));
    }

    #[test]
    fn rejects_non_monotonic() {
        assert!(matches!(
            TranslationTable::new(vec![0, 2, 1], 6),
            Err(TranslationTableError::NotMonotonic { phase: 3 })
        ));
    }

    #[test]
    fn allows_plateaus() {
        // A conservative table may pin several phases to the same setting.
        let t = TranslationTable::new(vec![0, 0, 1, 1, 2, 3], 6).unwrap();
        assert_eq!(t.setting_for(PhaseId::new(2)), 0);
        assert_eq!(t.setting_for(PhaseId::new(5)), 2);
    }

    #[test]
    fn errors_display() {
        for e in [
            TranslationTableError::Empty,
            TranslationTableError::SettingOutOfRange {
                phase: 1,
                setting: 9,
                available: 6,
            },
            TranslationTableError::NotMonotonic { phase: 2 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
