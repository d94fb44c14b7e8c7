//! The fixed deployment context a decision engine runs in: phase
//! definitions, the phase → operating-point translation table, and the
//! platform name the configuration belongs to.
//!
//! Validation happens **here, once** — the per-sample decision path never
//! converts, checks, or panics. [`EngineConfig::new`] rejects tables that
//! do not fit the wire protocol's `u8` operating-point encoding, then
//! precomputes the phase → `u8` lookup so translation on the hot path is
//! a clamp and an index.

use crate::table::TranslationTable;
use livephase_core::{PhaseId, PhaseMap};
use std::error::Error;
use std::fmt;

/// Error constructing an [`EngineConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineConfigError {
    /// The translation table covers more phases than the wire protocol's
    /// one-byte operating-point count can describe.
    TooManyOpPoints {
        /// Number of phases the table covers.
        count: usize,
    },
    /// A table entry references a setting index beyond `u8::MAX`, which
    /// cannot be framed as a `Decision::op_point`.
    SettingNotEncodable {
        /// Phase (1-based) holding the bad entry.
        phase: usize,
        /// The offending setting index.
        setting: usize,
    },
}

impl fmt::Display for EngineConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooManyOpPoints { count } => write!(
                f,
                "translation table covers {count} phases, more than a u8 op-point count holds"
            ),
            Self::SettingNotEncodable { phase, setting } => write!(
                f,
                "phase {phase} maps to setting {setting}, which does not fit a u8 op-point"
            ),
        }
    }
}

impl Error for EngineConfigError {}

/// The context every decision shares: platform name, phase map, and the
/// translation table (with its precomputed `u8` operating-point form).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    platform: String,
    phase_map: PhaseMap,
    table: TranslationTable,
    /// `op_table[i]` is the operating point for zero-based phase `i`,
    /// validated at construction so hot-path translation is infallible.
    op_table: Vec<u8>,
}

impl EngineConfig {
    /// Builds a configuration, validating that every table entry can be
    /// framed as a one-byte operating point.
    ///
    /// # Errors
    ///
    /// Returns [`EngineConfigError`] if the table covers more than 255
    /// phases or maps any phase to a setting index above `u8::MAX`.
    pub fn new(
        platform: impl Into<String>,
        phase_map: PhaseMap,
        table: TranslationTable,
    ) -> Result<Self, EngineConfigError> {
        let count = table.settings().len();
        if u8::try_from(count).is_err() {
            return Err(EngineConfigError::TooManyOpPoints { count });
        }
        let op_table = table
            .settings()
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                u8::try_from(s).map_err(|_| EngineConfigError::SettingNotEncodable {
                    phase: i + 1,
                    setting: s,
                })
            })
            .collect::<Result<Vec<u8>, _>>()?;
        Ok(Self {
            platform: platform.into(),
            phase_map,
            table,
            op_table,
        })
    }

    /// The deployed configuration: Table 1 phases over the Table 2
    /// mapping, as on the paper's Pentium M. This is the **one**
    /// constructor the governor defaults, the serve server and the
    /// experiment drivers all derive from.
    #[must_use]
    pub fn pentium_m() -> Self {
        match Self::new(
            "pentium_m",
            PhaseMap::pentium_m(),
            TranslationTable::pentium_m(),
        ) {
            Ok(config) => config,
            // Six phases over six one-digit settings always encode.
            Err(_) => unreachable!("the static Pentium M deployment config is valid"),
        }
    }

    /// Platform name clients must announce (and runs are labeled with).
    #[must_use]
    pub fn platform(&self) -> &str {
        &self.platform
    }

    /// The Mem/Uop → phase classification in force.
    #[must_use]
    pub fn phase_map(&self) -> &PhaseMap {
        &self.phase_map
    }

    /// The phase → DVFS setting mapping in force.
    #[must_use]
    pub fn table(&self) -> &TranslationTable {
        &self.table
    }

    /// Number of operating points decisions index into.
    #[must_use]
    pub fn op_points(&self) -> u8 {
        // Validated at construction: the table length fits a u8.
        u8::try_from(self.op_table.len()).unwrap_or(u8::MAX)
    }

    /// The operating point for `phase`. Phases beyond the table clamp to
    /// the last entry, exactly as [`TranslationTable::setting_for`].
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "i < op_table.len() by the min; the table is non-empty by construction"
    )]
    pub fn op_point_for(&self, phase: PhaseId) -> u8 {
        let i = phase.index().min(self.op_table.len() - 1);
        self.op_table[i]
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::pentium_m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pentium_m_is_the_deployed_context() {
        let c = EngineConfig::pentium_m();
        assert_eq!(c.platform(), "pentium_m");
        assert_eq!(c.op_points(), 6);
        assert_eq!(c.table(), &TranslationTable::pentium_m());
        for k in 1..=6u8 {
            assert_eq!(c.op_point_for(PhaseId::new(k)), k - 1);
        }
        // Clamps beyond the table, like the table itself.
        assert_eq!(c.op_point_for(PhaseId::new(9)), 5);
    }

    #[test]
    fn op_point_agrees_with_the_table() {
        let c = EngineConfig::pentium_m();
        for k in 1..=9u8 {
            let phase = PhaseId::new(k);
            assert_eq!(
                usize::from(c.op_point_for(phase)),
                c.table().setting_for(phase)
            );
        }
    }

    #[test]
    fn rejects_unencodable_settings() {
        let table = TranslationTable::new(vec![0, 300], 301).unwrap();
        assert_eq!(
            EngineConfig::new("big", PhaseMap::pentium_m(), table).unwrap_err(),
            EngineConfigError::SettingNotEncodable {
                phase: 2,
                setting: 300
            }
        );
    }

    #[test]
    fn rejects_oversized_tables() {
        let table = TranslationTable::new(vec![0; 300], 1).unwrap();
        assert!(matches!(
            EngineConfig::new("wide", PhaseMap::pentium_m(), table),
            Err(EngineConfigError::TooManyOpPoints { count: 300 })
        ));
    }

    #[test]
    fn errors_display() {
        for e in [
            EngineConfigError::TooManyOpPoints { count: 300 },
            EngineConfigError::SettingNotEncodable {
                phase: 2,
                setting: 300,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
