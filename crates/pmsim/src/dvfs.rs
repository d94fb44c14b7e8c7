//! The DVFS mode-set interface (Intel SpeedStep on the paper's platform).
//!
//! The PMI handler translates the predicted phase into one of the table's
//! settings and, *only if it differs from the current one*, writes the mode
//! set registers (Figure 8). A transition stalls execution briefly; the
//! paper quotes combined handler + DVFS overheads of 10–100 µs against the
//! ≈ 100 ms sampling interval, i.e. invisible in practice — but we model
//! the stall anyway so that overheads show up honestly in the results.

use crate::opp::{OperatingPoint, OperatingPointTable};
use std::error::Error;
use std::fmt;

/// Error returned when requesting a DVFS setting outside the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidSetting {
    /// The requested setting index.
    pub requested: usize,
    /// Number of settings the platform supports.
    pub available: usize,
}

impl fmt::Display for InvalidSetting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DVFS setting {} out of range (platform has {} settings)",
            self.requested, self.available
        )
    }
}

impl Error for InvalidSetting {}

/// The SpeedStep-like controller: current setting plus transition cost.
///
/// ```
/// use livephase_pmsim::{DvfsController, OperatingPointTable};
/// let mut d = DvfsController::new(OperatingPointTable::pentium_m(), 50e-6);
/// assert_eq!(d.current().frequency.mhz(), 1500);
/// let stall = d.request(5).unwrap();
/// assert_eq!(stall, 50e-6);                      // a real switch stalls
/// assert_eq!(d.request(5).unwrap(), 0.0);        // same setting: no cost
/// assert_eq!(d.current().frequency.mhz(), 600);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsController {
    table: OperatingPointTable,
    current: usize,
    transition_latency_s: f64,
    transitions: u64,
}

impl DvfsController {
    /// Creates a controller starting at the fastest setting (index 0) —
    /// how an unmanaged system boots.
    ///
    /// # Panics
    ///
    /// Panics if `transition_latency_s` is negative or non-finite.
    #[must_use]
    pub fn new(table: OperatingPointTable, transition_latency_s: f64) -> Self {
        assert!(
            transition_latency_s.is_finite() && transition_latency_s >= 0.0,
            "transition latency must be finite and non-negative"
        );
        Self {
            table,
            current: 0,
            transition_latency_s,
            transitions: 0,
        }
    }

    /// The current operating point.
    #[must_use]
    pub fn current(&self) -> OperatingPoint {
        // `set` rejects out-of-range indices, so the fallback never fires.
        self.table
            .get(self.current)
            .unwrap_or_else(|| self.table.fastest())
    }

    /// The current setting index (0 = fastest).
    #[must_use]
    pub fn current_index(&self) -> usize {
        self.current
    }

    /// The setting table.
    #[must_use]
    pub fn table(&self) -> &OperatingPointTable {
        &self.table
    }

    /// Requests setting `index`, returning the stall time (seconds) the
    /// switch costs: zero when the setting is unchanged, the transition
    /// latency otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSetting`] when `index` is out of range; the current
    /// setting is left untouched.
    pub fn request(&mut self, index: usize) -> Result<f64, InvalidSetting> {
        if index >= self.table.len() {
            return Err(InvalidSetting {
                requested: index,
                available: self.table.len(),
            });
        }
        if index == self.current {
            return Ok(0.0);
        }
        self.current = index;
        self.transitions += 1;
        Ok(self.transition_latency_s)
    }

    /// Number of actual voltage/frequency switches performed.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The per-switch stall time in seconds.
    #[must_use]
    pub fn transition_latency_s(&self) -> f64 {
        self.transition_latency_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> DvfsController {
        DvfsController::new(OperatingPointTable::pentium_m(), 50e-6)
    }

    #[test]
    fn boots_at_fastest() {
        assert_eq!(ctl().current().frequency.mhz(), 1500);
        assert_eq!(ctl().current_index(), 0);
    }

    #[test]
    fn switch_costs_latency_once() {
        let mut d = ctl();
        assert_eq!(d.request(3).unwrap(), 50e-6);
        assert_eq!(d.request(3).unwrap(), 0.0, "no-op requests are free");
        assert_eq!(d.transitions(), 1);
        assert_eq!(d.current().frequency.mhz(), 1000);
    }

    #[test]
    fn out_of_range_is_an_error_and_harmless() {
        let mut d = ctl();
        let err = d.request(6).unwrap_err();
        assert_eq!(err.requested, 6);
        assert_eq!(err.available, 6);
        assert_eq!(d.current_index(), 0, "failed request leaves state alone");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn counts_every_real_transition() {
        let mut d = ctl();
        for i in [1usize, 2, 1, 0, 5, 5, 0] {
            let _ = d.request(i).unwrap();
        }
        assert_eq!(d.transitions(), 6, "the repeated 5 is free");
    }

    #[test]
    #[should_panic(expected = "transition latency")]
    fn negative_latency_rejected() {
        let _ = DvfsController::new(OperatingPointTable::pentium_m(), -1.0);
    }
}
