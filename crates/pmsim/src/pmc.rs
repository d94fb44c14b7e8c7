//! Performance monitoring counters (PMCs) and the performance monitoring
//! interrupt (PMI).
//!
//! The paper's Pentium-M exposes **two** programmable counters plus the
//! time stamp counter. Its prototype dedicates one programmable counter to
//! `UOPS_RETIRED` — armed to overflow every 100 M uops, which raises the
//! PMI that drives the whole phase-monitoring loop — and the other to
//! `BUS_TRAN_MEM`. This module reproduces that counter file, including the
//! stop/read/clear/restart protocol the interrupt handler follows.

use livephase_core::IntervalMetrics;
use std::fmt;

/// A hardware event a programmable counter can be configured to count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// Micro-ops retired (`UOPS_RETIRED`).
    UopsRetired,
    /// Architectural instructions retired (`INSTR_RETIRED`).
    InstrRetired,
    /// Memory bus transactions (`BUS_TRAN_MEM`).
    BusTranMem,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Event::UopsRetired => "UOPS_RETIRED",
            Event::InstrRetired => "INSTR_RETIRED",
            Event::BusTranMem => "BUS_TRAN_MEM",
        };
        f.write_str(s)
    }
}

/// Event deltas for a slice of execution, used to advance the counter file.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EventCounts {
    /// Micro-ops retired in the slice.
    pub uops: u64,
    /// Instructions retired in the slice.
    pub instructions: u64,
    /// Memory bus transactions in the slice.
    pub mem_transactions: u64,
    /// Core cycles elapsed in the slice (drives the TSC).
    pub cycles: f64,
}

/// One programmable performance counter.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ProgrammableCounter {
    event: Event,
    value: u64,
    /// Counter overflows (raises the PMI) when `value` reaches this.
    overflow_at: Option<u64>,
}

impl ProgrammableCounter {
    fn count_for(&self, c: &EventCounts) -> u64 {
        match self.event {
            Event::UopsRetired => c.uops,
            Event::InstrRetired => c.instructions,
            Event::BusTranMem => c.mem_transactions,
        }
    }
}

/// The simulated counter file: two programmable counters and a TSC.
///
/// ```
/// use livephase_pmsim::pmc::{CounterFile, Event, EventCounts};
///
/// // The paper's configuration: PMI every 100 M uops.
/// let mut pmcs = CounterFile::pentium_m(100_000_000);
/// let slice = EventCounts { uops: 60_000_000, instructions: 50_000_000,
///                           mem_transactions: 900_000, cycles: 9.0e7 };
/// assert_eq!(pmcs.uops_until_overflow(), Some(100_000_000));
/// pmcs.record(&slice);
/// assert_eq!(pmcs.uops_until_overflow(), Some(40_000_000));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CounterFile {
    counters: [ProgrammableCounter; 2],
    /// Ground-truth instructions retired this interval. The real Pentium-M
    /// has no third programmable counter — the paper's evaluation obtains
    /// per-interval instruction counts on the logging side; the simulator
    /// tracks them here as evaluation support.
    instr_retired: u64,
    tsc: f64,
    /// Cycle count at the last interval reset, for TSC deltas.
    tsc_at_reset: f64,
    running: bool,
}

impl CounterFile {
    /// Builds the paper's counter configuration: counter 0 counts
    /// `UOPS_RETIRED` and overflows (raising the PMI) every
    /// `pmi_granularity_uops`; counter 1 counts `BUS_TRAN_MEM`.
    ///
    /// # Panics
    ///
    /// Panics if `pmi_granularity_uops` is zero.
    #[must_use]
    pub fn pentium_m(pmi_granularity_uops: u64) -> Self {
        assert!(pmi_granularity_uops > 0, "PMI granularity must be positive");
        Self {
            counters: [
                ProgrammableCounter {
                    event: Event::UopsRetired,
                    value: 0,
                    overflow_at: Some(pmi_granularity_uops),
                },
                ProgrammableCounter {
                    event: Event::BusTranMem,
                    value: 0,
                    overflow_at: None,
                },
            ],
            instr_retired: 0,
            tsc: 0.0,
            tsc_at_reset: 0.0,
            running: true,
        }
    }

    /// Stops the counters (handler entry).
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// Restarts the counters (handler exit).
    pub fn start(&mut self) {
        self.running = true;
    }

    /// Advances the counters by an execution slice.
    ///
    /// The TSC always advances (it is wall-clock driven); the programmable
    /// counters only advance while running.
    pub fn record(&mut self, counts: &EventCounts) {
        self.tsc += counts.cycles;
        if !self.running {
            return;
        }
        for c in &mut self.counters {
            c.value += c.count_for(counts);
        }
        self.instr_retired += counts.instructions;
    }

    /// Advances only the TSC (stall slices retire nothing).
    pub fn record_stall_cycles(&mut self, cycles: f64) {
        self.tsc += cycles;
    }

    /// Micro-ops that may still retire before the uop counter overflows and
    /// raises the PMI. `None` if no counter is armed for overflow.
    #[must_use]
    pub fn uops_until_overflow(&self) -> Option<u64> {
        self.counters.iter().find_map(|c| {
            if c.event != Event::UopsRetired {
                return None;
            }
            c.overflow_at.map(|t| t.saturating_sub(c.value))
        })
    }

    /// Whether the armed counter has reached its overflow threshold.
    #[must_use]
    pub fn overflow_pending(&self) -> bool {
        self.uops_until_overflow() == Some(0)
    }

    /// Reads the interval metrics accumulated since the last
    /// [`reset_interval`](Self::reset_interval): the handler's
    /// "stop/read counters" step.
    #[must_use]
    pub fn read(&self) -> IntervalMetrics {
        let value_of = |event: Event| {
            self.counters
                .iter()
                .find(|c| c.event == event)
                .map_or(0, |c| c.value)
        };
        IntervalMetrics {
            uops_retired: value_of(Event::UopsRetired),
            instructions_retired: self.instr_retired,
            mem_transactions: value_of(Event::BusTranMem),
            cycles: (self.tsc - self.tsc_at_reset).round() as u64,
        }
    }

    /// Clears the programmable counters and re-bases the TSC delta: the
    /// handler's "reinitialize/start counters" step.
    pub fn reset_interval(&mut self) {
        for c in &mut self.counters {
            c.value = 0;
        }
        self.instr_retired = 0;
        self.tsc_at_reset = self.tsc;
        self.running = true;
    }

    /// The raw (never-reset) time stamp counter, in cycles.
    #[must_use]
    pub fn tsc(&self) -> f64 {
        self.tsc
    }

    /// Re-arms the uop counter to overflow after `uops` *further* retired
    /// micro-ops (relative to its current value). The handler uses this to
    /// lengthen or shorten the next sampling interval on the fly
    /// (adaptive sampling).
    ///
    /// # Panics
    ///
    /// Panics if `uops` is zero.
    pub fn rearm_overflow(&mut self, uops: u64) {
        assert!(uops > 0, "PMI granularity must be positive");
        for c in &mut self.counters {
            if c.event == Event::UopsRetired {
                c.overflow_at = Some(c.value + uops);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(uops: u64, mem: u64) -> EventCounts {
        EventCounts {
            uops,
            instructions: uops * 4 / 5,
            mem_transactions: mem,
            cycles: uops as f64 * 1.5,
        }
    }

    #[test]
    fn counts_and_overflows() {
        let mut f = CounterFile::pentium_m(100);
        f.record(&slice(60, 3));
        assert_eq!(f.uops_until_overflow(), Some(40));
        assert!(!f.overflow_pending());
        f.record(&slice(40, 2));
        assert!(f.overflow_pending());
    }

    #[test]
    fn read_returns_interval_metrics() {
        let mut f = CounterFile::pentium_m(1_000_000);
        f.record(&slice(100, 5));
        let m = f.read();
        assert_eq!(m.uops_retired, 100);
        assert_eq!(m.instructions_retired, 80);
        assert_eq!(m.mem_transactions, 5);
        assert_eq!(m.cycles, 150);
    }

    #[test]
    fn reset_rebases_interval() {
        let mut f = CounterFile::pentium_m(1_000_000);
        f.record(&slice(100, 5));
        f.reset_interval();
        let m = f.read();
        assert_eq!(m.uops_retired, 0);
        assert_eq!(m.cycles, 0);
        // TSC itself is monotone and never reset.
        assert!(f.tsc() > 0.0);
    }

    #[test]
    fn stopped_counters_freeze_but_tsc_advances() {
        let mut f = CounterFile::pentium_m(1_000_000);
        f.stop();
        f.record(&slice(100, 5));
        let m = f.read();
        assert_eq!(m.uops_retired, 0, "stopped counters must not count");
        assert_eq!(m.cycles, 150, "TSC is wall-clock driven");
        f.start();
        f.record(&slice(100, 5));
        assert_eq!(f.read().uops_retired, 100);
    }

    #[test]
    fn stall_cycles_only_move_tsc() {
        let mut f = CounterFile::pentium_m(1_000_000);
        f.record_stall_cycles(500.0);
        let m = f.read();
        assert_eq!(m.cycles, 500);
        assert_eq!(m.uops_retired, 0);
    }

    #[test]
    fn event_display_matches_intel_names() {
        assert_eq!(Event::UopsRetired.to_string(), "UOPS_RETIRED");
        assert_eq!(Event::BusTranMem.to_string(), "BUS_TRAN_MEM");
        assert_eq!(Event::InstrRetired.to_string(), "INSTR_RETIRED");
    }

    #[test]
    #[should_panic(expected = "PMI granularity")]
    fn zero_granularity_rejected() {
        let _ = CounterFile::pentium_m(0);
    }

    #[test]
    fn rearm_changes_the_next_window() {
        let mut f = CounterFile::pentium_m(100);
        f.record(&slice(100, 1));
        assert!(f.overflow_pending());
        f.reset_interval();
        f.rearm_overflow(300);
        f.record(&slice(200, 2));
        assert_eq!(f.uops_until_overflow(), Some(100));
        f.record(&slice(100, 1));
        assert!(f.overflow_pending());
    }

    #[test]
    #[should_panic(expected = "PMI granularity")]
    fn rearm_rejects_zero() {
        CounterFile::pentium_m(100).rearm_overflow(0);
    }
}
