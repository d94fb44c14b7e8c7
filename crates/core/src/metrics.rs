//! Execution metrics observed through performance monitoring counters.
//!
//! The paper monitors two programmable PMCs — `UOPS_RETIRED` and
//! `BUS_TRAN_MEM` — plus the time stamp counter. From those raw counts two
//! derived metrics matter:
//!
//! * **Mem/Uop** ([`MemUopRate`]): memory bus transactions per retired
//!   micro-op. The paper's phase definitions are built on this metric
//!   because it is *DVFS-invariant* (Section 4, Figure 7): memory traffic
//!   per unit of work does not change when the core clock changes.
//! * **UPC** ([`Upc`]): micro-ops retired per cycle. UPC is *not*
//!   DVFS-invariant for memory-bound code (memory latency does not scale
//!   with core frequency), which is exactly why the paper refuses to define
//!   phases on it.

use std::fmt;

/// Memory bus transactions per retired micro-op.
///
/// This is the paper's phase-defining metric. Values are small —
/// SPEC CPU2000 spans roughly `0.0` (fully CPU-bound) to `0.12` (mcf).
///
/// ```
/// use livephase_core::MemUopRate;
/// let r = MemUopRate::new(0.0125);
/// assert!(r.get() > 0.01 && r.get() < 0.015);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct MemUopRate(f64);

impl MemUopRate {
    /// Creates a rate from a raw ratio.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative, NaN or infinite — counter-derived
    /// ratios are always finite and non-negative.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "Mem/Uop rate must be finite and non-negative, got {rate}"
        );
        Self(rate)
    }

    /// Computes the rate from raw counter values.
    ///
    /// Returns zero when no uops retired (an empty interval).
    #[must_use]
    pub fn from_counts(mem_transactions: u64, uops_retired: u64) -> Self {
        if uops_retired == 0 {
            Self(0.0)
        } else {
            Self(mem_transactions as f64 / uops_retired as f64)
        }
    }

    /// The raw ratio.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Default for MemUopRate {
    fn default() -> Self {
        Self(0.0)
    }
}

impl fmt::Display for MemUopRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl From<MemUopRate> for f64 {
    fn from(r: MemUopRate) -> f64 {
        r.0
    }
}

/// Micro-ops retired per cycle.
///
/// Derived from the uop PMC and the time stamp counter. See the module
/// documentation for why this metric must not be used to *define* phases
/// under dynamic power management.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Upc(f64);

impl Upc {
    /// Creates a UPC value.
    ///
    /// # Panics
    ///
    /// Panics if `upc` is negative, NaN or infinite.
    #[must_use]
    pub fn new(upc: f64) -> Self {
        assert!(
            upc.is_finite() && upc >= 0.0,
            "UPC must be finite and non-negative, got {upc}"
        );
        Self(upc)
    }

    /// Computes UPC from raw counter values.
    ///
    /// Returns zero when no cycles elapsed.
    #[must_use]
    pub fn from_counts(uops_retired: u64, cycles: u64) -> Self {
        if cycles == 0 {
            Self(0.0)
        } else {
            Self(uops_retired as f64 / cycles as f64)
        }
    }

    /// The raw ratio.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Default for Upc {
    fn default() -> Self {
        Self(0.0)
    }
}

impl fmt::Display for Upc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl From<Upc> for f64 {
    fn from(u: Upc) -> f64 {
        u.0
    }
}

/// Raw counter readings for one sampling interval, as collected by the PMI
/// handler when the uop counter overflows.
///
/// This is the complete information the paper's loadable kernel module logs
/// per 100 M-uop interval: the two programmable counters and the TSC delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntervalMetrics {
    /// Micro-ops retired in the interval (the PMI granularity, normally 100 M).
    pub uops_retired: u64,
    /// Instructions retired in the interval.
    pub instructions_retired: u64,
    /// Memory bus transactions in the interval (`BUS_TRAN_MEM`).
    pub mem_transactions: u64,
    /// Core cycles elapsed in the interval (TSC delta).
    pub cycles: u64,
}

impl IntervalMetrics {
    /// Memory-boundedness of the interval.
    #[must_use]
    pub fn mem_uop(&self) -> MemUopRate {
        MemUopRate::from_counts(self.mem_transactions, self.uops_retired)
    }

    /// Micro-ops per cycle of the interval.
    #[must_use]
    pub fn upc(&self) -> Upc {
        Upc::from_counts(self.uops_retired, self.cycles)
    }

    /// Available concurrency proxy used by Wu et al.: uops per instruction.
    ///
    /// Returns `1.0` for an empty interval.
    #[must_use]
    pub fn uops_per_instruction(&self) -> f64 {
        if self.instructions_retired == 0 {
            1.0
        } else {
            self.uops_retired as f64 / self.instructions_retired as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_uop_from_counts() {
        let r = MemUopRate::from_counts(2_000_000, 100_000_000);
        assert!((r.get() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn mem_uop_empty_interval_is_zero() {
        assert_eq!(MemUopRate::from_counts(5, 0).get(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn mem_uop_rejects_negative() {
        let _ = MemUopRate::new(-0.1);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn mem_uop_rejects_nan() {
        let _ = MemUopRate::new(f64::NAN);
    }

    #[test]
    fn upc_from_counts() {
        let u = Upc::from_counts(100, 50);
        assert!((u.get() - 2.0).abs() < 1e-12);
        assert_eq!(Upc::from_counts(100, 0).get(), 0.0);
    }

    #[test]
    fn interval_metrics_derived() {
        let m = IntervalMetrics {
            uops_retired: 100_000_000,
            instructions_retired: 80_000_000,
            mem_transactions: 1_500_000,
            cycles: 200_000_000,
        };
        assert!((m.mem_uop().get() - 0.015).abs() < 1e-12);
        assert!((m.upc().get() - 0.5).abs() < 1e-12);
        assert!((m.uops_per_instruction() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn uops_per_instruction_defaults_to_one() {
        assert_eq!(IntervalMetrics::default().uops_per_instruction(), 1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(MemUopRate::new(0.01234).to_string(), "0.0123");
        assert_eq!(Upc::new(1.5).to_string(), "1.500");
    }

    #[test]
    fn ordering_works() {
        assert!(MemUopRate::new(0.01) < MemUopRate::new(0.02));
        assert!(Upc::new(1.0) < Upc::new(2.0));
    }
}
