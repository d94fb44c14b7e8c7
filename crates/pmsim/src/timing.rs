//! The execution-time model.
//!
//! Interval execution time is split into two components:
//!
//! ```text
//! T(f) = uops · cpi_core / f   +   mem_transactions · (L_mem / MLP)
//!        └── core work, scales ──┘   └── memory work, fixed in *seconds* ──┘
//! ```
//!
//! * `cpi_core` — core (non-memory-stall) cycles per retired micro-op;
//! * `L_mem` — main-memory round-trip latency in seconds, set by the memory
//!   subsystem and therefore **independent of the core clock**;
//! * `MLP` — memory-level parallelism: the average number of outstanding
//!   memory transactions whose latencies overlap.
//!
//! This two-component structure is the entire physics behind Section 4 of
//! the paper: Mem/Uop (a ratio of two retirement counts) is invariant under
//! DVFS, while UPC = `uops / (T·f)` rises as frequency falls for any
//! workload with a non-zero memory component — memory stalls complete in
//! fewer *core cycles* at lower clocks (Figure 7).

use crate::opp::Frequency;

/// A quantum of work presented to the simulated CPU.
///
/// Workload generators emit these; the paper's sampling granularity makes
/// 100 M-uop chunks the natural unit, but any size works — the CPU splits
/// chunks at PMI boundaries itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalWork {
    /// Micro-ops retired by this chunk.
    pub uops: u64,
    /// Architectural instructions retired (uops ≥ instructions on P6-style
    /// cores that crack instructions into uops).
    pub instructions: u64,
    /// Memory bus transactions issued.
    pub mem_transactions: u64,
    /// Core cycles per uop excluding memory stalls.
    pub cpi_core: f64,
    /// Memory-level parallelism (≥ 1): overlap factor dividing the memory
    /// stall component.
    pub mlp: f64,
}

impl IntervalWork {
    /// Creates a work chunk.
    ///
    /// # Panics
    ///
    /// Panics if `uops` is zero, `cpi_core` is not positive/finite, or
    /// `mlp < 1`.
    #[must_use]
    pub fn new(
        uops: u64,
        instructions: u64,
        mem_transactions: u64,
        cpi_core: f64,
        mlp: f64,
    ) -> Self {
        assert!(uops > 0, "work must retire at least one uop");
        assert!(
            cpi_core.is_finite() && cpi_core > 0.0,
            "cpi_core must be positive and finite, got {cpi_core}"
        );
        assert!(mlp.is_finite() && mlp >= 1.0, "MLP must be >= 1, got {mlp}");
        Self {
            uops,
            instructions,
            mem_transactions,
            cpi_core,
            mlp,
        }
    }

    /// Memory transactions per uop — the phase-defining metric this chunk
    /// will exhibit on any platform at any frequency.
    #[must_use]
    pub fn mem_uop(&self) -> f64 {
        self.mem_transactions as f64 / self.uops as f64
    }

    /// Splits off the first `uops` micro-ops of this chunk, scaling the
    /// other counts proportionally (rounding toward the first part), and
    /// returns `(first, rest)`. `rest` is `None` when `uops` covers the
    /// whole chunk.
    ///
    /// Used by the CPU to stop exactly at a PMI boundary.
    ///
    /// # Panics
    ///
    /// Panics if `uops` is zero or exceeds the chunk size.
    #[must_use]
    pub fn split_at_uops(&self, uops: u64) -> (IntervalWork, Option<IntervalWork>) {
        assert!(uops >= 1 && uops <= self.uops, "split point out of range");
        if uops == self.uops {
            return (*self, None);
        }
        let frac = uops as f64 / self.uops as f64;
        let instr_first = (self.instructions as f64 * frac).round() as u64;
        let mem_first = (self.mem_transactions as f64 * frac).round() as u64;
        let first = IntervalWork {
            uops,
            instructions: instr_first.min(self.instructions),
            mem_transactions: mem_first.min(self.mem_transactions),
            cpi_core: self.cpi_core,
            mlp: self.mlp,
        };
        let rest = IntervalWork {
            uops: self.uops - uops,
            instructions: self.instructions - first.instructions,
            mem_transactions: self.mem_transactions - first.mem_transactions,
            cpi_core: self.cpi_core,
            mlp: self.mlp,
        };
        (first, Some(rest))
    }
}

/// The result of executing a work chunk at a fixed frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Execution {
    /// Wall-clock time of the chunk.
    pub seconds: f64,
    /// Core cycles elapsed (`seconds · f`).
    pub cycles: f64,
    /// Seconds spent in core (non-memory) work.
    pub core_seconds: f64,
    /// Seconds spent stalled on memory.
    pub mem_seconds: f64,
}

impl Execution {
    /// Fraction of time the core was doing non-memory work, in `[0, 1]`.
    /// Drives the activity factor of the power model.
    #[must_use]
    pub fn core_fraction(&self) -> f64 {
        if self.seconds == 0.0 {
            1.0
        } else {
            self.core_seconds / self.seconds
        }
    }
}

/// The platform timing model: the memory subsystem's effective latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Main-memory round-trip latency in nanoseconds (core-clock
    /// independent).
    pub mem_latency_ns: f64,
}

impl TimingModel {
    /// Timing calibrated to the paper's Pentium-M platform: ≈ 110 ns
    /// effective main-memory latency (DDR-era laptop memory). With SPEC-like
    /// MLP values of 2–5 this reproduces the UPC-vs-frequency sensitivities
    /// of Figure 7 (no dependence when CPU-bound, up to ≈ 80 % when
    /// memory-bound) and the UPC/Mem-Uop boundary of Figure 6.
    #[must_use]
    pub fn pentium_m() -> Self {
        Self {
            mem_latency_ns: 110.0,
        }
    }

    /// Executes `work` at frequency `f`.
    #[must_use]
    pub fn execute(&self, work: &IntervalWork, f: Frequency) -> Execution {
        let core_seconds = work.uops as f64 * work.cpi_core / f.hz();
        let mem_seconds = work.mem_transactions as f64 * (self.mem_latency_ns * 1e-9) / work.mlp;
        let seconds = core_seconds + mem_seconds;
        Execution {
            seconds,
            cycles: seconds * f.hz(),
            core_seconds,
            mem_seconds,
        }
    }

    /// Micro-ops per cycle of `work` at frequency `f`.
    #[must_use]
    pub fn upc(&self, work: &IntervalWork, f: Frequency) -> f64 {
        let e = self.execute(work, f);
        work.uops as f64 / e.cycles
    }

    /// Billions of instructions per second of `work` at frequency `f`.
    #[must_use]
    pub fn bips(&self, work: &IntervalWork, f: Frequency) -> f64 {
        let e = self.execute(work, f);
        work.instructions as f64 / e.seconds / 1e9
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        Self::pentium_m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(mhz: u32) -> Frequency {
        Frequency::from_mhz(mhz)
    }

    fn cpu_bound() -> IntervalWork {
        IntervalWork::new(100_000_000, 80_000_000, 0, 0.5, 1.0)
    }

    fn mem_bound() -> IntervalWork {
        IntervalWork::new(100_000_000, 80_000_000, 4_000_000, 0.8, 4.0)
    }

    #[test]
    fn cpu_bound_time_scales_inversely_with_frequency() {
        let t = TimingModel::pentium_m();
        let fast = t.execute(&cpu_bound(), f(1500));
        let slow = t.execute(&cpu_bound(), f(600));
        assert!((slow.seconds / fast.seconds - 2.5).abs() < 1e-9);
    }

    #[test]
    fn cpu_bound_upc_is_frequency_invariant() {
        let t = TimingModel::pentium_m();
        let u1 = t.upc(&cpu_bound(), f(1500));
        let u2 = t.upc(&cpu_bound(), f(600));
        assert!((u1 - u2).abs() < 1e-9, "no memory work => UPC constant");
        assert!((u1 - 2.0).abs() < 1e-9, "UPC = 1/cpi_core");
    }

    #[test]
    fn mem_bound_upc_rises_at_low_frequency() {
        let t = TimingModel::pentium_m();
        let u_fast = t.upc(&mem_bound(), f(1500));
        let u_slow = t.upc(&mem_bound(), f(600));
        assert!(
            u_slow > u_fast * 1.2,
            "memory stalls take fewer core cycles at low f: {u_fast} -> {u_slow}"
        );
    }

    #[test]
    fn mem_seconds_do_not_scale() {
        let t = TimingModel::pentium_m();
        let a = t.execute(&mem_bound(), f(1500));
        let b = t.execute(&mem_bound(), f(600));
        assert!((a.mem_seconds - b.mem_seconds).abs() < 1e-15);
        assert!(b.core_seconds > a.core_seconds);
    }

    #[test]
    fn mem_uop_is_a_pure_work_property() {
        let w = mem_bound();
        assert!((w.mem_uop() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn split_preserves_totals() {
        let w = mem_bound();
        let (a, b) = w.split_at_uops(30_000_000);
        let b = b.unwrap();
        assert_eq!(a.uops + b.uops, w.uops);
        assert_eq!(a.instructions + b.instructions, w.instructions);
        assert_eq!(a.mem_transactions + b.mem_transactions, w.mem_transactions);
        assert_eq!(a.cpi_core, w.cpi_core);
        // Mem/Uop of both halves matches the whole (proportional split).
        assert!((a.mem_uop() - w.mem_uop()).abs() < 1e-6);
        assert!((b.mem_uop() - w.mem_uop()).abs() < 1e-6);
    }

    #[test]
    fn split_at_full_size_returns_none_rest() {
        let w = cpu_bound();
        let (a, b) = w.split_at_uops(w.uops);
        assert_eq!(a, w);
        assert!(b.is_none());
    }

    #[test]
    #[should_panic(expected = "split point out of range")]
    fn split_beyond_size_panics() {
        let _ = cpu_bound().split_at_uops(200_000_000);
    }

    #[test]
    fn execution_core_fraction() {
        let t = TimingModel::pentium_m();
        let e = t.execute(&cpu_bound(), f(1500));
        assert!((e.core_fraction() - 1.0).abs() < 1e-12);
        let e = t.execute(&mem_bound(), f(1500));
        assert!(e.core_fraction() < 1.0 && e.core_fraction() > 0.0);
    }

    #[test]
    fn bips_drops_less_than_frequency_for_mem_bound() {
        let t = TimingModel::pentium_m();
        let hi = t.bips(&mem_bound(), f(1500));
        let lo = t.bips(&mem_bound(), f(600));
        // 2.5x frequency drop must cost well under 2.5x BIPS for memory work.
        assert!(hi / lo < 2.0, "BIPS ratio {}", hi / lo);
    }

    #[test]
    #[should_panic(expected = "at least one uop")]
    fn zero_uop_work_rejected() {
        let _ = IntervalWork::new(0, 0, 0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "MLP")]
    fn sub_one_mlp_rejected() {
        let _ = IntervalWork::new(1, 1, 0, 1.0, 0.5);
    }
}
