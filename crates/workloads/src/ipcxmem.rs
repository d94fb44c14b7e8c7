//! The IPCxMEM characterization suite (Section 4 of the paper).
//!
//! The paper develops "a suite of configurable applications that can
//! pinpoint specific (UPC, Mem/Uop) coordinates" to probe how the tracked
//! metrics respond to DVFS at *all* corners of the behaviour space, not
//! just where SPEC happens to land. The suite covers a grid over the
//! space (Figure 6) and is re-run at every frequency (Figure 7); Section
//! 6.3 reuses it to derive performance-bounded phase definitions.
//!
//! Here the suite is reproduced by inverting the platform timing model:
//! given a target `(UPC @ f_ref, Mem/Uop)`, solve for the `(cpi_core, MLP)`
//! pair that realizes it. Two regimes exist:
//!
//! * misses are kept as serialized as possible (minimal MLP): this
//!   maximizes the frequency-invariant share of wall time, matching the
//!   paper's observation of up to ≈ 80 % UPC movement for the most
//!   memory-bound configurations;
//! * MLP is raised only when the core-CPI floor would otherwise be
//!   violated, and is bounded by `max_mlp` (the hardware outstanding-miss
//!   limit), which produces the achievable-UPC frontier ("SPEC boundary")
//!   of Figure 6.

use crate::level::PhaseLevel;
use crate::source::{ConstantSource, IntervalSource};
use crate::trace::WorkloadTrace;
use livephase_pmsim::opp::Frequency;
use livephase_pmsim::timing::TimingModel;

/// A requested coordinate in the (UPC, Mem/Uop) behaviour space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpcxMemConfig {
    /// Target micro-ops per cycle at the suite's reference frequency.
    pub target_upc: f64,
    /// Target memory bus transactions per micro-op.
    pub mem_uop: f64,
}

impl IpcxMemConfig {
    /// A short identifier, e.g. `ipcxmem_u0.90_m0.0075`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("ipcxmem_u{:.2}_m{:.4}", self.target_upc, self.mem_uop)
    }
}

/// The configurable micro-suite: a solver from behaviour-space coordinates
/// to executable workload levels.
#[derive(Debug, Clone, PartialEq)]
pub struct IpcxMemSuite {
    timing: TimingModel,
    reference: Frequency,
    /// Minimum realizable core CPI (issue-width limit).
    min_cpi_core: f64,
    /// Maximum overlapped misses (MSHR limit).
    max_mlp: f64,
}

impl IpcxMemSuite {
    /// The suite as configured for the paper's platform: 1500 MHz reference
    /// frequency, 0.5 minimum core CPI (the ≈ 2-uop-wide Pentium-M), and at
    /// most 5 overlapped misses.
    #[must_use]
    pub fn pentium_m() -> Self {
        Self {
            timing: TimingModel::pentium_m(),
            reference: Frequency::from_mhz(1500),
            min_cpi_core: 0.5,
            max_mlp: 5.0,
        }
    }

    /// The reference frequency at which targets are specified.
    #[must_use]
    pub fn reference_frequency(&self) -> Frequency {
        self.reference
    }

    /// The highest UPC achievable at the given Mem/Uop — the frontier
    /// curve of Figure 6.
    #[must_use]
    pub fn max_upc(&self, mem_uop: f64) -> f64 {
        let mem_cycles =
            mem_uop * self.timing.mem_latency_ns * 1e-9 * self.reference.hz() / self.max_mlp;
        1.0 / (self.min_cpi_core + mem_cycles)
    }

    /// Solves a target coordinate into an executable [`PhaseLevel`].
    ///
    /// Returns `None` when the coordinate lies beyond the achievable
    /// frontier (cf. [`max_upc`](Self::max_upc)) or below the minimum
    /// sensible UPC.
    #[must_use]
    pub fn solve(&self, config: IpcxMemConfig) -> Option<PhaseLevel> {
        let IpcxMemConfig {
            target_upc,
            mem_uop,
        } = config;
        if !(target_upc > 0.0 && target_upc.is_finite()) || mem_uop < 0.0 {
            return None;
        }
        let total_cpi = 1.0 / target_upc;
        if total_cpi <= self.min_cpi_core {
            return None;
        }
        // Memory cycles per uop at MLP = 1 and the reference frequency.
        let mem_cycles_serial = mem_uop * self.timing.mem_latency_ns * 1e-9 * self.reference.hz();
        // Keep misses as serialized as the core-CPI floor allows.
        let mlp = (mem_cycles_serial / (total_cpi - self.min_cpi_core)).max(1.0);
        if mlp > self.max_mlp {
            return None;
        }
        let cpi_core = total_cpi - mem_cycles_serial / mlp;
        debug_assert!(cpi_core >= self.min_cpi_core - 1e-12 || mlp == 1.0);
        Some(PhaseLevel::new(mem_uop, cpi_core, mlp))
    }

    /// The grid of Figure 6: UPC from 0.1 to 1.9 in steps of 0.2 crossed
    /// with Mem/Uop levels from 0 to 0.0475, keeping only achievable
    /// coordinates (≈ 50 configurations, as in the paper).
    #[must_use]
    pub fn grid(&self) -> Vec<IpcxMemConfig> {
        let mut configs = Vec::new();
        let mem_levels = [
            0.0, 0.0025, 0.0075, 0.0125, 0.0175, 0.0225, 0.0275, 0.0325, 0.0375, 0.0425, 0.0475,
        ];
        for i in 0..10 {
            let upc = 0.1 + 0.2 * f64::from(i);
            for &m in &mem_levels {
                let cfg = IpcxMemConfig {
                    target_upc: upc,
                    mem_uop: m,
                };
                if self.solve(cfg).is_some() {
                    configs.push(cfg);
                }
            }
        }
        configs
    }

    /// Opens a solved configuration as a streaming source of `intervals`
    /// identical 100 M-uop sampling intervals — O(1) memory regardless of
    /// run length.
    ///
    /// Returns `None` when the coordinate is not achievable.
    #[must_use]
    pub fn source(&self, config: IpcxMemConfig, intervals: usize) -> Option<ConstantSource> {
        let level = self.solve(config)?;
        let work = level.interval(100_000_000, 1.25, level.mem_uop);
        Some(ConstantSource::new(config.name(), work, intervals))
    }

    /// Materializes a solved configuration as a constant workload trace of
    /// `intervals` 100 M-uop sampling intervals.
    ///
    /// Returns `None` when the coordinate is not achievable.
    #[must_use]
    pub fn trace(&self, config: IpcxMemConfig, intervals: usize) -> Option<WorkloadTrace> {
        Some(self.source(config, intervals)?.collect_trace())
    }
}

impl Default for IpcxMemSuite {
    fn default() -> Self {
        Self::pentium_m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite() -> IpcxMemSuite {
        IpcxMemSuite::pentium_m()
    }

    #[test]
    fn solved_levels_hit_their_targets() {
        let s = suite();
        for cfg in s.grid() {
            let level = s.solve(cfg).expect("grid points are feasible");
            // Verify forward through the timing model.
            let work = level.interval(100_000_000, 1.25, level.mem_uop);
            let upc = s.timing.upc(&work, s.reference);
            assert!(
                (upc - cfg.target_upc).abs() < 0.02,
                "{}: wanted UPC {}, got {upc}",
                cfg.name(),
                cfg.target_upc
            );
            assert!((work.mem_uop() - cfg.mem_uop).abs() < 1e-4);
        }
    }

    #[test]
    fn grid_covers_roughly_fifty_points() {
        let n = suite().grid().len();
        assert!(
            (35..=75).contains(&n),
            "expected a Figure 6-sized grid, got {n} points"
        );
    }

    #[test]
    fn frontier_excludes_impossible_points() {
        let s = suite();
        // CPU-bound fast code is fine...
        assert!(s
            .solve(IpcxMemConfig {
                target_upc: 1.9,
                mem_uop: 0.0
            })
            .is_some());
        // ...but fast *and* extremely memory-bound is not achievable.
        assert!(s
            .solve(IpcxMemConfig {
                target_upc: 1.9,
                mem_uop: 0.045
            })
            .is_none());
    }

    #[test]
    fn max_upc_is_decreasing_in_memory_boundedness() {
        let s = suite();
        let mut prev = f64::INFINITY;
        for m in [0.0, 0.01, 0.02, 0.03, 0.04, 0.05] {
            let u = s.max_upc(m);
            assert!(u < prev);
            prev = u;
        }
        assert!((s.max_upc(0.0) - 2.0).abs() < 1e-9, "1/min_cpi_core at m=0");
    }

    #[test]
    fn mem_uop_is_frequency_invariant_and_upc_is_not() {
        let s = suite();
        let cfg = IpcxMemConfig {
            target_upc: 0.1,
            mem_uop: 0.0475,
        };
        let level = s.solve(cfg).unwrap();
        let work = level.interval(100_000_000, 1.25, level.mem_uop);
        let upc_fast = s.timing.upc(&work, Frequency::from_mhz(1500));
        let upc_slow = s.timing.upc(&work, Frequency::from_mhz(600));
        // Figure 7: memory-bound UPC rises substantially at low frequency…
        assert!(
            upc_slow / upc_fast > 1.5,
            "UPC should rise >50% ({upc_fast} -> {upc_slow})"
        );
        // …while Mem/Uop is a pure work property (same IntervalWork).
        assert!((work.mem_uop() - 0.0475).abs() < 1e-9);
    }

    #[test]
    fn cpu_bound_upc_is_flat_across_frequency() {
        let s = suite();
        let level = s
            .solve(IpcxMemConfig {
                target_upc: 0.9,
                mem_uop: 0.0,
            })
            .unwrap();
        let work = level.interval(100_000_000, 1.25, 0.0);
        let a = s.timing.upc(&work, Frequency::from_mhz(1500));
        let b = s.timing.upc(&work, Frequency::from_mhz(600));
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn trace_materialization() {
        let s = suite();
        let cfg = IpcxMemConfig {
            target_upc: 0.5,
            mem_uop: 0.0225,
        };
        let t = s.trace(cfg, 10).unwrap();
        assert_eq!(t.len(), 10);
        assert_eq!(t.name(), "ipcxmem_u0.50_m0.0225");
        let st = t.characterize();
        assert_eq!(st.sample_variation_pct, 0.0, "suite apps are constant");
    }

    #[test]
    fn source_streams_what_trace_materializes() {
        let s = suite();
        let cfg = IpcxMemConfig {
            target_upc: 0.7,
            mem_uop: 0.0125,
        };
        let mut src = s.source(cfg, 6).unwrap();
        assert_eq!(src.len_hint(), Some(6));
        let streamed: Vec<_> = std::iter::from_fn(|| src.next_interval()).collect();
        assert_eq!(streamed.as_slice(), s.trace(cfg, 6).unwrap().intervals());
    }

    #[test]
    fn infeasible_trace_is_none() {
        let s = suite();
        assert!(s
            .trace(
                IpcxMemConfig {
                    target_upc: 5.0,
                    mem_uop: 0.0
                },
                5
            )
            .is_none());
        assert!(s
            .solve(IpcxMemConfig {
                target_upc: -1.0,
                mem_uop: 0.0
            })
            .is_none());
    }
}
