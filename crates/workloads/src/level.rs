//! Phase levels: the steady-state operating behaviours a workload visits.

use livephase_pmsim::timing::IntervalWork;

/// One steady-state behaviour of a workload: a target Mem/Uop rate plus the
/// core-side execution characteristics that determine how time-sensitive
/// the behaviour is to frequency scaling.
///
/// Two workloads with the same Mem/Uop can have very different DVFS
/// headroom: a level with low `mlp` (serialized misses) spends most wall
/// time waiting on memory and barely slows down at low frequency, while a
/// high-`mlp` level overlaps its misses and stays core-limited.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseLevel {
    /// Memory bus transactions per micro-op.
    pub mem_uop: f64,
    /// Core cycles per micro-op excluding memory stalls.
    pub cpi_core: f64,
    /// Memory-level parallelism (≥ 1).
    pub mlp: f64,
}

impl PhaseLevel {
    /// Creates a level.
    ///
    /// # Panics
    ///
    /// Panics if any field is non-finite, `mem_uop` is negative,
    /// `cpi_core` is not positive, or `mlp < 1`.
    #[must_use]
    pub fn new(mem_uop: f64, cpi_core: f64, mlp: f64) -> Self {
        assert!(
            mem_uop.is_finite() && mem_uop >= 0.0,
            "mem_uop must be finite and non-negative"
        );
        assert!(
            cpi_core.is_finite() && cpi_core > 0.0,
            "cpi_core must be positive"
        );
        assert!(mlp.is_finite() && mlp >= 1.0, "mlp must be >= 1");
        Self {
            mem_uop,
            cpi_core,
            mlp,
        }
    }

    /// A CPU-bound level: negligible memory traffic.
    #[must_use]
    pub fn cpu_bound() -> Self {
        Self::new(0.001, 0.55, 2.0)
    }

    /// The reference behaviour family: the SPEC-like level observed at a
    /// given memory intensity.
    ///
    /// The paper derives its phase → DVFS domains from the behaviour "for
    /// the common lowest observed concurrency" of its benchmarks
    /// (Section 2) and re-derives conservative domains from IPCxMEM
    /// measurements around the same operating region (Section 6.3). This
    /// function is the analogous anchor here: it returns the level family
    /// the calibrated SPEC stand-ins themselves are built from, keyed by
    /// Mem/Uop — progressively more miss-dominated (lower exposed core
    /// CPI, less overlap) as memory intensity grows.
    #[must_use]
    pub fn reference_family(mem_uop: f64) -> Self {
        assert!(
            mem_uop.is_finite() && mem_uop >= 0.0,
            "mem_uop must be finite and non-negative"
        );
        let (cpi_core, mlp) = if mem_uop < 0.005 {
            (0.55, 2.0) // CPU-bound
        } else if mem_uop < 0.010 {
            (0.70, 2.5) // lightly memory-flavoured
        } else if mem_uop < 0.020 {
            (0.80, 1.6) // mid-range
        } else if mem_uop < 0.030 {
            (0.40, 1.1) // memory-bound
        } else {
            (0.30, 1.0) // extremely memory-bound (swim/mcf territory)
        };
        Self::new(mem_uop, cpi_core, mlp)
    }

    /// Materializes one interval of this level, with the given noise
    /// already applied to the Mem/Uop rate.
    ///
    /// `uops` micro-ops retire, `uops / uop_per_instr` instructions.
    #[must_use]
    pub fn interval(&self, uops: u64, uop_per_instr: f64, noisy_mem_uop: f64) -> IntervalWork {
        let mem = (noisy_mem_uop.max(0.0) * uops as f64).round() as u64;
        let instructions = (uops as f64 / uop_per_instr).round() as u64;
        IntervalWork::new(uops, instructions.max(1), mem, self.cpi_core, self.mlp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_materialization() {
        let l = PhaseLevel::new(0.02, 0.8, 2.0);
        let w = l.interval(100_000_000, 1.25, 0.02);
        assert_eq!(w.uops, 100_000_000);
        assert_eq!(w.instructions, 80_000_000);
        assert_eq!(w.mem_transactions, 2_000_000);
        assert!((w.mem_uop() - 0.02).abs() < 1e-9);
        assert_eq!(w.cpi_core, 0.8);
        assert_eq!(w.mlp, 2.0);
    }

    #[test]
    fn negative_noise_clamps_to_zero_traffic() {
        let l = PhaseLevel::cpu_bound();
        let w = l.interval(1_000_000, 1.0, -0.5);
        assert_eq!(w.mem_transactions, 0);
    }

    #[test]
    fn reference_family_is_progressively_memory_dominated() {
        // Exposed core CPI (the frequency-scalable part) must shrink and
        // overlap must vanish as memory intensity grows past mid-range.
        let mid = PhaseLevel::reference_family(0.015);
        let heavy = PhaseLevel::reference_family(0.025);
        let extreme = PhaseLevel::reference_family(0.05);
        assert!(heavy.cpi_core < mid.cpi_core);
        assert!(extreme.cpi_core < heavy.cpi_core);
        assert!(extreme.mlp <= heavy.mlp && heavy.mlp <= mid.mlp);
        assert_eq!(PhaseLevel::reference_family(0.001).cpi_core, 0.55);
    }

    #[test]
    fn presets_are_valid() {
        let _ = PhaseLevel::cpu_bound();
    }

    #[test]
    #[should_panic(expected = "mlp")]
    fn rejects_bad_mlp() {
        let _ = PhaseLevel::new(0.01, 0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "cpi_core")]
    fn rejects_zero_cpi() {
        let _ = PhaseLevel::new(0.01, 0.0, 1.0);
    }
}
