//! Phase-conditioned power estimation.
//!
//! Thermal and power-capping policies need to know, *before* committing to
//! a DVFS setting, roughly how much power the predicted phase will draw at
//! each candidate setting. The estimator evaluates the platform's timing
//! and power models on the reference behaviour of the phase's Mem/Uop
//! band — the same anchor the conservative derivation uses.

use livephase_core::{PhaseId, PhaseMap};
use livephase_pmsim::{
    AnalyticModel, OperatingPointTable, PlatformConfig, PowerInput, PowerModel, TimingModel,
};
use livephase_workloads::PhaseLevel;

/// Estimates per-setting power draw for each phase of a map.
#[derive(Debug, Clone)]
pub struct PowerEstimator {
    /// `table[phase.index()][setting]` in watts.
    table: Vec<Vec<f64>>,
}

impl PowerEstimator {
    /// Precomputes the estimate table for a phase map on a platform.
    /// Works against any [`PowerModel`] backend: the analytic default
    /// reads the timing model's core fraction (numerically identical to
    /// the pre-trait estimator), while learned backends additionally see
    /// the band's reference counter features.
    #[must_use]
    pub fn new(
        map: &PhaseMap,
        opps: &OperatingPointTable,
        timing: &TimingModel,
        power: &dyn PowerModel,
    ) -> Self {
        let table = map
            .phases()
            .map(|phase| {
                // Bounding policies must cover the *worst case within the
                // band*: power falls with memory intensity, so the hottest
                // behaviour a phase can hide is its lower Mem/Uop edge.
                let (band_low, _) = map.interval(phase);
                let level = PhaseLevel::reference_family(band_low);
                let work = level.interval(100_000_000, 1.25, level.mem_uop.max(1e-6));
                opps.iter()
                    .map(|(_, opp)| {
                        let exec = timing.execute(&work, opp.frequency);
                        let input = PowerInput {
                            core_fraction: exec.core_fraction(),
                            mem_uop: band_low,
                            upc: timing.upc(&work, opp.frequency),
                        };
                        power.power(opp, &input)
                    })
                    .collect()
            })
            .collect();
        Self { table }
    }

    /// The estimator for the paper's platform under Table 1 phases.
    #[must_use]
    pub fn pentium_m() -> Self {
        Self::new(
            &PhaseMap::pentium_m(),
            &OperatingPointTable::pentium_m(),
            &TimingModel::pentium_m(),
            &AnalyticModel::pentium_m(),
        )
    }

    /// The estimator a platform configuration implies: Table 1 phases
    /// against the platform's own operating points, timing, and power
    /// backend — how `--power-model` reaches capping/thermal policies.
    #[must_use]
    pub fn for_platform(platform: &PlatformConfig) -> Self {
        Self::new(
            &PhaseMap::pentium_m(),
            &platform.opp_table,
            &platform.timing,
            &platform.power,
        )
    }

    /// Estimated power (watts) of `phase` at `setting`.
    ///
    /// Phases beyond the map clamp to the last band; settings beyond the
    /// platform clamp to the slowest.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "indices clamped below len; the table and its rows are non-empty by construction"
    )]
    pub fn power_w(&self, phase: PhaseId, setting: usize) -> f64 {
        let row = &self.table[phase.index().min(self.table.len() - 1)];
        row[setting.min(row.len() - 1)]
    }

    /// Number of settings per phase.
    #[must_use]
    pub fn settings(&self) -> usize {
        self.table.first().map_or(0, Vec::len)
    }

    /// The fastest (lowest-index) setting whose estimated power for
    /// `phase` stays at or below `cap_w`; falls back to the slowest
    /// setting when even that exceeds the cap.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "index clamped below len; the table is non-empty by construction"
    )]
    pub fn fastest_under_cap(&self, phase: PhaseId, cap_w: f64) -> usize {
        let row = &self.table[phase.index().min(self.table.len() - 1)];
        row.iter()
            .position(|&p| p <= cap_w)
            .unwrap_or(row.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_fall_with_setting() {
        let e = PowerEstimator::pentium_m();
        for phase in PhaseMap::pentium_m().phases() {
            for k in 1..e.settings() {
                assert!(
                    e.power_w(phase, k) < e.power_w(phase, k - 1),
                    "{phase} setting {k}"
                );
            }
        }
    }

    #[test]
    fn cpu_bound_draws_more_than_memory_bound() {
        let e = PowerEstimator::pentium_m();
        assert!(e.power_w(PhaseId::new(1), 0) > e.power_w(PhaseId::new(6), 0));
    }

    #[test]
    fn cap_selection_is_fastest_admissible() {
        let e = PowerEstimator::pentium_m();
        let p = PhaseId::new(1);
        let k = e.fastest_under_cap(p, 8.0);
        assert!(e.power_w(p, k) <= 8.0);
        if k > 0 {
            assert!(e.power_w(p, k - 1) > 8.0, "one faster would break the cap");
        }
    }

    #[test]
    fn impossible_cap_falls_back_to_slowest() {
        let e = PowerEstimator::pentium_m();
        assert_eq!(e.fastest_under_cap(PhaseId::new(1), 0.1), e.settings() - 1);
    }

    #[test]
    fn generous_cap_allows_full_speed() {
        let e = PowerEstimator::pentium_m();
        assert_eq!(e.fastest_under_cap(PhaseId::new(1), 100.0), 0);
    }

    #[test]
    fn clamping_is_safe() {
        let e = PowerEstimator::pentium_m();
        let beyond_phase = e.power_w(PhaseId::new(30), 0);
        assert!(beyond_phase > 0.0);
        let beyond_setting = e.power_w(PhaseId::new(1), 99);
        assert!((beyond_setting - e.power_w(PhaseId::new(1), 5)).abs() < 1e-12);
    }
}
