//! The analytical backend: switching power plus leakage.
//!
//! Package power is modeled as:
//!
//! ```text
//! P(f, V, a) = k_dyn · a · V² · f  +  k_leak · V³
//! ```
//!
//! Leakage scales superlinearly with supply voltage (subthreshold current
//! grows steeply with `V`), which is what makes deep DVFS settings pay off
//! on real silicon — the paper measures > 60 % EDP gains on its most
//! memory-bound workloads, only possible when the low-voltage settings
//! shed leakage as well as switching power.
//!
//! The *activity factor* `a` blends full-rate switching during core work
//! with residual clock/queue activity during memory stalls:
//!
//! ```text
//! a = core_fraction + stall_activity · (1 − core_fraction)
//! ```
//!
//! The default calibration targets the power envelope measured by the
//! paper's DAQ rig (Figure 10): ≈ 13 W running CPU-bound code at
//! 1.5 GHz / 1.484 V and ≈ 3 W at 600 MHz / 0.956 V.

use super::{PowerInput, PowerModel};
use crate::opp::OperatingPoint;

/// Coefficients of the analytical power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticModel {
    /// Effective switching capacitance coefficient, in watts per V²·GHz at
    /// activity 1.
    pub k_dyn: f64,
    /// Residual activity during memory stalls, in `[0, 1]`. The Pentium-M
    /// keeps clocks running while stalled, so this is well above zero.
    pub stall_activity: f64,
    /// Leakage coefficient in watts per volt cubed.
    pub k_leak: f64,
}

impl AnalyticModel {
    /// Calibration for the paper's Pentium-M prototype: 13 W fully active at
    /// the top operating point, ≈ 3 W at the bottom.
    #[must_use]
    pub fn pentium_m() -> Self {
        Self {
            k_dyn: 3.33,
            stall_activity: 0.35,
            k_leak: 0.60,
        }
    }

    /// Package power at `opp` with the given fraction of time in core
    /// (non-stall) work. (Named `activity_power` rather than `power` so
    /// the inherent method cannot shadow the trait method, whose input
    /// type differs.)
    ///
    /// # Panics
    ///
    /// Panics if `core_fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn activity_power(&self, opp: OperatingPoint, core_fraction: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&core_fraction),
            "core fraction must be in [0,1], got {core_fraction}"
        );
        let a = core_fraction + self.stall_activity * (1.0 - core_fraction);
        let v = opp.voltage.volts();
        self.k_dyn * a * v * v * opp.frequency.ghz() + self.k_leak * v * v * v
    }

    /// Energy of an execution slice: `power · seconds`.
    #[must_use]
    pub fn energy(&self, opp: OperatingPoint, core_fraction: f64, seconds: f64) -> f64 {
        self.activity_power(opp, core_fraction) * seconds
    }
}

impl PowerModel for AnalyticModel {
    /// Reads only `input.core_fraction` — bit-identical to the pre-trait
    /// concrete model, which is what keeps every committed decision
    /// digest unchanged under the default backend.
    fn power(&self, opp: OperatingPoint, input: &PowerInput) -> f64 {
        self.activity_power(opp, input.core_fraction)
    }

    /// The formula is linear and increasing in the activity factor, so
    /// the bound is full activity — exactly the arbiter's historical
    /// `P(opp, core_fraction = 1)` grant cost.
    fn worst_case(&self, opp: OperatingPoint) -> f64 {
        self.activity_power(opp, 1.0)
    }

    fn name(&self) -> &'static str {
        "analytic"
    }
}

impl Default for AnalyticModel {
    fn default() -> Self {
        Self::pentium_m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opp::OperatingPointTable;

    #[test]
    fn calibration_envelope() {
        let m = AnalyticModel::pentium_m();
        let t = OperatingPointTable::pentium_m();
        let top = m.activity_power(t.fastest(), 1.0);
        let bottom = m.activity_power(t.slowest(), 1.0);
        assert!(
            (12.0..15.0).contains(&top),
            "top-point active power should be ~13 W, got {top}"
        );
        assert!(
            (2.0..4.5).contains(&bottom),
            "bottom-point active power should be ~2-3 W, got {bottom}"
        );
    }

    #[test]
    fn power_is_monotonic_in_operating_point() {
        let m = AnalyticModel::pentium_m();
        let t = OperatingPointTable::pentium_m();
        let powers: Vec<f64> = t.iter().map(|(_, p)| m.activity_power(p, 0.7)).collect();
        for w in powers.windows(2) {
            assert!(w[0] > w[1], "power must fall with the operating point");
        }
    }

    #[test]
    fn stalls_burn_less_than_active_work() {
        let m = AnalyticModel::pentium_m();
        let p = OperatingPointTable::pentium_m().fastest();
        assert!(m.stall_power(p) < m.activity_power(p, 1.0));
        assert!(m.stall_power(p) > 0.0, "clocks keep running while stalled");
    }

    #[test]
    fn activity_blends_linearly() {
        let m = AnalyticModel::pentium_m();
        let p = OperatingPointTable::pentium_m().fastest();
        let half = m.activity_power(p, 0.5);
        let mid = f64::midpoint(m.activity_power(p, 0.0), m.activity_power(p, 1.0));
        assert!((half - mid).abs() < 1e-9);
    }

    #[test]
    fn energy_is_power_times_time() {
        let m = AnalyticModel::pentium_m();
        let p = OperatingPointTable::pentium_m().fastest();
        let e = m.energy(p, 1.0, 0.1);
        assert!((e - m.activity_power(p, 1.0) * 0.1).abs() < 1e-12);
    }

    #[test]
    fn trait_power_reads_the_core_fraction_bit_identically() {
        let m = AnalyticModel::pentium_m();
        let t = OperatingPointTable::pentium_m();
        for (_, p) in t.iter() {
            for cf in [0.0, 0.25, 0.5, 0.7, 1.0] {
                // Counter features must not perturb the analytic output.
                let input = PowerInput::new(cf, 0.03, 2.0);
                assert_eq!(m.power(p, &input), m.activity_power(p, cf));
            }
            assert_eq!(m.worst_case(p), m.activity_power(p, 1.0));
            assert_eq!(m.stall_power(p), m.activity_power(p, 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "core fraction")]
    fn rejects_bad_fraction() {
        let m = AnalyticModel::pentium_m();
        let p = OperatingPointTable::pentium_m().fastest();
        let _ = m.activity_power(p, 1.5);
    }
}
