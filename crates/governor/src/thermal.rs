//! Phase-prediction-guided dynamic thermal management and power capping —
//! the other two applications the paper names for its framework
//! (Sections 1 and 8: "dynamic thermal management or bounding power
//! consumption").
//!
//! Both are [`DecisionHook`]s over the identical monitoring/prediction
//! pipeline and differ only in how the predicted phase becomes a setting:
//!
//! * [`ThermalAware`] keeps the engine's Table 2 translation, then
//!   *throttles further* whenever the projected junction temperature under
//!   the predicted phase's power would cross the limit — proactively,
//!   before the hot phase begins;
//! * [`PowerCap`] ignores the energy-efficiency mapping entirely and
//!   picks the fastest setting whose predicted-phase power estimate stays
//!   under the cap.

use crate::estimate::PowerEstimator;
use crate::policy::{DecisionHook, Environment};
use livephase_core::PhaseId;
use livephase_engine::Decision;
use livephase_pmsim::ThermalModel;

/// Predictive dynamic thermal management on top of any engine.
#[derive(Debug)]
pub struct ThermalAware {
    estimator: PowerEstimator,
    model: ThermalModel,
    /// Junction temperature limit, in °C.
    limit_c: f64,
    /// Safety margin below the limit, in °C.
    guard_c: f64,
    /// How far ahead the projection looks, in seconds.
    horizon_s: f64,
}

impl ThermalAware {
    /// Creates a thermal guard.
    ///
    /// # Panics
    ///
    /// Panics if the limit is not above ambient.
    #[must_use]
    pub fn new(estimator: PowerEstimator, model: ThermalModel, limit_c: f64) -> Self {
        assert!(
            limit_c > model.t_ambient,
            "thermal limit must exceed ambient"
        );
        Self {
            estimator,
            model,
            limit_c,
            guard_c: 1.0,
            horizon_s: 2.0,
        }
    }

    /// The configured junction limit, in °C.
    #[must_use]
    pub fn limit_c(&self) -> f64 {
        self.limit_c
    }

    /// Whether running `phase` at `setting` from `t_now` would cross the
    /// guarded limit within the projection horizon.
    fn would_overheat(&self, t_now: f64, phase: PhaseId, setting: usize) -> bool {
        let power = self.estimator.power_w(phase, setting);
        let projected = self.model.step(t_now, power, self.horizon_s);
        projected > self.limit_c - self.guard_c
    }
}

impl DecisionHook for ThermalAware {
    fn setting(&mut self, decision: &Decision, env: &Environment) -> usize {
        let mut setting = usize::from(decision.op_point);
        // Without temperature feedback, behave as plain proactive DVFS.
        if let Some(t_now) = env.temperature_c {
            let slowest = self.estimator.settings().saturating_sub(1);
            while setting < slowest && self.would_overheat(t_now, decision.predicted, setting) {
                setting += 1;
            }
        }
        setting
    }

    fn name(&self, engine: &str) -> String {
        format!("ThermalAware_{}C({engine})", self.limit_c)
    }
}

/// Bounds predicted power consumption: the fastest setting whose estimated
/// power for the predicted phase stays under the cap.
#[derive(Debug)]
pub struct PowerCap {
    estimator: PowerEstimator,
    cap_w: f64,
}

impl PowerCap {
    /// Creates a power cap.
    ///
    /// # Panics
    ///
    /// Panics if the cap is not positive.
    #[must_use]
    pub fn new(estimator: PowerEstimator, cap_w: f64) -> Self {
        assert!(cap_w > 0.0 && cap_w.is_finite(), "cap must be positive");
        Self { estimator, cap_w }
    }

    /// The configured cap, in watts.
    #[must_use]
    pub fn cap_w(&self) -> f64 {
        self.cap_w
    }
}

impl DecisionHook for PowerCap {
    fn setting(&mut self, decision: &Decision, _env: &Environment) -> usize {
        self.estimator
            .fastest_under_cap(decision.predicted, self.cap_w)
    }

    fn name(&self, engine: &str) -> String {
        format!("PowerCap_{}W({engine})", self.cap_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{Manager, ManagerConfig};
    use livephase_pmsim::PlatformConfig;
    use livephase_workloads::spec;

    fn thermal_config() -> ManagerConfig {
        ManagerConfig {
            thermal: Some(ThermalModel::pentium_m()),
            ..ManagerConfig::pentium_m()
        }
    }

    fn thermal_manager(limit_c: f64) -> Manager {
        let guard = ThermalAware::new(
            PowerEstimator::pentium_m(),
            ThermalModel::pentium_m(),
            limit_c,
        );
        Manager::gpht_deployed_with(thermal_config()).with_hook(Box::new(guard))
    }

    #[test]
    fn unmanaged_cpu_bound_run_overheats() {
        // crafty is CPU-bound: the baseline heats toward ~77 C steady state.
        let trace = spec::benchmark("crafty_in")
            .unwrap()
            .with_length(800)
            .generate(1);
        let baseline =
            Manager::baseline_with(thermal_config()).run(&trace, &PlatformConfig::pentium_m());
        let peak = baseline.peak_temperature_c.expect("thermal tracked");
        assert!(peak > 70.0, "baseline peak {peak}");
    }

    #[test]
    fn thermal_policy_bounds_temperature() {
        let trace = spec::benchmark("crafty_in")
            .unwrap()
            .with_length(800)
            .generate(1);
        let limit = 65.0;
        let report = thermal_manager(limit).run(&trace, &PlatformConfig::pentium_m());
        let peak = report.peak_temperature_c.expect("thermal tracked");
        assert!(
            peak <= limit + 0.5,
            "peak {peak} exceeded the {limit} C limit"
        );
        // Throttling happened: the run is slower than an equivalent
        // unmanaged one would be.
        assert!(report.dvfs_transitions > 0);
    }

    #[test]
    fn generous_limit_never_throttles_memory_bound_work() {
        // swim runs cool (memory-bound, low settings anyway).
        let trace = spec::benchmark("swim_in")
            .unwrap()
            .with_length(200)
            .generate(1);
        let report = thermal_manager(95.0).run(&trace, &PlatformConfig::pentium_m());
        let peak = report.peak_temperature_c.expect("tracked");
        assert!(peak < 70.0, "swim peak {peak}");
    }

    #[test]
    fn power_cap_bounds_average_power() {
        let trace = spec::benchmark("crafty_in")
            .unwrap()
            .with_length(300)
            .generate(1);
        let cap = 8.0;
        let report = Manager::gpht_deployed()
            .with_hook(Box::new(PowerCap::new(PowerEstimator::pentium_m(), cap)))
            .run(&trace, &PlatformConfig::pentium_m());
        assert!(
            report.average_power_w() <= cap * 1.05,
            "avg power {:.2} exceeds the {cap} W cap",
            report.average_power_w()
        );
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(
            thermal_manager(70.0).policy_name(),
            "ThermalAware_70C(Proactive(GPHT_8_128))"
        );
        let t = ThermalAware::new(PowerEstimator::pentium_m(), ThermalModel::pentium_m(), 70.0);
        assert_eq!(t.limit_c(), 70.0);
        let c = PowerCap::new(PowerEstimator::pentium_m(), 9.0);
        assert_eq!(c.name("GPHT_8_128"), "PowerCap_9W(GPHT_8_128)");
        assert_eq!(c.cap_w(), 9.0);
    }

    #[test]
    #[should_panic(expected = "thermal limit")]
    fn limit_below_ambient_rejected() {
        let _ = ThermalAware::new(PowerEstimator::pentium_m(), ThermalModel::pentium_m(), 20.0);
    }

    #[test]
    #[should_panic(expected = "cap must be positive")]
    fn zero_cap_rejected() {
        let _ = PowerCap::new(PowerEstimator::pentium_m(), 0.0);
    }
}
