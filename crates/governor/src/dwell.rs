//! Transition-rate control: a minimum-dwell hook over the engine's
//! decisions.
//!
//! Every real voltage/frequency switch costs a stall and regulator wear;
//! a manager that flips settings each interval on a noisy workload pays
//! that cost continuously. [`MinDwell`] holds each applied setting for at
//! least *N* sampling intervals before honouring a change request — the
//! standard governor hysteresis knob (cf. Linux cpufreq's
//! `sampling_down_factor`).

use crate::policy::{DecisionHook, Environment};
use livephase_engine::Decision;

/// Holds the engine's decided setting for at least `min_dwell` intervals.
#[derive(Debug)]
pub struct MinDwell {
    min_dwell: u32,
    current: Option<usize>,
    held_for: u32,
}

impl MinDwell {
    /// Enforces at least `min_dwell` intervals per setting.
    ///
    /// # Panics
    ///
    /// Panics if `min_dwell` is zero (that would be a no-op; express it by
    /// not attaching the hook).
    #[must_use]
    pub fn new(min_dwell: u32) -> Self {
        assert!(min_dwell >= 1, "minimum dwell must be at least 1 interval");
        Self {
            min_dwell,
            current: None,
            held_for: 0,
        }
    }

    /// The configured minimum dwell, in sampling intervals.
    #[must_use]
    pub fn min_dwell(&self) -> u32 {
        self.min_dwell
    }

    fn gate(&mut self, wanted: usize) -> usize {
        match self.current {
            Some(cur) if wanted != cur && self.held_for < self.min_dwell => {
                // Too soon: keep holding.
                self.held_for += 1;
                cur
            }
            Some(cur) if wanted == cur => {
                self.held_for = self.held_for.saturating_add(1);
                cur
            }
            _ => {
                self.current = Some(wanted);
                self.held_for = 1;
                wanted
            }
        }
    }
}

impl DecisionHook for MinDwell {
    fn setting(&mut self, decision: &Decision, _env: &Environment) -> usize {
        self.gate(usize::from(decision.op_point))
    }

    fn name(&self, engine: &str) -> String {
        format!("MinDwell_{}({engine})", self.min_dwell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Manager;
    use livephase_pmsim::PlatformConfig;
    use livephase_workloads::spec;

    #[test]
    fn holds_the_setting_for_the_dwell() {
        let mut p = MinDwell::new(3);
        assert_eq!(p.gate(5), 5);
        // Flapping requests are suppressed while held_for < 3.
        assert_eq!(p.gate(0), 5);
        assert_eq!(p.gate(0), 5);
        // Dwell satisfied: the change goes through.
        assert_eq!(p.gate(0), 0);
    }

    #[test]
    fn steady_requests_pass_through() {
        let mut p = MinDwell::new(5);
        for _ in 0..10 {
            assert_eq!(p.gate(2), 2);
        }
    }

    #[test]
    fn reduces_transitions_on_noisy_workloads() {
        let trace = spec::benchmark("equake_in")
            .unwrap()
            .with_length(400)
            .generate(3);
        let platform = PlatformConfig::pentium_m();
        let plain = Manager::gpht_deployed().run(&trace, &platform);
        let damped = Manager::gpht_deployed()
            .with_hook(Box::new(MinDwell::new(2)))
            .run(&trace, &platform);
        assert!(
            damped.dvfs_transitions < plain.dvfs_transitions,
            "dwell {} vs plain {}",
            damped.dvfs_transitions,
            plain.dvfs_transitions
        );
        // The EDP cost of damping stays modest on a learnable workload.
        assert!(
            damped.totals.edp() < plain.totals.edp() * 1.15,
            "damping should not wreck efficiency"
        );
        // Damping changes what is applied, never what is predicted.
        assert_eq!(damped.prediction, plain.prediction);
    }

    #[test]
    fn names_wrap_the_engine() {
        let manager = Manager::reactive().with_hook(Box::new(MinDwell::new(4)));
        assert_eq!(manager.policy_name(), "MinDwell_4(Reactive(LastValue))");
        assert_eq!(MinDwell::new(4).min_dwell(), 4);
    }

    #[test]
    #[should_panic(expected = "minimum dwell")]
    fn zero_dwell_rejected() {
        let _ = MinDwell::new(0);
    }
}
