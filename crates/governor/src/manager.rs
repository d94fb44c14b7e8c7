//! The management loop: Figure 8 of the paper, as executable code.
//!
//! At every PMI the handler:
//!
//! 1. stops and reads the performance counters (done inside
//!    [`Cpu::run_to_pmi`]);
//! 2. translates the counter readings to the corresponding phase;
//! 3. updates the predictor state and predicts the next phase;
//! 4. translates the predicted phase to a DVFS setting and applies it if
//!    it differs from the current one;
//! 5. clears the interrupt, reinitializes and restarts the counters.
//!
//! Steps 2–4 — the *decision* — are not implemented here: they are the
//! [`DecisionEngine`] from `livephase-engine`, the same pipeline the
//! serve shards and the experiment harness run. The manager contributes
//! what only an in-process run has: the simulated CPU, the PMI cadence,
//! handler and DVFS-transition overhead accounting, thermal integration
//! and adaptive sampling. A manager without an engine is the unmanaged
//! baseline; a [`DecisionHook`] (thermal guard, power cap) may reshape
//! the engine's decision before it is applied.
//!
//! The handler's own execution cost (≈ 10 µs) and any DVFS transition
//! (≈ 50 µs) are charged to the simulated CPU, so overheads — invisible at
//! the paper's 100 ms sampling intervals, exactly as claimed — are
//! nevertheless accounted for honestly.
//!
//! [`DecisionEngine`]: livephase_engine::DecisionEngine

use crate::policy::{DecisionHook, Environment};
use crate::report::{IntervalLog, RunReport};
use livephase_core::{DurationPredictor, DurationScheme, PhaseId, PhaseMap, PredictionStats};
use livephase_engine::{DecisionEngine, EngineConfig, Sample};
use livephase_pmsim::cpu::{Cpu, PmiRecord};
use livephase_pmsim::trace::pport;
use livephase_pmsim::PlatformConfig;
use livephase_workloads::{IntervalSource, IntoIntervalSource};

/// Handler-side configuration. The phase map and translation table are
/// the engine's ([`EngineConfig`]), so there is one place to set them.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Execution cost charged per PMI invocation, in seconds.
    pub handler_overhead_s: f64,
    /// When set, the manager integrates junction temperature over the run
    /// and exposes it to decision hooks (dynamic thermal
    /// management, Section 8 of the paper).
    pub thermal: Option<livephase_pmsim::ThermalModel>,
    /// When set, the handler stretches the PMI window through phases it
    /// predicts will persist — the application the companion
    /// duration-prediction work (ref \[14\]) targets. Fewer interrupts,
    /// same decisions, for long stable runs.
    pub adaptive_sampling: Option<AdaptiveSampling>,
}

/// Configuration of duration-guided adaptive sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveSampling {
    /// The base sampling window, in uops (the paper's 100 M).
    pub base_uops: u64,
    /// Longest window, as a multiple of the base (bounds the damage of a
    /// wrong duration prediction).
    pub max_multiplier: u64,
}

impl AdaptiveSampling {
    /// A conservative default: stretch at most 4x over the 100 M base.
    #[must_use]
    pub fn pentium_m() -> Self {
        Self {
            base_uops: 100_000_000,
            max_multiplier: 4,
        }
    }

    fn validate(&self) {
        assert!(self.base_uops > 0, "base window must be positive");
        assert!(self.max_multiplier >= 1, "multiplier must be at least 1");
    }
}

impl ManagerConfig {
    /// The deployed configuration: 10 µs handler cost, no thermal
    /// tracking, fixed 100 M-uop sampling.
    #[must_use]
    pub fn pentium_m() -> Self {
        Self {
            handler_overhead_s: 10e-6,
            thermal: None,
            adaptive_sampling: None,
        }
    }

    fn validate(&self) {
        assert!(
            self.handler_overhead_s.is_finite() && self.handler_overhead_s >= 0.0,
            "handler overhead must be finite and non-negative"
        );
        if let Some(a) = &self.adaptive_sampling {
            a.validate();
        }
    }
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self::pentium_m()
    }
}

/// The in-process run's pid for its single simulated process: engine
/// state is keyed by pid, and a manager-driven run has exactly one.
const RUN_PID: u32 = 0;

/// Drives a workload through the simulated CPU, deciding every interval
/// on a [`DecisionEngine`] — or, without one, running unmanaged.
pub struct Manager {
    /// `None` is the unmanaged baseline: setting 0, no prediction, no
    /// scoring.
    engine: Option<DecisionEngine>,
    /// Reshapes the engine's decision before it is applied; `None`
    /// applies `decision.op_point`.
    hook: Option<Box<dyn DecisionHook>>,
    config: ManagerConfig,
}

impl std::fmt::Debug for Manager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manager")
            .field("policy", &self.policy_name())
            .field("config", &self.config)
            .finish()
    }
}

impl Manager {
    /// Creates a manager that delegates every decision to a
    /// [`DecisionEngine`] — the same pipeline the serve shards run —
    /// under the deployed handler configuration.
    #[must_use]
    pub fn with_engine(engine: DecisionEngine) -> Self {
        Self::new(Some(engine))
    }

    fn new(engine: Option<DecisionEngine>) -> Self {
        Self {
            engine,
            hook: None,
            config: ManagerConfig::pentium_m(),
        }
    }

    /// Replaces the handler configuration (thermal tracking, adaptive
    /// sampling, handler cost) for the run (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid: a negative or non-finite
    /// handler overhead, or an adaptive-sampling window or multiplier of
    /// zero.
    #[must_use]
    pub fn with_config(mut self, config: ManagerConfig) -> Self {
        config.validate();
        self.config = config;
        self
    }

    /// Attaches a [`DecisionHook`] that turns each engine decision into
    /// the setting applied (builder style). The unmanaged baseline makes
    /// no decisions, so a hook attached to it never runs.
    #[must_use]
    pub fn with_hook(mut self, hook: Box<dyn DecisionHook>) -> Self {
        self.hook = Some(hook);
        self
    }

    /// The unmanaged baseline system (always full speed).
    #[must_use]
    pub fn baseline() -> Self {
        Self::new(None)
    }

    /// The reactive (last-value) manager of prior work, over the paper's
    /// Table 2 mapping: a last-value decision engine by another name.
    #[must_use]
    pub fn reactive() -> Self {
        let engine = match DecisionEngine::from_spec(EngineConfig::pentium_m(), "lastvalue") {
            Ok(engine) => engine.with_name("Reactive(LastValue)"),
            Err(_) => unreachable!("lastvalue is a valid predictor spec"),
        };
        Self::with_engine(engine)
    }

    /// The paper's deployed system: proactive GPHT(8, 128) management over
    /// the Table 2 mapping.
    #[must_use]
    pub fn gpht_deployed() -> Self {
        let engine = match DecisionEngine::from_spec(EngineConfig::pentium_m(), "gpht:8:128") {
            Ok(engine) => engine,
            Err(_) => unreachable!("the deployed GPHT spec is valid"),
        };
        Self::with_engine(engine)
    }

    /// The run's display name: `Baseline`, the engine's name, or the
    /// hook's name for it.
    #[must_use]
    pub fn policy_name(&self) -> String {
        match (&self.engine, &self.hook) {
            (None, _) => "Baseline".to_owned(),
            (Some(engine), None) => engine.name().to_owned(),
            (Some(engine), Some(hook)) => hook.name(engine.name()),
        }
    }

    /// Runs `workload` to completion on a fresh CPU sharing `platform`,
    /// returning the full run report.
    ///
    /// `workload` is anything that converts to an
    /// [`IntervalSource`]: a `&WorkloadTrace` (replayed from its buffer,
    /// exactly as before the streaming refactor) or any live source —
    /// intervals are pulled one at a time as the CPU consumes them, so a
    /// streamed run holds O(1) workload memory however long it is. The
    /// report's interval log is O(n), one entry per PMI, allocated once
    /// from the source's [`IntervalSource::len_hint`];
    /// [`RunReport::into_summary`] drops it when only totals matter.
    ///
    /// # Panics
    ///
    /// Panics if the engine or hook returns a DVFS setting the platform
    /// does not have (a translation table validated against the platform
    /// cannot).
    #[must_use]
    pub fn run(
        mut self,
        workload: impl IntoIntervalSource,
        platform: &PlatformConfig,
    ) -> RunReport {
        let mut source = workload.into_interval_source();
        let workload_name = source.name().to_owned();
        let mut cpu = Cpu::new(platform);
        let mut state = RunState {
            // One entry per interval the source announces, plus an
            // off-grid tail.
            intervals: Vec::with_capacity(source.len_hint().map_or(0, |n| n + 1)),
            thermal: self.config.thermal.map(livephase_pmsim::ThermalState::new),
            durations: None,
            // An engine that arrives warm already has a prediction
            // standing for the first interval.
            standing: self.engine.as_ref().and_then(|e| e.pending(RUN_PID)),
        };
        // The baseline classifies only for its interval log, under the
        // paper's Table 1 phases.
        let map = self
            .engine
            .as_ref()
            .map_or_else(PhaseMap::pentium_m, |e| e.config().phase_map().clone());
        cpu.set_pport_bits(pport::APP_RUNNING);

        while let Some(pmi) = cpu.run_to_pmi_with(|| source.next_interval()) {
            self.handle_pmi(&mut cpu, &pmi, &map, &mut state);
        }
        // A run that ends off the sampling grid leaves a partial interval:
        // log it (its Mem/Uop ratio is still meaningful) and score the
        // prediction that stood for it, without a decision — execution is
        // over.
        if let Some(pmi) = cpu.flush_partial_interval() {
            let phase = map.classify_rate(pmi.metrics.mem_uop());
            if let Some(engine) = &mut self.engine {
                let _ = engine.score_tail(RUN_PID, phase);
            }
            state.log_interval(&pmi, phase);
        }
        cpu.set_pport_bits(0);

        let policy = self.policy_name();
        let prediction = self
            .engine
            .as_mut()
            .map_or_else(PredictionStats::default, |e| {
                e.flush_metrics();
                e.stats()
            });
        RunReport {
            workload: workload_name,
            policy,
            totals: cpu.totals(),
            prediction,
            intervals: state.intervals,
            dvfs_transitions: cpu.dvfs_transitions(),
            peak_temperature_c: state.thermal.as_ref().map(|t| t.peak_c()),
            final_temperature_c: state.thermal.as_ref().map(|t| t.temperature_c()),
            power_trace: if cpu.config().record_power_trace {
                Some(cpu.into_power_trace())
            } else {
                None
            },
        }
    }

    /// One PMI invocation: classify, predict, act.
    fn handle_pmi(
        &mut self,
        cpu: &mut Cpu<'_>,
        pmi: &PmiRecord,
        map: &PhaseMap,
        state: &mut RunState,
    ) {
        // Integrate the thermal model through the elapsed interval.
        let interval_power_w = if pmi.interval_seconds > 0.0 {
            pmi.interval_energy_j / pmi.interval_seconds
        } else {
            0.0
        };
        if let Some(thermal) = &mut state.thermal {
            thermal.advance(interval_power_w, pmi.interval_seconds);
        }

        // Toggle the phase-marker bit so the DAQ can attribute samples.
        let toggled = cpu.pport_bits() ^ pport::PHASE_TOGGLE;
        cpu.set_pport_bits(toggled);

        // The engine classifies the interval under the same map, from the
        // same counts; only the baseline classifies here.
        let (setting, phase, predicted) = match &mut self.engine {
            None => (0, map.classify_rate(pmi.metrics.mem_uop()), None),
            Some(engine) => {
                let decision = engine.step(&Sample {
                    pid: RUN_PID,
                    uops: pmi.metrics.uops_retired,
                    mem_transactions: pmi.metrics.mem_transactions,
                });
                let setting = match &mut self.hook {
                    None => usize::from(decision.op_point),
                    Some(hook) => hook.setting(
                        &decision,
                        &Environment {
                            temperature_c: state.thermal.as_ref().map(|t| t.temperature_c()),
                            current_setting: pmi.dvfs_index,
                            interval_power_w,
                        },
                    ),
                };
                (setting, decision.phase, Some(decision.predicted))
            }
        };
        state.log_interval(pmi, phase);
        state.standing = predicted;

        cpu.service_pmi_overhead(self.config.handler_overhead_s);
        #[expect(
            clippy::panic,
            reason = "an out-of-range setting is a programming error that must not be masked; \
                      every shipped table and hook clamps to the platform's table"
        )]
        if cpu.set_dvfs(setting).is_err() {
            panic!("decisions must name a platform-valid DVFS setting, got {setting}");
        }

        // Duration-guided sampling: stretch the next PMI window while the
        // predictor expects the current phase to persist.
        if let Some(cfg) = &self.config.adaptive_sampling {
            let durations = state
                .durations
                .get_or_insert_with(|| DurationPredictor::new(DurationScheme::LastDuration));
            durations.observe(phase);
            let multiplier = durations
                .predicted_remaining()
                .unwrap_or(0)
                .clamp(1, cfg.max_multiplier);
            cpu.set_pmi_granularity(cfg.base_uops * multiplier);
        }
    }
}

/// Book-keeping across PMI invocations.
struct RunState {
    intervals: Vec<IntervalLog>,
    thermal: Option<livephase_pmsim::ThermalState>,
    durations: Option<DurationPredictor>,
    /// The engine's prediction for the interval now running: the last
    /// decision's `predicted`, so the handler never probes the engine
    /// for it.
    standing: Option<PhaseId>,
}

impl RunState {
    /// Logs one elapsed interval, classified as `phase`, against the
    /// prediction that was standing when it began.
    fn log_interval(&mut self, pmi: &PmiRecord, phase: PhaseId) {
        let predicted = self.standing;
        self.intervals.push(IntervalLog {
            index: self.intervals.len(),
            mem_uop: pmi.metrics.mem_uop().get(),
            upc: pmi.metrics.upc().get(),
            phase,
            predicted,
            dvfs_index: pmi.dvfs_index,
            duration_s: pmi.interval_seconds,
            energy_j: pmi.interval_energy_j,
            instructions: pmi.metrics.instructions_retired,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livephase_workloads::{spec, WorkloadTrace};

    fn short_trace(name: &str, len: usize) -> WorkloadTrace {
        spec::benchmark(name).unwrap().with_length(len).generate(11)
    }

    #[test]
    fn baseline_never_switches() {
        let trace = short_trace("applu_in", 40);
        let r = Manager::baseline().run(&trace, &PlatformConfig::pentium_m());
        assert_eq!(r.dvfs_transitions, 0);
        assert_eq!(r.intervals.len(), 40);
        assert!(r.intervals.iter().all(|i| i.dvfs_index == 0));
        assert_eq!(r.policy, "Baseline");
    }

    #[test]
    fn managed_run_switches_and_saves_energy() {
        let trace = short_trace("applu_in", 80);
        let baseline = Manager::baseline().run(&trace, &PlatformConfig::pentium_m());
        let managed = Manager::gpht_deployed().run(&trace, &PlatformConfig::pentium_m());
        assert!(managed.dvfs_transitions > 0);
        assert!(managed.totals.energy_j < baseline.totals.energy_j);
        assert!(managed.totals.time_s > baseline.totals.time_s);
        let c = managed.compare_to(&baseline);
        assert!(
            c.edp_improvement_pct() > 0.0,
            "EDP {}",
            c.edp_improvement_pct()
        );
    }

    #[test]
    fn prediction_stats_are_scored() {
        let trace = short_trace("crafty_in", 50);
        let r = Manager::gpht_deployed().run(&trace, &PlatformConfig::pentium_m());
        assert_eq!(r.prediction.total, 49, "all but the first interval scored");
        assert!(
            r.prediction.accuracy() > 0.9,
            "stable workload predicts well"
        );
    }

    #[test]
    fn stable_workload_stays_mostly_at_one_setting() {
        let trace = short_trace("swim_in", 60);
        let r = Manager::gpht_deployed().run(&trace, &PlatformConfig::pentium_m());
        // swim is phase 5 throughout: after the first decision the CPU
        // should sit at setting 4 nearly always.
        let at_4 = r.intervals.iter().filter(|i| i.dvfs_index == 4).count();
        assert!(
            at_4 > 50,
            "{at_4} of {} intervals at setting 4",
            r.intervals.len()
        );
    }

    #[test]
    fn partial_tail_interval_is_logged() {
        // 1.5 sampling intervals of work.
        let spec = spec::benchmark("crafty_in").unwrap().with_length(2);
        let mut trace_intervals = spec.generate(1).intervals().to_vec();
        let half = trace_intervals[1].split_at_uops(50_000_000).0;
        trace_intervals[1] = half;
        let trace = WorkloadTrace::new("partial", trace_intervals);
        let r = Manager::baseline().run(&trace, &PlatformConfig::pentium_m());
        assert_eq!(r.intervals.len(), 2);
        assert!(r.intervals[1].duration_s < r.intervals[0].duration_s);
    }

    #[test]
    fn interval_log_is_sized_once_from_the_source() {
        let platform = PlatformConfig::pentium_m();
        let spec = spec::benchmark("applu_in").unwrap().with_length(300);
        let trace = spec.generate(3);
        for r in [
            Manager::gpht_deployed().run(spec.stream(3), &platform),
            Manager::baseline().run(&trace, &platform),
        ] {
            let (len, cap) = (r.intervals.len(), r.intervals.capacity());
            assert!(
                cap == len || cap == len + 1,
                "{len} entries, capacity {cap}"
            );
        }
    }

    #[test]
    fn power_trace_is_returned_when_recorded() {
        let trace = short_trace("crafty_in", 5);
        let platform = PlatformConfig::pentium_m().with_power_trace();
        let r = Manager::baseline().run(&trace, &platform);
        let pt = r.power_trace.expect("trace recorded");
        assert!((pt.total_energy_j() - r.totals.energy_j).abs() < 1e-9);
        assert!((pt.total_time_s() - r.totals.time_s).abs() < 1e-12);
    }

    #[test]
    fn the_three_systems_run_under_their_names() {
        let platform = PlatformConfig::pentium_m();
        let t = short_trace("applu_in", 40);
        let b = Manager::baseline().run(&t, &platform);
        let r = Manager::reactive().run(&t, &platform);
        let g = Manager::gpht_deployed().run(&t, &platform);
        assert_eq!(b.policy, "Baseline");
        assert!(r.policy.contains("Reactive"));
        assert!(g.policy.contains("GPHT"));
        assert!(g.totals.energy_j < b.totals.energy_j);
    }

    #[test]
    fn decision_trace_tracks_interval_settings() {
        let t = short_trace("applu_in", 50);
        let r = Manager::gpht_deployed().run(&t, &PlatformConfig::pentium_m());
        let d = r.decision_trace();
        assert_eq!(d.len(), r.intervals.len() - 1);
        assert_eq!(
            d,
            r.intervals[1..]
                .iter()
                .map(|i| i.dvfs_index)
                .collect::<Vec<_>>()
        );
        assert!(d.iter().any(|&s| s > 0), "applu switches settings");
    }

    #[test]
    #[should_panic(expected = "handler overhead must be finite and non-negative")]
    fn with_config_rejects_a_negative_handler_overhead() {
        let _ = Manager::baseline().with_config(ManagerConfig {
            handler_overhead_s: -1e-6,
            ..ManagerConfig::pentium_m()
        });
    }

    #[test]
    #[should_panic(expected = "handler overhead must be finite and non-negative")]
    fn with_config_rejects_a_nan_handler_overhead() {
        let _ = Manager::gpht_deployed().with_config(ManagerConfig {
            handler_overhead_s: f64::NAN,
            ..ManagerConfig::pentium_m()
        });
    }

    #[test]
    #[should_panic(expected = "base window must be positive")]
    fn with_config_rejects_a_zero_adaptive_base_window() {
        let _ = Manager::gpht_deployed().with_config(ManagerConfig {
            adaptive_sampling: Some(AdaptiveSampling {
                base_uops: 0,
                ..AdaptiveSampling::pentium_m()
            }),
            ..ManagerConfig::pentium_m()
        });
    }

    #[test]
    #[should_panic(expected = "multiplier must be at least 1")]
    fn with_config_rejects_a_zero_adaptive_multiplier() {
        let _ = Manager::reactive().with_config(ManagerConfig {
            adaptive_sampling: Some(AdaptiveSampling {
                max_multiplier: 0,
                ..AdaptiveSampling::pentium_m()
            }),
            ..ManagerConfig::pentium_m()
        });
    }

    #[test]
    fn reactive_and_proactive_differ_on_variable_workloads() {
        let trace = short_trace("applu_in", 200);
        let reactive = Manager::reactive().run(&trace, &PlatformConfig::pentium_m());
        let proactive = Manager::gpht_deployed().run(&trace, &PlatformConfig::pentium_m());
        assert!(
            proactive.prediction.accuracy() > reactive.prediction.accuracy() + 0.1,
            "GPHT {} vs reactive {}",
            proactive.prediction.accuracy(),
            reactive.prediction.accuracy()
        );
    }
}
