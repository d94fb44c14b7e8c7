//! Scenario specification: M tenant VMs on K cores under a watt budget.
//!
//! A [`ScenarioSpec`] pins everything the cluster runner needs so a run
//! is a pure function of the spec — same spec, same per-tenant decision
//! stream, bit for bit. Tenants are assigned benchmarks by cycling the
//! `mix`, get per-tenant derived seeds, and are pinned to core
//! `tenant % cores` for the whole run (no migration, which is what makes
//! the arbiter's per-core worst-case budget accounting airtight).

use crate::arbiter::ArbiterPolicy;
use livephase_pmsim::{PlatformConfig, PowerModelKind};
use livephase_workloads::{benchmark, WorkloadTrace};
use std::fmt;

/// Default per-tenant, per-epoch scheduling credit in micro-ops: a
/// quarter of the 100 M-uop sampling interval, so one tenant interval
/// spans several context switches and the counter-virtualization path is
/// genuinely exercised.
pub const DEFAULT_QUANTUM_UOPS: u64 = 25_000_000;

/// The most scheduling quanta one tenant sampling interval may be cut
/// into. Every quantum is a context switch and a DVFS re-application, so
/// the quantum floor is the PMI granularity over this bound: at 1 uop a
/// 100 M-uop interval would take 10⁸ quanta, and the run practically
/// never ends.
pub const MAX_QUANTA_PER_INTERVAL: u64 = 1024;

/// The workload injected for noisy-neighbor tenants: the most
/// memory-bound benchmark of the paper's set, thrashing the Mem/Uop
/// spectrum its core neighbors are being classified on.
pub const NOISY_BENCHMARK: &str = "mcf_inp";

/// Scheduling-credit multiplier for noisy neighbors: they hog their core
/// for several quanta per epoch, stretching victims' wall-clock time.
pub const NOISY_WEIGHT: u64 = 4;

/// Seed-mixing constant (golden-ratio increment) for per-tenant seeds.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Everything a multi-tenant run is a function of.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Number of tenant VMs (M).
    pub tenants: usize,
    /// Number of simulated cores (K); tenant `t` is pinned to `t % K`.
    pub cores: usize,
    /// Cluster-wide power budget in watts.
    pub budget_w: f64,
    /// Per-tenant scheduling credit per epoch, in micro-ops.
    pub quantum_uops: u64,
    /// Trace length per tenant, in 100 M-uop sampling intervals.
    pub intervals: usize,
    /// Benchmark names cycled across tenants (`mix[t % mix.len()]`).
    pub mix: Vec<String>,
    /// Number of noisy-neighbor tenants (the highest tenant ids): they
    /// run [`NOISY_BENCHMARK`] with [`NOISY_WEIGHT`]× credit and the
    /// lowest arbitration priority.
    pub noisy: usize,
    /// Arbitration policy for the cluster power cap.
    pub policy: ArbiterPolicy,
    /// Per-tenant predictor specification (e.g. `gpht:8:128`).
    pub predictor: String,
    /// Power backend every tenant platform and the arbiter price from.
    /// The arbiter costs grants at the backend's `worst_case` bound, so
    /// the never-exceed-budget argument survives a model swap.
    pub power: PowerModelKind,
    /// Base seed; per-tenant seeds are derived deterministically.
    pub seed: u64,
}

impl ScenarioSpec {
    /// A spec with the deployed defaults: GPHT predictor, water-filling
    /// arbitration, a 25 M-uop quantum, 40 intervals per tenant, and the
    /// paper's six variable benchmarks as the mix.
    #[must_use]
    pub fn new(tenants: usize, cores: usize) -> Self {
        Self {
            tenants,
            cores,
            budget_w: 60.0,
            quantum_uops: DEFAULT_QUANTUM_UOPS,
            intervals: 40,
            mix: livephase_workloads::spec::variable_six()
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            noisy: 0,
            policy: ArbiterPolicy::WaterFill,
            predictor: "gpht:8:128".to_owned(),
            power: PowerModelKind::default(),
            seed: 42,
        }
    }

    /// Checks the spec is runnable: positive dimensions, a finite
    /// positive budget, a quantum of at least 1/[`MAX_QUANTA_PER_INTERVAL`]
    /// of a sampling interval, and every named benchmark registered.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.tenants == 0 {
            return Err(ScenarioError::Invalid("tenants must be >= 1".to_owned()));
        }
        if self.cores == 0 {
            return Err(ScenarioError::Invalid("cores must be >= 1".to_owned()));
        }
        if !(self.budget_w.is_finite() && self.budget_w > 0.0) {
            return Err(ScenarioError::Invalid(
                "budget must be finite and positive".to_owned(),
            ));
        }
        let interval_uops = PlatformConfig::pentium_m().pmi_granularity_uops;
        let min_quantum = interval_uops.div_ceil(MAX_QUANTA_PER_INTERVAL);
        if self.quantum_uops < min_quantum {
            return Err(ScenarioError::Invalid(format!(
                "quantum must be >= {min_quantum} uops (at most {MAX_QUANTA_PER_INTERVAL} \
                 quanta per {interval_uops}-uop sampling interval)"
            )));
        }
        if self.intervals == 0 {
            return Err(ScenarioError::Invalid("intervals must be >= 1".to_owned()));
        }
        if self.mix.is_empty() {
            return Err(ScenarioError::Invalid(
                "mix must name at least one benchmark".to_owned(),
            ));
        }
        if self.noisy > self.tenants {
            return Err(ScenarioError::Invalid(
                "noisy tenants cannot exceed the tenant count".to_owned(),
            ));
        }
        for name in &self.mix {
            if benchmark(name).is_none() {
                return Err(ScenarioError::UnknownBenchmark(name.clone()));
            }
        }
        if self.noisy > 0 && benchmark(NOISY_BENCHMARK).is_none() {
            return Err(ScenarioError::UnknownBenchmark(NOISY_BENCHMARK.to_owned()));
        }
        Ok(())
    }

    /// Whether tenant `t` is a noisy neighbor (the highest tenant ids).
    #[must_use]
    pub fn is_noisy(&self, tenant: u32) -> bool {
        self.noisy > 0 && (tenant as usize) >= self.tenants.saturating_sub(self.noisy)
    }

    /// The core tenant `t` is pinned to.
    #[must_use]
    pub fn core_of(&self, tenant: u32) -> usize {
        (tenant as usize) % self.cores.max(1)
    }

    /// The scheduling-credit weight of tenant `t`.
    #[must_use]
    pub fn tenant_weight(&self, tenant: u32) -> u64 {
        if self.is_noisy(tenant) {
            NOISY_WEIGHT
        } else {
            1
        }
    }

    /// The benchmark name tenant `t` runs.
    #[must_use]
    pub fn tenant_benchmark(&self, tenant: u32) -> String {
        if self.is_noisy(tenant) {
            return NOISY_BENCHMARK.to_owned();
        }
        let len = self.mix.len().max(1);
        self.mix
            .get((tenant as usize) % len)
            .cloned()
            .unwrap_or_else(|| NOISY_BENCHMARK.to_owned())
    }

    /// The derived per-tenant seed: a golden-ratio mix of the base seed
    /// and the tenant id, so tenants sharing a benchmark still walk
    /// distinct traces.
    #[must_use]
    pub fn tenant_seed(&self, tenant: u32) -> u64 {
        self.seed ^ GOLDEN.wrapping_mul(u64::from(tenant) + 1)
    }

    /// Materializes tenant `t`'s workload trace.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnknownBenchmark`] if the assigned
    /// benchmark is not registered.
    pub fn tenant_trace(&self, tenant: u32) -> Result<WorkloadTrace, ScenarioError> {
        let name = self.tenant_benchmark(tenant);
        let spec = benchmark(&name).ok_or(ScenarioError::UnknownBenchmark(name))?;
        Ok(spec
            .with_length(self.intervals)
            .generate(self.tenant_seed(tenant)))
    }

    /// The solo-oracle spec for tenant `t`: the same workload (identical
    /// trace, bit for bit) alone on one core under an unconstraining
    /// budget. Multiplexed counter virtualization is exact iff tenant
    /// `t`'s sample stream in the cluster run equals tenant 0's stream
    /// in this spec's run.
    #[must_use]
    pub fn solo(&self, tenant: u32) -> ScenarioSpec {
        let mut solo = self.clone();
        solo.tenants = 1;
        solo.cores = 1;
        solo.budget_w = 1e9;
        solo.mix = vec![self.tenant_benchmark(tenant)];
        solo.noisy = 0;
        // Invert the derivation so solo tenant 0's seed equals tenant
        // `t`'s seed here: derive(solo.seed, 0) == derive(self.seed, t).
        solo.seed = self.tenant_seed(tenant) ^ GOLDEN;
        solo
    }
}

/// Why a scenario cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A benchmark name is not in the workload registry.
    UnknownBenchmark(String),
    /// The predictor specification failed to parse.
    BadPredictor(String),
    /// A structural constraint was violated.
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownBenchmark(name) => write!(f, "unknown benchmark '{name}'"),
            Self::BadPredictor(msg) => write!(f, "bad predictor spec: {msg}"),
            Self::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ScenarioSpec::new(8, 2).validate().unwrap();
    }

    #[test]
    fn structural_violations_are_caught() {
        assert!(ScenarioSpec::new(0, 2).validate().is_err());
        assert!(ScenarioSpec::new(2, 0).validate().is_err());
        let mut s = ScenarioSpec::new(2, 2);
        s.budget_w = f64::NAN;
        assert!(s.validate().is_err());
        let mut s = ScenarioSpec::new(2, 2);
        s.mix = vec!["no_such_benchmark".to_owned()];
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::UnknownBenchmark(_))
        ));
        let mut s = ScenarioSpec::new(2, 2);
        s.noisy = 3;
        assert!(s.validate().is_err());
    }

    #[test]
    fn quanta_per_interval_are_bounded() {
        // 100 M uops per interval over 1024 quanta, rounded up.
        let mut s = ScenarioSpec::new(2, 1);
        for refused in [0, 1, 97_655, 97_656] {
            s.quantum_uops = refused;
            assert!(
                matches!(s.validate(), Err(ScenarioError::Invalid(ref m)) if m.contains("97657")),
                "quantum {refused}: {:?}",
                s.validate()
            );
        }
        s.quantum_uops = 97_657;
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn noisy_tenants_are_the_highest_ids() {
        let mut s = ScenarioSpec::new(6, 2);
        s.noisy = 2;
        assert!(!s.is_noisy(0));
        assert!(!s.is_noisy(3));
        assert!(s.is_noisy(4));
        assert!(s.is_noisy(5));
        assert_eq!(s.tenant_benchmark(5), NOISY_BENCHMARK);
        assert_eq!(s.tenant_weight(5), NOISY_WEIGHT);
        assert_eq!(s.tenant_weight(0), 1);
    }

    #[test]
    fn pinning_and_seeds_are_deterministic() {
        let s = ScenarioSpec::new(5, 2);
        assert_eq!(s.core_of(0), 0);
        assert_eq!(s.core_of(3), 1);
        assert_ne!(s.tenant_seed(0), s.tenant_seed(1));
        assert_eq!(s.tenant_seed(2), s.tenant_seed(2));
    }

    #[test]
    fn solo_reproduces_the_tenant_trace() {
        let mut s = ScenarioSpec::new(6, 2);
        s.noisy = 1;
        for t in 0..6 {
            let solo = s.solo(t);
            assert_eq!(solo.tenants, 1);
            assert_eq!(solo.cores, 1);
            let a = s.tenant_trace(t).unwrap();
            let b = solo.tenant_trace(0).unwrap();
            assert_eq!(a.intervals(), b.intervals(), "tenant {t}");
        }
    }
}
