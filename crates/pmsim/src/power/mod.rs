//! The CPU power-model zoo: one trait, three backends.
//!
//! Every consumer of package power — the simulator's energy accounting,
//! the governor's [`PowerEstimator`](../../livephase_governor), the
//! tenants arbiter's worst-case grant costing — goes through the
//! [`PowerModel`] trait:
//!
//! * [`AnalyticModel`] — the paper's `k_dyn·a·V²·f + k_leak·V³` formula,
//!   calibrated to the Pentium-M package envelope. The default backend;
//!   bit-identical to the pre-trait concrete model, so every committed
//!   decision digest is unchanged.
//! * [`LinearModel`] — least-squares fit of per-interval PMC features
//!   (Mem/Uop, UPC) plus the opp's `V²f`/`V³` basis against DAQ-measured
//!   watts, after the counter-regression recipe of the related
//!   data-driven power-modeling work.
//! * [`TreeModel`] — a non-negative `V²f`/`V³` affine term plus a small
//!   deterministic regression tree over the counter features: fixed
//!   split order, no RNG anywhere, cheap enough for the per-PMI path.
//!
//! ## The worst-case-bound invariant
//!
//! The tenants arbiter proves "granted settings can never exceed the
//! cluster budget" by summing per-core maxima. That proof must survive a
//! model swap, so the trait carries [`PowerModel::worst_case`] with the
//! contract: **for every counter input `c`, `power(opp, c) <=
//! worst_case(opp)`**, and both are monotonically non-increasing along
//! the platform's operating-point table (fastest first). The learned
//! backends make this structural rather than empirical: their
//! operating-point basis weights are clamped non-negative at fit time
//! and their counter features are clamped into fixed boxes at inference
//! time, so the bound holds for *all* inputs, not just training-like
//! ones. A property test generates counter vectors against every
//! backend to keep the contract honest.

mod analytic;
mod linear;
mod tree;

pub use analytic::AnalyticModel;
pub use linear::LinearModel;
pub use tree::TreeModel;

use crate::opp::OperatingPoint;
use std::fmt;

/// Upper clamp on the Mem/Uop feature at inference time. The workload
/// registry tops out near 0.04 memory transactions per uop; double that
/// bounds the feature box without flattening real inputs.
pub const MEM_UOP_MAX: f64 = 0.08;

/// Upper clamp on the UPC feature at inference time. A P6-style core
/// retires well under 8 uops per cycle.
pub const UPC_MAX: f64 = 8.0;

/// Per-interval observable inputs to a power model.
///
/// `core_fraction` is the timing model's ground truth (only available
/// in simulation); `mem_uop` and `upc` are what real performance
/// counters expose. The analytic backend reads only `core_fraction`;
/// the learned backends read only the counter features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerInput {
    /// Fraction of wall time in core (non-memory-stall) work, in `[0, 1]`.
    pub core_fraction: f64,
    /// Memory bus transactions per retired uop.
    pub mem_uop: f64,
    /// Uops retired per core cycle.
    pub upc: f64,
}

impl PowerInput {
    /// An input with every field given explicitly.
    #[must_use]
    pub fn new(core_fraction: f64, mem_uop: f64, upc: f64) -> Self {
        Self {
            core_fraction,
            mem_uop,
            upc,
        }
    }

    /// An input known only by its core fraction (counter features zero).
    #[must_use]
    pub fn from_core_fraction(core_fraction: f64) -> Self {
        Self {
            core_fraction,
            mem_uop: 0.0,
            upc: 0.0,
        }
    }

    /// An input observed through performance counters alone. The core
    /// fraction is not counter-observable, so it pins to `1.0` — the
    /// worst case for the analytic backend, keeping bound-style
    /// consumers safe.
    #[must_use]
    pub fn from_counters(mem_uop: f64, upc: f64) -> Self {
        Self {
            core_fraction: 1.0,
            mem_uop,
            upc,
        }
    }

    /// The fully stalled input (DVFS transitions, handler overhead):
    /// nothing retires, the core burns residual clock activity only.
    #[must_use]
    pub fn stalled() -> Self {
        Self {
            core_fraction: 0.0,
            mem_uop: 0.0,
            upc: 0.0,
        }
    }
}

/// A package power model: watts as a function of the operating point and
/// the interval's observable behaviour.
///
/// Implementations must be deterministic pure functions and must uphold
/// the worst-case-bound invariant described in the module docs.
pub trait PowerModel {
    /// Package power (watts) at `opp` for an interval behaving like
    /// `input`.
    fn power(&self, opp: OperatingPoint, input: &PowerInput) -> f64;

    /// An upper bound on [`power`](Self::power) over *every* possible
    /// `input` at `opp`. Grant costing in the tenants arbiter prices
    /// settings off this bound, so it must dominate the backend's output
    /// for all inputs, not just plausible ones.
    fn worst_case(&self, opp: OperatingPoint) -> f64;

    /// Power while fully stalled (e.g. during a DVFS transition when no
    /// instructions retire).
    fn stall_power(&self, opp: OperatingPoint) -> f64 {
        self.power(opp, &PowerInput::stalled())
    }

    /// Short stable backend name (`analytic`, `linear`, `tree`).
    fn name(&self) -> &'static str;
}

/// One `(operating point, observed features, measured watts)` training
/// example, as produced by `daq::DaqLog::training_records`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingRecord {
    /// Operating point the interval ran at.
    pub opp: OperatingPoint,
    /// The interval's observable features.
    pub input: PowerInput,
    /// DAQ-measured average package power over the interval, watts.
    pub measured_w: f64,
}

/// Why a model fit was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer training records than free parameters.
    TooFewRecords {
        /// Minimum records the backend needs.
        needed: usize,
        /// Records actually supplied.
        got: usize,
    },
    /// A record carried a non-finite feature or measurement.
    NonFinite,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooFewRecords { needed, got } => {
                write!(f, "need at least {needed} training records, got {got}")
            }
            Self::NonFinite => write!(f, "training records contain non-finite values"),
        }
    }
}

impl std::error::Error for FitError {}

/// A concrete, owned backend choice — enum dispatch keeps the per-PMI
/// hot path free of vtable indirection and lets
/// [`PlatformConfig`](crate::PlatformConfig) stay `Clone + PartialEq`.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerModelKind {
    /// The analytic `CV²f + leakage` formula (the default).
    Analytic(AnalyticModel),
    /// A fitted least-squares counter-regression model.
    Linear(LinearModel),
    /// A fitted regression-tree model.
    Tree(TreeModel),
}

impl PowerModelKind {
    /// The backend's stable name without consulting the trait object.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Self::Analytic(m) => m.name(),
            Self::Linear(m) => m.name(),
            Self::Tree(m) => m.name(),
        }
    }
}

impl Default for PowerModelKind {
    fn default() -> Self {
        Self::Analytic(AnalyticModel::pentium_m())
    }
}

impl PowerModel for PowerModelKind {
    fn power(&self, opp: OperatingPoint, input: &PowerInput) -> f64 {
        match self {
            Self::Analytic(m) => m.power(opp, input),
            Self::Linear(m) => m.power(opp, input),
            Self::Tree(m) => m.power(opp, input),
        }
    }

    fn worst_case(&self, opp: OperatingPoint) -> f64 {
        match self {
            Self::Analytic(m) => m.worst_case(opp),
            Self::Linear(m) => m.worst_case(opp),
            Self::Tree(m) => m.worst_case(opp),
        }
    }

    fn stall_power(&self, opp: OperatingPoint) -> f64 {
        match self {
            Self::Analytic(m) => m.stall_power(opp),
            Self::Linear(m) => m.stall_power(opp),
            Self::Tree(m) => m.stall_power(opp),
        }
    }

    fn name(&self) -> &'static str {
        self.kind_name()
    }
}

/// The `V²·f` (GHz) dynamic-power basis term shared by the learned
/// backends.
#[must_use]
pub(crate) fn v2f(opp: OperatingPoint) -> f64 {
    let v = opp.voltage.volts();
    v * v * opp.frequency.ghz()
}

/// The `V³` leakage basis term shared by the learned backends.
#[must_use]
pub(crate) fn v3(opp: OperatingPoint) -> f64 {
    let v = opp.voltage.volts();
    v * v * v
}

/// Validates that every record is finite and that there are at least
/// `needed` of them.
pub(crate) fn validate_records(records: &[TrainingRecord], needed: usize) -> Result<(), FitError> {
    if records.len() < needed {
        return Err(FitError::TooFewRecords {
            needed,
            got: records.len(),
        });
    }
    let finite = records.iter().all(|r| {
        r.measured_w.is_finite()
            && r.input.mem_uop.is_finite()
            && r.input.upc.is_finite()
            && r.input.core_fraction.is_finite()
    });
    if finite {
        Ok(())
    } else {
        Err(FitError::NonFinite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opp::OperatingPointTable;

    pub(crate) fn synthetic_records(seed: u64) -> Vec<TrainingRecord> {
        // Analytic ground truth plus a deterministic feature sweep: the
        // learned backends should be able to recover the envelope.
        let truth = AnalyticModel::pentium_m();
        let table = OperatingPointTable::pentium_m();
        let mut out = Vec::new();
        let mut state = seed.max(1);
        for (_, opp) in table.iter() {
            for k in 0..8u64 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let jitter = (state >> 40) as f64 / (1u64 << 24) as f64; // [0,1)
                let cf = 0.2 + 0.1 * k as f64;
                let input = PowerInput::new(cf, 0.04 * (1.0 - cf), 1.0 + 2.0 * cf);
                let measured = truth.power(opp, &input) * (0.99 + 0.02 * jitter);
                out.push(TrainingRecord {
                    opp,
                    input,
                    measured_w: measured,
                });
            }
        }
        out
    }

    #[test]
    fn default_kind_is_the_analytic_calibration() {
        let kind = PowerModelKind::default();
        assert_eq!(kind.kind_name(), "analytic");
        let table = OperatingPointTable::pentium_m();
        let direct = AnalyticModel::pentium_m();
        let input = PowerInput::from_core_fraction(0.7);
        for (_, opp) in table.iter() {
            assert_eq!(kind.power(opp, &input), direct.power(opp, &input));
            assert_eq!(kind.worst_case(opp), direct.worst_case(opp));
            assert_eq!(kind.stall_power(opp), direct.stall_power(opp));
        }
    }

    #[test]
    fn enum_dispatch_matches_direct_calls_for_learned_backends() {
        let records = synthetic_records(7);
        let linear = LinearModel::fit(&records).unwrap();
        let tree = TreeModel::fit(&records).unwrap();
        let opp = OperatingPointTable::pentium_m().fastest();
        let input = PowerInput::from_counters(0.01, 1.5);
        assert_eq!(
            PowerModelKind::Linear(linear.clone()).power(opp, &input),
            linear.power(opp, &input)
        );
        assert_eq!(
            PowerModelKind::Tree(tree.clone()).power(opp, &input),
            tree.power(opp, &input)
        );
        assert_eq!(PowerModelKind::Linear(linear).kind_name(), "linear");
        assert_eq!(PowerModelKind::Tree(tree).kind_name(), "tree");
    }

    #[test]
    fn fit_errors_render() {
        let few = validate_records(&[], 5).unwrap_err();
        assert!(few.to_string().contains("at least 5"));
        let mut records = synthetic_records(1);
        records[0].measured_w = f64::NAN;
        assert_eq!(
            validate_records(&records, 5).unwrap_err(),
            FitError::NonFinite
        );
    }
}
