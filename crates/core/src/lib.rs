//! # livephase-core
//!
//! Phase classification and live, runtime phase *prediction*, reproducing the
//! primary contribution of Isci, Contreras and Martonosi, *"Live, Runtime
//! Phase Monitoring and Prediction on Real Systems with Application to
//! Dynamic Power Management"*, MICRO-39, 2006.
//!
//! The paper classifies coarse-grained (100 M instruction) execution
//! intervals into **phases** by their memory-boundedness — memory bus
//! transactions per retired micro-op (*Mem/Uop*, [`MemUopRate`]) — and then
//! predicts the phase of the *next* interval with a **Global Phase History
//! Table** ([`Gpht`]) predictor borrowed from two-level global branch
//! prediction. Statistical baselines from the paper ([`LastValue`],
//! [`FixedWindow`], [`VariableWindow`]) are provided for comparison.
//!
//! ## Quick example
//!
//! ```
//! use livephase_core::{PhaseMap, PhaseSample, Predictor, Gpht, GphtConfig};
//!
//! // Table 1 of the paper: six phases over Mem/Uop.
//! let map = PhaseMap::pentium_m();
//! let mut gpht = Gpht::new(GphtConfig { gphr_depth: 8, pht_entries: 128 });
//!
//! // A periodic workload: Mem/Uop swings between CPU- and memory-bound.
//! let rates = [0.001, 0.012, 0.035, 0.012, 0.001, 0.012, 0.035, 0.012];
//! for &rate in rates.iter().cycle().take(64) {
//!     let phase = map.classify(rate);
//!     let predicted_next = gpht.next(PhaseSample::new(rate, phase));
//!     // ... drive DVFS from `predicted_next` ...
//!     let _ = predicted_next;
//! }
//! ```
//!
//! All predictors implement the [`Predictor`] trait and can be evaluated on a
//! phase stream with [`evaluate`].
//!
//! The crate is `#![forbid(unsafe_code)]` and fully deterministic: it
//! contains no clocks and no randomness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The hot-path invariants on non-test library code (DESIGN.md §3f).
#![cfg_attr(not(test), warn(clippy::indexing_slicing, clippy::string_slice))]
#![cfg_attr(not(test), warn(clippy::panic))]
#![cfg_attr(not(test), warn(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), warn(clippy::undocumented_unsafe_blocks))]
#![cfg_attr(not(test), warn(clippy::allow_attributes))]
#![cfg_attr(not(test), warn(clippy::allow_attributes_without_reason))]

pub mod eval;
pub mod metrics;
pub mod phase;
pub mod predict;

pub use eval::{
    evaluate, evaluate_confusion, evaluate_trace, ConfusionMatrix, EvaluationTrace,
    PredictionStats, StreamScorer, CONFIDENCE_SCALE,
};
pub use metrics::{IntervalMetrics, MemUopRate, Upc};
pub use phase::{PhaseId, PhaseMap, PhaseMapError};
pub use predict::confidence::ConfidentPredictor;
pub use predict::duration::{DurationPredictor, DurationScheme, PhaseRun, RunLengthEncoder};
pub use predict::fixed_window::{FixedWindow, Selector};
pub use predict::gpht::{Gpht, GphtConfig};
pub use predict::hashed_gpht::{HashedGpht, HashedGphtConfig};
pub use predict::last_value::LastValue;
pub use predict::markov::MarkovPredictor;
pub use predict::spec::{from_spec as predictor_from_spec, PredictorSpecError};
pub use predict::variable_window::VariableWindow;
pub use predict::{PhaseSample, Predictor};
