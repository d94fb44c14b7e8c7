//! # livephase-engine
//!
//! The canonical **decision engine** for live phase-driven power
//! management: classify the elapsed interval, score and update the
//! per-process predictor, predict the next phase, translate it to an
//! operating point. One implementation, four consumers:
//!
//! * the **governor**'s [`Manager`] steps one engine per run — every
//!   predictive system, reactive to oracle — and keeps only simulated-CPU,
//!   interrupt-overhead, thermal and adaptive-sampling concerns;
//! * the **serve** shards hold an engine per session and drain their
//!   queues through the batched [`DecisionEngine::step_many`];
//! * the **tenants** cluster steps one engine keyed by tenant pid, one
//!   sample per PMI;
//! * the **multiprogram** extension streams its mixes through engines
//!   stepped under one shared pid or keyed by the owning pid. (The
//!   harness's offline predictor sweeps use `livephase_core::evaluate`,
//!   which a test pins to the engine's scoring.)
//!
//! [`EngineConfig`] is the deployment context (platform, phase map,
//! translation table) validated at construction so the per-sample path
//! is panic-free; [`DecisionEngine`] is the pipeline itself. Decision
//! telemetry — latency, predictor hits/misses, DVFS transition pairs —
//! is recorded inside the engine, so every consumer is instrumented
//! identically without carrying its own handles.
//!
//! [`Manager`]: ../livephase_governor/struct.Manager.html

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

pub mod config;
pub mod engine;
pub mod table;

pub use config::{EngineConfig, EngineConfigError};
pub use engine::{Decision, DecisionEngine, Sample, DEFAULT_MAX_PIDS};
pub use table::{TranslationTable, TranslationTableError};
