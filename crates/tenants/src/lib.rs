//! # livephase-tenants
//!
//! Virtualized multi-tenant phase governance: the paper's Figure 8 loop
//! (classify → predict → set the operating point) lifted from one
//! process on one Pentium-M to M tenant VMs multiplexed onto K simulated
//! cores under a cluster-wide power cap.
//!
//! Three pieces compose:
//!
//! * **Counter virtualization** ([`cluster`]): a deterministic
//!   round-robin credit scheduler that context-switches tenants with
//!   [`livephase_pmsim::VcpuContext`] save/restore, so each tenant's
//!   PMC/TSC deltas — and therefore its Mem/Uop stream, phase
//!   classifications, and decisions — are bit-for-bit identical to a
//!   solo run of the same trace, regardless of slicing or neighbors.
//! * **Per-tenant engine state**: one shared
//!   [`livephase_engine::DecisionEngine`] keyed by tenant id carries
//!   every tenant's predictor and scoring state — the same per-pid map
//!   the serve shards use, exercised at fleet scale.
//! * **The power-cap arbiter** ([`arbiter`]): each epoch, per-tenant
//!   DVFS requests are granted under a global watt budget using
//!   worst-case per-setting costs and per-core maxima, so measured
//!   cluster power provably never exceeds the budget (priority and
//!   water-filling policies, with starvation accounting).
//!
//! A run is a pure function of its [`ScenarioSpec`]: two runs of the
//! same spec produce identical per-tenant decision digests, which is
//! what the CI determinism gate compares.

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

pub mod arbiter;
pub mod cluster;
pub mod report;
pub mod scenario;

pub use arbiter::{Arbiter, ArbiterPolicy, Grant, Request};
pub use cluster::run_scenario;
pub use report::{fnv1a, ClusterReport, TenantReport, DIGEST_SEED};
pub use scenario::{ScenarioError, ScenarioSpec, DEFAULT_QUANTUM_UOPS, NOISY_BENCHMARK};
