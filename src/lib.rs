//! # livephase
//!
//! A full-system Rust reproduction of Isci, Contreras & Martonosi,
//! *"Live, Runtime Phase Monitoring and Prediction on Real Systems with
//! Application to Dynamic Power Management"* (MICRO-39, 2006).
//!
//! This façade crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`core`] — phase classification (Table 1) and the phase predictors:
//!   the Global Phase History Table (GPHT) and the statistical baselines.
//! * [`pmsim`] — the Pentium-M-like platform simulator: timing and power
//!   models, performance counters, PMI, and the SpeedStep DVFS interface.
//! * [`workloads`] — SPEC CPU2000-like synthetic workload generators and
//!   the IPCxMEM characterization suite.
//! * [`daq`] — the simulated data-acquisition power-measurement rig.
//! * [`engine`] — the batched [`DecisionEngine`](engine::DecisionEngine):
//!   classification, per-pid prediction, scoring, and phase→operating-point
//!   translation behind one API, shared by the governor, the serve shards,
//!   and the experiment harness.
//! * [`governor`] — the phase-prediction-guided DVFS management loop.
//! * [`experiments`] — drivers regenerating every table and figure of the
//!   paper.
//! * [`serve`] — phase prediction as a sharded TCP service: wire
//!   protocol, session engine, server, client and load generator.
//! * [`telemetry`] — std-only observability: a catalogue
//!   declaring every metric once, a process-global metrics registry
//!   with Prometheus-style exposition, and leveled structured tracing.
//!
//! The decision path's invariants (no panic, no wall-clock, environment
//! or hash-order dependence, no undocumented `unsafe`) are rustc and
//! clippy lints declared in the nine hot-path crates and `clippy.toml`.
//!
//! See the repository `README.md` for a tour and `DESIGN.md` for the
//! paper-to-crate mapping.

#![forbid(unsafe_code)]

pub use livephase_core as core;
pub use livephase_daq as daq;
pub use livephase_engine as engine;
pub use livephase_experiments as experiments;
pub use livephase_governor as governor;
pub use livephase_pmsim as pmsim;
pub use livephase_serve as serve;
pub use livephase_telemetry as telemetry;
pub use livephase_tenants as tenants;
pub use livephase_workloads as workloads;
