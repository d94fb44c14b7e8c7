//! # livephase-governor
//!
//! The dynamic power-management side of the MICRO 2006 paper: the PMI
//! handler flow of Figure 8, driving DVFS from live phase predictions.
//!
//! * [`table`] — the phase → DVFS look-up table (the paper's Table 2),
//!   re-exported from `livephase-engine`, where the shared decision
//!   pipeline lives;
//! * [`manager`] — the interval loop + interrupt handler that ties a
//!   workload (any streaming `IntervalSource`, or a buffered trace) and
//!   the simulated CPU to one `DecisionEngine`, the pipeline that
//!   classifies, predicts and translates. The systems Section 6 compares
//!   are managers: [`Manager::baseline`] (no engine, always full speed),
//!   [`Manager::reactive`] (a last-value engine: respond to the *last
//!   observed* phase, the prior-work approach) and
//!   [`Manager::gpht_deployed`] (respond to the *predicted next* phase);
//! * [`policy`] — the [`DecisionHook`] that may reshape an engine
//!   decision with the platform state in view, and the [`Oracle`]
//!   predictor that replays a trace's actual phases;
//! * [`thermal`] — the shipped hooks: thermal guard and power cap;
//! * [`sweep`] — [`par_map`], the order-preserving parallel sweep
//!   primitive every experiment fans its runs over;
//! * [`conservative`] — Section 6.3: deriving alternative phase
//!   definitions that bound worst-case performance degradation;
//! * [`report`] — run reports (with their per-interval log), whole-run
//!   summaries, and baseline-normalized comparisons (EDP improvement,
//!   performance degradation, power/energy savings).
//!
//! ```
//! use livephase_governor::{manager::Manager, policy};
//! use livephase_pmsim::PlatformConfig;
//! use livephase_workloads::spec;
//!
//! let trace = spec::benchmark("applu_in").unwrap().with_length(60).generate(1);
//! let platform = PlatformConfig::pentium_m();
//! let baseline = Manager::baseline().run(&trace, &platform);
//! let managed = Manager::gpht_deployed().run(&trace, &platform);
//! let cmp = managed.compare_to(&baseline);
//! assert!(cmp.edp_improvement_pct() > 0.0, "GPHT-managed EDP improves");
//! ```

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

pub mod conservative;
pub mod estimate;
pub mod manager;
pub mod policy;
pub mod report;
pub mod sweep;
pub mod thermal;

pub use livephase_engine::table;

pub use conservative::ConservativeDerivation;
pub use estimate::PowerEstimator;
pub use manager::{AdaptiveSampling, Manager, ManagerConfig};
pub use policy::{DecisionHook, Environment, Oracle};
pub use report::{IntervalLog, NormalizedComparison, RunReport, RunSummary};
pub use sweep::par_map;
pub use table::{TranslationTable, TranslationTableError};
pub use thermal::{PowerCap, ThermalAware};
