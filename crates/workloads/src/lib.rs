//! # livephase-workloads
//!
//! Synthetic workload generators standing in for the SPEC CPU2000 suite the
//! MICRO 2006 paper evaluates on, plus the paper's own **IPCxMEM**
//! characterization micro-suite.
//!
//! The paper's entire evaluation consumes workloads through one narrow
//! interface: the per-interval tuple *(uops, instructions, memory bus
//! transactions, core CPI, memory-level parallelism)* — everything else
//! (UPC, BIPS, power, phases) is derived by the platform model. A
//! benchmark is therefore reproduced by a generator whose interval stream
//! matches the real program's:
//!
//! * **marginal statistics** — average Mem/Uop ("power savings potential",
//!   the x-axis of the paper's Figure 3) and sample variability (the
//!   y-axis: % of consecutive samples moving > 0.005 in Mem/Uop), and
//! * **temporal structure** — constant, slowly wandering, or rapidly
//!   repeating phase patterns (the property the GPHT predictor exploits
//!   and statistical predictors miss).
//!
//! The [`spec`] module carries one calibrated [`BenchmarkSpec`] per SPEC
//! run shown in the paper's figures (33 in total), each documented with its
//! calibration targets. [`ipcxmem`] generates the grid of pinned
//! (UPC, Mem/Uop) points used in Section 4 to demonstrate DVFS invariance.
//!
//! ```
//! use livephase_workloads::spec;
//!
//! let applu = spec::benchmark("applu_in").expect("registered");
//! let trace = applu.generate(42);
//! let stats = trace.characterize();
//! // applu is the paper's running example of a highly variable workload.
//! assert!(stats.sample_variation_pct > 30.0);
//! ```

#![forbid(unsafe_code)]
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
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod io;
pub mod ipcxmem;
pub mod level;
pub mod multiprogram;
pub mod pattern;
pub mod source;
pub mod spec;
pub mod trace;

pub use io::{from_csv, stream_csv, to_csv, CsvSource, TraceCsvError};
pub use ipcxmem::{IpcxMemConfig, IpcxMemSuite};
pub use level::PhaseLevel;
pub use multiprogram::{round_robin_source, RoundRobinSource};
pub use pattern::{Movement, Step};
pub use source::{
    counter_samples, ConstantSource, CounterSample, CounterSamples, IntervalSource,
    IntoIntervalSource, OwnedTraceCursor, SourceIter, TraceCursor,
};
pub use spec::{benchmark, registry, BenchmarkSpec, Quadrant, SpecSource};
pub use trace::{TraceStats, WorkloadTrace};
