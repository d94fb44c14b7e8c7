//! # livephase-pmsim
//!
//! A Pentium-M-like platform simulator — the *substrate* on which the
//! MICRO 2006 phase-prediction paper's deployed system runs. The paper used
//! a real laptop; this crate provides a faithful analytical stand-in with
//! the pieces the phase predictor and DVFS governor interact with:
//!
//! * [`opp`] — the six SpeedStep operating points of the paper's Table 2;
//! * [`timing`] — a two-component execution-time model in which core work
//!   scales with frequency and memory work does not. This single structural
//!   property yields the paper's two key observations (Section 4 /
//!   Figure 7): **Mem/Uop is DVFS-invariant** while **UPC is not**;
//! * [`power`] — the power-model zoo behind the [`power::PowerModel`]
//!   trait: the analytic `C·V²·f` + leakage formula calibrated to the
//!   Pentium-M package envelope measured in the paper (≈ 13 W at
//!   1.5 GHz / 1.484 V down to ≈ 3 W at 600 MHz / 0.956 V), plus learned
//!   least-squares and regression-tree backends fit against DAQ output;
//! * [`pmc`] — performance monitoring counters (`UOPS_RETIRED`,
//!   `BUS_TRAN_MEM`, …) with an overflow-triggered performance monitoring
//!   interrupt (PMI), used to sample execution every 100 M uops;
//! * [`dvfs`] — the SpeedStep mode-set interface with transition latency;
//! * [`cpu`] — the glue: push work in, receive PMIs out, change the
//!   operating point between intervals;
//! * [`trace`] — the piecewise-constant power waveform the simulated CPU
//!   emits, consumed by the `livephase-daq` measurement rig.
//!
//! ## Example: one interval at two frequencies
//!
//! ```
//! use livephase_pmsim::{timing::{IntervalWork, TimingModel}, opp::Frequency};
//!
//! let timing = TimingModel::pentium_m();
//! let work = IntervalWork::new(100_000_000, 80_000_000, 2_000_000, 0.7, 4.0);
//! let fast = timing.execute(&work, Frequency::from_mhz(1500));
//! let slow = timing.execute(&work, Frequency::from_mhz(600));
//! // Memory work does not scale, so slowing the clock 2.5x costs < 2.5x time:
//! assert!(slow.seconds / fast.seconds < 2.5);
//! // ... and Mem/Uop is identical at both operating points by construction.
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

pub mod cpu;
pub mod dvfs;
pub mod opp;
pub mod pmc;
pub mod power;
pub mod thermal;
pub mod timing;
pub mod trace;

pub use cpu::{Cpu, PlatformConfig, PmiRecord, VcpuContext};
pub use dvfs::DvfsController;
pub use opp::{Frequency, OperatingPoint, OperatingPointTable, Voltage};
pub use pmc::{CounterFile, Event};
pub use power::{
    AnalyticModel, FitError, LinearModel, PowerInput, PowerModel, PowerModelKind, TrainingRecord,
    TreeModel,
};
pub use thermal::{ThermalModel, ThermalState};
pub use timing::{Execution, IntervalWork, TimingModel};
pub use trace::{PowerSegment, PowerTrace};
