//! # livephase-experiments
//!
//! One driver per table and figure of the MICRO 2006 paper. Each module
//! exposes a `run(seed)` entry point returning a printable result whose
//! `Display` output mirrors the rows/series the paper reports, plus a
//! `check(..)` routine asserting the *shape* claims the paper makes about
//! that artifact (who wins, by roughly what factor, where the crossovers
//! fall). [`repro`] names every driver for `livephase-cli repro
//! <artifact>` and renders the full record behind `EXPERIMENTS.md` and
//! `results/*.csv` (`repro all`).
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`table1`]  | Table 1 — Mem/Uop phase definitions |
//! | [`table2`]  | Table 2 — phase → DVFS translation |
//! | [`fig02`]   | Figure 2 — applu trace: actual vs LastValue vs GPHT |
//! | [`fig03`]   | Figure 3 — benchmark stability/savings quadrants |
//! | [`fig04`]   | Figure 4 — prediction accuracy, 6 predictors × 33 runs |
//! | [`fig05`]   | Figure 5 — GPHT accuracy vs PHT size |
//! | [`fig06`]   | Figure 6 — (UPC, Mem/Uop) space + IPCxMEM grid |
//! | [`fig07`]   | Figure 7 — metric behaviour across 6 frequencies |
//! | [`fig10`]   | Figure 10 — applu under management, with DAQ power |
//! | [`fig11`]   | Figure 11 — normalized BIPS/power/EDP, all runs |
//! | [`fig12`]   | Figure 12 — GPHT vs reactive EDP/degradation |
//! | [`fig13`]   | Figure 13 — performance-bounded conservative phases |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod extensions;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod format;
pub mod power_zoo;
pub mod predictors;
pub mod repro;
pub mod runs;
pub mod table1;
pub mod table2;

/// The seed every experiment uses unless overridden, so published numbers
/// are reproducible bit-for-bit.
pub const DEFAULT_SEED: u64 = 42;

/// Outcome of an experiment's shape checks: the list of violated claims
/// (empty = all of the paper's qualitative claims hold).
pub type ShapeViolations = Vec<String>;
