//! Std-only observability for the livephase stack.
//!
//! The paper's kernel module lives or dies by observing without
//! perturbing: the PMI handler budget is microseconds, so the
//! monitoring system's *own* telemetry has to be cheaper still. This
//! crate provides that instrumentation layer for the user-space
//! reproduction, std-only:
//!
//! - [`catalogue`] — every metric the workspace emits, declared once
//!   as a `static` entry: name, kind, emitting layer, unit, label keys
//!   and help text. Its unit test holds the naming conventions and
//!   checks the metric names `ci.sh`, README and DESIGN.md mention.
//! - [`registry`] — a process-global metrics [`Registry`] of atomic
//!   [`Counter`]s, [`Gauge`]s and log-linear [`Histogram`]s, registered
//!   only through catalogue entries. Handles are `Arc`s created once;
//!   every subsequent record is a relaxed atomic operation — no lock,
//!   no allocation — so instruments sit directly on the per-PMI and
//!   per-frame hot paths.
//! - [`histogram`] — the fixed log-linear bucket layout: exact below
//!   32, 32 linear sub-buckets per octave above, quantile estimates
//!   within a 1/32 relative-error bound, histograms mergeable by
//!   bucket-wise addition.
//! - [`trace`] — leveled structured events ([`trace_event!`],
//!   [`timed_span!`]) through a bounded ring buffer with human and
//!   JSON-lines stdout sinks; the default [`Sink::Null`] keeps library
//!   consumers silent. A span's target and name are literals the
//!   compiler checks against the catalogue's naming rules.
//! - Prometheus-style text exposition via [`Registry::render`], which
//!   `livephase-serve` surfaces over the wire protocol and
//!   `livephase metrics <addr>` scrapes from the CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
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

pub mod catalogue;
pub mod histogram;
pub mod registry;
pub mod scrape;
pub mod trace;

pub use catalogue::Metric;
pub use histogram::Histogram;
pub use registry::{global, Counter, Gauge, Registry};
pub use trace::{json_escape, now_unix_ms, record_span, tracer, Event, Level, Sink, Tracer};
