//! Phase monitoring and prediction as a network service.
//!
//! The paper's deployment runs the phase predictor inside the kernel of
//! the machine it manages. This crate is the other deployment shape: a
//! long-running TCP daemon that accepts counter samples from many
//! machines (or many processes) and returns DVFS decisions — phase
//! prediction as infrastructure rather than a kernel module.
//!
//! The crate stacks three layers, std-only (no async runtime, no
//! networking dependencies), over the shared `livephase-engine`
//! decision pipeline:
//!
//! - [`wire`] — the versioned, length-prefixed binary frame protocol:
//!   `Hello`/`HelloAck` handshake, `Sample` → `Decision` streaming,
//!   `Stats`, explicit `Error` frames.
//! - [`server`] — the sharded daemon: N shard owner threads exclusively
//!   holding predictor state (one `DecisionEngine` per session, its
//!   queued samples drained through the batched `step_many`), timeouts, a `max_conns` accept gate,
//!   poison-one-connection error handling and flag-based draining
//!   shutdown. Connections are driven by a nonblocking epoll **reactor**
//!   (the [`reactor`] syscall layer plus the private `conn` and `shard`
//!   modules) — one readiness loop per shard thread owning thousands of
//!   sockets, bounded outbound queues with slow-consumer shedding, idle
//!   reaping on a coarse tick.
//! - [`client`] / [`loadgen`] — the blocking client and the
//!   `serve-bench` load generator, which replays the synthetic SPEC
//!   workloads over M connections and checks served decisions bit-exactly
//!   against an in-process oracle run.

// `unsafe` is denied crate-wide and allowed back in exactly one place:
// the `reactor` syscall module, the workspace's only unsafe island.
#![deny(unsafe_code)]
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

pub mod client;
pub(crate) mod conn;
pub mod loadgen;
pub mod reactor;
pub mod server;
pub(crate) mod shard;
pub(crate) mod transport;
pub mod wire;

pub use client::{Client, ClientError, ServedDecision};
pub use livephase_engine::{Decision, EngineConfig, EngineConfigError, Sample};
pub use loadgen::{Agreement, LoadGenConfig, LoadGenError, LoadReport};
pub use server::{spawn, ServerConfig, ServerHandle, ServerSummary};
pub use wire::{ErrorCode, Frame, StatsSnapshot, MAX_FRAME_BYTES, PROTOCOL_VERSION};
