//! The sharded TCP phase-prediction server.
//!
//! One I/O engine drives every connection: N shard threads, each
//! running a nonblocking epoll readiness loop over the listener and
//! every connection it accepted (see the `shard` and `conn` modules).
//! One thread owns thousands of sockets; sessions
//! never cross threads, so each shard exclusively owns the predictor
//! state of the sessions it accepted — there is no lock around any
//! GPHT. (The reactor tests check bit-exactness directly against an
//! in-process `DecisionEngine` fed the same samples.)
//!
//! Robustness: every connection carries read/write timeouts; a
//! malformed or oversized frame earns the sender a terminal
//! [`Frame::Error`](crate::wire::Frame::Error) and poisons **only that connection** — its shard
//! and every other session keep running. Connections whose outbound
//! queue exceeds [`ServerConfig::max_outbound_bytes`] are shed with a
//! typed slow-consumer error. Shutdown is flag-based:
//! [`ServerHandle::shutdown`] (or `exit_after_conns` draining the last
//! connection) raises the flag and pokes the listener with a loopback
//! connect; connections are drained — in-flight samples still get their
//! decisions and queued frames flush — before sockets close.

use livephase_engine::EngineConfig;
use livephase_telemetry::{catalogue, trace_event, Counter, Gauge, Histogram, Level};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tracing target for every event this module emits.
const TRACE: &str = "serve::server";

/// Process-global instrument handles for the connection lifecycle; shard
/// threads hold their own per-shard handles (see [`ShardMetrics`]).
/// Created once per server, recorded lock-free ever after.
#[derive(Debug)]
pub(crate) struct ServeMetrics {
    pub(crate) connections_total: Arc<Counter>,
    pub(crate) connections_active: Arc<Gauge>,
    pub(crate) rejected_total: Arc<Counter>,
    pub(crate) poisoned_total: Arc<Counter>,
    pub(crate) frame_encode_us: Arc<Histogram>,
}

impl ServeMetrics {
    fn new() -> Self {
        let reg = livephase_telemetry::global();
        Self {
            connections_total: reg.counter(&catalogue::SERVE_CONNECTIONS_TOTAL, &[]),
            connections_active: reg.gauge(&catalogue::SERVE_CONNECTIONS_ACTIVE, &[]),
            rejected_total: reg.counter(&catalogue::SERVE_CONNECTIONS_REJECTED_TOTAL, &[]),
            poisoned_total: reg.counter(&catalogue::SERVE_CONNECTIONS_POISONED_TOTAL, &[]),
            frame_encode_us: reg.histogram(&catalogue::SERVE_FRAME_ENCODE_US, &[]),
        }
    }
}

/// Per-shard instrument handles, owned by one shard thread.
pub(crate) struct ShardMetrics {
    pub(crate) sessions: Arc<Gauge>,
    pub(crate) samples_total: Arc<Counter>,
    pub(crate) decision_us: Arc<Histogram>,
    pub(crate) power_estimate_mw: Arc<Gauge>,
}

impl ShardMetrics {
    pub(crate) fn new(index: usize) -> Self {
        let reg = livephase_telemetry::global();
        let shard = index.to_string();
        let label: &[&str] = &[&shard];
        Self {
            sessions: reg.gauge(&catalogue::SERVE_SHARD_SESSIONS, label),
            samples_total: reg.counter(&catalogue::SERVE_SHARD_SAMPLES_TOTAL, label),
            // The governor-level decision series (governor_decisions_total,
            // governor_decision_us, predictor hits/misses) are recorded by
            // each session's DecisionEngine — the shard
            // pipeline IS the governor decision path — so only the
            // shard-labeled view lives here.
            decision_us: reg.histogram(&catalogue::SERVE_SHARD_DECISION_US, label),
            // Priced by the configured power backend's worst-case bound —
            // the same pessimistic cost the tenants arbiter charges — so a
            // dashboard can overlay "what the fleet could draw" on top of
            // decision throughput without any per-sample model evaluation.
            power_estimate_mw: reg.gauge(&catalogue::SERVE_POWER_ESTIMATE_MW, label),
        }
    }
}

/// Everything a server needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks an ephemeral port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Number of shard owner threads.
    pub shards: usize,
    /// Accept gate: connections beyond this many concurrent sessions are
    /// refused with [`crate::wire::ErrorCode::Busy`].
    pub max_conns: usize,
    /// Per-connection socket read timeout; an idle connection is closed
    /// with [`crate::wire::ErrorCode::IdleTimeout`] after this long, and shutdown is
    /// noticed at most this late.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Initiate shutdown once this many connections have been admitted
    /// *and* all of them have finished — lets scripted smoke tests run a
    /// bounded session and get a clean exit.
    pub exit_after_conns: Option<u64>,
    /// Phase map, translation table and platform name served.
    pub engine: EngineConfig,
    /// Power backend pricing the per-shard `serve_power_estimate_mw`
    /// gauge: each decided operating point is costed at the backend's
    /// declared worst-case bound, precomputed per shard so the hot path
    /// only indexes a table.
    pub power: livephase_pmsim::PowerModelKind,
    /// A connection whose un-drained outbound queue exceeds this many
    /// bytes is shed with a typed slow-consumer error.
    pub max_outbound_bytes: usize,
    /// Cap each accepted socket's kernel send buffer (`SO_SNDBUF`) to
    /// this many bytes. `None` keeps the kernel default; tests set it
    /// low to make backpressure prompt.
    pub sndbuf: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            shards: 4,
            max_conns: 256,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            exit_after_conns: None,
            engine: EngineConfig::pentium_m(),
            power: livephase_pmsim::PowerModelKind::default(),
            max_outbound_bytes: 256 * 1024,
            sndbuf: None,
        }
    }
}

/// A server's counters: read live through [`ServerHandle::summary`],
/// and reported once more when the server exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSummary {
    /// Connections admitted past the accept gate.
    pub accepted: u64,
    /// Connections refused with [`crate::wire::ErrorCode::Busy`].
    pub rejected: u64,
    /// Connections terminated for malformed frames, protocol violations
    /// or idle timeouts.
    pub poisoned: u64,
    /// Samples ingested.
    pub samples: u64,
    /// Decisions computed.
    pub decisions: u64,
}

/// Counters shared by every thread of a running server.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    pub(crate) accepted: AtomicU64,
    pub(crate) active: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) poisoned: AtomicU64,
    pub(crate) samples: AtomicU64,
    pub(crate) decisions: AtomicU64,
    pub(crate) metrics: ServeMetrics,
}

impl Shared {
    fn new() -> Self {
        Self {
            shutdown: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            active: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
            metrics: ServeMetrics::new(),
        }
    }

    pub(crate) fn summary(&self) -> ServerSummary {
        ServerSummary {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
            samples: self.samples.load(Ordering::Relaxed),
            decisions: self.decisions.load(Ordering::Relaxed),
        }
    }
}

/// A running server: its bound address plus the means to stop it.
#[derive(Debug)]
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This server's counters so far, read live. Unlike the process-wide
    /// metrics registry, which every server in the process records into,
    /// these count this server's traffic only.
    #[must_use]
    pub fn summary(&self) -> ServerSummary {
        self.shared.summary()
    }

    /// Raises the shutdown flag, pokes the listener awake, and waits for
    /// every connection to drain.
    ///
    /// # Panics
    ///
    /// Panics if a server thread itself panicked.
    pub fn shutdown(self) -> ServerSummary {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock whichever thread is waiting on the listener; the flag
        // is checked before admitting.
        drop(TcpStream::connect(self.local_addr));
        self.join()
    }

    /// Waits for the server to exit on its own (`exit_after_conns`).
    ///
    /// # Panics
    ///
    /// Panics if a server thread itself panicked.
    pub fn join(self) -> ServerSummary {
        for t in self.threads {
            t.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
        let summary = self.shared.summary();
        trace_event!(
            Level::Info,
            TRACE,
            "server stopped",
            accepted = summary.accepted,
            samples = summary.samples,
            decisions = summary.decisions,
            poisoned = summary.poisoned
        );
        summary
    }
}

/// Binds `config.addr` and spawns the shard reactor threads; returns
/// once the port is bound, so [`ServerHandle::local_addr`] is
/// immediately connectable.
///
/// # Errors
///
/// Propagates the bind failure, listener clone failures and shard
/// spawn failures.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    assert!(config.shards > 0, "a server has at least one shard");
    assert!(
        config.max_conns > 0,
        "a server admits at least one connection"
    );
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(Shared::new());
    let threads = crate::shard::spawn_shards(listener, &config, &shared)?;
    Ok(ServerHandle {
        local_addr,
        shared,
        threads,
    })
}
