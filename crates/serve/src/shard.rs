//! The reactor's per-shard event loop: one thread, one epoll instance,
//! thousands of connections.
//!
//! Each shard-owner thread clones the listening socket (all clones share
//! one accept queue, so the kernel load-balances accepts across shards)
//! and runs a level-triggered readiness loop over every connection it
//! accepted: accepts are drained in bounded bursts, readable sockets
//! feed their [`Conn`]'s incremental decoder, decoded sample runs go
//! through the session engine's `step_many`, and writable sockets drain
//! their bounded outbound queues. A coarse tick — a fraction of the
//! configured read timeout — drives idle reaping and bounds how late a
//! shard notices the shutdown flag.
//!
//! The shard that wins the accept owns the connection outright:
//! predictor state never crosses a thread, so there is no lock around
//! any GPHT, and which shard serves a session never changes its
//! decisions because every session is independent.

use crate::conn::{Conn, Cx};
use crate::server::{ServerConfig, ShardMetrics, Shared};
use livephase_engine::{Decision, EngineConfig, Sample};
use livephase_pmsim::{OperatingPointTable, PowerModel};
use livephase_telemetry::{trace_event, Counter, Gauge, Histogram, Level};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::reactor::{self, Epoll, Events, Interest};

/// Tracing target for shard-loop lifecycle events under the reactor.
const TRACE: &str = "serve::shard";

/// Token reserved for the shard's listener registration; connection
/// tokens are their raw fds, which the kernel keeps well below this.
const LISTENER_TOKEN: u64 = u64::MAX;

/// Readiness events drained per `epoll_wait`.
const EVENTS_PER_WAIT: usize = 1024;

/// Accepts drained per listener readiness event, so one connect storm
/// cannot starve established connections.
const ACCEPTS_PER_EVENT: usize = 256;

/// Shared read scratch per shard: reads land here and are fed to the
/// owning connection's decoder, so serving allocates no per-read buffer.
const READ_SCRATCH_BYTES: usize = 64 * 1024;

/// Per-shard reactor instruments: the shard's session/decision handles
/// plus the reactor-specific gauges the tentpole adds.
pub(crate) struct ReactorMetrics {
    /// The per-shard session, sample and decision handles.
    pub(crate) shard: ShardMetrics,
    /// Decode latency, shard-labeled.
    pub(crate) decode_us: Arc<Histogram>,
    /// Sockets (plus the listener) this shard currently owns.
    pub(crate) open_fds: Arc<Gauge>,
    /// Readiness events delivered by the most recent `epoll_wait`.
    pub(crate) ready_depth: Arc<Gauge>,
    /// Connections shed for overflowing their outbound queue.
    pub(crate) shed_total: Arc<Counter>,
    /// Connections reaped for idling past the read timeout.
    pub(crate) reaped_total: Arc<Counter>,
    /// Resumed decode attempts a frame needed before completing.
    pub(crate) decode_resumes: Arc<Histogram>,
}

impl ReactorMetrics {
    fn new(index: usize) -> Self {
        let reg = livephase_telemetry::global();
        let shard_label = index.to_string();
        let labels: &[(&str, &str)] = &[("shard", &shard_label)];
        Self {
            shard: ShardMetrics::new(index),
            decode_us: reg.histogram(
                "serve_frame_decode_us",
                "Batch-amortized frame decode latency in microseconds.",
                labels,
            ),
            open_fds: reg.gauge(
                "serve_reactor_open_fds",
                "Sockets (including the listener) owned by this shard's reactor.",
                labels,
            ),
            ready_depth: reg.gauge(
                "serve_reactor_ready_queue_depth",
                "Readiness events delivered by the shard's most recent epoll wait.",
                labels,
            ),
            shed_total: reg.counter(
                "serve_conns_shed_total",
                "Connections shed for overflowing their bounded outbound queue.",
                labels,
            ),
            reaped_total: reg.counter(
                "serve_conns_reaped_total",
                "Connections reaped for idling past the read timeout.",
                labels,
            ),
            decode_resumes: reg.histogram(
                // lint:allow(telemetry-naming): counts decoder resumes per frame, not microseconds
                "serve_reactor_decode_resumes",
                "Resumed decode attempts a frame needed before its bytes completed.",
                labels,
            ),
        }
    }
}

/// Spawns one reactor thread per shard, each owning a clone of the
/// listener. Returns the join handles; the threads run until the shared
/// shutdown flag is raised and their connections drain.
///
/// # Errors
///
/// Propagates listener clone / nonblocking setup / thread spawn
/// failures; on a partial failure the shutdown flag is raised so the
/// already-spawned shards exit.
pub(crate) fn spawn_shards(
    listener: TcpListener,
    config: &ServerConfig,
    shared: &Arc<Shared>,
) -> io::Result<Vec<JoinHandle<()>>> {
    // Nonblocking applies to the shared open file description, so one
    // call covers every per-shard clone.
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    trace_event!(
        Level::Info,
        TRACE,
        "server started",
        addr = local_addr,
        shards = config.shards,
        max_conns = config.max_conns
    );
    let engine = Arc::new(config.engine.clone());
    // The last shard takes the original listener; earlier ones clone it
    // (clones share the accept queue, so the kernel spreads accepts).
    let mut listeners = Vec::with_capacity(config.shards);
    for _ in 0..config.shards.saturating_sub(1) {
        match listener.try_clone() {
            Ok(l) => listeners.push(l),
            Err(e) => return spawn_failed(e, shared),
        }
    }
    listeners.push(listener);
    let mut threads = Vec::with_capacity(config.shards);
    for (i, listener) in listeners.into_iter().enumerate() {
        let engine = Arc::clone(&engine);
        let shared_for_shard = Arc::clone(shared);
        let config = config.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("serve-shard-{i}"))
            .spawn(move || {
                shard_reactor_loop(i, &listener, &config, &engine, &shared_for_shard);
            });
        match spawned {
            Ok(handle) => threads.push(handle),
            Err(e) => return spawn_failed(e, shared),
        }
    }
    // The original listener moved into the last shard; drop nothing here.
    Ok(threads)
}

fn spawn_failed<T>(e: io::Error, shared: &Shared) -> io::Result<T> {
    // Already-running shards must not serve with missing siblings.
    shared.shutdown.store(true, Ordering::SeqCst);
    Err(e)
}

/// One shard's event loop: accept, decode, decide, flush, reap.
fn shard_reactor_loop(
    index: usize,
    listener: &TcpListener,
    config: &ServerConfig,
    engine: &EngineConfig,
    shared: &Shared,
) {
    let metrics = ReactorMetrics::new(index);
    let epoll = match Epoll::new() {
        Ok(ep) => ep,
        Err(e) => {
            trace_event!(
                Level::Warn,
                TRACE,
                "epoll setup failed",
                shard = index,
                error = e
            );
            shared.shutdown.store(true, Ordering::SeqCst);
            return;
        }
    };
    if let Err(e) = epoll.add(listener.as_raw_fd(), Interest::Read, LISTENER_TOKEN) {
        trace_event!(
            Level::Warn,
            TRACE,
            "listener registration failed",
            shard = index,
            error = e
        );
        shared.shutdown.store(true, Ordering::SeqCst);
        return;
    }
    let local_addr = listener.local_addr().ok();
    // Reaping compares against the read timeout, so a quarter of it keeps
    // worst-case lateness small without spinning; clamped so tiny test
    // timeouts still tick and huge ones still notice shutdown promptly.
    let tick =
        (config.read_timeout / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
    let mut events = Events::with_capacity(EVENTS_PER_WAIT);
    let mut conns: BTreeMap<RawFd, Conn> = BTreeMap::new();
    let mut scratch = vec![0u8; READ_SCRATCH_BYTES];
    // Worst-case milliwatts per operating point, priced once here by the
    // configured power backend so `flush_run` only indexes by op_point.
    // Rounded rather than truncated so the analytic default's table
    // survives a backend swap to any model agreeing within half a mW.
    let power_mw: Vec<i64> = OperatingPointTable::pentium_m()
        .points()
        .iter()
        .map(|opp| (config.power.worst_case(*opp) * 1000.0).round() as i64)
        .collect();
    let mut samples: Vec<Sample> = Vec::new();
    let mut decisions: Vec<Decision> = Vec::new();
    let mut to_close: Vec<RawFd> = Vec::new();
    let mut listener_live = true;
    let mut last_reap = Instant::now(); // lint:allow(determinism-taint): reaping cadence only
    loop {
        if epoll.wait(&mut events, Some(tick)).is_err() {
            trace_event!(Level::Warn, TRACE, "epoll wait failed", shard = index);
            break;
        }
        let now = Instant::now(); // lint:allow(determinism-taint): one clock read per wake
        metrics
            .ready_depth
            .set(i64::try_from(events.len()).unwrap_or(i64::MAX));
        if listener_live && shared.shutdown.load(Ordering::SeqCst) {
            listener_live = false;
            let _ = epoll.delete(listener.as_raw_fd());
            for (fd, conn) in conns.iter_mut() {
                let mut cx = Cx {
                    engine,
                    shared,
                    metrics: &metrics,
                    shard_index: index,
                    shards_total: config.shards,
                    max_outbound: config.max_outbound_bytes,
                    samples: &mut samples,
                    decisions: &mut decisions,
                    power_mw: &power_mw,
                    now,
                };
                conn.begin_drain(&mut cx);
                sync_conn(&epoll, *fd, conn, &mut to_close);
            }
        }
        for ev in events.iter() {
            if ev.token == LISTENER_TOKEN {
                if listener_live {
                    accept_burst(listener, &epoll, config, shared, &mut conns, now);
                }
                continue;
            }
            // Tokens are raw fds; both fit i32 on every Linux target.
            let fd = ev.token as RawFd;
            let Some(conn) = conns.get_mut(&fd) else {
                continue; // already closed this wake
            };
            let mut cx = Cx {
                engine,
                shared,
                metrics: &metrics,
                shard_index: index,
                shards_total: config.shards,
                max_outbound: config.max_outbound_bytes,
                samples: &mut samples,
                decisions: &mut decisions,
                power_mw: &power_mw,
                now,
            };
            if ev.readable || ev.hangup {
                conn.on_readable(&mut scratch, &mut cx);
            }
            if ev.writable {
                conn.on_writable(now);
            }
            if ev.hangup && conn.pending() == 0 && conn.desired().is_some() {
                // Peer half is gone and nothing is owed: don't wait for a
                // read to observe the EOF.
                to_close.push(fd);
            } else {
                sync_conn(&epoll, fd, conn, &mut to_close);
            }
        }
        if now.duration_since(last_reap) >= tick {
            last_reap = now;
            for (fd, conn) in conns.iter_mut() {
                let mut cx = Cx {
                    engine,
                    shared,
                    metrics: &metrics,
                    shard_index: index,
                    shards_total: config.shards,
                    max_outbound: config.max_outbound_bytes,
                    samples: &mut samples,
                    decisions: &mut decisions,
                    power_mw: &power_mw,
                    now,
                };
                conn.reap(&mut cx, config.read_timeout, config.write_timeout);
                sync_conn(&epoll, *fd, conn, &mut to_close);
            }
        }
        for fd in to_close.drain(..) {
            let Some(mut conn) = conns.remove(&fd) else {
                continue; // duplicate close request this wake
            };
            let _ = epoll.delete(fd);
            conn.finish(shared, &metrics);
            if conn.admitted {
                trace_event!(
                    Level::Debug,
                    TRACE,
                    "connection closed",
                    conn = conn.conn_id
                );
                finish_admitted(shared, config.exit_after_conns, local_addr);
            }
            // Dropping the Conn closes the socket.
        }
        metrics
            .open_fds
            .set(i64::try_from(conns.len() + usize::from(listener_live)).unwrap_or(i64::MAX));
        if !listener_live && conns.is_empty() {
            break;
        }
    }
    trace_event!(
        Level::Info,
        TRACE,
        "shard reactor stopped",
        shard = index,
        open = conns.len()
    );
}

/// Drains a burst of pending accepts through the gate.
fn accept_burst(
    listener: &TcpListener,
    epoll: &Epoll,
    config: &ServerConfig,
    shared: &Shared,
    conns: &mut BTreeMap<RawFd, Conn>,
    now: Instant,
) {
    for _ in 0..ACCEPTS_PER_EVENT {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The shutdown poke (or a client racing it) — not a session,
            // not counted, exactly like the blocking acceptor's break.
            drop(stream);
            continue;
        }
        if shared.active.load(Ordering::SeqCst) >= config.max_conns as u64 {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            shared.metrics.rejected_total.inc();
            trace_event!(
                Level::Warn,
                TRACE,
                "connection refused at accept gate",
                max_conns = config.max_conns
            );
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let fd = stream.as_raw_fd();
            let mut conn = Conn::refused(stream, now);
            conn.try_flush(now);
            if conn.desired().is_none() {
                continue; // Error{Busy} already flushed; drop closes it
            }
            if epoll.add(fd, Interest::Write, fd as u64).is_ok() {
                conn.interest = Some(Interest::Write);
                conns.insert(fd, conn);
            }
            continue;
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        if let Some(bytes) = config.sndbuf {
            let _ = reactor::set_send_buffer(stream.as_raw_fd(), bytes);
        }
        let conn_id = shared.accepted.fetch_add(1, Ordering::SeqCst) + 1;
        shared.active.fetch_add(1, Ordering::SeqCst);
        shared.metrics.connections_total.inc();
        shared.metrics.connections_active.inc();
        trace_event!(Level::Debug, TRACE, "connection accepted", conn = conn_id);
        let fd = stream.as_raw_fd();
        let mut conn = Conn::admitted(stream, conn_id, now);
        if epoll.add(fd, Interest::Read, fd as u64).is_ok() {
            conn.interest = Some(Interest::Read);
            conns.insert(fd, conn);
        } else {
            // Registration failed: undo the admission like the blocking
            // acceptor does when a connection thread cannot spawn.
            shared.active.fetch_sub(1, Ordering::SeqCst);
            shared.metrics.connections_active.dec();
            trace_event!(
                Level::Warn,
                TRACE,
                "registering a connection failed",
                conn = conn_id
            );
        }
    }
}

/// Post-connection bookkeeping: drop the active count and, when an `exit_after_conns` quota is both
/// reached and fully drained, initiate shutdown and poke every shard
/// awake via a loopback connect.
fn finish_admitted(shared: &Shared, exit_after: Option<u64>, local_addr: Option<SocketAddr>) {
    let remaining = shared.active.fetch_sub(1, Ordering::SeqCst) - 1;
    shared.metrics.connections_active.dec();
    let Some(quota) = exit_after else { return };
    if remaining == 0 && shared.accepted.load(Ordering::SeqCst) >= quota {
        trace_event!(
            Level::Info,
            TRACE,
            "connection quota drained; shutting down",
            quota = quota
        );
        shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(addr) = local_addr {
            drop(std::net::TcpStream::connect(addr)); // wake the shards
        }
    }
}

/// Reconciles a connection's epoll registration with what it now wants;
/// a finished (or unregisterable) connection is queued for closing.
fn sync_conn(epoll: &Epoll, fd: RawFd, conn: &mut Conn, to_close: &mut Vec<RawFd>) {
    match conn.desired() {
        None => to_close.push(fd),
        Some(want) => {
            if conn.interest != Some(want) {
                if epoll.modify(fd, want, fd as u64).is_ok() {
                    conn.interest = Some(want);
                } else {
                    to_close.push(fd);
                }
            }
        }
    }
}
