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
use crate::transport::{EVENTS_PER_WAIT, SCRATCH_BYTES};
use livephase_collections::BTreeMap;
use livephase_engine::{Decision, EngineConfig, Sample};
use livephase_pmsim::{OperatingPointTable, PowerModel};
use livephase_telemetry::{catalogue, trace_event, Counter, Gauge, Histogram, Level};
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

/// Accepts drained per listener readiness event, so one connect storm
/// cannot starve established connections.
const ACCEPTS_PER_EVENT: usize = 256;

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
        let labels: &[&str] = &[&shard_label];
        Self {
            shard: ShardMetrics::new(index),
            decode_us: reg.histogram(&catalogue::SERVE_FRAME_DECODE_US, labels),
            open_fds: reg.gauge(&catalogue::SERVE_REACTOR_OPEN_FDS, labels),
            ready_depth: reg.gauge(&catalogue::SERVE_REACTOR_READY_QUEUE_DEPTH, labels),
            shed_total: reg.counter(&catalogue::SERVE_CONNS_SHED_TOTAL, labels),
            reaped_total: reg.counter(&catalogue::SERVE_CONNS_REAPED_TOTAL, labels),
            decode_resumes: reg.histogram(&catalogue::SERVE_REACTOR_DECODE_RESUMES, labels),
        }
    }
}

/// What a shard lends its connections' event handlers: the engine, the
/// counters and instruments, and the shard-owned reuse buffers.
struct Shard<'a> {
    index: usize,
    config: &'a ServerConfig,
    engine: &'a EngineConfig,
    shared: &'a Shared,
    metrics: ReactorMetrics,
    samples: Vec<Sample>,
    decisions: Vec<Decision>,
    power_mw: Vec<i64>,
}

impl Shard<'_> {
    /// The context one event handler runs with at `now`.
    fn cx(&mut self, now: Instant) -> Cx<'_> {
        Cx {
            engine: self.engine,
            shared: self.shared,
            metrics: &self.metrics,
            shard_index: self.index,
            max_outbound: self.config.max_outbound_bytes,
            samples: &mut self.samples,
            decisions: &mut self.decisions,
            power_mw: &self.power_mw,
            now,
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
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    let mut shard = Shard {
        index,
        config,
        engine,
        shared,
        metrics: ReactorMetrics::new(index),
        samples: Vec::new(),
        decisions: Vec::new(),
        // Worst-case milliwatts per operating point, priced once here by
        // the configured power backend so `flush_run` only indexes by
        // op_point. Rounded rather than truncated so the analytic
        // default's table survives a backend swap to any model agreeing
        // within half a mW.
        power_mw: OperatingPointTable::pentium_m()
            .points()
            .iter()
            .map(|opp| (config.power.worst_case(*opp) * 1000.0).round() as i64)
            .collect(),
    };
    let mut to_close: Vec<RawFd> = Vec::new();
    let mut listener_live = true;
    #[expect(clippy::disallowed_methods, reason = "reaping cadence only")]
    let mut last_reap = Instant::now();
    loop {
        if epoll.wait(&mut events, Some(tick)).is_err() {
            trace_event!(Level::Warn, TRACE, "epoll wait failed", shard = index);
            break;
        }
        #[expect(clippy::disallowed_methods, reason = "one clock read per wake")]
        let now = Instant::now();
        shard
            .metrics
            .ready_depth
            .set(i64::try_from(events.len()).unwrap_or(i64::MAX));
        if listener_live && shared.shutdown.load(Ordering::SeqCst) {
            listener_live = false;
            let _ = epoll.delete(listener.as_raw_fd());
            for (_, conn) in conns.iter_mut() {
                conn.begin_drain(&mut shard.cx(now));
                conn.sync(&epoll, &mut to_close);
            }
        }
        for ev in events.iter() {
            if ev.token == LISTENER_TOKEN {
                if listener_live {
                    accept_burst(
                        listener,
                        &epoll,
                        config,
                        shared,
                        &mut conns,
                        &mut to_close,
                        now,
                    );
                }
                continue;
            }
            // Tokens are raw fds; both fit i32 on every Linux target.
            let fd = ev.token as RawFd;
            let Some(conn) = conns.get_mut(&fd) else {
                continue; // already closed this wake
            };
            if ev.readable || ev.hangup {
                conn.on_readable(&mut scratch, &mut shard.cx(now));
            }
            if ev.writable {
                conn.try_flush(now);
            }
            if ev.hangup && conn.pending() == 0 && conn.desired().is_some() {
                // Peer half is gone and nothing is owed: don't wait for a
                // read to observe the EOF.
                to_close.push(fd);
            } else {
                conn.sync(&epoll, &mut to_close);
            }
        }
        if now.duration_since(last_reap) >= tick {
            last_reap = now;
            for (_, conn) in conns.iter_mut() {
                conn.reap(
                    &mut shard.cx(now),
                    config.read_timeout,
                    config.write_timeout,
                );
                conn.sync(&epoll, &mut to_close);
            }
        }
        for fd in to_close.drain(..) {
            let Some(mut conn) = conns.remove(&fd) else {
                continue; // duplicate close request this wake
            };
            let _ = epoll.delete(fd);
            conn.finish(&shard.metrics);
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
        shard
            .metrics
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

/// Drains a burst of pending accepts through the gate. A connection
/// whose registration fails is queued on `to_close`, which undoes its
/// admission.
fn accept_burst(
    listener: &TcpListener,
    epoll: &Epoll,
    config: &ServerConfig,
    shared: &Shared,
    conns: &mut BTreeMap<RawFd, Conn>,
    to_close: &mut Vec<RawFd>,
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
            conn.sync(epoll, to_close);
            conns.insert(fd, conn);
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
        conn.sync(epoll, to_close);
        conns.insert(fd, conn);
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
