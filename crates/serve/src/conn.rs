//! Per-connection state for the epoll reactor.
//!
//! A [`Conn`] owns one nonblocking socket, its resumable
//! [`FrameDecoder`], and its bounded outbound byte queue, and advances a
//! small phase machine (`Hello` → `Streaming` → `Closing`) as readiness
//! events arrive. It is driven entirely by its shard's event loop (see
//! [`crate::shard`]): `on_readable` pulls bytes into the decoder and
//! walks complete frames, `flush_run` pushes a coalesced run of samples
//! through the session's [`DecisionEngine::step_many`] and encodes the
//! decisions in-place with [`wire::encode_into`], and `try_flush` drains
//! the outbound queue until the socket pushes back.
//!
//! Every refusal is typed: the session gets one terminal
//! [`Frame::Error`], counted in `serve_errors_total`, and only this
//! connection closes. A peer that stops draining its socket has its
//! queue capped at `max_outbound_bytes` and is shed with
//! [`ErrorCode::SlowConsumer`], and a peer that goes quiet past the read
//! timeout is reaped on the shard's coarse tick.
//!
//! Steady-state serving allocates nothing per frame: reads land in the
//! shard's reusable scratch buffer, the decoder recycles its internal
//! buffer, and decisions are appended to the connection's reused
//! outbound `Vec` without intermediate encode allocations.

use crate::server::Shared;
use crate::shard::ReactorMetrics;
use crate::wire::{self, ErrorCode, Frame, FrameDecoder, PROTOCOL_VERSION};
use livephase_engine::{Decision, DecisionEngine, EngineConfig, Sample};
use livephase_telemetry::{trace_event, Level};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::reactor::Interest;

/// Tracing target for connection lifecycle events under the reactor.
const TRACE: &str = "serve::conn";

/// Consecutive `read(2)` calls per readiness event before yielding back
/// to the event loop; level-triggered registration re-delivers anything
/// left, so this only bounds per-connection monopoly of the shard.
const MAX_READS_PER_EVENT: usize = 4;

/// Once this many sent bytes accumulate at the front of the outbound
/// queue mid-stream, they are compacted away so the buffer cannot creep.
const OUTBOUND_COMPACT_BYTES: usize = 32 * 1024;

/// Longest a fully flushed, half-closed connection waits for the peer's
/// EOF before being force-closed. The half-close (FIN after the final
/// flush, then drain until EOF) is what lets the terminal error frame
/// reach a peer that is still writing — an immediate `close(2)` with
/// unread inbound bytes resets the connection and destroys it in flight.
const FIN_LINGER: Duration = Duration::from_millis(500);

/// Where a connection is in its protocol lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the `Hello` handshake frame.
    Hello,
    /// Handshake done; serving samples.
    Streaming,
    /// Terminal: flush whatever is queued outbound, half-close, then
    /// wait (briefly) for the peer's EOF. Inbound bytes are drained and
    /// discarded, never decoded.
    Closing,
}

/// Everything a [`Conn`] needs from its shard to process an event:
/// engine and shared counters, the shard's instrument handles, and the
/// shard-owned reuse buffers (samples in, decisions out).
pub(crate) struct Cx<'a> {
    /// Phase map / translation table / platform served.
    pub(crate) engine: &'a EngineConfig,
    /// Server-wide counters and process-global metric handles.
    pub(crate) shared: &'a Shared,
    /// This shard's instrument handles.
    pub(crate) metrics: &'a ReactorMetrics,
    /// Which shard owns this connection (echoed in `HelloAck`).
    pub(crate) shard_index: usize,
    /// Total shard count (echoed in `Stats`).
    pub(crate) shards_total: usize,
    /// Outbound queue cap; exceeding it sheds the connection.
    pub(crate) max_outbound: usize,
    /// Shard-owned run accumulator: consecutive samples coalesce here
    /// and flush through `apply_batch` in one swing.
    pub(crate) samples: &'a mut Vec<Sample>,
    /// Shard-owned decision reuse buffer for `apply_batch`.
    pub(crate) decisions: &'a mut Vec<Decision>,
    /// Per-operating-point worst-case power bound in milliwatts, indexed
    /// by the decision's `op_point`. Precomputed once per shard from the
    /// configured power backend so flushing a run costs one table lookup.
    pub(crate) power_mw: &'a [i64],
    /// The event loop's notion of now (one clock read per wake).
    pub(crate) now: Instant,
}

/// One reactor-owned connection.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Server-wide connection id (1-based admission order).
    pub(crate) conn_id: u64,
    /// Whether this connection passed the accept gate (refused-busy
    /// connections exist only to flush their `Error{Busy}`).
    pub(crate) admitted: bool,
    /// The interest currently registered with the shard's epoll.
    pub(crate) interest: Option<Interest>,
    decoder: FrameDecoder,
    outbound: Vec<u8>,
    sent: usize,
    /// The session's decision engine: per-pid predictors and scoring,
    /// created at `Hello`.
    session: Option<DecisionEngine>,
    phase: Phase,
    peer_gone: bool,
    fin_sent: bool,
    last_activity: Instant,
    closing_since: Option<Instant>,
}

impl Conn {
    /// A connection admitted past the accept gate, awaiting its `Hello`.
    pub(crate) fn admitted(stream: TcpStream, conn_id: u64, now: Instant) -> Self {
        Self {
            stream,
            conn_id,
            admitted: true,
            interest: None,
            decoder: FrameDecoder::new(),
            outbound: Vec::new(),
            sent: 0,
            session: None,
            phase: Phase::Hello,
            peer_gone: false,
            fin_sent: false,
            last_activity: now,
            closing_since: None,
        }
    }

    /// A connection refused at the accept gate: its only business is
    /// flushing the queued `Error{Busy}` and closing.
    pub(crate) fn refused(stream: TcpStream, now: Instant) -> Self {
        let mut conn = Self {
            stream,
            conn_id: 0,
            admitted: false,
            interest: None,
            decoder: FrameDecoder::new(),
            outbound: Vec::new(),
            sent: 0,
            session: None,
            phase: Phase::Closing,
            peer_gone: false,
            fin_sent: false,
            last_activity: now,
            closing_since: Some(now),
        };
        conn.queue_frame(&Frame::Error {
            code: ErrorCode::Busy,
            message: "connection limit reached; retry later".to_owned(),
        });
        conn
    }

    /// Bytes queued outbound and not yet written to the socket.
    pub(crate) fn pending(&self) -> usize {
        self.outbound.len().saturating_sub(self.sent)
    }

    /// The interest this connection wants registered right now; `None`
    /// means it is finished and should be closed.
    pub(crate) fn desired(&self) -> Option<Interest> {
        if self.peer_gone {
            return None;
        }
        match self.phase {
            // Read interest is kept while closing so inbound bytes are
            // drained (and discarded): closing with unread data in the
            // receive buffer resets the connection, destroying the
            // terminal error frame in flight. After the final flush and
            // the half-close, the connection waits for the peer's EOF.
            Phase::Closing => Some(if self.pending() > 0 {
                Interest::ReadWrite
            } else {
                Interest::Read
            }),
            Phase::Hello | Phase::Streaming => {
                if self.pending() > 0 {
                    Some(Interest::ReadWrite)
                } else {
                    Some(Interest::Read)
                }
            }
        }
    }

    /// Handles a readable event: pull bytes into the decoder, walk the
    /// complete frames, flush the resulting run of samples, and make an
    /// opportunistic write pass.
    pub(crate) fn on_readable(&mut self, scratch: &mut [u8], cx: &mut Cx<'_>) {
        if self.phase == Phase::Closing {
            // Shedding or draining: inbound frames are no longer decoded,
            // but the bytes must still be pulled off the socket and
            // discarded — a close with unread data pending would RST the
            // connection and take the queued terminal error with it.
            for _ in 0..MAX_READS_PER_EVENT {
                match self.stream.read(scratch) {
                    Ok(0) => {
                        self.peer_gone = true;
                        break;
                    }
                    Ok(n) if n < scratch.len() => break,
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.peer_gone = true;
                        break;
                    }
                }
            }
            self.try_flush(cx.now);
            return;
        }
        for _ in 0..MAX_READS_PER_EVENT {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.peer_gone = true;
                    break;
                }
                Ok(n) => {
                    self.last_activity = cx.now;
                    let Some(chunk) = scratch.get(..n) else {
                        unreachable!("read(2) never returns more than the buffer length")
                    };
                    self.decoder.feed(chunk);
                    if n < scratch.len() {
                        break; // socket drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.peer_gone = true;
                    break;
                }
            }
        }
        self.drain_frames(cx);
        self.try_flush(cx.now);
    }

    /// Handles a writable event.
    pub(crate) fn on_writable(&mut self, now: Instant) {
        self.try_flush(now);
    }

    /// Writes queued outbound bytes until the socket pushes back, then
    /// compacts the queue.
    pub(crate) fn try_flush(&mut self, now: Instant) {
        while self.sent < self.outbound.len() {
            let Some(chunk) = self.outbound.get(self.sent..) else {
                unreachable!("sent is bounded by outbound.len() by the loop condition")
            };
            match self.stream.write(chunk) {
                Ok(0) => {
                    self.peer_gone = true;
                    break;
                }
                Ok(n) => {
                    self.sent += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.peer_gone = true;
                    break;
                }
            }
        }
        if self.sent == self.outbound.len() {
            self.outbound.clear();
            self.sent = 0;
            if self.phase == Phase::Closing && !self.fin_sent {
                // Everything queued (the terminal error included) is on
                // the wire: half-close so the peer sees a clean FIN
                // after the data, and wait for its EOF.
                let _ = self.stream.shutdown(Shutdown::Write);
                self.fin_sent = true;
            }
        } else if self.sent >= OUTBOUND_COMPACT_BYTES {
            self.outbound.drain(..self.sent);
            self.sent = 0;
        }
    }

    /// Walks every complete frame banked in the decoder, then flushes
    /// the accumulated sample run and applies the backpressure cap.
    ///
    /// Decode timing is per batch: one clock read before the loop and
    /// one after it, recorded at the amortized per-frame cost weighted by
    /// the frames decoded, so `serve_frame_decode_us_count` still counts
    /// frames. A control frame (anything but a `Sample`) first records
    /// the pending tally, so an in-band scrape counts every frame up to
    /// and including the request, and the clock restarts after it is
    /// handled, so a session's set-up or a scrape's rendering is not
    /// decode time. Samples, the steady stream, add no clock read.
    fn drain_frames(&mut self, cx: &mut Cx<'_>) {
        let mut started = latency_clock();
        let mut decoded = 0;
        loop {
            if self.phase == Phase::Closing {
                break;
            }
            match self.decoder.next_frame() {
                Ok(Some(frame)) => {
                    decoded += 1;
                    let resumes = self.decoder.last_resumes();
                    if resumes > 0 {
                        cx.metrics.decode_resumes.record(u64::from(resumes));
                    }
                    if matches!(frame, Frame::Sample { .. }) {
                        self.on_frame(frame, cx);
                    } else {
                        record_decodes(cx, started, std::mem::take(&mut decoded));
                        self.on_frame(frame, cx);
                        started = latency_clock();
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Samples decoded before the damage still get their
                    // decisions: only the bytes after it are refused.
                    self.flush_run(cx);
                    self.refuse(ErrorCode::Malformed, e.to_string());
                    self.poison(cx);
                    self.start_closing(cx.now);
                    break;
                }
            }
        }
        record_decodes(cx, started, decoded);
        self.flush_run(cx);
        self.check_backpressure(cx);
    }

    /// Dispatches one decoded frame through the phase machine.
    fn on_frame(&mut self, frame: Frame, cx: &mut Cx<'_>) {
        match self.phase {
            Phase::Hello => self.on_hello_frame(frame, cx),
            Phase::Streaming => self.on_streaming_frame(frame, cx),
            Phase::Closing => {}
        }
    }

    /// The handshake. A `Goodbye` closes quietly; any other non-`Hello`
    /// frame or a foreign version is a poisoning violation; a foreign
    /// platform or an unbuildable predictor spec is refused `BadConfig`.
    fn on_hello_frame(&mut self, frame: Frame, cx: &mut Cx<'_>) {
        let (version, platform, predictor) = match frame {
            Frame::Hello {
                version,
                client_id: _,
                platform,
                predictor,
            } => (version, platform, predictor),
            Frame::Goodbye => {
                self.start_closing(cx.now);
                return;
            }
            other => {
                self.refuse(
                    ErrorCode::Protocol,
                    format!("expected Hello, got {}", other.tag().name()),
                );
                self.poison(cx);
                self.start_closing(cx.now);
                return;
            }
        };
        if version != PROTOCOL_VERSION {
            self.refuse(
                ErrorCode::VersionMismatch,
                format!("server speaks protocol v{PROTOCOL_VERSION}, client sent v{version}"),
            );
            self.poison(cx);
            self.start_closing(cx.now);
            return;
        }
        if platform != cx.engine.platform() {
            self.refuse(
                ErrorCode::BadConfig,
                format!(
                    "server is configured for platform {:?}",
                    cx.engine.platform()
                ),
            );
            self.poison(cx);
            self.start_closing(cx.now);
            return;
        }
        match DecisionEngine::from_spec(cx.engine.clone(), &predictor) {
            Ok(session) => {
                self.session = Some(session);
                cx.metrics.shard.sessions.inc();
                self.queue_frame(&Frame::HelloAck {
                    version: PROTOCOL_VERSION,
                    shard: u32::try_from(cx.shard_index).unwrap_or(u32::MAX),
                    op_points: cx.engine.op_points(),
                });
                self.phase = Phase::Streaming;
                trace_event!(
                    Level::Debug,
                    TRACE,
                    "session registered",
                    conn = self.conn_id,
                    shard = cx.shard_index
                );
            }
            Err(e) => {
                // A predictor spec that does not parse earns
                // Error{BadConfig} but no poisoning: the transport
                // behaved.
                self.refuse(ErrorCode::BadConfig, e.to_string());
                self.start_closing(cx.now);
            }
        }
    }

    /// The post-handshake loop body: samples accumulate into the run,
    /// everything else flushes the run first to preserve per-session
    /// decision order.
    fn on_streaming_frame(&mut self, frame: Frame, cx: &mut Cx<'_>) {
        match frame {
            Frame::Sample {
                pid,
                uops,
                mem_trans,
                tsc_delta: _,
            } => {
                cx.samples.push(Sample {
                    pid,
                    uops,
                    mem_transactions: mem_trans,
                });
            }
            Frame::StatsRequest => {
                self.flush_run(cx);
                let shards = u32::try_from(cx.shards_total).unwrap_or(u32::MAX);
                self.queue_frame(&Frame::Stats(cx.shared.snapshot(shards)));
            }
            Frame::MetricsRequest => {
                self.flush_run(cx);
                let rendered = livephase_telemetry::Registry::render(livephase_telemetry::global());
                let text = wire::truncate_metrics_text(&rendered).to_owned();
                self.queue_frame(&Frame::Metrics { text });
            }
            Frame::Goodbye => {
                self.flush_run(cx);
                self.start_closing(cx.now);
            }
            other => {
                self.flush_run(cx);
                self.refuse(
                    ErrorCode::Protocol,
                    format!("client may not send {}", other.tag().name()),
                );
                self.poison(cx);
                self.start_closing(cx.now);
            }
        }
    }

    /// Pushes the accumulated sample run through the session's
    /// `step_many` and encodes the decisions straight onto the
    /// outbound queue, counting every sample and decision once in the
    /// shard's and the server's counters.
    fn flush_run(&mut self, cx: &mut Cx<'_>) {
        if cx.samples.is_empty() {
            return;
        }
        let Some(session) = self.session.as_mut() else {
            cx.samples.clear();
            return;
        };
        let n = cx.samples.len() as u64;
        let before = session.processes();
        // Three chained clock reads time both stages: start, after
        // `step_many`, after encoding. Each stage enters its histogram
        // once, at its batch-amortized per-decision cost weighted by the
        // decisions, so each count still equals the decision count.
        let started = latency_clock();
        cx.decisions.clear();
        session.step_many(cx.samples, cx.decisions);
        let stepped = latency_clock();
        cx.metrics
            .shard
            .decision_us
            .record_n_saturating((stepped - started).as_micros() / u128::from(n), n);
        cx.metrics.shard.samples_total.add(n);
        cx.shared.samples.fetch_add(n, Ordering::Relaxed);
        let grown = (session.processes() - before) as u64;
        if grown > 0 {
            cx.shared.processes.fetch_add(grown, Ordering::Relaxed);
        }
        for d in cx.decisions.iter() {
            wire::encode_into(
                &Frame::Decision {
                    pid: d.pid,
                    op_point: d.op_point,
                    confidence: d.confidence,
                },
                &mut self.outbound,
            );
        }
        cx.shared.metrics.frame_encode_us.record_n_saturating(
            (latency_clock() - stepped).as_micros() / u128::from(n),
            cx.decisions.len() as u64,
        );
        cx.shared
            .decisions
            .fetch_add(cx.decisions.len() as u64, Ordering::Relaxed);
        // Price the shard's latest decision at the configured backend's
        // worst-case bound. Out-of-table op points (foreign platform
        // tables can be wider) leave the gauge untouched.
        if let Some(d) = cx.decisions.last() {
            if let Some(&mw) = cx.power_mw.get(usize::from(d.op_point)) {
                cx.metrics.shard.power_estimate_mw.set(mw);
            }
        }
        cx.samples.clear();
    }

    /// Sheds the connection if its outbound queue overflowed the cap: a
    /// typed `Error{SlowConsumer}` past the cap, inbound reads stop, and
    /// the write timeout bounds how long the flush may take.
    fn check_backpressure(&mut self, cx: &mut Cx<'_>) {
        if self.phase == Phase::Closing || self.pending() <= cx.max_outbound {
            return;
        }
        cx.metrics.shed_total.inc();
        trace_event!(
            Level::Warn,
            TRACE,
            "slow consumer shed",
            conn = self.conn_id,
            queued = self.pending(),
            cap = cx.max_outbound
        );
        self.refuse(
            ErrorCode::SlowConsumer,
            format!(
                "outbound queue exceeded {} bytes; shedding slow consumer",
                cx.max_outbound
            ),
        );
        self.poison(cx);
        self.start_closing(cx.now);
    }

    /// Starts the graceful drain: the session is refused with
    /// `Error{ShuttingDown}`, and decisions already queued outbound
    /// still flush before the close.
    pub(crate) fn begin_drain(&mut self, cx: &mut Cx<'_>) {
        if self.phase == Phase::Closing {
            return;
        }
        self.refuse(ErrorCode::ShuttingDown, "server is draining".to_owned());
        self.start_closing(cx.now);
        self.try_flush(cx.now);
    }

    /// The coarse-tick sweep: reaps idle connections past the read
    /// timeout and force-closes closing connections whose peer will not
    /// drain the final flush within the write timeout.
    pub(crate) fn reap(
        &mut self,
        cx: &mut Cx<'_>,
        read_timeout: Duration,
        write_timeout: Duration,
    ) {
        match self.phase {
            Phase::Closing => {
                if let Some(since) = self.closing_since {
                    let limit = if self.pending() > 0 {
                        write_timeout
                    } else {
                        // Flushed and half-closed: only the peer's EOF
                        // is outstanding, so wait much less.
                        write_timeout.min(FIN_LINGER)
                    };
                    if cx.now.duration_since(since) >= limit {
                        if self.pending() > 0 {
                            trace_event!(
                                Level::Warn,
                                TRACE,
                                "closing connection abandoned unflushed",
                                conn = self.conn_id,
                                queued = self.pending()
                            );
                        }
                        self.peer_gone = true;
                    }
                }
            }
            Phase::Hello | Phase::Streaming => {
                if cx.now.duration_since(self.last_activity) >= read_timeout {
                    cx.metrics.reaped_total.inc();
                    self.refuse(
                        ErrorCode::IdleTimeout,
                        format!("no frame within {read_timeout:?}"),
                    );
                    self.poison(cx);
                    self.start_closing(cx.now);
                    self.try_flush(cx.now);
                }
            }
        }
    }

    /// Final bookkeeping when the shard closes this connection: the
    /// session's predictor state (and its process count) retires with it.
    pub(crate) fn finish(&mut self, shared: &Shared, metrics: &ReactorMetrics) {
        if let Some(session) = self.session.take() {
            shared
                .processes
                .fetch_sub(session.processes() as u64, Ordering::Relaxed);
            metrics.shard.sessions.dec();
        }
    }

    /// Appends one frame to the outbound queue (no allocation beyond the
    /// queue's own growth).
    fn queue_frame(&mut self, frame: &Frame) {
        wire::encode_into(frame, &mut self.outbound);
    }

    /// Queues a terminal `Error` frame and counts it in
    /// `serve_errors_total` under its code's label.
    fn refuse(&mut self, code: ErrorCode, message: impl Into<String>) {
        // Cold path — refusals are terminal — so the registry lookup per
        // call is fine.
        livephase_telemetry::global()
            .counter(
                "serve_errors_total",
                "Terminal Error frames sent, by error code.",
                &[("code", code.label())],
            )
            .inc();
        self.queue_frame(&Frame::Error {
            code,
            message: message.into(),
        });
    }

    fn poison(&mut self, cx: &Cx<'_>) {
        cx.shared.poisoned.fetch_add(1, Ordering::Relaxed);
        cx.shared.metrics.poisoned_total.inc();
        trace_event!(
            Level::Warn,
            TRACE,
            "connection poisoned",
            conn = self.conn_id
        );
    }

    fn start_closing(&mut self, now: Instant) {
        self.phase = Phase::Closing;
        if self.closing_since.is_none() {
            self.closing_since = Some(now);
        }
    }
}

/// The connection's one clock for its latency histograms: decode,
/// decision and encode time. No reading of it reaches a decision.
fn latency_clock() -> Instant {
    Instant::now() // lint:allow(determinism-taint): latency histograms only
}

/// Records `decoded` frames in `serve_frame_decode_us` at the amortized
/// per-frame cost since `started`.
fn record_decodes(cx: &Cx<'_>, started: Instant, decoded: u64) {
    if decoded > 0 {
        let elapsed = latency_clock() - started;
        cx.metrics
            .decode_us
            .record_n_saturating(elapsed.as_micros() / u128::from(decoded), decoded);
    }
}
