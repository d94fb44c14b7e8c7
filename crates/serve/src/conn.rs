//! Per-connection state for the epoll reactor.
//!
//! A [`Conn`] owns one [`Framed`] socket (its decoder and bounded
//! outbound queue) and advances a small phase machine (`Hello` →
//! `Streaming` → `Closing`) as readiness events arrive. It is driven
//! entirely by its shard's event loop (see [`crate::shard`]):
//! `on_readable` pulls bytes into the decoder and walks complete frames,
//! `flush_run` pushes a coalesced run of samples through the session's
//! [`DecisionEngine::step_many`] and queues the decisions, and
//! `try_flush` drains the outbound queue until the socket pushes back.
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

use crate::reactor::{Epoll, Interest};
use crate::server::Shared;
use crate::shard::ReactorMetrics;
use crate::transport::Framed;
use crate::wire::{self, ErrorCode, Frame, PROTOCOL_VERSION};
use livephase_engine::{Decision, DecisionEngine, EngineConfig, Sample};
use livephase_telemetry::{catalogue, trace_event, Level};
use std::net::TcpStream;
use std::os::fd::RawFd;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Tracing target for connection lifecycle events under the reactor.
const TRACE: &str = "serve::conn";

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
    io: Framed,
    /// Server-wide connection id (1-based admission order).
    pub(crate) conn_id: u64,
    /// Whether this connection passed the accept gate (refused-busy
    /// connections exist only to flush their `Error{Busy}`).
    pub(crate) admitted: bool,
    /// The session's decision engine: per-pid predictors and scoring,
    /// created at `Hello`.
    session: Option<DecisionEngine>,
    phase: Phase,
    fin_sent: bool,
    last_activity: Instant,
    closing_since: Option<Instant>,
}

impl Conn {
    /// A connection admitted past the accept gate, awaiting its `Hello`.
    pub(crate) fn admitted(stream: TcpStream, conn_id: u64, now: Instant) -> Self {
        Self {
            io: Framed::new(stream),
            conn_id,
            admitted: true,
            session: None,
            phase: Phase::Hello,
            fin_sent: false,
            last_activity: now,
            closing_since: None,
        }
    }

    /// A connection refused at the accept gate: its only business is
    /// flushing the queued `Error{Busy}` and closing.
    pub(crate) fn refused(stream: TcpStream, now: Instant) -> Self {
        let mut conn = Self {
            io: Framed::new(stream),
            conn_id: 0,
            admitted: false,
            session: None,
            phase: Phase::Closing,
            fin_sent: false,
            last_activity: now,
            closing_since: Some(now),
        };
        conn.io.queue(&Frame::Error {
            code: ErrorCode::Busy,
            message: "connection limit reached; retry later".to_owned(),
        });
        conn
    }

    /// Bytes queued outbound and not yet written to the socket.
    pub(crate) fn pending(&self) -> usize {
        self.io.pending()
    }

    /// The interest this connection wants registered right now; `None`
    /// means it is finished and should be closed. Read interest is kept
    /// while closing so inbound bytes are drained (and discarded):
    /// closing with unread data in the receive buffer resets the
    /// connection, destroying the terminal error frame in flight. After
    /// the final flush and the half-close, the connection waits for the
    /// peer's EOF.
    pub(crate) fn desired(&self) -> Option<Interest> {
        (!self.io.peer_gone).then(|| self.io.open_interest())
    }

    /// Brings the epoll registration in line with [`desired`](Self::desired);
    /// a finished connection is queued on `to_close`.
    pub(crate) fn sync(&mut self, epoll: &Epoll, to_close: &mut Vec<RawFd>) {
        let want = self.desired();
        self.io.sync(epoll, want, to_close);
    }

    /// Handles a readable event: pull bytes into the decoder, walk the
    /// complete frames, flush the resulting run of samples, and make an
    /// opportunistic write pass. While closing (shedding or draining),
    /// inbound bytes are pulled off the socket and discarded, never
    /// decoded.
    pub(crate) fn on_readable(&mut self, scratch: &mut [u8], cx: &mut Cx<'_>) {
        let closing = self.phase == Phase::Closing;
        if self.io.read(scratch, closing) > 0 {
            self.last_activity = cx.now;
        }
        if !closing {
            self.drain_frames(cx);
        }
        self.try_flush(cx.now);
    }

    /// Writes queued outbound bytes until the socket pushes back; once a
    /// closing connection's queue is empty, half-closes it.
    pub(crate) fn try_flush(&mut self, now: Instant) {
        if self.io.write() > 0 {
            self.last_activity = now;
        }
        if self.io.pending() == 0 && self.phase == Phase::Closing && !self.fin_sent {
            // Everything queued (the terminal error included) is on the
            // wire: half-close so the peer sees a clean FIN after the
            // data, and wait for its EOF.
            self.io.shutdown_write();
            self.fin_sent = true;
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
            match self.io.next_frame() {
                Ok(Some(frame)) => {
                    decoded += 1;
                    let resumes = self.io.last_resumes();
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
                self.io.queue(&Frame::HelloAck {
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
            Frame::MetricsRequest => {
                self.flush_run(cx);
                let rendered = livephase_telemetry::Registry::render(livephase_telemetry::global());
                let text = wire::truncate_metrics_text(&rendered).to_owned();
                self.io.queue(&Frame::Metrics { text });
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
        for d in cx.decisions.iter() {
            self.io.queue(&Frame::Decision {
                pid: d.pid,
                op_point: d.op_point,
                confidence: d.confidence,
            });
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
                        self.io.peer_gone = true;
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
    /// session's predictor state retires with it.
    pub(crate) fn finish(&mut self, metrics: &ReactorMetrics) {
        if self.session.take().is_some() {
            metrics.shard.sessions.dec();
        }
    }

    /// Queues a terminal `Error` frame and counts it in
    /// `serve_errors_total` under its code's label.
    fn refuse(&mut self, code: ErrorCode, message: impl Into<String>) {
        // Cold path — refusals are terminal — so the registry lookup per
        // call is fine.
        livephase_telemetry::global()
            .counter(&catalogue::SERVE_ERRORS_TOTAL, &[code.label()])
            .inc();
        self.io.queue(&Frame::Error {
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
#[expect(clippy::disallowed_methods, reason = "latency histograms only")]
fn latency_clock() -> Instant {
    Instant::now()
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
