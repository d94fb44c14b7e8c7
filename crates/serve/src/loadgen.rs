//! The load generator behind `livephase-cli serve-bench`.
//!
//! Replays the synthetic SPEC workloads' counter streams over M
//! concurrent connections from one thread: each connection is a
//! nonblocking socket on the shards' own framed transport, multiplexed
//! over epoll and windowed so it keeps a batch of samples in flight. One
//! rule deals the streams: with n benchmarks there are max(M, n)
//! streams, and stream k replays benchmark k % n as pid k % n + 1 on
//! connection k % M. A connection replays its streams back to back, then
//! sends `Goodbye`. Every session completes its handshake before any
//! replay starts, so the reported peak equals M.
//!
//! Reports throughput, decision latency percentiles, and — the point of
//! the exercise — per-stream decision agreement against an in-process
//! [`Manager`] run of the same stream, which must be **bit-exact**:
//! phase classification depends only on the Mem/Uop ratio the samples
//! carry, so a correct server cannot disagree with the oracle even once.
//! Agreement is scored incrementally against one oracle trace per
//! benchmark, so 50k concurrent sessions need no per-connection decision
//! storage.

use crate::client::ClientError;
use crate::reactor::{Epoll, Events, Interest};
use crate::transport::{Framed, EVENTS_PER_WAIT, SCRATCH_BYTES};
use crate::wire::{Frame, FrameError, PROTOCOL_VERSION};
use livephase_collections::BTreeMap;
use livephase_core::predictor_from_spec;
use livephase_engine::{DecisionEngine, EngineConfig};
use livephase_governor::Manager;
use livephase_pmsim::PlatformConfig;
use livephase_telemetry::Histogram;
use livephase_workloads::{counter_samples, spec, CounterSample};
use std::fmt;
use std::io;
use std::net::TcpStream;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

/// Connections allowed mid-handshake at once; paces the connect wave so
/// the server's listen backlog never overflows into SYN retries.
const CONNECT_WINDOW: usize = 256;

/// Decision latency is sampled on this many connections; sampling every
/// one of 50k conns would measure the sampler, not the server.
const LATENCY_TRACKED_CONNS: usize = 256;

/// Wait timeout, so the connect pacing and the inactivity watchdog run
/// even when no socket is ready.
const WAIT_TICK: Duration = Duration::from_millis(50);

/// What to replay, where, and how hard.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Server address, e.g. `127.0.0.1:9626`.
    pub addr: String,
    /// Concurrent connections, all held open at once.
    pub connections: usize,
    /// Benchmarks to replay; empty means the whole registry (all 33).
    pub benchmarks: Vec<String>,
    /// Intervals per benchmark (0 keeps each spec's default length).
    pub length: usize,
    /// Workload generation seed (shared with the oracle run).
    pub seed: u64,
    /// Predictor specification each session asks the server for.
    pub predictor: String,
    /// Samples kept in flight per connection between flushes.
    pub window: usize,
    /// Inactivity watchdog: the run aborts when no frame arrives on any
    /// connection for this long.
    pub timeout: Duration,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            connections: 8,
            benchmarks: Vec::new(),
            length: 120,
            seed: 42,
            predictor: "gpht:8:128".to_owned(),
            window: 64,
            timeout: Duration::from_secs(10),
        }
    }
}

/// Why the load generator gave up.
#[derive(Debug)]
pub enum LoadGenError {
    /// A requested benchmark is not in the registry.
    UnknownBenchmark(String),
    /// The predictor specification does not parse.
    BadPredictor(String),
    /// A connection failed mid-replay.
    Client {
        /// Connection index that failed.
        connection: usize,
        /// The underlying failure.
        source: ClientError,
    },
    /// A stream got back a different number of decisions than it sent
    /// samples.
    ShortStream {
        /// Benchmark whose stream came up short.
        benchmark: String,
        /// Samples sent.
        sent: u64,
        /// Decisions received.
        received: u64,
    },
}

impl fmt::Display for LoadGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownBenchmark(name) => write!(f, "benchmark {name:?} is not registered"),
            Self::BadPredictor(spec) => write!(f, "predictor spec {spec:?} does not parse"),
            Self::Client { connection, source } => {
                write!(f, "connection {connection}: {source}")
            }
            Self::ShortStream {
                benchmark,
                sent,
                received,
            } => write!(
                f,
                "{benchmark}: sent {sent} samples but got {received} decisions"
            ),
        }
    }
}

impl std::error::Error for LoadGenError {}

/// Decision agreement of one replayed stream against its oracle run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Agreement {
    /// Decisions that matched the oracle.
    pub matched: u64,
    /// Decisions compared (the oracle trace length — one fewer than the
    /// sample count, the final decision being unobservable in-process).
    pub compared: u64,
}

impl Agreement {
    /// Whether every compared decision matched.
    #[must_use]
    pub fn exact(&self) -> bool {
        self.matched == self.compared
    }

    /// Agreement as a percentage.
    #[must_use]
    pub fn pct(&self) -> f64 {
        if self.compared == 0 {
            100.0
        } else {
            self.matched as f64 / self.compared as f64 * 100.0
        }
    }
}

/// One stream's replay outcome.
#[derive(Debug, Clone)]
pub struct BenchmarkOutcome {
    /// Benchmark name.
    pub name: String,
    /// Connection that carried the stream.
    pub connection: usize,
    /// Samples sent (== decisions received).
    pub samples: u64,
    /// Agreement vs the in-process oracle.
    pub agreement: Agreement,
}

/// Decision latency percentiles in microseconds, each decision timed
/// from the flush that sent its sample (so queueing inside the window
/// counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyPercentiles {
    /// Median.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst observed.
    pub max_us: u64,
}

/// The full load-generation report.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-stream outcomes, sorted by benchmark name, then connection.
    pub outcomes: Vec<BenchmarkOutcome>,
    /// Connections opened.
    pub connections: usize,
    /// Total samples sent (== decisions received).
    pub samples: u64,
    /// Wall-clock of the whole replay.
    pub elapsed: Duration,
    /// Decision latency distribution.
    pub latency: LatencyPercentiles,
    /// Most connections simultaneously open.
    pub peak_connections: usize,
}

impl LoadReport {
    /// Samples per second over the whole replay.
    #[must_use]
    pub fn samples_per_s(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.samples as f64 / s
        }
    }

    /// Whether every stream agreed bit-exactly with its oracle.
    #[must_use]
    pub fn all_exact(&self) -> bool {
        self.outcomes.iter().all(|o| o.agreement.exact())
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serve-bench: {} benchmarks over {} connections",
            self.outcomes.len(),
            self.connections
        )?;
        writeln!(
            f,
            "  samples {}  decisions {}  elapsed {:.3} s  throughput {:.0} samples/s",
            self.samples,
            self.samples,
            self.elapsed.as_secs_f64(),
            self.samples_per_s()
        )?;
        writeln!(
            f,
            "  decision latency p50 {} µs  p90 {} µs  p99 {} µs  max {} µs",
            self.latency.p50_us, self.latency.p90_us, self.latency.p99_us, self.latency.max_us
        )?;
        writeln!(f, "  concurrent connections peak {}", self.peak_connections)?;
        let exact = self.outcomes.iter().filter(|o| o.agreement.exact()).count();
        writeln!(
            f,
            "  agreement: {exact}/{} benchmarks bit-exact vs in-process manager",
            self.outcomes.len()
        )?;
        for o in self.outcomes.iter().filter(|o| !o.agreement.exact()) {
            let a = o.agreement;
            writeln!(
                f,
                "    DIVERGED {}: {}/{} decisions matched ({:.2} %)",
                o.name,
                a.matched,
                a.compared,
                a.pct()
            )?;
        }
        Ok(())
    }
}

/// Runs the load: deals the streams over the connections (see the
/// module docs), replays them, and scores every decision.
///
/// # Errors
///
/// Configuration errors before any traffic; the first connection failure
/// otherwise.
pub fn run(config: &LoadGenConfig) -> Result<LoadReport, LoadGenError> {
    assert!(config.connections >= 1, "at least one connection");
    assert!(config.window >= 1, "window must hold at least one sample");
    if predictor_from_spec(&config.predictor).is_err() {
        return Err(LoadGenError::BadPredictor(config.predictor.clone()));
    }
    let data: Vec<SpecData> = resolve_specs(config)?
        .iter()
        .map(|s| SpecData {
            name: s.name().to_owned(),
            samples: counter_samples(s.stream(config.seed)).collect(),
            oracle: oracle_trace(s, config),
        })
        .collect();
    let plan = Plan {
        conns: config.connections,
        streams: config.connections.max(data.len()),
        window: config.window,
        data,
    };
    replay(config, &plan)
}

/// Resolves the configured benchmark names against the registry (empty
/// means everything) and applies the configured stream length.
fn resolve_specs(config: &LoadGenConfig) -> Result<Vec<spec::BenchmarkSpec>, LoadGenError> {
    let specs: Vec<spec::BenchmarkSpec> = if config.benchmarks.is_empty() {
        spec::registry()
    } else {
        config
            .benchmarks
            .iter()
            .map(|name| {
                spec::benchmark(name).ok_or_else(|| LoadGenError::UnknownBenchmark(name.clone()))
            })
            .collect::<Result<_, _>>()?
    };
    Ok(specs
        .into_iter()
        .map(|s| {
            if config.length > 0 {
                s.with_length(config.length)
            } else {
                s
            }
        })
        .collect())
}

/// Derives the report percentiles from the latency histogram every
/// tracked sample was recorded into:
/// constant space however long the replay, estimates within the
/// histogram's 1/32 relative-error bound, max exact.
fn percentiles(latencies_us: &Histogram) -> LatencyPercentiles {
    LatencyPercentiles {
        p50_us: latencies_us.quantile(0.50).unwrap_or(0),
        p90_us: latencies_us.quantile(0.90).unwrap_or(0),
        p99_us: latencies_us.quantile(0.99).unwrap_or(0),
        max_us: latencies_us.max().unwrap_or(0),
    }
}

/// Everything shared by the streams replaying one benchmark.
struct SpecData {
    name: String,
    samples: Vec<CounterSample>,
    oracle: Vec<usize>,
}

/// The deal: which benchmark each stream replays, on which connection.
struct Plan {
    data: Vec<SpecData>,
    conns: usize,
    streams: usize,
    window: usize,
}

impl Plan {
    /// The benchmark stream `k` replays (its pid is this plus one).
    /// `data` is never empty: it holds the named benchmarks, or the
    /// whole registry when none is named.
    fn spec_of(&self, k: usize) -> usize {
        k % self.data.len()
    }

    fn spec(&self, idx: usize) -> &SpecData {
        let Some(d) = self.data.get(idx) else {
            unreachable!("spec indices are dealt modulo data.len()")
        };
        d
    }
}

/// The in-process decision trace every stream replaying `bench` is
/// compared against. The predictor spec was validated before any
/// traffic, so the engine-construction fallback (an empty trace,
/// comparing nothing) is unreachable in practice.
fn oracle_trace(bench: &spec::BenchmarkSpec, config: &LoadGenConfig) -> Vec<usize> {
    let Ok(engine) = DecisionEngine::from_spec(EngineConfig::pentium_m(), &config.predictor) else {
        return Vec::new();
    };
    Manager::with_engine(engine)
        .run(bench.stream(config.seed), &PlatformConfig::pentium_m())
        .decision_trace()
}

/// Where one connection is in its replay.
enum Stage {
    /// `Hello` sent; waiting for the ack.
    AwaitAck,
    /// Acked; holding the session open until every connection is.
    Hold,
    /// Replaying its current stream's sample window.
    Streaming,
    /// `Goodbye` queued; flush and close.
    Draining,
}

/// Flush instants of one connection's in-flight samples: a ring of
/// `window` slots, sample `i` in slot `i % window`. At most `window`
/// samples are in flight, so a slot is reused only after its sample's
/// decision arrived, and each decision is timed from the flush that sent
/// its own sample.
struct FlushStamps(Vec<Instant>);

impl FlushStamps {
    fn new(window: usize, now: Instant) -> Self {
        Self(vec![now; window])
    }

    /// Samples `from..to` left in one flush at `at`.
    fn stamp(&mut self, from: usize, to: usize, at: Instant) {
        let n = self.0.len();
        for i in from..to {
            if let Some(slot) = self.0.get_mut(i % n) {
                *slot = at;
            }
        }
    }

    /// When sample `i` was flushed.
    fn sent_at(&self, i: usize) -> Option<Instant> {
        self.0.get(i % self.0.len()).copied()
    }
}

/// One multiplexed connection's replay state.
struct Session {
    io: Framed,
    conn: usize,
    /// The stream being replayed (k in the deal rule).
    stream: usize,
    spec_idx: usize,
    pid: u32,
    sent: usize,
    got: usize,
    matched: u64,
    stage: Stage,
    /// Present on the latency-tracked connections.
    stamps: Option<FlushStamps>,
}

impl Session {
    /// Switches to stream `k`, nothing sent or answered yet.
    fn begin_stream(&mut self, k: usize, plan: &Plan) {
        self.stream = k;
        self.spec_idx = plan.spec_of(k);
        self.pid = u32::try_from(self.spec_idx).unwrap_or(u32::MAX - 1) + 1;
        self.sent = 0;
        self.got = 0;
        self.matched = 0;
    }

    /// The interest this connection wants registered right now; `None`
    /// means it is finished and should be closed.
    fn desired(&self) -> Option<Interest> {
        match self.stage {
            Stage::Draining => (self.io.pending() > 0).then_some(Interest::Write),
            Stage::AwaitAck | Stage::Hold | Stage::Streaming => Some(self.io.open_interest()),
        }
    }
}

/// Connects (blocking, so the caller can pace connect waves), switches
/// the socket nonblocking, and queues the `Hello`; the handshake
/// completes when the event loop reads the `HelloAck`.
fn connect(config: &LoadGenConfig, client_id: u64, platform: &str) -> io::Result<Framed> {
    let stream = TcpStream::connect(config.addr.as_str())?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let mut io = Framed::new(stream);
    io.queue(&Frame::Hello {
        version: PROTOCOL_VERSION,
        client_id,
        platform: platform.to_owned(),
        predictor: config.predictor.clone(),
    });
    io.write();
    Ok(io)
}

/// The epoll loop: connects every session (paced), starts the replay
/// once all are acked, and closes each after its last stream.
#[expect(
    clippy::disallowed_methods,
    reason = "client-side pacing, timeouts and elapsed time; the load generator decides nothing"
)]
fn replay(config: &LoadGenConfig, plan: &Plan) -> Result<LoadReport, LoadGenError> {
    let total = plan.conns;
    let io_err = |connection: usize, e: io::Error| LoadGenError::Client {
        connection,
        source: ClientError::Io(e),
    };
    let proto_err =
        |connection: usize, source: ClientError| LoadGenError::Client { connection, source };
    let deployment = EngineConfig::pentium_m();
    let epoll = Epoll::new().map_err(|e| io_err(0, e))?;
    let mut events = Events::with_capacity(EVENTS_PER_WAIT);
    let mut conns: BTreeMap<RawFd, Session> = BTreeMap::new();
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    let mut outcomes: Vec<BenchmarkOutcome> = Vec::with_capacity(plan.streams);
    let latencies_us = Histogram::new();
    let mut next_conn = 0usize;
    let mut pending_acks = 0usize;
    let mut acked = 0usize;
    let mut streaming = false;
    let mut peak = 0usize;
    let mut to_close: Vec<RawFd> = Vec::new();
    let started = Instant::now();
    let mut last_progress = started;

    while !(next_conn == total && conns.is_empty()) {
        // Pace the connect wave: at most CONNECT_WINDOW sessions
        // mid-handshake at once.
        while next_conn < total && pending_acks < CONNECT_WINDOW {
            let io = connect(config, next_conn as u64 + 1, deployment.platform())
                .map_err(|e| io_err(next_conn, e))?;
            let fd = io.fd();
            let mut session = Session {
                io,
                conn: next_conn,
                stream: 0,
                spec_idx: 0,
                pid: 0,
                sent: 0,
                got: 0,
                matched: 0,
                stage: Stage::AwaitAck,
                stamps: (next_conn < LATENCY_TRACKED_CONNS)
                    .then(|| FlushStamps::new(plan.window, started)),
            };
            // Connection c's first stream is stream c.
            session.begin_stream(next_conn, plan);
            session.io.sync(&epoll, session.desired(), &mut to_close);
            if !to_close.is_empty() {
                return Err(io_err(
                    next_conn,
                    io::Error::other("registering the socket with epoll failed"),
                ));
            }
            conns.insert(fd, session);
            pending_acks += 1;
            next_conn += 1;
        }
        peak = peak.max(conns.len());
        if !streaming && next_conn == total && acked == total {
            // Every session is open and acked: the concurrency bar is
            // held; start the replay everywhere.
            streaming = true;
            for (_, st) in conns.iter_mut() {
                st.stage = Stage::Streaming;
                replay_more(st, plan, &mut outcomes);
                st.io.sync(&epoll, st.desired(), &mut to_close);
            }
        }

        epoll
            .wait(&mut events, Some(WAIT_TICK))
            .map_err(|e| io_err(0, e))?;
        let now = Instant::now();
        if !events.is_empty() {
            last_progress = now;
        }
        for ev in events.iter() {
            // Tokens are raw fds; both fit i32 on every Linux target.
            let fd = ev.token as RawFd;
            let Some(st) = conns.get_mut(&fd) else {
                continue; // closed earlier this wake
            };
            if ev.readable || ev.hangup {
                st.io.read(&mut scratch, false);
            }
            loop {
                let frame = st
                    .io
                    .next_frame()
                    .map_err(|e| proto_err(st.conn, ClientError::Frame(FrameError::Decode(e))))?;
                let Some(frame) = frame else { break };
                match frame {
                    Frame::HelloAck { .. } if matches!(st.stage, Stage::AwaitAck) => {
                        st.stage = Stage::Hold;
                        pending_acks = pending_acks.saturating_sub(1);
                        acked += 1;
                    }
                    Frame::Decision { op_point, .. }
                        if matches!(st.stage, Stage::Streaming) && st.got < st.sent =>
                    {
                        let want = plan.spec(st.spec_idx).oracle.get(st.got);
                        if want == Some(&usize::from(op_point)) {
                            st.matched += 1;
                        }
                        if let Some(sent_at) = st.stamps.as_ref().and_then(|s| s.sent_at(st.got)) {
                            latencies_us.record_saturating(
                                now.saturating_duration_since(sent_at).as_micros(),
                            );
                        }
                        st.got += 1;
                    }
                    Frame::Error { code, message } => {
                        return Err(proto_err(st.conn, ClientError::Refused { code, message }));
                    }
                    other => {
                        return Err(proto_err(
                            st.conn,
                            ClientError::Unexpected {
                                wanted: "Decision",
                                got: other.tag().name(),
                            },
                        ));
                    }
                }
            }
            if ev.writable {
                st.io.write();
            }
            if matches!(st.stage, Stage::Streaming) {
                replay_more(st, plan, &mut outcomes);
            }
            if st.io.peer_gone {
                match st.stage {
                    Stage::Draining => to_close.push(fd),
                    Stage::Streaming => {
                        return Err(LoadGenError::ShortStream {
                            benchmark: plan.spec(st.spec_idx).name.clone(),
                            sent: st.sent as u64,
                            received: st.got as u64,
                        });
                    }
                    Stage::AwaitAck | Stage::Hold => {
                        return Err(io_err(
                            st.conn,
                            io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "server closed the connection during the handshake",
                            ),
                        ));
                    }
                }
            } else {
                st.io.sync(&epoll, st.desired(), &mut to_close);
            }
        }
        for fd in to_close.drain(..) {
            if conns.remove(&fd).is_some() {
                let _ = epoll.delete(fd);
            }
        }
        if !conns.is_empty() && now.duration_since(last_progress) > config.timeout {
            return Err(io_err(
                0,
                io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no frames from the server within {:?}", config.timeout),
                ),
            ));
        }
    }

    outcomes.sort_by(|a, b| (&a.name, a.connection).cmp(&(&b.name, b.connection)));
    Ok(LoadReport {
        samples: outcomes.iter().map(|o| o.samples).sum(),
        outcomes,
        connections: total,
        elapsed: started.elapsed(),
        latency: percentiles(&latencies_us),
        peak_connections: peak,
    })
}

/// Keeps `window` samples of the current stream in flight; when the
/// stream is fully sent and answered, records its outcome and moves to
/// the connection's next stream, or queues `Goodbye` after its last.
#[expect(
    clippy::disallowed_methods,
    reason = "send stamps for the latency histogram only"
)]
fn replay_more(st: &mut Session, plan: &Plan, outcomes: &mut Vec<BenchmarkOutcome>) {
    loop {
        let d = plan.spec(st.spec_idx);
        let first = st.sent;
        while st.sent - st.got < plan.window {
            let Some(s) = d.samples.get(st.sent) else {
                break;
            };
            st.io.queue(&Frame::Sample {
                pid: st.pid,
                uops: s.uops,
                mem_trans: s.mem_transactions,
                tsc_delta: s.core_cycles,
            });
            st.sent += 1;
        }
        if st.sent > first {
            st.io.write();
            if let Some(stamps) = st.stamps.as_mut() {
                stamps.stamp(first, st.sent, Instant::now());
            }
        }
        if st.sent < d.samples.len() || st.got < st.sent {
            return;
        }
        outcomes.push(BenchmarkOutcome {
            name: d.name.clone(),
            connection: st.conn,
            samples: st.got as u64,
            agreement: Agreement {
                matched: st.matched,
                compared: d.oracle.len() as u64,
            },
        });
        let next = st.stream + plan.conns;
        if next >= plan.streams {
            st.io.queue(&Frame::Goodbye);
            st.stage = Stage::Draining;
            st.io.write();
            return;
        }
        st.begin_stream(next, plan);
    }
}

#[cfg(test)]
mod tests {
    use super::FlushStamps;
    use std::time::{Duration, Instant};

    /// Interleaved top-ups and partial decision batches: every decision
    /// is timed from the flush that sent its own sample, never from the
    /// connection's latest flush.
    #[test]
    fn each_decision_is_timed_from_its_own_samples_flush() {
        let window = 4;
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut stamps = FlushStamps::new(window, t0);
        let (mut sent, mut got) = (0usize, 0usize);
        // The expected flush time of every sample, kept in full.
        let mut flushed_at: Vec<Instant> = Vec::new();
        // (decisions arriving before the top-up, flush time of the top-up)
        let script: [(usize, u64); 7] = [(0, 1), (1, 2), (2, 3), (0, 4), (3, 5), (1, 6), (4, 7)];
        for (decisions, ms) in script {
            for _ in 0..decisions {
                assert_eq!(stamps.sent_at(got), Some(flushed_at[got]), "decision {got}");
                got += 1;
            }
            // Top up to a full window, as the replay loop does.
            let first = sent;
            while sent - got < window {
                sent += 1;
                flushed_at.push(at(ms));
            }
            stamps.stamp(first, sent, at(ms));
        }
        while got < sent {
            assert_eq!(stamps.sent_at(got), Some(flushed_at[got]), "decision {got}");
            got += 1;
        }
        // Samples from four different flushes were in flight at once.
        assert_eq!(got, 15);
        assert_ne!(flushed_at[4], flushed_at[5]);
    }
}
