//! The load generator behind `livephase-cli serve-bench`.
//!
//! Replays the synthetic SPEC workloads' counter streams over M
//! concurrent connections, windowed so each connection keeps a batch of
//! samples in flight. Two drive modes:
//!
//! - **Threaded** (default): connections fan out with [`par_map`], the
//!   same sweep primitive the experiment drivers use, each replaying its
//!   round-robin share of the benchmarks over a blocking [`Client`].
//! - **Many-connection** ([`LoadGenConfig::many_conn`], CLI
//!   `serve-bench --reactor`): one thread multiplexes every connection
//!   over epoll with nonblocking [`ConnDriver`]s — each connection
//!   carries one benchmark stream, all sessions are held open
//!   simultaneously (handshakes complete before any replay starts, so
//!   the reported peak equals the requested connection count), and
//!   agreement is scored incrementally against a per-benchmark oracle
//!   trace, so 50k concurrent sessions need no per-connection decision
//!   storage.
//!
//! Reports throughput, decision latency percentiles, and — the point of
//! the exercise — per-stream decision agreement against an in-process
//! [`Manager`] run of the same stream, which must be **bit-exact**:
//! phase classification depends only on the Mem/Uop ratio the samples
//! carry, so a correct server cannot disagree with the oracle even once.

use crate::client::{Client, ClientError, ConnDriver};
use crate::reactor::{Epoll, Events, Interest};
use crate::wire::Frame;
use livephase_core::predictor_from_spec;
use livephase_engine::{DecisionEngine, EngineConfig};
use livephase_governor::{par_map, Manager, ManagerConfig};
use livephase_pmsim::PlatformConfig;
use livephase_telemetry::Histogram;
use livephase_workloads::{counter_samples, spec, CounterSample};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::os::fd::RawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to replay, where, and how hard.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Server address, e.g. `127.0.0.1:9626`.
    pub addr: String,
    /// Concurrent connections to spread the benchmarks over.
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
    /// Re-run each stream through an in-process manager and compare
    /// decisions.
    pub check_agreement: bool,
    /// Socket timeout for every client operation. In many-connection
    /// mode this is an inactivity watchdog: the run aborts when no frame
    /// arrives on any connection for this long.
    pub timeout: Duration,
    /// Drive every connection from one epoll loop instead of one thread
    /// per connection; each connection carries one benchmark stream and
    /// all sessions are held open concurrently.
    pub many_conn: bool,
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
            check_agreement: true,
            timeout: Duration::from_secs(10),
            many_conn: false,
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

/// One benchmark's replay outcome.
#[derive(Debug, Clone)]
pub struct BenchmarkOutcome {
    /// Benchmark name.
    pub name: String,
    /// Connection that carried the stream.
    pub connection: usize,
    /// Samples sent (== decisions received).
    pub samples: u64,
    /// Agreement vs the in-process oracle, when checked.
    pub agreement: Option<Agreement>,
}

/// Decision latency percentiles in microseconds (flush → decision read,
/// so queueing inside the window counts).
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
    /// Per-benchmark outcomes, sorted by benchmark name.
    pub outcomes: Vec<BenchmarkOutcome>,
    /// Connections that carried traffic.
    pub connections: usize,
    /// Total samples sent (== decisions received).
    pub samples: u64,
    /// Wall-clock of the whole replay.
    pub elapsed: Duration,
    /// Decision latency distribution.
    pub latency: LatencyPercentiles,
    /// Most connections simultaneously open (many-connection mode; 0
    /// when the threaded driver ran, which does not measure it).
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

    /// Whether every checked stream agreed bit-exactly with its oracle.
    #[must_use]
    pub fn all_exact(&self) -> bool {
        self.outcomes
            .iter()
            .filter_map(|o| o.agreement)
            .all(|a| a.exact())
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
        if self.peak_connections > 0 {
            writeln!(f, "  concurrent connections peak {}", self.peak_connections)?;
        }
        let checked: Vec<&BenchmarkOutcome> = self
            .outcomes
            .iter()
            .filter(|o| o.agreement.is_some())
            .collect();
        if checked.is_empty() {
            writeln!(f, "  agreement: not checked")?;
        } else {
            let exact = checked
                .iter()
                .filter(|o| o.agreement.is_some_and(|a| a.exact()))
                .count();
            writeln!(
                f,
                "  agreement: {exact}/{} benchmarks bit-exact vs in-process manager",
                checked.len()
            )?;
            for o in &checked {
                let Some(a) = o.agreement else { continue };
                if !a.exact() {
                    writeln!(
                        f,
                        "    DIVERGED {}: {}/{} decisions matched ({:.2} %)",
                        o.name,
                        a.matched,
                        a.compared,
                        a.pct()
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// One stream assignment: a benchmark riding a connection as a pid.
#[derive(Debug, Clone)]
struct StreamPlan {
    spec: spec::BenchmarkSpec,
    pid: u32,
}

/// Runs the load. Benchmarks are dealt round-robin over the connections;
/// each connection replays its streams back-to-back, one pid per
/// benchmark.
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
    let specs = resolve_specs(config)?;
    if config.many_conn {
        return many::run(config, &specs);
    }

    let mut plans: Vec<Vec<StreamPlan>> = vec![Vec::new(); config.connections];
    for (i, spec) in specs.into_iter().enumerate() {
        // i % connections < connections = plans.len()
        plans[i % config.connections].push(StreamPlan {
            spec,
            pid: u32::try_from(i).unwrap_or(u32::MAX - 1) + 1,
        });
    }

    let indexed: Vec<(usize, Vec<StreamPlan>)> = plans.into_iter().enumerate().collect();
    let started = Instant::now();
    let results = par_map(&indexed, |(conn, plan)| run_connection(config, *conn, plan));
    let elapsed = started.elapsed();

    let mut outcomes = Vec::new();
    // Per-connection latency histograms share the fixed global bucket
    // layout, so merging them is exact — no all-latencies Vec, no sort.
    let latencies = Histogram::new();
    let mut samples = 0u64;
    for result in results {
        let (mut conn_outcomes, conn_latencies) = result?;
        samples += conn_outcomes.iter().map(|o| o.samples).sum::<u64>();
        outcomes.append(&mut conn_outcomes);
        latencies.merge_from(&conn_latencies);
    }
    outcomes.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(LoadReport {
        outcomes,
        connections: config.connections,
        samples,
        elapsed,
        latency: percentiles(&latencies),
        peak_connections: 0,
    })
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

type ConnResult = Result<(Vec<BenchmarkOutcome>, Histogram), LoadGenError>;

fn run_connection(config: &LoadGenConfig, conn: usize, plan: &[StreamPlan]) -> ConnResult {
    if plan.is_empty() {
        return Ok((Vec::new(), Histogram::new()));
    }
    let deployment = EngineConfig::pentium_m();
    let client_err = |source| LoadGenError::Client {
        connection: conn,
        source,
    };
    let mut client = Client::connect(
        config.addr.as_str(),
        conn as u64 + 1,
        deployment.platform(),
        &config.predictor,
        config.timeout,
    )
    .map_err(client_err)?;

    let mut outcomes = Vec::with_capacity(plan.len());
    let latencies_us = Histogram::new();
    for stream in plan {
        let samples: Vec<CounterSample> =
            counter_samples(stream.spec.stream(config.seed)).collect();
        let mut decisions: Vec<u8> = Vec::with_capacity(samples.len());
        let mut sent = 0usize;
        while decisions.len() < samples.len() {
            let batch_end = (sent + config.window).min(samples.len());
            // sent <= batch_end <= samples.len() by the min above
            for s in &samples[sent..batch_end] {
                client
                    .queue_sample(stream.pid, s.uops, s.mem_transactions, s.core_cycles)
                    .map_err(client_err)?;
            }
            sent = batch_end;
            client.flush().map_err(client_err)?;
            let flushed_at = Instant::now();
            while decisions.len() < sent {
                let d = client.read_decision().map_err(client_err)?;
                latencies_us.record_saturating(flushed_at.elapsed().as_micros());
                decisions.push(d.op_point);
            }
        }
        let agreement = config
            .check_agreement
            .then(|| score_against_oracle(stream, config, &decisions));
        outcomes.push(BenchmarkOutcome {
            name: stream.spec.name().to_owned(),
            connection: conn,
            samples: decisions.len() as u64,
            agreement,
        });
    }
    client.goodbye().map_err(client_err)?;
    Ok((outcomes, latencies_us))
}

/// Re-runs the stream through an in-process [`Manager`] and counts how
/// many served decisions match its [`decision_trace`]. The trace is one
/// shorter than the sample count (the final decision never governs a
/// logged interval), so the last served decision goes uncompared.
///
/// [`decision_trace`]: livephase_governor::RunReport::decision_trace
fn score_against_oracle(
    stream: &StreamPlan,
    config: &LoadGenConfig,
    decisions: &[u8],
) -> Agreement {
    // The spec was validated before traffic; if a re-parse fails anyway,
    // report total divergence rather than panicking mid-replay.
    let Ok(engine) = DecisionEngine::from_spec(EngineConfig::pentium_m(), &config.predictor) else {
        return Agreement {
            matched: 0,
            compared: decisions.len() as u64,
        };
    };
    let oracle = Manager::with_engine(engine, ManagerConfig::pentium_m())
        .run(
            stream.spec.stream(config.seed),
            &PlatformConfig::pentium_m(),
        )
        .decision_trace();
    let matched = decisions
        .iter()
        .zip(&oracle)
        .filter(|(&got, &want)| usize::from(got) == want)
        .count();
    Agreement {
        matched: matched as u64,
        compared: oracle.len() as u64,
    }
}

/// Derives the report percentiles from the merged latency histogram:
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

/// The many-connection driver behind `serve-bench --reactor`: one thread
/// multiplexing every connection over epoll.
///
/// Each connection carries one benchmark stream (dealt round-robin from
/// the spec list), every session completes its handshake before any
/// replay starts — so the reported peak equals the requested connection
/// count — and agreement is scored incrementally against a shared
/// per-spec oracle trace, so memory scales with the spec list, not the
/// connection count.
mod many {
    use super::*;

    /// Connections allowed mid-handshake at once; paces the connect wave
    /// so the server's listen backlog never overflows into SYN retries.
    const CONNECT_WINDOW: usize = 256;

    /// Decision latency is sampled on this many connections; sampling
    /// every one of 50k conns would measure the sampler, not the server.
    const LATENCY_TRACKED_CONNS: usize = 256;

    /// Shared read scratch for every driver.
    const SCRATCH_BYTES: usize = 64 * 1024;

    /// Readiness events drained per wait.
    const EVENTS_PER_WAIT: usize = 1024;

    /// Wait timeout, so the connect pacing and the inactivity watchdog
    /// run even when no socket is ready.
    const WAIT_TICK: Duration = Duration::from_millis(50);

    /// Everything shared by the connections replaying one spec.
    struct SpecData {
        name: String,
        samples: Arc<Vec<CounterSample>>,
        oracle: Option<Arc<Vec<usize>>>,
    }

    /// Where one connection is in its replay.
    enum Stage {
        /// `Hello` sent; waiting for the ack.
        AwaitAck,
        /// Acked; holding the session open until every connection is.
        Hold,
        /// Replaying its sample window.
        Streaming,
        /// `Goodbye` queued; flush and close.
        Draining,
    }

    /// One multiplexed connection's replay state.
    struct ManyConn {
        driver: ConnDriver,
        conn: usize,
        spec_idx: usize,
        pid: u32,
        sent: usize,
        got: usize,
        matched: u64,
        stage: Stage,
        interest: Interest,
        flushed_at: Instant,
        track_latency: bool,
    }

    pub(super) fn run(
        config: &LoadGenConfig,
        specs: &[spec::BenchmarkSpec],
    ) -> Result<LoadReport, LoadGenError> {
        let total = config.connections;
        let io_err = |connection: usize, e: io::Error| LoadGenError::Client {
            connection,
            source: ClientError::Io(e),
        };
        let proto_err =
            |connection: usize, source: ClientError| LoadGenError::Client { connection, source };
        let deployment = EngineConfig::pentium_m();
        let data: Vec<SpecData> = specs
            .iter()
            .map(|s| SpecData {
                name: s.name().to_owned(),
                samples: Arc::new(counter_samples(s.stream(config.seed)).collect()),
                oracle: config
                    .check_agreement
                    .then(|| Arc::new(oracle_trace(s, config))),
            })
            .collect();
        if data.is_empty() || total == 0 {
            return Ok(LoadReport {
                outcomes: Vec::new(),
                connections: 0,
                samples: 0,
                elapsed: Duration::ZERO,
                latency: percentiles(&Histogram::new()),
                peak_connections: 0,
            });
        }

        let epoll = Epoll::new().map_err(|e| io_err(0, e))?;
        let mut events = Events::with_capacity(EVENTS_PER_WAIT);
        let mut conns: BTreeMap<RawFd, ManyConn> = BTreeMap::new();
        let mut scratch = vec![0u8; SCRATCH_BYTES];
        let mut outcomes: Vec<BenchmarkOutcome> = Vec::with_capacity(total);
        let latencies_us = Histogram::new();
        let mut samples_total = 0u64;
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
                let spec_idx = next_conn % data.len();
                let driver = ConnDriver::connect(
                    config.addr.as_str(),
                    next_conn as u64 + 1,
                    deployment.platform(),
                    &config.predictor,
                )
                .map_err(|e| io_err(next_conn, e))?;
                let fd = driver.as_raw_fd();
                let interest = if driver.pending() > 0 {
                    Interest::ReadWrite
                } else {
                    Interest::Read
                };
                epoll
                    .add(fd, interest, fd as u64)
                    .map_err(|e| io_err(next_conn, e))?;
                conns.insert(
                    fd,
                    ManyConn {
                        driver,
                        conn: next_conn,
                        spec_idx,
                        pid: u32::try_from(spec_idx).unwrap_or(u32::MAX - 1) + 1,
                        sent: 0,
                        got: 0,
                        matched: 0,
                        stage: Stage::AwaitAck,
                        interest,
                        flushed_at: started,
                        track_latency: next_conn < LATENCY_TRACKED_CONNS,
                    },
                );
                pending_acks += 1;
                next_conn += 1;
            }
            peak = peak.max(conns.len());
            if !streaming && next_conn == total && acked == total {
                // Every session is open and acked: the concurrency bar
                // is held; start the replay everywhere.
                streaming = true;
                let now = Instant::now();
                for (fd, st) in conns.iter_mut() {
                    st.stage = Stage::Streaming;
                    top_up(st, &data, config.window, now);
                    finish_if_done(st, &data, &mut outcomes, &mut samples_total);
                    sync(&epoll, *fd, st, &mut to_close);
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
                    st.driver.fill(&mut scratch);
                }
                loop {
                    let frame = st
                        .driver
                        .next_frame()
                        .map_err(|source| proto_err(st.conn, source))?;
                    let Some(frame) = frame else { break };
                    match frame {
                        Frame::HelloAck { .. } if matches!(st.stage, Stage::AwaitAck) => {
                            st.stage = Stage::Hold;
                            pending_acks = pending_acks.saturating_sub(1);
                            acked += 1;
                        }
                        Frame::Decision { op_point, .. }
                            if matches!(st.stage, Stage::Streaming) =>
                        {
                            if let Some(want) = data
                                .get(st.spec_idx)
                                .and_then(|d| d.oracle.as_ref())
                                .and_then(|t| t.get(st.got))
                            {
                                if *want == usize::from(op_point) {
                                    st.matched += 1;
                                }
                            }
                            st.got += 1;
                            if st.track_latency {
                                latencies_us.record_saturating(
                                    now.duration_since(st.flushed_at).as_micros(),
                                );
                            }
                        }
                        Frame::Error { code, message } => {
                            return Err(proto_err(st.conn, ClientError::Refused { code, message }));
                        }
                        other => {
                            return Err(proto_err(
                                st.conn,
                                ClientError::Unexpected {
                                    wanted: "Decision",
                                    got: crate::server::frame_name(&other),
                                },
                            ));
                        }
                    }
                }
                if ev.writable {
                    st.driver.flush();
                }
                if matches!(st.stage, Stage::Streaming) {
                    top_up(st, &data, config.window, now);
                    finish_if_done(st, &data, &mut outcomes, &mut samples_total);
                }
                if st.driver.peer_gone() {
                    match st.stage {
                        Stage::Draining => to_close.push(fd),
                        Stage::Streaming => {
                            return Err(LoadGenError::ShortStream {
                                benchmark: data
                                    .get(st.spec_idx)
                                    .map_or_else(String::new, |d| d.name.clone()),
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
                    sync(&epoll, fd, st, &mut to_close);
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

        outcomes.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(LoadReport {
            outcomes,
            connections: total,
            samples: samples_total,
            elapsed: started.elapsed(),
            latency: percentiles(&latencies_us),
            peak_connections: peak,
        })
    }

    /// Keeps `window` samples in flight: queues and flushes the next
    /// slice of the spec's precomputed sample vector.
    fn top_up(st: &mut ManyConn, data: &[SpecData], window: usize, now: Instant) {
        let Some(samples) = data.get(st.spec_idx).map(|d| &d.samples) else {
            unreachable!("spec_idx is always constructed modulo data.len()")
        };
        let mut queued = false;
        while st.sent < samples.len() && st.sent - st.got < window {
            let Some(s) = samples.get(st.sent) else {
                unreachable!("sent < samples.len() by the loop condition")
            };
            st.driver.queue(&Frame::Sample {
                pid: st.pid,
                uops: s.uops,
                mem_trans: s.mem_transactions,
                tsc_delta: s.core_cycles,
            });
            st.sent += 1;
            queued = true;
        }
        if queued {
            st.driver.flush();
            st.flushed_at = now;
        }
    }

    /// When the stream is fully sent and fully answered, records the
    /// outcome and starts the goodbye.
    fn finish_if_done(
        st: &mut ManyConn,
        data: &[SpecData],
        outcomes: &mut Vec<BenchmarkOutcome>,
        samples_total: &mut u64,
    ) {
        let Some(d) = data.get(st.spec_idx) else {
            unreachable!("spec_idx is always constructed modulo data.len()")
        };
        if st.sent < d.samples.len() || st.got < st.sent {
            return;
        }
        outcomes.push(BenchmarkOutcome {
            name: d.name.clone(),
            connection: st.conn,
            samples: st.got as u64,
            agreement: d.oracle.as_ref().map(|t| Agreement {
                matched: st.matched,
                compared: t.len() as u64,
            }),
        });
        *samples_total += st.got as u64;
        st.driver.queue(&Frame::Goodbye);
        st.stage = Stage::Draining;
        st.driver.flush();
    }

    /// Reconciles a connection's epoll registration with what it now
    /// wants; a finished connection is queued for closing.
    fn sync(epoll: &Epoll, fd: RawFd, st: &mut ManyConn, to_close: &mut Vec<RawFd>) {
        let want = match st.stage {
            Stage::Draining => {
                if st.driver.pending() > 0 {
                    Some(Interest::Write)
                } else {
                    None
                }
            }
            Stage::AwaitAck | Stage::Hold | Stage::Streaming => Some(if st.driver.pending() > 0 {
                Interest::ReadWrite
            } else {
                Interest::Read
            }),
        };
        match want {
            None => to_close.push(fd),
            Some(want) => {
                if st.interest != want {
                    if epoll.modify(fd, want, fd as u64).is_ok() {
                        st.interest = want;
                    } else {
                        to_close.push(fd);
                    }
                }
            }
        }
    }

    /// The in-process decision trace every connection replaying `bench`
    /// is compared against. The predictor spec was validated before any
    /// traffic, so the engine-construction fallback (an empty trace,
    /// comparing nothing) is unreachable in practice.
    fn oracle_trace(bench: &spec::BenchmarkSpec, config: &LoadGenConfig) -> Vec<usize> {
        let Ok(engine) = DecisionEngine::from_spec(EngineConfig::pentium_m(), &config.predictor)
        else {
            return Vec::new();
        };
        Manager::with_engine(engine, ManagerConfig::pentium_m())
            .run(bench.stream(config.seed), &PlatformConfig::pentium_m())
            .decision_trace()
    }
}
