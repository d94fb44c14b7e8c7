//! `serve_ladder`: the deployed service path under open-loop load.
//!
//! An in-process `serve::spawn` server with one shard; one generator
//! thread drives two connections, each multiplexing 16 pids drawn from
//! the 33 SPEC streams. Load steps up a fixed ladder of offered rates.
//! Every sample is timed from when it was due, not from when it was
//! sent, so a stall in the generator or the server counts against every
//! sample queued behind it. Decision latency is reported at the
//! nominal rate. A rung passes when its p90 latency is within 1 ms,
//! nothing failed and its backlog did not grow; the ladder ends at the
//! first rung whose backlog grows, and three bisection rungs between
//! the last pass and the first failure refine the sustained rate.
//! Closed-loop blocks (a fixed window of samples in flight per
//! connection) measure the server's saturation throughput.
//!
//! The limit sits on p90, not p99: on a 2-vCPU VM with a shared host,
//! the host deschedules a vCPU for 1-4 ms a few times a second even
//! when idle, which puts about 1 % of samples behind a stall and makes
//! a p99 flip between the service's own tail and the host's. The p99
//! (highest percentile with ten samples beyond it) is still printed.
//! The generator never spins while it awaits a decision: it blocks in
//! epoll, leaving the CPU it shares with the shard thread to the shard.
//!
//! At most 2 threads (generator and shard) and 2 connections: concurrent
//! connects stay far below the listener backlog, where SYN retries
//! would make the kernel, not livephase, the thing measured.

use crate::probe::{self, Buckets, Counters, PREDICTOR};
use crate::stats::{self, Outcomes, Schedule, Tail};
use crate::trace::{per_call_ns, CallKey, Tracer};
use crate::Report;
use livephase_engine::{DecisionEngine, EngineConfig, Sample};
use livephase_serve::reactor::{Epoll, Events, Interest};
use livephase_serve::wire::{self, Frame, FrameDecoder};
use livephase_serve::{spawn, ServerConfig, ServerHandle};
use livephase_workloads::{registry, CounterSample, WorkloadTrace};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

const CONNS: usize = 2;
const PIDS_PER_CONN: usize = 16;
const STREAMS: usize = CONNS * PIDS_PER_CONN;
/// Intervals per pid stream; a pid replays its stream cyclically.
const STREAM_LEN: usize = 2_000;
/// The tail-latency limit a sustained rate must meet: about 1.5 % of a
/// 100 M-uop interval at 1.5 GHz.
const LATENCY_LIMIT_NS: f64 = 1_000_000.0;
/// The quantile the limit applies to (see the module docs).
const TAIL_Q: f64 = 0.90;
/// Samples a connection may have unanswered; past it the generator
/// holds (and its backlog shows), so the server's bounded outbound
/// queue is never what fails.
const INFLIGHT_CAP: usize = 8_192;
/// The ladder's nominal (sub-saturation) rate, where decision latency
/// is reported.
const NOMINAL_SPS: f64 = 20_000.0;
/// Offered rates in samples/s. The lowest puts each sample on its own
/// wakeup; the highest is well past one shard's saturation.
const LADDER_SPS: [f64; 14] = [
    4e3,
    NOMINAL_SPS,
    5e4,
    1e5,
    2e5,
    3e5,
    4e5,
    5e5,
    6.5e5,
    8e5,
    1e6,
    1.25e6,
    1.6e6,
    2e6,
];
const BISECTIONS: usize = 3;
/// Bounds on one rung's sample count: enough for a p99 with ten
/// samples beyond it, and a cap on set-up's oracle work.
const RUNG_MIN: u64 = 1_100;
const RUNG_MAX: u64 = 100_000;
/// The closed-loop saturation blocks: a window of 64 samples in flight
/// per connection, as `serve-bench` keeps by default. A deep window
/// leaves batch sizes to the scheduler's timing, and the blocks' wall
/// time moved 30 % from run to run with 4096; with 64 it holds to 2 %.
const BLOCK_SAMPLES: u64 = 100_000;
const BLOCK_WINDOW: usize = 64;
/// The nominal rung runs in segments, with a pair of blocks before the
/// first rung and after each low rung and segment, so that neither
/// figure rests on one stretch of time: host contention comes in
/// episodes (see `stats::quietest`).
const NOMINAL_SEGMENTS: usize = 4;
const BLOCKS_PER_GROUP: usize = 2;
const BLOCKS: usize = BLOCKS_PER_GROUP * (NOMINAL_SEGMENTS + 2);
/// The nominal rung's latency is summarised per window, then by the
/// quietest window.
const NOMINAL_WINDOWS: usize = 24;
/// A connection that answers nothing for this long has failed.
const STALL_LIMIT: Duration = Duration::from_secs(5);
const SETUPS: usize = 5;
/// How early an idle generator wakes before the next due time: covers
/// the kernel's default 50 µs timer slack with room to spare.
const SLEEP_MARGIN_NS: u64 = 100_000;

/// Rung durations for a run of `seconds`.
struct Plan {
    nominal_s: f64,
    rung_s: f64,
}

impl Plan {
    fn new(seconds: f64) -> Self {
        Self {
            nominal_s: 0.4 * seconds,
            rung_s: 0.025 * seconds,
        }
    }

    fn samples(&self, rate: f64) -> u64 {
        if rate == NOMINAL_SPS {
            return (rate * self.nominal_s) as u64;
        }
        ((rate * self.rung_s) as u64).clamp(RUNG_MIN, RUNG_MAX)
    }

    /// Most samples a run can send: every rung, every bisection at the
    /// cap, and the blocks (twice over when traced).
    fn max_samples(&self) -> u64 {
        LADDER_SPS.iter().map(|&r| self.samples(r)).sum::<u64>()
            + BISECTIONS as u64 * RUNG_MAX
            + 2 * BLOCKS as u64 * BLOCK_SAMPLES
    }
}

/// A sample's place in the interleaving: global index `g` rides
/// connection `g % 2` as pid slot `(g / 2) % 16`, the `g / 32`-th
/// sample of that pid.
fn place(g: u64) -> (usize, usize, usize) {
    let c = (g % CONNS as u64) as usize;
    let slot = ((g / CONNS as u64) % PIDS_PER_CONN as u64) as usize;
    (c, slot, (g / STREAMS as u64) as usize)
}

fn pid_of(slot: usize) -> u32 {
    slot as u32 + 1
}

/// One connection's client side: a nonblocking socket, its outbound
/// bytes, a resumable decoder and the samples awaiting decisions.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    decoder: FrameDecoder,
    /// (rung-local index, global index) of each unanswered sample.
    inflight: VecDeque<(u64, u64)>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr, id: u64) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        wire::write_frame(
            &mut stream,
            &Frame::Hello {
                version: wire::PROTOCOL_VERSION,
                client_id: id,
                platform: EngineConfig::pentium_m().platform().to_owned(),
                predictor: PREDICTOR.to_owned(),
            },
        )?;
        match wire::read_frame(&mut stream) {
            Ok(Frame::HelloAck { .. }) => {}
            other => {
                return Err(io::Error::other(format!("handshake refused: {other:?}")));
            }
        }
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            out: Vec::with_capacity(64 * 1024),
            sent: 0,
            decoder: FrameDecoder::new(),
            inflight: VecDeque::new(),
        })
    }

    /// Writes queued bytes until the socket pushes back.
    fn flush(&mut self) -> io::Result<()> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        Ok(())
    }

    /// Banks whatever the socket holds; returns the bytes read.
    fn fill(&mut self, scratch: &mut [u8]) -> io::Result<usize> {
        let mut total = 0;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.decoder.feed(&scratch[..n]);
                    total += n;
                    if n < scratch.len() {
                        return Ok(total);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(total),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Inputs and the running system, built before anything is timed.
struct Setup {
    /// Per pid slot (conn-major): the stream's counter samples.
    streams: Vec<Vec<CounterSample>>,
    /// Per pid slot: the bit-exact expected (op point, confidence) of
    /// each successive sample, from an in-process `DecisionEngine::step`.
    oracle: Vec<Vec<(u8, u16)>>,
    /// The streams' interval traces, under pids unique across both
    /// connections, for the layer probes.
    traces: Vec<(u32, WorkloadTrace)>,
    gen_s: f64,
    server: ServerHandle,
    conns: Vec<Conn>,
}

/// The 32 benchmarks the run multiplexes: the registry in a seeded
/// order, minus one.
fn chosen_benchmarks(seed: u64) -> Vec<livephase_workloads::BenchmarkSpec> {
    let mut specs = registry();
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for i in (1..specs.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        specs.swap(i, (x % (i as u64 + 1)) as usize);
    }
    specs.truncate(STREAMS);
    specs
}

/// A `cpu_set_t` as glibc lays it out: 1024 bits.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to `cpu`; threads it spawns afterwards
/// inherit the pin.
fn pin_to(cpu: usize) -> io::Result<()> {
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live, fully initialised cpu_set_t of the size
    // passed; pid 0 names the calling thread; the kernel only reads the
    // mask during the call.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

fn setup(seed: u64, plan: &Plan) -> io::Result<Setup> {
    let started = Instant::now();
    let traces: Vec<(u32, WorkloadTrace)> = chosen_benchmarks(seed)
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            (
                i as u32 + 1,
                spec.clone().with_length(STREAM_LEN).generate(seed),
            )
        })
        .collect();
    let gen_s = started.elapsed().as_secs_f64();
    let streams: Vec<Vec<CounterSample>> = traces
        .iter()
        .map(|(_, t)| {
            t.intervals()
                .iter()
                .map(|w| CounterSample::from(*w))
                .collect()
        })
        .collect();
    let per_pid = plan.max_samples().div_ceil(STREAMS as u64) as usize;
    let mut oracle = Vec::with_capacity(STREAMS);
    for c in 0..CONNS {
        let mut engine = DecisionEngine::from_spec(EngineConfig::pentium_m(), PREDICTOR)
            .expect("the deployed predictor spec parses");
        for slot in 0..PIDS_PER_CONN {
            let stream = &streams[c * PIDS_PER_CONN + slot];
            let expected = (0..per_pid)
                .map(|seq| {
                    let s = stream[seq % stream.len()];
                    let d = engine.step(&Sample {
                        pid: pid_of(slot),
                        uops: s.uops,
                        mem_transactions: s.mem_transactions,
                    });
                    (d.op_point, d.confidence)
                })
                .collect();
            oracle.push(expected);
        }
    }
    let server = spawn(ServerConfig {
        shards: 1,
        max_conns: 16,
        read_timeout: Duration::from_secs(30),
        write_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })?;
    let conns = (0..CONNS)
        .map(|c| Conn::open(server.local_addr(), c as u64 + 1))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(Setup {
        streams,
        oracle,
        traces,
        gen_s,
        server,
        conns,
    })
}

/// What one rung measured.
#[derive(Debug, Clone)]
struct Rung {
    rate: f64,
    samples: u64,
    outcomes: Outcomes,
    /// Per answered sample: due → decision, in ns.
    latencies_ns: Vec<f64>,
    /// Generator lag (send − due) at the tail, in µs.
    lag_tail_us: f64,
    backlog_max: u64,
    backlog_grew: bool,
    /// First due time to last decision, in seconds.
    wall_s: f64,
    /// Reads that returned decisions, and the decisions they carried.
    reads: u64,
    decided: u64,
}

impl Rung {
    fn tail(&self) -> Option<Tail> {
        stats::tail(&self.latencies_ns)
    }

    fn quantile_ns(&self, q: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            f64::NAN
        } else {
            stats::quantile(&self.latencies_ns, q)
        }
    }

    fn passes(&self) -> bool {
        self.outcomes.failed == 0
            && !self.backlog_grew
            && self.quantile_ns(TAIL_Q) <= LATENCY_LIMIT_NS
    }
}

/// The open-loop generator over a set-up system.
struct Generator<'a> {
    setup: &'a mut Setup,
    /// Readiness of both connections, for waiting on decisions.
    epoll: Epoll,
    events: Events,
    /// Global index of the next sample to offer.
    next_global: u64,
    scratch: Vec<u8>,
    tracer: &'a mut Tracer,
    encode: CallKey,
    decode: CallKey,
}

impl<'a> Generator<'a> {
    fn new(
        setup: &'a mut Setup,
        tracer: &'a mut Tracer,
        (encode, decode): (CallKey, CallKey),
        next_global: u64,
    ) -> io::Result<Self> {
        let epoll = Epoll::new()?;
        for (c, conn) in setup.conns.iter().enumerate() {
            epoll.add(conn.stream.as_raw_fd(), Interest::Read, c as u64)?;
        }
        Ok(Self {
            setup,
            epoll,
            events: Events::with_capacity(CONNS),
            next_global,
            scratch: vec![0u8; 64 * 1024],
            tracer,
            encode,
            decode,
        })
    }

    /// Offers `n` samples at `rate` (∞ = all at once), at most `window`
    /// unanswered per connection, waits for every decision and checks
    /// each against the oracle.
    fn rung(&mut self, rate: f64, n: u64, window: usize) -> Rung {
        let schedule = Schedule::at_rate(rate);
        let base = self.next_global;
        let mut latencies_ns = Vec::with_capacity(n as usize);
        let mut lags_us = Vec::with_capacity(n as usize);
        let mut outcomes = Outcomes::default();
        let mut backlog = Vec::new();
        let backlog_tick_ns = 1_000_000;
        let mut next_tick = 0u64;
        let last_due = schedule.due_ns(n.saturating_sub(1));
        let (mut sent, mut decided, mut reads) = (0u64, 0u64, 0u64);
        let start = Instant::now();
        let mut last_progress = start;
        let mut last_decision_ns = 0u64;
        'run: while decided + outcomes.failed < n {
            let now = start.elapsed().as_nanos() as u64;
            let due = schedule.due_by(now, n);
            while sent < due {
                let g = base + sent;
                let (c, slot, seq) = place(g);
                let conn = &mut self.setup.conns[c];
                if conn.inflight.len() >= window {
                    break;
                }
                let stream = &self.setup.streams[c * PIDS_PER_CONN + slot];
                let s = stream[seq % stream.len()];
                let frame = Frame::Sample {
                    pid: pid_of(slot),
                    uops: s.uops,
                    mem_trans: s.mem_transactions,
                    tsc_delta: s.core_cycles,
                };
                self.tracer
                    .call(self.encode, || wire::encode_into(&frame, &mut conn.out));
                conn.inflight.push_back((sent, g));
                lags_us.push(now.saturating_sub(schedule.due_ns(sent)) as f64 / 1e3);
                sent += 1;
            }
            let mut read_any = false;
            for c in 0..CONNS {
                let conn = &mut self.setup.conns[c];
                let lost = conn
                    .flush()
                    .and_then(|()| conn.fill(&mut self.scratch))
                    .is_err();
                let done_ns = start.elapsed().as_nanos() as u64;
                let t = Instant::now();
                let mut frames = 0u64;
                loop {
                    let frame = match conn.decoder.next_frame() {
                        Ok(Some(f)) => f,
                        Ok(None) => break,
                        Err(_) => {
                            outcomes.record_failed(conn.inflight.len() as u64);
                            conn.inflight.clear();
                            break 'run;
                        }
                    };
                    frames += 1;
                    let Some((i, g)) = conn.inflight.pop_front() else {
                        outcomes.record(false);
                        continue;
                    };
                    let (_, slot, seq) = place(g);
                    let want = self.setup.oracle[c * PIDS_PER_CONN + slot][seq];
                    let ok = matches!(frame, Frame::Decision { pid, op_point, confidence }
                        if pid == pid_of(slot) && (op_point, confidence) == want);
                    outcomes.record(ok);
                    if ok {
                        decided += 1;
                        latencies_ns.push(schedule.latency_ns(i, done_ns) as f64);
                    }
                    last_decision_ns = done_ns;
                }
                self.tracer
                    .add(self.decode, t.elapsed().as_nanos() as u64, frames);
                if frames > 0 {
                    read_any = true;
                    reads += 1;
                    last_progress = Instant::now();
                }
                if lost {
                    outcomes.record_failed(conn.inflight.len() as u64);
                    conn.inflight.clear();
                    break 'run;
                }
            }
            // Idle until the next event, without spinning: block in epoll
            // while a decision is awaited (it wakes the moment one lands),
            // otherwise sleep until just before the next sample is due.
            let awaiting = self.setup.conns.iter().any(|c| !c.inflight.is_empty());
            let now = start.elapsed().as_nanos() as u64;
            let window_full = self.setup.conns[place(base + sent).0].inflight.len() >= window;
            let nothing_to_send = sent == schedule.due_by(now, n) || window_full;
            if awaiting && !read_any && nothing_to_send {
                let _ = self
                    .epoll
                    .wait(&mut self.events, Some(Duration::from_millis(1)));
            } else if !awaiting && sent < n {
                let wait = schedule.due_ns(sent).saturating_sub(now);
                if wait > 2 * SLEEP_MARGIN_NS {
                    std::thread::sleep(Duration::from_nanos(wait - SLEEP_MARGIN_NS));
                }
            }
            if now >= next_tick && next_tick <= last_due {
                backlog.push(due.saturating_sub(decided + outcomes.failed));
                next_tick += backlog_tick_ns;
            }
            if last_progress.elapsed() > STALL_LIMIT && sent > decided + outcomes.failed {
                break;
            }
        }
        // Samples never offered or never answered are failures too.
        let answered = decided + (outcomes.failed);
        outcomes.record_failed(n.saturating_sub(answered));
        for conn in &mut self.setup.conns {
            conn.inflight.clear();
        }
        self.next_global += n;
        Rung {
            rate,
            samples: n,
            outcomes,
            lag_tail_us: stats::tail(&lags_us).map_or(0.0, |t| t.value),
            backlog_max: backlog.iter().copied().max().unwrap_or(0),
            backlog_grew: stats::backlog_grows(&backlog, 64f64.max(rate * 2e-4)),
            wall_s: last_decision_ns as f64 / 1e9,
            latencies_ns,
            reads,
            decided,
        }
    }
}

/// Everything one ladder run measured.
struct Ladder {
    rungs: Vec<Rung>,
    nominal: Rung,
    sustained_sps: f64,
    blocks: Vec<Rung>,
}

impl Ladder {
    fn block_wall_s(&self) -> f64 {
        block_wall(&self.blocks)
    }
}

/// The quietest block's wall time.
fn block_wall(blocks: &[Rung]) -> f64 {
    stats::quietest(&blocks.iter().map(|b| b.wall_s).collect::<Vec<_>>())
}

fn run_blocks(g: &mut Generator<'_>, out: &mut Vec<Rung>) {
    for _ in 0..BLOCKS_PER_GROUP {
        out.push(g.rung(f64::INFINITY, BLOCK_SAMPLES, BLOCK_WINDOW));
    }
}

/// One rung's figures from consecutive segments at the same rate.
fn merged(segments: Vec<Rung>) -> Rung {
    let mut all = segments.into_iter();
    let mut m = all.next().expect("at least one segment");
    for r in all {
        m.samples += r.samples;
        m.outcomes.merge(r.outcomes);
        m.latencies_ns.extend(r.latencies_ns);
        m.lag_tail_us = m.lag_tail_us.max(r.lag_tail_us);
        m.backlog_max = m.backlog_max.max(r.backlog_max);
        m.backlog_grew |= r.backlog_grew;
        m.wall_s += r.wall_s;
        m.reads += r.reads;
        m.decided += r.decided;
    }
    m
}

/// Blocks and the low rungs interleaved, then the ladder upward: the
/// top rungs leave the sockets' autotuned buffers different from run to
/// run, so nothing gated runs after them.
fn run_ladder(g: &mut Generator<'_>, plan: &Plan) -> Ladder {
    let mut blocks = Vec::with_capacity(BLOCKS);
    run_blocks(g, &mut blocks);
    let mut rungs: Vec<Rung> = Vec::new();
    let mut first_fail: Option<f64> = None;
    for &rate in &LADDER_SPS {
        let r = if rate <= NOMINAL_SPS {
            let segments = if rate == NOMINAL_SPS {
                NOMINAL_SEGMENTS
            } else {
                1
            };
            let per = plan.samples(rate) / segments as u64;
            let parts = (0..segments)
                .map(|_| {
                    let r = g.rung(rate, per, INFLIGHT_CAP);
                    run_blocks(g, &mut blocks);
                    r
                })
                .collect();
            merged(parts)
        } else {
            g.rung(rate, plan.samples(rate), INFLIGHT_CAP)
        };
        let (grew, passed) = (r.backlog_grew, r.passes());
        rungs.push(r);
        if !passed && first_fail.is_none() {
            first_fail = Some(rate);
        }
        if grew {
            break;
        }
    }
    let mut sustained = rungs
        .iter()
        .take_while(|r| r.passes())
        .last()
        .map_or(0.0, |r| r.rate);
    if let Some(mut hi) = first_fail.filter(|_| sustained > 0.0) {
        for _ in 0..BISECTIONS {
            let mid = (sustained * hi).sqrt();
            let r = g.rung(mid, plan.samples(mid), INFLIGHT_CAP);
            if r.passes() {
                sustained = mid;
            } else {
                hi = mid;
            }
            rungs.push(r);
        }
    }
    let nominal = rungs
        .iter()
        .find(|r| r.rate == NOMINAL_SPS)
        .cloned()
        .expect("the ladder always reaches its nominal rung");
    Ladder {
        rungs,
        nominal,
        sustained_sps: sustained,
        blocks,
    }
}

/// Quantile `q` of each window of `latencies`, in the quietest window.
fn windowed(latencies: &[f64], q: f64) -> f64 {
    let per = latencies.len().div_ceil(NOMINAL_WINDOWS).max(1);
    let per_window: Vec<f64> = latencies
        .chunks(per)
        .map(|w| stats::quantile(w, q))
        .collect();
    stats::quietest(&per_window)
}

fn print_rungs(ladder: &Ladder) {
    println!("  offered/s   samples   p50 us   p90 us     tail us  (percentile)               lag us  backlog  grew  failed  pass");
    for r in &ladder.rungs {
        let tail = r.tail();
        println!(
            "  {:>9.0} {:>9} {:>8.1} {:>8.1} {:>10.1}  ({:<24}) {:>8.1} {:>8} {:>5} {:>7} {:>5}",
            r.rate,
            r.samples,
            r.quantile_ns(0.5) / 1e3,
            r.quantile_ns(TAIL_Q) / 1e3,
            tail.map_or(f64::NAN, |t| t.value / 1e3),
            tail.map_or("n/a".to_owned(), |t| t.to_string()),
            r.lag_tail_us,
            r.backlog_max,
            r.backlog_grew,
            r.outcomes.failed,
            r.passes()
        );
    }
}

fn teardown(s: Setup) {
    for mut conn in s.conns {
        conn.out.clear();
        conn.sent = 0;
        wire::encode_into(&Frame::Goodbye, &mut conn.out);
        let _ = conn.stream.set_nonblocking(false);
        let _ = conn.flush();
    }
    s.server.shutdown();
}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, seconds: f64, traced: bool) -> io::Result<Report> {
    let plan = Plan::new(seconds);
    // The generator and the shard thread (which inherits the pin) share
    // one CPU, the last: CPU 0 takes most device interrupts. Left to the
    // scheduler, the pair lands on one CPU or two from run to run, and
    // the median latency differs 2-3x between the two placements: a
    // wakeup across vCPUs costs a virtual IPI.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    pin_to(cpus - 1)?;
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut setup_run = None;
    for _ in 0..SETUPS {
        if let Some(previous) = setup_run.take() {
            teardown(previous);
        }
        let t = Instant::now();
        setup_run = Some(setup(seed, &plan)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut s = setup_run.expect("at least one set-up ran");
    let mut tracer = Tracer::new(traced);
    let encode = tracer.key("serve.wire.encode");
    let decode = tracer.key("serve.wire.decode");
    println!(
        "serve_ladder: 1 shard, {CONNS} connections x {PIDS_PER_CONN} pids, open loop; \
         plan {} samples max",
        plan.max_samples()
    );

    let c0 = Counters::snapshot();
    let shard0 = Buckets::snapshot("serve_shard_decision_us");
    let decode0 = Buckets::snapshot("serve_frame_decode_us");
    let mut g = Generator::new(&mut s, &mut tracer, (encode, decode), 0)?;
    let ladder = run_ladder(&mut g, &plan);
    let c1 = Counters::snapshot();
    let shard = Buckets::snapshot("serve_shard_decision_us").since(&shard0);
    let frame_decode = Buckets::snapshot("serve_frame_decode_us").since(&decode0);
    print_rungs(&ladder);

    let mut outcomes = Outcomes::default();
    for r in ladder.rungs.iter().chain(&ladder.blocks) {
        outcomes.merge(r.outcomes);
    }
    let nominal_tail = ladder
        .nominal
        .tail()
        .expect("the nominal rung holds >1000 samples");
    let p50_us = windowed(&ladder.nominal.latencies_ns, 0.5) / 1e3;
    println!(
        "  nominal {NOMINAL_SPS:.0}/s over {} samples: p50 {:.1} us, p90 {:.1} us, tail {:.1} us ({nominal_tail}); \
         quietest of {NOMINAL_WINDOWS} windows: p50 {p50_us:.1} us, p90 {:.1} us",
        ladder.nominal.samples,
        ladder.nominal.quantile_ns(0.5) / 1e3,
        ladder.nominal.quantile_ns(TAIL_Q) / 1e3,
        nominal_tail.value / 1e3,
        windowed(&ladder.nominal.latencies_ns, TAIL_Q) / 1e3,
    );
    println!(
        "  sustained {:.0} samples/s (highest rate with p90 <= 1 ms, no failures, no growing backlog)",
        ladder.sustained_sps
    );
    let walls: Vec<f64> = ladder.blocks.iter().map(|b| b.wall_s).collect();
    println!(
        "  {BLOCKS} closed-loop blocks of {BLOCK_SAMPLES} samples, window {BLOCK_WINDOW} per connection: \
         wall min {:.4} s, lower quartile {:.4} s, median {:.4} s, max {:.4} s",
        ladder.block_wall_s(),
        stats::quantile(&walls, 0.25),
        stats::median(&walls),
        stats::quantile(&walls, 1.0)
    );

    let mut report = Report::new(outcomes);
    if !traced {
        report.set("wall_s", ladder.block_wall_s());
        report.set("setup_s", stats::median(&setup_times));
        teardown(s);
        return Ok(report);
    }

    // Traced: the blocks again without spans, for the overhead, then
    // the layers probed on the same inputs.
    let mut off = Tracer::new(false);
    let offered = ladder
        .rungs
        .iter()
        .chain(&ladder.blocks)
        .map(|r| r.samples)
        .sum();
    let mut g = Generator::new(&mut s, &mut off, (encode, decode), offered)?;
    let mut untraced = Vec::with_capacity(BLOCKS);
    for _ in 0..BLOCKS / BLOCKS_PER_GROUP {
        run_blocks(&mut g, &mut untraced);
    }
    for b in &untraced {
        report.outcomes.merge(b.outcomes);
    }
    let batch_mean = ladder.rungs.iter().map(|r| r.decided).sum::<u64>() as f64
        / ladder.rungs.iter().map(|r| r.reads).sum::<u64>().max(1) as f64;
    let traces = std::mem::take(&mut s.traces);
    let gen_s = s.gen_s;
    teardown(s);
    let layers = probe::layers(
        &mut tracer,
        &traces,
        gen_s,
        false,
        batch_mean.round() as usize,
    );

    // Server-side work measurable from outside, per sample: decode its
    // Sample frame, step_many at the observed batch mix, encode its
    // Decision frame.
    let sample_frame = wire::encode(&Frame::Sample {
        pid: 1,
        uops: 100_000_000,
        mem_trans: 1_234_567,
        tsc_delta: 150_000_000,
    });
    let decision = Frame::Decision {
        pid: 1,
        op_point: 3,
        confidence: 9_000,
    };
    let server_decode_ns = per_call_ns(5, 100_000, |_| {
        let mut d = FrameDecoder::new();
        d.feed(&sample_frame);
        std::hint::black_box(d.next_frame().ok());
    });
    let mut buf = Vec::with_capacity(64);
    let server_encode_ns = per_call_ns(5, 200_000, |_| {
        buf.clear();
        wire::encode_into(&decision, &mut buf);
        std::hint::black_box(&buf);
    });
    let e2e = block_wall(&untraced);
    let attributed = BLOCK_SAMPLES as f64
        * (layers.step_many_ns_per_sample + server_decode_ns + server_encode_ns)
        / 1e9;
    let failures = [
        "serve_errors_total",
        "serve_conns_shed_total",
        "serve_conns_reaped_total",
        "serve_connections_poisoned_total",
        "serve_connections_rejected_total",
    ]
    .iter()
    .map(|name| c1.since(&c0, name))
    .sum::<f64>();
    let shard_p50 = shard.quantile(0.5) as f64;
    println!("  traced ladder, per layer:");
    println!(
        "    serve.wire.encode_ns           {:>10.1} ns  (client, per Sample frame, {} frames)",
        tracer.ns_per_call(encode),
        tracer.count(encode)
    );
    println!(
        "    serve.wire.decode_ns           {:>10.1} ns  (client, per Decision frame, {} frames)",
        tracer.ns_per_call(decode),
        tracer.count(decode)
    );
    println!("    serve.shard.decision_us_p50    {:>10} us  (serve_shard_decision_us, {} decisions; whole-us buckets of the batch-amortized cost)", shard.quantile(0.5), shard.count());
    println!(
        "    serve.shard.decision_us_p99    {:>10} us",
        shard.quantile(0.99)
    );
    println!(
        "    serve.frame_decode_us_p50      {:>10} us  (serve_frame_decode_us, {} frames)",
        frame_decode.quantile(0.5),
        frame_decode.count()
    );
    println!("    serve.shard.batch_mean         {:>10.2}     (decisions per client read that returned any; the shard writes one batch per wakeup)", batch_mean);
    println!("    serve.wait_us_p50              {:>10.1} us  (client p50 minus shard decision p50: kernel plus reactor wait)", p50_us - shard_p50);
    println!("    serve.failures                 {:>10}     (errors + shed + reaped + poisoned + rejected)", failures);
    println!(
        "    loadgen.lag_p99_us             {:>10.1} us  (nominal rung)",
        ladder.nominal.lag_tail_us
    );
    println!(
        "    loadgen.backlog_max            {:>10}     (nominal rung; highest over the ladder {})",
        ladder.nominal.backlog_max,
        ladder
            .rungs
            .iter()
            .map(|r| r.backlog_max)
            .max()
            .unwrap_or(0)
    );
    println!(
        "    reconciliation: block {e2e:.4} s untraced vs {attributed:.4} s of server-side layer work \
         measurable from outside (step_many {:.1} + decode {server_decode_ns:.1} + encode {server_encode_ns:.1} ns per sample); \
         the rest is the reactor, the kernel and waiting",
        layers.step_many_ns_per_sample
    );
    report.layers(
        &layers,
        &c0,
        &c1,
        ladder.block_wall_s() / e2e - 1.0,
        (e2e - attributed).abs() / e2e,
    );
    report.tracer = Some(tracer);
    Ok(report)
}
