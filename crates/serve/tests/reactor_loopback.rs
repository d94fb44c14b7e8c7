//! Reactor end-to-end tests: the load generator holding every session
//! open at once, slow-consumer shedding under an outbound-queue cap,
//! bit-exactness of served decisions against the in-process session
//! engine (also while a same-shard sibling is poisoned mid-stream), and
//! reap/drain accounting.

use livephase_engine::DecisionEngine;
use livephase_serve::client::Client;
use livephase_serve::loadgen::{self, LoadGenConfig};
use livephase_serve::reactor;
use livephase_serve::server::{spawn, ServerConfig};
use livephase_serve::wire::{self, ErrorCode, Frame, PROTOCOL_VERSION};
use livephase_serve::EngineConfig;
use std::io::Write;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

fn connect(handle: &livephase_serve::ServerHandle, client_id: u64) -> Client {
    Client::connect(
        handle.local_addr(),
        client_id,
        "pentium_m",
        "gpht:8:128",
        Duration::from_secs(5),
    )
    .expect("handshake")
}

/// The scaled acceptance bar, sized for CI: the load generator opens
/// 1200 sessions, holds them ALL open concurrently
/// (peak == requested), and every served stream is bit-exact against
/// the in-process manager.
#[test]
fn many_connection_mode_holds_all_sessions_and_stays_bit_exact() {
    let handle = spawn(ServerConfig {
        shards: 2,
        max_conns: 1500,
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("bind loopback");

    let report = loadgen::run(&LoadGenConfig {
        addr: handle.local_addr().to_string(),
        connections: 1200,
        benchmarks: vec!["applu_in".into(), "swim_in".into(), "crafty_in".into()],
        length: 12,
        window: 16,
        timeout: Duration::from_secs(30),
        ..LoadGenConfig::default()
    })
    .expect("many-connection load generation succeeds");

    assert_eq!(
        report.peak_connections, 1200,
        "every session is held open before any stream starts"
    );
    assert_eq!(report.outcomes.len(), 1200, "one outcome per connection");
    assert!(report.all_exact(), "all 1200 streams bit-exact");
    assert_eq!(report.samples, 1200 * 12);

    let summary = handle.shutdown();
    assert_eq!(summary.accepted, 1200);
    assert_eq!(summary.poisoned, 0);
    assert_eq!(summary.decisions, 1200 * 12);
}

/// A connection that stops draining its decisions is shed with a typed
/// `Error{SlowConsumer}` once its outbound queue exceeds the configured
/// cap — and a well-behaved sibling on the same shard keeps streaming
/// bit-exact decisions throughout.
#[test]
fn slow_consumer_is_shed_without_disturbing_its_shard_siblings() {
    // One shard (so the flood and the sibling share an owner thread),
    // a small server send buffer and a small outbound cap so the
    // backpressure ladder trips quickly.
    let handle = spawn(ServerConfig {
        shards: 1,
        max_conns: 8,
        read_timeout: Duration::from_secs(30),
        write_timeout: Duration::from_secs(5),
        max_outbound_bytes: 32 * 1024,
        sndbuf: Some(8 * 1024),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = handle.local_addr().to_string();

    // The sibling replays a benchmark through the standard load
    // generator (with the oracle agreement check) while the flood runs.
    let sibling = std::thread::spawn(move || {
        loadgen::run(&LoadGenConfig {
            addr,
            connections: 1,
            benchmarks: vec!["applu_in".into()],
            length: 200,
            window: 8,
            timeout: Duration::from_secs(30),
            ..LoadGenConfig::default()
        })
    });

    // The slow consumer: handshake, shrink its receive window, then
    // flood samples without ever reading a decision.
    let mut raw = TcpStream::connect(handle.local_addr()).expect("connect");
    reactor::set_recv_buffer(raw.as_raw_fd(), 8 * 1024).expect("shrink rcvbuf");
    raw.set_write_timeout(Some(Duration::from_millis(500)))
        .expect("write timeout");
    raw.write_all(&wire::encode(&Frame::Hello {
        version: PROTOCOL_VERSION,
        client_id: 666,
        platform: "pentium_m".into(),
        predictor: "gpht:8:128".into(),
    }))
    .expect("send hello");
    let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone"));
    match wire::read_frame(&mut reader) {
        Ok(Frame::HelloAck { .. }) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    let sample = wire::encode(&Frame::Sample {
        pid: 1,
        uops: 100_000_000,
        mem_trans: 1_200_000,
        tsc_delta: 0,
    });
    // Each sample earns a ~12-byte decision; tens of thousands overrun
    // the 16 KiB of socket buffer per side plus the 32 KiB cap. Writes
    // start failing once the server sheds us and closes; that is the
    // signal to stop flooding.
    for _ in 0..60_000 {
        if raw.write_all(&sample).is_err() {
            break;
        }
    }
    // Now drain: decisions the server flushed before the cap tripped,
    // then the typed shed error, then EOF.
    let mut shed = false;
    loop {
        match wire::read_frame(&mut reader) {
            Ok(Frame::Decision { .. }) => {}
            Ok(Frame::Error { code, message }) => {
                assert_eq!(code, ErrorCode::SlowConsumer, "typed shed error");
                assert!(
                    message.contains("shedding slow consumer"),
                    "actionable message: {message}"
                );
                shed = true;
            }
            Ok(other) => panic!("unexpected frame while draining: {other:?}"),
            Err(_) => break, // EOF after the terminal error
        }
    }
    assert!(shed, "the flood was shed with Error{{SlowConsumer}}");

    // The sibling finished its stream bit-exact despite sharing the shard.
    let report = sibling
        .join()
        .expect("sibling thread")
        .expect("sibling load generation succeeds");
    assert!(report.all_exact(), "sibling stayed bit-exact");
    assert_eq!(report.samples, 200);

    // The shed shows up in the telemetry and the poison count.
    let mut probe = connect(&handle, 2);
    let text = probe.metrics().expect("metrics scrape");
    assert!(
        text.lines().any(|l| {
            l.starts_with("serve_conns_shed_total")
                && l.rsplit(' ')
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .is_some_and(|v| v >= 1)
        }),
        "shed counter exported: {text}"
    );
    probe.goodbye().expect("close probe");
    let summary = handle.shutdown();
    assert!(summary.poisoned >= 1, "the shed connection was poisoned");
}

/// The in-process session engine is the reactor's equivalence oracle:
/// the same counter stream served over the wire yields the decision
/// stream a `DecisionEngine` computes directly — operating point and
/// confidence alike, bit for bit.
#[test]
fn reactor_decides_identically_to_the_in_process_engine() {
    use livephase_serve::Sample;
    use livephase_workloads::{counter_samples, spec};
    let samples: Vec<(u64, u64)> = counter_samples(
        spec::benchmark("applu_in")
            .expect("known benchmark")
            .with_length(120)
            .stream(42),
    )
    .map(|s| (s.uops, s.mem_transactions))
    .collect();

    // The oracle: the exact decision path the shards run, in process.
    let mut oracle =
        DecisionEngine::from_spec(EngineConfig::pentium_m(), "gpht:8:128").expect("oracle engine");
    let oracle_samples: Vec<Sample> = samples
        .iter()
        .map(|&(uops, mem)| Sample {
            pid: 1,
            uops,
            mem_transactions: mem,
        })
        .collect();
    let mut oracle_decisions = Vec::new();
    oracle.step_many(&oracle_samples, &mut oracle_decisions);
    let expected: Vec<(u8, u16)> = oracle_decisions
        .iter()
        .map(|d| (d.op_point, d.confidence))
        .collect();

    let handle = spawn(ServerConfig {
        shards: 2,
        read_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut client = connect(&handle, 7);
    for &(uops, mem) in &samples {
        client.queue_sample(1, uops, mem, 0).expect("queue");
    }
    client.flush().expect("flush");
    let served: Vec<(u8, u16)> = (0..samples.len())
        .map(|_| {
            let d = client.read_decision().expect("decision");
            (d.op_point, d.confidence)
        })
        .collect();
    client.goodbye().expect("close");
    let summary = handle.shutdown();
    assert_eq!(summary.decisions, samples.len() as u64);
    assert_eq!(summary.poisoned, 0);
    assert_eq!(
        served, expected,
        "the served stream is the in-process decision path, bit for bit"
    );
}

/// A `Hello` whose predictor spec asks for a table too large to build
/// is refused with `Error{BadConfig}` before anything is allocated —
/// the server neither aborts nor panics — and a sibling session on the
/// same shard, streaming before and after the refusals, keeps the
/// in-process engine's decisions bit for bit.
#[test]
fn oversized_predictor_specs_are_refused_without_disturbing_the_shard() {
    use livephase_serve::Sample;
    use livephase_workloads::{counter_samples, spec};
    let samples: Vec<Sample> = counter_samples(
        spec::benchmark("applu_in")
            .expect("known benchmark")
            .with_length(120)
            .stream(7),
    )
    .map(|s| Sample {
        pid: 1,
        uops: s.uops,
        mem_transactions: s.mem_transactions,
    })
    .collect();
    let mut oracle =
        DecisionEngine::from_spec(EngineConfig::pentium_m(), "gpht:8:128").expect("oracle engine");
    let mut expected = Vec::new();
    oracle.step_many(&samples, &mut expected);

    // One shard, so the sibling and every refused session share it.
    let handle = spawn(ServerConfig {
        shards: 1,
        read_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut sibling = connect(&handle, 1);
    let mut served = Vec::new();
    let mut stream = |client: &mut Client, part: &[Sample]| {
        for s in part {
            client
                .queue_sample(s.pid, s.uops, s.mem_transactions, 0)
                .expect("queue");
        }
        client.flush().expect("flush");
        for _ in part {
            let d = client.read_decision().expect("decision");
            served.push((d.op_point, d.confidence));
        }
    };
    let (first, rest) = samples.split_at(samples.len() / 2);
    stream(&mut sibling, first);

    let max = usize::MAX;
    for (i, predictor) in [
        "gpht:8:100000000000".to_owned(),
        format!("gpht:{max}:128"),
        format!("hashedgpht:8:{max}"),
        format!("fixwindow:{max}"),
        format!("varwindow:{max}:0.005"),
    ]
    .into_iter()
    .enumerate()
    {
        match Client::connect(
            handle.local_addr(),
            100 + i as u64,
            "pentium_m",
            &predictor,
            Duration::from_secs(5),
        ) {
            Err(livephase_serve::ClientError::Refused { code, message }) => {
                assert_eq!(code, ErrorCode::BadConfig, "{predictor}");
                assert!(message.contains("bad predictor spec"), "{message}");
            }
            other => panic!("{predictor}: expected Refused(BadConfig), got {other:?}"),
        }
    }

    stream(&mut sibling, rest);
    sibling.goodbye().expect("close");
    let summary = handle.shutdown();
    assert_eq!(summary.poisoned, 0, "a bad spec is refused, not poisoned");
    assert_eq!(
        served,
        expected
            .iter()
            .map(|d| (d.op_point, d.confidence))
            .collect::<Vec<_>>(),
        "the sibling's stream is the in-process decision path, bit for bit"
    );
}

/// Garbage mid-stream poisons only the session that sent it: on one
/// shard, a sibling that handshook and streamed valid samples sends a
/// truncated `Sample` body and then an unknown tag, while a victim on
/// the same shard streams a real benchmark before, during and after.
/// The victim's whole decision stream is the in-process engine's, bit
/// for bit.
#[test]
fn mid_stream_garbage_leaves_same_shard_sessions_bit_exact() {
    use livephase_serve::Sample;
    use livephase_workloads::{counter_samples, spec};
    let samples: Vec<Sample> = counter_samples(
        spec::benchmark("mcf_inp")
            .expect("known benchmark")
            .with_length(150)
            .stream(42),
    )
    .map(|s| Sample {
        pid: 3,
        uops: s.uops,
        mem_transactions: s.mem_transactions,
    })
    .collect();
    let mut oracle =
        DecisionEngine::from_spec(EngineConfig::pentium_m(), "gpht:8:128").expect("oracle engine");
    let expected: Vec<(u8, u16)> = samples
        .iter()
        .map(|s| {
            let d = oracle.step(s);
            (d.op_point, d.confidence)
        })
        .collect();

    let handle = spawn(ServerConfig {
        shards: 1,
        read_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut victim = connect(&handle, 1);
    let queue = |client: &mut Client, part: &[Sample]| {
        for s in part {
            client
                .queue_sample(s.pid, s.uops, s.mem_transactions, 0)
                .expect("queue");
        }
        client.flush().expect("flush");
    };
    let mut served = Vec::new();
    let mut read = |client: &mut Client, n: usize| {
        for _ in 0..n {
            let d = client.read_decision().expect("victim decision");
            served.push((d.op_point, d.confidence));
        }
    };
    let (before, rest) = samples.split_at(50);
    let (during, after) = rest.split_at(50);

    // The sibling: a real session on the same shard, streaming valid
    // samples first.
    let mut raw = TcpStream::connect(handle.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    raw.write_all(&wire::encode(&Frame::Hello {
        version: PROTOCOL_VERSION,
        client_id: 2,
        platform: "pentium_m".into(),
        predictor: "gpht:8:128".into(),
    }))
    .expect("send hello");
    let mut sibling = std::io::BufReader::new(raw.try_clone().expect("clone"));
    match wire::read_frame(&mut sibling) {
        Ok(Frame::HelloAck { shard: 0, .. }) => {}
        other => panic!("expected HelloAck on shard 0, got {other:?}"),
    }

    queue(&mut victim, before);
    read(&mut victim, before.len());
    for s in &samples[..10] {
        raw.write_all(&wire::encode(&Frame::Sample {
            pid: 9,
            uops: s.uops,
            mem_trans: s.mem_transactions,
            tsc_delta: 0,
        }))
        .expect("valid sample");
    }
    for _ in 0..10 {
        match wire::read_frame(&mut sibling) {
            Ok(Frame::Decision { pid: 9, .. }) => {}
            other => panic!("expected the sibling's decision, got {other:?}"),
        }
    }

    // The victim has samples in flight while the garbage lands: a
    // `Sample` whose length prefix cuts its body short, then a frame
    // with an unknown tag.
    queue(&mut victim, during);
    let mut garbage = Vec::new();
    let sample = wire::encode_payload(&Frame::Sample {
        pid: 9,
        uops: 1,
        mem_trans: 1,
        tsc_delta: 1,
    });
    let cut = &sample[..13];
    garbage.extend_from_slice(&(cut.len() as u32).to_le_bytes());
    garbage.extend_from_slice(cut);
    garbage.extend_from_slice(&1u32.to_le_bytes());
    garbage.push(200);
    raw.write_all(&garbage).expect("garbage");
    read(&mut victim, during.len());
    match wire::read_frame(&mut sibling) {
        Ok(Frame::Error { code, message }) => {
            assert_eq!(code, ErrorCode::Malformed);
            assert!(message.contains("truncated"), "{message}");
        }
        other => panic!("expected Error{{Malformed}}, got {other:?}"),
    }
    assert!(
        wire::read_frame(&mut sibling).is_err(),
        "the sibling is closed after its terminal error"
    );

    queue(&mut victim, after);
    read(&mut victim, after.len());
    victim.goodbye().expect("close");
    drop((raw, sibling));
    let summary = handle.shutdown();
    assert_eq!(summary.poisoned, 1, "only the sibling was poisoned");
    assert_eq!(summary.decisions, samples.len() as u64 + 10);
    assert_eq!(
        served, expected,
        "the victim's stream is the in-process decision path, bit for bit"
    );
}

/// Idle reaping and graceful drain: an idle session earns
/// `Error{IdleTimeout}`, queued decisions survive a shutdown (flushed
/// before the close), and the poison accounting charges exactly the
/// reaped session.
#[test]
fn idle_reap_and_graceful_drain_account_exactly() {
    let handle = spawn(ServerConfig {
        shards: 2,
        read_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    })
    .expect("bind loopback");

    // An idle session is reaped with the typed timeout error.
    let mut idle = connect(&handle, 1);
    match idle.read() {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::IdleTimeout),
        other => panic!("expected Error{{IdleTimeout}}, got {other:?}"),
    }

    // A busy session's queued samples are all decided, and the
    // decisions are flushed to the client before the server closes
    // on shutdown.
    let mut busy = connect(&handle, 2);
    for i in 0..30 {
        busy.queue_sample(5, 100_000_000, i * 200_000, 0)
            .expect("queue");
    }
    busy.flush().expect("flush");
    // Wait until this server has computed all 30 decisions so the
    // shutdown drains delivery, not computation.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.summary().decisions < 30 {
        assert!(
            std::time::Instant::now() < deadline,
            "server never ingested the 30 samples"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let summary = handle.shutdown();
    for _ in 0..30 {
        busy.read_decision().expect("drained decision");
    }
    match busy.read() {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        Ok(other) => panic!("expected Error{{ShuttingDown}} or EOF, got {other:?}"),
        Err(_) => {} // EOF: the writer closed right after the drain
    }
    assert_eq!(
        (summary.decisions, summary.poisoned),
        (30, 1),
        "all 30 decisions drained; only the idle session was poisoned"
    );
}

/// The load generator reports identical outcomes across two
/// independent servers: same per-benchmark
/// agreement, same sample counts — serving is deterministic end to end.
#[test]
fn loadgen_reports_are_reproducible_across_servers() {
    let run_once = || {
        let handle = spawn(ServerConfig {
            shards: 2,
            read_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        })
        .expect("bind loopback");
        let report = loadgen::run(&LoadGenConfig {
            addr: handle.local_addr().to_string(),
            connections: 3,
            benchmarks: vec!["applu_in".into(), "mcf_inp".into(), "swim_in".into()],
            length: 60,
            window: 16,
            ..LoadGenConfig::default()
        })
        .expect("load generation succeeds");
        handle.shutdown();
        report
    };
    let first = run_once();
    let second = run_once();
    assert!(first.all_exact() && second.all_exact());
    let digest = |r: &loadgen::LoadReport| -> Vec<(String, u64, bool)> {
        r.outcomes
            .iter()
            .map(|o| (o.name.clone(), o.samples, o.agreement.exact()))
            .collect()
    };
    assert_eq!(digest(&first), digest(&second));
}
