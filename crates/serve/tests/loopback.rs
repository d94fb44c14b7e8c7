//! End-to-end loopback tests: a real server on an ephemeral port, real
//! sockets, and the acceptance bar from the paper reproduction — served
//! decisions must be **bit-identical** to an in-process `Manager::run`
//! of the same counter stream. Also pins down the failure domains: a
//! malformed frame, protocol violation, version mismatch or idle timeout
//! poisons exactly one connection, never the server or another shard.

use livephase_serve::client::Client;
use livephase_serve::loadgen::{self, LoadGenConfig};
use livephase_serve::server::{spawn, ServerConfig};
use livephase_serve::wire::{self, ErrorCode, Frame, PROTOCOL_VERSION};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn test_server(read_timeout_ms: u64, max_conns: usize) -> livephase_serve::ServerHandle {
    spawn(ServerConfig {
        shards: 2,
        max_conns,
        read_timeout: Duration::from_millis(read_timeout_ms),
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

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

/// The acceptance test: benchmarks streamed through the service agree
/// bit-exactly with the in-process oracle, through the same
/// load-generator path `serve-bench` uses, under every shape of the
/// deal rule (streams = max(conns, benchmarks); stream k replays
/// benchmark k % n on connection k % conns).
#[test]
fn served_decisions_are_bit_identical_to_manager_runs() {
    let three = ["applu_in", "crafty_in", "swim_in"];
    // (connections, benchmarks, expected per-benchmark stream counts)
    type Case<'a> = (usize, &'a [&'a str], &'a [(&'a str, usize)]);
    let cases: [Case<'_>; 3] = [
        // One stream per connection.
        (
            3,
            &three,
            &[("applu_in", 1), ("crafty_in", 1), ("swim_in", 1)],
        ),
        // Fewer connections: every benchmark still runs once, two of
        // them back to back on connection 0.
        (
            2,
            &three,
            &[("applu_in", 1), ("crafty_in", 1), ("swim_in", 1)],
        ),
        // More connections: benchmarks repeat until every connection
        // carries a stream.
        (5, &three[..2], &[("applu_in", 3), ("crafty_in", 2)]),
    ];
    for (conns, benches, expected) in cases {
        let handle = test_server(5_000, 64);
        let report = loadgen::run(&LoadGenConfig {
            addr: handle.local_addr().to_string(),
            connections: conns,
            benchmarks: benches.iter().map(|b| (*b).to_owned()).collect(),
            length: 80,
            window: 16,
            ..LoadGenConfig::default()
        })
        .expect("load generation succeeds");

        let streams = conns.max(benches.len());
        assert_eq!(report.outcomes.len(), streams, "{conns} x {benches:?}");
        for (name, count) in expected {
            let seen = report.outcomes.iter().filter(|o| o.name == *name).count();
            assert_eq!(seen, *count, "{name} streams for {conns} x {benches:?}");
        }
        for outcome in &report.outcomes {
            let agreement = outcome.agreement;
            assert!(
                agreement.exact(),
                "{}: {}/{} decisions matched",
                outcome.name,
                agreement.matched,
                agreement.compared
            );
            assert_eq!(outcome.samples, 80, "one decision per sample");
        }
        assert!(report.all_exact());
        assert_eq!(report.connections, conns);
        assert_eq!(report.peak_connections, conns);
        assert_eq!(report.samples, 80 * streams as u64);
        assert!(report.samples_per_s() > 0.0);

        let summary = handle.shutdown();
        assert_eq!(summary.accepted, conns as u64);
        assert_eq!(summary.samples, 80 * streams as u64);
        assert_eq!(summary.decisions, 80 * streams as u64);
        assert_eq!(summary.poisoned, 0);
    }
}

/// A `MetricsRequest` after traffic returns valid exposition text whose
/// shard and governor counters reflect the traffic served. (The metrics
/// registry is process-global and other tests share it, so counters are
/// asserted as lower bounds, never exact.)
#[test]
fn metrics_scrape_reflects_served_traffic() {
    let handle = test_server(5_000, 64);
    let mut client = connect(&handle, 99);
    const SAMPLES: u64 = 50;
    for _ in 0..SAMPLES {
        client.queue_sample(7, 100_000_000, 1_200_000, 0).unwrap();
    }
    client.flush().unwrap();
    for _ in 0..SAMPLES {
        client.read_decision().unwrap();
    }

    let text = client.metrics().expect("metrics scrape");
    client.goodbye().unwrap();
    handle.shutdown();

    let series = |name: &str| -> u64 {
        text.lines()
            .filter(|l| l.starts_with(name) && !l.starts_with('#'))
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|v| v.parse::<u64>().ok())
            .sum()
    };
    assert!(
        text.contains("# TYPE serve_connections_total counter"),
        "exposition headers present: {text}"
    );
    assert!(series("serve_connections_total") >= 1);
    // Our 50 samples landed on this client's shard; summed over shard
    // labels the ingest and decode counters must cover them.
    assert!(series("serve_shard_samples_total") >= SAMPLES);
    assert!(series("serve_frame_decode_us_count") >= SAMPLES);
    assert!(series("serve_shard_decision_us_count") >= SAMPLES);
    assert!(series("governor_decisions_total") >= SAMPLES);
    assert!(series("governor_decision_us_count") >= SAMPLES);
    assert!(
        text.lines()
            .any(|l| l.starts_with("serve_frame_decode_us_bucket{") && l.contains("le=")),
        "per-shard frame-latency histogram buckets present"
    );
}

/// A malformed frame earns `Error{Malformed}` and poisons only that
/// connection: a concurrent well-behaved session on the same server
/// keeps streaming decisions afterwards. The malformed inputs are an
/// oversized length prefix and a v2 client's snapshot request (tag 5,
/// retired in v3).
#[test]
fn malformed_frame_poisons_only_its_connection() {
    let handle = test_server(5_000, 64);

    // Victim connects first and stays connected throughout.
    let mut good = connect(&handle, 1);

    let attacks: [(&[u8], &str); 2] = [
        (&u32::MAX.to_le_bytes(), "frame length"),
        (&[1, 0, 0, 0, 5], "unknown frame tag 5"),
    ];
    for (round, (attack, named)) in (0u64..).zip(attacks) {
        // Attacker handshakes, then writes the malformed bytes.
        let mut raw = TcpStream::connect(handle.local_addr()).expect("connect");
        raw.write_all(&wire::encode(&Frame::Hello {
            version: PROTOCOL_VERSION,
            client_id: 2 + round,
            platform: "pentium_m".into(),
            predictor: "gpht:8:128".into(),
        }))
        .expect("send hello");
        let mut attacker = std::io::BufReader::new(raw.try_clone().expect("clone"));
        match wire::read_frame(&mut attacker) {
            Ok(Frame::HelloAck { .. }) => {}
            other => panic!("expected HelloAck, got {other:?}"),
        }
        raw.write_all(attack).expect("malformed bytes");
        raw.flush().expect("flush");
        match wire::read_frame(&mut attacker) {
            Ok(Frame::Error { code, message }) => {
                assert_eq!(code, ErrorCode::Malformed);
                assert!(message.contains(named), "{message:?} names {named:?}");
            }
            other => panic!("expected Error{{Malformed}}, got {other:?}"),
        }
        // The poisoned connection is closed after the terminal error.
        assert!(
            wire::read_frame(&mut attacker).is_err(),
            "closed after error"
        );

        // The well-behaved session still gets correct service.
        for i in 0..10 {
            good.queue_sample(7, 100_000_000, i * 400_000, 0)
                .expect("queue");
        }
        good.flush().expect("flush");
        for _ in 0..10 {
            let d = good.read_decision().expect("decision after attack");
            assert!(d.op_point < 6);
        }
    }
    good.goodbye().expect("clean close");

    let summary = handle.shutdown();
    assert_eq!(summary.poisoned, 2, "only the attackers were poisoned");
    assert_eq!(summary.decisions, 20);
}

/// Version mismatch and bad predictor specs are refused with typed
/// errors at the handshake; the server keeps serving.
#[test]
fn handshake_refusals_are_typed() {
    let handle = test_server(5_000, 64);

    let err = Client::connect(
        handle.local_addr(),
        1,
        "pentium_m",
        "gpht:8:128",
        Duration::from_secs(5),
    );
    assert!(err.is_ok(), "control: a good handshake succeeds");

    // Any version but the one the server speaks, older or newer.
    for version in [1, 2, PROTOCOL_VERSION + 1] {
        let mut raw = TcpStream::connect(handle.local_addr()).expect("connect");
        raw.write_all(&wire::encode(&Frame::Hello {
            version,
            client_id: 2,
            platform: "pentium_m".into(),
            predictor: "gpht:8:128".into(),
        }))
        .expect("send");
        let mut r = std::io::BufReader::new(raw);
        match wire::read_frame(&mut r) {
            Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::VersionMismatch),
            other => panic!("v{version}: expected Error{{VersionMismatch}}, got {other:?}"),
        }
    }

    // Unparseable predictor spec.
    match Client::connect(
        handle.local_addr(),
        3,
        "pentium_m",
        "gpht:0:0",
        Duration::from_secs(5),
    ) {
        Err(livephase_serve::ClientError::Refused { code, .. }) => {
            assert_eq!(code, ErrorCode::BadConfig);
        }
        other => panic!("expected Refused(BadConfig), got {other:?}"),
    }

    // Unknown platform.
    match Client::connect(
        handle.local_addr(),
        4,
        "core_duo",
        "gpht:8:128",
        Duration::from_secs(5),
    ) {
        Err(livephase_serve::ClientError::Refused { code, .. }) => {
            assert_eq!(code, ErrorCode::BadConfig);
        }
        other => panic!("expected Refused(BadConfig), got {other:?}"),
    }

    // A sample before any Hello is a protocol violation.
    let mut raw = TcpStream::connect(handle.local_addr()).expect("connect");
    raw.write_all(&wire::encode(&Frame::Sample {
        pid: 1,
        uops: 1,
        mem_trans: 0,
        tsc_delta: 0,
    }))
    .expect("send");
    let mut r = std::io::BufReader::new(raw);
    match wire::read_frame(&mut r) {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected Error{{Protocol}}, got {other:?}"),
    }

    // Close the control connection so shutdown doesn't wait out its
    // read timeout.
    drop(err);
    let _ = handle.shutdown();
}

/// An idle connection is closed with `Error{IdleTimeout}` after the read
/// timeout, and the server survives to serve the next client.
#[test]
fn idle_connections_time_out_without_hurting_the_server() {
    let handle = test_server(100, 64);

    let mut idle = connect(&handle, 1);
    // Send nothing; the server should cut us off.
    match idle.read() {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::IdleTimeout),
        other => panic!("expected Error{{IdleTimeout}}, got {other:?}"),
    }

    // A fresh client is served normally afterwards.
    let mut fresh = connect(&handle, 2);
    fresh.queue_sample(1, 100_000_000, 0, 0).expect("queue");
    fresh.flush().expect("flush");
    let _ = fresh.read_decision().expect("decision");
    fresh.goodbye().expect("close");

    let summary = handle.shutdown();
    assert_eq!(summary.poisoned, 1);
    assert_eq!(summary.decisions, 1);
}

/// The `max_conns` accept gate refuses the surplus connection with
/// `Error{Busy}` and admits again once a slot frees.
#[test]
fn accept_gate_refuses_surplus_connections() {
    let handle = test_server(5_000, 1);

    let first = connect(&handle, 1);
    match Client::connect(
        handle.local_addr(),
        2,
        "pentium_m",
        "gpht:8:128",
        Duration::from_secs(5),
    ) {
        Err(livephase_serve::ClientError::Refused { code, .. }) => {
            assert_eq!(code, ErrorCode::Busy);
        }
        other => panic!("expected Refused(Busy), got {other:?}"),
    }
    first.goodbye().expect("free the slot");

    // The slot frees asynchronously; retry briefly.
    let mut admitted = false;
    for _ in 0..100 {
        if Client::connect(
            handle.local_addr(),
            3,
            "pentium_m",
            "gpht:8:128",
            Duration::from_secs(5),
        )
        .is_ok()
        {
            admitted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(admitted, "slot reopens after the first client leaves");

    let summary = handle.shutdown();
    assert!(summary.rejected >= 1);
}

/// Flag-based shutdown drains in-flight work: samples the server has
/// accepted still get their decisions delivered, then the client sees
/// `ShuttingDown` (or a clean close).
#[test]
fn shutdown_drains_in_flight_decisions() {
    let handle = test_server(100, 64);
    let mut client = connect(&handle, 1);
    for i in 0..50 {
        client
            .queue_sample(9, 100_000_000, i * 100_000, 0)
            .expect("queue");
    }
    client.flush().expect("flush");

    // Wait (on this server's own counters, which no other test's
    // traffic reaches) until the server has decided all 50 samples, so
    // the shutdown below races only the delivery of the decisions, not
    // their computation.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.summary().decisions < 50 {
        assert!(
            std::time::Instant::now() < deadline,
            "server never ingested the 50 samples"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let summary = handle.shutdown();
    assert_eq!(summary.decisions, 50, "every in-flight sample was decided");

    // The client can still read every decision the server drained.
    for _ in 0..50 {
        client.read_decision().expect("drained decision");
    }
    // Terminal frame (ShuttingDown) or EOF, depending on timing.
    match client.read() {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        Ok(other) => panic!("expected Error{{ShuttingDown}} or EOF, got {other:?}"),
        Err(_) => {} // EOF: the writer closed right after the drain
    }
}

/// Per-pid predictor state is kept per connection: two clients streaming
/// the same pid never share a GPHT (sessions are the isolation unit).
#[test]
fn sessions_are_isolated_across_connections() {
    let handle = test_server(5_000, 64);
    let mut a = connect(&handle, 10);
    let mut b = connect(&handle, 11);

    // a teaches pid 1 an alternation; b feeds pid 1 a constant phase.
    for _ in 0..40 {
        a.queue_sample(1, 100_000_000, 0, 0).expect("queue");
        a.queue_sample(1, 100_000_000, 4_000_000, 0).expect("queue");
        b.queue_sample(1, 100_000_000, 1_200_000, 0).expect("queue");
    }
    a.flush().expect("flush");
    b.flush().expect("flush");
    for _ in 0..80 {
        a.read_decision().expect("a decision");
    }
    let mut b_last = None;
    for _ in 0..40 {
        b_last = Some(b.read_decision().expect("b decision"));
    }
    // b's constant phase-3 stream decides setting 2 with high confidence,
    // unpolluted by a's alternating pid 1.
    let b_last = b_last.expect("b streamed");
    assert_eq!(b_last.op_point, 2);
    assert!(b_last.confidence > 9_000);

    a.goodbye().expect("close a");
    b.goodbye().expect("close b");
    let _ = handle.shutdown();
}

/// `exit_after_conns` gives scripted runs a clean, joinable exit.
#[test]
fn exit_after_conns_terminates_the_server() {
    let handle = spawn(ServerConfig {
        shards: 2,
        read_timeout: Duration::from_millis(200),
        exit_after_conns: Some(2),
        ..ServerConfig::default()
    })
    .expect("bind");

    for id in 0..2 {
        let mut c = connect(&handle, id);
        c.queue_sample(1, 100_000_000, 0, 0).expect("queue");
        c.flush().expect("flush");
        let _ = c.read_decision().expect("decision");
        c.goodbye().expect("close");
    }
    // join (not shutdown): the quota must end the server by itself.
    let summary = handle.join();
    assert_eq!(summary.accepted, 2);
    assert_eq!(summary.decisions, 2);
}
