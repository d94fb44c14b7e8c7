//! Serve telemetry accounting: a shard times decode, decision and encode
//! per batch, yet every histogram still counts one entry per frame or
//! decision, and an in-band scrape already counts every frame before it.
//!
//! The registry is process-global, so this binary holds a single test
//! against a one-shard server: nothing else moves the series it reads.

use livephase_serve::server::{spawn, ServerConfig};
use livephase_serve::wire::{self, Frame, PROTOCOL_VERSION};
use livephase_telemetry::catalogue as cat;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Samples streamed between the two scrapes.
const N: u64 = 300;

/// The value of the exposition line `series <value>`.
fn value(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{series} missing from the scrape:\n{text}"))
        .parse()
        .unwrap_or_else(|e| panic!("{series}: {e}"))
}

/// The series this test accounts for, read from one scrape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    decoded: u64,
    decisions: u64,
    encoded: u64,
    governor_decisions: u64,
    governor_latency: u64,
}

impl Counts {
    fn scraped(text: &str) -> Self {
        Self {
            decoded: value(text, "serve_frame_decode_us_count{shard=\"0\"}"),
            decisions: value(text, "serve_shard_decision_us_count{shard=\"0\"}"),
            encoded: value(text, "serve_frame_encode_us_count"),
            governor_decisions: value(text, "governor_decisions_total"),
            governor_latency: value(text, "governor_decision_us_count"),
        }
    }

    fn registry() -> Self {
        let reg = livephase_telemetry::global();
        Self {
            decoded: reg.histogram(&cat::SERVE_FRAME_DECODE_US, &["0"]).count(),
            decisions: reg.histogram(&cat::SERVE_SHARD_DECISION_US, &["0"]).count(),
            encoded: reg.histogram(&cat::SERVE_FRAME_ENCODE_US, &[]).count(),
            governor_decisions: reg.counter(&cat::GOVERNOR_DECISIONS_TOTAL, &[]).get(),
            governor_latency: reg.histogram(&cat::GOVERNOR_DECISION_US, &[]).count(),
        }
    }
}

/// Sends `frames` and a `MetricsRequest` in one write, and returns the
/// counts the answer carries, after reading the `expect` decisions
/// queued ahead of it.
fn scrape(stream: &mut TcpStream, mut frames: Vec<u8>, expect: u64) -> Counts {
    wire::encode_into(&Frame::MetricsRequest, &mut frames);
    stream.write_all(&frames).expect("send MetricsRequest");
    for _ in 0..expect {
        match wire::read_frame(stream).expect("read decision") {
            Frame::Decision { .. } => {}
            other => panic!("expected a decision, got {other:?}"),
        }
    }
    match wire::read_frame(stream).expect("read Metrics") {
        Frame::Metrics { text } => Counts::scraped(&text),
        other => panic!("expected Metrics, got {other:?}"),
    }
}

#[test]
fn scrapes_and_the_registry_count_every_frame_and_decision() {
    let handle = spawn(ServerConfig {
        shards: 1,
        exit_after_conns: Some(1),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            client_id: 1,
            platform: "pentium_m".to_owned(),
            predictor: "gpht:8:128".to_owned(),
        },
    )
    .unwrap();
    assert!(matches!(
        wire::read_frame(&mut stream).unwrap(),
        Frame::HelloAck { .. }
    ));

    // The first scrape counts the Hello and itself; nothing is decided.
    let first = scrape(&mut stream, Vec::new(), 0);
    assert_eq!(
        first,
        Counts {
            decoded: 2,
            decisions: 0,
            encoded: 0,
            governor_decisions: 0,
            governor_latency: 0,
        }
    );

    // N samples over 8 pids ride in one write with the second scrape, so
    // the shard decodes most of them in the request's own batch.
    let mut bytes = Vec::new();
    for i in 0..N {
        wire::encode_into(
            &Frame::Sample {
                pid: (i % 8) as u32,
                uops: 100_000_000,
                mem_trans: (i % 5) * 1_000_000,
                tsc_delta: 0,
            },
            &mut bytes,
        );
    }
    let second = scrape(&mut stream, bytes, N);
    assert_eq!(
        second,
        Counts {
            decoded: first.decoded + N + 1,
            decisions: N,
            encoded: N,
            governor_decisions: N,
            governor_latency: N,
        },
        "the scrape counts every frame before it, itself included"
    );

    wire::write_frame(&mut stream, &Frame::Goodbye).unwrap();
    drop(stream);
    let summary = handle.join();
    assert_eq!(summary.decisions, N);
    let after = Counts::registry();
    assert_eq!(
        after,
        Counts {
            decoded: second.decoded + 1,
            ..second
        },
        "the Goodbye is the only frame after the second scrape"
    );
}
