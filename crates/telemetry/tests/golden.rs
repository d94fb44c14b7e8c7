//! Golden test pinning the exposition text format byte-for-byte.
//!
//! Scrapers (ci.sh, operators' Prometheus configs) parse this format
//! mechanically; any change to headers, label rendering, bucket lines
//! or ordering must update this expectation deliberately. The series
//! are real catalogue entries, so their `# HELP` lines are pinned too.

use livephase_telemetry::catalogue::{
    SERVE_CONNECTIONS_TOTAL, SERVE_FRAME_DECODE_US, SERVE_SHARD_SESSIONS,
};
use livephase_telemetry::Registry;

#[test]
fn exposition_format_is_pinned() {
    let r = Registry::new();
    r.counter(&SERVE_CONNECTIONS_TOTAL, &[]).add(3);
    r.gauge(&SERVE_SHARD_SESSIONS, &["0"]).set(2);
    r.gauge(&SERVE_SHARD_SESSIONS, &["1"]).set(-1);
    let h = r.histogram(&SERVE_FRAME_DECODE_US, &["0"]);
    h.record(3);
    h.record(3);
    h.record(40);
    h.record(1000);

    let expected = "\
# HELP serve_connections_total Connections admitted past the accept gate since start.
# TYPE serve_connections_total counter
serve_connections_total 3
# HELP serve_frame_decode_us Batch-amortized frame decode latency in microseconds.
# TYPE serve_frame_decode_us histogram
serve_frame_decode_us_bucket{shard=\"0\",le=\"3\"} 2
serve_frame_decode_us_bucket{shard=\"0\",le=\"40\"} 3
serve_frame_decode_us_bucket{shard=\"0\",le=\"1007\"} 4
serve_frame_decode_us_bucket{shard=\"0\",le=\"+Inf\"} 4
serve_frame_decode_us_sum{shard=\"0\"} 1046
serve_frame_decode_us_count{shard=\"0\"} 4
serve_frame_decode_us_overflow{shard=\"0\"} 0
# HELP serve_shard_sessions Sessions whose predictor state this shard owns.
# TYPE serve_shard_sessions gauge
serve_shard_sessions{shard=\"0\"} 2
serve_shard_sessions{shard=\"1\"} -1
";
    assert_eq!(r.render(), expected);
}
