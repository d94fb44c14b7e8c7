//! End-to-end tests spawning the real `livephase-cli` binary.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_livephase-cli"))
}

/// Reads the server's `listening on <addr>` announcement, skipping any
/// trace-event lines sharing stdout.
fn read_announced_addr(stdout: &mut BufReader<std::process::ChildStdout>) -> String {
    loop {
        let mut line = String::new();
        assert!(
            stdout.read_line(&mut line).expect("server announces") > 0,
            "stdout closed before the announcement"
        );
        if let Some(addr) = line.trim().strip_prefix("listening on ") {
            return addr.to_owned();
        }
    }
}

fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn help_and_no_args_print_usage() {
    let out = run_ok(&["help"]);
    assert!(out.contains("USAGE"));
    let out = run_ok(&[]);
    assert!(out.contains("USAGE"));
    let out = run_ok(&["bench", "--help"]);
    assert!(out.contains("USAGE"));
}

#[test]
fn list_prints_the_registry() {
    let out = run_ok(&["list"]);
    assert!(out.contains("applu_in"));
    assert!(out.contains("equake_in"));
    assert!(out.lines().count() >= 35);
}

#[test]
fn govern_pipeline_works_end_to_end() {
    let out = run_ok(&["govern", "applu_in", "--length", "80", "--seed", "3"]);
    assert!(out.contains("vs baseline"));
    assert!(out.contains("EDP improvement"));
}

#[test]
fn bad_input_exits_nonzero_with_message() {
    let out = cli().args(["govern", "not_a_benchmark"]).output().unwrap();
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown benchmark"), "{err}");
}

#[test]
fn export_then_replay_round_trips_through_files() {
    let dir = std::env::temp_dir().join(format!("livephase_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("t.csv");
    let csv_s = csv.to_str().unwrap();
    let out = run_ok(&["export", "mgrid_in", "--length", "30", "--out", csv_s]);
    assert!(out.contains("wrote 30 intervals"));
    let out = run_ok(&["replay", csv_s, "--policy", "reactive"]);
    assert!(out.contains("Reactive"));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn repro_verifies_a_figure() {
    let out = run_ok(&["repro", "table2"]);
    assert!(out.contains("shape claims hold"));
}

#[test]
fn serve_and_serve_bench_round_trip_over_loopback() {
    // Server on an ephemeral port, exiting after the bench's connections.
    let mut server = cli()
        .args([
            "serve",
            "--port",
            "0",
            "--shards",
            "2",
            "--exit-after-conns",
            "3",
            "--read-timeout-ms",
            "2000",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut stdout = BufReader::new(server.stdout.take().expect("piped stdout"));
    let addr = read_announced_addr(&mut stdout);

    let out = run_ok(&[
        "serve-bench",
        &addr,
        "--conns",
        "2",
        "--bench",
        "applu_in,swim_in",
        "--length",
        "60",
        "--window",
        "16",
    ]);
    assert!(out.contains("2 benchmarks over 2 connections"), "{out}");
    assert!(out.contains("samples 120"), "{out}");
    assert!(
        out.contains("2/2 benchmarks bit-exact vs in-process manager"),
        "{out}"
    );

    // Third connection: scrape the exposition the bench traffic produced.
    let scrape = run_ok(&["metrics", &addr]);
    assert!(
        scrape.contains("# TYPE serve_connections_total counter"),
        "{scrape}"
    );
    assert!(scrape.contains("serve_frame_decode_us_bucket{"), "{scrape}");
    assert!(scrape.contains("governor_decisions_total"), "{scrape}");

    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exited cleanly");
    let mut rest = String::new();
    for l in stdout.lines() {
        rest.push_str(&l.expect("utf-8"));
        rest.push('\n');
    }
    assert!(
        rest.contains("served 3 connections"),
        "summary missing: {rest}"
    );
    assert!(rest.contains("120 samples, 120 decisions"), "{rest}");
}

#[test]
fn serve_log_json_emits_json_trace_lines() {
    let mut server = cli()
        .args([
            "serve",
            "--port",
            "0",
            "--shards",
            "1",
            "--exit-after-conns",
            "1",
            "--read-timeout-ms",
            "2000",
            "--log-json",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut stdout = BufReader::new(server.stdout.take().expect("piped stdout"));
    let addr = read_announced_addr(&mut stdout);

    let scrape = run_ok(&["metrics", &addr]);
    assert!(scrape.contains("serve_connections_total"), "{scrape}");

    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exited cleanly");
    let rest: Vec<String> = stdout.lines().map(|l| l.expect("utf-8")).collect();
    assert!(
        rest.iter().any(|l| l.starts_with("{\"ts_ms\":")),
        "no JSON trace lines in {rest:?}"
    );
}

#[test]
fn metrics_json_round_trips_over_loopback() {
    let mut server = cli()
        .args([
            "serve",
            "--port",
            "0",
            "--shards",
            "1",
            "--exit-after-conns",
            "1",
            "--read-timeout-ms",
            "2000",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut stdout = BufReader::new(server.stdout.take().expect("piped stdout"));
    let addr = read_announced_addr(&mut stdout);

    let json = run_ok(&["metrics", &addr, "--json"]);
    assert!(json.trim_start().starts_with('{'), "{json}");
    assert!(json.contains("\"metrics\""), "{json}");
    assert!(json.contains("\"serve_connections_total\""), "{json}");
    assert!(json.contains("\"kind\":\"counter\""), "{json}");
    assert!(
        !json.contains("# HELP"),
        "the JSON form must not leak exposition text: {json}"
    );

    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exited cleanly");
}

#[test]
fn bench_emits_schema_stable_json_records() {
    let dir = std::env::temp_dir().join(format!("livephase_bench_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dir_s = dir.to_str().unwrap();
    let out = run_ok(&[
        "bench",
        "--areas",
        "wire_encode,telemetry_record",
        "--iters",
        "3",
        "--warmup",
        "1",
        "--json",
        "--out",
        dir_s,
        "--profile",
    ]);
    assert!(out.contains("calibration baseline"), "{out}");
    assert!(out.contains("wire_encode"), "{out}");
    assert!(out.contains("hot-path profile"), "{out}");
    for area in ["wire_encode", "telemetry_record"] {
        let path = dir.join(format!("BENCH_{area}.json"));
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
        assert!(
            json.contains("\"schema\": \"livephase-bench/v1\""),
            "{json}"
        );
        assert!(json.contains(&format!("\"area\": \"{area}\"")), "{json}");
        assert!(json.contains("\"ratio\": "), "{json}");
        assert!(json.contains("\"baseline_ns\": "), "{json}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn bench_gate_flags_an_impossible_threshold() {
    // A microscopic multiplier forces the threshold down to the absolute
    // floor; daq_measure costs milliseconds, far more than the floor, so
    // the gate must fail — unless the machine is noisy enough that the harness
    // refuses to judge, which is the documented skip path (exit 0).
    let out = cli()
        .args([
            "bench",
            "--areas",
            "daq_measure",
            "--iters",
            "2",
            "--warmup",
            "0",
            "--gate",
            "--multiplier",
            "0.000001",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    if out.status.code() == Some(0) {
        assert!(stdout.contains("bench gate: SKIP"), "{stdout}");
    } else {
        assert_eq!(out.status.code(), Some(1), "{stdout}");
        assert!(stdout.contains("bench gate: FAIL"), "{stdout}");
        assert!(stdout.contains("daq_measure:"), "{stdout}");
    }
}

#[test]
fn serve_bench_rejects_unknown_benchmarks_before_traffic() {
    let out = cli()
        .args(["serve-bench", "127.0.0.1:1", "--bench", "not_a_benchmark"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not_a_benchmark"), "{err}");
}

#[test]
fn a_reader_closing_stdout_early_is_a_clean_exit() {
    // ~110 KB of report: more than a pipe buffers, so the CLI is still
    // writing when the reader goes away (`livephase-cli tenants | head`).
    let mut child = cli()
        .args([
            "tenants",
            "--tenants",
            "1000",
            "--cores",
            "4",
            "--budget",
            "1000",
            "--length",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut head = [0u8; 16];
    std::io::Read::read_exact(&mut stdout, &mut head).expect("report starts");
    drop(stdout);
    let out = child.wait_with_output().expect("binary exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert!(!err.contains("Broken pipe"), "{err}");
    assert_eq!(out.status.code(), Some(0), "{err}");
}

/// `govern` (and `replay`, which shares its path) validates `--predictor`
/// under every policy, and refuses a non-default one where the policy
/// would not run it — a one-line error and exit 2, never a silent run of
/// something other than what was asked.
#[test]
fn govern_refuses_predictors_it_would_not_run() {
    let govern = |policy: &str, predictor: &str| {
        cli()
            .args(["govern", "applu_in", "--length", "10", "--policy", policy])
            .args(["--predictor", predictor])
            .output()
            .unwrap()
    };
    for policy in ["baseline", "reactive", "gpht", "oracle", "conservative"] {
        let out = govern(policy, "nope:1");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{policy} accepted a malformed spec"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{policy}: {err}");
        assert!(err.starts_with("error: "), "{policy}: {err}");
    }
    for policy in ["baseline", "reactive", "oracle", "conservative"] {
        let out = govern(policy, "markov");
        assert_eq!(out.status.code(), Some(2), "{policy} ignored --predictor");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("takes no --predictor"), "{policy}: {err}");
    }
    let out = govern("gpht", "markov");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Proactive(Markov1)"));
}
