//! Command-line parsing (hand-rolled; the sanctioned dependency set has no
//! argument parser, and the surface is small enough not to want one).

use std::error::Error;
use std::fmt;

/// A user-facing command-line error.
///
/// Carries the process exit code: `2` (the default) for usage, I/O, and
/// other operational failures, printed to stderr; `1` for a *gate*
/// failure — a check that ran to completion and found violations (e.g.
/// `lint` findings) — whose message is the report itself and belongs on
/// stdout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    message: String,
    code: i32,
}

impl CliError {
    /// Creates an operational error (exit code 2).
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 2,
        }
    }

    /// Creates a gate failure (exit code 1) whose message is a report
    /// destined for stdout.
    #[must_use]
    pub fn gate(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 1,
        }
    }

    /// The user-facing message.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The process exit code this error maps to.
    #[must_use]
    pub fn code(&self) -> i32 {
        self.code
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for CliError {}

/// The recognized subcommands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `list`
    List,
    /// `characterize <bench>`
    Characterize,
    /// `predict <bench>`
    Predict,
    /// `govern <bench>`
    Govern,
    /// `export <bench> --out <file>`
    Export,
    /// `replay <file.csv>`
    Replay,
    /// `repro <artifact>` — one artifact, `ablations`, `extensions` or `all`
    Repro,
    /// `serve` — run the phase-prediction TCP daemon
    Serve,
    /// `tenants` — run a multi-tenant cluster scenario under a power cap
    Tenants,
    /// `serve-bench <addr>` — load-test a running daemon
    ServeBench,
    /// `metrics <addr>` — scrape a running daemon's telemetry exposition
    Metrics,
    /// `lint` — run the workspace invariant linter
    Lint,
    /// `bench` — run the calibrated in-process benchmark harness
    Bench,
    /// `power-zoo` — train, validate, and race the power-model backends
    PowerZoo,
    /// `help` / `--help`
    Help,
}

/// A fully parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// The subcommand.
    pub command: Command,
    /// The positional argument (benchmark name, file, or artifact).
    pub target: Option<String>,
    /// `--seed` (default 42, the experiments' default).
    pub seed: u64,
    /// `--length` override, if given.
    pub length: Option<usize>,
    /// `--predictor` specification (default `gpht:8:128`).
    pub predictor: String,
    /// `--policy` name (default `gpht`).
    pub policy: String,
    /// `--out` path for `export`.
    pub out: Option<String>,
    /// `--port` for `serve` (0 picks an ephemeral port).
    pub port: u16,
    /// `--shards` worker threads for `serve`.
    pub shards: usize,
    /// `--max-conns` accept gate for `serve`.
    pub max_conns: usize,
    /// `--exit-after-conns`: stop `serve` after this many connections
    /// have been admitted and drained.
    pub exit_after_conns: Option<u64>,
    /// `--read-timeout-ms` socket timeout for `serve` and `serve-bench`.
    pub read_timeout_ms: u64,
    /// `--conns` concurrent connections for `serve-bench`.
    pub conns: usize,
    /// `--window` pipeline depth for `serve-bench`.
    pub window: usize,
    /// `--bench` comma-separated benchmark subset for `serve-bench`
    /// (empty = all).
    pub bench: Vec<String>,
    /// `--no-check`: skip the in-process oracle agreement pass in
    /// `serve-bench`.
    pub no_check: bool,
    /// `--max-outbound` per-connection outbound queue cap in bytes for
    /// `serve`; a slow consumer exceeding it is shed.
    pub max_outbound_bytes: usize,
    /// `--sndbuf` socket send-buffer size in bytes for `serve`, if
    /// given; small values surface backpressure early in tests.
    pub sndbuf: Option<usize>,
    /// `--tenants` VM count for the `tenants` scenario.
    pub tenants: usize,
    /// `--cores` simulated core count for the `tenants` scenario.
    pub cores: usize,
    /// `--budget` cluster power budget in watts for `tenants`, if given
    /// (the scenario default applies otherwise).
    pub budget_w: Option<f64>,
    /// `--quantum` per-tenant scheduling credit in uops for `tenants`,
    /// if given.
    pub quantum_uops: Option<u64>,
    /// `--noisy` noisy-neighbor tenant count for `tenants`.
    pub noisy: usize,
    /// `--mix` comma-separated benchmark mix for `tenants` (empty =
    /// the scenario's default mix).
    pub mix: Vec<String>,
    /// `--arbiter` power-cap arbitration policy for `tenants`
    /// (`waterfill` or `priority`).
    pub arbiter: String,
    /// `--metrics`: append the telemetry exposition to `tenants` output.
    pub metrics: bool,
    /// `--log-json`: emit `serve` trace events as JSON lines instead of
    /// the human-readable form.
    pub log_json: bool,
    /// `--json`: emit the `lint` report as machine-readable JSON, the
    /// `metrics` scrape as structured JSON, or (for `bench`) write one
    /// `BENCH_<area>.json` record per area.
    pub json: bool,
    /// `--areas` comma-separated bench-area subset (empty = all).
    pub areas: Vec<String>,
    /// `--iters` timed iterations per bench area.
    pub iters: usize,
    /// `--warmup` untimed iterations per bench area.
    pub warmup: usize,
    /// `--profile`: append the `timed_span!` hot-path table to `bench`
    /// output.
    pub profile: bool,
    /// `--gate`: make `bench` judge its records against the calibrated
    /// thresholds (exit 1 on findings, loud skip on a noisy machine).
    pub gate: bool,
    /// `--multiplier` gate headroom override for `bench --gate`
    /// (default 5.0; ci.sh passes 2.0 under `LIVEPHASE_BENCH_STRICT`).
    pub multiplier: Option<f64>,
    /// `--power-model` backend (`analytic` | `linear` | `tree`) for
    /// `repro`, `serve`, `tenants`, and `power-zoo`; learned backends
    /// are trained deterministically from the committed training set.
    pub power_model: String,
    /// `--compare <dir-a> <dir-b>` for `bench`: diff two directories of
    /// `BENCH_*.json` records instead of running the harness.
    pub compare: Option<(String, String)>,
    /// `--baseline <file>` for `lint`: a committed `lint --json` report;
    /// findings it records are reported but do not gate.
    pub baseline: Option<String>,
}

impl Default for Parsed {
    fn default() -> Self {
        Self {
            command: Command::Help,
            target: None,
            seed: 42,
            length: None,
            predictor: crate::spec::DEFAULT_PREDICTOR.to_owned(),
            policy: "gpht".to_owned(),
            out: None,
            port: 0,
            shards: 4,
            max_conns: 256,
            exit_after_conns: None,
            read_timeout_ms: 5_000,
            conns: 8,
            window: 64,
            bench: Vec::new(),
            no_check: false,
            max_outbound_bytes: 256 * 1024,
            sndbuf: None,
            tenants: 8,
            cores: 2,
            budget_w: None,
            quantum_uops: None,
            noisy: 0,
            mix: Vec::new(),
            arbiter: "waterfill".to_owned(),
            metrics: false,
            log_json: false,
            json: false,
            areas: Vec::new(),
            iters: 30,
            warmup: 3,
            profile: false,
            gate: false,
            multiplier: None,
            power_model: "analytic".to_owned(),
            compare: None,
            baseline: None,
        }
    }
}

/// Parses a command line (excluding `argv[0]`).
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands/options, missing values,
/// or unparsable numbers.
pub fn parse(argv: &[String]) -> Result<Parsed, CliError> {
    let mut parsed = Parsed::default();
    let mut it = argv.iter().peekable();

    let Some(cmd) = it.next() else {
        return Ok(parsed); // no args -> help
    };
    parsed.command = match cmd.as_str() {
        "list" => Command::List,
        "characterize" => Command::Characterize,
        "predict" => Command::Predict,
        "govern" => Command::Govern,
        "export" => Command::Export,
        "replay" => Command::Replay,
        "repro" => Command::Repro,
        "serve" => Command::Serve,
        "tenants" => Command::Tenants,
        "serve-bench" => Command::ServeBench,
        "metrics" => Command::Metrics,
        "lint" => Command::Lint,
        "bench" => Command::Bench,
        "power-zoo" => Command::PowerZoo,
        "help" | "--help" | "-h" => Command::Help,
        other => {
            return Err(CliError::new(format!(
                "unknown command {other:?}; run `livephase help`"
            )))
        }
    };

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                parsed.seed = take_value(&mut it, "--seed")?
                    .parse()
                    .map_err(|e| CliError::new(format!("--seed: {e}")))?
            }
            "--length" => {
                let v: usize = take_value(&mut it, "--length")?
                    .parse()
                    .map_err(|e| CliError::new(format!("--length: {e}")))?;
                if v == 0 {
                    return Err(CliError::new("--length must be at least 1"));
                }
                parsed.length = Some(v);
            }
            "--predictor" => parsed.predictor = take_value(&mut it, "--predictor")?,
            "--policy" => parsed.policy = take_value(&mut it, "--policy")?,
            "--out" => parsed.out = Some(take_value(&mut it, "--out")?),
            "--port" => parsed.port = parse_num(&mut it, "--port")?,
            "--shards" => {
                parsed.shards = parse_num(&mut it, "--shards")?;
                if parsed.shards == 0 {
                    return Err(CliError::new("--shards must be at least 1"));
                }
            }
            "--max-conns" => {
                parsed.max_conns = parse_num(&mut it, "--max-conns")?;
                if parsed.max_conns == 0 {
                    return Err(CliError::new("--max-conns must be at least 1"));
                }
            }
            "--exit-after-conns" => {
                parsed.exit_after_conns = Some(parse_num(&mut it, "--exit-after-conns")?);
            }
            "--read-timeout-ms" => {
                parsed.read_timeout_ms = parse_num(&mut it, "--read-timeout-ms")?;
                if parsed.read_timeout_ms == 0 {
                    return Err(CliError::new("--read-timeout-ms must be at least 1"));
                }
            }
            "--conns" => {
                parsed.conns = parse_num(&mut it, "--conns")?;
                if parsed.conns == 0 {
                    return Err(CliError::new("--conns must be at least 1"));
                }
            }
            "--window" => {
                parsed.window = parse_num(&mut it, "--window")?;
                if parsed.window == 0 {
                    return Err(CliError::new("--window must be at least 1"));
                }
            }
            "--bench" => {
                parsed.bench = take_value(&mut it, "--bench")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            "--no-check" => parsed.no_check = true,
            "--tenants" => {
                parsed.tenants = parse_num(&mut it, "--tenants")?;
                if parsed.tenants == 0 {
                    return Err(CliError::new("--tenants must be at least 1"));
                }
            }
            "--cores" => {
                parsed.cores = parse_num(&mut it, "--cores")?;
                if parsed.cores == 0 {
                    return Err(CliError::new("--cores must be at least 1"));
                }
            }
            "--budget" => {
                let v: f64 = parse_num(&mut it, "--budget")?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(CliError::new("--budget must be a positive number of watts"));
                }
                parsed.budget_w = Some(v);
            }
            "--quantum" => {
                let v: u64 = parse_num(&mut it, "--quantum")?;
                if v == 0 {
                    return Err(CliError::new("--quantum must be at least 1 uop"));
                }
                parsed.quantum_uops = Some(v);
            }
            "--noisy" => parsed.noisy = parse_num(&mut it, "--noisy")?,
            "--mix" => {
                parsed.mix = take_value(&mut it, "--mix")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            "--arbiter" => parsed.arbiter = take_value(&mut it, "--arbiter")?,
            "--metrics" => parsed.metrics = true,
            "--max-outbound" => {
                parsed.max_outbound_bytes = parse_num(&mut it, "--max-outbound")?;
                if parsed.max_outbound_bytes == 0 {
                    return Err(CliError::new("--max-outbound must be at least 1"));
                }
            }
            "--sndbuf" => {
                let v: usize = parse_num(&mut it, "--sndbuf")?;
                if v == 0 {
                    return Err(CliError::new("--sndbuf must be at least 1"));
                }
                parsed.sndbuf = Some(v);
            }
            "--log-json" => parsed.log_json = true,
            "--json" => parsed.json = true,
            "--areas" => {
                parsed.areas = take_value(&mut it, "--areas")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            "--iters" => {
                parsed.iters = parse_num(&mut it, "--iters")?;
                if parsed.iters == 0 {
                    return Err(CliError::new("--iters must be at least 1"));
                }
            }
            "--warmup" => parsed.warmup = parse_num(&mut it, "--warmup")?,
            "--profile" => parsed.profile = true,
            "--gate" => parsed.gate = true,
            "--multiplier" => {
                let v: f64 = parse_num(&mut it, "--multiplier")?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(CliError::new("--multiplier must be a positive number"));
                }
                parsed.multiplier = Some(v);
            }
            "--power-model" => {
                let v = take_value(&mut it, "--power-model")?;
                if !matches!(v.as_str(), "analytic" | "linear" | "tree") {
                    return Err(CliError::new(format!(
                        "--power-model must be analytic, linear, or tree; got {v:?}"
                    )));
                }
                parsed.power_model = v;
            }
            "--baseline" => parsed.baseline = Some(take_value(&mut it, "--baseline")?),
            "--compare" => {
                let a = take_value(&mut it, "--compare")?;
                let b = it.next().cloned().ok_or_else(|| {
                    CliError::new("--compare requires two directories: <dir-a> <dir-b>")
                })?;
                if a.starts_with('-') || b.starts_with('-') {
                    return Err(CliError::new(
                        "--compare requires two directories: <dir-a> <dir-b>",
                    ));
                }
                parsed.compare = Some((a, b));
            }
            other if other.starts_with('-') => {
                return Err(CliError::new(format!("unknown option {other:?}")))
            }
            positional => {
                if parsed.target.is_some() {
                    return Err(CliError::new(format!(
                        "unexpected extra argument {positional:?}"
                    )));
                }
                parsed.target = Some(positional.to_owned());
            }
        }
    }

    // Per-command positional requirements.
    let needs_target = matches!(
        parsed.command,
        Command::Characterize
            | Command::Predict
            | Command::Govern
            | Command::Export
            | Command::Replay
            | Command::Repro
            | Command::ServeBench
            | Command::Metrics
    );
    if needs_target && parsed.target.is_none() {
        return Err(CliError::new(format!(
            "{cmd} requires an argument; run `livephase help`"
        )));
    }
    if parsed.command == Command::Export && parsed.out.is_none() {
        return Err(CliError::new("export requires --out <file>"));
    }
    if parsed.command == Command::Lint && parsed.target.is_some() {
        return Err(CliError::new(
            "lint takes no argument; it scans the enclosing workspace",
        ));
    }
    if parsed.command == Command::Bench && parsed.target.is_some() {
        return Err(CliError::new(
            "bench takes no argument; use --areas to select a subset",
        ));
    }
    if parsed.command == Command::PowerZoo && parsed.target.is_some() {
        return Err(CliError::new(
            "power-zoo takes no argument; use --seed to vary the run",
        ));
    }
    if parsed.compare.is_some() && parsed.command != Command::Bench {
        return Err(CliError::new("--compare only applies to bench"));
    }
    if parsed.baseline.is_some() && parsed.command != Command::Lint {
        return Err(CliError::new("--baseline only applies to lint"));
    }
    Ok(parsed)
}

fn take_value(
    it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
    flag: &str,
) -> Result<String, CliError> {
    it.next()
        .cloned()
        .ok_or_else(|| CliError::new(format!("{flag} requires a value")))
}

fn parse_num<T: std::str::FromStr>(
    it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
    flag: &str,
) -> Result<T, CliError>
where
    T::Err: fmt::Display,
{
    take_value(it, flag)?
        .parse()
        .map_err(|e| CliError::new(format!("{flag}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command() {
        let p = parse(&argv(
            "predict applu_in --seed 7 --length 100 --predictor gpht:4:64",
        ))
        .unwrap();
        assert_eq!(p.command, Command::Predict);
        assert_eq!(p.target.as_deref(), Some("applu_in"));
        assert_eq!(p.seed, 7);
        assert_eq!(p.length, Some(100));
        assert_eq!(p.predictor, "gpht:4:64");
    }

    #[test]
    fn defaults_apply() {
        let p = parse(&argv("govern swim_in")).unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.policy, "gpht");
        assert_eq!(p.length, None);
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap().command, Command::Help);
    }

    #[test]
    fn rejects_unknown_command_and_option() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("list --frobnicate")).is_err());
    }

    #[test]
    fn rejects_missing_requirements() {
        assert!(parse(&argv("predict")).is_err());
        assert!(parse(&argv("export applu_in")).is_err());
        assert!(parse(&argv("predict a b")).is_err());
        assert!(parse(&argv("predict applu_in --seed")).is_err());
        assert!(parse(&argv("predict applu_in --seed banana")).is_err());
        assert!(parse(&argv("predict applu_in --length 0")).is_err());
    }

    #[test]
    fn parses_serve_flags() {
        let p = parse(&argv(
            "serve --port 9626 --shards 2 --max-conns 16 --exit-after-conns 3 --read-timeout-ms 250",
        ))
        .unwrap();
        assert_eq!(p.command, Command::Serve);
        assert_eq!(p.port, 9626);
        assert_eq!(p.shards, 2);
        assert_eq!(p.max_conns, 16);
        assert_eq!(p.exit_after_conns, Some(3));
        assert_eq!(p.read_timeout_ms, 250);
        // Defaults when flags are absent.
        let p = parse(&argv("serve")).unwrap();
        assert_eq!(p.port, 0);
        assert_eq!(p.shards, 4);
        assert_eq!(p.exit_after_conns, None);
    }

    #[test]
    fn parses_serve_bench() {
        let p = parse(&argv(
            "serve-bench 127.0.0.1:9626 --conns 4 --window 32 --bench applu_in,swim_in --no-check",
        ))
        .unwrap();
        assert_eq!(p.command, Command::ServeBench);
        assert_eq!(p.target.as_deref(), Some("127.0.0.1:9626"));
        assert_eq!(p.conns, 4);
        assert_eq!(p.window, 32);
        assert_eq!(p.bench, vec!["applu_in".to_owned(), "swim_in".to_owned()]);
        assert!(p.no_check);
    }

    #[test]
    fn parses_serve_log_json_and_metrics() {
        let p = parse(&argv("serve --log-json")).unwrap();
        assert!(p.log_json);
        assert!(!parse(&argv("serve")).unwrap().log_json);
        let p = parse(&argv("metrics 127.0.0.1:9626")).unwrap();
        assert_eq!(p.command, Command::Metrics);
        assert_eq!(p.target.as_deref(), Some("127.0.0.1:9626"));
        assert!(parse(&argv("metrics")).is_err(), "address is required");
    }

    #[test]
    fn rejects_bad_serve_arguments() {
        assert!(parse(&argv("serve-bench")).is_err(), "address is required");
        assert!(parse(&argv("serve --shards 0")).is_err());
        assert!(parse(&argv("serve --max-conns 0")).is_err());
        assert!(parse(&argv("serve --port 70000")).is_err());
        assert!(parse(&argv("serve-bench 1.2.3.4:5 --conns 0")).is_err());
        assert!(parse(&argv("serve-bench 1.2.3.4:5 --window 0")).is_err());
        assert!(parse(&argv("serve --read-timeout-ms 0")).is_err());
        assert!(parse(&argv("serve --max-outbound 0")).is_err());
        assert!(parse(&argv("serve --sndbuf 0")).is_err());
    }

    #[test]
    fn parses_serve_mode_flags() {
        let p = parse(&argv("serve")).unwrap();
        assert_eq!(p.max_outbound_bytes, 256 * 1024);
        assert_eq!(p.sndbuf, None);
        let p = parse(&argv("serve --max-outbound 65536 --sndbuf 8192")).unwrap();
        assert_eq!(p.max_outbound_bytes, 65_536);
        assert_eq!(p.sndbuf, Some(8_192));
        let p = parse(&argv("serve-bench 127.0.0.1:9626 --conns 5000")).unwrap();
        assert_eq!(p.conns, 5000);
        assert!(
            parse(&argv("serve-bench 127.0.0.1:9626 --reactor")).is_err(),
            "the one load generator needs no mode flag"
        );
        assert!(
            parse(&argv("serve --blocking")).is_err(),
            "the removed blocking engine is no longer a flag"
        );
    }

    #[test]
    fn parses_tenants() {
        let p = parse(&argv(
            "tenants --tenants 64 --cores 8 --budget 75 --noisy 8 --length 4 \
             --quantum 7000000 --arbiter priority --mix applu_in,mcf_inp --metrics",
        ))
        .unwrap();
        assert_eq!(p.command, Command::Tenants);
        assert_eq!(p.tenants, 64);
        assert_eq!(p.cores, 8);
        assert_eq!(p.budget_w, Some(75.0));
        assert_eq!(p.noisy, 8);
        assert_eq!(p.length, Some(4));
        assert_eq!(p.quantum_uops, Some(7_000_000));
        assert_eq!(p.arbiter, "priority");
        assert_eq!(p.mix, vec!["applu_in".to_owned(), "mcf_inp".to_owned()]);
        assert!(p.metrics);
        // Defaults when flags are absent.
        let p = parse(&argv("tenants")).unwrap();
        assert_eq!(p.tenants, 8);
        assert_eq!(p.cores, 2);
        assert_eq!(p.budget_w, None);
        assert_eq!(p.arbiter, "waterfill");
        assert!(p.mix.is_empty() && !p.metrics);
        // Degenerate values are rejected at parse time.
        assert!(parse(&argv("tenants --tenants 0")).is_err());
        assert!(parse(&argv("tenants --cores 0")).is_err());
        assert!(parse(&argv("tenants --budget 0")).is_err());
        assert!(parse(&argv("tenants --budget nan")).is_err());
        assert!(parse(&argv("tenants --quantum 0")).is_err());
    }

    #[test]
    fn error_messages_are_nonempty() {
        let e = parse(&argv("frobnicate")).unwrap_err();
        assert!(!e.to_string().is_empty());
        assert!(e.message().contains("frobnicate"));
        assert_eq!(e.code(), 2, "usage errors exit 2");
        assert_eq!(CliError::gate("report").code(), 1, "gate failures exit 1");
    }

    #[test]
    fn parses_bench() {
        let p = parse(&argv("bench")).unwrap();
        assert_eq!(p.command, Command::Bench);
        assert!(p.areas.is_empty());
        assert_eq!(p.iters, 30);
        assert_eq!(p.warmup, 3);
        assert!(!p.json && !p.profile && !p.gate);
        assert_eq!(p.multiplier, None);
        let p = parse(&argv(
            "bench --areas wire_encode,engine_step --iters 10 --warmup 1 \
             --json --profile --gate --multiplier 2 --out results",
        ))
        .unwrap();
        assert_eq!(
            p.areas,
            vec!["wire_encode".to_owned(), "engine_step".to_owned()]
        );
        assert_eq!(p.iters, 10);
        assert_eq!(p.warmup, 1);
        assert!(p.json && p.profile && p.gate);
        assert_eq!(p.multiplier, Some(2.0));
        assert_eq!(p.out.as_deref(), Some("results"));
        assert!(
            parse(&argv("bench extra")).is_err(),
            "bench takes no target"
        );
        assert!(parse(&argv("bench --iters 0")).is_err());
        assert!(parse(&argv("bench --multiplier 0")).is_err());
        assert!(parse(&argv("bench --multiplier nan")).is_err());
    }

    #[test]
    fn parses_power_model_flag() {
        let p = parse(&argv("repro power_cap --power-model linear")).unwrap();
        assert_eq!(p.power_model, "linear");
        assert_eq!(parse(&argv("tenants")).unwrap().power_model, "analytic");
        let p = parse(&argv("power-zoo --seed 7 --power-model tree")).unwrap();
        assert_eq!(p.command, Command::PowerZoo);
        assert_eq!(p.seed, 7);
        assert_eq!(p.power_model, "tree");
        assert!(parse(&argv("serve --power-model perceptron")).is_err());
        assert!(parse(&argv("power-zoo extra")).is_err());
    }

    #[test]
    fn parses_bench_compare() {
        let p = parse(&argv("bench --compare results/a results/b")).unwrap();
        assert_eq!(
            p.compare,
            Some(("results/a".to_owned(), "results/b".to_owned()))
        );
        assert!(parse(&argv("bench --compare results/a")).is_err());
        assert!(parse(&argv("bench --compare results/a --json")).is_err());
        assert!(
            parse(&argv("lint --compare a b")).is_err(),
            "--compare is bench-only"
        );
    }

    #[test]
    fn parses_lint() {
        let p = parse(&argv("lint")).unwrap();
        assert_eq!(p.command, Command::Lint);
        assert!(!p.json);
        let p = parse(&argv("lint --json")).unwrap();
        assert!(p.json);
        assert!(parse(&argv("lint extra")).is_err(), "lint takes no target");
    }

    #[test]
    fn parses_lint_baseline() {
        let p = parse(&argv("lint --json --baseline results/lint/baseline.json")).unwrap();
        assert_eq!(p.baseline.as_deref(), Some("results/lint/baseline.json"));
        assert_eq!(parse(&argv("lint")).unwrap().baseline, None);
        assert!(parse(&argv("lint --baseline")).is_err(), "value required");
        assert!(
            parse(&argv("bench --baseline x.json")).is_err(),
            "--baseline is lint-only"
        );
    }
}
