//! Command-line parsing, declared once. [`COMMANDS`] and [`FLAGS`] are
//! the whole surface: [`parse`] looks every word up in them and
//! [`crate::usage`] renders them, so a flag the parser accepts is
//! documented by construction. (Hand-rolled: the sanctioned dependency
//! set has no argument parser, and the surface is small enough not to
//! want one.)

use std::error::Error;
use std::fmt;

use Positional::{Refused, Required};
use Takes::{Pair, Switch, Value};

/// A user-facing command-line error.
///
/// Carries the process exit code: `2` (the default) for usage, I/O, and
/// other operational failures, printed to stderr; `1` for a *gate*
/// failure — a check that ran to completion and found violations (e.g.
/// `repro` shape violations) — whose message is the report itself and belongs on
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// `bench` — run the calibrated in-process benchmark harness
    Bench,
    /// `power-zoo` — train, validate, and race the power-model backends
    PowerZoo,
    /// `help` / `--help`
    Help,
}

/// A fully parsed command line. Each option field is set by the
/// [`FLAGS`] entry of the same name, which also documents it.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// The subcommand.
    pub command: Command,
    /// The positional argument (benchmark name, file, artifact or address).
    pub target: Option<String>,
    /// `--seed` (default 42, the experiments' default).
    pub seed: u64,
    /// `--length`, if given.
    pub length: Option<usize>,
    /// `--predictor` (default `gpht:8:128`).
    pub predictor: String,
    /// `--policy` (default `gpht`).
    pub policy: String,
    /// `--out`: the `export` file or the `bench --json` directory.
    pub out: Option<String>,
    /// `--port` for `serve` (0 picks an ephemeral port).
    pub port: u16,
    /// `--shards` for `serve`.
    pub shards: usize,
    /// `--max-conns` for `serve`.
    pub max_conns: usize,
    /// `--exit-after-conns` for `serve`, if given.
    pub exit_after_conns: Option<u64>,
    /// `--read-timeout-ms` for `serve` and `serve-bench`.
    pub read_timeout_ms: u64,
    /// `--conns` for `serve-bench`.
    pub conns: usize,
    /// `--window` for `serve-bench`.
    pub window: usize,
    /// `--bench` subset for `serve-bench` (empty = all).
    pub bench: Vec<String>,
    /// `--no-check` for `serve-bench`.
    pub no_check: bool,
    /// `--max-outbound` for `serve`, in bytes.
    pub max_outbound_bytes: usize,
    /// `--sndbuf` for `serve`, in bytes, if given.
    pub sndbuf: Option<usize>,
    /// `--tenants` for `tenants`.
    pub tenants: usize,
    /// `--cores` for `tenants`.
    pub cores: usize,
    /// `--budget` for `tenants`, in watts, if given.
    pub budget_w: Option<f64>,
    /// `--quantum` for `tenants`, in uops, if given.
    pub quantum_uops: Option<u64>,
    /// `--noisy` for `tenants`.
    pub noisy: usize,
    /// `--mix` for `tenants` (empty = the scenario's default mix).
    pub mix: Vec<String>,
    /// `--arbiter` for `tenants` (`waterfill` or `priority`).
    pub arbiter: String,
    /// `--metrics` for `tenants`.
    pub metrics: bool,
    /// `--log-json` for `serve`.
    pub log_json: bool,
    /// `--json` for `metrics` and `bench`.
    pub json: bool,
    /// `--areas` for `bench` (empty = all).
    pub areas: Vec<String>,
    /// `--iters` for `bench`.
    pub iters: usize,
    /// `--warmup` for `bench`.
    pub warmup: usize,
    /// `--profile` for `bench`.
    pub profile: bool,
    /// `--gate` for `bench`.
    pub gate: bool,
    /// `--multiplier` for `bench --gate`, if given (default 5.0).
    pub multiplier: Option<f64>,
    /// `--power-model` (`analytic` | `linear` | `tree`).
    pub power_model: String,
    /// `--compare <dir-a> <dir-b>` for `bench`.
    pub compare: Option<(String, String)>,
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
        }
    }
}

/// What a command takes after its name.
#[derive(Debug, Clone, Copy)]
pub enum Positional {
    /// One required argument, named by its metavar (`<bench>`).
    Required(&'static str),
    /// None. The hint ends the error when one is given: `bench takes no
    /// argument; use --areas to select a subset`.
    Refused(&'static str),
}

/// One subcommand: its name, what it parses to, its positional, and
/// its usage line (`\n` continues the line).
#[derive(Debug)]
pub struct CommandSpec {
    /// The name on the command line.
    pub name: &'static str,
    /// What it dispatches to.
    pub command: Command,
    /// Its positional argument.
    pub positional: Positional,
    /// Its usage line.
    pub help: &'static str,
}

impl CommandSpec {
    /// The command as `usage()` shows it: `export <bench>`.
    #[must_use]
    pub(crate) fn syntax(&self) -> String {
        match self.positional {
            Positional::Required(metavar) => format!("{} {metavar}", self.name),
            Positional::Refused(_) => self.name.to_owned(),
        }
    }
}

/// Sets a flag's value in [`Parsed`]. An error is the message's tail
/// after the flag name: `": invalid digit found in string"`,
/// `" must be at least 1"`.
pub type SetValue = fn(&mut Parsed, &str) -> Result<(), String>;

/// What a flag takes after its name, and how it lands in [`Parsed`].
#[derive(Debug, Clone, Copy)]
pub enum Takes {
    /// Nothing: a switch.
    Switch(fn(&mut Parsed)),
    /// One value, named by its metavar (`<n>`).
    Value(&'static str, SetValue),
    /// Two values (`--compare <a> <b>`); the second is `None` when the
    /// command line ends after the first.
    Pair(
        &'static str,
        fn(&mut Parsed, &str, Option<&str>) -> Result<(), String>,
    ),
}

// The `usage()` sections, in order: `FLAGS` lists each section's
// flags together.
const OPTIONS: &str = "OPTIONS";
const SERVE: &str = "SERVE OPTIONS";
const SERVE_BENCH: &str = "SERVE-BENCH OPTIONS";
const TENANTS: &str = "TENANTS OPTIONS";
const BENCH: &str = "BENCH OPTIONS";

/// One `--flag`: its name, what it takes, its `usage()` section, and its
/// help text (`\n` continues the line).
#[derive(Debug)]
pub struct Flag {
    /// The flag as typed, `--seed`.
    pub name: &'static str,
    /// Its value(s) and setter.
    pub takes: Takes,
    /// The `usage()` section that lists it.
    pub section: &'static str,
    /// Its help text.
    pub help: &'static str,
}

impl Flag {
    /// The flag as `usage()` shows it: `--seed <n>`.
    #[must_use]
    pub(crate) fn syntax(&self) -> String {
        match self.takes {
            Takes::Switch(_) => self.name.to_owned(),
            Takes::Value(metavar, _) | Takes::Pair(metavar, _) => {
                format!("{} {metavar}", self.name)
            }
        }
    }
}

/// Spellings of `help` that are not its name.
const HELP_ALIASES: [&str; 2] = ["--help", "-h"];

/// Every subcommand, in `usage()` order.
#[rustfmt::skip]
pub static COMMANDS: &[CommandSpec] = &[
    CommandSpec { name: "list", command: Command::List,
        positional: Refused("it lists every built-in benchmark"),
        help: "list the built-in benchmarks" },
    CommandSpec { name: "characterize", command: Command::Characterize,
        positional: Required("<bench>"),
        help: "stability / savings statistics" },
    CommandSpec { name: "predict", command: Command::Predict,
        positional: Required("<bench>"),
        help: "run a phase predictor, report accuracy" },
    CommandSpec { name: "govern", command: Command::Govern,
        positional: Required("<bench>"),
        help: "run DVFS management, report EDP" },
    CommandSpec { name: "export", command: Command::Export,
        positional: Required("<bench>"),
        help: "write the trace as CSV to --out <path>" },
    CommandSpec { name: "replay", command: Command::Replay,
        positional: Required("<file.csv>"),
        help: "govern a replayed counter log" },
    CommandSpec { name: "repro", command: Command::Repro,
        positional: Required("<artifact>"),
        help: "regenerate a paper table/figure, ablation\n\
               or extension; `ablations`/`extensions` run\n\
               each group, `all` the paper and rewrites\n\
               EXPERIMENTS.md + results/*.csv\n\
               (exit 0 claims hold, 1 violations)" },
    CommandSpec { name: "tenants", command: Command::Tenants,
        positional: Refused("use --mix to choose the benchmarks"),
        help: "run a multi-tenant cluster under a power cap" },
    CommandSpec { name: "serve", command: Command::Serve,
        positional: Refused("use --port to choose where it listens"),
        help: "run the phase-prediction TCP daemon" },
    CommandSpec { name: "serve-bench", command: Command::ServeBench,
        positional: Required("<addr>"),
        help: "load-test a running daemon" },
    CommandSpec { name: "metrics", command: Command::Metrics,
        positional: Required("<addr>"),
        help: "scrape a running daemon's telemetry" },
    CommandSpec { name: "bench", command: Command::Bench,
        positional: Refused("use --areas to select a subset"),
        help: "run the calibrated benchmark harness" },
    CommandSpec { name: "power-zoo", command: Command::PowerZoo,
        positional: Refused("use --seed to vary the run"),
        help: "train/validate the power-model zoo and\n\
               race the backends under a power cap\n\
               (exit 0 gates hold, 1 violations)" },
    CommandSpec { name: "help", command: Command::Help,
        positional: Refused("it prints every command and option"),
        help: "print this text (also --help, -h)" },
];

/// Every `--flag`, grouped by section.
#[rustfmt::skip]
pub static FLAGS: &[Flag] = &[
    Flag { name: "--seed", section: OPTIONS,
        takes: Value("<n>", |p, v| num(v).map(|n| p.seed = n)),
        help: "workload seed (default 42)" },
    Flag { name: "--length", section: OPTIONS,
        takes: Value("<n>", |p, v| at_least_1(v).map(|n| p.length = Some(n))),
        help: "trace length in sampling intervals (per tenant\n\
               for `tenants`)" },
    Flag { name: "--power-model", section: OPTIONS,
        takes: Value("<name>", set_power_model),
        help: "analytic | linear | tree — power backend for\n\
               serve, tenants and `repro power_cap` (learned\n\
               backends are fitted on the power-zoo harvest;\n\
               default analytic)" },
    Flag { name: "--predictor", section: OPTIONS,
        takes: Value("<spec>", |p, v| { v.clone_into(&mut p.predictor); Ok(()) }),
        help: "lastvalue | markov | fixwindow:<n> |\n\
               varwindow:<n>:<thr> | gpht:<depth>:<entries> |\n\
               hashedgpht:<depth>:<entries> (govern and\n\
               replay take one only with --policy gpht)" },
    Flag { name: "--policy", section: OPTIONS,
        takes: Value("<name>", |p, v| { v.clone_into(&mut p.policy); Ok(()) }),
        help: "baseline | reactive | gpht | oracle | conservative" },
    Flag { name: "--out", section: OPTIONS,
        takes: Value("<path>", |p, v| { p.out = Some(v.to_owned()); Ok(()) }),
        help: "output file for `export`; record directory for\n\
               `bench --json` (default .)" },
    Flag { name: "--json", section: OPTIONS,
        takes: Switch(|p| p.json = true),
        help: "machine-readable output: the `metrics` scrape,\n\
               or one BENCH_<area>.json record per `bench` area" },
    Flag { name: "--port", section: SERVE,
        takes: Value("<n>", |p, v| num(v).map(|n| p.port = n)),
        help: "TCP port (default 0 = ephemeral; the bound\n\
               address is printed as `listening on <addr>`)" },
    Flag { name: "--shards", section: SERVE,
        takes: Value("<n>", |p, v| at_least_1(v).map(|n| p.shards = n)),
        help: "shard owner threads (default 4)" },
    Flag { name: "--max-conns", section: SERVE,
        takes: Value("<n>", |p, v| at_least_1(v).map(|n| p.max_conns = n)),
        help: "concurrent-connection accept gate (default 256)" },
    Flag { name: "--exit-after-conns", section: SERVE,
        takes: Value("<n>", |p, v| num(v).map(|n| p.exit_after_conns = Some(n))),
        help: "exit after admitting and draining n connections" },
    Flag { name: "--read-timeout-ms", section: SERVE,
        takes: Value("<n>", |p, v| at_least_1(v).map(|n| p.read_timeout_ms = n)),
        help: "socket timeout, also for serve-bench (default 5000)" },
    Flag { name: "--max-outbound", section: SERVE,
        takes: Value("<n>", |p, v| at_least_1(v).map(|n| p.max_outbound_bytes = n)),
        help: "per-connection outbound queue cap in bytes\n\
               (default 262144; slow consumers over it are shed)" },
    Flag { name: "--sndbuf", section: SERVE,
        takes: Value("<n>", |p, v| at_least_1(v).map(|n| p.sndbuf = Some(n))),
        help: "socket send-buffer size in bytes" },
    Flag { name: "--log-json", section: SERVE,
        takes: Switch(|p| p.log_json = true),
        help: "emit trace events as JSON lines" },
    Flag { name: "--conns", section: SERVE_BENCH,
        takes: Value("<n>", |p, v| at_least_1(v).map(|n| p.conns = n)),
        help: "connections, all held open at once (default 8)" },
    Flag { name: "--window", section: SERVE_BENCH,
        takes: Value("<n>", |p, v| at_least_1(v).map(|n| p.window = n)),
        help: "samples in flight per connection (default 64)" },
    Flag { name: "--bench", section: SERVE_BENCH,
        takes: Value("<a,b,...>", |p, v| { p.bench = list(v); Ok(()) }),
        help: "benchmark subset (default: all 33)" },
    Flag { name: "--no-check", section: SERVE_BENCH,
        takes: Switch(|p| p.no_check = true),
        help: "skip the in-process oracle agreement pass" },
    Flag { name: "--tenants", section: TENANTS,
        takes: Value("<n>", |p, v| at_least_1(v).map(|n| p.tenants = n)),
        help: "tenant VM count M (default 8)" },
    Flag { name: "--cores", section: TENANTS,
        takes: Value("<n>", |p, v| at_least_1(v).map(|n| p.cores = n)),
        help: "simulated core count K (default 2)" },
    Flag { name: "--budget", section: TENANTS,
        takes: Value("<w>", |p, v| positive(v, " of watts").map(|w| p.budget_w = Some(w))),
        help: "cluster power budget in watts (default 60)" },
    Flag { name: "--quantum", section: TENANTS,
        takes: Value("<n>", set_quantum),
        help: "scheduling credit per tenant per epoch in uops\n\
               (default 25000000; at least 97657, so a\n\
               sampling interval is cut into <= 1024 quanta)" },
    Flag { name: "--arbiter", section: TENANTS,
        takes: Value("<name>", |p, v| { v.clone_into(&mut p.arbiter); Ok(()) }),
        help: "power-cap policy: waterfill | priority" },
    Flag { name: "--mix", section: TENANTS,
        takes: Value("<a,b,...>", |p, v| { p.mix = list(v); Ok(()) }),
        help: "benchmark mix cycled across tenants" },
    Flag { name: "--noisy", section: TENANTS,
        takes: Value("<n>", |p, v| num(v).map(|n| p.noisy = n)),
        help: "noisy-neighbor tenants (highest ids; they run\n\
               the most memory-bound benchmark at 4x credit)" },
    Flag { name: "--metrics", section: TENANTS,
        takes: Switch(|p| p.metrics = true),
        help: "append the telemetry exposition to the report" },
    Flag { name: "--areas", section: BENCH,
        takes: Value("<a,b,...>", |p, v| { p.areas = list(v); Ok(()) }),
        help: "bench-area subset (default: all)" },
    Flag { name: "--iters", section: BENCH,
        takes: Value("<n>", |p, v| at_least_1(v).map(|n| p.iters = n)),
        help: "timed iterations per area (default 30)" },
    Flag { name: "--warmup", section: BENCH,
        takes: Value("<n>", |p, v| num(v).map(|n| p.warmup = n)),
        help: "untimed warmup iterations per area (default 3)" },
    Flag { name: "--gate", section: BENCH,
        takes: Switch(|p| p.gate = true),
        help: "judge records against calibrated thresholds\n\
               (exit 0 pass/skip, 1 findings, 2 error)" },
    Flag { name: "--multiplier", section: BENCH,
        takes: Value("<x>", |p, v| positive(v, "").map(|x| p.multiplier = Some(x))),
        help: "gate headroom over the expected ratio\n\
               (default 5.0; strict CI uses 2.0)" },
    Flag { name: "--profile", section: BENCH,
        takes: Switch(|p| p.profile = true),
        help: "append the timed_span! hot-path table" },
    Flag { name: "--compare", section: BENCH,
        takes: Pair("<a> <b>", set_compare),
        help: "diff two BENCH_*.json snapshot directories on\n\
               their calibrated ratios instead of measuring\n\
               (exit 0 clean, 1 regressions past +15%)" },
];

/// Parses a number.
fn num<T: std::str::FromStr>(v: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    v.parse().map_err(|e| format!(": {e}"))
}

/// Parses a count that must be at least 1.
fn at_least_1<T: std::str::FromStr + Default + PartialEq>(v: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    let n = num(v)?;
    if n == T::default() {
        return Err(" must be at least 1".to_owned());
    }
    Ok(n)
}

/// Parses a positive finite number; `unit` ends the error.
fn positive(v: &str, unit: &str) -> Result<f64, String> {
    let x: f64 = num(v)?;
    if !(x.is_finite() && x > 0.0) {
        return Err(format!(" must be a positive number{unit}"));
    }
    Ok(x)
}

/// Splits a comma-separated list, dropping empty items.
fn list(v: &str) -> Vec<String> {
    v.split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect()
}

fn set_power_model(p: &mut Parsed, v: &str) -> Result<(), String> {
    if !matches!(v, "analytic" | "linear" | "tree") {
        return Err(format!(" must be analytic, linear, or tree; got {v:?}"));
    }
    v.clone_into(&mut p.power_model);
    Ok(())
}

fn set_quantum(p: &mut Parsed, v: &str) -> Result<(), String> {
    let q: u64 = num(v)?;
    if q == 0 {
        return Err(" must be at least 1 uop".to_owned());
    }
    p.quantum_uops = Some(q);
    Ok(())
}

fn set_compare(p: &mut Parsed, a: &str, b: Option<&str>) -> Result<(), String> {
    match b {
        Some(b) if !a.starts_with('-') && !b.starts_with('-') => {
            p.compare = Some((a.to_owned(), b.to_owned()));
            Ok(())
        }
        _ => Err(" requires two directories: <dir-a> <dir-b>".to_owned()),
    }
}

/// Parses a command line (excluding `argv[0]`) against [`COMMANDS`] and
/// [`FLAGS`].
///
/// # Errors
///
/// Returns a [`CliError`] (exit code 2) for an unknown command or
/// option, a missing, extra or refused positional, a missing value, or
/// a value its flag rejects.
pub fn parse(argv: &[String]) -> Result<Parsed, CliError> {
    let mut parsed = Parsed::default();
    let mut it = argv.iter();
    let Some(cmd) = it.next() else {
        return Ok(parsed); // no args -> help
    };
    let name = if HELP_ALIASES.contains(&cmd.as_str()) {
        "help"
    } else {
        cmd.as_str()
    };
    let spec = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| CliError::new(format!("unknown command {cmd:?}; run `livephase help`")))?;
    parsed.command = spec.command;

    while let Some(arg) = it.next() {
        if let Some(flag) = FLAGS.iter().find(|f| f.name == arg) {
            let result = match flag.takes {
                Switch(set) => {
                    set(&mut parsed);
                    Ok(())
                }
                Value(_, set) => set(&mut parsed, take_value(&mut it, flag.name)?),
                Pair(_, set) => {
                    let first = take_value(&mut it, flag.name)?;
                    set(&mut parsed, first, it.next().map(String::as_str))
                }
            };
            result.map_err(|tail| CliError::new(format!("{}{tail}", flag.name)))?;
        } else if arg.starts_with('-') {
            return Err(CliError::new(format!("unknown option {arg:?}")));
        } else if parsed.target.is_some() {
            return Err(CliError::new(format!("unexpected extra argument {arg:?}")));
        } else {
            parsed.target = Some(arg.clone());
        }
    }

    match (spec.positional, &parsed.target) {
        (Required(_), None) => {
            return Err(CliError::new(format!(
                "{name} requires an argument; run `livephase help`"
            )))
        }
        (Refused(hint), Some(_)) => {
            return Err(CliError::new(format!("{name} takes no argument; {hint}")))
        }
        _ => {}
    }
    if parsed.command == Command::Export && parsed.out.is_none() {
        return Err(CliError::new("export requires --out <file>"));
    }
    if parsed.compare.is_some() && parsed.command != Command::Bench {
        return Err(CliError::new("--compare only applies to bench"));
    }
    Ok(parsed)
}

fn take_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, CliError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| CliError::new(format!("{flag} requires a value")))
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
            parse(&argv("list --compare a b")).is_err(),
            "--compare is bench-only"
        );
    }

    #[test]
    fn lint_is_an_unknown_command() {
        let e = parse(&argv("lint")).unwrap_err();
        assert!(e.message().starts_with("unknown command \"lint\""), "{e}");
        assert_eq!(e.code(), 2);
    }

    #[test]
    fn table_names_are_unique_lowercase_kebab_case() {
        fn kebab(name: &str) -> bool {
            !name.is_empty()
                && !name.starts_with('-')
                && !name.ends_with('-')
                && !name.contains("--")
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        }
        let mut seen = std::collections::BTreeSet::new();
        for c in COMMANDS {
            assert!(kebab(c.name), "command {:?}", c.name);
            assert!(seen.insert(c.name), "duplicate command {:?}", c.name);
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut sections = vec![""];
        for f in FLAGS {
            let bare = f.name.strip_prefix("--").unwrap_or("");
            assert!(kebab(bare), "flag {:?}", f.name);
            assert!(seen.insert(f.name), "duplicate flag {:?}", f.name);
            if sections.last() != Some(&f.section) {
                assert!(!sections.contains(&f.section), "{} is split", f.section);
                sections.push(f.section);
            }
        }
        assert_eq!(
            sections[1..],
            [OPTIONS, SERVE, SERVE_BENCH, TENANTS, BENCH],
            "usage() sections"
        );
        assert_eq!(FLAGS.len(), 34);
    }

    #[test]
    fn usage_lists_every_command_and_flag() {
        let usage = crate::usage();
        for c in COMMANDS {
            assert!(usage.contains(&format!("  {}", c.syntax())), "{}", c.name);
        }
        for f in FLAGS {
            assert!(usage.contains(&format!("  {}", f.syntax())), "{}", f.name);
        }
    }

    /// Every command line README shows, as argv: the words after ` -- `
    /// on a `cargo run -p livephase-cli` line, or after `livephase-cli`
    /// on any other line of a `bash` block, with `\`-continued lines
    /// joined and `# comments` dropped.
    fn readme_command_lines(readme: &str) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        let mut fence: Option<bool> = None; // Some(is_bash) inside a fence
        let mut line = String::new();
        for raw in readme.lines() {
            if let Some(info) = raw.trim_start().strip_prefix("```") {
                fence = match fence {
                    None => Some(info.trim() == "bash"),
                    Some(_) => None,
                };
                continue;
            }
            if fence != Some(true) {
                continue;
            }
            let code = match raw.find('#') {
                Some(at) if at == 0 || raw[..at].ends_with(' ') => &raw[..at],
                _ => raw,
            };
            match code.trim_end().strip_suffix('\\') {
                Some(head) => {
                    line.push_str(head);
                    continue;
                }
                None => line.push_str(code),
            }
            let args = if line.contains("cargo run") {
                line.rfind(" -- ")
                    .filter(|_| line.contains("-p livephase-cli"))
                    .map(|at| &line[at + 4..])
            } else {
                line.find("livephase-cli")
                    .map(|at| &line[at + "livephase-cli".len()..])
            };
            if let Some(args) = args {
                out.push(args.split_whitespace().map(str::to_owned).collect());
            }
            line.clear();
        }
        out
    }

    #[test]
    fn every_readme_command_line_parses() {
        let lines = readme_command_lines(include_str!("../../../README.md"));
        for argv in &lines {
            if let Err(e) = parse(argv) {
                panic!("README: `livephase-cli {}`: {e}", argv.join(" "));
            }
        }
        // The extraction itself: every shell block's CLI line is seen,
        // continuation lines included.
        assert!(lines.len() >= 30, "{lines:?}");
        for flag in ["--conns", "--noisy", "--budget", "--compare"] {
            assert!(
                lines.iter().flatten().any(|w| w == flag),
                "{flag} is on a README continuation line"
            );
        }
    }

    #[test]
    fn readme_extraction_catches_what_the_parser_refuses() {
        let readme = "```bash\n\
            cargo run -p livephase-cli --release -- serve-bench 127.0.0.1:9 \\\n\
            \x20   --conz 8   # a typo on a continuation line\n\
            livephase-cli serve --port 70000\n\
            livephase-cli serve-bench\n\
            cargo run --release --example quickstart\n\
            ```\n\
            livephase-cli in prose is not a command line\n";
        let lines = readme_command_lines(readme);
        assert_eq!(
            lines,
            vec![
                argv("serve-bench 127.0.0.1:9 --conz 8"),
                argv("serve --port 70000"),
                argv("serve-bench"),
            ]
        );
        assert!(lines.iter().all(|l| parse(l).is_err()));
    }
}
