//! The livephase benchmark: one command runs a named workload at a seed,
//! checks its outputs, and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path livebench/Cargo.toml -- \
//!     --workload serve_ladder|tenants_cluster|repro_paper \
//!     [--seed 42] [--seconds 20] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing
//! off; with `--trace 1` it prints the per-layer metrics from a traced
//! run and writes its spans to `<target>/release/traces/`. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `METRICS.md` for what each metric means on each workload.

mod probe;
mod repro_paper;
mod serve_ladder;
mod stats;
mod tenants_cluster;
mod trace;

use probe::{Counters, Layers};
use stats::Outcomes;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The end-to-end metrics every workload reports, measured untraced.
/// Decision latency, its tail and the sustained rate are printed but not
/// gated: see METRICS.md for their run-to-run spread.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// The per-layer metrics every workload's traced run reports.
const PER_LAYER: [(&str, &str); 17] = [
    ("workloads.gen_ns_per_interval", "ns"),
    ("pmsim.pmi_ns", "ns"),
    ("pmsim.power_ns", "ns"),
    ("pmsim.vcpu_switch_ns", "ns"),
    ("pmsim.pmis", "count"),
    ("core.gpht_ns", "ns"),
    ("engine.step_ns", "ns"),
    ("engine.step_many_ns_per_sample", "ns"),
    ("engine.decisions", "count"),
    ("engine.pids_evicted", "count"),
    ("engine.hit_ratio", "ratio"),
    ("telemetry.records_per_decision", "ratio"),
    ("telemetry.record_ns", "ns"),
    ("governor.ns_per_pmi", "ns"),
    ("governor.self_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.residual_frac", "ratio"),
];

const WORKLOADS: [&str; 3] = ["serve_ladder", "tenants_cluster", "repro_paper"];

/// One workload run's results.
pub struct Report {
    pub outcomes: Outcomes,
    values: BTreeMap<&'static str, f64>,
    /// The traced run's spans, written out when the benchmark ends.
    pub tracer: Option<trace::Tracer>,
}

impl Report {
    pub fn new(outcomes: Outcomes) -> Self {
        Self {
            outcomes,
            values: BTreeMap::new(),
            tracer: None,
        }
    }

    /// Records a metric; `name` must be one of the declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a declared metric"
        );
        self.values.insert(name, value);
    }

    /// Records the per-layer metrics shared by every workload: the probe
    /// results, counter deltas over the workload's own traced unit, and
    /// the trace's overhead and residual against the untraced run.
    pub fn layers(
        &mut self,
        l: &Layers,
        c0: &Counters,
        c1: &Counters,
        overhead: f64,
        residual: f64,
    ) {
        let delta = |name| c1.since(c0, name);
        let decisions = delta("governor_decisions_total");
        let hits = delta("governor_predictor_hits_total");
        let scored = hits + delta("governor_predictor_misses_total");
        self.outcomes.record(l.governor_agrees);
        self.set("workloads.gen_ns_per_interval", l.gen_ns_per_interval);
        self.set("pmsim.pmi_ns", l.pmi_ns);
        self.set("pmsim.power_ns", l.power_ns);
        self.set("pmsim.vcpu_switch_ns", l.vcpu_switch_ns);
        self.set("pmsim.pmis", delta("pmsim_pmi_total"));
        self.set("core.gpht_ns", l.gpht_ns);
        self.set("engine.step_ns", l.step_ns);
        self.set("engine.step_many_ns_per_sample", l.step_many_ns_per_sample);
        self.set("engine.decisions", decisions);
        self.set("engine.pids_evicted", delta("engine_pids_evicted_total"));
        self.set(
            "engine.hit_ratio",
            if scored > 0.0 { hits / scored } else { 0.0 },
        );
        self.set(
            "telemetry.records_per_decision",
            delta("governor_decision_us_count") / decisions.max(1.0),
        );
        self.set("telemetry.record_ns", l.record_ns);
        self.set("governor.ns_per_pmi", l.governor_ns_per_pmi);
        self.set("governor.self_frac", l.governor_self_frac);
        self.set("trace.overhead_frac", overhead);
        self.set("trace.residual_frac", residual);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad("within (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Seed, cores, CPU and revision, recorded with every result.
fn provenance(seed: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let revision = std::fs::read_to_string(format!("{root}/.git/HEAD"))
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!("{root}/.git/{r}")).ok(),
            None => Some(head),
        })
        .map_or_else(
            || "unknown (not a git checkout)".to_owned(),
            |r| r.trim().to_owned(),
        );
    format!("seed {seed}; {cores} cores; cpu {cpu}; revision {revision}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("livebench: {e}");
            return ExitCode::from(2);
        }
    };
    let prov = provenance(args.seed);
    println!("livebench {} ({})", args.workload, prov);
    let result = match args.workload.as_str() {
        "serve_ladder" => {
            serve_ladder::run(args.seed, args.seconds, args.trace).map_err(|e| e.to_string())
        }
        "tenants_cluster" => tenants_cluster::run(args.seed, args.seconds, args.trace),
        _ => Ok(repro_paper::run(args.seed, args.seconds, args.trace)),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("livebench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !args.trace {
        report.set("peak_rss_mib", probe::peak_rss_mib());
    }
    let mut metrics = String::new();
    for (name, unit) in declared {
        let Some(value) = report.values.get(name).copied().filter(|v| v.is_finite()) else {
            eprintln!("livebench: {} did not measure {name}", args.workload);
            return ExitCode::from(1);
        };
        println!("  {name:<34} {value:>16.6} {unit}");
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if metrics.is_empty() { "" } else { ", " }
        );
    }
    let o = report.outcomes;
    println!(
        "  failed_frac {} ({} failed of {} attempted)",
        o.failed_frac(),
        o.failed,
        o.attempted
    );
    if let Some(tracer) = &report.tracer {
        let path = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|d| d.join("traces")))
            .unwrap_or_default()
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        let header = format!("\"workload\":{:?},\"provenance\":{prov:?}", args.workload);
        match tracer.write(&path, &header) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("livebench: writing spans: {e}"),
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed
    );
    ExitCode::SUCCESS
}
