//! Command implementations: pure functions from parsed arguments to
//! report text.

use crate::args::{CliError, Command, Parsed};
use crate::spec;
use livephase_core::{evaluate_confusion, PhaseMap, PhaseSample};
use livephase_governor::RunReport;
use livephase_workloads::{io as trace_io, spec as wspec, WorkloadTrace};
use std::fmt::Write as _;

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Propagates per-command [`CliError`]s.
pub fn dispatch(parsed: &Parsed) -> Result<String, CliError> {
    match parsed.command {
        Command::Help => Ok(crate::usage()),
        Command::List => list(parsed),
        Command::Characterize => characterize(parsed),
        Command::Predict => predict(parsed),
        Command::Govern => govern(parsed),
        Command::Export => export(parsed),
        Command::Replay => replay(parsed),
        Command::Repro => repro(parsed),
        Command::Serve => serve(parsed),
        Command::Tenants => tenants(parsed),
        Command::ServeBench => serve_bench(parsed),
        Command::Metrics => metrics(parsed),
        Command::Bench => bench(parsed),
        Command::PowerZoo => power_zoo(parsed),
    }
}

/// Resolves `--power-model` into a concrete backend. `analytic` is the
/// calibrated default; `linear` and `tree` are fitted on the power-zoo
/// training harvest at the given seed, so the same seed always yields
/// the same coefficients.
fn power_model(parsed: &Parsed) -> Result<livephase_pmsim::PowerModelKind, CliError> {
    livephase_experiments::power_zoo::model(&parsed.power_model, parsed.seed).ok_or_else(|| {
        CliError::new(format!(
            "--power-model: unknown backend {:?} (expected `analytic`, `linear` or `tree`)",
            parsed.power_model
        ))
    })
}

/// Trains, validates and races the power-model zoo: per-backend held-out
/// error against the DAQ harvest plus the EDP each backend earns when it
/// prices the capping policy. Gate violations (a learned backend missing
/// the MAPE gate or losing to the naive baseline) exit 1 for ci.sh.
fn power_zoo(parsed: &Parsed) -> Result<String, CliError> {
    use livephase_experiments as exp;
    let zoo = exp::power_zoo::run(parsed.seed);
    let violations = exp::power_zoo::check(&zoo);
    let mut out = zoo.to_string();
    if violations.is_empty() {
        let _ = writeln!(
            out,
            "\n[power_zoo] all train/validate gates hold (held-out MAPE gate {:.0}%)",
            exp::power_zoo::MAPE_GATE_PCT
        );
        Ok(out)
    } else {
        for v in &violations {
            let _ = writeln!(out, "\n[power_zoo] GATE VIOLATION: {v}");
        }
        Err(CliError::gate(out))
    }
}

/// Runs the calibrated in-process benchmark harness.
///
/// Always prints the per-area summary table. `--json` additionally
/// writes one `BENCH_<area>.json` record per area under `--out`
/// (default `.`); `--gate` judges the records against the calibrated
/// thresholds (exit-code contract: 0 clean or loud skip,
/// 1 findings on stdout, 2 operational error); `--profile` appends the
/// `timed_span!` hot-path table.
fn bench(parsed: &Parsed) -> Result<String, CliError> {
    use livephase_bench as bench;

    if let Some((dir_a, dir_b)) = &parsed.compare {
        // Offline trend diff between two committed snapshot directories:
        // no measurement runs, so none of the flags below apply.
        let report = bench::compare_dirs(dir_a, dir_b).map_err(CliError::new)?;
        let rendered = report.render();
        return if report.has_regressions() {
            Err(CliError::gate(rendered))
        } else {
            Ok(rendered)
        };
    }

    let areas: Vec<&'static bench::Area> = if parsed.areas.is_empty() {
        bench::registry().iter().collect()
    } else {
        parsed
            .areas
            .iter()
            .map(|name| {
                bench::find(name).ok_or_else(|| {
                    let known: Vec<&str> = bench::registry().iter().map(|a| a.name).collect();
                    CliError::new(format!(
                        "unknown bench area {name:?}; known areas: {}",
                        known.join(", ")
                    ))
                })
            })
            .collect::<Result<_, _>>()?
    };

    let calibration = *bench::calibration();
    let machine = bench::Machine::detect();
    let git_rev =
        std::env::current_dir().map_or_else(|_| "unknown".to_owned(), |cwd| bench::git_rev(&cwd));
    // The one wall-clock read: stamped here in the CLI and passed down,
    // so nothing in the measurement path touches the clock-of-day.
    let unix_ms = livephase_telemetry::now_unix_ms();

    let mut records = Vec::with_capacity(areas.len());
    for area in &areas {
        let summary = area.measure(parsed.warmup, parsed.iters);
        records.push(bench::BenchRecord {
            area: area.name.to_owned(),
            summary,
            warmup: parsed.warmup,
            calibration,
            expected_ratio: area.expected_ratio,
            machine: machine.clone(),
            git_rev: git_rev.clone(),
            unix_ms,
        });
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "calibration baseline {} ns (MAD {} ns over {} reps, variance {:.3})",
        calibration.baseline_ns,
        calibration.mad_ns,
        calibration.reps,
        calibration.variance()
    );
    let _ = writeln!(
        out,
        "{:<18} {:>6} {:>12} {:>12} {:>10} {:>9} {:>9}",
        "area", "iters", "median ns", "p90 ns", "mad ns", "ratio", "expected"
    );
    for r in &records {
        let _ = writeln!(
            out,
            "{:<18} {:>6} {:>12} {:>12} {:>10} {:>9.3} {:>9.3}",
            r.area,
            r.summary.iterations,
            r.summary.median_ns,
            r.summary.p90_ns,
            r.summary.mad_ns,
            r.ratio(),
            r.expected_ratio
        );
    }

    if parsed.json {
        let dir = std::path::PathBuf::from(parsed.out.as_deref().unwrap_or("."));
        std::fs::create_dir_all(&dir)
            .map_err(|e| CliError::new(format!("cannot create {}: {e}", dir.display())))?;
        for r in &records {
            let path = dir.join(r.filename());
            std::fs::write(&path, r.to_json())
                .map_err(|e| CliError::new(format!("cannot write {}: {e}", path.display())))?;
            let _ = writeln!(out, "wrote {}", path.display());
        }
    }

    if parsed.profile {
        let rows = livephase_bench::collect(livephase_telemetry::global());
        let _ = writeln!(out, "\nhot-path profile (timed_span! telemetry):");
        out.push_str(&livephase_bench::render(&rows));
    }

    if parsed.gate {
        let config = bench::GateConfig {
            multiplier: parsed
                .multiplier
                .unwrap_or(bench::GateConfig::default().multiplier),
            ..bench::GateConfig::default()
        };
        let floored = bench::under_floor(&config, &records);
        if !floored.is_empty() {
            let _ = writeln!(
                out,
                "\nbench gate: not judged, median at or under the {} ns floor: {}",
                config.floor_ns,
                floored.join(", ")
            );
        }
        match bench::evaluate(&config, &calibration, &records) {
            bench::GateOutcome::Pass => {
                let _ = writeln!(
                    out,
                    "\nbench gate: PASS ({} areas within {:.1}x of their expected ratio)",
                    records.len(),
                    config.multiplier
                );
            }
            bench::GateOutcome::Skip(reason) => {
                let _ = writeln!(out, "\nbench gate: SKIP — {reason}");
            }
            bench::GateOutcome::Fail(findings) => {
                let _ = writeln!(out, "\nbench gate: FAIL");
                for f in &findings {
                    let _ = writeln!(out, "  {f}");
                }
                return Err(CliError::gate(out));
            }
        }
    }
    Ok(out)
}

/// Runs the phase-prediction daemon until it exits (`--exit-after-conns`
/// or an external kill).
///
/// This is the one impure command: the bound address is printed (and
/// flushed) *before* blocking, so scripts can parse `listening on <addr>`
/// off stdout and connect while the process runs.
fn serve(parsed: &Parsed) -> Result<String, CliError> {
    // The daemon logs through the process tracer; the library default is
    // silent, so the CLI turns the stdout sink on here.
    livephase_telemetry::tracer().set_sink(if parsed.log_json {
        livephase_telemetry::Sink::Json
    } else {
        livephase_telemetry::Sink::Human
    });
    let config = livephase_serve::ServerConfig {
        addr: format!("127.0.0.1:{}", parsed.port),
        shards: parsed.shards,
        max_conns: parsed.max_conns,
        read_timeout: std::time::Duration::from_millis(parsed.read_timeout_ms),
        write_timeout: std::time::Duration::from_millis(parsed.read_timeout_ms),
        exit_after_conns: parsed.exit_after_conns,
        engine: livephase_serve::EngineConfig::pentium_m(),
        power: power_model(parsed)?,
        max_outbound_bytes: parsed.max_outbound_bytes,
        sndbuf: parsed.sndbuf,
    };
    let handle = livephase_serve::spawn(config)
        .map_err(|e| CliError::new(format!("cannot bind port {}: {e}", parsed.port)))?;
    println!("listening on {}", handle.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let summary = handle.join();
    Ok(format!(
        "served {} connections ({} rejected, {} poisoned): {} samples, {} decisions",
        summary.accepted, summary.rejected, summary.poisoned, summary.samples, summary.decisions
    ))
}

/// Runs a multi-tenant cluster scenario — M tenant VMs round-robin
/// scheduled on K simulated cores under a cluster power cap — and
/// renders the per-tenant report (optionally followed by the telemetry
/// exposition when `--metrics` is given).
fn tenants(parsed: &Parsed) -> Result<String, CliError> {
    let policy = livephase_tenants::ArbiterPolicy::parse(&parsed.arbiter).ok_or_else(|| {
        CliError::new(format!(
            "--arbiter: unknown policy {:?} (expected `waterfill` or `priority`)",
            parsed.arbiter
        ))
    })?;
    let mut spec = livephase_tenants::ScenarioSpec::new(parsed.tenants, parsed.cores);
    spec.policy = policy;
    spec.noisy = parsed.noisy;
    spec.seed = parsed.seed;
    spec.predictor = parsed.predictor.clone();
    // The arbiter costs grants at the backend's worst-case bound, so any
    // zoo backend keeps the never-exceed-budget argument intact.
    spec.power = power_model(parsed)?;
    if let Some(budget) = parsed.budget_w {
        spec.budget_w = budget;
    }
    if let Some(quantum) = parsed.quantum_uops {
        spec.quantum_uops = quantum;
    }
    if let Some(intervals) = parsed.length {
        spec.intervals = intervals;
    }
    if !parsed.mix.is_empty() {
        spec.mix = parsed.mix.clone();
    }
    let report =
        livephase_tenants::run_scenario(&spec).map_err(|e| CliError::new(e.to_string()))?;
    let mut out = report.to_string();
    if parsed.metrics {
        let _ = writeln!(out);
        out.push_str(&livephase_telemetry::global().render());
    }
    Ok(out)
}

/// Replays benchmark counter streams against a running daemon and
/// reports throughput, latency percentiles and oracle agreement.
fn serve_bench(parsed: &Parsed) -> Result<String, CliError> {
    let addr = parsed.target.clone().expect("validated by the parser");
    let config = livephase_serve::LoadGenConfig {
        addr,
        connections: parsed.conns,
        benchmarks: parsed.bench.clone(),
        length: parsed.length.unwrap_or(120),
        seed: parsed.seed,
        predictor: parsed.predictor.clone(),
        window: parsed.window,
        check_agreement: !parsed.no_check,
        timeout: std::time::Duration::from_millis(parsed.read_timeout_ms.max(1_000)),
    };
    let report =
        livephase_serve::loadgen::run(&config).map_err(|e| CliError::new(e.to_string()))?;
    if !report.all_exact() {
        return Err(CliError::new(format!(
            "{report}served decisions diverged from the in-process manager"
        )));
    }
    Ok(report.to_string())
}

/// Scrapes a running daemon's metrics exposition and prints it verbatim,
/// or (with `--json`) re-renders it as structured JSON with per-series
/// quantiles folded out of the histogram buckets.
fn metrics(parsed: &Parsed) -> Result<String, CliError> {
    let addr = parsed.target.as_deref().expect("validated by the parser");
    let timeout = std::time::Duration::from_millis(parsed.read_timeout_ms.max(1_000));
    let mut client =
        livephase_serve::Client::connect(addr, 0, "pentium_m", &parsed.predictor, timeout)
            .map_err(|e| CliError::new(format!("cannot connect to {addr}: {e}")))?;
    let text = client
        .metrics()
        .map_err(|e| CliError::new(format!("metrics scrape failed: {e}")))?;
    if parsed.json {
        livephase_telemetry::scrape::exposition_to_json(&text)
            .map_err(|e| CliError::new(format!("metrics scrape unparsable: {e}")))
    } else {
        Ok(text)
    }
}

/// Resolves the benchmark named by the command line and generates its
/// trace.
fn workload(parsed: &Parsed) -> Result<WorkloadTrace, CliError> {
    let name = parsed.target.as_deref().expect("validated by the parser");
    let mut bench = wspec::benchmark(name).ok_or_else(|| {
        CliError::new(format!("unknown benchmark {name:?}; run `livephase list`"))
    })?;
    if let Some(len) = parsed.length {
        bench = bench.with_length(len);
    }
    Ok(bench.generate(parsed.seed))
}

fn list(parsed: &Parsed) -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>4}  {:>12}  {:>11}  {:>9}",
        "benchmark", "quad", "mean Mem/Uop", "variation %", "intervals"
    );
    let _ = writeln!(out, "{}", "-".repeat(62));
    for bench in wspec::registry() {
        let stats = bench
            .clone()
            .with_length(400)
            .generate(parsed.seed)
            .characterize();
        let _ = writeln!(
            out,
            "{:<18} {:>4}  {:>12.4}  {:>11.1}  {:>9}",
            bench.name(),
            bench.quadrant().to_string(),
            stats.mean_mem_uop,
            stats.sample_variation_pct,
            bench.length(),
        );
    }
    Ok(out)
}

fn characterize(parsed: &Parsed) -> Result<String, CliError> {
    let trace = workload(parsed)?;
    let stats = trace.characterize();
    let map = PhaseMap::pentium_m();
    let mut histogram = vec![0usize; map.phase_count()];
    for w in &trace {
        histogram[map.classify(w.mem_uop()).index()] += 1;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} intervals, mean Mem/Uop {:.4}, sample variation {:.1}%",
        trace.name(),
        trace.len(),
        stats.mean_mem_uop,
        stats.sample_variation_pct
    );
    let _ = writeln!(out, "\nphase histogram (Table 1 definitions):");
    for (i, &count) in histogram.iter().enumerate() {
        let share = count as f64 / trace.len() as f64;
        let bar = "#".repeat((share * 50.0).round() as usize);
        let _ = writeln!(
            out,
            "  P{} {:>6} ({:>5.1}%) {}",
            i + 1,
            count,
            share * 100.0,
            bar
        );
    }
    Ok(out)
}

fn predict(parsed: &Parsed) -> Result<String, CliError> {
    let trace = workload(parsed)?;
    let mut predictor = spec::predictor(&parsed.predictor)?;
    let map = PhaseMap::pentium_m();
    let stream = trace
        .iter()
        .map(|w| PhaseSample::new(w.mem_uop(), map.classify(w.mem_uop())));
    let (stats, matrix) = evaluate_confusion(predictor.as_mut(), stream);

    let mut out = String::new();
    let _ = writeln!(out, "{} on {}: {}", predictor.name(), trace.name(), stats);
    let _ = writeln!(out, "\nconfusion (rows = actual, cols = predicted):");
    let phases = matrix.phases();
    let _ = write!(out, "{:>6}", "");
    for &p in &phases {
        let _ = write!(out, "{:>8}", format!("P{p}"));
    }
    let _ = writeln!(out, "{:>9}", "recall");
    for &a in &phases {
        let _ = write!(out, "{:>6}", format!("P{a}"));
        for &p in &phases {
            let _ = write!(out, "{:>8}", matrix.get(a, p));
        }
        let _ = writeln!(out, "{:>8.1}%", matrix.recall(a) * 100.0);
    }
    let _ = writeln!(
        out,
        "\nof the mispredictions, {:.0}% guessed a more CPU-bound phase \
         (energy-wasting direction), {:.0}% a more memory-bound one \
         (performance-costing direction).",
        matrix.underestimation_share() * 100.0,
        (1.0 - matrix.underestimation_share()) * 100.0
    );
    Ok(out)
}

fn render_run(report: &RunReport, baseline: Option<&RunReport>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} under {}: {:.3} s, {:.1} J, {:.2} W avg, {:.2} BIPS, EDP {:.2} J.s",
        report.workload,
        report.policy,
        report.totals.time_s,
        report.totals.energy_j,
        report.average_power_w(),
        report.bips(),
        report.edp()
    );
    let _ = writeln!(
        out,
        "prediction accuracy {:.1}%  |  DVFS transitions {}",
        report.prediction.accuracy() * 100.0,
        report.dvfs_transitions
    );
    if let Some(base) = baseline {
        let c = report.compare_to(base);
        let _ = writeln!(
            out,
            "vs baseline: EDP improvement {:.1}%, performance degradation \
             {:.1}%, power savings {:.1}%, energy savings {:.1}%",
            c.edp_improvement_pct(),
            c.perf_degradation_pct(),
            c.power_savings_pct(),
            c.energy_savings_pct()
        );
    }
    out
}

fn govern_trace(parsed: &Parsed, trace: &WorkloadTrace) -> Result<String, CliError> {
    let platform = livephase_pmsim::PlatformConfig::pentium_m();
    let manager = spec::manager(&parsed.policy, &parsed.predictor, trace)?;
    let report = manager.run(trace, &platform);
    if parsed.policy == "baseline" {
        Ok(render_run(&report, None))
    } else {
        let baseline = livephase_governor::Manager::baseline().run(trace, &platform);
        Ok(render_run(&report, Some(&baseline)))
    }
}

fn govern(parsed: &Parsed) -> Result<String, CliError> {
    let trace = workload(parsed)?;
    govern_trace(parsed, &trace)
}

fn export(parsed: &Parsed) -> Result<String, CliError> {
    let trace = workload(parsed)?;
    let path = parsed.out.as_deref().expect("validated by the parser");
    let csv = trace_io::to_csv(&trace);
    std::fs::write(path, &csv).map_err(|e| CliError::new(format!("cannot write {path:?}: {e}")))?;
    Ok(format!(
        "wrote {} intervals ({} bytes) to {path}",
        trace.len(),
        csv.len()
    ))
}

fn replay(parsed: &Parsed) -> Result<String, CliError> {
    let path = parsed.target.as_deref().expect("validated by the parser");
    let csv = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read {path:?}: {e}")))?;
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("replay");
    let trace =
        trace_io::from_csv(stem, &csv).map_err(|e| CliError::new(format!("{path}: {e}")))?;
    govern_trace(parsed, &trace)
}

/// Regenerates one artifact, a group (`ablations`, `extensions`), or
/// the whole paper (`all`, which also rewrites `EXPERIMENTS.md` and
/// `results/*.csv` at the workspace root). A violated shape claim is a
/// gate failure: exit 1 with the report on stdout.
fn repro(parsed: &Parsed) -> Result<String, CliError> {
    use livephase_experiments::repro::{self, ABLATIONS, EXTENSIONS, PAPER};
    let artifact = parsed.target.as_deref().expect("validated by the parser");
    let seed = parsed.seed;
    // Only the power_cap extension races alternative estimator backends;
    // every published table/figure is pinned to the analytic default so
    // its committed output stays byte-identical.
    if parsed.power_model != "analytic" && artifact != "power_cap" {
        return Err(CliError::new(format!(
            "--power-model {} applies only to the power_cap artifact; \
             {artifact} is pinned to the analytic backend",
            parsed.power_model
        )));
    }
    let mut report = String::new();
    let mut held = true;
    if artifact == "all" {
        let record = repro::paper_record(seed);
        for (name, outcome) in &record.artifacts {
            held &= shape_section(&mut report, name, outcome);
        }
        report.push_str(&write_paper_record(&record)?);
        return shape_verdict(report, held);
    }
    let group: &[(&str, repro::Driver)] = match artifact {
        "ablations" => &ABLATIONS,
        "extensions" => &EXTENSIONS,
        name => std::slice::from_ref(repro::find(name).ok_or_else(|| {
            let names = |group: &[(&str, repro::Driver)]| {
                group.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ")
            };
            CliError::new(format!(
                "unknown artifact {name:?}; accepted: all, {}, ablations ({}) and \
                 extensions ({})",
                names(&PAPER),
                names(&ABLATIONS),
                names(&EXTENSIONS)
            ))
        })?),
    };
    let model = power_model(parsed)?;
    for (name, driver) in group {
        held &= shape_section(&mut report, name, &driver(seed, &model));
    }
    shape_verdict(report, held)
}

/// Appends an artifact's body and its shape-check status to `report`:
/// one "all hold" line, or one `SHAPE VIOLATION` line per violated
/// claim. Returns whether every claim held.
fn shape_section(
    report: &mut String,
    artifact: &str,
    outcome: &livephase_experiments::repro::Outcome,
) -> bool {
    report.push_str(&outcome.body);
    if outcome.violations.is_empty() {
        let _ = writeln!(
            report,
            "\n[{artifact}] all of the paper's shape claims hold"
        );
    }
    for v in &outcome.violations {
        let _ = writeln!(report, "\n[{artifact}] SHAPE VIOLATION: {v}");
    }
    outcome.violations.is_empty()
}

/// The report when every claim held; otherwise a gate failure carrying
/// it, so `repro` exits 1 with the report on stdout.
fn shape_verdict(report: String, held: bool) -> Result<String, CliError> {
    if held {
        Ok(report)
    } else {
        Err(CliError::gate(report))
    }
}

/// Writes `EXPERIMENTS.md` and `results/*.csv` at the workspace root,
/// returning the lines that say so.
fn write_paper_record(
    record: &livephase_experiments::repro::PaperRecord,
) -> Result<String, CliError> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let write = |path: &std::path::Path, contents: &str| {
        std::fs::write(path, contents)
            .map_err(|e| CliError::new(format!("cannot write {}: {e}", path.display())))
    };
    let md = root.join("EXPERIMENTS.md");
    write(&md, &record.markdown)?;
    let results = root.join("results");
    std::fs::create_dir_all(&results)
        .map_err(|e| CliError::new(format!("cannot create {}: {e}", results.display())))?;
    for (name, csv) in &record.csvs {
        write(&results.join(name), csv)?;
    }
    Ok(format!(
        "\nwrote {}\nwrote results/fig{{03,04,05,11,12,13}}.csv",
        md.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run(line: &str) -> Result<String, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        dispatch(&parse(&argv).unwrap())
    }

    #[test]
    fn list_shows_all_benchmarks() {
        let out = run("list").unwrap();
        assert_eq!(out.lines().count(), 2 + 33);
        assert!(out.contains("applu_in"));
        assert!(out.contains("mcf_inp"));
    }

    #[test]
    fn characterize_histogram_covers_trace() {
        let out = run("characterize swim_in --length 50").unwrap();
        assert!(out.contains("phase histogram"));
        assert!(out.contains("P5"));
    }

    #[test]
    fn predict_reports_accuracy_and_confusion() {
        let out = run("predict applu_in --length 300 --predictor gpht:8:128").unwrap();
        assert!(out.contains("GPHT_8_128 on applu_in"));
        assert!(out.contains("confusion"));
        assert!(out.contains("recall"));
    }

    #[test]
    fn govern_compares_to_baseline() {
        let out = run("govern swim_in --length 60 --policy reactive").unwrap();
        assert!(out.contains("vs baseline"));
        assert!(out.contains("EDP improvement"));
    }

    #[test]
    fn govern_baseline_has_no_comparison() {
        let out = run("govern swim_in --length 30 --policy baseline").unwrap();
        assert!(!out.contains("vs baseline"));
    }

    #[test]
    fn govern_with_custom_predictor() {
        let out = run("govern applu_in --length 80 --predictor markov").unwrap();
        assert!(out.contains("Proactive(Markov1)"));
    }

    #[test]
    fn export_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("livephase_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("swim.csv");
        let path_s = path.to_str().unwrap();
        let out = run(&format!("export swim_in --length 20 --out {path_s}")).unwrap();
        assert!(out.contains("wrote 20 intervals"));
        let out = run(&format!("replay {path_s} --policy gpht")).unwrap();
        assert!(out.contains("vs baseline"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn repro_runs_a_table() {
        let out = run("repro table1").unwrap();
        assert!(out.contains("shape claims hold"));
    }

    #[test]
    fn repro_runs_an_ablation_and_an_extension() {
        for line in [
            "repro upc_pitfall",
            "repro duration",
            "repro sampling_domain",
        ] {
            let out = run(line).unwrap();
            assert!(out.contains("shape claims hold"), "{line}: {out}");
        }
    }

    #[test]
    fn shape_violations_fail_the_gate_with_the_report() {
        use livephase_experiments::repro::Outcome;
        let held = Outcome {
            body: "body a".into(),
            violations: vec![],
        };
        let broken = Outcome {
            body: "body b".into(),
            violations: vec!["claim one".into(), "claim two".into()],
        };

        let mut report = String::new();
        assert!(shape_section(&mut report, "a", &held));
        assert_eq!(report, "body a\n[a] all of the paper's shape claims hold\n");
        assert_eq!(shape_verdict(report.clone(), true).unwrap(), report);

        assert!(!shape_section(&mut report, "b", &broken));
        assert!(report.ends_with(
            "body b\n[b] SHAPE VIOLATION: claim one\n\n[b] SHAPE VIOLATION: claim two\n"
        ));
        let err = shape_verdict(report.clone(), false).unwrap_err();
        assert_eq!(err.code(), 1, "a violation is a gate failure, not an error");
        assert_eq!(err.message(), report, "the whole report goes to stdout");
    }

    #[test]
    fn tenants_runs_a_small_cluster() {
        let out = run("tenants --tenants 4 --cores 2 --budget 20 --length 4 --noisy 1").unwrap();
        assert!(out.contains("cluster decision digest"), "{out}");
        assert!(out.contains("mcf_inp"), "the noisy neighbor is visible");
        let out = run("tenants --tenants 2 --cores 1 --length 2 --metrics").unwrap();
        assert!(
            out.contains("tenants_arbiter_grants_total"),
            "--metrics appends the telemetry exposition: {out}"
        );
        assert!(run("tenants --arbiter frob")
            .unwrap_err()
            .message()
            .contains("unknown policy"));
        assert!(run("tenants --mix no_such_benchmark --length 2")
            .unwrap_err()
            .message()
            .contains("unknown benchmark"));
    }

    #[test]
    fn bench_reports_every_selected_area() {
        let out = run("bench --areas wire_encode,telemetry_quantile --iters 2 --warmup 0").unwrap();
        assert!(out.contains("calibration baseline"), "{out}");
        assert!(out.contains("wire_encode"), "{out}");
        assert!(out.contains("telemetry_quantile"), "{out}");
        assert!(
            run("bench --areas no_such_area")
                .unwrap_err()
                .message()
                .contains("unknown bench area"),
            "unknown areas are rejected before any measurement"
        );
    }

    #[test]
    fn bench_compare_diffs_committed_snapshots() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench");
        let pre = root.join("2026-08-07-pre-opt");
        let post = root.join("2026-08-07-post-opt");
        if !(pre.is_dir() && post.is_dir()) {
            return; // packaged builds may omit results/
        }
        let line = format!(
            "bench --compare {} {}",
            pre.to_str().unwrap(),
            post.to_str().unwrap()
        );
        // Regressions exit through the gate path carrying the rendered
        // report; a clean diff returns it directly. Either way the full
        // table must be there.
        let out = match run(&line) {
            Ok(out) => out,
            Err(e) => e.message().to_owned(),
        };
        assert!(out.contains("bench compare:"), "{out}");
        assert!(out.contains("engine_step"), "{out}");
        assert!(out.contains("regression"), "{out}");
    }

    #[test]
    fn repro_power_model_is_power_cap_only() {
        let err = run("repro table2 --power-model linear").unwrap_err();
        assert!(
            err.message()
                .contains("applies only to the power_cap artifact"),
            "{}",
            err.message()
        );
    }

    #[test]
    fn tenants_with_learned_power_model_still_meets_budget() {
        // The arbiter prices grants at the backend's worst_case, so even
        // a fitted backend keeps the report's budget line intact.
        let out =
            run("tenants --tenants 2 --cores 1 --length 2 --power-model tree --seed 7").unwrap();
        assert!(out.contains("cluster decision digest"), "{out}");
    }

    #[test]
    fn friendly_errors() {
        assert!(run("characterize doom")
            .unwrap_err()
            .message()
            .contains("unknown benchmark"));
        let unknown = run("repro fig99").unwrap_err();
        assert!(unknown.message().contains("unknown artifact"));
        assert!(
            unknown.message().contains("sampling_domain"),
            "the message lists every artifact: {}",
            unknown.message()
        );
        assert!(run("replay /nonexistent.csv")
            .unwrap_err()
            .message()
            .contains("cannot read"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run("help").unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("repro"));
    }
}
