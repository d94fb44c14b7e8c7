//! `repro_paper`: the paper's 12 artifacts, each through its library
//! `run(seed)` and `check()`, nothing written to disk. One unit of work
//! is one pass over all 12; the run repeats it for the measured time.
//!
//! Correctness:
//! - in set-up, the seed-42 renders of the six tables `repro-all`
//!   commits equal the committed `results/*.csv` byte for byte (the
//!   files are only read);
//! - every pass makes bit-identical artifacts (a digest of each one's
//!   full `Debug` rendering matches the first pass's);
//! - at seed 42, the seed the committed record holds its claims at,
//!   every `check()` returns no violations. The shape claims are
//!   statistical and some miss at other seeds (fig05 at seeds 3, 9 and
//!   13, fig10 at seed 10, among seeds 1-13); there a violation is
//!   printed as a finding, not counted as a failed operation.

use crate::probe::{self, Counters};
use crate::stats::{self, Outcomes};
use crate::trace::Tracer;
use crate::Report;
use livephase_experiments::{
    fig02, fig03, fig04, fig05, fig06, fig07, fig10, fig11, fig12, fig13, table1, table2,
    DEFAULT_SEED,
};
use livephase_tenants::fnv1a;
use livephase_workloads::{registry, WorkloadTrace};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const SETUPS: usize = 5;

/// The committed `results/` directory of the checkout being measured.
fn results_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../results"))
}

/// Set-up: renders the six committed tables at seed 42 and compares
/// them with `results/*.csv`, byte for byte.
fn setup(outcomes: &mut Outcomes) {
    let f3 = fig03::run(DEFAULT_SEED);
    let f4 = fig04::run(DEFAULT_SEED);
    let f5 = fig05::run(DEFAULT_SEED);
    let f11 = fig11::run(DEFAULT_SEED);
    let f12 = fig12::run(DEFAULT_SEED);
    let f13 = fig13::run(DEFAULT_SEED);
    for (name, csv) in [
        ("fig03.csv", f3.table().to_csv()),
        ("fig04.csv", f4.table().to_csv()),
        ("fig05.csv", f5.table().to_csv()),
        ("fig11.csv", f11.table().to_csv()),
        ("fig12.csv", f12.table().to_csv()),
        ("fig13.csv", f13.results_table().to_csv()),
    ] {
        let committed = std::fs::read_to_string(results_dir().join(name));
        let same = committed.as_deref().ok() == Some(csv.as_str());
        if !same {
            eprintln!("repro_paper: results/{name} differs from the seed-42 render");
        }
        outcomes.record(same);
    }
}

/// Each artifact's digest from the first pass, the reference later
/// passes must reproduce bit for bit.
type Digests = Vec<u64>;

/// One pass over the 12 artifacts; a coarse span per artifact when the
/// tracer is on. Returns each artifact's seconds in `run` and `check`
/// (the digests are taken off the clock).
fn pass(
    seed: u64,
    tracer: &mut Tracer,
    outcomes: &mut Outcomes,
    reference: &mut Digests,
) -> Vec<f64> {
    let mut timed = Vec::with_capacity(12);
    let mut results: Vec<(u64, bool)> = Vec::with_capacity(12);
    macro_rules! artifact {
        ($name:literal, $run:expr, $check:path) => {{
            tracer.begin(concat!("experiments.", $name));
            let t = Instant::now();
            let a = $run;
            let violations = $check(&a);
            timed.push(t.elapsed().as_secs_f64());
            tracer.end();
            let mut digest = DebugDigest(0);
            let _ = write!(digest, "{a:?}");
            if reference.is_empty() {
                for v in &violations {
                    eprintln!(
                        "repro_paper: seed {seed}: {} shape claim not met: {v}",
                        $name
                    );
                }
            }
            results.push((digest.0, seed != DEFAULT_SEED || violations.is_empty()));
        }};
    }
    artifact!("table1", table1::run(), table1::check);
    artifact!("table2", table2::run(), table2::check);
    artifact!("fig02", fig02::run(seed), fig02::check);
    artifact!("fig03", fig03::run(seed), fig03::check);
    artifact!("fig04", fig04::run(seed), fig04::check);
    artifact!("fig05", fig05::run(seed), fig05::check);
    artifact!("fig06", fig06::run(seed), fig06::check);
    artifact!("fig07", fig07::run(seed), fig07::check);
    artifact!("fig10", fig10::run(seed), fig10::check);
    artifact!("fig11", fig11::run(seed), fig11::check);
    artifact!("fig12", fig12::run(seed), fig12::check);
    artifact!("fig13", fig13::run(seed), fig13::check);
    if reference.is_empty() {
        reference.extend(results.iter().map(|(d, _)| d));
    }
    for ((digest, claims_hold), want) in results.iter().zip(reference.iter()) {
        outcomes.record(*claims_hold && digest == want);
    }
    timed
}

/// FNV-1a over formatted text, fed piecewise so no rendering is held
/// in memory.
struct DebugDigest(u64);

impl std::fmt::Write for DebugDigest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut outcomes = Outcomes::default();
    let mut setup_times = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t = Instant::now();
        setup(&mut outcomes);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    println!(
        "repro_paper: 12 artifacts per pass, seed {seed}, {} par_map workers",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut untraced = Tracer::new(false);
    let budget = if traced { seconds.min(2.0) } else { seconds };
    let c0 = Counters::snapshot();
    let started = Instant::now();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut reference = Digests::new();
    while passes.len() < 3 || started.elapsed().as_secs_f64() < budget {
        passes.push(pass(seed, &mut untraced, &mut outcomes, &mut reference));
    }
    let c1 = Counters::snapshot();
    let decisions = c1.since(&c0, "governor_decisions_total") / passes.len() as f64;
    let walls: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
    // Each artifact's quietest pass, summed: a contention episode that
    // spans part of the run spoils some artifacts of some passes, not a
    // whole pass's worth of the estimate.
    let wall_s: f64 = (0..passes[0].len())
        .map(|a| stats::quietest(&passes.iter().map(|p| p[a]).collect::<Vec<_>>()))
        .sum();
    let decision_us = wall_s * 1e6 / decisions;
    println!(
        "  {} passes of {decisions} governed decisions: pass wall min {:.4} s, median {:.4} s, \
         max {:.4} s; sum of per-artifact minima {wall_s:.4} s; {decision_us:.3} us per decision",
        walls.len(),
        stats::quantile(&walls, 0.0),
        stats::median(&walls),
        stats::quantile(&walls, 1.0),
    );
    let mut report = Report::new(outcomes);
    if !traced {
        report.set("wall_s", wall_s);
        report.set("setup_s", stats::median(&setup_times));
        return report;
    }

    // Traced: one pass with a span per artifact, then the governor's
    // layers re-driven over the 33 SPEC streams.
    let mut tracer = Tracer::new(true);
    let c0 = Counters::snapshot();
    tracer.begin("repro_paper.pass");
    let mut traced_outcomes = Outcomes::default();
    let traced_s: f64 = pass(seed, &mut tracer, &mut traced_outcomes, &mut reference)
        .iter()
        .sum();
    tracer.end();
    let c1 = Counters::snapshot();
    report.outcomes.merge(traced_outcomes);
    tracer.begin("governor.streams");
    tracer.begin("workloads.generate");
    let traces: Vec<(u32, WorkloadTrace)> = registry()
        .iter()
        .enumerate()
        .map(|(i, spec)| (i as u32, spec.generate(seed)))
        .collect();
    let gen_s = tracer.end();
    let layers = probe::layers(&mut tracer, &traces, gen_s, false, 1);
    tracer.end();

    let artifacts = tracer.coarse("experiments.");
    let attributed: f64 = artifacts.iter().map(|(_, s)| s).sum();
    println!("  traced pass, per layer:");
    for (name, s) in &artifacts {
        println!("    {:<30} {s:>10.4} s", format!("{name}_s"));
    }
    println!(
        "    governor over the 33 SPEC streams: Manager::run {:.1} ns per PMI, {:.1} % of it outside \
         the workloads/pmsim/engine spans; decisions agree with the re-drive: {}",
        layers.governor_ns_per_pmi,
        layers.governor_self_frac * 100.0,
        layers.governor_agrees
    );
    println!(
        "    reconciliation: untraced pass {wall_s:.4} s vs the 12 artifact spans {attributed:.4} s \
         (daq is measured only inside experiments.fig10_s)"
    );
    report.layers(
        &layers,
        &c0,
        &c1,
        traced_s / wall_s - 1.0,
        (wall_s - attributed).abs() / wall_s,
    );
    report.tracer = Some(tracer);
    report
}
