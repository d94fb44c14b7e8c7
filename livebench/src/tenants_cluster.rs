//! `tenants_cluster`: one fixed multi-tenant scenario, run end to end.
//!
//! 64 tenants on 2 simulated cores, 8 noisy neighbours, GPHT(8,128)
//! and water-fill arbitration under an 18 W budget that binds. Each
//! unit of work is one `tenants::run_scenario` call; the run repeats
//! it for the measured time. It is the per-PMI single-sample
//! `DecisionEngine::step` path over 64 interleaved pids plus vCPU
//! save/restore and the arbiter: no network and no batching.
//!
//! Correctness: no time over the cap, and every tenant's decision
//! digest equals its solo run (`ScenarioSpec::solo`), made in set-up.

use crate::probe::{self, Counters};
use crate::stats::{self, Outcomes};
use crate::trace::{per_call_ns, Tracer};
use crate::Report;
use livephase_pmsim::PlatformConfig;
use livephase_tenants::{run_scenario, Arbiter, ArbiterPolicy, Request, ScenarioSpec};
use livephase_workloads::WorkloadTrace;
use std::time::Instant;

const TENANTS: usize = 64;
const CORES: usize = 2;
const NOISY: usize = 8;
const BUDGET_W: f64 = 18.0;
/// Trace length per tenant: about 0.15 s of host time per scenario on
/// a 2-core VM, so a run holds dozens of units.
const INTERVALS: usize = 400;
const SETUPS: usize = 5;

fn scenario(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(TENANTS, CORES);
    spec.noisy = NOISY;
    spec.budget_w = BUDGET_W;
    spec.intervals = INTERVALS;
    spec.policy = ArbiterPolicy::WaterFill;
    spec.predictor = probe::PREDICTOR.to_owned();
    spec.seed = seed;
    spec
}

/// Set-up: every tenant's trace (what the runner generates first) and
/// every tenant's solo-run decision digest.
fn setup(spec: &ScenarioSpec) -> Result<Vec<u64>, String> {
    spec.validate().map_err(|e| e.to_string())?;
    for t in 0..TENANTS as u32 {
        spec.tenant_trace(t).map_err(|e| e.to_string())?;
    }
    (0..TENANTS as u32)
        .map(|t| {
            let solo = run_scenario(&spec.solo(t)).map_err(|e| e.to_string())?;
            Ok(solo.tenants[0].decision_digest)
        })
        .collect()
}

/// Runs one scenario and scores it: a tenant outcome fails when its
/// digest differs from its solo oracle or the cluster broke the cap.
fn unit(spec: &ScenarioSpec, oracle: &[u64], outcomes: &mut Outcomes) -> (f64, u64, f64) {
    let t = Instant::now();
    let report = run_scenario(spec);
    let wall = t.elapsed().as_secs_f64();
    match report {
        Ok(r) => {
            for (tenant, want) in r.tenants.iter().zip(oracle) {
                outcomes.record(r.cap_violation_s == 0.0 && tenant.decision_digest == *want);
            }
            let decisions = r.tenants.iter().map(|t| t.intervals).sum();
            (wall, decisions, r.cap_violation_s)
        }
        Err(_) => {
            outcomes.record_failed(TENANTS as u64);
            (wall, 0, 0.0)
        }
    }
}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let spec = scenario(seed);
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut oracle = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        oracle = setup(&spec)?;
        setup_times.push(t.elapsed().as_secs_f64());
    }
    println!(
        "tenants_cluster: {TENANTS} tenants on {CORES} cores, {NOISY} noisy, {} under {BUDGET_W} W, \
         {INTERVALS} intervals per tenant, seed {seed}",
        spec.predictor
    );

    let mut outcomes = Outcomes::default();
    let mut walls = Vec::new();
    let mut decisions = 0;
    let started = Instant::now();
    // Traced runs need only a few untraced units as the reference.
    let budget = if traced { seconds.min(1.0) } else { seconds };
    while walls.len() < 3 || started.elapsed().as_secs_f64() < budget {
        let (wall, d, _) = unit(&spec, &oracle, &mut outcomes);
        walls.push(wall);
        decisions = d;
    }
    let wall_s = stats::quietest(&walls);
    let decision_us = wall_s * 1e6 / decisions.max(1) as f64;
    println!(
        "  {} units of {decisions} decisions: wall min {wall_s:.4} s, lower quartile {:.4} s, \
         median {:.4} s, max {:.4} s; {decision_us:.3} us per decision",
        walls.len(),
        stats::quantile(&walls, 0.25),
        stats::median(&walls),
        stats::quantile(&walls, 1.0),
    );
    let mut report = Report::new(outcomes);
    if !traced {
        report.set("wall_s", wall_s);
        report.set("setup_s", stats::median(&setup_times));
        return Ok(report);
    }

    // Traced: one more untraced unit between counter snapshots, then the
    // same inputs re-driven through the layers with spans.
    let c0 = Counters::snapshot();
    let cluster = run_scenario(&spec).map_err(|e| e.to_string())?;
    let c1 = Counters::snapshot();
    let mut tracer = Tracer::new(true);
    tracer.begin("tenants_cluster.unit");
    tracer.begin("workloads.tenant_trace");
    let traces: Vec<(u32, WorkloadTrace)> = (0..TENANTS as u32)
        .map(|t| spec.tenant_trace(t).map(|tr| (t, tr)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let gen_s = tracer.end();
    let layers = probe::layers(&mut tracer, &traces, gen_s, true, 1);
    tracer.end();

    // The same work: identical decision streams and PMI count.
    let same_digests = layers
        .digests
        .iter()
        .zip(&cluster.tenants)
        .all(|(d, t)| *d == t.decision_digest);
    let same_pmis = layers.pmis as f64 == c1.since(&c0, "pmsim_pmi_total");
    report.outcomes.record(same_digests && same_pmis);

    let platform = PlatformConfig::pentium_m();
    let mut arbiter = Arbiter::new(&platform, BUDGET_W, ArbiterPolicy::WaterFill, CORES);
    let requests: Vec<Request> = layers
        .ops
        .iter()
        .enumerate()
        .map(|(t, ops)| Request {
            tenant: t as u32,
            core: spec.core_of(t as u32),
            requested_op: ops.last().copied().unwrap_or(0),
            priority: u8::from(!spec.is_noisy(t as u32)),
        })
        .collect();
    let arbitrate_ns = per_call_ns(5, 2_000, |_| {
        std::hint::black_box(arbiter.arbitrate(&requests));
    });
    let switches = cluster.context_switches as f64;
    let epochs = cluster.epochs as f64;
    // load_vcpu + store_vcpu run once per tenant quantum; with 32
    // tenants per core nearly every quantum is a switch.
    let scaled_s = (layers.vcpu_switch_ns * switches + arbitrate_ns * epochs) / 1e9;
    let attributed = gen_s + layers.redrive_layer_s + scaled_s;
    let traced_s = gen_s + layers.redrive_wall_s + scaled_s;
    println!("  traced unit, per layer (re-driven on the same inputs; vCPU and arbiter timed per call and scaled by the report's counts):");
    println!(
        "    same work: decision digests {} , PMIs {} vs {}",
        if same_digests { "match" } else { "DIFFER" },
        layers.pmis,
        c1.since(&c0, "pmsim_pmi_total")
    );
    println!("    tenants.arbitrate_ns           {arbitrate_ns:>10.1} ns  (per Arbiter::arbitrate over {TENANTS} requests)");
    println!(
        "    tenants.trace_gen_s            {gen_s:>10.4} s   (sum of ScenarioSpec::tenant_trace)"
    );
    println!("    tenants.epochs                 {epochs:>10}");
    println!("    tenants.context_switches       {switches:>10}");
    println!(
        "    tenants.cap_violation_s        {:>10}     (must be 0; counted in failed)",
        cluster.cap_violation_s
    );
    println!(
        "    reconciliation: untraced unit {wall_s:.4} s vs layer self time {attributed:.4} s \
         (trace gen {gen_s:.4} + run_to_pmi/step/set_dvfs {:.4} + vCPU and arbiter {scaled_s:.4})",
        layers.redrive_layer_s
    );
    report.layers(
        &layers,
        &c0,
        &c1,
        traced_s / wall_s - 1.0,
        (wall_s - attributed).abs() / wall_s,
    );
    report.tracer = Some(tracer);
    Ok(report)
}
