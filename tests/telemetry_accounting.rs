//! Telemetry accounting: the engine, the simulated CPU, the tenants
//! runner and the arbiter keep plain tallies on their hot paths and
//! publish them to the process-global registry in bulk. Whenever an engine has been flushed
//! or dropped, every registry counter must have moved by exactly the
//! work done — no decision, PMI or context switch lost or counted twice.
//!
//! The registry is process-global, so this binary holds a single test:
//! nothing else moves the counters between its snapshots.

use livephase::core::PhaseId;
use livephase::engine::{Decision, DecisionEngine, EngineConfig, Sample};
use livephase::governor::Manager;
use livephase::pmsim::{Cpu, PlatformConfig};
use livephase::tenants::{run_scenario, Arbiter, ArbiterPolicy, Request, ScenarioSpec};
use livephase::workloads::{counter_samples, spec, WorkloadTrace};

/// Current value of the counter series `name{labels}`.
fn counter(name: &str, labels: &[(&str, &str)]) -> u64 {
    livephase::telemetry::global()
        .counter(name, "", labels)
        .get()
}

/// The engine-level series, read together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EngineSeries {
    decisions: u64,
    latency_records: u64,
    scored: u64,
    evicted: u64,
}

impl EngineSeries {
    fn read() -> Self {
        Self {
            decisions: counter("governor_decisions_total", &[]),
            latency_records: livephase::telemetry::global()
                .histogram("governor_decision_us", "", &[])
                .count(),
            scored: counter("governor_predictor_hits_total", &[])
                + counter("governor_predictor_misses_total", &[]),
            evicted: counter("engine_pids_evicted_total", &[]),
        }
    }

    fn since(self, earlier: Self) -> Self {
        Self {
            decisions: self.decisions - earlier.decisions,
            latency_records: self.latency_records - earlier.latency_records,
            scored: self.scored - earlier.scored,
            evicted: self.evicted - earlier.evicted,
        }
    }
}

fn trace(length: usize) -> WorkloadTrace {
    spec::benchmark("applu_in")
        .unwrap()
        .with_length(length)
        .generate(3)
}

/// `trace`'s counter samples, round-robined across `pids` pids.
fn interleaved(trace: &WorkloadTrace, pids: u32) -> Vec<Sample> {
    counter_samples(trace)
        .enumerate()
        .map(|(i, s)| Sample {
            pid: i as u32 % pids,
            uops: s.uops,
            mem_transactions: s.mem_transactions,
        })
        .collect()
}

fn engine() -> DecisionEngine {
    DecisionEngine::from_spec(EngineConfig::pentium_m(), "gpht:8:128").unwrap()
}

#[test]
fn registry_counters_account_for_every_tally() {
    // Engine, flushed: 100 single steps, a 37-sample step_many, 5 more
    // steps and two tail scores — no call count a multiple of 64.
    let samples = interleaved(&trace(150), 3);
    let before = EngineSeries::read();
    let mut e = engine();
    for s in &samples[..100] {
        let _ = e.step(s);
    }
    let mut out: Vec<Decision> = Vec::new();
    e.step_many(&samples[100..137], &mut out);
    let after_batch = EngineSeries::read().since(before);
    assert_eq!(
        (after_batch.decisions, after_batch.latency_records),
        (137, 137),
        "step_many publishes every pending decision, step's included"
    );
    for s in &samples[137..142] {
        let _ = e.step(s);
    }
    let tails = [0, 1].map(|pid| e.score_tail(pid, PhaseId::new(3)));
    assert!(
        tails.iter().all(Option::is_some),
        "both pids had a standing prediction"
    );
    e.flush_metrics();
    let moved = EngineSeries::read().since(before);
    assert_eq!(moved.decisions, 142);
    assert_eq!(
        moved.latency_records, 142,
        "one latency record per decision"
    );
    assert_eq!(moved.scored, e.stats().total, "score_tail included");
    assert_eq!(moved.evicted, 0);
    e.flush_metrics();
    assert_eq!(
        EngineSeries::read().since(before),
        moved,
        "flushing is idempotent"
    );

    // Engine, dropped unflushed: 70 steps and a 9-sample batch over three
    // pids under a two-pid bound, so all but the first two touches evict.
    let before = EngineSeries::read();
    let mut e = engine().with_max_pids(2);
    for s in &samples[..70] {
        let _ = e.step(s);
    }
    out.clear();
    e.step_many(&samples[70..79], &mut out);
    let scored = e.stats().total;
    drop(e);
    let moved = EngineSeries::read().since(before);
    assert_eq!(moved.decisions, 79);
    assert_eq!(moved.latency_records, 79);
    assert_eq!(moved.scored, scored);
    assert_eq!(moved.evicted, 77);

    // pmsim: two dropped CPUs plus a managed run; PMIs counted by hand.
    let pmis_before = counter("pmsim_pmi_total", &[]);
    let rearms_before = counter("pmsim_pmi_rearm_total", &[]);
    let platform = PlatformConfig::pentium_m();
    let mut delivered = 0u64;
    for length in [70, 130] {
        let mut cpu = Cpu::new(&platform);
        for w in trace(length).intervals() {
            cpu.push_work(*w);
        }
        while cpu.run_to_pmi().is_some() {
            delivered += 1;
        }
        if cpu.flush_partial_interval().is_some() {
            delivered += 1;
        }
        cpu.set_pmi_granularity(platform.pmi_granularity_uops * 2);
    }
    assert_eq!(counter("pmsim_pmi_total", &[]) - pmis_before, delivered);
    assert_eq!(counter("pmsim_pmi_rearm_total", &[]) - rearms_before, 2);
    let report = Manager::gpht_deployed().run(trace(90), &platform);
    assert_eq!(
        counter("pmsim_pmi_total", &[]) - pmis_before,
        delivered + report.intervals.len() as u64
    );

    // tenants: the report's own counts.
    let mut scenario = ScenarioSpec::new(5, 2);
    scenario.intervals = 7;
    let switches_before = counter("tenants_context_switches_total", &[]);
    let labels: Vec<String> = (0..5).map(|t: u32| t.to_string()).collect();
    let intervals_before: Vec<u64> = labels
        .iter()
        .map(|t| counter("tenants_intervals_total", &[("tenant", t)]))
        .collect();
    let engine_before = EngineSeries::read();
    let cluster = run_scenario(&scenario).unwrap();
    assert_eq!(
        counter("tenants_context_switches_total", &[]) - switches_before,
        cluster.context_switches
    );
    let mut intervals = 0;
    for ((t, label), before) in cluster.tenants.iter().zip(&labels).zip(&intervals_before) {
        let moved = counter("tenants_intervals_total", &[("tenant", label)]) - before;
        assert_eq!(moved, t.intervals, "tenant {label}");
        intervals += t.intervals;
    }
    assert_eq!(
        EngineSeries::read().since(engine_before).decisions,
        intervals,
        "one engine decision per tenant interval"
    );

    // Arbiter: outcomes are tallied per call and added once per
    // (setting, outcome), so the per-setting series and the arbiter's
    // totals are exact after every call. 64 requests spread over every
    // setting under a binding 18 W budget, so both outcomes occur.
    let requests: Vec<Request> = (0..64u32)
        .map(|t| Request {
            tenant: t,
            core: t as usize % 2,
            requested_op: t as usize % 6,
            priority: (t % 3) as u8,
        })
        .collect();
    let by_op = |name: &str| -> Vec<u64> {
        (0..6)
            .map(|op: usize| counter(name, &[("op", &op.to_string())]))
            .collect()
    };
    for policy in [ArbiterPolicy::WaterFill, ArbiterPolicy::Priority] {
        let mut arbiter = Arbiter::new(&platform, 18.0, policy, 2);
        for round in 0..3 {
            let (grants_before, denials_before) = (
                by_op("tenants_arbiter_grants_total"),
                by_op("tenants_arbiter_denials_total"),
            );
            let totals_before = (arbiter.grants_total(), arbiter.denials_total());
            let grants = arbiter.arbitrate(&requests[round * 8..]);
            let (mut granted, mut denied) = (vec![0u64; 6], vec![0u64; 6]);
            for g in &grants {
                if g.denied {
                    denied[g.op] += 1;
                } else {
                    granted[g.op] += 1;
                }
            }
            assert!(denied.iter().sum::<u64>() > 0, "{policy}: the budget binds");
            let moved = |now: Vec<u64>, then: Vec<u64>| -> Vec<u64> {
                now.iter().zip(&then).map(|(n, t)| n - t).collect()
            };
            assert_eq!(
                moved(by_op("tenants_arbiter_grants_total"), grants_before),
                granted
            );
            assert_eq!(
                moved(by_op("tenants_arbiter_denials_total"), denials_before),
                denied
            );
            assert_eq!(
                (arbiter.grants_total(), arbiter.denials_total()),
                (
                    totals_before.0 + granted.iter().sum::<u64>(),
                    totals_before.1 + denied.iter().sum::<u64>()
                ),
                "{policy} round {round}"
            );
        }
    }
}
