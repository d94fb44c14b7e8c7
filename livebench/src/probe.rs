//! Reading the program's own counters, and the layer probes every
//! traced run shares.
//!
//! Counters live in one process-global registry that set-up work (the
//! oracle engines, for instance) also records into, so every figure
//! here is a delta between two snapshots taken around a timed region.
//!
//! The probes re-drive a workload's own interval streams through the
//! layers' public functions — workload stream → `Cpu::run_to_pmi` →
//! `DecisionEngine::step` → `Cpu::set_dvfs` — with a call span around
//! each call, then time the leaf functions (`Predictor::next`,
//! `Histogram::record`, `PowerModel::power`, `load_vcpu`/`store_vcpu`,
//! `step_many`) in tight loops over the same inputs.

use crate::trace::{per_call_ns, Tracer};
use livephase_core::{predictor_from_spec, PhaseMap, PhaseSample};
use livephase_engine::{Decision, DecisionEngine, EngineConfig, Sample};
use livephase_governor::Manager;
use livephase_pmsim::{Cpu, PlatformConfig, PmiRecord, PowerInput, PowerModel, VcpuContext};
use livephase_telemetry::Histogram;
use livephase_tenants::{fnv1a, DIGEST_SEED};
use livephase_workloads::WorkloadTrace;
use std::collections::BTreeMap;
use std::time::Instant;

/// The deployed predictor every workload runs.
pub const PREDICTOR: &str = "gpht:8:128";

/// Every series of the global registry, summed per exposition name
/// (histograms contribute `<name>_count` and `<name>_sum`).
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// Snapshots the global registry.
    pub fn snapshot() -> Self {
        let mut sums = BTreeMap::new();
        for line in livephase_telemetry::global().render().lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let name = series.split('{').next().unwrap_or(series);
            if let Ok(v) = value.parse::<f64>() {
                *sums.entry(name.to_owned()).or_insert(0.0) += v;
            }
        }
        Self(sums)
    }

    /// How far `name` advanced since `earlier`.
    pub fn since(&self, earlier: &Counters, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0) - earlier.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Bucket counts of one histogram family (all series merged), keyed by
/// bucket upper bound.
#[derive(Debug, Clone, Default)]
pub struct Buckets(BTreeMap<u64, u64>);

impl Buckets {
    /// Snapshots every series of `family` in the global registry.
    pub fn snapshot(family: &str) -> Self {
        let mut b = BTreeMap::new();
        livephase_telemetry::global().visit_histograms(|name, _, h| {
            if name == family {
                h.for_each_nonempty(|upper, n| *b.entry(upper).or_insert(0) += n);
            }
        });
        Self(b)
    }

    /// The observations recorded since `earlier`.
    pub fn since(&self, earlier: &Buckets) -> Buckets {
        Buckets(
            self.0
                .iter()
                .map(|(&k, &n)| (k, n - earlier.0.get(&k).copied().unwrap_or(0)))
                .filter(|&(_, n)| n > 0)
                .collect(),
        )
    }

    /// Observations held.
    pub fn count(&self) -> u64 {
        self.0.values().sum()
    }

    /// Nearest-rank quantile (a bucket upper bound), 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let rank = ((q * self.count() as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (&upper, &n) in &self.0 {
            seen += n;
            if seen >= rank {
                return upper;
            }
        }
        0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One PMI the re-drive handled: what the engine saw and what the
/// power model would be asked about.
#[derive(Debug, Clone, Copy)]
struct Pmi {
    sample: Sample,
    power: (usize, PowerInput),
}

/// What the per-layer probes measured on one workload's streams.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub gen_ns_per_interval: f64,
    pub pmi_ns: f64,
    pub pmis: u64,
    pub power_ns: f64,
    pub vcpu_switch_ns: f64,
    pub gpht_ns: f64,
    pub step_ns: f64,
    pub step_many_ns_per_sample: f64,
    pub record_ns: f64,
    pub governor_ns_per_pmi: f64,
    pub governor_self_frac: f64,
    /// Net seconds the re-drive spent in `run_to_pmi`, `step` and
    /// `set_dvfs` call spans.
    pub redrive_layer_s: f64,
    /// Wall seconds of the traced re-drive, spans included.
    pub redrive_wall_s: f64,
    /// Per stream (in input order): the tenants-style decision digest
    /// and the operating points decided.
    pub digests: Vec<u64>,
    pub ops: Vec<Vec<usize>>,
    /// Whether `Manager::run` decided exactly what the re-drive did.
    pub governor_agrees: bool,
}

/// Re-drives `streams` (pid, trace) through pmsim and the engine with a
/// call span around each layer call, then probes the leaf layers on the
/// same inputs. `step_tail` also decides on each stream's off-grid tail
/// (the tenants runner does; `Manager::run` only scores it). `batch` is
/// the `step_many` batch size to probe at.
pub fn layers(
    tr: &mut Tracer,
    streams: &[(u32, WorkloadTrace)],
    gen_s: f64,
    step_tail: bool,
    batch: usize,
) -> Layers {
    let platform = PlatformConfig::pentium_m();
    let intervals: usize = streams.iter().map(|(_, t)| t.len()).sum();
    let mut out = Layers {
        gen_ns_per_interval: gen_s * 1e9 / intervals.max(1) as f64,
        ..Layers::default()
    };

    // Re-drive with call spans.
    tr.begin("redrive");
    let k_pmi = tr.key("pmsim.run_to_pmi");
    let k_step = tr.key("engine.step");
    let k_dvfs = tr.key("pmsim.set_dvfs");
    let mut engine = DecisionEngine::from_spec(EngineConfig::pentium_m(), PREDICTOR)
        .expect("the deployed predictor spec parses");
    let mut pmis: Vec<Vec<Pmi>> = Vec::with_capacity(streams.len());
    for (pid, trace) in streams {
        let mut cpu = Cpu::new(&platform);
        for w in trace.intervals() {
            cpu.push_work(*w);
        }
        let mut digest = DIGEST_SEED;
        let mut ops = Vec::with_capacity(trace.len());
        let mut seen = Vec::with_capacity(trace.len());
        let mut handle = |cpu: &mut Cpu<'_>, tr: &mut Tracer, rec: &PmiRecord| {
            let uops = rec.metrics.uops_retired;
            if uops == 0 {
                return;
            }
            let sample = Sample {
                pid: *pid,
                uops,
                mem_transactions: rec.metrics.mem_transactions,
            };
            let d = tr.call(k_step, || engine.step(&sample));
            digest = digest_decision(digest, &d);
            ops.push(usize::from(d.op_point));
            seen.push(Pmi {
                sample,
                power: (
                    rec.dvfs_index,
                    PowerInput::from_counters(rec.metrics.mem_uop().get(), rec.metrics.upc().get()),
                ),
            });
            tr.call(k_dvfs, || cpu.set_dvfs(usize::from(d.op_point)))
                .expect("engine op points index the platform table");
        };
        while let Some(rec) = tr.call(k_pmi, || cpu.run_to_pmi()) {
            out.pmis += 1;
            handle(&mut cpu, tr, &rec);
        }
        if let Some(rec) = cpu.flush_partial_interval() {
            out.pmis += 1;
            if step_tail {
                handle(&mut cpu, tr, &rec);
            }
        }
        out.digests.push(digest);
        out.ops.push(ops);
        pmis.push(seen);
    }
    out.redrive_wall_s = tr.end();
    // Per PMI delivered: the last call per stream finds none.
    out.pmi_ns = tr.seconds(k_pmi) * 1e9 / out.pmis.max(1) as f64;
    out.redrive_layer_s = tr.seconds(k_pmi) + tr.seconds(k_step) + tr.seconds(k_dvfs);

    // The governor: Manager::run over the same streams, against the
    // re-drive's layer time.
    let started = Instant::now();
    let mut governed_pmis = 0u64;
    out.governor_agrees = true;
    for ((_, trace), ops) in streams.iter().zip(&out.ops) {
        let report = Manager::gpht_deployed().run(trace, &platform);
        governed_pmis += report.intervals.len() as u64;
        let governed = report.decision_trace();
        out.governor_agrees &= ops.get(..governed.len()) == Some(&governed[..]);
    }
    let manager_s = started.elapsed().as_secs_f64();
    out.governor_ns_per_pmi = manager_s * 1e9 / governed_pmis.max(1) as f64;
    // Signed: below zero, the re-drive's spans cost more than the
    // governor's whole run, i.e. tracing overhead exceeds its own work.
    out.governor_self_frac = 1.0 - out.redrive_layer_s / manager_s;

    // Leaf layers in tight loops over the re-drive's inputs, streams
    // interleaved round-robin as a multiplexing caller sees them.
    let samples = interleave(&pmis);
    let n = samples.len();
    let map = PhaseMap::pentium_m();
    let phase_samples: Vec<Vec<PhaseSample>> = pmis
        .iter()
        .map(|s| {
            s.iter()
                .map(|p| {
                    let rate = livephase_core::MemUopRate::from_counts(
                        p.sample.mem_transactions,
                        p.sample.uops,
                    );
                    PhaseSample {
                        rate,
                        phase: map.classify_rate(rate),
                    }
                })
                .collect()
        })
        .collect();
    out.gpht_ns = {
        let t = Instant::now();
        for stream in &phase_samples {
            let mut p = predictor_from_spec(PREDICTOR).expect("the deployed predictor spec parses");
            for s in stream {
                std::hint::black_box(p.next(*s));
            }
        }
        t.elapsed().as_nanos() as f64 / n.max(1) as f64
    };
    out.step_ns = median_fresh_engine(3, |engine| {
        for s in &samples {
            std::hint::black_box(engine.step(s));
        }
    }) / n.max(1) as f64;
    let batch = batch.max(1);
    out.step_many_ns_per_sample = median_fresh_engine(3, |engine| {
        let mut decided: Vec<Decision> = Vec::with_capacity(batch);
        for chunk in samples.chunks(batch) {
            decided.clear();
            engine.step_many(chunk, &mut decided);
            std::hint::black_box(&decided);
        }
    }) / n.max(1) as f64;
    let hist = Histogram::new();
    out.record_ns = per_call_ns(5, 200_000, |i| hist.record((i as u64 * 7919) % 5_000));
    let inputs: Vec<(usize, PowerInput)> = pmis.iter().flatten().map(|p| p.power).collect();
    let table = &platform.opp_table;
    out.power_ns = per_call_ns(5, inputs.len().max(1), |i| {
        let Some(&(op, input)) = inputs.get(i) else {
            return;
        };
        let opp = table.get(op).expect("PMI records carry platform indices");
        std::hint::black_box(if i % 2 == 0 {
            platform.power.power(opp, &input)
        } else {
            platform.power.worst_case(opp)
        });
    });
    let mut cpu = Cpu::new(&platform);
    let mut ctx = [
        VcpuContext::new(platform.pmi_granularity_uops),
        VcpuContext::new(platform.pmi_granularity_uops),
    ];
    out.vcpu_switch_ns = per_call_ns(5, 100_000, |i| {
        let c = &mut ctx[i % 2];
        cpu.load_vcpu(c);
        cpu.store_vcpu(c);
    });
    out
}

/// Folds one decision into a tenants-style decision digest, exactly as
/// the tenants runner digests its tenants' decisions.
fn digest_decision(digest: u64, d: &Decision) -> u64 {
    let digest = fnv1a(digest, &[d.phase.get(), d.predicted.get(), d.op_point]);
    fnv1a(digest, &d.confidence.to_le_bytes())
}

fn interleave(pmis: &[Vec<Pmi>]) -> Vec<Sample> {
    let longest = pmis.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| pmis.iter().filter_map(move |s| s.get(i).map(|p| p.sample)))
        .collect()
}

/// Median wall nanoseconds of `f` over `reps` runs, each on a fresh
/// engine so every run makes the same decisions.
fn median_fresh_engine(reps: usize, mut f: impl FnMut(&mut DecisionEngine)) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut engine = DecisionEngine::from_spec(EngineConfig::pentium_m(), PREDICTOR)
                .expect("the deployed predictor spec parses");
            let t = Instant::now();
            f(&mut engine);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&times)
}
