//! The registered bench areas: every hot path the workspace gates on.
//!
//! An [`Area`] is a named, self-contained measurement — it builds its
//! own inputs, runs a fixed amount of work per iteration, and returns
//! raw per-iteration nanoseconds for [`Summary`]
//! to digest. Areas carry an [`expected_ratio`](Area::expected_ratio):
//! the cost of one iteration relative to the calibration baseline,
//! measured once on an idle machine and committed. The CI gate flags an
//! area when its live ratio exceeds `multiplier × expected_ratio`, so
//! the committed constants are machine-independent by construction.

use crate::stats::Summary;
use livephase_core::predict::spec::MAX_WINDOW;
use livephase_core::{
    FixedWindow, Gpht, GphtConfig, PhaseId, PhaseSample, Predictor, Selector, VariableWindow,
};
use livephase_daq::{DaqLog, DaqSystem};
use livephase_engine::{Decision, DecisionEngine, EngineConfig};
use livephase_governor::Manager;
use livephase_pmsim::{
    AnalyticModel, Cpu, IntervalWork, LinearModel, OperatingPointTable, PlatformConfig, PowerInput,
    PowerModel, TrainingRecord, TreeModel,
};
use livephase_serve::wire::{encode_into, Frame, FrameDecoder};
use livephase_telemetry::Histogram;
use livephase_tenants::{run_scenario, Arbiter, ArbiterPolicy, Request, ScenarioSpec};
use livephase_workloads::spec;
use std::time::Instant;

/// Default timed iterations per area.
pub const DEFAULT_ITERS: usize = 30;
/// Default untimed warmup iterations per area.
pub const DEFAULT_WARMUP: usize = 3;

/// One registered hot path.
pub struct Area {
    /// Stable identifier; becomes the `BENCH_<name>.json` filename.
    pub name: &'static str,
    /// One-line description of what an iteration does.
    pub what: &'static str,
    /// Committed cost of one iteration relative to the calibration
    /// baseline, measured on an idle machine. The gate threshold is
    /// `multiplier × expected_ratio × baseline_ns`.
    pub expected_ratio: f64,
    /// Runs `warmup` untimed then `iters` timed iterations, returning
    /// per-iteration nanoseconds.
    pub run: fn(warmup: usize, iters: usize) -> Vec<u64>,
}

impl Area {
    /// Measures this area and summarizes the samples.
    #[must_use]
    pub fn measure(&self, warmup: usize, iters: usize) -> Summary {
        let ns = (self.run)(warmup, iters.max(1));
        Summary::from_ns(&ns).expect("iters >= 1 yields samples")
    }
}

/// Times `iters` invocations of `iter` after `warmup` untimed ones.
fn timed(warmup: usize, iters: usize, mut iter: impl FnMut()) -> Vec<u64> {
    for _ in 0..warmup {
        iter();
    }
    let mut ns = Vec::with_capacity(iters);
    for _ in 0..iters {
        let started = Instant::now();
        iter();
        ns.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    ns
}

fn deployed_engine() -> DecisionEngine {
    DecisionEngine::from_spec(EngineConfig::pentium_m(), "gpht:8:128")
        .expect("the deployed predictor spec is valid")
}

/// `engine_step`: 1000 single-sample steps through the decision engine
/// — the per-interval path a PMI handler would take.
fn run_engine_step(warmup: usize, iters: usize) -> Vec<u64> {
    let samples = crate::calibrate::calibration_samples(1000);
    let mut engine = deployed_engine();
    timed(warmup, iters, || {
        let mut acc = 0u32;
        for s in &samples {
            acc = acc.wrapping_add(u32::from(engine.step(s).op_point));
        }
        std::hint::black_box(acc);
    })
}

/// `engine_step_many`: one batched `step_many` over 1000 samples — the
/// serve shard's drain path.
fn run_engine_step_many(warmup: usize, iters: usize) -> Vec<u64> {
    let samples = crate::calibrate::calibration_samples(1000);
    let mut engine = deployed_engine();
    let mut decisions: Vec<Decision> = Vec::with_capacity(samples.len());
    timed(warmup, iters, || {
        decisions.clear();
        engine.step_many(&samples, &mut decisions);
        std::hint::black_box(decisions.last().map_or(0, |d| d.op_point));
    })
}

/// `gpht_observe`: 1000 observe-and-predict calls on each of a warm
/// GPHT(8,128), the deployed size, and GPHT(8,1024), the reference
/// size Figures 2, 4 and 5 sweep — the predictor inside the PMI handler.
/// The period-14 stream fills 14 rows and then only hits them, which
/// was the best case of the linear tag scan the indexed table replaced
/// (every match within the first 14 rows, no victim scan, no tag
/// allocation), so this area understates that change.
fn run_gpht_observe(warmup: usize, iters: usize) -> Vec<u64> {
    let samples: Vec<PhaseSample> = crate::synthetic_phase_pattern(1000)
        .into_iter()
        .map(|p| PhaseSample::new(f64::from(p) * 0.005, PhaseId::new(p)))
        .collect();
    let mut tables = [GphtConfig::DEPLOYED, GphtConfig::REFERENCE].map(Gpht::new);
    // Warm the tables so the steady-state search cost is measured.
    for gpht in &mut tables {
        for &s in &samples {
            gpht.observe(s);
        }
    }
    timed(warmup, iters, || {
        let mut acc = 0u32;
        for gpht in &mut tables {
            for &s in &samples {
                acc = acc.wrapping_add(u32::from(gpht.next(s).get()));
            }
        }
        std::hint::black_box(acc);
    })
}

/// `window_observe`: 1000 observe-and-predict calls on each of Figure 4's
/// window predictors — fixed windows of 8 and 128, variable windows of
/// 128 at thresholds 0.005 and 0.030 — and on a fixed window of
/// `MAX_WINDOW` (16384), the largest a predictor spec accepts. Every
/// window is warmed full first, so each call also evicts; neighbouring
/// phases are 0.005 apart in Mem/Uop, so the 0.005 window flushes on
/// every jump of two phases and the 0.030 window never does.
fn run_window_observe(warmup: usize, iters: usize) -> Vec<u64> {
    let samples: Vec<PhaseSample> = crate::synthetic_phase_pattern(1000)
        .into_iter()
        .map(|p| PhaseSample::new(f64::from(p) * 0.005, PhaseId::new(p)))
        .collect();
    let mut windows: [Box<dyn Predictor>; 5] = [
        Box::new(FixedWindow::new(8, Selector::Majority)),
        Box::new(FixedWindow::new(128, Selector::Majority)),
        Box::new(VariableWindow::new(128, 0.005)),
        Box::new(VariableWindow::new(128, 0.030)),
        Box::new(FixedWindow::new(MAX_WINDOW, Selector::Majority)),
    ];
    for window in &mut windows {
        for &s in samples.iter().cycle().take(MAX_WINDOW) {
            window.observe(s);
        }
    }
    timed(warmup, iters, || {
        let mut acc = 0u32;
        for window in &mut windows {
            for &s in &samples {
                acc = acc.wrapping_add(u32::from(window.next(s).get()));
            }
        }
        std::hint::black_box(acc);
    })
}

/// `governor_run`: one whole managed run — the deployed GPHT system over
/// 200 applu intervals on the simulated CPU, PMI handler included.
fn run_governor_run(warmup: usize, iters: usize) -> Vec<u64> {
    let trace = spec::benchmark("applu_in")
        .expect("applu_in is registered")
        .with_length(200)
        .generate(1);
    let platform = PlatformConfig::pentium_m();
    timed(warmup, iters, || {
        let report = Manager::gpht_deployed().run(&trace, &platform);
        std::hint::black_box(report.dvfs_transitions);
    })
}

/// `pmsim_run_to_pmi`: 1000 simulated 100 M-uop sampling intervals,
/// each queued with `push_work` and run to its PMI with `run_to_pmi`,
/// flipping the DVFS setting between the extremes on every interval.
fn run_pmsim_run_to_pmi(warmup: usize, iters: usize) -> Vec<u64> {
    let platform = PlatformConfig::pentium_m();
    let mut cpu = Cpu::new(&platform);
    let work = IntervalWork::new(100_000_000, 80_000_000, 1_200_000, 0.8, 2.0);
    let slowest = platform.opp_table.len() - 1;
    let mut flip = false;
    timed(warmup, iters, || {
        for _ in 0..1000 {
            flip = !flip;
            cpu.set_dvfs(usize::from(flip) * slowest)
                .expect("both extremes are valid settings");
            cpu.push_work(work);
            std::hint::black_box(cpu.run_to_pmi());
        }
    })
}

/// `daq_measure`: one `measure_all` pass of the DAQ chain over a
/// Figure 10-shaped pair of waveforms — applu unmanaged and
/// GPHT-managed, 8 intervals each: 27 324 + 29 475 samples at 40 µs,
/// so 29 475 sample instants and 88 425 normals. That is past the
/// 16 384-instant spawn threshold, so on two or more cores a producer
/// thread draws them in 16 blocks of 1792 instants and one of 803,
/// through a ring of three buffers, while the calling thread steps the
/// traces through the block before; on one core they are drawn inline,
/// in 28 blocks of 1024 and one of 803. The two traces are stepped in
/// lockstep until the shorter one ends; the rest of the longer is fed
/// alone.
fn run_daq_measure(warmup: usize, iters: usize) -> Vec<u64> {
    let bench = spec::benchmark("applu_in")
        .expect("applu_in is registered")
        .with_length(8);
    let platform = PlatformConfig::pentium_m().with_power_trace();
    let reports = [
        Manager::baseline().run(bench.stream(1), &platform),
        Manager::gpht_deployed().run(bench.stream(1), &platform),
    ];
    let waveforms = reports
        .each_ref()
        .map(|r| r.power_trace.as_ref().expect("waveform recorded"));
    let daq = DaqSystem::pentium_m(1);
    timed(warmup, iters, || {
        let logs = daq.measure_all(&waveforms);
        std::hint::black_box(logs.iter().map(DaqLog::samples_taken).sum::<u64>());
    })
}

/// The 1000-frame traffic mix the wire areas encode and decode:
/// alternating samples and decisions, the steady-state protocol load.
fn wire_frames() -> Vec<Frame> {
    (0..1000u32)
        .map(|i| {
            if i % 2 == 0 {
                Frame::Sample {
                    pid: i % 16,
                    uops: 100_000_000 + u64::from(i) * 1_000,
                    mem_trans: 2_000_000 + u64::from(i) * 37,
                    tsc_delta: 180_000_000,
                }
            } else {
                Frame::Decision {
                    pid: i % 16,
                    op_point: (i % 6) as u8,
                    confidence: (i % 10_000) as u16,
                }
            }
        })
        .collect()
}

/// `wire_encode`: encode the 1000-frame mix into a reused buffer, four
/// times, so the median (≈50 µs) clears the gate's 20 µs floor.
fn run_wire_encode(warmup: usize, iters: usize) -> Vec<u64> {
    let frames = wire_frames();
    let mut buf = Vec::with_capacity(64 * 1024);
    timed(warmup, iters, || {
        for _ in 0..4 {
            buf.clear();
            for f in &frames {
                encode_into(f, &mut buf);
            }
            std::hint::black_box(buf.len());
        }
    })
}

/// `wire_decode`: feed the encoded 1000-frame mix through a
/// `FrameDecoder` and drain every frame.
fn run_wire_decode(warmup: usize, iters: usize) -> Vec<u64> {
    let frames = wire_frames();
    let mut bytes = Vec::with_capacity(64 * 1024);
    for f in &frames {
        encode_into(f, &mut bytes);
    }
    timed(warmup, iters, || {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        let mut n = 0usize;
        while let Ok(Some(_)) = decoder.next_frame() {
            n += 1;
        }
        std::hint::black_box(n);
    })
}

/// `telemetry_record`: 4000 varied-magnitude records into a local
/// histogram — the cost every instrumented hot path pays.
fn run_telemetry_record(warmup: usize, iters: usize) -> Vec<u64> {
    // Magnitudes spanning the bucket range so sub-bucket and bucket
    // indexing both get exercised.
    let values: Vec<u64> = (0..4000u64)
        .map(|i| (i % 40) * (1 << (i % 20)) + 1)
        .collect();
    let h = Histogram::new();
    timed(warmup, iters, || {
        for &v in &values {
            h.record(v);
        }
        std::hint::black_box(h.count());
    })
}

/// `telemetry_quantile`: read a prefilled histogram the way a scrape
/// renders it — every non-empty bucket, then p50/p90/p99 — ten times,
/// so the median (≈37 µs) clears the gate's 20 µs floor.
fn run_telemetry_quantile(warmup: usize, iters: usize) -> Vec<u64> {
    let h = Histogram::new();
    for i in 0..10_000u64 {
        h.record((i % 50) * (1 << (i % 16)) + 1);
    }
    timed(warmup, iters, || {
        for _ in 0..10 {
            let mut buckets = 0u64;
            h.for_each_nonempty(|upper, n| buckets = buckets.wrapping_add(upper ^ n));
            let p50 = h.quantile(0.50).unwrap_or(0);
            let p90 = h.quantile(0.90).unwrap_or(0);
            let p99 = h.quantile(0.99).unwrap_or(0);
            std::hint::black_box(buckets.wrapping_add(p50 + p90 + p99));
        }
    })
}

/// `workload_gen`: synthesize a 256-interval counter trace from the
/// benchmark registry — the input side of every experiment — four
/// times, so the median (≈90 µs) clears the gate's 20 µs floor.
fn run_workload_gen(warmup: usize, iters: usize) -> Vec<u64> {
    let mut seed = 0u64;
    timed(warmup, iters, || {
        for _ in 0..4 {
            seed = seed.wrapping_add(1);
            let trace = spec::benchmark("applu_in")
                .expect("applu_in is registered")
                .with_length(256)
                .generate(seed);
            std::hint::black_box(trace.len());
        }
    })
}

/// `tenants_quantum`: one small multi-tenant scenario end to end —
/// arbitration, scheduling quanta, and per-tenant engines.
fn run_tenants_quantum(warmup: usize, iters: usize) -> Vec<u64> {
    let mut spec = ScenarioSpec::new(4, 2);
    spec.intervals = 8;
    timed(warmup, iters, || {
        let report = run_scenario(&spec).expect("the bundled scenario is valid");
        std::hint::black_box(report.decision_digest());
    })
}

/// `tenants_arbitrate`: the arbiter calls of eight `tenants_cluster`
/// epochs. Each epoch is one water-fill arbitration of 64 requests on 2
/// cores under a binding 18 W budget, plus the 64 one-request/one-core
/// arbitrations its 64 solo oracle runs make under their unconstraining
/// budget; one priority arbitration of the 64 requests rides along.
fn run_tenants_arbitrate(warmup: usize, iters: usize) -> Vec<u64> {
    let platform = PlatformConfig::pentium_m();
    let requests: Vec<Request> = (0..64u32)
        .map(|tenant| Request {
            tenant,
            core: tenant as usize % 2,
            requested_op: (tenant as usize * 7) % 6,
            // The top eight ids are the noisy neighbors.
            priority: u8::from(tenant < 56),
        })
        .collect();
    let solo_requests: Vec<Request> = requests.iter().map(|r| Request { core: 0, ..*r }).collect();
    let mut waterfill = Arbiter::new(&platform, 18.0, ArbiterPolicy::WaterFill, 2);
    let mut priority = Arbiter::new(&platform, 18.0, ArbiterPolicy::Priority, 2);
    let mut solo = Arbiter::new(&platform, 1e9, ArbiterPolicy::WaterFill, 1);
    timed(warmup, iters, || {
        std::hint::black_box(priority.arbitrate(&requests));
        for _ in 0..8 {
            std::hint::black_box(waterfill.arbitrate(&requests));
            for request in &solo_requests {
                std::hint::black_box(solo.arbitrate(std::slice::from_ref(request)));
            }
        }
    })
}

/// Deterministic training set for the power-model area: the analytic
/// model's output over a fixed feature sweep at every operating point.
/// The learned backends fit this exactly well enough for the bench to
/// exercise their real inference paths on realistic coefficients.
fn power_training_records() -> Vec<TrainingRecord> {
    let truth = AnalyticModel::pentium_m();
    let table = OperatingPointTable::pentium_m();
    let mut out = Vec::new();
    for (_, opp) in table.iter() {
        for k in 0..8u32 {
            let cf = 0.15 + 0.1 * f64::from(k);
            let input = PowerInput::new(cf, 0.05 * (1.0 - cf), 0.5 + 1.5 * cf);
            out.push(TrainingRecord {
                opp,
                input,
                measured_w: truth.power(opp, &input),
            });
        }
    }
    out
}

/// `power_model_eval`: 1000 sweeps of all three power backends across
/// the six operating points — the estimator-table / arbiter-costing
/// inner loop. Fitting happens outside the timed region; only inference
/// is measured.
fn run_power_model_eval(warmup: usize, iters: usize) -> Vec<u64> {
    let records = power_training_records();
    let analytic = AnalyticModel::pentium_m();
    let linear = LinearModel::fit(&records).expect("the synthetic sweep is well-posed");
    let tree = TreeModel::fit(&records).expect("the synthetic sweep is well-posed");
    let table = OperatingPointTable::pentium_m();
    let inputs = [
        PowerInput::from_counters(0.002, 1.8),
        PowerInput::from_counters(0.031, 0.6),
        PowerInput::new(0.55, 0.012, 1.1),
    ];
    timed(warmup, iters, || {
        let mut acc = 0.0f64;
        for _ in 0..1000 {
            for (_, opp) in table.iter() {
                for input in &inputs {
                    acc += analytic.power(opp, input);
                    acc += linear.power(opp, input);
                    acc += tree.power(opp, input);
                }
            }
        }
        std::hint::black_box(acc);
    })
}

/// Every registered area, in report order.
///
/// `expected_ratio` values were measured with `livephase-cli bench
/// --json` on an idle machine (median of the committed trajectory under
/// `results/bench/`), then rounded up ~25% so ordinary scheduling
/// jitter does not eat into the gate multiplier.
///
/// The calibration workload is the engine, so speeding the engine up
/// lowers `baseline_ns` and raises every other area's ratio by the same
/// factor. When that happens, an area whose own code did not change may
/// have its ratio raised by at most that factor, so its absolute
/// threshold `expected_ratio × baseline_ns` does not rise.
#[must_use]
pub fn registry() -> &'static [Area] {
    &[
        Area {
            name: "engine_step",
            what: "1000 single-sample DecisionEngine::step calls",
            expected_ratio: 0.15,
            run: run_engine_step,
        },
        Area {
            name: "engine_step_many",
            what: "one DecisionEngine::step_many over 1000 samples",
            expected_ratio: 0.15,
            run: run_engine_step_many,
        },
        Area {
            name: "gpht_observe",
            what: "1000 Gpht::next calls on each of a warm GPHT(8,128) and GPHT(8,1024)",
            expected_ratio: 0.086,
            run: run_gpht_observe,
        },
        Area {
            name: "window_observe",
            what: "1000 observe-and-predict calls on each of five warm window predictors",
            expected_ratio: 0.16,
            run: run_window_observe,
        },
        Area {
            name: "governor_run",
            what: "one GPHT-managed run over 200 applu intervals",
            expected_ratio: 0.094,
            run: run_governor_run,
        },
        Area {
            name: "pmsim_run_to_pmi",
            what: "1000 push_work + run_to_pmi intervals with a set_dvfs flip on each",
            expected_ratio: 0.154,
            run: run_pmsim_run_to_pmi,
        },
        Area {
            name: "daq_measure",
            what: "one DaqSystem::measure_all over an 8-interval applu baseline/GPHT pair",
            expected_ratio: 1.4,
            run: run_daq_measure,
        },
        Area {
            name: "wire_encode",
            what: "encode 1000 sample/decision frames into a reused buffer, 4 times",
            expected_ratio: 0.12,
            run: run_wire_encode,
        },
        Area {
            name: "wire_decode",
            what: "FrameDecoder over a 1000-frame buffer, drained",
            expected_ratio: 0.07,
            run: run_wire_decode,
        },
        Area {
            name: "telemetry_record",
            what: "4000 varied-magnitude Histogram::record calls",
            expected_ratio: 0.185,
            run: run_telemetry_record,
        },
        Area {
            name: "telemetry_quantile",
            what: "10 times: visit a 10k-sample histogram's buckets and read p50/p90/p99",
            expected_ratio: 0.096,
            run: run_telemetry_quantile,
        },
        Area {
            name: "workload_gen",
            what: "synthesize a 256-interval applu_in counter trace, 4 times",
            expected_ratio: 0.18,
            run: run_workload_gen,
        },
        Area {
            name: "tenants_quantum",
            what: "one 4-tenant/2-core/8-interval cluster scenario",
            expected_ratio: 0.094,
            run: run_tenants_quantum,
        },
        Area {
            name: "tenants_arbitrate",
            what: "8 epochs of a 64-request water-fill (2 cores, 18 W) and 64 solo calls, 1 priority call",
            expected_ratio: 0.11,
            run: run_tenants_arbitrate,
        },
        Area {
            name: "power_model_eval",
            what: "1000 sweeps of analytic/linear/tree power inference over 6 opps",
            expected_ratio: 0.94,
            run: run_power_model_eval,
        },
    ]
}

/// Looks an area up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Area> {
    registry().iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let areas = registry();
        assert!(areas.len() >= 5, "the gate needs at least five areas");
        for (i, a) in areas.iter().enumerate() {
            assert!(find(a.name).is_some());
            assert!(
                !areas[..i].iter().any(|b| b.name == a.name),
                "duplicate area name {}",
                a.name
            );
            assert!(a.expected_ratio > 0.0);
            assert!(
                a.name.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "area names are snake_case: {}",
                a.name
            );
        }
        assert!(find("no_such_area").is_none());
    }

    #[test]
    fn every_area_produces_a_summary() {
        for a in registry() {
            let s = a.measure(0, 2);
            assert_eq!(s.iterations, 2, "{}", a.name);
            assert!(s.max_ns >= s.min_ns, "{}", a.name);
        }
    }
}
