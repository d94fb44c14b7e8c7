//! Property-based tests for the DAQ measurement chain.

use livephase_daq::{DaqLog, DaqSystem, Sampler, SenseCircuit, SignalConditioner};
use livephase_pmsim::trace::{PowerSegment, PowerTrace};
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = PowerTrace> {
    proptest::collection::vec((1e-4f64..0.05, 0.5f64..15.0, 0u8..8), 1..20).prop_map(|v| {
        v.into_iter()
            .map(|(duration_s, power_w, pport_bits)| PowerSegment {
                duration_s,
                power_w,
                voltage_v: 1.2,
                pport_bits,
            })
            .collect()
    })
}

/// A trace for the shared-noise property: empty, shorter than one
/// sampling period, or an arbitrary segment list of a few milliseconds.
fn arb_capture() -> impl Strategy<Value = PowerTrace> {
    let segment = |duration| {
        (duration, 0.5f64..15.0, 0u8..8).prop_map(|(duration_s, power_w, pport_bits)| {
            PowerSegment {
                duration_s,
                power_w,
                voltage_v: 1.2,
                pport_bits,
            }
        })
    };
    prop_oneof![
        Just(PowerTrace::new()),
        segment(1e-6f64..39e-6).prop_map(|s| std::iter::once(s).collect::<PowerTrace>()),
        proptest::collection::vec(segment(1e-5f64..4e-3), 1..8)
            .prop_map(|v| v.into_iter().collect::<PowerTrace>()),
    ]
}

/// The chain as one trace at a time, sample by sample: the oracle
/// `measure_all` must reproduce for every trace it is handed.
fn measure_alone(conditioner: &SignalConditioner, trace: &PowerTrace) -> DaqLog {
    let circuit = SenseCircuit::pentium_m();
    let mut conditioner = conditioner.clone();
    let mut log = DaqLog::new(40e-6);
    for raw in Sampler::new(40e-6).samples(trace, &circuit) {
        log.record(&conditioner.process(raw), &circuit);
    }
    log.finish();
    log
}

proptest! {
    /// Measuring traces together shares one noise draw per sample
    /// instant without changing any trace's log: each equals the
    /// one-trace-at-a-time oracle, for noisy and ideal chains alike.
    #[test]
    fn measure_all_equals_one_trace_at_a_time(
        traces in proptest::collection::vec(arb_capture(), 0..5),
        seed in 0u64..1000,
    ) {
        let refs: Vec<&PowerTrace> = traces.iter().collect();
        for (system, conditioner) in [
            (DaqSystem::pentium_m(seed), SignalConditioner::ni_unit(seed)),
            (DaqSystem::ideal(), SignalConditioner::ideal()),
        ] {
            let logs = system.measure_all(&refs);
            prop_assert_eq!(logs.len(), traces.len());
            for (log, trace) in logs.iter().zip(&traces) {
                prop_assert_eq!(log, &measure_alone(&conditioner, trace));
            }
        }
    }

    /// The sense network's forward and inverse models are exact inverses
    /// for any physical operating point.
    #[test]
    fn sense_roundtrip(power in 0.0f64..30.0, vcpu in 0.5f64..2.0) {
        let c = SenseCircuit::pentium_m();
        let ch = c.forward(power, vcpu);
        prop_assert!((c.reconstruct_power(ch) - power).abs() < 1e-9);
        // Upstream voltages never fall below the CPU voltage.
        prop_assert!(ch.v1 >= vcpu && ch.v2 >= vcpu);
    }

    /// The ideal chain's energy error is bounded by pure sampling
    /// quantization: at most one sample period's worth of the peak power
    /// per segment boundary.
    #[test]
    fn ideal_chain_error_is_quantization_only(trace in arb_trace()) {
        let log = DaqSystem::ideal().measure(&trace);
        let truth = trace.total_energy_j();
        let peak = trace.segments().iter().map(|s| s.power_w).fold(0.0, f64::max);
        let bound = (trace.segments().len() + 1) as f64 * 40e-6 * peak;
        prop_assert!(
            (log.total_energy_j() - truth).abs() <= bound,
            "err {} bound {bound}",
            (log.total_energy_j() - truth).abs()
        );
    }

    /// The noisy chain stays within a small relative error for traces long
    /// enough to average the noise out.
    #[test]
    fn noisy_chain_is_accurate(seed in 0u64..500) {
        let mut trace = PowerTrace::new();
        trace.push(PowerSegment { duration_s: 0.05, power_w: 10.0, voltage_v: 1.4, pport_bits: 0 });
        trace.push(PowerSegment { duration_s: 0.05, power_w: 4.0, voltage_v: 1.0, pport_bits: 1 });
        let log = DaqSystem::pentium_m(seed).measure(&trace);
        let truth = trace.total_energy_j();
        prop_assert!((log.total_energy_j() - truth).abs() / truth < 0.05);
        prop_assert_eq!(log.phases().len(), 2);
    }

    /// Per-phase statistics always re-aggregate to the whole-run totals.
    #[test]
    fn phase_stats_sum_to_totals(trace in arb_trace(), seed in 0u64..100) {
        let log = DaqSystem::pentium_m(seed).measure(&trace);
        let e: f64 = log.phases().iter().map(|p| p.energy_j).sum();
        let t: f64 = log.phases().iter().map(|p| p.duration_s).sum();
        let n: u64 = log.phases().iter().map(|p| p.sample_count).sum();
        prop_assert!((e - log.total_energy_j()).abs() < 1e-9);
        prop_assert!((t - log.total_time_s()).abs() < 1e-12);
        prop_assert_eq!(n, log.samples_taken());
    }

    /// Sample counts follow the waveform duration exactly.
    #[test]
    fn sample_count_matches_duration(trace in arb_trace()) {
        let log = DaqSystem::ideal().measure(&trace);
        let expected = (trace.total_time_s() / 40e-6).floor() as i64;
        prop_assert!((log.samples_taken() as i64 - expected).abs() <= 1);
    }
}
