//! Once every pid of a stream has its predictor state, the decision
//! path never allocates: `step` and `step_many` classify, score,
//! predict, translate and tally into state sized at first sight of the
//! pid. A counting global allocator watches this thread while warm
//! engines decide a fixed interleaved multi-pid stream, hits, misses,
//! transitions and telemetry publishes included.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use livephase_engine::{Decision, DecisionEngine, EngineConfig, Sample};

const PIDS: u32 = 8;

/// Eight pids in runs of one to four samples, each pid walking a
/// period-14 six-phase pattern (Mem/Uop 0.005 apart) with one sample
/// in eight replaced by xorshift noise, so predictions hit and miss and
/// the operating point keeps changing.
fn stream() -> Vec<Sample> {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut out = Vec::new();
    let mut i = 0u64;
    while out.len() < 20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let pid = u32::try_from(x % u64::from(PIDS)).expect("below PIDS");
        for _ in 0..=(x >> 8) % 4 {
            let k = if (x >> 12).is_multiple_of(8) {
                x >> 16
            } else {
                i * 5 % 14
            };
            i += 1;
            out.push(Sample {
                pid,
                uops: 100_000_000,
                mem_transactions: (1 + k % 6) * 500_000,
            });
        }
    }
    out
}

/// A warm engine: every pid of the stream has been seen, the decision
/// buffer has its capacity, and the stream has run through once.
fn warm(spec: &str, samples: &[Sample], out: &mut Vec<Decision>) -> DecisionEngine {
    let mut engine = DecisionEngine::from_spec(EngineConfig::pentium_m(), spec).expect(spec);
    for s in samples {
        std::hint::black_box(engine.step(s));
    }
    out.reserve(samples.len());
    engine.step_many(samples, out);
    out.clear();
    engine
}

#[test]
fn deciding_never_allocates_once_warm() {
    let samples = stream();
    for spec in [
        "gpht:8:1024",
        "hashedgpht:8:128",
        "fixwindow:8",
        "lastvalue",
    ] {
        let mut out = Vec::new();
        let mut engine = warm(spec, &samples, &mut out);

        let before = allocations();
        for s in &samples {
            std::hint::black_box(engine.step(s));
        }
        assert_eq!(allocations() - before, 0, "{spec}: step");

        let before = allocations();
        for batch in samples.chunks(61) {
            engine.step_many(batch, &mut out);
        }
        assert_eq!(allocations() - before, 0, "{spec}: step_many");

        assert_eq!(out.len(), samples.len(), "{spec}");
        assert_eq!(engine.processes(), PIDS as usize, "{spec}");
        let points: std::collections::BTreeSet<u8> = out.iter().map(|d| d.op_point).collect();
        assert!(points.len() > 1, "{spec}: the operating point changes");
    }
}
