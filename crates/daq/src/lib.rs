//! # livephase-daq
//!
//! A simulation of the paper's external power-measurement rig (Figure 9,
//! Section 5.3–5.4). On the real system:
//!
//! * two 2 mΩ precision sense resistors sit between the voltage regulator
//!   and the Pentium-M; the DAQ measures the three voltages `V1`, `V2`,
//!   `VCPU` and reconstructs `I1 = (V1 − VCPU)/R1`, `I2 = (V2 − VCPU)/R2`
//!   and `P = VCPU · (I1 + I2)`;
//! * a National Instruments signal-conditioning unit filters noise off the
//!   analog channels;
//! * a DAQPad samples all channels every **40 µs** and streams them to a
//!   separate logging machine;
//! * three parallel-port bits synchronize the electrically independent
//!   measurement side with program execution: bit 0 toggles at each
//!   sampling interval (so power can be attributed to individual phases),
//!   bit 1 brackets PMI-handler execution, bit 2 brackets the application.
//!
//! This crate reproduces that chain end to end over the analog-equivalent
//! [`livephase_pmsim::PowerTrace`] the simulated CPU records:
//! sense-network forward model → additive measurement noise → single-pole
//! low-pass → 40 µs sampler → phase-aligned logger.
//!
//! ```
//! use livephase_pmsim::trace::{PowerTrace, PowerSegment, pport};
//! use livephase_daq::DaqSystem;
//!
//! let mut trace = PowerTrace::new();
//! trace.push(PowerSegment { duration_s: 0.05, power_w: 13.0,
//!                           voltage_v: 1.484, pport_bits: pport::APP_RUNNING });
//! let log = DaqSystem::pentium_m(42).measure(&trace);
//! // 0.05 s at 40 us per sample = 1250 samples.
//! assert_eq!(log.samples_taken(), 1250);
//! assert!((log.total_energy_j() - 0.65).abs() / 0.65 < 0.05);
//! ```

#![forbid(unsafe_code)]
// The hot-path invariants on non-test library code (DESIGN.md §3f).
#![cfg_attr(not(test), warn(clippy::indexing_slicing, clippy::string_slice))]
#![cfg_attr(not(test), warn(clippy::panic))]
#![cfg_attr(not(test), warn(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), warn(clippy::undocumented_unsafe_blocks))]
#![cfg_attr(not(test), warn(clippy::allow_attributes))]
#![cfg_attr(not(test), warn(clippy::allow_attributes_without_reason))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conditioning;
pub mod logger;
pub mod sampler;
pub mod sense;

pub use conditioning::SignalConditioner;
pub use logger::{DaqLog, PhaseMeasurement};
pub use sampler::{DaqSample, Sampler};
pub use sense::SenseCircuit;

use livephase_pmsim::PowerTrace;
use std::sync::mpsc;

/// The DAQPad's sampling period, in seconds. The conditioner's filter
/// coefficient (α = 0.2, a ≈ 160 µs time constant) is tuned for it.
const SAMPLING_PERIOD_S: f64 = 40e-6;

/// Sample instants per block of channel noise (24 KiB of draws): large
/// enough that handing a block over costs ~1 % of drawing it, small
/// enough that the wait for a thread's first block, and its unused block
/// at the end, stay near 0.1 ms.
const NOISE_BLOCK: usize = 1024;

/// Finished blocks a producer thread may queue ahead of the filter/log
/// loop; it holds one more while it waits, so each keeps at most two
/// blocks in flight.
const BLOCKS_QUEUED: usize = 1;

/// The complete measurement chain, configured like the paper's rig.
#[derive(Debug, Clone)]
pub struct DaqSystem {
    circuit: SenseCircuit,
    conditioner: SignalConditioner,
}

impl DaqSystem {
    /// The paper's configuration: 2 mΩ sense resistors, 40 µs sampling,
    /// mild channel noise, single-pole conditioning. `seed` drives the
    /// (deterministic) measurement-noise generator.
    #[must_use]
    pub fn pentium_m(seed: u64) -> Self {
        Self {
            circuit: SenseCircuit::pentium_m(),
            conditioner: SignalConditioner::ni_unit(seed),
        }
    }

    /// A noise-free, unfiltered chain — useful for isolating pure sampling
    /// (quantization) error in tests and ablations.
    #[must_use]
    pub fn ideal() -> Self {
        Self {
            circuit: SenseCircuit::pentium_m(),
            conditioner: SignalConditioner::ideal(),
        }
    }

    /// The sampling period in seconds.
    #[must_use]
    pub fn sampling_period_s(&self) -> f64 {
        SAMPLING_PERIOD_S
    }

    /// Runs the full chain over a power waveform and returns the
    /// phase-aligned measurement log; the same as `measure_all(&[trace])`.
    #[must_use]
    #[expect(clippy::expect_used, reason = "measure_all returns one log per trace")]
    pub fn measure(&self, trace: &PowerTrace) -> DaqLog {
        self.measure_all(&[trace])
            .pop()
            .expect("measure_all returns one log per trace")
    }

    /// Runs the full chain over several waveforms, one log per trace in
    /// input order.
    ///
    /// Every capture from one `DaqSystem` sees the same noise realisation:
    /// sample `k` of each trace carries the `k`-th draw of the seeded
    /// stream. So the draw is made once per sample instant and fed to
    /// every trace still running at that instant, while each trace keeps
    /// its own sampler cursor, low-pass state and log. Each returned log
    /// equals what a lone `measure` call on its trace returns.
    ///
    /// The draws come in blocks of consecutive instants, computed by `W`
    /// producers, one per available core: producer `w` draws blocks `w`,
    /// `w + W`, `w + 2W`, …, skipping the raw draws of the other
    /// producers' blocks. An instant's noise is a pure function of the
    /// six raw `u64`s at its position in the stream, so every block holds
    /// exactly what the sequential draws would, and the logs are
    /// bit-identical. The calling thread runs the filter/log loop, taking
    /// the blocks in order, and is itself producer 0, so it draws the
    /// first block while the others start; they are scoped threads that
    /// queue their blocks on bounded channels and stop once the loop has
    /// ended. With one core, or a noise-free chain, the calling thread is
    /// the only producer: it draws each block as it needs it, with no
    /// thread spawned and nothing skipped.
    #[must_use]
    pub fn measure_all(&self, traces: &[&PowerTrace]) -> Vec<DaqLog> {
        let producers = if self.conditioner.noise.is_silent() {
            1
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        };
        self.capture(traces, producers, NOISE_BLOCK)
    }

    /// `measure_all` with `producers` noise producers (at least one) and
    /// `block` instants per noise block.
    fn capture(&self, traces: &[&PowerTrace], producers: usize, block: usize) -> Vec<DaqLog> {
        // Producer `w`: its blocks, one per call, in stream order.
        let producer = |w: usize| {
            let mut noise = self.conditioner.noise.clone();
            let mut skip = w * block;
            move || -> Vec<[f64; 3]> {
                noise.skip(skip);
                skip = (producers - 1) * block;
                (0..block).map(|_| noise.draw()).collect()
            }
        };
        std::thread::scope(|scope| {
            let queued: Vec<_> = (1..producers)
                .map(|w| {
                    let (tx, rx) = mpsc::sync_channel(BLOCKS_QUEUED);
                    let mut next = producer(w);
                    // A failed send means the loop has ended and dropped `rx`.
                    scope.spawn(move || while tx.send(next()).is_ok() {});
                    rx
                })
                .collect();
            let mut own = producer(0);
            let mut b = 0;
            // The closure owns the receivers, so they drop when the loop
            // ends, before the scope joins the producer threads.
            self.filter_and_log(traces, move || {
                let w = b % producers;
                b += 1;
                match w.checked_sub(1).and_then(|w| queued.get(w)) {
                    #[expect(
                        clippy::expect_used,
                        reason = "a producer only stops once its receiver drops"
                    )]
                    Some(rx) => rx.recv().expect("a producer runs until its receiver drops"),
                    None => own(),
                }
            })
        })
    }

    /// The lockstep filter/log loop: each sample instant takes the next
    /// draw from the current noise block (`next_block` supplies the
    /// following one when it runs out) and feeds it to every trace still
    /// running.
    fn filter_and_log(
        &self,
        traces: &[&PowerTrace],
        mut next_block: impl FnMut() -> Vec<[f64; 3]>,
    ) -> Vec<DaqLog> {
        let sampler = Sampler::new(SAMPLING_PERIOD_S);
        // Per trace: the sampler cursor (`None` once the trace has ended),
        // the low-pass state and the log.
        let mut captures: Vec<_> = traces
            .iter()
            .map(|trace| {
                (
                    Some(sampler.samples(trace, &self.circuit)),
                    self.conditioner.filter.clone(),
                    DaqLog::new(SAMPLING_PERIOD_S),
                )
            })
            .collect();
        let mut noise_block = Vec::new();
        let mut used = 0;
        loop {
            // Taken when the first still-running trace yields a sample.
            let mut instant_noise = None;
            for (cursor, filter, log) in &mut captures {
                let Some(raw) = cursor.as_mut().and_then(Iterator::next) else {
                    *cursor = None;
                    continue;
                };
                let n = *instant_noise.get_or_insert_with(|| {
                    if used == noise_block.len() {
                        noise_block = next_block();
                        used = 0;
                    }
                    used += 1;
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "0 < used <= len: a block is refilled once used reaches its length, and holds block > 0 draws"
                    )]
                    noise_block[used - 1]
                });
                log.record(&filter.apply(raw, n), &self.circuit);
            }
            if instant_noise.is_none() {
                break;
            }
        }
        captures
            .into_iter()
            .map(|(_, _, mut log)| {
                log.finish();
                log
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livephase_pmsim::trace::{pport, PowerSegment};

    fn seg(duration_s: f64, power_w: f64, bits: u8) -> PowerSegment {
        PowerSegment {
            duration_s,
            power_w,
            voltage_v: 1.484,
            pport_bits: bits,
        }
    }

    #[test]
    fn measured_energy_tracks_ground_truth() {
        let mut t = PowerTrace::new();
        t.push(seg(0.1, 13.0, pport::APP_RUNNING));
        t.push(seg(0.1, 3.0, pport::APP_RUNNING));
        let truth = t.total_energy_j();
        let log = DaqSystem::pentium_m(1).measure(&t);
        let err = (log.total_energy_j() - truth).abs() / truth;
        assert!(err < 0.03, "relative error {err}");
    }

    #[test]
    fn ideal_chain_is_exact_up_to_sampling() {
        let mut t = PowerTrace::new();
        t.push(seg(0.1, 10.0, 0));
        let log = DaqSystem::ideal().measure(&t);
        let err = (log.total_energy_j() - 1.0).abs();
        assert!(err < 1e-6, "ideal error {err}");
    }

    #[test]
    fn phase_attribution_via_bit0() {
        let mut t = PowerTrace::new();
        // Two sampling intervals marked by a bit-0 toggle.
        t.push(seg(0.08, 13.0, pport::APP_RUNNING));
        t.push(seg(0.12, 3.0, pport::APP_RUNNING | pport::PHASE_TOGGLE));
        let log = DaqSystem::pentium_m(2).measure(&t);
        let phases = log.phases();
        assert_eq!(phases.len(), 2);
        assert!((phases[0].duration_s - 0.08).abs() < 1e-3);
        assert!((phases[1].duration_s - 0.12).abs() < 1e-3);
        assert!(phases[0].avg_power_w > 12.0);
        assert!(phases[1].avg_power_w < 4.0);
    }

    #[test]
    fn measurement_is_deterministic_per_seed() {
        let mut t = PowerTrace::new();
        t.push(seg(0.05, 8.0, 0));
        let a = DaqSystem::pentium_m(7).measure(&t);
        let b = DaqSystem::pentium_m(7).measure(&t);
        assert_eq!(a.total_energy_j(), b.total_energy_j());
        let c = DaqSystem::pentium_m(8).measure(&t);
        assert_ne!(a.total_energy_j(), c.total_energy_j());
    }

    /// The block pipeline against the chain run one trace and one
    /// instant at a time, for every producer count and block size.
    mod pipeline {
        use super::*;
        use proptest::prelude::*;

        /// A capture's shape, drawn independently of the block size it is
        /// later built for.
        #[derive(Debug, Clone)]
        struct Shape {
            /// 0 empty, 1 shorter than one period, 2 ending mid-block,
            /// 3 ending exactly on a block edge.
            kind: u8,
            /// Whole blocks before the end: up to four, so a capture can
            /// outlast a round of three producers.
            blocks: usize,
            /// Where in the final block a mid-block capture ends.
            rest: f64,
            /// Relative duration, power and port bits of each segment.
            segments: Vec<(f64, f64, u8)>,
        }

        fn arb_shape() -> impl Strategy<Value = Shape> {
            (
                0u8..4,
                0usize..5,
                0.0f64..1.0,
                proptest::collection::vec((0.1f64..1.0, 0.5f64..15.0, 0u8..8), 1..5),
            )
                .prop_map(|(kind, blocks, rest, segments)| Shape {
                    kind,
                    blocks,
                    rest,
                    segments,
                })
        }

        impl Shape {
            /// The trace and its sample count for blocks of `block`
            /// instants. The total duration ends half a period past the
            /// last sample, clear of the sampler's boundary tolerance.
            fn build(&self, block: usize) -> (PowerTrace, u64) {
                let samples = match self.kind {
                    0 => return (PowerTrace::new(), 0),
                    1 => return ([seg(20e-6, 5.0, 0)].into_iter().collect(), 0),
                    2 => self.blocks * block + 1 + (self.rest * (block - 1) as f64) as usize,
                    _ => (self.blocks + 1) * block,
                };
                let total_s = (samples as f64 + 0.5) * SAMPLING_PERIOD_S;
                let weight: f64 = self.segments.iter().map(|s| s.0).sum();
                let trace = self
                    .segments
                    .iter()
                    .map(|&(w, power_w, bits)| seg(total_s * w / weight, power_w, bits))
                    .collect();
                (trace, samples as u64)
            }
        }

        /// The oracle: one trace through the sampler, the conditioner's
        /// draw-then-filter and the log, one instant at a time.
        fn one_instant_at_a_time(system: &DaqSystem, trace: &PowerTrace) -> DaqLog {
            let mut conditioner = system.conditioner.clone();
            let mut log = DaqLog::new(SAMPLING_PERIOD_S);
            for raw in Sampler::new(SAMPLING_PERIOD_S).samples(trace, &system.circuit) {
                log.record(&conditioner.process(raw), &system.circuit);
            }
            log.finish();
            log
        }

        proptest! {
            /// Producers drawing interleaved blocks, or the calling thread
            /// drawing them itself, hand every trace the noise the
            /// sequential stream would: each log equals the oracle's, for
            /// captures that are empty, shorter than a period, or end
            /// inside or exactly at the end of a block.
            #[test]
            fn block_pipeline_equals_one_instant_at_a_time(
                shapes in proptest::collection::vec(arb_shape(), 0..5),
                block in prop_oneof![Just(1usize), Just(3), Just(64), Just(NOISE_BLOCK), Just(4096)],
                seed in 0u64..1000,
            ) {
                let built: Vec<(PowerTrace, u64)> = shapes.iter().map(|s| s.build(block)).collect();
                let traces: Vec<&PowerTrace> = built.iter().map(|(t, _)| t).collect();
                for system in [DaqSystem::pentium_m(seed), DaqSystem::ideal()] {
                    let oracle: Vec<DaqLog> = traces
                        .iter()
                        .map(|t| one_instant_at_a_time(&system, t))
                        .collect();
                    for (log, (_, samples)) in oracle.iter().zip(&built) {
                        prop_assert_eq!(log.samples_taken(), *samples);
                    }
                    for producers in 1..=3 {
                        prop_assert_eq!(
                            &system.capture(&traces, producers, block),
                            &oracle,
                            "{} producers, blocks of {}",
                            producers,
                            block
                        );
                    }
                }
            }
        }
    }
}
