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

use conditioning::{ChannelNoise, LowPass};
use livephase_pmsim::PowerTrace;
use logger::RunSums;
use sampler::SampleRun;
use sense::ChannelVoltages;
use std::num::NonZeroUsize;
use std::sync::mpsc::{self, SyncSender, TryRecvError};
use std::thread::Thread;

/// The DAQPad's sampling period, in seconds. The conditioner's filter
/// coefficient (α = 0.2, a ≈ 160 µs time constant) is tuned for it.
const SAMPLING_PERIOD_S: f64 = 40e-6;

/// Sample instants per block of channel noise drawn on the calling
/// thread: 24 KiB of draws, read by every trace still running while they
/// are in cache.
const NOISE_BLOCK: usize = 1024;

/// Sample instants per block of channel noise drawn on a producer thread:
/// 42 KiB of draws, about 18 µs of drawing per handoff.
const PIPELINE_BLOCK: usize = 1792;

/// Noise buffers a pipelined capture cycles through: while the traces
/// read one block, the producer may fill the other two. The ring is one
/// allocation of 126 KiB, under glibc's default 128 KiB mmap threshold,
/// so it comes from the heap and goes back to it. A 288 KiB ring of
/// 4096-instant blocks was mapped for the first capture; freeing it
/// raises that threshold for the rest of the process, and `repro_paper`
/// peaked at ≈10 % more resident memory. Three 96 KiB buffers instead
/// were trimmed off the heap after each capture and faulted back in by
/// the next.
const RING: usize = 3;

/// The longest capture, in sample instants, whose noise is drawn on the
/// calling thread whatever the core count: about 0.66 s of signal. Up
/// to here, starting the producer and handing it blocks costs about
/// what overlapping the draws saves.
const PIPELINE_MIN_INSTANTS: u64 = 16_384;

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
    /// stream, and each returned log equals what a lone `measure` call on
    /// its trace returns. The noise of 1024 sample instants at a time is
    /// drawn into one reused buffer; the traces then walk their segment
    /// runs through the block two at a time, a pair in one loop over each
    /// stretch where neither trace's run ends. Within a run the channels
    /// and port bits are constant, so a sample is the noise add, the
    /// low-pass step, the power reconstruction and the phase and total
    /// sums. Each trace keeps its own filter state, log and order of
    /// float operations, and a capture of `N` instants draws exactly
    /// `3N` normals (none on a noise-free chain).
    ///
    /// A capture longer than 16 384 instants, on a machine with two or
    /// more cores, draws its noise on a scoped producer thread instead:
    /// blocks of 1792 instants, handed over in draw order through a ring
    /// of three buffers while this thread walks the traces through the
    /// block before. The logs, and where the generator ends, are the same.
    #[must_use]
    pub fn measure_all(&self, traces: &[&PowerTrace]) -> Vec<DaqLog> {
        self.capture(traces, &mut self.conditioner.noise.clone(), |instants| {
            Producer::for_capture(instants, || {
                std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
            })
        })
    }

    /// [`measure_all`](Self::measure_all) with the noise drawn on a
    /// producer thread (`threaded`) or on the calling thread, whatever
    /// the core count and the capture's length: the seam through which
    /// the allocation-count test pins each path.
    #[doc(hidden)]
    #[must_use]
    pub fn measure_all_threaded(&self, traces: &[&PowerTrace], threaded: bool) -> Vec<DaqLog> {
        let producer = if threaded {
            Producer::PIPELINED
        } else {
            Producer::INLINE
        };
        self.capture(traces, &mut self.conditioner.noise.clone(), |_| producer)
    }

    /// `measure_all` drawing from `noise`, through the producer that
    /// `choose` picks for the capture's length in sample instants.
    fn capture(
        &self,
        traces: &[&PowerTrace],
        noise: &mut ChannelNoise,
        choose: impl FnOnce(u64) -> Producer,
    ) -> Vec<DaqLog> {
        let sampler = Sampler::new(SAMPLING_PERIOD_S);
        let runs = |trace| sampler.runs(trace, &self.circuit);
        // The capture lasts as long as its longest trace.
        let instants = traces
            .iter()
            .map(|trace| runs(trace).map(|run| run.len).sum::<u64>())
            .max()
            .unwrap_or(0);
        let mut captures: Vec<_> = traces
            .iter()
            .map(|trace| Capture {
                runs: runs(trace),
                run: None,
                filter: self.conditioner.filter.clone(),
                log: DaqLog::new(SAMPLING_PERIOD_S),
            })
            .collect();
        let mut feed = |draws: &[[f64; 3]]| {
            for traces in captures.chunks_mut(2) {
                match traces {
                    [a, b] => Capture::feed_pair(a, b, draws, &sampler, &self.circuit),
                    [lone] => lone.feed(draws, &sampler, &self.circuit),
                    _ => {}
                }
            }
        };
        let Producer { block, threaded } = choose(instants);
        // A producer thread that cannot start leaves the draws to this one.
        if !(threaded && pipelined(noise, instants, block, &mut feed)) {
            inline(noise, instants, block, &mut feed);
        }
        captures
            .into_iter()
            .map(|capture| {
                let mut log = capture.log;
                log.finish();
                log
            })
            .collect()
    }
}

/// Where a capture draws its noise, and in blocks of how many sample
/// instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Producer {
    block: usize,
    /// On a producer thread, rather than on the calling thread.
    threaded: bool,
}

impl Producer {
    /// On the calling thread, between blocks.
    const INLINE: Self = Self {
        block: NOISE_BLOCK,
        threaded: false,
    };

    /// On a producer thread, ahead of the traces.
    const PIPELINED: Self = Self {
        block: PIPELINE_BLOCK,
        threaded: true,
    };

    /// `measure_all`'s producer for a capture of `instants`: a thread
    /// only when the capture is long and `cores` reports two or more.
    /// `cores` is asked only for a long capture.
    fn for_capture(instants: u64, cores: impl FnOnce() -> usize) -> Self {
        if instants > PIPELINE_MIN_INSTANTS && cores() >= 2 {
            Self::PIPELINED
        } else {
            Self::INLINE
        }
    }
}

/// Draws `instants` instants of noise on the calling thread, `block` at
/// a time into one reused buffer, and hands each block to `feed`.
fn inline(
    noise: &mut ChannelNoise,
    instants: u64,
    block: usize,
    feed: &mut impl FnMut(&[[f64; 3]]),
) {
    let mut buffer = vec![[0.0; 3]; usize::try_from(instants).map_or(block, |n| n.min(block))];
    let mut left = instants;
    while left > 0 {
        let n = usize::try_from(left).map_or(block, |n| n.min(block));
        let Some(draws) = buffer.get_mut(..n).filter(|draws| !draws.is_empty()) else {
            break;
        };
        noise.fill(draws);
        feed(draws);
        left -= n as u64;
    }
}

/// Draws `instants` instants of noise on a scoped producer thread,
/// `block` at a time into a ring of `RING` buffers, and hands each block
/// to `feed` on the calling thread in draw order. The ring is one
/// allocation, cut into `RING` buffers that the calling thread passes
/// to the producer over one bounded channel; filled blocks come back
/// over another and go round again once read, so the producer runs at
/// most `RING - 1` blocks ahead. It returns its generator, so `noise`
/// ends where drawing inline would leave it. Returns `false`, having
/// drawn and fed nothing, if the thread cannot be started.
///
/// The calling thread waits for a block by parking, not in the channel:
/// a wait there would register with the channel, which allocates on
/// some captures and not others, by timing.
fn pipelined(
    noise: &mut ChannelNoise,
    instants: u64,
    block: usize,
    feed: &mut impl FnMut(&[[f64; 3]]),
) -> bool {
    let len = usize::try_from(instants).map_or(block, |n| n.min(block));
    let mut ring = vec![[0.0; 3]; RING * len];
    std::thread::scope(|scope| {
        let (full_tx, full_rx) = mpsc::sync_channel(RING);
        let (free_tx, free_rx) = mpsc::sync_channel(RING);
        for buffer in ring.chunks_mut(len.max(1)) {
            let _ = free_tx.send(buffer);
        }
        let sending = Sending {
            full: Some(full_tx),
            consumer: std::thread::current(),
        };
        let mut generator = noise.clone();
        let producer = std::thread::Builder::new().spawn_scoped(scope, move || {
            let mut left = instants;
            while left > 0 {
                let Ok(buffer) = free_rx.recv() else {
                    break;
                };
                let n = usize::try_from(left).map_or(block, |n| n.min(block));
                let Some(draws) = buffer.get_mut(..n).filter(|draws| !draws.is_empty()) else {
                    break;
                };
                generator.fill(draws);
                left -= n as u64;
                if !sending.send(draws) {
                    break;
                }
            }
            generator
        });
        let Ok(producer) = producer else {
            return false;
        };
        loop {
            match full_rx.try_recv() {
                Ok(draws) => {
                    feed(draws);
                    // The producer stops taking buffers back after its
                    // last block.
                    let _ = free_tx.send(draws);
                }
                Err(TryRecvError::Empty) => std::thread::park(),
                Err(TryRecvError::Disconnected) => break,
            }
        }
        match producer.join() {
            Ok(generator) => *noise = generator,
            Err(panic) => std::panic::resume_unwind(panic),
        }
        true
    })
}

/// The producer's end of a pipelined capture. Each block it sends wakes
/// the calling thread, and so does dropping it, as the producer returns
/// or unwinds, once the channel is closed.
struct Sending<'ring> {
    full: Option<SyncSender<&'ring mut [[f64; 3]]>>,
    consumer: Thread,
}

impl<'ring> Sending<'ring> {
    /// Hands a filled block over; `false` once the traces have stopped
    /// reading. The channel holds the whole ring, so this never waits.
    fn send(&self, draws: &'ring mut [[f64; 3]]) -> bool {
        let sent = self
            .full
            .as_ref()
            .is_some_and(|full| full.send(draws).is_ok());
        self.consumer.unpark();
        sent
    }
}

impl Drop for Sending<'_> {
    fn drop(&mut self) {
        self.full = None;
        self.consumer.unpark();
    }
}

/// One trace's progress through a capture.
struct Capture<R> {
    /// The trace's runs not yet started.
    runs: R,
    /// The run in progress, with its samples still to take.
    run: Option<SampleRun>,
    filter: LowPass,
    log: DaqLog,
}

/// A stretch of one run being taken: the run's channels, and a local
/// copy of the trace's filter and of its log's sums, so that the loop
/// over the stretch keeps them in registers.
struct Stretch {
    channels: ChannelVoltages,
    filter: LowPass,
    sums: RunSums,
}

impl Stretch {
    /// Takes the next sample, with its draw.
    fn step(&mut self, noise: [f64; 3], circuit: &SenseCircuit) {
        let power = circuit.reconstruct_power(self.filter.step(self.channels, noise));
        self.sums.add(power);
    }
}

impl<R: Iterator<Item = SampleRun>> Capture<R> {
    /// The run in progress, starting the next one if the last has
    /// ended; `None` once the trace has no samples left.
    fn current_run(&mut self) -> Option<SampleRun> {
        if self.run.is_none() {
            self.run = self.runs.next();
        }
        self.run
    }

    /// Starts a stretch of `run` by taking its first sample, with the
    /// draw `noise`, through `DaqLog::start_run`: only a stretch's first
    /// sample can open a phase.
    fn start(
        &mut self,
        run: &SampleRun,
        noise: [f64; 3],
        sampler: &Sampler,
        circuit: &SenseCircuit,
    ) -> Stretch {
        let mut filter = self.filter.clone();
        let power = circuit.reconstruct_power(filter.step(run.channels, noise));
        Stretch {
            channels: run.channels,
            filter,
            sums: self
                .log
                .start_run(sampler.time_s(run.first), run.pport_bits, power),
        }
    }

    /// Writes a stretch of `taken` samples back and moves the run in
    /// progress past it.
    fn finish(&mut self, stretch: Stretch, taken: usize) {
        self.filter = stretch.filter;
        self.log.end_run(stretch.sums);
        if let Some(run) = &mut self.run {
            run.first += taken as u64;
            run.len -= taken as u64;
            if run.len == 0 {
                self.run = None;
            }
        }
    }

    /// Takes the trace's next `draws.len()` samples, each with its draw,
    /// or as many as are left.
    fn feed(&mut self, mut draws: &[[f64; 3]], sampler: &Sampler, circuit: &SenseCircuit) {
        while let Some(run) = self.current_run().filter(|_| !draws.is_empty()) {
            let take = usize::try_from(run.len).map_or(draws.len(), |n| n.min(draws.len()));
            let Some(([first, rest @ ..], later)) = draws.split_at_checked(take) else {
                return;
            };
            let mut stretch = self.start(&run, *first, sampler, circuit);
            for &noise in rest {
                stretch.step(noise, circuit);
            }
            self.finish(stretch, take);
            draws = later;
        }
    }

    /// [`feed`](Capture::feed) for two traces at once. Each stretch
    /// where neither trace's run ends steps both traces in one loop, so
    /// their filter recurrences overlap. Once one trace ends, the other
    /// runs on alone.
    fn feed_pair(
        a: &mut Self,
        b: &mut Self,
        mut draws: &[[f64; 3]],
        sampler: &Sampler,
        circuit: &SenseCircuit,
    ) {
        while !draws.is_empty() {
            let (Some(run_a), Some(run_b)) = (a.current_run(), b.current_run()) else {
                a.feed(draws, sampler, circuit);
                b.feed(draws, sampler, circuit);
                return;
            };
            let take = usize::try_from(run_a.len.min(run_b.len))
                .map_or(draws.len(), |n| n.min(draws.len()));
            let Some(([first, rest @ ..], later)) = draws.split_at_checked(take) else {
                return;
            };
            let mut stretch_a = a.start(&run_a, *first, sampler, circuit);
            let mut stretch_b = b.start(&run_b, *first, sampler, circuit);
            for &noise in rest {
                stretch_a.step(noise, circuit);
                stretch_b.step(noise, circuit);
            }
            a.finish(stretch_a, take);
            b.finish(stretch_b, take);
            draws = later;
        }
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

    /// The run loop against the chain run one trace and one instant at a
    /// time, and the work a capture does.
    mod capture {
        use super::*;
        use proptest::prelude::*;

        /// A capture's shape, drawn independently of the block size it is
        /// later built for.
        #[derive(Debug, Clone)]
        struct Shape {
            /// 0 empty, 1 shorter than one period, 2 ending mid-block,
            /// 3 ending exactly on a block edge.
            kind: u8,
            /// Whole blocks before the end.
            blocks: usize,
            /// Where in the final block a mid-block capture ends.
            rest: f64,
            /// Relative duration, power and port bits of each segment.
            segments: Vec<(f64, f64, u8)>,
        }

        fn arb_shape() -> impl Strategy<Value = Shape> {
            (
                0u8..4,
                0usize..4,
                0.0f64..1.0,
                proptest::collection::vec((0.1f64..1.0, 0.5f64..15.0, 0u8..8), 1..6),
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

        /// A capture in blocks of `block` instants, drawn on the calling
        /// thread and on a producer thread.
        fn producers(block: usize) -> [Producer; 2] {
            [false, true].map(|threaded| Producer { block, threaded })
        }

        /// A capture of `traces` through `producer`, whatever the core
        /// count and the capture's length.
        fn capture_through(
            system: &DaqSystem,
            traces: &[&PowerTrace],
            producer: Producer,
        ) -> Vec<DaqLog> {
            system.capture(traces, &mut system.conditioner.noise.clone(), |_| producer)
        }

        proptest! {
            /// Walking segment runs through blocks of shared noise gives
            /// every trace the log of the one-instant-at-a-time chain:
            /// for captures that are empty, shorter than a period, or end
            /// inside or exactly at the end of a block, with runs that
            /// cross block edges, alone, as a pair stepped in lockstep or
            /// as a pair plus a lone trace, beside traces of other lengths
            /// or a twin of the first, noisy or ideal, with the noise drawn
            /// on the calling thread or on a producer thread, and through
            /// `measure_all` itself.
            #[test]
            fn run_loop_equals_one_instant_at_a_time(
                shapes in proptest::collection::vec(arb_shape(), 0..5),
                twin in 0u8..2,
                block in prop_oneof![
                    Just(1usize), Just(3), Just(64), Just(NOISE_BLOCK), Just(PIPELINE_BLOCK)
                ],
                seed in 0u64..1000,
            ) {
                let mut built: Vec<(PowerTrace, u64)> = shapes.iter().map(|s| s.build(block)).collect();
                if let (1, Some(first)) = (twin, built.first().cloned()) {
                    built.insert(1, first);
                }
                let traces: Vec<&PowerTrace> = built.iter().map(|(t, _)| t).collect();
                for system in [DaqSystem::pentium_m(seed), DaqSystem::ideal()] {
                    let oracle: Vec<DaqLog> = traces
                        .iter()
                        .map(|t| one_instant_at_a_time(&system, t))
                        .collect();
                    for (log, (_, samples)) in oracle.iter().zip(&built) {
                        prop_assert_eq!(log.samples_taken(), *samples);
                    }
                    for producer in producers(block) {
                        let logs = capture_through(&system, &traces, producer);
                        prop_assert_eq!(&logs, &oracle, "{:?}", producer);
                    }
                    prop_assert_eq!(&system.measure_all(&traces), &oracle);
                }
            }
        }

        /// A trace whose runs hold exactly `runs` samples each, `(samples,
        /// power, port bits)`: each segment ends half a period past its
        /// last sample.
        fn trace_of_runs(runs: &[(u64, f64, u8)]) -> PowerTrace {
            runs.iter()
                .enumerate()
                .map(|(i, &(samples, power_w, bits))| {
                    let periods = samples as f64 + if i == 0 { 0.5 } else { 0.0 };
                    seg(periods * SAMPLING_PERIOD_S, power_w, bits)
                })
                .collect()
        }

        /// Every trace's log from a capture of `traces` together equals
        /// the one-instant-at-a-time chain's, in blocks of 1, 3, 64,
        /// `NOISE_BLOCK` and `PIPELINE_BLOCK` instants, drawn on the calling
        /// thread or on a producer thread, noisy and ideal.
        fn assert_each_log_is_the_oracle(traces: &[PowerTrace]) {
            let refs: Vec<&PowerTrace> = traces.iter().collect();
            for system in [DaqSystem::pentium_m(11), DaqSystem::ideal()] {
                let oracle: Vec<DaqLog> = traces
                    .iter()
                    .map(|t| one_instant_at_a_time(&system, t))
                    .collect();
                for block in [1, 3, 64, NOISE_BLOCK, PIPELINE_BLOCK] {
                    for producer in producers(block) {
                        let logs = capture_through(&system, &refs, producer);
                        assert_eq!(logs, oracle, "{producer:?}");
                    }
                }
            }
        }

        // Port bits for the runs below: application, phase toggle,
        // handler.
        const A: u8 = pport::APP_RUNNING;
        const T: u8 = pport::PHASE_TOGGLE;
        const H: u8 = pport::IN_HANDLER;

        /// A pair whose runs end at different instants: every stretch is
        /// cut at whichever run of the two ends first, inside blocks and
        /// across their edges.
        #[test]
        fn pair_runs_ending_at_different_instants() {
            let a = trace_of_runs(&[
                (7, 4.0, A),
                (50, 9.0, A | T),
                (3, 2.0, A | H),
                (900, 12.0, T),
                (200, 6.0, 0),
            ]);
            let b = trace_of_runs(&[
                (20, 3.0, T),
                (20, 11.0, A),
                (20, 5.0, A | T | H),
                (500, 7.0, A),
                (700, 13.0, T),
            ]);
            assert_each_log_is_the_oracle(&[a, b]);
        }

        /// A trace that ends inside a block while its partner runs on
        /// alone, with either of the two ending first.
        #[test]
        fn a_trace_ending_mid_block_leaves_its_partner_running() {
            let short = trace_of_runs(&[(600, 8.0, A), (900, 3.0, A | T)]);
            let long = trace_of_runs(&[(1000, 5.0, T), (1000, 10.0, A), (1000, 4.0, A | T)]);
            assert_each_log_is_the_oracle(&[short.clone(), long.clone()]);
            assert_each_log_is_the_oracle(&[long, short]);
        }

        /// Three traces: the first two stepped as a pair, the third fed
        /// alone, each of other length and run boundaries.
        #[test]
        fn three_traces_are_a_pair_and_a_lone_trace() {
            let traces = [
                trace_of_runs(&[(300, 6.0, A), (1200, 12.0, A | T)]),
                trace_of_runs(&[(1100, 2.0, T), (40, 9.0, H), (500, 5.0, 0)]),
                trace_of_runs(&[(77, 13.0, A), (77, 3.0, A | T), (2000, 7.0, A)]),
            ];
            assert_each_log_is_the_oracle(&traces);
        }

        /// Two identical traces get identical logs: each its own filter
        /// state, stepped alike.
        #[test]
        fn two_identical_traces_get_identical_logs() {
            let trace = trace_of_runs(&[(30, 4.0, A), (1500, 11.0, A | T), (9, 2.0, H)]);
            assert_each_log_is_the_oracle(&[trace.clone(), trace.clone()]);
            let system = DaqSystem::pentium_m(5);
            let logs = system.measure_all(&[&trace, &trace]);
            assert_eq!(logs.first(), logs.last());
            let threaded = capture_through(&system, &[&trace, &trace], Producer::PIPELINED);
            assert_eq!(threaded.first(), threaded.last());
            assert_eq!(threaded, logs);
        }

        /// A pipelined capture of several pipeline blocks, more than the
        /// ring holds, whose traces end inside its last block and inside
        /// an earlier one: every log is the oracle's.
        #[test]
        fn a_pipelined_capture_ending_mid_block() {
            let block = PIPELINE_BLOCK as u64;
            let long = trace_of_runs(&[
                (block - 5, 9.0, A),
                (2 * block + 10, 4.0, A | T),
                (block + block / 2, 12.0, H),
            ]);
            let short = trace_of_runs(&[(block / 3, 6.0, T), (2 * block, 3.0, A)]);
            let traces = [long, short];
            let refs: Vec<&PowerTrace> = traces.iter().collect();
            for system in [DaqSystem::pentium_m(23), DaqSystem::ideal()] {
                let oracle: Vec<DaqLog> = traces
                    .iter()
                    .map(|t| one_instant_at_a_time(&system, t))
                    .collect();
                assert_eq!(oracle[0].samples_taken(), 4 * block + block / 2 + 5);
                for producer in producers(PIPELINE_BLOCK) {
                    assert_eq!(capture_through(&system, &refs, producer), oracle);
                }
            }
        }

        /// `measure_all` starts a thread only for a capture longer than
        /// `PIPELINE_MIN_INSTANTS` on two or more cores, and asks for the
        /// core count only then.
        #[test]
        fn measure_all_threads_only_long_captures_on_several_cores() {
            for instants in [0, 1, PIPELINE_BLOCK as u64, PIPELINE_MIN_INSTANTS] {
                let producer = Producer::for_capture(instants, || -> usize {
                    panic!("core count asked for {instants} instants")
                });
                assert_eq!(producer, Producer::INLINE);
            }
            for instants in [PIPELINE_MIN_INSTANTS + 1, 29_475, u64::MAX] {
                assert_eq!(Producer::for_capture(instants, || 1), Producer::INLINE);
                assert_eq!(Producer::for_capture(instants, || 2), Producer::PIPELINED);
                assert_eq!(Producer::for_capture(instants, || 64), Producer::PIPELINED);
            }
        }

        /// A capture of `N` instants, its longest trace's sample count,
        /// draws exactly `3N` normals, over several blocks, a partial last
        /// one and traces that end early, whether its traces are two
        /// pairs, one pair, or a pair and a lone trace, and whether the
        /// noise is drawn on the calling thread or on a producer thread
        /// (in one block shorter than the capture or in many); a
        /// noise-free chain draws none.
        #[test]
        fn a_capture_draws_three_normals_per_instant() {
            let trace = |periods: f64| -> PowerTrace {
                (1..=4)
                    .map(|i| seg(periods * SAMPLING_PERIOD_S / 4.0, f64::from(i), i as u8 & 1))
                    .filter(|s| s.duration_s > 0.0)
                    .collect()
            };
            for periods in [
                &[0.0, 1000.5, 2500.5, 100.5][..],
                &[1000.5, 2500.5],
                &[2500.5, 100.5, 1000.5],
            ] {
                let traces: Vec<PowerTrace> = periods.iter().map(|&p| trace(p)).collect();
                let refs: Vec<&PowerTrace> = traces.iter().collect();
                let expected: Vec<u64> = periods.iter().map(|&p| p as u64).collect();
                for (system, normals) in
                    [(DaqSystem::pentium_m(3), 3 * 2500), (DaqSystem::ideal(), 0)]
                {
                    let seeded = system.conditioner.noise.clone();
                    for producer in [
                        Producer::INLINE,
                        Producer::PIPELINED,
                        Producer {
                            block: 64,
                            threaded: true,
                        },
                    ] {
                        let mut noise = seeded.clone();
                        let logs = system.capture(&refs, &mut noise, |_| producer);
                        let samples: Vec<u64> = logs.iter().map(DaqLog::samples_taken).collect();
                        assert_eq!(samples, expected);
                        assert_eq!(
                            noise,
                            seeded.after_normals(normals),
                            "{} traces, {producer:?}",
                            traces.len()
                        );
                    }
                }
            }
        }
    }
}
