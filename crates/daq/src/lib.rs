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

/// The DAQPad's sampling period, in seconds. The conditioner's filter
/// coefficient (α = 0.2, a ≈ 160 µs time constant) is tuned for it.
const SAMPLING_PERIOD_S: f64 = 40e-6;

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
    #[must_use]
    pub fn measure_all(&self, traces: &[&PowerTrace]) -> Vec<DaqLog> {
        let sampler = Sampler::new(SAMPLING_PERIOD_S);
        let mut noise = self.conditioner.noise.clone();
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
        loop {
            // Drawn when the first still-running trace yields a sample.
            let mut instant_noise = None;
            for (cursor, filter, log) in &mut captures {
                let Some(raw) = cursor.as_mut().and_then(Iterator::next) else {
                    *cursor = None;
                    continue;
                };
                let n = *instant_noise.get_or_insert_with(|| noise.draw());
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
}
