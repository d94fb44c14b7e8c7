//! The logging machine: phase-aligned aggregation of DAQ samples.
//!
//! The paper streams every sample to a second computer which reconstructs
//! power and attributes it to execution using the parallel-port protocol:
//! each **bit 0 toggle** starts a new sampling interval (phase), **bit 1**
//! marks handler execution, **bit 2** marks the application run. The
//! logger below aggregates streaming samples into per-phase statistics
//! without retaining the raw sample storm.

use crate::sampler::DaqSample;
use crate::sense::SenseCircuit;
use livephase_pmsim::trace::pport;
use livephase_pmsim::{OperatingPoint, PowerInput, TrainingRecord};

/// Power/duration statistics for one sampling interval (phase), as
/// reconstructed on the logging machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseMeasurement {
    /// Zero-based phase index (bit-0 toggle count).
    pub index: usize,
    /// Time of the first sample attributed to the phase, in seconds.
    pub start_s: f64,
    /// Measured duration (sample count × sampling period), in seconds.
    pub duration_s: f64,
    /// Mean reconstructed power, in watts.
    pub avg_power_w: f64,
    /// Integrated energy, in joules.
    pub energy_j: f64,
    /// Number of DAQ samples attributed to the phase.
    pub sample_count: u64,
    /// Of which, samples taken while the PMI handler was executing.
    pub handler_samples: u64,
}

/// Streaming accumulator for one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Accumulator {
    start_s: f64,
    power_sum: f64,
    samples: u64,
    handler_samples: u64,
}

/// The whole-capture and phase power sums of a run of samples in
/// progress, past its first sample (`DaqLog::start_run`).
#[derive(Debug)]
pub(crate) struct RunSums {
    power_sum: f64,
    phase_sum: f64,
    samples: u64,
    pport_bits: u8,
}

impl RunSums {
    /// Adds the next sample's power to both sums.
    pub(crate) fn add(&mut self, power: f64) {
        self.power_sum += power;
        self.phase_sum += power;
        self.samples += 1;
    }
}

/// The measurement log: per-phase statistics plus whole-run aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct DaqLog {
    sampling_period_s: f64,
    phases: Vec<PhaseMeasurement>,
    total_samples: u64,
    app_samples: u64,
    power_sum: f64,
    current: Option<(u8, Accumulator)>,
}

// Manual impls: `Accumulator` is an internal streaming detail.
impl DaqLog {
    /// Creates an empty log for the given sampling period.
    #[must_use]
    pub fn new(sampling_period_s: f64) -> Self {
        Self {
            sampling_period_s,
            phases: Vec::new(),
            total_samples: 0,
            app_samples: 0,
            power_sum: 0.0,
            current: None,
        }
    }

    /// Feeds one conditioned sample into the log.
    pub fn record(&mut self, sample: &DaqSample, circuit: &SenseCircuit) {
        let power = circuit.reconstruct_power(sample.channels);
        self.record_power(sample.time_s, sample.pport_bits, power);
    }

    /// Records the first of consecutive samples that share `pport_bits`,
    /// taken at `time_s` (only it can open a phase), and returns the sums
    /// the rest add their powers to; [`end_run`](DaqLog::end_run) writes
    /// them back, and the log must not be touched in between. The result
    /// is the log of one [`record`](DaqLog::record) per sample, with the
    /// bookkeeping done once: each sum still adds the powers one at a
    /// time, in order.
    pub(crate) fn start_run(&mut self, time_s: f64, pport_bits: u8, first: f64) -> RunSums {
        self.record_power(time_s, pport_bits, first);
        RunSums {
            power_sum: self.power_sum,
            phase_sum: self.current.map_or(0.0, |(_, acc)| acc.power_sum),
            samples: 0,
            pport_bits,
        }
    }

    /// Writes back the sums of a run begun with
    /// [`start_run`](DaqLog::start_run).
    pub(crate) fn end_run(&mut self, run: RunSums) {
        let Some((_, acc)) = &mut self.current else {
            return;
        };
        let n = run.samples;
        self.power_sum = run.power_sum;
        acc.power_sum = run.phase_sum;
        self.total_samples += n;
        acc.samples += n;
        if run.pport_bits & pport::IN_HANDLER != 0 {
            acc.handler_samples += n;
        }
        if run.pport_bits & pport::APP_RUNNING != 0 {
            self.app_samples += n;
        }
    }

    /// One sample's reconstructed power, taken at `time_s`.
    fn record_power(&mut self, time_s: f64, pport_bits: u8, power: f64) {
        self.total_samples += 1;
        self.power_sum += power;
        if pport_bits & pport::APP_RUNNING != 0 {
            self.app_samples += 1;
        }
        let toggle = pport_bits & pport::PHASE_TOGGLE;
        let in_handler = u64::from(pport_bits & pport::IN_HANDLER != 0);
        match &mut self.current {
            Some((bit, acc)) if *bit == toggle => {
                acc.power_sum += power;
                acc.samples += 1;
                acc.handler_samples += in_handler;
            }
            _ => {
                self.close_current_phase();
                self.current = Some((
                    toggle,
                    Accumulator {
                        start_s: time_s,
                        power_sum: power,
                        samples: 1,
                        handler_samples: in_handler,
                    },
                ));
            }
        }
    }

    /// Finalizes the log, closing the in-flight phase.
    pub fn finish(&mut self) {
        self.close_current_phase();
    }

    fn close_current_phase(&mut self) {
        if let Some((_, acc)) = self.current.take() {
            let duration = acc.samples as f64 * self.sampling_period_s;
            let avg = acc.power_sum / acc.samples as f64;
            self.phases.push(PhaseMeasurement {
                index: self.phases.len(),
                start_s: acc.start_s,
                duration_s: duration,
                avg_power_w: avg,
                energy_j: avg * duration,
                sample_count: acc.samples,
                handler_samples: acc.handler_samples,
            });
        }
    }

    /// Per-phase measurements, in time order.
    #[must_use]
    pub fn phases(&self) -> &[PhaseMeasurement] {
        &self.phases
    }

    /// Total samples captured.
    #[must_use]
    pub fn samples_taken(&self) -> u64 {
        self.total_samples
    }

    /// Samples captured while the application-run bit was high.
    #[must_use]
    pub fn app_samples(&self) -> u64 {
        self.app_samples
    }

    /// Whole-capture average power, in watts (zero for an empty capture).
    #[must_use]
    pub fn average_power_w(&self) -> f64 {
        if self.total_samples == 0 {
            0.0
        } else {
            self.power_sum / self.total_samples as f64
        }
    }

    /// Whole-capture measured time, in seconds.
    #[must_use]
    pub fn total_time_s(&self) -> f64 {
        self.total_samples as f64 * self.sampling_period_s
    }

    /// Whole-capture integrated energy, in joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.power_sum * self.sampling_period_s
    }

    /// Pairs the log's phase-aligned power measurements with the PMC
    /// features the monitor recorded for the same intervals, yielding
    /// the structured training records the power-model zoo fits on.
    ///
    /// DAQ phases are produced by the manager's parallel-port bit-0
    /// toggle — one toggle per PMI — so phase `k` *is* sampling interval
    /// `k` and the zip is positional. Tails are truncated: a partial
    /// trailing phase (or a feature vector cut short) simply yields
    /// fewer records, never a misaligned one.
    pub fn training_records<'a>(
        &'a self,
        features: &'a [(OperatingPoint, PowerInput)],
    ) -> impl Iterator<Item = TrainingRecord> + 'a {
        self.phases
            .iter()
            .zip(features.iter())
            .map(|(phase, &(opp, input))| TrainingRecord {
                opp,
                input,
                measured_w: phase.avg_power_w,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(time_s: f64, power_w: f64, bits: u8) -> DaqSample {
        DaqSample {
            time_s,
            channels: SenseCircuit::pentium_m().forward(power_w, 1.0),
            pport_bits: bits,
        }
    }

    fn feed(samples: &[DaqSample]) -> DaqLog {
        let c = SenseCircuit::pentium_m();
        let mut log = DaqLog::new(40e-6);
        for s in samples {
            log.record(s, &c);
        }
        log.finish();
        log
    }

    #[test]
    fn splits_phases_on_bit0_toggles() {
        let mut samples = Vec::new();
        for i in 0..10 {
            samples.push(sample(i as f64 * 40e-6, 10.0, 0b000));
        }
        for i in 10..30 {
            samples.push(sample(i as f64 * 40e-6, 2.0, 0b001));
        }
        for i in 30..40 {
            samples.push(sample(i as f64 * 40e-6, 6.0, 0b000));
        }
        let log = feed(&samples);
        assert_eq!(log.phases().len(), 3);
        assert_eq!(log.phases()[0].sample_count, 10);
        assert_eq!(log.phases()[1].sample_count, 20);
        assert!((log.phases()[0].avg_power_w - 10.0).abs() < 1e-9);
        assert!((log.phases()[1].avg_power_w - 2.0).abs() < 1e-9);
        assert!((log.phases()[2].avg_power_w - 6.0).abs() < 1e-9);
        assert_eq!(log.phases()[2].index, 2);
    }

    #[test]
    fn handler_samples_are_attributed() {
        let samples = vec![
            sample(0.0, 10.0, 0b000),
            sample(40e-6, 10.0, 0b010),
            sample(80e-6, 10.0, 0b000),
        ];
        let log = feed(&samples);
        assert_eq!(log.phases().len(), 1);
        assert_eq!(log.phases()[0].handler_samples, 1);
    }

    #[test]
    fn app_bit_counts() {
        let samples = vec![
            sample(0.0, 1.0, 0b000),
            sample(40e-6, 1.0, 0b100),
            sample(80e-6, 1.0, 0b100),
        ];
        let log = feed(&samples);
        assert_eq!(log.app_samples(), 2);
        assert_eq!(log.samples_taken(), 3);
    }

    #[test]
    fn totals_are_consistent_with_phases() {
        let samples: Vec<DaqSample> = (0..100)
            .map(|i| {
                let bits = u8::from((i / 25) % 2 == 1); // toggle every 25
                sample(i as f64 * 40e-6, 5.0, bits)
            })
            .collect();
        let log = feed(&samples);
        let phase_energy: f64 = log.phases().iter().map(|p| p.energy_j).sum();
        assert!((phase_energy - log.total_energy_j()).abs() < 1e-12);
        let phase_time: f64 = log.phases().iter().map(|p| p.duration_s).sum();
        assert!((phase_time - log.total_time_s()).abs() < 1e-12);
        assert!((log.average_power_w() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn training_records_zip_phases_with_features() {
        use livephase_pmsim::OperatingPointTable;
        // Three phases of 2/3/2 samples at 10, 2, and 6 watts.
        let samples = vec![
            sample(0.0, 10.0, 0b000),
            sample(40e-6, 10.0, 0b000),
            sample(80e-6, 2.0, 0b001),
            sample(120e-6, 2.0, 0b001),
            sample(160e-6, 2.0, 0b001),
            sample(200e-6, 6.0, 0b000),
            sample(240e-6, 6.0, 0b000),
        ];
        let log = feed(&samples);
        assert_eq!(log.phases().len(), 3);
        let opp = OperatingPointTable::pentium_m().fastest();
        // One fewer feature than phases: the tail phase is dropped.
        let features = vec![
            (opp, PowerInput::from_counters(0.01, 1.0)),
            (opp, PowerInput::from_counters(0.05, 0.4)),
        ];
        let records: Vec<TrainingRecord> = log.training_records(&features).collect();
        assert_eq!(records.len(), 2);
        assert!((records[0].measured_w - 10.0).abs() < 1e-9);
        assert!((records[1].measured_w - 2.0).abs() < 1e-9);
        assert!((records[0].input.mem_uop - 0.01).abs() < 1e-12);
        assert!((records[1].input.upc - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_log_is_safe() {
        let mut log = DaqLog::new(40e-6);
        log.finish();
        assert!(log.phases().is_empty());
        assert_eq!(log.average_power_w(), 0.0);
        assert_eq!(log.total_energy_j(), 0.0);
    }
}
