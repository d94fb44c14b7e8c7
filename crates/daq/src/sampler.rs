//! The DAQPad sampler: fixed-period sampling of the analog waveform.

use crate::sense::{ChannelVoltages, SenseCircuit};
use livephase_pmsim::PowerTrace;
use serde::{Deserialize, Serialize};

/// One raw DAQ sample: the three analog channels plus the digital
/// parallel-port lines captured at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DaqSample {
    /// Sample timestamp in seconds from the start of the capture.
    pub time_s: f64,
    /// The three measured voltages.
    pub channels: ChannelVoltages,
    /// The parallel-port bits at the sampling instant.
    pub pport_bits: u8,
}

/// A fixed-period sampler over a piecewise-constant power waveform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampler {
    period_s: f64,
}

impl Sampler {
    /// Creates a sampler with the given period (the paper's DAQ runs at
    /// 40 µs).
    ///
    /// # Panics
    ///
    /// Panics if `period_s` is not positive and finite.
    #[must_use]
    pub fn new(period_s: f64) -> Self {
        assert!(
            period_s.is_finite() && period_s > 0.0,
            "sampling period must be positive"
        );
        Self { period_s }
    }

    /// The sampling period in seconds.
    #[must_use]
    pub fn period_s(&self) -> f64 {
        self.period_s
    }

    /// Iterates samples over the trace: one sample at the *end* of each
    /// period (`t = k·period`, k ≥ 1), walking the segment list once.
    /// The sense network's forward model is a pure function of the
    /// segment's power and voltage, so it runs once per sampled segment,
    /// not once per sample.
    pub fn samples<'a>(
        &self,
        trace: &'a PowerTrace,
        circuit: &'a SenseCircuit,
    ) -> impl Iterator<Item = DaqSample> + 'a {
        let period = self.period_s;
        let mut seg_idx = 0usize;
        let mut seg_end = trace.segments().first().map_or(0.0, |s| s.duration_s);
        let mut k = 0u64;
        // The forward model of the segment sampled last, by index.
        let mut forward: Option<(usize, ChannelVoltages)> = None;
        std::iter::from_fn(move || {
            k += 1;
            #[expect(clippy::cast_precision_loss, reason = "k stays far below 2^52")]
            let t = k as f64 * period;
            // Advance to the segment containing t.
            while seg_idx < trace.segments().len() && t > seg_end + 1e-15 {
                seg_idx += 1;
                if let Some(seg) = trace.segments().get(seg_idx) {
                    seg_end += seg.duration_s;
                }
            }
            let seg = trace.segments().get(seg_idx)?;
            let channels = match forward {
                Some((idx, channels)) if idx == seg_idx => channels,
                _ => {
                    let channels = circuit.forward(seg.power_w, seg.voltage_v);
                    forward = Some((seg_idx, channels));
                    channels
                }
            };
            Some(DaqSample {
                time_s: t,
                channels,
                pport_bits: seg.pport_bits,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livephase_pmsim::trace::PowerSegment;
    use proptest::prelude::*;

    fn seg(duration_s: f64, power_w: f64, bits: u8) -> PowerSegment {
        PowerSegment {
            duration_s,
            power_w,
            voltage_v: 1.0,
            pport_bits: bits,
        }
    }

    /// The sampler's segment walk with the forward model run at every
    /// sample: the oracle for the per-segment cache.
    fn per_sample_forward(trace: &PowerTrace, circuit: &SenseCircuit) -> Vec<DaqSample> {
        let segments = trace.segments();
        let mut out = Vec::new();
        let mut seg_idx = 0;
        let mut seg_end = segments.first().map_or(0.0, |s| s.duration_s);
        for k in 1u32.. {
            let t = f64::from(k) * 40e-6;
            while seg_idx < segments.len() && t > seg_end + 1e-15 {
                seg_idx += 1;
                if let Some(seg) = segments.get(seg_idx) {
                    seg_end += seg.duration_s;
                }
            }
            let Some(seg) = segments.get(seg_idx) else {
                break;
            };
            out.push(DaqSample {
                time_s: t,
                channels: circuit.forward(seg.power_w, seg.voltage_v),
                pport_bits: seg.pport_bits,
            });
        }
        out
    }

    proptest! {
        /// Computing the forward model once per segment changes no
        /// sample. Powers and voltages come from three values each, so
        /// adjacent segments are often electrically identical.
        #[test]
        fn segment_cached_forward_equals_per_sample_forward(
            segments in proptest::collection::vec(
                (1e-5f64..3e-4, 0usize..3, 0usize..3, 0u8..8),
                0..12,
            ),
        ) {
            let trace: PowerTrace = segments
                .into_iter()
                .map(|(duration_s, p, v, pport_bits)| PowerSegment {
                    duration_s,
                    power_w: [0.0, 3.0, 13.0][p],
                    voltage_v: [0.956, 1.2, 1.484][v],
                    pport_bits,
                })
                .collect();
            let c = SenseCircuit::pentium_m();
            let cached: Vec<DaqSample> = Sampler::new(40e-6).samples(&trace, &c).collect();
            prop_assert_eq!(cached, per_sample_forward(&trace, &c));
        }
    }

    #[test]
    fn sample_count_matches_duration() {
        let mut t = PowerTrace::new();
        t.push(seg(0.001, 5.0, 0));
        let s = Sampler::new(40e-6);
        assert_eq!(s.samples(&t, &SenseCircuit::pentium_m()).count(), 25);
    }

    #[test]
    fn samples_pick_the_right_segment() {
        let mut t = PowerTrace::new();
        t.push(seg(100e-6, 10.0, 0b0));
        t.push(seg(100e-6, 2.0, 0b1));
        let c = SenseCircuit::pentium_m();
        let all: Vec<DaqSample> = Sampler::new(40e-6).samples(&t, &c).collect();
        assert_eq!(all.len(), 5);
        // t = 40, 80 us -> segment 1; t = 120, 160, 200 us -> segment 2.
        let p: Vec<f64> = all
            .iter()
            .map(|s| c.reconstruct_power(s.channels))
            .collect();
        assert!((p[0] - 10.0).abs() < 1e-9);
        assert!((p[1] - 10.0).abs() < 1e-9);
        assert!((p[2] - 2.0).abs() < 1e-9);
        assert!((p[4] - 2.0).abs() < 1e-9);
        assert_eq!(all[1].pport_bits, 0b0);
        assert_eq!(all[2].pport_bits, 0b1);
    }

    #[test]
    fn empty_trace_yields_no_samples() {
        let t = PowerTrace::new();
        let s = Sampler::new(40e-6);
        assert_eq!(s.samples(&t, &SenseCircuit::pentium_m()).count(), 0);
    }

    #[test]
    fn sub_period_trace_yields_no_samples() {
        let mut t = PowerTrace::new();
        t.push(seg(10e-6, 5.0, 0));
        let s = Sampler::new(40e-6);
        assert_eq!(s.samples(&t, &SenseCircuit::pentium_m()).count(), 0);
    }

    #[test]
    #[should_panic(expected = "sampling period")]
    fn zero_period_rejected() {
        let _ = Sampler::new(0.0);
    }
}
