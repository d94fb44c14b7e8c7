//! The piecewise-constant power waveform emitted by the simulated CPU.
//!
//! The paper measures processor power externally: sense resistors between
//! the voltage regulator and the CPU feed a signal-conditioning unit and a
//! DAQ sampling at 40 µs. To reproduce that measurement path, the simulator
//! records an analog-equivalent waveform — a sequence of
//! constant-power segments, each annotated with the CPU supply voltage and
//! the 3-bit parallel-port state the deployed system uses to synchronize
//! the DAQ with execution (Section 5.4):
//!
//! * **bit 0** — toggled by the PMI handler each sampling interval, letting
//!   the DAQ attribute samples to phases;
//! * **bit 1** — set while the PMI handler itself runs;
//! * **bit 2** — set for the duration of the application.

/// Parallel-port bit masks (Section 5.4 of the paper).
pub mod pport {
    /// Toggled each sampling interval (phase marker).
    pub const PHASE_TOGGLE: u8 = 0b001;
    /// High while the PMI handler executes.
    pub const IN_HANDLER: u8 = 0b010;
    /// High while the application runs.
    pub const APP_RUNNING: u8 = 0b100;
}

/// A constant-power slice of execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSegment {
    /// Duration of the segment in seconds.
    pub duration_s: f64,
    /// CPU power draw during the segment, in watts.
    pub power_w: f64,
    /// CPU supply voltage during the segment, in volts.
    pub voltage_v: f64,
    /// Parallel-port bit state during the segment.
    pub pport_bits: u8,
}

impl PowerSegment {
    /// Energy of the segment in joules.
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        self.duration_s * self.power_w
    }

    /// Current drawn from the supply, in amperes (`P / V`).
    #[must_use]
    pub fn current_a(&self) -> f64 {
        self.power_w / self.voltage_v
    }
}

/// An append-only waveform of [`PowerSegment`]s.
///
/// ```
/// use livephase_pmsim::trace::{PowerTrace, PowerSegment};
/// let mut t = PowerTrace::new();
/// t.push(PowerSegment { duration_s: 0.1, power_w: 13.0, voltage_v: 1.484, pport_bits: 0b100 });
/// t.push(PowerSegment { duration_s: 0.2, power_w: 3.0, voltage_v: 0.956, pport_bits: 0b101 });
/// assert!((t.total_time_s() - 0.3).abs() < 1e-12);
/// assert!((t.total_energy_j() - (1.3 + 0.6)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerTrace {
    segments: Vec<PowerSegment>,
}

impl PowerTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a segment.
    ///
    /// Zero-duration segments are dropped (they carry no energy and would
    /// only burden the DAQ sampler).
    ///
    /// # Panics
    ///
    /// Panics if the segment has negative duration or non-finite fields.
    pub fn push(&mut self, seg: PowerSegment) {
        assert!(
            seg.duration_s.is_finite() && seg.duration_s >= 0.0,
            "segment duration must be finite and non-negative"
        );
        assert!(
            seg.power_w.is_finite() && seg.power_w >= 0.0,
            "segment power must be finite and non-negative"
        );
        assert!(
            seg.voltage_v.is_finite() && seg.voltage_v > 0.0,
            "segment voltage must be finite and positive"
        );
        if seg.duration_s > 0.0 {
            self.segments.push(seg);
        }
    }

    /// The recorded segments, in time order.
    #[must_use]
    pub fn segments(&self) -> &[PowerSegment] {
        &self.segments
    }

    /// Total recorded wall-clock time in seconds.
    #[must_use]
    pub fn total_time_s(&self) -> f64 {
        self.segments.iter().map(|s| s.duration_s).sum()
    }

    /// Total recorded energy in joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.segments.iter().map(PowerSegment::energy_j).sum()
    }

    /// Average power over the whole trace, in watts. Zero for an empty
    /// trace.
    #[must_use]
    pub fn average_power_w(&self) -> f64 {
        let t = self.total_time_s();
        if t == 0.0 {
            0.0
        } else {
            self.total_energy_j() / t
        }
    }

    /// Number of segments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the trace holds no segments.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

impl Extend<PowerSegment> for PowerTrace {
    fn extend<T: IntoIterator<Item = PowerSegment>>(&mut self, iter: T) {
        for seg in iter {
            self.push(seg);
        }
    }
}

impl FromIterator<PowerSegment> for PowerTrace {
    fn from_iter<T: IntoIterator<Item = PowerSegment>>(iter: T) -> Self {
        let mut t = Self::new();
        t.extend(iter);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(duration_s: f64, power_w: f64) -> PowerSegment {
        PowerSegment {
            duration_s,
            power_w,
            voltage_v: 1.484,
            pport_bits: 0,
        }
    }

    #[test]
    fn aggregates() {
        let t: PowerTrace = [seg(1.0, 10.0), seg(1.0, 20.0)].into_iter().collect();
        assert_eq!(t.len(), 2);
        assert!((t.total_energy_j() - 30.0).abs() < 1e-12);
        assert!((t.average_power_w() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = PowerTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.average_power_w(), 0.0);
        assert_eq!(t.total_time_s(), 0.0);
    }

    #[test]
    fn zero_duration_segments_dropped() {
        let mut t = PowerTrace::new();
        t.push(seg(0.0, 10.0));
        assert!(t.is_empty());
    }

    #[test]
    fn current_is_p_over_v() {
        let s = seg(1.0, 14.84);
        assert!((s.current_a() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn negative_duration_rejected() {
        PowerTrace::new().push(seg(-1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "power")]
    fn negative_power_rejected() {
        PowerTrace::new().push(seg(1.0, -1.0));
    }
}
