//! Workload traces and their characterization statistics.

use livephase_pmsim::timing::IntervalWork;

/// A generated workload: a named sequence of sampling-interval work chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    name: String,
    intervals: Vec<IntervalWork>,
}

impl WorkloadTrace {
    /// Creates a trace from pre-built intervals.
    ///
    /// # Panics
    ///
    /// Panics if `intervals` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>, intervals: Vec<IntervalWork>) -> Self {
        assert!(!intervals.is_empty(), "a workload trace must not be empty");
        Self {
            name: name.into(),
            intervals,
        }
    }

    /// The workload's name (e.g. `applu_in`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-interval work chunks, in execution order.
    #[must_use]
    pub fn intervals(&self) -> &[IntervalWork] {
        &self.intervals
    }

    /// Number of sampling intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Traces are never empty; returns `false` (API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over the intervals.
    pub fn iter(&self) -> std::slice::Iter<'_, IntervalWork> {
        self.intervals.iter()
    }

    /// Opens a streaming replay cursor over the buffered intervals — the
    /// trace's [`IntervalSource`](crate::IntervalSource) view.
    #[must_use]
    pub fn stream(&self) -> crate::source::TraceCursor<'_> {
        crate::source::TraceCursor::new(self)
    }

    /// Decomposes the trace into its name and interval buffer.
    #[must_use]
    pub fn into_parts(self) -> (String, Vec<IntervalWork>) {
        (self.name, self.intervals)
    }

    /// The per-interval Mem/Uop series, lazily.
    pub fn mem_uop_series(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.intervals.iter().map(IntervalWork::mem_uop)
    }

    /// Computes the characterization statistics the paper plots in
    /// Figure 3, in one streaming pass.
    #[must_use]
    pub fn characterize(&self) -> TraceStats {
        TraceStats::from_mem_uop_iter(self.mem_uop_series())
    }
}

impl<'a> IntoIterator for &'a WorkloadTrace {
    type Item = &'a IntervalWork;
    type IntoIter = std::slice::Iter<'a, IntervalWork>;
    fn into_iter(self) -> Self::IntoIter {
        self.intervals.iter()
    }
}

/// Stability / power-saving-potential statistics of a workload, matching
/// the axes of the paper's Figure 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Average Mem/Uop — "how much potential exists to slow down the CPU":
    /// the x-axis of Figure 3.
    pub mean_mem_uop: f64,
    /// Percentage of consecutive sample pairs whose Mem/Uop moved by more
    /// than 0.005 — "how unstable the benchmark is": the y-axis of
    /// Figure 3 (at the paper's 100 M-instruction granularity).
    pub sample_variation_pct: f64,
    /// Number of samples characterized.
    pub samples: usize,
}

impl TraceStats {
    /// The Mem/Uop delta the paper counts as a significant sample-to-sample
    /// variation (Figure 3).
    pub const VARIATION_THRESHOLD: f64 = 0.005;

    /// Characterizes a raw Mem/Uop series.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty.
    #[must_use]
    pub fn from_mem_uop_series(series: &[f64]) -> Self {
        Self::from_mem_uop_iter(series.iter().copied())
    }

    /// Characterizes a Mem/Uop series in one streaming pass, without
    /// buffering it — sum, consecutive-pair comparison, and count all fold
    /// over the iterator.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty.
    #[must_use]
    pub fn from_mem_uop_iter(series: impl IntoIterator<Item = f64>) -> Self {
        let mut sum = 0.0;
        let mut varying = 0usize;
        let mut samples = 0usize;
        let mut prev = None;
        for rate in series {
            sum += rate;
            samples += 1;
            if let Some(p) = prev {
                if f64::abs(rate - p) > Self::VARIATION_THRESHOLD {
                    varying += 1;
                }
            }
            prev = Some(rate);
        }
        assert!(samples > 0, "cannot characterize an empty series");
        let pairs = samples - 1;
        let pct = if pairs == 0 {
            0.0
        } else {
            100.0 * varying as f64 / pairs as f64
        };
        Self {
            mean_mem_uop: sum / samples as f64,
            sample_variation_pct: pct,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(mem_uop: f64) -> IntervalWork {
        let uops = 1_000_000u64;
        IntervalWork::new(uops, uops, (uops as f64 * mem_uop) as u64, 0.6, 2.0)
    }

    #[test]
    fn stats_of_constant_series() {
        let s = TraceStats::from_mem_uop_series(&[0.02; 50]);
        assert!((s.mean_mem_uop - 0.02).abs() < 1e-12);
        assert_eq!(s.sample_variation_pct, 0.0);
        assert_eq!(s.samples, 50);
    }

    #[test]
    fn stats_of_alternating_series() {
        // 0.001 <-> 0.020 swings are all above the 0.005 threshold.
        let series: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 0.001 } else { 0.020 })
            .collect();
        let s = TraceStats::from_mem_uop_series(&series);
        assert!((s.sample_variation_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn sub_threshold_wiggle_is_stable() {
        let series: Vec<f64> = (0..100)
            .map(|i| 0.010 + if i % 2 == 0 { 0.002 } else { -0.002 })
            .collect();
        let s = TraceStats::from_mem_uop_series(&series);
        assert_eq!(s.sample_variation_pct, 0.0, "0.004 moves are below 0.005");
    }

    #[test]
    fn single_sample_has_zero_variation() {
        let s = TraceStats::from_mem_uop_series(&[0.01]);
        assert_eq!(s.sample_variation_pct, 0.0);
    }

    #[test]
    fn trace_accessors() {
        let t = WorkloadTrace::new("toy", vec![w(0.01), w(0.02)]);
        assert_eq!(t.name(), "toy");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.mem_uop_series().len(), 2);
        assert_eq!(t.iter().count(), 2);
        assert_eq!((&t).into_iter().count(), 2);
        let stats = t.characterize();
        assert_eq!(stats.samples, 2);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_trace_rejected() {
        let _ = WorkloadTrace::new("empty", vec![]);
    }
}
