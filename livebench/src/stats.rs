//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! failure accounting, open-loop due times and backlog growth.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// A tail value: the nearest-rank percentile it sits at and the sample
/// count it was taken from, so a report can state both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at the chosen rank.
    pub value: f64,
    /// Nearest-rank percentile of that value, in percent.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{:.1} of {} samples", self.percentile, self.samples)
    }
}

/// The highest percentile, at most p99, that has at least ten samples
/// beyond it (nearest rank), or `None` when fewer than 11 samples exist.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    // Nearest-rank p99 sits at index ceil(0.99 n) - 1; an index k has
    // n - 1 - k samples beyond it, so at least ten means k <= n - 11.
    let p99 = (n * 99).div_ceil(100) - 1;
    let k = p99.min(n - 11);
    Some(Tail {
        value: v[k],
        percentile: (k + 1) as f64 * 100.0 / n as f64,
        samples: n,
    })
}

/// Nearest-rank quantile `q` (in 0..=1) of `values`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The quietest of repeated measurements of one unit of work: their
/// minimum.
///
/// On a 2-vCPU VM whose host is shared (Intel Xeon), contention from
/// other guests comes and goes within seconds and can hold for minutes,
/// stretching a fixed unit by up to 70 % (one 15 s run saw a fixed
/// scenario take 0.139-0.247 s; across six 20 s runs in a busy hour the
/// lower quartile read 0.145-0.212 s). The work itself cannot run faster
/// than its cost, so the fastest repetition is the estimate host
/// contention disturbs least: the same six runs' minima read
/// 0.125-0.142 s.
pub fn quietest(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// Operations attempted and failed. A refused, errored, missing or
/// wrong result is a failure; a failure also misses any latency limit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations the workload attempted.
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
}

impl Outcomes {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts `n` operations that all failed (e.g. the samples still
    /// unanswered when a connection died).
    pub fn record_failed(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted; zero when nothing was attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// An open-loop send schedule: sample `i` of a rung is due at
/// `start + i / rate`, whether or not earlier samples were answered.
/// Latency is measured from the due time, so a stall that delays the
/// generator or the server also counts against every sample queued
/// behind it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Nanoseconds between consecutive due times (0 = all due at once).
    pub gap_ns: u64,
}

impl Schedule {
    /// A schedule offering `rate` samples per second; a non-finite rate
    /// makes every sample due at the start.
    pub fn at_rate(rate: f64) -> Self {
        let gap_ns = if rate.is_finite() && rate > 0.0 {
            (1e9 / rate).round() as u64
        } else {
            0
        };
        Self { gap_ns }
    }

    /// Due offset of sample `i`, in nanoseconds from the rung start.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.gap_ns
    }

    /// How many samples are due by `elapsed_ns` (capped at `total`).
    pub fn due_by(&self, elapsed_ns: u64, total: u64) -> u64 {
        elapsed_ns
            .checked_div(self.gap_ns)
            .map_or(total, |i| (i + 1).min(total))
    }

    /// Latency of a sample answered at `done_ns`, counted from its due
    /// time rather than from when it was actually sent.
    pub fn latency_ns(&self, i: u64, done_ns: u64) -> u64 {
        done_ns.saturating_sub(self.due_ns(i))
    }
}

/// Whether a backlog series (samples due but not yet answered, sampled
/// at a fixed cadence over a rung) grew: the last third's median
/// exceeds twice the first third's plus `slack` samples. A steady
/// backlog hovers, and a brief stall only spikes it; one over capacity
/// climbs for good.
pub fn backlog_grows(series: &[u64], slack: f64) -> bool {
    if series.len() < 3 {
        return false;
    }
    let third = series.len() / 3;
    let med = |s: &[u64]| median(&s.iter().map(|&b| b as f64).collect::<Vec<_>>());
    med(&series[series.len() - third..]) > 2.0 * med(&series[..third]) + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let values = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&values(10)), None, "ten samples leave none beyond ten");
        // 11 samples: only the minimum has ten beyond it.
        let t = tail(&values(11)).unwrap();
        assert_eq!((t.value, t.samples), (1.0, 11));
        // 1000 samples: p99 (rank 990) has exactly ten beyond.
        let t = tail(&values(1000)).unwrap();
        assert_eq!(t.value, 990.0);
        assert!((t.percentile - 99.0).abs() < 1e-9);
        // 500 samples: p99 would leave five beyond, so it falls to p98.
        let t = tail(&values(500)).unwrap();
        assert_eq!(t.value, 490.0);
        assert!((t.percentile - 98.0).abs() < 1e-9);
        // 5000 samples: capped at p99 with 50 beyond.
        let t = tail(&values(5000)).unwrap();
        assert_eq!(t.value, 4950.0);
        assert_eq!(t.to_string(), "p99.0 of 5000 samples");
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn failed_frac_counts_every_kind_of_failure_against_attempts() {
        let mut o = Outcomes::default();
        assert_eq!(o.failed_frac(), 0.0);
        for ok in [true, true, false, true] {
            o.record(ok);
        }
        o.record_failed(4);
        assert_eq!((o.attempted, o.failed), (8, 5));
        let mut total = Outcomes::default();
        total.merge(o);
        total.merge(Outcomes {
            attempted: 2,
            failed: 0,
        });
        assert_eq!(total.failed_frac(), 0.5);
    }

    /// Replays a FIFO server that answers one sample per `service_ns`,
    /// fed by a generator that stalls once before sending sample 5.
    /// Returns each sample's latency from its due time and from its
    /// actual send time.
    fn replay_with_stall(stall_ns: u64) -> (Vec<u64>, Vec<u64>) {
        let schedule = Schedule::at_rate(100_000.0); // one due every 10 µs
        let service_ns = 5_000;
        let mut clock = 0u64;
        let mut server_free = 0u64;
        let (mut from_due, mut from_send) = (Vec::new(), Vec::new());
        for i in 0..20 {
            if i == 5 {
                clock += stall_ns;
            }
            let send = clock.max(schedule.due_ns(i));
            clock = send;
            let done = send.max(server_free) + service_ns;
            server_free = done;
            from_due.push(schedule.latency_ns(i, done));
            from_send.push(done - send);
        }
        (from_due, from_send)
    }

    #[test]
    fn an_injected_stall_raises_the_latency_of_samples_queued_behind_it() {
        let (calm, _) = replay_with_stall(0);
        let (stalled, stalled_from_send) = replay_with_stall(1_000_000);
        assert!(calm.iter().all(|&l| l == 5_000), "{calm:?}");
        assert_eq!(&stalled[..5], &calm[..5], "samples before the stall");
        // Every sample that came due during the 1 ms stall waited for it.
        for (i, l) in stalled.iter().enumerate().skip(5) {
            assert!(*l > 800_000, "sample {i}: {l}");
        }
        // Timing from the send instead sees only the short queue the
        // burst builds after the stall, never the stall itself.
        assert!(stalled_from_send.iter().all(|&l| l < 100_000));
    }

    #[test]
    fn schedule_counts_due_samples() {
        let s = Schedule::at_rate(1_000.0);
        assert_eq!(s.gap_ns, 1_000_000);
        assert_eq!(s.due_by(0, 10), 1);
        assert_eq!(s.due_by(2_500_000, 10), 3);
        assert_eq!(s.due_by(u64::MAX / 2, 10), 10);
        assert_eq!(Schedule::at_rate(f64::INFINITY).due_by(0, 7), 7);
    }

    #[test]
    fn backlog_growth_is_a_climb_not_a_wobble() {
        let steady = [40, 60, 35, 80, 50, 45, 70, 30, 55];
        assert!(!backlog_grows(&steady, 64.0));
        let stalled_once = [40, 60, 35, 80, 50, 45, 70, 3_000, 55];
        assert!(
            !backlog_grows(&stalled_once, 64.0),
            "one stall is not growth"
        );
        let climbing: Vec<u64> = (0..30).map(|i| i * 100).collect();
        assert!(backlog_grows(&climbing, 64.0));
        assert!(!backlog_grows(&[1, 1000], 0.0), "too short to judge");
    }
}
