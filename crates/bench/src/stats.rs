//! Deterministic summary statistics over per-iteration timing samples.
//!
//! Everything here is integer math over sorted copies of the input, so
//! the same sample vector always yields the same summary — the property
//! the harness tests pin with proptest. The statistics are the robust
//! trio the whole harness is built on: the **median** (location), the
//! **p90** (tail), and the **MAD** (median absolute deviation — spread
//! that one cold-cache outlier cannot drag around the way a standard
//! deviation can).

/// Robust summary of one area's per-iteration wall-clock samples, in
/// nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Number of timed iterations summarized.
    pub iterations: usize,
    /// Median; even-length inputs average the two middle elements
    /// (rounding the half down, so the result stays an integer).
    pub median_ns: u64,
    /// Nearest-rank 90th percentile: the `ceil(0.9 n)`-th smallest.
    pub p90_ns: u64,
    /// Median absolute deviation from [`median_ns`](Self::median_ns).
    pub mad_ns: u64,
    /// Smallest sample.
    pub min_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
    /// Sum of all samples (saturating).
    pub total_ns: u64,
}

/// Median of a **sorted** slice; even lengths average the two middle
/// elements, rounding down.
fn median_of_sorted(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    let mid = n / 2;
    if n % 2 == 1 {
        sorted[mid]
    } else {
        // Average without overflow: midpoint of the two middles.
        let (a, b) = (sorted[mid - 1], sorted[mid]);
        a / 2 + b / 2 + (a % 2 + b % 2) / 2
    }
}

impl Summary {
    /// Summarizes a sample vector, or `None` when it is empty.
    #[must_use]
    pub fn from_ns(samples: &[u64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let median_ns = median_of_sorted(&sorted);
        // Nearest-rank p90: ceil(0.9 n) as pure integer math.
        let rank = (9 * n).div_ceil(10).max(1);
        let p90_ns = sorted[rank - 1];
        let mut deviations: Vec<u64> = sorted.iter().map(|&v| v.abs_diff(median_ns)).collect();
        deviations.sort_unstable();
        let mad_ns = median_of_sorted(&deviations);
        Some(Self {
            iterations: n,
            median_ns,
            p90_ns,
            mad_ns,
            min_ns: sorted[0],
            max_ns: sorted[n - 1],
            total_ns: sorted.iter().fold(0u64, |acc, &v| acc.saturating_add(v)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_length_median_is_the_middle() {
        let s = Summary::from_ns(&[5, 1, 9]).unwrap();
        assert_eq!(s.median_ns, 5);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, 9);
        assert_eq!(s.total_ns, 15);
    }

    #[test]
    fn even_length_median_averages_the_middles() {
        let s = Summary::from_ns(&[1, 3, 5, 100]).unwrap();
        assert_eq!(s.median_ns, 4);
        // Odd halves round down: (3 + 4) / 2 = 3.
        assert_eq!(Summary::from_ns(&[3, 4]).unwrap().median_ns, 3);
    }

    #[test]
    fn all_equal_inputs_have_zero_spread() {
        let s = Summary::from_ns(&[7; 10]).unwrap();
        assert_eq!(s.median_ns, 7);
        assert_eq!(s.p90_ns, 7);
        assert_eq!(s.mad_ns, 0);
    }

    #[test]
    fn p90_is_nearest_rank() {
        let samples: Vec<u64> = (1..=10).collect();
        assert_eq!(Summary::from_ns(&samples).unwrap().p90_ns, 9);
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(Summary::from_ns(&samples).unwrap().p90_ns, 90);
        assert_eq!(Summary::from_ns(&[42]).unwrap().p90_ns, 42);
    }

    #[test]
    fn empty_input_has_no_summary() {
        assert_eq!(Summary::from_ns(&[]), None);
    }

    #[test]
    fn mad_resists_an_outlier() {
        // One cold-cache outlier: the MAD stays put where a stddev would
        // explode.
        let s = Summary::from_ns(&[100, 101, 99, 100, 100_000]).unwrap();
        assert_eq!(s.median_ns, 100);
        assert_eq!(s.mad_ns, 1);
    }
}
