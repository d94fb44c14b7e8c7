//! Temporal phase patterns: how a workload moves between its levels.
//!
//! Real applications execute as nested loops: an inner loop dwells on one
//! behaviour for a few sampling intervals, an outer loop cycles through a
//! short sequence of behaviours, and the program as a whole strings a few
//! such *movements* together (initialization, main computation, output,
//! ...). The paper's Figure 2 shows exactly this structure for `applu`.
//!
//! A [`Movement`] is one outer loop: an ordered list of [`Step`]s
//! (level + dwell) repeated a number of times. A benchmark is a list of
//! movements cycled until the requested trace length is met.

use rand::Rng;

/// One inner-loop leg: dwell on `level` for `dwell` sampling intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Index into the benchmark's level table.
    pub level: usize,
    /// Number of consecutive sampling intervals spent at the level.
    pub dwell: u32,
}

impl Step {
    /// Creates a step.
    ///
    /// # Panics
    ///
    /// Panics if `dwell` is zero.
    #[must_use]
    pub fn new(level: usize, dwell: u32) -> Self {
        assert!(dwell >= 1, "a step must dwell at least one interval");
        Self { level, dwell }
    }
}

/// An outer loop: a step sequence repeated `repeats` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Movement {
    /// The step sequence of one outer-loop iteration.
    pub steps: Vec<Step>,
    /// How many times the sequence repeats before the next movement.
    pub repeats: u32,
}

impl Movement {
    /// Creates a movement.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or `repeats` is zero.
    #[must_use]
    pub fn new(steps: Vec<Step>, repeats: u32) -> Self {
        assert!(!steps.is_empty(), "a movement needs at least one step");
        assert!(repeats >= 1, "a movement must repeat at least once");
        Self { steps, repeats }
    }

    /// A movement that just dwells on one level.
    #[must_use]
    pub fn constant(level: usize, intervals: u32) -> Self {
        Self::new(vec![Step::new(level, intervals)], 1)
    }

    /// Total sampling intervals one full pass of the movement covers.
    #[must_use]
    pub fn intervals(&self) -> u64 {
        let per_pass: u64 = self.steps.iter().map(|s| u64::from(s.dwell)).sum();
        per_pass * u64::from(self.repeats)
    }

    /// The largest level index referenced, for validation against a level
    /// table.
    #[must_use]
    pub fn max_level(&self) -> usize {
        self.steps.iter().map(|s| s.level).max().unwrap_or(0)
    }
}

/// Draws one standard-normal variate via Box–Muller (the sanctioned `rand`
/// crate is available offline; `rand_distr` is not, and two lines suffice).
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn movement_interval_count() {
        let m = Movement::new(vec![Step::new(0, 2), Step::new(1, 3)], 4);
        assert_eq!(m.intervals(), 20);
    }

    #[test]
    fn constant_movement() {
        let m = Movement::constant(3, 7);
        assert_eq!(m.intervals(), 7);
        assert_eq!(m.max_level(), 3);
    }

    #[test]
    fn normal_draws_are_reasonable() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    #[should_panic(expected = "at least one interval")]
    fn zero_dwell_rejected() {
        let _ = Step::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_movement_rejected() {
        let _ = Movement::new(vec![], 1);
    }
}
