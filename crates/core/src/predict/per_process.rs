//! Process-aware prediction for multiprogrammed systems.
//!
//! When the OS timeslices several programs onto the core, a single shared
//! predictor sees their phase streams spliced together: every context
//! switch both injects an unpredictable transition and pollutes the
//! pattern history with cross-program garbage. The PMI handler knows the
//! current pid, so the natural fix — analogous to per-address branch
//! history — is one predictor instance per process.

use super::{PhaseSample, Predictor};
use crate::phase::PhaseId;
use livephase_collections::HashMap;

/// A pid-indexed family of predictors.
///
/// ```
/// use livephase_core::{Gpht, GphtConfig, PhaseSample, PhaseId};
/// use livephase_core::predict::per_process::PerProcess;
///
/// let mut pp = PerProcess::new(|| Gpht::new(GphtConfig::DEPLOYED));
/// let s = PhaseSample::new(0.001, PhaseId::new(1));
/// let _ = pp.next(101, s); // process 101's own history
/// let _ = pp.next(202, s); // process 202 starts fresh
/// assert_eq!(pp.processes(), 2);
/// ```
#[derive(Debug)]
pub struct PerProcess<P, F> {
    factory: F,
    slots: HashMap<u32, P>,
}

impl<P: Predictor, F: Fn() -> P> PerProcess<P, F> {
    /// Creates the family; `factory` builds a fresh predictor for each
    /// newly seen pid.
    #[must_use]
    pub fn new(factory: F) -> Self {
        Self {
            factory,
            slots: HashMap::new(),
        }
    }

    /// Observes a sample attributed to `pid` and returns that process's
    /// next-phase prediction.
    pub fn next(&mut self, pid: u32, sample: PhaseSample) -> PhaseId {
        self.slot(pid).next(sample)
    }

    /// Observes without predicting.
    pub fn observe(&mut self, pid: u32, sample: PhaseSample) {
        self.slot(pid).observe(sample);
    }

    /// The prediction currently standing for `pid` (CPU-bound phase for a
    /// never-seen process).
    #[must_use]
    pub fn predict(&self, pid: u32) -> PhaseId {
        self.slots
            .get(&pid)
            .map_or(PhaseId::CPU_BOUND, Predictor::predict)
    }

    /// Number of processes with live predictor state.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.slots.len()
    }

    /// Drops a terminated process's state (the LKM would do this on exit
    /// to bound kernel memory).
    pub fn retire(&mut self, pid: u32) -> bool {
        self.slots.remove(&pid).is_some()
    }

    /// Clears all per-process state.
    pub fn reset(&mut self) {
        self.slots.clear();
    }

    fn slot(&mut self, pid: u32) -> &mut P {
        self.slots.entry(pid).or_insert_with(&self.factory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::predict::gpht::{Gpht, GphtConfig};

    fn s(id: u8) -> PhaseSample {
        PhaseSample::new(f64::from(id) * 0.005, PhaseId::new(id))
    }

    #[test]
    fn processes_are_isolated() {
        let mut pp = PerProcess::new(|| Gpht::new(GphtConfig::DEPLOYED));
        // Process 1 learns 1-6 alternation; process 2 stays constant 3.
        for _ in 0..100 {
            pp.observe(1, s(1));
            pp.observe(2, s(3));
            pp.observe(1, s(6));
        }
        assert_eq!(pp.predict(2).get(), 3, "process 2 unpolluted");
        assert_eq!(pp.processes(), 2);
    }

    #[test]
    fn per_process_beats_shared_on_interleaved_streams() {
        // Two programs with clashing periodic patterns, timesliced 1:1.
        let a: Vec<u8> = [1u8, 4, 1, 4].iter().copied().cycle().take(400).collect();
        let b: Vec<u8> = [6u8, 2, 3, 6, 2, 3]
            .iter()
            .copied()
            .cycle()
            .take(400)
            .collect();

        // Shared predictor sees the splice.
        let mut shared = Gpht::new(GphtConfig::DEPLOYED);
        let spliced: Vec<PhaseSample> =
            a.iter().zip(&b).flat_map(|(&x, &y)| [s(x), s(y)]).collect();
        let shared_stats = evaluate(&mut shared, spliced.iter().copied());

        // Per-process: score each process's own stream.
        let mut pp = PerProcess::new(|| Gpht::new(GphtConfig::DEPLOYED));
        let mut correct = 0u64;
        let mut total = 0u64;
        let mut pending: HashMap<u32, Option<PhaseId>> = HashMap::new();
        for (&x, &y) in a.iter().zip(&b) {
            for (pid, sample) in [(1u32, s(x)), (2u32, s(y))] {
                if let Some(Some(prev)) = pending.get(&pid) {
                    total += 1;
                    if *prev == sample.phase {
                        correct += 1;
                    }
                }
                let next = pp.next(pid, sample);
                pending.insert(pid, Some(next));
            }
        }
        let pp_acc = correct as f64 / total as f64;
        // A strictly periodic 1:1 interleave is itself a (longer) periodic
        // pattern, so a shared GPHT can learn the splice too — per-process
        // must at least match it here. The decisive advantage appears on
        // quasi-periodic programs under realistic scheduling, which the
        // `multiprogram` extension experiment demonstrates.
        assert!(
            pp_acc >= shared_stats.accuracy() - 0.01,
            "per-process {pp_acc:.3} vs shared {:.3}",
            shared_stats.accuracy()
        );
        assert!(pp_acc > 0.9, "isolated patterns are learnable: {pp_acc:.3}");
    }

    #[test]
    fn retire_frees_state() {
        let mut pp = PerProcess::new(|| Gpht::new(GphtConfig::DEPLOYED));
        pp.observe(9, s(5));
        assert!(pp.retire(9));
        assert!(!pp.retire(9));
        assert_eq!(pp.processes(), 0);
        assert_eq!(pp.predict(9), PhaseId::CPU_BOUND);
    }

    #[test]
    fn reset_clears_all() {
        let mut pp = PerProcess::new(|| Gpht::new(GphtConfig::DEPLOYED));
        pp.observe(1, s(2));
        pp.observe(2, s(2));
        pp.reset();
        assert_eq!(pp.processes(), 0);
    }
}
