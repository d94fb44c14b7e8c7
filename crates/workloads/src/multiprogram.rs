//! Multiprogrammed workload mixes.
//!
//! The paper's deployed system monitors whatever runs natively — including
//! multiprogrammed systems where the OS timeslices several applications
//! onto the core. From the PMI handler's viewpoint that interleaving
//! splices the programs' phase streams together, with abrupt behaviour
//! changes at every context switch. This module streams such mixes from
//! member sources, tagging each sampling interval with the pid that owned
//! it so process-aware predictors can be evaluated against
//! process-oblivious ones.

use crate::source::IntervalSource;
use livephase_pmsim::timing::IntervalWork;

/// The OS timeslicer as a streaming [`IntervalSource`]: rotates among
/// member sources with a fixed timeslice, dropping members from the
/// rotation as they finish. Memory is O(members), independent of mix
/// length — member sources are pulled from lazily.
#[derive(Debug)]
pub struct RoundRobinSource<S> {
    name: String,
    members: Vec<(u32, S)>,
    timeslice: usize,
    /// Index of the member currently holding the (virtual) core.
    current: usize,
    /// Intervals the current member has consumed of its slice.
    taken: usize,
}

impl<S: IntervalSource> RoundRobinSource<S> {
    /// Produces the next interval together with its owning pid.
    pub fn next_tagged(&mut self) -> Option<(u32, IntervalWork)> {
        loop {
            if self.members.is_empty() {
                return None;
            }
            if self.taken == self.timeslice {
                self.current = (self.current + 1) % self.members.len();
                self.taken = 0;
            }
            let (pid, member) = self.members.get_mut(self.current)?;
            match member.next_interval() {
                Some(w) => {
                    self.taken += 1;
                    return Some((*pid, w));
                }
                // Member finished (possibly mid-slice): leave the rotation;
                // removal shifts the next member into `current`.
                None => {
                    self.members.remove(self.current);
                    self.taken = 0;
                    if self.current >= self.members.len() {
                        self.current = 0;
                    }
                }
            }
        }
    }
}

impl<S: IntervalSource> IntervalSource for RoundRobinSource<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_interval(&mut self) -> Option<IntervalWork> {
        self.next_tagged().map(|(_, w)| w)
    }

    fn len_hint(&self) -> Option<usize> {
        // Every member runs to completion, so the mix length is the sum —
        // known only when every member knows its own.
        self.members
            .iter()
            .map(|(_, m)| m.len_hint())
            .try_fold(0usize, |acc, h| h.map(|n| acc + n))
    }
}

/// Round-robin schedules streaming `members` (pid-tagged sources) with a
/// fixed timeslice (in sampling intervals); members that finish drop out
/// of the rotation, as on a real scheduler.
///
/// # Panics
///
/// Panics if `members` is empty or `timeslice` is zero.
#[must_use]
pub fn round_robin_source<S: IntervalSource>(
    members: Vec<(u32, S)>,
    timeslice: usize,
    name: impl Into<String>,
) -> RoundRobinSource<S> {
    assert!(!members.is_empty(), "a mix needs at least one job");
    assert!(timeslice >= 1, "timeslice must be at least one interval");
    RoundRobinSource {
        name: name.into(),
        members,
        timeslice,
        current: 0,
        taken: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use crate::trace::WorkloadTrace;

    fn trace(bench: &str, len: usize) -> WorkloadTrace {
        spec::benchmark(bench).unwrap().with_length(len).generate(1)
    }

    /// Drains the round-robin mix of `traces` (pids 1, 2, …).
    fn mix(traces: &[WorkloadTrace], timeslice: usize) -> Vec<(u32, IntervalWork)> {
        let members = (1..)
            .zip(traces.iter().map(WorkloadTrace::stream))
            .collect();
        let mut source = round_robin_source(members, timeslice, "mix");
        std::iter::from_fn(|| source.next_tagged()).collect()
    }

    fn pids(mix: &[(u32, IntervalWork)]) -> Vec<u32> {
        mix.iter().map(|&(pid, _)| pid).collect()
    }

    #[test]
    fn round_robin_interleaves_fairly() {
        let m = mix(&[trace("crafty_in", 10), trace("swim_in", 10)], 2);
        let pids = pids(&m);
        assert_eq!(pids.len(), 20);
        assert_eq!(pids[..6], [1, 1, 2, 2, 1, 1]);
        assert_eq!(pids.windows(2).filter(|w| w[0] != w[1]).count(), 9);
    }

    #[test]
    fn uneven_jobs_drop_out() {
        let pids = pids(&mix(&[trace("crafty_in", 4), trace("swim_in", 12)], 2));
        assert_eq!(pids.len(), 16);
        // After job 1 exhausts, only pid 2 remains.
        assert!(pids[8..].iter().all(|&p| p == 2));
    }

    #[test]
    fn timeslice_of_entire_job_is_concatenation() {
        let traces = [trace("crafty_in", 5), trace("swim_in", 5)];
        let m = mix(&traces, 5);
        let intervals: Vec<IntervalWork> = m.iter().map(|&(_, w)| w).collect();
        assert_eq!(
            intervals,
            [traces[0].intervals(), traces[1].intervals()].concat()
        );
        assert_eq!(pids(&m), [1, 1, 1, 1, 1, 2, 2, 2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_mix_rejected() {
        let _ = mix(&[], 1);
    }

    #[test]
    #[should_panic(expected = "timeslice")]
    fn zero_timeslice_rejected() {
        let _ = mix(&[trace("crafty_in", 2)], 0);
    }
}
