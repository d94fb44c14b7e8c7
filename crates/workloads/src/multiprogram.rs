//! Multiprogrammed workload mixes.
//!
//! The paper's deployed system monitors whatever runs natively — including
//! multiprogrammed systems where the OS timeslices several applications
//! onto the core. From the PMI handler's viewpoint that interleaving
//! splices the programs' phase streams together, with abrupt behaviour
//! changes at every context switch. This module builds such mixes from
//! registered benchmarks, preserving the schedule (which process owned
//! each sampling interval) so process-aware predictors can be evaluated
//! against process-oblivious ones.

use crate::source::IntervalSource;
use crate::trace::WorkloadTrace;
use livephase_pmsim::timing::IntervalWork;
use serde::{Deserialize, Serialize};

/// One program in a mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Process identifier (as the OS scheduler would report at the PMI).
    pub pid: u32,
    /// The program's own phase trace.
    pub trace: WorkloadTrace,
}

impl Job {
    /// Creates a job.
    #[must_use]
    pub fn new(pid: u32, trace: WorkloadTrace) -> Self {
        Self { pid, trace }
    }
}

/// An interleaved mix: the merged interval stream plus the owning pid of
/// every sampling interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiProgramTrace {
    trace: WorkloadTrace,
    pids: Vec<u32>,
}

impl MultiProgramTrace {
    /// The merged workload trace.
    #[must_use]
    pub fn trace(&self) -> &WorkloadTrace {
        &self.trace
    }

    /// The pid that owned each sampling interval.
    #[must_use]
    pub fn pids(&self) -> &[u32] {
        &self.pids
    }

    /// Number of sampling intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pids.len()
    }

    /// Mixes are never empty; returns `false` (API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of context switches in the schedule.
    #[must_use]
    pub fn context_switches(&self) -> usize {
        let next = self.pids.iter().skip(1);
        self.pids.iter().zip(next).filter(|(a, b)| a != b).count()
    }

    /// Iterates `(pid, interval)` pairs in execution order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &IntervalWork)> + '_ {
        self.pids.iter().copied().zip(self.trace.iter())
    }
}

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
    /// Pid that owned the most recently emitted interval.
    last_pid: Option<u32>,
}

impl<S: IntervalSource> RoundRobinSource<S> {
    /// The pid that owned the interval most recently returned by
    /// [`next_interval`](IntervalSource::next_interval) — what the PMI
    /// handler would read from the OS at the sample.
    #[must_use]
    pub fn last_pid(&self) -> Option<u32> {
        self.last_pid
    }

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
                    let pid = *pid;
                    self.last_pid = Some(pid);
                    return Some((pid, w));
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
        last_pid: None,
    }
}

/// Round-robin schedules `jobs` with a fixed timeslice (in sampling
/// intervals); jobs that finish drop out of the rotation, as on a real
/// scheduler. Materialized form of [`round_robin_source`].
///
/// # Panics
///
/// Panics if `jobs` is empty or `timeslice` is zero.
#[must_use]
pub fn round_robin(jobs: &[Job], timeslice: usize, name: &str) -> MultiProgramTrace {
    let members = jobs.iter().map(|j| (j.pid, j.trace.stream())).collect();
    let mut source = round_robin_source(members, timeslice, name);
    let mut intervals = Vec::with_capacity(source.len_hint().unwrap_or(0));
    let mut pids = Vec::with_capacity(intervals.capacity());
    while let Some((pid, w)) = source.next_tagged() {
        intervals.push(w);
        pids.push(pid);
    }
    MultiProgramTrace {
        trace: WorkloadTrace::new(name, intervals),
        pids,
    }
}

/// Runs `jobs` back to back (batch scheduling).
///
/// # Panics
///
/// Panics if `jobs` is empty.
#[must_use]
pub fn concatenate(jobs: &[Job], name: &str) -> MultiProgramTrace {
    assert!(!jobs.is_empty(), "a mix needs at least one job");
    let mut intervals = Vec::new();
    let mut pids = Vec::new();
    for j in jobs {
        intervals.extend(j.trace.intervals().iter().copied());
        pids.extend(std::iter::repeat_n(j.pid, j.trace.len()));
    }
    MultiProgramTrace {
        trace: WorkloadTrace::new(name, intervals),
        pids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn job(pid: u32, bench: &str, len: usize) -> Job {
        Job::new(
            pid,
            spec::benchmark(bench).unwrap().with_length(len).generate(1),
        )
    }

    #[test]
    fn round_robin_interleaves_fairly() {
        let jobs = [job(1, "crafty_in", 10), job(2, "swim_in", 10)];
        let mix = round_robin(&jobs, 2, "mix");
        assert_eq!(mix.len(), 20);
        assert_eq!(mix.pids()[..6], [1, 1, 2, 2, 1, 1]);
        assert_eq!(mix.context_switches(), 9);
    }

    #[test]
    fn uneven_jobs_drop_out() {
        let jobs = [job(1, "crafty_in", 4), job(2, "swim_in", 12)];
        let mix = round_robin(&jobs, 2, "mix");
        assert_eq!(mix.len(), 16);
        // After job 1 exhausts, only pid 2 remains.
        assert!(mix.pids()[8..].iter().all(|&p| p == 2));
    }

    #[test]
    fn timeslice_of_entire_job_is_concatenation() {
        let jobs = [job(1, "crafty_in", 5), job(2, "swim_in", 5)];
        let rr = round_robin(&jobs, 5, "rr");
        let cat = concatenate(&jobs, "cat");
        assert_eq!(rr.trace().intervals(), cat.trace().intervals());
        assert_eq!(rr.pids(), cat.pids());
        assert_eq!(cat.context_switches(), 1);
    }

    #[test]
    fn iter_pairs_pid_with_interval() {
        let jobs = [job(7, "crafty_in", 3)];
        let mix = concatenate(&jobs, "solo");
        assert!(mix.iter().all(|(pid, w)| pid == 7 && w.uops > 0));
        assert!(!mix.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_mix_rejected() {
        let _ = round_robin(&[], 1, "none");
    }

    #[test]
    #[should_panic(expected = "timeslice")]
    fn zero_timeslice_rejected() {
        let _ = round_robin(&[job(1, "crafty_in", 2)], 0, "bad");
    }
}
