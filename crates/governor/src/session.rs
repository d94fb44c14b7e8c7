//! Experiment sessions: shared-platform runs, per-interval observers, and
//! deterministic parallel sweeps.
//!
//! Every figure and ablation driver repeats the same skeleton: build the
//! paper's platform once, run one workload under a handful of managed
//! systems, and collect the reports. [`Session`] captures that skeleton —
//! it borrows one [`PlatformConfig`] for its whole lifetime (no
//! clone-per-run) and hands out runs under the standard managers or any
//! custom [`Manager`].
//!
//! [`IntervalObserver`] is the streaming tap: attached to a run it sees
//! every [`IntervalLog`] the instant the PMI handler files it, which is
//! how live DAQ logging and thermal watchdogs integrate without waiting
//! for the report.
//!
//! [`par_map`] is the sweep primitive: it fans a work list over scoped
//! worker threads and returns results **in input order**, so a parallel
//! sweep is element-for-element identical to the sequential loop it
//! replaces — per-item determinism (independent seeding) is preserved and
//! only wall-clock time changes.

use crate::manager::{Manager, ManagerConfig};
use crate::report::{IntervalLog, RunReport};
use livephase_pmsim::PlatformConfig;
use livephase_workloads::IntoIntervalSource;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A streaming tap on a managed run.
///
/// Both hooks default to no-ops so observers implement only what they
/// watch; `()` is the null observer.
pub trait IntervalObserver {
    /// Called right after the PMI handler logs each interval (including
    /// the partial tail of a run that ends off the sampling grid).
    fn on_interval(&mut self, interval: &IntervalLog) {
        let _ = interval;
    }

    /// Called once with the finished report.
    fn on_complete(&mut self, report: &RunReport) {
        let _ = report;
    }
}

/// The null observer.
impl IntervalObserver for () {}

/// Observers compose by pairing: both see every event, left first.
impl<A: IntervalObserver, B: IntervalObserver> IntervalObserver for (A, B) {
    fn on_interval(&mut self, interval: &IntervalLog) {
        self.0.on_interval(interval);
        self.1.on_interval(interval);
    }

    fn on_complete(&mut self, report: &RunReport) {
        self.0.on_complete(report);
        self.1.on_complete(report);
    }
}

/// A borrowed platform plus a handler configuration: the fixed context an
/// experiment runs its workloads in.
#[derive(Debug, Clone)]
pub struct Session<'p> {
    platform: &'p PlatformConfig,
    config: ManagerConfig,
}

impl<'p> Session<'p> {
    /// Creates a session on `platform` with the deployed handler
    /// configuration.
    #[must_use]
    pub fn new(platform: &'p PlatformConfig) -> Self {
        Self {
            platform,
            config: ManagerConfig::pentium_m(),
        }
    }

    /// Replaces the handler configuration (thermal tracking, adaptive
    /// sampling, alternative phase maps) for subsequent runs.
    #[must_use]
    pub fn with_config(mut self, config: ManagerConfig) -> Self {
        self.config = config;
        self
    }

    /// The platform every run shares.
    #[must_use]
    pub fn platform(&self) -> &'p PlatformConfig {
        self.platform
    }

    /// The handler configuration applied to the standard-policy runs.
    #[must_use]
    pub fn config(&self) -> &ManagerConfig {
        &self.config
    }

    /// Runs `workload` unmanaged (always full speed).
    #[must_use]
    pub fn baseline(&self, workload: impl IntoIntervalSource) -> RunReport {
        self.run(Manager::baseline_with(self.config.clone()), workload)
    }

    /// Runs `workload` under last-value reactive management.
    #[must_use]
    pub fn reactive(&self, workload: impl IntoIntervalSource) -> RunReport {
        self.run(Manager::reactive_with(self.config.clone()), workload)
    }

    /// Runs `workload` under the paper's deployed GPHT system.
    #[must_use]
    pub fn gpht(&self, workload: impl IntoIntervalSource) -> RunReport {
        self.run(Manager::gpht_deployed_with(self.config.clone()), workload)
    }

    /// Runs `workload` under a fully custom manager on the shared platform.
    #[must_use]
    pub fn run(&self, manager: Manager, workload: impl IntoIntervalSource) -> RunReport {
        manager.run(workload, self.platform)
    }

    /// [`run`](Self::run) with an [`IntervalObserver`] attached.
    #[must_use]
    pub fn run_observed(
        &self,
        manager: Manager,
        workload: impl IntoIntervalSource,
        observer: &mut impl IntervalObserver,
    ) -> RunReport {
        manager.run_observed(workload, self.platform, observer)
    }
}

/// Maps `f` over `items` on scoped worker threads, returning results in
/// input order.
///
/// Work is handed out through an atomic cursor, so threads never partition
/// the list statically; results come home over a channel tagged with their
/// index and are reassembled in order. With one item (or one available
/// core) this degrades to the plain sequential loop. Either way the output
/// is **identical** to `items.iter().map(f).collect()` whenever `f` is a
/// pure function of its argument — which every experiment driver
/// guarantees by seeding each item independently.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    livephase_telemetry::global()
        .counter(
            &livephase_telemetry::catalogue::GOVERNOR_PARMAP_JOBS_TOTAL,
            &[],
        )
        .add(n as u64);
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                if tx.send((i, f(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        for (i, r) in rx {
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(r);
            }
        }
        // Workers claim each index exactly once, so every slot is filled.
        slots.into_iter().flatten().collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use livephase_workloads::spec;

    fn trace(name: &str, len: usize) -> livephase_workloads::WorkloadTrace {
        spec::benchmark(name).unwrap().with_length(len).generate(11)
    }

    #[test]
    fn session_runs_the_three_systems_without_cloning_the_platform() {
        let platform = PlatformConfig::pentium_m();
        let session = Session::new(&platform);
        let t = trace("applu_in", 40);
        let b = session.baseline(&t);
        let r = session.reactive(&t);
        let g = session.gpht(&t);
        assert_eq!(b.policy, "Baseline");
        assert!(r.policy.contains("Reactive"));
        assert!(g.policy.contains("GPHT"));
        assert!(g.totals.energy_j < b.totals.energy_j);
    }

    #[test]
    fn session_matches_direct_manager_runs() {
        let platform = PlatformConfig::pentium_m();
        let session = Session::new(&platform);
        let t = trace("crafty_in", 30);
        assert_eq!(
            session.gpht(&t),
            Manager::gpht_deployed().run(&t, &platform)
        );
    }

    #[test]
    fn observer_sees_every_interval_and_the_report() {
        struct Counter {
            intervals: usize,
            completed: usize,
        }
        impl IntervalObserver for Counter {
            fn on_interval(&mut self, _: &IntervalLog) {
                self.intervals += 1;
            }
            fn on_complete(&mut self, report: &RunReport) {
                self.completed += 1;
                assert_eq!(report.intervals.len(), self.intervals);
            }
        }
        let platform = PlatformConfig::pentium_m();
        let session = Session::new(&platform);
        let t = trace("swim_in", 25);
        let mut counter = Counter {
            intervals: 0,
            completed: 0,
        };
        let report = session.run_observed(Manager::gpht_deployed(), &t, &mut counter);
        assert_eq!(counter.intervals, report.intervals.len());
        assert_eq!(counter.completed, 1);
    }

    #[test]
    fn paired_observers_both_fire() {
        let platform = PlatformConfig::pentium_m();
        let session = Session::new(&platform);
        let t = trace("swim_in", 5);
        struct Tally(usize);
        impl IntervalObserver for Tally {
            fn on_interval(&mut self, _: &IntervalLog) {
                self.0 += 1;
            }
        }
        let mut pair = (Tally(0), Tally(0));
        let _ = session.run_observed(Manager::baseline(), &t, &mut pair);
        assert_eq!(pair.0 .0, 5);
        assert_eq!(pair.1 .0, 5);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        let out = par_map(&items, |&i| i * 3);
        assert_eq!(out, items.iter().map(|&i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_input_yields_empty_output() {
        assert_eq!(par_map::<usize, usize>(&[], |_| 0), Vec::<usize>::new());
    }

    #[test]
    fn par_map_single_item_degrades_to_sequential() {
        assert_eq!(par_map(&[7usize], |&i| i + 1), vec![8]);
    }

    #[test]
    fn par_map_more_workers_than_items_stays_in_order() {
        // Worker count clamps to the item count, so any machine — however
        // many cores — runs 2- and 3-item lists correctly and in order.
        // Stagger completion so a later item finishing first would expose
        // an ordering bug.
        for n in [2usize, 3, 5] {
            let items: Vec<usize> = (0..n).collect();
            let out = par_map(&items, |&i| {
                std::thread::sleep(std::time::Duration::from_millis(((n - i) * 5) as u64));
                i * 10
            });
            assert_eq!(out, items.iter().map(|&i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn decision_trace_tracks_interval_settings() {
        let platform = PlatformConfig::pentium_m();
        let session = Session::new(&platform);
        let t = trace("applu_in", 50);
        let r = session.gpht(&t);
        let d = r.decision_trace();
        assert_eq!(d.len(), r.intervals.len() - 1);
        assert_eq!(
            d,
            r.intervals[1..]
                .iter()
                .map(|i| i.dvfs_index)
                .collect::<Vec<_>>()
        );
        assert!(d.iter().any(|&s| s > 0), "applu switches settings");
    }

    #[test]
    fn parallel_runs_equal_sequential_runs() {
        let platform = PlatformConfig::pentium_m();
        let session = Session::new(&platform);
        let names = ["applu_in", "crafty_in", "swim_in", "mcf_inp"];
        let sequential: Vec<RunReport> = names.iter().map(|n| session.gpht(trace(n, 30))).collect();
        let parallel = par_map(&names, |n| session.gpht(trace(n, 30)));
        assert_eq!(sequential, parallel);
    }
}
