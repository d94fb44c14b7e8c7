//! The order-preserving parallel sweep primitive.
//!
//! [`par_map`] fans a work list over scoped worker threads and returns
//! results **in input order**, so a parallel sweep is element-for-element
//! identical to the sequential loop it replaces — per-item determinism
//! (independent seeding) is preserved and only wall-clock time changes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

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
    use crate::manager::Manager;
    use crate::report::RunReport;
    use livephase_pmsim::PlatformConfig;
    use livephase_workloads::spec;

    fn trace(name: &str, len: usize) -> livephase_workloads::WorkloadTrace {
        spec::benchmark(name).unwrap().with_length(len).generate(11)
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
    fn parallel_runs_equal_sequential_runs() {
        let platform = PlatformConfig::pentium_m();
        let gpht = |n: &&str| Manager::gpht_deployed().run(trace(n, 30), &platform);
        let names = ["applu_in", "crafty_in", "swim_in", "mcf_inp"];
        let sequential: Vec<RunReport> = names.iter().map(gpht).collect();
        let parallel = par_map(&names, gpht);
        assert_eq!(sequential, parallel);
    }
}
