//! Fixture for `determinism-taint`: the hot-path root `step_decision`
//! reaches a wall-clock read through a helper, and every other source
//! kind directly. The module-level import is a type mention, not a read.

use std::collections::HashMap;
use std::time::Instant;

pub fn step_decision(budget: u64, m: HashMap<u32, u32>) -> u64 {
    let s = std::time::SystemTime::now();
    let seed = std::env::var("SEED");
    let mut acc = 0u64;
    for v in m.values() {
        acc += u64::from(*v);
    }
    for (k, _) in &m {
        acc += u64::from(*k);
    }
    let _ = (s, seed);
    jitter(budget) + acc
}

fn jitter(budget: u64) -> u64 {
    let t = Instant::now();
    let _ = t;
    budget
}

fn cold() -> Instant {
    Instant::now()
}
