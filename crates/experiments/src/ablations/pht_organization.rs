//! PHT organization ablation: associative search vs direct-mapped hashing.
//!
//! The paper flags the cost of "associatively searching through a 1024
//! entry PHT" and answers by shrinking the table. The hardware-classic
//! alternative keeps the table and drops the search: hash the pattern to
//! one slot. This ablation measures the accuracy cost of conflict misses.

use crate::format::{pct, Table};
use crate::predictors::accuracy_on;
use crate::runs::require_benchmark;
use crate::ShapeViolations;
use livephase_core::{Gpht, GphtConfig, HashedGpht, HashedGphtConfig};
use livephase_workloads::spec;
use std::fmt;

/// One benchmark's organization comparison at equal storage (128 entries).
#[derive(Debug, Clone)]
pub struct OrganizationRow {
    /// Benchmark name.
    pub name: String,
    /// Fully-associative accuracy (128 entries).
    pub associative: f64,
    /// Direct-mapped (hashed) accuracy at equal storage (128 slots).
    pub hashed_equal: f64,
    /// Direct-mapped accuracy with 4x slots (512) — still far cheaper per
    /// sample than the associative search.
    pub hashed_4x: f64,
}

/// The ablation result.
#[derive(Debug, Clone)]
pub struct PhtOrganizationAblation {
    /// One row per variable benchmark.
    pub rows: Vec<OrganizationRow>,
}

/// Compares the two organizations over the variable six.
#[must_use]
pub fn run(seed: u64) -> PhtOrganizationAblation {
    let rows = spec::variable_six()
        .iter()
        .map(|name| {
            let trace = require_benchmark(name).generate(seed);
            let associative = accuracy_on(&mut Gpht::new(GphtConfig::DEPLOYED), &trace).accuracy();
            let hashed_equal =
                accuracy_on(&mut HashedGpht::new(HashedGphtConfig::DEPLOYED), &trace).accuracy();
            let hashed_4x = accuracy_on(
                &mut HashedGpht::new(HashedGphtConfig {
                    gphr_depth: 8,
                    pht_entries: 512,
                }),
                &trace,
            )
            .accuracy();
            OrganizationRow {
                name: (*name).to_owned(),
                associative,
                hashed_equal,
                hashed_4x,
            }
        })
        .collect();
    PhtOrganizationAblation { rows }
}

/// The trade-off, quantified: at equal storage, direct mapping pays a
/// visible conflict-miss tax on working sets near capacity; spending the
/// saved comparators on 4x slots recovers associative accuracy while
/// staying O(1) per sample.
#[must_use]
pub fn check(a: &PhtOrganizationAblation) -> ShapeViolations {
    let mut v = Vec::new();
    let mut taxed = 0;
    for r in &a.rows {
        if r.hashed_equal < r.associative - 0.10 {
            v.push(format!(
                "{}: equal-storage hashing ({:.3}) collapses vs associative ({:.3})",
                r.name, r.hashed_equal, r.associative
            ));
        }
        if r.associative - r.hashed_equal > 0.01 {
            taxed += 1;
        }
        if r.hashed_4x < r.associative - 0.03 {
            v.push(format!(
                "{}: 4x-slot hashing ({:.3}) should recover associative                  accuracy ({:.3})",
                r.name, r.hashed_4x, r.associative
            ));
        }
    }
    if taxed < 3 {
        v.push(format!(
            "conflict misses should visibly tax equal-storage hashing              (only {taxed}/6 affected)"
        ));
    }
    v
}

impl fmt::Display for PhtOrganizationAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(vec![
            "benchmark".into(),
            "assoc 128 %".into(),
            "hashed 128 %".into(),
            "hashed 512 %".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                pct(r.associative),
                pct(r.hashed_equal),
                pct(r.hashed_4x),
            ]);
        }
        write!(
            f,
            "Ablation: PHT organization at equal storage (128 entries, \
             GPHR depth 8). Hashing trades the associative search for \
             rare conflict misses.\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pht_organization_shape_holds() {
        let a = run(crate::DEFAULT_SEED);
        let violations = check(&a);
        assert!(violations.is_empty(), "{violations:#?}");
        assert_eq!(a.rows.len(), 6);
    }
}
