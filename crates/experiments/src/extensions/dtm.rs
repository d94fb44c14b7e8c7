//! Dynamic thermal management, driven by the same phase predictions.
//!
//! Runs a hot (CPU-bound) workload three ways: unmanaged, energy-managed
//! (the Table 2 mapping, which barely slows CPU-bound code and therefore
//! barely cools it), and under the predictive [`ThermalAware`] hook with
//! a 65 °C junction limit.

use crate::format::{num, Table};
use crate::runs::require_benchmark;
use crate::ShapeViolations;
use livephase_governor::{Manager, ManagerConfig, PowerEstimator, Session, ThermalAware};
use livephase_pmsim::{PlatformConfig, ThermalModel};
use std::fmt;

/// One system's thermal outcome.
#[derive(Debug, Clone)]
pub struct ThermalRow {
    /// System label.
    pub system: String,
    /// Peak junction temperature, °C.
    pub peak_c: f64,
    /// Whole-run BIPS.
    pub bips: f64,
    /// Average power, W.
    pub power_w: f64,
}

/// The experiment result.
#[derive(Debug, Clone)]
pub struct DtmExperiment {
    /// The junction limit given to the thermal policy.
    pub limit_c: f64,
    /// Outcomes: unmanaged, energy-managed, thermally-managed.
    pub rows: Vec<ThermalRow>,
}

/// Runs the three systems on a long CPU-bound workload.
#[must_use]
pub fn run(seed: u64) -> DtmExperiment {
    let limit_c = 65.0;
    let bench = require_benchmark("crafty_in").with_length(900);
    let platform = PlatformConfig::pentium_m();
    let session = Session::new(&platform).with_config(ManagerConfig {
        thermal: Some(ThermalModel::pentium_m()),
        ..ManagerConfig::pentium_m()
    });

    let unmanaged = session.baseline(bench.stream(seed));
    let energy = session.gpht(bench.stream(seed));
    let guard = ThermalAware::new(
        PowerEstimator::pentium_m(),
        ThermalModel::pentium_m(),
        limit_c,
    );
    let dtm = session.run(
        Manager::gpht_deployed_with(session.config().clone()).with_hook(Box::new(guard)),
        bench.stream(seed),
    );

    let row = |system: &str, r: &livephase_governor::RunReport| ThermalRow {
        system: system.to_owned(),
        peak_c: r.peak_temperature_c.expect("thermal tracked"),
        bips: r.bips(),
        power_w: r.average_power_w(),
    };
    DtmExperiment {
        limit_c,
        rows: vec![
            row("unmanaged", &unmanaged),
            row("energy (Table 2)", &energy),
            row("thermal-aware", &dtm),
        ],
    }
}

/// The unmanaged run must overheat; the thermal policy must hold the
/// limit while keeping as much performance as the limit allows.
#[must_use]
pub fn check(e: &DtmExperiment) -> ShapeViolations {
    let mut v = Vec::new();
    let find = |name: &str| e.rows.iter().find(|r| r.system.starts_with(name));
    let (Some(un), Some(energy), Some(dtm)) = (find("unmanaged"), find("energy"), find("thermal"))
    else {
        return vec!["rows missing".into()];
    };
    if un.peak_c <= e.limit_c {
        v.push(format!(
            "unmanaged peak {:.1} C should exceed the {:.1} C limit",
            un.peak_c, e.limit_c
        ));
    }
    if energy.peak_c <= e.limit_c {
        v.push(format!(
            "energy management is not thermal management: CPU-bound code \
             should still exceed the limit ({:.1} C)",
            energy.peak_c
        ));
    }
    if dtm.peak_c > e.limit_c + 0.5 {
        v.push(format!(
            "thermal policy peak {:.1} C violates the {:.1} C limit",
            dtm.peak_c, e.limit_c
        ));
    }
    if dtm.bips >= un.bips {
        v.push("thermal throttling must cost some performance".into());
    }
    if dtm.bips < un.bips * 0.5 {
        v.push(format!(
            "thermal policy lost {:.0}% performance — should throttle \
             no more than the limit requires",
            (1.0 - dtm.bips / un.bips) * 100.0
        ));
    }
    v
}

impl fmt::Display for DtmExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(vec![
            "system".into(),
            "peak T [C]".into(),
            "BIPS".into(),
            "avg power [W]".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.system.clone(),
                num(r.peak_c, 1),
                num(r.bips, 2),
                num(r.power_w, 2),
            ]);
        }
        write!(
            f,
            "Extension: predictive dynamic thermal management \
             (crafty, {:.0} C junction limit).\n\n{}",
            self.limit_c,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtm_shape_holds() {
        let e = run(crate::DEFAULT_SEED);
        let violations = check(&e);
        assert!(violations.is_empty(), "{violations:#?}");
    }
}
