//! The power-model zoo: train learned backends on DAQ measurements,
//! validate them on held-out workloads, and race them through the
//! power-capping policy.
//!
//! The pipeline mirrors what the paper's logging machine makes possible:
//! the DAQ rig attributes measured watts to each 100 M-uop sampling
//! interval (bit-0 parallel-port protocol), the kernel log records PMC
//! features for the same intervals, and zipping the two yields labelled
//! training data "for free" on any running workload. We fit the
//! [`LinearModel`] and [`TreeModel`] backends on four benchmarks, then
//! score all backends — plus a naive frequency-only baseline — on four
//! *held-out* benchmarks the fit never saw.
//!
//! Everything is a pure function of the seed: workload generation, DAQ
//! noise, and both fits are deterministic, so the printed table (and the
//! CI gate built on it) is reproducible bit for bit.

use crate::extensions::power_cap;
use crate::format::{num, Table};
use crate::runs::require_benchmark;
use crate::ShapeViolations;
use livephase_daq::DaqSystem;
use livephase_governor::{par_map, Session};
use livephase_pmsim::{
    LinearModel, OperatingPoint, OperatingPointTable, PlatformConfig, PowerInput, PowerModel,
    PowerModelKind, PowerTrace, TrainingRecord, TreeModel,
};
use std::fmt;

/// Benchmarks the learned models are fitted on.
pub const TRAIN_SET: [&str; 4] = ["applu_in", "bzip2_program", "swim_in", "mcf_inp"];

/// Benchmarks the fit never sees; all accuracy numbers come from here.
pub const HELDOUT_SET: [&str; 4] = ["equake_in", "mgrid_in", "crafty_in", "gzip_log"];

/// Sampling intervals captured per benchmark: enough phase diversity to
/// cover the operating-point/counter space while keeping the 40 us DAQ
/// stream (25 k samples per interval-second) tractable.
const INTERVALS: usize = 120;

/// Held-out MAPE ceiling for the learned backends, gating CI. Calibrated
/// from the committed seed-42 run (linear ≈ 3 %, tree ≈ 6 %) with slack
/// for cross-toolchain float drift — a regression in the fit pipeline
/// blows well past this before any legitimate change does.
pub const MAPE_GATE_PCT: f64 = 8.0;

/// Cap used for the EDP race, in watts — the middle of the
/// `power_cap` experiment's sweep, tight enough that estimator
/// differences actually change decisions.
const RACE_CAP_W: f64 = 9.0;

/// Held-out accuracy of one backend.
#[derive(Debug, Clone)]
pub struct BackendEval {
    /// Backend name (`analytic` | `linear` | `tree` | `naive-freq`).
    pub name: String,
    /// Mean absolute error on held-out records, W.
    pub mae_w: f64,
    /// Mean absolute percentage error on held-out records.
    pub mape_pct: f64,
}

/// One backend's outcome in the capped EDP race.
#[derive(Debug, Clone)]
pub struct EdpRow {
    /// Backend whose estimator priced the cap decisions.
    pub name: String,
    /// Whole-run energy-delay product, J·s.
    pub edp_js: f64,
    /// EDP delta versus the analytic-estimator run, percent
    /// (negative = better than analytic).
    pub delta_pct: f64,
    /// Measured average power of the capped run, W.
    pub avg_power_w: f64,
}

/// The complete zoo evaluation.
#[derive(Debug, Clone)]
pub struct PowerZoo {
    /// Labelled records harvested from the training benchmarks.
    pub train_records: usize,
    /// Labelled records harvested from the held-out benchmarks.
    pub heldout_records: usize,
    /// Held-out accuracy per backend, naive baseline last.
    pub evals: Vec<BackendEval>,
    /// Capped EDP race, analytic first.
    pub edp: Vec<EdpRow>,
    /// The fitted linear backend.
    pub linear: LinearModel,
    /// The fitted tree backend.
    pub tree: TreeModel,
}

/// Harvests labelled training records from a benchmark set, in set
/// order: run each benchmark under GPHT management with waveform
/// recording, measure every waveform through the DAQ chain in one pass,
/// and zip each run's per-interval PMC features with its phase-aligned
/// power measurements.
fn harvest_set(names: &[&str], seed: u64) -> Vec<TrainingRecord> {
    let platform = PlatformConfig::pentium_m().with_power_trace();
    let reports = par_map(names, |name| {
        let bench = require_benchmark(name).with_length(INTERVALS);
        Session::new(&platform).gpht(bench.stream(seed))
    });
    let waveforms: Vec<&PowerTrace> = reports
        .iter()
        .map(|r| r.power_trace.as_ref().expect("waveform recorded"))
        .collect();
    // Every harvest measures with the same seed, so one pass draws the
    // shared channel noise once per sample instant.
    let logs = DaqSystem::pentium_m(seed).measure_all(&waveforms);
    let mut records = Vec::new();
    for (report, log) in reports.iter().zip(&logs) {
        let features: Vec<(OperatingPoint, PowerInput)> = report
            .intervals
            .iter()
            .filter_map(|iv| {
                let opp = platform.opp_table.get(iv.dvfs_index)?;
                Some((opp, PowerInput::from_counters(iv.mem_uop, iv.upc)))
            })
            .collect();
        records.extend(log.training_records(&features));
    }
    records
}

/// The naive frequency-only baseline: predicts the training set's mean
/// measured power at the record's operating point, ignoring counters.
#[derive(Debug, Clone)]
struct NaiveFreq {
    /// `(sum, count)` per operating-point index.
    per_op: Vec<(f64, u64)>,
    table: OperatingPointTable,
}

impl NaiveFreq {
    fn fit(records: &[TrainingRecord]) -> Self {
        let table = OperatingPointTable::pentium_m();
        let mut per_op = vec![(0.0f64, 0u64); table.len()];
        for rec in records {
            if let Some(idx) = table.index_of(rec.opp.frequency) {
                if let Some(slot) = per_op.get_mut(idx) {
                    slot.0 += rec.measured_w;
                    slot.1 += 1;
                }
            }
        }
        Self { per_op, table }
    }

    fn predict(&self, rec: &TrainingRecord) -> f64 {
        self.table
            .index_of(rec.opp.frequency)
            .and_then(|idx| self.per_op.get(idx))
            .filter(|(_, n)| *n > 0)
            .map_or(0.0, |(sum, n)| sum / *n as f64)
    }
}

/// MAE and MAPE of `predict` over held-out records.
fn score(
    name: &str,
    records: &[TrainingRecord],
    predict: impl Fn(&TrainingRecord) -> f64,
) -> BackendEval {
    let mut abs = 0.0;
    let mut pct = 0.0;
    let mut n = 0u64;
    for rec in records {
        if rec.measured_w <= 0.0 {
            continue;
        }
        let err = (predict(rec) - rec.measured_w).abs();
        abs += err;
        pct += err / rec.measured_w;
        n += 1;
    }
    let n = n.max(1) as f64;
    BackendEval {
        name: name.to_owned(),
        mae_w: abs / n,
        mape_pct: 100.0 * pct / n,
    }
}

/// Runs applu under a [`RACE_CAP_W`]-watt power cap with the given
/// backend pricing the estimator, on the unmodified analytic platform
/// (physics stays physics; only the policy's beliefs change).
fn race_edp(kind: &PowerModelKind, seed: u64) -> (f64, f64) {
    let report = power_cap::capped_run(&power_cap::workload(seed), kind, RACE_CAP_W);
    (report.edp(), report.average_power_w())
}

/// Trains, validates, and races the zoo.
///
/// # Panics
///
/// Panics if a benchmark is missing or a fit fails — both impossible for
/// the committed benchmark sets, whose harvests are well-posed by
/// construction.
#[must_use]
pub fn run(seed: u64) -> PowerZoo {
    let train = harvest_set(&TRAIN_SET, seed);
    let heldout = harvest_set(&HELDOUT_SET, seed);

    let linear = LinearModel::fit(&train).expect("training harvest is well-posed");
    let tree = TreeModel::fit(&train).expect("training harvest is well-posed");
    let naive = NaiveFreq::fit(&train);
    let analytic = PowerModelKind::default();

    let evals = vec![
        score("analytic", &heldout, |r| analytic.power(r.opp, &r.input)),
        score("linear", &heldout, |r| linear.power(r.opp, &r.input)),
        score("tree", &heldout, |r| tree.power(r.opp, &r.input)),
        score("naive-freq", &heldout, |r| naive.predict(r)),
    ];

    let backends = [
        ("analytic".to_owned(), analytic),
        ("linear".to_owned(), PowerModelKind::Linear(linear.clone())),
        ("tree".to_owned(), PowerModelKind::Tree(tree.clone())),
    ];
    let raced = par_map(&backends, |(name, kind)| {
        let (edp, avg) = race_edp(kind, seed);
        (name.clone(), edp, avg)
    });
    let analytic_edp = raced.first().map_or(1.0, |(_, edp, _)| *edp);
    let edp = raced
        .into_iter()
        .map(|(name, edp_js, avg_power_w)| EdpRow {
            name,
            edp_js,
            delta_pct: 100.0 * (edp_js / analytic_edp - 1.0),
            avg_power_w,
        })
        .collect();

    PowerZoo {
        train_records: train.len(),
        heldout_records: heldout.len(),
        evals,
        edp,
        linear,
        tree,
    }
}

/// Resolves a `--power-model` name to a backend, training the learned
/// ones on the committed training set at `seed`. Returns `None` for an
/// unknown name.
#[must_use]
pub fn model(kind: &str, seed: u64) -> Option<PowerModelKind> {
    match kind {
        "analytic" => Some(PowerModelKind::default()),
        "linear" | "tree" => {
            let train = harvest_set(&TRAIN_SET, seed);
            match kind {
                "linear" => LinearModel::fit(&train).ok().map(PowerModelKind::Linear),
                _ => TreeModel::fit(&train).ok().map(PowerModelKind::Tree),
            }
        }
        _ => None,
    }
}

/// The zoo's acceptance claims.
#[must_use]
pub fn check(zoo: &PowerZoo) -> ShapeViolations {
    let mut v = Vec::new();
    let eval = |name: &str| zoo.evals.iter().find(|e| e.name == name);
    let (Some(linear), Some(tree), Some(naive)) =
        (eval("linear"), eval("tree"), eval("naive-freq"))
    else {
        v.push("missing backend evaluations".into());
        return v;
    };
    for learned in [linear, tree] {
        if learned.mape_pct > MAPE_GATE_PCT {
            v.push(format!(
                "{}: held-out MAPE {:.2}% exceeds the {MAPE_GATE_PCT}% gate",
                learned.name, learned.mape_pct
            ));
        }
        if learned.mae_w >= naive.mae_w {
            v.push(format!(
                "{}: MAE {:.3} W does not beat the frequency-only baseline ({:.3} W)",
                learned.name, learned.mae_w, naive.mae_w
            ));
        }
    }
    for row in &zoo.edp {
        if row.avg_power_w > RACE_CAP_W * 1.02 {
            v.push(format!(
                "{}-estimator capped run averaged {:.2} W against a {RACE_CAP_W} W cap",
                row.name, row.avg_power_w
            ));
        }
    }
    if zoo.train_records < 100 || zoo.heldout_records < 100 {
        v.push(format!(
            "harvest too small: {} train / {} held-out records",
            zoo.train_records, zoo.heldout_records
        ));
    }
    v
}

impl fmt::Display for PowerZoo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Power-model zoo: trained on {:?} ({} records), validated on \
             held-out {:?} ({} records).\n",
            TRAIN_SET, self.train_records, HELDOUT_SET, self.heldout_records
        )?;
        let mut t = Table::new(vec![
            "backend".into(),
            "held-out MAE [W]".into(),
            "held-out MAPE [%]".into(),
        ]);
        for e in &self.evals {
            t.row(vec![e.name.clone(), num(e.mae_w, 3), num(e.mape_pct, 2)]);
        }
        writeln!(f, "{}", t.render())?;
        let mut t = Table::new(vec![
            "estimator backend".into(),
            format!("EDP @ {RACE_CAP_W} W cap [J*s]"),
            "vs analytic [%]".into(),
            "avg power [W]".into(),
        ]);
        for r in &self.edp {
            t.row(vec![
                r.name.clone(),
                num(r.edp_js, 3),
                num(r.delta_pct, 2),
                num(r.avg_power_w, 2),
            ]);
        }
        writeln!(f, "{}", t.render())?;
        let w = self.linear.weights();
        writeln!(
            f,
            "linear coefficients: bias {:.4}, V^2f {:.4}, V^3 {:.4}, \
             Mem/Uop {:.4}, UPC {:.4}; tree: {} leaves",
            w[0],
            w[1],
            w[2],
            w[3],
            w[4],
            self.tree.leaf_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_shape_holds() {
        let zoo = run(crate::DEFAULT_SEED);
        println!("{zoo}");
        let violations = check(&zoo);
        assert!(violations.is_empty(), "{violations:#?}");
        assert_eq!(zoo.evals.len(), 4);
        assert_eq!(zoo.edp.len(), 3);
    }

    #[test]
    fn zoo_is_deterministic() {
        let a = run(crate::DEFAULT_SEED);
        let b = run(crate::DEFAULT_SEED);
        assert_eq!(a.linear, b.linear, "linear fit must be pure in the seed");
        assert_eq!(a.tree, b.tree, "tree fit must be pure in the seed");
        assert_eq!(format!("{a}"), format!("{b}"), "report must be pure");
    }

    #[test]
    fn cli_model_resolution() {
        assert!(model("analytic", 1).is_some());
        assert!(model("nope", 1).is_none());
        let m = model("linear", crate::DEFAULT_SEED).expect("trains");
        assert_eq!(m.kind_name(), "linear");
    }
}
