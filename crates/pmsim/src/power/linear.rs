//! The counter-regression backend: least squares over PMC features.
//!
//! Following the counter-driven power-modeling recipe from the related
//! work, per-interval power is regressed onto a physical basis plus the
//! two DVFS-invariant-friendly counter features the paper's handler
//! already reads:
//!
//! ```text
//! P ≈ w₀ + w₁·V²f + w₂·V³ + w₃·(Mem/Uop) + w₄·UPC
//! ```
//!
//! The fit is closed-form (normal equations with a tiny ridge term and
//! partial-pivot Gaussian elimination), so the same training records
//! always produce the same coefficients — a golden test pins this.
//!
//! Two structural guarantees make the fitted model safe for bounding
//! consumers (see the module docs of [`super`]):
//!
//! * the operating-point basis weights `w₁`, `w₂` are clamped
//!   non-negative by an active-set refit, so power is monotonically
//!   non-increasing along the platform table;
//! * counter features are clamped into fixed boxes (`[0, MEM_UOP_MAX]`,
//!   `[0, UPC_MAX]`) at both fit and inference time, so
//!   [`worst_case`](super::PowerModel::worst_case) can dominate the
//!   output over *all* inputs by taking each weight's box extreme.

use super::{
    v2f, v3, validate_records, FitError, PowerInput, PowerModel, TrainingRecord, MEM_UOP_MAX,
    UPC_MAX,
};
use crate::opp::OperatingPoint;

/// Number of regression weights: bias, V²f, V³, Mem/Uop, UPC.
const N: usize = 5;
/// Ridge added to the normal-equation diagonal: keeps the system
/// non-singular on degenerate training sets without visibly biasing a
/// well-conditioned fit.
const RIDGE: f64 = 1e-9;
/// Indices of the operating-point basis weights that must stay
/// non-negative for the monotonicity/bound guarantees.
const OPP_WEIGHTS: [usize; 2] = [1, 2];
/// Fewest records a fit accepts (one more than the parameter count).
const MIN_RECORDS: usize = N + 1;

/// A fitted least-squares power model.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// `[bias, w_v2f, w_v3, w_mem_uop, w_upc]`.
    weights: [f64; N],
}

/// The regression feature vector for one observation.
fn features(opp: OperatingPoint, input: &PowerInput) -> [f64; N] {
    [
        1.0,
        v2f(opp),
        v3(opp),
        input.mem_uop.clamp(0.0, MEM_UOP_MAX),
        input.upc.clamp(0.0, UPC_MAX),
    ]
}

/// Bounds-checked read of the augmented matrix (out of range reads 0,
/// which the solver never relies on: every access is within `N`).
fn at(a: &[[f64; N + 1]; N], r: usize, c: usize) -> f64 {
    a.get(r).and_then(|row| row.get(c)).copied().unwrap_or(0.0)
}

/// Bounds-checked write of the augmented matrix.
fn set(a: &mut [[f64; N + 1]; N], r: usize, c: usize, value: f64) {
    if let Some(cell) = a.get_mut(r).and_then(|row| row.get_mut(c)) {
        *cell = value;
    }
}

/// Bounds-checked in-place add on the augmented matrix.
fn add(a: &mut [[f64; N + 1]; N], r: usize, c: usize, delta: f64) {
    if let Some(cell) = a.get_mut(r).and_then(|row| row.get_mut(c)) {
        *cell += delta;
    }
}

/// Solves the augmented system `[A | b]` by Gauss-Jordan elimination
/// with partial pivoting. Deterministic: pivot choice uses
/// `f64::total_cmp`, and the ridge term guarantees well-posedness.
fn solve(mut a: [[f64; N + 1]; N]) -> [f64; N] {
    for col in 0..N {
        let pivot = (col..N)
            .max_by(|&i, &j| at(&a, i, col).abs().total_cmp(&at(&a, j, col).abs()))
            .unwrap_or(col);
        a.swap(col, pivot);
        let p = at(&a, col, col);
        if p.abs() < 1e-15 {
            continue;
        }
        for row in 0..N {
            if row == col {
                continue;
            }
            let factor = at(&a, row, col) / p;
            for c in col..=N {
                let updated = at(&a, row, c) - factor * at(&a, col, c);
                set(&mut a, row, c, updated);
            }
        }
    }
    let mut w = [0.0; N];
    for (i, slot) in w.iter_mut().enumerate() {
        let p = at(&a, i, i);
        *slot = if p.abs() < 1e-15 {
            0.0
        } else {
            at(&a, i, N) / p
        };
    }
    w
}

/// Builds and solves the (ridged) normal equations, forcing weights in
/// `pinned` to zero by replacing their row/column with the identity.
fn fit_masked(records: &[TrainingRecord], pinned: &[usize]) -> [f64; N] {
    let mut a = [[0.0; N + 1]; N];
    for rec in records {
        let phi = features(rec.opp, &rec.input);
        for (r, &pr) in phi.iter().enumerate() {
            for (c, &pc) in phi.iter().enumerate() {
                add(&mut a, r, c, pr * pc);
            }
            add(&mut a, r, N, pr * rec.measured_w);
        }
    }
    for d in 0..N {
        add(&mut a, d, d, RIDGE);
    }
    for &p in pinned {
        for k in 0..=N {
            set(&mut a, p, k, 0.0);
            if k < N {
                set(&mut a, k, p, 0.0);
            }
        }
        set(&mut a, p, p, 1.0);
    }
    solve(a)
}

impl LinearModel {
    /// Fits the model to DAQ training records.
    ///
    /// Deterministic: the same records in the same order produce
    /// bit-identical weights. If the unconstrained solution assigns a
    /// negative weight to an operating-point basis term, that weight is
    /// pinned to zero and the rest refit (classic active-set descent —
    /// at most two refits for two constrained weights).
    ///
    /// # Errors
    ///
    /// [`FitError::TooFewRecords`] below six records and
    /// [`FitError::NonFinite`] when any record carries a NaN/∞.
    pub fn fit(records: &[TrainingRecord]) -> Result<Self, FitError> {
        validate_records(records, MIN_RECORDS)?;
        let mut pinned: Vec<usize> = Vec::new();
        let mut weights = fit_masked(records, &pinned);
        loop {
            let newly_negative: Vec<usize> = OPP_WEIGHTS
                .iter()
                .copied()
                .filter(|&i| !pinned.contains(&i) && weights.get(i).copied().unwrap_or(0.0) < 0.0)
                .collect();
            if newly_negative.is_empty() {
                break;
            }
            pinned.extend(newly_negative);
            weights = fit_masked(records, &pinned);
        }
        for &i in &OPP_WEIGHTS {
            if let Some(w) = weights.get_mut(i) {
                *w = w.max(0.0);
            }
        }
        Ok(Self { weights })
    }

    /// The fitted `[bias, w_v2f, w_v3, w_mem_uop, w_upc]` coefficients.
    #[must_use]
    pub fn weights(&self) -> [f64; N] {
        self.weights
    }
}

impl PowerModel for LinearModel {
    fn power(&self, opp: OperatingPoint, input: &PowerInput) -> f64 {
        let phi = features(opp, input);
        let raw: f64 = self
            .weights
            .iter()
            .zip(phi.iter())
            .map(|(w, p)| w * p)
            .sum();
        raw.max(0.0)
    }

    /// Bias plus the (non-negative) opp terms plus each counter weight's
    /// box extreme: `w·x ≤ max(0, w)·x_max` for `x ∈ [0, x_max]`, and
    /// `max(0, ·)` preserves the ordering, so this dominates
    /// [`power`](Self::power) for every input.
    fn worst_case(&self, opp: OperatingPoint) -> f64 {
        let [w0, w1, w2, w3, w4] = self.weights;
        let raw =
            w0 + w1 * v2f(opp) + w2 * v3(opp) + w3.max(0.0) * MEM_UOP_MAX + w4.max(0.0) * UPC_MAX;
        raw.max(0.0)
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::synthetic_records;
    use super::*;
    use crate::opp::OperatingPointTable;

    #[test]
    fn fit_is_deterministic() {
        let records = synthetic_records(42);
        let a = LinearModel::fit(&records).unwrap();
        let b = LinearModel::fit(&records).unwrap();
        assert_eq!(a.weights(), b.weights(), "same records, same coefficients");
    }

    #[test]
    fn fit_recovers_the_analytic_envelope() {
        let records = synthetic_records(42);
        let m = LinearModel::fit(&records).unwrap();
        let mut abs_err = 0.0;
        for r in &records {
            abs_err += (m.power(r.opp, &r.input) - r.measured_w).abs();
        }
        let mae = abs_err / records.len() as f64;
        assert!(mae < 0.5, "fit should track the envelope, MAE {mae}");
    }

    #[test]
    fn opp_weights_are_non_negative() {
        // Adversarial records that reward a negative V³ weight: the
        // active-set refit must pin it rather than emit it.
        let mut records = synthetic_records(3);
        for (k, r) in records.iter_mut().enumerate() {
            if k % 2 == 0 {
                r.measured_w = 0.1;
            }
        }
        let m = LinearModel::fit(&records).unwrap();
        let [_, w1, w2, _, _] = m.weights();
        assert!(w1 >= 0.0 && w2 >= 0.0, "opp weights clamped: {w1} {w2}");
    }

    #[test]
    fn worst_case_bounds_power() {
        let records = synthetic_records(9);
        let m = LinearModel::fit(&records).unwrap();
        let t = OperatingPointTable::pentium_m();
        for (_, opp) in t.iter() {
            for mu in [0.0, 0.01, MEM_UOP_MAX, 10.0] {
                for upc in [0.0, 1.0, UPC_MAX, 100.0] {
                    let p = m.power(opp, &PowerInput::from_counters(mu, upc));
                    assert!(p <= m.worst_case(opp) + 1e-12, "{mu} {upc}");
                }
            }
        }
    }

    #[test]
    fn rejects_degenerate_training_sets() {
        let records = synthetic_records(1);
        assert!(matches!(
            LinearModel::fit(&records[..3]),
            Err(FitError::TooFewRecords { .. })
        ));
        let mut bad = records.clone();
        bad[0].input.upc = f64::INFINITY;
        assert!(matches!(LinearModel::fit(&bad), Err(FitError::NonFinite)));
    }

    #[test]
    fn output_is_clamped_non_negative() {
        let m = LinearModel {
            weights: [-5.0, 0.0, 0.0, 0.0, 0.0],
        };
        let opp = OperatingPointTable::pentium_m().fastest();
        assert_eq!(m.power(opp, &PowerInput::stalled()), 0.0);
        assert_eq!(m.worst_case(opp), 0.0);
    }
}
