//! The regression-tree backend: a physical basis plus a counter tree.
//!
//! Following the decision-tree power-monitoring recipe from the related
//! work, the model splits power into an operating-point part and a
//! workload part:
//!
//! ```text
//! P ≈ w_dyn·V²f + w_leak·V³ + tree(Mem/Uop, UPC)
//! ```
//!
//! The affine `V²f`/`V³` part is fit first (closed form, weights
//! clamped non-negative), then a small regression tree is grown over
//! the *residuals* using only the counter features. Everything about
//! the tree is deterministic: features are tried in a fixed order,
//! candidate thresholds are midpoints of sorted (by `f64::total_cmp`)
//! adjacent values, ties keep the first candidate, and inference is a
//! handful of compares — cheap enough for the per-PMI hot path.
//!
//! Because the tree term does not depend on the operating point, the
//! model is monotone along the platform table whenever the affine
//! weights are non-negative (which the fit guarantees), and
//! [`worst_case`](super::PowerModel::worst_case) is simply the affine
//! part plus the largest leaf.

use super::{v2f, v3, validate_records, FitError, PowerInput, PowerModel, TrainingRecord};
use super::{MEM_UOP_MAX, UPC_MAX};
use crate::opp::OperatingPoint;

/// Maximum tree depth (root = depth `MAX_DEPTH`, leaves at 0).
const MAX_DEPTH: usize = 3;
/// Fewest samples a leaf may hold after a split.
const MIN_LEAF: usize = 4;
/// Fewest records a fit accepts.
const MIN_RECORDS: usize = 8;
/// Required SSE improvement before a split is worth a node.
const MIN_GAIN: f64 = 1e-12;

/// One tree node. Children are built before their parent, so every
/// child index is strictly smaller than its parent's — inference walks
/// strictly downward and always terminates.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Internal split: `feature` 0 is Mem/Uop, 1 is UPC; inputs with
    /// `value <= threshold` descend left.
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    /// Terminal residual value (watts).
    Leaf { value: f64 },
}

/// A fitted regression-tree power model.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeModel {
    /// Non-negative `V²f` coefficient.
    w_dyn: f64,
    /// Non-negative `V³` coefficient.
    w_leak: f64,
    /// Flattened tree; `root` is always the last node.
    nodes: Vec<Node>,
    /// Index of the root node.
    root: usize,
    /// Largest leaf value — the counter part of the worst-case bound.
    max_leaf: f64,
}

/// One training point projected for tree growth: clamped counter
/// features plus the affine-fit residual.
#[derive(Clone, Copy)]
struct Point {
    mem_uop: f64,
    upc: f64,
    residual: f64,
}

impl Point {
    fn feature(&self, which: usize) -> f64 {
        if which == 0 {
            self.mem_uop
        } else {
            self.upc
        }
    }
}

/// Fits `y ≈ w_dyn·v2f + w_leak·v3` with both weights clamped
/// non-negative (2×2 normal equations, single-variable refit when a
/// weight pins to zero).
fn fit_affine(records: &[TrainingRecord]) -> (f64, f64) {
    let (mut s11, mut s12, mut s22, mut b1, mut b2) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for r in records {
        let (x1, x2) = (v2f(r.opp), v3(r.opp));
        s11 += x1 * x1;
        s12 += x1 * x2;
        s22 += x2 * x2;
        b1 += x1 * r.measured_w;
        b2 += x2 * r.measured_w;
    }
    let single = |sxx: f64, bx: f64| {
        if sxx > 1e-15 {
            (bx / sxx).max(0.0)
        } else {
            0.0
        }
    };
    let det = s11 * s22 - s12 * s12;
    if det.abs() < 1e-12 {
        return (single(s11, b1), 0.0);
    }
    let w_dyn = (b1 * s22 - b2 * s12) / det;
    let w_leak = (b2 * s11 - b1 * s12) / det;
    if w_dyn < 0.0 {
        (0.0, single(s22, b2))
    } else if w_leak < 0.0 {
        (single(s11, b1), 0.0)
    } else {
        (w_dyn, w_leak)
    }
}

/// The best split of `points` (already whole, unsorted) on one feature:
/// `(sse, threshold)` minimizing left+right squared error, or `None`
/// when no admissible boundary exists.
fn best_split_on(points: &mut [Point], feature: usize) -> Option<(f64, f64)> {
    points.sort_by(|a, b| a.feature(feature).total_cmp(&b.feature(feature)));
    let n = points.len();
    let total_sum: f64 = points.iter().map(|p| p.residual).sum();
    let total_sq: f64 = points.iter().map(|p| p.residual * p.residual).sum();
    let (mut left_sum, mut left_sq) = (0.0, 0.0);
    let mut best: Option<(f64, f64)> = None;
    for (k, pair) in points.windows(2).enumerate() {
        let [a, b] = pair else { break };
        left_sum += a.residual;
        left_sq += a.residual * a.residual;
        let n_left = k + 1;
        let n_right = n - n_left;
        if n_left < MIN_LEAF || n_right < MIN_LEAF {
            continue;
        }
        let (va, vb) = (a.feature(feature), b.feature(feature));
        if va == vb {
            continue; // no boundary between equal values
        }
        let sse_left = left_sq - left_sum * left_sum / n_left as f64;
        let right_sum = total_sum - left_sum;
        let sse_right = (total_sq - left_sq) - right_sum * right_sum / n_right as f64;
        let sse = sse_left + sse_right;
        let threshold = f64::midpoint(va, vb);
        if best.is_none_or(|(s, _)| sse + MIN_GAIN < s) {
            best = Some((sse, threshold));
        }
    }
    best
}

/// Grows a (sub)tree over `points`, appending nodes child-first, and
/// returns the subtree's root index.
fn build(points: &mut [Point], depth: usize, nodes: &mut Vec<Node>) -> usize {
    let n = points.len();
    let mean = if n == 0 {
        0.0
    } else {
        points.iter().map(|p| p.residual).sum::<f64>() / n as f64
    };
    let leaf = |nodes: &mut Vec<Node>| {
        nodes.push(Node::Leaf { value: mean });
        nodes.len() - 1
    };
    if depth == 0 || n < 2 * MIN_LEAF {
        return leaf(nodes);
    }
    // Fixed feature order (Mem/Uop then UPC); a strict-improvement
    // comparison keeps the earlier feature on ties.
    let sse_leaf: f64 = {
        let sq: f64 = points.iter().map(|p| p.residual * p.residual).sum();
        sq - mean * mean * n as f64
    };
    let mut chosen: Option<(f64, usize, f64)> = None;
    for feature in 0..2 {
        if let Some((sse, threshold)) = best_split_on(points, feature) {
            let improves = chosen.is_none_or(|(s, _, _)| sse + MIN_GAIN < s);
            if improves {
                chosen = Some((sse, feature, threshold));
            }
        }
    }
    let Some((sse, feature, threshold)) = chosen else {
        return leaf(nodes);
    };
    if sse + MIN_GAIN >= sse_leaf {
        return leaf(nodes); // the split does not beat a plain mean
    }
    let mut left_pts: Vec<Point> = Vec::with_capacity(n);
    let mut right_pts: Vec<Point> = Vec::with_capacity(n);
    for p in points.iter() {
        if p.feature(feature) <= threshold {
            left_pts.push(*p);
        } else {
            right_pts.push(*p);
        }
    }
    if left_pts.is_empty() || right_pts.is_empty() {
        return leaf(nodes);
    }
    let left = build(&mut left_pts, depth - 1, nodes);
    let right = build(&mut right_pts, depth - 1, nodes);
    nodes.push(Node::Split {
        feature,
        threshold,
        left,
        right,
    });
    nodes.len() - 1
}

impl TreeModel {
    /// Fits the model to DAQ training records: affine `V²f`/`V³` part
    /// first, then a depth-≤ 3 residual tree over the counter features.
    /// Deterministic — same records, same tree.
    ///
    /// # Errors
    ///
    /// [`FitError::TooFewRecords`] below eight records and
    /// [`FitError::NonFinite`] when any record carries a NaN/∞.
    pub fn fit(records: &[TrainingRecord]) -> Result<Self, FitError> {
        validate_records(records, MIN_RECORDS)?;
        let (w_dyn, w_leak) = fit_affine(records);
        let mut points: Vec<Point> = records
            .iter()
            .map(|r| Point {
                mem_uop: r.input.mem_uop.clamp(0.0, MEM_UOP_MAX),
                upc: r.input.upc.clamp(0.0, UPC_MAX),
                residual: r.measured_w - w_dyn * v2f(r.opp) - w_leak * v3(r.opp),
            })
            .collect();
        let mut nodes = Vec::new();
        let root = build(&mut points, MAX_DEPTH, &mut nodes);
        let max_leaf = nodes
            .iter()
            .filter_map(|n| match n {
                Node::Leaf { value } => Some(*value),
                Node::Split { .. } => None,
            })
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0);
        Ok(Self {
            w_dyn,
            w_leak,
            nodes,
            root,
            max_leaf,
        })
    }

    /// Leaves in the residual tree.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Walks the residual tree. Child indices are strictly smaller than
    /// their parent's, so the walk terminates; a structurally impossible
    /// index reads as a zero residual rather than a panic.
    fn residual(&self, mem_uop: f64, upc: f64) -> f64 {
        let mut idx = self.root;
        loop {
            match self.nodes.get(idx) {
                Some(Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                }) => {
                    let v = if *feature == 0 { mem_uop } else { upc };
                    let next = if v <= *threshold { *left } else { *right };
                    if next >= idx {
                        return 0.0; // corrupt topology: refuse to loop
                    }
                    idx = next;
                }
                Some(Node::Leaf { value }) => return *value,
                None => return 0.0,
            }
        }
    }
}

impl PowerModel for TreeModel {
    fn power(&self, opp: OperatingPoint, input: &PowerInput) -> f64 {
        let mem_uop = input.mem_uop.clamp(0.0, MEM_UOP_MAX);
        let upc = input.upc.clamp(0.0, UPC_MAX);
        let raw = self.w_dyn * v2f(opp) + self.w_leak * v3(opp) + self.residual(mem_uop, upc);
        raw.max(0.0)
    }

    /// Affine part plus the largest leaf: the tree term is
    /// opp-independent and every inference lands on some leaf, so this
    /// dominates [`power`](Self::power) for every input.
    fn worst_case(&self, opp: OperatingPoint) -> f64 {
        (self.w_dyn * v2f(opp) + self.w_leak * v3(opp) + self.max_leaf).max(0.0)
    }

    fn name(&self) -> &'static str {
        "tree"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::synthetic_records;
    use super::*;
    use crate::opp::OperatingPointTable;

    #[test]
    fn fit_is_deterministic_and_splits_something() {
        let records = synthetic_records(42);
        let a = TreeModel::fit(&records).unwrap();
        let b = TreeModel::fit(&records).unwrap();
        assert_eq!(a, b, "same records, same tree");
        assert!(a.leaf_count() >= 2, "the sweep has residual structure");
        assert!(a.w_dyn >= 0.0 && a.w_leak >= 0.0);
    }

    #[test]
    fn fit_tracks_the_envelope() {
        let records = synthetic_records(42);
        let m = TreeModel::fit(&records).unwrap();
        let mae = records
            .iter()
            .map(|r| (m.power(r.opp, &r.input) - r.measured_w).abs())
            .sum::<f64>()
            / records.len() as f64;
        assert!(mae < 1.0, "tree should track the envelope, MAE {mae}");
    }

    #[test]
    fn worst_case_bounds_power_everywhere() {
        let records = synthetic_records(11);
        let m = TreeModel::fit(&records).unwrap();
        for (_, opp) in OperatingPointTable::pentium_m().iter() {
            for mu in [0.0, 0.005, 0.02, MEM_UOP_MAX, 3.0] {
                for upc in [0.0, 0.5, 2.0, UPC_MAX, 50.0] {
                    let p = m.power(opp, &PowerInput::from_counters(mu, upc));
                    assert!(p <= m.worst_case(opp) + 1e-12);
                }
            }
        }
    }

    #[test]
    fn power_is_monotone_along_the_table() {
        let records = synthetic_records(5);
        let m = TreeModel::fit(&records).unwrap();
        let input = PowerInput::from_counters(0.01, 1.5);
        let powers: Vec<f64> = OperatingPointTable::pentium_m()
            .iter()
            .map(|(_, opp)| m.power(opp, &input))
            .collect();
        for w in powers.windows(2) {
            assert!(w[0] >= w[1], "non-increasing along the table: {powers:?}");
        }
    }

    #[test]
    fn rejects_degenerate_training_sets() {
        let records = synthetic_records(1);
        assert!(matches!(
            TreeModel::fit(&records[..4]),
            Err(FitError::TooFewRecords { .. })
        ));
        let mut bad = records.clone();
        bad[3].measured_w = f64::NAN;
        assert!(matches!(TreeModel::fit(&bad), Err(FitError::NonFinite)));
    }

    #[test]
    fn inference_is_cheap_and_total() {
        // Every grid point evaluates without panicking, including inputs
        // far outside the clamp boxes.
        let records = synthetic_records(2);
        let m = TreeModel::fit(&records).unwrap();
        let opp = OperatingPointTable::pentium_m().slowest();
        for mu in [-1.0, 0.0, 0.5, f64::MAX] {
            for upc in [-3.0, 0.0, 7.9, f64::MAX] {
                assert!(m
                    .power(opp, &PowerInput::from_counters(mu, upc))
                    .is_finite());
            }
        }
    }
}
