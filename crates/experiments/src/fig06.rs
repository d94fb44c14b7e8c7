//! Figure 6 — observed (UPC, Mem/Uop) pairs for all experimented
//! applications, the achievable-UPC boundary, and the IPCxMEM grid.

use crate::format::{num, Table};
use crate::ShapeViolations;
use livephase_governor::par_map;
use livephase_pmsim::{Frequency, TimingModel};
use livephase_workloads::{registry, IpcxMemSuite};
use std::fmt;

/// One observed behaviour-space point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpacePoint {
    /// Micro-ops per cycle at the reference frequency.
    pub upc: f64,
    /// Memory transactions per micro-op.
    pub mem_uop: f64,
}

/// The Figure 6 data set.
#[derive(Debug, Clone)]
pub struct Figure6 {
    /// The SPEC sample cloud (one point per distinct benchmark level,
    /// observed at 1500 MHz).
    pub spec_points: Vec<(String, SpacePoint)>,
    /// The IPCxMEM grid configurations (achievable coordinates).
    pub grid: Vec<SpacePoint>,
    /// Samples of the achievable-UPC frontier ("SPEC boundary").
    pub boundary: Vec<SpacePoint>,
}

/// Computes the cloud, grid and boundary.
#[must_use]
pub fn run(seed: u64) -> Figure6 {
    let timing = TimingModel::pentium_m();
    let f_ref = Frequency::from_mhz(1500);
    let suite = IpcxMemSuite::pentium_m();

    // Sample each benchmark's realized per-interval behaviour (noise
    // included), one worker per benchmark, flattened in registry order.
    let spec_points = par_map(&registry(), |spec| {
        let trace = spec.generate(seed);
        trace
            .iter()
            .step_by(97)
            .map(|w| {
                let point = SpacePoint {
                    upc: timing.upc(w, f_ref),
                    mem_uop: w.mem_uop(),
                };
                (spec.name().to_owned(), point)
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();

    let grid = suite
        .grid()
        .into_iter()
        .map(|cfg| SpacePoint {
            upc: cfg.target_upc,
            mem_uop: cfg.mem_uop,
        })
        .collect();

    let boundary = (0..=22)
        .map(|i| {
            let m = f64::from(i) * 0.0025;
            SpacePoint {
                upc: suite.max_upc(m),
                mem_uop: m,
            }
        })
        .collect();

    Figure6 {
        spec_points,
        grid,
        boundary,
    }
}

/// Shape claims: a wide cloud bounded above by a decreasing frontier, and
/// a grid of roughly fifty achievable configurations covering the space.
#[must_use]
pub fn check(fig: &Figure6) -> ShapeViolations {
    let mut v = Vec::new();
    let suite = IpcxMemSuite::pentium_m();

    // Every observed SPEC point must respect the achievable frontier.
    for (name, p) in &fig.spec_points {
        let bound = suite.max_upc(p.mem_uop);
        if p.upc > bound * 1.02 {
            v.push(format!(
                "{name}: ({:.2}, {:.4}) exceeds the boundary {bound:.2}",
                p.upc, p.mem_uop
            ));
        }
    }
    // Frontier is decreasing.
    for w in fig.boundary.windows(2) {
        if w[1].upc >= w[0].upc {
            v.push("boundary must decrease with memory intensity".to_owned());
            break;
        }
    }
    // Grid size ~50 as in the paper.
    if !(35..=75).contains(&fig.grid.len()) {
        v.push(format!("grid has {} points, expected ~50", fig.grid.len()));
    }
    // The cloud spans both CPU-bound and memory-bound regions.
    let max_upc = fig
        .spec_points
        .iter()
        .map(|(_, p)| p.upc)
        .fold(0.0, f64::max);
    let max_m = fig
        .spec_points
        .iter()
        .map(|(_, p)| p.mem_uop)
        .fold(0.0, f64::max);
    if max_upc < 1.4 {
        v.push(format!("cloud max UPC {max_upc:.2} should reach ~1.6"));
    }
    if max_m < 0.05 {
        v.push(format!(
            "cloud max Mem/Uop {max_m:.3} should reach ~0.1 (mcf)"
        ));
    }
    v
}

impl fmt::Display for Figure6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6. Observed (UPC, Mem/Uop) pairs and IPCxMEM grid.\n"
        )?;
        let mut t = Table::new(vec!["Mem/Uop".into(), "max UPC (boundary)".into()]);
        for p in &self.boundary {
            t.row(vec![num(p.mem_uop, 4), num(p.upc, 3)]);
        }
        writeln!(f, "Achievable-UPC frontier:\n{}", t.render())?;
        let mut g = Table::new(vec!["grid UPC".into(), "grid Mem/Uop".into()]);
        for p in &self.grid {
            g.row(vec![num(p.upc, 2), num(p.mem_uop, 4)]);
        }
        writeln!(
            f,
            "IPCxMEM grid ({} configurations):\n{}",
            self.grid.len(),
            g.render()
        )?;
        writeln!(
            f,
            "SPEC cloud: {} sampled points across {} benchmarks",
            self.spec_points.len(),
            33
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_shape_holds() {
        let fig = run(crate::DEFAULT_SEED);
        let violations = check(&fig);
        assert!(violations.is_empty(), "{violations:#?}");
        assert!(!fig.spec_points.is_empty());
    }
}
