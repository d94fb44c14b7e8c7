//! Property-based tests for workload generation and the IPCxMEM solver.

use livephase_pmsim::{AnalyticModel, Frequency, IntervalWork, OperatingPointTable, TimingModel};
use livephase_workloads::io::{self, TraceCsvError, CSV_HEADER};
use livephase_workloads::{registry, IpcxMemConfig, IpcxMemSuite, PhaseLevel, TraceStats};
use proptest::prelude::*;

/// Header lines: the real one, padded, and near misses.
const HEADERS: [&str; 6] = [
    CSV_HEADER,
    " uops,instructions,mem_transactions,cpi_core,mlp\t",
    "uops,instructions,mem_transactions,cpi_core",
    "uops,instructions,mem_transactions,cpi_core,mlp,pid",
    "uops, instructions,mem_transactions,cpi_core,mlp",
    "",
];

/// Hostile spellings of a count field: zero, one, `u64::MAX` and its
/// overflow, a sign, a fraction, nothing, and a float edge.
const U64_EDGES: [&str; 8] = [
    "0",
    "1",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1.5",
    "",
    "1e308",
];

/// Hostile spellings of a float field: NaN, both infinities, the
/// largest, smallest normal and smallest subnormal magnitudes, signed
/// zero, and garbage.
const F64_EDGES: [&str; 10] = [
    "nan", "NaN", "inf", "-inf", "1e308", "1e-308", "5e-324", "-0", "0", "x",
];

/// Per field, spellings that parse and pass the physical checks but sit
/// at the edges of the timing model: `u64::MAX` counts, `cpi_core` from
/// the smallest subnormal to `1e308`, and a `1e308` MLP.
const RUNNABLE_EDGES: [&[&str]; 5] = [
    &["1", "18446744073709551615"],
    &["0", "1", "18446744073709551615"],
    &["0", "1", "18446744073709551615"],
    &["1e308", "1e300", "1e-308", "5e-324"],
    &["1", "1e308"],
];

/// One CSV field from three bytes: an edge spelling with chance
/// `hostility`/256, or with an odd `roll` from `RUNNABLE_EDGES` when
/// `runnable`, else an ordinary value scaled from `pick`; and stray
/// whitespace on one byte value in four.
fn field(index: usize, [roll, pick, ws]: [u8; 3], hostility: u8, runnable: bool) -> String {
    let pick_from = |edges: &[&str]| edges[usize::from(pick) % edges.len()].to_owned();
    let value = if runnable && roll % 2 == 1 {
        pick_from(RUNNABLE_EDGES[index])
    } else if !runnable && roll < hostility {
        pick_from(if index < 3 { &U64_EDGES } else { &F64_EDGES })
    } else {
        let p = u64::from(pick);
        match index {
            0 => (1 + p * 1_000_000).to_string(),
            1 => (p * 800_000).to_string(),
            2 => (p * 9_000).to_string(),
            3 => (0.25 + f64::from(pick) / 64.0).to_string(),
            _ => (1.0 + f64::from(pick) / 32.0).to_string(),
        }
    };
    match ws % 16 {
        0 => format!(" {value}"),
        1 => format!("{value}\t"),
        2 => format!("  {value} "),
        _ => value,
    }
}

/// One data line from its bytes: usually five fields (one line in eight
/// drawing its edges from `RUNNABLE_EDGES`), sometimes four or six,
/// sometimes a blank or whitespace-only line.
fn row(bytes: &[u8], hostility: u8) -> String {
    let (fields, runnable) = match bytes[0] % 16 {
        0 => return String::new(),
        1 => return " \t ".to_owned(),
        2 => (4, false),
        3 => (6, false),
        4 | 5 => (5, true),
        _ => (5, false),
    };
    (0..fields)
        .map(|i| {
            let b = &bytes[1 + 3 * i..4 + 3 * i];
            field(i, [b[0], b[1], b[2]], hostility, runnable)
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Whether `work` runs on every Pentium-M operating point with a
/// positive, finite time and a finite energy.
fn runs_everywhere(work: &IntervalWork) -> bool {
    let (timing, power) = (TimingModel::pentium_m(), AnalyticModel::pentium_m());
    let opps = OperatingPointTable::pentium_m();
    opps.points().len() == 6
        && opps.points().iter().all(|&opp| {
            let run = timing.execute(work, opp.frequency);
            run.seconds > 0.0
                && run.seconds.is_finite()
                && power
                    .energy(opp, run.core_fraction(), run.seconds)
                    .is_finite()
        })
}

proptest! {
    /// Whenever the solver accepts a coordinate, the produced level
    /// realizes it exactly (forward-model round trip).
    #[test]
    fn ipcxmem_solutions_are_exact(upc in 0.05f64..2.0, mem in 0.0f64..0.06) {
        let suite = IpcxMemSuite::pentium_m();
        let cfg = IpcxMemConfig { target_upc: upc, mem_uop: mem };
        if let Some(level) = suite.solve(cfg) {
            let timing = livephase_pmsim::TimingModel::pentium_m();
            let work = level.interval(100_000_000, 1.25, mem);
            let got = timing.upc(&work, suite.reference_frequency());
            prop_assert!((got - upc).abs() < 0.02, "target {upc}, got {got}");
            prop_assert!((work.mem_uop() - mem).abs() < 1e-4);
            prop_assert!(level.mlp >= 1.0);
        }
    }

    /// The frontier is authoritative: coordinates above it are rejected,
    /// coordinates comfortably below it are accepted.
    #[test]
    fn frontier_separates_feasibility(mem in 0.0f64..0.06) {
        let suite = IpcxMemSuite::pentium_m();
        let bound = suite.max_upc(mem);
        let above = IpcxMemConfig { target_upc: bound * 1.05, mem_uop: mem };
        prop_assert!(suite.solve(above).is_none());
        let below = IpcxMemConfig { target_upc: (bound * 0.9).max(0.02), mem_uop: mem };
        prop_assert!(suite.solve(below).is_some());
    }

    /// UPC of any solved level rises (weakly) as frequency falls, and the
    /// rise grows with memory intensity.
    #[test]
    fn solved_levels_show_dvfs_sensitivity(mem in 0.0f64..0.05) {
        let suite = IpcxMemSuite::pentium_m();
        let timing = livephase_pmsim::TimingModel::pentium_m();
        let cfg = IpcxMemConfig { target_upc: (suite.max_upc(mem) * 0.5).max(0.05), mem_uop: mem };
        if let Some(level) = suite.solve(cfg) {
            let work = level.interval(100_000_000, 1.25, mem);
            let fast = timing.upc(&work, Frequency::from_mhz(1500));
            let slow = timing.upc(&work, Frequency::from_mhz(600));
            prop_assert!(slow >= fast - 1e-12);
            if mem == 0.0 {
                prop_assert!((slow - fast).abs() < 1e-12);
            }
        }
    }

    /// The reference family is well-formed at any memory intensity.
    #[test]
    fn reference_family_is_valid(mem in 0.0f64..0.2) {
        let level = PhaseLevel::reference_family(mem);
        prop_assert_eq!(level.mem_uop, mem);
        prop_assert!(level.cpi_core > 0.0);
        prop_assert!(level.mlp >= 1.0);
    }

    /// Characterization statistics are bounded and scale-correct.
    #[test]
    fn trace_stats_are_bounded(series in proptest::collection::vec(0.0f64..0.2, 1..500)) {
        let s = TraceStats::from_mem_uop_series(&series);
        prop_assert!(s.sample_variation_pct >= 0.0 && s.sample_variation_pct <= 100.0);
        let min = series.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = series.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(s.mean_mem_uop >= min - 1e-12 && s.mean_mem_uop <= max + 1e-12);
        prop_assert_eq!(s.samples, series.len());
    }

    /// Every registered benchmark generates valid work at any length and
    /// every interval carries the spec's 100 M uops.
    #[test]
    fn registry_generates_valid_intervals(idx in 0usize..33, len in 1usize..60, seed in 0u64..64) {
        let spec = registry().swap_remove(idx).with_length(len);
        let trace = spec.generate(seed);
        prop_assert_eq!(trace.len(), len);
        for w in trace.iter() {
            prop_assert_eq!(w.uops, 100_000_000);
            prop_assert!(w.instructions > 0);
            prop_assert!(w.cpi_core > 0.0 && w.mlp >= 1.0);
        }
    }

    /// Round-robin scheduling conserves every job's intervals exactly and
    /// attributes each to the right pid, for any timeslice.
    #[test]
    fn round_robin_conserves_jobs(
        lens in proptest::collection::vec(1usize..40, 1..4),
        timeslice in 1usize..10,
    ) {
        let names = ["applu_in", "swim_in", "crafty_in"];
        let traces: Vec<_> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                livephase_workloads::benchmark(names[i % 3])
                    .unwrap()
                    .with_length(len)
                    .generate(1)
            })
            .collect();
        let members = (1u32..).zip(traces.iter().map(|t| t.stream())).collect();
        let mut source = livephase_workloads::round_robin_source(members, timeslice, "mix");
        let mix: Vec<_> = std::iter::from_fn(|| source.next_tagged()).collect();
        let total: usize = lens.iter().sum();
        prop_assert_eq!(mix.len(), total);
        for (pid, trace) in (1u32..).zip(&traces) {
            // Extract this pid's subsequence: must equal the job's trace.
            let mine: Vec<_> = mix
                .iter()
                .filter(|&&(p, _)| p == pid)
                .map(|&(_, w)| w)
                .collect();
            prop_assert_eq!(mine.as_slice(), trace.intervals());
        }
    }

    /// Trace CSV round-trips exactly for any registered benchmark.
    #[test]
    fn csv_round_trip(idx in 0usize..33, len in 1usize..50, seed in 0u64..32) {
        use livephase_workloads::io;
        let trace = registry().swap_remove(idx).with_length(len).generate(seed);
        let restored = io::from_csv(trace.name(), &io::to_csv(&trace))
            .expect("exporter output is always importable");
        prop_assert_eq!(trace, restored);
    }

    /// Different seeds decorrelate the noise but not the calibration:
    /// mean Mem/Uop is seed-stable within a tight band for a long trace.
    #[test]
    fn calibration_is_seed_stable(seed_a in 0u64..1000, seed_b in 0u64..1000) {
        let spec = livephase_workloads::benchmark("applu_in").unwrap().with_length(600);
        let a = spec.generate(seed_a).characterize();
        let b = spec.generate(seed_b).characterize();
        prop_assert!((a.mean_mem_uop - b.mean_mem_uop).abs() < 0.002);
        prop_assert!((a.sample_variation_pct - b.sample_variation_pct).abs() < 12.0);
    }

    /// Hostile CSV never panics the importer. Every error names what
    /// failed and where: a `BadRow` line is a non-blank data line that
    /// fails on its own (as line 2 under the header) while every data
    /// line before it imports. Every accepted row runs with a positive,
    /// finite time and a finite energy at all six operating points, and
    /// the streaming importer yields the same intervals and error.
    #[test]
    fn csv_import_rejects_hostile_rows_with_their_line(
        header in 0usize..3 * HEADERS.len(),
        hostility in prop_oneof![Just(0u8), 0u8..=96, 0u8..=255],
        rows in proptest::collection::vec(proptest::collection::vec(0u8..=255, 19), 0..=12),
    ) {
        // Out-of-range picks choose the real header, so most cases reach
        // the rows.
        let mut lines = vec![HEADERS.get(header).copied().unwrap_or(CSV_HEADER).to_owned()];
        lines.extend(rows.iter().map(|r| row(r, hostility)));
        let csv = lines.join("\n");
        let got = io::from_csv("hostile", &csv);
        match &got {
            Err(TraceCsvError::MissingHeader) => prop_assert!(csv.is_empty()),
            Err(TraceCsvError::BadHeader { found }) => {
                prop_assert_ne!(found.as_str(), CSV_HEADER);
                prop_assert_eq!(found.as_str(), lines[0].trim());
            }
            Err(TraceCsvError::Empty) => {
                prop_assert!(lines[1..].iter().all(|l| l.trim().is_empty()));
            }
            Err(TraceCsvError::BadRow { line, .. }) => {
                let line = *line;
                prop_assert!(line >= 2 && line <= lines.len(), "line {}", line);
                let bad = &lines[line - 1];
                prop_assert!(!bad.trim().is_empty());
                let before = io::from_csv("hostile", &lines[..line - 1].join("\n"));
                prop_assert!(
                    matches!(before, Ok(_) | Err(TraceCsvError::Empty)),
                    "rows before line {} import: {:?}", line, before
                );
                let alone = io::from_csv("hostile", &format!("{}\n{bad}", lines[0]));
                prop_assert!(
                    matches!(alone, Err(TraceCsvError::BadRow { line: 2, .. })),
                    "line {} alone: {:?}", line, alone
                );
            }
            Ok(trace) => {
                for w in trace.iter() {
                    prop_assert!(runs_everywhere(w), "accepted {:?}", w);
                }
            }
        }
        match io::stream_csv("hostile", &csv) {
            Ok(mut source) => {
                use livephase_workloads::IntervalSource;
                let streamed: Vec<_> = std::iter::from_fn(|| source.next_interval()).collect();
                match &got {
                    Ok(trace) => {
                        prop_assert_eq!(streamed.as_slice(), trace.intervals());
                        prop_assert!(source.error().is_none());
                    }
                    Err(TraceCsvError::Empty) => {
                        prop_assert!(streamed.is_empty() && source.error().is_none());
                    }
                    Err(e) => prop_assert_eq!(source.error(), Some(e)),
                }
            }
            Err(e) => prop_assert_eq!(Err(e), got.map(|_| ())),
        }
    }
}
