//! CSV import/export of workload traces.
//!
//! The paper's monitoring side logs per-interval counter values; a real
//! deployment of this library would replay such logs instead of synthetic
//! generators. The format is one header line plus one row per sampling
//! interval:
//!
//! ```csv
//! uops,instructions,mem_transactions,cpi_core,mlp
//! 100000000,80000000,1200000,0.8,2.0
//! ```
//!
//! A row is accepted only if the Pentium-M platform can run it: at every
//! operating point its interval time must be positive and finite and its
//! energy finite. Counts and `cpi_core` that parse can still overflow the
//! timing model (`1e308` cycles per uop) or underflow it to zero time,
//! and either would reach the power model as an undefined core fraction.
//! A row may also stand for at most [`MAX_PMIS_PER_ROW`] PMIs.

use crate::source::IntervalSource;
use crate::trace::WorkloadTrace;
use livephase_pmsim::timing::IntervalWork;
use livephase_pmsim::{AnalyticModel, OperatingPointTable, PlatformConfig, TimingModel};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// The most PMIs one row may stand for. The simulated CPU delivers a PMI
/// every `pmi_granularity_uops` (100 M on the Pentium-M), so a row of
/// `u64::MAX` uops would be ≈1.8·10¹¹ PMIs and its replay would
/// practically never end. Rows above 1024 PMIs' worth of uops are
/// refused, as the tenants scenario refuses quanta below 1/1024 of an
/// interval.
pub const MAX_PMIS_PER_ROW: u64 = 1024;

/// The CSV header the exporter writes and the importer requires.
pub const CSV_HEADER: &str = "uops,instructions,mem_transactions,cpi_core,mlp";

/// Error importing a trace from CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceCsvError {
    /// The input had no header line.
    MissingHeader,
    /// The header did not match [`CSV_HEADER`].
    BadHeader {
        /// The header actually found.
        found: String,
    },
    /// A data row had the wrong number of fields or an unparsable value.
    BadRow {
        /// 1-based line number of the offending row.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The file contained a header but no data rows.
    Empty,
}

impl fmt::Display for TraceCsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingHeader => write!(f, "trace CSV is missing its header line"),
            Self::BadHeader { found } => {
                write!(f, "unexpected header {found:?}; expected {CSV_HEADER:?}")
            }
            Self::BadRow { line, reason } => write!(f, "bad row at line {line}: {reason}"),
            Self::Empty => write!(f, "trace CSV contains no sampling intervals"),
        }
    }
}

impl Error for TraceCsvError {}

/// Serializes a trace to CSV.
#[must_use]
pub fn to_csv(trace: &WorkloadTrace) -> String {
    let mut out = String::with_capacity(trace.len() * 48);
    out.push_str(CSV_HEADER);
    out.push('\n');
    for w in trace {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            w.uops, w.instructions, w.mem_transactions, w.cpi_core, w.mlp
        );
    }
    out
}

/// Parses one data row (1-based `row` for error messages), checking it
/// runs on every Pentium-M operating point.
fn parse_row(row: usize, line: &str) -> Result<IntervalWork, TraceCsvError> {
    let fields: Vec<&str> = line.split(',').collect();
    let &[uops, instructions, mem, cpi, mlp] = fields.as_slice() else {
        return Err(TraceCsvError::BadRow {
            line: row,
            reason: format!("expected 5 fields, found {}", fields.len()),
        });
    };
    let parse_u64 = |s: &str, what: &str| {
        s.trim().parse::<u64>().map_err(|e| TraceCsvError::BadRow {
            line: row,
            reason: format!("{what}: {e}"),
        })
    };
    let parse_f64 = |s: &str, what: &str| {
        s.trim().parse::<f64>().map_err(|e| TraceCsvError::BadRow {
            line: row,
            reason: format!("{what}: {e}"),
        })
    };
    let uops = parse_u64(uops, "uops")?;
    let instructions = parse_u64(instructions, "instructions")?;
    let mem = parse_u64(mem, "mem_transactions")?;
    let cpi = parse_f64(cpi, "cpi_core")?;
    let mlp = parse_f64(mlp, "mlp")?;
    // NaNs fail these comparisons and are rejected with the rest.
    let physical = cpi > 0.0 && mlp >= 1.0 && cpi.is_finite() && mlp.is_finite();
    if uops == 0 || !physical {
        return Err(TraceCsvError::BadRow {
            line: row,
            reason: "uops must be positive, cpi_core > 0, mlp >= 1".to_owned(),
        });
    }
    let pmi_uops = PlatformConfig::pentium_m().pmi_granularity_uops;
    if uops > MAX_PMIS_PER_ROW * pmi_uops {
        return Err(TraceCsvError::BadRow {
            line: row,
            reason: format!(
                "{uops} uops is more than {MAX_PMIS_PER_ROW} PMIs of {pmi_uops} uops each"
            ),
        });
    }
    let work = IntervalWork::new(uops, instructions, mem, cpi, mlp);
    let timing = TimingModel::pentium_m();
    let power = AnalyticModel::pentium_m();
    for &opp in OperatingPointTable::pentium_m().points() {
        let run = timing.execute(&work, opp.frequency);
        // The time check comes first: only a positive, finite time has a
        // core fraction in [0, 1] for the power model.
        let runnable = run.seconds > 0.0
            && run.seconds.is_finite()
            && power
                .energy(opp, run.core_fraction(), run.seconds)
                .is_finite();
        if !runnable {
            return Err(TraceCsvError::BadRow {
                line: row,
                reason: format!(
                    "interval time {} s at {} MHz; time must be positive and finite, \
                     energy finite",
                    run.seconds,
                    opp.frequency.mhz()
                ),
            });
        }
    }
    Ok(work)
}

/// A lazy CSV replay: the header is validated up front, data rows parse
/// one at a time as the platform pulls intervals — a counter log replays
/// without ever being buffered whole.
///
/// A malformed row ends the stream; the deferred error is reported by
/// [`error`](Self::error) (streaming has no other channel for it).
#[derive(Debug, Clone)]
pub struct CsvSource<'a> {
    name: String,
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    error: Option<TraceCsvError>,
}

impl CsvSource<'_> {
    /// The parse error that terminated the stream, if any.
    #[must_use]
    pub fn error(&self) -> Option<&TraceCsvError> {
        self.error.as_ref()
    }
}

impl IntervalSource for CsvSource<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_interval(&mut self) -> Option<IntervalWork> {
        if self.error.is_some() {
            return None;
        }
        for (idx, line) in self.lines.by_ref() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match parse_row(idx + 1, line) {
                Ok(w) => return Some(w),
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
            }
        }
        None
    }
}

/// Opens a CSV trace as a streaming [`IntervalSource`], validating the
/// header eagerly.
///
/// # Errors
///
/// Returns [`TraceCsvError::MissingHeader`] / [`TraceCsvError::BadHeader`]
/// for header problems; row errors surface lazily via
/// [`CsvSource::error`].
pub fn stream_csv<'a>(
    name: impl Into<String>,
    csv: &'a str,
) -> Result<CsvSource<'a>, TraceCsvError> {
    let mut lines = csv.lines().enumerate();
    let (_, header) = lines.next().ok_or(TraceCsvError::MissingHeader)?;
    if header.trim() != CSV_HEADER {
        return Err(TraceCsvError::BadHeader {
            found: header.trim().to_owned(),
        });
    }
    Ok(CsvSource {
        name: name.into(),
        lines,
        error: None,
    })
}

/// Parses a trace from CSV.
///
/// # Errors
///
/// Returns a [`TraceCsvError`] describing the first malformed line.
pub fn from_csv(name: &str, csv: &str) -> Result<WorkloadTrace, TraceCsvError> {
    let mut source = stream_csv(name, csv)?;
    let mut intervals = Vec::new();
    while let Some(w) = source.next_interval() {
        intervals.push(w);
    }
    if let Some(e) = source.error {
        return Err(e);
    }
    if intervals.is_empty() {
        return Err(TraceCsvError::Empty);
    }
    Ok(WorkloadTrace::new(name, intervals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn round_trip_preserves_the_trace() {
        let original = spec::benchmark("applu_in")
            .unwrap()
            .with_length(40)
            .generate(5);
        let csv = to_csv(&original);
        let restored = from_csv("applu_in", &csv).unwrap();
        assert_eq!(original, restored);
    }

    #[test]
    fn rejects_missing_header() {
        assert_eq!(from_csv("x", ""), Err(TraceCsvError::MissingHeader));
    }

    #[test]
    fn rejects_wrong_header() {
        let err = from_csv("x", "a,b,c\n1,2,3").unwrap_err();
        assert!(matches!(err, TraceCsvError::BadHeader { .. }));
    }

    #[test]
    fn rejects_short_rows() {
        let csv = format!("{CSV_HEADER}\n1,2,3\n");
        let err = from_csv("x", &csv).unwrap_err();
        assert!(matches!(err, TraceCsvError::BadRow { line: 2, .. }));
    }

    #[test]
    fn rejects_unparsable_values() {
        let csv = format!("{CSV_HEADER}\n1,2,3,potato,1.0\n");
        let err = from_csv("x", &csv).unwrap_err();
        assert!(err.to_string().contains("cpi_core"));
    }

    #[test]
    fn rejects_invalid_physics() {
        let csv = format!("{CSV_HEADER}\n100,80,5,0.8,0.5\n");
        let err = from_csv("x", &csv).unwrap_err();
        assert!(err.to_string().contains("mlp"));
    }

    #[test]
    fn rejects_rows_the_platform_cannot_run() {
        // Each parses, but `1e308` cycles per uop overflows the interval
        // time (the core fraction became inf/inf and panicked the power
        // model), and a subnormal `cpi_core` underflows it to zero.
        for (row, mhz) in [
            ("100000000,80000000,100000000,1e308,1", "1500"),
            ("1,1,0,5e-324,1", "1500"),
        ] {
            let csv = format!("{CSV_HEADER}\n100,80,5,0.8,2.0\n{row}\n");
            let err = from_csv("x", &csv).unwrap_err();
            assert!(
                matches!(err, TraceCsvError::BadRow { line: 3, .. }),
                "{err}"
            );
            let msg = err.to_string();
            assert!(msg.starts_with("bad row at line 3:"), "{msg}");
            assert!(msg.contains(&format!("at {mhz} MHz")), "{msg}");
        }
    }

    #[test]
    fn a_row_may_stand_for_at_most_max_pmis_per_row() {
        let max = MAX_PMIS_PER_ROW * PlatformConfig::pentium_m().pmi_granularity_uops;
        let row = |uops: u64| format!("{CSV_HEADER}\n{uops},80000000,1200000,0.8,2.0\n");
        let at_bound = from_csv("x", &row(max)).unwrap();
        assert_eq!(at_bound.intervals()[0].uops, max);
        for uops in [max + 1, u64::MAX] {
            let err = from_csv("x", &row(uops)).unwrap_err();
            assert!(
                matches!(err, TraceCsvError::BadRow { line: 2, .. }),
                "{err}"
            );
            assert!(err.to_string().contains("1024 PMIs"), "{err}");
        }
    }

    #[test]
    fn every_exported_registry_row_is_under_the_bound() {
        // What `export <bench>` writes: the default length at seed 42.
        let max = MAX_PMIS_PER_ROW * PlatformConfig::pentium_m().pmi_granularity_uops;
        let specs = spec::registry();
        assert_eq!(specs.len(), 33);
        for bench in specs {
            let trace = bench.generate(42);
            let biggest = trace.iter().map(|w| w.uops).max().unwrap();
            assert!(biggest <= max, "{}: {biggest} uops", bench.name());
        }
    }

    #[test]
    fn rejects_empty_body() {
        let csv = format!("{CSV_HEADER}\n\n");
        assert_eq!(from_csv("x", &csv), Err(TraceCsvError::Empty));
    }

    #[test]
    fn skips_blank_lines() {
        let csv = format!("{CSV_HEADER}\n\n100,80,5,0.8,2.0\n\n");
        let t = from_csv("x", &csv).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn stream_is_lazy_about_row_errors() {
        // One good row, then a malformed one: the stream yields the good
        // interval and parks the error instead of failing eagerly.
        let csv = format!("{CSV_HEADER}\n100,80,5,0.8,2.0\n1,2,3\n");
        let mut s = stream_csv("x", &csv).unwrap();
        assert!(s.error().is_none());
        assert!(s.next_interval().is_some());
        assert!(s.next_interval().is_none());
        assert!(matches!(
            s.error(),
            Some(TraceCsvError::BadRow { line: 3, .. })
        ));
        // The stream stays terminated.
        assert!(s.next_interval().is_none());
        // And the materialized API reports the same error.
        assert!(matches!(
            from_csv("x", &csv),
            Err(TraceCsvError::BadRow { line: 3, .. })
        ));
    }

    #[test]
    fn stream_matches_materialized_import() {
        let original = spec::benchmark("mcf_inp")
            .unwrap()
            .with_length(25)
            .generate(7);
        let csv = to_csv(&original);
        let mut s = stream_csv("mcf_inp", &csv).unwrap();
        assert_eq!(s.name(), "mcf_inp");
        let streamed: Vec<_> = std::iter::from_fn(|| s.next_interval()).collect();
        assert_eq!(streamed.as_slice(), original.intervals());
        assert!(s.error().is_none());
    }

    #[test]
    fn errors_render() {
        for e in [
            TraceCsvError::MissingHeader,
            TraceCsvError::BadHeader { found: "x".into() },
            TraceCsvError::BadRow {
                line: 3,
                reason: "nope".into(),
            },
            TraceCsvError::Empty,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
