//! Textual predictor specifications.
//!
//! One grammar names every predictor family the workspace ships, so the
//! CLI, the network service handshake, and tests all agree on what
//! `"gpht:8:128"` means:
//!
//! ```text
//! lastvalue | markov | fixwindow:<n> | varwindow:<n>:<threshold> |
//! gpht:<depth>:<entries> | hashedgpht:<depth>:<entries>
//! ```
//!
//! Every size is at least 1 and bounded: `n` by [`MAX_WINDOW`], `depth`
//! by [`GphtConfig::MAX_DEPTH`] and `entries` by
//! [`GphtConfig::MAX_ENTRIES`]. Specs arrive from network clients, so an
//! out-of-range size is a typed error, never an allocation that aborts.

use super::fixed_window::{FixedWindow, Selector};
use super::gpht::{Gpht, GphtConfig};
use super::hashed_gpht::{HashedGpht, HashedGphtConfig};
use super::last_value::LastValue;
use super::markov::MarkovPredictor;
use super::variable_window::VariableWindow;
use super::Predictor;
use std::error::Error;
use std::fmt;

/// The largest window a `fixwindow` or `varwindow` spec may ask for:
/// 128 times the windows the paper evaluates.
pub const MAX_WINDOW: usize = 16_384;

/// The grammar accepted by [`from_spec`], with its size limits, for
/// error messages and help text.
pub const GRAMMAR: &str = "lastvalue | markov | fixwindow:<n> | \
                           varwindow:<n>:<threshold> | gpht:<depth>:<entries> | \
                           hashedgpht:<depth>:<entries> \
                           (1 <= n <= 16384, 1 <= depth <= 64, 1 <= entries <= 16384)";

/// A rejected predictor specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictorSpecError {
    spec: String,
}

impl PredictorSpecError {
    /// The offending spec string.
    #[must_use]
    pub fn spec(&self) -> &str {
        &self.spec
    }
}

impl fmt::Display for PredictorSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad predictor spec {:?}; accepted: {GRAMMAR}", self.spec)
    }
}

impl Error for PredictorSpecError {}

/// Builds a predictor from a spec string such as `gpht:8:128`.
///
/// # Errors
///
/// Returns a [`PredictorSpecError`] (whose message includes the accepted
/// grammar) when the spec does not parse or carries a size outside its
/// limits.
pub fn from_spec(spec: &str) -> Result<Box<dyn Predictor>, PredictorSpecError> {
    let bad = || PredictorSpecError {
        spec: spec.to_owned(),
    };
    // A size in `1..=max`.
    let size = |s: &str, max: usize| {
        s.parse::<usize>()
            .ok()
            .filter(|n| (1..=max).contains(n))
            .ok_or_else(bad)
    };
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["lastvalue"] => Ok(Box::new(LastValue::new())),
        ["markov"] => Ok(Box::new(MarkovPredictor::new())),
        ["fixwindow", n] => Ok(Box::new(FixedWindow::new(
            size(n, MAX_WINDOW)?,
            Selector::Majority,
        ))),
        ["varwindow", n, thr] => {
            let n = size(n, MAX_WINDOW)?;
            let thr: f64 = thr.parse().map_err(|_| bad())?;
            if !thr.is_finite() || thr < 0.0 {
                return Err(bad());
            }
            Ok(Box::new(VariableWindow::new(n, thr)))
        }
        ["gpht", depth, entries] => {
            let (depth, entries) = (
                size(depth, GphtConfig::MAX_DEPTH)?,
                size(entries, GphtConfig::MAX_ENTRIES)?,
            );
            Ok(Box::new(Gpht::new(GphtConfig {
                gphr_depth: depth,
                pht_entries: entries,
            })))
        }
        ["hashedgpht", depth, entries] => {
            let (depth, entries) = (
                size(depth, GphtConfig::MAX_DEPTH)?,
                size(entries, GphtConfig::MAX_ENTRIES)?,
            );
            Ok(Box::new(HashedGpht::new(HashedGphtConfig {
                gphr_depth: depth,
                pht_entries: entries,
            })))
        }
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_parses() {
        for (spec, name) in [
            ("lastvalue", "LastValue"),
            ("markov", "Markov1"),
            ("gpht:8:128", "GPHT_8_128"),
        ] {
            assert_eq!(from_spec(spec).unwrap().name(), name);
        }
        assert!(from_spec("fixwindow:4").is_ok());
        assert!(from_spec("varwindow:8:0.005").is_ok());
        assert!(from_spec("hashedgpht:8:128").is_ok());
    }

    #[test]
    fn bad_specs_are_rejected_with_the_grammar() {
        for spec in [
            "",
            "gpht",
            "gpht:0:128",
            "gpht:8:0",
            "gpht:8",
            "fixwindow:0",
            "varwindow:4:nan",
            "varwindow:4:-1",
            "frobnicate",
        ] {
            let e = from_spec(spec).err().expect("spec must be rejected");
            assert_eq!(e.spec(), spec);
            assert!(e.to_string().contains("gpht:<depth>:<entries>"));
        }
    }

    #[test]
    fn sizes_above_the_limits_are_rejected_not_allocated() {
        let max = usize::MAX;
        for spec in [
            "gpht:8:100000000000".to_owned(),
            format!("gpht:{max}:128"),
            format!("gpht:8:{max}"),
            format!("hashedgpht:{max}:128"),
            format!("hashedgpht:8:{max}"),
            format!("fixwindow:{max}"),
            format!("varwindow:{max}:0.005"),
            format!("gpht:{}:128", GphtConfig::MAX_DEPTH + 1),
            format!("gpht:8:{}", GphtConfig::MAX_ENTRIES + 1),
            format!("hashedgpht:{}:128", GphtConfig::MAX_DEPTH + 1),
            format!("hashedgpht:8:{}", GphtConfig::MAX_ENTRIES + 1),
            format!("fixwindow:{}", MAX_WINDOW + 1),
            format!("varwindow:{}:0.005", MAX_WINDOW + 1),
        ] {
            let e = from_spec(&spec)
                .err()
                .expect("oversized spec must be rejected");
            assert_eq!(e.spec(), spec);
        }
    }

    #[test]
    fn the_limits_admit_every_size_in_use_and_are_named() {
        let (depth, entries) = (GphtConfig::MAX_DEPTH, GphtConfig::MAX_ENTRIES);
        for spec in [
            "gpht:32:1024".to_owned(),
            "varwindow:128:0.005".to_owned(),
            format!("gpht:{depth}:{entries}"),
            format!("hashedgpht:{depth}:{entries}"),
            format!("fixwindow:{MAX_WINDOW}"),
            format!("varwindow:{MAX_WINDOW}:0.03"),
        ] {
            assert!(from_spec(&spec).is_ok(), "{spec} is within the limits");
        }
        for limit in [
            format!("n <= {MAX_WINDOW}"),
            format!("depth <= {depth}"),
            format!("entries <= {entries}"),
        ] {
            assert!(GRAMMAR.contains(&limit), "grammar names {limit}");
        }
    }
}
