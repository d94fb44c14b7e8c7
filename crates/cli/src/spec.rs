//! Textual specifications for predictors and policies.

use crate::args::CliError;
use livephase_core::{PhaseMap, Predictor};
use livephase_engine::{DecisionEngine, EngineConfig};
use livephase_governor::{ConservativeDerivation, Manager, ManagerConfig, Oracle};
use livephase_workloads::WorkloadTrace;

/// The `--predictor` default: the deployed GPHT(8, 128).
pub const DEFAULT_PREDICTOR: &str = "gpht:8:128";

/// Builds a predictor from a spec string such as `gpht:8:128`.
///
/// # Errors
///
/// Returns a [`CliError`] describing the accepted grammar on mismatch.
pub fn predictor(spec: &str) -> Result<Box<dyn Predictor>, CliError> {
    livephase_core::predictor_from_spec(spec).map_err(|e| CliError::new(e.to_string()))
}

/// Builds a manager from a policy name and a predictor spec, for a given
/// workload (the oracle needs the trace up front). Only `gpht` runs the
/// spec; it is validated whatever the policy, and every other policy
/// refuses a non-default one rather than silently ignore it.
///
/// # Errors
///
/// Returns a [`CliError`] for a malformed spec, an unknown policy, or a
/// non-default spec given to a policy that takes none.
pub fn manager(
    policy: &str,
    predictor_spec: &str,
    trace: &WorkloadTrace,
) -> Result<Manager, CliError> {
    let engine = DecisionEngine::from_spec(EngineConfig::pentium_m(), predictor_spec)
        .map_err(|e| CliError::new(e.to_string()))?;
    let manager = match policy {
        "gpht" => return Ok(Manager::with_engine(engine, ManagerConfig::pentium_m())),
        "baseline" => Manager::baseline(),
        "reactive" => Manager::reactive(),
        "oracle" => {
            let oracle = Oracle::from_trace(trace, &PhaseMap::pentium_m());
            let engine =
                DecisionEngine::new(EngineConfig::pentium_m(), move || Box::new(oracle.clone()))
                    .with_name("Oracle");
            Manager::with_engine(engine, ManagerConfig::pentium_m())
        }
        "conservative" => ConservativeDerivation::pentium_m().manager(0.05),
        other => {
            return Err(CliError::new(format!(
                "unknown policy {other:?}; accepted: baseline | reactive | gpht | \
                 oracle | conservative"
            )))
        }
    };
    if predictor_spec != DEFAULT_PREDICTOR {
        return Err(CliError::new(format!(
            "--policy {policy} takes no --predictor (only gpht does), got {predictor_spec:?}"
        )));
    }
    Ok(manager)
}

#[cfg(test)]
mod tests {
    use super::*;
    use livephase_workloads::spec as wspec;

    #[test]
    fn predictor_grammar() {
        for (input, name) in [
            ("lastvalue", "LastValue"),
            ("markov", "Markov1"),
            ("fixwindow:8", "FixWindow_8"),
            ("varwindow:128:0.005", "VarWindow_128_0.005"),
            ("gpht:8:128", "GPHT_8_128"),
            ("hashedgpht:8:1024", "HashedGPHT_8_1024"),
        ] {
            assert_eq!(predictor(input).unwrap().name(), name, "{input}");
        }
    }

    #[test]
    fn predictor_grammar_rejections() {
        for bad in [
            "",
            "gpht",
            "gpht:8",
            "gpht:0:128",
            "gpht:8:0",
            "fixwindow:0",
            "varwindow:8:-1",
            "nope:1",
            "gpht:a:b",
        ] {
            assert!(predictor(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn policy_names() {
        let trace = wspec::benchmark("swim_in")
            .unwrap()
            .with_length(5)
            .generate(1);
        for name in ["baseline", "reactive", "gpht", "oracle", "conservative"] {
            assert!(manager(name, DEFAULT_PREDICTOR, &trace).is_ok(), "{name}");
            assert!(manager(name, "nope:1", &trace).is_err(), "{name}");
        }
        assert!(manager("turbo", DEFAULT_PREDICTOR, &trace).is_err());
    }

    #[test]
    fn only_gpht_takes_a_predictor() {
        let trace = wspec::benchmark("swim_in")
            .unwrap()
            .with_length(5)
            .generate(1);
        let gpht = manager("gpht", "markov", &trace).unwrap();
        assert_eq!(gpht.policy_name(), "Proactive(Markov1)");
        for name in ["baseline", "reactive", "oracle", "conservative"] {
            let err = manager(name, "markov", &trace).unwrap_err();
            assert!(err.to_string().contains("takes no --predictor"), "{name}");
        }
    }
}
