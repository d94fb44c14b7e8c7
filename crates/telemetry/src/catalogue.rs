//! The metric catalogue: every metric the workspace emits, declared
//! once.
//!
//! An entry gives the metric's name, kind, emitting [`Layer`], [`Unit`],
//! label keys and help text. It is a `static` typed by its instrument
//! ([`Metric<Counter>`](Metric), `Metric<Gauge>`, `Metric<Histogram>`),
//! and [`Registry`](crate::Registry) registers nothing else: a site
//! passes the entry and its label *values*, so it cannot register a
//! counter as a gauge, restate the help text, or invent a label key.
//! Entries are built only here, so [`CATALOGUE`] lists every metric the
//! workspace can emit.
//!
//! The naming conventions are checked over [`CATALOGUE`] by this
//! module's unit test, not by scanning sources: names and label keys
//! are snake_case; counters end `_total`; a name ends `_us` exactly
//! when its unit is microseconds (and `_mw` when milliwatts); no name
//! ends in a suffix the exposition adds to histogram series
//! (`_bucket`, `_sum`, `_count`, `_overflow`); names are unique; a name starts with its
//! layer's prefix; and every metric-like word in `ci.sh`, `README.md`
//! and `DESIGN.md` names a declared metric.
//!
//! Five engine metrics still carry the `governor_` prefix of the code
//! they came from. Renaming them to `engine_*` waits on the benchmark
//! probe that reads four of them; until then the test lists them by
//! name as the only prefix exceptions.

use crate::histogram::Histogram;
use crate::registry::{Counter, Gauge};
use std::marker::PhantomData;
use std::ops::Deref;

/// Suffixes the exposition appends to a histogram's series
/// (`_bucket`, `_sum`, `_count`, `_overflow`). No metric or span name
/// may end in one, or its series would read as another metric's.
pub(crate) const RENDERED_SUFFIXES: [&str; 4] = ["_bucket", "_sum", "_count", "_overflow"];

/// Which instrument a metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonically increasing [`Counter`].
    Counter,
    /// An instantaneous [`Gauge`].
    Gauge,
    /// A log-linear [`Histogram`].
    Histogram,
}

impl Kind {
    /// The exposition's `# TYPE` word.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// The layer that emits a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `livephase-engine`: per-sample decisions.
    Engine,
    /// `livephase-governor`: sweeps and managed runs.
    Governor,
    /// `livephase-pmsim`: the simulated CPU.
    Pmsim,
    /// `livephase-serve`: the TCP daemon.
    Serve,
    /// `timed_span!` blocks, whichever crate they sit in.
    Span,
    /// `livephase-tenants`: the cluster scheduler and arbiter.
    Tenants,
}

impl Layer {
    /// The prefix every metric of this layer starts with.
    #[must_use]
    pub fn prefix(self) -> &'static str {
        match self {
            Layer::Engine => "engine_",
            Layer::Governor => "governor_",
            Layer::Pmsim => "pmsim_",
            Layer::Serve => "serve_",
            Layer::Span => "span_",
            Layer::Tenants => "tenants_",
        }
    }
}

/// What one unit of a metric's value is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Events or items.
    Count,
    /// Microseconds, wall-clock or simulated.
    Micros,
    /// Milliwatts.
    Milliwatts,
    /// Events per second.
    PerSecond,
}

impl Unit {
    /// The name suffix this unit requires, if any.
    #[must_use]
    pub fn suffix(self) -> Option<&'static str> {
        match self {
            Unit::Micros => Some("_us"),
            Unit::Milliwatts => Some("_mw"),
            Unit::Count | Unit::PerSecond => None,
        }
    }
}

/// What a catalogue entry declares, whatever its kind.
#[derive(Debug)]
pub struct Spec {
    /// The metric name, as exposed.
    pub name: &'static str,
    /// The instrument kind.
    pub kind: Kind,
    /// The emitting layer.
    pub layer: Layer,
    /// The unit of its values.
    pub unit: Unit,
    /// Its label keys, in the order a registration passes their values.
    pub labels: &'static [&'static str],
    /// The `# HELP` text.
    pub help: &'static str,
}

/// A catalogue entry typed by its instrument: `Registry::counter` takes
/// a `&Metric<Counter>`, and so on.
#[derive(Debug)]
pub struct Metric<I> {
    spec: Spec,
    instrument: PhantomData<fn() -> I>,
}

impl<I> Deref for Metric<I> {
    type Target = Spec;

    fn deref(&self) -> &Spec {
        &self.spec
    }
}

#[cfg(test)]
impl<I> Metric<I> {
    /// A metric outside the catalogue, for the registry's own tests.
    pub(crate) const fn fixture(
        name: &'static str,
        kind: Kind,
        labels: &'static [&'static str],
        help: &'static str,
    ) -> Self {
        Self {
            spec: Spec {
                name,
                kind,
                layer: Layer::Span,
                unit: Unit::Count,
                labels,
                help,
            },
            instrument: PhantomData,
        }
    }
}

/// Declares each entry as a `pub static` and lists them all in
/// [`CATALOGUE`], so no entry can escape the catalogue test.
macro_rules! catalogue {
    ($(
        $id:ident: $kind:ident {
            name: $name:literal,
            layer: $layer:ident,
            unit: $unit:ident,
            labels: [$($label:literal),*],
            help: $help:literal $(,)?
        }
    )*) => {
        $(
            #[doc = concat!("`", $name, "`: ", $help)]
            pub static $id: Metric<$kind> = Metric {
                spec: Spec {
                    name: $name,
                    kind: Kind::$kind,
                    layer: Layer::$layer,
                    unit: Unit::$unit,
                    labels: &[$($label),*],
                    help: $help,
                },
                instrument: PhantomData,
            };
        )*

        /// Every declared metric, in declaration order.
        pub static CATALOGUE: &[&Spec] = &[$(&$id.spec),*];
    };
}

catalogue! {
    GOVERNOR_DECISIONS_TOTAL: Counter {
        name: "governor_decisions_total",
        layer: Engine,
        unit: Count,
        labels: [],
        help: "DVFS decisions computed (in-process runs and serve shards).",
    }
    GOVERNOR_DECISION_US: Histogram {
        name: "governor_decision_us",
        layer: Engine,
        unit: Micros,
        labels: [],
        help: "Per-interval decision latency in microseconds.",
    }
    GOVERNOR_PREDICTOR_HITS_TOTAL: Counter {
        name: "governor_predictor_hits_total",
        layer: Engine,
        unit: Count,
        labels: [],
        help: "Scored intervals whose predicted phase was observed.",
    }
    GOVERNOR_PREDICTOR_MISSES_TOTAL: Counter {
        name: "governor_predictor_misses_total",
        layer: Engine,
        unit: Count,
        labels: [],
        help: "Scored intervals whose predicted phase was not observed.",
    }
    GOVERNOR_DVFS_TRANSITIONS_TOTAL: Counter {
        name: "governor_dvfs_transitions_total",
        layer: Engine,
        unit: Count,
        labels: ["from", "to"],
        help: "DVFS transitions by operating-point pair.",
    }
    ENGINE_PIDS_EVICTED_TOTAL: Counter {
        name: "engine_pids_evicted_total",
        layer: Engine,
        unit: Count,
        labels: [],
        help: "Per-pid predictor states evicted by the LRU capacity bound.",
    }

    GOVERNOR_PARMAP_JOBS_TOTAL: Counter {
        name: "governor_parmap_jobs_total",
        layer: Governor,
        unit: Count,
        labels: [],
        help: "Sweep work items executed by par_map.",
    }

    PMSIM_PMI_TOTAL: Counter {
        name: "pmsim_pmi_total",
        layer: Pmsim,
        unit: Count,
        labels: [],
        help: "Performance-monitoring interrupts delivered by the simulator.",
    }
    PMSIM_PMI_REARM_TOTAL: Counter {
        name: "pmsim_pmi_rearm_total",
        layer: Pmsim,
        unit: Count,
        labels: [],
        help: "Adaptive re-arms of the uop-overflow PMI threshold.",
    }
    PMSIM_SIM_CYCLES_PER_WALL_SECOND: Gauge {
        name: "pmsim_sim_cycles_per_wall_second",
        layer: Pmsim,
        unit: PerSecond,
        labels: [],
        help: "Simulation throughput: simulated core cycles per wall-clock second.",
    }

    SERVE_CONNECTIONS_TOTAL: Counter {
        name: "serve_connections_total",
        layer: Serve,
        unit: Count,
        labels: [],
        help: "Connections admitted past the accept gate since start.",
    }
    SERVE_CONNECTIONS_ACTIVE: Gauge {
        name: "serve_connections_active",
        layer: Serve,
        unit: Count,
        labels: [],
        help: "Connections currently open.",
    }
    SERVE_CONNECTIONS_REJECTED_TOTAL: Counter {
        name: "serve_connections_rejected_total",
        layer: Serve,
        unit: Count,
        labels: [],
        help: "Connections refused at the max-conns accept gate.",
    }
    SERVE_CONNECTIONS_POISONED_TOTAL: Counter {
        name: "serve_connections_poisoned_total",
        layer: Serve,
        unit: Count,
        labels: [],
        help: "Connections terminated for protocol violations or idle timeouts.",
    }
    SERVE_FRAME_ENCODE_US: Histogram {
        name: "serve_frame_encode_us",
        layer: Serve,
        unit: Micros,
        labels: [],
        help: "Batch-amortized frame encode latency in microseconds.",
    }
    SERVE_ERRORS_TOTAL: Counter {
        name: "serve_errors_total",
        layer: Serve,
        unit: Count,
        labels: ["code"],
        help: "Terminal Error frames sent, by error code.",
    }
    SERVE_FRAME_DECODE_US: Histogram {
        name: "serve_frame_decode_us",
        layer: Serve,
        unit: Micros,
        labels: ["shard"],
        help: "Batch-amortized frame decode latency in microseconds.",
    }
    SERVE_REACTOR_OPEN_FDS: Gauge {
        name: "serve_reactor_open_fds",
        layer: Serve,
        unit: Count,
        labels: ["shard"],
        help: "Sockets (including the listener) owned by this shard's reactor.",
    }
    SERVE_REACTOR_READY_QUEUE_DEPTH: Gauge {
        name: "serve_reactor_ready_queue_depth",
        layer: Serve,
        unit: Count,
        labels: ["shard"],
        help: "Readiness events delivered by the shard's most recent epoll wait.",
    }
    SERVE_CONNS_SHED_TOTAL: Counter {
        name: "serve_conns_shed_total",
        layer: Serve,
        unit: Count,
        labels: ["shard"],
        help: "Connections shed for overflowing their bounded outbound queue.",
    }
    SERVE_CONNS_REAPED_TOTAL: Counter {
        name: "serve_conns_reaped_total",
        layer: Serve,
        unit: Count,
        labels: ["shard"],
        help: "Connections reaped for idling past the read timeout.",
    }
    SERVE_REACTOR_DECODE_RESUMES: Histogram {
        name: "serve_reactor_decode_resumes",
        layer: Serve,
        unit: Count,
        labels: ["shard"],
        help: "Resumed decode attempts a frame needed before its bytes completed.",
    }
    SERVE_SHARD_SESSIONS: Gauge {
        name: "serve_shard_sessions",
        layer: Serve,
        unit: Count,
        labels: ["shard"],
        help: "Sessions whose predictor state this shard owns.",
    }
    SERVE_SHARD_SAMPLES_TOTAL: Counter {
        name: "serve_shard_samples_total",
        layer: Serve,
        unit: Count,
        labels: ["shard"],
        help: "Counter samples this shard has ingested.",
    }
    SERVE_SHARD_DECISION_US: Histogram {
        name: "serve_shard_decision_us",
        layer: Serve,
        unit: Micros,
        labels: ["shard"],
        help: "Classify-predict-translate latency in microseconds.",
    }
    SERVE_POWER_ESTIMATE_MW: Gauge {
        name: "serve_power_estimate_mw",
        layer: Serve,
        unit: Milliwatts,
        labels: ["shard"],
        help: "Worst-case power bound of this shard's latest decided \
               operating point, in milliwatts.",
    }

    SPAN_ELAPSED_US: Histogram {
        name: "span_elapsed_us",
        layer: Span,
        unit: Micros,
        labels: ["target", "span"],
        help: "Wall-clock duration of timed_span! blocks by target and span name.",
    }

    TENANTS_CONTEXT_SWITCHES_TOTAL: Counter {
        name: "tenants_context_switches_total",
        layer: Tenants,
        unit: Count,
        labels: [],
        help: "vCPU context switches performed by the tenant scheduler.",
    }
    TENANTS_INTERVALS_TOTAL: Counter {
        name: "tenants_intervals_total",
        layer: Tenants,
        unit: Count,
        labels: ["tenant"],
        help: "Sampling intervals completed, per tenant.",
    }
    TENANTS_SWITCH_RATE: Gauge {
        name: "tenants_switch_rate",
        layer: Tenants,
        unit: PerSecond,
        labels: [],
        help: "Context switches per simulated core-second, last completed run.",
    }
    TENANTS_ARBITER_STARVATION_US: Histogram {
        name: "tenants_arbiter_starvation_us",
        layer: Tenants,
        unit: Micros,
        labels: [],
        help: "Simulated microseconds tenants spent in denial streaks \
               (granted slower than requested).",
    }
    TENANTS_ARBITER_GRANTS_TOTAL: Counter {
        name: "tenants_arbiter_grants_total",
        layer: Tenants,
        unit: Count,
        labels: ["op"],
        help: "Epoch requests granted at the requested setting, by granted setting.",
    }
    TENANTS_ARBITER_DENIALS_TOTAL: Counter {
        name: "tenants_arbiter_denials_total",
        layer: Tenants,
        unit: Count,
        labels: ["op"],
        help: "Epoch requests granted slower than requested, by granted setting.",
    }
}

/// Whether `s` is snake_case: a lowercase letter first, then lowercase
/// letters, digits and single underscores, not ending in `_`. With
/// `paths`, `::` may separate several such segments.
#[must_use]
pub(crate) const fn is_snake_case(s: &str, paths: bool) -> bool {
    // `prev` is the last byte taken; `:` marks the start of a segment.
    let mut prev = b':';
    let mut rest = s.as_bytes();
    loop {
        rest = match rest {
            [] => return prev != b':' && prev != b'_',
            [b':', b':', tail @ ..] if paths && prev != b':' && prev != b'_' => {
                prev = b':';
                tail
            }
            [c @ b'a'..=b'z', tail @ ..] => {
                prev = *c;
                tail
            }
            [c @ b'0'..=b'9', tail @ ..] if prev != b':' => {
                prev = *c;
                tail
            }
            [b'_', tail @ ..] if prev != b':' && prev != b'_' => {
                prev = b'_';
                tail
            }
            _ => return false,
        };
    }
}

/// Whether `s` ends in one of the `RENDERED_SUFFIXES`.
#[must_use]
pub(crate) const fn has_rendered_suffix(s: &str) -> bool {
    let mut suffixes: &[&str] = &RENDERED_SUFFIXES;
    while let [suffix, others @ ..] = suffixes {
        if ends_with(s.as_bytes(), suffix.as_bytes()) {
            return true;
        }
        suffixes = others;
    }
    false
}

const fn ends_with(mut s: &[u8], mut suffix: &[u8]) -> bool {
    while let [suffix_head @ .., b] = suffix {
        let [s_head @ .., a] = s else {
            return false;
        };
        if *a != *b {
            return false;
        }
        s = s_head;
        suffix = suffix_head;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Engine metrics still named for the governor; they keep their
    /// names until the benchmark probe that reads them is taught the
    /// `engine_*` ones.
    const PREFIX_EXCEPTIONS: [&str; 5] = [
        "governor_decisions_total",
        "governor_decision_us",
        "governor_predictor_hits_total",
        "governor_predictor_misses_total",
        "governor_dvfs_transitions_total",
    ];

    /// Workspace files whose metric-like words must name declared
    /// metrics.
    const DOCS: [&str; 3] = ["ci.sh", "README.md", "DESIGN.md"];

    /// The declared metric a word mentions, if the word looks like a
    /// metric: snake_case, at least 6 bytes, ending `_total` or `_us`
    /// once a rendered-series suffix is stripped.
    fn metric_like(word: &str) -> Option<&str> {
        let base = RENDERED_SUFFIXES
            .iter()
            .find_map(|s| word.strip_suffix(s))
            .unwrap_or(word);
        let like = (base.ends_with("_total") || base.ends_with("_us"))
            && base.len() >= 6
            && is_snake_case(base, false);
        like.then_some(base)
    }

    #[test]
    fn the_catalogue_keeps_the_naming_conventions() {
        let mut problems = Vec::new();
        for (i, m) in CATALOGUE.iter().enumerate() {
            let mut bad = |why: &str| problems.push(format!("{}: {why}", m.name));
            if !is_snake_case(m.name, false) {
                bad("not snake_case");
            }
            if let Some(key) = m.labels.iter().find(|k| !is_snake_case(k, false)) {
                bad(&format!("label key {key:?} is not snake_case"));
            }
            if (m.kind == Kind::Counter) != m.name.ends_with("_total") {
                bad("counters, and only counters, end `_total`");
            }
            if (m.unit == Unit::Micros) != m.name.ends_with("_us") {
                bad("a name ends `_us` exactly when its unit is microseconds");
            }
            if m.unit.suffix().is_some_and(|s| !m.name.ends_with(s)) {
                bad("the name lacks its unit's suffix");
            }
            if has_rendered_suffix(m.name) {
                bad("ends in a rendered-series suffix");
            }
            if CATALOGUE[..i].iter().any(|e| e.name == m.name) {
                bad("declared twice");
            }
            if !m.name.starts_with(m.layer.prefix()) && !PREFIX_EXCEPTIONS.contains(&m.name) {
                bad(&format!("does not start with {:?}", m.layer.prefix()));
            }
        }
        for name in PREFIX_EXCEPTIONS {
            if !CATALOGUE
                .iter()
                .any(|m| m.name == name && m.layer == Layer::Engine)
            {
                problems.push(format!("{name}: stale prefix exception"));
            }
        }
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn every_metric_the_docs_and_ci_name_is_declared() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut unknown = Vec::new();
        for doc in DOCS {
            let text = std::fs::read_to_string(root.join(doc)).expect("workspace file");
            for (n, line) in text.lines().enumerate() {
                let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
                for name in words.filter_map(metric_like) {
                    if !CATALOGUE.iter().any(|m| m.name == name) {
                        unknown.push(format!("{doc}:{}: `{name}`", n + 1));
                    }
                }
            }
        }
        assert!(unknown.is_empty(), "undeclared metrics: {unknown:#?}");
    }

    #[test]
    fn the_word_predicate_matches_rendered_series_and_skips_prose() {
        assert_eq!(
            metric_like("serve_frame_decode_us_bucket"),
            Some("serve_frame_decode_us")
        );
        assert_eq!(
            metric_like("serve_errors_total"),
            Some("serve_errors_total")
        );
        for prose in ["total", "a_us", "Serve_total", "serve__total", "decode_ns"] {
            assert_eq!(metric_like(prose), None, "{prose}");
        }
    }

    #[test]
    fn snake_case_and_suffix_checks() {
        for ok in ["a", "serve_frame_decode_us", "p99_x", "x9"] {
            assert!(is_snake_case(ok, false), "{ok}");
        }
        for bad in ["", "A", "9a", "_a", "a_", "a__b", "a-b", "a::b"] {
            assert!(!is_snake_case(bad, false), "{bad}");
        }
        assert!(is_snake_case("serve::conn", true));
        for bad in [
            "serve::",
            "::serve",
            "serve:conn",
            "serve_::conn",
            "Serve::conn",
        ] {
            assert!(!is_snake_case(bad, true), "{bad}");
        }
        assert!(has_rendered_suffix("drain_count") && has_rendered_suffix("x_overflow"));
        assert!(!has_rendered_suffix("drain") && !has_rendered_suffix("count"));
    }
}
