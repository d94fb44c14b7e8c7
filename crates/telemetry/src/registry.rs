//! The process-global metrics registry and the Prometheus-style text
//! exposition rendered from it.
//!
//! Instruments are created (or looked up) once through the registry and
//! held as `Arc` handles; every subsequent record is a lock-free atomic
//! operation on the handle. The registry lock is only taken on
//! instrument creation and on render, never on the hot path.

use crate::histogram::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// A monotonically increasing counter. Hot path: one relaxed atomic add.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value. Hot path: one relaxed atomic op.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Label set: sorted `(key, value)` pairs, part of a series' identity.
type Labels = Vec<(String, String)>;

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    help: String,
    series: BTreeMap<Labels, Instrument>,
}

/// A collection of named metric families, each a set of labeled series.
///
/// Library code should use the process-global registry via
/// [`global`]; a fresh `Registry` exists for tests that need isolation.
#[derive(Default)]
pub struct Registry {
    families: RwLock<BTreeMap<String, Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.read().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("Registry")
            .field("families", &families.len())
            .finish()
    }
}

// `starts_with`, not `chars().next()`: the linter's call graph resolves
// `.next()` by name to every workspace iterator, a false panic chain from
// each hot path that registers a metric lazily.
fn valid_name(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn normalize_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|(k, v)| {
            assert!(valid_name(k), "invalid label name {k:?}");
            ((*k).to_owned(), (*v).to_owned())
        })
        .collect();
    out.sort();
    out
}

/// The existing series `ins` of `name` as the kind `get` wants.
fn same_kind(
    name: &str,
    ins: &Instrument,
    get: impl Fn(&Instrument) -> Option<Instrument>,
) -> Instrument {
    get(ins).unwrap_or_else(|| {
        // lint:allow(panic-reachable): documented registration-time contract —
        // re-registering a name as a different kind is a programming error; the
        // hot paths register their static names once, before serving a sample.
        panic!("metric {name} already registered as a {}", ins.kind())
    })
}

impl Registry {
    /// Creates an empty registry (mostly for tests; production code
    /// uses [`global`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn instrument(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
        get: impl Fn(&Instrument) -> Option<Instrument>,
    ) -> Instrument {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let labels = normalize_labels(labels);
        // Fast path: series already exists.
        {
            // Poisoning cannot corrupt the map (writers only insert), so a
            // poisoned lock is recovered rather than propagated.
            let families = self.families.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(found) = families
                .get(name)
                .and_then(|fam| fam.series.get(&labels))
                .map(|ins| same_kind(name, ins, &get))
            {
                return found;
            }
        }
        let mut families = self
            .families
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let family = families.entry(name.to_owned()).or_insert_with(|| Family {
            help: help.to_owned(),
            series: BTreeMap::new(),
        });
        let ins = family.series.entry(labels).or_insert_with(make);
        same_kind(name, ins, &get)
    }

    /// Returns (creating on first use) the counter series `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid metric name or is already
    /// registered as a different instrument kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.instrument(
            name,
            help,
            labels,
            || Instrument::Counter(Arc::new(Counter::default())),
            |ins| match ins {
                Instrument::Counter(c) => Some(Instrument::Counter(Arc::clone(c))),
                _ => None,
            },
        ) {
            Instrument::Counter(c) => c,
            _ => unreachable!("getter only returns counters"),
        }
    }

    /// Returns (creating on first use) the gauge series `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid metric name or is already
    /// registered as a different instrument kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.instrument(
            name,
            help,
            labels,
            || Instrument::Gauge(Arc::new(Gauge::default())),
            |ins| match ins {
                Instrument::Gauge(g) => Some(Instrument::Gauge(Arc::clone(g))),
                _ => None,
            },
        ) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("getter only returns gauges"),
        }
    }

    /// Returns (creating on first use) the histogram series
    /// `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid metric name or is already
    /// registered as a different instrument kind.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.instrument(
            name,
            help,
            labels,
            || Instrument::Histogram(Arc::new(Histogram::new())),
            |ins| match ins {
                Instrument::Histogram(h) => Some(Instrument::Histogram(Arc::clone(h))),
                _ => None,
            },
        ) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("getter only returns histograms"),
        }
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format (`# HELP` / `# TYPE` headers, one line per series;
    /// histograms as cumulative `_bucket{le=...}` lines over non-empty
    /// buckets plus `+Inf`, `_sum` and `_count`). Families and series
    /// render in lexicographic order, so output is deterministic for a
    /// given registry state.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let families = self.families.read().unwrap_or_else(PoisonError::into_inner);
        for (name, family) in families.iter() {
            let kind = family
                .series
                .first_key_value()
                .map_or("counter", |(_, ins)| ins.kind());
            if !family.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            }
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, ins) in &family.series {
                match ins {
                    Instrument::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels, &[]), c.get());
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels, &[]), g.get());
                    }
                    Instrument::Histogram(h) => {
                        let mut cumulative = 0u64;
                        h.for_each_nonempty(|upper, n| {
                            cumulative += n;
                            let le = upper.to_string();
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                render_labels(labels, &[("le", &le)]),
                            );
                        });
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            render_labels(labels, &[("le", "+Inf")]),
                            h.count(),
                        );
                        let _ =
                            writeln!(out, "{name}_sum{} {}", render_labels(labels, &[]), h.sum());
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            render_labels(labels, &[]),
                            h.count(),
                        );
                        // Saturation cell: observations clamped into the
                        // top bucket. Always rendered (not just when
                        // nonzero) so collectors and the ci.sh greps see
                        // a stable series and a zero reads as "quantiles
                        // near the cap are trustworthy".
                        let _ = writeln!(
                            out,
                            "{name}_overflow{} {}",
                            render_labels(labels, &[]),
                            h.overflow(),
                        );
                    }
                }
            }
        }
        out
    }

    /// Visits every histogram series as `(family name, labels,
    /// histogram)`, in the same lexicographic order `render` uses. This
    /// is the machine-facing counterpart of the text exposition — the
    /// bench profiler renders its hot-path table from it without
    /// parsing text.
    pub fn visit_histograms(&self, mut f: impl FnMut(&str, &[(String, String)], &Histogram)) {
        let families = self.families.read().unwrap_or_else(PoisonError::into_inner);
        for (name, family) in families.iter() {
            for (labels, ins) in &family.series {
                if let Instrument::Histogram(h) = ins {
                    f(name, labels, h);
                }
            }
        }
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders `{k="v",...}` from the series labels plus `extra` pairs
/// (used for `le`); empty when there are no labels at all.
fn render_labels(labels: &Labels, extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))),
    );
    format!("{{{}}}", parts.join(","))
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry all instrumented crates share. Created
/// on first use; never torn down.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("requests_total", "Requests served.", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Second lookup returns the same underlying series.
        let c2 = r.counter("requests_total", "Requests served.", &[]);
        c2.inc();
        assert_eq!(c.get(), 6);

        let g = r.gauge("queue_depth", "Messages waiting.", &[("shard", "0")]);
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = Registry::new();
        let a = r.counter("x_total", "", &[("a", "1"), ("b", "2")]);
        let b = r.counter("x_total", "", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("m", "", &[]);
        let _ = r.gauge("m", "", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        let _ = Registry::new().counter("9starts-with-digit", "", &[]);
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let r = Registry::new();
        r.counter("b_total", "Bees.", &[("hive", "7")]).add(3);
        r.gauge("a_depth", "Depth.", &[]).set(-2);
        let h = r.histogram("lat_us", "Latency.", &[]);
        h.record(1);
        h.record(100);
        let text = r.render();
        let again = r.render();
        assert_eq!(text, again, "render is deterministic");
        assert!(text.contains("# TYPE a_depth gauge"));
        assert!(text.contains("a_depth -2\n"));
        assert!(text.contains("# HELP b_total Bees.\n"));
        assert!(text.contains("b_total{hive=\"7\"} 3\n"));
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_us_sum 101\n"));
        assert!(text.contains("lat_us_count 2\n"));
        assert!(
            text.contains("lat_us_overflow 0\n"),
            "the saturation cell renders even when zero"
        );
        h.record_saturating(u128::MAX);
        assert!(r.render().contains("lat_us_overflow 1\n"));
        // Families render sorted: a_depth before b_total before lat_us.
        let a = text.find("a_depth").unwrap();
        let b = text.find("b_total").unwrap();
        let l = text.find("lat_us").unwrap();
        assert!(a < b && b < l);
    }

    #[test]
    fn visit_histograms_sees_every_series_in_render_order() {
        let r = Registry::new();
        r.counter("skip_total", "", &[]).inc();
        r.histogram("b_us", "", &[]).record(9);
        r.histogram("a_us", "", &[("shard", "1")]).record(4);
        let mut seen = Vec::new();
        r.visit_histograms(|name, labels, h| {
            seen.push((name.to_owned(), labels.to_vec(), h.count()));
        });
        assert_eq!(seen.len(), 2, "counters are not visited");
        assert_eq!(seen[0].0, "a_us");
        assert_eq!(seen[0].1, vec![("shard".to_owned(), "1".to_owned())]);
        assert_eq!(seen[1], ("b_us".to_owned(), Vec::new(), 1));
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let c = global().counter("telemetry_selftest_total", "", &[]);
        c.inc();
        let before = c.get();
        global().counter("telemetry_selftest_total", "", &[]).inc();
        assert_eq!(c.get(), before + 1);
    }
}
