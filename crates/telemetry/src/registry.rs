//! The process-global metrics registry and the Prometheus-style text
//! exposition rendered from it.
//!
//! Instruments are created (or looked up) once through the registry and
//! held as `Arc` handles; every subsequent record is a lock-free atomic
//! operation on the handle. The registry lock is only taken on
//! instrument creation and on render, never on the hot path.

use crate::catalogue::{Metric, Spec};
use crate::histogram::Histogram;
use livephase_collections::BTreeMap;
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

enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The instrument types a [`Metric`] can declare, and how each is
/// stored as a [`Series`].
trait Instrument: Sized {
    fn create() -> Series;
    fn get(series: &Series) -> Option<Arc<Self>>;
}

impl Instrument for Counter {
    fn create() -> Series {
        Series::Counter(Arc::default())
    }

    fn get(series: &Series) -> Option<Arc<Self>> {
        match series {
            Series::Counter(c) => Some(Arc::clone(c)),
            _ => None,
        }
    }
}

impl Instrument for Gauge {
    fn create() -> Series {
        Series::Gauge(Arc::default())
    }

    fn get(series: &Series) -> Option<Arc<Self>> {
        match series {
            Series::Gauge(g) => Some(Arc::clone(g)),
            _ => None,
        }
    }
}

impl Instrument for Histogram {
    fn create() -> Series {
        Series::Histogram(Arc::default())
    }

    fn get(series: &Series) -> Option<Arc<Self>> {
        match series {
            Series::Histogram(h) => Some(Arc::clone(h)),
            _ => None,
        }
    }
}

struct Family {
    spec: &'static Spec,
    series: BTreeMap<Labels, Series>,
}

/// A collection of metric families, each a set of labeled series of
/// one [`catalogue`](crate::catalogue) entry.
///
/// Library code should use the process-global registry via
/// [`global`]; a fresh `Registry` exists for tests that need isolation.
#[derive(Default)]
pub struct Registry {
    families: RwLock<BTreeMap<&'static str, Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.read().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("Registry")
            .field("families", &families.len())
            .finish()
    }
}

/// Pairs the entry's label keys with the site's values, sorted by key.
fn series_labels(spec: &Spec, values: &[&str]) -> Labels {
    assert!(
        values.len() == spec.labels.len(),
        "metric {} takes the labels {:?}",
        spec.name,
        spec.labels
    );
    let mut out: Labels = spec
        .labels
        .iter()
        .zip(values)
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect();
    out.sort();
    out
}

/// The existing series `series` of `spec` as the instrument `I`.
#[expect(
    clippy::panic,
    reason = "unreachable through the catalogue: its names are unique and each entry's type \
              fixes its kind; only a test fixture reusing a catalogue name as another kind gets here"
)]
fn same_kind<I: Instrument>(spec: &Spec, series: &Series) -> Arc<I> {
    I::get(series)
        .unwrap_or_else(|| panic!("metric {} already registered as another kind", spec.name))
}

impl Registry {
    /// Creates an empty registry (mostly for tests; production code
    /// uses [`global`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn register<I: Instrument>(&self, metric: &'static Metric<I>, labels: &[&str]) -> Arc<I> {
        let spec: &'static Spec = metric;
        let labels = series_labels(spec, labels);
        // Fast path: series already exists.
        {
            // Poisoning cannot corrupt the map (writers only insert), so a
            // poisoned lock is recovered rather than propagated.
            let families = self.families.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(found) = families
                .get(spec.name)
                .and_then(|fam| fam.series.get(&labels))
            {
                return same_kind(spec, found);
            }
        }
        let mut families = self
            .families
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let family = families.entry(spec.name).or_insert_with(|| Family {
            spec,
            series: BTreeMap::new(),
        });
        same_kind(spec, family.series.entry(labels).or_insert_with(I::create))
    }

    /// Returns (creating on first use) the series of the counter
    /// `metric` with the label values `labels`, given in the order of
    /// the entry's label keys.
    ///
    /// # Panics
    ///
    /// Panics if `labels` does not give one value per label key.
    pub fn counter(&self, metric: &'static Metric<Counter>, labels: &[&str]) -> Arc<Counter> {
        self.register(metric, labels)
    }

    /// Returns (creating on first use) the series of the gauge `metric`
    /// with the label values `labels`, as for [`Registry::counter`].
    ///
    /// # Panics
    ///
    /// Panics if `labels` does not give one value per label key.
    pub fn gauge(&self, metric: &'static Metric<Gauge>, labels: &[&str]) -> Arc<Gauge> {
        self.register(metric, labels)
    }

    /// Returns (creating on first use) the series of the histogram
    /// `metric` with the label values `labels`, as for
    /// [`Registry::counter`].
    ///
    /// # Panics
    ///
    /// Panics if `labels` does not give one value per label key.
    pub fn histogram(&self, metric: &'static Metric<Histogram>, labels: &[&str]) -> Arc<Histogram> {
        self.register(metric, labels)
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
            if !family.spec.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(family.spec.help));
            }
            let _ = writeln!(out, "# TYPE {name} {}", family.spec.kind.as_str());
            for (labels, ins) in &family.series {
                match ins {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels, &[]), c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels, &[]), g.get());
                    }
                    Series::Histogram(h) => {
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
                if let Series::Histogram(h) = ins {
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
    use crate::catalogue::{self as cat, Kind};

    static REQUESTS: Metric<Counter> =
        Metric::fixture("requests_total", Kind::Counter, &[], "Requests served.");
    static DEPTH: Metric<Gauge> =
        Metric::fixture("queue_depth", Kind::Gauge, &["shard"], "Messages waiting.");
    static PAIR: Metric<Counter> = Metric::fixture("x_total", Kind::Counter, &["b", "a"], "");
    static CLASH: Metric<Gauge> = Metric::fixture("requests_total", Kind::Gauge, &[], "");
    static BEES: Metric<Counter> = Metric::fixture("b_total", Kind::Counter, &["hive"], "Bees.");
    static A_DEPTH: Metric<Gauge> = Metric::fixture("a_depth", Kind::Gauge, &[], "Depth.");
    static LAT: Metric<Histogram> = Metric::fixture("lat_us", Kind::Histogram, &[], "Latency.");
    static A_US: Metric<Histogram> = Metric::fixture("a_us", Kind::Histogram, &["shard"], "");
    static B_US: Metric<Histogram> = Metric::fixture("b_us", Kind::Histogram, &[], "");

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter(&REQUESTS, &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Second lookup returns the same underlying series.
        let c2 = r.counter(&REQUESTS, &[]);
        c2.inc();
        assert_eq!(c.get(), 6);

        let g = r.gauge(&DEPTH, &["0"]);
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn label_values_pair_with_the_declared_keys_in_order() {
        let r = Registry::new();
        r.counter(&PAIR, &["2", "1"]).inc();
        r.counter(&PAIR, &["1", "2"]).inc();
        assert_eq!(
            r.render(),
            "# TYPE x_total counter\nx_total{a=\"1\",b=\"2\"} 1\nx_total{a=\"2\",b=\"1\"} 1\n"
        );
    }

    #[test]
    #[should_panic(expected = "takes the labels")]
    fn a_missing_label_value_panics() {
        let _ = Registry::new().gauge(&DEPTH, &[]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter(&REQUESTS, &[]);
        let _ = r.gauge(&CLASH, &[]);
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let r = Registry::new();
        r.counter(&BEES, &["7"]).add(3);
        r.gauge(&A_DEPTH, &[]).set(-2);
        let h = r.histogram(&LAT, &[]);
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
        r.counter(&REQUESTS, &[]).inc();
        r.histogram(&B_US, &[]).record(9);
        r.histogram(&A_US, &["1"]).record(4);
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
        let c = global().counter(&cat::GOVERNOR_PARMAP_JOBS_TOTAL, &[]);
        c.inc();
        let before = c.get();
        global()
            .counter(&cat::GOVERNOR_PARMAP_JOBS_TOTAL, &[])
            .inc();
        assert_eq!(c.get(), before + 1);
    }
}
