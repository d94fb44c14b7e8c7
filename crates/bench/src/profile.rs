//! `--profile`: turn the `timed_span!` telemetry into a hot-path report.
//!
//! Every `timed_span!` block in the workspace feeds the
//! `span_elapsed_us` histogram family unconditionally, so after a bench
//! run the global registry already holds a per-span cost breakdown.
//! This module walks every histogram in a registry (spans and latency
//! series alike) and renders an aligned table sorted by total time —
//! the first place to look when a gate finding says "slower" but not
//! "where".

use livephase_telemetry::Registry;

/// One histogram series, flattened for display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Metric name plus rendered labels, e.g.
    /// `span_elapsed_us{span="drain",target="serve::conn"}`.
    pub series: String,
    /// Recorded observations.
    pub count: u64,
    /// Sum of recorded values (the histogram's native unit).
    pub total: u64,
    /// Median observation.
    pub p50: u64,
    /// 99th-percentile observation.
    pub p99: u64,
    /// Values that exceeded the recordable range.
    pub overflow: u64,
}

/// Collects every non-empty histogram series in `registry`, sorted by
/// descending total (ties break on the series name, so output is
/// deterministic).
#[must_use]
pub fn collect(registry: &Registry) -> Vec<ProfileRow> {
    let mut rows = Vec::new();
    registry.visit_histograms(|name, labels, h| {
        let count = h.count();
        if count == 0 {
            return;
        }
        let series = if labels.is_empty() {
            name.to_owned()
        } else {
            let rendered: Vec<String> =
                labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            format!("{name}{{{}}}", rendered.join(","))
        };
        rows.push(ProfileRow {
            series,
            count,
            total: h.sum(),
            p50: h.quantile(0.50).unwrap_or(0),
            p99: h.quantile(0.99).unwrap_or(0),
            overflow: h.overflow(),
        });
    });
    rows.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.series.cmp(&b.series)));
    rows
}

/// Renders rows as an aligned text table.
#[must_use]
pub fn render(rows: &[ProfileRow]) -> String {
    if rows.is_empty() {
        return "no histogram series recorded; nothing to profile\n".to_owned();
    }
    let series_w = rows
        .iter()
        .map(|r| r.series.len())
        .chain(std::iter::once("series".len()))
        .max()
        .unwrap_or(6);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<series_w$}  {:>10}  {:>14}  {:>10}  {:>10}  {:>8}\n",
        "series", "count", "total", "p50", "p99", "overflow"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<series_w$}  {:>10}  {:>14}  {:>10}  {:>10}  {:>8}\n",
            r.series, r.count, r.total, r.p50, r.p99, r.overflow
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use livephase_telemetry::catalogue::{
        GOVERNOR_DECISION_US, SERVE_FRAME_DECODE_US, SERVE_FRAME_ENCODE_US, SPAN_ELAPSED_US,
    };

    #[test]
    fn collect_skips_empty_series_and_sorts_by_total() {
        let r = Registry::new();
        r.histogram(&SERVE_FRAME_DECODE_US, &["0"]); // empty → skipped
        r.histogram(&GOVERNOR_DECISION_US, &[]).record_n(10, 3);
        let big = r.histogram(&SPAN_ELAPSED_US, &["t", "hot"]);
        big.record(1000);
        let rows = collect(&r);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].series, "span_elapsed_us{span=\"hot\",target=\"t\"}");
        assert_eq!(rows[0].total, 1000);
        assert_eq!(rows[1].series, "governor_decision_us");
        assert_eq!(rows[1].count, 3);
    }

    #[test]
    fn render_aligns_and_handles_empty() {
        assert!(render(&[]).contains("nothing to profile"));
        let r = Registry::new();
        r.histogram(&SERVE_FRAME_ENCODE_US, &[]).record(7);
        let text = render(&collect(&r));
        let mut lines = text.lines();
        assert!(lines.next().unwrap().starts_with("series"));
        assert!(lines.next().unwrap().starts_with("serve_frame_encode_us"));
    }

    #[test]
    fn overflow_shows_up_in_the_row() {
        let r = Registry::new();
        let h = r.histogram(&GOVERNOR_DECISION_US, &[]);
        h.record_saturating(u128::from(u64::MAX) + 1);
        let rows = collect(&r);
        assert_eq!(rows[0].overflow, 1);
    }
}
