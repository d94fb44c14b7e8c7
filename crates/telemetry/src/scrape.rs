//! Parsing the Prometheus-style text exposition back into structured
//! values, and rendering those as JSON.
//!
//! The scrape wire format (`Frame::Metrics` in `livephase-serve`) is
//! the text form [`Registry::render`](crate::Registry::render) emits.
//! External collectors and the bench/profile tooling should not have to
//! re-implement text parsing, so this module does it once: the CLI's
//! `metrics <addr> --json` scrapes the text form and converts it here.
//! Histogram series are folded back together (`_bucket`/`_sum`/
//! `_count`/`_overflow`), and quantile estimates are recomputed from
//! the cumulative buckets with the same nearest-rank rule
//! [`Histogram::quantile`](crate::Histogram::quantile) uses, so a
//! remote scrape answers the same questions an in-process handle would.

use std::fmt;

/// One parsed metric family.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapedFamily {
    /// Family name as registered (histograms keep their `_us` base
    /// name; the rendered `_bucket`/`_sum`/`_count`/`_overflow` series
    /// are folded into [`ScrapedValue::Histogram`]).
    pub name: String,
    /// `counter`, `gauge` or `histogram` (from the `# TYPE` header).
    pub kind: String,
    /// Help text (from the `# HELP` header), possibly empty.
    pub help: String,
    /// The family's series, in exposition order.
    pub series: Vec<ScrapedSeries>,
}

/// One labeled series within a family.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapedSeries {
    /// Sorted `(key, value)` label pairs (without the synthetic `le`).
    pub labels: Vec<(String, String)>,
    /// The series' value.
    pub value: ScrapedValue,
}

/// A parsed series value.
#[derive(Debug, Clone, PartialEq)]
pub enum ScrapedValue {
    /// A counter or gauge sample, kept as the exposition's literal
    /// token (always a valid JSON number for this renderer's output).
    Scalar(String),
    /// A histogram folded back from its rendered series.
    Histogram(ScrapedHistogram),
}

/// A histogram reassembled from `_bucket`/`_sum`/`_count`/`_overflow`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScrapedHistogram {
    /// `(upper bound, cumulative count)` per non-empty finite bucket,
    /// ascending. The `+Inf` bucket is folded into [`count`](Self::count).
    pub buckets: Vec<(u64, u64)>,
    /// Total observations (`_count`, equal to the `+Inf` bucket).
    pub count: u64,
    /// Sum of observations (`_sum`).
    pub sum: u64,
    /// Observations clamped into the top bucket (`_overflow`); nonzero
    /// means quantiles near the cap undercount the true tail.
    pub overflow: u64,
}

impl ScrapedHistogram {
    /// Nearest-rank quantile estimate from the cumulative buckets: the
    /// upper bound of the bucket holding the rank-`ceil(q * count)`
    /// observation, or `None` when empty. Matches the in-process
    /// estimator up to the exact-max clamp (the exposition does not
    /// carry the exact max).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        #[expect(
            clippy::cast_sign_loss,
            clippy::cast_possible_truncation,
            reason = "q * count lies in [0, count], clamped again below"
        )]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        self.buckets
            .iter()
            .find(|(_, cumulative)| *cumulative >= rank)
            .map(|(upper, _)| *upper)
            .or_else(|| self.buckets.last().map(|(upper, _)| *upper))
    }
}

/// A scrape line this parser could not digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapeParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScrapeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scrape line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScrapeParseError {}

fn err(line: usize, message: impl Into<String>) -> ScrapeParseError {
    ScrapeParseError {
        line,
        message: message.into(),
    }
}

/// Splits `name{k="v",...}` into the name and its label pairs,
/// honouring the renderer's `\\` / `\"` / `\n` escapes.
fn parse_series_key(
    token: &str,
    line: usize,
) -> Result<(String, Vec<(String, String)>), ScrapeParseError> {
    let Some(brace) = token.find('{') else {
        return Ok((token.to_owned(), Vec::new()));
    };
    let (name, label_part) = token.split_at(brace);
    let body = label_part
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| err(line, "unterminated label set"))?;
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find("=\"")
            .ok_or_else(|| err(line, "label without =\"value\""))?;
        let key = rest.get(..eq).unwrap_or_default().to_owned();
        let quoted = rest.get(eq + 2..).unwrap_or_default();
        let mut value = String::new();
        let mut chars = quoted.char_indices();
        let mut closed_at = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, e)) => value.push(e),
                    None => return Err(err(line, "dangling escape in label value")),
                },
                '"' => {
                    closed_at = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let close = closed_at.ok_or_else(|| err(line, "unterminated label value"))?;
        labels.push((key, value));
        rest = quoted.get(close + 1..).unwrap_or_default();
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    Ok((name.to_owned(), labels))
}

/// Maps a rendered series name back to its histogram family, returning
/// the base name and which component the line carries.
fn histogram_component(name: &str) -> Option<(&str, &'static str)> {
    for suffix in ["_bucket", "_sum", "_count", "_overflow"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return Some((base, suffix));
        }
    }
    None
}

/// Parses a full text exposition into structured families.
///
/// # Errors
///
/// Returns a [`ScrapeParseError`] naming the first line that does not
/// parse — a malformed label set, a non-numeric sample, or a histogram
/// series with no preceding `# TYPE` header.
pub fn parse_exposition(text: &str) -> Result<Vec<ScrapedFamily>, ScrapeParseError> {
    let mut families: Vec<ScrapedFamily> = Vec::new();
    let mut helps: Vec<(String, String)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
            helps.push((
                name.to_owned(),
                help.replace("\\n", "\n").replace("\\\\", "\\"),
            ));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| err(line_no, "# TYPE without a kind"))?;
            let help = helps
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.clone())
                .unwrap_or_default();
            families.push(ScrapedFamily {
                name: name.to_owned(),
                kind: kind.to_owned(),
                help,
                series: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal exposition noise
        }
        let (key, value_tok) = line
            .rsplit_once(' ')
            .ok_or_else(|| err(line_no, "series line without a value"))?;
        let (series_name, mut labels) = parse_series_key(key.trim_end(), line_no)?;
        let family = families
            .last_mut()
            .ok_or_else(|| err(line_no, "series before any # TYPE header"))?;
        if family.kind == "histogram" {
            let (base, component) = histogram_component(&series_name)
                .filter(|(base, _)| *base == family.name)
                .ok_or_else(|| {
                    err(
                        line_no,
                        format!(
                            "series `{series_name}` does not extend histogram `{}`",
                            family.name
                        ),
                    )
                })?;
            debug_assert_eq!(base, family.name);
            let le = if component == "_bucket" {
                let pos = labels
                    .iter()
                    .position(|(k, _)| k == "le")
                    .ok_or_else(|| err(line_no, "_bucket series without le label"))?;
                Some(labels.remove(pos).1)
            } else {
                None
            };
            if !family.series.iter().any(|s| s.labels == labels) {
                family.series.push(ScrapedSeries {
                    labels: labels.clone(),
                    value: ScrapedValue::Histogram(ScrapedHistogram::default()),
                });
            }
            let Some(ScrapedValue::Histogram(hist)) = family
                .series
                .iter_mut()
                .find(|s| s.labels == labels)
                .map(|s| &mut s.value)
            else {
                return Err(err(line_no, "histogram series previously seen as scalar"));
            };
            let n: u64 = value_tok
                .parse()
                .map_err(|e| err(line_no, format!("bad histogram sample {value_tok:?}: {e}")))?;
            match (component, le.as_deref()) {
                ("_bucket", Some("+Inf")) | ("_count", None) => hist.count = n,
                ("_bucket", Some(bound)) => {
                    let upper: u64 = bound
                        .parse()
                        .map_err(|e| err(line_no, format!("bad le bound {bound:?}: {e}")))?;
                    hist.buckets.push((upper, n));
                }
                ("_sum", None) => hist.sum = n,
                ("_overflow", None) => hist.overflow = n,
                _ => return Err(err(line_no, "histogram component with unexpected le")),
            }
        } else {
            if value_tok.parse::<f64>().is_err() {
                return Err(err(line_no, format!("non-numeric sample {value_tok:?}")));
            }
            family.series.push(ScrapedSeries {
                labels,
                value: ScrapedValue::Scalar(value_tok.to_owned()),
            });
        }
    }
    Ok(families)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn labels_json(labels: &[(String, String)]) -> String {
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

/// Renders parsed families as one JSON object:
/// `{"metrics":[{name, kind, help, series:[{labels, value} |
/// {labels, count, sum, overflow, p50, p90, p99}]}]}`.
#[must_use]
pub fn families_to_json(families: &[ScrapedFamily]) -> String {
    use fmt::Write as _;
    let mut out = String::from("{\"metrics\":[");
    for (fi, family) in families.iter().enumerate() {
        if fi > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"kind\":\"{}\",\"help\":\"{}\",\"series\":[",
            json_escape(&family.name),
            json_escape(&family.kind),
            json_escape(&family.help),
        );
        for (si, series) in family.series.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            match &series.value {
                ScrapedValue::Scalar(v) => {
                    let _ = write!(
                        out,
                        "{{\"labels\":{},\"value\":{v}}}",
                        labels_json(&series.labels)
                    );
                }
                ScrapedValue::Histogram(h) => {
                    let q = |p: f64| {
                        h.quantile(p)
                            .map_or_else(|| "null".to_owned(), |v| v.to_string())
                    };
                    let _ = write!(
                        out,
                        "{{\"labels\":{},\"count\":{},\"sum\":{},\"overflow\":{},\
                         \"p50\":{},\"p90\":{},\"p99\":{}}}",
                        labels_json(&series.labels),
                        h.count,
                        h.sum,
                        h.overflow,
                        q(0.5),
                        q(0.9),
                        q(0.99),
                    );
                }
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Parses a text exposition and renders it as JSON in one call — the
/// `livephase metrics <addr> --json` implementation.
///
/// # Errors
///
/// Propagates the first [`ScrapeParseError`].
pub fn exposition_to_json(text: &str) -> Result<String, ScrapeParseError> {
    Ok(families_to_json(&parse_exposition(text)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{Kind, Metric};
    use crate::{Counter, Gauge, Histogram, Registry};

    static CONNS: Metric<Counter> = Metric::fixture(
        "conns_total",
        Kind::Counter,
        &["shard"],
        "Connections served.",
    );
    static DEPTH: Metric<Gauge> = Metric::fixture("depth", Kind::Gauge, &[], "Queue depth.");
    static LAT: Metric<Histogram> =
        Metric::fixture("lat_us", Kind::Histogram, &["shard"], "Latency.");
    static QUOTED: Metric<Counter> =
        Metric::fixture("x_total", Kind::Counter, &["k"], "say \"hi\"");
    static Y: Metric<Histogram> = Metric::fixture("y_us", Kind::Histogram, &[], "");

    #[test]
    fn round_trips_a_real_registry_render() {
        let r = Registry::new();
        r.counter(&CONNS, &["0"]).add(7);
        r.gauge(&DEPTH, &[]).set(-2);
        let h = r.histogram(&LAT, &["0"]);
        for v in 1..=100u64 {
            h.record(v);
        }
        h.record_saturating(u128::MAX);
        let families = parse_exposition(&r.render()).expect("own render parses");
        assert_eq!(families.len(), 3);

        let conns = &families[0];
        assert_eq!(
            (conns.name.as_str(), conns.kind.as_str()),
            ("conns_total", "counter")
        );
        assert_eq!(conns.help, "Connections served.");
        assert_eq!(
            conns.series[0].labels,
            vec![("shard".to_owned(), "0".to_owned())]
        );
        assert_eq!(conns.series[0].value, ScrapedValue::Scalar("7".to_owned()));

        let depth = &families[1];
        assert_eq!(depth.series[0].value, ScrapedValue::Scalar("-2".to_owned()));

        let lat = &families[2];
        assert_eq!(lat.kind, "histogram");
        let ScrapedValue::Histogram(parsed) = &lat.series[0].value else {
            panic!("histogram series expected");
        };
        assert_eq!(parsed.count, 101);
        assert_eq!(parsed.overflow, 1);
        // The parsed quantile agrees with the in-process estimator up
        // to the exact-max clamp the exposition cannot carry.
        let p50 = parsed.quantile(0.5).unwrap();
        let live = h.quantile(0.5).unwrap();
        assert!(
            p50 >= live && p50 <= live + live / 32 + 1,
            "{p50} vs {live}"
        );
        assert_eq!(parsed.quantile(0.0), Some(1));
    }

    #[test]
    fn json_output_is_mechanical_and_escaped() {
        let r = Registry::new();
        r.counter(&QUOTED, &["a\"b"]).inc();
        r.histogram(&Y, &[]).record(5);
        let json = exposition_to_json(&r.render()).unwrap();
        assert!(json.starts_with("{\"metrics\":["));
        assert!(json.contains("\"name\":\"x_total\""));
        assert!(json.contains("\"help\":\"say \\\"hi\\\"\""));
        assert!(json.contains("\"k\":\"a\\\"b\""));
        assert!(json.contains("\"value\":1"));
        assert!(json.contains("\"name\":\"y_us\""));
        assert!(json.contains("\"count\":1,\"sum\":5,\"overflow\":0"));
        assert!(json.contains("\"p50\":5"));
        // Balanced brackets: a cheap structural sanity check the CLI
        // test repeats on live scrape output.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn empty_histogram_quantiles_are_null() {
        let r = Registry::new();
        let _ = r.histogram(&Y, &[]);
        let json = exposition_to_json(&r.render()).unwrap();
        assert!(json.contains("\"p50\":null"));
    }

    #[test]
    fn malformed_lines_are_named() {
        let e = parse_exposition("not a metric at all\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_exposition("# TYPE a_total counter\na_total banana\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("banana"));
        let e = parse_exposition("orphan_total 3\n").unwrap_err();
        assert!(e.message.contains("before any # TYPE"));
    }
}
