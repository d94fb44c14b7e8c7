//! Structured, leveled event tracing with a bounded in-memory ring
//! buffer and pluggable stdout sinks.
//!
//! Events below the configured level are filtered by one relaxed atomic
//! load before any field is formatted. Accepted events go two places:
//! the active sink (human-readable lines or JSON-lines, for operators
//! and `ci.sh`; the default [`Sink::Null`] keeps library users silent),
//! and a fixed-capacity ring buffer the process can interrogate after
//! the fact. The ring is claimed by an atomic cursor and written under
//! per-slot `try_lock`s, so a slow reader can never block an emitter —
//! under contention an event is counted as dropped instead.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, ordered from most to least verbose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Fine-grained diagnostic detail.
    Trace = 0,
    /// Debug-level detail.
    Debug = 1,
    /// Normal operational messages.
    Info = 2,
    /// Something surprising but survivable.
    Warn = 3,
    /// A failure the process observed.
    Error = 4,
}

impl Level {
    /// The fixed uppercase name (`TRACE` .. `ERROR`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "TRACE",
            Level::Debug => "DEBUG",
            Level::Info => "INFO",
            Level::Warn => "WARN",
            Level::Error => "ERROR",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => Level::Trace,
            1 => Level::Debug,
            2 => Level::Info,
            3 => Level::Warn,
            _ => Level::Error,
        }
    }
}

/// Where accepted events are written, besides the ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Sink {
    /// Ring buffer only; nothing is printed. The library default.
    Null = 0,
    /// One human-readable line per event on stdout.
    Human = 1,
    /// One JSON object per line on stdout, for mechanical consumers.
    Json = 2,
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Milliseconds since the Unix epoch when the event was emitted.
    pub unix_ms: u64,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem (e.g. `serve::server`).
    pub target: &'static str,
    /// The human-readable message.
    pub message: String,
    /// Structured `(key, value)` fields.
    pub fields: Vec<(&'static str, String)>,
}

impl Event {
    /// Renders the event as a single human-readable line.
    #[must_use]
    pub fn to_human(&self) -> String {
        use std::fmt::Write as _;
        let mut line = format!(
            "[{:>5}] {} {}",
            self.level.as_str(),
            self.target,
            self.message
        );
        for (k, v) in &self.fields {
            let _ = write!(line, " {k}={v}");
        }
        line
    }

    /// Renders the event as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut line = format!(
            "{{\"ts_ms\":{},\"level\":\"{}\",\"target\":\"{}\",\"message\":\"{}\"",
            self.unix_ms,
            self.level.as_str(),
            json_escape(self.target),
            json_escape(&self.message),
        );
        for (k, v) in &self.fields {
            let _ = write!(line, ",\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        line.push('}');
        line
    }
}

/// Escapes `s` for use inside a JSON string literal: quotes,
/// backslashes and control characters. The one escaper behind
/// `--log-json`, `metrics --json` and the `BENCH_*.json` records.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Number of events the ring buffer retains.
pub const RING_CAPACITY: usize = 1024;

/// The process-global tracer: level filter, sink selection, ring buffer.
pub struct Tracer {
    level: AtomicU8,
    sink: AtomicU8,
    cursor: AtomicU64,
    dropped: AtomicU64,
    ring: Vec<Mutex<Option<(u64, Event)>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("level", &self.level())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Tracer {
    fn new() -> Self {
        Self {
            level: AtomicU8::new(Level::Info as u8),
            sink: AtomicU8::new(Sink::Null as u8),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ring: (0..RING_CAPACITY).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The minimum level currently accepted.
    #[must_use]
    pub fn level(&self) -> Level {
        Level::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Sets the minimum accepted level.
    pub fn set_level(&self, level: Level) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// Selects where accepted events are printed.
    pub fn set_sink(&self, sink: Sink) {
        self.sink.store(sink as u8, Ordering::Relaxed);
    }

    /// Whether an event at `level` would currently be accepted. This is
    /// the only check the macros make before formatting fields, so a
    /// filtered event costs one atomic load.
    #[inline]
    #[must_use]
    pub fn enabled(&self, level: Level) -> bool {
        level as u8 >= self.level.load(Ordering::Relaxed)
    }

    /// Events lost to ring-slot contention since process start.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Emits a fully-formed event: prints it to the active sink and
    /// stores it in the ring buffer. Never blocks on the ring — a
    /// contended slot increments the dropped counter instead.
    pub fn emit(&self, event: Event) {
        if !self.enabled(event.level) {
            return;
        }
        match self.sink.load(Ordering::Relaxed) {
            s if s == Sink::Human as u8 => println!("{}", event.to_human()),
            s if s == Sink::Json as u8 => println!("{}", event.to_json()),
            _ => {}
        }
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = usize::try_from(seq).unwrap_or(usize::MAX) % RING_CAPACITY;
        #[expect(
            clippy::indexing_slicing,
            reason = "slot < RING_CAPACITY = ring.len() by the modulo"
        )]
        let slot = &self.ring[slot];
        match slot.try_lock() {
            Ok(mut guard) => *guard = Some((seq, event)),
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The most recent `n` retained events, oldest first. Slots being
    /// concurrently written are skipped rather than waited on.
    #[must_use]
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let mut entries: Vec<(u64, Event)> = self
            .ring
            .iter()
            .filter_map(|slot| slot.try_lock().ok().and_then(|guard| guard.clone()))
            .collect();
        entries.sort_by_key(|(seq, _)| *seq);
        let skip = entries.len().saturating_sub(n);
        entries.into_iter().skip(skip).map(|(_, e)| e).collect()
    }
}

static TRACER: std::sync::OnceLock<Tracer> = std::sync::OnceLock::new();

/// The process-global tracer the macros emit through.
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(Tracer::new)
}

/// Milliseconds since the Unix epoch, saturating at zero on clock skew.
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "timestamps for trace events and bench records, never for a decision"
)]
pub fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Emits one structured event through the global tracer.
///
/// ```
/// use livephase_telemetry::{trace_event, Level};
/// trace_event!(Level::Info, "serve::server", "listening", addr = "127.0.0.1:9");
/// ```
///
/// Field values are formatted with `Display` only when the level is
/// enabled; a filtered call costs a single atomic load.
#[macro_export]
macro_rules! trace_event {
    ($level:expr, $target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        let tracer = $crate::tracer();
        if tracer.enabled($level) {
            tracer.emit($crate::Event {
                unix_ms: $crate::now_unix_ms(),
                level: $level,
                target: $target,
                message: ::std::string::String::from($msg),
                fields: ::std::vec![
                    $((stringify!($key), ::std::format!("{}", $value)),)*
                ],
            });
        }
    }};
}

/// Records one completed [`timed_span!`](crate::timed_span) duration into the
/// process-global `span_elapsed_us` histogram, labeled by the span's
/// target and name. This is what turns spans into a profile: the bench
/// `--profile` report renders per-span count/total/p50/p99 straight
/// from the histogram registry, with no dependence on the tracer's
/// level filter (span histograms record even when `Debug` events are
/// filtered, so a profile never comes back empty).
pub fn record_span(target: &'static str, name: &'static str, elapsed: std::time::Duration) {
    crate::registry::global()
        .histogram(&crate::catalogue::SPAN_ELAPSED_US, &[target, name])
        .record_saturating(elapsed.as_micros());
}

/// Whether a [`timed_span!`] target is a snake_case `::` path and its
/// name a snake_case word that no rendered-series suffix ends. The
/// macro asserts this in a `const`, so a bad literal fails to compile.
#[doc(hidden)]
#[must_use]
pub const fn valid_span(target: &str, name: &str) -> bool {
    crate::catalogue::is_snake_case(target, true)
        && crate::catalogue::is_snake_case(name, false)
        && !crate::catalogue::has_rendered_suffix(name)
}

/// Runs a block, records its wall-clock duration into the
/// `span_elapsed_us{target,span}` histogram (see [`record_span`]), and
/// emits a `Debug` event carrying the duration in microseconds as the
/// `elapsed_us` field. Evaluates to the block's value.
///
/// The target and name are string literals. The target is a snake_case
/// `::` path and the name a snake_case word not ending in a
/// rendered-series suffix (`_count`, ...): anything else is a compile
/// error, since both become labels of `span_elapsed_us`.
///
/// ```compile_fail
/// use livephase_telemetry::timed_span;
/// let n = timed_span!("doc::example", "drain_count", { 1 });
/// ```
///
/// ```
/// use livephase_telemetry::timed_span;
/// let sum: u64 = timed_span!("doc::example", "sum", { (1..=10u64).sum() });
/// assert_eq!(sum, 55);
/// ```
#[macro_export]
macro_rules! timed_span {
    ($target:literal, $name:literal, $body:block) => {{
        const _: () = assert!(
            $crate::trace::valid_span($target, $name),
            concat!(
                "timed_span!(",
                stringify!($target),
                ", ",
                stringify!($name),
                "): the target must be a snake_case `::` path and the name snake_case, \
                 not ending in _bucket, _sum, _count or _overflow"
            )
        );
        let started = ::std::time::Instant::now();
        let value = $body;
        let elapsed = started.elapsed();
        $crate::record_span($target, $name, elapsed);
        $crate::trace_event!(
            $crate::Level::Debug,
            $target,
            $name,
            elapsed_us = elapsed.as_micros()
        );
        value
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_filter() {
        assert!(Level::Trace < Level::Debug);
        assert!(Level::Warn < Level::Error);
        let t = Tracer::new();
        t.set_level(Level::Warn);
        assert!(!t.enabled(Level::Info));
        assert!(t.enabled(Level::Warn));
        assert!(t.enabled(Level::Error));
    }

    #[test]
    fn ring_retains_recent_events_in_order() {
        let t = Tracer::new();
        t.set_level(Level::Trace);
        for i in 0..(RING_CAPACITY + 10) {
            t.emit(Event {
                unix_ms: 0,
                level: Level::Info,
                target: "test",
                message: format!("event {i}"),
                fields: Vec::new(),
            });
        }
        let recent = t.recent(5);
        assert_eq!(recent.len(), 5);
        let last = RING_CAPACITY + 9;
        for (k, e) in recent.iter().enumerate() {
            assert_eq!(e.message, format!("event {}", last - 4 + k));
        }
        assert_eq!(t.dropped(), 0, "single-threaded emit never contends");
    }

    #[test]
    fn filtered_events_do_not_reach_the_ring() {
        let t = Tracer::new();
        t.set_level(Level::Error);
        t.emit(Event {
            unix_ms: 0,
            level: Level::Info,
            target: "test",
            message: "dropped".into(),
            fields: Vec::new(),
        });
        assert!(t.recent(10).is_empty());
    }

    #[test]
    fn human_and_json_renderings_are_stable() {
        let e = Event {
            unix_ms: 1_700_000_000_123,
            level: Level::Warn,
            target: "serve::server",
            message: "conn \"x\"\nclosed".to_owned(),
            fields: vec![("conn", "42".to_owned()), ("why", "idle".to_owned())],
        };
        assert_eq!(
            e.to_human(),
            "[ WARN] serve::server conn \"x\"\nclosed conn=42 why=idle"
        );
        assert_eq!(
            e.to_json(),
            "{\"ts_ms\":1700000000123,\"level\":\"WARN\",\"target\":\"serve::server\",\
             \"message\":\"conn \\\"x\\\"\\nclosed\",\"conn\":\"42\",\"why\":\"idle\"}"
        );
    }

    #[test]
    fn macros_compile_and_emit() {
        tracer().set_level(Level::Trace);
        trace_event!(
            Level::Info,
            "telemetry::test",
            "macro event",
            k = 7,
            s = "x"
        );
        let v = timed_span!("telemetry::test", "span", { 21 * 2 });
        assert_eq!(v, 42);
        let recent = tracer().recent(RING_CAPACITY);
        assert!(recent
            .iter()
            .any(|e| e.message == "macro event" && e.fields.contains(&("k", "7".to_owned()))));
        assert!(recent
            .iter()
            .any(|e| e.message == "span" && e.fields.iter().any(|(k, _)| *k == "elapsed_us")));
        tracer().set_level(Level::Info);
    }

    #[test]
    fn timed_span_feeds_the_span_histogram_regardless_of_level() {
        tracer().set_level(Level::Error); // Debug events filtered
        let before = span_count("telemetry::test", "histo_span");
        let v = timed_span!("telemetry::test", "histo_span", { 6 * 7 });
        assert_eq!(v, 42);
        assert_eq!(
            span_count("telemetry::test", "histo_span"),
            before + 1,
            "span histograms record even when the tracer filters the event"
        );
        tracer().set_level(Level::Info);
    }

    fn span_count(target: &str, name: &str) -> u64 {
        let mut count = 0;
        crate::registry::global().visit_histograms(|metric, labels, h| {
            if metric == "span_elapsed_us"
                && labels.iter().any(|(k, v)| k == "target" && v == target)
                && labels.iter().any(|(k, v)| k == "span" && v == name)
            {
                count = h.count();
            }
        });
        count
    }

    #[test]
    fn emit_under_concurrency_never_blocks_or_panics() {
        let t = std::sync::Arc::new(Tracer::new());
        t.set_level(Level::Trace);
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        t.emit(Event {
                            unix_ms: 0,
                            level: Level::Info,
                            target: "test",
                            message: format!("w{w} e{i}"),
                            fields: Vec::new(),
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Everything emitted was either retained, overwritten, or
        // counted as dropped; the ring never holds more than capacity.
        assert!(t.recent(usize::MAX).len() <= RING_CAPACITY);
    }
}
