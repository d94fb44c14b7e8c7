//! The traced run's span recorder. Spans live in memory and are written
//! out once, when the benchmark ends.
//!
//! Two kinds of span, both recorded by the benchmark around its own
//! calls into a layer's public functions:
//!
//! - *coarse* spans (a unit of work, an artifact, a tenant re-drive)
//!   are kept one by one with their start, end and parent;
//! - *call* spans (one `run_to_pmi`, one `step`, one frame encode) run
//!   millions of times, so each is folded into a per-name count and
//!   total under the coarse span that was open when the name was
//!   registered.
//!
//! A span's self time is its duration minus what its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle to a registered call-span name.
#[derive(Debug, Clone, Copy)]
pub struct CallKey(usize);

#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Calls {
    name: &'static str,
    parent: Option<usize>,
    count: u64,
    /// Clock-read pairs taken: one per `call`, one per `add`.
    timings: u64,
    total_ns: u64,
}

/// In-memory recorder; a disabled tracer only forwards calls.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    calls: Vec<Calls>,
    /// What an empty call span records, subtracted from per-call
    /// figures so they report the layer, not the tracer.
    empty_ns: f64,
}

impl Tracer {
    /// A recorder; when `enabled` it calibrates its own per-call cost.
    pub fn new(enabled: bool) -> Self {
        let mut t = Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            calls: Vec::new(),
            empty_ns: 0.0,
        };
        if enabled {
            t.empty_ns = calibrate_empty_span();
        }
        t
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a coarse span under the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost coarse span and returns its duration in
    /// seconds (0 when disabled).
    pub fn end(&mut self) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let i = self.open.pop().expect("end() matches a begin()");
        let end_ns = self.now_ns();
        let span = &mut self.spans[i];
        span.end_ns = end_ns;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Registers a call-span name under the innermost open coarse span.
    pub fn key(&mut self, name: &'static str) -> CallKey {
        self.calls.push(Calls {
            name,
            parent: self.open.last().copied(),
            count: 0,
            timings: 0,
            total_ns: 0,
        });
        CallKey(self.calls.len() - 1)
    }

    /// Runs `f`, folding its duration into `key`'s tally when enabled.
    #[inline]
    pub fn call<R>(&mut self, key: CallKey, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let started = Instant::now();
        let r = f();
        let ns = started.elapsed().as_nanos() as u64;
        let c = &mut self.calls[key.0];
        c.count += 1;
        c.timings += 1;
        c.total_ns += ns;
        r
    }

    /// Folds `count` calls that together took `ns` into `key`'s tally,
    /// for a loop timed as a whole (e.g. one decode pass over a read).
    pub fn add(&mut self, key: CallKey, ns: u64, count: u64) {
        if self.enabled {
            let c = &mut self.calls[key.0];
            c.count += count;
            c.timings += 1;
            c.total_ns += ns;
        }
    }

    /// Calls recorded under `key`.
    pub fn count(&self, key: CallKey) -> u64 {
        self.calls[key.0].count
    }

    /// Mean nanoseconds per call under `key`, net of the tracer's own
    /// per-call cost.
    pub fn ns_per_call(&self, key: CallKey) -> f64 {
        let c = &self.calls[key.0];
        if c.count == 0 {
            return 0.0;
        }
        ((c.total_ns as f64 - c.timings as f64 * self.empty_ns) / c.count as f64).max(0.0)
    }

    /// Total seconds under `key`, net of the tracer's own per-call cost.
    pub fn seconds(&self, key: CallKey) -> f64 {
        self.ns_per_call(key) * self.calls[key.0].count as f64 / 1e9
    }

    /// Closed coarse spans whose name starts with `prefix`, with their
    /// durations in seconds, in the order they opened.
    pub fn coarse(&self, prefix: &str) -> Vec<(String, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| (s.name.clone(), (s.end_ns - s.start_ns) as f64 / 1e9))
            .collect()
    }

    /// Writes every span and call tally as JSON to `path`.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{{header},\"empty_call_ns\":{},\"spans\":[",
            self.empty_ns
        );
        for (i, s) in self.spans.iter().enumerate() {
            let child_ns: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.end_ns - c.start_ns)
                .chain(
                    self.calls
                        .iter()
                        .filter(|c| c.parent == Some(i))
                        .map(|c| c.total_ns),
                )
                .sum();
            let dur = s.end_ns - s.start_ns;
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":{:?},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns)
            );
        }
        out.push_str("],\"calls\":[");
        for (i, c) in self.calls.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":{:?},\"parent\":{},\"count\":{},\"total_ns\":{}}}",
                if i == 0 { "" } else { "," },
                c.name,
                c.parent.map_or("null".to_owned(), |p| p.to_string()),
                c.count,
                c.total_ns
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Median duration an empty call span records: the time between its
/// two clock reads, which is what every real span also carries.
fn calibrate_empty_span() -> f64 {
    let per_span: Vec<f64> = (0..15)
        .map(|_| {
            let mut acc = 0u128;
            for _ in 0..2_000 {
                let s = Instant::now();
                acc += s.elapsed().as_nanos();
            }
            acc as f64 / 2_000.0
        })
        .collect();
    crate::stats::median(&per_span)
}

/// Times `f` per call by running it `n` times in a tight loop, taking
/// the median over `reps` repetitions. For layer probes whose single
/// call is too short to time one by one.
pub fn per_call_ns(reps: usize, n: usize, mut f: impl FnMut(usize)) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for i in 0..n {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    crate::stats::median(&v)
}
