//! Dependency-free observability: named atomic counters, gauges and
//! fixed-bucket histograms, plus a structured event sink that serialises
//! to JSON Lines.
//!
//! The paper's whole adaptation loop is driven by *measured* statistics,
//! so every execution layer (DES engine, coordinator, threaded runtime,
//! scheduler pool, experiment harness) records into one shared registry.
//!
//! Design constraints, in order:
//!
//! 1. **Zero-cost when disabled.** [`Metrics::disabled`] carries no
//!    allocation; [`Metrics::counter`] returns `None`, so an
//!    instrumentation site compiles down to a single branch on an
//!    `Option` it resolved once, up front. No atomics are touched and no
//!    events are buffered.
//! 2. **Lock-free on the hot path.** Counter/gauge/histogram updates are
//!    single relaxed atomic RMWs. The registry's interior mutex is only
//!    taken when a handle is first resolved or an [`MetricEvent`] is
//!    emitted (events are rare, decision-frequency occurrences).
//! 3. **One copy of the event log.** [`Metrics::emit`] serialises the
//!    event into its JSON Lines record right away; the registry holds
//!    only that text. [`Metrics::report`] shares it with the
//!    [`MetricsReport`] instead of copying it, and
//!    [`Metrics::take_events`] hands it to a caller that streams it out.
//! 4. **No dependencies.** JSON emission and parsing are hand-rolled,
//!    mirroring the style of the benchmark reporter.
//!
//! # Example
//!
//! ```
//! use sagrid_core::metrics::{Metrics, MetricEvent, Value};
//!
//! let m = Metrics::enabled();
//! let steals = m.counter("steals_ok");
//! if let Some(c) = &steals {
//!     c.add(3);
//! }
//! m.emit(
//!     MetricEvent::new(1_500_000, "steal_burst")
//!         .with("cluster", Value::U64(2))
//!         .with("ok", Value::Bool(true)),
//! );
//! let report = m.report();
//! assert_eq!(report.counter("steals_ok"), 3);
//! assert_eq!(report.events_of_kind("steal_burst").count(), 1);
//! ```

use crate::json::{write_f64, write_json_string};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// The JSON value model and parser started life in this module; they now
// live in [`crate::json`] and are re-exported here so existing callers
// (`use sagrid_core::metrics::parse_json`) keep compiling.
pub use crate::json::{parse_json, JsonValue};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter (relaxed; hot path).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways (e.g. live node count).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative) to the gauge.
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// `bounds` are inclusive upper bounds of the first `bounds.len()`
/// buckets; one implicit overflow bucket catches everything above the
/// last bound. Recording is a linear scan over a handful of bounds plus
/// relaxed atomic increments — no locking, no allocation.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: sorted,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// (inclusive upper bounds, per-bucket counts); the final count is the
    /// overflow bucket.
    pub fn snapshot(&self) -> (Vec<u64>, Vec<u64>) {
        let counts = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        (self.bounds.clone(), counts)
    }
}

/// A field value attached to a [`MetricEvent`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Pre-serialised JSON, emitted verbatim — for structured payloads
    /// (arrays/objects) like a decision's badness table. The caller is
    /// responsible for it being valid JSON.
    Raw(String),
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => write_f64(out, *v),
            Value::Str(s) => write_json_string(out, s),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Raw(json) => out.push_str(json),
        }
    }
}

/// A structured, timestamped occurrence: an injection firing, a steal
/// burst, a coordinator decision. Serialises to one JSON Lines record.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricEvent {
    /// Virtual or wall time of the occurrence, in microseconds.
    pub at_micros: u64,
    /// Event kind tag, e.g. `"decision"` or `"injection"`.
    pub kind: String,
    /// Ordered key/value payload.
    pub fields: Vec<(String, Value)>,
}

impl MetricEvent {
    /// Creates an event with no fields.
    pub fn new(at_micros: u64, kind: &str) -> Self {
        Self {
            at_micros,
            kind: kind.to_string(),
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder style).
    #[must_use]
    pub fn with(mut self, key: &str, value: Value) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Serialises the event to a single JSON object (one JSONL line,
    /// without the trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 24);
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"type\":\"event\",\"at_us\":");
        let _ = write!(out, "{}", self.at_micros);
        out.push_str(",\"kind\":");
        write_json_string(out, &self.kind);
        for (k, v) in &self.fields {
            out.push(',');
            write_json_string(out, k);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Every emitted event as one JSONL record, in emission order. A
    /// report shares it; an emit while a report still holds it copies it
    /// first (copy-on-write).
    events: Mutex<Arc<String>>,
}

/// Handle to a metrics registry, or the disabled no-op variant.
///
/// Cloning is cheap (an `Arc` bump); clones share the same registry, so a
/// single `Metrics` can be threaded through the engine, coordinator,
/// scheduler pool and runtime and every layer records into one place.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    inner: Option<Arc<Inner>>,
}

impl Metrics {
    /// The no-op handle: resolves no instruments, buffers no events.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live, empty registry.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (registering on first use) the counter `name`.
    /// Returns `None` when disabled — resolve once, branch on the option
    /// at the instrumentation site.
    pub fn counter(&self, name: &str) -> Option<Arc<Counter>> {
        let inner = self.inner.as_ref()?;
        let mut map = inner.counters.lock().expect("metrics lock poisoned");
        Some(Arc::clone(
            map.entry(name.to_string()).or_insert_with(Arc::default),
        ))
    }

    /// Resolves (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<Arc<Gauge>> {
        let inner = self.inner.as_ref()?;
        let mut map = inner.gauges.lock().expect("metrics lock poisoned");
        Some(Arc::clone(
            map.entry(name.to_string()).or_insert_with(Arc::default),
        ))
    }

    /// Resolves (registering on first use) the histogram `name` with the
    /// given inclusive upper `bounds`. Bounds are fixed at registration;
    /// later calls with different bounds get the original instrument.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Option<Arc<Histogram>> {
        let inner = self.inner.as_ref()?;
        let mut map = inner.histograms.lock().expect("metrics lock poisoned");
        Some(Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        ))
    }

    /// Appends the event's JSONL record to the buffered event text. No-op
    /// when disabled.
    pub fn emit(&self, event: MetricEvent) {
        if let Some(inner) = &self.inner {
            let mut events = inner.events.lock().expect("metrics lock poisoned");
            let text = Arc::make_mut(&mut events);
            event.write_json(text);
            text.push('\n');
        }
    }

    /// Hands over the event text emitted since the registry was created
    /// or since the last call, and clears it; instruments are untouched.
    /// Appending every handed-over text, then a final
    /// [`MetricsReport::to_jsonl`], writes exactly what one `to_jsonl` at
    /// the end would have. Empty when disabled.
    pub fn take_events(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let text = std::mem::take(&mut *inner.events.lock().expect("metrics lock poisoned"));
        Arc::unwrap_or_clone(text)
    }

    /// Takes a consistent snapshot of every instrument, sorted by name,
    /// and shares the buffered event text. An empty report when disabled.
    pub fn report(&self) -> MetricsReport {
        let Some(inner) = &self.inner else {
            return MetricsReport::default();
        };
        let counters = inner
            .counters
            .lock()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(k, v)| {
                let (bounds, counts) = v.snapshot();
                (
                    k.clone(),
                    HistogramSnapshot {
                        bounds,
                        counts,
                        count: v.count(),
                        sum: v.sum(),
                    },
                )
            })
            .collect();
        let events = Arc::clone(&inner.events.lock().expect("metrics lock poisoned"));
        MetricsReport {
            counters,
            gauges,
            histograms,
            events,
        }
    }
}

/// Frozen state of one histogram inside a [`MetricsReport`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the explicit buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; the final entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

/// A point-in-time snapshot of a registry: instruments sorted by name
/// plus the ordered event log, held as the JSONL text the registry
/// wrote. Attachable to run results and serialisable to JSON Lines.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// One JSONL record per buffered event, in emission order; shared
    /// with the registry, not copied.
    events: Arc<String>,
}

impl MetricsReport {
    /// Value of counter `name`, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Value of gauge `name`, or 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The buffered events as JSON Lines, one record per line in
    /// emission order.
    pub fn events_jsonl(&self) -> &str {
        &self.events
    }

    /// The events of the given kind, each parsed from its line, in
    /// emission order. Panics on a line that does not parse, which only
    /// a malformed [`Value::Raw`] field can produce.
    pub fn events_of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = JsonValue> + 'a {
        self.events
            .lines()
            .map(|line| parse_json(line).expect("emitted events are valid JSON"))
            .filter(move |e| e.get("kind").and_then(JsonValue::as_str) == Some(kind))
    }

    /// Whether the report holds no instruments and no events.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
    }

    /// Serialises the whole report to JSON Lines: every event in order,
    /// then one record per counter, gauge and histogram. Deterministic
    /// for a deterministic run.
    pub fn to_jsonl(&self) -> String {
        let instruments = self.counters.len() + self.gauges.len() + self.histograms.len();
        let mut out = String::with_capacity(self.events.len() + 64 * instruments);
        out.push_str(&self.events);
        for (name, value) in &self.counters {
            out.push_str("{\"type\":\"counter\",\"name\":");
            write_json_string(&mut out, name);
            let _ = writeln!(out, ",\"value\":{value}}}");
        }
        for (name, value) in &self.gauges {
            out.push_str("{\"type\":\"gauge\",\"name\":");
            write_json_string(&mut out, name);
            let _ = writeln!(out, ",\"value\":{value}}}");
        }
        for (name, h) in &self.histograms {
            out.push_str("{\"type\":\"histogram\",\"name\":");
            write_json_string(&mut out, name);
            let _ = write!(out, ",\"count\":{},\"sum\":{},\"bounds\":[", h.count, h.sum);
            for (i, b) in h.bounds.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("],\"counts\":[");
            for (i, c) in h.counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_resolves_nothing_and_buffers_nothing() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        assert!(m.counter("x").is_none());
        assert!(m.gauge("x").is_none());
        assert!(m.histogram("x", &[1, 2]).is_none());
        m.emit(MetricEvent::new(0, "ignored"));
        let report = m.report();
        assert!(report.is_empty());
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let m = Metrics::enabled();
        let c = m.counter("a").unwrap();
        c.inc();
        c.add(4);
        // Re-resolving returns the same instrument.
        assert_eq!(m.counter("a").unwrap().get(), 5);
        let g = m.gauge("g").unwrap();
        g.set(7);
        g.add(-3);
        let report = m.report();
        assert_eq!(report.counter("a"), 5);
        assert_eq!(report.gauge("g"), 4);
        assert_eq!(report.counter("missing"), 0);
    }

    #[test]
    fn histogram_buckets_samples_including_overflow() {
        let m = Metrics::enabled();
        let h = m.histogram("lat", &[10, 100, 1000]).unwrap();
        for v in [5, 10, 11, 500, 5000] {
            h.record(v);
        }
        let (bounds, counts) = h.snapshot();
        assert_eq!(bounds, vec![10, 100, 1000]);
        assert_eq!(counts, vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5 + 10 + 11 + 500 + 5000);
    }

    #[test]
    fn report_is_sorted_and_jsonl_parses_line_by_line() {
        let m = Metrics::enabled();
        m.counter("zz").unwrap().inc();
        m.counter("aa").unwrap().add(2);
        m.gauge("mid").unwrap().set(-4);
        m.histogram("h", &[1]).unwrap().record(3);
        m.emit(
            MetricEvent::new(42, "steal")
                .with("cluster", Value::U64(1))
                .with("note", Value::Str("quote\" and \\slash".to_string()))
                .with("eff", Value::F64(0.8125))
                .with("ok", Value::Bool(true))
                .with("delta", Value::I64(-3)),
        );
        let report = m.report();
        let names: Vec<&str> = report.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["aa", "zz"]);
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1 + 2 + 1 + 1);
        for line in &lines {
            let v = parse_json(line).expect("line parses");
            assert!(v.get("type").and_then(JsonValue::as_str).is_some());
        }
        // The event line round-trips its payload.
        let ev = parse_json(lines[0]).unwrap();
        assert_eq!(ev.get("kind").and_then(JsonValue::as_str), Some("steal"));
        assert_eq!(ev.get("at_us").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(ev.get("cluster").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            ev.get("note").and_then(JsonValue::as_str),
            Some("quote\" and \\slash")
        );
        assert_eq!(ev.get("eff").and_then(JsonValue::as_f64), Some(0.8125));
        assert_eq!(ev.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(ev.get("delta").and_then(JsonValue::as_f64), Some(-3.0));
    }

    #[test]
    fn emit_writes_the_event_record_and_report_shares_it() {
        let m = Metrics::enabled();
        let first = MetricEvent::new(1, "a").with("node", Value::U64(3));
        m.emit(first.clone());
        let a = m.report();
        let b = m.report();
        assert_eq!(a.events_jsonl(), format!("{}\n", first.to_json()));
        // Both reports read the registry's own buffer: no copy.
        assert!(std::ptr::eq(a.events_jsonl(), b.events_jsonl()));
        // A later emit copies on write; the reports keep their snapshot.
        m.emit(MetricEvent::new(2, "b"));
        assert_eq!(a.events_jsonl().lines().count(), 1);
        let c = m.report();
        assert_eq!(c.events_jsonl().lines().count(), 2);
        assert!(c.events_jsonl().starts_with(a.events_jsonl()));
        assert_eq!(c.events_of_kind("b").count(), 1);
    }

    /// Streaming the event text out as it accumulates, then writing the
    /// final report, reproduces the one-shot `to_jsonl` byte for byte.
    #[test]
    fn drained_events_plus_final_report_equal_the_undrained_jsonl() {
        use crate::rng::Rng64;
        let mut rng = crate::rng::SplitMix64::new(0x5eed);
        for _ in 0..50 {
            let whole = Metrics::enabled();
            let drained = Metrics::enabled();
            let mut streamed = String::new();
            for i in 0..rng.next_u64() % 40 {
                let event = MetricEvent::new(i, "e")
                    .with("x", Value::F64(i as f64 / 3.0))
                    .with("s", Value::Str(format!("n{i}\"")));
                whole.emit(event.clone());
                drained.emit(event);
                for m in [&whole, &drained] {
                    m.counter("c").unwrap().add(i);
                    m.gauge("g").unwrap().set(i as i64);
                    m.histogram("h", &[5, 10]).unwrap().record(i);
                }
                match rng.next_u64() % 4 {
                    0 => streamed.push_str(&drained.take_events()),
                    // A report held across a drain keeps its own text.
                    1 => {
                        let held = drained.report();
                        let text = drained.take_events();
                        assert_eq!(held.events_jsonl(), text);
                        streamed.push_str(&text);
                    }
                    _ => {}
                }
            }
            streamed.push_str(&drained.take_events());
            let report = drained.report();
            assert!(report.events_jsonl().is_empty());
            streamed.push_str(&report.to_jsonl());
            assert_eq!(streamed, whole.report().to_jsonl());
        }
        assert!(Metrics::disabled().take_events().is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let m = Metrics::enabled();
        let m2 = m.clone();
        m.counter("shared").unwrap().inc();
        m2.counter("shared").unwrap().inc();
        assert_eq!(m.report().counter("shared"), 2);
    }
}
