//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span is (name, start, end, parent, round). They are kept in a `Vec`
//! and written to `trace.jsonl` when the run ends; self time is a span's
//! duration minus the part its direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    round: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct SpanId(u32);

/// The span recorder. When off, `enter`/`exit` cost one branch each.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

/// Self time of one span name, summed over the run.
pub struct SelfTime {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Switches recording on or off (between rounds only: no span may be
    /// open).
    pub fn set_recording(&mut self, on: bool, round: u32) {
        debug_assert!(self.open.is_empty());
        self.on = on;
        self.round = round;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            round: self.round,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        if id.0 == NO_PARENT {
            return;
        }
        self.spans[id.0 as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must nest");
    }

    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            );
            if s.parent == NO_PARENT {
                out.push_str("null");
            } else {
                let _ = write!(out, "{}", s.parent);
            }
            let _ = writeln!(out, ",\"round\":{}}}", s.round);
        }
        out
    }

    /// Self time per span name, largest first.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = by_name.entry(s.name).or_insert(SelfTime {
                name: s.name,
                calls: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.calls += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
        }
        let mut v: Vec<SelfTime> = by_name.into_values().collect();
        v.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        v
    }
}
