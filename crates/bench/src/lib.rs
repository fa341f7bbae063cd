//! # sagrid-bench
//!
//! Hand-rolled, registry-free benchmarks (`std::time::Instant` harness; the
//! container has no crates.io access, so there is no criterion here). Two
//! suites, both `harness = false` binaries under `benches/`:
//!
//! * `micro` — component benchmarks: event-kernel throughput, metric and
//!   badness computation, workload generation, network model, Barnes-Hut
//!   steps, and the threaded runtime's spawn/steal machinery;
//! * `des_throughput` — discrete-event engine throughput in events/second
//!   on the scenario 1 and scenario 4 workloads, with a JSON report
//!   (`BENCH_des_throughput.json`) for regression tracking.
//!
//! The paper's figures, tables and ablations are regenerated by
//! `cargo run -p sagrid-exp --release -- --all` / `--ablations`.
//!
//! Shared helpers live here: the scenario shortener, the measurement
//! harness, and a minimal JSON emitter.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use sagrid_exp::scenarios::{Scenario, ScenarioId};
use std::time::{Duration, Instant};

/// A scenario shortened for benchmarking (enough iterations to span two
/// monitoring periods so adaptation actually happens, small enough to keep
/// `cargo bench` minutes-scale).
pub fn bench_scenario(id: ScenarioId) -> Scenario {
    let mut s = Scenario::new(id);
    s.iterations = 12;
    s
}

/// Whether quick mode is requested: `--quick` on the command line or
/// `SAGRID_BENCH_QUICK=1` in the environment (used by `scripts/ci.sh`).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("SAGRID_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// One benchmark's timing summary, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark name, e.g. `fig1_runtime_bars_scenario1`.
    pub name: String,
    /// Number of timed samples.
    pub samples: u32,
    /// Mean wall time per iteration.
    pub mean_ns: u128,
    /// Fastest sample.
    pub min_ns: u128,
    /// Slowest sample.
    pub max_ns: u128,
}

impl Measurement {
    /// Mean wall time as a [`Duration`].
    pub fn mean(&self) -> Duration {
        Duration::from_nanos(self.mean_ns as u64)
    }
}

/// Times `f` — `warmup` untimed runs, then `samples` timed runs — and
/// prints a criterion-style summary line.
pub fn measure(name: &str, warmup: u32, samples: u32, mut f: impl FnMut()) -> Measurement {
    assert!(samples > 0, "need at least one timed sample");
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<u128> = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_nanos());
    }
    let min = *times.iter().min().expect("samples > 0");
    let max = *times.iter().max().expect("samples > 0");
    let mean = times.iter().sum::<u128>() / times.len() as u128;
    let m = Measurement {
        name: name.to_string(),
        samples,
        mean_ns: mean,
        min_ns: min,
        max_ns: max,
    };
    println!(
        "{:<40} mean {:>12}   min {:>12}   max {:>12}   ({} samples)",
        m.name,
        fmt_ns(mean),
        fmt_ns(min),
        fmt_ns(max),
        samples
    );
    m
}

/// Human-readable duration from nanoseconds.
pub fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// A minimal JSON value for benchmark reports (hand-rolled: the workspace
/// deliberately has no serde).
#[derive(Clone, Debug)]
pub enum Json {
    /// A floating-point number (emitted with enough digits to round-trip).
    Num(f64),
    /// An unsigned integer.
    Int(u128),
    /// A string (escaped on emission).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serializes with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Num(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    out.push_str(&format!("{x:.1}"));
                } else {
                    out.push_str(&format!("{x}"));
                }
            }
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    Json::Str(k.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_sane_bounds() {
        let m = measure("noop", 1, 5, || {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(m.samples, 5);
        assert!(m.min_ns <= m.mean_ns && m.mean_ns <= m.max_ns);
    }

    #[test]
    fn json_escapes_and_nests() {
        let j = Json::Obj(vec![
            ("name".into(), Json::Str("a\"b\\c\n".into())),
            ("xs".into(), Json::Arr(vec![Json::Int(1), Json::Num(2.5)])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let s = j.pretty();
        assert!(s.contains(r#""a\"b\\c\n""#), "escaped: {s}");
        assert!(s.contains("2.5"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn json_integers_do_not_gain_fractions() {
        assert_eq!(Json::Int(42).pretty(), "42\n");
        assert_eq!(Json::Num(3.0).pretty(), "3.0\n");
    }
}
