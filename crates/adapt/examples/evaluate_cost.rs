//! Per-period cost of the coordinator, decision path against decision plus
//! provenance: warm `Coordinator::evaluate` alone, then `evaluate` followed
//! by `last_decision()`, which ranks the entry worst-first.
//!
//! The reports are the benchmark's micro-stage set (every member in band,
//! so each period decides `None`): 36 members × 3 clusters as on
//! `paper36`, 256 × 32 as on the wide workloads, and 4,096 × 32.
//!
//! ```sh
//! cargo run --release -p sagrid-adapt --example evaluate_cost
//! ```

use sagrid_adapt::{AdaptPolicy, Coordinator};
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::stats::{MonitoringReport, OverheadBreakdown};
use sagrid_core::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

fn reports(n: usize, clusters: usize) -> Vec<MonitoringReport> {
    (0..n)
        .map(|i| MonitoringReport {
            node: NodeId(i as u32),
            cluster: ClusterId((i % clusters) as u16),
            period_end: SimTime::from_secs(180),
            breakdown: OverheadBreakdown {
                busy: SimDuration::from_secs(72 + (i % 7) as u64),
                idle: SimDuration::from_secs(90),
                intra_comm: SimDuration::from_secs(7),
                inter_comm: SimDuration::from_secs(2),
                benchmark: SimDuration::ZERO,
            },
            speed: 1.0 - (i % 5) as f64 * 0.01,
        })
        .collect()
}

/// Median over 15 batches of the µs one period takes.
fn per_period_us(coordinator: &mut Coordinator, read_entry: bool) -> f64 {
    const PERIODS: u64 = 400;
    let mut period = 0;
    let mut batches: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..PERIODS {
                period += 1;
                black_box(coordinator.evaluate(SimTime::from_secs(180 * period), None));
                if read_entry {
                    black_box(coordinator.last_decision());
                }
            }
            start.elapsed().as_secs_f64() * 1e6 / PERIODS as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

fn main() {
    println!("members clusters  evaluate_us  evaluate+last_decision_us");
    for (n, clusters) in [(36, 3), (256, 32), (4_096, 32)] {
        let mut coordinator = Coordinator::new(AdaptPolicy::default());
        for r in reports(n, clusters) {
            coordinator.record_report(r);
        }
        // Warm up: buffers sized, caches hot.
        per_period_us(&mut coordinator, true);
        let decide = per_period_us(&mut coordinator, false);
        let record = per_period_us(&mut coordinator, true);
        println!("{n:>7} {clusters:>8} {decide:>12.2} {record:>26.2}");
    }
}
