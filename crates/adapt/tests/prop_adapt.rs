//! Randomized property tests for the adaptation machinery, driven by the
//! in-repo fixed-seed RNG so every case is reproducible offline.

use sagrid_adapt::coordinator::Decision;
use sagrid_adapt::hierarchy::HierarchicalCoordinator;
use sagrid_adapt::{AdaptPolicy, BenchmarkScheduler, Coordinator};
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
use sagrid_core::stats::{MonitoringReport, OverheadBreakdown};
use sagrid_core::time::{SimDuration, SimTime};

const CASES: u64 = 150;

fn rng_for(test: u64, case: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seeded(0xADA7_0000 + test * 1_000 + case)
}

/// A plausible monitoring report with random cluster, speed, and activity
/// split.
fn random_report(rng: &mut impl Rng64, id: u32, n_clusters: u16) -> MonitoringReport {
    let cluster = rng.gen_range(n_clusters as u64) as u16;
    let speed = 0.01 + 0.99 * rng.gen_f64();
    let busy_f = rng.gen_f64();
    let ic_f = 0.5 * rng.gen_f64();
    let total = 1_000_000u64;
    let busy = (busy_f * total as f64) as u64;
    let inter = (ic_f * (total - busy) as f64) as u64;
    MonitoringReport {
        node: NodeId(id),
        cluster: ClusterId(cluster),
        period_end: SimTime::from_secs(180),
        breakdown: OverheadBreakdown {
            busy: SimDuration(busy),
            inter_comm: SimDuration(inter),
            idle: SimDuration(total - busy - inter),
            ..Default::default()
        },
        speed,
    }
}

fn random_reports(rng: &mut impl Rng64, n: usize, clusters: u16) -> Vec<MonitoringReport> {
    (0..n as u32)
        .map(|i| random_report(rng, i, clusters))
        .collect()
}

/// Whatever the inputs, the coordinator's decisions respect structural
/// invariants: it never removes nodes it has not seen, never removes more
/// than it knows, and never asks for a non-positive addition.
#[test]
fn decisions_are_structurally_sound() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let reports = random_reports(&mut rng, 24, 3);
        let mut c = Coordinator::new(AdaptPolicy::default());
        let known: Vec<NodeId> = reports.iter().map(|r| r.node).collect();
        for r in &reports {
            c.record_report(*r);
        }
        match c.evaluate(SimTime::from_secs(180), None) {
            Decision::Add { count, .. } => assert!(count >= 1, "case {case}"),
            Decision::RemoveNodes { nodes } => {
                assert!(!nodes.is_empty(), "case {case}");
                assert!(
                    nodes.len() < known.len(),
                    "case {case}: must not empty the computation"
                );
                for n in &nodes {
                    assert!(known.contains(n), "case {case}");
                }
            }
            Decision::RemoveCluster { nodes, cluster } => {
                assert!(!nodes.is_empty(), "case {case}");
                for n in &nodes {
                    let r = reports.iter().find(|r| r.node == *n).expect("known node");
                    assert_eq!(r.cluster, cluster, "case {case}");
                }
            }
            Decision::OpportunisticSwap { .. } => {
                panic!("case {case}: extension disabled by default");
            }
            Decision::None => {}
        }
    }
}

/// Evaluation is deterministic: the same reports yield the same decision.
#[test]
fn evaluation_is_deterministic() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let reports = random_reports(&mut rng, 16, 3);
        let mut a = Coordinator::new(AdaptPolicy::default());
        let mut b = Coordinator::new(AdaptPolicy::default());
        for r in &reports {
            a.record_report(*r);
            b.record_report(*r);
        }
        assert_eq!(
            a.evaluate(SimTime::from_secs(180), None),
            b.evaluate(SimTime::from_secs(180), None),
            "case {case}"
        );
    }
}

/// The hierarchical coordinator is decision-equivalent to the flat one for
/// arbitrary report sets — the §7 hierarchy changes when reports reach the
/// main coordinator, never behaviour.
#[test]
fn hierarchy_is_always_equivalent() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let reports = random_reports(&mut rng, 20, 4);
        let mut flat = Coordinator::new(AdaptPolicy::default());
        let mut hier = HierarchicalCoordinator::new(AdaptPolicy::default());
        for r in &reports {
            flat.record_report(*r);
            hier.record_report(*r);
        }
        let t = SimTime::from_secs(180);
        assert_eq!(
            flat.evaluate(t, None),
            hier.evaluate(t, None),
            "case {case}"
        );
    }
}

/// Blacklists only grow, across arbitrary evaluation sequences.
#[test]
fn blacklists_are_monotone() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let n_batches = 1 + rng.gen_index(4);
        let mut c = Coordinator::new(AdaptPolicy::default());
        let mut prev_nodes = 0usize;
        let mut prev_clusters = 0usize;
        for i in 0..n_batches {
            for r in random_reports(&mut rng, 12, 3) {
                c.record_report(r);
            }
            let _ = c.evaluate(SimTime::from_secs(180 * (i as u64 + 1)), None);
            assert!(c.blacklisted_nodes().len() >= prev_nodes, "case {case}");
            assert!(
                c.blacklisted_clusters().len() >= prev_clusters,
                "case {case}"
            );
            prev_nodes = c.blacklisted_nodes().len();
            prev_clusters = c.blacklisted_clusters().len();
        }
    }
}

/// The benchmark scheduler honours its overhead budget over long random
/// histories: total benchmark time / elapsed ≤ budget (up to the one
/// in-flight run).
#[test]
fn benchmark_budget_is_respected() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let budget = 0.01 + 0.29 * rng.gen_f64();
        let n = 2 + rng.gen_index(38);
        let durations: Vec<u64> = (0..n).map(|_| 100_000 + rng.gen_range(9_900_000)).collect();
        let mut s = BenchmarkScheduler::new(budget, SimDuration(durations[0]));
        let mut now = SimTime::ZERO;
        let mut bench_total = 0u64;
        for &d in &durations {
            // Jump to the earliest allowed start.
            now = now.max(s.next_run_at());
            assert!(s.should_run(now), "case {case}");
            s.record_run(now, SimDuration(d));
            bench_total += d;
            now += SimDuration(d);
        }
        let elapsed = now.saturating_since(SimTime::ZERO).0.max(1);
        let overhead = bench_total as f64 / elapsed as f64;
        // The final run may overshoot the window; allow one-run slack.
        let last = *durations.last().expect("non-empty") as f64 / elapsed as f64;
        assert!(
            overhead <= budget + last + 1e-9,
            "case {case}: overhead {overhead} exceeds budget {budget} (+ slack {last})"
        );
    }
}

/// The hierarchy replays its members' raw reports, so after an evaluation
/// its main coordinator's wa_efficiency equals a flat coordinator's fed the
/// same reports, bit for bit, whatever the decision removed.
#[test]
fn replay_preserves_the_metric_bit_for_bit() {
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let reports = random_reports(&mut rng, 16, 3);
        let mut flat = Coordinator::new(AdaptPolicy::default());
        let mut hier = HierarchicalCoordinator::new(AdaptPolicy::default());
        for r in &reports {
            flat.record_report(*r);
            hier.record_report(*r);
        }
        let t = SimTime::from_secs(180);
        assert_eq!(
            flat.evaluate(t, None),
            hier.evaluate(t, None),
            "case {case}"
        );
        let (want, got) = (
            flat.current_wa_efficiency(),
            hier.main().current_wa_efficiency(),
        );
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "case {case}: {got} vs {want}"
        );
    }
}
