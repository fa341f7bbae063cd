//! `SpeedTracker` against an O(N) model that recomputes the minimum on
//! every query, and a guard that a report's speed costs no scan of the
//! whole grid.

use sagrid_adapt::SpeedTracker;
use sagrid_core::ids::NodeId;
use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
use sagrid_core::time::SimDuration;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Random `record`/`remove` calls, a third of them aimed at a node that
/// holds the minimum (raising it, removing it, or matching it). Every
/// node's speed must equal the model's bit for bit after every call.
#[test]
fn speeds_match_an_o_n_recomputation() {
    const NODES: u32 = 48;
    for seed in 0..64u64 {
        let mut rng = Xoshiro256StarStar::seeded(0x5EED_0000 + seed);
        let mut tracker = SpeedTracker::new();
        let mut model: BTreeMap<NodeId, SimDuration> = BTreeMap::new();
        // Few distinct durations, so ties at the minimum are common.
        let levels = 1 + rng.gen_index(12) as u64;
        for step in 0..2_000 {
            let min_holder = model.iter().min_by_key(|(_, d)| **d).map(|(&n, &d)| (n, d));
            let node = match min_holder {
                Some((n, _)) if rng.gen_bool(0.33) => n,
                _ => NodeId(rng.gen_index(NODES as usize) as u32),
            };
            if rng.gen_bool(0.2) {
                tracker.remove(node);
                model.remove(&node);
            } else {
                let d = match min_holder {
                    // Tie the current minimum.
                    Some((_, min)) if rng.gen_bool(0.2) => min,
                    _ => SimDuration(250 * (1 + rng.gen_range(levels))),
                };
                tracker.record(node, d);
                model.insert(node, d);
            }
            assert_eq!(tracker.len(), model.len(), "seed {seed} step {step}");
            let min = model.values().min().copied();
            for i in 0..NODES {
                let n = NodeId(i);
                let expected = model.get(&n).map(|d| min.unwrap().0 as f64 / d.0 as f64);
                assert_eq!(
                    tracker.relative_speed(n).map(f64::to_bits),
                    expected.map(f64::to_bits),
                    "seed {seed} step {step} node {i}"
                );
            }
        }
    }
}

/// 20,000 nodes each record a benchmark and read their speed back, as the
/// coordinator does per report. Rescanning every duration per query is
/// 2·10⁸ map steps, well over ten seconds in the unoptimised test build; a
/// kept minimum takes tens of milliseconds there, so the bound leaves it
/// 20× headroom and still catches the quadratic scan.
#[test]
fn a_report_costs_no_scan_of_the_grid() {
    const NODES: u32 = 20_000;
    const BOUND: Duration = Duration::from_secs(2);
    let mut rng = Xoshiro256StarStar::seeded(0x5CA1E);
    let mut tracker = SpeedTracker::new();
    let started = Instant::now();
    let mut sum = 0.0;
    for i in 0..NODES {
        let n = NodeId(i);
        tracker.record(n, SimDuration(1_000 + rng.gen_range(1_000_000)));
        sum += tracker.relative_speed(n).expect("just recorded");
    }
    let took = started.elapsed();
    assert!(sum > 0.0);
    assert!(
        took < BOUND,
        "{NODES} record + relative_speed calls took {took:?} (bound {BOUND:?})"
    );
}

/// A homogeneous cluster: after the one faster node leaves, 20,000 nodes
/// tie at the new minimum and then leave one by one, each departure
/// followed by a survivor's speed query. Counting the holders of the
/// minimum makes each departure a map removal; losing the count in the
/// rescan would rescan the map on every departure (2·10⁸ steps again).
#[test]
fn departures_from_a_tied_minimum_cost_no_rescan_each() {
    const NODES: u32 = 20_000;
    const BOUND: Duration = Duration::from_secs(2);
    let mut tracker = SpeedTracker::new();
    let witness = NodeId(NODES + 1);
    tracker.record(NodeId(NODES), SimDuration(500));
    tracker.record(witness, SimDuration(4_000));
    for i in 0..NODES {
        tracker.record(NodeId(i), SimDuration(1_000));
    }
    let started = Instant::now();
    tracker.remove(NodeId(NODES));
    for i in 0..NODES {
        assert_eq!(tracker.relative_speed(witness), Some(0.25));
        tracker.remove(NodeId(i));
    }
    let took = started.elapsed();
    assert_eq!(tracker.relative_speed(witness), Some(1.0));
    assert!(
        took < BOUND,
        "{NODES} departures + relative_speed calls took {took:?} (bound {BOUND:?})"
    );
}
