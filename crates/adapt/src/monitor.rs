//! Application monitoring (paper §3.2).
//!
//! Two mechanisms live here:
//!
//! * [`BenchmarkScheduler`] — relative processor speeds depend on the
//!   application, so each node periodically re-runs a *small
//!   application-specific benchmark*. There is a trade-off between accuracy
//!   and overhead: "processors run the benchmark at such frequency so as not
//!   to exceed the specified overhead". The scheduler enforces that budget.
//! * [`SpeedTracker`] — the coordinator-side normalization of raw benchmark
//!   times into relative speeds in `(0, 1]` (fastest = 1), including the
//!   paper's fallback of using the previous period's data for nodes whose
//!   report was missed. [`crate::Coordinator`] owns one; the type stays
//!   public only for the `benchmark/` generator (and this crate's tests)
//!   until it moves to [`crate::Coordinator::record_benchmark`].

use sagrid_core::ids::NodeId;
use sagrid_core::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Decides *when* a node should re-run its speed benchmark so that the
/// benchmarking overhead stays within a budget fraction of wall time.
///
/// If the last benchmark took `d`, the next run is scheduled no earlier than
/// `d / budget` after the previous one started: a node whose benchmark takes
/// 1 s under a 5 % budget benchmarks at most every 20 s. Slower (e.g.
/// overloaded) nodes take longer to run the benchmark and therefore
/// benchmark *less* often — the same self-throttling the paper describes.
#[derive(Clone, Debug)]
pub struct BenchmarkScheduler {
    budget: f64,
    last_start: Option<SimTime>,
    last_duration: SimDuration,
    runs: u64,
}

impl BenchmarkScheduler {
    /// Creates a scheduler with the given overhead budget (fraction in
    /// `(0, 1)`), using `expected_duration` to pace the very first run.
    pub fn new(budget: f64, expected_duration: SimDuration) -> Self {
        assert!(
            budget > 0.0 && budget < 1.0,
            "benchmark budget must be a fraction in (0,1)"
        );
        Self {
            budget,
            last_start: None,
            last_duration: expected_duration,
            runs: 0,
        }
    }

    /// Whether a benchmark should run at time `now`. The first call always
    /// returns `true` — a node must measure its speed upon joining.
    pub fn should_run(&self, now: SimTime) -> bool {
        match self.last_start {
            None => true,
            Some(start) => now.saturating_since(start) >= self.min_interval(),
        }
    }

    /// Earliest time the next benchmark may start.
    pub fn next_run_at(&self) -> SimTime {
        match self.last_start {
            None => SimTime::ZERO,
            Some(start) => start + self.min_interval(),
        }
    }

    /// Records a completed benchmark run.
    pub fn record_run(&mut self, started_at: SimTime, duration: SimDuration) {
        self.last_start = Some(started_at);
        self.last_duration = duration;
        self.runs += 1;
    }

    /// Number of completed runs.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Most recent benchmark duration.
    pub fn last_duration(&self) -> SimDuration {
        self.last_duration
    }

    fn min_interval(&self) -> SimDuration {
        self.last_duration.mul_f64(1.0 / self.budget)
    }
}

/// Coordinator-side speed normalization.
///
/// Stores the most recent raw benchmark duration per node and converts them
/// to relative speeds: `speed_i = min_j(duration_j) / duration_i`, so the
/// fastest node has speed 1.0 and "slower processors are modeled as fast
/// ones that spend a large fraction of the time being idle".
///
/// The minimum is kept up to date as durations arrive and leave, so
/// [`Self::relative_speed`] is one map lookup. Only when every node holding
/// the minimum gets slower or leaves does [`Self::record`] /
/// [`Self::remove`] rescan the map.
#[derive(Clone, Debug)]
pub struct SpeedTracker {
    durations: BTreeMap<NodeId, SimDuration>,
    /// Smallest duration in `durations` (`u64::MAX` while empty).
    min: SimDuration,
    /// How many nodes hold `min` (0 while empty).
    at_min: usize,
}

impl Default for SpeedTracker {
    fn default() -> Self {
        Self {
            durations: BTreeMap::new(),
            min: SimDuration(u64::MAX),
            at_min: 0,
        }
    }
}

impl SpeedTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records node `n`'s latest benchmark duration (keeps the previous one
    /// until a new measurement arrives — paper: "the coordinator may miss
    /// data … so it has to use data from the previous monitoring period").
    pub fn record(&mut self, n: NodeId, duration: SimDuration) {
        assert!(
            duration > SimDuration::ZERO,
            "benchmark duration must be > 0"
        );
        if self.durations.insert(n, duration) == Some(self.min) {
            self.at_min -= 1;
        }
        match duration.cmp(&self.min) {
            Ordering::Less => {
                self.min = duration;
                self.at_min = 1;
            }
            Ordering::Equal => self.at_min += 1,
            // The last holder of the minimum got slower.
            Ordering::Greater if self.at_min == 0 => self.rescan(),
            Ordering::Greater => {}
        }
    }

    /// Forgets a node that left or died.
    pub fn remove(&mut self, n: NodeId) {
        if self.durations.remove(&n) == Some(self.min) {
            self.at_min -= 1;
            if self.at_min == 0 {
                self.rescan();
            }
        }
    }

    fn rescan(&mut self) {
        self.min = self
            .durations
            .values()
            .min()
            .copied()
            .unwrap_or(SimDuration(u64::MAX));
        self.at_min = self.durations.values().filter(|&&d| d == self.min).count();
    }

    /// Relative speed of node `n` in `(0, 1]`, or `None` if the node has
    /// never benchmarked.
    pub fn relative_speed(&self, n: NodeId) -> Option<f64> {
        let d = self.durations.get(&n)?;
        Some(self.min.0 as f64 / d.0 as f64)
    }

    /// Number of nodes with a known speed.
    pub fn len(&self) -> usize {
        self.durations.len()
    }

    /// Whether no node has benchmarked yet.
    pub fn is_empty(&self) -> bool {
        self.durations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_benchmark_runs_immediately() {
        let s = BenchmarkScheduler::new(0.05, SimDuration::from_secs(1));
        assert!(s.should_run(SimTime::ZERO));
    }

    #[test]
    fn budget_throttles_frequency() {
        let mut s = BenchmarkScheduler::new(0.05, SimDuration::from_secs(1));
        s.record_run(SimTime::ZERO, SimDuration::from_secs(1));
        // 1s benchmark at 5% budget → at most every 20s.
        assert!(!s.should_run(SimTime::from_secs(19)));
        assert!(s.should_run(SimTime::from_secs(20)));
        assert_eq!(s.next_run_at(), SimTime::from_secs(20));
        assert_eq!(s.runs(), 1);
    }

    #[test]
    fn slow_nodes_benchmark_less_often() {
        let mut fast = BenchmarkScheduler::new(0.1, SimDuration::from_secs(1));
        let mut slow = BenchmarkScheduler::new(0.1, SimDuration::from_secs(1));
        fast.record_run(SimTime::ZERO, SimDuration::from_secs(1));
        slow.record_run(SimTime::ZERO, SimDuration::from_secs(5));
        assert_eq!(fast.next_run_at(), SimTime::from_secs(10));
        assert_eq!(slow.next_run_at(), SimTime::from_secs(50));
    }

    #[test]
    #[should_panic(expected = "benchmark budget")]
    fn zero_budget_rejected() {
        let _ = BenchmarkScheduler::new(0.0, SimDuration::from_secs(1));
    }

    #[test]
    fn speed_tracker_normalizes_to_fastest() {
        let mut t = SpeedTracker::new();
        t.record(NodeId(0), SimDuration::from_secs(2));
        t.record(NodeId(1), SimDuration::from_secs(4));
        t.record(NodeId(2), SimDuration::from_secs(8));
        assert_eq!(t.relative_speed(NodeId(0)), Some(1.0));
        assert_eq!(t.relative_speed(NodeId(1)), Some(0.5));
        assert_eq!(t.relative_speed(NodeId(2)), Some(0.25));
    }

    #[test]
    fn speeds_rescale_when_a_faster_node_appears() {
        let mut t = SpeedTracker::new();
        t.record(NodeId(0), SimDuration::from_secs(2));
        assert_eq!(t.relative_speed(NodeId(0)), Some(1.0));
        t.record(NodeId(1), SimDuration::from_secs(1));
        assert_eq!(t.relative_speed(NodeId(0)), Some(0.5));
        assert_eq!(t.relative_speed(NodeId(1)), Some(1.0));
    }

    #[test]
    fn stale_measurements_persist_until_replaced() {
        let mut t = SpeedTracker::new();
        t.record(NodeId(0), SimDuration::from_secs(1));
        // No new measurement for node 0; an overload re-measurement arrives:
        t.record(NodeId(0), SimDuration::from_secs(10));
        assert_eq!(t.relative_speed(NodeId(0)), Some(1.0), "alone again");
        t.record(NodeId(1), SimDuration::from_secs(1));
        assert_eq!(t.relative_speed(NodeId(0)), Some(0.1));
    }

    #[test]
    fn removed_nodes_do_not_anchor_the_scale() {
        let mut t = SpeedTracker::new();
        t.record(NodeId(0), SimDuration::from_secs(1));
        t.record(NodeId(1), SimDuration::from_secs(2));
        t.remove(NodeId(0));
        assert_eq!(t.relative_speed(NodeId(1)), Some(1.0));
        assert_eq!(t.relative_speed(NodeId(0)), None);
        assert_eq!(t.len(), 1);
    }
}
