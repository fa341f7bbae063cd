//! Results of one simulated run.

use crate::trace::NodeTrace;
use sagrid_adapt::DecisionLogEntry;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::metrics::MetricsReport;
use sagrid_core::stats::OverheadBreakdown;
use sagrid_core::time::{SimDuration, SimTime};

/// Everything the experiment harness needs to draw the paper's figures.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Total application runtime (start of iteration 0 to end of the last).
    pub total_runtime: SimDuration,
    /// Duration of each iteration — the y-axis of Figures 3–7.
    pub iteration_durations: Vec<SimDuration>,
    /// `(time, node count)` steps: changes whenever nodes join/leave/crash.
    pub node_count_timeline: Vec<(SimTime, usize)>,
    /// Every decision's log entry, in order (empty for `AdaptMode::NoAdapt`).
    pub decisions: Vec<DecisionLogEntry>,
    /// Weighted average efficiency samples `(time, value)` at each
    /// coordinator tick.
    pub efficiency_timeline: Vec<(SimTime, f64)>,
    /// Per-cluster average inter-cluster overhead at each coordinator tick —
    /// the signal behind the exceptional-cluster removal rule.
    pub cluster_ic_timeline: Vec<(SimTime, Vec<(ClusterId, f64)>)>,
    /// Aggregate time accounting over all nodes and periods (includes the
    /// final partial period), for overhead analysis (scenario 1).
    pub aggregate: OverheadBreakdown,
    /// Number of discrete events processed (kernel throughput bench).
    pub events_processed: u64,
    /// Steal requests sent over the simulated network (sync and wide).
    pub steal_attempts: u64,
    /// Victim selections served by the engine's incremental peer cache
    /// (one per steal attempt; kept separate so the ratio to
    /// `steal_attempts` stays an invariant check for the cache path).
    pub peer_cache_hits: u64,
    /// True when the run ended because it hit the virtual-time cap rather
    /// than finishing its workload.
    pub timed_out: bool,
    /// Per-node activity traces, present when the run enabled
    /// [`crate::SimConfig::record_trace`]. Crashed nodes keep the trace
    /// recorded up to their crash.
    pub activity_traces: Vec<(NodeId, NodeTrace)>,
    /// Snapshot of the metrics registry at the end of the run — counters,
    /// gauges, histograms and the structured event stream. `None` when the
    /// run was started with metrics disabled (the default), so the default
    /// output stays byte-identical to pre-metrics builds.
    pub metrics: Option<MetricsReport>,
}

impl RunResult {
    /// Mean iteration duration in seconds.
    pub fn mean_iteration_secs(&self) -> f64 {
        if self.iteration_durations.is_empty() {
            return 0.0;
        }
        self.iteration_durations
            .iter()
            .map(|d| d.as_secs_f64())
            .sum::<f64>()
            / self.iteration_durations.len() as f64
    }

    /// Largest iteration duration in seconds.
    pub fn max_iteration_secs(&self) -> f64 {
        self.iteration_durations
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max)
    }

    /// Population standard deviation of iteration durations (seconds) —
    /// the paper repeatedly points at iteration-time *variability*.
    pub fn iteration_stddev_secs(&self) -> f64 {
        let n = self.iteration_durations.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.mean_iteration_secs();
        let var = self
            .iteration_durations
            .iter()
            .map(|d| {
                let x = d.as_secs_f64() - mean;
                x * x
            })
            .sum::<f64>()
            / n as f64;
        var.sqrt()
    }

    /// Fraction of all accounted node-time spent benchmarking — the paper's
    /// scenario-1 observation that "almost all overhead comes from
    /// benchmarking".
    pub fn benchmark_fraction(&self) -> f64 {
        self.aggregate.benchmark.fraction_of(self.aggregate.total())
    }

    /// Final node count at the end of the run.
    pub fn final_node_count(&self) -> usize {
        self.node_count_timeline.last().map_or(0, |&(_, n)| n)
    }

    /// Node count just before time `t`.
    pub fn node_count_at(&self, t: SimTime) -> usize {
        self.node_count_timeline
            .iter()
            .take_while(|&&(at, _)| at <= t)
            .last()
            .map_or(0, |&(_, n)| n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            total_runtime: SimDuration::from_secs(100),
            iteration_durations: vec![
                SimDuration::from_secs(10),
                SimDuration::from_secs(20),
                SimDuration::from_secs(30),
            ],
            node_count_timeline: vec![
                (SimTime::ZERO, 8),
                (SimTime::from_secs(50), 16),
                (SimTime::from_secs(80), 12),
            ],
            decisions: Vec::new(),
            efficiency_timeline: Vec::new(),
            cluster_ic_timeline: Vec::new(),
            aggregate: OverheadBreakdown {
                busy: SimDuration::from_secs(90),
                benchmark: SimDuration::from_secs(10),
                ..Default::default()
            },
            events_processed: 0,
            steal_attempts: 0,
            peer_cache_hits: 0,
            timed_out: false,
            activity_traces: Vec::new(),
            metrics: None,
        }
    }

    #[test]
    fn iteration_statistics() {
        let r = result();
        assert!((r.mean_iteration_secs() - 20.0).abs() < 1e-9);
        assert!((r.max_iteration_secs() - 30.0).abs() < 1e-9);
        let expected_sd = (200.0_f64 / 3.0).sqrt();
        assert!((r.iteration_stddev_secs() - expected_sd).abs() < 1e-9);
    }

    #[test]
    fn benchmark_fraction_from_aggregate() {
        let r = result();
        assert!((r.benchmark_fraction() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn node_count_lookup() {
        let r = result();
        assert_eq!(r.node_count_at(SimTime::ZERO), 8);
        assert_eq!(r.node_count_at(SimTime::from_secs(49)), 8);
        assert_eq!(r.node_count_at(SimTime::from_secs(50)), 16);
        assert_eq!(r.node_count_at(SimTime::from_secs(1000)), 12);
        assert_eq!(r.final_node_count(), 12);
    }

    #[test]
    fn empty_iterations_are_safe() {
        let mut r = result();
        r.iteration_durations.clear();
        assert_eq!(r.mean_iteration_secs(), 0.0);
        assert_eq!(r.iteration_stddev_secs(), 0.0);
        assert_eq!(r.max_iteration_secs(), 0.0);
    }
}
