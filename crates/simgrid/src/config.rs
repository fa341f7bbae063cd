//! Simulation configuration.

use sagrid_adapt::AdaptPolicy;
use sagrid_core::config::GridConfig;
use sagrid_core::ids::ClusterId;
use sagrid_core::time::SimDuration;
use sagrid_core::workload::IterativeWorkload;
use sagrid_simnet::{InjectionSchedule, QueueBackend};

/// Which parts of the adaptation machinery run (paper §5: runtime1/2/3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptMode {
    /// runtime1: no statistics collection, no benchmarking, no adaptation.
    NoAdapt,
    /// runtime3: statistics + benchmarking run (their overhead is paid) but
    /// the coordinator never changes the resource set.
    MonitorOnly,
    /// runtime2: full adaptation.
    Adapt,
}

impl AdaptMode {
    /// Whether nodes run benchmarks and send reports in this mode.
    pub fn monitors(self) -> bool {
        !matches!(self, AdaptMode::NoAdapt)
    }

    /// Whether the coordinator's decisions are executed.
    pub fn adapts(self) -> bool {
        matches!(self, AdaptMode::Adapt)
    }
}

/// Work-stealing victim-selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StealPolicy {
    /// Satin's cluster-aware random stealing (van Nieuwpoort et al.):
    /// synchronous random steals inside the cluster, overlapped with at
    /// most one outstanding *asynchronous* wide-area steal.
    ClusterAware,
    /// Plain random stealing: every steal is synchronous and targets a
    /// uniformly random node anywhere in the grid (the baseline CRS was
    /// shown to beat on wide-area systems; used by the ablation bench).
    RandomGlobal,
}

/// Latency/size constants of the simulated runtime system.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingConfig {
    /// Bytes of a steal request / empty reply message.
    pub steal_msg_bytes: u64,
    /// Work of the speed benchmark at relative speed 1.0.
    pub benchmark_work: SimDuration,
    /// Delay between a node grant and the node joining the computation
    /// (process launch, class loading, …).
    pub join_delay: SimDuration,
    /// Delay between a crash and the runtime noticing it (broken channels
    /// plus Satin's orphan-recovery bookkeeping).
    pub fault_detection_delay: SimDuration,
    /// Back-off before an out-of-work node retries stealing after every
    /// known victim came up empty.
    pub idle_retry_backoff: SimDuration,
    /// Hard wall-clock cap on the simulation (guards against pathological
    /// configurations looping forever).
    pub max_virtual_time: SimDuration,
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self {
            steal_msg_bytes: 64,
            benchmark_work: SimDuration::from_secs(4),
            join_delay: SimDuration::from_secs(5),
            fault_detection_delay: SimDuration::from_secs(3),
            idle_retry_backoff: SimDuration::from_millis(20),
            max_virtual_time: SimDuration::from_secs(4 * 3600),
        }
    }
}

/// Full specification of one simulated run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The grid (topology + pool capacity).
    pub grid: GridConfig,
    /// Adaptation policy for the coordinator.
    pub policy: AdaptPolicy,
    /// Initial resource set: `(cluster, node count)` pairs — "we start an
    /// application on any set of resources".
    pub initial_layout: Vec<(ClusterId, usize)>,
    /// The application.
    pub workload: IterativeWorkload,
    /// Scenario perturbations.
    pub injections: InjectionSchedule,
    /// runtime1 / runtime2 / runtime3.
    pub mode: AdaptMode,
    /// Victim selection policy.
    pub steal_policy: StealPolicy,
    /// Runtime-system constants.
    pub timing: TimingConfig,
    /// Record per-node activity traces ([`crate::trace`]). Off by default
    /// (traces cost memory proportional to activity transitions).
    pub record_trace: bool,
    /// Enable the §7 feedback tuner: the badness coefficients are refined
    /// at runtime based on whether past node-removal decisions actually
    /// improved efficiency.
    pub feedback_tuning: bool,
    /// Use the §7 hierarchical coordinator (one sub-coordinator per
    /// cluster, digests to the main coordinator) instead of the flat one.
    /// Decisions are identical; the main coordinator receives
    /// `O(clusters)` messages per period instead of `O(nodes)`.
    pub hierarchical_coordinator: bool,
    /// Future-event-list implementation for the simulation kernel; `None`
    /// is the timer wheel, the production queue at every grid size. Both
    /// backends produce bit-identical runs; `Some(QueueBackend::Heap)`
    /// exists so the equivalence tests can replay a run on the oracle.
    pub queue_backend: Option<QueueBackend>,
    /// Master RNG seed; every run with the same config and seed is
    /// bit-identical.
    pub seed: u64,
}

impl SimConfig {
    /// Total nodes in the initial layout.
    pub fn initial_nodes(&self) -> usize {
        self.initial_layout.iter().map(|&(_, n)| n).sum()
    }

    /// Sanity-checks the configuration against the grid.
    pub fn validate(&self) -> Result<(), String> {
        self.policy.validate()?;
        if self.initial_layout.is_empty() {
            return Err("initial layout must name at least one cluster".into());
        }
        for &(c, n) in &self.initial_layout {
            let Some(spec) = self.grid.clusters.get(c.index()) else {
                return Err(format!("initial layout names unknown cluster {c}"));
            };
            if n == 0 || n > spec.nodes {
                return Err(format!(
                    "initial layout requests {n} nodes from cluster {c} (capacity {})",
                    spec.nodes
                ));
            }
        }
        if self.workload.iterations.is_empty() {
            return Err("workload must have at least one iteration".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagrid_core::workload::barnes_hut_profile;

    fn base() -> SimConfig {
        SimConfig {
            grid: GridConfig::uniform(3, 12),
            policy: AdaptPolicy::default(),
            initial_layout: vec![(ClusterId(0), 12), (ClusterId(1), 12), (ClusterId(2), 12)],
            workload: barnes_hut_profile(2, 36, 10.0, 1),
            injections: InjectionSchedule::empty(),
            mode: AdaptMode::Adapt,
            steal_policy: StealPolicy::ClusterAware,
            timing: TimingConfig::default(),
            record_trace: false,
            feedback_tuning: false,
            hierarchical_coordinator: false,
            queue_backend: None,
            seed: 42,
        }
    }

    #[test]
    fn valid_config_passes() {
        base().validate().unwrap();
        assert_eq!(base().initial_nodes(), 36);
    }

    #[test]
    fn overcommitted_layout_rejected() {
        let mut c = base();
        c.initial_layout = vec![(ClusterId(0), 13)];
        assert!(c.validate().is_err());
    }

    #[test]
    fn unknown_cluster_rejected() {
        let mut c = base();
        c.initial_layout = vec![(ClusterId(9), 1)];
        assert!(c.validate().is_err());
    }

    #[test]
    fn empty_workload_rejected() {
        let mut c = base();
        c.workload.iterations.clear();
        assert!(c.validate().is_err());
    }

    #[test]
    fn mode_flags() {
        assert!(!AdaptMode::NoAdapt.monitors());
        assert!(AdaptMode::MonitorOnly.monitors());
        assert!(!AdaptMode::MonitorOnly.adapts());
        assert!(AdaptMode::Adapt.monitors() && AdaptMode::Adapt.adapts());
    }
}
