//! The paper's evaluation scenarios (§5).
//!
//! All scenarios run the Barnes-Hut-profile iterative workload on a DAS-2
//! pool. The paper's "reasonable" configuration is 36 nodes spread over 3
//! clusters (12 each), at which the application runs at efficiency ≈ 0.5;
//! one iteration takes ~10 s there. Scenario perturbations follow the paper:
//! heavy CPU load (×10) on one cluster at t = 200 s, an uplink shaped to
//! ~100 KB/s, a light load making nodes ~2–3× slower, and two of three
//! clusters crashing at t = 200 s. Layouts and perturbation schedules live
//! in the checked-in `scenarios/s*.json` files, the one source both twins
//! read.

use sagrid_adapt::AdaptPolicy;
use sagrid_core::config::GridConfig;
use sagrid_core::ids::ClusterId;
use sagrid_core::rng::Xoshiro256StarStar;
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_core::workload::{IterativeWorkload, TreeShape};
use sagrid_scenario::ScenarioSpec;
use sagrid_simgrid::{AdaptMode, SimConfig, StealPolicy, TimingConfig};
use sagrid_simnet::{Injection, InjectionSchedule, ScheduledInjection};

/// Identifier of a paper scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScenarioId {
    /// Ideal run: measures adaptivity overhead (runtime1/2/3).
    S1Overhead,
    /// Expanding from too few nodes; sub-scenario a/b/c starts on 8/16/24.
    S2Expand(SubScenario),
    /// Heavy artificial load on one cluster's processors at t = 200 s.
    S3OverloadedCpus,
    /// One cluster's uplink shaped to ~100 KB/s.
    S4OverloadedLink,
    /// Shaped uplink + light load on a second cluster.
    S5CpusAndLink,
    /// Two of three clusters crash at t = 200 s.
    S6Crash,
    /// Million-node stress scenario: ~1 M nodes over 8 192 clusters with
    /// crash, slow-down and growth dynamics. Not part of the paper's
    /// evaluation (and deliberately excluded from [`ScenarioId::all`]) —
    /// it exists to exercise the timer-wheel event queue and the
    /// hierarchical coordinator at a scale where O(log n) event-queue and
    /// O(#clusters) victim-selection costs would dominate.
    MillionNode,
}

/// Sub-scenarios of scenario 2 (initial node counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SubScenario {
    /// Start on 8 nodes in 1 cluster.
    A,
    /// Start on 16 nodes in 2 clusters.
    B,
    /// Start on 24 nodes in 3 clusters.
    C,
}

impl ScenarioId {
    /// Every *paper* scenario, in paper order. [`ScenarioId::MillionNode`]
    /// is intentionally absent: reports and figure-regeneration sweeps
    /// iterate this list, and a million-node run has no figure to
    /// reproduce (benchmarks construct it explicitly via
    /// [`Scenario::million`]).
    pub fn all() -> Vec<ScenarioId> {
        vec![
            ScenarioId::S1Overhead,
            ScenarioId::S2Expand(SubScenario::A),
            ScenarioId::S2Expand(SubScenario::B),
            ScenarioId::S2Expand(SubScenario::C),
            ScenarioId::S3OverloadedCpus,
            ScenarioId::S4OverloadedLink,
            ScenarioId::S5CpusAndLink,
            ScenarioId::S6Crash,
        ]
    }

    /// Short label used in reports ("1", "2a", … "6").
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioId::S1Overhead => "1",
            ScenarioId::S2Expand(SubScenario::A) => "2a",
            ScenarioId::S2Expand(SubScenario::B) => "2b",
            ScenarioId::S2Expand(SubScenario::C) => "2c",
            ScenarioId::S3OverloadedCpus => "3",
            ScenarioId::S4OverloadedLink => "4",
            ScenarioId::S5CpusAndLink => "5",
            ScenarioId::S6Crash => "6",
            ScenarioId::MillionNode => "M",
        }
    }

    /// Human-readable description for report headers.
    pub fn description(&self) -> &'static str {
        match self {
            ScenarioId::S1Overhead => "ideal run (adaptivity overhead)",
            ScenarioId::S2Expand(SubScenario::A) => "expanding: start on 8 nodes",
            ScenarioId::S2Expand(SubScenario::B) => "expanding: start on 16 nodes",
            ScenarioId::S2Expand(SubScenario::C) => "expanding: start on 24 nodes",
            ScenarioId::S3OverloadedCpus => "overloaded processors",
            ScenarioId::S4OverloadedLink => "overloaded network link",
            ScenarioId::S5CpusAndLink => "overloaded processors + network link",
            ScenarioId::S6Crash => "crashing nodes (2 of 3 clusters)",
            ScenarioId::MillionNode => "million-node stress (crash + load + growth)",
        }
    }
}

/// A fully-specified experiment: scenario id + tuning shared across modes.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Which paper scenario this is.
    pub id: ScenarioId,
    /// Number of Barnes-Hut iterations.
    pub iterations: usize,
    /// Workload/engine RNG seed.
    pub seed: u64,
}

/// Iterations per run (the paper's figures span ~30–40 iterations).
pub const DEFAULT_ITERATIONS: usize = 48;
/// The shaped uplink bandwidth of scenarios 4 and 5 (bytes/second).
pub const SHAPED_UPLINK_BPS: f64 = 100_000.0;
/// When the scenario-3/6 perturbations strike (seconds).
pub const DISTURBANCE_AT_SECS: u64 = 200;

/// Clusters in the million-node stress scenario.
pub const MILLION_NODE_CLUSTERS: usize = 8_192;
/// Nodes per cluster in the million-node stress scenario (total 2^20).
pub const MILLION_NODE_PER_CLUSTER: usize = 128;
/// Clusters populated at t = 0 in the million-node scenario; the remaining
/// capacity is what adaptive growth can expand into.
pub const MILLION_NODE_INITIAL_CLUSTERS: usize = 7_680;

impl Scenario {
    /// The scenario with default length and seed.
    pub fn new(id: ScenarioId) -> Self {
        Self {
            id,
            iterations: DEFAULT_ITERATIONS,
            seed: 0x5A6D_1D00 + id.label().as_bytes()[0] as u64,
        }
    }

    /// A shortened variant for fast tests/benches.
    pub fn quick(id: ScenarioId) -> Self {
        Self {
            iterations: 10,
            ..Self::new(id)
        }
    }

    /// The million-node stress scenario. One iteration: a 2^20-node grid
    /// produces tens of millions of events (and ~30 s of virtual time —
    /// enough to cover every injection) per iteration, so the paper
    /// default of 48 would make a single benchmark run take an hour.
    pub fn million() -> Self {
        Self {
            iterations: 1,
            ..Self::new(ScenarioId::MillionNode)
        }
    }

    /// Builds the `SimConfig` for this scenario in the given mode. The six
    /// paper scenarios are the checked-in `scenarios/s*.json` files (the
    /// same files `grid-local --scenario-file` drives real processes
    /// from), with this scenario's length and seed applied.
    pub fn config(&self, mode: AdaptMode) -> SimConfig {
        let file = match self.id {
            ScenarioId::MillionNode => return self.million_node_config(mode),
            ScenarioId::S1Overhead => include_str!("../../../scenarios/s1.json"),
            ScenarioId::S2Expand(SubScenario::A) => include_str!("../../../scenarios/s2a.json"),
            ScenarioId::S2Expand(SubScenario::B) => include_str!("../../../scenarios/s2b.json"),
            ScenarioId::S2Expand(SubScenario::C) => include_str!("../../../scenarios/s2c.json"),
            ScenarioId::S3OverloadedCpus => include_str!("../../../scenarios/s3.json"),
            ScenarioId::S4OverloadedLink => include_str!("../../../scenarios/s4.json"),
            ScenarioId::S5CpusAndLink => include_str!("../../../scenarios/s5.json"),
            ScenarioId::S6Crash => include_str!("../../../scenarios/s6.json"),
        };
        let mut spec = ScenarioSpec::parse(file).expect("checked-in paper scenario parses");
        spec.iterations = self.iterations;
        spec.seed = self.seed;
        spec.sim_config(mode)
            .expect("checked-in paper scenario is a valid configuration")
    }

    /// The million-node stress configuration (see [`ScenarioId::MillionNode`]).
    ///
    /// * **Grid**: [`MILLION_NODE_CLUSTERS`] uniform clusters of
    ///   [`MILLION_NODE_PER_CLUSTER`] nodes (2^20 total);
    ///   [`MILLION_NODE_INITIAL_CLUSTERS`] of them are populated at t = 0,
    ///   leaving headroom for adaptive **growth**.
    /// * **Workload**: a deep irregular tree (≈ 100 k tasks per iteration)
    ///   so a meaningful fraction of the grid computes while the rest
    ///   exercises the steal/park/retry machinery — the event mix that
    ///   stresses near-future queue inserts.
    /// * **Perturbations**: heavy CPU load on 8 clusters at t = 2 s
    ///   (**slow**) and 4 whole-cluster crashes at t = 3 s (**crash**),
    ///   which at 128 nodes per cluster also drives the batched
    ///   crash-recovery path.
    fn million_node_config(&self, mode: AdaptMode) -> SimConfig {
        let grid = GridConfig::uniform(MILLION_NODE_CLUSTERS, MILLION_NODE_PER_CLUSTER);
        // ~160 k tasks (5-6-ary, depth 7) with chunky 10 s leaves and a
        // narrow spread. The run is a *bounded slice* of virtual time (see
        // `max_virtual_time` below): at this scale single-root random work
        // stealing needs minutes of virtual time to saturate the grid, and
        // every starved virtual second costs ~1 M probe events, so a
        // complete drain would take hundreds of millions of events without
        // exercising anything new after the first ~20 s.
        let shape = TreeShape {
            depth: 7,
            min_branch: 5,
            max_branch: 6,
            mean_leaf_work: SimDuration::from_secs(10),
            work_spread: 1.5,
            divide_work: SimDuration::from_millis(1),
            payload_bytes: 2 * 1024,
        };
        let mut rng = Xoshiro256StarStar::seeded(self.seed);
        let iterations: Vec<_> = (0..self.iterations)
            .map(|_| {
                let mut tree = shape.generate(&mut rng);
                tree.scale_payloads_by_subtree(shape.payload_bytes);
                tree
            })
            .collect();
        let workload = IterativeWorkload {
            name: format!("million-node(it={})", self.iterations),
            iterations,
        };
        let initial_layout = (0..MILLION_NODE_INITIAL_CLUSTERS)
            .map(|c| (ClusterId(c as u16), MILLION_NODE_PER_CLUSTER))
            .collect();
        let mut injections = Vec::new();
        for c in 0..8u16 {
            injections.push(ScheduledInjection {
                at: SimTime::from_secs(2),
                injection: Injection::CpuLoad {
                    cluster: ClusterId(c),
                    count: None,
                    factor: 2.0,
                },
            });
        }
        for c in 8..12u16 {
            injections.push(ScheduledInjection {
                at: SimTime::from_secs(3),
                injection: Injection::CrashCluster {
                    cluster: ClusterId(c),
                },
            });
        }
        SimConfig {
            grid,
            policy: AdaptPolicy::default(),
            initial_layout,
            workload,
            injections: InjectionSchedule::new(injections),
            mode,
            steal_policy: StealPolicy::ClusterAware,
            timing: TimingConfig {
                // A starved million-node grid generates hundreds of millions
                // of idle probes at the default 20 ms back-off base; pacing
                // retries 5x slower keeps the probe storm proportionate
                // without changing the dynamics.
                idle_retry_backoff: SimDuration::from_millis(100),
                // The bench measures a fixed 10 s slice of virtual time:
                // activation wave, benchmark wave, work distribution, the
                // t = 2 s load and t = 3 s crash perturbations, recovery and
                // adaptive growth all land inside it; what follows is just
                // more of the same steady-state mix. The run reports
                // `timed_out = true` by construction.
                max_virtual_time: SimDuration::from_secs(10),
                ..TimingConfig::default()
            },
            record_trace: false,
            feedback_tuning: false,
            hierarchical_coordinator: true,
            queue_backend: Default::default(),
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_build_valid_configs() {
        for id in ScenarioId::all() {
            let s = Scenario::quick(id);
            for mode in [AdaptMode::NoAdapt, AdaptMode::MonitorOnly, AdaptMode::Adapt] {
                s.config(mode)
                    .validate()
                    .unwrap_or_else(|e| panic!("scenario {} invalid: {e}", id.label()));
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = ScenarioId::all().iter().map(|s| s.label()).collect();
        labels.push(ScenarioId::MillionNode.label());
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ScenarioId::all().len() + 1);
    }

    #[test]
    fn million_node_config_is_valid_and_full_scale() {
        let cfg = Scenario::million().config(AdaptMode::Adapt);
        cfg.validate().expect("million-node config invalid");
        assert_eq!(cfg.grid.total_nodes(), 1 << 20);
        assert_eq!(
            cfg.initial_nodes(),
            MILLION_NODE_INITIAL_CLUSTERS * MILLION_NODE_PER_CLUSTER
        );
        assert!(cfg.injections.remaining() > 0);
        assert!(cfg.hierarchical_coordinator);
        // The workload must be big enough to put a real fraction of the
        // grid to work (≈ 100 k tasks per iteration).
        assert!(cfg.workload.iterations[0].len() > 50_000);
    }

    #[test]
    fn scenario2_layouts_grow_a_to_c() {
        let a = Scenario::new(ScenarioId::S2Expand(SubScenario::A))
            .config(AdaptMode::Adapt)
            .initial_nodes();
        let b = Scenario::new(ScenarioId::S2Expand(SubScenario::B))
            .config(AdaptMode::Adapt)
            .initial_nodes();
        let c = Scenario::new(ScenarioId::S2Expand(SubScenario::C))
            .config(AdaptMode::Adapt)
            .initial_nodes();
        assert_eq!((a, b, c), (8, 16, 24));
    }

    #[test]
    fn disturbance_scenarios_carry_injections() {
        for id in [
            ScenarioId::S3OverloadedCpus,
            ScenarioId::S4OverloadedLink,
            ScenarioId::S5CpusAndLink,
            ScenarioId::S6Crash,
        ] {
            let cfg = Scenario::quick(id).config(AdaptMode::Adapt);
            assert!(
                cfg.injections.remaining() > 0,
                "{} lacks injections",
                id.label()
            );
        }
    }
}
