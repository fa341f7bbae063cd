//! The discrete-event grid engine.
//!
//! Wires together the event kernel, the network model, the resource pool
//! and the adaptation coordinator, and executes an iterative
//! divide-and-conquer workload with cluster-aware random work stealing.
//!
//! The engine is the DES twin of the threaded `sagrid-runtime`: the steal
//! protocol, the malleability flow (grant → join → steal → leave signal →
//! queue hand-off → release) and the fault-tolerance flow (crash → detect →
//! re-inject orphaned tasks) follow the same design, but time is virtual and
//! every run is deterministic.

use crate::batch::{BatchId, Batches};
use crate::config::{SimConfig, StealPolicy};
use crate::node::{NodeActivity, SimNode};
use crate::peers::PeerCache;
use crate::result::RunResult;
use sagrid_adapt::coordinator::{Coordinator, Decision, DecisionLogEntry, LearnedRequirements};
use sagrid_adapt::hierarchy::HierarchicalCoordinator;
use sagrid_adapt::BandwidthEstimator;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::metrics::{Counter, Gauge, Histogram, MetricEvent, Metrics, Value};
use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
use sagrid_core::stats::OverheadBreakdown;
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_core::workload::TaskTree;
use sagrid_sched::{AllocPolicy, NodeGrant, Requirements, ResourcePool};
use sagrid_simnet::{EventQueue, Injection, Network};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Engine events.
///
/// The enum is sized by its largest variant and the event queue moves
/// millions of these, so the hot variants are kept lean on purpose:
///
/// * steal tokens are plain `u64`s with `0` meaning "asynchronous (wide)
///   steal, no token" — real tokens start at 1 ([`SimNode::next_steal_token`]
///   pre-increments — so the niche is free;
/// * a stolen task travels as `(task, task_origin)` with
///   `task == NO_TASK` for an empty reply, instead of an `Option` tuple;
/// * message sizes are `u32` (a steal payload larger than 4 GiB is not a
///   message, it is a migration);
/// * batch-carrying rare events (leave hand-offs, crash recovery) embed a
///   4-byte [`BatchId`] into pooled [`Batches`] instead of a 24-byte `Vec`.
#[derive(Clone, Debug)]
enum Event {
    /// A granted node finishes its startup and joins the computation.
    Activate { node: NodeId, base_speed: f64 },
    /// A node finishes the task it was computing.
    TaskComplete { node: NodeId },
    /// A node finishes a benchmark run.
    BenchmarkDone { node: NodeId },
    /// A steal request arrives at the victim.
    StealRequest {
        thief: NodeId,
        victim: NodeId,
        /// Synchronous-steal token; `0` = asynchronous wide steal.
        token: u64,
        wide: bool,
    },
    /// A steal reply arrives back at the thief.
    StealReply {
        thief: NodeId,
        /// Stolen task arena index, or [`NO_TASK`] for an empty reply.
        task: u32,
        /// Origin (spawner) of the stolen task; meaningless when empty.
        task_origin: NodeId,
        /// Token echoed from the request; `0` = asynchronous wide steal.
        token: u64,
        wide: bool,
        /// Provenance for the bandwidth estimator (paper §3.3: bandwidth
        /// is estimated from measured data-transfer times).
        from_cluster: ClusterId,
        bytes: u32,
        sent_at: SimTime,
    },
    /// A completed task's result arrives back at its spawner's cluster.
    ResultArrive {
        from_cluster: ClusterId,
        to_cluster: ClusterId,
        bytes: u32,
        sent_at: SimTime,
    },
    /// A blocking result send has drained the sender's uplink.
    SendDone { node: NodeId },
    /// A leaving node's queued tasks arrive at a peer.
    TaskTransfer { to: NodeId, tasks: BatchId },
    /// An out-of-work node retries stealing.
    RetrySteal { node: NodeId, generation: u64 },
    /// The adaptation coordinator's periodic evaluation.
    CoordinatorTick,
    /// Scenario perturbations due now.
    ApplyInjections,
    /// The runtime noticed a crash: clean up and re-inject orphaned tasks.
    /// Scheduled `fault_detection_delay` after the injection; until it
    /// fires the victims are only *suspected*, so the coordinator holds
    /// fire on shrink decisions instead of reacting to their silence.
    RecoverCrash {
        victims: BatchId,
        tasks: BatchId,
        cluster: Option<ClusterId>,
    },
}

/// Sentinel for "no task" in [`Event::StealReply::task`].
const NO_TASK: u32 = u32::MAX;

/// Flat or hierarchical coordinator, behind one dispatching façade so the
/// engine is agnostic (paper §7: the hierarchy is a scalability fix, not a
/// behaviour change).
enum Coord {
    Flat(Coordinator),
    Hierarchical(HierarchicalCoordinator),
}

/// Calls the same method on whichever coordinator is active.
macro_rules! dispatch {
    ($coord:expr, $c:ident => $call:expr) => {
        match $coord {
            Coord::Flat($c) => $call,
            Coord::Hierarchical($c) => $call,
        }
    };
}

impl Coord {
    fn record_report(&mut self, report: sagrid_core::stats::MonitoringReport) {
        dispatch!(self, c => c.record_report(report))
    }

    fn record_benchmark(&mut self, node: NodeId, duration: SimDuration) {
        dispatch!(self, c => c.record_benchmark(node, duration))
    }

    fn node_gone(&mut self, node: NodeId) {
        dispatch!(self, c => c.node_gone(node))
    }

    fn observe_uplink(&mut self, cluster: ClusterId, bps: f64) {
        dispatch!(self, c => c.observe_uplink(cluster, bps))
    }

    fn evaluate(&mut self, now: SimTime, fastest: Option<f64>) -> Decision {
        dispatch!(self, c => c.evaluate(now, fastest))
    }

    fn main(&self) -> &Coordinator {
        match self {
            Coord::Flat(c) => c,
            Coord::Hierarchical(h) => h.main(),
        }
    }

    fn record_crashed(&mut self, nodes: &[NodeId], cluster: Option<ClusterId>) {
        dispatch!(self, c => c.record_crashed(nodes, cluster))
    }

    fn mark_suspects(&mut self, nodes: &[NodeId]) {
        dispatch!(self, c => c.mark_suspects(nodes))
    }
}

/// Pre-resolved registry handles for the engine's membership- and
/// decision-rate instrumentation. Per-steal statistics are deliberately
/// *not* here: the engine is single-threaded, so those are accumulated as
/// plain integers on the engine itself and folded into the registry once
/// at teardown — the steal hot path pays no atomics even with metrics on.
struct EngineMetrics {
    joins: Arc<Counter>,
    leaves: Arc<Counter>,
    crashes: Arc<Counter>,
    task_transfers: Arc<Counter>,
    injections: Arc<Counter>,
    decisions: Arc<Counter>,
    suspects_marked: Arc<Counter>,
    suspects_cleared: Arc<Counter>,
    holdfire_decisions: Arc<Counter>,
    nodes_alive: Arc<Gauge>,
    iteration_secs: Arc<Histogram>,
}

impl EngineMetrics {
    fn resolve(metrics: &Metrics) -> Option<Self> {
        if !metrics.is_enabled() {
            return None;
        }
        let c = |name: &str| metrics.counter(name).expect("registry is enabled");
        Some(Self {
            joins: c("des.node_joins"),
            leaves: c("des.node_leaves"),
            crashes: c("des.node_crashes"),
            task_transfers: c("des.task_transfers"),
            injections: c("des.injections"),
            decisions: c("des.decisions"),
            // Same names as the process-mode coordinatord, so scenario
            // assertions work against either twin's JSONL.
            suspects_marked: c("adapt.suspect.marked"),
            suspects_cleared: c("adapt.suspect.cleared"),
            holdfire_decisions: c("adapt.holdfire.decisions"),
            nodes_alive: metrics
                .gauge("des.nodes_alive")
                .expect("registry is enabled"),
            iteration_secs: metrics
                .histogram("des.iteration_secs", &[30, 60, 120, 240, 480, 960])
                .expect("registry is enabled"),
        })
    }
}

/// The simulation engine. Construct with [`GridSim::new`], execute with
/// [`GridSim::run`].
///
/// ```
/// use sagrid_adapt::AdaptPolicy;
/// use sagrid_core::config::GridConfig;
/// use sagrid_core::ids::ClusterId;
/// use sagrid_core::workload::barnes_hut_profile;
/// use sagrid_simgrid::{AdaptMode, GridSim, SimConfig, StealPolicy, TimingConfig};
/// use sagrid_simnet::InjectionSchedule;
///
/// let cfg = SimConfig {
///     grid: GridConfig::uniform(2, 4),
///     policy: AdaptPolicy::default(),
///     initial_layout: vec![(ClusterId(0), 4), (ClusterId(1), 4)],
///     workload: barnes_hut_profile(3, 8, 4.0, 42),
///     injections: InjectionSchedule::empty(),
///     mode: AdaptMode::Adapt,
///     steal_policy: StealPolicy::ClusterAware,
///     timing: TimingConfig::default(),
///     record_trace: false,
///     hierarchical_coordinator: false,
///     queue_backend: Default::default(),
///     seed: 42,
/// };
/// let result = GridSim::run(cfg);
/// assert_eq!(result.iteration_durations.len(), 3);
/// assert!(!result.timed_out);
/// ```
pub struct GridSim {
    cfg: SimConfig,
    queue: EventQueue<Event>,
    network: Network,
    pool: ResourcePool,
    coordinator: Coord,
    bandwidth: BandwidthEstimator,
    rng: Xoshiro256StarStar,
    /// Dense node table indexed by `NodeId` (pool ids are cluster-major over
    /// the whole grid).
    nodes: Vec<Option<SimNode>>,
    /// Per-cluster alive-peer lists, maintained incrementally on
    /// join/leave/crash instead of rescanned per steal attempt.
    alive: PeerCache,
    /// Reusable id buffer for per-tick snapshots of the alive set.
    scratch_ids: Vec<NodeId>,
    /// Pooled task batches referenced by [`Event::TaskTransfer`] /
    /// [`Event::RecoverCrash`] (events stay 4 bytes wide per batch).
    task_batches: Batches<(u32, NodeId)>,
    /// Pooled crash-victim lists referenced by [`Event::RecoverCrash`].
    victim_batches: Batches<NodeId>,
    /// Retry-chain staleness guards, indexed by node.
    retry_gen: Vec<u64>,
    /// Engine-side benchmark pacing: last benchmark start per node.
    last_bench_start: Vec<Option<SimTime>>,
    /// Load factor observed at each node's last benchmark (for the
    /// load-aware benchmarking extension).
    last_bench_load: Vec<Option<f64>>,
    /// Current iteration index and bookkeeping.
    iter: usize,
    tasks_remaining: usize,
    iteration_started: SimTime,
    /// Tasks orphaned while no node was alive to adopt them (`None` origin
    /// means "re-home to whichever node adopts it", used for iteration
    /// roots).
    orphans: Vec<(u32, Option<NodeId>)>,
    finished: bool,
    // --- results ---
    iteration_durations: Vec<SimDuration>,
    node_count_timeline: Vec<(SimTime, usize)>,
    /// Every decision's log entry, in order (the coordinator keeps only
    /// its latest).
    decisions: Vec<DecisionLogEntry>,
    efficiency_timeline: Vec<(SimTime, f64)>,
    cluster_ic_timeline: Vec<(SimTime, Vec<(ClusterId, f64)>)>,
    aggregate: OverheadBreakdown,
    timed_out: bool,
    /// Steal requests sent (sync and wide).
    steal_attempts: u64,
    /// Wide-area (inter-cluster) steal requests sent.
    wide_steal_attempts: u64,
    /// Steal requests per victim cluster, folded into the registry as
    /// `des.steals.to_cluster.<n>` at teardown.
    steals_by_cluster: Vec<u64>,
    /// Victim selections served by the incremental peer cache.
    peer_cache_hits: u64,
    /// The metrics registry handle (disabled by default; see
    /// [`GridSim::try_run_with_metrics`]).
    metrics: Metrics,
    /// Pre-resolved instrument handles, present only when enabled.
    em: Option<EngineMetrics>,
}

impl GridSim {
    /// Builds the engine; panics on an invalid configuration. Thin wrapper
    /// over [`GridSim::try_new`] for callers that construct configurations
    /// statically.
    pub fn new(cfg: SimConfig) -> Self {
        Self::try_new(cfg).expect("invalid simulation configuration")
    }

    /// Builds the engine, reporting an invalid configuration as an error
    /// instead of panicking — the right entry point when the configuration
    /// comes from user input (CLI flags, sweep generators).
    pub fn try_new(cfg: SimConfig) -> Result<Self, String> {
        Self::try_new_with_metrics(cfg, Metrics::disabled())
    }

    /// Fallible constructor wiring a metrics registry through every layer
    /// the engine owns (scheduler pool included). Pass
    /// [`Metrics::disabled`] for zero-overhead operation.
    pub fn try_new_with_metrics(cfg: SimConfig, metrics: Metrics) -> Result<Self, String> {
        cfg.validate()?;
        let network = Network::new(&cfg.grid);
        let mut pool = ResourcePool::new(&cfg.grid);
        pool.set_metrics(&metrics);
        let coordinator = if cfg.hierarchical_coordinator {
            Coord::Hierarchical(HierarchicalCoordinator::new(cfg.policy))
        } else {
            Coord::Flat(Coordinator::new(cfg.policy))
        };
        let rng = Xoshiro256StarStar::seeded(cfg.seed);
        let total = cfg.grid.total_nodes();
        let em = EngineMetrics::resolve(&metrics);
        Ok(Self {
            network,
            pool,
            coordinator,
            bandwidth: BandwidthEstimator::default(),
            rng,
            nodes: (0..total).map(|_| None).collect(),
            alive: PeerCache::new(cfg.grid.clusters.len(), total),
            scratch_ids: Vec::new(),
            task_batches: Batches::default(),
            victim_batches: Batches::default(),
            retry_gen: vec![0; total],
            last_bench_start: vec![None; total],
            last_bench_load: vec![None; total],
            iter: 0,
            tasks_remaining: 0,
            iteration_started: SimTime::ZERO,
            orphans: Vec::new(),
            finished: false,
            iteration_durations: Vec::new(),
            node_count_timeline: Vec::new(),
            decisions: Vec::new(),
            efficiency_timeline: Vec::new(),
            cluster_ic_timeline: Vec::new(),
            aggregate: OverheadBreakdown::default(),
            timed_out: false,
            steal_attempts: 0,
            wide_steal_attempts: 0,
            steals_by_cluster: vec![0; cfg.grid.clusters.len()],
            peer_cache_hits: 0,
            metrics,
            em,
            queue: EventQueue::with_backend(cfg.queue_backend.unwrap_or_default()),
            cfg,
        })
    }

    /// Runs the simulation to completion and returns the results. Panics
    /// on an invalid configuration (see [`GridSim::try_run`]).
    pub fn run(cfg: SimConfig) -> RunResult {
        Self::try_run(cfg).expect("invalid simulation configuration")
    }

    /// Runs the simulation to completion, reporting configuration errors
    /// instead of panicking.
    pub fn try_run(cfg: SimConfig) -> Result<RunResult, String> {
        Self::try_run_with_metrics(cfg, Metrics::disabled())
    }

    /// Runs with a live metrics registry: counters/gauges/histograms and
    /// structured events (injections, crashes, joins/leaves, decisions with
    /// full provenance) are recorded into `metrics` and snapshotted into
    /// [`RunResult::metrics`]. The simulated run itself is bit-identical to
    /// a metrics-disabled run.
    pub fn try_run_with_metrics(cfg: SimConfig, metrics: Metrics) -> Result<RunResult, String> {
        let mut sim = Self::try_new_with_metrics(cfg, metrics)?;
        sim.start();
        let cap = SimTime::ZERO + sim.cfg.timing.max_virtual_time;
        while !sim.finished {
            let Some((now, ev)) = sim.queue.pop() else {
                break;
            };
            if now > cap {
                sim.timed_out = true;
                break;
            }
            sim.handle(now, ev);
        }
        Ok(sim.into_result())
    }

    // ------------------------------------------------------------------
    // Setup
    // ------------------------------------------------------------------

    fn start(&mut self) {
        let grants = self.pool.allocate_initial(&self.cfg.initial_layout);
        for g in grants {
            // Initial nodes are already provisioned: activate at t=0.
            self.queue.push(
                SimTime::ZERO,
                Event::Activate {
                    node: g.node,
                    base_speed: g.base_speed,
                },
            );
        }
        // First iteration's root task: handed to the first activated node
        // via the orphan buffer (drained on activation).
        self.tasks_remaining = self.cur_tree().len();
        self.iteration_started = SimTime::ZERO;
        self.orphans.push((0, None));
        // Injection times are known upfront (deduplicated: one wake-up per
        // distinct time, however many perturbations share it).
        let times: BTreeSet<SimTime> = self.cfg.injections.upcoming_times().collect();
        for t in times {
            self.queue.push(t, Event::ApplyInjections);
        }
        if self.cfg.mode.monitors() {
            let period = self.cfg.policy.monitoring_period;
            self.queue
                .push(SimTime::ZERO + period, Event::CoordinatorTick);
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn cur_tree(&self) -> &TaskTree {
        &self.cfg.workload.iterations[self.iter]
    }

    fn node(&self, id: NodeId) -> &SimNode {
        self.nodes[id.index()]
            .as_ref()
            .expect("node referenced before activation")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut SimNode {
        self.nodes[id.index()]
            .as_mut()
            .expect("node referenced before activation")
    }

    fn record_node_count(&mut self, now: SimTime) {
        self.node_count_timeline.push((now, self.alive.len()));
        if let Some(em) = &self.em {
            em.nodes_alive.set(self.alive.len() as i64);
        }
    }

    /// Hands `tasks` to the lowest-id alive node (or stashes them if the
    /// computation momentarily has no nodes), waking it if it was waiting.
    fn adopt_tasks(&mut self, now: SimTime, tasks: Vec<(u32, NodeId)>) {
        if tasks.is_empty() {
            return;
        }
        let Some(target) = self.alive.lowest() else {
            self.orphans
                .extend(tasks.into_iter().map(|(t, o)| (t, Some(o))));
            return;
        };
        self.node_mut(target).deque.extend(tasks);
        if matches!(self.node(target).activity, NodeActivity::Waiting) {
            self.try_get_work(now, target);
        }
    }

    /// Hands an iteration root to the lowest-id alive node; the adopter
    /// becomes the task's origin (it plays the Barnes-Hut master).
    fn adopt_root(&mut self, now: SimTime, task: u32) {
        let Some(target) = self.alive.lowest() else {
            self.orphans.push((task, None));
            return;
        };
        self.node_mut(target).deque.push_back((task, target));
        if matches!(self.node(target).activity, NodeActivity::Waiting) {
            self.try_get_work(now, target);
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Activate { node, base_speed } => self.on_activate(now, node, base_speed),
            Event::TaskComplete { node } => self.on_task_complete(now, node),
            Event::BenchmarkDone { node } => self.on_benchmark_done(now, node),
            Event::StealRequest {
                thief,
                victim,
                token,
                wide,
            } => self.on_steal_request(now, thief, victim, token, wide),
            Event::StealReply {
                thief,
                task,
                task_origin,
                token,
                wide,
                from_cluster,
                bytes,
                sent_at,
            } => {
                if wide && task != NO_TASK {
                    // Measure the transfer: effective bandwidth as the
                    // application sees it, queueing included.
                    let elapsed = now.saturating_since(sent_at);
                    let thief_cluster = if self.alive.contains(thief) {
                        self.node(thief).cluster
                    } else {
                        self.pool.cluster_of(thief)
                    };
                    self.bandwidth
                        .observe(from_cluster, u64::from(bytes), elapsed);
                    self.bandwidth
                        .observe(thief_cluster, u64::from(bytes), elapsed);
                }
                let task = (task != NO_TASK).then_some((task, task_origin));
                self.on_steal_reply(now, thief, task, token, wide)
            }
            Event::ResultArrive {
                from_cluster,
                to_cluster,
                bytes,
                sent_at,
            } => {
                let elapsed = now.saturating_since(sent_at);
                self.bandwidth
                    .observe(from_cluster, u64::from(bytes), elapsed);
                self.bandwidth
                    .observe(to_cluster, u64::from(bytes), elapsed);
                self.on_result_arrive(now)
            }
            Event::SendDone { node } => self.on_send_done(now, node),
            Event::TaskTransfer { to, tasks } => {
                let tasks = self.task_batches.take(tasks);
                self.on_task_transfer(now, to, tasks)
            }
            Event::RetrySteal { node, generation } => self.on_retry(now, node, generation),
            Event::CoordinatorTick => self.on_coordinator_tick(now),
            Event::ApplyInjections => self.on_injections(now),
            Event::RecoverCrash {
                victims,
                tasks,
                cluster,
            } => {
                let victims = self.victim_batches.take(victims);
                let tasks = self.task_batches.take(tasks);
                self.on_recover(now, victims, tasks, cluster)
            }
        }
    }

    fn on_activate(&mut self, now: SimTime, id: NodeId, base_speed: f64) {
        if self.finished {
            return;
        }
        let cluster = self.pool.cluster_of(id);
        let mut node = SimNode::new(
            id,
            cluster,
            base_speed,
            now,
            self.cfg.policy.benchmark_overhead_budget,
            self.cfg.timing.benchmark_work,
        );
        if self.cfg.record_trace {
            node.trace = Some(crate::trace::NodeTrace::default());
        }
        // A node that left gracefully is released back to the pool and may
        // be granted again later (e.g. a grow request after a shrink); its
        // old incarnation — activity `Gone`, stats already merged into the
        // aggregate at leave time — is simply replaced. Activating a node
        // that is still alive would be a pool bookkeeping bug.
        let prev = self.nodes[id.index()].replace(node);
        assert!(
            prev.is_none_or(|p| matches!(p.activity, NodeActivity::Gone)),
            "node {id} activated while still alive"
        );
        self.alive.insert(id, cluster);
        self.record_node_count(now);
        if let Some(em) = &self.em {
            em.joins.inc();
            self.metrics.emit(
                MetricEvent::new(now.0, "join")
                    .with("node", Value::U64(u64::from(id.0)))
                    .with("cluster", Value::U64(u64::from(cluster.0))),
            );
        }
        // Adopt any orphaned tasks (including iteration roots, which are
        // re-homed to the adopter).
        let orphans = std::mem::take(&mut self.orphans);
        self.node_mut(id)
            .deque
            .extend(orphans.into_iter().map(|(t, o)| (t, o.unwrap_or(id))));
        self.try_get_work(now, id);
    }

    // ------------------------------------------------------------------
    // The scheduling core
    // ------------------------------------------------------------------

    /// Central decision point: called whenever a node is free to choose its
    /// next activity.
    fn try_get_work(&mut self, now: SimTime, id: NodeId) {
        if !self.alive.contains(id) {
            return;
        }
        // Only a node at a scheduling point may pick new work. This guard is
        // what makes re-entrant wake-ups safe: e.g. a task completion that
        // ends an iteration hands the new root to the lowest-id node — which
        // may be the completing node itself, already restarted by
        // `adopt_tasks` by the time the completion handler resumes.
        if !matches!(self.node(id).activity, NodeActivity::Waiting) {
            return;
        }
        // Invalidate pending retry chains for this node.
        self.retry_gen[id.index()] += 1;

        if self.node(id).leave_requested {
            self.perform_leave(now, id);
            return;
        }

        // Benchmark when due (monitoring modes only): once per monitoring
        // period, additionally throttled by the overhead budget.
        if self.cfg.mode.monitors() && self.benchmark_due(now, id) {
            let dur = {
                let n = self.node(id);
                n.execution_time(self.cfg.timing.benchmark_work)
            };
            self.last_bench_start[id.index()] = Some(now);
            self.last_bench_load[id.index()] = Some(self.node(id).load_factor);
            let until = now + dur;
            self.node_mut(id)
                .transition(now, NodeActivity::Benchmarking { until });
            self.queue.push(until, Event::BenchmarkDone { node: id });
            return;
        }

        // Local work first.
        if let Some((task, origin)) = self.node_mut(id).deque.pop_back() {
            self.start_computing(now, id, task, origin);
            return;
        }

        // Out of local work: steal.
        self.steal_phase(now, id);
    }

    fn benchmark_due(&self, now: SimTime, id: NodeId) -> bool {
        let n = self.node(id);
        if !n.bench.should_run(now) {
            return false;
        }
        let due = match self.last_bench_start[id.index()] {
            None => true,
            Some(start) => {
                // "The benchmark is run 1-2 times per monitoring period"
                // (paper §5.1): pace at half a period, with the budget-based
                // throttle in `bench.should_run` as the backstop.
                let half = SimDuration(self.cfg.policy.monitoring_period.0 / 2);
                now.saturating_since(start) >= half
            }
        };
        if !due {
            return false;
        }
        // Load-aware extension (§3.2): skip the re-run when the node's
        // load monitor reports no change since the last benchmark.
        if self.cfg.policy.load_aware_benchmarking {
            if let Some(last_load) = self.last_bench_load[id.index()] {
                if (last_load - n.load_factor).abs() < 1e-9 {
                    return false;
                }
            }
        }
        true
    }

    fn start_computing(&mut self, now: SimTime, id: NodeId, task: u32, origin: NodeId) {
        let work = self.cur_tree().node(task as usize).work;
        let dur = self.node(id).execution_time(work);
        let until = now + dur;
        self.node_mut(id).failed_attempts = 0;
        self.node_mut(id).consecutive_parks = 0;
        self.node_mut(id).transition(
            now,
            NodeActivity::Computing {
                task,
                origin,
                until,
            },
        );
        self.queue.push(until, Event::TaskComplete { node: id });
    }

    /// Issues steal attempts per the configured policy, or parks the node.
    ///
    /// Victim selection runs entirely on the incrementally maintained
    /// [`PeerCache`]: no candidate vector is materialized, and the single
    /// random draw per pick matches what indexing such a vector used to
    /// consume, so runs are bit-identical to the old scan-and-allocate code.
    fn steal_phase(&mut self, now: SimTime, id: NodeId) {
        let my_cluster = self.node(id).cluster;
        // CRS: keep one asynchronous wide-area steal outstanding whenever
        // the computation spans multiple clusters.
        if self.cfg.steal_policy == StealPolicy::ClusterAware && !self.node(id).wide_outstanding {
            if let Some(victim) = self.alive.pick_other_cluster(my_cluster, &mut self.rng) {
                self.peer_cache_hits += 1;
                self.node_mut(id).wide_outstanding = true;
                self.send_steal_request(now, id, victim, 0, true);
            }
        }

        // Synchronous attempt.
        let peer_count = match self.cfg.steal_policy {
            StealPolicy::ClusterAware => self.alive.in_cluster_peers(my_cluster),
            StealPolicy::RandomGlobal => self.alive.peers_anywhere(),
        };
        let burst = (peer_count as u32).clamp(1, 4);
        if peer_count > 0 && self.node(id).failed_attempts < burst {
            let victim = match self.cfg.steal_policy {
                StealPolicy::ClusterAware => {
                    self.alive.pick_in_cluster(id, my_cluster, &mut self.rng)
                }
                StealPolicy::RandomGlobal => {
                    self.alive.pick_anywhere(id, my_cluster, &mut self.rng)
                }
            }
            .expect("peer_count > 0 guarantees a victim");
            self.peer_cache_hits += 1;
            let wide = self.node(victim).cluster != my_cluster;
            let token = self.node_mut(id).next_steal_token();
            self.node_mut(id)
                .transition(now, NodeActivity::SyncSteal { token, wide });
            self.send_steal_request(now, id, victim, token, wide);
            return;
        }

        // Exhausted: park and retry later (a wide reply may also wake us).
        // Exponential back-off: a node that keeps coming up empty probes
        // less and less often (up to 64× the base back-off), so a starved
        // grid does not collapse under probe storms — the same reason real
        // work-stealing runtimes throttle idle thieves.
        self.node_mut(id).failed_attempts = 0;
        self.node_mut(id).consecutive_parks = (self.node(id).consecutive_parks + 1).min(6);
        self.node_mut(id).transition(now, NodeActivity::Waiting);
        let backoff = {
            let base = self.cfg.timing.idle_retry_backoff;
            let scaled = base.mul_f64(f64::from(1u32 << self.node(id).consecutive_parks));
            // Small deterministic jitter de-synchronizes retry storms.
            let jitter = SimDuration::from_micros(self.rng.gen_range(5_000));
            scaled + jitter
        };
        let generation = self.retry_gen[id.index()];
        self.queue.push(
            now + backoff,
            Event::RetrySteal {
                node: id,
                generation,
            },
        );
    }

    fn send_steal_request(
        &mut self,
        now: SimTime,
        thief: NodeId,
        victim: NodeId,
        token: u64,
        wide: bool,
    ) {
        self.steal_attempts += 1;
        self.wide_steal_attempts += wide as u64;
        let from = self.node(thief).cluster;
        let to = self.node(victim).cluster;
        self.steals_by_cluster[to.index()] += 1;
        let d = self
            .network
            .deliver(now, from, to, self.cfg.timing.steal_msg_bytes);
        self.queue.push(
            d.arrives_at,
            Event::StealRequest {
                thief,
                victim,
                token,
                wide,
            },
        );
    }

    fn on_steal_request(
        &mut self,
        now: SimTime,
        thief: NodeId,
        victim: NodeId,
        token: u64,
        wide: bool,
    ) {
        // A dead/left victim cannot answer; model the thief's timeout as an
        // empty reply over the same path.
        let (task, victim_cluster) = if self.alive.contains(victim) {
            let t = self.node_mut(victim).deque.pop_front();
            (t, self.node(victim).cluster)
        } else {
            (None, self.pool.cluster_of(victim))
        };
        let payload = match task {
            Some((t, _)) => {
                self.cfg.timing.steal_msg_bytes + self.cur_tree().node(t as usize).payload_bytes
            }
            None => self.cfg.timing.steal_msg_bytes,
        };
        // The thief may itself be gone by delivery time; the reply handler
        // re-injects the task in that case.
        let thief_cluster = if self.alive.contains(thief) {
            self.node(thief).cluster
        } else {
            self.pool.cluster_of(thief)
        };
        let d = self
            .network
            .deliver(now, victim_cluster, thief_cluster, payload);
        let (task, task_origin) = match task {
            Some((t, o)) => (t, o),
            None => (NO_TASK, thief),
        };
        self.queue.push(
            d.arrives_at,
            Event::StealReply {
                thief,
                task,
                task_origin,
                token,
                wide,
                from_cluster: victim_cluster,
                bytes: u32::try_from(payload).unwrap_or(u32::MAX),
                sent_at: now,
            },
        );
    }

    fn on_steal_reply(
        &mut self,
        now: SimTime,
        thief: NodeId,
        task: Option<(u32, NodeId)>,
        token: u64,
        wide: bool,
    ) {
        if !self.alive.contains(thief) {
            // The thief left or crashed while the reply was in flight; the
            // task must not be lost (Satin re-executes orphans).
            if let Some(t) = task {
                self.adopt_tasks(now, vec![t]);
            }
            return;
        }
        if wide && token == 0 {
            self.node_mut(thief).wide_outstanding = false;
        }
        // Real tokens start at 1, so an asynchronous reply (token 0) never
        // matches a node blocked on a synchronous steal.
        let awaited = matches!(
            self.node(thief).activity,
            NodeActivity::SyncSteal { token: t, .. } if t == token
        );
        if awaited {
            match task {
                Some((t, o)) => self.start_computing(now, thief, t, o),
                None => {
                    // Attribute the failed steal's wait, then rejoin the
                    // scheduling loop from the Waiting state.
                    self.node_mut(thief).transition(now, NodeActivity::Waiting);
                    self.node_mut(thief).failed_attempts += 1;
                    self.try_get_work(now, thief);
                }
            }
            return;
        }
        // Asynchronous (wide) reply, or a reply that raced a state change.
        match task {
            Some(t) => {
                if matches!(self.node(thief).activity, NodeActivity::Waiting) {
                    // The node was starved and this transfer fed it: the
                    // wait was (inter-cluster) communication, not idleness.
                    self.node_mut(thief).absorb_wait_as_comm(now, !wide);
                    self.node_mut(thief).deque.push_back(t);
                    self.try_get_work(now, thief);
                } else {
                    self.node_mut(thief).deque.push_back(t);
                }
            }
            None => {
                // Empty wide reply: do NOT re-probe immediately — the
                // parked node's retry chain re-issues the wide steal at its
                // backed-off pace. Immediate re-probing congests exactly the
                // links that are already the bottleneck.
            }
        }
    }

    fn on_task_complete(&mut self, now: SimTime, id: NodeId) {
        if !self.alive.contains(id) {
            return; // crashed mid-compute; recovery re-injects the task
        }
        let NodeActivity::Computing {
            task,
            origin,
            until,
        } = self.node(id).activity
        else {
            return; // stale event (node was re-scheduled by recovery paths)
        };
        if until != now {
            return; // stale completion from a superseded schedule
        }
        // Spawn children into the local deque (LIFO execution order); the
        // executor becomes their origin. `children` is a plain index range,
        // so no intermediate vector is needed.
        let children = self.cur_tree().children(task as usize);
        {
            let n = self.node_mut(id);
            n.transition(now, NodeActivity::Waiting); // attribute busy time
            n.deque.extend(children.map(|c| (c as u32, id)));
        }
        // Return the result to the spawner. A result crossing cluster
        // boundaries is a real wide-area transfer (Satin ships the child's
        // result back to the parent's owner): the iteration barrier waits
        // for its delivery, and the *sender blocks* until the bytes drain
        // its uplink (TCP backpressure) — blocked-send time is exactly the
        // inter-cluster communication overhead the badness formulas key on.
        let origin_cluster = self.pool.cluster_of(origin);
        let exec_cluster = self.node(id).cluster;
        if origin_cluster != exec_cluster {
            let bytes =
                self.cfg.timing.steal_msg_bytes + self.cur_tree().node(task as usize).payload_bytes;
            let d = self
                .network
                .deliver(now, exec_cluster, origin_cluster, bytes);
            self.queue.push(
                d.arrives_at,
                Event::ResultArrive {
                    from_cluster: exec_cluster,
                    to_cluster: origin_cluster,
                    bytes: u32::try_from(bytes).unwrap_or(u32::MAX),
                    sent_at: now,
                },
            );
            if d.src_clear_at > now {
                self.node_mut(id).transition(
                    now,
                    NodeActivity::Sending {
                        until: d.src_clear_at,
                        wide: true,
                    },
                );
                self.queue
                    .push(d.src_clear_at, Event::SendDone { node: id });
                return;
            }
        } else {
            self.task_accounted(now);
            if self.finished {
                return;
            }
        }
        self.try_get_work(now, id);
    }

    fn on_send_done(&mut self, now: SimTime, id: NodeId) {
        if !self.alive.contains(id) {
            return;
        }
        let NodeActivity::Sending { until, .. } = self.node(id).activity else {
            return;
        };
        if until != now {
            return;
        }
        self.node_mut(id).transition(now, NodeActivity::Waiting);
        self.try_get_work(now, id);
    }

    fn on_result_arrive(&mut self, now: SimTime) {
        if self.finished {
            return;
        }
        self.task_accounted(now);
    }

    /// One task fully done (executed *and* its result home): advance the
    /// iteration barrier.
    fn task_accounted(&mut self, now: SimTime) {
        self.tasks_remaining -= 1;
        if self.tasks_remaining == 0 {
            self.end_iteration(now);
        }
    }

    fn end_iteration(&mut self, now: SimTime) {
        let dur = now.saturating_since(self.iteration_started);
        self.iteration_durations.push(dur);
        if let Some(em) = &self.em {
            em.iteration_secs.record(dur.0 / 1_000_000);
        }
        self.iter += 1;
        if self.iter >= self.cfg.workload.iterations.len() {
            self.finished = true;
            return;
        }
        self.iteration_started = now;
        self.tasks_remaining = self.cur_tree().len();
        // The new root goes to the lowest-id alive node (the "master" in
        // the paper's Barnes-Hut: the tree is rebuilt and redistributed).
        self.adopt_root(now, 0);
    }

    fn on_benchmark_done(&mut self, now: SimTime, id: NodeId) {
        if !self.alive.contains(id) {
            return;
        }
        let NodeActivity::Benchmarking { until } = self.node(id).activity else {
            return;
        };
        if until != now {
            return;
        }
        let start = self.node(id).activity_since;
        let dur = now.saturating_since(start);
        {
            let n = self.node_mut(id);
            n.transition(now, NodeActivity::Waiting);
            n.bench.record_run(start, dur);
            n.last_bench_duration = Some(dur);
        }
        self.try_get_work(now, id);
    }

    fn on_task_transfer(&mut self, now: SimTime, to: NodeId, tasks: Vec<(u32, NodeId)>) {
        if self.alive.contains(to) {
            self.node_mut(to).deque.extend(tasks);
            if matches!(self.node(to).activity, NodeActivity::Waiting) {
                self.try_get_work(now, to);
            }
        } else {
            self.adopt_tasks(now, tasks);
        }
    }

    fn on_retry(&mut self, now: SimTime, id: NodeId, generation: u64) {
        if !self.alive.contains(id) || self.retry_gen[id.index()] != generation {
            return;
        }
        if matches!(self.node(id).activity, NodeActivity::Waiting) {
            self.try_get_work(now, id);
        }
    }

    // ------------------------------------------------------------------
    // Malleability: leaving, joining, crashing
    // ------------------------------------------------------------------

    fn perform_leave(&mut self, now: SimTime, id: NodeId) {
        // Merge the node's final partial period into the aggregate so time
        // conservation holds across the whole run.
        {
            let n = self.node_mut(id);
            n.flush_stats(now);
            let report = n.stats.take_report(now, 1.0);
            self.aggregate.merge(&report.breakdown);
        }
        let queued: Vec<(u32, NodeId)> = self.node_mut(id).deque.drain(..).collect();
        let cluster = self.node(id).cluster;
        self.node_mut(id).transition(now, NodeActivity::Gone);
        self.alive.remove(id, cluster);
        self.pool.release(id);
        self.coordinator.node_gone(id);
        self.record_node_count(now);
        if let Some(em) = &self.em {
            em.leaves.inc();
            self.metrics.emit(
                MetricEvent::new(now.0, "leave")
                    .with("node", Value::U64(u64::from(id.0)))
                    .with("cluster", Value::U64(u64::from(cluster.0)))
                    .with("queued_tasks", Value::U64(queued.len() as u64)),
            );
        }
        if !queued.is_empty() {
            // Hand the queue to a peer; the transfer crosses the network.
            if let Some(target) = self.alive.lowest() {
                let bytes: u64 = queued
                    .iter()
                    .map(|&(t, _)| self.cur_tree().node(t as usize).payload_bytes)
                    .sum();
                let d = self.network.deliver(
                    now,
                    self.pool.cluster_of(id),
                    self.node(target).cluster,
                    bytes,
                );
                if let Some(em) = &self.em {
                    em.task_transfers.inc();
                    self.metrics.emit(
                        MetricEvent::new(now.0, "task_transfer")
                            .with("from", Value::U64(u64::from(id.0)))
                            .with("to", Value::U64(u64::from(target.0)))
                            .with("tasks", Value::U64(queued.len() as u64))
                            .with("bytes", Value::U64(bytes)),
                    );
                }
                self.queue.push(
                    d.arrives_at,
                    Event::TaskTransfer {
                        to: target,
                        tasks: self.task_batches.put(queued),
                    },
                );
            } else {
                self.orphans
                    .extend(queued.into_iter().map(|(t, o)| (t, Some(o))));
            }
        }
    }

    fn crash_node(&mut self, now: SimTime, id: NodeId) -> Vec<(u32, NodeId)> {
        let mut tasks: Vec<(u32, NodeId)> = Vec::new();
        let cluster;
        {
            let n = self.node_mut(id);
            n.flush_stats(now);
            // A crashed node's statistics are lost with it — they are NOT
            // merged into the aggregate (the coordinator never sees them
            // either). We deliberately drop the partial period.
            if let NodeActivity::Computing { task, origin, .. } = n.activity {
                tasks.push((task, origin));
            }
            tasks.extend(n.deque.drain(..));
            cluster = n.cluster;
            n.transition(now, NodeActivity::Gone);
        }
        self.alive.remove(id, cluster);
        self.pool.mark_lost(id);
        self.record_node_count(now);
        if let Some(em) = &self.em {
            em.crashes.inc();
        }
        tasks
    }

    fn on_recover(
        &mut self,
        now: SimTime,
        victims: Vec<NodeId>,
        tasks: Vec<(u32, NodeId)>,
        cluster: Option<ClusterId>,
    ) {
        // The detection window closes here: the suspicion raised at
        // injection time resolves into confirmed deaths, which clears the
        // suspects and applies the blacklist policy (whole site for a
        // cluster outage, just the victims otherwise).
        self.coordinator.record_crashed(&victims, cluster);
        if let Some(em) = &self.em {
            em.suspects_cleared.add(victims.len() as u64);
        }
        self.adopt_tasks(now, tasks);
    }

    // ------------------------------------------------------------------
    // Injections
    // ------------------------------------------------------------------

    fn on_injections(&mut self, now: SimTime) {
        let due = {
            let mut injections = Vec::new();
            for s in self.cfg.injections.pop_due(now) {
                injections.push(s.injection);
            }
            injections
        };
        for inj in due {
            if let Some(em) = &self.em {
                em.injections.inc();
            }
            match inj {
                Injection::CpuLoad {
                    cluster,
                    count,
                    factor,
                } => {
                    // Disjoint field borrows: the member list lives in the
                    // peer cache, the load knobs in the node table.
                    let members = self.alive.members(cluster);
                    let take = count.unwrap_or(members.len()).min(members.len());
                    for &m in &members[..take] {
                        self.nodes[m.index()]
                            .as_mut()
                            .expect("alive node must exist")
                            .set_load_factor(factor.max(1.0));
                    }
                    if self.metrics.is_enabled() {
                        self.metrics.emit(
                            MetricEvent::new(now.0, "injection")
                                .with("injection", Value::Str("cpu_load".to_string()))
                                .with("cluster", Value::U64(u64::from(cluster.0)))
                                .with("nodes", Value::U64(take as u64))
                                .with("factor", Value::F64(factor)),
                        );
                    }
                }
                Injection::UplinkBandwidth {
                    cluster,
                    bandwidth_bps,
                } => {
                    self.network.set_uplink_bandwidth(cluster, bandwidth_bps);
                    if self.metrics.is_enabled() {
                        self.metrics.emit(
                            MetricEvent::new(now.0, "injection")
                                .with("injection", Value::Str("uplink_bandwidth".to_string()))
                                .with("cluster", Value::U64(u64::from(cluster.0)))
                                .with("bps", Value::F64(bandwidth_bps)),
                        );
                    }
                }
                Injection::CrashCluster { cluster } => {
                    let victims = self.alive.members(cluster).to_vec();
                    // Fail-stop site failure. The coordinator does NOT learn
                    // of the deaths yet — for `fault_detection_delay` it only
                    // sees silence, so the victims are marked Suspect and the
                    // hold-fire rule keeps survivors safe until RecoverCrash
                    // confirms the deaths and blacklists the whole site
                    // (paper §5, scenario 6).
                    self.coordinator.mark_suspects(&victims);
                    if let Some(em) = &self.em {
                        em.suspects_marked.add(victims.len() as u64);
                    }
                    if self.metrics.is_enabled() {
                        self.metrics.emit(
                            MetricEvent::new(now.0, "injection")
                                .with("injection", Value::Str("crash_cluster".to_string()))
                                .with("cluster", Value::U64(u64::from(cluster.0)))
                                .with("nodes", Value::U64(victims.len() as u64)),
                        );
                    }
                    self.crash_many(now, victims, Some(cluster));
                }
                Injection::CrashNodes { cluster, count } => {
                    let victims: Vec<NodeId> = self
                        .alive
                        .members(cluster)
                        .iter()
                        .copied()
                        .take(count)
                        .collect();
                    // Partial failure: suspicion now, and at detection time
                    // blacklist only the victims, not the site.
                    self.coordinator.mark_suspects(&victims);
                    if let Some(em) = &self.em {
                        em.suspects_marked.add(victims.len() as u64);
                    }
                    if self.metrics.is_enabled() {
                        self.metrics.emit(
                            MetricEvent::new(now.0, "injection")
                                .with("injection", Value::Str("crash_nodes".to_string()))
                                .with("cluster", Value::U64(u64::from(cluster.0)))
                                .with("nodes", Value::U64(victims.len() as u64)),
                        );
                    }
                    self.crash_many(now, victims, None);
                }
                Injection::Grow { count, prefer } => {
                    // An externally granted capacity increase rides the same
                    // path as a coordinator Add: blacklists are honored and
                    // the nodes activate after the join delay.
                    let prefer: Vec<ClusterId> = prefer.into_iter().collect();
                    self.request_nodes(now, count, LearnedRequirements::default(), &prefer);
                    if self.metrics.is_enabled() {
                        self.metrics.emit(
                            MetricEvent::new(now.0, "injection")
                                .with("injection", Value::Str("grow".to_string()))
                                .with("count", Value::U64(count as u64)),
                        );
                    }
                }
                Injection::Shrink { cluster, count } => {
                    let victims: Vec<NodeId> = self
                        .alive
                        .members(cluster)
                        .iter()
                        .copied()
                        .take(count)
                        .collect();
                    if self.metrics.is_enabled() {
                        self.metrics.emit(
                            MetricEvent::new(now.0, "injection")
                                .with("injection", Value::Str("shrink".to_string()))
                                .with("cluster", Value::U64(u64::from(cluster.0)))
                                .with("nodes", Value::U64(victims.len() as u64)),
                        );
                    }
                    self.signal_leave(now, &victims);
                }
            }
        }
    }

    fn crash_many(&mut self, now: SimTime, victims: Vec<NodeId>, cluster: Option<ClusterId>) {
        if victims.is_empty() {
            return;
        }
        let mut tasks = Vec::new();
        for &v in &victims {
            tasks.extend(self.crash_node(now, v));
        }
        if self.metrics.is_enabled() {
            self.metrics.emit(
                MetricEvent::new(now.0, "crash")
                    .with(
                        "victims",
                        Value::Raw(sagrid_core::json::u64_array(
                            victims.iter().map(|v| u64::from(v.0)),
                        )),
                    )
                    .with("orphaned_tasks", Value::U64(tasks.len() as u64)),
            );
        }
        self.queue.push(
            now + self.cfg.timing.fault_detection_delay,
            Event::RecoverCrash {
                victims: self.victim_batches.put(victims),
                tasks: self.task_batches.put(tasks),
                cluster,
            },
        );
    }

    // ------------------------------------------------------------------
    // The adaptation coordinator's period
    // ------------------------------------------------------------------

    fn on_coordinator_tick(&mut self, now: SimTime) {
        if self.finished {
            return;
        }
        // Pull reports from every alive node (the coordinator misses nodes
        // mid-steal etc.; it then relies on their previous report, which
        // `Coordinator` keeps). The id snapshot reuses a scratch buffer so
        // periodic ticks allocate nothing once warmed up.
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        ids.extend(self.alive.iter());
        let mut raw = Vec::with_capacity(ids.len());
        for &id in &ids {
            let n = self.node_mut(id);
            n.flush_stats(now);
            // The coordinator scales the speed once every benchmark is in.
            raw.push(n.stats.take_report(now, 1.0));
            if let Some(d) = n.last_bench_duration {
                self.coordinator.record_benchmark(id, d);
            }
        }
        self.scratch_ids = ids;
        // Per-cluster ic-overhead telemetry (mirrors what the coordinator's
        // exceptional-cluster rule sees).
        let mut per_cluster: std::collections::BTreeMap<ClusterId, (f64, usize)> =
            std::collections::BTreeMap::new();
        for report in &raw {
            let e = per_cluster.entry(report.cluster).or_insert((0.0, 0));
            e.0 += report.ic_overhead_fraction();
            e.1 += 1;
        }
        self.cluster_ic_timeline.push((
            now,
            per_cluster
                .into_iter()
                .map(|(c, (sum, n))| (c, sum / n.max(1) as f64))
                .collect(),
        ));
        for report in raw {
            self.aggregate.merge(&report.breakdown);
            self.coordinator.record_report(report);
        }
        // Bandwidth observations, estimated from the data-transfer times
        // the estimator accumulated this period (paper §3.3) — the
        // coordinator never reads the network model directly.
        let clusters: Vec<ClusterId> = self.alive.participating_clusters().collect();
        for c in clusters {
            if let Some(bw) = self.bandwidth.estimate(c) {
                self.coordinator.observe_uplink(c, bw);
            }
        }
        let eff = self.coordinator.main().current_wa_efficiency();
        self.efficiency_timeline.push((now, eff));

        if self.cfg.mode.adapts() {
            let fastest_available = self.fastest_free_speed();
            let decision = self.coordinator.evaluate(now, fastest_available);
            let entry = self
                .coordinator
                .main()
                .last_decision()
                .expect("evaluate logs");
            if let Some(em) = &self.em {
                em.decisions.inc();
                // Every decision becomes a provenance event: the wa_eff,
                // per-node badness terms and blacklist/learned state that
                // produced it, reconstructible from the JSONL stream alone.
                if entry.hold_fire.is_some() {
                    em.holdfire_decisions.inc();
                }
                self.metrics.emit(crate::provenance::decision_event(entry));
            }
            self.decisions.push(entry.clone());
            self.apply_decision(now, decision);
        }

        self.queue.push(
            now + self.cfg.policy.monitoring_period,
            Event::CoordinatorTick,
        );
    }

    /// Best base speed among free, non-blacklisted nodes (advertised to the
    /// opportunistic-migration extension).
    fn fastest_free_speed(&self) -> Option<f64> {
        let blacklisted = self.coordinator.main().blacklisted_clusters();
        self.cfg
            .grid
            .clusters
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let c = ClusterId(*i as u16);
                !blacklisted.contains(&c) && self.pool.free_in_cluster(c) > 0
            })
            .map(|(_, spec)| spec.node_speed)
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.max(s)))
            })
    }

    fn apply_decision(&mut self, now: SimTime, decision: Decision) {
        match decision {
            Decision::None => {}
            Decision::Add {
                count,
                requirements,
                prefer,
            } => {
                self.request_nodes(now, count, requirements, &prefer);
            }
            Decision::RemoveNodes { nodes } => self.signal_leave(now, &nodes),
            Decision::RemoveCluster { cluster, nodes } => {
                // Make the learned bandwidth usable by the scheduler too.
                let estimate = self
                    .bandwidth
                    .estimate(cluster)
                    .unwrap_or_else(|| self.network.uplink_bandwidth(cluster));
                self.pool.set_uplink_estimate(cluster, estimate);
                self.signal_leave(now, &nodes);
            }
            Decision::OpportunisticSwap {
                remove,
                add,
                requirements,
            } => {
                self.request_nodes(now, add, requirements, &[]);
                self.signal_leave(now, &remove);
            }
        }
    }

    fn request_nodes(
        &mut self,
        now: SimTime,
        count: usize,
        req: LearnedRequirements,
        prefer: &[ClusterId],
    ) {
        let requirements = Requirements {
            min_uplink_bps: req.min_uplink_bps,
            min_speed: req.min_speed,
        };
        let alloc = if self.cfg.policy.opportunistic_migration {
            AllocPolicy::FastestFirst
        } else {
            AllocPolicy::LocalityAware
        };
        let (bl_nodes, bl_clusters) = {
            let main = self.coordinator.main();
            (
                main.blacklisted_nodes().clone(),
                main.blacklisted_clusters().clone(),
            )
        };
        let grants: Vec<NodeGrant> =
            self.pool
                .request(count, alloc, &requirements, &bl_nodes, &bl_clusters, prefer);
        for g in grants {
            self.queue.push(
                now + self.cfg.timing.join_delay,
                Event::Activate {
                    node: g.node,
                    base_speed: g.base_speed,
                },
            );
        }
    }

    fn signal_leave(&mut self, now: SimTime, nodes: &[NodeId]) {
        // Signal each alive node once (the paper's coordinator uses the
        // Ibis registry's signal facility to notify nodes).
        for &id in nodes {
            if !self.alive.contains(id) || self.node(id).leave_requested {
                continue;
            }
            self.node_mut(id).leave_requested = true;
            if matches!(self.node(id).activity, NodeActivity::Waiting) {
                self.try_get_work(now, id);
            }
        }
    }

    // ------------------------------------------------------------------
    // Teardown
    // ------------------------------------------------------------------

    fn into_result(mut self) -> RunResult {
        let now = self.queue.now();
        // Fold the final partial period of surviving nodes into the
        // aggregate.
        let ids: Vec<NodeId> = self.alive.iter().collect();
        for id in ids {
            let n = self.node_mut(id);
            n.flush_stats(now);
            let report = n.stats.take_report(now, 1.0);
            self.aggregate.merge(&report.breakdown);
        }
        let total_runtime = if let Some(&(_, _)) = self.node_count_timeline.first() {
            // Runtime is measured to the completion of the last iteration.
            self.iteration_durations
                .iter()
                .fold(SimDuration::ZERO, |a, &d| a + d)
        } else {
            SimDuration::ZERO
        };
        let activity_traces: Vec<(NodeId, crate::trace::NodeTrace)> = self
            .nodes
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_mut()
                    .and_then(|n| n.trace.take())
                    .map(|t| (NodeId(i as u32), t))
            })
            .collect();
        // Fold the plainly-accumulated hot-path statistics (and the
        // kernel's event total, only known at teardown) into the registry
        // so one snapshot carries every counter. Keeping these as plain
        // integers during the run keeps the steal path free of atomics.
        if self.metrics.is_enabled() {
            let add = |name: &str, v: u64| {
                if let Some(c) = self.metrics.counter(name) {
                    c.add(v);
                }
            };
            add("des.events_processed", self.queue.processed());
            add("des.steal_attempts", self.steal_attempts);
            add("des.wide_steal_attempts", self.wide_steal_attempts);
            add("des.peer_cache_hits", self.peer_cache_hits);
            for (i, &n) in self.steals_by_cluster.iter().enumerate() {
                add(&format!("des.steals.to_cluster.{i}"), n);
            }
        }
        let metrics = self.metrics.is_enabled().then(|| self.metrics.report());
        RunResult {
            total_runtime,
            iteration_durations: self.iteration_durations,
            node_count_timeline: self.node_count_timeline,
            decisions: self.decisions,
            efficiency_timeline: self.efficiency_timeline,
            cluster_ic_timeline: self.cluster_ic_timeline,
            aggregate: self.aggregate,
            events_processed: self.queue.processed(),
            steal_attempts: self.steal_attempts,
            peer_cache_hits: self.peer_cache_hits,
            timed_out: self.timed_out,
            activity_traces,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdaptMode, TimingConfig};
    use sagrid_adapt::AdaptPolicy;
    use sagrid_core::config::GridConfig;
    use sagrid_core::workload::barnes_hut_profile;
    use sagrid_simnet::InjectionSchedule;

    fn quick_workload(iterations: usize) -> sagrid_core::workload::IterativeWorkload {
        barnes_hut_profile(iterations, 8, 2.0, 11)
    }

    fn base_config() -> SimConfig {
        SimConfig {
            grid: GridConfig::uniform(3, 8),
            policy: AdaptPolicy {
                monitoring_period: SimDuration::from_secs(30),
                ..AdaptPolicy::default()
            },
            initial_layout: vec![(ClusterId(0), 4), (ClusterId(1), 4)],
            workload: quick_workload(3),
            injections: InjectionSchedule::empty(),
            mode: AdaptMode::NoAdapt,
            steal_policy: StealPolicy::ClusterAware,
            timing: TimingConfig {
                benchmark_work: SimDuration::from_secs(1),
                ..TimingConfig::default()
            },
            record_trace: false,
            hierarchical_coordinator: false,
            queue_backend: Default::default(),
            seed: 7,
        }
    }

    #[test]
    fn run_completes_all_iterations() {
        let r = GridSim::run(base_config());
        assert!(!r.timed_out);
        assert_eq!(r.iteration_durations.len(), 3);
        assert!(r.total_runtime > SimDuration::ZERO);
        assert!(r.events_processed > 100);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = GridSim::run(base_config());
        let b = GridSim::run(base_config());
        assert_eq!(a.iteration_durations, b.iteration_durations);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.node_count_timeline, b.node_count_timeline);
    }

    #[test]
    fn different_seeds_differ() {
        let a = GridSim::run(base_config());
        let mut cfg = base_config();
        cfg.seed = 8;
        let b = GridSim::run(cfg);
        assert_ne!(a.iteration_durations, b.iteration_durations);
    }

    #[test]
    fn more_nodes_run_faster() {
        let small = GridSim::run(base_config());
        let mut cfg = base_config();
        cfg.initial_layout = vec![(ClusterId(0), 8), (ClusterId(1), 8)];
        let big = GridSim::run(cfg);
        assert!(
            big.total_runtime < small.total_runtime,
            "16 nodes ({}) should beat 8 nodes ({})",
            big.total_runtime,
            small.total_runtime
        );
    }

    #[test]
    fn monitoring_mode_pays_benchmark_overhead() {
        let plain = GridSim::run(base_config());
        let mut cfg = base_config();
        cfg.mode = AdaptMode::MonitorOnly;
        let monitored = GridSim::run(cfg);
        assert_eq!(plain.aggregate.benchmark, SimDuration::ZERO);
        assert!(monitored.aggregate.benchmark > SimDuration::ZERO);
        assert!(monitored.total_runtime >= plain.total_runtime);
    }

    #[test]
    fn time_conservation_no_adapt() {
        // With a static node set, aggregate accounted time ≈ nodes × runtime
        // (up to the final-period flush at the last event's timestamp).
        let r = GridSim::run(base_config());
        let total = r.aggregate.total().as_secs_f64();
        assert!(total > 0.0);
        let per_node = total / 8.0;
        let runtime = r.total_runtime.as_secs_f64();
        assert!(
            (per_node - runtime).abs() / runtime < 0.2,
            "accounted {per_node} vs runtime {runtime}"
        );
    }

    #[test]
    fn adaptation_grows_an_undersized_run() {
        let mut cfg = base_config();
        cfg.mode = AdaptMode::Adapt;
        cfg.initial_layout = vec![(ClusterId(0), 2)];
        cfg.workload = barnes_hut_profile(6, 8, 4.0, 3);
        let r = GridSim::run(cfg);
        assert!(!r.timed_out);
        assert!(
            r.final_node_count() > 2,
            "adaptation should have added nodes: timeline {:?}",
            r.node_count_timeline
        );
        assert!(r.decisions.iter().any(|d| d.decision.kind() == "add"));
    }

    #[test]
    fn crash_recovery_completes_the_workload() {
        let mut cfg = base_config();
        cfg.injections = InjectionSchedule::new(vec![sagrid_simnet::ScheduledInjection {
            at: SimTime::from_secs(5),
            injection: Injection::CrashCluster {
                cluster: ClusterId(1),
            },
        }]);
        let r = GridSim::run(cfg);
        assert!(!r.timed_out, "must finish despite losing half the nodes");
        assert_eq!(r.iteration_durations.len(), 3);
        assert_eq!(r.final_node_count(), 4);
    }

    #[test]
    fn activity_traces_match_the_aggregate_accounting() {
        let mut cfg = base_config();
        cfg.record_trace = true;
        let r = GridSim::run(cfg);
        assert_eq!(r.activity_traces.len(), 8, "one trace per node");
        let mut busy_total = SimDuration::ZERO;
        for (_, trace) in &r.activity_traces {
            assert!(trace.is_well_formed());
            busy_total += trace.total(crate::trace::SpanKind::Busy);
        }
        assert_eq!(
            busy_total, r.aggregate.busy,
            "traces and statistics attribute the same busy time"
        );
    }

    #[test]
    fn tracing_does_not_change_the_run() {
        let plain = GridSim::run(base_config());
        let mut cfg = base_config();
        cfg.record_trace = true;
        let traced = GridSim::run(cfg);
        assert_eq!(plain.iteration_durations, traced.iteration_durations);
        assert_eq!(plain.events_processed, traced.events_processed);
    }

    #[test]
    fn try_new_rejects_invalid_configs() {
        let err = |cfg: SimConfig| GridSim::try_new(cfg).map(|_| ()).unwrap_err();

        let mut empty_layout = base_config();
        empty_layout.initial_layout.clear();
        let e = err(empty_layout);
        assert!(e.contains("initial layout"), "unexpected error: {e}");

        let mut unknown_cluster = base_config();
        unknown_cluster.initial_layout = vec![(ClusterId(9), 4)];
        let e = err(unknown_cluster);
        assert!(e.contains("unknown cluster"), "unexpected error: {e}");

        let mut oversubscribed = base_config();
        oversubscribed.initial_layout = vec![(ClusterId(0), 99)];
        let e = err(oversubscribed);
        assert!(e.contains("capacity"), "unexpected error: {e}");

        let mut no_work = base_config();
        no_work.workload.iterations.clear();
        assert!(GridSim::try_new(no_work).is_err());

        assert!(GridSim::try_new(base_config()).is_ok());
    }

    #[test]
    fn try_run_matches_run_on_valid_configs() {
        let a = GridSim::run(base_config());
        let b = GridSim::try_run(base_config()).expect("config is valid");
        assert_eq!(a.iteration_durations, b.iteration_durations);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn metrics_disabled_runs_carry_no_report() {
        let r = GridSim::run(base_config());
        assert!(
            r.metrics.is_none(),
            "default runs must not allocate metrics"
        );
    }

    #[test]
    fn metrics_enabled_run_is_identical_and_mirrors_counters() {
        use sagrid_core::metrics::Metrics;
        let plain = GridSim::run(base_config());
        let metered = GridSim::try_run_with_metrics(base_config(), Metrics::enabled())
            .expect("config is valid");
        // Metrics observation must not perturb the simulation.
        assert_eq!(plain.iteration_durations, metered.iteration_durations);
        assert_eq!(plain.events_processed, metered.events_processed);
        let report = metered.metrics.as_ref().expect("metrics were enabled");
        // Registry counters mirror the RunResult's ad-hoc counters exactly.
        assert_eq!(report.counter("des.steal_attempts"), metered.steal_attempts);
        assert_eq!(
            report.counter("des.peer_cache_hits"),
            metered.peer_cache_hits
        );
        assert_eq!(
            report.counter("des.events_processed"),
            metered.events_processed
        );
        // Per-victim-cluster steal counters partition the total.
        let by_cluster: u64 = (0..3)
            .map(|i| report.counter(&format!("des.steals.to_cluster.{i}")))
            .sum();
        assert_eq!(by_cluster, metered.steal_attempts);
        // Every node joined once; the alive gauge ends at the final count.
        assert_eq!(report.counter("des.node_joins"), 8);
        assert_eq!(report.gauge("des.nodes_alive"), 8);
        assert_eq!(report.events_of_kind("join").count(), 8);
        // The scheduler shares the same registry.
        assert_eq!(report.counter("sched.grants"), 8);
    }

    #[test]
    fn crash_metrics_count_victims_and_decisions_are_logged() {
        use sagrid_core::metrics::Metrics;
        let mut cfg = base_config();
        cfg.mode = AdaptMode::Adapt;
        cfg.injections = InjectionSchedule::new(vec![sagrid_simnet::ScheduledInjection {
            at: SimTime::from_secs(5),
            injection: Injection::CrashCluster {
                cluster: ClusterId(1),
            },
        }]);
        let r = GridSim::try_run_with_metrics(cfg, Metrics::enabled()).expect("valid");
        let report = r.metrics.as_ref().expect("metrics were enabled");
        assert_eq!(report.counter("des.node_crashes"), 4);
        assert_eq!(report.counter("des.injections"), 1);
        assert_eq!(report.events_of_kind("crash").count(), 1);
        assert_eq!(report.events_of_kind("injection").count(), 1);
        assert_eq!(
            report.counter("des.decisions"),
            r.decisions.len() as u64,
            "one decision event per coordinator log entry"
        );
        assert_eq!(report.events_of_kind("decision").count(), r.decisions.len());
    }

    /// The engine, not the coordinator, keeps the decision history: one
    /// entry per evaluation, in emission order, whichever coordinator
    /// shape decides and whether or not metrics are on. Every entry
    /// comes back `==` from its JSONL line, a swap's own speed floor
    /// (which `learned` does not hold) included.
    #[test]
    fn run_result_holds_one_entry_per_decision_event() {
        use crate::provenance::reconstruct_decision;
        use sagrid_core::metrics::Metrics;
        for (hierarchical, migration) in [(false, false), (true, false), (false, true)] {
            let mut cfg = base_config();
            cfg.mode = AdaptMode::Adapt;
            cfg.workload = quick_workload(20);
            cfg.policy.monitoring_period = SimDuration::from_secs(10);
            cfg.hierarchical_coordinator = hierarchical;
            if migration {
                // A free cluster twice as fast draws a swap.
                cfg.policy.opportunistic_migration = true;
                cfg.grid.clusters[2].node_speed = 2.0;
            }
            cfg.injections = InjectionSchedule::new(vec![sagrid_simnet::ScheduledInjection {
                at: SimTime::from_secs(5),
                injection: Injection::CrashCluster {
                    cluster: ClusterId(1),
                },
            }]);
            let r = GridSim::try_run_with_metrics(cfg.clone(), Metrics::enabled()).expect("valid");
            let report = r.metrics.as_ref().expect("metrics were enabled");
            assert!(r.decisions.len() > 1, "{} decisions", r.decisions.len());
            assert_eq!(report.counter("des.decisions"), r.decisions.len() as u64);
            let events: Vec<_> = report.events_of_kind("decision").collect();
            assert_eq!(events.len(), r.decisions.len());
            for (event, entry) in events.iter().zip(&r.decisions) {
                assert_eq!(reconstruct_decision(event).unwrap(), *entry);
            }
            let swapped = r
                .decisions
                .iter()
                .any(|d| matches!(d.decision, Decision::OpportunisticSwap { .. }));
            assert_eq!(swapped, migration);
            assert_eq!(GridSim::run(cfg).decisions, r.decisions);
        }
    }

    /// The metrics JSONL of one small adapting run with a crash, pinned by
    /// length and FNV-1a: the event text, its order and every instrument
    /// record are part of the output format.
    #[test]
    fn metered_run_jsonl_is_pinned() {
        use sagrid_core::metrics::Metrics;
        let mut cfg = base_config();
        cfg.mode = AdaptMode::Adapt;
        cfg.workload = quick_workload(20);
        cfg.policy.monitoring_period = SimDuration::from_secs(10);
        cfg.injections = InjectionSchedule::new(vec![sagrid_simnet::ScheduledInjection {
            at: SimTime::from_secs(5),
            injection: Injection::CrashCluster {
                cluster: ClusterId(1),
            },
        }]);
        let r = GridSim::try_run_with_metrics(cfg, Metrics::enabled()).expect("valid");
        let jsonl = r.metrics.expect("metrics were enabled").to_jsonl();
        let fnv = jsonl.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((jsonl.len(), fnv), (5336, 0xc16e_ee46_acff_019c));
    }

    #[test]
    fn shaped_uplink_inflates_iteration_times() {
        let plain = GridSim::run(base_config());
        let mut cfg = base_config();
        cfg.injections = InjectionSchedule::new(vec![sagrid_simnet::ScheduledInjection {
            at: SimTime::ZERO,
            injection: Injection::UplinkBandwidth {
                cluster: ClusterId(1),
                bandwidth_bps: 100_000.0,
            },
        }]);
        let shaped = GridSim::run(cfg);
        assert!(
            shaped.total_runtime > plain.total_runtime,
            "shaped {} vs plain {}",
            shaped.total_runtime,
            plain.total_runtime
        );
    }
}
