//! The live self-adaptation loop: the paper's coordinator driving a real
//! thread pool.
//!
//! [`AdaptiveRuntime`] owns a [`Runtime`] plus an
//! [`sagrid_adapt::Coordinator`]. Each call to [`AdaptiveRuntime::tick`]
//! plays one monitoring period: tell the coordinator which workers are
//! gone, feed it their benchmark times and overhead statistics (it scales
//! the speeds), and apply its decision to the pool (add workers up to the
//! configured capacity, retire the worst ones, drop a badly-connected
//! "cluster").
//!
//! This is the same decision code the discrete-event engine runs at DAS-2
//! scale; here it manipulates actual OS threads, which is what the
//! `grid_rescue` example demonstrates end to end.

use crate::runtime::{Runtime, WorkerId};
use sagrid_adapt::coordinator::{Decision, DecisionLogEntry};
use sagrid_adapt::{AdaptPolicy, Coordinator};
use sagrid_core::ids::NodeId;
use sagrid_core::time::SimDuration;
use std::sync::Arc;

/// A [`Runtime`] under control of the paper's adaptation coordinator.
pub struct AdaptiveRuntime {
    runtime: Arc<Runtime>,
    coordinator: Coordinator,
    /// Maximum workers per cluster the "scheduler" may grant.
    capacity_per_cluster: Vec<usize>,
}

impl AdaptiveRuntime {
    /// Wraps a runtime. `capacity_per_cluster[c]` bounds how many workers
    /// cluster `c` may grow to (the resource pool).
    pub fn new(runtime: Runtime, policy: AdaptPolicy, capacity_per_cluster: Vec<usize>) -> Self {
        Self {
            runtime: Arc::new(runtime),
            coordinator: Coordinator::new(policy),
            capacity_per_cluster,
        }
    }

    /// Access to the underlying runtime (submit jobs, inject load, …).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// A shareable handle to the runtime, so other threads can submit work
    /// while the adaptation loop ticks.
    pub fn runtime_handle(&self) -> Arc<Runtime> {
        Arc::clone(&self.runtime)
    }

    /// The coordinator (latest decision, blacklists, learned requirements).
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// The latest tick's decision entry (see [`Coordinator::last_decision`]).
    pub fn last_decision(&mut self) -> Option<&DecisionLogEntry> {
        self.coordinator.last_decision()
    }

    /// Plays one monitoring period: forget, benchmark, collect, decide, apply.
    /// Returns the decision for inspection.
    pub fn tick(&mut self) -> Decision {
        // 0. Forget the workers that crashed or left since the last period.
        let alive = self.runtime.alive_workers();
        let known: Vec<NodeId> = self.coordinator.latest_reports().map(|r| r.node).collect();
        for node in known.into_iter().filter(|n| !alive.contains(&n.index())) {
            self.coordinator.node_gone(node);
        }
        // 1. Speed benchmarks (paper §3.2); each worker keeps its latest time.
        for id in alive {
            let _ = self.runtime.benchmark_worker(id);
        }
        // 2. Collect the period's overhead statistics and benchmark times.
        // Every benchmark goes in before the first report, so each report's
        // speed is scaled against this period's fastest, not against a
        // peer's benchmark from the period before.
        let collected = self.runtime.take_monitoring_reports();
        for (report, bench) in &collected {
            if let Some(d) = bench {
                let d = SimDuration::from_micros(d.as_micros().max(1) as u64);
                self.coordinator.record_benchmark(report.node, d);
            }
        }
        for (report, _) in collected {
            self.coordinator.record_report(report);
        }
        // 3. Decide and apply.
        let decision = self.coordinator.evaluate(self.runtime.now(), None);
        match &decision {
            Decision::None => {}
            Decision::Add { count, prefer, .. } => {
                let mut remaining = *count;
                // Locality: fill preferred clusters first, then any with
                // spare capacity.
                let clusters: Vec<usize> = prefer
                    .iter()
                    .map(|c| c.index())
                    .chain(0..self.capacity_per_cluster.len())
                    .collect();
                for c in clusters {
                    while remaining > 0 && self.cluster_population(c) < self.capacity(c) {
                        self.runtime.add_worker(c);
                        remaining -= 1;
                    }
                    if remaining == 0 {
                        break;
                    }
                }
            }
            Decision::RemoveNodes { nodes } | Decision::RemoveCluster { nodes, .. } => {
                for n in nodes {
                    self.runtime.remove_worker(n.index() as WorkerId);
                }
            }
            Decision::OpportunisticSwap { remove, add, .. } => {
                for _ in 0..*add {
                    // Fastest-first: clusters are homogeneous here, pick the
                    // first with capacity.
                    if let Some(c) = (0..self.capacity_per_cluster.len())
                        .find(|&c| self.cluster_population(c) < self.capacity(c))
                    {
                        self.runtime.add_worker(c);
                    }
                }
                for n in remove {
                    self.runtime.remove_worker(n.index() as WorkerId);
                }
            }
        }
        decision
    }

    fn capacity(&self, cluster: usize) -> usize {
        self.capacity_per_cluster.get(cluster).copied().unwrap_or(0)
    }

    fn cluster_population(&self, cluster: usize) -> usize {
        self.runtime
            .alive_workers()
            .into_iter()
            .filter(|&w| self.runtime.worker_cluster(w) == Some(cluster))
            .count()
    }

    /// Consumes the wrapper, returning the runtime for shutdown.
    ///
    /// Panics if runtime handles from [`AdaptiveRuntime::runtime_handle`]
    /// are still alive — join those threads first.
    pub fn into_runtime(self) -> Runtime {
        Arc::try_unwrap(self.runtime)
            .ok()
            .expect("outstanding runtime handles; join worker threads first")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::worker::WorkerCtx;
    use sagrid_core::time::SimDuration;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A long-running irregular workload that keeps spawning until told to
    /// stop (so adaptation ticks happen mid-computation).
    fn busy_tree(ctx: &WorkerCtx<'_>, depth: u32, stop: &Arc<AtomicBool>) -> u64 {
        // Each task spins ~50µs of work.
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_micros(50) {
            std::hint::spin_loop();
        }
        if depth == 0 || stop.load(Ordering::Relaxed) {
            return 1;
        }
        let s = stop.clone();
        let a = ctx.spawn(move |ctx| busy_tree(ctx, depth - 1, &s));
        let b = busy_tree(ctx, depth - 1, stop);
        a.join(ctx) + b
    }

    fn quick_policy() -> AdaptPolicy {
        AdaptPolicy {
            monitoring_period: SimDuration::from_millis(50),
            ..AdaptPolicy::default()
        }
    }

    /// A quick policy that never shrinks below `n` nodes, so an idle
    /// pool's tick leaves every report in place.
    fn keep_policy(n: usize) -> AdaptPolicy {
        AdaptPolicy {
            min_nodes: n,
            ..quick_policy()
        }
    }

    #[test]
    fn removing_the_fastest_worker_rescales_the_survivors() {
        let _cpu = crate::CPU_TIMING.lock().unwrap_or_else(|e| e.into_inner());
        let rt = Runtime::new(RuntimeConfig::single_cluster(3));
        rt.set_worker_speed(1, 0.2);
        rt.set_worker_speed(2, 0.2);
        let mut art = AdaptiveRuntime::new(rt, keep_policy(3), vec![3]);
        assert_eq!(art.tick(), Decision::None);
        let speed = |art: &AdaptiveRuntime, n| {
            let mut reports = art.coordinator().latest_reports();
            reports.find(|r| r.node == NodeId(n)).map(|r| r.speed)
        };
        assert!(speed(&art, 1).unwrap() < 0.5, "worker 0 anchors the scale");
        // Removed outside a decision: the next tick must notice by itself.
        art.runtime().remove_worker(0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while art.runtime().alive_workers().contains(&0) {
            assert!(std::time::Instant::now() < deadline, "worker 0 never left");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(art.tick(), Decision::None);
        let fastest = speed(&art, 1).unwrap().max(speed(&art, 2).unwrap());
        assert_eq!(fastest, 1.0, "survivors are scaled to the fastest survivor");
        assert_eq!(speed(&art, 0), None);
        art.into_runtime().shutdown();
    }

    #[test]
    fn crashed_workers_leave_the_coordinator() {
        let _cpu = crate::CPU_TIMING.lock().unwrap_or_else(|e| e.into_inner());
        let rt = Runtime::new(RuntimeConfig::single_cluster(3));
        let mut art = AdaptiveRuntime::new(rt, keep_policy(3), vec![3]);
        art.tick();
        assert_eq!(art.coordinator().known_nodes(), 3);
        art.runtime().crash_worker(0);
        art.tick();
        let coordinator = art.coordinator();
        assert_eq!(
            coordinator.known_nodes(),
            art.runtime().alive_workers().len()
        );
        assert!(coordinator.latest_reports().all(|r| r.node != NodeId(0)));
        art.into_runtime().shutdown();
    }

    #[test]
    fn tick_collects_and_decides_without_workload() {
        // Idle pool: overhead ~100% idle → wa_eff ≈ 0 → shrink decision.
        let rt = Runtime::new(RuntimeConfig::single_cluster(4));
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut art = AdaptiveRuntime::new(rt, quick_policy(), vec![4]);
        let d = art.tick();
        assert_eq!(d.kind(), "remove-nodes", "idle pool should shrink: {d:?}");
        art.into_runtime().shutdown();
    }

    #[test]
    fn a_tick_right_after_a_removal_does_not_wait_for_the_leavers() {
        // The second tick's benchmarks time CPU work.
        let _cpu = crate::CPU_TIMING.lock().unwrap_or_else(|e| e.into_inner());
        // Long parks leave the removed workers' `Leave` queued when the
        // next tick probes them (unless a worker happens to wake first).
        let rt = Runtime::new(RuntimeConfig {
            idle_park: std::time::Duration::from_millis(100),
            ..RuntimeConfig::single_cluster(4)
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut art = AdaptiveRuntime::new(rt, quick_policy(), vec![4]);
        let d = art.tick();
        assert_eq!(d.kind(), "remove-nodes", "idle pool should shrink: {d:?}");
        // A probe queued behind a `Leave` must not wait out its timeout.
        let start = std::time::Instant::now();
        art.tick();
        let took = start.elapsed();
        assert!(
            took < std::time::Duration::from_secs(1),
            "tick after a removal took {took:?}"
        );
        art.into_runtime().shutdown();
    }

    #[test]
    fn tick_grows_a_saturated_pool() {
        let _cpu = crate::CPU_TIMING.lock().unwrap_or_else(|e| e.into_inner());
        let rt = Runtime::new(RuntimeConfig::single_cluster(2));
        let stop = Arc::new(AtomicBool::new(false));
        let mut art = AdaptiveRuntime::new(rt, quick_policy(), vec![6]);
        let result = std::thread::scope(|s| {
            // The busy phase ends at a deadline, not when a fixed tree is
            // done, so it outweighs the tick's speed benchmark (~35 ms in a
            // debug build) many times over however fast the machine is.
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(600));
                stop.store(true, Ordering::Relaxed);
            });
            // Depth 20 is ~50 s of tasks: the deadline always cuts it short.
            let stop = stop.clone();
            art.runtime().run(move |ctx| busy_tree(ctx, 20, &stop))
        });
        assert!(result > 0);
        // Workers were busy the whole period: the stats show high
        // utilization → the coordinator asks for more nodes.
        let d = art.tick();
        let wa_eff = art.last_decision().expect("ticked").wa_efficiency;
        assert_eq!(
            d.kind(),
            "add",
            "busy pool should grow at wa_eff {wa_eff}: {d:?}"
        );
        let alive_before = art.runtime().alive_workers().len();
        assert!(alive_before > 2, "workers were actually added");
        art.into_runtime().shutdown();
    }
}
