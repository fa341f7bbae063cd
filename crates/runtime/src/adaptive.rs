//! The live self-adaptation loop: the paper's coordinator driving a real
//! thread pool.
//!
//! [`AdaptiveRuntime`] owns a [`Runtime`] plus an
//! [`sagrid_adapt::Coordinator`]. Each call to [`AdaptiveRuntime::tick`]
//! plays one monitoring period: benchmark the workers, collect their
//! overhead statistics, compute weighted average efficiency, and apply the
//! coordinator's decision to the pool (add workers up to the configured
//! capacity, retire the worst ones, drop a badly-connected "cluster").
//!
//! This is the same decision code the discrete-event engine runs at DAS-2
//! scale; here it manipulates actual OS threads, which is what the
//! `grid_rescue` example demonstrates end to end.

use crate::runtime::{Runtime, WorkerId};
use sagrid_adapt::coordinator::Decision;
use sagrid_adapt::{AdaptPolicy, Coordinator, SpeedTracker};
use sagrid_core::ids::NodeId;
use sagrid_core::time::SimDuration;
use std::sync::Arc;

/// A [`Runtime`] under control of the paper's adaptation coordinator.
pub struct AdaptiveRuntime {
    runtime: Arc<Runtime>,
    coordinator: Coordinator,
    speeds: SpeedTracker,
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
            speeds: SpeedTracker::new(),
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

    /// Plays one monitoring period: benchmark, collect, decide, apply.
    /// Returns the decision for inspection.
    pub fn tick(&mut self) -> Decision {
        // 1. Speed benchmarks (paper §3.2).
        for id in self.runtime.alive_workers() {
            if let Some(d) = self.runtime.benchmark_worker(id) {
                self.speeds.record(
                    NodeId(id as u32),
                    SimDuration::from_micros(d.as_micros().max(1) as u64),
                );
            }
        }
        // 2. Collect the period's overhead statistics.
        let rel = self.speeds.all_relative_speeds();
        for (mut report, _) in self.runtime.take_monitoring_reports() {
            report.speed = rel.get(&report.node).copied().unwrap_or(1.0);
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
            Decision::RemoveNodes { nodes } => {
                for n in nodes {
                    self.runtime.remove_worker(n.index() as WorkerId);
                }
            }
            Decision::RemoveCluster { nodes, .. } => {
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
    fn tick_grows_a_saturated_pool() {
        let rt = Runtime::new(RuntimeConfig::single_cluster(2));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let mut art = AdaptiveRuntime::new(rt, quick_policy(), vec![6]);
        let result = std::thread::scope(|s| {
            let handle = s.spawn({
                let stop = stop2.clone();
                move || {
                    // Saturating workload on the runtime while we tick.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    stop.load(Ordering::Relaxed)
                }
            });
            // Run the workload from this thread via the runtime.
            let stop3 = stop.clone();
            let r = art.runtime().run(move |ctx| busy_tree(ctx, 10, &stop3));
            let _ = handle.join();
            r
        });
        assert!(result > 0);
        // Workers were busy the whole run: the period's stats show high
        // utilization → the coordinator asks for more nodes.
        let d = art.tick();
        assert_eq!(d.kind(), "add", "busy pool should grow: {d:?}");
        let alive_before = art.runtime().alive_workers().len();
        assert!(alive_before > 2, "workers were actually added");
        art.into_runtime().shutdown();
    }
}
