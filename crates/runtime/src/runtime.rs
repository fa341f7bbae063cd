//! The public runtime façade.

use crate::config::RuntimeConfig;
use crate::deque::{Injector, Worker as Deque};
use crate::job::{Job, Task, NO_HOLDER};
use crate::worker::{
    worker_main, BenchProbe, Control, RemoteStealHook, RtMetrics, Shared, WorkerShared,
};
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::metrics::Metrics;
use sagrid_core::stats::{MonitoringReport, OverheadBreakdown};
use sagrid_core::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::sync::{Mutex, RwLock};
use std::thread::JoinHandle as ThreadHandle;
use std::time::{Duration, Instant};

/// Identifier of a worker thread (stable for the runtime's lifetime; slots
/// of departed workers are never reused).
pub type WorkerId = usize;

/// A malleable divide-and-conquer runtime over an emulated multi-cluster
/// grid of worker threads. See the crate docs for an example.
pub struct Runtime {
    shared: Arc<Shared>,
    threads: Mutex<Vec<ThreadHandle<()>>>,
    started_at: Instant,
}

impl Runtime {
    /// Starts the worker threads described by `cfg`.
    ///
    /// Panics on an invalid configuration.
    pub fn new(cfg: RuntimeConfig) -> Self {
        Self::with_metrics(cfg, Metrics::disabled())
    }

    /// Starts the worker threads described by `cfg`, reporting spawns,
    /// steals (split by locality), crashes, requeues and membership changes
    /// into `metrics`. With [`Metrics::disabled`] this is exactly
    /// [`Runtime::new`]: no registry is allocated and every observation
    /// point is a single branch.
    ///
    /// Panics on an invalid configuration.
    pub fn with_metrics(cfg: RuntimeConfig, metrics: Metrics) -> Self {
        cfg.validate().expect("invalid runtime configuration");
        let rm = RtMetrics::resolve(&metrics);
        let shared = Arc::new(Shared {
            cfg: cfg.clone(),
            workers: RwLock::new(Vec::new()),
            injector: Injector::new(),
            shutdown: AtomicBool::new(false),
            metrics,
            rm,
            remote_steal: RwLock::new(None),
        });
        let rt = Self {
            shared,
            threads: Mutex::new(Vec::new()),
            started_at: Instant::now(),
        };
        for (ci, cluster) in cfg.clusters.iter().enumerate() {
            for _ in 0..cluster.workers {
                rt.spawn_worker(ci, cluster.speed);
            }
        }
        rt
    }

    fn spawn_worker(&self, cluster: usize, speed: f64) -> WorkerId {
        let deque: Deque<Arc<dyn Task>> = Deque::new_lifo();
        let (tx, rx) = channel();
        let ws = Arc::new(WorkerShared {
            stealer: deque.stealer(),
            ctrl: tx,
            cluster,
            alive: AtomicBool::new(true),
            speed_milli: AtomicU32::new((speed * 1000.0).round() as u32),
            stats: Default::default(),
        });
        let id = {
            let mut workers = self.shared.workers.write().expect("workers poisoned");
            workers.push(ws);
            workers.len() - 1
        };
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("sagrid-worker-{id}"))
            .spawn(move || worker_main(shared, id, deque, rx))
            .expect("spawn worker thread");
        self.threads.lock().expect("threads poisoned").push(handle);
        if let Some(rm) = &self.shared.rm {
            rm.workers_joined.inc();
            rm.workers_alive.add(1);
        }
        id
    }

    /// The metrics registry this runtime reports into (disabled unless the
    /// runtime was built with [`Runtime::with_metrics`]).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Runs a root job to completion on the pool and returns its result.
    ///
    /// The calling thread blocks (it is not a worker); if the worker
    /// holding the root job crashes, the job is re-injected automatically.
    pub fn run<T, F>(&self, f: F) -> T
    where
        T: Send + 'static,
        F: Fn(&crate::worker::WorkerCtx<'_>) -> T + Send + Sync + 'static,
    {
        let job = Job::new(f);
        self.shared.injector.push(job.clone());
        let shared = Arc::clone(&self.shared);
        let job_for_tick = job.clone();
        job.wait_with_tick(Duration::from_millis(5), move || {
            let holder = job_for_tick.holder();
            if holder != NO_HOLDER {
                let workers = shared.workers.read().expect("workers poisoned");
                let dead = workers
                    .get(holder)
                    .is_none_or(|w| !w.alive.load(Ordering::Acquire));
                if dead && !job_for_tick.is_done() {
                    job_for_tick.set_holder(NO_HOLDER);
                    shared.injector.push(job_for_tick.clone());
                    if let Some(rm) = &shared.rm {
                        rm.requeues.inc();
                    }
                }
            }
        });
        job.take_result()
            .unwrap_or_else(|| panic!("divide-and-conquer job panicked"))
    }

    /// Installs (or replaces) the cross-process steal provider. Workers
    /// invoke it when every in-process work source is dry, before parking;
    /// see [`RemoteStealHook`] for the contract.
    pub fn set_remote_steal_hook(&self, hook: Arc<dyn RemoteStealHook>) {
        *self
            .shared
            .remote_steal
            .write()
            .expect("remote steal hook poisoned") = Some(hook);
    }

    /// Removes the cross-process steal provider, if any.
    pub fn clear_remote_steal_hook(&self) {
        *self
            .shared
            .remote_steal
            .write()
            .expect("remote steal hook poisoned") = None;
    }

    /// Adds a fresh worker to `cluster` at full speed (malleability:
    /// "processors can be added at any point in the computation").
    pub fn add_worker(&self, cluster: usize) -> WorkerId {
        self.spawn_worker(cluster, 1.0)
    }

    /// Gracefully removes a worker: it hands its queued work back and
    /// retires at the next task boundary.
    pub fn remove_worker(&self, id: WorkerId) {
        let workers = self.shared.workers.read().expect("workers poisoned");
        if let Some(w) = workers.get(id) {
            let _ = w.ctrl.send(Control::Leave);
        }
    }

    /// Simulates a crash: the worker abandons its queued tasks immediately;
    /// joiners transparently re-execute the lost work.
    pub fn crash_worker(&self, id: WorkerId) {
        let workers = self.shared.workers.read().expect("workers poisoned");
        if let Some(w) = workers.get(id) {
            let was_alive = w.alive.swap(false, Ordering::AcqRel);
            let _ = w.ctrl.send(Control::Crash);
            if was_alive {
                if let Some(rm) = &self.shared.rm {
                    rm.crashes.inc();
                    rm.workers_alive.add(-1);
                }
            }
        }
    }

    /// Changes a worker's emulated speed in `(0, 1]` (background-load
    /// injection for overload scenarios).
    pub fn set_worker_speed(&self, id: WorkerId, speed: f64) {
        assert!(speed > 0.0 && speed <= 1.0, "speed must be in (0,1]");
        let workers = self.shared.workers.read().expect("workers poisoned");
        if let Some(w) = workers.get(id) {
            w.speed_milli
                .store((speed * 1000.0).round() as u32, Ordering::Relaxed);
        }
    }

    /// Runs the spin benchmark on worker `id` and returns the measured
    /// duration (paper §3.2's application-specific speed probe). `None` if
    /// the worker is gone, leaves before answering, or is unresponsive.
    pub fn benchmark_worker(&self, id: WorkerId) -> Option<Duration> {
        let (probe, reply) = BenchProbe::new(self.shared.cfg.benchmark_spins);
        {
            let workers = self.shared.workers.read().expect("workers poisoned");
            let w = workers.get(id)?;
            if !w.alive.load(Ordering::Acquire) {
                return None;
            }
            w.ctrl.send(Control::Benchmark(reply)).ok()?;
        }
        probe.wait(Duration::from_secs(10))
    }

    /// Ids of currently alive workers.
    pub fn alive_workers(&self) -> Vec<WorkerId> {
        self.shared
            .workers
            .read()
            .expect("workers poisoned")
            .iter()
            .enumerate()
            .filter(|(_, w)| w.alive.load(Ordering::Acquire))
            .map(|(i, _)| i)
            .collect()
    }

    /// The emulated cluster of a worker.
    pub fn worker_cluster(&self, id: WorkerId) -> Option<usize> {
        self.shared
            .workers
            .read()
            .expect("workers poisoned")
            .get(id)
            .map(|w| w.cluster)
    }

    /// Number of tasks executed so far, across all workers.
    pub fn tasks_executed(&self) -> u64 {
        self.shared
            .workers
            .read()
            .expect("workers poisoned")
            .iter()
            .map(|w| w.stats.tasks_executed.load(Ordering::Relaxed))
            .sum()
    }

    /// Elapsed wall time since the runtime started, as virtual-time for
    /// monitoring reports.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.started_at.elapsed().as_micros() as u64)
    }

    /// Takes (and resets) every alive worker's overhead counters as
    /// [`MonitoringReport`]s — the statistics stream the adaptation
    /// coordinator consumes. Speeds are *raw* benchmark durations turned
    /// relative by the caller (see [`crate::AdaptiveRuntime`]); here each
    /// report carries speed 1.0 and the caller overrides it.
    pub fn take_monitoring_reports(&self) -> Vec<(MonitoringReport, Option<Duration>)> {
        let now = self.now();
        let workers = self.shared.workers.read().expect("workers poisoned");
        workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.alive.load(Ordering::Acquire))
            .map(|(i, w)| {
                let ns = |a: &std::sync::atomic::AtomicU64| {
                    SimDuration((a.swap(0, Ordering::Relaxed)) / 1_000)
                };
                let breakdown = OverheadBreakdown {
                    busy: ns(&w.stats.busy_ns),
                    idle: ns(&w.stats.idle_ns),
                    intra_comm: ns(&w.stats.intra_ns),
                    inter_comm: ns(&w.stats.inter_ns),
                    benchmark: ns(&w.stats.bench_ns),
                };
                let last_bench = w.stats.last_bench_ns.load(Ordering::Relaxed);
                let bench = (last_bench > 0).then(|| Duration::from_nanos(last_bench));
                (
                    MonitoringReport {
                        node: NodeId(i as u32),
                        cluster: ClusterId(w.cluster as u16),
                        period_end: now,
                        breakdown,
                        speed: 1.0,
                    },
                    bench,
                )
            })
            .collect()
    }

    /// Stops every worker and joins the threads. Queued work is discarded.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let mut threads = self.threads.lock().expect("threads poisoned");
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::WorkerCtx;

    fn fib(ctx: &WorkerCtx<'_>, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let a = ctx.spawn(move |ctx| fib(ctx, n - 1));
        let b = fib(ctx, n - 2);
        a.join(ctx) + b
    }

    #[test]
    fn computes_fib_on_one_worker() {
        let rt = Runtime::new(RuntimeConfig::single_cluster(1));
        assert_eq!(rt.run(|ctx| fib(ctx, 15)), 610);
        rt.shutdown();
    }

    #[test]
    fn a_probe_queued_behind_leave_returns_at_once() {
        // The worker sleeps through both sends, then handles `Leave` first.
        let rt = Runtime::new(RuntimeConfig {
            idle_park: Duration::from_millis(300),
            ..RuntimeConfig::single_cluster(1)
        });
        std::thread::sleep(Duration::from_millis(20));
        rt.remove_worker(0);
        let start = Instant::now();
        assert_eq!(rt.benchmark_worker(0), None);
        let took = start.elapsed();
        assert!(took < Duration::from_secs(2), "probe waited {took:?}");
        rt.shutdown();
    }

    #[test]
    fn computes_fib_on_many_workers() {
        let rt = Runtime::new(RuntimeConfig::single_cluster(4));
        assert_eq!(rt.run(|ctx| fib(ctx, 22)), 17711);
        assert!(rt.tasks_executed() > 0);
        rt.shutdown();
    }

    #[test]
    fn computes_across_emulated_clusters() {
        let mut cfg = RuntimeConfig::emulated_grid(2, 2);
        cfg.wan_latency = Duration::from_micros(200);
        let rt = Runtime::new(cfg);
        assert_eq!(rt.run(|ctx| fib(ctx, 20)), 6765);
        rt.shutdown();
    }

    #[test]
    fn workers_join_mid_computation() {
        let rt = Runtime::new(RuntimeConfig::single_cluster(1));
        let added = rt.add_worker(0);
        assert_eq!(rt.alive_workers().len(), 2);
        assert_eq!(rt.run(|ctx| fib(ctx, 20)), 6765);
        assert_eq!(rt.worker_cluster(added), Some(0));
        rt.shutdown();
    }

    #[test]
    fn graceful_leave_preserves_work() {
        let rt = Runtime::new(RuntimeConfig::single_cluster(3));
        rt.remove_worker(2);
        assert_eq!(rt.run(|ctx| fib(ctx, 20)), 6765);
        // The removed worker eventually drops out of the alive set.
        let deadline = Instant::now() + Duration::from_secs(2);
        while rt.alive_workers().len() != 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rt.alive_workers().len(), 2);
        rt.shutdown();
    }

    #[test]
    fn crash_mid_run_is_survivable() {
        let rt = Runtime::new(RuntimeConfig::single_cluster(4));
        // Crash a worker while a computation is in flight: spawn the crash
        // from another thread after a short delay.
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                rt.crash_worker(3);
                rt.crash_worker(2);
            });
            rt.run(|ctx| fib(ctx, 24))
        });
        assert_eq!(result, 46368);
        rt.shutdown();
    }

    #[test]
    fn speed_penalty_does_not_compound_through_nested_joins() {
        let _cpu = crate::CPU_TIMING.lock().unwrap_or_else(|e| e.into_inner());
        // fib(16) joins ~16 levels deep. A 0.25-speed worker must take ~4x
        // as long as a full-speed one; padding the inclusive time of every
        // level took 4^depth and never finished.
        let timed = |speed: f64| {
            let rt = Runtime::new(RuntimeConfig::single_cluster(1));
            rt.set_worker_speed(0, speed);
            let _ = rt.run(|ctx| fib(ctx, 12)); // warm the thread up
            let _ = rt.take_monitoring_reports();
            let start = Instant::now();
            assert_eq!(rt.run(|ctx| fib(ctx, 16)), 987);
            let wall = start.elapsed();
            let busy = rt.take_monitoring_reports()[0].0.breakdown.busy;
            rt.shutdown();
            (wall, busy)
        };
        let (fast, fast_busy) = timed(1.0);
        let (slow, _) = timed(0.25);
        assert!(
            slow < fast.mul_f64(40.0) + Duration::from_millis(50),
            "0.25-speed run took {slow:?} against {fast:?} at full speed"
        );
        // Each task's time is charged once, not once per enclosing join.
        assert!(
            fast_busy.0 <= fast.as_micros() as u64 * 5 / 4 + 1_000,
            "busy {fast_busy:?} exceeds the {fast:?} the run took"
        );
    }

    #[test]
    fn benchmark_reflects_speed_knob() {
        let _cpu = crate::CPU_TIMING.lock().unwrap_or_else(|e| e.into_inner());
        let rt = Runtime::new(RuntimeConfig::single_cluster(2));
        rt.set_worker_speed(1, 0.25);
        // The fastest of three alternating runs on each side: tests that
        // do not hold `CPU_TIMING` load both sides alike, and one run
        // slowed by a busy machine cannot decide either side.
        let (mut fast, mut slow) = (Duration::MAX, Duration::MAX);
        for _ in 0..3 {
            fast = fast.min(rt.benchmark_worker(0).expect("fast benchmark"));
            slow = slow.min(rt.benchmark_worker(1).expect("slow benchmark"));
        }
        assert!(
            slow > fast.mul_f64(2.0),
            "slow worker ({slow:?}) should take ≥2x the fast one ({fast:?})"
        );
        rt.shutdown();
    }

    #[test]
    fn monitoring_reports_cover_alive_workers_and_reset() {
        let rt = Runtime::new(RuntimeConfig::single_cluster(3));
        let _ = rt.run(|ctx| fib(ctx, 18));
        let reports = rt.take_monitoring_reports();
        assert_eq!(reports.len(), 3);
        let total_busy: u64 = reports.iter().map(|(r, _)| r.breakdown.busy.0).sum();
        assert!(total_busy > 0, "someone must have done the work");
        rt.shutdown();
    }

    #[test]
    fn panicking_jobs_propagate_without_killing_workers() {
        let rt = Runtime::new(RuntimeConfig::single_cluster(2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|_ctx| -> u64 { panic!("boom") })
        }));
        assert!(result.is_err(), "the panic must reach the caller");
        // The pool survives: a follow-up computation still works.
        assert_eq!(rt.run(|ctx| fib(ctx, 15)), 610);
        assert_eq!(rt.alive_workers().len(), 2);
        rt.shutdown();
    }

    #[test]
    fn spawned_panics_propagate_at_join() {
        let rt = Runtime::new(RuntimeConfig::single_cluster(2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|ctx| {
                let h = ctx.spawn(|_| -> u64 { panic!("child boom") });
                h.join(ctx)
            })
        }));
        assert!(result.is_err());
        rt.shutdown();
    }

    #[test]
    fn join_handle_reports_completion() {
        let rt = Runtime::new(RuntimeConfig::single_cluster(2));
        let done = rt.run(|ctx| {
            let h = ctx.spawn(|_| 41u64);
            // Help until it completes, then check the flag.
            let v = h.join(ctx);
            v + 1
        });
        assert_eq!(done, 42);
        rt.shutdown();
    }

    #[test]
    fn metrics_count_spawns_steals_and_membership() {
        let rt = Runtime::with_metrics(RuntimeConfig::single_cluster(4), Metrics::enabled());
        assert_eq!(rt.run(|ctx| fib(ctx, 20)), 6765);
        let report = rt.metrics().report();
        // fib(20) spawns one child per node with n >= 2.
        assert!(report.counter("rt.spawns") > 1_000);
        assert_eq!(report.counter("rt.workers_joined"), 4);
        assert_eq!(report.gauge("rt.workers_alive"), 4);
        // On a single cluster every steal is local.
        assert_eq!(report.counter("rt.steals.remote_ok"), 0);
        rt.shutdown();
    }

    #[test]
    fn metrics_count_crashes_and_leaves() {
        let rt = Runtime::with_metrics(RuntimeConfig::single_cluster(3), Metrics::enabled());
        rt.crash_worker(2);
        rt.crash_worker(2); // double-crash counts once
        rt.remove_worker(1);
        assert_eq!(rt.run(|ctx| fib(ctx, 15)), 610);
        let deadline = Instant::now() + Duration::from_secs(2);
        while rt.alive_workers().len() != 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = rt.metrics().report();
        assert_eq!(report.counter("rt.crashes"), 1);
        assert_eq!(report.counter("rt.workers_left"), 1);
        assert_eq!(report.gauge("rt.workers_alive"), 1);
        rt.shutdown();
    }

    #[test]
    fn default_runtime_reports_nothing() {
        let rt = Runtime::new(RuntimeConfig::single_cluster(2));
        assert_eq!(rt.run(|ctx| fib(ctx, 15)), 610);
        assert!(!rt.metrics().is_enabled());
        assert!(rt.metrics().report().is_empty());
        rt.shutdown();
    }

    #[test]
    fn remote_steal_hook_feeds_idle_workers_and_counts_inter_comm() {
        use std::sync::atomic::AtomicU64;

        // Hands out exactly one "remote" job, executes it through the
        // normal spawn/join path, and attributes a measured wire wait.
        struct FeedOnce {
            fed: AtomicBool,
            result: Arc<AtomicU64>,
        }
        impl crate::worker::RemoteStealHook for FeedOnce {
            fn try_remote_steal(&self, ctx: &crate::worker::WorkerCtx<'_>) -> bool {
                if self.fed.swap(true, Ordering::SeqCst) {
                    return false;
                }
                let h = ctx.spawn(move |ctx| fib(ctx, 10));
                let v = h.join(ctx);
                self.result.store(v, Ordering::SeqCst);
                ctx.note_remote_wait(Duration::from_micros(80));
                true
            }
        }

        let rt = Runtime::new(RuntimeConfig::single_cluster(2));
        let result = Arc::new(AtomicU64::new(0));
        rt.set_remote_steal_hook(Arc::new(FeedOnce {
            fed: AtomicBool::new(false),
            result: Arc::clone(&result),
        }));
        let deadline = Instant::now() + Duration::from_secs(5);
        while result.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(result.load(Ordering::SeqCst), 55, "hook never ran");
        let reports = rt.take_monitoring_reports();
        let inter: u64 = reports.iter().map(|(r, _)| r.breakdown.inter_comm.0).sum();
        assert!(
            inter >= 80,
            "measured remote wait must land in inter_comm, got {inter}µs"
        );
        rt.clear_remote_steal_hook();
        rt.shutdown();
    }

    #[test]
    fn run_result_is_correct_under_parallel_stress() {
        let rt = Runtime::new(RuntimeConfig::single_cluster(8));
        for n in [10u64, 15, 18] {
            let expected = [55, 610, 2584][match n {
                10 => 0,
                15 => 1,
                _ => 2,
            }];
            assert_eq!(rt.run(move |ctx| fib(ctx, n)), expected);
        }
        rt.shutdown();
    }
}
