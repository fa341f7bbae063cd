//! The public runtime façade.

use crate::deque::{Injector, Worker as Deque};
use crate::job::{Job, Task};
use crate::worker::{worker_main, Probe, RemoteStealHook, Shared, WorkerCtx, WorkerShared};
use sagrid_core::stats::OverheadBreakdown;
use sagrid_core::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle as ThreadHandle;
use std::time::{Duration, Instant};

/// How long [`Runtime::benchmark`] waits for worker 0 to answer.
const BENCHMARK_TIMEOUT: Duration = Duration::from_secs(10);

/// A divide-and-conquer runtime: a fixed pool of worker threads serving
/// one node. See the crate docs for an example.
pub struct Runtime {
    shared: Arc<Shared>,
    /// Benchmark requests for worker 0.
    probes: Sender<Probe>,
    threads: Vec<ThreadHandle<()>>,
    started_at: Instant,
}

impl Runtime {
    /// Starts `workers` worker threads at full speed.
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "at least one worker is required");
        let deques: Vec<Deque<Arc<dyn Task>>> = (0..workers).map(|_| Deque::new_lifo()).collect();
        let shared = Arc::new(Shared {
            workers: deques
                .iter()
                .map(|d| WorkerShared {
                    stealer: d.stealer(),
                    stats: Default::default(),
                })
                .collect(),
            injector: Injector::new(),
            shutdown: AtomicBool::new(false),
            speed_milli: AtomicU32::new(1000),
            remote_steal: OnceLock::new(),
        });
        let (probes, probe_rx) = channel();
        let mut probe_rx = Some(probe_rx);
        let threads = deques
            .into_iter()
            .enumerate()
            .map(|(id, deque)| {
                let shared = Arc::clone(&shared);
                let probes = probe_rx.take();
                std::thread::Builder::new()
                    .name(format!("sagrid-worker-{id}"))
                    .spawn(move || worker_main(shared, id, deque, probes))
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            shared,
            probes,
            threads,
            started_at: Instant::now(),
        }
    }

    /// Runs a root job to completion on the pool and returns its result.
    ///
    /// The calling thread blocks (it is not a worker). Panics if the job
    /// panicked.
    pub fn run<T, F>(&self, f: F) -> T
    where
        T: Send + 'static,
        F: Fn(&WorkerCtx<'_>) -> T + Send + Sync + 'static,
    {
        let job = Job::new(f);
        self.shared.injector.push(job.clone());
        job.wait();
        job.take()
    }

    /// Installs the cross-process steal provider. Workers invoke it when
    /// every in-process work source is dry, before parking; see
    /// [`RemoteStealHook`] for the contract.
    ///
    /// Panics if a hook is already installed.
    pub fn set_remote_steal_hook(&self, hook: Arc<dyn RemoteStealHook>) {
        if self.shared.remote_steal.set(hook).is_err() {
            panic!("a remote steal hook is already installed");
        }
    }

    /// Changes the node's emulated speed in `(0, 1]` (background-load
    /// injection for overload scenarios): every task and the benchmark are
    /// padded with `t·(1/speed − 1)` of spin.
    pub fn set_speed(&self, speed: f64) {
        assert!(speed > 0.0 && speed <= 1.0, "speed must be in (0,1]");
        self.shared
            .speed_milli
            .store((speed * 1000.0).round() as u32, Ordering::Relaxed);
    }

    /// Runs the spin benchmark on worker 0 between its tasks and returns
    /// the measured duration (paper §3.2's application-specific speed
    /// probe). `None` if the worker stopped or did not answer within ten
    /// seconds.
    pub fn benchmark(&self) -> Option<Duration> {
        let (reply, answer) = channel();
        self.probes.send(reply).ok()?;
        answer.recv_timeout(BENCHMARK_TIMEOUT).ok()
    }

    /// Elapsed wall time since the runtime started, as virtual-time for
    /// monitoring reports.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.started_at.elapsed().as_micros() as u64)
    }

    /// Takes (and resets) the overhead counters of the whole pool, summed
    /// into one breakdown: the body of the node's monitoring report.
    pub fn take_breakdown(&self) -> OverheadBreakdown {
        let sum = |counter: fn(&WorkerShared) -> &AtomicU64| {
            let ns: u64 = self
                .shared
                .workers
                .iter()
                .map(|w| counter(w).swap(0, Ordering::Relaxed))
                .sum();
            SimDuration(ns / 1_000)
        };
        OverheadBreakdown {
            busy: sum(|w| &w.stats.busy_ns),
            idle: sum(|w| &w.stats.idle_ns),
            intra_comm: sum(|w| &w.stats.intra_ns),
            inter_comm: sum(|w| &w.stats.inter_ns),
            benchmark: sum(|w| &w.stats.bench_ns),
        }
    }

    /// Stops every worker and joins the threads. Queued work is discarded.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let rt = Runtime::new(1);
        assert_eq!(rt.run(|ctx| fib(ctx, 15)), 610);
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_pool_rejected() {
        let _ = Runtime::new(0);
    }

    #[test]
    fn bad_speed_rejected() {
        let rt = Runtime::new(1);
        for bad in [0.0, 1.5] {
            let set = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.set_speed(bad)));
            assert!(set.is_err(), "speed {bad} was accepted");
        }
        rt.shutdown();
    }

    #[test]
    fn a_probe_queued_at_shutdown_returns_at_once() {
        // Worker 0 is inside a job while the probe is queued; it sees the
        // shutdown flag before its next drain and exits without answering.
        let rt = Runtime::new(1);
        let (entered, entered_rx) = channel();
        let (release, release_rx) = channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        std::thread::scope(|s| {
            s.spawn(|| {
                rt.run(move |_| {
                    entered.send(()).expect("test waits for entry");
                    let _ = release_rx.lock().expect("release lock").recv();
                })
            });
            entered_rx.recv().expect("the job starts");
            let (reply, answer) = channel();
            rt.probes.send(reply).expect("worker 0 is running");
            rt.shared.shutdown.store(true, Ordering::Release);
            release.send(()).expect("the job waits for release");
            let start = Instant::now();
            assert!(answer.recv_timeout(Duration::from_secs(5)).is_err());
            let took = start.elapsed();
            assert!(took < Duration::from_secs(2), "probe waited {took:?}");
        });
        rt.shutdown();
    }

    #[test]
    fn computes_fib_on_many_workers() {
        let rt = Runtime::new(4);
        assert_eq!(rt.run(|ctx| fib(ctx, 22)), 17711);
        assert!(rt.take_breakdown().busy.0 > 0);
        rt.shutdown();
    }

    #[test]
    fn speed_penalty_does_not_compound_through_nested_joins() {
        let _cpu = crate::CPU_TIMING.lock().unwrap_or_else(|e| e.into_inner());
        // fib(16) joins ~16 levels deep. A 0.25-speed worker must take ~4x
        // as long as a full-speed one; padding the inclusive time of every
        // level took 4^depth and never finished.
        let timed = |speed: f64| {
            let rt = Runtime::new(1);
            rt.set_speed(speed);
            let _ = rt.run(|ctx| fib(ctx, 12)); // warm the thread up
            let _ = rt.take_breakdown();
            let start = Instant::now();
            assert_eq!(rt.run(|ctx| fib(ctx, 16)), 987);
            let wall = start.elapsed();
            let busy = rt.take_breakdown().busy;
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
        let rt = Runtime::new(1);
        // The fastest of three alternating runs on each side, re-knobbing
        // the one runtime: tests that do not hold `CPU_TIMING` load both
        // sides alike, and one run slowed by a busy machine cannot decide
        // either side.
        let (mut fast, mut slow) = (Duration::MAX, Duration::MAX);
        for _ in 0..3 {
            rt.set_speed(1.0);
            fast = fast.min(rt.benchmark().expect("fast benchmark"));
            rt.set_speed(0.25);
            slow = slow.min(rt.benchmark().expect("slow benchmark"));
        }
        assert!(
            slow > fast.mul_f64(2.0),
            "slowed node ({slow:?}) should take ≥2x the full-speed one ({fast:?})"
        );
        // Each run is charged to the benchmark overhead.
        let charged = rt.take_breakdown().benchmark.0;
        let ran = (fast * 3 + slow * 3).as_micros() as u64;
        assert!(charged >= ran, "charged {charged}µs of at least {ran}µs");
        rt.shutdown();
    }

    #[test]
    fn monitoring_reports_cover_alive_workers_and_reset() {
        let rt = Runtime::new(3);
        let start = Instant::now();
        let _ = rt.take_breakdown();
        let _ = rt.run(|ctx| fib(ctx, 18));
        std::thread::sleep(Duration::from_millis(20));
        let wall = start.elapsed().as_secs_f64();
        let b = rt.take_breakdown();
        assert!(b.busy.0 > 0, "someone must have done the work");
        // Busy + idle + comm + benchmark over a period stays within the
        // wall time of the three workers, bookkeeping noise aside.
        let accounted = b.total().as_secs_f64();
        assert!(
            accounted <= 3.0 * wall * 1.25 + 0.03,
            "the pool accounted {accounted:.3}s of 3 x {wall:.3}s"
        );
        // Taking the breakdown reset it: an immediate second take finds
        // (almost) nothing.
        let again = rt.take_breakdown().total().as_secs_f64();
        assert!(again < accounted / 2.0, "second take found {again:.3}s");
        rt.shutdown();
    }

    #[test]
    fn an_idle_pool_accounts_for_its_wall_time() {
        let rt = Runtime::new(1);
        let _ = rt.take_breakdown();
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(200));
        let accounted = rt.take_breakdown().total().as_secs_f64();
        let wall = start.elapsed().as_secs_f64();
        assert!(
            accounted >= 0.8 * wall,
            "an idle worker accounted {accounted:.3}s of {wall:.3}s"
        );
        rt.shutdown();
    }

    #[test]
    fn panicking_jobs_propagate_without_killing_workers() {
        let rt = Runtime::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|_ctx| -> u64 { panic!("boom") })
        }));
        assert!(result.is_err(), "the panic must reach the caller");
        // The pool survives: a follow-up computation still works on both
        // workers.
        assert_eq!(rt.run(|ctx| fib(ctx, 15)), 610);
        rt.shutdown();
    }

    #[test]
    fn spawned_panics_propagate_at_join() {
        let rt = Runtime::new(2);
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
        let rt = Runtime::new(2);
        let done = rt.run(|ctx| {
            let h = ctx.spawn(|_| 41u64);
            let v = h.join(ctx);
            v + 1
        });
        assert_eq!(done, 42);
        rt.shutdown();
    }

    #[test]
    fn remote_steal_hook_feeds_idle_workers_and_counts_inter_comm() {
        // Hands out exactly one "remote" job, executes it through the
        // normal spawn/join path, and attributes a measured wire wait.
        struct FeedOnce {
            fed: AtomicBool,
            result: Arc<AtomicU64>,
        }
        impl RemoteStealHook for FeedOnce {
            fn try_remote_steal(&self, ctx: &WorkerCtx<'_>) -> bool {
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

        let rt = Runtime::new(2);
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
        let inter = rt.take_breakdown().inter_comm.0;
        assert!(
            inter >= 80,
            "measured remote wait must land in inter_comm, got {inter}µs"
        );
        rt.shutdown();
    }

    #[test]
    fn run_result_is_correct_under_parallel_stress() {
        let rt = Runtime::new(8);
        for (n, expected) in [(10u64, 55), (15, 610), (18, 2584)] {
            assert_eq!(rt.run(move |ctx| fib(ctx, n)), expected);
        }
        rt.shutdown();
    }
}
