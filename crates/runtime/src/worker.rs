//! Worker threads: local LIFO execution, cluster-aware random stealing,
//! statistics attribution, speed emulation and control signals.

use crate::config::RuntimeConfig;
use crate::deque::{Injector, Stealer, Worker as Deque};
use crate::job::Task;
use sagrid_core::metrics::{Counter, Gauge, Metrics};
use sagrid_core::rng::{Rng64, SplitMix64};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Control messages a worker drains between tasks.
pub(crate) enum Control {
    /// Graceful leave: hand queued tasks back to the global queue, exit.
    Leave,
    /// Simulated crash: abandon everything, exit immediately.
    Crash,
    /// Run the speed benchmark and publish its duration.
    Benchmark(BenchReply),
}

/// A speed-benchmark request (paper §3.2: a small application-specific
/// benchmark re-run periodically to track processor speed).
pub(crate) struct BenchProbe {
    spins: u64,
    /// `None` while pending; `Some(None)` once the request was dropped
    /// unanswered.
    result: Mutex<Option<Option<Duration>>>,
    done: Condvar,
}

impl BenchProbe {
    /// A probe for the caller to wait on, and the reply handle to send to
    /// the worker.
    pub(crate) fn new(spins: u64) -> (Arc<Self>, BenchReply) {
        let probe = Arc::new(Self {
            spins,
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        (Arc::clone(&probe), BenchReply(probe))
    }

    /// The benchmark duration; `None` if the worker went away without
    /// answering or `timeout` ran out first.
    pub(crate) fn wait(&self, timeout: Duration) -> Option<Duration> {
        let slot = self.result.lock().expect("probe lock poisoned");
        let (slot, _) = self
            .done
            .wait_timeout_while(slot, timeout, |r| r.is_none())
            .expect("probe lock poisoned");
        slot.flatten()
    }

    fn settle(&self, answer: Option<Duration>) {
        let mut slot = self.result.lock().expect("probe lock poisoned");
        if slot.is_none() {
            *slot = Some(answer);
            self.done.notify_all();
        }
    }
}

/// The worker's end of a [`BenchProbe`]. Dropping it unanswered settles
/// the probe with no duration, so a request still queued when its worker
/// leaves, crashes or shuts down (the channel drops it with the receiver),
/// or sent after that (the failed send returns it), ends the wait at once.
pub(crate) struct BenchReply(Arc<BenchProbe>);

impl BenchReply {
    fn publish(self, d: Duration) {
        self.0.settle(Some(d));
    }
}

impl Drop for BenchReply {
    fn drop(&mut self) {
        self.0.settle(None);
    }
}

/// Per-worker overhead counters (nanoseconds), reset when a monitoring
/// report is taken.
#[derive(Default)]
pub(crate) struct StatCounters {
    pub busy_ns: AtomicU64,
    pub idle_ns: AtomicU64,
    pub intra_ns: AtomicU64,
    pub inter_ns: AtomicU64,
    pub bench_ns: AtomicU64,
    /// Latest benchmark duration in nanoseconds (0 = never benchmarked).
    pub last_bench_ns: AtomicU64,
    pub tasks_executed: AtomicU64,
    pub steals_ok: AtomicU64,
    pub steals_failed: AtomicU64,
}

/// The runtime-visible half of a worker.
pub(crate) struct WorkerShared {
    pub(crate) stealer: Stealer<Arc<dyn Task>>,
    pub(crate) ctrl: Sender<Control>,
    pub(crate) cluster: usize,
    pub(crate) alive: AtomicBool,
    /// Speed knob ×1000 (1000 = full speed).
    pub(crate) speed_milli: AtomicU32,
    pub(crate) stats: StatCounters,
}

impl WorkerShared {
    pub(crate) fn speed(&self) -> f64 {
        f64::from(self.speed_milli.load(Ordering::Relaxed)) / 1000.0
    }
}

/// Pre-resolved metric handles for the threaded runtime; `None` when
/// metrics are disabled, so every hot-path observation is a single branch.
pub(crate) struct RtMetrics {
    pub(crate) spawns: Arc<Counter>,
    pub(crate) steals_local_ok: Arc<Counter>,
    pub(crate) steals_local_failed: Arc<Counter>,
    pub(crate) steals_remote_ok: Arc<Counter>,
    pub(crate) steals_remote_failed: Arc<Counter>,
    pub(crate) crashes: Arc<Counter>,
    pub(crate) requeues: Arc<Counter>,
    pub(crate) rescues: Arc<Counter>,
    pub(crate) workers_joined: Arc<Counter>,
    pub(crate) workers_left: Arc<Counter>,
    pub(crate) workers_alive: Arc<Gauge>,
}

impl RtMetrics {
    /// Resolves every handle once; `None` when `metrics` is disabled.
    pub(crate) fn resolve(metrics: &Metrics) -> Option<Self> {
        if !metrics.is_enabled() {
            return None;
        }
        let c = |name: &str| metrics.counter(name).expect("metrics enabled");
        Some(Self {
            spawns: c("rt.spawns"),
            steals_local_ok: c("rt.steals.local_ok"),
            steals_local_failed: c("rt.steals.local_failed"),
            steals_remote_ok: c("rt.steals.remote_ok"),
            steals_remote_failed: c("rt.steals.remote_failed"),
            crashes: c("rt.crashes"),
            requeues: c("rt.requeues"),
            rescues: c("rt.rescues"),
            workers_joined: c("rt.workers_joined"),
            workers_left: c("rt.workers_left"),
            workers_alive: metrics.gauge("rt.workers_alive").expect("metrics enabled"),
        })
    }
}

/// A pluggable provider of work from *outside* this process.
///
/// Installed via [`crate::Runtime::set_remote_steal_hook`], invoked by a
/// worker only after every in-process source came up dry (own deque,
/// global queue, sibling threads). The hook owns the whole remote
/// interaction — victim selection, the wire round trip, reconstructing
/// and executing the stolen job via `ctx`, returning the result to the
/// victim — and reports whether it made progress. It must return `false`
/// promptly when nothing is stealable so the worker can park; blocking
/// here stalls the worker loop.
pub trait RemoteStealHook: Send + Sync {
    /// Tries to obtain and execute one remote job. `true` = progress made.
    fn try_remote_steal(&self, ctx: &WorkerCtx<'_>) -> bool;
}

/// Runtime-wide shared state.
pub(crate) struct Shared {
    pub(crate) cfg: RuntimeConfig,
    pub(crate) workers: RwLock<Vec<Arc<WorkerShared>>>,
    pub(crate) injector: Injector<Arc<dyn Task>>,
    pub(crate) shutdown: AtomicBool,
    /// The registry the runtime reports into (disabled by default).
    pub(crate) metrics: Metrics,
    /// Pre-resolved handles derived from `metrics`.
    pub(crate) rm: Option<RtMetrics>,
    /// Cross-process steal provider; `None` until installed.
    pub(crate) remote_steal: RwLock<Option<Arc<dyn RemoteStealHook>>>,
}

/// The execution context handed to every divide-and-conquer job. Provides
/// `spawn` (Satin's `spawn` annotation) and helps `JoinHandle::join`
/// (Satin's `sync`) keep the worker busy while waiting.
pub struct WorkerCtx<'a> {
    shared: &'a Shared,
    me: usize,
    local: &'a Deque<Arc<dyn Task>>,
    rng: RefCell<SplitMix64>,
    /// Wall time of the tasks the currently executing task ran inline
    /// (helping while it joins) — see [`WorkerCtx::execute_timed`].
    inlined: Cell<Duration>,
}

impl<'a> WorkerCtx<'a> {
    pub(crate) fn new(shared: &'a Shared, me: usize, local: &'a Deque<Arc<dyn Task>>) -> Self {
        Self {
            shared,
            me,
            local,
            rng: RefCell::new(SplitMix64::new(0x5EED ^ (me as u64).wrapping_mul(0x9E37))),
            inlined: Cell::new(Duration::ZERO),
        }
    }

    /// Index of the executing worker.
    pub fn worker_id(&self) -> usize {
        self.me
    }

    /// The emulated cluster of the executing worker.
    pub fn cluster(&self) -> usize {
        self.shared.workers.read().expect("workers poisoned")[self.me].cluster
    }

    /// Spawns a divide-and-conquer child job onto this worker's deque.
    ///
    /// The closure must be pure (re-executable): that is what lets the
    /// runtime transparently re-run it if the worker holding it crashes.
    pub fn spawn<T, F>(&self, f: F) -> crate::job::JoinHandle<T>
    where
        T: Send + 'static,
        F: Fn(&WorkerCtx<'_>) -> T + Send + Sync + 'static,
    {
        let job = crate::job::Job::new(f);
        job.set_holder(self.me);
        self.local.push(job.clone());
        if let Some(rm) = &self.shared.rm {
            rm.spawns.inc();
        }
        crate::job::JoinHandle { job }
    }

    /// Attributes `d` of measured remote-steal wire time to this worker's
    /// inter-cluster communication overhead — the paper's `inter_comm`
    /// input, here a real wall-clock measurement of network round trips
    /// rather than an emulated delay. Called by [`RemoteStealHook`]
    /// implementations.
    pub fn note_remote_wait(&self, d: Duration) {
        let workers = self.shared.workers.read().expect("workers poisoned");
        workers[self.me]
            .stats
            .inter_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records a joiner re-executing a job lost with a dead worker
    /// (fault-tolerance self-rescue).
    pub(crate) fn note_rescue(&self) {
        if let Some(rm) = &self.shared.rm {
            rm.rescues.inc();
        }
    }

    /// Whether worker `id` is currently alive ([`crate::job::NO_HOLDER`]
    /// counts as not-alive so joiners self-rescue queued-nowhere jobs).
    pub(crate) fn is_worker_alive(&self, id: usize) -> bool {
        let workers = self.shared.workers.read().expect("workers poisoned");
        workers
            .get(id)
            .is_some_and(|w| w.alive.load(Ordering::Acquire))
    }

    /// Pops or steals one task and executes it. Returns `false` when no
    /// work was found anywhere.
    pub fn run_one(&self) -> bool {
        if let Some(task) = self.find_task() {
            self.execute_timed(task);
            return true;
        }
        false
    }

    fn execute_timed(&self, task: Arc<dyn Task>) {
        // A joining task helps by running other tasks inline, each through
        // its own nested call here. Only the task's *own* time is charged
        // and padded: charging the inclusive time would count every nested
        // task once per level above it and compound the speed penalty to
        // (1/s)^depth — a 0.1-speed worker never came back from one
        // fib(22) to read its control channel.
        let outer = self.inlined.replace(Duration::ZERO);
        let start = Instant::now();
        task.execute(self);
        let own = start.elapsed().saturating_sub(self.inlined.get());
        let workers = self.shared.workers.read().expect("workers poisoned");
        let me = &workers[self.me];
        // Speed emulation: a worker at speed s pads every t of work with
        // t·(1/s − 1) of spin, exactly like background load on a
        // time-shared grid node.
        let speed = me.speed();
        let penalty = if speed < 1.0 {
            own.mul_f64(1.0 / speed - 1.0)
        } else {
            Duration::ZERO
        };
        if !penalty.is_zero() {
            spin_for(penalty);
        }
        me.stats
            .busy_ns
            .fetch_add((own + penalty).as_nanos() as u64, Ordering::Relaxed);
        me.stats.tasks_executed.fetch_add(1, Ordering::Relaxed);
        self.inlined.set(outer + start.elapsed());
    }

    /// Work-finding: own deque (LIFO), then the global queue, then
    /// cluster-aware random stealing — a random victim in the own cluster,
    /// then a random victim in another cluster (paying the emulated WAN
    /// latency).
    fn find_task(&self) -> Option<Arc<dyn Task>> {
        if let Some(t) = self.local.pop() {
            return Some(t);
        }
        if let Some(t) = self.shared.injector.steal() {
            return Some(t);
        }
        let workers = self.shared.workers.read().expect("workers poisoned");
        let my_cluster = workers[self.me].cluster;
        let mut rng = self.rng.borrow_mut();
        // One local attempt, then one wide attempt, mirroring CRS.
        for wide in [false, true] {
            let candidates: Vec<usize> = workers
                .iter()
                .enumerate()
                .filter(|(i, w)| {
                    *i != self.me
                        && w.alive.load(Ordering::Acquire)
                        && (w.cluster == my_cluster) != wide
                })
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let victim = candidates[rng.gen_index(candidates.len())];
            let latency = if wide {
                self.shared.cfg.wan_latency
            } else {
                self.shared.cfg.lan_latency
            };
            let start = Instant::now();
            // The emulated network round trip for the steal message.
            spin_for(latency);
            let got = workers[victim].stealer.steal();
            if got.is_some() {
                spin_for(latency); // task transfer back
            }
            let waited = start.elapsed().as_nanos() as u64;
            let stats = &workers[self.me].stats;
            if wide {
                stats.inter_ns.fetch_add(waited, Ordering::Relaxed);
            } else {
                stats.intra_ns.fetch_add(waited, Ordering::Relaxed);
            }
            if let Some(t) = got {
                stats.steals_ok.fetch_add(1, Ordering::Relaxed);
                if let Some(rm) = &self.shared.rm {
                    let c = if wide {
                        &rm.steals_remote_ok
                    } else {
                        &rm.steals_local_ok
                    };
                    c.inc();
                }
                return Some(t);
            }
            stats.steals_failed.fetch_add(1, Ordering::Relaxed);
            if let Some(rm) = &self.shared.rm {
                let c = if wide {
                    &rm.steals_remote_failed
                } else {
                    &rm.steals_local_failed
                };
                c.inc();
            }
        }
        None
    }
}

/// Busy-waits for `d` (precise sub-millisecond emulation; `thread::sleep`
/// granularity would distort the statistics).
fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// The worker thread body.
pub(crate) fn worker_main(
    shared: Arc<Shared>,
    me: usize,
    local: Deque<Arc<dyn Task>>,
    ctrl: Receiver<Control>,
) {
    let ctx = WorkerCtx::new(&shared, me, &local);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Drain control messages.
        while let Ok(msg) = ctrl.try_recv() {
            let my = shared.workers.read().expect("workers poisoned")[me].clone();
            match msg {
                Control::Leave => {
                    // Malleability: hand every queued task back to the
                    // global queue so no work is lost, then retire.
                    let mut handed_back = 0u64;
                    while let Some(t) = local.pop() {
                        t.set_holder(crate::job::NO_HOLDER);
                        shared.injector.push(t);
                        handed_back += 1;
                    }
                    my.alive.store(false, Ordering::Release);
                    if let Some(rm) = &shared.rm {
                        rm.requeues.add(handed_back);
                        rm.workers_left.inc();
                        rm.workers_alive.add(-1);
                    }
                    return;
                }
                Control::Crash => {
                    // Abandon everything; joiners will re-execute. The
                    // crash counters live in `Runtime::crash_worker` (the
                    // only sender), which keeps them exact even when this
                    // thread exits through the alive-flag check instead.
                    my.alive.store(false, Ordering::Release);
                    return;
                }
                Control::Benchmark(reply) => {
                    let start = Instant::now();
                    let mut acc = 0u64;
                    for i in 0..reply.0.spins {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                        std::hint::black_box(acc);
                    }
                    let raw = start.elapsed();
                    let speed = my.speed();
                    if speed < 1.0 {
                        spin_for(raw.mul_f64(1.0 / speed - 1.0));
                    }
                    let total = start.elapsed();
                    my.stats
                        .bench_ns
                        .fetch_add(total.as_nanos() as u64, Ordering::Relaxed);
                    my.stats
                        .last_bench_ns
                        .store(total.as_nanos() as u64, Ordering::Relaxed);
                    reply.publish(total);
                }
            }
        }
        // A worker that was crashed externally must stop promptly too.
        if !shared.workers.read().expect("workers poisoned")[me]
            .alive
            .load(Ordering::Acquire)
        {
            return;
        }
        if !ctx.run_one() {
            // Every in-process source is dry: give the cross-process hook
            // a chance before parking.
            let hook = shared
                .remote_steal
                .read()
                .expect("remote steal hook poisoned")
                .clone();
            if hook.is_some_and(|h| h.try_remote_steal(&ctx)) {
                continue;
            }
            let park = shared.cfg.idle_park;
            std::thread::sleep(park);
            shared.workers.read().expect("workers poisoned")[me]
                .stats
                .idle_ns
                .fetch_add(park.as_nanos() as u64, Ordering::Relaxed);
        }
    }
}
