//! Worker threads: local LIFO execution, random stealing among siblings,
//! statistics attribution, speed emulation and the speed benchmark.

use crate::deque::{Injector, Stealer, Worker as Deque};
use crate::job::Task;
use sagrid_core::rng::{Rng64, SplitMix64};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How long an idle worker sleeps between failed sweeps for work.
const IDLE_PARK: Duration = Duration::from_micros(50);

/// Spin iterations of the speed benchmark ([`crate::Runtime::benchmark`]).
const BENCHMARK_SPINS: u64 = 2_000_000;

/// A benchmark request: the worker answers on the sender, or drops it
/// unanswered when it exits, which ends the caller's wait at once.
pub(crate) type Probe = Sender<Duration>;

/// Per-worker overhead counters (nanoseconds), reset when the runtime's
/// breakdown is taken.
#[derive(Default)]
pub(crate) struct StatCounters {
    pub busy_ns: AtomicU64,
    pub idle_ns: AtomicU64,
    pub intra_ns: AtomicU64,
    pub inter_ns: AtomicU64,
    pub bench_ns: AtomicU64,
}

impl StatCounters {
    fn add(counter: &AtomicU64, d: Duration) {
        counter.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// The part of a worker its siblings and the runtime see.
pub(crate) struct WorkerShared {
    pub(crate) stealer: Stealer<Arc<dyn Task>>,
    pub(crate) stats: StatCounters,
}

/// A pluggable provider of work from *outside* this process.
///
/// Installed via [`crate::Runtime::set_remote_steal_hook`], invoked by a
/// worker only after every in-process source came up dry (own deque,
/// global queue, a sibling thread). The hook owns the whole remote
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
    /// Every worker, fixed before the first thread starts.
    pub(crate) workers: Vec<WorkerShared>,
    pub(crate) injector: Injector<Arc<dyn Task>>,
    pub(crate) shutdown: AtomicBool,
    /// Speed knob ×1000 (1000 = full speed), shared by the whole node.
    pub(crate) speed_milli: AtomicU32,
    /// Cross-process steal provider; unset until installed.
    pub(crate) remote_steal: OnceLock<Arc<dyn RemoteStealHook>>,
}

impl Shared {
    fn speed(&self) -> f64 {
        f64::from(self.speed_milli.load(Ordering::Relaxed)) / 1000.0
    }

    /// Pads `work` with `work·(1/speed − 1)` of spin, exactly like
    /// background load on a time-shared grid node, and returns `work` plus
    /// the spin time.
    fn pad(&self, work: Duration) -> Duration {
        let speed = self.speed();
        if speed >= 1.0 {
            return work;
        }
        let penalty = work.mul_f64(1.0 / speed - 1.0);
        let start = Instant::now();
        while start.elapsed() < penalty {
            std::hint::spin_loop();
        }
        work + start.elapsed()
    }
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
    fn new(shared: &'a Shared, me: usize, local: &'a Deque<Arc<dyn Task>>) -> Self {
        Self {
            shared,
            me,
            local,
            rng: RefCell::new(SplitMix64::new(0x5EED ^ (me as u64).wrapping_mul(0x9E37))),
            inlined: Cell::new(Duration::ZERO),
        }
    }

    fn stats(&self) -> &StatCounters {
        &self.shared.workers[self.me].stats
    }

    /// Spawns a divide-and-conquer child job onto this worker's deque.
    pub fn spawn<T, F>(&self, f: F) -> crate::job::JoinHandle<T>
    where
        T: Send + 'static,
        F: Fn(&WorkerCtx<'_>) -> T + Send + Sync + 'static,
    {
        let job = crate::job::Job::new(f);
        self.local.push(job.clone());
        crate::job::JoinHandle { job }
    }

    /// Attributes `d` of measured remote-steal wire time to this worker's
    /// inter-cluster communication overhead — the paper's `inter_comm`
    /// input, here a real wall-clock measurement of network round trips.
    /// Called by [`RemoteStealHook`] implementations.
    pub fn note_remote_wait(&self, d: Duration) {
        StatCounters::add(&self.stats().inter_ns, d);
    }

    /// Pops or steals one task and executes it. Returns `false` when no
    /// work was found.
    pub(crate) fn run_one(&self) -> bool {
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
        // fib(22) to answer a benchmark probe.
        let outer = self.inlined.replace(Duration::ZERO);
        let start = Instant::now();
        task.execute(self);
        let own = start.elapsed().saturating_sub(self.inlined.get());
        StatCounters::add(&self.stats().busy_ns, self.shared.pad(own));
        self.inlined.set(outer + start.elapsed());
    }

    /// Work-finding: own deque (LIFO), then the global queue, then one
    /// random sibling, whose attempt is charged to intra-cluster
    /// communication.
    fn find_task(&self) -> Option<Arc<dyn Task>> {
        if let Some(t) = self.local.pop() {
            return Some(t);
        }
        if let Some(t) = self.shared.injector.steal() {
            return Some(t);
        }
        let siblings = self.shared.workers.len() - 1;
        if siblings == 0 {
            return None;
        }
        let mut victim = self.rng.borrow_mut().gen_index(siblings);
        if victim >= self.me {
            victim += 1;
        }
        let start = Instant::now();
        let got = self.shared.workers[victim].stealer.steal();
        StatCounters::add(&self.stats().intra_ns, start.elapsed());
        got
    }

    /// Runs the spin benchmark (paper §3.2's application-specific speed
    /// probe), padded by the speed knob like any task, and charges it.
    fn benchmark(&self) -> Duration {
        let start = Instant::now();
        let mut acc = 0u64;
        for i in 0..BENCHMARK_SPINS {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            std::hint::black_box(acc);
        }
        let total = self.shared.pad(start.elapsed());
        StatCounters::add(&self.stats().bench_ns, total);
        total
    }
}

/// The worker thread body. Only worker 0 receives benchmark probes.
pub(crate) fn worker_main(
    shared: Arc<Shared>,
    me: usize,
    local: Deque<Arc<dyn Task>>,
    probes: Option<Receiver<Probe>>,
) {
    let ctx = WorkerCtx::new(&shared, me, &local);
    while !shared.shutdown.load(Ordering::Acquire) {
        for probe in probes.iter().flat_map(|p| p.try_iter()) {
            // The caller may have timed out and gone; nothing to tell it.
            let _ = probe.send(ctx.benchmark());
        }
        if ctx.run_one() {
            continue;
        }
        // Every in-process source is dry: give the cross-process hook a
        // chance before parking.
        if shared
            .remote_steal
            .get()
            .is_some_and(|h| h.try_remote_steal(&ctx))
        {
            continue;
        }
        // Charge the time actually slept, not `IDLE_PARK`: the OS overshoots
        // a 50 µs sleep about twofold.
        let start = Instant::now();
        std::thread::sleep(IDLE_PARK);
        StatCounters::add(&ctx.stats().idle_ns, start.elapsed());
    }
}
