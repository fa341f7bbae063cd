//! Spawned-task records.
//!
//! Every `spawn` creates a `Job` holding the closure and a result slot.
//! Exactly one worker runs it: the owner pops it from its deque, or a
//! thief steals it. A panic in the closure is caught and stored in the
//! slot, so the worker thread survives it and the joiner re-raises it.

use crate::worker::WorkerCtx;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Type-erased view of a job, as stored in deques.
pub(crate) trait Task: Send + Sync {
    /// Runs the job and stores its outcome.
    fn execute(&self, ctx: &WorkerCtx<'_>);
}

/// The shared state behind a [`JoinHandle`].
pub(crate) struct Job<T> {
    func: Box<dyn Fn(&WorkerCtx<'_>) -> T + Send + Sync>,
    /// `None` until the job ran; then its value or its panic payload.
    result: Mutex<Option<std::thread::Result<T>>>,
    /// Set (Release) after `result` is filled, so a joiner that reads it
    /// (Acquire) finds the outcome without waiting on the lock.
    done: AtomicBool,
    wake: Condvar,
}

impl<T: Send> Job<T> {
    pub(crate) fn new(func: impl Fn(&WorkerCtx<'_>) -> T + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(Self {
            func: Box::new(func),
            result: Mutex::new(None),
            done: AtomicBool::new(false),
            wake: Condvar::new(),
        })
    }

    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Blocks a non-worker thread until the job has run.
    pub(crate) fn wait(&self) {
        let slot = self.result.lock().expect("result lock poisoned");
        let _slot = self
            .wake
            .wait_while(slot, |r| r.is_none())
            .expect("result lock poisoned");
    }

    /// The job's value; re-raises its panic on the calling thread. Call
    /// once, after the job is done.
    pub(crate) fn take(&self) -> T {
        let outcome = self.result.lock().expect("result lock poisoned").take();
        match outcome.expect("a done job holds its outcome until taken") {
            Ok(value) => value,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

impl<T: Send> Task for Job<T> {
    fn execute(&self, ctx: &WorkerCtx<'_>) {
        // Jobs are user code: a panic must not take the worker thread (and
        // with it every queued task) down, nor leave joiners hanging.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| (self.func)(ctx)));
        *self.result.lock().expect("result lock poisoned") = Some(outcome);
        self.done.store(true, Ordering::Release);
        self.wake.notify_all();
    }
}

/// Handle to a spawned job; redeem with [`JoinHandle::join`] (from worker
/// code) — the joining worker keeps executing other tasks while it waits,
/// exactly like Satin's `sync`.
pub struct JoinHandle<T> {
    pub(crate) job: Arc<Job<T>>,
}

impl<T: Send> JoinHandle<T> {
    /// Whether the result is already available.
    pub fn is_done(&self) -> bool {
        self.job.is_done()
    }

    /// Waits for the job, helping with other work meanwhile, and returns
    /// its result.
    ///
    /// Panics if the job's closure panicked (the panic is propagated to
    /// the joiner, like `std::thread::JoinHandle`).
    pub fn join(self, ctx: &WorkerCtx<'_>) -> T {
        while !self.job.is_done() {
            // Help: run any available task (our own deque first).
            if !ctx.run_one() {
                std::thread::yield_now();
            }
        }
        self.job.take()
    }
}
