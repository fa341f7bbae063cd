//! # sagrid-runtime
//!
//! A Satin-like divide-and-conquer runtime on real threads (paper §4):
//! programs are written with spawn/sync primitives and a fixed pool of
//! worker threads balances them by random work stealing. One pool serves
//! one node. Every `sagrid-worker` process (crate `sagrid-net`) runs one
//! `Runtime`, and the grid's malleability and fault tolerance live a
//! level up: processes join, leave and crash, and the steal plane
//! re-pends a dead thief's jobs.
//!
//! The pool keeps the paper's overhead statistics (busy / idle / intra- /
//! inter-cluster communication / benchmark) and runs the §3.2 speed
//! benchmark, both for the node as a whole. [`Runtime::take_breakdown`]
//! hands the statistics out; this crate drives no coordinator itself.
//! `sagrid-worker` ships them to the `sagrid-coordinatord` daemon, which
//! feeds them to the same `sagrid_adapt::Coordinator` the discrete-event
//! engine in `sagrid-simgrid` ticks.
//!
//! ```
//! use sagrid_runtime::{Runtime, WorkerCtx};
//!
//! fn fib(ctx: &WorkerCtx, n: u64) -> u64 {
//!     if n < 2 {
//!         return n;
//!     }
//!     let a = ctx.spawn(move |ctx| fib(ctx, n - 1));
//!     let b = fib(ctx, n - 2);
//!     a.join(ctx) + b
//! }
//!
//! let rt = Runtime::new(4);
//! let result = rt.run(|ctx| fib(ctx, 20));
//! assert_eq!(result, 6765);
//! rt.shutdown();
//! ```
//!
//! Module map:
//!
//! * [`job`] — spawned-task records: result slots and panic capture;
//! * [`worker`] — the worker loop: local LIFO execution, random stealing,
//!   statistics attribution, speed emulation, the speed benchmark;
//! * [`runtime`] — the public façade: run jobs, set the node's speed,
//!   take its overhead breakdown, run its speed benchmark.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod deque;
pub mod job;
pub mod runtime;
pub mod worker;

pub use job::JoinHandle;
pub use runtime::Runtime;
pub use worker::{RemoteStealHook, WorkerCtx};

/// Held by the unit tests that time CPU work, so the one that saturates
/// the pool for most of a second does not run beside the ones that
/// compare benchmark durations.
#[cfg(test)]
pub(crate) static CPU_TIMING: std::sync::Mutex<()> = std::sync::Mutex::new(());
