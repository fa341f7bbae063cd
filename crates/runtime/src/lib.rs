//! # sagrid-runtime
//!
//! A Satin-like malleable divide-and-conquer runtime on real threads
//! (paper §4). Satin is the substrate the paper's adaptation component was
//! built into: programs are written with spawn/sync primitives, load is
//! balanced with **cluster-aware random work stealing** (CRS), and the
//! runtime provides transparent **malleability** (processors can join and
//! leave an ongoing computation) and **fault tolerance** (work held by a
//! crashed processor is re-executed).
//!
//! Workers are OS threads grouped into emulated "clusters", wide-area
//! stealing pays an injected latency, and every worker keeps the paper's
//! overhead statistics (busy / idle / intra- / inter-cluster
//! communication). [`Runtime::take_monitoring_reports`] hands them out as
//! monitoring reports; this crate drives no coordinator itself. Each
//! `sagrid-worker` process (crate `sagrid-net`) runs one `Runtime` and
//! ships its reports to the `sagrid-coordinatord` daemon, which feeds them
//! to the same `sagrid_adapt::Coordinator` the discrete-event engine in
//! `sagrid-simgrid` ticks.
//!
//! ```
//! use sagrid_runtime::{Runtime, RuntimeConfig, WorkerCtx};
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
//! let rt = Runtime::new(RuntimeConfig::single_cluster(4));
//! let result = rt.run(|ctx| fib(ctx, 20));
//! assert_eq!(result, 6765);
//! rt.shutdown();
//! ```
//!
//! Module map:
//!
//! * [`config`] — cluster layout, WAN emulation parameters;
//! * [`job`] — spawned-task records: result slots, ownership state, the
//!   re-execution machinery behind fault tolerance;
//! * [`worker`] — the worker loop: local LIFO execution, CRS victim
//!   selection, statistics attribution, speed emulation, control signals;
//! * [`runtime`] — the public façade: run jobs, add/remove/crash workers,
//!   collect monitoring reports, run speed benchmarks.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
mod deque;
pub mod job;
pub mod runtime;
pub mod worker;

pub use config::{ClusterLayout, RuntimeConfig};
pub use job::JoinHandle;
pub use runtime::{Runtime, WorkerId};
pub use worker::{RemoteStealHook, WorkerCtx};

/// Held by the unit tests that time CPU work, so the one that saturates
/// the pool for most of a second does not run beside the ones that
/// compare benchmark durations.
#[cfg(test)]
pub(crate) static CPU_TIMING: std::sync::Mutex<()> = std::sync::Mutex::new(());
