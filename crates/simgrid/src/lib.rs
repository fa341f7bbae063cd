//! # sagrid-simgrid
//!
//! The discrete-event twin of the Satin runtime at grid scale — the
//! substitution for the paper's DAS-2 testbed (DESIGN.md §2).
//!
//! Every node is a state machine executing divide-and-conquer
//! [`sagrid_core::workload::TaskTree`]s with **cluster-aware random work
//! stealing** over the [`sagrid_simnet`] network model; the nodes report
//! statistics to the *same* [`sagrid_adapt::Coordinator`] the threaded
//! runtime uses; node grants and releases flow through
//! [`sagrid_sched::ResourcePool`], and the engine keeps membership itself
//! (its per-cluster alive set and each node's leave signal).
//!
//! The engine runs the paper's six evaluation scenarios (CPU overload,
//! shaped uplinks, cluster crashes, …) deterministically, at full 36–64-node
//! scale, in milliseconds of wall time — which is what lets the benchmark
//! harness regenerate every figure of the paper's evaluation.
//!
//! * [`config`] — simulation parameters (adaptation mode, steal policy,
//!   timing constants);
//! * [`node`] — the per-node state machine and statistics attribution;
//! * [`engine`] — the event loop wiring everything together;
//! * [`result`] — per-run results: iteration durations, decision log, node
//!   count timeline, overhead accounting;
//! * [`trace`] — optional per-node activity traces (Gantt-style spans) for
//!   debugging scenario dynamics;
//! * [`provenance`] — decision-provenance events: serialising every
//!   coordinator decision (with its badness inputs and blacklist state) to
//!   the metrics JSONL stream, and reconstructing decisions back from it.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod batch;
pub mod config;
pub mod engine;
pub mod node;
pub mod peers;
pub mod provenance;
pub mod result;
pub mod trace;

pub use config::{AdaptMode, SimConfig, StealPolicy, TimingConfig};
pub use engine::GridSim;
pub use result::RunResult;
pub use sagrid_simnet::QueueBackend;
pub use trace::{NodeTrace, SpanKind, TraceSpan};
