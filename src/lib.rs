//! # sagrid — Self-adaptive applications on the grid
//!
//! A Rust reproduction of *"Self-adaptive applications on the grid"*
//! (Wrzesinska, Maassen, Bal — PPoPP 2007): model-free resource selection
//! and adaptation for malleable divide-and-conquer applications.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`core`] — ids, virtual time, deterministic RNG, statistics
//!   records, grid configuration (including DAS-2), task-tree workloads;
//! * [`adapt`] — **the paper's contribution**: weighted average
//!   efficiency, node/cluster badness, monitoring, and the adaptation
//!   coordinator;
//! * [`runtime`] — a Satin-like malleable work-stealing
//!   divide-and-conquer runtime (real threads);
//! * [`simgrid`] — a deterministic discrete-event grid
//!   emulation at DAS-2 scale, driving the same adaptation coordinator;
//! * [`simnet`] — the discrete-event kernel and WAN model;
//! * [`registry`] — Ibis-like membership and fault
//!   detection;
//! * [`sched`] — Zorilla-like grid resource pool;
//! * [`net`] — process-mode TCP control plane (std-only wire codec,
//!   hub/worker/coordinator binaries, `grid-local` launcher);
//! * [`apps`] — divide-and-conquer applications (Fibonacci,
//!   N-queens, TSP, Barnes-Hut);
//! * [`exp`] — the experiment harness reproducing every figure
//!   and table of the paper's evaluation.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory and per-experiment index.

pub use sagrid_adapt as adapt;
pub use sagrid_apps as apps;
pub use sagrid_core as core;
pub use sagrid_exp as exp;
pub use sagrid_net as net;
pub use sagrid_registry as registry;
pub use sagrid_runtime as runtime;
pub use sagrid_sched as sched;
pub use sagrid_simgrid as simgrid;
pub use sagrid_simnet as simnet;
