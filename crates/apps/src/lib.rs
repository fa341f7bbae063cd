//! # sagrid-apps
//!
//! Divide-and-conquer applications for the `sagrid` runtime — the workload
//! side of the paper. Satin's canonical application set is represented by:
//!
//! * [`fib`] — the classic spawn/sync micro-benchmark (fine-grained,
//!   maximally irregular spawn tree);
//! * [`nqueens`] — combinatorial search with irregular subtree sizes;
//! * [`barneshut`] — the paper's evaluation workload: an N-body simulation
//!   with a Plummer-model galaxy, octree construction, θ-criterion force
//!   evaluation, and leapfrog integration, parallelized divide-and-conquer
//!   over the body set.
//!
//! Every application offers a sequential reference implementation (used by
//! the tests as ground truth) and a parallel version against
//! [`sagrid_runtime::WorkerCtx`].
//!
//! [`remote`] additionally packages fib and nqueens subcomputations as
//! serializable [`RemoteJob`]s so the process-mode steal plane can ship
//! work between worker processes.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod barneshut;
pub mod fib;
pub mod nqueens;
pub mod remote;

pub use barneshut::{BarnesHut, Body};
pub use fib::{fib_par, fib_seq};
pub use nqueens::{nqueens_par, nqueens_par_from, nqueens_seq, nqueens_seq_from};
pub use remote::{frontier, RemoteDecodeError, RemoteJob};
