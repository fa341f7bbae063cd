//! # sagrid-adapt
//!
//! The paper's contribution (§3): **model-free resource selection and
//! adaptation**. No analytical performance model is required; instead the
//! application is started on an arbitrary resource set, an *adaptation
//! coordinator* periodically collects per-node statistics, derives the
//! application's requirements from them, and grows or shrinks the resource
//! set to keep the **weighted average efficiency** between two thresholds.
//!
//! Module map (one module per concept in the paper):
//!
//! * [`mod@efficiency`] — §3.1: parallel efficiency and its heterogeneous
//!   extension, weighted average efficiency;
//! * [`monitor`] — §3.2: application monitoring — benchmark scheduling
//!   under an overhead budget, and relative-speed normalization;
//! * [`badness`] — §3.3: the node- and cluster-badness heuristics;
//! * [`policy`] — §3.3: thresholds (`E_MIN`/`E_MAX` from Eager et al.'s
//!   speedup-versus-efficiency result), grow/shrink sizing, and the
//!   future-work extensions (opportunistic migration, fastest-first);
//! * [`coordinator`] — §3.3 + Figure 2: the adaptation coordinator state
//!   machine, including exceptional-cluster removal, blacklisting, and
//!   learned bandwidth requirements;
//! * [`bandwidth`] — §3.3: effective-bandwidth estimation from measured
//!   data-transfer times (feeds the learned requirements);
//! * [`hierarchy`] — §7 future work, ingress only: members' reports are
//!   held and replayed into one flat [`Coordinator`] at each evaluation;
//!
//! Everything here is a pure state machine over
//! [`sagrid_core::stats::MonitoringReport`]s — both the threaded runtime and
//! the discrete-event grid emulation drive the *same* coordinator code
//! (DESIGN.md §5.1).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod badness;
pub mod bandwidth;
pub mod coordinator;
pub mod efficiency;
pub mod hierarchy;
pub mod monitor;
pub mod policy;

pub use badness::{cluster_badness, node_badness, BadnessCoefficients};
pub use bandwidth::BandwidthEstimator;
pub use coordinator::{Coordinator, Decision, DecisionLogEntry, NodeBadnessRecord};
pub use efficiency::{efficiency, wa_efficiency, wa_efficiency_of_reports};
pub use hierarchy::HierarchicalCoordinator;
// `SpeedTracker` is public only for the `benchmark/` generator and this
// crate's tests; the engines feed `Coordinator::record_benchmark`.
pub use monitor::{BenchmarkScheduler, SpeedTracker};
pub use policy::AdaptPolicy;
