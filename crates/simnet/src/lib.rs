//! # sagrid-simnet
//!
//! The deterministic discrete-event substrate standing in for the DAS-2
//! wide-area system the paper evaluated on (DESIGN.md §2).
//!
//! * [`kernel`] — a minimal discrete-event kernel: a virtual clock and a
//!   totally-ordered event queue, generic over the event payload;
//! * [`net`] — the network model: per-cluster LANs (latency + per-message
//!   transmit time) and shared, FIFO-queued cluster uplinks onto a WAN
//!   backbone. An overloaded uplink queues traffic exactly like the paper's
//!   traffic-shaped 100 KB/s link;
//! * [`inject`] — scenario event injection: background CPU load, uplink
//!   bandwidth shaping, node/cluster crashes — the knobs scenarios 3–6 turn.
//!
//! Determinism: event ordering is `(time, sequence-number)` with sequence
//! numbers issued at push time, so simulations replay bit-identically.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod inject;
pub mod kernel;
pub mod net;

pub use inject::{Injection, InjectionSchedule, ScheduledInjection};
pub use kernel::{EventQueue, QueueBackend};
pub use net::{Network, SharedLink};
