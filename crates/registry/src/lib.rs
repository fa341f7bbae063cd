//! # sagrid-registry
//!
//! An Ibis-registry-like membership service (paper §4). The registry
//! provides, to the application processes and to the adaptation coordinator:
//!
//! * a **membership service** — processes join and leave, everyone can
//!   enumerate the live set;
//! * **fault detection** — a heartbeat-timeout failure detector (in
//!   addition to the fault detection the communication channels provide);
//! * **signals** — the coordinator uses the registry to tell processes to
//!   leave the computation.
//!
//! The implementation is a pure state machine driven by timestamps; the
//! process-mode hub embeds it as its failure detector.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod membership;

pub use membership::{MemberState, Membership, RegistryConfig, RegistryEvent};
