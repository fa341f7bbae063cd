//! # sagrid-net — process-mode control plane over real sockets
//!
//! Everything else in this workspace exercises the paper's adaptation loop
//! inside one process (threads or discrete-event simulation). This crate is
//! the deployment story: the same registry, scheduler pool and coordinator
//! logic, but spread across OS processes talking TCP on a real network.
//!
//! Per the workspace policy it uses **only** `std::net` and `std::thread` —
//! no async runtime, no serde. Messages travel as length-prefixed binary
//! frames with a hand-rolled codec ([`wire`]); sockets are multiplexed on a
//! std-only epoll reactor ([`reactor`]) — server loops drive thousands of
//! connections from one thread, and each client-side [`conn::Connection`]
//! costs a single I/O thread; reconnects use exponential backoff with
//! deterministic jitter from the workspace RNG ([`backoff`]); and the hub
//! ([`hub`]) maps wall-clock heartbeats onto the `SimTime`-driven
//! [`sagrid_registry::Membership`] state machine.
//!
//! Four binaries compose into a local grid:
//!
//! * `sagrid-hub` — registry + resource pool server,
//! * `sagrid-worker` — a threaded [`sagrid_runtime`] runtime that joins,
//!   heartbeats and reports statistics,
//! * `sagrid-coordinatord` — the *unchanged* [`sagrid_adapt::Coordinator`]
//!   running out-of-process, turning stats into grow/shrink decisions,
//! * `grid-local` — a launcher that spawns the above on localhost, applies
//!   grow/shrink by spawning/signalling worker processes, injects crashes
//!   with SIGKILL and verifies blacklisted workers never rejoin.

pub mod backoff;
pub mod conn;
pub mod hub;
pub mod reactor;
pub mod replica;
pub mod replog;
pub mod steal;
pub mod wire;

pub use backoff::Backoff;
pub use conn::{ConnId, Connection, NetEvent};
pub use hub::{Hub, HubConfig};
pub use reactor::{FrameDecoder, Reactor, ReactorEvent, ReactorMetrics, Token, Waker};
pub use replica::{elect_primary, run_standby, HubSet, StandbyConfig, StandbyOutcome, Takeover};
pub use replog::{ControlSnapshot, ControlState, MemberPhase, ReplicaOp};
pub use steal::{ExportPool, NetStealHook, StealClient, StealMetrics};
pub use wire::Message;

use std::collections::BTreeMap;

/// Minimal `--flag value` argument parser shared by the four binaries.
///
/// Every flag takes exactly one value; unknown flags are an error so typos
/// fail loudly instead of silently running with defaults.
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses `std::env::args().skip(1)`-style pairs against the allowed
    /// flag names. Returns an error message suitable for printing.
    pub fn parse<I: IntoIterator<Item = String>>(
        argv: I,
        allowed: &[&str],
    ) -> Result<Args, String> {
        let mut values = BTreeMap::new();
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
            if !allowed.contains(&name) {
                return Err(format!(
                    "unknown flag --{name} (allowed: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("--{name} requires a value"))?;
            values.insert(name.to_string(), value);
        }
        Ok(Args { values })
    }

    /// The raw string value of a flag, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    /// A flag parsed into any `FromStr` type, with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {raw:?}")),
        }
    }

    /// A required flag parsed into any `FromStr` type.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        match self.values.get(name) {
            None => Err(format!("missing required flag --{name}")),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {raw:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flag_value_pairs() {
        let a = Args::parse(
            argv(&["--port", "7070", "--workers", "4"]),
            &["port", "workers"],
        )
        .unwrap();
        assert_eq!(a.get_or("port", 0u16).unwrap(), 7070);
        assert_eq!(a.require::<u32>("workers").unwrap(), 4);
        assert_eq!(a.get("missing"), None);
        assert_eq!(a.get_or("missing", 9u8).unwrap(), 9);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(Args::parse(argv(&["--nope", "1"]), &["port"]).is_err());
        assert!(Args::parse(argv(&["--port"]), &["port"]).is_err());
        assert!(Args::parse(argv(&["port", "1"]), &["port"]).is_err());
        assert!(Args::parse(argv(&["--port", "x"]), &["port"])
            .unwrap()
            .require::<u16>("port")
            .is_err());
    }
}
