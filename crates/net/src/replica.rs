//! Standby hubs: replication tailing, primary-death detection, election
//! and takeover.
//!
//! A standby hub dials the primary, introduces itself with
//! [`Message::ReplicaHello`], and materialises the replication stream
//! (snapshot on attach, [`Message::StateDelta`]s after) into a
//! [`ControlState`]. The same heartbeat discipline the hub applies to
//! workers applies here in reverse: a dropped socket is a reconnectable
//! transport blip, and only *silence* — no frame from any primary for the
//! heartbeat timeout — declares the primary dead. The primary keeps the
//! link warm with periodic [`Message::HubEpoch`] frames, so silence is
//! unambiguous.
//!
//! The standby's whole life runs on one [`Reactor`]: the same loop tails
//! the replication link, ticks the silence detector, and serves the
//! standby's pre-takeover front door. Every decision in it is made by a
//! socket-free `StandbyCore`, which is handed the time with each input;
//! [`run_standby`] only dials when the core asks, polls, and hands the
//! listener back with an outcome. The listener is bound from day one
//! (so launchers can hand its address to workers immediately) and clients
//! that wander in are politely refused: a [`Message::Join`] gets an
//! explicit refusal whose reason starts with `"standby"` (workers treat
//! that prefix as *transient* and rotate to the next hub address instead
//! of exiting), anything else gets a close. On takeover the listener is
//! detached from the reactor and handed to the hub, which serves on the
//! very address workers were already dialling.
//!
//! On primary death every standby runs the same deterministic election —
//! lowest replica id over the replicated standby set ([`elect_primary`]) —
//! so all survivors agree on the winner without exchanging a single
//! message.
//! The winner bumps the hub epoch (fencing any stale primary that limps
//! back) and serves; losers re-attach to the winner's advertised address.

use crate::backoff::Backoff;
use crate::reactor::{Outbox, Reactor, ReactorEvent, Token};
use crate::replog::ControlState;
use crate::wire::Message;
use sagrid_core::ids::NodeId;
use sagrid_core::metrics::{Counter, MetricEvent, Metrics, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A parsed, ordered hub address list (`primary,standby1,standby2,…`).
/// Workers and the coordinator dial through it round-robin when failing
/// over; their per-address reconnect backoff rides on top.
#[derive(Clone, Debug)]
pub struct HubSet {
    addrs: Vec<String>,
    next: usize,
}

impl HubSet {
    /// Parses a comma-separated address list. At least one address.
    pub fn parse(s: &str) -> Result<HubSet, String> {
        let addrs: Vec<String> = s
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect();
        if addrs.is_empty() {
            return Err(format!("empty hub list {s:?}"));
        }
        Ok(HubSet { addrs, next: 0 })
    }

    /// Every address, in the order given.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// The address the next dial should try.
    pub fn current(&self) -> &str {
        &self.addrs[self.next]
    }

    /// Rotates to the following address (wraps).
    pub fn advance(&mut self) {
        self.next = (self.next + 1) % self.addrs.len();
    }

    /// Number of addresses.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Always false (parse rejects empty lists); mirrors `len`.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Failed dials allowed per address before [`HubSet::dial`] gives up.
    pub const DIAL_ATTEMPTS_PER_HUB: u32 = 12;

    /// Dials the current address, rotating to the next one after every
    /// refused dial and sleeping `backoff`'s delay in between. Gives up
    /// once `backoff` has counted [`HubSet::DIAL_ATTEMPTS_PER_HUB`] per
    /// address: during a failover the dead primary burns one failed dial
    /// per rotation, and a standby needs a full heartbeat-timeout of
    /// silence before it takes over. A successful dial leaves both the
    /// rotation and `backoff` to the caller.
    pub fn dial(&mut self, backoff: &mut Backoff) -> Result<TcpStream, String> {
        let budget = Self::DIAL_ATTEMPTS_PER_HUB * self.len() as u32;
        loop {
            match TcpStream::connect(self.current()) {
                Ok(s) => return Ok(s),
                Err(e) if backoff.attempts() >= budget => {
                    return Err(format!("cannot reach any hub of {:?}: {e}", self.addrs));
                }
                Err(_) => {
                    self.advance();
                    std::thread::sleep(backoff.next_delay());
                }
            }
        }
    }
}

/// Deterministic primary election over a standby set: the lowest replica
/// id. Every survivor computes the same winner from the same replicated
/// set — no messages are exchanged.
pub fn elect_primary(standbys: &BTreeSet<u32>) -> Option<u32> {
    standbys.first().copied()
}

/// Standby-side configuration.
#[derive(Clone, Debug)]
pub struct StandbyConfig {
    /// This standby's replica id (must be unique and nonzero; the original
    /// primary is implicitly 0, so lower standby ids win elections sooner).
    pub replica_id: u32,
    /// Address of the primary to replicate from.
    pub primary: String,
    /// `host:port` this standby serves on after a takeover (advertised to
    /// the whole standby set through the replication log).
    pub advertise: String,
    /// No frame from the primary for this long ⇒ the primary is dead.
    pub heartbeat_timeout: Duration,
    /// Liveness check / guest reap interval.
    pub detect_interval: Duration,
}

/// What [`run_standby`] resolved to.
#[derive(Debug)]
pub enum StandbyOutcome {
    /// The primary died and this standby won the election: serve, fencing
    /// older epochs.
    Takeover(Takeover),
    /// The deployment shut down gracefully while we were still standby.
    Shutdown,
}

/// Everything the winner needs to become the primary.
#[derive(Debug)]
pub struct Takeover {
    /// The new, bumped hub epoch.
    pub epoch: u64,
    /// The replicated control-plane state to seed the hub with.
    pub state: ControlState,
    /// Replication log offset the state is current as of.
    pub log_offset: u64,
}

struct ReplicaCounters {
    snapshots: Arc<Counter>,
    deltas: Arc<Counter>,
    acks: Arc<Counter>,
    elections: Arc<Counter>,
    takeovers: Arc<Counter>,
}

impl ReplicaCounters {
    fn resolve(m: &Metrics) -> Option<Self> {
        m.is_enabled().then(|| Self {
            snapshots: m
                .counter("net.replica.snapshots_received")
                .expect("enabled"),
            deltas: m.counter("net.replica.deltas_applied").expect("enabled"),
            acks: m.counter("net.replica.acks_sent").expect("enabled"),
            elections: m.counter("net.replica.elections").expect("enabled"),
            takeovers: m.counter("net.replica.takeovers").expect("enabled"),
        })
    }
}

/// The standby's liveness/reap tick.
const TIMER_LIVE: u64 = 1;

/// How long an accepted client may sit frameless before being reaped.
const GUEST_PATIENCE: Duration = Duration::from_millis(500);

/// Every decision of a standby, with no socket, clock or thread: the
/// replication tail, epoch fencing, the silence detector, the election and
/// the front door's guest reaping. The driver hands it the time with each
/// input and dials when [`StandbyCore::dial_due`] says so.
pub(crate) struct StandbyCore {
    cfg: StandbyConfig,
    metrics: Metrics,
    rc: Option<ReplicaCounters>,
    started: Instant,
    state: ControlState,
    epoch: u64,
    log_offset: u64,
    /// Where the primary is (the configured one, or an election winner).
    primary_addr: String,
    /// The replication link's token, when attached.
    primary: Option<Token>,
    /// Deterministic-jitter backoff for redials, seeded from the replica id
    /// like workers seed theirs from the node id.
    backoff: Backoff,
    next_dial: Instant,
    last_frame: Instant,
    /// Clients accepted on the front door, by accept time (reaped if they
    /// never send the Join we are waiting to refuse).
    guests: BTreeMap<Token, Instant>,
}

impl StandbyCore {
    pub(crate) fn new(cfg: &StandbyConfig, metrics: &Metrics, now: Instant) -> StandbyCore {
        StandbyCore {
            cfg: cfg.clone(),
            metrics: metrics.clone(),
            rc: ReplicaCounters::resolve(metrics),
            started: now,
            state: ControlState::default(),
            epoch: 0,
            log_offset: 0,
            primary_addr: cfg.primary.clone(),
            primary: None,
            backoff: Backoff::new(
                Duration::from_millis(50),
                Duration::from_millis(250),
                0x5eed_0000 ^ u64::from(cfg.replica_id),
            ),
            next_dial: now,
            last_frame: now,
            guests: BTreeMap::new(),
        }
    }

    /// The address to dial now, if the link is down and the backoff has
    /// run out. EOF and connect failures are transport blips; only
    /// heartbeat-timeout silence is death.
    pub(crate) fn dial_due(&self, now: Instant) -> Option<String> {
        (self.primary.is_none() && now >= self.next_dial).then(|| self.primary_addr.clone())
    }

    /// The outcome of the dial [`StandbyCore::dial_due`] asked for.
    pub(crate) fn on_dial(&mut self, now: Instant, link: Option<Token>, out: &mut dyn Outbox) {
        let Some(t) = link else {
            self.next_dial = now + self.backoff.next_delay();
            return;
        };
        self.backoff.reset();
        self.primary = Some(t);
        out.send(
            t,
            &Message::ReplicaHello {
                replica: self.cfg.replica_id,
                addr: self.cfg.advertise.clone(),
                log_offset: self.log_offset,
            },
        );
    }

    pub(crate) fn on_accept(&mut self, now: Instant, t: Token) {
        self.guests.insert(t, now);
    }

    pub(crate) fn on_close(&mut self, now: Instant, t: Token) {
        self.guests.remove(&t);
        if self.primary == Some(t) {
            self.primary = None;
            self.next_dial = now + self.backoff.next_delay();
        }
    }

    /// One decoded frame: from the primary, the replication stream; from
    /// anyone else, a front-door client to turn away.
    pub(crate) fn on_frame(
        &mut self,
        now: Instant,
        t: Token,
        msg: Message,
        out: &mut dyn Outbox,
    ) -> Option<StandbyOutcome> {
        if self.primary != Some(t) {
            // Refuse a Join explicitly (the refusal drains before the
            // close), drop everything else.
            if matches!(msg, Message::Join { .. }) {
                out.send(
                    t,
                    &Message::JoinAck {
                        node: NodeId(0),
                        accepted: false,
                        reason: "standby: not primary".to_string(),
                    },
                );
            }
            out.close(t);
            return None;
        }
        match msg {
            // A stale primary answered: fence it off and treat the link as
            // dead traffic.
            Message::StateSnapshot { epoch, .. } | Message::StateDelta { epoch, .. }
                if epoch < self.epoch =>
            {
                out.close(t)
            }
            Message::StateSnapshot {
                epoch,
                log_offset,
                state,
            } => {
                self.last_frame = now;
                self.epoch = epoch;
                self.log_offset = log_offset;
                self.state = ControlState::from_snapshot(&state);
                if let Some(rc) = &self.rc {
                    rc.snapshots.inc();
                }
                println!(
                    "EVENT standby attached epoch={epoch} offset={log_offset} digest={:016x}",
                    self.state.digest()
                );
                self.ack(t, out);
            }
            Message::StateDelta {
                epoch,
                log_offset,
                op,
            } => {
                self.last_frame = now;
                self.epoch = epoch;
                self.state.apply(&op);
                self.log_offset = log_offset + 1;
                if let Some(rc) = &self.rc {
                    rc.deltas.inc();
                }
                self.ack(t, out);
            }
            // The replication keepalive.
            Message::HubEpoch { epoch, .. } => {
                if epoch >= self.epoch {
                    self.last_frame = now;
                    self.epoch = epoch;
                }
            }
            Message::Shutdown => return Some(StandbyOutcome::Shutdown),
            // Frames a standby has no business with; ignore.
            _ => self.last_frame = now,
        }
        None
    }

    fn ack(&self, t: Token, out: &mut dyn Outbox) {
        let ack = Message::ReplicaAck {
            replica: self.cfg.replica_id,
            log_offset: self.log_offset,
        };
        if let (true, Some(rc)) = (out.send(t, &ack), &self.rc) {
            rc.acks.inc();
        }
    }

    /// The liveness tick: reaps guests that connected but never spoke,
    /// and on heartbeat silence runs the election.
    pub(crate) fn on_tick(&mut self, now: Instant, out: &mut dyn Outbox) -> Option<StandbyOutcome> {
        self.guests.retain(|&t, &mut at| {
            let patient = now.duration_since(at) < GUEST_PATIENCE;
            if !patient {
                out.close(t);
            }
            patient
        });
        if now.duration_since(self.last_frame) < self.cfg.heartbeat_timeout {
            return None;
        }

        // Heartbeat silence: the primary is dead. Elect over the replicated
        // standby set (which includes us — the primary logged our
        // ReplicaJoined).
        let mut standbys: BTreeSet<u32> = self.state.replicas.keys().copied().collect();
        standbys.insert(self.cfg.replica_id);
        let winner = elect_primary(&standbys).expect("standby set contains self");
        if let Some(rc) = &self.rc {
            rc.elections.inc();
        }
        self.metrics.emit(
            MetricEvent::new(
                now.duration_since(self.started).as_micros() as u64,
                "hub_election",
            )
            .with("winner", Value::U64(u64::from(winner)))
            .with("standbys", Value::U64(standbys.len() as u64))
            .with("old_epoch", Value::U64(self.epoch)),
        );

        if winner == self.cfg.replica_id {
            let epoch = self.epoch + 1;
            if let Some(rc) = &self.rc {
                rc.takeovers.inc();
            }
            println!(
                "EVENT takeover epoch={epoch} replica={}",
                self.cfg.replica_id
            );
            return Some(StandbyOutcome::Takeover(Takeover {
                epoch,
                state: std::mem::take(&mut self.state),
                log_offset: self.log_offset,
            }));
        }

        // Lost the election: the winner is about to serve on its
        // advertised address. Re-attach there and keep tailing; reset the
        // silence clock so the winner gets a full timeout to come up.
        self.primary_addr = self
            .state
            .replicas
            .get(&winner)
            .cloned()
            .unwrap_or_else(|| self.cfg.primary.clone());
        self.last_frame = now;
        self.backoff.reset();
        if let Some(t) = self.primary.take() {
            out.close(t);
        }
        self.next_dial = now;
        None
    }
}

/// Tails the primary until it dies or the deployment shuts down, serving
/// the standby front door on `listener` the whole time.
///
/// Blocks for the standby's whole tailing life. On primary death it runs
/// the election: if this standby wins, it returns
/// [`StandbyOutcome::Takeover`] together with the still-bound listener
/// (the caller seeds a hub from the state and serves on it); if it loses,
/// it re-attaches to the winner and keeps tailing.
pub fn run_standby(
    listener: TcpListener,
    cfg: &StandbyConfig,
    metrics: &Metrics,
) -> io::Result<(StandbyOutcome, TcpListener)> {
    let mut reactor = Reactor::with_listener(listener, metrics)?;
    let mut core = StandbyCore::new(cfg, metrics, Instant::now());
    reactor.arm_timer(TIMER_LIVE, Instant::now() + cfg.detect_interval);
    let mut events: Vec<ReactorEvent> = Vec::new();
    loop {
        if let Some(addr) = core.dial_due(Instant::now()) {
            let link = reactor.connect(&addr).ok();
            core.on_dial(Instant::now(), link, &mut reactor);
        }
        reactor.poll(&mut events, cfg.detect_interval)?;
        let now = Instant::now();
        for event in events.drain(..) {
            let outcome = match event {
                ReactorEvent::Accepted(t, _) => {
                    core.on_accept(now, t);
                    None
                }
                ReactorEvent::Closed(t) => {
                    core.on_close(now, t);
                    None
                }
                ReactorEvent::Frame(t, msg) => core.on_frame(now, t, msg, &mut reactor),
                ReactorEvent::Timer(_) => {
                    reactor.arm_timer(TIMER_LIVE, now + cfg.detect_interval);
                    core.on_tick(now, &mut reactor)
                }
            };
            if let Some(outcome) = outcome {
                let listener = reactor
                    .take_listener()
                    .expect("standby reactor owns the listener");
                return Ok((outcome, listener));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagrid_core::ids::ClusterId;

    #[test]
    fn election_is_deterministic_lowest_id() {
        let set: BTreeSet<u32> = [9, 3, 5].into_iter().collect();
        // Same winner regardless of how many times (or who) computes it.
        for _ in 0..3 {
            assert_eq!(elect_primary(&set), Some(3));
        }
        let single: BTreeSet<u32> = [7].into_iter().collect();
        assert_eq!(elect_primary(&single), Some(7));
        assert_eq!(elect_primary(&BTreeSet::new()), None);
    }

    #[test]
    fn hub_set_parses_and_rotates() {
        let mut hs = HubSet::parse("127.0.0.1:1, 127.0.0.1:2 ,127.0.0.1:3").unwrap();
        assert_eq!(hs.len(), 3);
        assert_eq!(hs.current(), "127.0.0.1:1");
        hs.advance();
        assert_eq!(hs.current(), "127.0.0.1:2");
        hs.advance();
        hs.advance();
        assert_eq!(hs.current(), "127.0.0.1:1", "wraps");
        assert!(HubSet::parse("  , ,").is_err());
        assert_eq!(HubSet::parse("a:1").unwrap().addrs(), &["a:1".to_string()]);
    }

    #[test]
    fn standby_front_door_refuses_joins_while_tailing() {
        use crate::wire::{recv_message, send_message};
        use std::net::TcpStream;

        // No primary exists at this address; the standby keeps redialling
        // while its front door refuses walk-in joins.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let cfg = StandbyConfig {
            replica_id: 1,
            primary: "127.0.0.1:1".to_string(),
            advertise: format!("127.0.0.1:{port}"),
            heartbeat_timeout: Duration::from_secs(30),
            detect_interval: Duration::from_millis(20),
        };
        let metrics = Metrics::disabled();
        let standby = std::thread::spawn(move || run_standby(listener, &cfg, &metrics));

        let mut client = TcpStream::connect(("127.0.0.1", port)).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        send_message(
            &mut client,
            &Message::Join {
                cluster: ClusterId(0),
                claim: None,
            },
        )
        .unwrap();
        match recv_message(&mut client).unwrap().unwrap() {
            Message::JoinAck {
                accepted: false,
                reason,
                ..
            } => assert!(reason.starts_with("standby"), "reason: {reason}"),
            other => panic!("expected a standby refusal, got {other:?}"),
        }
        // The refusal is followed by a close, not a hang.
        assert_eq!(recv_message(&mut client).unwrap(), None);
        // The standby is still tailing (blocked on its dead primary):
        // killing the thread isn't worth plumbing a stop signal for a unit
        // test, so just verify it hasn't crashed and leave it detached.
        assert!(!standby.is_finished() || standby.join().is_ok());
    }
}
