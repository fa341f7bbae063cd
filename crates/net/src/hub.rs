//! The hub: registry + resource pool served over TCP.
//!
//! One process plays the paper's centralized registry and grid scheduler:
//! it accepts worker/coordinator/launcher connections, maps wall-clock
//! heartbeats onto the `SimTime`-driven [`Membership`] state machine,
//! allocates node ids from a [`ResourcePool`], forwards statistics to the
//! out-of-process coordinator, relays its grow/shrink decisions, and runs
//! the heartbeat failure detector.
//!
//! The hub is a socket-free core behind a thin driver. `HubCore` owns all
//! hub state (plain maps) and makes every protocol decision: each input —
//! an accepted or closed connection, a decoded frame, a detection or
//! directory tick — is one method call that is handed the time as a
//! `SimTime`, and everything the core says goes to an `Outbox`. It reads
//! no clock, touches no socket and spawns no thread, so its unit tests
//! need neither. [`Hub::run`] is the driver: one [`Reactor`] loop that owns
//! the listener, every connection, the frame decoding and the write
//! queues, maps each reactor event onto one core call, and re-arms the
//! failure-detection and directory timers. Thread count is independent of
//! worker count, and peer-directory broadcasts are coalesced onto a timer
//! instead of firing per announce, leave or death.
//!
//! A deliberately subtle point: an *unexpected connection close is not a
//! death*. SIGKILL closes the victim's socket immediately, long before any
//! heartbeat is missed; treating EOF as a crash would short-circuit the
//! failure detector the paper describes (and penalise workers that merely
//! lost a TCP connection and will reconnect with backoff). Only the
//! heartbeat timeout declares a node dead.

use crate::reactor::{Outbox, Reactor, ReactorEvent, Token};
use crate::replica::Takeover;
use crate::replog::{ControlState, MemberPhase, ReplicaOp};
use crate::wire::{Message, PeerInfo};
use sagrid_core::config::GridConfig;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::metrics::{Counter, MetricEvent, Metrics, Value};
use sagrid_core::stats::MonitoringReport;
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_registry::{MemberState, Membership, RegistryConfig, RegistryEvent};
use sagrid_sched::{AllocPolicy, Requirements, ResourcePool};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hub tuning knobs (wall-clock durations; the hub converts them to
/// `SimTime` microseconds against its own epoch).
#[derive(Clone, Copy, Debug)]
pub struct HubConfig {
    /// Number of clusters in the emulated grid pool.
    pub clusters: usize,
    /// Nodes per cluster in the pool.
    pub nodes_per_cluster: usize,
    /// A worker silent for longer than this is declared dead.
    pub heartbeat_timeout: Duration,
    /// How often the failure detector runs (also the event-loop tick).
    pub detect_interval: Duration,
}

impl Default for HubConfig {
    fn default() -> Self {
        Self {
            clusters: 2,
            nodes_per_cluster: 32,
            heartbeat_timeout: Duration::from_secs(2),
            detect_interval: Duration::from_millis(200),
        }
    }
}

/// Timer key: the failure-detection sweep (re-armed every tick).
const TIMER_DETECT: u64 = 1;
/// Timer key: the coalesced peer-directory broadcast.
const TIMER_DIR: u64 = 2;

/// What a connection has identified itself as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Unknown,
    Worker(NodeId),
    Coordinator,
    Launcher,
    /// A standby hub tailing the replication log.
    Replica(u32),
}

/// Hub-side pre-resolved counters (`net.*` namespace, shared with the
/// reactor's transport counters).
struct HubCounters {
    joins: Arc<Counter>,
    join_refusals: Arc<Counter>,
    heartbeats: Arc<Counter>,
    stats_forwarded: Arc<Counter>,
    deaths: Arc<Counter>,
    suspects: Arc<Counter>,
    resumes: Arc<Counter>,
    leaves: Arc<Counter>,
    grow_requests: Arc<Counter>,
    spawns_requested: Arc<Counter>,
    shrink_requests: Arc<Counter>,
    replica_deltas_sent: Arc<Counter>,
    replica_snapshots_sent: Arc<Counter>,
    replica_fenced: Arc<Counter>,
}

impl HubCounters {
    fn resolve(m: &Metrics) -> Option<Self> {
        m.is_enabled().then(|| Self {
            joins: m.counter("net.joins").expect("enabled"),
            join_refusals: m.counter("net.join_refusals").expect("enabled"),
            heartbeats: m.counter("net.heartbeats").expect("enabled"),
            stats_forwarded: m.counter("net.stats_forwarded").expect("enabled"),
            deaths: m.counter("net.deaths").expect("enabled"),
            suspects: m.counter("net.suspects").expect("enabled"),
            resumes: m.counter("net.suspect_resumes").expect("enabled"),
            leaves: m.counter("net.leaves").expect("enabled"),
            grow_requests: m.counter("net.grow_requests").expect("enabled"),
            spawns_requested: m.counter("net.spawns_requested").expect("enabled"),
            shrink_requests: m.counter("net.shrink_requests").expect("enabled"),
            replica_deltas_sent: m.counter("net.replica.deltas_sent").expect("enabled"),
            replica_snapshots_sent: m.counter("net.replica.snapshots_sent").expect("enabled"),
            replica_fenced: m.counter("net.replica.fenced").expect("enabled"),
        })
    }
}

/// Why the driver must stop serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stop {
    /// A launcher ended the session; the `Shutdown` broadcast is queued
    /// and should be drained before the sockets go.
    Shutdown,
    /// A frame from a newer epoch: this hub lost a failover it never saw.
    Fenced,
}

/// Every protocol decision of the hub, with no socket, clock or thread:
/// registry, pool, connection roles, the peer directory and the
/// replication plane. One method per input; output goes to an [`Outbox`].
pub(crate) struct HubCore {
    clusters: usize,
    metrics: Metrics,
    hc: Option<HubCounters>,
    membership: Membership,
    pool: ResourcePool,
    roles: BTreeMap<Token, Role>,
    node_conn: BTreeMap<NodeId, Token>,
    coordinator: Option<Token>,
    launcher: Option<Token>,
    pending_spawns: BTreeSet<NodeId>,
    /// Grow grants made while no launcher is connected wait here instead
    /// of being dropped (the launcher's hello may race the coordinator's
    /// first decision).
    pending_grants: Vec<(NodeId, ClusterId)>,
    /// Steal-plane peer directory: node → where its steal listener is.
    /// Populated by `PeerAnnounce`, pruned on leave/death. Broadcasts are
    /// coalesced: every change — join wave, churn, crash sweep — marks the
    /// directory dirty and the directory tick pushes one snapshot for
    /// however many changes accumulated.
    peer_dir: BTreeMap<NodeId, PeerInfo>,
    dir_dirty: bool,
    /// Peers announced since the last broadcast: the only entries whose
    /// removal must flush first (see `prune_peer`).
    unwitnessed: BTreeSet<NodeId>,
    /// The primary's own materialised copy of the replicated state, and
    /// the hub's only copy of both blacklists: a blacklist entry exists
    /// exactly when its op was replicated.
    control: ControlState,
    /// Offset the next replicated op gets. Ops are not retained: a
    /// standby attaching late gets a snapshot at this offset instead.
    log_offset: u64,
    /// Attached standbys by connection (the live delta fan-out).
    replicas: BTreeMap<Token, u32>,
    /// The hub epoch served under (1 for an original primary; a takeover
    /// bumps it).
    epoch: u64,
    /// Replica id of this hub (0 = original primary).
    leader: u32,
}

impl HubCore {
    /// A fresh primary, or — given a won election and this hub's replica
    /// id — the new primary seeded from the replicated state.
    pub(crate) fn new(
        cfg: &HubConfig,
        metrics: &Metrics,
        takeover: Option<(Takeover, u32)>,
        now: SimTime,
    ) -> HubCore {
        let mut pool = ResourcePool::new(&GridConfig::uniform(cfg.clusters, cfg.nodes_per_cluster));
        pool.set_metrics(metrics);
        let mut core = HubCore {
            clusters: cfg.clusters,
            metrics: metrics.clone(),
            hc: HubCounters::resolve(metrics),
            // Three-state liveness: silence past half the timeout marks a
            // member Suspect (coordinator holds fire on shrink), silence
            // past the full timeout kills it. Workers heartbeat several
            // times per half-timeout, so a healthy member never trips it.
            membership: Membership::new(RegistryConfig::with_timeout(SimDuration::from_micros(
                cfg.heartbeat_timeout.as_micros() as u64,
            ))),
            pool,
            roles: BTreeMap::new(),
            node_conn: BTreeMap::new(),
            coordinator: None,
            launcher: None,
            pending_spawns: BTreeSet::new(),
            pending_grants: Vec::new(),
            peer_dir: BTreeMap::new(),
            dir_dirty: false,
            unwitnessed: BTreeSet::new(),
            control: ControlState::default(),
            log_offset: 0,
            replicas: BTreeMap::new(),
            epoch: 1,
            leader: 0,
        };

        // A takeover seeds everything a new primary cannot re-learn from
        // reconnecting workers: membership phases, both blacklists, the
        // peer directory and learned bandwidth. Pool occupancy is derived
        // (live members reserve their ids; dead/blacklisted are lost), and
        // the replay's registry events are drained — they describe the old
        // primary's history, not fresh transitions. An id outside this
        // pool (a coordinator's Shrink is not range-checked) holds no slot.
        if let Some((takeover, leader)) = takeover {
            let pool_nodes = cfg.clusters * cfg.nodes_per_cluster;
            let in_pool = |n: &NodeId| n.index() < pool_nodes;
            core.epoch = takeover.epoch;
            core.leader = leader;
            core.log_offset = takeover.log_offset;
            core.control = takeover.state;
            for (&node, &(cluster, phase)) in
                core.control.members.iter().filter(|(n, _)| in_pool(n))
            {
                match phase {
                    MemberPhase::Alive | MemberPhase::Leaving => {
                        core.membership.join(now, node, cluster);
                        if phase == MemberPhase::Leaving {
                            core.membership.signal_leave(node);
                        }
                        core.pool.reserve(node);
                    }
                    MemberPhase::Left => {}
                    MemberPhase::Dead => {
                        core.membership.join(now, node, cluster);
                        core.membership.report_crash(node);
                        core.pool.mark_lost(node);
                    }
                }
            }
            let _ = core.membership.take_events();
            let _ = core.membership.take_signals();
            for &n in core.control.blacklisted_nodes.iter().filter(|n| in_pool(n)) {
                core.pool.mark_lost(n);
            }
            core.peer_dir = core.control.peers.clone();
            let control = &core.control;
            core.metrics.emit(
                MetricEvent::new(now.0, "hub_failover")
                    .with("epoch", Value::U64(core.epoch))
                    .with("leader", Value::U64(u64::from(leader)))
                    .with(
                        "members_alive",
                        Value::U64(core.membership.alive_count() as u64),
                    )
                    // The ids themselves (not a count): the invariant
                    // checker proves blacklist permanence across the epoch
                    // boundary from this list alone.
                    .with(
                        "blacklisted_nodes",
                        Value::Raw(format!(
                            "[{}]",
                            control
                                .blacklisted_nodes
                                .iter()
                                .map(|n| n.0.to_string())
                                .collect::<Vec<_>>()
                                .join(",")
                        )),
                    )
                    .with(
                        "bandwidth_nodes",
                        Value::U64(control.bandwidth.len() as u64),
                    )
                    .with("peers", Value::U64(core.peer_dir.len() as u64))
                    .with("log_offset", Value::U64(core.log_offset))
                    .with("digest", Value::Str(format!("{:016x}", control.digest()))),
            );
        }
        println!("EVENT serving epoch={} leader={}", core.epoch, core.leader);
        core
    }

    /// A connection was accepted; it has no role until it says hello or
    /// joins.
    pub(crate) fn on_accept(&mut self, id: Token) {
        self.roles.insert(id, Role::Unknown);
    }

    /// A connection is gone.
    pub(crate) fn on_close(&mut self, id: Token) {
        match self.roles.remove(&id).unwrap_or(Role::Unknown) {
            // NOT a death: the worker may reconnect (and a SIGKILL'd one
            // must be caught by the heartbeat timeout, not by EOF — see
            // module docs). Forget the node's connection only if it is
            // still THIS connection (a reconnect may have replaced it).
            Role::Worker(node) => {
                if self.node_conn.get(&node) == Some(&id) {
                    self.node_conn.remove(&node);
                }
            }
            Role::Coordinator => self.coordinator = self.coordinator.filter(|&c| c != id),
            Role::Launcher => self.launcher = self.launcher.filter(|&l| l != id),
            // The standby set in `control.replicas` is kept: a standby
            // losing its socket is a transport blip and it will re-attach;
            // only the live delta fan-out forgets the connection.
            Role::Replica(_) => {
                self.replicas.remove(&id);
            }
            Role::Unknown => {}
        }
    }

    /// The coalesced peer-directory broadcast tick.
    pub(crate) fn on_dir_tick(&mut self, out: &mut dyn Outbox) {
        self.flush_directory(out);
    }

    /// The failure-detection sweep, on the driver's clock and independent
    /// of traffic (an idle control plane still sweeps), plus the
    /// replication keepalive.
    pub(crate) fn on_detect(&mut self, now: SimTime, out: &mut dyn Outbox) {
        for dead in self.membership.detect_failures(now) {
            let cluster = self.membership.cluster_of(dead).unwrap_or(ClusterId(0));
            self.pool.mark_lost(dead);
            // Like a farewell, a death takes the worker role away: a late
            // frame on the dead node's still-open socket speaks for nobody.
            if let Some(t) = self.node_conn.remove(&dead) {
                self.roles.insert(t, Role::Unknown);
            }
            self.prune_peer(dead, out);
            self.replicate(ReplicaOp::Death { node: dead }, out);
            self.replicate(ReplicaOp::BlacklistNode { node: dead }, out);
            if let Some(hc) = &self.hc {
                hc.deaths.inc();
            }
            println!("EVENT died {dead}");
            if let Some(cid) = self.coordinator {
                out.send(
                    cid,
                    &Message::CrashNotice {
                        node: dead,
                        cluster,
                    },
                );
            }
        }
        // Standbys declare the primary dead on *silence*, so an idle
        // control plane must still tick.
        if !self.replicas.is_empty() {
            let keepalive = Reactor::encode_frame(&self.epoch_stamp());
            for &t in self.replicas.keys() {
                out.send_frame(t, keepalive.clone());
            }
        }
        self.surface_registry_events(now, out);
    }

    /// One decoded frame from connection `id`. `Some` tells the driver to
    /// stop serving.
    pub(crate) fn on_frame(
        &mut self,
        now: SimTime,
        id: Token,
        msg: Message,
        out: &mut dyn Outbox,
    ) -> Option<Stop> {
        let role = self.roles.get(&id).copied().unwrap_or(Role::Unknown);
        match msg {
            Message::Join { cluster, claim } => self.join(now, id, cluster, claim, out),
            // Liveness, statistics, farewells and steal listeners for node
            // X count only on the connection that joined as X: a foreign
            // socket can neither keep a silent node alive, nor speak for
            // it, nor free its id.
            Message::Heartbeat { node } if role == Role::Worker(node) => {
                self.membership.heartbeat(now, node);
                if let Some(hc) = &self.hc {
                    hc.heartbeats.inc();
                }
            }
            Message::StatsReport {
                report,
                bench_micros,
            } if role == Role::Worker(report.node) => self.report(report, bench_micros, out),
            Message::Leaving { node } if role == Role::Worker(node) => self.leave(id, node, out),
            Message::PeerAnnounce { node, steal_addr } if role == Role::Worker(node) => {
                let info = PeerInfo {
                    node,
                    cluster: self.pool.cluster_of(node),
                    steal_addr,
                };
                // A re-announce of what the directory already holds (every
                // worker re-announces after a failover) changes nothing.
                if self.peer_dir.get(&node) != Some(&info) {
                    self.peer_dir.insert(node, info);
                    self.unwitnessed.insert(node);
                    self.dir_dirty = true;
                    println!("EVENT peers {}", self.peer_dir.len());
                }
            }
            Message::CoordinatorHello => {
                self.roles.insert(id, Role::Coordinator);
                self.coordinator = Some(id);
                // The coordinator carries the epoch in its decision
                // provenance events.
                out.send(id, &self.epoch_stamp());
            }
            Message::LauncherHello => {
                self.roles.insert(id, Role::Launcher);
                self.launcher = Some(id);
                for (node, cluster) in std::mem::take(&mut self.pending_grants) {
                    self.spawn(id, node, cluster, out);
                }
            }
            // The coordinator grows on an Add decision; the launcher grows
            // when a scenario file injects an external capacity grant.
            Message::Grow {
                count,
                prefer,
                min_uplink_bps,
                min_speed,
            } if matches!(role, Role::Coordinator | Role::Launcher) => {
                let req = Requirements {
                    min_uplink_bps,
                    min_speed,
                };
                self.grow(count, &prefer, &req, out);
            }
            Message::Shrink { nodes, cluster } if role == Role::Coordinator => {
                self.shrink(nodes, cluster, out)
            }
            // A scenario file's graceful `shrink` event: signal the node
            // out through the registry exactly like a coordinator Shrink,
            // but WITHOUT blacklisting — scenario-withdrawn nodes return to
            // the pool when their farewell arrives, so a later grow may
            // hand the same machines back.
            Message::SignalLeave { node } if role == Role::Launcher => {
                self.membership.signal_leave(node);
                self.deliver_signals(out);
            }
            msg @ Message::Perturb { cluster, count, .. } if role == Role::Launcher => {
                self.perturb(cluster, count, &msg, out)
            }
            Message::Shutdown if role == Role::Launcher => {
                let frame = Reactor::encode_frame(&Message::Shutdown);
                for &t in self.roles.keys() {
                    out.send_frame(t, frame.clone());
                }
                return Some(Stop::Shutdown);
            }
            Message::ReplicaHello { replica, addr, .. } => {
                self.attach_replica(id, replica, addr, out)
            }
            Message::StateDelta { epoch, .. }
            | Message::StateSnapshot { epoch, .. }
            | Message::HubEpoch { epoch, .. } => return self.fence(now, id, epoch, out),
            // Everything else is ignored: a role-gated frame from a
            // connection without the role, a standby's `ReplicaAck`
            // (accepted; nothing reads replication lag), hub-outbound
            // messages arriving inbound, and steal-plane traffic (worker ↔
            // worker, never through the hub).
            _ => {}
        }
        self.surface_registry_events(now, out);
        None
    }

    fn epoch_stamp(&self) -> Message {
        Message::HubEpoch {
            epoch: self.epoch,
            leader: self.leader,
        }
    }

    fn is_live(&self, node: NodeId) -> bool {
        matches!(
            self.membership.state(node),
            Some(MemberState::Alive | MemberState::Leaving | MemberState::Suspect)
        )
    }

    fn join(
        &mut self,
        now: SimTime,
        id: Token,
        cluster: ClusterId,
        claim: Option<NodeId>,
        out: &mut dyn Outbox,
    ) {
        let (node, fresh) = match self.admit(now, cluster, claim) {
            Ok(admitted) => admitted,
            Err(reason) => {
                out.send(
                    id,
                    &Message::JoinAck {
                        node: NodeId(u32::MAX),
                        accepted: false,
                        reason,
                    },
                );
                if let Some(hc) = &self.hc {
                    hc.join_refusals.inc();
                }
                return;
            }
        };
        self.roles.insert(id, Role::Worker(node));
        self.node_conn.insert(node, id);
        if fresh {
            let cluster = self.pool.cluster_of(node);
            self.replicate(ReplicaOp::Join { node, cluster }, out);
        }
        out.send(
            id,
            &Message::JoinAck {
                node,
                accepted: true,
                reason: String::new(),
            },
        );
        // Epoch stamp: lets the worker spot a stale primary after a
        // failover.
        out.send(id, &self.epoch_stamp());
        // Bring the newcomer up to date on the steal plane right away;
        // later changes rebroadcast (coalesced) to everyone. An empty
        // directory conveys nothing, so skip the frame (and keep
        // non-stealing deployments free of directory traffic).
        if !self.peer_dir.is_empty() {
            out.send(
                id,
                &Message::PeerDirectory {
                    peers: self.peer_dir.values().cloned().collect(),
                },
            );
        }
        if let Some(hc) = &self.hc {
            hc.joins.inc();
        }
        println!("EVENT joined {node}");
    }

    /// The verdict on a join: the node, and whether it is a new member
    /// rather than a reconnect.
    fn admit(
        &mut self,
        now: SimTime,
        cluster: ClusterId,
        claim: Option<NodeId>,
    ) -> Result<(NodeId, bool), String> {
        if let Some(node) = claim {
            return if self.control.blacklisted_nodes.contains(&node) {
                Err(format!("node {node} is blacklisted"))
            } else if self.pending_spawns.remove(&node) {
                let c = self.pool.cluster_of(node);
                self.membership.join(now, node, c);
                Ok((node, true))
            } else if self.is_live(node) {
                // Transport-level reconnect of a member that never missed
                // enough heartbeats to be declared dead. A Suspect resumes
                // here without a blacklist mark: the heartbeat is proof of
                // life.
                self.membership.heartbeat(now, node);
                Ok((node, false))
            } else {
                Err(format!("node {node} is blacklisted, dead or unknown"))
            };
        }
        if cluster.index() >= self.clusters {
            return Err(format!("no such cluster {cluster}"));
        }
        if self.control.blacklisted_clusters.contains(&cluster) {
            return Err(format!("cluster {cluster} is blacklisted"));
        }
        // Force the grant into the declared cluster by excluding all others.
        let excl: BTreeSet<ClusterId> = (0..self.clusters)
            .map(|i| ClusterId(i as u16))
            .filter(|c| *c != cluster)
            .chain(self.control.blacklisted_clusters.iter().copied())
            .collect();
        let grant = self
            .pool
            .request(
                1,
                AllocPolicy::LocalityAware,
                &Requirements::default(),
                &self.control.blacklisted_nodes,
                &excl,
                &[cluster],
            )
            .pop()
            .ok_or_else(|| format!("cluster {cluster} has no free nodes"))?;
        self.membership.join(now, grant.node, grant.cluster);
        Ok((grant.node, true))
    }

    fn report(&mut self, report: MonitoringReport, bench_micros: u64, out: &mut dyn Outbox) {
        // Reports from blacklisted nodes are dropped so a removed worker
        // can never re-enter the coordinator's report set through a stale
        // socket.
        if self.control.blacklisted_nodes.contains(&report.node) {
            return;
        }
        // Learned bandwidth is control-plane state a new primary must not
        // have to re-measure: replicate the latest benchmark per node.
        if bench_micros > 0 && self.control.bandwidth.get(&report.node) != Some(&bench_micros) {
            let node = report.node;
            self.replicate(ReplicaOp::Bandwidth { node, bench_micros }, out);
        }
        if let Some(cid) = self.coordinator {
            let forwarded = out.send(
                cid,
                &Message::StatsReport {
                    report,
                    bench_micros,
                },
            );
            if let (true, Some(hc)) = (forwarded, &self.hc) {
                hc.stats_forwarded.inc();
            }
        }
    }

    /// A member's own farewell. The connection gives up its worker role
    /// and only a live member leaves, so a repeated farewell is a no-op.
    fn leave(&mut self, id: Token, node: NodeId, out: &mut dyn Outbox) {
        self.roles.insert(id, Role::Unknown);
        if !self.is_live(node) {
            return;
        }
        self.membership.leave(node);
        self.replicate(ReplicaOp::Leave { node }, out);
        // Blacklisted (shrink-removed) nodes never return to the pool;
        // voluntary leavers do.
        if !self.control.blacklisted_nodes.contains(&node) {
            self.pool.release(node);
        }
        self.node_conn.remove(&node);
        self.prune_peer(node, out);
        if let Some(hc) = &self.hc {
            hc.leaves.inc();
        }
        println!("EVENT left {node}");
    }

    /// Asks the launcher to start a worker claiming `node`.
    fn spawn(&mut self, launcher: Token, node: NodeId, cluster: ClusterId, out: &mut dyn Outbox) {
        self.pending_spawns.insert(node);
        out.send(launcher, &Message::SpawnWorker { node, cluster });
        if let Some(hc) = &self.hc {
            hc.spawns_requested.inc();
        }
    }

    fn grow(&mut self, count: u32, prefer: &[ClusterId], req: &Requirements, out: &mut dyn Outbox) {
        if let Some(hc) = &self.hc {
            hc.grow_requests.inc();
        }
        let grants = self.pool.request(
            count as usize,
            AllocPolicy::LocalityAware,
            req,
            &self.control.blacklisted_nodes,
            &self.control.blacklisted_clusters,
            prefer,
        );
        for g in grants {
            match self.launcher {
                Some(l) => self.spawn(l, g.node, g.cluster, out),
                // Nobody can spawn processes yet: hold the grant.
                None => self.pending_grants.push((g.node, g.cluster)),
            }
        }
    }

    fn shrink(&mut self, nodes: Vec<NodeId>, cluster: Option<ClusterId>, out: &mut dyn Outbox) {
        if let Some(hc) = &self.hc {
            hc.shrink_requests.inc();
        }
        for &node in &nodes {
            self.replicate(ReplicaOp::BlacklistNode { node }, out);
        }
        if let Some(cluster) = cluster {
            self.replicate(ReplicaOp::BlacklistCluster { cluster }, out);
        }
        for node in nodes {
            self.membership.signal_leave(node);
        }
        self.deliver_signals(out);
    }

    /// Sends the registry's queued leave signals to their workers.
    fn deliver_signals(&mut self, out: &mut dyn Outbox) {
        for node in self.membership.take_signals() {
            if let Some(&t) = self.node_conn.get(&node) {
                out.send(t, &Message::SignalLeave { node });
            }
        }
    }

    /// A scenario perturbation: fan it out to (the first `count` of) the
    /// cluster's connected workers.
    fn perturb(&self, cluster: ClusterId, count: u32, msg: &Message, out: &mut dyn Outbox) {
        let frame = Reactor::encode_frame(msg);
        let mut sent = 0u32;
        for (&node, &t) in &self.node_conn {
            if self.pool.cluster_of(node) != cluster {
                continue;
            }
            if count > 0 && sent >= count {
                break;
            }
            if out.send_frame(t, frame.clone()) {
                sent += 1;
            }
        }
        println!("EVENT perturbed {cluster} workers {sent}");
    }

    /// A standby hub attaches: log it to the standby set (so every replica
    /// learns where the others serve), register the connection, and bring
    /// it current with a full snapshot. Snapshots are idempotent, so a
    /// reattach at any offset is just another snapshot.
    fn attach_replica(&mut self, id: Token, replica: u32, addr: String, out: &mut dyn Outbox) {
        self.replicate(ReplicaOp::ReplicaJoined { replica, addr }, out);
        self.roles.insert(id, Role::Replica(replica));
        self.replicas.insert(id, replica);
        let snapshot = Message::StateSnapshot {
            epoch: self.epoch,
            log_offset: self.log_offset,
            state: self.control.snapshot(),
        };
        if let (true, Some(hc)) = (out.send(id, &snapshot), &self.hc) {
            hc.replica_snapshots_sent.inc();
        }
        println!("EVENT replica {replica} attached");
    }

    /// Epoch fencing. A write-bearing frame from an older epoch is a stale
    /// primary that limped back after a failover: refuse the write and
    /// answer with the current epoch so it can stand down. A *newer* epoch
    /// means WE are the stale primary — stop serving immediately rather
    /// than split the brain.
    fn fence(&mut self, now: SimTime, id: Token, e: u64, out: &mut dyn Outbox) -> Option<Stop> {
        if e < self.epoch {
            out.send(id, &self.epoch_stamp());
            if let Some(hc) = &self.hc {
                hc.replica_fenced.inc();
            }
            println!("EVENT fenced stale epoch={e}");
        } else if e > self.epoch {
            println!("EVENT fenced by newer epoch={e}");
            self.metrics.emit(
                MetricEvent::new(now.0, "hub_fenced")
                    .with("epoch", Value::U64(self.epoch))
                    .with("leader", Value::U64(u64::from(self.leader))),
            );
            return Some(Stop::Fenced);
        }
        None
    }

    /// Applies one control-plane transition to the primary's materialised
    /// state, takes the next log offset, and fans the op out to every
    /// attached standby. The primary goes through the *same*
    /// [`ControlState::apply`] as the standbys, so convergence is by
    /// construction, not by parallel bookkeeping.
    fn replicate(&mut self, op: ReplicaOp, out: &mut dyn Outbox) {
        self.control.apply(&op);
        let log_offset = self.log_offset;
        self.log_offset += 1;
        if self.replicas.is_empty() {
            return;
        }
        // Broadcast economics: encode the delta once, share the frame.
        let frame = Reactor::encode_frame(&Message::StateDelta {
            epoch: self.epoch,
            log_offset,
            op,
        });
        let sent = self
            .replicas
            .keys()
            .filter(|&&t| out.send_frame(t, frame.clone()))
            .count();
        if let Some(hc) = &self.hc {
            hc.replica_deltas_sent.add(sent as u64);
        }
    }

    /// Drops a departed node from the peer directory; the removal goes out
    /// with the next directory tick, within one directory interval. Every
    /// addition must be witnessable in a snapshot before its removal is
    /// broadcast, so only a node whose announce no broadcast has carried
    /// yet flushes the pending snapshot first: an announce and a leave in
    /// one coalescing window must not cancel out invisibly.
    fn prune_peer(&mut self, node: NodeId, out: &mut dyn Outbox) {
        if self.unwitnessed.contains(&node) {
            self.flush_directory(out);
        }
        if self.peer_dir.remove(&node).is_some() {
            self.dir_dirty = true;
        }
    }

    /// Pushes the pending coalesced directory broadcast to every connected
    /// worker, and replicates it: at most once per directory tick, plus
    /// once per unwitnessed prune. Full snapshots rather than deltas: a
    /// snapshot is idempotent, so a lost or reordered broadcast heals on
    /// the next directory change instead of leaving a worker with a
    /// permanently stale view.
    fn flush_directory(&mut self, out: &mut dyn Outbox) {
        if !std::mem::take(&mut self.dir_dirty) {
            return;
        }
        self.unwitnessed.clear();
        let dir = Message::PeerDirectory {
            peers: self.peer_dir.values().cloned().collect(),
        };
        let frame = Reactor::encode_frame(&dir);
        for &t in self.node_conn.values() {
            out.send_frame(t, frame.clone());
        }
        if let Message::PeerDirectory { peers } = dir {
            self.replicate(ReplicaOp::PeerDir { peers }, out);
        }
    }

    /// Surfaces registry transitions as metric events, and keeps the
    /// coordinator's suspicion view current: Suspected/Resumed transitions
    /// go out as `SuspectNotice` frames (deaths already went out as
    /// `CrashNotice` from the detection sweep). The notices flow whether or
    /// not metrics are on — the hold-fire rule is policy, not
    /// observability.
    fn surface_registry_events(&mut self, now: SimTime, out: &mut dyn Outbox) {
        for evt in self.membership.take_events() {
            let (node, state) = match evt {
                RegistryEvent::Joined(n, _) => (n, "joined"),
                RegistryEvent::Left(n) => (n, "left"),
                RegistryEvent::Died(n) => (n, "died"),
                RegistryEvent::Suspected(n) => (n, "suspect"),
                RegistryEvent::Resumed(n) => (n, "alive"),
            };
            if let RegistryEvent::Suspected(_) | RegistryEvent::Resumed(_) = evt {
                let suspected = matches!(evt, RegistryEvent::Suspected(_));
                if let Some(hc) = &self.hc {
                    let counter = if suspected { &hc.suspects } else { &hc.resumes };
                    counter.inc();
                }
                println!(
                    "EVENT {} {node}",
                    if suspected { "suspect" } else { "resumed" }
                );
                if let Some(cid) = self.coordinator {
                    out.send(cid, &Message::SuspectNotice { node, suspected });
                }
            }
            if self.metrics.is_enabled() {
                self.metrics.emit(
                    MetricEvent::new(now.0, "member")
                        .with("node", Value::U64(u64::from(node.0)))
                        .with("state", Value::Str(state.to_string())),
                );
            }
        }
    }
}

/// A bound, not-yet-running hub. [`Hub::bind`] then [`Hub::run`].
pub struct Hub {
    listener: TcpListener,
    cfg: HubConfig,
    metrics: Metrics,
    /// A won election to seed from, with this hub's replica id.
    takeover: Option<(Takeover, u32)>,
}

impl Hub {
    /// Binds the listening socket (use port 0 for an ephemeral port).
    pub fn bind(addr: &str, cfg: HubConfig, metrics: Metrics) -> io::Result<Hub> {
        let listener = TcpListener::bind(addr)?;
        Ok(Hub::from_listener(listener, cfg, metrics))
    }

    /// Wraps an already-bound listener (a standby binds its port long
    /// before it wins an election, so workers can be pointed at it from
    /// the start).
    pub fn from_listener(listener: TcpListener, cfg: HubConfig, metrics: Metrics) -> Hub {
        assert!(cfg.clusters > 0 && cfg.nodes_per_cluster > 0);
        Hub {
            listener,
            cfg,
            metrics,
            takeover: None,
        }
    }

    /// Seeds this hub from a won election: the replicated control-plane
    /// state, the bumped epoch, and this hub's replica id as the leader.
    pub fn with_takeover(mut self, takeover: Takeover, replica_id: u32) -> Hub {
        self.takeover = Some((takeover, replica_id));
        self
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.listener.local_addr().map(|a| a.port()).unwrap_or(0)
    }

    /// Serves until a launcher sends [`Message::Shutdown`] (or a newer
    /// epoch fences this hub out). Returns the metrics handle so the caller
    /// can write the final report.
    pub fn run(self) -> Metrics {
        let Hub {
            listener,
            cfg,
            metrics,
            takeover,
        } = self;
        let mut reactor = Reactor::with_listener(listener, &metrics).expect("hub reactor");
        let start = Instant::now();
        let clock = || SimTime::from_micros(start.elapsed().as_micros() as u64);
        let mut core = HubCore::new(&cfg, &metrics, takeover, clock());

        let dir_interval = cfg.detect_interval.min(Duration::from_millis(50));
        reactor.arm_timer(TIMER_DETECT, Instant::now() + cfg.detect_interval);
        reactor.arm_timer(TIMER_DIR, Instant::now() + dir_interval);
        let mut events: Vec<ReactorEvent> = Vec::new();
        'serve: while reactor.poll(&mut events, cfg.detect_interval).is_ok() {
            let now = clock();
            for event in events.drain(..) {
                match event {
                    ReactorEvent::Accepted(id, _) => core.on_accept(id),
                    ReactorEvent::Closed(id) => core.on_close(id),
                    ReactorEvent::Timer(TIMER_DIR) => {
                        core.on_dir_tick(&mut reactor);
                        reactor.arm_timer(TIMER_DIR, Instant::now() + dir_interval);
                    }
                    ReactorEvent::Timer(_) => {
                        core.on_detect(now, &mut reactor);
                        reactor.arm_timer(TIMER_DETECT, Instant::now() + cfg.detect_interval);
                    }
                    ReactorEvent::Frame(id, msg) => match core.on_frame(now, id, msg, &mut reactor)
                    {
                        None => {}
                        // Drain the write queues so every peer gets its
                        // final frame before the process tears the sockets
                        // down.
                        Some(Stop::Shutdown) => {
                            reactor.drain(Duration::from_millis(500));
                            break 'serve;
                        }
                        Some(Stop::Fenced) => break 'serve,
                    },
                }
            }
        }
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{StandbyConfig, StandbyCore, StandbyOutcome};
    use sagrid_core::json::JsonValue;
    use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
    use sagrid_core::stats::OverheadBreakdown;

    /// An [`Outbox`] that decodes and keeps everything a core says.
    #[derive(Default)]
    struct Recorder {
        sent: Vec<(Token, Message)>,
        closed: Vec<Token>,
    }

    impl Outbox for Recorder {
        fn send_frame(&mut self, token: Token, frame: Arc<[u8]>) -> bool {
            let msg = Message::decode(&frame[4..]).expect("a core frame decodes");
            self.sent.push((token, msg));
            true
        }

        fn close(&mut self, token: Token) {
            self.closed.push(token);
        }
    }

    impl Recorder {
        /// Drains what was sent to `token`, in order.
        fn take(&mut self, token: Token) -> Vec<Message> {
            let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.sent)
                .into_iter()
                .partition(|(t, _)| *t == token);
            self.sent = rest;
            mine.into_iter().map(|(_, m)| m).collect()
        }
    }

    const TIMEOUT_MS: u64 = 1_000;

    fn cfg() -> HubConfig {
        HubConfig {
            clusters: 2,
            nodes_per_cluster: 4,
            heartbeat_timeout: Duration::from_millis(TIMEOUT_MS),
            detect_interval: Duration::from_millis(100),
        }
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    /// A hub core, everything it said, and a source of connection tokens.
    struct Rig {
        hub: HubCore,
        out: Recorder,
        next: Token,
    }

    impl Rig {
        fn new() -> Rig {
            Rig::seeded(&Metrics::disabled(), None)
        }

        fn seeded(metrics: &Metrics, takeover: Option<(Takeover, u32)>) -> Rig {
            Rig::with(&cfg(), metrics, takeover)
        }

        /// A fresh primary over two clusters of `nodes_per_cluster` ids.
        fn sized(nodes_per_cluster: usize) -> Rig {
            let cfg = HubConfig {
                nodes_per_cluster,
                ..cfg()
            };
            Rig::with(&cfg, &Metrics::disabled(), None)
        }

        fn with(cfg: &HubConfig, metrics: &Metrics, takeover: Option<(Takeover, u32)>) -> Rig {
            Rig {
                hub: HubCore::new(cfg, metrics, takeover, ms(0)),
                out: Recorder::default(),
                next: 100,
            }
        }

        fn conn(&mut self) -> Token {
            self.next += 1;
            self.hub.on_accept(self.next);
            self.next
        }

        fn send(&mut self, at: SimTime, from: Token, msg: Message) -> Option<Stop> {
            self.hub.on_frame(at, from, msg, &mut self.out)
        }

        /// A new connection that opened with `hello`; what it was sent is
        /// left in the recorder.
        fn hello(&mut self, hello: Message) -> Token {
            let t = self.conn();
            self.send(ms(0), t, hello);
            t
        }

        fn join(
            &mut self,
            at: SimTime,
            cluster: u16,
            claim: Option<NodeId>,
        ) -> Result<(Token, NodeId), String> {
            let t = self.conn();
            let cluster = ClusterId(cluster);
            self.send(at, t, Message::Join { cluster, claim });
            match self.out.take(t).into_iter().next() {
                Some(Message::JoinAck {
                    node,
                    accepted: true,
                    ..
                }) => Ok((t, node)),
                Some(Message::JoinAck { reason, .. }) => Err(reason),
                other => panic!("expected a JoinAck, got {other:?}"),
            }
        }

        fn worker(&mut self, cluster: u16) -> (Token, NodeId) {
            self.join(ms(0), cluster, None).expect("fresh join")
        }

        /// A fresh worker that has announced its steal listener.
        fn announced(&mut self, cluster: u16) -> (Token, NodeId) {
            let (t, node) = self.worker(cluster);
            self.send(ms(0), t, announce(node));
            (t, node)
        }

        fn dir_tick(&mut self) {
            self.hub.on_dir_tick(&mut self.out);
        }

        fn detect(&mut self, at: SimTime) {
            self.hub.on_detect(at, &mut self.out);
        }
    }

    fn replica_hello(replica: u32) -> Message {
        Message::ReplicaHello {
            replica,
            addr: format!("standby{replica}:7000"),
            log_offset: 0,
        }
    }

    fn report(node: NodeId, bench_micros: u64) -> Message {
        Message::StatsReport {
            report: MonitoringReport {
                node,
                cluster: ClusterId(0),
                period_end: SimTime::from_secs(1),
                breakdown: OverheadBreakdown::default(),
                speed: 1.0,
            },
            bench_micros,
        }
    }

    fn grow(count: u32) -> Message {
        Message::Grow {
            count,
            prefer: Vec::new(),
            min_uplink_bps: None,
            min_speed: None,
        }
    }

    fn spawned(msgs: Vec<Message>) -> Vec<NodeId> {
        msgs.into_iter()
            .filter_map(|m| match m {
                Message::SpawnWorker { node, .. } => Some(node),
                _ => None,
            })
            .collect()
    }

    fn ops(msgs: Vec<Message>) -> Vec<ReplicaOp> {
        msgs.into_iter()
            .filter_map(|m| match m {
                Message::StateDelta { op, .. } => Some(op),
                _ => None,
            })
            .collect()
    }

    fn announce(node: NodeId) -> Message {
        Message::PeerAnnounce {
            node,
            steal_addr: format!("127.0.0.1:{}", 9000 + node.0),
        }
    }

    /// The `PeerDirectory` snapshots among `msgs`, in order.
    fn directories(msgs: Vec<Message>) -> Vec<Vec<PeerInfo>> {
        msgs.into_iter()
            .filter_map(|m| match m {
                Message::PeerDirectory { peers } => Some(peers),
                _ => None,
            })
            .collect()
    }

    /// The replicated `PeerDir` ops among `msgs`, in order.
    fn replicated_dirs(msgs: Vec<Message>) -> Vec<Vec<PeerInfo>> {
        ops(msgs)
            .into_iter()
            .filter_map(|op| match op {
                ReplicaOp::PeerDir { peers } => Some(peers),
                _ => None,
            })
            .collect()
    }

    fn forwarded(msgs: &[Message]) -> usize {
        msgs.iter()
            .filter(|m| matches!(m, Message::StatsReport { .. }))
            .count()
    }

    // --- Heartbeat, StatsReport and Leaving count only on their own node's
    // connection. Each of the first three panicked the hub thread when any
    // socket could speak for any node; the rest misbehaved silently.

    #[test]
    fn leaving_for_an_out_of_range_id_is_ignored() {
        let mut rig = Rig::new();
        let stranger = rig.conn();
        rig.send(
            ms(0),
            stranger,
            Message::Leaving {
                node: NodeId(u32::MAX),
            },
        );
        assert_eq!(rig.worker(0).1, NodeId(0), "the hub still serves");
    }

    #[test]
    fn leaving_for_a_free_id_is_ignored() {
        let mut rig = Rig::new();
        let stranger = rig.conn();
        rig.send(ms(0), stranger, Message::Leaving { node: NodeId(2) });
        let granted: Vec<NodeId> = (0..4).map(|_| rig.worker(0).1).collect();
        assert_eq!(granted, [0, 1, 2, 3].map(NodeId));
        assert!(rig.join(ms(0), 0, None).is_err(), "cluster 0 is full");
    }

    #[test]
    fn a_duplicated_farewell_is_a_no_op() {
        let metrics = Metrics::enabled();
        let mut rig = Rig::seeded(&metrics, None);
        let standby = rig.hello(replica_hello(1));
        let (w, node) = rig.worker(0);
        rig.send(ms(10), w, Message::Leaving { node });
        rig.send(ms(20), w, Message::Leaving { node });
        assert_eq!(metrics.report().counter("net.leaves"), 1);
        let leaves = ops(rig.out.take(standby))
            .into_iter()
            .filter(|op| *op == ReplicaOp::Leave { node })
            .count();
        assert_eq!(leaves, 1);
        // The id went back to the pool exactly once.
        assert_eq!(rig.worker(0).1, node);
        assert_ne!(rig.worker(0).1, node);
    }

    #[test]
    fn a_foreign_leaving_cannot_free_a_granted_id_for_a_second_grant() {
        let mut rig = Rig::new();
        let coord = rig.hello(Message::CoordinatorHello);
        let launcher = rig.hello(Message::LauncherHello);
        rig.send(ms(0), coord, grow(1));
        let first = spawned(rig.out.take(launcher));
        assert_eq!(first.len(), 1);
        let stranger = rig.conn();
        rig.send(ms(0), stranger, Message::Leaving { node: first[0] });
        rig.send(ms(0), coord, grow(1));
        let second = spawned(rig.out.take(launcher));
        assert_eq!(second.len(), 1);
        assert_ne!(second, first, "an unjoined grant was handed out twice");
    }

    #[test]
    fn a_foreign_heartbeat_cannot_hide_a_silent_crash() {
        let mut rig = Rig::new();
        let coord = rig.hello(Message::CoordinatorHello);
        let (_, victim) = rig.worker(0);
        let (w, survivor) = rig.worker(0);
        // The victim's own socket is silent (SIGKILLed); the survivor's
        // socket also names the victim in its heartbeats.
        for t in (100..=1_500).step_by(100) {
            rig.send(ms(t), w, Message::Heartbeat { node: survivor });
            rig.send(ms(t), w, Message::Heartbeat { node: victim });
            rig.detect(ms(t));
        }
        let crash = Message::CrashNotice {
            node: victim,
            cluster: ClusterId(0),
        };
        assert!(rig.out.take(coord).contains(&crash));
        assert!(rig.hub.control.blacklisted_nodes.contains(&victim));
        assert!(!rig.hub.control.blacklisted_nodes.contains(&survivor));
    }

    #[test]
    fn a_foreign_stats_report_is_not_forwarded() {
        let mut rig = Rig::new();
        let coord = rig.hello(Message::CoordinatorHello);
        let (wa, a) = rig.worker(0);
        let (wb, _) = rig.worker(0);
        rig.send(ms(0), wb, report(a, 0));
        assert_eq!(forwarded(&rig.out.take(coord)), 0);
        rig.send(ms(0), wa, report(a, 0));
        assert_eq!(forwarded(&rig.out.take(coord)), 1);
    }

    // --- Hub behaviour no socket test pins down.

    #[test]
    fn grants_made_before_any_launcher_are_held_for_its_hello() {
        let mut rig = Rig::new();
        let coord = rig.hello(Message::CoordinatorHello);
        rig.send(ms(0), coord, grow(2));
        assert!(rig
            .out
            .sent
            .iter()
            .all(|(_, m)| !matches!(m, Message::SpawnWorker { .. })));
        let launcher = rig.hello(Message::LauncherHello);
        let held = spawned(rig.out.take(launcher));
        assert_eq!(held, [NodeId(0), NodeId(1)]);
        for node in held {
            assert_eq!(rig.join(ms(0), 0, Some(node)).unwrap().1, node);
        }
    }

    #[test]
    fn a_suspect_resumes_on_a_heartbeat_without_blacklist_or_crash_notice() {
        let mut rig = Rig::new();
        let coord = rig.hello(Message::CoordinatorHello);
        let (w, node) = rig.worker(0);
        rig.out.take(coord);
        rig.detect(ms(600)); // silent past half the timeout
        assert_eq!(
            rig.out.take(coord),
            [Message::SuspectNotice {
                node,
                suspected: true
            }]
        );
        rig.send(ms(700), w, Message::Heartbeat { node });
        assert_eq!(
            rig.out.take(coord),
            [Message::SuspectNotice {
                node,
                suspected: false
            }]
        );
        rig.detect(ms(1_100));
        assert!(rig.out.take(coord).is_empty());
        assert!(rig.hub.control.blacklisted_nodes.is_empty());
        assert!(rig.join(ms(1_100), 0, Some(node)).is_ok());
    }

    #[test]
    fn an_announce_and_a_leave_in_one_window_are_both_witnessed() {
        let mut rig = Rig::new();
        let standby = rig.hello(replica_hello(1));
        let (wa, a) = rig.worker(0);
        let (wb, b) = rig.worker(1);
        let announce = |node: NodeId| Message::PeerAnnounce {
            node,
            steal_addr: format!("127.0.0.1:{}", 9000 + node.0),
        };
        rig.send(ms(0), wa, announce(a));
        rig.hub.on_dir_tick(&mut rig.out);
        rig.out.take(wa);
        // B announces and leaves inside one coalescing window.
        rig.send(ms(0), wb, announce(b));
        rig.send(ms(0), wb, Message::Leaving { node: b });
        rig.hub.on_dir_tick(&mut rig.out);

        let seen_by_a: Vec<Vec<NodeId>> = rig
            .out
            .take(wa)
            .into_iter()
            .filter_map(|m| match m {
                Message::PeerDirectory { peers } => Some(peers.iter().map(|p| p.node).collect()),
                _ => None,
            })
            .collect();
        assert_eq!(seen_by_a, [vec![a, b], vec![a]]);
        let replicated: Vec<Vec<NodeId>> = ops(rig.out.take(standby))
            .into_iter()
            .filter_map(|op| match op {
                ReplicaOp::PeerDir { peers } => Some(peers.iter().map(|p| p.node).collect()),
                _ => None,
            })
            .collect();
        assert_eq!(replicated, [vec![a], vec![a, b], vec![a]]);
    }

    // --- Broadcast budget: one directory snapshot per tick, however many
    // membership changes it covers.

    #[test]
    fn churn_between_ticks_costs_one_broadcast_at_the_tick() {
        let mut rig = Rig::sized(136);
        let standby = rig.hello(replica_hello(1));
        let members: Vec<(Token, NodeId)> = (0..256).map(|i| rig.announced(i % 2)).collect();
        rig.dir_tick();
        rig.out.sent.clear();
        let (witness, _) = members[255];
        // 16 × (a flushed member leaves, a fresh worker joins and
        // announces), all inside one coalescing window.
        for (i, &(t, node)) in members[..16].iter().enumerate() {
            rig.send(ms(0), t, Message::Leaving { node });
            rig.announced(i as u16 % 2);
        }
        assert!(directories(rig.out.take(witness)).is_empty());
        assert!(replicated_dirs(rig.out.take(standby)).is_empty());

        rig.dir_tick();
        let dir: Vec<PeerInfo> = rig.hub.peer_dir.values().cloned().collect();
        assert_eq!(dir.len(), 256);
        assert_eq!(
            directories(rig.out.take(witness)),
            std::slice::from_ref(&dir)
        );
        assert_eq!(replicated_dirs(rig.out.take(standby)), [dir]);
    }

    #[test]
    fn a_crash_sweep_costs_one_broadcast_at_the_tick() {
        let mut rig = Rig::sized(20);
        let standby = rig.hello(replica_hello(1));
        let (witness, w) = rig.announced(0);
        let doomed: Vec<NodeId> = (0..32).map(|i| rig.announced(i % 2).1).collect();
        rig.dir_tick();
        rig.out.sent.clear();
        rig.send(ms(1_000), witness, Message::Heartbeat { node: w });
        rig.detect(ms(1_100));
        let blacklist = &rig.hub.control.blacklisted_nodes;
        assert!(doomed.iter().all(|n| blacklist.contains(n)));
        assert!(directories(rig.out.take(witness)).is_empty());
        assert!(replicated_dirs(rig.out.take(standby)).is_empty());

        rig.dir_tick();
        let dir = vec![rig.hub.peer_dir[&w].clone()];
        assert_eq!(
            directories(rig.out.take(witness)),
            std::slice::from_ref(&dir)
        );
        assert_eq!(replicated_dirs(rig.out.take(standby)), [dir]);
    }

    #[test]
    fn only_a_changed_reannounce_is_broadcast() {
        let mut rig = Rig::new();
        let standby = rig.hello(replica_hello(1));
        let (wa, a) = rig.announced(0);
        rig.dir_tick();
        rig.out.sent.clear();
        rig.send(ms(0), wa, announce(a));
        rig.dir_tick();
        assert!(directories(rig.out.take(wa)).is_empty());
        assert!(replicated_dirs(rig.out.take(standby)).is_empty());

        let steal_addr = "127.0.0.1:9999".to_string();
        let moved = Message::PeerAnnounce {
            node: a,
            steal_addr: steal_addr.clone(),
        };
        rig.send(ms(0), wa, moved);
        rig.dir_tick();
        let dir = vec![PeerInfo {
            node: a,
            cluster: ClusterId(0),
            steal_addr,
        }];
        assert_eq!(directories(rig.out.take(wa)), std::slice::from_ref(&dir));
        assert_eq!(replicated_dirs(rig.out.take(standby)), [dir]);
    }

    #[test]
    fn a_dead_nodes_open_socket_cannot_put_it_back_in_the_directory() {
        let mut rig = Rig::new();
        let (ww, w) = rig.announced(0);
        let (wa, a) = rig.announced(0);
        rig.dir_tick();
        rig.out.sent.clear();
        // A falls silent but its socket stays open; W keeps beating.
        rig.send(ms(1_000), ww, Message::Heartbeat { node: w });
        rig.detect(ms(1_100));
        assert!(rig.hub.control.blacklisted_nodes.contains(&a));
        rig.send(ms(1_100), wa, announce(a));
        rig.dir_tick();

        let dirs = directories(rig.out.take(ww));
        assert!(!dirs.is_empty());
        assert!(dirs.iter().flatten().all(|p| p.node != a), "{dirs:?}");
        assert!(!rig.hub.control.peers.contains_key(&a));
    }

    #[test]
    fn blacklisted_reports_are_dropped_and_unchanged_bandwidth_replicates_once() {
        let mut rig = Rig::new();
        let coord = rig.hello(Message::CoordinatorHello);
        let standby = rig.hello(replica_hello(1));
        let (w, node) = rig.worker(0);
        rig.out.take(standby);
        rig.send(ms(0), w, report(node, 1_500));
        rig.send(ms(0), w, report(node, 1_500));
        assert_eq!(forwarded(&rig.out.take(coord)), 2);
        assert_eq!(
            ops(rig.out.take(standby)),
            [ReplicaOp::Bandwidth {
                node,
                bench_micros: 1_500
            }]
        );

        rig.send(
            ms(0),
            coord,
            Message::Shrink {
                nodes: vec![node],
                cluster: None,
            },
        );
        rig.out.take(standby);
        rig.send(ms(0), w, report(node, 1_700));
        assert_eq!(forwarded(&rig.out.take(coord)), 0);
        assert!(ops(rig.out.take(standby)).is_empty());
    }

    #[test]
    fn a_launcher_signal_leave_does_not_blacklist_and_frees_the_id() {
        let mut rig = Rig::new();
        let launcher = rig.hello(Message::LauncherHello);
        let (w, node) = rig.worker(0);
        rig.send(ms(0), launcher, Message::SignalLeave { node });
        assert_eq!(rig.out.take(w), [Message::SignalLeave { node }]);
        rig.send(ms(10), w, Message::Leaving { node });
        assert!(rig.hub.control.blacklisted_nodes.is_empty());
        assert_eq!(rig.worker(0).1, node, "the withdrawn id is granted again");
    }

    #[test]
    fn perturb_reaches_at_most_count_workers_of_its_cluster() {
        let mut rig = Rig::new();
        let launcher = rig.hello(Message::LauncherHello);
        let workers: Vec<Token> = [0, 0, 0, 1].map(|c| rig.worker(c).0).into();
        let perturb = |count| Message::Perturb {
            cluster: ClusterId(0),
            count,
            speed: Some(0.5),
            inter_frac: None,
        };
        for (count, reached) in [(2, &workers[..2]), (0, &workers[..3])] {
            rig.send(ms(0), launcher, perturb(count));
            let got: Vec<Token> = std::mem::take(&mut rig.out.sent)
                .into_iter()
                .filter(|(_, m)| *m == perturb(count))
                .map(|(t, _)| t)
                .collect();
            assert_eq!(got, reached, "count {count}");
        }
    }

    // --- Failover without a socket: the hub-crash smoke in microseconds.

    /// Carries everything the primary queued for `plink` to the standby's
    /// end of the link, and the standby's replies (acks) back.
    fn pump(
        primary: &mut Rig,
        plink: Token,
        standby: &mut StandbyCore,
        link: Token,
        sout: &mut Recorder,
        now: Instant,
    ) -> Option<StandbyOutcome> {
        for m in primary.out.take(plink) {
            if let Some(outcome) = standby.on_frame(now, link, m, sout) {
                return Some(outcome);
            }
        }
        for m in sout.take(link) {
            primary.send(ms(0), plink, m);
        }
        None
    }

    fn standby_cfg(replica_id: u32) -> StandbyConfig {
        StandbyConfig {
            replica_id,
            primary: "primary:7000".to_string(),
            advertise: format!("standby{replica_id}:7000"),
            heartbeat_timeout: Duration::from_millis(TIMEOUT_MS),
            detect_interval: Duration::from_millis(100),
        }
    }

    #[test]
    fn a_standby_fed_by_a_primary_core_takes_over_with_equal_state() {
        let t0 = Instant::now();
        let at = |millis: u64| t0 + Duration::from_millis(millis);
        let mut primary = Rig::new();
        let mut standby = StandbyCore::new(&standby_cfg(1), &Metrics::disabled(), t0);
        let mut sout = Recorder::default();
        let link = 1;
        assert_eq!(standby.dial_due(t0).as_deref(), Some("primary:7000"));
        standby.on_dial(t0, Some(link), &mut sout);
        assert_eq!(standby.dial_due(t0), None, "attached");
        let plink = primary.conn();
        for hello in sout.take(link) {
            primary.send(ms(0), plink, hello);
        }

        // A coordinator may blacklist an id the pool does not have; the
        // new primary must seed past it.
        let coord = primary.hello(Message::CoordinatorHello);
        let nowhere = NodeId(u32::MAX);
        let shrink = Message::Shrink {
            nodes: vec![nowhere],
            cluster: None,
        };
        primary.send(ms(0), coord, shrink);
        let (w0, n0) = primary.worker(0);
        let (w1, n1) = primary.worker(1);
        let (_, dead) = primary.worker(0);
        for t in (100..=1_500).step_by(100) {
            primary.send(ms(t), w0, Message::Heartbeat { node: n0 });
            primary.send(ms(t), w1, Message::Heartbeat { node: n1 });
            primary.detect(ms(t));
            assert!(pump(&mut primary, plink, &mut standby, link, &mut sout, at(t)).is_none());
        }
        assert!(primary.hub.control.blacklisted_nodes.contains(&dead));

        // The primary falls silent: half a timeout is not enough, a full
        // one elects the only standby.
        assert!(standby.on_tick(at(2_000), &mut sout).is_none());
        let Some(StandbyOutcome::Takeover(takeover)) = standby.on_tick(at(2_500), &mut sout) else {
            panic!("no takeover after a full timeout of silence");
        };
        assert_eq!(takeover.epoch, 2);
        let digest = primary.hub.control.digest();
        assert_eq!(takeover.state.digest(), digest);
        assert_eq!(takeover.log_offset, primary.hub.log_offset);

        let metrics = Metrics::enabled();
        let mut second = Rig::seeded(&metrics, Some((takeover, 1)));
        assert_eq!(second.hub.control.digest(), digest);
        let report = metrics.report();
        let failover: Vec<_> = report.events_of_kind("hub_failover").collect();
        assert_eq!(failover.len(), 1);
        assert_eq!(
            failover[0].get("digest").and_then(JsonValue::as_str),
            Some(format!("{digest:016x}").as_str())
        );
        assert_eq!(
            report.events_of_kind("member").count(),
            0,
            "no replayed history"
        );

        assert!(second.join(ms(0), 0, Some(n0)).is_ok());
        assert!(second.join(ms(0), 1, Some(n1)).is_ok());
        assert!(second.join(ms(0), 0, Some(dead)).is_err());
        assert!(second.join(ms(0), 0, Some(nowhere)).is_err());

        // A second standby attached to the new primary closes the link on
        // a delta from the old epoch, and does not acknowledge it.
        let mut late = StandbyCore::new(&standby_cfg(2), &Metrics::disabled(), t0);
        let mut lout = Recorder::default();
        late.on_dial(t0, Some(link), &mut lout);
        let plink2 = second.conn();
        for hello in lout.take(link) {
            second.send(ms(0), plink2, hello);
        }
        assert!(pump(&mut second, plink2, &mut late, link, &mut lout, t0).is_none());
        let stale = Message::StateDelta {
            epoch: 1,
            log_offset: 99,
            op: ReplicaOp::BlacklistNode { node: n0 },
        };
        assert!(late.on_frame(t0, link, stale, &mut lout).is_none());
        assert_eq!(lout.closed, [link]);
        assert!(lout.take(link).is_empty());
    }

    // --- Seeded frame fuzz: random frames, hostile ids, random roles.

    fn any_node(rng: &mut Xoshiro256StarStar) -> NodeId {
        match rng.gen_range(8) {
            0 => NodeId(u32::MAX),
            1 => NodeId(rng.next_u64() as u32),
            _ => NodeId(rng.gen_range(10) as u32),
        }
    }

    fn any_cluster(rng: &mut Xoshiro256StarStar) -> ClusterId {
        match rng.gen_range(6) {
            0 => ClusterId(u16::MAX),
            _ => ClusterId(rng.gen_range(3) as u16),
        }
    }

    /// A random frame; a worker speaks for its own node half of the time.
    fn any_frame(rng: &mut Xoshiro256StarStar, own: Option<NodeId>) -> Message {
        let node = match own {
            Some(n) if rng.gen_bool(0.5) => n,
            _ => any_node(rng),
        };
        let cluster = any_cluster(rng);
        match rng.gen_range(17) {
            0 => Message::Join {
                cluster,
                claim: None,
            },
            1 => Message::Join {
                cluster,
                claim: Some(node),
            },
            2 | 3 => Message::Heartbeat { node },
            4 => report(node, rng.gen_range(3) * 500),
            5 => Message::Leaving { node },
            6 => Message::CoordinatorHello,
            7 => Message::LauncherHello,
            8 => Message::Grow {
                count: if rng.gen_bool(0.1) {
                    u32::MAX
                } else {
                    rng.gen_range(4) as u32
                },
                prefer: vec![cluster],
                min_uplink_bps: None,
                min_speed: None,
            },
            9 => Message::Shrink {
                nodes: vec![node, any_node(rng)],
                cluster: rng.gen_bool(0.2).then_some(cluster),
            },
            10 => Message::SignalLeave { node },
            11 => Message::Perturb {
                cluster,
                count: rng.gen_range(3) as u32,
                speed: Some(0.5),
                inter_frac: None,
            },
            12 => Message::PeerAnnounce {
                node,
                steal_addr: format!("10.0.0.1:{}", rng.gen_range(100)),
            },
            13 => replica_hello(rng.gen_range(4) as u32),
            14 => Message::ReplicaAck {
                replica: rng.gen_range(4) as u32,
                log_offset: rng.next_u64(),
            },
            15 => Message::StateDelta {
                epoch: rng.gen_range(2),
                log_offset: rng.next_u64(),
                op: ReplicaOp::BlacklistNode { node },
            },
            // A newer epoch ends the run (the hub is fenced out).
            _ => Message::HubEpoch {
                epoch: if rng.gen_bool(0.02) { 2 } else { 1 },
                leader: 7,
            },
        }
    }

    /// The fuzz's two observers: a standby replaying snapshot + deltas,
    /// and a worker witnessing directory broadcasts.
    struct Observers {
        standby: Token,
        replayed: ControlState,
        next_offset: u64,
        witness: Token,
        /// Directory entries no broadcast to the witness has carried yet.
        /// An entry its own node re-announces with a new address before
        /// any broadcast is superseded, not removed: the newer one must be
        /// carried instead.
        unseen: BTreeMap<NodeId, PeerInfo>,
        prev_dir: BTreeMap<NodeId, PeerInfo>,
        newest: Vec<PeerInfo>,
    }

    impl Observers {
        /// Takes in what one step sent the observers, and checks that no
        /// directory entry was removed before a broadcast carried it.
        fn absorb(&mut self, rig: &mut Rig, seed: u64) {
            for m in rig.out.take(self.standby) {
                match m {
                    Message::StateSnapshot {
                        log_offset, state, ..
                    } => {
                        self.replayed = ControlState::from_snapshot(&state);
                        self.next_offset = log_offset;
                    }
                    Message::StateDelta { log_offset, op, .. } => {
                        assert_eq!(log_offset, self.next_offset, "seed {seed}: offset gap");
                        self.replayed.apply(&op);
                        self.next_offset += 1;
                    }
                    _ => {}
                }
            }
            for (node, p) in &rig.hub.peer_dir {
                if self.prev_dir.get(node) != Some(p) {
                    self.unseen.insert(*node, p.clone());
                }
            }
            for dir in directories(rig.out.take(self.witness)) {
                for p in &dir {
                    if self.unseen.get(&p.node) == Some(p) {
                        self.unseen.remove(&p.node);
                    }
                }
                self.newest = dir;
            }
            assert!(
                self.unseen.keys().all(|n| rig.hub.peer_dir.contains_key(n)),
                "seed {seed}: pruned before any broadcast carried it: {:?}",
                self.unseen
            );
            self.prev_dir = rig.hub.peer_dir.clone();
        }
    }

    /// One seed: the observer standby attaches first and replays what it
    /// is sent into its own state, which must end equal to the hub's. The
    /// witness worker joins next and never leaves: every directory entry
    /// reaches it before its removal does, and after a final tick its
    /// newest snapshot is the hub's directory.
    fn fuzz_one(seed: u64, steps: usize) {
        let mut rng = Xoshiro256StarStar::seeded(seed);
        let mut rig = Rig::new();
        let standby = rig.hello(replica_hello(99));
        let (witness, wnode) = rig.worker(0);
        let mut obs = Observers {
            standby,
            replayed: ControlState::default(),
            next_offset: 0,
            witness,
            unseen: BTreeMap::new(),
            prev_dir: BTreeMap::new(),
            newest: Vec::new(),
        };
        let mut conns: Vec<Token> = (0..8).map(|_| rig.conn()).collect();
        let mut now = 0;
        for _ in 0..steps {
            now += rng.gen_range(60);
            rig.send(ms(now), witness, Message::Heartbeat { node: wnode });
            let i = rng.gen_index(conns.len());
            let t = conns[i];
            let stop = match rng.gen_range(24) {
                0 | 1 => {
                    rig.detect(ms(now));
                    None
                }
                2 => {
                    rig.hub.on_dir_tick(&mut rig.out);
                    None
                }
                3 => {
                    rig.hub.on_close(t);
                    conns[i] = rig.conn();
                    None
                }
                _ => {
                    let own = match rig.hub.roles.get(&t) {
                        Some(&Role::Worker(n)) => Some(n),
                        _ => None,
                    };
                    match any_frame(&mut rng, own) {
                        // A reconnect claiming the witness's id would take
                        // its broadcasts away.
                        Message::Join { claim: Some(n), .. } if n == wnode => None,
                        frame => rig.send(ms(now), t, frame),
                    }
                }
            };
            for (_, m) in &rig.out.sent {
                if let Message::JoinAck {
                    node,
                    accepted: true,
                    ..
                } = m
                {
                    assert!(
                        !rig.hub.control.blacklisted_nodes.contains(node),
                        "seed {seed}: blacklisted {node} accepted"
                    );
                }
            }
            obs.absorb(&mut rig, seed);
            rig.out.sent.clear();
            if stop.is_some() {
                break;
            }
        }
        rig.dir_tick();
        obs.absorb(&mut rig, seed);
        assert_eq!(obs.next_offset, rig.hub.log_offset, "seed {seed}");
        assert_eq!(
            obs.replayed.digest(),
            rig.hub.control.digest(),
            "seed {seed}"
        );
        let dir: Vec<PeerInfo> = rig.hub.peer_dir.values().cloned().collect();
        assert_eq!(obs.newest, dir, "seed {seed}");
        assert_eq!(rig.hub.control.peers, rig.hub.peer_dir, "seed {seed}");
        assert!(
            rig.hub.peer_dir.keys().all(|&n| rig.hub.is_live(n)),
            "seed {seed}: a departed node is in the directory: {:?}",
            rig.hub.peer_dir.keys()
        );
    }

    #[test]
    fn seeded_frame_fuzz_never_panics_or_admits_a_blacklisted_node_and_replays_exactly() {
        for seed in 0..64 {
            fuzz_one(seed, 400);
        }
    }
}
