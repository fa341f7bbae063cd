//! The hub: registry + resource pool served over TCP.
//!
//! One process plays the paper's centralized registry and grid scheduler:
//! it accepts worker/coordinator/launcher connections, maps wall-clock
//! heartbeats onto the `SimTime`-driven [`Membership`] state machine,
//! allocates node ids from a [`ResourcePool`], forwards statistics to the
//! out-of-process coordinator, relays its grow/shrink decisions, and runs
//! the heartbeat failure detector.
//!
//! The hub is a single [`Reactor`] loop: one thread owns the listener,
//! every connection, the frame decoding, the write queues, the
//! failure-detection timers and all hub state (plain maps — nothing here
//! is shared with another thread). Thread count is independent of worker
//! count, and peer-directory broadcasts are coalesced onto a timer instead
//! of firing per announce.
//!
//! A deliberately subtle point: an *unexpected connection close is not a
//! death*. SIGKILL closes the victim's socket immediately, long before any
//! heartbeat is missed; treating EOF as a crash would short-circuit the
//! failure detector the paper describes (and penalise workers that merely
//! lost a TCP connection and will reconnect with backoff). Only the
//! heartbeat timeout declares a node dead.

use crate::reactor::{Reactor, ReactorEvent, Token};
use crate::replica::Takeover;
use crate::replog::{ControlState, MemberPhase, RepLog, ReplicaOp};
use crate::wire::{Message, PeerInfo};
use sagrid_core::config::GridConfig;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::metrics::{MetricEvent, Metrics, Value};
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_registry::{Membership, RegistryConfig, RegistryEvent};
use sagrid_sched::{AllocPolicy, Requirements, ResourcePool};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::TcpListener;
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
    joins: std::sync::Arc<sagrid_core::metrics::Counter>,
    join_refusals: std::sync::Arc<sagrid_core::metrics::Counter>,
    heartbeats: std::sync::Arc<sagrid_core::metrics::Counter>,
    stats_forwarded: std::sync::Arc<sagrid_core::metrics::Counter>,
    deaths: std::sync::Arc<sagrid_core::metrics::Counter>,
    suspects: std::sync::Arc<sagrid_core::metrics::Counter>,
    resumes: std::sync::Arc<sagrid_core::metrics::Counter>,
    leaves: std::sync::Arc<sagrid_core::metrics::Counter>,
    grow_requests: std::sync::Arc<sagrid_core::metrics::Counter>,
    spawns_requested: std::sync::Arc<sagrid_core::metrics::Counter>,
    shrink_requests: std::sync::Arc<sagrid_core::metrics::Counter>,
    replica_deltas_sent: std::sync::Arc<sagrid_core::metrics::Counter>,
    replica_snapshots_sent: std::sync::Arc<sagrid_core::metrics::Counter>,
    replica_fenced: std::sync::Arc<sagrid_core::metrics::Counter>,
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

/// Applies one control-plane transition to the primary's materialised
/// state, appends it to the replication log, and fans it out to every
/// attached standby. The primary goes through the *same*
/// [`ControlState::apply`] as the standbys, so convergence is by
/// construction, not by parallel bookkeeping.
fn replicate(
    op: ReplicaOp,
    epoch: u64,
    control: &mut ControlState,
    replog: &mut RepLog,
    replicas: &BTreeMap<Token, u32>,
    reactor: &mut Reactor,
    hc: &Option<HubCounters>,
) {
    control.apply(&op);
    let log_offset = replog.append();
    if replicas.is_empty() {
        return;
    }
    // Broadcast economics: encode the delta once, share the frame.
    let frame = Reactor::encode_frame(&Message::StateDelta {
        epoch,
        log_offset,
        op,
    });
    let mut sent = 0u64;
    for t in replicas.keys() {
        if reactor.send_frame(*t, frame.clone()) {
            sent += 1;
        }
    }
    if let Some(hc) = hc {
        hc.replica_deltas_sent.add(sent);
    }
}

/// Sends the full steal-plane peer directory to every connected worker.
///
/// Full snapshots rather than deltas: a snapshot is idempotent, so a lost
/// or reordered broadcast heals on the next directory change instead of
/// leaving a worker with a permanently stale view.
fn broadcast_directory(
    peer_dir: &BTreeMap<NodeId, PeerInfo>,
    node_conn: &BTreeMap<NodeId, Token>,
    reactor: &mut Reactor,
) {
    let frame = Reactor::encode_frame(&Message::PeerDirectory {
        peers: peer_dir.values().cloned().collect(),
    });
    for t in node_conn.values() {
        reactor.send_frame(*t, frame.clone());
    }
}

/// Pushes the pending coalesced directory broadcast out now (and clears
/// the dirty flag). Called from the coalescing timer, and *before pruning
/// an entry*: an announce and a leave landing in the same coalescing
/// window must not cancel out invisibly — every addition is witnessable
/// in at least one snapshot before its removal is broadcast.
#[allow(clippy::too_many_arguments)] // the hub loop's shared state, threaded explicitly
fn flush_directory(
    dir_dirty: &mut bool,
    peer_dir: &BTreeMap<NodeId, PeerInfo>,
    node_conn: &BTreeMap<NodeId, Token>,
    reactor: &mut Reactor,
    hub_epoch: u64,
    control: &mut ControlState,
    replog: &mut RepLog,
    replicas: &BTreeMap<Token, u32>,
    hc: &Option<HubCounters>,
) {
    if !*dir_dirty {
        return;
    }
    *dir_dirty = false;
    broadcast_directory(peer_dir, node_conn, reactor);
    replicate(
        ReplicaOp::PeerDir {
            peers: peer_dir.values().cloned().collect(),
        },
        hub_epoch,
        control,
        replog,
        replicas,
        reactor,
        hc,
    );
}

/// A bound, not-yet-running hub. [`Hub::bind`] then [`Hub::run`].
pub struct Hub {
    listener: TcpListener,
    cfg: HubConfig,
    metrics: Metrics,
    /// The hub epoch this instance serves under (1 for an original
    /// primary; a takeover bumps it).
    epoch: u64,
    /// Replica id of this hub (0 = original primary).
    leader: u32,
    /// Replicated control-plane state to seed from after a takeover.
    seed: Option<ControlState>,
    /// Log offset the seed state is current as of.
    seed_offset: u64,
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
            epoch: 1,
            leader: 0,
            seed: None,
            seed_offset: 0,
        }
    }

    /// Seeds this hub from a won election: the replicated control-plane
    /// state, the bumped epoch, and this hub's replica id as the leader.
    pub fn with_takeover(mut self, takeover: Takeover, replica_id: u32) -> Hub {
        self.epoch = takeover.epoch;
        self.leader = replica_id;
        self.seed_offset = takeover.log_offset;
        self.seed = Some(takeover.state);
        self
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.listener.local_addr().map(|a| a.port()).unwrap_or(0)
    }

    /// Serves until a launcher sends [`Message::Shutdown`]. Returns the
    /// metrics handle so the caller can write the final report.
    pub fn run(mut self) -> Metrics {
        let mut reactor =
            Reactor::with_listener(self.listener, &self.metrics).expect("hub reactor");

        let hc = HubCounters::resolve(&self.metrics);
        let epoch = Instant::now();
        let now = |epoch: Instant| SimTime::from_micros(epoch.elapsed().as_micros() as u64);

        // Three-state liveness: silence past half the timeout marks a
        // member Suspect (coordinator holds fire on shrink), silence past
        // the full timeout kills it. Workers heartbeat several times per
        // half-timeout, so a healthy member never trips the window.
        let mut membership = Membership::new(RegistryConfig::with_timeout(
            SimDuration::from_micros(self.cfg.heartbeat_timeout.as_micros() as u64),
        ));
        let mut pool = ResourcePool::new(&GridConfig::uniform(
            self.cfg.clusters,
            self.cfg.nodes_per_cluster,
        ));
        pool.set_metrics(&self.metrics);

        let mut roles: BTreeMap<Token, Role> = BTreeMap::new();
        let mut node_conn: BTreeMap<NodeId, Token> = BTreeMap::new();
        let mut coordinator: Option<Token> = None;
        let mut launcher: Option<Token> = None;
        let mut pending_spawns: BTreeSet<NodeId> = BTreeSet::new();
        // Grow grants made while no launcher is connected wait here instead
        // of being dropped (the launcher's hello may race the coordinator's
        // first decision).
        let mut pending_grants: Vec<(NodeId, ClusterId)> = Vec::new();
        let mut blacklisted_nodes: BTreeSet<NodeId> = BTreeSet::new();
        let mut blacklisted_clusters: BTreeSet<ClusterId> = BTreeSet::new();
        // Steal-plane peer directory: node → where its steal listener is.
        // Populated by PeerAnnounce, pruned on leave/death. Broadcasts are
        // coalesced: changes mark the directory dirty and TIMER_DIR pushes
        // one snapshot for however many changes accumulated (a 5,000-worker
        // join wave must not trigger 5,000 full-directory broadcasts).
        let mut peer_dir: BTreeMap<NodeId, PeerInfo> = BTreeMap::new();
        let mut dir_dirty = false;
        let dir_interval = self.cfg.detect_interval.min(Duration::from_millis(50));

        // Replication plane: the primary's own materialised copy of the
        // replicated state, the log, and the attached standbys.
        let hub_epoch = self.epoch;
        let leader = self.leader;
        let mut control = ControlState::default();
        let mut replog = RepLog::new();
        for _ in 0..self.seed_offset {
            replog.append(); // resume the offset sequence after a takeover
        }
        let mut replicas: BTreeMap<Token, u32> = BTreeMap::new();
        let mut fenced_out = false;

        // A takeover seeds everything a new primary cannot re-learn from
        // reconnecting workers: membership phases, both blacklists, the
        // peer directory and learned bandwidth. Pool occupancy is derived
        // (live members reserve their ids; dead/blacklisted are lost), and
        // the replay's registry events are drained — they describe the old
        // primary's history, not fresh transitions.
        if let Some(seed) = self.seed.take() {
            let t = now(epoch);
            for (&node, &(cluster, phase)) in &seed.members {
                match phase {
                    MemberPhase::Alive | MemberPhase::Leaving => {
                        membership.join(t, node, cluster);
                        if phase == MemberPhase::Leaving {
                            membership.signal_leave(node);
                        }
                        pool.reserve(node);
                    }
                    MemberPhase::Left => {}
                    MemberPhase::Dead => {
                        membership.join(t, node, cluster);
                        membership.report_crash(node);
                        pool.mark_lost(node);
                    }
                }
            }
            let _ = membership.take_events();
            let _ = membership.take_signals();
            blacklisted_nodes = seed.blacklisted_nodes.clone();
            blacklisted_clusters = seed.blacklisted_clusters.clone();
            for n in &blacklisted_nodes {
                pool.mark_lost(*n);
            }
            peer_dir = seed.peers.clone();
            control = seed;
            self.metrics.emit(
                MetricEvent::new(t.0, "hub_failover")
                    .with("epoch", Value::U64(hub_epoch))
                    .with("leader", Value::U64(u64::from(leader)))
                    .with("members_alive", Value::U64(membership.alive_count() as u64))
                    // The ids themselves (not a count): the invariant
                    // checker proves blacklist permanence across the epoch
                    // boundary from this list alone.
                    .with(
                        "blacklisted_nodes",
                        Value::Raw(format!(
                            "[{}]",
                            blacklisted_nodes
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
                    .with("peers", Value::U64(peer_dir.len() as u64))
                    .with("log_offset", Value::U64(replog.offset()))
                    .with("digest", Value::Str(format!("{:016x}", control.digest()))),
            );
        }
        println!("EVENT serving epoch={hub_epoch} leader={leader}");

        let mut out: Vec<ReactorEvent> = Vec::new();
        reactor.arm_timer(TIMER_DETECT, Instant::now() + self.cfg.detect_interval);
        reactor.arm_timer(TIMER_DIR, Instant::now() + dir_interval);

        'serve: loop {
            if reactor.poll(&mut out, self.cfg.detect_interval).is_err() {
                break 'serve;
            }
            for event in out.drain(..) {
                match event {
                    ReactorEvent::Accepted(id, _) => {
                        roles.insert(id, Role::Unknown);
                    }
                    ReactorEvent::Closed(id) => {
                        let role = roles.remove(&id).unwrap_or(Role::Unknown);
                        match role {
                            // NOT a death: the worker may reconnect (and a
                            // SIGKILL'd one must be caught by the heartbeat
                            // timeout, not by EOF — see module docs).
                            Role::Worker(node) => {
                                // Forget the node's connection only if it
                                // is still THIS connection (a reconnect may
                                // already have replaced it).
                                if node_conn.get(&node) == Some(&id) {
                                    node_conn.remove(&node);
                                }
                            }
                            Role::Coordinator => {
                                if coordinator == Some(id) {
                                    coordinator = None;
                                }
                            }
                            Role::Launcher => {
                                if launcher == Some(id) {
                                    launcher = None;
                                }
                            }
                            // The standby set in `control.replicas` is kept:
                            // a standby losing its socket is a transport
                            // blip and it will re-attach; only the live
                            // delta fan-out forgets the connection.
                            Role::Replica(_) => {
                                replicas.remove(&id);
                            }
                            Role::Unknown => {}
                        }
                    }
                    ReactorEvent::Timer(TIMER_DIR) => {
                        flush_directory(
                            &mut dir_dirty,
                            &peer_dir,
                            &node_conn,
                            &mut reactor,
                            hub_epoch,
                            &mut control,
                            &mut replog,
                            &replicas,
                            &hc,
                        );
                        reactor.arm_timer(TIMER_DIR, Instant::now() + dir_interval);
                    }
                    // Failure detection on the reactor clock, independent of
                    // traffic (an idle control plane still sweeps).
                    ReactorEvent::Timer(_) => {
                        let t = now(epoch);
                        for dead in membership.detect_failures(t) {
                            let cluster = membership.cluster_of(dead).unwrap_or(ClusterId(0));
                            pool.mark_lost(dead);
                            blacklisted_nodes.insert(dead);
                            node_conn.remove(&dead);
                            if peer_dir.contains_key(&dead) {
                                flush_directory(
                                    &mut dir_dirty,
                                    &peer_dir,
                                    &node_conn,
                                    &mut reactor,
                                    hub_epoch,
                                    &mut control,
                                    &mut replog,
                                    &replicas,
                                    &hc,
                                );
                                peer_dir.remove(&dead);
                                dir_dirty = true;
                            }
                            replicate(
                                ReplicaOp::Death { node: dead },
                                hub_epoch,
                                &mut control,
                                &mut replog,
                                &replicas,
                                &mut reactor,
                                &hc,
                            );
                            replicate(
                                ReplicaOp::BlacklistNode { node: dead },
                                hub_epoch,
                                &mut control,
                                &mut replog,
                                &replicas,
                                &mut reactor,
                                &hc,
                            );
                            if let Some(hc) = &hc {
                                hc.deaths.inc();
                            }
                            println!("EVENT died {dead}");
                            if let Some(cid) = coordinator {
                                reactor.send(
                                    cid,
                                    &Message::CrashNotice {
                                        node: dead,
                                        cluster,
                                    },
                                );
                            }
                        }
                        // Replication keepalive: standbys declare the primary
                        // dead on *silence*, so an idle control plane must
                        // still tick.
                        if !replicas.is_empty() {
                            let keepalive = Reactor::encode_frame(&Message::HubEpoch {
                                epoch: hub_epoch,
                                leader,
                            });
                            let targets: Vec<Token> = replicas.keys().copied().collect();
                            for t in targets {
                                reactor.send_frame(t, keepalive.clone());
                            }
                        }
                        reactor.arm_timer(TIMER_DETECT, Instant::now() + self.cfg.detect_interval);
                    }
                    ReactorEvent::Frame(id, msg) => match msg {
                        Message::Join { cluster, claim } => {
                            let t = now(epoch);
                            let verdict = match claim {
                                Some(node) => {
                                    if blacklisted_nodes.contains(&node) {
                                        Err(format!("node {node} is blacklisted"))
                                    } else if pending_spawns.remove(&node) {
                                        let c = pool.cluster_of(node);
                                        membership.join(t, node, c);
                                        Ok((node, true))
                                    } else if matches!(
                                        membership.state(node),
                                        Some(
                                            sagrid_registry::MemberState::Alive
                                                | sagrid_registry::MemberState::Leaving
                                                | sagrid_registry::MemberState::Suspect
                                        )
                                    ) {
                                        // Transport-level reconnect of a
                                        // member that never missed enough
                                        // heartbeats to be declared dead.
                                        // A Suspect resumes here without a
                                        // blacklist mark: the heartbeat is
                                        // proof of life.
                                        membership.heartbeat(t, node);
                                        Ok((node, false))
                                    } else {
                                        Err(format!("node {node} is blacklisted, dead or unknown"))
                                    }
                                }
                                None => {
                                    if cluster.index() >= self.cfg.clusters {
                                        Err(format!("no such cluster {cluster}"))
                                    } else if blacklisted_clusters.contains(&cluster) {
                                        Err(format!("cluster {cluster} is blacklisted"))
                                    } else {
                                        // Force the grant into the declared
                                        // cluster by excluding all others.
                                        let excl: BTreeSet<ClusterId> = (0..self.cfg.clusters)
                                            .map(|i| ClusterId(i as u16))
                                            .filter(|c| *c != cluster)
                                            .chain(blacklisted_clusters.iter().copied())
                                            .collect();
                                        match pool
                                            .request(
                                                1,
                                                AllocPolicy::LocalityAware,
                                                &Requirements::default(),
                                                &blacklisted_nodes,
                                                &excl,
                                                &[cluster],
                                            )
                                            .first()
                                        {
                                            Some(grant) => {
                                                membership.join(t, grant.node, grant.cluster);
                                                Ok((grant.node, true))
                                            }
                                            None => {
                                                Err(format!("cluster {cluster} has no free nodes"))
                                            }
                                        }
                                    }
                                }
                            };
                            match verdict {
                                Ok((node, fresh)) => {
                                    roles.insert(id, Role::Worker(node));
                                    node_conn.insert(node, id);
                                    if fresh {
                                        replicate(
                                            ReplicaOp::Join {
                                                node,
                                                cluster: pool.cluster_of(node),
                                            },
                                            hub_epoch,
                                            &mut control,
                                            &mut replog,
                                            &replicas,
                                            &mut reactor,
                                            &hc,
                                        );
                                    }
                                    reactor.send(
                                        id,
                                        &Message::JoinAck {
                                            node,
                                            accepted: true,
                                            reason: String::new(),
                                        },
                                    );
                                    // Epoch stamp: lets the worker spot a
                                    // stale primary after a failover.
                                    reactor.send(
                                        id,
                                        &Message::HubEpoch {
                                            epoch: hub_epoch,
                                            leader,
                                        },
                                    );
                                    // Bring the newcomer up to date on the
                                    // steal plane right away; later changes
                                    // rebroadcast (coalesced) to everyone.
                                    // An empty directory conveys nothing, so
                                    // skip the frame (and keep non-stealing
                                    // deployments free of directory traffic).
                                    if !peer_dir.is_empty() {
                                        reactor.send(
                                            id,
                                            &Message::PeerDirectory {
                                                peers: peer_dir.values().cloned().collect(),
                                            },
                                        );
                                    }
                                    if let Some(hc) = &hc {
                                        hc.joins.inc();
                                    }
                                    println!("EVENT joined {node}");
                                }
                                Err(reason) => {
                                    reactor.send(
                                        id,
                                        &Message::JoinAck {
                                            node: NodeId(u32::MAX),
                                            accepted: false,
                                            reason,
                                        },
                                    );
                                    if let Some(hc) = &hc {
                                        hc.join_refusals.inc();
                                    }
                                }
                            }
                        }
                        Message::Heartbeat { node } => {
                            membership.heartbeat(now(epoch), node);
                            if let Some(hc) = &hc {
                                hc.heartbeats.inc();
                            }
                        }
                        Message::StatsReport {
                            report,
                            bench_micros,
                        } => {
                            // Reports from blacklisted nodes are dropped so a
                            // removed worker can never re-enter the
                            // coordinator's report set through a stale socket.
                            if !blacklisted_nodes.contains(&report.node) {
                                // Learned bandwidth is control-plane state a
                                // new primary must not have to re-measure:
                                // replicate the latest benchmark per node.
                                if bench_micros > 0
                                    && control.bandwidth.get(&report.node) != Some(&bench_micros)
                                {
                                    replicate(
                                        ReplicaOp::Bandwidth {
                                            node: report.node,
                                            bench_micros,
                                        },
                                        hub_epoch,
                                        &mut control,
                                        &mut replog,
                                        &replicas,
                                        &mut reactor,
                                        &hc,
                                    );
                                }
                                if let Some(cid) = coordinator {
                                    if reactor.send(
                                        cid,
                                        &Message::StatsReport {
                                            report,
                                            bench_micros,
                                        },
                                    ) {
                                        if let Some(hc) = &hc {
                                            hc.stats_forwarded.inc();
                                        }
                                    }
                                }
                            }
                        }
                        Message::Leaving { node } => {
                            membership.leave(node);
                            replicate(
                                ReplicaOp::Leave { node },
                                hub_epoch,
                                &mut control,
                                &mut replog,
                                &replicas,
                                &mut reactor,
                                &hc,
                            );
                            // Blacklisted (shrink-removed) nodes never return
                            // to the pool; voluntary leavers do.
                            if !blacklisted_nodes.contains(&node) {
                                pool.release(node);
                            }
                            node_conn.remove(&node);
                            if peer_dir.contains_key(&node) {
                                flush_directory(
                                    &mut dir_dirty,
                                    &peer_dir,
                                    &node_conn,
                                    &mut reactor,
                                    hub_epoch,
                                    &mut control,
                                    &mut replog,
                                    &replicas,
                                    &hc,
                                );
                                peer_dir.remove(&node);
                                dir_dirty = true;
                            }
                            if let Some(hc) = &hc {
                                hc.leaves.inc();
                            }
                            println!("EVENT left {node}");
                        }
                        Message::CoordinatorHello => {
                            roles.insert(id, Role::Coordinator);
                            coordinator = Some(id);
                            // The coordinator carries the epoch in its
                            // decision provenance events.
                            reactor.send(
                                id,
                                &Message::HubEpoch {
                                    epoch: hub_epoch,
                                    leader,
                                },
                            );
                        }
                        Message::LauncherHello => {
                            roles.insert(id, Role::Launcher);
                            launcher = Some(id);
                            for (node, cluster) in pending_grants.drain(..) {
                                pending_spawns.insert(node);
                                reactor.send(id, &Message::SpawnWorker { node, cluster });
                                if let Some(hc) = &hc {
                                    hc.spawns_requested.inc();
                                }
                            }
                        }
                        Message::Grow {
                            count,
                            prefer,
                            min_uplink_bps,
                            min_speed,
                        } => {
                            // The coordinator grows on an Add decision; the
                            // launcher grows when a scenario file injects an
                            // external capacity grant.
                            if matches!(
                                roles.get(&id),
                                Some(&Role::Coordinator) | Some(&Role::Launcher)
                            ) {
                                if let Some(hc) = &hc {
                                    hc.grow_requests.inc();
                                }
                                let grants = pool.request(
                                    count as usize,
                                    AllocPolicy::LocalityAware,
                                    &Requirements {
                                        min_uplink_bps,
                                        min_speed,
                                    },
                                    &blacklisted_nodes,
                                    &blacklisted_clusters,
                                    &prefer,
                                );
                                match launcher {
                                    Some(l) => {
                                        for g in grants {
                                            pending_spawns.insert(g.node);
                                            reactor.send(
                                                l,
                                                &Message::SpawnWorker {
                                                    node: g.node,
                                                    cluster: g.cluster,
                                                },
                                            );
                                            if let Some(hc) = &hc {
                                                hc.spawns_requested.inc();
                                            }
                                        }
                                    }
                                    None => {
                                        // Nobody can spawn processes yet:
                                        // hold the grants for the launcher.
                                        pending_grants
                                            .extend(grants.iter().map(|g| (g.node, g.cluster)));
                                    }
                                }
                            }
                        }
                        Message::Shrink { nodes, cluster } => {
                            if roles.get(&id) == Some(&Role::Coordinator) {
                                if let Some(hc) = &hc {
                                    hc.shrink_requests.inc();
                                }
                                blacklisted_nodes.extend(nodes.iter().copied());
                                for &node in &nodes {
                                    replicate(
                                        ReplicaOp::BlacklistNode { node },
                                        hub_epoch,
                                        &mut control,
                                        &mut replog,
                                        &replicas,
                                        &mut reactor,
                                        &hc,
                                    );
                                }
                                if let Some(c) = cluster {
                                    blacklisted_clusters.insert(c);
                                    replicate(
                                        ReplicaOp::BlacklistCluster { cluster: c },
                                        hub_epoch,
                                        &mut control,
                                        &mut replog,
                                        &replicas,
                                        &mut reactor,
                                        &hc,
                                    );
                                }
                                for node in nodes {
                                    membership.signal_leave(node);
                                }
                                for node in membership.take_signals() {
                                    if let Some(&t) = node_conn.get(&node) {
                                        reactor.send(t, &Message::SignalLeave { node });
                                    }
                                }
                            }
                        }
                        Message::Shutdown => {
                            if roles.get(&id) == Some(&Role::Launcher) {
                                let frame = Reactor::encode_frame(&Message::Shutdown);
                                let targets: Vec<Token> = roles.keys().copied().collect();
                                for t in targets {
                                    reactor.send_frame(t, frame.clone());
                                }
                                // Drain the write queues so every peer gets
                                // its final frame before the process tears
                                // the sockets down (the old transport slept
                                // and hoped; the reactor flushes for real).
                                reactor.drain(Duration::from_millis(500));
                                break 'serve;
                            }
                        }
                        Message::PeerAnnounce { node, steal_addr } => {
                            // Only the worker that owns the node id may
                            // announce a listener for it.
                            if roles.get(&id) == Some(&Role::Worker(node)) {
                                let cluster = pool.cluster_of(node);
                                peer_dir.insert(
                                    node,
                                    PeerInfo {
                                        node,
                                        cluster,
                                        steal_addr,
                                    },
                                );
                                dir_dirty = true;
                                println!("EVENT peers {}", peer_dir.len());
                            }
                        }
                        // A scenario file's graceful `shrink` event: signal
                        // the nodes out through the registry exactly like a
                        // coordinator Shrink, but WITHOUT blacklisting —
                        // scenario-withdrawn nodes return to the pool when
                        // their farewell arrives, so a later grow may hand
                        // the same machines back.
                        Message::SignalLeave { node } => {
                            if roles.get(&id) == Some(&Role::Launcher) {
                                membership.signal_leave(node);
                                for node in membership.take_signals() {
                                    if let Some(&t) = node_conn.get(&node) {
                                        reactor.send(t, &Message::SignalLeave { node });
                                    }
                                }
                            }
                        }
                        // A scenario perturbation: fan it out to (the first
                        // `count` of) the cluster's connected workers.
                        Message::Perturb {
                            cluster,
                            count,
                            speed,
                            inter_frac,
                        } => {
                            if roles.get(&id) == Some(&Role::Launcher) {
                                let mut sent = 0u32;
                                for (&node, &t) in &node_conn {
                                    if pool.cluster_of(node) != cluster {
                                        continue;
                                    }
                                    if count > 0 && sent >= count {
                                        break;
                                    }
                                    if reactor.send(
                                        t,
                                        &Message::Perturb {
                                            cluster,
                                            count,
                                            speed,
                                            inter_frac,
                                        },
                                    ) {
                                        sent += 1;
                                    }
                                }
                                println!("EVENT perturbed {cluster} workers {sent}");
                            }
                        }
                        // A standby hub attaches: log it to the standby set
                        // (so every replica learns where the others serve),
                        // register the connection, and bring it current with
                        // a full snapshot. Snapshots are idempotent, so a
                        // reattach at any offset is just another snapshot.
                        Message::ReplicaHello { replica, addr, .. } => {
                            replicate(
                                ReplicaOp::ReplicaJoined { replica, addr },
                                hub_epoch,
                                &mut control,
                                &mut replog,
                                &replicas,
                                &mut reactor,
                                &hc,
                            );
                            roles.insert(id, Role::Replica(replica));
                            replicas.insert(id, replica);
                            if reactor.send(
                                id,
                                &Message::StateSnapshot {
                                    epoch: hub_epoch,
                                    log_offset: replog.offset(),
                                    state: control.snapshot(),
                                },
                            ) {
                                if let Some(hc) = &hc {
                                    hc.replica_snapshots_sent.inc();
                                }
                            }
                            println!("EVENT replica {replica} attached");
                        }
                        Message::ReplicaAck {
                            replica,
                            log_offset,
                        } => {
                            replog.ack(replica, log_offset);
                        }
                        // Epoch fencing. A write-bearing frame from an older
                        // epoch is a stale primary that limped back after a
                        // failover: refuse the write and answer with the
                        // current epoch so it can stand down. A *newer*
                        // epoch means WE are the stale primary — stop
                        // serving immediately rather than split the brain.
                        Message::StateDelta { epoch: e, .. }
                        | Message::StateSnapshot { epoch: e, .. }
                        | Message::HubEpoch { epoch: e, .. } => {
                            if e < hub_epoch {
                                reactor.send(
                                    id,
                                    &Message::HubEpoch {
                                        epoch: hub_epoch,
                                        leader,
                                    },
                                );
                                if let Some(hc) = &hc {
                                    hc.replica_fenced.inc();
                                }
                                println!("EVENT fenced stale epoch={e}");
                            } else if e > hub_epoch {
                                println!("EVENT fenced by newer epoch={e}");
                                fenced_out = true;
                                break 'serve;
                            }
                        }
                        // Hub-outbound messages arriving inbound, and
                        // steal-plane traffic (worker ↔ worker, never through
                        // the hub): ignore.
                        Message::JoinAck { .. }
                        | Message::CrashNotice { .. }
                        | Message::SuspectNotice { .. }
                        | Message::SpawnWorker { .. }
                        | Message::PeerDirectory { .. }
                        | Message::StealRequest { .. }
                        | Message::StealReply { .. }
                        | Message::StealResult { .. } => {}
                    },
                }
            }

            // Surface registry transitions as metric events, and keep the
            // coordinator's suspicion view current: Suspected/Resumed
            // transitions go out as SuspectNotice frames (deaths already
            // went out as CrashNotice from the detection sweep). The
            // notices flow whether or not metrics are on — the hold-fire
            // rule is policy, not observability.
            let t = now(epoch);
            for evt in membership.take_events() {
                match evt {
                    RegistryEvent::Suspected(n) => {
                        if let Some(hc) = &hc {
                            hc.suspects.inc();
                        }
                        println!("EVENT suspect {n}");
                        if let Some(cid) = coordinator {
                            reactor.send(
                                cid,
                                &Message::SuspectNotice {
                                    node: n,
                                    suspected: true,
                                },
                            );
                        }
                    }
                    RegistryEvent::Resumed(n) => {
                        if let Some(hc) = &hc {
                            hc.resumes.inc();
                        }
                        println!("EVENT resumed {n}");
                        if let Some(cid) = coordinator {
                            reactor.send(
                                cid,
                                &Message::SuspectNotice {
                                    node: n,
                                    suspected: false,
                                },
                            );
                        }
                    }
                    _ => {}
                }
                if self.metrics.is_enabled() {
                    let (node, state) = match evt {
                        RegistryEvent::Joined(n, _) => (n, "joined"),
                        RegistryEvent::Left(n) => (n, "left"),
                        RegistryEvent::Died(n) => (n, "died"),
                        RegistryEvent::Suspected(n) => (n, "suspect"),
                        RegistryEvent::Resumed(n) => (n, "alive"),
                    };
                    self.metrics.emit(
                        MetricEvent::new(t.0, "member")
                            .with("node", Value::U64(u64::from(node.0)))
                            .with("state", Value::Str(state.to_string())),
                    );
                }
            }
        }

        if fenced_out {
            self.metrics.emit(
                MetricEvent::new(now(epoch).0, "hub_fenced")
                    .with("epoch", Value::U64(hub_epoch))
                    .with("leader", Value::U64(u64::from(leader))),
            );
        }
        self.metrics.clone()
    }
}
