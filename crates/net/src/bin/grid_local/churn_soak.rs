//! The `churn-soak` scenario: the reactor's scale and lifecycle proof. One
//! hub process serves `--workers` protocol-complete loopback workers driven
//! by a single in-process reactor swarm (real worker *processes* at that
//! count would exhaust the box, and the hub cannot tell the difference —
//! same sockets, same frames, same heartbeat cadence). Waves of churn
//! (disconnect + claim-rejoin inside the heartbeat window), silent crashes
//! (must be declared dead and blacklisted) and a launcher-driven grow roll
//! through while the launcher asserts the hub's OS thread count stays flat
//! — independent of connection count — and the teardown leaves no orphans.
//! Every worker announces a steal listener, so the same waves drive the
//! hub's peer directory at scale: a survivor's newest snapshot must track
//! the live fleet, and no broadcast may overflow a write queue.
//! Scripted because the scenario format has no synthetic-swarm primitive.

use crate::harness::{HubGeometry, LocalGrid, WorkerArgs};
use crate::{Checks, Failure};
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::json::parse_json;
use sagrid_core::metrics::Metrics;
use sagrid_net::wire::Message;
use sagrid_net::{Reactor, ReactorEvent, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A swarm of protocol-complete synthetic workers multiplexed on ONE
/// client-side [`Reactor`] — the only way to put thousands of concurrent
/// workers in front of the hub on a single box. Each client joins,
/// announces a steal listener, holds an ~800ms heartbeat cadence (sharded
/// so every turn sends 1/8th of the beats), and is individually
/// disconnectable/reclaimable, which is what the churn and crash waves
/// need.
struct Swarm {
    reactor: Reactor,
    /// Connection → the node id the hub granted (`None` until the
    /// `JoinAck` lands).
    clients: BTreeMap<Token, Option<u32>>,
    /// Joins sent whose `JoinAck` has not come back yet.
    pending_join: usize,
    accepted: u64,
    /// Refusal reasons, in arrival order (the blacklist proof reads them).
    refusals: Vec<String>,
    /// Tokens we closed on purpose; their `Closed` events are expected.
    expect_close: BTreeSet<Token>,
    /// Connections the *hub* dropped without us asking — must stay zero:
    /// a healthy hub never hangs up on a live, heartbeating worker.
    unexpected_closes: u64,
    /// The one client whose peer directories are kept (decoding is paid
    /// for every client anyway; keeping them all is not).
    witness: Option<Token>,
    /// Node ids in the newest `PeerDirectory` the witness received.
    witness_dir: BTreeSet<u32>,
    ev: Vec<ReactorEvent>,
    hb_pass: u64,
    last_hb: Instant,
}

impl Swarm {
    fn new() -> Result<Self, Failure> {
        Ok(Self {
            reactor: Reactor::new(&Metrics::disabled())
                .map_err(|e| Failure::Infra(format!("swarm reactor: {e}")))?,
            clients: BTreeMap::new(),
            pending_join: 0,
            accepted: 0,
            refusals: Vec::new(),
            expect_close: BTreeSet::new(),
            unexpected_closes: 0,
            witness: None,
            witness_dir: BTreeSet::new(),
            ev: Vec::new(),
            hb_pass: 0,
            last_hb: Instant::now(),
        })
    }

    /// Dials the hub and sends a `Join` (fresh or claiming `claim`). The
    /// ack is collected later by [`Swarm::turn`].
    fn join_one(
        &mut self,
        hub_addr: &str,
        cluster: u16,
        claim: Option<u32>,
    ) -> Result<Token, Failure> {
        let t = self
            .reactor
            .connect(hub_addr)
            .map_err(|e| Failure::Infra(format!("swarm connect: {e}")))?;
        self.reactor.send(
            t,
            &Message::Join {
                cluster: ClusterId(cluster),
                claim: claim.map(NodeId),
            },
        );
        self.clients.insert(t, None);
        self.pending_join += 1;
        Ok(t)
    }

    /// The first `limit` joined clients, as `(connection, node id)`.
    fn joined(&self, limit: usize) -> Vec<(Token, u32)> {
        let joined = self.clients.iter().filter_map(|(t, n)| n.map(|n| (*t, n)));
        joined.take(limit).collect()
    }

    /// Disconnects a client on purpose (its `Closed` becomes expected).
    /// From the hub's view this is exactly what a SIGKILLed worker process
    /// looks like: a clean TCP close followed by heartbeat silence.
    fn drop_client(&mut self, t: Token) {
        self.clients.remove(&t);
        self.expect_close.insert(t);
        self.reactor.close(t);
    }

    /// One event-loop turn: poll, absorb acks/closes, and keep the
    /// heartbeat cadence going. Every wait in the scenario funnels through
    /// here so the swarm never starves while the launcher watches for
    /// something else.
    fn turn(&mut self, wait: Duration) -> Result<(), Failure> {
        self.reactor
            .poll(&mut self.ev, wait)
            .map_err(|e| Failure::Infra(format!("swarm poll: {e}")))?;
        let events: Vec<ReactorEvent> = self.ev.drain(..).collect();
        for ev in events {
            match ev {
                ReactorEvent::Frame(
                    t,
                    Message::JoinAck {
                        node,
                        accepted,
                        reason,
                    },
                ) => {
                    self.pending_join = self.pending_join.saturating_sub(1);
                    if accepted {
                        if let Some(granted) = self.clients.get_mut(&t) {
                            *granted = Some(node.0);
                        }
                        self.accepted += 1;
                        // Like `sagrid-worker` after every join and
                        // claim-rejoin; the address (TEST-NET-1) is never
                        // dialled, it only puts the fleet in the directory.
                        let steal_addr = format!("192.0.2.1:{}", node.0);
                        self.reactor
                            .send(t, &Message::PeerAnnounce { node, steal_addr });
                    } else {
                        self.refusals.push(reason);
                        self.drop_client(t);
                    }
                }
                ReactorEvent::Frame(t, Message::PeerDirectory { peers })
                    if self.witness == Some(t) =>
                {
                    self.witness_dir = peers.iter().map(|p| p.node.0).collect();
                }
                // Epoch stamps and everyone else's peer directories are
                // protocol-legal noise for a swarm that runs no steal plane.
                ReactorEvent::Frame(..) => {}
                ReactorEvent::Closed(t) => {
                    if !self.expect_close.remove(&t) && self.clients.remove(&t).is_some() {
                        self.unexpected_closes += 1;
                    }
                }
                ReactorEvent::Accepted(..) | ReactorEvent::Timer(_) => {}
            }
        }
        // Sharded heartbeats: one pass per ~100ms beats token-shard
        // `pass % 8`, so each live client beats about every 800ms against
        // the hub's 3000ms timeout — slow enough to matter at 5000 clients,
        // fast enough that only true silence kills a node.
        if self.last_hb.elapsed() >= Duration::from_millis(100) {
            self.last_hb = Instant::now();
            self.hb_pass = self.hb_pass.wrapping_add(1);
            let shard = self.hb_pass % 8;
            for (&t, granted) in &self.clients {
                if let (true, Some(n)) = (t % 8 == shard, *granted) {
                    self.reactor
                        .send(t, &Message::Heartbeat { node: NodeId(n) });
                }
            }
        }
        Ok(())
    }

    /// Turns until every outstanding join is answered or the deadline hits.
    fn settle_joins(&mut self, what: &str, deadline: Instant) -> Result<(), Failure> {
        while self.pending_join > 0 {
            if Instant::now() > deadline {
                return Err(Failure::Timeout(format!(
                    "{what}: {} joins still unanswered",
                    self.pending_join
                )));
            }
            self.turn(Duration::from_millis(10))?;
        }
        Ok(())
    }
}

/// The hub process's live OS thread count (`/proc/<pid>/status`). This is
/// the number the whole reactor exists for: it must not scale with the
/// connection count.
fn os_threads_of(pid: u32) -> Option<u64> {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

pub fn run(
    workers: usize,
    duration: Duration,
    out: &str,
    bin_dir: PathBuf,
) -> Result<Checks, Failure> {
    const CLUSTERS: usize = 8;
    /// Ceiling on the hub's OS threads at full load. The hub needs one
    /// serve thread; the slack covers runtime helpers, never connections.
    const HUB_THREAD_BOUND: u64 = 16;
    if workers < 64 {
        return Err(Failure::Usage(
            "churn-soak needs at least 64 workers".into(),
        ));
    }
    let overall_deadline = Instant::now() + duration;
    let crash_count = 32.min(workers / 8);
    let churn_count = (workers / 25).clamp(8, 256);
    let grow_count: u32 = 64;
    // Capacity: the initial population, plus ids consumed by blacklisted
    // crash victims, plus room for the grow wave (spread over clusters —
    // budgeted as if one cluster absorbed them all).
    let per_cluster = workers.div_ceil(CLUSTERS) + crash_count + grow_count as usize;

    // The swarm plays the workers: the grid spawns none, so their pacing
    // is moot.
    let mut grid = LocalGrid::new(bin_dir, out, WorkerArgs::default(), Duration::from_secs(10));
    let hub = grid.spawn_hub(
        &HubGeometry {
            clusters: CLUSTERS,
            nodes_per_cluster: per_cluster,
            heartbeat_timeout_ms: 3000,
            detect_interval_ms: 200,
        },
        None,
    )?;
    let hub_addr = hub.addr.as_str();
    println!("grid-local: churn-soak, {workers} synthetic workers");
    // Grow grants are claimed by the swarm, not by spawned processes.
    grid.connect_control(hub_addr, false)?;
    let mut checks = Checks::default();

    // --- Wave 0: the join storm ------------------------------------------
    // The listen backlog is 128, so connects go out in paced batches with
    // poll turns between them — the hub accepts and acks while the swarm
    // keeps dialing, exactly how a real fleet arrives.
    let mut swarm = Swarm::new()?;
    let storm_start = Instant::now();
    for i in 0..workers {
        swarm.join_one(hub_addr, (i % CLUSTERS) as u16, None)?;
        while swarm.pending_join >= 100 {
            if Instant::now() > overall_deadline {
                return Err(Failure::Timeout("join storm stalled".into()));
            }
            swarm.turn(Duration::from_millis(2))?;
        }
    }
    swarm.settle_joins("join storm", overall_deadline)?;
    println!(
        "grid-local: {} workers joined in {:?}",
        swarm.accepted,
        storm_start.elapsed()
    );
    checks.assert(
        swarm.accepted == workers as u64 && swarm.refusals.is_empty(),
        &format!(
            "all {workers} workers joined ({} accepted, {} refused)",
            swarm.accepted,
            swarm.refusals.len()
        ),
    );
    // The last client to join is neither churned nor crashed below (both
    // waves take the lowest tokens): it watches the directory.
    swarm.witness = swarm.joined(usize::MAX).last().map(|&(t, _)| t);

    // The tentpole number: thousands of live connections, a flat hub
    // thread count.
    let threads_full = os_threads_of(hub.pid).unwrap_or(u64::MAX);
    checks.assert(
        threads_full <= HUB_THREAD_BOUND,
        &format!(
            "hub serves {} connections on {threads_full} OS threads (bound {HUB_THREAD_BOUND}, \
             independent of worker count)",
            swarm.clients.len()
        ),
    );

    // --- Wave 1: churn — disconnect and reclaim inside the window --------
    // An unexpected close is NOT a death: the node keeps its id as long as
    // it claim-rejoins before heartbeat silence condemns it.
    let churn_victims = swarm.joined(churn_count);
    for (t, _) in &churn_victims {
        swarm.drop_client(*t);
    }
    let accepted_before = swarm.accepted;
    for (_, node) in &churn_victims {
        swarm.join_one(hub_addr, 0, Some(*node))?;
    }
    swarm.settle_joins("churn reclaim", Instant::now() + Duration::from_secs(30))?;
    checks.assert(
        swarm.accepted - accepted_before == churn_victims.len() as u64,
        &format!(
            "all {} churned workers reclaimed their node ids after reconnect",
            churn_victims.len()
        ),
    );

    // --- Wave 2: silent crashes — death by heartbeat timeout -------------
    let crash_victims = swarm.joined(crash_count);
    let dead_ids: BTreeSet<u32> = crash_victims.iter().map(|&(_, n)| n).collect();
    for (t, _) in &crash_victims {
        swarm.drop_client(*t);
    }
    // 3000ms of silence + a detect sweep; the rest of the swarm keeps
    // heartbeating through the same turns, proving detection is selective.
    let death_deadline = Instant::now() + Duration::from_secs(20);
    while !grid.marks(|m| dead_ids.is_subset(&m.died)) {
        if Instant::now() > death_deadline {
            return Err(Failure::Timeout(format!(
                "hub never declared all {} silent workers dead (got {:?})",
                dead_ids.len(),
                grid.marks(|m| m.died.clone())
            )));
        }
        swarm.turn(Duration::from_millis(20))?;
    }
    checks.assert(
        grid.marks(|m| m.died == dead_ids),
        &format!(
            "exactly the {} silent workers were declared dead (no collateral deaths among \
             {} heartbeating survivors)",
            dead_ids.len(),
            swarm.clients.len()
        ),
    );
    // Blacklist proof: a dead node's id must be refused on claim-rejoin.
    let refusals_before = swarm.refusals.len();
    let victim = *dead_ids.iter().next().expect("at least one crash victim");
    swarm.join_one(hub_addr, 0, Some(victim))?;
    swarm.settle_joins("blacklist probe", Instant::now() + Duration::from_secs(10))?;
    let refusal = swarm
        .refusals
        .get(refusals_before)
        .cloned()
        .unwrap_or_default();
    checks.assert(
        refusal.contains("blacklist"),
        &format!("dead node n{victim} is refused on rejoin (reason: {refusal:?})"),
    );

    // --- Wave 3: grow — launcher-driven capacity grants ------------------
    grid.send(Message::Grow {
        count: grow_count,
        prefer: vec![],
        min_uplink_bps: None,
        min_speed: None,
    });
    let grant_deadline = Instant::now() + Duration::from_secs(10);
    while grid.marks(|m| m.grants.len()) < grow_count as usize && Instant::now() < grant_deadline {
        swarm.turn(Duration::from_millis(10))?;
    }
    let grants = grid.marks(|m| m.grants.clone());
    checks.assert(
        grants.len() == grow_count as usize,
        &format!(
            "grow produced {} spawn grants of {grow_count} requested",
            grants.len()
        ),
    );
    let accepted_before = swarm.accepted;
    for &(node, cluster) in &grants {
        swarm.join_one(hub_addr, cluster, Some(node))?;
    }
    swarm.settle_joins("grow claims", Instant::now() + Duration::from_secs(30))?;
    checks.assert(
        swarm.accepted - accepted_before == grants.len() as u64,
        &format!(
            "every grow grant claim-joined ({} new workers)",
            grants.len()
        ),
    );

    // --- Steady-state dwell, then the flat-thread re-check ---------------
    let dwell_end = Instant::now() + Duration::from_secs(2);
    while Instant::now() < dwell_end {
        swarm.turn(Duration::from_millis(50))?;
    }
    let threads_dwell = os_threads_of(hub.pid).unwrap_or(u64::MAX);
    checks.assert(
        threads_dwell <= HUB_THREAD_BOUND,
        &format!(
            "hub thread count still {threads_dwell} after churn/crash/grow waves \
             ({} live connections)",
            swarm.clients.len()
        ),
    );
    checks.assert(
        swarm.unexpected_closes == 0,
        &format!(
            "the hub never hung up on a live worker (unexpected closes: {})",
            swarm.unexpected_closes
        ),
    );
    let live: BTreeSet<u32> = swarm.clients.values().flatten().copied().collect();
    let dir = &swarm.witness_dir;
    let grown: BTreeSet<u32> = grants.iter().map(|&(n, _)| n).collect();
    checks.assert(
        *dir == live,
        &format!(
            "a survivor's newest peer directory lists exactly the {} live announced workers \
             ({} listed; {} crash victims still in it, {} of {} grow claimants missing)",
            live.len(),
            dir.len(),
            dir.intersection(&dead_ids).count(),
            grown.difference(dir).count(),
            grown.len()
        ),
    );

    // --- Teardown: farewells, shutdown, orphan sweep ----------------------
    for (t, n) in swarm.joined(usize::MAX) {
        swarm.reactor.send(t, &Message::Leaving { node: NodeId(n) });
    }
    // Push every farewell onto the wire before the shutdown races them.
    swarm.reactor.drain(Duration::from_secs(5));
    let hub_status = grid.shutdown_and_reap(&mut checks).remove("hub");
    checks.assert(
        hub_status.is_some_and(|s| s.success()),
        &format!("hub exited cleanly ({hub_status:?})"),
    );
    let hub_jsonl = format!("{out}/run_hub.jsonl");
    let body = std::fs::read_to_string(&hub_jsonl).unwrap_or_default();
    checks.assert(
        body.contains("net.reactor.accepts") && body.contains("net.reactor.loop_latency_us"),
        "hub metrics JSONL carries the net.reactor.* instruments",
    );
    // A full write queue drops the frame: every worker must have been
    // sent every directory broadcast, the teardown's included.
    let drops = body
        .lines()
        .filter_map(|line| parse_json(line).ok())
        .find(|v| v.get("name").and_then(|n| n.as_str()) == Some("net.reactor.backpressure_drops"))
        .and_then(|v| v.get("value").and_then(|v| v.as_u64()));
    checks.assert(
        drops == Some(0),
        &format!(
            "the hub dropped no frame to backpressure (net.reactor.backpressure_drops={drops:?})"
        ),
    );

    Ok(checks)
}
