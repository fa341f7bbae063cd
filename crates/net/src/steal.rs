//! The worker ↔ worker steal plane: exporting, stealing and completing
//! serialized divide-and-conquer jobs over TCP.
//!
//! Control traffic (join, heartbeats, statistics) goes through the hub;
//! steal traffic is point-to-point. Each worker process runs a
//! [`spawn_steal_server`] listener backed by an [`ExportPool`] of
//! serialized jobs, announces its address to the hub, and learns every
//! peer's address from the hub's `PeerDirectory` broadcasts. When a
//! worker's in-process runtime runs dry, the [`NetStealHook`] picks a
//! victim by CRS — a random peer in the own cluster first, then a random
//! peer in another cluster, the same policy the in-process scheduler and
//! the discrete-event engine use — requests one job, executes it locally
//! and wires the value back.
//!
//! Jobs are pure, so the fault story is simple: a victim re-pends any job
//! whose thief has been silent too long ([`ExportPool::reclaim_stale`]),
//! and the first result to arrive for a job id wins — a late duplicate
//! from a slow thief is dropped, not double-counted.
//!
//! Every steal round trip is measured on the wall clock. The thief feeds
//! the measurement into its runtime's `inter_comm` overhead via
//! [`WorkerCtx::note_remote_wait`], which is how the coordinator's
//! inter-cluster-communication input becomes a real wire quantity in
//! process mode instead of an emulated delay.

use crate::reactor::{Reactor, ReactorEvent};
use crate::wire::{recv_message, send_message, Message, PeerInfo, StealJob};
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::metrics::{Counter, Histogram, Metrics};
use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
use sagrid_runtime::{RemoteStealHook, WorkerCtx};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Bucket bounds (microseconds) for the per-steal latency histogram:
/// loopback round trips sit in the first buckets, cross-site WAN steals in
/// the last ones.
const LATENCY_BOUNDS_US: &[u64] = &[50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000];

/// Pre-resolved steal-plane metric handles; `None` when metrics are
/// disabled (same idiom as [`crate::reactor::ReactorMetrics`]).
#[derive(Clone)]
pub struct StealMetrics {
    remote_ok: Arc<Counter>,
    remote_failed: Arc<Counter>,
    latency_us: Arc<Histogram>,
}

impl StealMetrics {
    /// Resolves the handles; `None` when metrics are disabled.
    pub fn resolve(metrics: &Metrics) -> Option<Self> {
        metrics.is_enabled().then(|| Self {
            remote_ok: metrics.counter("net.steals.remote_ok").expect("enabled"),
            remote_failed: metrics
                .counter("net.steals.remote_failed")
                .expect("enabled"),
            latency_us: metrics
                .histogram("net.steals.latency_us", LATENCY_BOUNDS_US)
                .expect("enabled"),
        })
    }
}

/// A job currently in a thief's hands.
struct Exported {
    payload: Vec<u8>,
    since: Instant,
}

#[derive(Default)]
struct PoolState {
    /// Also the number of jobs ever offered.
    next_id: u64,
    pending: VecDeque<(u64, Vec<u8>)>,
    exported: BTreeMap<u64, Exported>,
    /// Every id below `done_below` is counted; `done_above` holds the
    /// counted ids past it, i.e. results that overtook an older job.
    done_below: u64,
    done_above: BTreeSet<u64>,
    completed: u64,
    sum: u64,
}

/// Point-in-time view of an [`ExportPool`] for progress logging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Jobs ever offered.
    pub offered: u64,
    /// Jobs completed (locally or by a thief).
    pub completed: u64,
    /// Jobs waiting to be taken.
    pub pending: u64,
    /// Jobs out with a thief, result not yet seen.
    pub exported: u64,
}

/// The victim side of the steal plane: serialized jobs waiting to be
/// handed to thieves (or executed locally), jobs out with thieves, and
/// the accumulated results.
///
/// The owning process offers its root job's frontier, then drains the pool
/// by executing [`ExportPool::take_local`] jobs itself while the steal
/// server exports others concurrently; [`ExportPool::is_done`] flips once
/// every offered job has exactly one counted result.
pub struct ExportPool {
    state: Mutex<PoolState>,
}

impl Default for ExportPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ExportPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(PoolState::default()),
        }
    }

    /// Queues a serialized job for export; returns its pool-local id.
    pub fn offer(&self, payload: Vec<u8>) -> u64 {
        let mut s = self.state.lock().expect("pool poisoned");
        let id = s.next_id;
        s.next_id += 1;
        s.pending.push_back((id, payload));
        id
    }

    /// Hands one pending job to a thief, marking it exported as of now,
    /// and returns the framed `StealReply` carrying it. The reply is
    /// framed from the job and the payload then moved into the exported
    /// set; outside the lock the frame is copied once more, into the
    /// shared buffer the reactor queues. A reply that fails to send is
    /// still exported and comes back by staleness.
    fn take_for_thief(&self) -> Option<Arc<[u8]>> {
        let mut s = self.state.lock().expect("pool poisoned");
        // Thieves take from the back, the owner from the front — the same
        // ends-apart discipline as an in-process work-stealing deque.
        let (id, payload) = s.pending.pop_back()?;
        let job = Some(StealJob { id, payload });
        let reply = Message::StealReply { job };
        let frame = reply.frame();
        let Message::StealReply { job: Some(job) } = reply else {
            unreachable!("built above")
        };
        let (payload, since) = (job.payload, Instant::now());
        s.exported.insert(id, Exported { payload, since });
        drop(s);
        Some(frame.into())
    }

    /// Takes one pending job for local execution by the owner. The caller
    /// must report the value through [`ExportPool::complete`].
    pub fn take_local(&self) -> Option<(u64, Vec<u8>)> {
        let mut s = self.state.lock().expect("pool poisoned");
        s.pending.pop_front()
    }

    /// Counts a result for job `id`. First result wins: duplicates (a
    /// reclaimed job raced its original thief) return `false` and are not
    /// added to the sum. Unknown ids return `false`.
    pub fn complete(&self, id: u64, value: u64) -> bool {
        let s = &mut *self.state.lock().expect("pool poisoned");
        if id >= s.next_id || id < s.done_below || !s.done_above.insert(id) {
            return false;
        }
        while s.done_above.remove(&s.done_below) {
            s.done_below += 1;
        }
        s.completed += 1;
        s.sum += value;
        // Only a job the owner took, or one re-pended by `reclaim_stale`,
        // can still be queued; a thief's result settles an exported one.
        if s.exported.remove(&id).is_none() {
            if let Some(at) = s.pending.iter().position(|(i, _)| *i == id) {
                s.pending.remove(at);
            }
        }
        true
    }

    /// Re-pends every job exported at least `max_age` ago without a
    /// result — the thief is presumed dead; if its result shows up later
    /// anyway, first-result-wins drops the duplicate. Returns how many
    /// jobs were reclaimed.
    pub fn reclaim_stale(&self, max_age: Duration) -> usize {
        let mut s = self.state.lock().expect("pool poisoned");
        let now = Instant::now();
        let stale: Vec<u64> = s
            .exported
            .iter()
            .filter(|(_, e)| now.duration_since(e.since) >= max_age)
            .map(|(id, _)| *id)
            .collect();
        for id in &stale {
            let e = s.exported.remove(id).expect("listed above");
            s.pending.push_back((*id, e.payload));
        }
        stale.len()
    }

    /// Whether every offered job has a counted result.
    pub fn is_done(&self) -> bool {
        let s = self.state.lock().expect("pool poisoned");
        s.completed == s.next_id
    }

    /// Sum of all counted results (the root value once [`is_done`]).
    ///
    /// [`is_done`]: ExportPool::is_done
    pub fn sum(&self) -> u64 {
        self.state.lock().expect("pool poisoned").sum
    }

    /// Progress snapshot.
    pub fn snapshot(&self) -> PoolSnapshot {
        let s = self.state.lock().expect("pool poisoned");
        PoolSnapshot {
            offered: s.next_id,
            completed: s.completed,
            pending: s.pending.len() as u64,
            exported: s.exported.len() as u64,
        }
    }
}

/// Serves this process's [`ExportPool`] to thieves: one `steal-io`
/// thread runs a [`Reactor`] over `listener`, answers each `StealRequest`
/// with a `StealReply` and folds returned `StealResult`s into the pool.
/// Any other frame closes its connection; a stalled thief costs a decoder
/// buffer, not a thread. The thread is detached and lives as long as the
/// process. `served` counts exported jobs when metrics are enabled.
pub fn spawn_steal_server(
    listener: TcpListener,
    pool: Arc<ExportPool>,
    served: Option<Arc<Counter>>,
) -> io::Result<std::net::SocketAddr> {
    let addr = listener.local_addr()?;
    let mut reactor = Reactor::with_listener(listener, &Metrics::disabled())?;
    let dry = Reactor::encode_frame(&Message::StealReply { job: None });
    std::thread::Builder::new()
        .name("steal-io".to_string())
        .spawn(move || {
            let mut events = Vec::new();
            while reactor.poll(&mut events, Duration::MAX).is_ok() {
                for event in events.drain(..) {
                    match event {
                        ReactorEvent::Frame(token, Message::StealRequest { .. }) => {
                            let job = pool.take_for_thief();
                            if let (Some(c), Some(_)) = (&served, &job) {
                                c.inc();
                            }
                            reactor.send_frame(token, job.unwrap_or_else(|| Arc::clone(&dry)));
                        }
                        ReactorEvent::Frame(_, Message::StealResult { id, value }) => {
                            pool.complete(id, value);
                        }
                        ReactorEvent::Frame(token, _) => reactor.close(token),
                        // EOF and undecodable frames are reaped by the
                        // reactor itself; no timer is ever armed.
                        ReactorEvent::Accepted(..)
                        | ReactorEvent::Closed(_)
                        | ReactorEvent::Timer(_) => {}
                    }
                }
            }
        })?;
    Ok(addr)
}

/// A victim's cached steal connection and the address it was dialled at.
type Conns = HashMap<NodeId, (String, TcpStream)>;

/// Everything a steal reads or writes, under the client's one lock: a
/// steal holds it for its whole round trip anyway.
struct ClientState {
    /// All peers but the thief, same-cluster peers (`peers[..local]`)
    /// first, each tier in directory order.
    peers: Vec<PeerInfo>,
    local: usize,
    conns: Conns,
    rng: Xoshiro256StarStar,
    /// After a fully dry round, retries are suppressed until this instant
    /// so idle workers do not hammer dry victims at park frequency.
    retry_after: Instant,
}

/// The thief side: a CRS victim selector over the hub-fed peer directory,
/// with one cached connection per victim.
pub struct StealClient {
    me: NodeId,
    cluster: ClusterId,
    state: Mutex<ClientState>,
    sm: Option<StealMetrics>,
    /// Reply wait bound per victim, so a stuck victim cannot park the
    /// worker loop indefinitely.
    read_timeout: Duration,
    backoff: Duration,
}

impl StealClient {
    /// A client stealing on behalf of node `me` in `cluster`. `sm` comes
    /// from [`StealMetrics::resolve`].
    pub fn new(me: NodeId, cluster: ClusterId, sm: Option<StealMetrics>) -> Self {
        Self {
            me,
            cluster,
            state: Mutex::new(ClientState {
                peers: Vec::new(),
                local: 0,
                conns: HashMap::new(),
                rng: Xoshiro256StarStar::seeded(
                    0x57EA1 ^ u64::from(me.0).wrapping_mul(0x9E3779B97F4A7C15),
                ),
                retry_after: Instant::now(),
            }),
            sm,
            read_timeout: Duration::from_millis(500),
            backoff: Duration::from_millis(2),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, ClientState> {
        self.state.lock().expect("steal client poisoned")
    }

    /// Replaces the peer directory with a hub snapshot, closes cached
    /// connections to peers that left it or moved to another address, and
    /// lifts the dry backoff (new peers mean new chances).
    pub fn update_directory(&self, mut peers: Vec<PeerInfo>) {
        peers.retain(|p| p.node != self.me);
        // A stable partition keeps each tier in directory order, so a seed
        // draws the same victims as a filter over the directory would.
        let mut far = Vec::with_capacity(peers.len());
        far.extend(peers.extract_if(.., |p| p.cluster != self.cluster));
        let local = peers.len();
        peers.append(&mut far);
        let s = &mut *self.state();
        if !s.conns.is_empty() {
            let mut live: Vec<_> = peers.iter().map(|p| (p.node, &*p.steal_addr)).collect();
            live.sort_unstable();
            s.conns
                .retain(|node, (addr, _)| live.binary_search(&(*node, &**addr)).is_ok());
        }
        s.peers = peers;
        s.local = local;
        s.retry_after = Instant::now();
    }

    /// Number of known peers.
    pub fn peers(&self) -> usize {
        self.state().peers.len()
    }

    /// One CRS round: ask a random same-cluster victim, then a random
    /// victim in another cluster. Returns the stolen job and the victim
    /// to send the result to, or `None` when everyone is dry/unreachable
    /// (after which retries are suppressed briefly).
    pub fn try_steal(&self) -> Option<(NodeId, StealJob)> {
        let s = &mut *self.state();
        if Instant::now() < s.retry_after {
            return None;
        }
        for tier in [0..s.local, s.local..s.peers.len()] {
            if tier.is_empty() {
                continue;
            }
            let pick = &s.peers[tier.start + s.rng.gen_index(tier.len())];
            match self.request_from(&mut s.conns, pick) {
                Ok(Some(job)) => {
                    if let Some(sm) = &self.sm {
                        sm.remote_ok.inc();
                    }
                    return Some((pick.node, job));
                }
                Ok(None) => {
                    if let Some(sm) = &self.sm {
                        sm.remote_failed.inc();
                    }
                }
                Err(_) => {
                    // Stale address or dead victim: drop the cached
                    // connection; the next directory update may revive it.
                    s.conns.remove(&pick.node);
                    if let Some(sm) = &self.sm {
                        sm.remote_failed.inc();
                    }
                }
            }
        }
        s.retry_after = Instant::now() + self.backoff;
        None
    }

    /// Reports the value computed for a stolen job back to its victim.
    pub fn send_result(&self, victim: NodeId, id: u64, value: u64) -> bool {
        let conns = &mut self.state().conns;
        let Some((_, stream)) = conns.get(&victim) else {
            return false;
        };
        if send_message(&mut (&*stream), &Message::StealResult { id, value }).is_err() {
            conns.remove(&victim);
            return false;
        }
        true
    }

    /// One request/reply round trip against `peer`, dialling (and caching)
    /// a connection on first use. Records per-steal latency when a job
    /// comes back.
    fn request_from(&self, conns: &mut Conns, peer: &PeerInfo) -> io::Result<Option<StealJob>> {
        if let std::collections::hash_map::Entry::Vacant(e) = conns.entry(peer.node) {
            let s = TcpStream::connect(&peer.steal_addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(self.read_timeout))?;
            e.insert((peer.steal_addr.clone(), s));
        }
        let (_, stream) = conns.get(&peer.node).expect("just inserted");
        let start = Instant::now();
        send_message(&mut (&*stream), &Message::StealRequest { thief: self.me })?;
        match recv_message(&mut (&*stream))? {
            Some(Message::StealReply { job }) => {
                if job.is_some() {
                    if let Some(sm) = &self.sm {
                        sm.latency_us.record(start.elapsed().as_micros() as u64);
                    }
                }
                Ok(job)
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected StealReply",
            )),
        }
    }
}

/// Reconstructs and executes a stolen payload; `None` means the payload
/// was undecodable (the victim reclaims the job by staleness).
pub type PayloadExecutor = dyn Fn(&WorkerCtx<'_>, &[u8]) -> Option<u64> + Send + Sync;

/// Bridges the runtime's [`RemoteStealHook`] to a [`StealClient`]: when a
/// worker thread runs dry it steals over the wire, executes the job via
/// the supplied executor (typically `sagrid_apps::remote::RemoteJob`
/// decode + run) and wires the value back. All wire wait lands in the
/// worker's measured `inter_comm` overhead.
pub struct NetStealHook {
    client: Arc<StealClient>,
    exec: Box<PayloadExecutor>,
}

impl NetStealHook {
    /// Couples `client` with a payload executor.
    pub fn new(
        client: Arc<StealClient>,
        exec: impl Fn(&WorkerCtx<'_>, &[u8]) -> Option<u64> + Send + Sync + 'static,
    ) -> Self {
        Self {
            client,
            exec: Box::new(exec),
        }
    }
}

impl RemoteStealHook for NetStealHook {
    fn try_remote_steal(&self, ctx: &WorkerCtx<'_>) -> bool {
        let start = Instant::now();
        let stolen = self.client.try_steal();
        ctx.note_remote_wait(start.elapsed());
        let Some((victim, job)) = stolen else {
            return false;
        };
        let Some(value) = (self.exec)(ctx, &job.payload) else {
            return false;
        };
        let start = Instant::now();
        self.client.send_result(victim, job.id, value);
        ctx.note_remote_wait(start.elapsed());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn pool_counts_each_job_exactly_once() {
        let pool = ExportPool::new();
        let a = pool.offer(vec![1]);
        let b = pool.offer(vec![2]);
        assert!(!pool.is_done());

        // Owner takes one end, a thief the other.
        let (local_id, _) = pool.take_local().unwrap();
        let stolen = thief_export(&pool).unwrap();
        assert_ne!(local_id, stolen.id);
        assert_eq!(
            BTreeSet::from([local_id, stolen.id]),
            BTreeSet::from([a, b])
        );

        assert!(pool.complete(local_id, 10));
        assert!(pool.complete(stolen.id, 32));
        // Duplicates and unknown ids are rejected.
        assert!(!pool.complete(stolen.id, 99));
        assert!(!pool.complete(1234, 1));
        assert!(pool.is_done());
        assert_eq!(pool.sum(), 42);
    }

    #[test]
    fn stale_exports_are_reclaimed_and_late_results_do_not_double_count() {
        let pool = ExportPool::new();
        pool.offer(vec![7]);
        let stolen = thief_export(&pool).unwrap();
        // Fresh export: nothing to reclaim.
        assert_eq!(pool.reclaim_stale(Duration::from_secs(60)), 0);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(pool.reclaim_stale(Duration::from_millis(1)), 1);
        // Reclaimed job is pending again, payload intact.
        let (id, payload) = pool.take_local().unwrap();
        assert_eq!(id, stolen.id);
        assert_eq!(payload, vec![7]);
        assert!(pool.complete(id, 5));
        // The presumed-dead thief's result arrives after all: dropped.
        assert!(!pool.complete(stolen.id, 5));
        assert_eq!(pool.sum(), 5);
        assert!(pool.is_done());
    }

    #[test]
    fn steal_round_trip_over_loopback() {
        let pool = Arc::new(ExportPool::new());
        pool.offer(vec![0xAA, 0xBB]);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = spawn_steal_server(listener, Arc::clone(&pool), None).unwrap();

        let metrics = Metrics::enabled();
        let client = StealClient::new(NodeId(9), ClusterId(1), StealMetrics::resolve(&metrics));
        client.update_directory(vec![PeerInfo {
            node: NodeId(1),
            cluster: ClusterId(0), // other cluster: exercises the wide tier
            steal_addr: addr.to_string(),
        }]);
        assert_eq!(client.peers(), 1);

        let (victim, job) = client.try_steal().expect("server has a job");
        assert_eq!(victim, NodeId(1));
        assert_eq!(job.payload, vec![0xAA, 0xBB]);
        assert_eq!(pool.snapshot().exported, 1);

        assert!(client.send_result(victim, job.id, 77));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pool.is_done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(pool.is_done(), "result never reached the pool");
        assert_eq!(pool.sum(), 77);

        let report = metrics.report();
        assert_eq!(report.counter("net.steals.remote_ok"), 1);
        // A dry follow-up counts as failed (after the backoff window).
        std::thread::sleep(Duration::from_millis(5));
        assert!(client.try_steal().is_none());
        assert_eq!(metrics.report().counter("net.steals.remote_failed"), 1);
    }

    #[test]
    fn own_entry_is_filtered_and_empty_directory_is_dry() {
        let client = StealClient::new(NodeId(4), ClusterId(0), None);
        assert!(client.try_steal().is_none());
        client.update_directory(vec![PeerInfo {
            node: NodeId(4), // self must never be a victim
            cluster: ClusterId(0),
            steal_addr: "127.0.0.1:1".to_string(),
        }]);
        assert_eq!(client.peers(), 0);
        assert!(client.try_steal().is_none());
    }

    #[test]
    fn unreachable_victim_counts_as_failed_not_a_hang() {
        let metrics = Metrics::enabled();
        let client = StealClient::new(NodeId(2), ClusterId(0), StealMetrics::resolve(&metrics));
        client.update_directory(vec![PeerInfo {
            node: NodeId(3),
            cluster: ClusterId(0),
            // A port nothing listens on: connect must fail fast.
            steal_addr: "127.0.0.1:9".to_string(),
        }]);
        let start = Instant::now();
        assert!(client.try_steal().is_none());
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(metrics.report().counter("net.steals.remote_failed"), 1);
    }

    /// A steal server over a pool stocked with `jobs` one-byte jobs.
    fn stocked_server(jobs: usize) -> (Arc<ExportPool>, String) {
        let pool = Arc::new(ExportPool::new());
        for i in 0..jobs {
            pool.offer(vec![i as u8]);
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = spawn_steal_server(listener, Arc::clone(&pool), None).unwrap();
        (pool, addr.to_string())
    }

    /// The hub's view as thief `NodeId(5)` in cluster 1 receives it: its
    /// own entry and eleven peers in three clusters, interleaved so that
    /// neither tier is contiguous or in node order. Same-cluster peers
    /// dial `near`, the rest `far`.
    fn mixed_directory(near: &str, far: &str) -> Vec<PeerInfo> {
        let layout = [
            (3, 0),
            (7, 1),
            (5, 1),
            (1, 2),
            (8, 1),
            (2, 0),
            (9, 2),
            (4, 1),
            (6, 0),
            (10, 2),
            (12, 1),
            (11, 0),
        ];
        layout
            .iter()
            .map(|&(node, cluster)| PeerInfo {
                node: NodeId(node),
                cluster: ClusterId(cluster),
                steal_addr: if cluster == 1 { near } else { far }.to_string(),
            })
            .collect()
    }

    fn victims(client: &StealClient, steals: usize) -> Vec<u32> {
        (0..steals)
            .map(|_| client.try_steal().expect("a stocked victim").0 .0)
            .collect()
    }

    /// The CRS draws are pinned: for a given node id and directory, the
    /// victim sequence must not change with how the thief stores its
    /// directory.
    #[test]
    fn golden_victim_sequence() {
        let (_pool, addr) = stocked_server(64);
        let client = StealClient::new(NodeId(5), ClusterId(1), None);
        client.update_directory(mixed_directory(&addr, &addr));
        assert_eq!(client.peers(), 11);
        assert_eq!(
            victims(&client, 64),
            [
                8, 4, 4, 8, 4, 4, 7, 8, 7, 7, 12, 8, 4, 8, 7, 8, 12, 4, 8, 12, 8, 4, 12, 8, 8, 4,
                12, 12, 4, 4, 8, 8, 12, 4, 12, 7, 8, 8, 4, 8, 7, 7, 12, 7, 8, 12, 8, 7, 4, 12, 8,
                8, 8, 4, 4, 7, 4, 12, 12, 7, 4, 4, 4, 4
            ]
        );

        // A dry same-cluster tier falls through to the remote one; both
        // tiers draw on every steal.
        let (_dry, near) = stocked_server(0);
        let (_full, far) = stocked_server(32);
        let client = StealClient::new(NodeId(5), ClusterId(1), None);
        client.update_directory(mixed_directory(&near, &far));
        assert_eq!(
            victims(&client, 32),
            [
                9, 2, 6, 2, 1, 9, 2, 2, 9, 10, 9, 1, 9, 11, 6, 2, 9, 3, 1, 2, 1, 1, 11, 3, 11, 9,
                6, 1, 10, 1, 6, 9
            ]
        );

        // No same-cluster peer at all: only the remote tier draws.
        let (_pool, addr) = stocked_server(32);
        let client = StealClient::new(NodeId(5), ClusterId(3), None);
        client.update_directory(mixed_directory(&addr, &addr));
        assert_eq!(client.peers(), 11);
        assert_eq!(
            victims(&client, 32),
            [
                2, 9, 6, 8, 4, 4, 7, 8, 3, 7, 11, 9, 6, 2, 1, 2, 12, 9, 2, 10, 9, 9, 11, 1, 8, 4,
                12, 11, 4, 4, 9, 2
            ]
        );
    }

    /// A steal server that hands out one job and reports when its thief
    /// hangs up.
    fn hangup_reporting_server() -> (String, mpsc::Receiver<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (hung_up, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut job = Some(StealJob {
                id: 0,
                payload: vec![0xB0],
            });
            loop {
                match recv_message(&mut (&stream)) {
                    Ok(Some(Message::StealRequest { .. })) => {
                        let reply = Message::StealReply { job: job.take() };
                        send_message(&mut (&stream), &reply).unwrap();
                    }
                    Ok(None) => return hung_up.send(()).unwrap(),
                    other => panic!("unexpected {other:?}"),
                }
            }
        });
        (addr, rx)
    }

    #[test]
    fn departed_and_moved_victims_lose_their_cached_connection() {
        let (_a_pool, a_addr) = stocked_server(1);
        let (b_addr, b_hung_up) = hangup_reporting_server();
        let a = PeerInfo {
            node: NodeId(1),
            cluster: ClusterId(0),
            steal_addr: a_addr,
        };
        let b = PeerInfo {
            node: NodeId(2),
            cluster: ClusterId(1),
            steal_addr: b_addr,
        };
        let client = StealClient::new(NodeId(9), ClusterId(0), None);
        client.update_directory(vec![a.clone(), b]);
        // A shares the thief's cluster and serves its one job; dry, it
        // falls through to B.
        assert_eq!(client.try_steal().unwrap().0, NodeId(1));
        assert_eq!(client.try_steal().unwrap().0, NodeId(2));
        assert_eq!(client.state().conns.len(), 2);

        client.update_directory(vec![a.clone()]);
        b_hung_up
            .recv_timeout(Duration::from_secs(5))
            .expect("B's server never saw EOF");
        assert_eq!(client.state().conns.len(), 1);

        // A comes back behind a new listener: the next steal reaches it.
        let (a2_pool, a2_addr) = stocked_server(1);
        client.update_directory(vec![PeerInfo {
            steal_addr: a2_addr,
            ..a
        }]);
        assert_eq!(client.try_steal().unwrap().0, NodeId(1));
        assert_eq!(a2_pool.snapshot().exported, 1);
    }

    /// Waits up to five seconds for the steal server to fold in the last
    /// results.
    fn wait_done(pool: &ExportPool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pool.is_done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(pool.is_done(), "results never reached the pool");
    }

    fn thief_of(node: u32, victim_addr: &str) -> StealClient {
        let client = StealClient::new(NodeId(node), ClusterId(0), None);
        client.update_directory(vec![PeerInfo {
            node: NodeId(1),
            cluster: ClusterId(0),
            steal_addr: victim_addr.to_string(),
        }]);
        client
    }

    /// Threads of this process whose name starts with `prefix`.
    fn threads_named(prefix: &str) -> usize {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with(prefix))
            .count()
    }

    #[test]
    fn one_server_thread_serves_many_thieves() {
        // Other tests start steal servers in this process too, so the
        // thread census runs in a child process that runs this test alone.
        const NAME: &str = "steal::tests::one_server_thread_serves_many_thieves";
        if !std::env::args().any(|a| a == NAME) {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args([NAME, "--exact", "--test-threads=1"])
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("1 passed"),
                "{stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            );
            return;
        }
        let (pool, addr) = stocked_server(16);
        let thieves: Vec<_> = (0..16).map(|i| thief_of(100 + i, &addr)).collect();
        let stolen: Vec<_> = std::thread::scope(|s| {
            let steals: Vec<_> = thieves
                .iter()
                .map(|c| s.spawn(|| c.try_steal().expect("a stocked victim")))
                .collect();
            steals.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every thief's connection is still open.
        assert_eq!(threads_named("steal-io"), 1);
        assert_eq!(threads_named("steal-srv"), 0);
        for (client, (victim, job)) in thieves.iter().zip(stolen) {
            assert!(client.send_result(victim, job.id, u64::from(job.payload[0])));
        }
        wait_done(&pool);
        assert_eq!(pool.sum(), (0..16).sum::<u64>());
    }

    #[test]
    fn hostile_thieves_are_dropped_and_others_keep_stealing() {
        use std::io::Write;
        let (pool, addr) = stocked_server(32);
        let dial = || {
            let s = TcpStream::connect(&addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s
        };
        // Half a header, then silence for the rest of the test.
        let mut stalled = dial();
        stalled.write_all(&[7, 0]).unwrap();
        // A frame that is no steal message, and a length past MAX_FRAME:
        // both are hung up on.
        let mut chatty = dial();
        send_message(&mut chatty, &Message::Heartbeat { node: NodeId(3) }).unwrap();
        let mut huge = dial();
        let len = crate::wire::MAX_FRAME as u32 + 1;
        huge.write_all(&len.to_le_bytes()).unwrap();
        for mut hostile in [chatty, huge] {
            assert!(matches!(recv_message(&mut hostile), Ok(None)), "no EOF");
        }

        let client = thief_of(9, &addr);
        while let Some((victim, job)) = client.try_steal() {
            assert!(client.send_result(victim, job.id, u64::from(job.payload[0])));
        }
        wait_done(&pool);
        assert_eq!(pool.sum(), (0..32).sum::<u64>());
        assert_eq!(pool.snapshot().completed, 32);
        drop(stalled);
    }

    /// The pool's semantics as first specified, with every counted id in
    /// one set and every result scanning the queue.
    #[derive(Default)]
    struct PoolModel {
        next_id: u64,
        pending: VecDeque<(u64, Vec<u8>)>,
        exported: BTreeMap<u64, Vec<u8>>,
        done: BTreeSet<u64>,
        sum: u64,
    }

    impl PoolModel {
        fn offer(&mut self, payload: Vec<u8>) -> u64 {
            self.next_id += 1;
            self.pending.push_back((self.next_id - 1, payload));
            self.next_id - 1
        }

        fn take_for_thief(&mut self) -> Option<(u64, Vec<u8>)> {
            let (id, payload) = self.pending.pop_back()?;
            self.exported.insert(id, payload.clone());
            Some((id, payload))
        }

        fn complete(&mut self, id: u64, value: u64) -> bool {
            if id >= self.next_id || !self.done.insert(id) {
                return false;
            }
            self.sum += value;
            self.exported.remove(&id);
            self.pending.retain(|(i, _)| *i != id);
            true
        }

        fn reclaim_all(&mut self) -> usize {
            let n = self.exported.len();
            self.pending.extend(std::mem::take(&mut self.exported));
            n
        }

        fn snapshot(&self) -> PoolSnapshot {
            PoolSnapshot {
                offered: self.next_id,
                completed: self.done.len() as u64,
                pending: self.pending.len() as u64,
                exported: self.exported.len() as u64,
            }
        }
    }

    /// What a thief reads from the reply frame of a handed-out job.
    fn thief_export(pool: &ExportPool) -> Option<StealJob> {
        let frame = pool.take_for_thief()?;
        let mut wire = &frame[..];
        let Ok(Some(Message::StealReply { job: Some(job) })) = recv_message(&mut wire) else {
            panic!("a handout frames a job reply");
        };
        assert!(wire.is_empty());
        Some(job)
    }

    #[test]
    fn pool_matches_the_reference_model() {
        for seed in 0..64 {
            let mut rng = Xoshiro256StarStar::seeded(seed);
            let pool = ExportPool::new();
            let mut model = PoolModel::default();
            // Ids the owner or a thief took: their results land in and out
            // of order, and again as duplicates once counted.
            let mut taken = Vec::new();
            for step in 0..2_000 {
                match rng.gen_index(20) {
                    0..=4 => {
                        let payload = vec![rng.next_u64() as u8; rng.gen_index(4)];
                        assert_eq!(pool.offer(payload.clone()), model.offer(payload));
                    }
                    5..=7 => {
                        let got = pool.take_local();
                        assert_eq!(got, model.pending.pop_front());
                        taken.extend(got.map(|(id, _)| id));
                    }
                    8..=11 => {
                        let got = thief_export(&pool).map(|j| (j.id, j.payload));
                        assert_eq!(got, model.take_for_thief());
                        taken.extend(got.map(|(id, _)| id));
                    }
                    12..=18 => {
                        let id = match rng.gen_index(2) {
                            0 if !taken.is_empty() => taken[rng.gen_index(taken.len())],
                            // Queued, reclaimed, unknown and future ids.
                            _ => rng.gen_range(model.next_id + 3),
                        };
                        let value = rng.gen_range(1_000);
                        let want = model.complete(id, value);
                        assert_eq!(pool.complete(id, value), want, "seed {seed} step {step}");
                    }
                    _ => assert_eq!(pool.reclaim_stale(Duration::ZERO), model.reclaim_all()),
                }
                assert_eq!(pool.sum(), model.sum);
                assert_eq!(pool.snapshot(), model.snapshot());
                assert_eq!(pool.is_done(), model.done.len() as u64 == model.next_id);
            }
            // Settle every id: each job counts exactly once.
            for id in 0..model.next_id {
                assert_eq!(pool.complete(id, 1), model.complete(id, 1));
            }
            assert_eq!(pool.snapshot(), model.snapshot());
            assert!(pool.is_done());
            assert_eq!(pool.sum(), model.sum);
        }
    }

    #[test]
    fn done_bookkeeping_stays_bounded() {
        let pool = ExportPool::new();
        for _ in 0..100_000 {
            let id = pool.offer(vec![1]);
            assert_eq!(thief_export(&pool).unwrap().id, id);
            assert!(pool.complete(id, 1));
            assert!(pool.state.lock().unwrap().done_above.len() <= 1);
        }
        assert!(pool.is_done());
        assert_eq!(pool.sum(), 100_000);
        assert_eq!(pool.state.lock().unwrap().done_below, 100_000);
    }
}
