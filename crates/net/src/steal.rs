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
    next_id: u64,
    offered: u64,
    pending: VecDeque<(u64, Vec<u8>)>,
    exported: BTreeMap<u64, Exported>,
    done: BTreeSet<u64>,
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
        s.offered += 1;
        s.pending.push_back((id, payload));
        id
    }

    /// Hands one pending job to a thief, marking it exported as of now.
    pub fn take_for_thief(&self) -> Option<StealJob> {
        let mut s = self.state.lock().expect("pool poisoned");
        // Thieves take from the back, the owner from the front — the same
        // ends-apart discipline as an in-process work-stealing deque.
        let (id, payload) = s.pending.pop_back()?;
        s.exported.insert(
            id,
            Exported {
                payload: payload.clone(),
                since: Instant::now(),
            },
        );
        Some(StealJob { id, payload })
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
        let mut s = self.state.lock().expect("pool poisoned");
        if id >= s.next_id || s.done.contains(&id) {
            return false;
        }
        s.done.insert(id);
        s.sum += value;
        s.exported.remove(&id);
        s.pending.retain(|(i, _)| *i != id);
        true
    }

    /// Re-pends every job exported longer than `max_age` ago without a
    /// result — the thief is presumed dead; if its result shows up later
    /// anyway, first-result-wins drops the duplicate. Returns how many
    /// jobs were reclaimed.
    pub fn reclaim_stale(&self, max_age: Duration) -> usize {
        let mut s = self.state.lock().expect("pool poisoned");
        let now = Instant::now();
        let stale: Vec<u64> = s
            .exported
            .iter()
            .filter(|(_, e)| now.duration_since(e.since) > max_age)
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
        s.done.len() as u64 == s.offered
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
            offered: s.offered,
            completed: s.done.len() as u64,
            pending: s.pending.len() as u64,
            exported: s.exported.len() as u64,
        }
    }
}

/// Serves this process's [`ExportPool`] to thieves: accepts connections on
/// `listener` and answers `StealRequest` with `StealReply`, folding
/// returned `StealResult`s into the pool. Threads are detached; they exit
/// when their peer disconnects (or the process does). `served` counts
/// exported jobs when metrics are enabled.
pub fn spawn_steal_server(
    listener: TcpListener,
    pool: Arc<ExportPool>,
    served: Option<Arc<Counter>>,
) -> io::Result<std::net::SocketAddr> {
    let addr = listener.local_addr()?;
    std::thread::Builder::new()
        .name("steal-accept".to_string())
        .spawn(move || {
            let mut n = 0u64;
            while let Ok((stream, _)) = listener.accept() {
                n += 1;
                let pool = Arc::clone(&pool);
                let served = served.clone();
                let _ = std::thread::Builder::new()
                    .name(format!("steal-srv-{n}"))
                    .spawn(move || {
                        let _ = stream.set_nodelay(true);
                        let mut r = &stream;
                        loop {
                            match recv_message(&mut r) {
                                Ok(Some(Message::StealRequest { .. })) => {
                                    let job = pool.take_for_thief();
                                    if job.is_some() {
                                        if let Some(c) = &served {
                                            c.inc();
                                        }
                                    }
                                    if send_message(&mut (&stream), &Message::StealReply { job })
                                        .is_err()
                                    {
                                        break;
                                    }
                                }
                                Ok(Some(Message::StealResult { id, value })) => {
                                    pool.complete(id, value);
                                }
                                // EOF, transport error or a non-steal
                                // message: drop the peer.
                                _ => break,
                            }
                        }
                    });
            }
        })?;
    Ok(addr)
}

/// The thief side: a CRS victim selector over the hub-fed peer directory,
/// with one cached connection per victim.
pub struct StealClient {
    me: NodeId,
    cluster: ClusterId,
    directory: Mutex<Vec<PeerInfo>>,
    conns: Mutex<HashMap<NodeId, TcpStream>>,
    rng: Mutex<Xoshiro256StarStar>,
    sm: Option<StealMetrics>,
    /// Reply wait bound per victim, so a stuck victim cannot park the
    /// worker loop indefinitely.
    read_timeout: Duration,
    /// After a fully dry round, retries are suppressed until this instant
    /// so idle workers do not hammer dry victims at park frequency.
    retry_after: Mutex<Instant>,
    backoff: Duration,
}

impl StealClient {
    /// A client stealing on behalf of node `me` in `cluster`. `sm` comes
    /// from [`StealMetrics::resolve`].
    pub fn new(me: NodeId, cluster: ClusterId, sm: Option<StealMetrics>) -> Self {
        Self {
            me,
            cluster,
            directory: Mutex::new(Vec::new()),
            conns: Mutex::new(HashMap::new()),
            rng: Mutex::new(Xoshiro256StarStar::seeded(
                0x57EA1 ^ u64::from(me.0).wrapping_mul(0x9E3779B97F4A7C15),
            )),
            sm,
            read_timeout: Duration::from_millis(500),
            retry_after: Mutex::new(Instant::now()),
            backoff: Duration::from_millis(2),
        }
    }

    /// Replaces the peer directory with a hub snapshot and lifts the dry
    /// backoff (new peers mean new chances).
    pub fn update_directory(&self, mut peers: Vec<PeerInfo>) {
        peers.retain(|p| p.node != self.me);
        *self.directory.lock().expect("directory poisoned") = peers;
        *self.retry_after.lock().expect("retry poisoned") = Instant::now();
    }

    /// Number of known peers.
    pub fn peers(&self) -> usize {
        self.directory.lock().expect("directory poisoned").len()
    }

    /// One CRS round: ask a random same-cluster victim, then a random
    /// victim in another cluster. Returns the stolen job and the victim
    /// to send the result to, or `None` when everyone is dry/unreachable
    /// (after which retries are suppressed briefly).
    pub fn try_steal(&self) -> Option<(NodeId, StealJob)> {
        if Instant::now() < *self.retry_after.lock().expect("retry poisoned") {
            return None;
        }
        let dir = self.directory.lock().expect("directory poisoned").clone();
        if dir.is_empty() {
            *self.retry_after.lock().expect("retry poisoned") = Instant::now() + self.backoff;
            return None;
        }
        for wide in [false, true] {
            let candidates: Vec<&PeerInfo> = dir
                .iter()
                .filter(|p| (p.cluster == self.cluster) != wide)
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let pick = {
                let mut rng = self.rng.lock().expect("rng poisoned");
                candidates[rng.gen_index(candidates.len())]
            };
            match self.request_from(pick) {
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
                    self.conns
                        .lock()
                        .expect("conns poisoned")
                        .remove(&pick.node);
                    if let Some(sm) = &self.sm {
                        sm.remote_failed.inc();
                    }
                }
            }
        }
        *self.retry_after.lock().expect("retry poisoned") = Instant::now() + self.backoff;
        None
    }

    /// Reports the value computed for a stolen job back to its victim.
    pub fn send_result(&self, victim: NodeId, id: u64, value: u64) -> bool {
        let mut conns = self.conns.lock().expect("conns poisoned");
        let Some(stream) = conns.get(&victim) else {
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
    fn request_from(&self, peer: &PeerInfo) -> io::Result<Option<StealJob>> {
        let mut conns = self.conns.lock().expect("conns poisoned");
        if let std::collections::hash_map::Entry::Vacant(e) = conns.entry(peer.node) {
            let s = TcpStream::connect(&peer.steal_addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(self.read_timeout))?;
            e.insert(s);
        }
        let stream = conns.get(&peer.node).expect("just inserted");
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

    #[test]
    fn pool_counts_each_job_exactly_once() {
        let pool = ExportPool::new();
        let a = pool.offer(vec![1]);
        let b = pool.offer(vec![2]);
        assert!(!pool.is_done());

        // Owner takes one end, a thief the other.
        let (local_id, _) = pool.take_local().unwrap();
        let stolen = pool.take_for_thief().unwrap();
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
        let stolen = pool.take_for_thief().unwrap();
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
}
