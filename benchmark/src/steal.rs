//! Steal stage: the program's `spawn_steal_server` serving an
//! `ExportPool`, and its `StealClient` stealing from it, one job at a
//! time from this thread.

use crate::trace::Tracer;
use crate::workload::StealParams;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
use sagrid_net::steal::spawn_steal_server;
use sagrid_net::wire::{Message, PeerInfo, StealJob};
use sagrid_net::{ExportPool, StealClient};
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs offered to the pool at a time.
const STOCK_BATCH: usize = 256;

/// One window's measurement.
#[derive(Clone, Debug, Default)]
pub struct StealWindow {
    pub steals: u64,
    pub failed: u64,
    pub rtt_us: Vec<f64>,
    pub wall_ns: u64,
    pub stock_ns: u64,
}

pub struct StealStage {
    p: StealParams,
    pool: Arc<ExportPool>,
    client: StealClient,
    pub addr: String,
    rng: Xoshiro256StarStar,
    payload: Vec<u8>,
    /// Sum of the values of every job offered: what `ExportPool::sum`
    /// must come to.
    pub expected_sum: u64,
    pub offered: u64,
}

impl StealStage {
    /// Binds a listener and starts the program's steal server on it.
    pub fn setup(p: &StealParams, seed: u64) -> io::Result<StealStage> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let pool = Arc::new(ExportPool::new());
        let addr = spawn_steal_server(listener, Arc::clone(&pool), None)?.to_string();
        let mut rng = Xoshiro256StarStar::seeded(seed ^ 0x57EA1);
        let payload = (0..p.payload_bytes).map(|_| rng.next_u64() as u8).collect();
        Ok(StealStage {
            p: p.clone(),
            pool,
            // An id no member can hold, so the client filters nothing out.
            client: StealClient::new(NodeId(u32::MAX - 1), ClusterId(0), None),
            addr,
            rng,
            payload,
            expected_sum: 0,
            offered: 0,
        })
    }

    /// Points the thief at `peers` (every address is this stage's one
    /// listener; the node ids are what make them distinct victims).
    pub fn update_directory(&mut self, peers: Vec<PeerInfo>) {
        self.client.update_directory(peers);
    }

    /// A directory of `n` victims for workloads whose members do not
    /// announce through the hub.
    pub fn local_directory(&self, n: usize, clusters: usize) -> Vec<PeerInfo> {
        (0..n)
            .map(|i| PeerInfo {
                node: NodeId(i as u32),
                cluster: ClusterId((i % clusters) as u16),
                steal_addr: self.addr.clone(),
            })
            .collect()
    }

    /// Frame bytes one successful steal puts on the wire, both ways.
    pub fn wire_bytes_per_steal(&self) -> u64 {
        let len = |m: Message| m.encode().len() as u64 + 4;
        len(Message::StealRequest { thief: NodeId(0) })
            + len(Message::StealReply {
                job: Some(StealJob {
                    id: 0,
                    payload: self.payload.clone(),
                }),
            })
            + len(Message::StealResult { id: 0, value: 0 })
    }

    /// One window: `steals` jobs, stocked into the pool a batch at a time
    /// (so a 64 KiB workload never holds a window's worth of payloads),
    /// each stolen and its result sent back. The job's value is read from
    /// its payload, so a wrong or truncated payload shows in the pool's
    /// sum.
    pub fn window(&mut self, steals: Option<usize>, tr: &mut Tracer) -> StealWindow {
        let n = steals.unwrap_or(self.p.steals_per_window);
        let mut win = StealWindow::default();
        win.rtt_us.reserve(n);
        let mut left = n;
        while left > 0 {
            let batch = left.min(STOCK_BATCH);
            left -= batch;
            let s = tr.enter("net.steal.stock");
            let t = Instant::now();
            for _ in 0..batch {
                let value = self.rng.next_u64() >> 40;
                self.payload[..8].copy_from_slice(&value.to_le_bytes());
                self.pool.offer(self.payload.clone());
                self.expected_sum += value;
                self.offered += 1;
            }
            win.stock_ns += t.elapsed().as_nanos() as u64;
            tr.exit(s);

            let start = Instant::now();
            for _ in 0..batch {
                win.steals += 1;
                let t = Instant::now();
                let s = tr.enter("net.steal.try_steal");
                let stolen = self.client.try_steal();
                tr.exit(s);
                let Some((victim, job)) = stolen else {
                    win.failed += 1;
                    continue;
                };
                let value = job
                    .payload
                    .get(..8)
                    .map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
                let s = tr.enter("net.steal.send_result");
                let sent = self.client.send_result(victim, job.id, value);
                tr.exit(s);
                if !sent || job.payload.len() != self.payload.len() {
                    win.failed += 1;
                    continue;
                }
                win.rtt_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            win.wall_ns += start.elapsed().as_nanos() as u64;
        }
        win
    }

    /// Waits for the server threads to fold in the last results, then
    /// checks that every offered job was counted exactly once.
    pub fn verify(&self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !self.pool.is_done() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        self.pool.is_done()
            && self.pool.sum() == self.expected_sum
            && self.pool.snapshot().offered == self.offered
    }
}
