//! Control-plane stage: the real `Hub::run` on its one reactor thread,
//! driven lock-step by this one generator thread, which plays every
//! worker, the launcher, the standbys and `coordinatord` (with the
//! unchanged `adapt::Coordinator`).
//!
//! All sockets are blocking. Nothing is written that does not cause a
//! frame the generator then reads, so the hub sees the same read/write
//! pattern every cycle:
//!
//! * a window of members writes `heartbeats` heartbeats + 1 `StatsReport`
//!   each (at most [`IN_FLIGHT`] frames), then the coordinator socket
//!   reads exactly that many forwarded reports;
//! * the coordinator evaluates; an `Add` goes out as `Grow` and the
//!   launcher socket reads the relayed `SpawnWorker` frames, whose
//!   workers then claim-join and leave;
//! * a churn operation is `Leaving` + half-close, read to EOF (the hub
//!   has processed the leave), then connect + `Join` + read the ack;
//! * a barrier relays one `Perturb` per cluster through the hub to every
//!   member — how a scenario file's disturbance reaches real workers —
//!   and each member socket reads up to its `Perturb`, which drains every
//!   directory broadcast queued before it; the witness member then sends
//!   a report with a `bench_micros` of its own, and each standby socket
//!   reads its log up to the `Bandwidth` delta that report appends.

use crate::procfs;
use crate::trace::Tracer;
use crate::workload::CtlParams;
use sagrid_adapt::{AdaptPolicy, Coordinator, Decision, SpeedTracker};
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::metrics::{Metrics, MetricsReport};
use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
use sagrid_core::stats::{MonitoringReport, OverheadBreakdown};
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_net::replog::ControlState;
use sagrid_net::wire::Message;
use sagrid_net::{Hub, HubConfig, Reactor, ReplicaOp};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most frames written before their consequences are read.
const IN_FLIGHT: usize = 32;
/// A blocked read past this is a protocol desync, not a slow hub.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// The coordinator's monitoring period on the scripted clock.
const PERIOD_SECS: u64 = 180;
/// Where the operation starts in a `StateDelta` payload: after the tag,
/// the epoch and the log offset.
const DELTA_OP_AT: usize = 1 + 8 + 8;

/// One length-prefixed frame, by the program's own encoder.
fn framed(msg: &Message) -> Arc<[u8]> {
    Reactor::encode_frame(msg)
}

fn proto(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Reads one frame's payload into `buf`. `Ok(false)` on a clean EOF.
fn read_frame(mut s: &TcpStream, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut header = [0u8; 4];
    match s.read(&mut header)? {
        0 => return Ok(false),
        4 => {}
        n => s.read_exact(&mut header[n..])?,
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 || len > sagrid_net::wire::MAX_FRAME {
        return Err(proto("bad frame length"));
    }
    buf.resize(len, 0);
    s.read_exact(buf)?;
    Ok(true)
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(s)
}

/// First payload byte of each frame class the generator tells apart.
struct Tags {
    perturb: u8,
    directory: u8,
    delta: u8,
}

impl Tags {
    fn new() -> Tags {
        let tag = |m: Message| m.encode()[0];
        Tags {
            perturb: tag(Message::Perturb {
                cluster: ClusterId(0),
                count: 0,
                speed: None,
                inter_frac: None,
            }),
            directory: tag(Message::PeerDirectory { peers: Vec::new() }),
            delta: tag(Message::StateDelta {
                epoch: 0,
                log_offset: 0,
                op: ReplicaOp::Leave { node: NodeId(0) },
            }),
        }
    }
}

struct Member {
    stream: TcpStream,
    node: NodeId,
    cluster: ClusterId,
    /// `heartbeats` heartbeat frames + one report frame, ready to write:
    /// `[0]` a quiet period (efficiency between the thresholds), `[1]` a
    /// busy one (above `e_max`, so the coordinator grows).
    burst: [Vec<u8>; 2],
}

struct Standby {
    stream: TcpStream,
    replica: u32,
    last_offset: u64,
}

/// Per-window measurement of the stage.
#[derive(Clone, Debug, Default)]
pub struct CtlWindow {
    pub ops: u64,
    pub failed: u64,
    pub wall_ns: u64,
    pub react_us: Vec<f64>,
    pub fwd_lag_us: Vec<f64>,
    pub relay_lag_us: Vec<f64>,
    pub ack_lag_us: Vec<f64>,
    /// Leave + fresh-join(+announce) operations.
    pub changes: u64,
    /// Bytes the hub wrote to members and standbys because of them.
    pub change_bytes: u64,
    pub dir_frames: u64,
    pub deltas: u64,
    pub hub_cpu_ns: u64,
    pub hub_switches: u64,
    pub gen_cpu_ns: u64,
}

/// What the whole stage counted, for the correctness checks.
#[derive(Clone, Debug, Default)]
pub struct CtlTotals {
    pub reports_sent: u64,
    pub reports_forwarded: u64,
    pub joins: u64,
    pub joins_accepted: u64,
    /// Hash of the decision a quiet (`[0]`) and a busy (`[1]`) cycle
    /// came to; every later cycle of the same kind must repeat it.
    pub phase_hash: [Option<u64>; 2],
}

impl CtlTotals {
    /// The decision sequence is quiet, busy, quiet, … — so its hash is
    /// the hash of one period, whatever the run length.
    pub fn decision_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for phase in self.phase_hash {
            fnv1a(&mut h, &phase.unwrap_or(0).to_le_bytes());
        }
        h
    }
}

pub struct CtlStage {
    p: CtlParams,
    hub_addr: String,
    hub_thread: Option<JoinHandle<Metrics>>,
    hub_tid: u64,
    gen_tid: u64,
    coord: TcpStream,
    launcher: TcpStream,
    standbys: Vec<Standby>,
    /// Standby 0 applies every delta, as a real tailer does.
    replica_state: ControlState,
    members: Vec<Member>,
    coordinator: Coordinator,
    speeds: SpeedTracker,
    rng: Xoshiro256StarStar,
    tags: Tags,
    buf: Vec<u8>,
    fwd_buf: Vec<u8>,
    report_frame_len: usize,
    perturbs: Vec<Arc<[u8]>>,
    steal_addr: String,
    cycle: u64,
    /// Payload of the newest directory broadcast the witness saw.
    pub latest_directory: Vec<u8>,
    /// `bench_micros` of the next sentinel report (see [`CtlStage::barrier`]).
    sentinel: u64,
    pub totals: CtlTotals,
    /// Wall time of the member joins during set-up.
    pub join_ms_per_member: f64,
    win: CtlWindow,
}

fn report_for(node: NodeId, cluster: ClusterId, busy_frac: f64) -> MonitoringReport {
    let period = SimDuration::from_secs(PERIOD_SECS);
    let busy = period.mul_f64(busy_frac);
    let inter = period.mul_f64(0.01);
    let intra = period.mul_f64(0.04);
    MonitoringReport {
        node,
        cluster,
        period_end: SimTime::from_secs(PERIOD_SECS),
        breakdown: OverheadBreakdown {
            busy,
            idle: period
                .saturating_sub(busy)
                .saturating_sub(inter)
                .saturating_sub(intra),
            intra_comm: intra,
            inter_comm: inter,
            benchmark: SimDuration::ZERO,
        },
        speed: 1.0,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl CtlStage {
    /// Binds the hub, starts its thread, and connects the coordinator,
    /// the launcher, the standbys and every member.
    pub fn setup(
        p: &CtlParams,
        seed: u64,
        steal_addr: &str,
        metrics: Metrics,
        tr: &mut Tracer,
    ) -> io::Result<CtlStage> {
        let cfg = HubConfig {
            clusters: p.hub_clusters,
            nodes_per_cluster: p.hub_nodes_per_cluster,
            // The wall-clock failure detector must never fire mid-run.
            heartbeat_timeout: Duration::from_secs(3600),
            ..HubConfig::default()
        };
        let hub = Hub::bind("127.0.0.1:0", cfg, metrics)?;
        let hub_addr = format!("127.0.0.1:{}", hub.port());
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let hub_thread = std::thread::Builder::new()
            .name("hub".to_string())
            .spawn(move || {
                let _ = tid_tx.send(procfs::current_tid());
                hub.run()
            })?;
        let hub_tid = tid_rx.recv().map_err(|_| proto("hub thread died"))?;

        let mut buf = Vec::with_capacity(64 * 1024);
        let mut coord = connect(&hub_addr)?;
        coord.write_all(&framed(&Message::CoordinatorHello))?;
        if !read_frame(&coord, &mut buf)? {
            return Err(proto("hub closed the coordinator connection"));
        }
        let mut launcher = connect(&hub_addr)?;
        launcher.write_all(&framed(&Message::LauncherHello))?;

        let report_frame_len = framed(&Message::StatsReport {
            report: report_for(NodeId(0), ClusterId(0), 0.4),
            bench_micros: 0,
        })
        .len();
        let perturbs = (0..p.member_clusters)
            .map(|c| {
                framed(&Message::Perturb {
                    cluster: ClusterId(c as u16),
                    count: 0,
                    speed: Some(1.0),
                    inter_frac: None,
                })
            })
            .collect();
        let mut stage = CtlStage {
            p: p.clone(),
            hub_addr,
            hub_thread: Some(hub_thread),
            hub_tid,
            gen_tid: procfs::current_tid(),
            coord,
            launcher,
            standbys: Vec::new(),
            replica_state: ControlState::default(),
            members: Vec::with_capacity(p.members),
            coordinator: Coordinator::new(AdaptPolicy {
                max_growth_per_period: p.growth_cap,
                ..AdaptPolicy::default()
            }),
            speeds: SpeedTracker::new(),
            rng: Xoshiro256StarStar::seeded(seed ^ 0xC71),
            tags: Tags::new(),
            buf,
            fwd_buf: Vec::new(),
            report_frame_len,
            perturbs,
            steal_addr: steal_addr.to_string(),
            cycle: 0,
            latest_directory: Vec::new(),
            sentinel: 1 << 40,
            totals: CtlTotals::default(),
            join_ms_per_member: 0.0,
            win: CtlWindow::default(),
        };

        let s = tr.enter("ctl.exchange.join");
        let t = Instant::now();
        for i in 0..p.members {
            let cluster = ClusterId((i % p.member_clusters) as u16);
            let m = stage.join_member(cluster, None)?;
            stage.members.push(m);
        }
        stage.join_ms_per_member = t.elapsed().as_secs_f64() * 1e3 / p.members as f64;
        tr.exit(s);

        let s = tr.enter("ctl.exchange.replica_attach");
        for i in 0..p.standbys {
            stage.attach_standby(i as u32 + 1)?;
        }
        tr.exit(s);
        Ok(stage)
    }

    fn attach_standby(&mut self, replica: u32) -> io::Result<()> {
        let mut stream = connect(&self.hub_addr)?;
        stream.write_all(&framed(&Message::ReplicaHello {
            replica,
            addr: format!("127.0.0.1:{}", 40_000 + replica),
            log_offset: 0,
        }))?;
        if !read_frame(&stream, &mut self.buf)? {
            return Err(proto("hub closed a standby connection"));
        }
        let Ok(Message::StateSnapshot {
            log_offset, state, ..
        }) = Message::decode(&self.buf)
        else {
            return Err(proto("expected StateSnapshot"));
        };
        if self.standbys.is_empty() {
            self.replica_state = ControlState::from_snapshot(&state);
        }
        self.standbys.push(Standby {
            stream,
            replica,
            last_offset: log_offset,
        });
        Ok(())
    }

    fn burst_for(&mut self, node: NodeId, cluster: ClusterId) -> [Vec<u8>; 2] {
        // The seed moves every node's numbers a little, never across a
        // threshold: the decision sequence is the same for every seed.
        let jitter = (self.rng.gen_f64() - 0.5) * 0.02;
        let mut out = [Vec::new(), Vec::new()];
        for (slot, busy) in out.iter_mut().zip([0.40, 0.80]) {
            for _ in 0..self.p.heartbeats {
                slot.extend_from_slice(&framed(&Message::Heartbeat { node }));
            }
            slot.extend_from_slice(&framed(&Message::StatsReport {
                report: report_for(node, cluster, busy + jitter),
                bench_micros: 0,
            }));
        }
        out
    }

    /// Connects, joins (fresh, or claiming `claim`), reads the ack and the
    /// epoch stamp, and announces a steal address when the workload has
    /// them. A directory the hub sends the newcomer stays queued for the
    /// next barrier.
    fn join_member(&mut self, cluster: ClusterId, claim: Option<NodeId>) -> io::Result<Member> {
        let mut stream = connect(&self.hub_addr)?;
        stream.write_all(&framed(&Message::Join { cluster, claim }))?;
        self.totals.joins += 1;
        if !read_frame(&stream, &mut self.buf)? {
            return Err(proto("hub closed a joining connection"));
        }
        self.win.change_bytes += self.buf.len() as u64 + 4;
        let node = match Message::decode(&self.buf) {
            Ok(Message::JoinAck {
                node,
                accepted: true,
                ..
            }) => node,
            _ => return Err(proto("join refused")),
        };
        self.totals.joins_accepted += 1;
        if !read_frame(&stream, &mut self.buf)? {
            return Err(proto("hub closed a joined connection"));
        }
        self.win.change_bytes += self.buf.len() as u64 + 4;
        if self.p.announce && claim.is_none() {
            stream.write_all(&framed(&Message::PeerAnnounce {
                node,
                steal_addr: self.steal_addr.clone(),
            }))?;
        }
        let burst = if claim.is_none() {
            self.burst_for(node, cluster)
        } else {
            [Vec::new(), Vec::new()]
        };
        Ok(Member {
            stream,
            node,
            cluster,
            burst,
        })
    }

    /// `Leaving`, half-close, read to EOF: when the hub has closed its
    /// side it has processed the leave, so the next join finds the node
    /// free, and no unread byte turns the close into a reset.
    fn leave(&mut self, m: Member) -> io::Result<()> {
        let mut stream = m.stream;
        stream.write_all(&framed(&Message::Leaving { node: m.node }))?;
        stream.shutdown(Shutdown::Write)?;
        if !self.standbys.is_empty() {
            let t = Instant::now();
            self.read_deltas_until(0, &ReplicaOp::Leave { node: m.node })?;
            self.win
                .ack_lag_us
                .push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        while read_frame(&stream, &mut self.buf)? {
            self.win.change_bytes += self.buf.len() as u64 + 4;
            if self.buf[0] == self.tags.directory {
                self.win.dir_frames += 1;
            }
        }
        Ok(())
    }

    /// Reads `StateDelta` frames from standby `i` up to and including
    /// the one carrying `op`, skipping the epoch keepalives the hub's
    /// detection tick interleaves. The log is one sequence, so every
    /// delta appended before `op` has been read when this returns.
    fn read_deltas_until(&mut self, i: usize, op: &ReplicaOp) -> io::Result<()> {
        let want = Message::StateDelta {
            epoch: 0,
            log_offset: 0,
            op: op.clone(),
        }
        .encode();
        let want = &want[DELTA_OP_AT..];
        let deadline = Instant::now() + READ_TIMEOUT;
        loop {
            if !read_frame(&self.standbys[i].stream, &mut self.buf)? {
                return Err(proto("hub closed a standby connection"));
            }
            if self.buf[0] != self.tags.delta {
                if Instant::now() > deadline {
                    return Err(proto("a replicated operation never reached the standby"));
                }
                continue;
            }
            self.win.deltas += 1;
            self.win.change_bytes += self.buf.len() as u64 + 4;
            self.standbys[i].last_offset += 1;
            if i == 0 {
                match Message::decode(&self.buf) {
                    Ok(Message::StateDelta { log_offset, op, .. }) => {
                        self.replica_state.apply(&op);
                        self.standbys[0].last_offset = log_offset;
                    }
                    _ => return Err(proto("undecodable StateDelta")),
                }
            }
            if self.buf.get(DELTA_OP_AT..) == Some(want) {
                return Ok(());
            }
        }
    }

    /// One `Perturb` per member cluster through the hub; every member
    /// socket reads up to its copy. Then, with standbys attached, the
    /// witness reports a `bench_micros` no other report carries: the hub
    /// forwards it and appends one `Bandwidth` delta, and each standby
    /// reads its log up to that delta and acknowledges.
    fn barrier(&mut self, tr: &mut Tracer) -> io::Result<()> {
        let s = tr.enter("ctl.exchange.perturb");
        for f in &self.perturbs {
            self.launcher.write_all(f)?;
        }
        self.win.ops += self.perturbs.len() as u64;
        for (i, m) in self.members.iter().enumerate() {
            loop {
                if !read_frame(&m.stream, &mut self.buf)? {
                    return Err(proto("hub closed a member connection"));
                }
                if self.buf[0] == self.tags.perturb {
                    break;
                }
                self.win.change_bytes += self.buf.len() as u64 + 4;
                if self.buf[0] == self.tags.directory {
                    self.win.dir_frames += 1;
                    if i == 0 {
                        self.latest_directory.clear();
                        self.latest_directory.extend_from_slice(&self.buf);
                    }
                }
            }
        }
        self.win.ops += self.members.len() as u64;
        tr.exit(s);

        if !self.standbys.is_empty() {
            let s = tr.enter("ctl.exchange.replica_deltas");
            self.sentinel += 1;
            let witness = &self.members[0];
            let report = framed(&Message::StatsReport {
                report: report_for(witness.node, witness.cluster, 0.4),
                bench_micros: self.sentinel,
            });
            (&witness.stream).write_all(&report)?;
            let op = ReplicaOp::Bandwidth {
                node: witness.node,
                bench_micros: self.sentinel,
            };
            self.fwd_buf.resize(self.report_frame_len, 0);
            (&self.coord).read_exact(&mut self.fwd_buf)?;
            self.win.ops += 1;
            for i in 0..self.standbys.len() {
                self.read_deltas_until(i, &op)?;
                let sb = &mut self.standbys[i];
                sb.stream.write_all(&framed(&Message::ReplicaAck {
                    replica: sb.replica,
                    log_offset: sb.last_offset,
                }))?;
            }
            tr.exit(s);
        }
        Ok(())
    }

    /// Heartbeats + one report per member, in windows of at most
    /// [`IN_FLIGHT`] frames; returns when the last report was written.
    fn report_exchange(&mut self, busy: bool, tr: &mut Tracer) -> io::Result<Instant> {
        let per_member = self.p.heartbeats + 1;
        let width = (IN_FLIGHT / per_member).max(1);
        let n = self.members.len();
        let flen = self.report_frame_len;
        let mut last_write = Instant::now();
        let mut start = 0;
        while start < n {
            let end = (start + width).min(n);
            let s = tr.enter("ctl.exchange.heartbeat_stats");
            for m in &mut self.members[start..end] {
                let frame = &mut m.burst[usize::from(busy)];
                if self.p.changing_bench {
                    let at = frame.len() - 8;
                    frame[at..].copy_from_slice(&(1_000 + self.cycle % 64).to_le_bytes());
                }
                last_write = Instant::now();
                m.stream.write_all(frame)?;
            }
            let count = end - start;
            self.totals.reports_sent += count as u64;
            self.fwd_buf.resize(count * flen, 0);
            (&self.coord).read_exact(&mut self.fwd_buf)?;
            self.win
                .fwd_lag_us
                .push(last_write.elapsed().as_nanos() as f64 / 1e3);
            tr.exit(s);

            let s = tr.enter("net.wire.decode");
            let mut reports = Vec::with_capacity(count);
            for frame in self.fwd_buf.chunks_exact(flen) {
                match Message::decode(&frame[4..]) {
                    Ok(Message::StatsReport {
                        report,
                        bench_micros,
                    }) => reports.push((report, bench_micros)),
                    _ => return Err(proto("expected a forwarded StatsReport")),
                }
            }
            tr.exit(s);
            self.totals.reports_forwarded += reports.len() as u64;

            // What `sagrid-coordinatord` does with a report.
            let s = tr.enter("adapt.record_report");
            for (mut report, bench_micros) in reports {
                self.speeds
                    .record(report.node, SimDuration::from_micros(bench_micros.max(1)));
                report.speed = self.speeds.relative_speed(report.node).unwrap_or(1.0);
                self.coordinator.record_report(report);
            }
            tr.exit(s);
            self.win.ops += (count * per_member) as u64;
            start = end;
        }
        Ok(last_write)
    }

    /// One monitoring period: reports, evaluation, the relayed decision,
    /// churn, barrier.
    fn cycle(&mut self, tr: &mut Tracer) -> io::Result<()> {
        let busy = self.cycle % 2 == 1;
        let last_report = self.report_exchange(busy, tr)?;

        let s = tr.enter("adapt.evaluate");
        let now = SimTime::from_secs(PERIOD_SECS * (self.cycle + 1));
        let decision = self.coordinator.evaluate(now, None);
        tr.exit(s);
        let mut hash = FNV_OFFSET;
        fnv1a(&mut hash, decision.kind().as_bytes());
        if let Decision::Add { count, .. } = &decision {
            fnv1a(&mut hash, &(*count as u32).to_le_bytes());
        }
        let seen = &mut self.totals.phase_hash[usize::from(busy)];
        if *seen.get_or_insert(hash) != hash {
            self.win.failed += 1;
        }
        match decision {
            Decision::Add {
                count,
                requirements,
                prefer,
            } if busy => {
                let s = tr.enter("ctl.exchange.grow_spawn");
                let sent = Instant::now();
                self.launcher_grow(count, &requirements, &prefer)?;
                let mut grants = Vec::with_capacity(count);
                for i in 0..count {
                    if !read_frame(&self.launcher, &mut self.buf)? {
                        return Err(proto("hub closed the launcher connection"));
                    }
                    if i == 0 {
                        self.win
                            .react_us
                            .push(last_report.elapsed().as_nanos() as f64 / 1e3);
                        self.win
                            .relay_lag_us
                            .push(sent.elapsed().as_nanos() as f64 / 1e3);
                    }
                    match Message::decode(&self.buf) {
                        Ok(Message::SpawnWorker { node, cluster }) => grants.push((node, cluster)),
                        _ => return Err(proto("expected SpawnWorker")),
                    }
                }
                tr.exit(s);
                self.win.ops += 1 + count as u64;
                // The launcher's part: start the granted workers. Here
                // they join, are acknowledged, and leave again, so the
                // pool and the membership end the cycle where they began.
                let s = tr.enter("ctl.exchange.claim_join_leave");
                for (node, cluster) in grants {
                    let m = self.join_member(cluster, Some(node))?;
                    self.leave(m)?;
                    self.win.ops += 2;
                }
                tr.exit(s);
            }
            Decision::None if !busy => {}
            _ => self.win.failed += 1,
        }

        let s = tr.enter("ctl.exchange.leave_join");
        let churn = if self.cycle.is_multiple_of(self.p.churn_every as u64) {
            self.p.churn
        } else {
            0
        };
        for k in 0..churn {
            // Member 0 is the witness every broadcast is counted at.
            let i = 1 + self.rng.gen_index(self.members.len() - 1);
            let leaver = self.members.swap_remove(i);
            let cluster = leaver.cluster;
            self.leave(leaver)?;
            let fresh = self.join_member(cluster, None)?;
            self.members.push(fresh);
            self.win.changes += 1;
            self.win.ops += if self.p.announce { 3 } else { 2 };
            if (k + 1) % self.p.drain_every == 0 && k + 1 < churn {
                self.barrier(tr)?;
            }
        }
        tr.exit(s);
        self.barrier(tr)?;
        self.cycle += 1;
        Ok(())
    }

    fn launcher_grow(
        &mut self,
        count: usize,
        requirements: &sagrid_adapt::coordinator::LearnedRequirements,
        prefer: &[ClusterId],
    ) -> io::Result<()> {
        (&self.coord).write_all(&framed(&Message::Grow {
            count: count as u32,
            prefer: prefer.to_vec(),
            min_uplink_bps: requirements.min_uplink_bps,
            min_speed: requirements.min_speed,
        }))
    }

    /// One window: `cycles_per_window` cycles (or `cycles` when given, for
    /// the warm-up), with the hub thread's and this thread's CPU clocks
    /// read around them.
    pub fn window(&mut self, cycles: Option<usize>, tr: &mut Tracer) -> io::Result<CtlWindow> {
        self.win = CtlWindow::default();
        let hub_cpu = procfs::thread_cpu_ns(self.hub_tid);
        let hub_sw = procfs::thread_voluntary_switches(self.hub_tid);
        let gen_cpu = procfs::thread_cpu_ns(self.gen_tid);
        let t = Instant::now();
        for _ in 0..cycles.unwrap_or(self.p.cycles_per_window) {
            self.cycle(tr)?;
        }
        self.win.wall_ns = t.elapsed().as_nanos() as u64;
        self.win.hub_cpu_ns = procfs::thread_cpu_ns(self.hub_tid).saturating_sub(hub_cpu);
        self.win.hub_switches =
            procfs::thread_voluntary_switches(self.hub_tid).saturating_sub(hub_sw);
        self.win.gen_cpu_ns = procfs::thread_cpu_ns(self.gen_tid).saturating_sub(gen_cpu);
        Ok(std::mem::take(&mut self.win))
    }

    /// Members the first standby's replicated state holds as alive, and
    /// peers in its directory — what a takeover would start from.
    pub fn replica_view(&self) -> Option<(usize, usize)> {
        if self.standbys.is_empty() {
            return None;
        }
        let alive = self
            .replica_state
            .members
            .values()
            .filter(|(_, phase)| *phase == sagrid_net::MemberPhase::Alive)
            .count();
        Some((alive, self.replica_state.peers.len()))
    }

    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// `Shutdown` from the launcher, then joins the hub thread: nothing
    /// of the hub runs (or prints) after this returns.
    pub fn shutdown(mut self) -> io::Result<MetricsReport> {
        self.launcher.write_all(&framed(&Message::Shutdown))?;
        let metrics = self
            .hub_thread
            .take()
            .expect("hub thread present until shutdown")
            .join()
            .map_err(|_| proto("hub thread panicked"))?;
        Ok(metrics.report())
    }
}
