//! A process-mode worker: one threaded [`sagrid_runtime`] runtime that
//! joins the hub, heartbeats, runs a divide-and-conquer workload at a
//! configurable duty cycle, and reports its statistics record every
//! monitoring period.
//!
//! With `--steal on` the worker also participates in the wire-level work
//! stealing plane: it binds a steal listener, announces the address to the
//! hub (which broadcasts the peer directory to everyone), and installs a
//! remote-steal hook so idle runtime workers steal serialized jobs from
//! peer processes by CRS — a random same-cluster victim first, then a
//! random victim in another cluster. A worker given `--root-arg` is the
//! root of a distributed computation: it expands the root job into a
//! frontier of independent subjobs, exports them through its steal server
//! while executing its own share, and prints `ROOT_RESULT=<v>` /
//! `ROOT_DONE` once every subjob's value has come home.
//!
//! Exit codes: 0 normal (asked to leave / hub shut down), 2 usage error,
//! 3 join refused (e.g. blacklisted after a crash — the launcher asserts
//! this), 4 could not reach the hub.

use sagrid_apps::{frontier, RemoteJob};
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::metrics::Metrics;
use sagrid_core::stats::{MonitoringReport, OverheadBreakdown};
use sagrid_net::conn::{Connection, NetEvent};
use sagrid_net::steal::{spawn_steal_server, ExportPool, NetStealHook, StealClient, StealMetrics};
use sagrid_net::wire::Message;
use sagrid_net::{Args, Backoff, HubSet};
use sagrid_runtime::{Runtime, RuntimeConfig};
use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an exported job may sit with a thief before the root assumes
/// the thief died and re-pends it.
const RECLAIM_AFTER: Duration = Duration::from_secs(5);

/// Dials through the hub list, joins (fresh or claiming a specific node
/// id) and waits for the verdict. Returns the connection and the granted
/// node id.
///
/// A refusal whose reason starts with `"standby"` is *transient* — the
/// address answered but is not (yet) the primary — so the worker rotates
/// to the next hub and retries instead of exiting. A connection that
/// drops before its verdict, or whose setup fails (a dial that a dying
/// listener accepted and then reset fails `peer_addr` with `ENOTCONN`),
/// is retried the same way. Every other refusal (e.g. blacklisted after a
/// crash) is fatal: exit 3.
fn join(
    hubs: &mut HubSet,
    cluster: ClusterId,
    claim: Option<NodeId>,
    backoff: &mut Backoff,
    events: &Sender<NetEvent>,
    inbox: &Receiver<NetEvent>,
    next_conn: &mut u64,
) -> Result<(Connection, NodeId), String> {
    let mut soft_refusals = 0u32;
    loop {
        let stream = hubs.dial(backoff)?;
        *next_conn += 1;
        match Connection::spawn(*next_conn, stream, events.clone()) {
            Ok(conn) => match verdict(&conn, cluster, claim, inbox)? {
                Some((node, true, _)) => {
                    backoff.reset();
                    return Ok((conn, node));
                }
                Some((_, false, reason)) if reason.starts_with("standby") => {
                    println!("JOIN_DEFERRED {reason}");
                }
                Some((_, false, reason)) => {
                    println!("JOIN_REFUSED {reason}");
                    std::io::stdout().flush().ok();
                    std::process::exit(3);
                }
                None => {}
            },
            Err(e) => println!("JOIN_SETUP_FAILED {e}"),
        }
        soft_refusals += 1;
        if soft_refusals > HubSet::DIAL_ATTEMPTS_PER_HUB * hubs.len() as u32 {
            return Err("no hub accepted the join (all standby or closing)".to_string());
        }
        hubs.advance();
        std::thread::sleep(backoff.next_delay());
    }
}

/// Sends the join on `conn` and waits for its `(node, accepted, reason)`
/// verdict; `None` when the connection dropped before one arrived (a hub
/// torn down mid-dial).
fn verdict(
    conn: &Connection,
    cluster: ClusterId,
    claim: Option<NodeId>,
    inbox: &Receiver<NetEvent>,
) -> Result<Option<(NodeId, bool, String)>, String> {
    conn.send(Message::Join { cluster, claim });
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match inbox.recv_timeout(left) {
            Ok(NetEvent::Message(
                id,
                Message::JoinAck {
                    node,
                    accepted,
                    reason,
                },
            )) if id == conn.id() => return Ok(Some((node, accepted, reason))),
            Ok(NetEvent::Closed(id)) if id == conn.id() => return Ok(None),
            // Stale events from a previous connection: ignore.
            Ok(_) => continue,
            Err(_) => return Err("timed out waiting for join ack".to_string()),
        }
    }
}

/// Reconnects (claiming `node`) through the hub list after a transport
/// drop or a stale-primary disconnect, re-announcing the steal listener
/// once in. `None` means no hub answered — the session is over.
#[allow(clippy::too_many_arguments)]
fn failover(
    hubs: &mut HubSet,
    cluster: ClusterId,
    node: NodeId,
    seed: u64,
    events: &Sender<NetEvent>,
    inbox: &Receiver<NetEvent>,
    next_conn: &mut u64,
    steal_plane: Option<&StealPlane>,
) -> Option<Connection> {
    let mut rb = Backoff::new(
        Duration::from_millis(50),
        Duration::from_millis(250),
        seed ^ 0xdead,
    );
    match join(hubs, cluster, Some(node), &mut rb, events, inbox, next_conn) {
        Ok((conn, n)) => {
            assert_eq!(n, node, "hub re-assigned a claimed id");
            println!("REJOINED node={}", node.0);
            if let Some(plane) = steal_plane {
                // The hub pruned us from the directory if it declared us
                // dead; re-announcing is idempotent.
                conn.send(Message::PeerAnnounce {
                    node,
                    steal_addr: plane.addr.clone(),
                });
            }
            Some(conn)
        }
        Err(_) => None,
    }
}

/// Everything the steal plane hangs onto for the lifetime of the process.
struct StealPlane {
    pool: Arc<ExportPool>,
    client: Arc<StealClient>,
    /// The announced listener address, re-announced after a rejoin.
    addr: String,
}

fn run() -> Result<(), String> {
    let args = Args::parse(
        std::env::args().skip(1),
        &[
            "hub",
            "cluster",
            "claim-node",
            "speed",
            "heartbeat-ms",
            "period-ms",
            "duty",
            "steal",
            "workload",
            "root-arg",
            "root-depth",
            "out",
        ],
    )?;
    // `--hub` takes a comma-separated address list: the primary first,
    // then any standby hubs to fail over to when the primary dies.
    let mut hubs = HubSet::parse(&args.require::<String>("hub")?)?;
    let cluster = ClusterId(args.get_or("cluster", 0u16)?);
    let claim = args
        .get("claim-node")
        .map(|raw| raw.parse::<u32>().map(NodeId))
        .transpose()
        .map_err(|_| "--claim-node: expected a node id".to_string())?;
    let speed: f64 = args.get_or("speed", 1.0)?;
    let heartbeat = Duration::from_millis(args.get_or("heartbeat-ms", 100u64)?);
    let period = Duration::from_millis(args.get_or("period-ms", 500u64)?);
    let duty: f64 = args.get_or("duty", 0.4)?;
    if !(0.05..=1.0).contains(&duty) {
        return Err("--duty must be in [0.05, 1.0]".to_string());
    }
    let steal_on = match args.get("steal").unwrap_or("off") {
        "on" => true,
        "off" => false,
        other => return Err(format!("--steal: expected on|off, got {other:?}")),
    };
    let workload: String = args.get_or("workload", "fib".to_string())?;
    let root_arg: Option<u64> = args
        .get("root-arg")
        .map(|raw| raw.parse())
        .transpose()
        .map_err(|_| "--root-arg: expected a number".to_string())?;
    let root_depth: u32 = args.get_or("root-depth", 8u32)?;
    let metrics_out = args.get("out").map(|s| s.to_string());
    if root_arg.is_some() && !steal_on {
        return Err("--root-arg requires --steal on".to_string());
    }

    let (events_tx, events_rx) = channel::<NetEvent>();
    // Before a node id is granted only the claim (if any) is stable, so the
    // first-join jitter falls back to the pid; once joined, every later
    // failover derives its jitter from the *granted* node id, making the
    // reconnect schedule deterministic per node across the --hub rotation
    // (a respawned worker claiming the same node replays the same delays).
    let join_seed = 0x5eed_0000
        + u64::from(
            claim
                .map(|n| n.0)
                .unwrap_or(u32::from(std::process::id() as u16)),
        );
    let mut backoff = Backoff::new(Duration::from_millis(50), Duration::from_secs(1), join_seed);
    let mut next_conn = 0u64;
    let (mut conn, node) = join(
        &mut hubs,
        cluster,
        claim,
        &mut backoff,
        &events_tx,
        &events_rx,
        &mut next_conn,
    )
    .map_err(|e| {
        // The launcher distinguishes "unreachable" from "refused".
        eprintln!("sagrid-worker: {e}");
        std::process::exit(4);
    })
    .unwrap();
    let seed = 0x5eed_0000 + u64::from(node.0);
    println!("JOINED node={}", node.0);
    std::io::stdout().flush().ok();

    // One local worker thread; the speed knob emulates an overloaded or
    // intrinsically slow machine (it also stretches the benchmark, which is
    // how the coordinator learns the node's relative speed).
    let rt = Arc::new(Runtime::new(RuntimeConfig::single_cluster(1)));
    rt.set_worker_speed(0, speed.clamp(0.05, 1.0));

    // Steal-plane metrics live in a process-wide registry dumped to --out
    // JSONL on exit; with stealing off and no --out the registry is free.
    let metrics = if steal_on || metrics_out.is_some() {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };

    let steal_plane = if steal_on {
        let pool = Arc::new(ExportPool::new());
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind steal listener: {e}"))?;
        let addr = spawn_steal_server(
            listener,
            Arc::clone(&pool),
            metrics.counter("net.steals.served"),
        )
        .map_err(|e| format!("spawn steal server: {e}"))?
        .to_string();
        let client = Arc::new(StealClient::new(
            node,
            cluster,
            StealMetrics::resolve(&metrics),
        ));
        // Idle runtime workers steal serialized jobs over the wire and run
        // them through the normal spawn/join path, so their busy time is
        // accounted like any local task's.
        rt.set_remote_steal_hook(Arc::new(NetStealHook::new(
            Arc::clone(&client),
            |ctx, payload| {
                let job = RemoteJob::decode(payload).ok()?;
                Some(ctx.spawn(move |ctx| job.execute(ctx)).join(ctx))
            },
        )));
        conn.send(Message::PeerAnnounce {
            node,
            steal_addr: addr.clone(),
        });
        println!("STEAL_ADDR {addr}");
        Some(StealPlane { pool, client, addr })
    } else {
        None
    };

    let stop = Arc::new(AtomicBool::new(false));
    // Duty-cycle sleep multiplier, steered by the feedback loop in the
    // protocol loop below. A root worker spawns no duty workload, so the
    // feedback writes are simply never read.
    let sleep_factor = Arc::new(std::sync::Mutex::new((1.0 - duty) / duty));
    // Scenario-injected synthetic inter-cluster wait, as a fraction of each
    // monitoring period. Set by a `Perturb` from the launcher (via the hub)
    // to emulate a saturated uplink: the report assembly below reclassifies
    // that much idle time as inter_comm, so the cluster's ic overhead rises
    // without its busy fraction moving.
    let mut synth_inter = 0.0f64;

    if let Some(arg) = root_arg {
        // Root of a distributed computation: expand the frontier, export it
        // through the steal pool, execute our own share front-to-back while
        // thieves drain the back, and reassemble the result by addition.
        let plane = steal_plane.as_ref().expect("checked above");
        // Each frontier subjob runs as ONE sequential task wherever it
        // lands: the frontier expansion already provides the parallelism
        // (across processes), and a single task keeps the runtime's speed
        // emulation linear — nested spawn/join inside a slow worker pads
        // every nesting level, compounding the slowdown geometrically.
        let root_job = match workload.as_str() {
            "fib" => RemoteJob::Fib {
                n: arg,
                threshold: u64::MAX,
            },
            "nqueens" => RemoteJob::NQueens {
                n: arg as u32,
                cols: 0,
                d1: 0,
                d2: 0,
                spawn_depth: 0,
            },
            other => return Err(format!("--workload: expected fib|nqueens, got {other:?}")),
        };
        let jobs = frontier(root_job, root_depth);
        for job in &jobs {
            plane.pool.offer(job.encode());
        }
        println!("ROOT_JOBS {}", jobs.len());
        std::io::stdout().flush().ok();
        let pool = Arc::clone(&plane.pool);
        let client = Arc::clone(&plane.client);
        let rt = Arc::clone(&rt);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("root-drive".to_string())
            .spawn(move || {
                // Give thieves a head start: hold off on local execution
                // until at least one peer is in the directory (or a bound
                // elapses), so a fast root on a fast host does not drain
                // the pool before any thief has even joined the grid.
                let t0 = Instant::now();
                while client.peers() == 0
                    && t0.elapsed() < Duration::from_secs(3)
                    && !stop.load(Ordering::Acquire)
                {
                    std::thread::sleep(Duration::from_millis(20));
                }
                std::thread::sleep(Duration::from_millis(200));
                while !stop.load(Ordering::Acquire) {
                    if let Some((id, payload)) = pool.take_local() {
                        if let Ok(job) = RemoteJob::decode(&payload) {
                            let value = rt.run(move |ctx| job.execute(ctx));
                            pool.complete(id, value);
                        }
                    } else if pool.is_done() {
                        println!("ROOT_RESULT={}", pool.sum());
                        println!("ROOT_DONE");
                        std::io::stdout().flush().ok();
                        return;
                    } else {
                        // Jobs are out with thieves; re-pend any whose
                        // thief has gone silent, then wait for results.
                        pool.reclaim_stale(RECLAIM_AFTER);
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            })
            .expect("spawn root drive thread");
    } else {
        // Workload thread: bursts of divide-and-conquer work interleaved
        // with sleeps sized so the *measured* busy fraction tracks `duty`.
        // The sleep multiplier is steered by a feedback loop below, because
        // the runtime's accounting does not attribute every idle
        // microsecond (steal-scan time is unaccounted), so an open-loop
        // ratio would overshoot the target.
        let rt = Arc::clone(&rt);
        let stop = Arc::clone(&stop);
        let sleep_factor = Arc::clone(&sleep_factor);
        std::thread::Builder::new()
            .name("worker-load".to_string())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let t0 = Instant::now();
                    let _ = rt.run(|ctx| sagrid_apps::fib_par(ctx, 22, 12));
                    let busy = t0.elapsed();
                    let f = *sleep_factor.lock().expect("sleep factor");
                    // Cap so a leave signal is still honoured promptly, but
                    // high enough that slow machines keep the duty ratio.
                    std::thread::sleep(busy.mul_f64(f).min(Duration::from_secs(1)));
                }
            })
            .expect("spawn workload thread");
    }

    // Benchmarking runs on its own thread: on a slow node the probe takes
    // many times longer (that is the point of the speed knob), and blocking
    // the protocol loop on it would starve heartbeats into a false death.
    let bench_micros = Arc::new(AtomicU64::new(0));
    {
        let rt = Arc::clone(&rt);
        let stop = Arc::clone(&stop);
        let bench_micros = Arc::clone(&bench_micros);
        std::thread::Builder::new()
            .name("worker-bench".to_string())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if let Some(d) = rt.benchmark_worker(0) {
                        bench_micros.store((d.as_micros() as u64).max(1), Ordering::Release);
                    }
                    std::thread::sleep(period);
                }
            })
            .expect("spawn benchmark thread");
    }

    // Running total of measured cross-process communication time, printed
    // in the STEALS summary on exit (the per-period values flow to the hub
    // as the StatsReport's inter_comm overhead).
    let mut inter_total_us = 0u64;

    // Prints the steal summary and dumps the metrics registry; called on
    // every orderly exit path.
    let finish = |inter_total_us: u64| {
        let report = metrics.report();
        if steal_on {
            println!(
                "STEALS ok={} failed={} served={} inter_us={}",
                report.counter("net.steals.remote_ok"),
                report.counter("net.steals.remote_failed"),
                report.counter("net.steals.served"),
                inter_total_us,
            );
        }
        if let Some(path) = &metrics_out {
            if let Err(e) = std::fs::write(path, report.to_jsonl()) {
                eprintln!("sagrid-worker: write {path}: {e}");
            }
        }
        std::io::stdout().flush().ok();
    };

    let mut last_heartbeat = Instant::now();
    let mut last_report = Instant::now();
    // Highest hub epoch observed; a hub announcing a *lower* one is a
    // stale primary that survived a failover, and we must not follow it.
    let mut hub_epoch = 0u64;
    loop {
        match events_rx.recv_timeout(Duration::from_millis(20)) {
            Ok(NetEvent::Message(_, msg)) => match msg {
                Message::SignalLeave { node: n } if n == node => {
                    conn.send(Message::Leaving { node });
                    // Wait until the writer confirms the farewell actually
                    // reached the socket — a blind sleep raced the writer
                    // thread and sometimes lost the frame on a loaded host.
                    if !conn.flush(Duration::from_secs(2)) {
                        eprintln!("sagrid-worker: farewell flush failed");
                    }
                    println!("LEAVING");
                    stop.store(true, Ordering::Release);
                    finish(inter_total_us);
                    return Ok(());
                }
                Message::Shutdown => {
                    println!("SHUTDOWN");
                    stop.store(true, Ordering::Release);
                    finish(inter_total_us);
                    return Ok(());
                }
                Message::PeerDirectory { peers } => {
                    if let Some(plane) = &steal_plane {
                        plane.client.update_directory(peers);
                        println!("PEERS {}", plane.client.peers());
                    }
                }
                Message::HubEpoch { epoch, leader } => {
                    if epoch > hub_epoch {
                        hub_epoch = epoch;
                        println!("HUB_EPOCH epoch={epoch} leader={leader}");
                        std::io::stdout().flush().ok();
                    } else if epoch < hub_epoch {
                        // A fenced-off stale primary is still feeding us
                        // frames: drop it and fail over through the list.
                        println!("STALE_HUB epoch={epoch} known={hub_epoch}");
                        std::io::stdout().flush().ok();
                        hubs.advance();
                        match failover(
                            &mut hubs,
                            cluster,
                            node,
                            seed,
                            &events_tx,
                            &events_rx,
                            &mut next_conn,
                            steal_plane.as_ref(),
                        ) {
                            Some(c) => conn = c,
                            None => {
                                println!("HUB_GONE");
                                stop.store(true, Ordering::Release);
                                finish(inter_total_us);
                                return Ok(());
                            }
                        }
                    }
                }
                Message::Perturb {
                    speed, inter_frac, ..
                } => {
                    // A scenario perturbation relayed by the hub. Applying
                    // the speed knob live re-paces both the workload and the
                    // benchmark probe, so the coordinator's speed tracker
                    // sees the change within a period or two.
                    if let Some(s) = speed {
                        rt.set_worker_speed(0, s.clamp(0.05, 1.0));
                    }
                    if let Some(f) = inter_frac {
                        synth_inter = f.clamp(0.0, 0.95);
                    }
                    println!(
                        "PERTURBED speed={} inter_frac={}",
                        speed.map_or_else(|| "-".to_string(), |s| format!("{s}")),
                        inter_frac.map_or_else(|| "-".to_string(), |f| format!("{f}")),
                    );
                    std::io::stdout().flush().ok();
                }
                _ => {}
            },
            Ok(NetEvent::Closed(id)) if id == conn.id() => {
                // Transport dropped: reconnect with backoff through the hub
                // list, claiming our node id so the registry treats it as
                // the same member. A dead primary's standby needs a full
                // heartbeat timeout of silence before it takes over, so the
                // rotation keeps trying until the budget runs out. No hub
                // answering means the session is over (a shutdown's RST can
                // outrun the Shutdown frame itself) — a normal exit.
                match failover(
                    &mut hubs,
                    cluster,
                    node,
                    seed,
                    &events_tx,
                    &events_rx,
                    &mut next_conn,
                    steal_plane.as_ref(),
                ) {
                    Some(c) => conn = c,
                    None => {
                        println!("HUB_GONE");
                        stop.store(true, Ordering::Release);
                        finish(inter_total_us);
                        return Ok(());
                    }
                }
            }
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                finish(inter_total_us);
                return Ok(());
            }
        }

        if last_heartbeat.elapsed() >= heartbeat {
            last_heartbeat = Instant::now();
            conn.send(Message::Heartbeat { node });
        }
        if last_report.elapsed() >= period {
            last_report = Instant::now();
            let bench = bench_micros.load(Ordering::Acquire);
            let mut breakdown = OverheadBreakdown::default();
            for (r, _) in rt.take_monitoring_reports() {
                breakdown.busy += r.breakdown.busy;
                breakdown.idle += r.breakdown.idle;
                breakdown.intra_comm += r.breakdown.intra_comm;
                breakdown.inter_comm += r.breakdown.inter_comm;
                breakdown.benchmark += r.breakdown.benchmark;
            }
            if synth_inter > 0.0 {
                // Reclassify idle time as inter-cluster wait: the busy
                // fraction (and thus the efficiency term) stays put while
                // the ic-overhead fraction rises to roughly `synth_inter`,
                // which is exactly what a saturated uplink looks like in a
                // monitoring report.
                let synth =
                    ((breakdown.total().0 as f64 * synth_inter) as u64).min(breakdown.idle.0);
                breakdown.idle.0 -= synth;
                breakdown.inter_comm.0 += synth;
            }
            inter_total_us += breakdown.inter_comm.0;
            // Feedback: multiplicatively adjust the sleep multiplier so the
            // measured busy fraction converges onto the duty target.
            let measured = breakdown.busy.fraction_of(breakdown.total());
            if measured > 0.01 {
                let mut f = sleep_factor.lock().expect("sleep factor");
                *f = (*f * (measured / duty).clamp(0.5, 2.0)).clamp(0.05, 50.0);
            }
            let report = MonitoringReport {
                node,
                cluster,
                period_end: rt.now(),
                breakdown,
                // Placeholder: the coordinator recomputes relative speed
                // from the benchmark durations of *all* nodes.
                speed: 1.0,
            };
            // Skip the report until the first benchmark lands: the speed
            // tracker needs a real duration to rank this node.
            if bench > 0 {
                conn.send(Message::StatsReport {
                    report,
                    bench_micros: bench,
                });
            }
        }
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("sagrid-worker: {e}");
        std::process::exit(2);
    }
}
