//! Per-layer micro-stages: timed calls into each layer's public
//! functions at the workload's sizes. Run once per traced run, after the
//! hub thread has gone, so nothing else of the benchmark is runnable.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::Workload;
use sagrid_adapt::badness::rank_nodes_by_badness;
use sagrid_adapt::{AdaptPolicy, BadnessCoefficients, Coordinator, HierarchicalCoordinator};
use sagrid_core::config::GridConfig;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::json::parse_json;
use sagrid_core::metrics::{MetricEvent, Metrics, Value};
use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
use sagrid_core::stats::{MonitoringReport, OverheadBreakdown};
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_core::workload::barnes_hut_profile;
use sagrid_net::reactor::{FrameDecoder, Reactor, ReactorEvent};
use sagrid_net::replog::{ControlState, MemberPhase};
use sagrid_net::wire::{Message, PeerInfo, StealJob};
use sagrid_net::{ReplicaOp, StealClient};
use sagrid_registry::{Membership, RegistryConfig};
use sagrid_scenario::ScenarioSpec;
use sagrid_sched::{AllocPolicy, Requirements, ResourcePool};
use sagrid_simgrid::{GridSim, SimConfig};
use sagrid_simnet::{EventQueue, Network, QueueBackend};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Samples per micro-stage; the reported value is their median.
const SAMPLES: usize = 5;

/// Median nanoseconds per operation of `f`, which performs `ops`
/// operations per call; one untimed call first.
fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

fn reports(n: usize, clusters: usize) -> Vec<MonitoringReport> {
    (0..n)
        .map(|i| MonitoringReport {
            node: NodeId(i as u32),
            cluster: ClusterId((i % clusters) as u16),
            period_end: SimTime::from_secs(180),
            breakdown: OverheadBreakdown {
                busy: SimDuration::from_secs(72 + (i % 7) as u64),
                idle: SimDuration::from_secs(90),
                intra_comm: SimDuration::from_secs(7),
                inter_comm: SimDuration::from_secs(2),
                benchmark: SimDuration::ZERO,
            },
            speed: 1.0 - (i % 5) as f64 * 0.01,
        })
        .collect()
}

fn peers(n: usize, clusters: usize) -> Vec<PeerInfo> {
    (0..n)
        .map(|i| PeerInfo {
            node: NodeId(i as u32),
            cluster: ClusterId((i % clusters) as u16),
            steal_addr: "127.0.0.1:40123".to_string(),
        })
        .collect()
}

fn queue_ns(backend: QueueBackend, pending: usize) -> f64 {
    let mut rng = Xoshiro256StarStar::seeded(7);
    let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
    for i in 0..pending {
        q.push(
            SimTime::from_micros(rng.gen_index(1_000_000) as u64),
            i as u64,
        );
    }
    let ops = 100_000u64;
    // Hold model: pop the earliest, push one a random delay later.
    ns_per_op(ops, || {
        for _ in 0..ops {
            let (now, e) = q.pop().expect("queue holds `pending` events");
            let delay = 1 + rng.gen_index(1_000_000) as u64;
            q.push(SimTime::from_micros(now.0 + delay), black_box(e));
        }
    })
}

fn wire_ns(msg: &Message) -> (f64, f64) {
    let payload = msg.encode();
    let reps = (2_000_000 / (payload.len() as u64 + 64)).clamp(50, 20_000);
    let enc = ns_per_op(reps, || {
        for _ in 0..reps {
            black_box(black_box(msg).encode());
        }
    });
    let dec = ns_per_op(reps, || {
        for _ in 0..reps {
            black_box(Message::decode(black_box(&payload)).expect("round trip"));
        }
    });
    (enc, dec)
}

/// A bare `Reactor` echoing every frame, and a blocking client writing
/// 32 of the smallest frame then reading the 32 echoes.
fn reactor_echo_frames_per_s() -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let server = std::thread::Builder::new()
        .name("echo-reactor".to_string())
        .spawn(move || {
            let mut reactor =
                Reactor::with_listener(listener, &Metrics::disabled()).expect("echo reactor");
            let mut out = Vec::new();
            loop {
                if reactor.poll(&mut out, Duration::from_millis(200)).is_err() {
                    return;
                }
                for ev in out.drain(..) {
                    match ev {
                        ReactorEvent::Frame(_, Message::Shutdown) | ReactorEvent::Closed(_) => {
                            return
                        }
                        ReactorEvent::Frame(t, m) => {
                            reactor.send(t, &m);
                        }
                        _ => {}
                    }
                }
            }
        })?;
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    let one = Reactor::encode_frame(&Message::Heartbeat { node: NodeId(1) });
    let burst: Vec<u8> = one.iter().copied().cycle().take(one.len() * 32).collect();
    let mut back = vec![0u8; burst.len()];
    let rounds = 400u64;
    let mut err = None;
    let ns = ns_per_op(rounds * 32, || {
        for _ in 0..rounds {
            if let Err(e) = s.write_all(&burst).and_then(|_| s.read_exact(&mut back)) {
                err = Some(e);
                return;
            }
        }
    });
    drop(s);
    let _ = server.join();
    match err {
        Some(e) => Err(e),
        None => Ok(1e9 / ns),
    }
}

/// The per-layer numbers that do not come out of the stages themselves.
pub fn measure(
    w: &Workload,
    spec: &ScenarioSpec,
    cfg: &SimConfig,
    check_jsonl: &str,
    tr: &mut Tracer,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut out: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let n = w.ctl.members;
    let clusters = w.ctl.member_clusters;
    let total_nodes = cfg.grid.total_nodes();
    let span = tr.enter("layers.micro");

    // core
    let s = tr.enter("core.micro");
    let gen_ns = ns_per_op(1, || {
        black_box(barnes_hut_profile(
            spec.iterations,
            spec.target_nodes,
            spec.target_iter_secs,
            spec.seed,
        ));
    });
    out.push(("core.workload_gen_ms", gen_ns / 1e6, "ms"));
    // The head of the stream is enough: decision lines with their full
    // provenance are the big ones, and they start at the first tick.
    let head: Vec<&str> = check_jsonl.lines().take(2_000).collect();
    let head_bytes: usize = head.iter().map(|l| l.len() + 1).sum();
    let parse_ns = ns_per_op(1, || {
        for line in &head {
            black_box(parse_json(line).ok());
        }
    });
    out.push((
        "core.json_parse_mb_per_s",
        head_bytes as f64 / 1e6 / (parse_ns / 1e9),
        "MB/s",
    ));
    let emits = 20_000u64;
    let emit_ns = ns_per_op(emits, || {
        let m = Metrics::enabled();
        for i in 0..emits {
            m.emit(MetricEvent::new(i, "bench").with("node", Value::U64(i)));
        }
    });
    out.push(("core.metrics_emit_ns", emit_ns, "ns"));
    tr.exit(s);

    // scenario
    let s = tr.enter("scenario.micro");
    let grid = spec.grid.build();
    let compile_ns = ns_per_op(1, || {
        let parsed = ScenarioSpec::parse(&w.text).expect("workload file parses");
        black_box(parsed.compile(&grid).expect("workload file compiles"));
    });
    out.push(("scenario.parse_compile_us", compile_ns / 1e3, "us"));
    tr.exit(s);

    // simnet
    let s = tr.enter("simnet.micro");
    out.push((
        "simnet.queue_ns_per_op.heap",
        queue_ns(QueueBackend::Heap, total_nodes),
        "ns",
    ));
    out.push((
        "simnet.queue_ns_per_op.wheel",
        queue_ns(QueueBackend::Wheel, total_nodes),
        "ns",
    ));
    let mut net = Network::new(&cfg.grid);
    let nc = cfg.grid.n_clusters() as u16;
    let deliveries = 200_000u64;
    let payload = cfg.workload.iterations[0].node(0).payload_bytes.max(64);
    let mut now = 0u64;
    let deliver_ns = ns_per_op(deliveries, || {
        for i in 0..deliveries {
            now += 50;
            let from = ClusterId((i % u64::from(nc)) as u16);
            // Every other message crosses an uplink.
            let to = ClusterId(((i + (i & 1)) % u64::from(nc)) as u16);
            black_box(net.deliver(SimTime::from_micros(now), from, to, payload));
        }
    });
    out.push(("simnet.net_ns_per_delivery", deliver_ns, "ns"));
    tr.exit(s);

    // simgrid
    let s = tr.enter("simgrid.micro");
    let build_ns = ns_per_op(1, || {
        black_box(GridSim::try_new(cfg.clone()).expect("valid config"));
    });
    out.push(("simgrid.build_ms", build_ns / 1e6, "ms"));
    let mut ratios = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        black_box(GridSim::try_run(cfg.clone()).expect("valid config"));
        let plain = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        black_box(GridSim::try_run_with_metrics(cfg.clone(), Metrics::enabled()).expect("valid"));
        ratios.push(t.elapsed().as_nanos() as f64 / plain);
    }
    out.push((
        "simgrid.metrics_overhead_pct",
        (median(&ratios) - 1.0) * 100.0,
        "%",
    ));
    tr.exit(s);

    // adapt
    let s = tr.enter("adapt.micro");
    let rs = reports(n, clusters);
    let mut flat = Coordinator::new(AdaptPolicy::default());
    let rec_ns = ns_per_op(n as u64 * 20, || {
        for _ in 0..20 {
            for r in &rs {
                flat.record_report(*r);
            }
        }
    });
    out.push(("adapt.record_ns_per_report", rec_ns, "ns"));
    let evals = 400u64;
    let flat_ns = ns_per_op(evals, || {
        for i in 0..evals {
            black_box(flat.evaluate(SimTime::from_secs(180 * (i + 1)), None));
        }
    });
    out.push(("adapt.eval_us.flat", flat_ns / 1e3, "us"));
    let mut hier = HierarchicalCoordinator::new(AdaptPolicy::default());
    let hier_ns = ns_per_op(evals, || {
        for i in 0..evals {
            for r in &rs {
                hier.record_report(*r);
            }
            black_box(hier.evaluate(SimTime::from_secs(180 * (i + 1)), None));
        }
    });
    let hier_rec_ns = ns_per_op(evals, || {
        for _ in 0..evals {
            for r in &rs {
                hier.record_report(*r);
            }
        }
    });
    out.push((
        "adapt.eval_us.hier",
        (hier_ns - hier_rec_ns).max(0.0) / 1e3,
        "us",
    ));
    let coeff = BadnessCoefficients::default();
    let rank_ns = ns_per_op(200, || {
        for _ in 0..200 {
            black_box(rank_nodes_by_badness(&coeff, black_box(&rs), None));
        }
    });
    out.push(("adapt.rank_us", rank_ns / 1e3, "us"));
    tr.exit(s);

    // registry
    let s = tr.enter("registry.micro");
    let mut reg = Membership::new(RegistryConfig::with_timeout(SimDuration::from_secs(3600)));
    for i in 0..n {
        reg.join(
            SimTime::ZERO,
            NodeId(i as u32),
            ClusterId((i % clusters) as u16),
        );
    }
    let mut clock = 0u64;
    let hb_ns = ns_per_op(n as u64 * 200, || {
        for _ in 0..200 {
            clock += 1;
            for i in 0..n {
                reg.heartbeat(SimTime::from_micros(clock), NodeId(i as u32));
            }
        }
    });
    out.push(("registry.heartbeat_ns", hb_ns, "ns"));
    let jl_ns = ns_per_op(n as u64 * 20, || {
        for _ in 0..20 {
            for i in 0..n {
                let node = NodeId(i as u32);
                reg.leave(node);
                reg.join(
                    SimTime::from_micros(clock),
                    node,
                    ClusterId((i % clusters) as u16),
                );
            }
            black_box(reg.take_events());
        }
    });
    out.push(("registry.join_leave_ns", jl_ns, "ns"));
    let sweep_ns = ns_per_op(500, || {
        for _ in 0..500 {
            clock += 1;
            black_box(reg.detect_failures(SimTime::from_micros(clock)));
        }
    });
    out.push(("registry.sweep_us", sweep_ns / 1e3, "us"));
    tr.exit(s);

    // sched
    let s = tr.enter("sched.micro");
    let mut pool = ResourcePool::new(&GridConfig::uniform(
        w.ctl.hub_clusters,
        w.ctl.hub_nodes_per_cluster,
    ));
    let none = BTreeSet::new();
    let rr_ns = ns_per_op(2_000, || {
        for i in 0..2_000usize {
            // What the hub does for a fresh join into a named cluster.
            let cluster = ClusterId((i % w.ctl.hub_clusters) as u16);
            let excl: BTreeSet<ClusterId> = (0..w.ctl.hub_clusters)
                .map(|c| ClusterId(c as u16))
                .filter(|c| *c != cluster)
                .collect();
            let grants = pool.request(
                1,
                AllocPolicy::LocalityAware,
                &Requirements::default(),
                &none,
                &excl,
                &[cluster],
            );
            for g in grants {
                pool.release(g.node);
            }
        }
    });
    out.push(("sched.request_release_ns", rr_ns, "ns"));
    tr.exit(s);

    // net.wire
    let s = tr.enter("net.wire.micro");
    let delta_op = if w.ctl.announce {
        ReplicaOp::PeerDir {
            peers: peers(n, clusters),
        }
    } else if w.ctl.changing_bench {
        ReplicaOp::Bandwidth {
            node: NodeId(3),
            bench_micros: 1_017,
        }
    } else {
        ReplicaOp::Join {
            node: NodeId(3),
            cluster: ClusterId(1),
        }
    };
    let classes: [(&'static str, &'static str, Message); 5] = [
        (
            "net.wire.encode_ns.heartbeat",
            "net.wire.decode_ns.heartbeat",
            Message::Heartbeat { node: NodeId(7) },
        ),
        (
            "net.wire.encode_ns.stats",
            "net.wire.decode_ns.stats",
            Message::StatsReport {
                report: rs[0],
                bench_micros: 1_000,
            },
        ),
        (
            "net.wire.encode_ns.directory",
            "net.wire.decode_ns.directory",
            Message::PeerDirectory {
                peers: peers(n, clusters),
            },
        ),
        (
            "net.wire.encode_ns.steal_reply",
            "net.wire.decode_ns.steal_reply",
            Message::StealReply {
                job: Some(StealJob {
                    id: 9,
                    payload: vec![0xA5; w.steal.payload_bytes],
                }),
            },
        ),
        (
            "net.wire.encode_ns.state_delta",
            "net.wire.decode_ns.state_delta",
            Message::StateDelta {
                epoch: 1,
                log_offset: 77,
                op: delta_op,
            },
        ),
    ];
    for (enc_name, dec_name, msg) in &classes {
        let (enc, dec) = wire_ns(msg);
        out.push((enc_name, enc, "ns"));
        out.push((dec_name, dec, "ns"));
    }
    tr.exit(s);

    // net.reactor
    let s = tr.enter("net.reactor.micro");
    out.push((
        "net.reactor.echo_frames_per_s",
        reactor_echo_frames_per_s().unwrap_or(0.0),
        "1/s",
    ));
    let mut stream = Vec::new();
    for (i, r) in rs.iter().cycle().take(2_000).enumerate() {
        for m in [
            Message::Heartbeat {
                node: NodeId(i as u32),
            },
            Message::StatsReport {
                report: *r,
                bench_micros: 0,
            },
        ] {
            stream.extend_from_slice(&Reactor::encode_frame(&m));
        }
    }
    let mut msgs = Vec::with_capacity(4_000);
    let feed_ns = ns_per_op(1, || {
        let mut dec = FrameDecoder::new();
        for chunk in stream.chunks(4096) {
            dec.feed(chunk, &mut msgs).expect("well-formed stream");
        }
        black_box(msgs.len());
        msgs.clear();
    });
    out.push((
        "net.reactor.decoder_mb_per_s",
        stream.len() as f64 / 1e6 / (feed_ns / 1e9),
        "MB/s",
    ));
    tr.exit(s);

    // net.replog / net.steal
    let s = tr.enter("net.replog.micro");
    let mut state = ControlState::default();
    for p in peers(n, clusters) {
        state
            .members
            .insert(p.node, (p.cluster, MemberPhase::Alive));
        state.bandwidth.insert(p.node, 1_000);
        state.peers.insert(p.node, p);
    }
    let digest_ns = ns_per_op(100, || {
        for _ in 0..100 {
            black_box(black_box(&state).digest());
        }
    });
    out.push(("net.replog.digest_us", digest_ns / 1e3, "us"));
    let client = StealClient::new(NodeId(u32::MAX - 1), ClusterId(0), None);
    let dir = peers(n, clusters);
    let upd_ns = ns_per_op(200, || {
        for _ in 0..200 {
            client.update_directory(black_box(dir.clone()));
        }
    });
    let clone_ns = ns_per_op(200, || {
        for _ in 0..200 {
            black_box(dir.clone());
        }
    });
    out.push((
        "net.steal.dir_update_us",
        (upd_ns - clone_ns).max(0.0) / 1e3,
        "us",
    ));
    tr.exit(s);

    tr.exit(span);
    out
}
