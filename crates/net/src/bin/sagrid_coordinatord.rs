//! The adaptation coordinator, out-of-process.
//!
//! This binary wraps the *unchanged* [`sagrid_adapt::Coordinator`]: stats
//! reports arrive over TCP instead of a function call, and decisions leave
//! as `Grow`/`Shrink` wire messages instead of return values — the
//! Figure-2 flowchart logic itself is byte-for-byte the library version
//! that the in-process runtime and the discrete-event simulation use.
//!
//! Every decision is also emitted as a `"decision"` metric event (via
//! [`sagrid_simgrid::provenance::decision_event`]), so the JSONL stream
//! reconstructs through
//! [`sagrid_simgrid::provenance::reconstruct_decision`] exactly like an
//! in-process run's. The daemon round-trips each event through the parser
//! as it emits it, fails on the first mismatch, and prints
//! `PROVENANCE_OK n=<entries>` at shutdown. Each event is appended to
//! `--out` as soon as it is emitted, and the instrument records follow at
//! shutdown, so memory does not grow with the number of decisions.

use sagrid_adapt::{AdaptPolicy, Coordinator, Decision};
use sagrid_core::json::parse_json;
use sagrid_core::metrics::{Metrics, Value};
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_net::conn::{Connection, NetEvent};
use sagrid_net::wire::Message;
use sagrid_net::{Args, Backoff, HubSet};
use sagrid_simgrid::provenance::{decision_event, reconstruct_decision};
use std::fs::File;
use std::io::Write;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant};

fn run() -> Result<(), String> {
    let args = Args::parse(
        std::env::args().skip(1),
        &["hub", "period-ms", "warmup-ms", "out"],
    )?;
    // Like the worker's, `--hub` takes a comma-separated failover list.
    let mut hubs = HubSet::parse(&args.require::<String>("hub")?)?;
    let period = Duration::from_millis(args.get_or("period-ms", 600u64)?);
    let warmup = Duration::from_millis(args.get_or("warmup-ms", 0u64)?);
    let mut out = match args.get("out") {
        Some(path) => {
            if let Some(dir) = std::path::Path::new(path).parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
            }
            let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            Some((path.to_string(), file))
        }
        None => None,
    };
    let mut append = |text: &str| -> Result<(), String> {
        match &mut out {
            Some((path, file)) => file
                .write_all(text.as_bytes())
                .map_err(|e| format!("write {path}: {e}")),
            None => Ok(()),
        }
    };

    let (events_tx, events_rx) = channel::<NetEvent>();
    let mut backoff = Backoff::new(
        Duration::from_millis(50),
        Duration::from_millis(300),
        0xc00d,
    );
    let mut next_conn = 0u64;
    let mut dial = |next_conn: &mut u64, backoff: &mut Backoff| -> Result<Connection, String> {
        // A standby answers the dial but stays silent (it closes new
        // connections until it wins an election); the Closed event then
        // drives another dial, which rotates onward. Only dials that fail
        // outright burn backoff attempts.
        let s = hubs.dial(backoff)?;
        backoff.reset();
        *next_conn += 1;
        let conn = Connection::spawn(*next_conn, s, events_tx.clone())
            .map_err(|e| format!("connection setup: {e}"))?;
        conn.send(Message::CoordinatorHello);
        hubs.advance();
        Ok(conn)
    };
    let mut conn = dial(&mut next_conn, &mut backoff)?;
    println!("COORDINATOR_UP");
    std::io::stdout().flush().ok();

    let metrics = Metrics::enabled();
    let suspect_marked = metrics.counter("adapt.suspect.marked").expect("enabled");
    let suspect_cleared = metrics.counter("adapt.suspect.cleared").expect("enabled");
    let holdfire_decisions = metrics
        .counter("adapt.holdfire.decisions")
        .expect("enabled");
    let mut coordinator = Coordinator::new(AdaptPolicy::default());
    let mut emitted = 0usize;
    let epoch = Instant::now();
    let started = Instant::now();
    let mut last_eval = Instant::now();
    // Highest hub epoch seen (the hub stamps every CoordinatorHello with
    // one). Carried on every decision event so the JSONL distinguishes
    // pre- from post-failover decisions; a *lower* epoch marks a fenced
    // stale primary and forces a redial through the list.
    let mut hub_epoch = 0u64;

    let shutdown = loop {
        match events_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(NetEvent::Message(_, msg)) => match msg {
                Message::StatsReport {
                    report,
                    bench_micros,
                } if !coordinator.blacklisted_nodes().contains(&report.node) => {
                    let bench = SimDuration::from_micros(bench_micros.max(1));
                    coordinator.record_benchmark(report.node, bench);
                    coordinator.record_report(report);
                }
                Message::SuspectNotice { node, suspected } => {
                    // The hub's failure detector crossed (or un-crossed) the
                    // suspicion threshold for this member. Until the verdict
                    // resolves — CrashNotice or a resume — the coordinator
                    // holds fire on shrink decisions.
                    if suspected {
                        coordinator.mark_suspect(node);
                        suspect_marked.inc();
                        println!("SUSPECT_MARKED node={}", node.0);
                    } else if coordinator.clear_suspect(node) {
                        suspect_cleared.inc();
                        println!("SUSPECT_CLEARED node={}", node.0);
                    }
                }
                Message::CrashNotice { node, .. } => {
                    // Single-node fail-stop: blacklist the node, keep its
                    // cluster (the hub reports cluster-wide outages as
                    // individual notices for every member).
                    coordinator.record_crashed(&[node], None);
                    println!("CRASH_RECORDED node={}", node.0);
                }
                Message::HubEpoch { epoch: e, leader } => {
                    if e > hub_epoch {
                        hub_epoch = e;
                        println!("HUB_EPOCH epoch={e} leader={leader}");
                        std::io::stdout().flush().ok();
                    } else if e < hub_epoch {
                        println!("STALE_HUB epoch={e} known={hub_epoch}");
                        std::io::stdout().flush().ok();
                        match dial(&mut next_conn, &mut backoff) {
                            Ok(c) => conn = c,
                            Err(_) => {
                                println!("HUB_GONE");
                                break false;
                            }
                        }
                    }
                }
                Message::Shutdown => break true,
                _ => {}
            },
            Ok(NetEvent::Closed(id)) if id == conn.id() => {
                // Reconnect; a hub that stays unreachable means the session
                // ended (the shutdown RST can outrun the Shutdown frame), so
                // finish up exactly as if Shutdown had arrived.
                match dial(&mut next_conn, &mut backoff) {
                    Ok(c) => conn = c,
                    Err(_) => {
                        println!("HUB_GONE");
                        break false;
                    }
                }
            }
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break false,
        }

        if last_eval.elapsed() >= period && started.elapsed() >= warmup {
            last_eval = Instant::now();
            let now = SimTime::from_micros(epoch.elapsed().as_micros() as u64);
            let decision = coordinator.evaluate(now, None);
            match &decision {
                Decision::None => {}
                Decision::Add {
                    count,
                    requirements,
                    prefer,
                } => {
                    conn.send(Message::Grow {
                        count: *count as u32,
                        prefer: prefer.clone(),
                        min_uplink_bps: requirements.min_uplink_bps,
                        min_speed: requirements.min_speed,
                    });
                }
                // `evaluate` has already forgotten the removed nodes.
                Decision::RemoveNodes { nodes } => {
                    conn.send(Message::Shrink {
                        nodes: nodes.clone(),
                        cluster: None,
                    });
                }
                Decision::RemoveCluster { cluster, nodes } => {
                    conn.send(Message::Shrink {
                        nodes: nodes.clone(),
                        cluster: Some(*cluster),
                    });
                }
                Decision::OpportunisticSwap { .. } => {
                    // Off by default; process mode does not enable it.
                }
            }
            // Emit the decision's provenance event, exactly as the
            // in-process engines do, and self-verify that it parses back
            // `==` its log entry.
            let entry = coordinator.last_decision().expect("evaluate logs");
            // The hub epoch distinguishes pre- from post-failover
            // decisions; reconstruction ignores unknown fields.
            let event = decision_event(entry).with("hub_epoch", Value::U64(hub_epoch));
            let json = parse_json(&event.to_json())
                .map_err(|e| format!("emitted decision does not re-parse: {e}"))?;
            if reconstruct_decision(&json)? != *entry {
                return Err(format!(
                    "provenance mismatch at t={:?}: {:?}",
                    entry.at, entry.decision
                ));
            }
            metrics.emit(event);
            append(&metrics.take_events())?;
            emitted += 1;
            if entry.hold_fire.is_some() {
                holdfire_decisions.inc();
            }
            println!(
                "DECISION kind={} wa={:.3} nodes={} suspects={}",
                entry.decision.kind(),
                entry.wa_efficiency,
                entry.nodes,
                entry.suspect_ids.len()
            );
        }
    };
    println!("PROVENANCE_OK n={emitted}");
    // Every event is out already; this adds the instrument records.
    append(&metrics.report().to_jsonl())?;
    let _ = shutdown;
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("sagrid-coordinatord: {e}");
        std::process::exit(1);
    }
}
