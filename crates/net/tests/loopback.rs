//! Loopback integration tests for the hub: raw TCP clients drive the full
//! control-plane protocol against a real `Hub` on an ephemeral port.

use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::metrics::Metrics;
use sagrid_net::conn::{Connection, NetEvent};
use sagrid_net::wire::{recv_message, send_message, Message, PeerInfo};
use sagrid_net::{Hub, HubConfig};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn start_hub(heartbeat_timeout: Duration) -> (u16, JoinHandle<Metrics>) {
    let cfg = HubConfig {
        clusters: 2,
        nodes_per_cluster: 4,
        heartbeat_timeout,
        detect_interval: Duration::from_millis(50),
    };
    let hub = Hub::bind("127.0.0.1:0", cfg, Metrics::enabled()).expect("bind hub");
    let port = hub.port();
    (port, std::thread::spawn(move || hub.run()))
}

struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(port: u16) -> Client {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect to hub");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        Client { stream }
    }

    fn send(&mut self, msg: Message) {
        send_message(&mut self.stream, &msg).expect("send to hub");
    }

    /// Receives the next frame, transparently skipping `HubEpoch` stamps
    /// (the hub stamps joins/hellos with its epoch and ticks keepalives;
    /// tests that care about epochs use [`Client::recv_raw`]).
    fn recv(&mut self) -> Message {
        loop {
            match self.recv_raw() {
                Message::HubEpoch { .. } => continue,
                msg => return msg,
            }
        }
    }

    fn recv_raw(&mut self) -> Message {
        recv_message(&mut self.stream)
            .expect("recv from hub")
            .expect("hub closed the connection")
    }

    fn join(&mut self, cluster: u16, claim: Option<u32>) -> Result<NodeId, String> {
        self.send(Message::Join {
            cluster: ClusterId(cluster),
            claim: claim.map(NodeId),
        });
        match self.recv() {
            Message::JoinAck {
                node,
                accepted: true,
                ..
            } => Ok(node),
            Message::JoinAck {
                accepted: false,
                reason,
                ..
            } => Err(reason),
            other => panic!("expected JoinAck, got {other:?}"),
        }
    }
}

fn shutdown(port: u16, hub: JoinHandle<Metrics>) -> Metrics {
    let mut launcher = Client::connect(port);
    launcher.send(Message::LauncherHello);
    launcher.send(Message::Shutdown);
    hub.join().expect("hub thread")
}

/// Skips non-directory traffic until the next `PeerDirectory` broadcast.
fn next_directory(c: &mut Client) -> Vec<PeerInfo> {
    loop {
        if let Message::PeerDirectory { peers } = c.recv() {
            return peers;
        }
    }
}

#[test]
fn fresh_joins_get_pool_ids_cluster_major() {
    let (port, hub) = start_hub(Duration::from_secs(5));
    let mut a = Client::connect(port);
    let mut b = Client::connect(port);
    let mut c = Client::connect(port);
    // Cluster 0 owns ids 0..4, cluster 1 owns 4..8 (pool is cluster-major).
    assert_eq!(a.join(0, None).unwrap(), NodeId(0));
    assert_eq!(b.join(0, None).unwrap(), NodeId(1));
    assert_eq!(c.join(1, None).unwrap(), NodeId(4));
    // A cluster beyond the pool is refused.
    let mut d = Client::connect(port);
    assert!(d.join(9, None).is_err());
    let metrics = shutdown(port, hub);
    let report = metrics.report();
    assert_eq!(report.counter("net.joins"), 3);
    assert_eq!(report.counter("net.join_refusals"), 1);
}

#[test]
fn missed_heartbeats_declare_death_and_block_rejoin() {
    let (port, hub) = start_hub(Duration::from_millis(300));
    let mut coord = Client::connect(port);
    coord.send(Message::CoordinatorHello);

    let mut worker = Client::connect(port);
    let node = worker.join(0, None).unwrap();
    // Go silent without closing the socket: only the heartbeat timeout —
    // not an EOF — may declare the death, and the detector walks through
    // Suspect first (silence > timeout/2 raises suspicion before death).
    let notice = coord.recv();
    assert_eq!(
        notice,
        Message::SuspectNotice {
            node,
            suspected: true
        }
    );
    let notice = coord.recv();
    assert_eq!(
        notice,
        Message::CrashNotice {
            node,
            cluster: ClusterId(0)
        }
    );

    // The dead id is blacklisted: claiming it again is refused...
    let mut ghost = Client::connect(port);
    assert!(ghost.join(0, Some(node.0)).is_err());
    // ...and fresh joins are never granted it.
    let mut fresh = Client::connect(port);
    assert_ne!(fresh.join(0, None).unwrap(), node);

    let metrics = shutdown(port, hub);
    assert_eq!(metrics.report().counter("net.deaths"), 1);
}

#[test]
fn stats_reports_are_forwarded_to_the_coordinator() {
    let (port, hub) = start_hub(Duration::from_secs(5));
    let mut coord = Client::connect(port);
    coord.send(Message::CoordinatorHello);
    let mut worker = Client::connect(port);
    let node = worker.join(0, None).unwrap();

    let report = sagrid_core::stats::MonitoringReport {
        node,
        cluster: ClusterId(0),
        period_end: sagrid_core::time::SimTime::from_millis(500),
        breakdown: sagrid_core::stats::OverheadBreakdown {
            busy: sagrid_core::time::SimDuration::from_millis(300),
            idle: sagrid_core::time::SimDuration::from_millis(200),
            ..Default::default()
        },
        speed: 1.0,
    };
    worker.send(Message::StatsReport {
        report,
        bench_micros: 1234,
    });
    match coord.recv() {
        Message::StatsReport {
            report: fwd,
            bench_micros,
        } => {
            assert_eq!(fwd.node, node);
            assert_eq!(fwd.breakdown, report.breakdown);
            assert_eq!(bench_micros, 1234);
        }
        other => panic!("expected forwarded StatsReport, got {other:?}"),
    }
    shutdown(port, hub);
}

#[test]
fn grow_reaches_the_launcher_and_claimed_joins_are_accepted() {
    let (port, hub) = start_hub(Duration::from_secs(5));
    let mut coord = Client::connect(port);
    coord.send(Message::CoordinatorHello);
    let mut launcher = Client::connect(port);
    launcher.send(Message::LauncherHello);

    coord.send(Message::Grow {
        count: 2,
        prefer: vec![ClusterId(0)],
        min_uplink_bps: None,
        min_speed: None,
    });
    let mut granted = Vec::new();
    for _ in 0..2 {
        match launcher.recv() {
            Message::SpawnWorker { node, cluster } => {
                assert_eq!(cluster, ClusterId(0));
                granted.push(node);
            }
            other => panic!("expected SpawnWorker, got {other:?}"),
        }
    }
    assert_eq!(granted, vec![NodeId(0), NodeId(1)]);

    // The spawned processes claim exactly the granted ids.
    let mut w0 = Client::connect(port);
    assert_eq!(w0.join(0, Some(granted[0].0)).unwrap(), granted[0]);
    // An id that was never granted (and never spawned) is refused.
    let mut rogue = Client::connect(port);
    assert!(rogue.join(0, Some(3)).is_err());

    launcher.send(Message::Shutdown);
    hub.join().expect("hub thread");
}

#[test]
fn shrink_signals_the_node_and_blacklists_its_id() {
    let (port, hub) = start_hub(Duration::from_secs(5));
    let mut coord = Client::connect(port);
    coord.send(Message::CoordinatorHello);
    let mut w0 = Client::connect(port);
    let n0 = w0.join(0, None).unwrap();
    let mut w1 = Client::connect(port);
    let n1 = w1.join(0, None).unwrap();

    coord.send(Message::Shrink {
        nodes: vec![n0],
        cluster: None,
    });
    assert_eq!(w0.recv(), Message::SignalLeave { node: n0 });
    w0.send(Message::Leaving { node: n0 });

    // The removed id is blacklisted: no rejoin, and fresh joins skip it.
    let mut ghost = Client::connect(port);
    assert!(ghost.join(0, Some(n0.0)).is_err());
    let mut fresh = Client::connect(port);
    let n2 = fresh.join(0, None).unwrap();
    assert_ne!(n2, n0);
    assert_ne!(n2, n1);

    shutdown(port, hub);
}

#[test]
fn transport_reconnect_of_an_alive_member_is_accepted() {
    let (port, hub) = start_hub(Duration::from_secs(5));
    let mut worker = Client::connect(port);
    let node = worker.join(0, None).unwrap();
    drop(worker); // the TCP connection dies; the member does not

    let mut back = Client::connect(port);
    assert_eq!(back.join(0, Some(node.0)).unwrap(), node);
    shutdown(port, hub);
}

/// Reads directory snapshots until one satisfies `pred` (snapshots are
/// idempotent full states, so skipping intermediates is always safe).
fn wait_directory(c: &mut Client, pred: impl Fn(&[PeerInfo]) -> bool) -> Vec<PeerInfo> {
    loop {
        let dir = next_directory(c);
        if pred(&dir) {
            return dir;
        }
    }
}

#[test]
fn peer_directory_reaches_members_and_prunes_on_leave() {
    let (port, hub) = start_hub(Duration::from_secs(5));

    // A joins and announces: A's own snapshot eventually carries A with
    // the hub-resolved cluster.
    let mut a = Client::connect(port);
    let na = a.join(0, None).unwrap();
    a.send(Message::PeerAnnounce {
        node: na,
        steal_addr: "127.0.0.1:7001".to_string(),
    });
    let dir = wait_directory(&mut a, |d| d.iter().any(|p| p.node == na));
    assert!(dir.contains(&PeerInfo {
        node: na,
        cluster: ClusterId(0),
        steal_addr: "127.0.0.1:7001".to_string(),
    }));

    // B joins another cluster: between the post-join snapshot and the
    // announce rebroadcasts, B learns about A without A resending a thing.
    let mut b = Client::connect(port);
    let nb = b.join(1, None).unwrap();
    b.send(Message::PeerAnnounce {
        node: nb,
        steal_addr: "127.0.0.1:7002".to_string(),
    });
    for (c, me) in [(&mut a, na), (&mut b, nb)] {
        let dir = wait_directory(c, |d| d.len() == 2);
        assert!(dir.iter().any(|p| p.node == me));
        assert!(dir
            .iter()
            .any(|p| p.node == nb && p.cluster == ClusterId(1)));
    }

    // A rogue announcement for somebody else's node id is ignored: B may
    // only speak for itself.
    b.send(Message::PeerAnnounce {
        node: na,
        steal_addr: "6.6.6.6:666".to_string(),
    });
    // B leaves: A's directory converges back to just A, with A's original
    // address — proving the rogue update never landed.
    b.send(Message::Leaving { node: nb });
    let dir = wait_directory(&mut a, |d| d.len() == 1);
    assert_eq!(dir[0].node, na);
    assert_eq!(dir[0].steal_addr, "127.0.0.1:7001");

    shutdown(port, hub);
}

#[test]
fn peer_directory_prunes_dead_members() {
    let (port, hub) = start_hub(Duration::from_millis(400));
    let mut a = Client::connect(port);
    let na = a.join(0, None).unwrap();
    a.send(Message::PeerAnnounce {
        node: na,
        steal_addr: "127.0.0.1:7001".to_string(),
    });
    let mut b = Client::connect(port);
    let nb = b.join(0, None).unwrap();
    b.send(Message::PeerAnnounce {
        node: nb,
        steal_addr: "127.0.0.1:7002".to_string(),
    });

    // B goes silent; A keeps heartbeating and waits for the pruned
    // snapshot driven by the failure detector.
    a.stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let deadline = Instant::now() + Duration::from_secs(5);
    // The hub interleaves frames from the two sockets arbitrarily, so an
    // early snapshot may hold either node alone; pruning is only proven
    // once B has been seen in the directory and then disappears from it.
    let mut seen_b = false;
    let pruned = loop {
        a.send(Message::Heartbeat { node: na });
        match recv_message(&mut a.stream) {
            Ok(Some(Message::PeerDirectory { peers })) => {
                seen_b |= peers.iter().any(|p| p.node == nb);
                if seen_b && peers.len() == 1 && peers[0].node == na {
                    break peers;
                }
            }
            Ok(Some(_)) => {}
            Ok(None) => panic!("hub closed the connection"),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                assert!(
                    Instant::now() < deadline,
                    "dead member was never pruned from the directory"
                );
            }
            Err(e) => panic!("recv: {e}"),
        }
    };
    assert_eq!(pruned[0].node, na);

    let metrics = shutdown(port, hub);
    assert_eq!(metrics.report().counter("net.deaths"), 1);
}

#[test]
fn leave_farewell_is_flushed_before_the_connection_is_torn_down() {
    let (port, hub) = start_hub(Duration::from_secs(5));
    let mut a = Client::connect(port);
    let na = a.join(0, None).unwrap();
    a.send(Message::PeerAnnounce {
        node: na,
        steal_addr: "127.0.0.1:7001".to_string(),
    });

    // B connects through a real `Connection` (the worker binary's path:
    // dedicated reader/writer threads, so a send() only queues).
    let (events_tx, events_rx) = std::sync::mpsc::channel::<NetEvent>();
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let conn = Connection::spawn(77, stream, events_tx).expect("spawn conn");
    conn.send(Message::Join {
        cluster: ClusterId(0),
        claim: None,
    });
    let nb = loop {
        match events_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("event")
        {
            NetEvent::Message(_, Message::JoinAck { node, accepted, .. }) => {
                assert!(accepted);
                break node;
            }
            other => drop(other), // Opened event holds a Connection clone
        }
    };
    conn.send(Message::PeerAnnounce {
        node: nb,
        steal_addr: "127.0.0.1:7002".to_string(),
    });

    // The farewell handshake under test: queue the Leaving frame, wait
    // until the writer confirms it reached the socket, then tear the
    // connection down immediately — no grace sleep.
    conn.send(Message::Leaving { node: nb });
    assert!(
        conn.flush(Duration::from_secs(5)),
        "writer never confirmed the farewell flush"
    );
    drop(conn);
    drop(events_rx);

    // Only the Leaving frame prunes the directory here (EOF alone never
    // does, and the heartbeat timeout is far beyond this test): once B has
    // appeared in a snapshot and the directory converges back to exactly
    // A, the farewell must have survived the teardown.
    let mut seen_b = false;
    let dir = loop {
        let d = next_directory(&mut a);
        seen_b |= d.iter().any(|p| p.node == nb);
        if seen_b && d.len() == 1 && d[0].node == na {
            break d;
        }
    };
    assert_eq!(dir[0].node, na);

    shutdown(port, hub);
}

/// Skips keepalives and other traffic until the next replication frame of
/// interest. The hub ticks `HubEpoch` keepalives every detect interval, so
/// a replica-side reader must be prepared to discard them.
fn next_matching(c: &mut Client, pred: impl Fn(&Message) -> bool) -> Message {
    loop {
        let msg = c.recv_raw();
        if pred(&msg) {
            return msg;
        }
    }
}

#[test]
fn replica_gets_snapshot_then_deltas_mirroring_the_control_plane() {
    let (port, hub) = start_hub(Duration::from_secs(5));

    // Attach as a standby: the hello is answered with a full snapshot of
    // the (still empty) control plane at the current epoch.
    let mut replica = Client::connect(port);
    replica.send(Message::ReplicaHello {
        replica: 7,
        addr: "127.0.0.1:61007".to_string(),
        log_offset: 0,
    });
    match next_matching(&mut replica, |m| matches!(m, Message::StateSnapshot { .. })) {
        Message::StateSnapshot { epoch, state, .. } => {
            assert_eq!(epoch, 1);
            assert!(state.members.is_empty());
            assert_eq!(state.replicas, vec![(7, "127.0.0.1:61007".to_string())]);
        }
        _ => unreachable!(),
    }

    // Every membership change now streams to the replica as a delta.
    let mut worker = Client::connect(port);
    let node = worker.join(0, None).unwrap();
    match next_matching(&mut replica, |m| matches!(m, Message::StateDelta { .. })) {
        Message::StateDelta { epoch, op, .. } => {
            assert_eq!(epoch, 1);
            assert_eq!(
                op,
                sagrid_net::ReplicaOp::Join {
                    node,
                    cluster: ClusterId(0)
                }
            );
        }
        _ => unreachable!(),
    }

    let metrics = shutdown(port, hub);
    let report = metrics.report();
    assert_eq!(report.counter("net.replica.snapshots_sent"), 1);
    // The ReplicaJoined op precedes the replica's own registration (no one
    // attached to fan it to), so only the worker's Join delta counts.
    assert!(report.counter("net.replica.deltas_sent") >= 1);
}

#[test]
fn stale_primary_writes_are_fenced_not_applied() {
    let (port, hub) = start_hub(Duration::from_secs(5));
    let mut worker = Client::connect(port);
    let node = worker.join(0, None).unwrap();

    // A stale primary (fenced off by a failover it has not noticed yet)
    // limps back and tries to push a write under its old epoch: the hub
    // must refuse the write and answer with the current epoch so the
    // stale peer can stand down.
    let mut stale = Client::connect(port);
    stale.send(Message::StateDelta {
        epoch: 0,
        log_offset: 99,
        op: sagrid_net::ReplicaOp::BlacklistNode { node },
    });
    match next_matching(&mut stale, |m| matches!(m, Message::HubEpoch { .. })) {
        Message::HubEpoch { epoch, leader } => {
            assert_eq!(epoch, 1);
            assert_eq!(leader, 0);
        }
        _ => unreachable!(),
    }

    // The refused blacklist never landed: a fresh replica's snapshot shows
    // a clean blacklist and the worker's membership intact...
    let mut replica = Client::connect(port);
    replica.send(Message::ReplicaHello {
        replica: 2,
        addr: "127.0.0.1:61002".to_string(),
        log_offset: 0,
    });
    match next_matching(&mut replica, |m| matches!(m, Message::StateSnapshot { .. })) {
        Message::StateSnapshot { state, .. } => {
            assert!(state.blacklisted_nodes.is_empty());
            assert!(state.members.iter().any(|&(n, ..)| n == node));
        }
        _ => unreachable!(),
    }
    // ...and the grid keeps serving joins as if nothing happened.
    let mut probe = Client::connect(port);
    probe.join(0, None).unwrap();

    let metrics = shutdown(port, hub);
    assert_eq!(metrics.report().counter("net.replica.fenced"), 1);
}

#[test]
fn newer_epoch_fences_the_hub_out_of_service() {
    let (port, hub) = start_hub(Duration::from_secs(5));
    let mut worker = Client::connect(port);
    worker.join(0, None).unwrap();

    // A frame from a NEWER epoch means this hub lost a failover it never
    // saw: it must stop serving immediately instead of splitting the
    // brain — no launcher shutdown required.
    let mut winner = Client::connect(port);
    winner.send(Message::HubEpoch {
        epoch: 5,
        leader: 3,
    });
    let metrics = hub.join().expect("hub thread");
    let report = metrics.report();
    let fenced: Vec<_> = report.events_of_kind("hub_fenced").collect();
    assert_eq!(fenced.len(), 1, "exactly one hub_fenced event");
    // After a fence-out the port is dead; there is nothing to shut down.
}

#[test]
fn shutdown_requires_the_launcher_role() {
    let (port, hub) = start_hub(Duration::from_secs(5));
    let mut worker = Client::connect(port);
    worker.join(0, None).unwrap();
    // A non-launcher Shutdown is ignored: the hub keeps serving.
    worker.send(Message::Shutdown);
    std::thread::sleep(Duration::from_millis(100));
    let mut probe = Client::connect(port);
    probe.join(0, None).unwrap();
    // A real launcher shutdown broadcasts to every connection and stops.
    let mut launcher = Client::connect(port);
    launcher.send(Message::LauncherHello);
    launcher.send(Message::Shutdown);
    assert_eq!(probe.recv(), Message::Shutdown);
    hub.join().expect("hub thread");
}
