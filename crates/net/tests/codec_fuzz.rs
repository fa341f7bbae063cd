//! Seeded, dependency-free fuzz tests for the control-plane codec.
//!
//! The wire decoder faces bytes from the network; nothing about them can
//! be trusted. These tests take a valid encoding of every [`Message`]
//! variant and damage it the two ways a hostile or broken peer would —
//! truncation and bit flips — asserting the decoder never panics and
//! never allocates beyond the frame bound. Flipped bytes may legitimately
//! decode (a flipped bit inside a `u64` field is just a different valid
//! message); when they do, the decoded value must re-encode and decode
//! back to itself, i.e. damage can change the message but never produce a
//! value outside the codec's closed set.
//!
//! The same fixture pins the wire format itself: the framed fixture
//! stream and the replicated state its deltas build are compared against
//! golden hashes, so a codec change that moves a single byte fails here.
//!
//! Everything is seeded through the workspace RNG, so a failure
//! reproduces exactly.

use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::rng::{Rng64, SplitMix64};
use sagrid_core::stats::{MonitoringReport, OverheadBreakdown};
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_net::wire::{recv_message, send_message, Message, PeerInfo, StealJob, WireError};
use sagrid_net::{ControlSnapshot, ControlState, FrameDecoder, MemberPhase, Reactor, ReplicaOp};
use std::collections::BTreeSet;

/// One representative encoding of every variant (and every interesting
/// shape within a variant: `None`/`Some` options, empty/filled lists,
/// non-ASCII strings, floats without a short decimal form) and of every
/// [`ReplicaOp`]. `fixture_covers_every_tag_and_op` fails until a new
/// variant is added here.
fn every_message() -> Vec<Message> {
    let report = MonitoringReport {
        node: NodeId(7),
        cluster: ClusterId(2),
        period_end: SimTime::from_millis(1234),
        breakdown: OverheadBreakdown {
            busy: SimDuration(100),
            idle: SimDuration(20),
            intra_comm: SimDuration(3),
            inter_comm: SimDuration(4),
            benchmark: SimDuration(5),
        },
        speed: 0.4375,
    };
    let peer = |node: u32, cluster: u16, addr: &str| PeerInfo {
        node: NodeId(node),
        cluster: ClusterId(cluster),
        steal_addr: addr.to_string(),
    };
    let delta = |epoch: u64, log_offset: u64, op: ReplicaOp| Message::StateDelta {
        epoch,
        log_offset,
        op,
    };
    vec![
        Message::Join {
            cluster: ClusterId(3),
            claim: None,
        },
        Message::Join {
            cluster: ClusterId(0),
            claim: Some(NodeId(42)),
        },
        Message::JoinAck {
            node: NodeId(9),
            accepted: true,
            reason: String::new(),
        },
        Message::JoinAck {
            node: NodeId(9),
            accepted: false,
            reason: "node n9 is blacklisted — π≠\"3\"".to_string(),
        },
        Message::Heartbeat { node: NodeId(1) },
        Message::StatsReport {
            report,
            bench_micros: 1500,
        },
        Message::StatsReport {
            report: MonitoringReport {
                speed: 0.1 + 0.2,
                ..report
            },
            bench_micros: u64::MAX,
        },
        Message::Leaving { node: NodeId(5) },
        Message::SignalLeave { node: NodeId(6) },
        Message::CrashNotice {
            node: NodeId(8),
            cluster: ClusterId(1),
        },
        Message::SuspectNotice {
            node: NodeId(8),
            suspected: true,
        },
        Message::SuspectNotice {
            node: NodeId(8),
            suspected: false,
        },
        Message::CoordinatorHello,
        Message::LauncherHello,
        Message::Grow {
            count: 4,
            prefer: vec![ClusterId(0), ClusterId(2)],
            min_uplink_bps: Some(1e6),
            min_speed: None,
        },
        Message::Grow {
            count: 1,
            prefer: vec![],
            min_uplink_bps: None,
            min_speed: Some(0.75),
        },
        Message::Shrink {
            nodes: vec![NodeId(3), NodeId(1)],
            cluster: Some(ClusterId(4)),
        },
        Message::Shrink {
            nodes: vec![NodeId(3), NodeId(1)],
            cluster: None,
        },
        Message::Shrink {
            nodes: vec![NodeId(10), NodeId(11)],
            cluster: Some(ClusterId(4)),
        },
        Message::SpawnWorker {
            node: NodeId(12),
            cluster: ClusterId(1),
        },
        Message::Shutdown,
        Message::PeerAnnounce {
            node: NodeId(3),
            steal_addr: "127.0.0.1:45231".to_string(),
        },
        Message::PeerDirectory { peers: vec![] },
        Message::PeerDirectory {
            peers: vec![peer(0, 0, "127.0.0.1:9001"), peer(5, 1, "10.0.0.7:9002")],
        },
        Message::StealRequest { thief: NodeId(2) },
        Message::StealReply { job: None },
        Message::StealReply {
            job: Some(StealJob {
                id: 99,
                payload: vec![0x01, 0xff, 0x00, 0x7f],
            }),
        },
        Message::StealResult {
            id: 99,
            value: u64::MAX,
        },
        Message::Perturb {
            cluster: ClusterId(1),
            count: 0,
            speed: Some(0.25),
            inter_frac: None,
        },
        Message::Perturb {
            cluster: ClusterId(4),
            count: 3,
            speed: None,
            inter_frac: Some(0.4),
        },
        Message::Perturb {
            cluster: ClusterId(2),
            count: 0,
            speed: Some(0.1),
            inter_frac: None,
        },
        Message::Perturb {
            cluster: ClusterId(0),
            count: 6,
            speed: None,
            inter_frac: Some(0.45),
        },
        // Replication plane: hello/snapshot/delta/ack/epoch.
        Message::ReplicaHello {
            replica: 1,
            addr: "127.0.0.1:61001".to_string(),
            log_offset: 0,
        },
        Message::ReplicaHello {
            replica: 2,
            addr: "127.0.0.1:7002".to_string(),
            log_offset: 0,
        },
        Message::StateSnapshot {
            epoch: 1,
            log_offset: 0,
            state: ControlSnapshot::default(),
        },
        Message::StateSnapshot {
            epoch: 3,
            log_offset: 77,
            state: ControlSnapshot {
                members: vec![
                    (NodeId(0), ClusterId(0), MemberPhase::Alive),
                    (NodeId(1), ClusterId(0), MemberPhase::Leaving),
                    (NodeId(2), ClusterId(1), MemberPhase::Left),
                    (NodeId(3), ClusterId(1), MemberPhase::Dead),
                ],
                blacklisted_nodes: vec![NodeId(3)],
                blacklisted_clusters: vec![ClusterId(2)],
                peers: vec![peer(0, 0, "127.0.0.1:9001")],
                bandwidth: vec![(NodeId(0), 1500), (NodeId(1), u64::MAX)],
                replicas: vec![(1, "127.0.0.1:61001".to_string())],
            },
        },
        Message::StateSnapshot {
            epoch: 3,
            log_offset: 42,
            state: ControlSnapshot {
                members: vec![
                    (NodeId(0), ClusterId(0), MemberPhase::Alive),
                    (NodeId(1), ClusterId(1), MemberPhase::Leaving),
                    (NodeId(2), ClusterId(0), MemberPhase::Left),
                    (NodeId(3), ClusterId(1), MemberPhase::Dead),
                ],
                blacklisted_nodes: vec![NodeId(3)],
                blacklisted_clusters: vec![ClusterId(4)],
                peers: vec![peer(0, 0, "127.0.0.1:9001")],
                bandwidth: vec![(NodeId(0), 1500), (NodeId(1), u64::MAX)],
                replicas: vec![(2, "127.0.0.1:7002".to_string())],
            },
        },
        delta(
            1,
            4,
            ReplicaOp::Join {
                node: NodeId(9),
                cluster: ClusterId(1),
            },
        ),
        delta(1, 5, ReplicaOp::BlacklistNode { node: NodeId(9) }),
        delta(
            2,
            6,
            ReplicaOp::PeerDir {
                peers: vec![peer(4, 0, "10.0.0.4:9004")],
            },
        ),
        delta(
            2,
            7,
            ReplicaOp::Bandwidth {
                node: NodeId(4),
                bench_micros: 2500,
            },
        ),
        delta(
            2,
            8,
            ReplicaOp::ReplicaJoined {
                replica: 2,
                addr: "127.0.0.1:61002".to_string(),
            },
        ),
        delta(
            3,
            43,
            ReplicaOp::Join {
                node: NodeId(9),
                cluster: ClusterId(1),
            },
        ),
        delta(3, 44, ReplicaOp::Leave { node: NodeId(9) }),
        delta(3, 45, ReplicaOp::Death { node: NodeId(2) }),
        delta(3, 46, ReplicaOp::BlacklistNode { node: NodeId(2) }),
        delta(
            3,
            47,
            ReplicaOp::BlacklistCluster {
                cluster: ClusterId(1),
            },
        ),
        delta(
            3,
            48,
            ReplicaOp::PeerDir {
                peers: vec![peer(5, 1, "10.0.0.7:9002")],
            },
        ),
        delta(
            3,
            49,
            ReplicaOp::Bandwidth {
                node: NodeId(5),
                bench_micros: 2750,
            },
        ),
        delta(
            3,
            50,
            ReplicaOp::ReplicaJoined {
                replica: 4,
                addr: "127.0.0.1:7004".to_string(),
            },
        ),
        Message::ReplicaAck {
            replica: 1,
            log_offset: 8,
        },
        Message::ReplicaAck {
            replica: 2,
            log_offset: 50,
        },
        Message::HubEpoch {
            epoch: 2,
            leader: 1,
        },
        Message::HubEpoch {
            epoch: 2,
            leader: 2,
        },
    ]
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every tag the decoder knows must appear in the fixture, and so must
/// every replication-op tag. Known tags are found by asking the decoder
/// itself (an unknown tag is `BadTag`, a known one is not), so a new
/// variant fails this test until the fixture carries it.
#[test]
fn fixture_covers_every_tag_and_op() {
    let msgs = every_message();
    let known: BTreeSet<u8> = (0..=u8::MAX)
        .filter(|&t| Message::decode(&[t]) != Err(WireError::BadTag(t)))
        .collect();
    assert_eq!(known, (0x01..=0x19).collect());
    let fixture: BTreeSet<u8> = msgs.iter().map(|m| m.encode()[0]).collect();
    assert_eq!(fixture, known, "fixture misses a message tag");

    // A StateDelta (0x16) carries its op tag after the epoch and offset.
    const OP_AT: usize = 1 + 8 + 8;
    let delta_with_op = |op: u8| {
        let mut b = vec![0u8; OP_AT + 1];
        b[0] = 0x16;
        b[OP_AT] = op;
        b
    };
    let known_ops: BTreeSet<u8> = (0..=u8::MAX)
        .filter(|&op| Message::decode(&delta_with_op(op)) != Err(WireError::BadTag(op)))
        .collect();
    assert_eq!(known_ops, (0..=7).collect());
    let fixture_ops: BTreeSet<u8> = msgs
        .iter()
        .filter(|m| matches!(m, Message::StateDelta { .. }))
        .map(|m| m.encode()[OP_AT])
        .collect();
    assert_eq!(fixture_ops, known_ops, "fixture misses a replication op");
}

/// The wire format is frozen: deployed peers and the benchmark depend on
/// it. The framed fixture stream and the replicated state built from the
/// fixture's deltas are pinned by length and FNV-1a.
#[test]
fn golden_wire_format_pin() {
    let msgs = every_message();
    let mut stream = Vec::new();
    let mut sent = Vec::new();
    for m in &msgs {
        stream.extend_from_slice(&Reactor::encode_frame(m));
        send_message(&mut sent, m).unwrap();
    }
    assert_eq!(sent, stream, "blocking and reactor framing disagree");
    assert_eq!(msgs.len(), 54);
    assert_eq!(stream.len(), 1582);
    assert_eq!(fnv1a64(&stream), 0x2098_4c7a_b809_d0b8);

    let mut state = ControlState::default();
    for m in &msgs {
        if let Message::StateDelta { op, .. } = m {
            state.apply(op);
        }
    }
    let canonical = state.canonical_bytes();
    assert_eq!(canonical.len(), 133);
    assert_eq!(fnv1a64(&canonical), state.digest());
    assert_eq!(state.digest(), 0x4f5a_f59a_84a1_e62d);
}

#[test]
fn every_message_round_trips_bit_exactly() {
    for msg in every_message() {
        let bytes = msg.encode();
        let back = Message::decode(&bytes).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
        assert_eq!(back, msg);
        // Equal bytes, not just equal values: f64 fields travel as their
        // bit patterns.
        assert_eq!(back.encode(), bytes, "{msg:?} re-encodes differently");
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    for msg in every_message() {
        let mut bytes = msg.encode();
        bytes.push(0xff);
        assert_eq!(Message::decode(&bytes), Err(WireError::Trailing(1)));
    }
}

#[test]
fn frames_round_trip_over_a_buffer() {
    let mut buf = Vec::new();
    for msg in every_message() {
        send_message(&mut buf, &msg).unwrap();
    }
    let mut r = std::io::Cursor::new(buf);
    for msg in every_message() {
        assert_eq!(recv_message(&mut r).unwrap(), Some(msg));
    }
    assert_eq!(recv_message(&mut r).unwrap(), None, "clean EOF");
}

#[test]
fn every_truncation_is_an_error_never_a_panic() {
    for msg in every_message() {
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            // A strict prefix can never be a complete message: every
            // variant either has fixed width or carries length prefixes
            // that then over-claim the remaining bytes.
            assert!(
                Message::decode(&bytes[..cut]).is_err(),
                "{msg:?} truncated to {cut}/{} bytes decoded Ok",
                bytes.len()
            );
        }
    }
}

#[test]
fn bit_flips_never_panic_and_ok_decodes_stay_canonical() {
    let mut rng = SplitMix64::new(0x000C_0DEC_FA22 ^ 0x5eed);
    for msg in every_message() {
        let bytes = msg.encode();
        // Every single-bit flip for small messages; a seeded sample of
        // 512 flips for larger ones.
        let total_bits = bytes.len() * 8;
        let flips: Vec<usize> = if total_bits <= 512 {
            (0..total_bits).collect()
        } else {
            (0..512).map(|_| rng.gen_index(total_bits)).collect()
        };
        for bit in flips {
            let mut damaged = bytes.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            // A flipped tag, length or enum-discriminant bit must surface
            // as a decode error, not a panic or a giant allocation (the
            // length guards bound every list by the bytes actually
            // present). A flipped value bit instead yields a different
            // valid message; it must sit inside the codec's closed set:
            // re-encoding and decoding reproduces it exactly.
            if let Ok(m) = Message::decode(&damaged) {
                let re = m.encode();
                assert_eq!(
                    Message::decode(&re).as_ref(),
                    Ok(&m),
                    "{msg:?} bit {bit}: mutant decoded to {m:?} which does not round-trip"
                );
            }
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SplitMix64::new(0xBAD_B17E5);
    for _ in 0..2000 {
        let len = rng.gen_index(96);
        let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Any outcome but a panic is acceptable; Ok values must be
        // canonical like above.
        if let Ok(m) = Message::decode(&buf) {
            assert_eq!(Message::decode(&m.encode()).as_ref(), Ok(&m));
        }
    }
}

/// The reactor's incremental [`FrameDecoder`] must agree byte-for-byte
/// with the one-shot path, no matter how the kernel slices the stream.
/// Every variant is fed one byte at a time: nothing may surface before
/// the final byte, and the surfaced message must equal the original.
#[test]
fn incremental_decode_byte_at_a_time_matches_one_shot() {
    for msg in every_message() {
        let frame = Reactor::encode_frame(&msg);
        let one_shot = Message::decode(&frame[4..]).expect("one-shot decode");
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for (i, b) in frame.iter().enumerate() {
            dec.feed(std::slice::from_ref(b), &mut got)
                .unwrap_or_else(|e| panic!("{msg:?} byte {i}: {e:?}"));
            if i + 1 < frame.len() {
                assert!(got.is_empty(), "{msg:?} surfaced early at byte {i}");
                assert!(!dec.at_boundary(), "{msg:?} claimed boundary mid-frame");
            }
        }
        assert_eq!(got, vec![one_shot], "{msg:?} byte-at-a-time mismatch");
        assert_eq!(got[0], msg);
        assert!(dec.at_boundary(), "{msg:?} not at a frame boundary after");
    }
}

/// The whole fixture set concatenated into one stream, then replayed
/// under seeded random split points (the shapes `read(2)` actually
/// produces: short reads straddling length prefixes and frame bodies).
/// Every trial must reproduce the exact message sequence.
#[test]
fn incremental_decode_survives_randomized_split_points() {
    let msgs = every_message();
    let mut stream: Vec<u8> = Vec::new();
    for m in &msgs {
        stream.extend_from_slice(&Reactor::encode_frame(m));
    }
    let mut rng = SplitMix64::new(0x0DEC_0DE5_5EED);
    for trial in 0..200usize {
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut pos = 0;
        // Vary the chunk-size regime per trial so both dribbles and
        // near-whole-frame reads are covered.
        let max_chunk = 1 + trial % 97;
        while pos < stream.len() {
            let chunk = 1 + rng.gen_index((stream.len() - pos).min(max_chunk));
            dec.feed(&stream[pos..pos + chunk], &mut got)
                .unwrap_or_else(|e| panic!("trial {trial} at {pos}: {e:?}"));
            pos += chunk;
        }
        assert_eq!(got, msgs, "trial {trial}: stream did not reproduce");
        assert!(dec.at_boundary(), "trial {trial}: dangling partial frame");
    }
}

/// An over-claiming length prefix must be rejected as soon as the header
/// completes — before any payload allocation — even when the header
/// itself arrives one byte at a time.
#[test]
fn incremental_decode_rejects_oversized_frames_at_the_header() {
    let huge = ((1u32 << 20) + 1).to_le_bytes();
    let mut dec = FrameDecoder::new();
    let mut got = Vec::new();
    for (i, b) in huge.iter().enumerate() {
        let fed = dec.feed(std::slice::from_ref(b), &mut got);
        if i < 3 {
            assert!(fed.is_ok(), "rejected before the length was known");
        } else {
            assert!(fed.is_err(), "accepted a frame beyond the bound");
        }
    }
    assert!(got.is_empty());
}

#[test]
fn multi_byte_corruption_never_panics() {
    let mut rng = SplitMix64::new(0xDEAD_BEEF_CAFE);
    for msg in every_message() {
        let bytes = msg.encode();
        if bytes.is_empty() {
            continue;
        }
        for _ in 0..64 {
            let mut damaged = bytes.clone();
            // Overwrite a random run of bytes with random values: the
            // classic way a length prefix gets replaced by a huge claim.
            let start = rng.gen_index(damaged.len());
            let run = 1 + rng.gen_index((damaged.len() - start).min(8));
            for b in &mut damaged[start..start + run] {
                *b = rng.next_u64() as u8;
            }
            if let Ok(m) = Message::decode(&damaged) {
                assert_eq!(Message::decode(&m.encode()).as_ref(), Ok(&m));
            }
        }
    }
}
