//! Replication log and materialised control-plane state.
//!
//! The primary hub applies one [`ReplicaOp`] for every control-plane
//! transition (join, leave, death, blacklist, peer-directory change,
//! learned-bandwidth update, replica attach), gives it the next log offset
//! and fans it out to every attached standby as a
//! [`crate::wire::Message::StateDelta`]. Ops are not retained: a standby
//! that attaches late gets a snapshot at the current offset instead. A
//! standby materialises the stream into a [`ControlState`] — byte-equivalent
//! to the primary's own copy by construction, because the primary applies
//! every op through the *same* [`ControlState::apply`] before broadcasting
//! it. Byte equivalence is checkable via [`ControlState::canonical_bytes`]
//! (a stable, sorted encoding) or its FNV-1a [`ControlState::digest`].
//!
//! What is replicated: membership phases, both blacklists, the steal-plane
//! peer directory, the last learned speed-benchmark per node, and the
//! standby set itself (id → advertised address, so surviving standbys can
//! find the election winner). What is *not* replicated: live socket state,
//! pending spawn grants and in-flight statistics — a new primary recovers
//! those from worker reconnects, which re-claim ids and re-announce steal
//! listeners through the ordinary join path.

use crate::wire::{PeerInfo, Wire};
use sagrid_core::ids::{ClusterId, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// Replicated view of a member's lifecycle phase (mirrors
/// `sagrid_registry::MemberState`, but owned by the wire layer so the codec
/// has a stable byte mapping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberPhase {
    /// Participating in the computation.
    Alive,
    /// Signalled out; still alive until it confirms.
    Leaving,
    /// Left gracefully (may re-join later).
    Left,
    /// Declared dead by the failure detector.
    Dead,
}

impl MemberPhase {
    /// Stable wire byte for the phase.
    pub fn to_byte(self) -> u8 {
        match self {
            MemberPhase::Alive => 0,
            MemberPhase::Leaving => 1,
            MemberPhase::Left => 2,
            MemberPhase::Dead => 3,
        }
    }

    /// Inverse of [`MemberPhase::to_byte`]; `None` for unknown bytes.
    pub fn from_byte(b: u8) -> Option<MemberPhase> {
        match b {
            0 => Some(MemberPhase::Alive),
            1 => Some(MemberPhase::Leaving),
            2 => Some(MemberPhase::Left),
            3 => Some(MemberPhase::Dead),
            _ => None,
        }
    }
}

/// One replicated control-plane transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicaOp {
    /// A node joined (fresh join or hub-requested spawn claim).
    Join {
        /// The joining node.
        node: NodeId,
        /// Its cluster.
        cluster: ClusterId,
    },
    /// A node left gracefully.
    Leave {
        /// The departing node.
        node: NodeId,
    },
    /// The failure detector declared a node dead.
    Death {
        /// The dead node.
        node: NodeId,
    },
    /// A node was blacklisted (death or shrink removal).
    BlacklistNode {
        /// The blacklisted node.
        node: NodeId,
    },
    /// An entire cluster was blacklisted (cluster shrink).
    BlacklistCluster {
        /// The blacklisted cluster.
        cluster: ClusterId,
    },
    /// Full steal-plane peer directory snapshot (the directory already
    /// travels to workers as idempotent snapshots; replicas get the same).
    PeerDir {
        /// Every known peer.
        peers: Vec<PeerInfo>,
    },
    /// The last learned speed-benchmark duration for a node changed.
    Bandwidth {
        /// The measured node.
        node: NodeId,
        /// Benchmark duration in microseconds.
        bench_micros: u64,
    },
    /// A standby hub attached (its id and where it can be dialled, so the
    /// whole standby set can find the election winner after a failover).
    ReplicaJoined {
        /// The standby's replica id (primary is implicitly 0).
        replica: u32,
        /// `host:port` the standby will serve on after a takeover.
        addr: String,
    },
}

/// Flat, wire-friendly form of a [`ControlState`] (sorted vectors; travels
/// in [`crate::wire::Message::StateSnapshot`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ControlSnapshot {
    /// Every known member with its cluster and phase, ascending by node.
    pub members: Vec<(NodeId, ClusterId, MemberPhase)>,
    /// Blacklisted nodes, ascending.
    pub blacklisted_nodes: Vec<NodeId>,
    /// Blacklisted clusters, ascending.
    pub blacklisted_clusters: Vec<ClusterId>,
    /// Steal-plane peer directory, ascending by node.
    pub peers: Vec<PeerInfo>,
    /// Last learned benchmark per node (microseconds), ascending by node.
    pub bandwidth: Vec<(NodeId, u64)>,
    /// Attached standby hubs: replica id → advertised address, ascending.
    pub replicas: Vec<(u32, String)>,
}

/// Materialised control-plane state — the thing a standby must hold a
/// byte-equivalent copy of to take over without losing blacklist
/// permanence or learned bandwidth.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ControlState {
    /// Member → (cluster, phase).
    pub members: BTreeMap<NodeId, (ClusterId, MemberPhase)>,
    /// Nodes that may never rejoin.
    pub blacklisted_nodes: BTreeSet<NodeId>,
    /// Clusters that may never be granted from again.
    pub blacklisted_clusters: BTreeSet<ClusterId>,
    /// Steal-plane peer directory.
    pub peers: BTreeMap<NodeId, PeerInfo>,
    /// Last learned benchmark per node (microseconds).
    pub bandwidth: BTreeMap<NodeId, u64>,
    /// Standby set: replica id → advertised address.
    pub replicas: BTreeMap<u32, String>,
}

impl ControlState {
    /// Applies one op. Idempotent where the op semantics allow (blacklist
    /// inserts, directory snapshots), last-writer-wins elsewhere — the
    /// primary serialises ops, so a replica applying them in log order
    /// converges exactly.
    pub fn apply(&mut self, op: &ReplicaOp) {
        match op {
            ReplicaOp::Join { node, cluster } => {
                self.members.insert(*node, (*cluster, MemberPhase::Alive));
            }
            ReplicaOp::Leave { node } => {
                if let Some(m) = self.members.get_mut(node) {
                    m.1 = MemberPhase::Left;
                }
            }
            ReplicaOp::Death { node } => {
                if let Some(m) = self.members.get_mut(node) {
                    m.1 = MemberPhase::Dead;
                }
            }
            ReplicaOp::BlacklistNode { node } => {
                self.blacklisted_nodes.insert(*node);
            }
            ReplicaOp::BlacklistCluster { cluster } => {
                self.blacklisted_clusters.insert(*cluster);
            }
            ReplicaOp::PeerDir { peers } => {
                self.peers = peers.iter().map(|p| (p.node, p.clone())).collect();
            }
            ReplicaOp::Bandwidth { node, bench_micros } => {
                self.bandwidth.insert(*node, *bench_micros);
            }
            ReplicaOp::ReplicaJoined { replica, addr } => {
                self.replicas.insert(*replica, addr.clone());
            }
        }
    }

    /// Flattens into the wire snapshot form (sorted by construction —
    /// `BTreeMap` iteration order).
    pub fn snapshot(&self) -> ControlSnapshot {
        ControlSnapshot {
            members: self.members.iter().map(|(&n, &(c, p))| (n, c, p)).collect(),
            blacklisted_nodes: self.blacklisted_nodes.iter().copied().collect(),
            blacklisted_clusters: self.blacklisted_clusters.iter().copied().collect(),
            peers: self.peers.values().cloned().collect(),
            bandwidth: self.bandwidth.iter().map(|(&n, &b)| (n, b)).collect(),
            replicas: self.replicas.iter().map(|(&r, a)| (r, a.clone())).collect(),
        }
    }

    /// Rebuilds the materialised state from a wire snapshot.
    pub fn from_snapshot(s: &ControlSnapshot) -> ControlState {
        ControlState {
            members: s.members.iter().map(|&(n, c, p)| (n, (c, p))).collect(),
            blacklisted_nodes: s.blacklisted_nodes.iter().copied().collect(),
            blacklisted_clusters: s.blacklisted_clusters.iter().copied().collect(),
            peers: s.peers.iter().map(|p| (p.node, p.clone())).collect(),
            bandwidth: s.bandwidth.iter().copied().collect(),
            replicas: s.replicas.iter().cloned().collect(),
        }
    }

    /// Stable byte encoding: the snapshot's wire encoding, as carried by a
    /// `StateSnapshot` (sorted, little-endian). Two states are
    /// byte-equivalent iff these vectors are equal.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        self.snapshot().to_bytes()
    }

    /// FNV-1a over [`ControlState::canonical_bytes`] — a cheap equivalence
    /// check that fits in a JSONL event field.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.canonical_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(n: u32, c: u16, addr: &str) -> PeerInfo {
        PeerInfo {
            node: NodeId(n),
            cluster: ClusterId(c),
            steal_addr: addr.to_string(),
        }
    }

    fn sample_ops() -> Vec<ReplicaOp> {
        vec![
            ReplicaOp::Join {
                node: NodeId(0),
                cluster: ClusterId(0),
            },
            ReplicaOp::Join {
                node: NodeId(1),
                cluster: ClusterId(1),
            },
            ReplicaOp::ReplicaJoined {
                replica: 2,
                addr: "127.0.0.1:7002".to_string(),
            },
            ReplicaOp::PeerDir {
                peers: vec![peer(0, 0, "127.0.0.1:9000"), peer(1, 1, "127.0.0.1:9001")],
            },
            ReplicaOp::Bandwidth {
                node: NodeId(0),
                bench_micros: 1500,
            },
            ReplicaOp::Death { node: NodeId(1) },
            ReplicaOp::BlacklistNode { node: NodeId(1) },
            ReplicaOp::PeerDir {
                peers: vec![peer(0, 0, "127.0.0.1:9000")],
            },
            ReplicaOp::BlacklistCluster {
                cluster: ClusterId(1),
            },
            ReplicaOp::Leave { node: NodeId(0) },
        ]
    }

    #[test]
    fn primary_and_replica_converge_byte_for_byte() {
        // The primary applies ops as it appends them; a replica applies the
        // same stream in log order. Both must land on identical bytes.
        let mut primary = ControlState::default();
        let mut replica = ControlState::default();
        for op in sample_ops() {
            primary.apply(&op);
            replica.apply(&op);
        }
        assert_eq!(primary, replica);
        assert_eq!(primary.canonical_bytes(), replica.canonical_bytes());
        assert_eq!(primary.digest(), replica.digest());
    }

    #[test]
    fn snapshot_round_trips_the_materialised_state() {
        let mut st = ControlState::default();
        for op in sample_ops() {
            st.apply(&op);
        }
        let snap = st.snapshot();
        let back = ControlState::from_snapshot(&snap);
        assert_eq!(back, st);
        assert_eq!(back.canonical_bytes(), st.canonical_bytes());
    }

    #[test]
    fn snapshot_then_deltas_equals_full_replay() {
        // A standby that attaches mid-stream (snapshot at op k, deltas
        // after) must converge with one that replayed everything.
        let ops = sample_ops();
        for k in 0..ops.len() {
            let mut full = ControlState::default();
            for op in &ops {
                full.apply(op);
            }
            let mut head = ControlState::default();
            for op in &ops[..k] {
                head.apply(op);
            }
            let mut late = ControlState::from_snapshot(&head.snapshot());
            for op in &ops[k..] {
                late.apply(op);
            }
            assert_eq!(late.digest(), full.digest(), "attach at op {k}");
        }
    }

    #[test]
    fn blacklist_and_bandwidth_survive_apply_order() {
        let mut st = ControlState::default();
        st.apply(&ReplicaOp::BlacklistNode { node: NodeId(7) });
        st.apply(&ReplicaOp::BlacklistNode { node: NodeId(7) });
        st.apply(&ReplicaOp::Bandwidth {
            node: NodeId(3),
            bench_micros: 100,
        });
        st.apply(&ReplicaOp::Bandwidth {
            node: NodeId(3),
            bench_micros: 250,
        });
        assert_eq!(st.blacklisted_nodes.len(), 1);
        assert_eq!(st.bandwidth.get(&NodeId(3)), Some(&250));
    }

    #[test]
    fn member_phase_bytes_round_trip_and_reject_garbage() {
        for p in [
            MemberPhase::Alive,
            MemberPhase::Leaving,
            MemberPhase::Left,
            MemberPhase::Dead,
        ] {
            assert_eq!(MemberPhase::from_byte(p.to_byte()), Some(p));
        }
        assert_eq!(MemberPhase::from_byte(4), None);
        assert_eq!(MemberPhase::from_byte(0xff), None);
    }
}
