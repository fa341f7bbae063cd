//! Length-prefixed binary framing and the hand-rolled control-plane codec.
//!
//! Every frame on the wire is a 4-byte little-endian payload length followed
//! by the payload; the payload is one [`Message`], encoded as a tag byte
//! plus fixed-width little-endian fields (f64s travel as their IEEE-754 bit
//! patterns, so values round-trip exactly). The format is documented in
//! DESIGN.md §"Wire protocol"; no external serialisation crate is used.
//!
//! One crate-private `Wire` trait holds each layout in both directions:
//! implemented once per primitive, option, list and tuple, by a field list
//! per struct and by one tag table per enum (`Message`, and `ReplicaOp`
//! inside a `StateDelta`). Those tables, at the end of the type
//! definitions below, are the format.

use crate::replog::{ControlSnapshot, MemberPhase, ReplicaOp};
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::stats::{MonitoringReport, OverheadBreakdown};
use sagrid_core::time::{SimDuration, SimTime};
use std::io::{self, Read, Write};

/// Upper bound on a frame payload. Control-plane messages are tiny; a larger
/// length prefix means a corrupt or hostile peer and the connection drops.
pub const MAX_FRAME: usize = 1 << 20;

/// A decoding failure. The transport treats any of these as a protocol
/// violation and closes the connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message did.
    Truncated,
    /// Bytes remained after the message was fully decoded.
    Trailing(usize),
    /// Unknown message tag.
    BadTag(u8),
    /// A boolean field held something other than 0 or 1.
    BadBool(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A length prefix exceeded [`MAX_FRAME`].
    FrameTooLarge(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadBool(b) => write!(f, "invalid boolean byte {b:#04x}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One worker's entry in the steal-plane peer directory: where its steal
/// listener can be dialled, and which cluster it sits in (CRS victim
/// selection is cluster-aware).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerInfo {
    /// The peer's node id.
    pub node: NodeId,
    /// The peer's cluster (drives local-first victim selection).
    pub cluster: ClusterId,
    /// `host:port` of the peer's steal listener.
    pub steal_addr: String,
}

/// A serialized divide-and-conquer job travelling in a [`Message::StealReply`].
///
/// `id` is victim-local: the thief echoes it back in the
/// [`Message::StealResult`] so the victim can complete the right join slot.
/// `payload` is an application-level encoding (`sagrid_apps::remote`) that
/// the thief reconstructs and executes in its own process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StealJob {
    /// Victim-local job id, echoed in the result.
    pub id: u64,
    /// Application-encoded job (opaque to the control plane).
    pub payload: Vec<u8>,
}

/// Every control-plane message of the process-mode deployment.
///
/// Direction conventions: workers send `Join`/`Heartbeat`/`StatsReport`/
/// `Leaving`/`PeerAnnounce`; the hub sends `JoinAck`/`SignalLeave`/
/// `SpawnWorker`/`CrashNotice`/`PeerDirectory`/`Shutdown`; the
/// out-of-process coordinator sends `CoordinatorHello`/`Grow`/`Shrink`;
/// the launcher sends `LauncherHello`, `Shutdown` and — when driving a
/// scenario file — `Perturb`, `Grow` (an external capacity grant) and
/// `SignalLeave` (a graceful scenario shrink). The steal plane
/// (`StealRequest`/`StealReply`/`StealResult`) travels worker ↔ worker on
/// dedicated connections, not through the hub.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// A worker asks to join. `claim` is `None` for a fresh worker (the hub
    /// allocates a node id from the pool) and `Some` when re-claiming an id:
    /// either a reconnect after a transport drop, or a spawn the hub itself
    /// requested via [`Message::SpawnWorker`].
    Join {
        /// Cluster the worker wants to (or was told to) join.
        cluster: ClusterId,
        /// Previously assigned node id, if any.
        claim: Option<NodeId>,
    },
    /// The hub's verdict on a `Join`.
    JoinAck {
        /// The assigned (or confirmed) node id. Meaningless when refused.
        node: NodeId,
        /// Whether the worker is in.
        accepted: bool,
        /// Human-readable refusal reason (empty when accepted).
        reason: String,
    },
    /// Periodic liveness signal; maps onto `Membership::heartbeat`.
    Heartbeat {
        /// The heartbeating node.
        node: NodeId,
    },
    /// End-of-period statistics, forwarded by the hub to the coordinator.
    StatsReport {
        /// The per-node statistics record from `sagrid_core`.
        report: MonitoringReport,
        /// Raw speed-benchmark duration in microseconds (0 = no benchmark
        /// this period); the coordinator normalises these into relative
        /// speeds.
        bench_micros: u64,
    },
    /// A worker confirms a graceful departure.
    Leaving {
        /// The departing node.
        node: NodeId,
    },
    /// The hub tells a worker to leave (a shrink decision reached it).
    SignalLeave {
        /// The node being signalled out.
        node: NodeId,
    },
    /// The hub tells the coordinator a node died (missed heartbeats).
    CrashNotice {
        /// The dead node.
        node: NodeId,
        /// Its cluster.
        cluster: ClusterId,
    },
    /// The hub tells the coordinator a member's liveness changed at the
    /// suspicion level: `suspected = true` means the member fell
    /// suspiciously silent (Alive → Suspect, shrink decisions hold
    /// fire); `false` means it resumed heartbeating (Suspect → Alive,
    /// no blacklist entry). A Suspect that dies resolves via
    /// [`Message::CrashNotice`] instead.
    SuspectNotice {
        /// The member whose liveness is (un)resolved.
        node: NodeId,
        /// Entering (`true`) or leaving (`false`) suspicion.
        suspected: bool,
    },
    /// First message on a coordinator connection.
    CoordinatorHello,
    /// First message on a launcher connection.
    LauncherHello,
    /// Coordinator → hub: request more nodes (an `Add` decision).
    Grow {
        /// How many nodes to request from the pool.
        count: u32,
        /// Clusters the application already occupies (locality preference).
        prefer: Vec<ClusterId>,
        /// Learned lower bound on site uplink bandwidth.
        min_uplink_bps: Option<f64>,
        /// Learned lower bound on node speed.
        min_speed: Option<f64>,
    },
    /// Coordinator → hub: remove these nodes (a `RemoveNodes` or
    /// `RemoveCluster` decision).
    Shrink {
        /// Victims, worst-first.
        nodes: Vec<NodeId>,
        /// Set when an entire badly-connected cluster is being dropped.
        cluster: Option<ClusterId>,
    },
    /// Hub → launcher: start a worker process for this granted node.
    SpawnWorker {
        /// The node id the new worker must claim.
        node: NodeId,
        /// The cluster it belongs to.
        cluster: ClusterId,
    },
    /// Orderly teardown of the whole deployment.
    Shutdown,
    /// Worker → hub: "my steal listener is reachable here". Sent right
    /// after a successful join; the hub folds it into the peer directory
    /// and rebroadcasts.
    PeerAnnounce {
        /// The announcing node (must match the connection's worker role).
        node: NodeId,
        /// `host:port` of the worker's steal listener.
        steal_addr: String,
    },
    /// Hub → workers: full snapshot of the steal-plane peer directory.
    /// Sent to a worker right after its `JoinAck` and rebroadcast to every
    /// worker whenever the directory changes (announce, leave, death) —
    /// snapshots are idempotent, so a lost or reordered update heals on the
    /// next change.
    PeerDirectory {
        /// Every known peer with a live steal listener.
        peers: Vec<PeerInfo>,
    },
    /// Thief → victim (steal plane): request one exportable job.
    StealRequest {
        /// The requesting node (victim-side accounting/debugging).
        thief: NodeId,
    },
    /// Victim → thief: the job, or `None` when the victim's export pool is
    /// dry (the CRS client then tries the next tier).
    StealReply {
        /// The exported job, if any.
        job: Option<StealJob>,
    },
    /// Thief → victim: the value computed for a stolen job. Completes the
    /// victim's join slot for `id` (first result wins — a reclaimed job
    /// re-executed locally may race this, harmlessly, because jobs are
    /// pure).
    StealResult {
        /// The victim-local job id from the [`StealJob`].
        id: u64,
        /// The computed value.
        value: u64,
    },
    /// Standby hub → primary: first message on a replication connection.
    /// `log_offset` is the standby's resume point (0 on a fresh attach);
    /// the primary always answers with a full [`Message::StateSnapshot`] —
    /// snapshots are idempotent, so a reattach never needs a history replay.
    ReplicaHello {
        /// The standby's replica id (the original primary is implicitly 0).
        replica: u32,
        /// `host:port` the standby will serve on after a takeover
        /// (replicated to the whole standby set so losers of an election
        /// can find the winner).
        addr: String,
        /// Highest log offset the standby has applied.
        log_offset: u64,
    },
    /// Primary → standby: full control-plane state at `log_offset`, sent
    /// once on attach. Deltas follow from that offset.
    StateSnapshot {
        /// The primary's hub epoch (fences stale primaries).
        epoch: u64,
        /// Log offset the snapshot is current as of.
        log_offset: u64,
        /// The flattened control-plane state.
        state: ControlSnapshot,
    },
    /// Primary → standby: one replicated control-plane transition.
    StateDelta {
        /// The primary's hub epoch. A standby (or, after a failover, the
        /// new primary) rejects deltas from an older epoch.
        epoch: u64,
        /// This op's log offset.
        log_offset: u64,
        /// The transition itself.
        op: ReplicaOp,
    },
    /// Standby → primary: acknowledgement high-water mark.
    ReplicaAck {
        /// The acknowledging replica.
        replica: u32,
        /// Highest applied log offset.
        log_offset: u64,
    },
    /// Hub epoch announcement: the primary stamps every worker/coordinator
    /// connection after accepting it, keeps replica links alive with it,
    /// and answers stale-epoch writes with it (the fencing response). A
    /// peer that knows a newer epoch treats the sender as a stale primary.
    HubEpoch {
        /// The monotonic hub epoch (bumped by every takeover).
        epoch: u64,
        /// Replica id of the hub serving this epoch (0 = original primary).
        leader: u32,
    },
    /// Launcher → hub → workers: a scenario perturbation. The hub fans the
    /// message out to (the first `count` of) the cluster's connected
    /// workers; each applies whichever knobs are set. This is how a
    /// declarative scenario file's `cpu_load` / `uplink_bandwidth` events
    /// reach real worker processes mid-run.
    Perturb {
        /// The cluster whose workers are perturbed.
        cluster: ClusterId,
        /// How many of the cluster's workers to hit (0 = every one).
        count: u32,
        /// New emulated CPU speed in `(0, 1]` (a `cpu_load` factor `f`
        /// maps to speed `1/f`; `1.0` restores full speed).
        speed: Option<f64>,
        /// Fraction of each monitoring period to report as synthetic
        /// inter-cluster communication wait (emulates a saturated uplink;
        /// `0.0` restores).
        inter_frac: Option<f64>,
    },
}

/// Initial encode buffer: every message without a list or a string fits,
/// length prefix included, so the frequent frames never regrow.
const INITIAL_CAPACITY: usize = 128;

/// One value's wire layout, both directions in one place. Every message,
/// struct and list on the wire is composed from these impls: a layout is
/// stated once, in the tag table or field list that names it, and every
/// list bound follows from its element type.
pub(crate) trait Wire: Sized {
    /// Size of the smallest encoding. A list's claimed count is bounded by
    /// `remaining / MIN_BYTES` before anything is reserved.
    const MIN_BYTES: usize;
    /// Appends the encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decodes one value and advances the cursor past it.
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError>;

    /// The encoding in a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(INITIAL_CAPACITY);
        self.put(&mut out);
        out
    }
}

/// Byte cursor over a frame payload.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    #[inline]
    fn byte(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A `u32` byte length, then that many bytes.
    #[inline]
    fn prefixed(&mut self) -> Result<&'a [u8], WireError> {
        let len = u32::get(self)? as usize;
        self.take(len)
    }
}

/// Integers and floats are fixed-width little-endian; an `f64` travels as
/// its IEEE-754 bit pattern, so it round-trips exactly.
macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(c.array()?))
            }
        }
    )*};
}
wire_le!(u16, u32, u64, f64);

/// Tuples travel as their elements in order.
macro_rules! wire_tuple {
    ($($t:ident $i:tt),*) => {
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)*;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$i.put(out);)*
            }
            #[inline]
            fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
                Ok(($($t::get(c)?,)*))
            }
        }
    };
}
wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);

/// One byte, 0 or 1; anything else is `BadBool`.
impl Wire for bool {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        match c.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }
}

/// A presence byte, then the value when present.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        bool::get(c)?.then(|| T::get(c)).transpose()
    }
}

/// A `u32` byte length, then UTF-8.
impl Wire for String {
    const MIN_BYTES: usize = 4;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        std::str::from_utf8(c.prefixed()?)
            .map(str::to_owned)
            .map_err(|_| WireError::BadUtf8)
    }
}

/// A `u32` count, then the elements. The count is bounded by the bytes
/// actually left, `remaining / T::MIN_BYTES`, *before* anything is
/// reserved, so a hostile prefix can never drive a large allocation (a
/// flat `MAX_FRAME`-derived bound would ignore element width and admit
/// multi-hundred-kilobyte over-reservations before `Truncated` fires).
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for v in self {
            v.put(out);
        }
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        let n = u32::get(c)? as usize;
        if n > c.remaining() / T::MIN_BYTES {
            return Err(WireError::Truncated);
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(c)?);
        }
        Ok(v)
    }
}

/// The phase's stable byte; an unknown byte is `BadBool`.
impl Wire for MemberPhase {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.to_byte());
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        let b = c.byte()?;
        MemberPhase::from_byte(b).ok_or(WireError::BadBool(b))
    }
}

/// The id, then the opaque payload as a `u32` length and one copy of its
/// bytes.
impl Wire for StealJob {
    const MIN_BYTES: usize = 8 + 4;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.id.put(out);
        (self.payload.len() as u32).put(out);
        out.extend_from_slice(&self.payload);
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(StealJob {
            id: u64::get(c)?,
            payload: c.prefixed()?.to_vec(),
        })
    }
}

/// `T::MIN_BYTES` for the field an accessor names, so a field list needs
/// no types.
const fn min_bytes_of<S, T: Wire>(_field: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// A struct travels as its fields, in the listed order (a newtype as its
/// one field, `0`).
macro_rules! wire_struct {
    ($($t:ident { $($f:tt),* })*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = 0 $(+ min_bytes_of(|s: &$t| &s.$f))*;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }
            #[inline]
            fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
                Ok($t { $($f: Wire::get(c)?),* })
            }
        }
    )*};
}

wire_struct! {
    NodeId { 0 }
    ClusterId { 0 }
    SimTime { 0 }
    SimDuration { 0 }
    PeerInfo { node, cluster, steal_addr }
    OverheadBreakdown { busy, idle, intra_comm, inter_comm, benchmark }
    MonitoringReport { node, cluster, period_end, breakdown, speed }
    ControlSnapshot { members, blacklisted_nodes, blacklisted_clusters, peers, bandwidth, replicas }
}

/// An enum travels as a tag byte, then the variant's fields in the listed
/// order; an unknown tag is `BadTag`. The table is the layout. Unlike the
/// small impls above, these two big matches carry no `#[inline]`: each has
/// one caller here, and forcing them inline made delta encoding slower.
macro_rules! wire_enum {
    ($e:ident { $($tag:literal => $v:ident $({ $($f:ident),* })?,)* }) => {
        impl Wire for $e {
            const MIN_BYTES: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($e::$v { $($($f),*)? } => {
                        out.push($tag);
                        $($($f.put(out);)*)?
                    })*
                }
            }
            fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
                match c.byte()? {
                    $($tag => Ok($e::$v { $($($f: Wire::get(c)?),*)? }),)*
                    t => Err(WireError::BadTag(t)),
                }
            }
        }
    };
}

wire_enum!(Message {
    0x01 => Join { cluster, claim },
    0x02 => JoinAck { node, accepted, reason },
    0x03 => Heartbeat { node },
    0x04 => StatsReport { report, bench_micros },
    0x05 => Leaving { node },
    0x06 => SignalLeave { node },
    0x07 => CrashNotice { node, cluster },
    0x08 => CoordinatorHello,
    0x09 => LauncherHello,
    0x0a => Grow { count, prefer, min_uplink_bps, min_speed },
    0x0b => Shrink { nodes, cluster },
    0x0c => SpawnWorker { node, cluster },
    0x0d => Shutdown,
    0x0e => PeerAnnounce { node, steal_addr },
    0x0f => PeerDirectory { peers },
    0x10 => StealRequest { thief },
    0x11 => StealReply { job },
    0x12 => StealResult { id, value },
    0x13 => Perturb { cluster, count, speed, inter_frac },
    0x14 => ReplicaHello { replica, addr, log_offset },
    0x15 => StateSnapshot { epoch, log_offset, state },
    0x16 => StateDelta { epoch, log_offset, op },
    0x17 => ReplicaAck { replica, log_offset },
    0x18 => HubEpoch { epoch, leader },
    0x19 => SuspectNotice { node, suspected },
});

// Nested inside a `StateDelta`, after its epoch and log offset.
wire_enum!(ReplicaOp {
    0 => Join { node, cluster },
    1 => Leave { node },
    2 => Death { node },
    3 => BlacklistNode { node },
    4 => BlacklistCluster { cluster },
    5 => PeerDir { peers },
    6 => Bandwidth { node, bench_micros },
    7 => ReplicaJoined { replica, addr },
});

impl Message {
    /// Encodes the message as a frame payload (without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        self.to_bytes()
    }

    /// Decodes one frame payload. The whole payload must be consumed.
    pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
        let mut c = Cursor { buf, pos: 0 };
        // `and_then`, not `?` and a second match: with `?` the compiler
        // rebuilt the whole message field by field after the trailing
        // check (a heartbeat decoded in ~26 ns instead of ~16 ns on a
        // Xeon, fat LTO).
        Message::get(&mut c).and_then(|msg| match c.remaining() {
            0 => Ok(msg),
            n => Err(WireError::Trailing(n)),
        })
    }

    /// The whole frame: the length prefix is reserved, the payload encoded
    /// in place after it, then the prefix patched. The only writer of a
    /// length prefix.
    pub(crate) fn frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(INITIAL_CAPACITY);
        out.extend_from_slice(&[0; 4]);
        self.put(&mut out);
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        out
    }
}

/// Reads one length-prefixed frame. `Ok(None)` means the peer closed the
/// connection cleanly at a frame boundary; EOF mid-frame is an error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::FrameTooLarge(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Encodes and writes one message as a frame. The frame leaves in a
/// single write, so on a `TCP_NODELAY` socket it is one segment, not a
/// header segment and a payload segment.
pub fn send_message<W: Write>(w: &mut W, msg: &Message) -> io::Result<()> {
    let frame = msg.frame();
    assert!(frame.len() - 4 <= MAX_FRAME, "oversized outgoing frame");
    w.write_all(&frame)?;
    w.flush()
}

/// Reads and decodes one message. `Ok(None)` on clean EOF; decode failures
/// surface as [`io::ErrorKind::InvalidData`].
pub fn recv_message<R: Read>(r: &mut R) -> io::Result<Option<Message>> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    Message::decode(&payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Round trips, truncation, trailing bytes and framing over the full
    // fixture live in `tests/codec_fuzz.rs`; these are hand-built hostile
    // payloads.

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(Message::decode(&[0x7f]), Err(WireError::BadTag(0x7f)));
        assert_eq!(Message::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn bad_bool_is_rejected() {
        // JoinAck with accepted byte = 7.
        let mut bytes = vec![0x02];
        1u32.put(&mut bytes);
        bytes.push(7);
        String::new().put(&mut bytes);
        assert_eq!(Message::decode(&bytes), Err(WireError::BadBool(7)));
    }

    #[test]
    fn hostile_length_prefixes_are_bounded_by_remaining_bytes() {
        // A claimed count far beyond what the remaining bytes could hold
        // must fail *before* any reservation — n is bounded by
        // remaining / MIN_BYTES, not by a flat MAX_FRAME fraction.
        // Grow: count then a huge prefer-list length with a 2-byte body.
        let mut grow = vec![0x0a];
        1u32.put(&mut grow);
        250_000u32.put(&mut grow); // claims 250k ClusterIds (500 KB)
        0u16.put(&mut grow); // ...but only one is present
        assert_eq!(Message::decode(&grow), Err(WireError::Truncated));

        // Shrink: huge node-list length, 4-byte body.
        let mut shrink = vec![0x0b];
        100_000u32.put(&mut shrink);
        1u32.put(&mut shrink);
        assert_eq!(Message::decode(&shrink), Err(WireError::Truncated));

        // PeerDirectory: huge peer count, tiny body.
        let mut dir = vec![0x0f];
        u32::MAX.put(&mut dir);
        1u32.put(&mut dir); // a few stray bytes
        assert_eq!(Message::decode(&dir), Err(WireError::Truncated));

        // StateSnapshot: a hostile member-list count (7-byte elements) with
        // a near-empty body must be bounded before any reservation...
        let mut snap = vec![0x15];
        1u64.put(&mut snap); // epoch
        0u64.put(&mut snap); // log_offset
        1_000_000u32.put(&mut snap); // claims 1M members (7 MB)
        0u32.put(&mut snap); // ...but only stray bytes follow
        assert_eq!(Message::decode(&snap), Err(WireError::Truncated));

        // ...and so must every later snapshot list (bandwidth: 12-byte
        // elements after valid empty leading lists).
        let mut snap = vec![0x15];
        1u64.put(&mut snap);
        0u64.put(&mut snap);
        0u32.put(&mut snap); // members
        0u32.put(&mut snap); // blacklisted nodes
        0u32.put(&mut snap); // blacklisted clusters
        0u32.put(&mut snap); // peers
        u32::MAX.put(&mut snap); // bandwidth: hostile count
        0u32.put(&mut snap);
        assert_eq!(Message::decode(&snap), Err(WireError::Truncated));

        // A StateDelta PeerDir op is bounded like the directory itself.
        let mut delta = vec![0x16];
        1u64.put(&mut delta);
        0u64.put(&mut delta);
        delta.push(5); // PeerDir
        500_000u32.put(&mut delta); // hostile peer count
        0u32.put(&mut delta);
        assert_eq!(Message::decode(&delta), Err(WireError::Truncated));

        // The bound must still admit legitimate maximal lists: n elements
        // in exactly n * MIN_BYTES remaining bytes.
        let mut ok = vec![0x0b];
        3u32.put(&mut ok);
        for i in 0..3u32 {
            i.put(&mut ok);
        }
        ok.push(0); // cluster: None
        assert!(Message::decode(&ok).is_ok());
    }

    #[test]
    fn list_bounds_follow_from_element_types() {
        assert_eq!(PeerInfo::MIN_BYTES, 4 + 2 + 4);
        assert_eq!(<(NodeId, ClusterId, MemberPhase)>::MIN_BYTES, 4 + 2 + 1);
        assert_eq!(<(NodeId, u64)>::MIN_BYTES, 4 + 8);
        assert_eq!(<(u32, String)>::MIN_BYTES, 4 + 4);
        assert_eq!(MonitoringReport::MIN_BYTES, 4 + 2 + 8 * 6 + 8);
    }

    #[test]
    fn bad_member_phase_and_op_tag_are_rejected() {
        // StateDelta with an unknown nested op tag.
        let mut delta = vec![0x16];
        1u64.put(&mut delta);
        0u64.put(&mut delta);
        delta.push(0x7f); // no such op
        assert_eq!(Message::decode(&delta), Err(WireError::BadTag(0x7f)));

        // StateSnapshot with a member phase byte outside 0..=3.
        let mut snap = vec![0x15];
        1u64.put(&mut snap);
        0u64.put(&mut snap);
        1u32.put(&mut snap); // one member
        9u32.put(&mut snap); // node
        0u16.put(&mut snap); // cluster
        snap.push(9); // invalid phase
        for _ in 0..5 {
            0u32.put(&mut snap); // remaining empty lists
        }
        assert_eq!(Message::decode(&snap), Err(WireError::BadBool(9)));
    }

    #[test]
    fn oversized_frame_header_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn eof_mid_header_is_an_error_not_a_clean_close() {
        let err = read_frame(&mut io::Cursor::new(vec![1u8, 0])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
