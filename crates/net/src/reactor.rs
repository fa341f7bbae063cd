//! `net::reactor` — a std-only readiness reactor so one thread serves
//! thousands of connections.
//!
//! The per-connection reader/writer thread pairs of the original transport
//! cap a hub at a few hundred workers (two OS threads each); the paper's
//! control plane must absorb grid-scale churn. This module multiplexes
//! every socket through one `epoll(7)` instance driven by a single loop:
//!
//! * **Readiness registration** — level-triggered read interest on every
//!   connection, write interest only while its queue is non-empty.
//! * **Incremental frame decoding** — [`FrameDecoder`] resumes across
//!   partial reads and is byte-identical to the one-shot
//!   [`crate::wire::read_frame`] path (the codec fuzz suite proves it).
//! * **Bounded non-blocking write queues** — a hard per-connection byte
//!   bound; a stalled peer drops frames (counted in
//!   `net.reactor.backpressure_drops`) instead of wedging the loop or
//!   growing memory without bound. Queued frames leave in one vectored
//!   write per connection per turn, and a read shorter than the buffer
//!   ends that connection's reads for the turn.
//! * **Timers** — one-shot deadlines with same-deadline FIFO ordering,
//!   driving heartbeat failure detection and coalesced broadcasts.
//!
//! Everything is `std` + the C library the process is already linked
//! against: the `epoll` syscalls (and the one-fd `poll(2)` the farewell
//! flush waits on) are declared `extern "C"` below,
//! and non-blocking mode comes from `TcpStream::set_nonblocking`.

use crate::wire::{Message, WireError, MAX_FRAME};
use sagrid_core::metrics::{Counter, Gauge, Histogram, Metrics};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reactor-local identifier of a registered connection (monotonic, never
/// reused; the same width as the old transport's `ConnId`).
pub type Token = u64;

/// Default hard bound on one connection's queued-but-unwritten bytes.
pub const WRITE_QUEUE_BOUND: usize = 4 << 20;

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: Token = 2;

/// Most queued frames one `writev` carries (Linux allows 1,024 iovecs).
const WRITE_BATCH: usize = 64;

/// Size of the shared read buffer; a read that fills less of it has
/// drained the socket.
const READ_CHUNK: usize = 64 << 10;

/// Upper bounds (µs) for the loop-iteration latency histogram.
const LOOP_LATENCY_BOUNDS_US: &[u64] = &[50, 100, 250, 500, 1_000, 5_000, 25_000, 100_000];

// ---------------------------------------------------------------------------
// Syscall layer: epoll(7), declared against the already-linked C library
// (the workspace admits no external crates).
// ---------------------------------------------------------------------------

mod sys {
    use std::os::raw::{c_int, c_short, c_ulong};

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;

    pub const POLLOUT: c_short = 0x004;

    /// The kernel ABI packs this struct on x86-64; other architectures use
    /// natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
    }
}

/// The `epoll` instance fd (closed on drop).
struct Backend(i32);

impl Backend {
    fn new() -> io::Result<Backend> {
        // Safety: epoll_create1 takes a flags int and returns an fd or -1.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Backend(fd))
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // Safety: ev lives across the call; the kernel copies it.
        if unsafe { sys::epoll_ctl(self.0, op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// A failed ADD (EBADF, ENOMEM, ENOSPC past `max_user_watches`) means
    /// the fd would never be serviced: callers must close it.
    fn register(&self, fd: i32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, token)
    }

    // MOD and DEL act on an fd this reactor registered and still owns;
    // they have no failure a caller could act on.
    fn rearm(&self, fd: i32, want_write: bool, token: u64) {
        let events = sys::EPOLLIN | if want_write { sys::EPOLLOUT } else { 0 };
        let _ = self.ctl(sys::EPOLL_CTL_MOD, fd, events, token);
    }

    fn deregister(&self, fd: i32) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        // Safety: the fd is an epoll instance we own.
        unsafe { sys::close(self.0) };
    }
}

/// Readiness of one registered fd.
#[derive(Clone, Copy)]
struct Ready {
    token: u64,
    readable: bool,
    writable: bool,
}

// ---------------------------------------------------------------------------
// Incremental frame decoding
// ---------------------------------------------------------------------------

/// A resumable decoder for the 4-byte-LE length-prefixed framing of
/// [`crate::wire`]. Feed it whatever byte slices the socket yields —
/// single bytes, frame fragments, many frames at once — and it produces
/// exactly the messages the one-shot [`crate::wire::read_frame`] +
/// [`Message::decode`] path would (the codec fuzz suite asserts byte
/// identity across every split point).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    header: [u8; 4],
    header_have: usize,
    /// Payload length once the header is complete.
    need: usize,
    payload: Vec<u8>,
    in_payload: bool,
}

impl FrameDecoder {
    /// A decoder at a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// True when no partial frame is buffered — EOF here is a clean close;
    /// EOF mid-frame is a protocol violation (mirrors `read_frame`).
    pub fn at_boundary(&self) -> bool {
        !self.in_payload && self.header_have == 0
    }

    /// Consumes `bytes`, appending every completed message to `out`.
    /// An error poisons the connection (oversized or undecodable frame);
    /// the caller must drop the peer, exactly as the blocking path does.
    pub fn feed(&mut self, mut bytes: &[u8], out: &mut Vec<Message>) -> Result<(), WireError> {
        loop {
            if !self.in_payload {
                if bytes.is_empty() {
                    return Ok(());
                }
                let take = (4 - self.header_have).min(bytes.len());
                self.header[self.header_have..self.header_have + take]
                    .copy_from_slice(&bytes[..take]);
                self.header_have += take;
                bytes = &bytes[take..];
                if self.header_have < 4 {
                    return Ok(());
                }
                let len = u32::from_le_bytes(self.header) as usize;
                if len > MAX_FRAME {
                    return Err(WireError::FrameTooLarge(len));
                }
                self.need = len;
                self.payload.clear();
                self.in_payload = true;
            }
            if self.payload.len() < self.need {
                let take = (self.need - self.payload.len()).min(bytes.len());
                self.payload.extend_from_slice(&bytes[..take]);
                bytes = &bytes[take..];
            }
            if self.payload.len() == self.need {
                out.push(Message::decode(&self.payload)?);
                self.in_payload = false;
                self.header_have = 0;
            } else {
                return Ok(()); // mid-payload, out of bytes
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Pre-resolved `net.reactor.*` instruments plus the `net.*` transport
/// counters the old per-connection threads maintained (dashboards keep
/// working across the transport swap).
#[derive(Clone)]
pub struct ReactorMetrics {
    open_connections: Arc<Gauge>,
    accepts: Arc<Counter>,
    loop_latency_us: Arc<Histogram>,
    pending_write_bytes: Arc<Gauge>,
    backpressure_drops: Arc<Counter>,
    stalls: Arc<Counter>,
    write_calls: Arc<Counter>,
    register_failures: Arc<Counter>,
    frames_sent: Arc<Counter>,
    frames_received: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    bytes_received: Arc<Counter>,
    decode_errors: Arc<Counter>,
}

impl ReactorMetrics {
    /// Resolves the instrument handles; `None` when metrics are disabled.
    pub fn resolve(m: &Metrics) -> Option<ReactorMetrics> {
        m.is_enabled().then(|| ReactorMetrics {
            open_connections: m.gauge("net.reactor.open_connections").expect("enabled"),
            accepts: m.counter("net.reactor.accepts").expect("enabled"),
            loop_latency_us: m
                .histogram("net.reactor.loop_latency_us", LOOP_LATENCY_BOUNDS_US)
                .expect("enabled"),
            pending_write_bytes: m.gauge("net.reactor.pending_write_bytes").expect("enabled"),
            backpressure_drops: m
                .counter("net.reactor.backpressure_drops")
                .expect("enabled"),
            stalls: m.counter("net.reactor.stalls").expect("enabled"),
            write_calls: m.counter("net.reactor.write_calls").expect("enabled"),
            register_failures: m.counter("net.reactor.register_failures").expect("enabled"),
            frames_sent: m.counter("net.frames_sent").expect("enabled"),
            frames_received: m.counter("net.frames_received").expect("enabled"),
            bytes_sent: m.counter("net.bytes_sent").expect("enabled"),
            bytes_received: m.counter("net.bytes_received").expect("enabled"),
            decode_errors: m.counter("net.decode_errors").expect("enabled"),
        })
    }
}

// ---------------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------------

/// What one [`Reactor::poll`] round surfaces to the owning loop.
#[derive(Debug)]
pub enum ReactorEvent {
    /// The listener accepted a connection; registered under this token.
    /// Always precedes any `Frame` from the same token.
    Accepted(Token, SocketAddr),
    /// A complete message decoded off the connection.
    Frame(Token, Message),
    /// The connection is gone (EOF, transport error, protocol violation or
    /// a local [`Reactor::close`]). Exactly one per token.
    Closed(Token),
    /// A timer armed with [`Reactor::arm_timer`] reached its deadline.
    Timer(u64),
}

struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    decoder: FrameDecoder,
    /// Queued encoded frames; the front may be partially written.
    wq: VecDeque<Arc<[u8]>>,
    /// Bytes of `wq.front()` already on the socket.
    wq_head: usize,
    /// Total unwritten bytes across the queue.
    wq_bytes: usize,
    /// Whether EPOLLOUT interest is currently registered.
    want_write: bool,
    /// Peer closed its write side at a frame boundary; we only live on to
    /// drain our own queue (the half-open contract).
    read_closed: bool,
    /// A local graceful close: drain the queue, then report `Closed`.
    closing: bool,
    /// The token is in `Reactor::dirty` (each token at most once).
    dirty: bool,
}

impl Conn {
    fn done_writing(&self) -> bool {
        self.wq.is_empty()
    }

    /// One `writev` of up to [`WRITE_BATCH`] queued frames, the front one
    /// from `wq_head`.
    fn write_batch(&mut self) -> io::Result<usize> {
        let mut iov = [IoSlice::new(&[]); WRITE_BATCH];
        let mut n = 0;
        for (slot, frame) in iov.iter_mut().zip(&self.wq) {
            let from = if n == 0 { self.wq_head } else { 0 };
            *slot = IoSlice::new(&frame[from..]);
            n += 1;
        }
        (&self.stream).write_vectored(&iov[..n])
    }

    /// Retires `n` written bytes: pops whole frames and leaves `wq_head`
    /// inside a partly written one.
    fn advance(&mut self, mut n: usize) {
        self.wq_bytes -= n;
        while let Some(front) = self.wq.front() {
            let left = front.len() - self.wq_head;
            if n < left {
                self.wq_head += n;
                return;
            }
            n -= left;
            self.wq.pop_front();
            self.wq_head = 0;
        }
    }
}

/// Wakes a [`Reactor::poll`] blocked in the waiting syscall from another
/// thread (cheap, clonable, never blocks).
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Nudges the reactor; a full pipe means a wake is already pending.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// A single-threaded readiness reactor over one optional listener, any
/// number of stream connections, and a set of one-shot timers.
pub struct Reactor {
    backend: Backend,
    listener: Option<TcpListener>,
    conns: BTreeMap<Token, Conn>,
    next_token: Token,
    /// Min-heap of (deadline, arm-sequence, key): the sequence number makes
    /// same-deadline timers fire in arm order (FIFO).
    timers: BinaryHeap<std::cmp::Reverse<(Instant, u64, u64)>>,
    timer_seq: u64,
    /// Tokens with queued writes to attempt on the next flush pass; a
    /// token is listed at most once (`Conn::dirty`).
    dirty: Vec<Token>,
    waker_rx: Option<UnixStream>,
    waker_tx: Option<Arc<UnixStream>>,
    wq_bound: usize,
    rm: Option<ReactorMetrics>,
    /// Scratch read buffer, reused across connections and polls.
    scratch: Vec<u8>,
    ep_events: Vec<sys::EpollEvent>,
}

impl Reactor {
    /// A client-side reactor: no listener, dial with [`Reactor::connect`].
    pub fn new(metrics: &Metrics) -> io::Result<Reactor> {
        Self::build(None, metrics)
    }

    /// A server-side reactor accepting on `listener`.
    pub fn with_listener(listener: TcpListener, metrics: &Metrics) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        Self::build(Some(listener), metrics)
    }

    fn build(listener: Option<TcpListener>, metrics: &Metrics) -> io::Result<Reactor> {
        let backend = Backend::new()?;
        if let Some(l) = &listener {
            backend.register(l.as_raw_fd(), LISTENER_TOKEN)?;
        }
        Ok(Reactor {
            backend,
            listener,
            conns: BTreeMap::new(),
            next_token: FIRST_CONN_TOKEN,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            dirty: Vec::new(),
            waker_rx: None,
            waker_tx: None,
            wq_bound: WRITE_QUEUE_BOUND,
            rm: ReactorMetrics::resolve(metrics),
            scratch: vec![0u8; READ_CHUNK],
            ep_events: Vec::with_capacity(1024),
        })
    }

    /// Overrides the per-connection write-queue byte bound.
    pub fn set_write_queue_bound(&mut self, bytes: usize) {
        self.wq_bound = bytes.max(MAX_FRAME + 4);
    }

    /// The listener's bound port (0 when listener-less).
    pub fn local_port(&self) -> u16 {
        self.listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
            .map(|a| a.port())
            .unwrap_or(0)
    }

    /// Detaches and returns the (still bound, non-blocking) listener —
    /// how a standby hands its front door to the takeover hub.
    pub fn take_listener(&mut self) -> Option<TcpListener> {
        let l = self.listener.take()?;
        self.backend.deregister(l.as_raw_fd());
        Some(l)
    }

    /// A handle other threads can use to interrupt a blocked `poll`.
    pub fn waker(&mut self) -> io::Result<Waker> {
        if self.waker_tx.is_none() {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            self.backend.register(rx.as_raw_fd(), WAKER_TOKEN)?;
            self.waker_rx = Some(rx);
            self.waker_tx = Some(Arc::new(tx));
        }
        Ok(Waker {
            tx: Arc::clone(self.waker_tx.as_ref().expect("just set")),
        })
    }

    /// Registers an established stream. The reactor owns it from here on;
    /// on error the stream is dropped, which closes the connection.
    pub fn register(&mut self, stream: TcpStream) -> io::Result<Token> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let token = self.next_token;
        self.next_token += 1;
        if let Err(e) = self.backend.register(stream.as_raw_fd(), token) {
            if let Some(rm) = &self.rm {
                rm.register_failures.inc();
            }
            return Err(e);
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                peer,
                decoder: FrameDecoder::new(),
                wq: VecDeque::new(),
                wq_head: 0,
                wq_bytes: 0,
                want_write: false,
                read_closed: false,
                closing: false,
                dirty: false,
            },
        );
        if let Some(rm) = &self.rm {
            rm.open_connections.add(1);
        }
        Ok(token)
    }

    /// Dials `addr` (blocking connect, as every dial path already does)
    /// and registers the stream.
    pub fn connect(&mut self, addr: &str) -> io::Result<Token> {
        self.register(TcpStream::connect(addr)?)
    }

    /// Whether `token` is still registered.
    pub fn has_conn(&self, token: Token) -> bool {
        self.conns.contains_key(&token)
    }

    /// The remote address of a registered connection.
    pub fn peer_addr(&self, token: Token) -> Option<SocketAddr> {
        self.conns.get(&token).map(|c| c.peer)
    }

    /// Registered connections (the open-connections gauge's source).
    pub fn open_connections(&self) -> usize {
        self.conns.len()
    }

    /// Unwritten bytes across every write queue.
    pub fn pending_write_bytes(&self) -> usize {
        self.conns.values().map(|c| c.wq_bytes).sum()
    }

    /// Encodes `msg` as a wire frame (length prefix + payload), shareable
    /// across many queues — broadcasts encode once, clone the `Arc`.
    pub fn encode_frame(msg: &Message) -> Arc<[u8]> {
        msg.frame().into()
    }

    /// Queues an encoded frame. `false` when the connection is gone, is
    /// closing, or its queue is at the byte bound (the frame is dropped and
    /// counted — backpressure must never wedge the loop).
    pub fn send_frame(&mut self, token: Token, frame: Arc<[u8]>) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        if conn.closing {
            return false;
        }
        if conn.wq_bytes + frame.len() > self.wq_bound {
            if let Some(rm) = &self.rm {
                rm.backpressure_drops.inc();
            }
            return false;
        }
        conn.wq_bytes += frame.len();
        if let Some(rm) = &self.rm {
            rm.pending_write_bytes.add(frame.len() as i64);
            rm.frames_sent.inc();
            rm.bytes_sent.add(frame.len() as u64);
        }
        conn.wq.push_back(frame);
        if !std::mem::replace(&mut conn.dirty, true) {
            self.dirty.push(token);
        }
        true
    }

    /// Encodes and queues one message.
    pub fn send(&mut self, token: Token, msg: &Message) -> bool {
        self.send_frame(token, Self::encode_frame(msg))
    }

    /// Requests a graceful close: pending writes drain, then the token
    /// reports `Closed`. Inbound frames from the peer are discarded.
    pub fn close(&mut self, token: Token) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.closing = true;
            if !std::mem::replace(&mut conn.dirty, true) {
                self.dirty.push(token);
            }
        }
    }

    /// Arms a one-shot timer: the next `poll` at or after `deadline` emits
    /// [`ReactorEvent::Timer`] with `key`. Same-deadline timers fire in arm
    /// order. Re-arm from the handler for a periodic tick.
    pub fn arm_timer(&mut self, key: u64, deadline: Instant) {
        self.timer_seq += 1;
        self.timers
            .push(std::cmp::Reverse((deadline, self.timer_seq, key)));
    }

    /// Non-blockingly drains as much of `token`'s queue as the socket
    /// accepts, [`WRITE_BATCH`] frames per `writev`. Returns `Err(())` when
    /// the connection must die.
    fn try_write(&mut self, token: Token) -> Result<(), ()> {
        let Some(conn) = self.conns.get_mut(&token) else {
            return Ok(());
        };
        let mut wrote = 0usize;
        let dead = loop {
            if conn.done_writing() {
                break false;
            }
            let res = conn.write_batch();
            if let Some(rm) = &self.rm {
                rm.write_calls.inc();
            }
            match res {
                Ok(0) => break true,
                Ok(n) => {
                    conn.advance(n);
                    wrote += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // The socket buffer is full: register write interest and
                    // count the stall.
                    if !conn.want_write {
                        conn.want_write = true;
                        self.backend.rearm(conn.stream.as_raw_fd(), true, token);
                        if let Some(rm) = &self.rm {
                            rm.stalls.inc();
                        }
                    }
                    break false;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break true,
            }
        };
        if let Some(rm) = &self.rm {
            rm.pending_write_bytes.add(-(wrote as i64));
        }
        if dead {
            return Err(());
        }
        if conn.done_writing() {
            if conn.want_write {
                conn.want_write = false;
                self.backend.rearm(conn.stream.as_raw_fd(), false, token);
            }
            // A locally-closed or read-closed connection only lived to
            // drain; its queue is empty now.
            if conn.closing || conn.read_closed {
                return Err(());
            }
        }
        Ok(())
    }

    /// Removes `token`, deregisters its fd and reports exactly one
    /// `Closed`.
    fn reap(&mut self, token: Token, out: &mut Vec<ReactorEvent>) {
        if let Some(conn) = self.conns.remove(&token) {
            self.backend.deregister(conn.stream.as_raw_fd());
            if let Some(rm) = &self.rm {
                rm.open_connections.add(-1);
                rm.pending_write_bytes.add(-(conn.wq_bytes as i64));
            }
            // Shutdown both sides so a blocking peer unblocks promptly.
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            out.push(ReactorEvent::Closed(token));
        }
    }

    /// Reads `token` until a read comes back shorter than the scratch
    /// buffer (or would block), decoding frames into `out`. Interest is
    /// level-triggered, so bytes or an EOF that arrive later are reported
    /// again on the next turn.
    fn handle_readable(&mut self, token: Token, out: &mut Vec<ReactorEvent>) {
        let mut msgs: Vec<Message> = Vec::new();
        let verdict = loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    // EOF. At a frame boundary with writes still queued the
                    // socket is half-open: keep draining. Mid-frame it is a
                    // protocol violation; either way reads are over.
                    if conn.decoder.at_boundary() && !conn.done_writing() && !conn.closing {
                        conn.read_closed = true;
                        break Ok(());
                    }
                    break Err(());
                }
                Ok(n) => {
                    if let Some(rm) = &self.rm {
                        rm.bytes_received.add(n as u64);
                    }
                    if conn.decoder.feed(&self.scratch[..n], &mut msgs).is_err() {
                        if let Some(rm) = &self.rm {
                            rm.decode_errors.inc();
                        }
                        break Err(());
                    }
                    if n < self.scratch.len() {
                        break Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break Err(()),
            }
        };
        if let Some(rm) = &self.rm {
            rm.frames_received.add(msgs.len() as u64);
        }
        // A closing connection's inbound traffic is discarded.
        let discard = self.conns.get(&token).map(|c| c.closing).unwrap_or(true);
        if !discard {
            out.extend(msgs.into_iter().map(|m| ReactorEvent::Frame(token, m)));
        }
        if verdict.is_err() {
            self.reap(token, out);
        }
    }

    /// Accepts until the listener would block.
    fn handle_accept(&mut self, out: &mut Vec<ReactorEvent>) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    if let Ok(token) = self.register(stream) {
                        if let Some(rm) = &self.rm {
                            rm.accepts.inc();
                        }
                        out.push(ReactorEvent::Accepted(token, peer));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept errors (EMFILE, aborted handshakes):
                // drop the attempt, keep serving.
                Err(_) => return,
            }
        }
    }

    /// Waits on the epoll instance for up to `timeout`, rounded up to
    /// whole milliseconds: rounding down would turn the last fraction of
    /// a millisecond before a timer deadline into zero-timeout spins.
    fn wait(&mut self, timeout: Duration) -> Vec<Ready> {
        let timeout_ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
        self.ep_events
            .resize(1024, sys::EpollEvent { events: 0, data: 0 });
        // Safety: the events buffer outlives the call; the kernel writes at
        // most `maxevents` entries.
        let n = unsafe {
            sys::epoll_wait(
                self.backend.0,
                self.ep_events.as_mut_ptr(),
                1024,
                timeout_ms,
            )
        };
        self.ep_events
            .iter()
            .take(n.max(0) as usize)
            .map(|ev| {
                let events = ev.events; // copy out of the packed struct
                Ready {
                    token: ev.data,
                    readable: events & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP) != 0,
                    writable: events & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0,
                }
            })
            .collect()
    }

    /// One reactor turn: flush dirty write queues, wait for readiness (up
    /// to `max_wait`, shortened by the nearest timer deadline), service
    /// ready sockets, fire due timers. Events land in `out` (which is NOT
    /// cleared — callers drain it). Spurious wakeups are harmless: timers
    /// fire only at their deadline, and an eventless round yields an empty
    /// `out`.
    pub fn poll(&mut self, out: &mut Vec<ReactorEvent>, max_wait: Duration) -> io::Result<()> {
        let t0 = Instant::now();

        // 1. Flush pass over queues touched since the last turn.
        for token in std::mem::take(&mut self.dirty) {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.dirty = false;
            }
            if self.try_write(token).is_err() {
                self.reap(token, out);
            }
        }

        // 2. Compute the wait: never past the nearest timer deadline, and
        // zero when events are already pending delivery.
        let now = Instant::now();
        let mut wait = if out.is_empty() {
            max_wait
        } else {
            Duration::ZERO
        };
        if let Some(std::cmp::Reverse((deadline, ..))) = self.timers.peek() {
            wait = wait.min(deadline.saturating_duration_since(now));
        }

        // 3. Wait and service readiness.
        let waited_from = Instant::now();
        let ready = self.wait(wait);
        let waited = waited_from.elapsed();
        for r in ready {
            match r.token {
                LISTENER_TOKEN => self.handle_accept(out),
                WAKER_TOKEN => {
                    if let Some(rx) = &mut self.waker_rx {
                        let mut buf = [0u8; 64];
                        while matches!((&*rx).read(&mut buf), Ok(n) if n > 0) {}
                    }
                }
                token => {
                    if r.writable && self.try_write(token).is_err() {
                        self.reap(token, out);
                    }
                    if r.readable {
                        self.handle_readable(token, out);
                    }
                }
            }
        }

        // 4. Fire due timers in (deadline, arm-order) sequence.
        let now = Instant::now();
        while let Some(std::cmp::Reverse((deadline, _, key))) = self.timers.peek().copied() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            out.push(ReactorEvent::Timer(key));
        }

        if let Some(rm) = &self.rm {
            let busy = t0.elapsed().saturating_sub(waited);
            rm.loop_latency_us.record(busy.as_micros() as u64);
        }
        Ok(())
    }

    /// Blocks until `token`'s write queue is fully on the wire or `timeout`
    /// elapses — the farewell-frame guarantee (`Leaving` must beat the
    /// process exit). Returns `false` on timeout or a dead connection.
    pub fn flush(&mut self, token: Token, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.try_write(token).is_err() {
                return false;
            }
            match self.conns.get(&token) {
                None => return false,
                Some(c) if c.done_writing() => return true,
                Some(c) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return false;
                    }
                    // Wait for writability on just this fd.
                    let mut pfd = [sys::PollFd {
                        fd: c.stream.as_raw_fd(),
                        events: sys::POLLOUT,
                        revents: 0,
                    }];
                    let ms = left.as_millis().min(50) as i32;
                    // Safety: pfd is a live array for the call.
                    unsafe { sys::poll(pfd.as_mut_ptr(), 1, ms.max(1)) };
                }
            }
        }
    }

    /// Best-effort drain of every queue (the shutdown broadcast path: give
    /// all peers their final frame before the process exits). Events
    /// surfaced while draining are discarded.
    pub fn drain(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut sink = Vec::new();
        loop {
            let tokens: Vec<Token> = self
                .conns
                .iter()
                .filter(|(_, c)| !c.done_writing())
                .map(|(t, _)| *t)
                .collect();
            if tokens.is_empty() {
                return;
            }
            for token in tokens {
                if self.try_write(token).is_err() {
                    self.reap(token, &mut sink);
                }
            }
            if Instant::now() >= deadline || self.conns.values().all(|c| c.done_writing()) {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Where a socket-free protocol core (the hub's and the standby's) puts
/// its output. The reactor is the production sink; tests record instead.
pub(crate) trait Outbox {
    /// Queues an encoded frame; `false` when it was not queued.
    fn send_frame(&mut self, token: Token, frame: Arc<[u8]>) -> bool;
    /// Closes a connection once its queued frames are out.
    fn close(&mut self, token: Token);

    /// Encodes and queues one message.
    fn send(&mut self, token: Token, msg: &Message) -> bool {
        self.send_frame(token, Reactor::encode_frame(msg))
    }
}

impl Outbox for Reactor {
    fn send_frame(&mut self, token: Token, frame: Arc<[u8]>) -> bool {
        Reactor::send_frame(self, token, frame)
    }

    fn close(&mut self, token: Token) {
        Reactor::close(self, token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagrid_core::ids::NodeId;
    use std::net::TcpListener;

    fn pair(reactor: &mut Reactor) -> (Token, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let token = reactor.register(server_side).unwrap();
        (token, peer)
    }

    fn poll_until(
        reactor: &mut Reactor,
        out: &mut Vec<ReactorEvent>,
        pred: impl Fn(&[ReactorEvent]) -> bool,
    ) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pred(out) {
            assert!(Instant::now() < deadline, "timed out; events: {out:?}");
            reactor
                .poll(out, Duration::from_millis(20))
                .expect("poll failed");
        }
    }

    #[test]
    fn frames_round_trip_through_the_reactor() {
        let m = Metrics::enabled();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut reactor = Reactor::with_listener(listener, &m).unwrap();

        let mut peer = TcpStream::connect(addr).unwrap();
        let mut out = Vec::new();
        poll_until(&mut reactor, &mut out, |evs| {
            evs.iter().any(|e| matches!(e, ReactorEvent::Accepted(..)))
        });
        let token = match &out[0] {
            ReactorEvent::Accepted(t, _) => *t,
            other => panic!("expected Accepted, got {other:?}"),
        };

        crate::wire::send_message(&mut peer, &Message::Heartbeat { node: NodeId(3) }).unwrap();
        poll_until(&mut reactor, &mut out, |evs| {
            evs.iter().any(|e| matches!(e, ReactorEvent::Frame(..)))
        });
        assert!(out.iter().any(|e| matches!(
            e,
            ReactorEvent::Frame(t, Message::Heartbeat { node: NodeId(3) }) if *t == token
        )));

        assert!(reactor.send(token, &Message::Shutdown));
        reactor.poll(&mut out, Duration::from_millis(5)).unwrap();
        let got = crate::wire::recv_message(&mut peer).unwrap().unwrap();
        assert_eq!(got, Message::Shutdown);

        drop(peer);
        poll_until(&mut reactor, &mut out, |evs| {
            evs.iter()
                .any(|e| matches!(e, ReactorEvent::Closed(t) if *t == token))
        });
        assert_eq!(reactor.open_connections(), 0);
        let report = m.report();
        assert_eq!(report.counter("net.reactor.accepts"), 1);
        assert!(report.counter("net.frames_received") >= 1);
    }

    #[test]
    fn timers_fire_in_same_deadline_fifo_order() {
        let m = Metrics::disabled();
        let mut reactor = Reactor::new(&m).unwrap();
        let deadline = Instant::now() + Duration::from_millis(30);
        // Three timers at the SAME deadline plus one earlier and one later:
        // firing order must be (earlier), then arm order, then (later).
        reactor.arm_timer(10, deadline);
        reactor.arm_timer(11, deadline);
        reactor.arm_timer(12, deadline);
        reactor.arm_timer(1, deadline - Duration::from_millis(15));
        reactor.arm_timer(99, deadline + Duration::from_millis(15));

        let mut out = Vec::new();
        poll_until(&mut reactor, &mut out, |evs| {
            evs.iter()
                .filter(|e| matches!(e, ReactorEvent::Timer(_)))
                .count()
                == 5
        });
        let fired: Vec<u64> = out
            .iter()
            .filter_map(|e| match e {
                ReactorEvent::Timer(k) => Some(*k),
                _ => None,
            })
            .collect();
        assert_eq!(fired, vec![1, 10, 11, 12, 99]);
    }

    /// A wait that ends inside the last millisecond before a deadline
    /// sleeps to the deadline instead of polling with a zero timeout.
    #[test]
    fn idle_poll_sleeps_until_the_timer_instead_of_spinning() {
        let m = Metrics::disabled();
        let mut reactor = Reactor::new(&m).unwrap();
        let deadline = Instant::now() + Duration::from_micros(5_500);
        reactor.arm_timer(3, deadline);
        let mut out = Vec::new();
        let mut polls = 0;
        while out.is_empty() {
            reactor.poll(&mut out, Duration::from_secs(1)).unwrap();
            polls += 1;
        }
        assert!(matches!(out[..], [ReactorEvent::Timer(3)]), "{out:?}");
        assert!(Instant::now() >= deadline);
        assert!(polls <= 3, "{polls} polls before a 5.5 ms timer fired");
    }

    #[test]
    fn timers_tolerate_spurious_wakeups() {
        let m = Metrics::disabled();
        let mut reactor = Reactor::new(&m).unwrap();
        let waker = reactor.waker().unwrap();
        let deadline = Instant::now() + Duration::from_millis(120);
        reactor.arm_timer(7, deadline);

        // Hammer the waker from another thread: every poll wakes early and
        // returns with no events, but the timer must not fire before its
        // deadline.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let noisy = std::thread::spawn(move || {
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                waker.wake();
                std::thread::sleep(Duration::from_millis(3));
            }
        });

        let mut out = Vec::new();
        loop {
            reactor.poll(&mut out, Duration::from_millis(500)).unwrap();
            if let Some(ReactorEvent::Timer(k)) = out.first() {
                assert_eq!(*k, 7);
                assert!(
                    Instant::now() >= deadline,
                    "timer fired before its deadline under spurious wakeups"
                );
                break;
            }
            assert!(out.is_empty(), "unexpected events: {out:?}");
            assert!(
                Instant::now() < deadline + Duration::from_secs(5),
                "timer never fired"
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        noisy.join().unwrap();
    }

    #[test]
    fn half_open_peer_still_receives_the_queued_drain() {
        let m = Metrics::disabled();
        let mut reactor = Reactor::new(&m).unwrap();
        let (token, mut peer) = pair(&mut reactor);

        // Queue a burst of frames, then have the peer close its WRITE side
        // (we read EOF — a half-open socket) while it keeps reading. Every
        // queued frame must still arrive, then the token closes.
        let frames = 2000u32;
        for i in 0..frames {
            assert!(reactor.send(token, &Message::Heartbeat { node: NodeId(i) }));
        }
        peer.shutdown(std::net::Shutdown::Write).unwrap();

        let reader = std::thread::spawn(move || {
            let mut got = 0u32;
            while let Ok(Some(_)) = crate::wire::recv_message(&mut peer) {
                got += 1;
            }
            got
        });
        let mut out = Vec::new();
        poll_until(&mut reactor, &mut out, |evs| {
            evs.iter()
                .any(|e| matches!(e, ReactorEvent::Closed(t) if *t == token))
        });
        assert_eq!(reader.join().unwrap(), frames, "drain lost frames");
    }

    #[test]
    fn write_queue_bound_drops_and_counts_instead_of_growing() {
        let m = Metrics::enabled();
        let mut reactor = Reactor::new(&m).unwrap();
        reactor.set_write_queue_bound(MAX_FRAME + 4); // one frame's worth
        let (token, peer) = pair(&mut reactor);

        // The peer never reads. Pump frames until the socket buffer and
        // then the queue fill: sends must start returning false (dropped)
        // rather than queueing without bound.
        let big = Message::JoinAck {
            node: NodeId(1),
            accepted: false,
            reason: "x".repeat(64 << 10),
        };
        let mut dropped = 0u32;
        let mut out = Vec::new();
        for _ in 0..200 {
            if !reactor.send(token, &big) {
                dropped += 1;
            }
            reactor.poll(&mut out, Duration::ZERO).unwrap();
        }
        assert!(dropped > 0, "bound never engaged");
        assert!(reactor.pending_write_bytes() <= MAX_FRAME + 4);
        let report = m.report();
        assert_eq!(
            report.counter("net.reactor.backpressure_drops"),
            u64::from(dropped)
        );
        assert!(report.counter("net.reactor.stalls") >= 1);
        drop(peer);
    }

    #[test]
    fn queued_frames_leave_in_one_write() {
        let m = Metrics::enabled();
        let mut reactor = Reactor::new(&m).unwrap();
        let (token, mut peer) = pair(&mut reactor);

        let sent: Vec<Message> = (0..32)
            .map(|i| Message::Heartbeat { node: NodeId(i) })
            .collect();
        for msg in &sent {
            assert!(reactor.send(token, msg));
        }
        let mut out = Vec::new();
        reactor.poll(&mut out, Duration::ZERO).unwrap();
        assert_eq!(m.report().counter("net.reactor.write_calls"), 1);
        assert_eq!(reactor.pending_write_bytes(), 0);

        let got: Vec<Message> = (0..sent.len())
            .map(|_| crate::wire::recv_message(&mut peer).unwrap().unwrap())
            .collect();
        assert_eq!(got, sent);
    }

    #[test]
    fn partial_writes_resume_inside_frames_and_across_batches() {
        let m = Metrics::enabled();
        let mut reactor = Reactor::new(&m).unwrap();
        reactor.set_write_queue_bound(64 << 20);
        let (token, mut peer) = pair(&mut reactor);

        // Payloads from 1 B (`Shutdown`) to 70 KiB, ~16 MB in all: far more
        // frames than one `writev` carries and more bytes than the socket
        // buffers hold while the peer is not reading.
        let sizes = [0usize, 1, 13, 255, 4_095, 16_384, 65_535, 70 << 10];
        let sent: Vec<Message> = (0..800)
            .map(|i| match sizes[i % sizes.len()] {
                0 => Message::Shutdown,
                n => Message::JoinAck {
                    node: NodeId(i as u32),
                    accepted: i % 2 == 0,
                    reason: "r".repeat(n),
                },
            })
            .collect();
        let mut expected = Vec::new();
        for msg in &sent {
            let frame = Reactor::encode_frame(msg);
            expected.extend_from_slice(&frame);
            assert!(reactor.send_frame(token, frame));
        }

        let stalled = |m: &Metrics| m.report().counter("net.reactor.stalls") >= 1;
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !stalled(&m) {
            assert!(Instant::now() < deadline, "the socket never filled");
            reactor.poll(&mut out, Duration::from_millis(5)).unwrap();
        }
        assert!(reactor.pending_write_bytes() > 0);

        let total = expected.len();
        let reader = std::thread::spawn(move || {
            let mut got = vec![0u8; total];
            peer.read_exact(&mut got).unwrap();
            got
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.pending_write_bytes() > 0 {
            assert!(Instant::now() < deadline, "the queue never drained");
            reactor.poll(&mut out, Duration::from_millis(5)).unwrap();
        }
        let got = reader.join().unwrap();
        assert!(got == expected, "bytes on the wire differ from the queue");
        let mut decoded = Vec::new();
        FrameDecoder::new().feed(&got, &mut decoded).unwrap();
        assert_eq!(decoded, sent);
        assert_eq!(m.report().gauge("net.reactor.pending_write_bytes"), 0);
        assert!(out.is_empty(), "unexpected events: {out:?}");
    }

    #[test]
    fn short_read_stop_still_reports_eof_once() {
        let m = Metrics::disabled();
        let mut reactor = Reactor::new(&m).unwrap();
        let (token, mut peer) = pair(&mut reactor);

        let sent: Vec<Message> = (0..3)
            .map(|i| Message::Heartbeat { node: NodeId(i) })
            .collect();
        let burst: Vec<u8> = sent.iter().flat_map(|m| m.frame()).collect();
        peer.write_all(&burst).unwrap();
        peer.shutdown(std::net::Shutdown::Write).unwrap();

        let mut out = Vec::new();
        poll_until(&mut reactor, &mut out, |evs| {
            evs.iter().any(|e| matches!(e, ReactorEvent::Closed(_)))
        });
        for _ in 0..3 {
            reactor.poll(&mut out, Duration::from_millis(5)).unwrap();
        }
        let mut got = Vec::new();
        for (i, e) in out.iter().enumerate() {
            match e {
                ReactorEvent::Frame(t, msg) if *t == token => got.push(msg.clone()),
                ReactorEvent::Closed(t) if *t == token => assert_eq!(i, out.len() - 1),
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(got, sent);
        assert!(!reactor.has_conn(token));
    }

    #[test]
    fn incremental_decoder_matches_one_shot_byte_for_byte() {
        let msgs = vec![
            Message::Heartbeat { node: NodeId(7) },
            Message::JoinAck {
                node: NodeId(3),
                accepted: true,
                reason: String::new(),
            },
            Message::Shutdown,
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&Reactor::encode_frame(m));
        }
        // Byte-at-a-time: the decoder must produce the same messages.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.feed(std::slice::from_ref(b), &mut got).unwrap();
        }
        assert_eq!(got, msgs);
        assert!(dec.at_boundary());
        // Oversized frames are rejected before allocation.
        let mut bad = FrameDecoder::new();
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert_eq!(
            bad.feed(&huge, &mut got),
            Err(WireError::FrameTooLarge(MAX_FRAME + 1))
        );
    }

    #[test]
    fn failed_epoll_add_closes_the_connection_and_is_counted() {
        let m = Metrics::enabled();
        let mut reactor = Reactor::new(&m).unwrap();
        // Swap in a closed (invalid) epoll fd: every ADD now fails EBADF,
        // exactly as it would on ENOMEM/ENOSPC.
        reactor.backend = Backend(-1);
        assert!(reactor.backend.register(-1, 7).is_err());

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        assert!(reactor.register(server_side).is_err());
        assert_eq!(reactor.open_connections(), 0, "no unserviced conn kept");
        assert_eq!(m.report().counter("net.reactor.register_failures"), 1);
        // The stream was dropped, so the peer sees EOF instead of silence.
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(peer.read(&mut [0u8; 8]).unwrap(), 0);
    }
}
