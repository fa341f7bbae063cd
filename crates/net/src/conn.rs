//! A client-side connection handle over one [`Reactor`]-driven thread.
//!
//! Each [`Connection`] owns a single detached `net-io-{id}` thread running
//! a listener-less [`Reactor`] with exactly one registered stream: the
//! thread drains a command channel (sends and flush requests, woken
//! through the reactor's [`Waker`]), pumps the socket, and forwards every
//! decoded frame as a [`NetEvent`] into a shared sink channel (the
//! client's single event loop). The old transport spent two OS threads per
//! connection (a blocking reader and a blocking writer); the reactor
//! multiplexes both directions on one.
//!
//! Dropping the last `Connection` handle closes the command channel, which
//! makes the thread drain whatever is queued onto the wire, close the
//! socket, report [`NetEvent::Closed`] and exit — no join handles, no
//! leaked sockets, and a farewell frame queued before the drop still gets
//! delivered.

use crate::reactor::{Reactor, ReactorEvent, Waker};
use crate::wire::Message;
use sagrid_core::metrics::Metrics;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// Identifier of a connection within one process (monotonic, never reused).
pub type ConnId = u64;

/// What a connection's I/O thread reports into the owning event loop.
#[derive(Debug)]
pub enum NetEvent {
    /// A new connection was established (sent by accept loops / dialers,
    /// carrying the connection handle itself).
    Opened(Connection),
    /// A decoded message arrived on the connection.
    Message(ConnId, Message),
    /// The connection is gone: clean EOF, transport error or a protocol
    /// violation (undecodable frame). Exactly one per connection.
    Closed(ConnId),
}

/// What travels through the command channel to the I/O thread. FIFO
/// ordering is load-bearing: a flush ack means every frame queued before
/// it has been written to the socket.
enum Cmd {
    /// A message to frame onto the socket.
    Msg(Message),
    /// Drain the write queue (bounded by the duration), then ack.
    Flush(Duration, Sender<()>),
}

/// The shared core of a connection handle. Held strongly by every public
/// [`Connection`] clone; when the last strong reference drops, the command
/// channel closes and the I/O thread winds down.
struct ConnInner {
    cmds: Sender<Cmd>,
    waker: Waker,
    /// Cleared by the I/O thread *before* it reports `Closed`, so a caller
    /// that observed the close never gets a `true` from `send`.
    alive: Arc<AtomicBool>,
}

impl std::fmt::Debug for ConnInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnInner")
            .field("alive", &self.alive.load(Ordering::Relaxed))
            .finish()
    }
}

/// A live connection: a handle to send messages, plus one background
/// thread pumping the socket through a reactor.
#[derive(Clone, Debug)]
pub struct Connection {
    id: ConnId,
    peer: SocketAddr,
    inner: Arc<ConnInner>,
}

impl Connection {
    /// Takes ownership of `stream` and starts the I/O thread. Every
    /// inbound message and the final close surface on `events`.
    ///
    /// An [`NetEvent::Opened`] carrying a clone of the handle is enqueued
    /// *before* the I/O thread starts, so an event loop always sees
    /// `Opened` before any `Message` from the same connection — without
    /// this guarantee a fast peer's first message could race the accept
    /// loop's registration and be processed against an unknown connection.
    pub fn spawn(
        id: ConnId,
        stream: TcpStream,
        events: Sender<NetEvent>,
    ) -> io::Result<Connection> {
        let peer = stream.peer_addr()?;
        // The reactor is private to this connection's thread and runs
        // unmetered.
        let mut reactor = Reactor::new(&Metrics::disabled())?;
        let token = reactor.register(stream)?;
        let waker = reactor.waker()?;
        let (cmds, inbox) = channel::<Cmd>();
        let alive = Arc::new(AtomicBool::new(true));
        let conn = Connection {
            id,
            peer,
            inner: Arc::new(ConnInner {
                cmds,
                waker,
                alive: Arc::clone(&alive),
            }),
        };
        let _ = events.send(NetEvent::Opened(conn.clone()));

        std::thread::Builder::new()
            .name(format!("net-io-{id}"))
            .spawn(move || {
                let mut out: Vec<ReactorEvent> = Vec::new();
                'life: loop {
                    // Drain commands queued since the last turn.
                    loop {
                        match inbox.try_recv() {
                            Ok(Cmd::Msg(msg)) => {
                                reactor.send(token, &msg);
                            }
                            Ok(Cmd::Flush(timeout, ack)) => {
                                if reactor.flush(token, timeout) {
                                    let _ = ack.send(());
                                }
                            }
                            Err(TryRecvError::Empty) => break,
                            Err(TryRecvError::Disconnected) => {
                                // Every handle is gone: put what is queued
                                // on the wire, then close. A farewell frame
                                // queued right before the drop still lands.
                                reactor.flush(token, Duration::from_secs(5));
                                break 'life;
                            }
                        }
                    }
                    if reactor.poll(&mut out, Duration::from_millis(50)).is_err() {
                        break 'life;
                    }
                    for ev in out.drain(..) {
                        match ev {
                            ReactorEvent::Frame(_, msg) => {
                                if events.send(NetEvent::Message(id, msg)).is_err() {
                                    break 'life; // sink gone: nobody listening
                                }
                            }
                            ReactorEvent::Closed(_) => break 'life,
                            // No listener, no timers on this reactor.
                            ReactorEvent::Accepted(..) | ReactorEvent::Timer(_) => {}
                        }
                    }
                }
                // Ordering matters: a caller that saw Closed must never
                // observe a subsequent send() succeeding.
                alive.store(false, Ordering::SeqCst);
                let _ = events.send(NetEvent::Closed(id));
            })
            .expect("spawn net io thread");

        Ok(conn)
    }

    /// The connection's process-local id.
    pub fn id(&self) -> ConnId {
        self.id
    }

    /// The remote address.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Queues a message for the I/O thread. Returns `false` when the
    /// connection is already gone (the caller will observe a
    /// [`NetEvent::Closed`] too).
    pub fn send(&self, msg: Message) -> bool {
        if !self.inner.alive.load(Ordering::SeqCst) {
            return false;
        }
        if self.inner.cmds.send(Cmd::Msg(msg)).is_err() {
            return false;
        }
        self.inner.waker.wake();
        true
    }

    /// Blocks until every message queued before this call has been written
    /// to the socket, or `timeout` elapses. Returns `true` on a confirmed
    /// drain; `false` on timeout or when the connection is already gone.
    /// This is how a departing process guarantees its farewell frame is on
    /// the wire before exiting — a sleep only hopes.
    pub fn flush(&self, timeout: Duration) -> bool {
        if !self.inner.alive.load(Ordering::SeqCst) {
            return false;
        }
        let (ack_tx, ack_rx) = channel();
        if self.inner.cmds.send(Cmd::Flush(timeout, ack_tx)).is_err() {
            return false;
        }
        self.inner.waker.wake();
        ack_rx.recv_timeout(timeout).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::send_message;
    use sagrid_core::ids::NodeId;
    use std::io::{BufReader, BufWriter};
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn messages_flow_both_ways_and_close_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (events_tx, events_rx) = channel();

        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut r = BufReader::new(stream.try_clone().unwrap());
            let msg = crate::wire::recv_message(&mut r).unwrap().unwrap();
            assert_eq!(msg, Message::Heartbeat { node: NodeId(3) });
            let mut w = BufWriter::new(&stream);
            send_message(&mut w, &Message::Shutdown).unwrap();
            // Drop the socket: the client must observe Closed.
        });

        let stream = TcpStream::connect(addr).unwrap();
        let conn = Connection::spawn(1, stream, events_tx).unwrap();
        assert!(conn.send(Message::Heartbeat { node: NodeId(3) }));

        let evt = events_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(evt, NetEvent::Opened(_)), "got {evt:?}");
        let evt = events_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        match evt {
            NetEvent::Message(1, Message::Shutdown) => {}
            other => panic!("expected Shutdown, got {other:?}"),
        }
        let evt = events_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(evt, NetEvent::Closed(1)), "got {evt:?}");
        server.join().unwrap();
    }

    #[test]
    fn flush_confirms_queued_frames_are_on_the_wire() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (events_tx, events_rx) = channel();
        let (got_tx, got_rx) = channel::<Message>();

        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut r = BufReader::new(stream.try_clone().unwrap());
            while let Ok(Some(msg)) = crate::wire::recv_message(&mut r) {
                if got_tx.send(msg).is_err() {
                    break;
                }
            }
        });

        let stream = TcpStream::connect(addr).unwrap();
        let conn = Connection::spawn(2, stream, events_tx).unwrap();
        // Drain the Opened event and drop the handle clone it carries —
        // otherwise it keeps the command channel open past the final drop
        // below.
        let evt = events_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let NetEvent::Opened(registered) = evt else {
            panic!("expected Opened first, got {evt:?}")
        };
        drop(registered);
        for i in 0..20 {
            assert!(conn.send(Message::Heartbeat { node: NodeId(i) }));
        }
        assert!(conn.send(Message::Leaving { node: NodeId(7) }));
        assert!(
            conn.flush(Duration::from_secs(5)),
            "flush must ack within the timeout"
        );
        // The ack guarantees the frames were written; a live loopback
        // socket delivers them promptly after that.
        let mut got = Vec::new();
        while got.len() < 21 {
            got.push(got_rx.recv_timeout(Duration::from_secs(5)).unwrap());
        }
        assert_eq!(got.last(), Some(&Message::Leaving { node: NodeId(7) }));
        drop(conn);
        let _ = events_rx; // keep the sink alive until here
        server.join().unwrap();
    }

    /// Live thread names of this process (Linux: `/proc/self/task/*/comm`).
    #[cfg(target_os = "linux")]
    fn live_thread_names() -> Vec<String> {
        let mut names = Vec::new();
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for t in tasks.flatten() {
                if let Ok(name) = std::fs::read_to_string(t.path().join("comm")) {
                    names.push(name.trim().to_string());
                }
            }
        }
        names
    }

    /// A connection costs exactly ONE thread, and peer EOF terminates it
    /// even while a public handle keeps the command channel open and idle
    /// (the thread-pair transport this replaced needed a reader→writer
    /// shutdown signal to achieve the same).
    #[test]
    #[cfg(target_os = "linux")]
    fn peer_eof_terminates_the_io_thread() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (events_tx, events_rx) = channel();

        let stream = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        // Thread names are capped at 15 chars; id 4242 keeps it unique.
        let conn = Connection::spawn(4242, stream, events_tx).unwrap();
        let evt = events_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(evt, NetEvent::Opened(_)));
        // The thread is spawned after `Opened` is enqueued; poll for its
        // name rather than asserting once.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !live_thread_names().iter().any(|n| n == "net-io-4242") {
            assert!(Instant::now() < deadline, "io thread never appeared");
            std::thread::sleep(Duration::from_millis(10));
        }
        // One thread per connection — the old net-reader/net-writer pair
        // must not exist.
        let names = live_thread_names();
        assert!(
            !names
                .iter()
                .any(|n| n.starts_with("net-reader") || n.starts_with("net-writer")),
            "thread-pair transport resurrected: {names:?}"
        );

        // Peer closes: the io thread must observe EOF and exit, while
        // `conn` still holds the command channel open.
        drop(server_side);
        let evt = events_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(evt, NetEvent::Closed(4242)), "got {evt:?}");

        let deadline = Instant::now() + Duration::from_secs(5);
        while live_thread_names().iter().any(|n| n == "net-io-4242") {
            assert!(Instant::now() < deadline, "io thread still alive");
            std::thread::sleep(Duration::from_millis(10));
        }

        // The dead connection rejects further traffic instead of queueing
        // into the void.
        assert!(!conn.send(Message::Shutdown));
        assert!(!conn.flush(Duration::from_millis(100)));
    }
}
