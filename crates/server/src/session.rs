//! The session tier: blocking I/O, two threads per TCP connection.
//!
//! * the **reader** blocks in `read` (the kernel wakes it; it wakes on its
//!   own only every [`ServiceConfig::io_timeout`] to notice shutdown),
//!   parses and validates each frame — handshake gate, reserved session
//!   id 0, logical-session budget — and forwards the request to the
//!   dispatcher **without waiting for its answer** ([`dispatch`]): a full
//!   admission queue is answered with a typed [`Frame::Overloaded`]
//!   refusal instead of blocking, so many logical sessions
//!   ([`Frame::Mux`]) on one connection pipeline into the dispatcher's
//!   wave coalescing;
//! * the **writer** drains a bounded FIFO of the replies the connection is
//!   owed, in request order — block on the dispatcher's answer, re-wrap it
//!   for its logical session, write it — and is the only code that writes
//!   to the socket, so no two replies ever interleave bytes.
//!
//! A peer that stops reading its replies blocks the writer, the FIFO
//! fills, and the reader parks on it: the peer's own requests back up into
//! its socket (TCP backpressure) while the server holds at most
//! [`REPLY_FIFO_DEPTH`] replies for it. Thread count is two per
//! *connection*, constant in the number of logical sessions.
//!
//! [`accept_connections`] is the crate's one accept loop — the replica
//! service and the front-tier router both run it. It blocks in `accept`;
//! whoever wants it to stop makes its stop condition true and then calls
//! [`wake_acceptor`].
//!
//! Hostile input follows the wire module's rules: a bad session id, an
//! oversized or truncated frame, or garbage bytes produce a protocol
//! error frame and a closed connection — never a panic, never an
//! allocation sized by an unvalidated length.

use std::collections::HashSet;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use impir_core::wire::{error_reply, Frame, MAX_FRAME_BYTES, WIRE_VERSION};
use impir_core::PirError;

use crate::{protocol, ServiceConfig, ServiceRequest};

/// Replies one connection may be owed at a time — forwarded to the
/// dispatcher or ready, but not yet written; past it the reader stops
/// reading until the writer catches up. As deep as the default admission
/// queue: one multiplexed connection alone can keep full waves coalescing,
/// and it takes several together to overrun the dispatcher into shedding.
const REPLY_FIFO_DEPTH: usize = 64;

/// The backoff hint carried by [`Frame::Overloaded`] refusals.
const OVERLOAD_RETRY_MS: u64 = 25;

/// Accepts connections off `listener` — blocked in `accept`, not polling —
/// and runs `serve` for each on a thread of its own until `stop()` holds,
/// then joins every thread it spawned. `stop` is evaluated each time
/// `accept` returns, so whoever makes it true follows up with
/// [`wake_acceptor`].
pub(crate) fn accept_connections(
    listener: &TcpListener,
    stop: impl Fn() -> bool,
    serve: impl Fn(TcpStream) + Send + Sync + 'static,
) {
    let serve = Arc::new(serve);
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if stop() {
            // Whatever was accepted is the waker's throwaway connection or
            // a client that lost the race against the stop: dropped.
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let serve = Arc::clone(&serve);
                connections.push(std::thread::spawn(move || serve(stream)));
            }
            Err(err)
                if matches!(
                    err.kind(),
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                ) => {}
            Err(_) => break,
        }
        // Reap finished connections as we go: a serve-until-killed server
        // would otherwise accumulate one dead JoinHandle per past client.
        let (finished, running): (Vec<_>, Vec<_>) = connections
            .into_iter()
            .partition(std::thread::JoinHandle::is_finished);
        for connection in finished {
            let _ = connection.join();
        }
        connections = running;
    }
    for connection in connections {
        let _ = connection.join();
    }
}

/// Wakes the thread blocked in [`accept_connections`] on the listener at
/// `listener_addr` with a throwaway loopback connection, so it re-checks
/// its stop condition. A failed connect needs no handling: either the
/// listener is already gone, or its backlog is full and `accept` is about
/// to return anyway.
pub(crate) fn wake_acceptor(listener_addr: SocketAddr) {
    let mut addr = listener_addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// The logical-session budget ([`ServiceConfig::max_sessions`]): handshaken
/// root sessions plus distinct multiplexed session ids, never raw TCP
/// connections — a port scanner or health-check probe that connects and
/// leaves must not consume a `--max-sessions 1` server's budget. Whoever
/// spends the last slot wakes the acceptor, whose stop condition the
/// spent budget is.
pub(crate) struct SessionBudget {
    opened: AtomicUsize,
    limit: Option<usize>,
    acceptor: SocketAddr,
}

impl SessionBudget {
    pub(crate) fn new(limit: Option<usize>, acceptor: SocketAddr) -> Self {
        SessionBudget {
            opened: AtomicUsize::new(0),
            limit,
            acceptor,
        }
    }

    pub(crate) fn spent(&self) -> bool {
        self.limit
            .is_some_and(|limit| self.opened.load(Ordering::SeqCst) >= limit)
    }

    /// Counts a connection's root session at its handshake. Never refused:
    /// a connection accepted before the budget ran out is served in full
    /// (the overshoot documented on [`ServiceConfig::max_sessions`]).
    fn open_root(&self) {
        self.opened.fetch_add(1, Ordering::SeqCst);
        self.wake_acceptor_if_spent();
    }

    /// Claims one multiplexed session — exactly: past the budget the claim
    /// fails and the session is refused.
    fn claim_mux(&self) -> bool {
        let Some(limit) = self.limit else {
            return true;
        };
        let claimed = self
            .opened
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |opened| {
                (opened < limit).then_some(opened + 1)
            })
            .is_ok();
        if claimed {
            self.wake_acceptor_if_spent();
        }
        claimed
    }

    fn wake_acceptor_if_spent(&self) {
        if self.spent() {
            wake_acceptor(self.acceptor);
        }
    }
}

/// What every connection of one service shares. The request sender in
/// here is the service's master clone: the dispatcher ends exactly when
/// the acceptor and the last connection have dropped this.
pub(crate) struct SessionContext {
    pub(crate) requests: Sender<ServiceRequest>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) budget: SessionBudget,
    pub(crate) config: ServiceConfig,
}

/// What dispatching one parsed request produced.
enum Dispatch {
    /// Forwarded; the reply frame arrives through the held receiver.
    Pending(Receiver<Frame>),
    /// Answered locally without touching the dispatcher.
    Immediate(Frame),
    /// A protocol violation: send the frame, then close the connection.
    Violation(Frame),
    /// The dispatcher queue is full: shed this request.
    Overloaded,
    /// The session said `Goodbye`.
    EndSession,
}

/// The `Error` frame a request gets when the dispatcher has exited.
fn dispatcher_gone_frame() -> Frame {
    error_reply(&protocol("service dispatcher is gone"))
}

/// Forwards one request to the dispatcher without blocking. `opening` is
/// true for a connection's first frame only — the one place a `Hello` is
/// a request rather than a violation.
fn dispatch(requests: &Sender<ServiceRequest>, frame: Frame, opening: bool) -> Dispatch {
    let forward = match &frame {
        Frame::Goodbye => return Dispatch::EndSession,
        Frame::Hello { .. } => opening,
        Frame::UpdateBatch { .. } => true,
        request => request.is_idempotent_request(),
    };
    if !forward {
        // Hello mid-session or a server-only frame. (A nested Mux can
        // never reach here — the decoder rejects it.)
        return Dispatch::Violation(Frame::Error {
            message: format!("unexpected {} frame mid-session", frame.name()),
        });
    }
    let (reply, rx) = bounded(1);
    match requests.try_send(ServiceRequest { frame, reply }) {
        Ok(()) => Dispatch::Pending(rx),
        Err(TrySendError::Full(_)) => Dispatch::Overloaded,
        Err(TrySendError::Disconnected(_)) => Dispatch::Immediate(dispatcher_gone_frame()),
    }
}

/// Why a connection's first frame does not open a session, as the `Error`
/// frame to refuse it with; `None` for a `Hello` of our wire version. The
/// router's client-facing side gates its sessions with the same check.
pub(crate) fn hello_refusal(first: &Frame) -> Option<Frame> {
    let message = match first {
        Frame::Hello { version } if *version == WIRE_VERSION => return None,
        Frame::Hello { version } => {
            format!("server speaks wire version {WIRE_VERSION}, client sent {version}")
        }
        other => format!("expected Hello to open the session, got {}", other.name()),
    };
    Some(Frame::Error { message })
}

/// One entry of a connection's reply FIFO.
struct Owed {
    /// The logical session the reply goes back to; `None` = the root
    /// session, which speaks plain frames.
    session: Option<u32>,
    reply: Reply,
}

enum Reply {
    Pending(Receiver<Frame>),
    Ready(Frame),
}

/// Serves one client connection until the client hangs up, says goodbye,
/// violates the protocol, or the service stops: this thread reads, a
/// scoped second one writes (see the [module docs](self)).
pub(crate) fn serve_connection(stream: TcpStream, ctx: &SessionContext) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(ctx.config.io_timeout));
    let _ = stream.set_write_timeout(Some(ctx.config.io_timeout));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (replies, owed) = bounded(REPLY_FIFO_DEPTH);
    std::thread::scope(|scope| {
        scope.spawn(move || write_replies(write_half, &owed, ctx));
        // Returning drops `replies`: the writer sends what is still owed
        // and ends, so "reply, then close" is a send followed by a return.
        read_requests(stream, replies, ctx);
    });
}

/// The reader half: frames in, requests forwarded, replies queued.
fn read_requests(mut stream: TcpStream, replies: Sender<Owed>, ctx: &SessionContext) {
    let ready = |session, frame| Owed {
        session,
        reply: Reply::Ready(frame),
    };
    let mut handshaken = false;
    // Multiplexed session ids already counted against the budget.
    let mut mux_sessions: HashSet<u32> = HashSet::new();
    loop {
        let frame = match read_session_frame(&mut stream, &ctx.shutdown) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean close
            Err(err) => {
                // Framing is broken: report if possible, then close.
                let _ = replies.send(ready(None, error_reply(&err)));
                return;
            }
        };
        let opening = !handshaken;
        let (session, frame) = match frame {
            first if opening => {
                if let Some(refusal) = hello_refusal(&first) {
                    let _ = replies.send(ready(None, refusal));
                    return;
                }
                handshaken = true;
                ctx.budget.open_root();
                (None, first)
            }
            // Session id 0 *is* the root session — it speaks plain frames;
            // a Mux wrapper claiming it is hostile input.
            Frame::Mux { session: 0, .. } => {
                let _ = replies.send(ready(
                    None,
                    error_reply(&protocol(
                        "session id 0 is reserved for the connection's root session",
                    )),
                ));
                return;
            }
            Frame::Mux { session, frame } => {
                if !mux_sessions.contains(&session) {
                    if !ctx.budget.claim_mux() {
                        // The refusal is scoped to the new logical session:
                        // its co-tenants on this connection keep working.
                        let refusal = error_reply(&protocol(
                            "the server's logical session budget is exhausted",
                        ));
                        if replies.send(ready(Some(session), refusal)).is_err() {
                            return;
                        }
                        continue;
                    }
                    mux_sessions.insert(session);
                }
                (Some(session), *frame)
            }
            plain => (None, plain),
        };
        let reply = match dispatch(&ctx.requests, frame, opening) {
            Dispatch::Pending(pending) => Reply::Pending(pending),
            Dispatch::Immediate(frame) => Reply::Ready(frame),
            // Typed admission control: the request is refused before
            // execution; the client backs off and retries.
            Dispatch::Overloaded => Reply::Ready(Frame::Overloaded {
                retry_after_ms: OVERLOAD_RETRY_MS,
            }),
            Dispatch::Violation(frame) => {
                let _ = replies.send(ready(session, frame));
                return;
            }
            // A muxed Goodbye closes only that logical session; the
            // connection (and its other sessions) lives on.
            Dispatch::EndSession if session.is_some() => continue,
            Dispatch::EndSession => return,
        };
        // Blocks while the FIFO is full; fails once the writer is gone.
        if replies.send(Owed { session, reply }).is_err() {
            return;
        }
    }
}

/// The writer half: the FIFO's replies onto the socket, in order.
fn write_replies(mut stream: TcpStream, owed: &Receiver<Owed>, ctx: &SessionContext) {
    while let Ok(Owed { session, reply }) = owed.recv() {
        // A dispatcher that exited instead of answering yields an error.
        let frame = match reply {
            Reply::Ready(frame) => frame,
            Reply::Pending(rx) => rx.recv().unwrap_or_else(|_| dispatcher_gone_frame()),
        };
        // A failed write, or a reply the encoder refuses (over the frame
        // size bound), leaves nothing valid to send on this framing.
        if write_session_frame(&mut stream, &wrap(session, frame), &ctx.shutdown).is_err() {
            break;
        }
    }
    // If the reader is still parked in `read`, this is what ends it.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Re-wraps a reply for the logical session its request arrived on: plain
/// for the root session, muxed with the same id otherwise.
fn wrap(session: Option<u32>, reply: Frame) -> Frame {
    match session {
        None => reply,
        Some(session) => Frame::Mux {
            session,
            frame: Box::new(reply),
        },
    }
}

/// A timeout (or signal) woke the blocked call; nothing is wrong with the
/// socket.
fn woke_early(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
}

/// Fills `buf` from `stream`, waking every [`ServiceConfig::io_timeout`]
/// (the stream's read timeout) to check the shutdown flag. `Ok(false)`
/// means the peer closed, or shutdown was requested, before the first
/// byte — only `idle` reads (waiting for the next frame) may end that
/// way; mid-frame both are hard errors, because the framing is already
/// half-consumed.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    idle: bool,
) -> Result<bool, PirError> {
    let mut filled = 0;
    while filled < buf.len() {
        if shutdown.load(Ordering::SeqCst) {
            if idle && filled == 0 {
                return Ok(false);
            }
            return Err(protocol("server shutting down"));
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) if idle && filled == 0 => return Ok(false),
            Ok(0) => return Err(protocol("peer closed the connection mid-frame")),
            Ok(read) => filled += read,
            Err(err) if woke_early(&err) => {}
            Err(err) => return Err(protocol(&format!("reading from session: {err}"))),
        }
    }
    Ok(true)
}

/// Writes all of `bytes`, waking every [`ServiceConfig::io_timeout`] (the
/// stream's write timeout) to check the shutdown flag — a client that
/// stops reading its socket cannot pin this thread (and with it
/// [`crate::PirService::shutdown`]) in a blocked `write` forever.
fn write_full(stream: &mut TcpStream, bytes: &[u8], shutdown: &AtomicBool) -> Result<(), PirError> {
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err(protocol("peer stopped accepting bytes mid-frame")),
            Ok(sent) => written += sent,
            Err(err) if woke_early(&err) => {
                // Only abandon the write when the service is stopping AND
                // the socket refuses bytes: a writable socket drains its
                // already-computed reply through shutdown (graceful stop),
                // while a client that stopped reading cannot pin this
                // thread past one timeout.
                if shutdown.load(Ordering::SeqCst) {
                    return Err(protocol("server shutting down"));
                }
            }
            Err(err) => return Err(protocol(&format!("writing to session: {err}"))),
        }
    }
    let _ = stream.flush();
    Ok(())
}

/// Encodes and sends one frame through [`write_full`].
pub(crate) fn write_session_frame(
    stream: &mut TcpStream,
    frame: &Frame,
    shutdown: &AtomicBool,
) -> Result<(), PirError> {
    write_full(stream, &frame.encode()?, shutdown)
}

/// Reads one frame, checking for shutdown between (not within) frames.
/// `Ok(None)` means the session ended cleanly (disconnect or shutdown).
pub(crate) fn read_session_frame(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
) -> Result<Option<Frame>, PirError> {
    let mut prefix = [0u8; 4];
    if !read_full(stream, &mut prefix, shutdown, true)? {
        return Ok(None);
    }
    let length = u32::from_le_bytes(prefix) as usize;
    if length == 0 || length > MAX_FRAME_BYTES {
        return Err(protocol(&format!(
            "frame of {length} bytes is outside the accepted range"
        )));
    }
    let mut full = vec![0u8; 4 + length];
    full[..4].copy_from_slice(&prefix);
    read_full(stream, &mut full[4..], shutdown, false)?;
    Frame::decode(&full).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shed path, pinned deterministically: a full dispatcher queue
    /// turns a dispatch into `Overloaded` without consuming the request,
    /// and room in the queue turns the next dispatch back into a
    /// forwarded request — recovery needs no reconnect.
    #[test]
    fn full_admission_queue_sheds_and_recovers() {
        let (requests, request_rx) = bounded::<ServiceRequest>(1);
        // Fill the only admission slot; the dispatcher is "busy" (nobody
        // drains the receiver yet).
        let (reply, _keep) = bounded(1);
        requests
            .try_send(ServiceRequest {
                frame: Frame::EpochInfoRequest,
                reply,
            })
            .unwrap();
        assert!(matches!(
            dispatch(&requests, Frame::InfoRequest, false),
            Dispatch::Overloaded
        ));
        // The queue drains: the same connection's next request forwards.
        let _ = request_rx.try_recv().unwrap();
        assert!(matches!(
            dispatch(&requests, Frame::InfoRequest, false),
            Dispatch::Pending(_)
        ));
        assert!(matches!(
            request_rx.try_recv().unwrap().frame,
            Frame::InfoRequest
        ));
        // A dead dispatcher is a different, non-retryable answer.
        drop(request_rx);
        assert!(matches!(
            dispatch(&requests, Frame::InfoRequest, false),
            Dispatch::Immediate(Frame::Error { .. })
        ));
    }

    #[test]
    fn goodbye_and_server_only_frames_classify_correctly() {
        let (requests, request_rx) = bounded::<ServiceRequest>(4);
        assert!(matches!(
            dispatch(&requests, Frame::Goodbye, false),
            Dispatch::EndSession
        ));
        // A reply-direction frame from a client is a protocol violation.
        assert!(matches!(
            dispatch(
                &requests,
                Frame::Overloaded {
                    retry_after_ms: OVERLOAD_RETRY_MS
                },
                false
            ),
            Dispatch::Violation(Frame::Error { .. })
        ));
        // So is a Hello anywhere but first on its connection.
        let hello = Frame::Hello {
            version: WIRE_VERSION,
        };
        assert!(matches!(
            dispatch(&requests, hello.clone(), false),
            Dispatch::Violation(Frame::Error { .. })
        ));
        assert!(matches!(
            dispatch(&requests, hello, true),
            Dispatch::Pending(_)
        ));
        assert!(matches!(
            request_rx.try_recv().unwrap().frame,
            Frame::Hello { .. }
        ));
    }
}
