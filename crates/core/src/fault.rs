//! Deterministic fault injection for the transport layer.
//!
//! Recovery code is only as trustworthy as the failures it has been run
//! against, and real networks fail rarely and unreproducibly. This module
//! makes failure a *scheduled input*:
//!
//! * [`FaultInjectingTransport`] wraps any [`PirTransport`] and injects
//!   faults at **operation** granularity, driven by a [`FaultSchedule`]
//!   mapping the wrapper's global operation counter to a [`FaultAction`]
//!   — drop the connection before the request is sent (the server never
//!   sees it), drop it after (the server executes it but the reply is
//!   lost — the poisonous *applied-but-unacknowledged* case for updates),
//!   truncate the reply, or just delay. Wrapping only one replica of a
//!   [`crate::scheme::TwoServerPir`] produces exactly the one-sided
//!   failures the epoch-driven recovery path must absorb.
//! * [`FaultProxy`] is a frame-aware TCP proxy for the real
//!   [`crate::transport::TcpTransport`]: it forwards the versioned
//!   [`crate::wire`] frames between a client and an `impir-server`
//!   service, and kills or mangles the connection at a scheduled frame
//!   index. Because the proxy's *listener* stays up while individual
//!   connections die, it exercises the transport's reconnect + handshake
//!   + retry path against a live server without rebinding ports.
//!
//! Schedules are plain maps, built explicitly or generated
//! pseudo-randomly from a seed ([`FaultSchedule::seeded`]) so a soak test
//! can sweep many distinct failure interleavings and still reproduce any
//! of them from its seed alone.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use impir_dpf::SelectorVector;

use crate::batch::UpdateOutcome;
use crate::error::PirError;
use crate::journal::UpdateBatch;
use crate::protocol::QueryShare;
use crate::transport::{
    EpochInfo, PirTransport, RoundTrip, ScanResult, ServerInfo, TransportBatch,
};
use crate::wire::{Frame, FRAME_HEADER_BYTES, MAX_FRAME_BYTES};

// ---------------------------------------------------------------------------
// Fault actions and schedules
// ---------------------------------------------------------------------------

/// One injected fault, applied to a single transport operation (for
/// [`FaultInjectingTransport`]) or a single client frame (for
/// [`FaultProxy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The connection dies before the request leaves the client: the
    /// server never sees the operation. Safe to retry blindly.
    DropBeforeRequest,
    /// The request reaches the server and **executes**, but the reply is
    /// lost. For an update this is the applied-but-unacknowledged case
    /// that blind resends would double-apply.
    DropAfterRequest,
    /// The reply (or, on the proxy, the forwarded request) is cut off
    /// mid-frame, exercising the hostile-input decoding path.
    TruncateReply,
    /// The operation is delayed by this many milliseconds, then runs
    /// normally — reordering pressure without failure.
    DelayMillis(u64),
}

/// A deterministic schedule: operation (or frame) index → fault.
///
/// Indices count from 0 over the lifetime of the wrapper/proxy, across
/// reconnects; operations without an entry run untouched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    faults: BTreeMap<u64, FaultAction>,
}

impl FaultSchedule {
    /// An empty schedule (no faults — the wrapper is a transparent proxy).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a fault at operation `index` (builder style).
    #[must_use]
    pub fn with_fault(mut self, index: u64, action: FaultAction) -> Self {
        self.faults.insert(index, action);
        self
    }

    /// Generates a pseudo-random schedule over operations `0..ops`:
    /// roughly one in `one_in` operations faults, with the fault kind and
    /// position derived from `seed` alone (SplitMix64), so every schedule
    /// is reproducible from `(seed, ops, one_in)`.
    #[must_use]
    pub fn seeded(seed: u64, ops: u64, one_in: u64) -> Self {
        let one_in = one_in.max(1);
        let mut faults = BTreeMap::new();
        for index in 0..ops {
            let roll = splitmix64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if !roll.is_multiple_of(one_in) {
                continue;
            }
            let action = match (roll >> 8) % 4 {
                0 => FaultAction::DropBeforeRequest,
                1 => FaultAction::DropAfterRequest,
                2 => FaultAction::TruncateReply,
                _ => FaultAction::DelayMillis(1 + (roll >> 16) % 3),
            };
            faults.insert(index, action);
        }
        Self { faults }
    }

    /// The scheduled fault for `index`, if any.
    #[must_use]
    pub fn action_at(&self, index: u64) -> Option<FaultAction> {
        self.faults.get(&index).copied()
    }

    /// How many faults the schedule contains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The largest scheduled index, if any — operations past it run clean.
    #[must_use]
    pub fn last_index(&self) -> Option<u64> {
        self.faults.keys().next_back().copied()
    }
}

/// SplitMix64 — the standard 64-bit mixer; deterministic, dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// FaultInjectingTransport
// ---------------------------------------------------------------------------

/// A [`PirTransport`] wrapper that injects scheduled faults.
///
/// Every trait method consumes one index of the wrapper's global
/// operation counter (queries, scans, updates, epoch fetches and replays
/// all count), checks the [`FaultSchedule`], and either runs the inner
/// transport untouched or injects the scheduled [`FaultAction`]. Injected
/// failures surface as [`PirError::Protocol`] with an
/// `injected fault`-prefixed reason so tests can tell them from real
/// failures.
pub struct FaultInjectingTransport {
    inner: Box<dyn PirTransport>,
    schedule: FaultSchedule,
    next_op: u64,
    injected: u64,
}

impl std::fmt::Debug for FaultInjectingTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjectingTransport")
            .field("schedule", &self.schedule)
            .field("next_op", &self.next_op)
            .field("injected", &self.injected)
            .finish_non_exhaustive()
    }
}

impl FaultInjectingTransport {
    /// Wraps `inner`, injecting the faults in `schedule`.
    #[must_use]
    pub fn new(inner: Box<dyn PirTransport>, schedule: FaultSchedule) -> Self {
        Self {
            inner,
            schedule,
            next_op: 0,
            injected: 0,
        }
    }

    /// How many operations have passed through the wrapper so far.
    #[must_use]
    pub fn operations(&self) -> u64 {
        self.next_op
    }

    /// How many faults have actually been injected so far (delays count).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Runs one operation through the schedule.
    ///
    /// `DropAfterRequest` and `TruncateReply` *execute* the inner call and
    /// discard its result — the server-side effect happens, the client
    /// never learns of it — which is precisely the ambiguity the scheme's
    /// epoch-pinned recovery has to resolve.
    fn around<T>(
        &mut self,
        op: &str,
        call: impl FnOnce(&mut dyn PirTransport) -> Result<T, PirError>,
    ) -> Result<T, PirError> {
        let index = self.next_op;
        self.next_op += 1;
        let injected_error = |detail: &str| PirError::Protocol {
            reason: format!("injected fault at operation {index} ({op}): {detail}"),
        };
        match self.schedule.action_at(index) {
            None => call(self.inner.as_mut()),
            Some(FaultAction::DelayMillis(ms)) => {
                self.injected += 1;
                std::thread::sleep(Duration::from_millis(ms));
                call(self.inner.as_mut())
            }
            Some(FaultAction::DropBeforeRequest) => {
                self.injected += 1;
                Err(injected_error(
                    "connection dropped before the request was sent",
                ))
            }
            Some(FaultAction::DropAfterRequest) => {
                self.injected += 1;
                let _ = call(self.inner.as_mut());
                Err(injected_error(
                    "connection dropped after the request was sent; the reply was lost",
                ))
            }
            Some(FaultAction::TruncateReply) => {
                self.injected += 1;
                let _ = call(self.inner.as_mut());
                Err(injected_error("reply frame truncated mid-body"))
            }
        }
    }
}

/// The typed operations are overridden, not inherited from `round_trip`, so
/// that each one — a multi-round-trip replay included — is one scheduled
/// operation, as the schedules' hand-placed indices assume.
impl PirTransport for FaultInjectingTransport {
    fn round_trip(&mut self, request: Frame) -> Result<RoundTrip, PirError> {
        self.around("round_trip", |inner| inner.round_trip(request))
    }

    fn server_info(&mut self) -> Result<ServerInfo, PirError> {
        self.around("server_info", |inner| inner.server_info())
    }

    fn query_batch(&mut self, shares: &[QueryShare]) -> Result<TransportBatch, PirError> {
        self.around("query_batch", |inner| inner.query_batch(shares))
    }

    fn scan_selector(&mut self, selector: &SelectorVector) -> Result<ScanResult, PirError> {
        self.around("scan_selector", |inner| inner.scan_selector(selector))
    }

    fn apply_updates(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<UpdateOutcome, PirError> {
        self.around("apply_updates", |inner| inner.apply_updates(updates))
    }

    fn epoch_info(&mut self) -> Result<EpochInfo, PirError> {
        self.around("epoch_info", |inner| inner.epoch_info())
    }

    fn replay_updates(&mut self, from_epoch: u64) -> Result<Vec<UpdateBatch>, PirError> {
        self.around("replay_updates", |inner| inner.replay_updates(from_epoch))
    }
}

// ---------------------------------------------------------------------------
// FaultProxy
// ---------------------------------------------------------------------------

/// How long the proxy waits on either side of a relay before giving up on
/// the connection pair. Generous: it only matters when a test deadlocks.
const PROXY_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How often the accept loop wakes up to observe a shutdown request.
const PROXY_POLL: Duration = Duration::from_millis(20);

/// A frame-aware TCP proxy that injects faults between a
/// [`crate::transport::TcpTransport`] and a live server.
///
/// The proxy accepts client connections on its own loopback port and
/// relays the wire protocol to `upstream` in lock-step (one client frame
/// forwarded, one server frame relayed back — the request/reply shape of
/// the protocol after the handshake). Client frames are counted globally
/// across connections; when a frame's index has a scheduled
/// [`FaultAction`], the proxy kills or mangles the *connection pair* —
/// the listener survives, so a reconnecting client reaches the same
/// backend again. This is what lets a test drive the transport's
/// reconnect + re-handshake + retry machinery deterministically.
#[derive(Debug)]
pub struct FaultProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    frames: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral loopback port, relaying to
    /// `upstream` and injecting `schedule` (indexed by client frame:
    /// handshake `Hello`s and `Goodbye`s count too, including those of
    /// reconnects).
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] if the listener cannot bind or
    /// `upstream` does not resolve.
    pub fn start(upstream: impl ToSocketAddrs, schedule: FaultSchedule) -> Result<Self, PirError> {
        let upstream: Vec<SocketAddr> = upstream
            .to_socket_addrs()
            .map_err(|err| PirError::Protocol {
                reason: format!("fault proxy could not resolve upstream: {err}"),
            })?
            .collect();
        if upstream.is_empty() {
            return Err(PirError::Protocol {
                reason: "fault proxy upstream resolved to no addresses".into(),
            });
        }
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|err| PirError::Protocol {
            reason: format!("fault proxy could not bind: {err}"),
        })?;
        let addr = listener.local_addr().map_err(|err| PirError::Protocol {
            reason: format!("fault proxy local_addr failed: {err}"),
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|err| PirError::Protocol {
                reason: format!("fault proxy could not set nonblocking accept: {err}"),
            })?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let frames = Arc::new(AtomicU64::new(0));
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            let frames = Arc::clone(&frames);
            let schedule = Arc::new(schedule);
            std::thread::spawn(move || {
                accept_loop(&listener, &upstream, &schedule, &shutdown, &frames)
            })
        };
        Ok(Self {
            addr,
            shutdown,
            frames,
            handle: Some(handle),
        })
    }

    /// The proxy's listening address — point the client transport here.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many client frames the proxy has seen so far (all connections).
    #[must_use]
    pub fn frames_seen(&self) -> u64 {
        self.frames.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins the proxy thread. In-flight connection
    /// pairs are abandoned (their relay threads exit on the next I/O).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: &[SocketAddr],
    schedule: &Arc<FaultSchedule>,
    shutdown: &Arc<AtomicBool>,
    frames: &Arc<AtomicU64>,
) {
    let mut relays = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let upstream = upstream.to_vec();
                let schedule = Arc::clone(schedule);
                let frames = Arc::clone(frames);
                relays.push(std::thread::spawn(move || {
                    relay_connection(client, &upstream, &schedule, &frames);
                }));
            }
            Err(ref err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(PROXY_POLL);
            }
            Err(_) => break,
        }
    }
    // Relay threads exit on their own once their sockets die (bounded by
    // PROXY_IO_TIMEOUT); join them so shutdown leaves nothing running.
    for relay in relays {
        let _ = relay.join();
    }
}

/// Relays one client connection to the upstream server in lock-step —
/// one client frame forward, one server frame back — injecting any fault
/// scheduled for a client frame's global index. Returning closes both
/// sockets (dropped), which is exactly how faults "kill the connection".
fn relay_connection(
    client: TcpStream,
    upstream: &[SocketAddr],
    schedule: &FaultSchedule,
    frames: &AtomicU64,
) {
    let Ok(server) = TcpStream::connect(upstream) else {
        return;
    };
    let mut client = client;
    let mut server = server;
    for stream in [&client, &server] {
        let _ = stream.set_read_timeout(Some(PROXY_IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(PROXY_IO_TIMEOUT));
        let _ = stream.set_nodelay(true);
    }
    loop {
        let Some(request) = read_frame(&mut client) else {
            return;
        };
        let index = frames.fetch_add(1, Ordering::SeqCst);
        match schedule.action_at(index) {
            Some(FaultAction::DropBeforeRequest) => {
                // The server never sees the request.
                let _ = client.shutdown(Shutdown::Both);
                let _ = server.shutdown(Shutdown::Both);
                return;
            }
            Some(FaultAction::DropAfterRequest) => {
                // The server executes the request; the client never sees
                // the reply (the server's write fails into a dead socket).
                if server.write_all(&request).is_ok() {
                    let _ = server.flush();
                    // Wait for the reply so the server has definitely
                    // *processed* the request before the client observes
                    // the drop — then discard it.
                    let _ = read_frame(&mut server);
                }
                let _ = client.shutdown(Shutdown::Both);
                let _ = server.shutdown(Shutdown::Both);
                return;
            }
            Some(FaultAction::TruncateReply) => {
                // Forward the request, then cut the reply off mid-frame:
                // the client's decoder must reject it without panicking.
                if server.write_all(&request).is_ok() {
                    let _ = server.flush();
                    if let Some(reply) = read_frame(&mut server) {
                        let keep = reply.len().saturating_sub(1).max(FRAME_HEADER_BYTES - 1);
                        let _ = client.write_all(&reply[..keep.min(reply.len())]);
                        let _ = client.flush();
                    }
                }
                let _ = client.shutdown(Shutdown::Both);
                let _ = server.shutdown(Shutdown::Both);
                return;
            }
            Some(FaultAction::DelayMillis(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
            }
            None => {}
        }
        if server.write_all(&request).is_err() || server.flush().is_err() {
            return;
        }
        let Some(reply) = read_frame(&mut server) else {
            // Goodbye frames get no reply: the server closes, we close.
            return;
        };
        if client.write_all(&reply).is_err() || client.flush().is_err() {
            return;
        }
    }
}

/// Reads one length-prefixed wire frame (header + body) or `None` on any
/// I/O error, EOF, or an implausible length (the relay then just closes —
/// the endpoints' own decoders produce the actual protocol errors).
fn read_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    stream.read_exact(&mut header).ok()?;
    let body_len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    if body_len == 0 || body_len > MAX_FRAME_BYTES {
        return None;
    }
    // The length prefix covers tag + body; the tag byte is already in the
    // header buffer, so `body_len - 1` bytes remain on the stream.
    let mut frame = vec![0u8; FRAME_HEADER_BYTES + body_len - 1];
    frame[..FRAME_HEADER_BYTES].copy_from_slice(&header);
    stream.read_exact(&mut frame[FRAME_HEADER_BYTES..]).ok()?;
    Some(frame)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::database::Database;
    use crate::engine::{EngineConfig, QueryEngine};
    use crate::server::cpu::{CpuPirServer, CpuServerConfig};
    use crate::transport::LocalTransport;

    fn wrapped(schedule: FaultSchedule) -> FaultInjectingTransport {
        let db = Arc::new(Database::random(32, 8, 5).unwrap());
        let backend = CpuPirServer::new(db, CpuServerConfig::baseline()).unwrap();
        let engine = QueryEngine::single(backend, EngineConfig::default()).unwrap();
        FaultInjectingTransport::new(Box::new(LocalTransport::new(engine)), schedule)
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_seed_sensitive() {
        let a = FaultSchedule::seeded(42, 200, 5);
        let b = FaultSchedule::seeded(42, 200, 5);
        let c = FaultSchedule::seeded(43, 200, 5);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must give different schedules");
        assert!(!a.is_empty(), "1-in-5 over 200 ops must schedule faults");
        assert!(a.last_index().unwrap() < 200);
    }

    #[test]
    fn scheduled_operations_fault_and_unscheduled_ones_pass_through() {
        let schedule = FaultSchedule::none()
            .with_fault(1, FaultAction::DropBeforeRequest)
            .with_fault(2, FaultAction::DropAfterRequest);
        let mut transport = wrapped(schedule);
        // Op 0: clean.
        assert!(transport.server_info().is_ok());
        // Op 1: dropped before the server sees it — no epoch movement.
        let err = transport.apply_updates(&[(0, vec![1; 8])]).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        // Op 2: executes on the server, reply lost.
        assert!(transport.apply_updates(&[(1, vec![2; 8])]).is_err());
        // Op 3: clean again; the epoch shows exactly ONE commit.
        assert_eq!(transport.epoch_info().unwrap().current_epoch, 1);
        assert_eq!(transport.operations(), 4);
        assert_eq!(transport.injected(), 2);
    }
}
