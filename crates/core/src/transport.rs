//! Transport-agnostic access to a PIR server: *where* a server runs is a
//! deployment policy, not a type.
//!
//! [`PirTransport`] is the client-side boundary of the service layer. A
//! scheme ([`crate::scheme::TwoServerPir`],
//! [`crate::multi_server::NServerNaivePir`]) holds `Box<dyn PirTransport>`
//! per server and cannot tell the implementations apart.
//!
//! A transport implements exactly one thing: a **round trip**
//! ([`PirTransport::round_trip`]) — one request [`Frame`] out, its reply
//! frame back, and the bytes that moved each way. The six operations a
//! scheme calls (info, query, scan, update, epoch info, replay) are written
//! once, as provided methods over that round trip: they build the request,
//! check the reply's kind and count, turn refusal frames into typed errors
//! ([`crate::wire::check_reply`]) and run the epoch-pinned, chunked replay
//! loop. The implementations differ only in who answers the frame:
//!
//! * [`LocalTransport`] hands it to a [`QueryEngine`] in-process
//!   ([`QueryEngine::handle`], the same function a served replica runs) —
//!   no sockets, no serialization;
//! * [`TcpTransport`] speaks the [`crate::wire`] format over `std::net` to
//!   an `impir-server` process (connection-per-session), reconnecting and
//!   retrying idempotent requests under its [`RetryPolicy`];
//! * [`MuxConnection`] multiplexes many logical sessions over **one** TCP
//!   connection using [`Frame::Mux`] session ids — each
//!   [`MuxConnection::session`] is a [`MuxSession`], a full
//!   [`PirTransport`] of its own. Sessions pipeline: a background reader
//!   thread routes each reply to the session that asked, so concurrent
//!   sessions never head-of-line block on one another's round trips. The
//!   router uses this for its backend legs (one socket per replica
//!   instead of one per client session).
//!
//! Every transport reports the **wire cost** of each batch
//! ([`TransportBatch::upload_bytes`] / [`TransportBatch::download_bytes`]):
//! the socket transports count the bytes they actually moved, and the
//! local transport reports what the same frames *would* cost on the wire,
//! so cost accounting is deployment-independent too.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use impir_dpf::SelectorVector;

use crate::batch::{UpdatableBackend, UpdateOutcome};
use crate::engine::QueryEngine;
use crate::error::PirError;
use crate::journal::UpdateBatch;
use crate::protocol::{QueryShare, ServerResponse};
use crate::server::phases::PhaseBreakdown;
use crate::wire::{self, check_reply, protocol_error, Frame, WIRE_VERSION};

pub use crate::wire::{EpochInfo, ServerInfo};

/// The result of one query batch through a transport: the responses plus
/// deployment-independent accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportBatch {
    /// Responses, in the same order as the submitted shares.
    pub responses: Vec<ServerResponse>,
    /// The server's database epoch when the batch executed. A scheme
    /// querying replicated servers checks these match across its
    /// transports (see [`crate::scheme::TwoServerPir::query_batch`]).
    pub epoch: u64,
    /// Wall time observed at the transport boundary, in seconds — for
    /// remote transports this includes the network round trip.
    pub wall_seconds: f64,
    /// Wall time the server itself measured for the batch, in seconds.
    pub server_wall_seconds: f64,
    /// The server's per-phase accounting of the batch.
    pub phase_totals: PhaseBreakdown,
    /// Bytes of request traffic for this batch (wire framing included).
    pub upload_bytes: u64,
    /// Bytes of response traffic for this batch (wire framing included).
    pub download_bytes: u64,
}

impl TransportBatch {
    /// Throughput in queries per second, based on the transport-boundary
    /// wall time.
    #[must_use]
    pub fn throughput_qps(&self) -> f64 {
        self.responses.len() as f64 / self.wall_seconds
    }

    /// Simulated-hardware batch latency: phases that ran on the simulated
    /// PIM use their modelled time, host phases their measured time.
    #[must_use]
    pub fn hybrid_seconds(&self) -> f64 {
        self.phase_totals.total_hybrid_seconds()
    }
}

/// The result of one selector scan through a transport.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResult {
    /// The record-sized XOR subresult.
    pub payload: Vec<u8>,
    /// The server's database epoch when the scan executed. An n-server
    /// query is `n` sequential scans; callers cross-check these so an
    /// update landing between scans is detected (see
    /// [`crate::multi_server::NServerNaivePir::query`]).
    pub epoch: u64,
    /// The server's per-phase accounting of the scan.
    pub phases: PhaseBreakdown,
}

/// One request/reply exchange through a transport.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrip {
    /// The server's reply, as sent — refusal frames
    /// ([`Frame::Error`], [`Frame::Overloaded`], [`Frame::JournalTruncated`])
    /// included.
    pub reply: Frame,
    /// Bytes of the request on the wire, framing included.
    pub upload_bytes: u64,
    /// Bytes of the reply on the wire, framing included.
    pub download_bytes: u64,
}

/// The error for a reply of the wrong kind.
fn unexpected_reply(expected: &str, got: &Frame) -> PirError {
    protocol_error(format!("expected a {expected} reply, got {}", got.name()))
}

/// Client-side handle to one PIR server, wherever it runs.
///
/// Methods take `&mut self`: a transport is a session, used by one logical
/// client at a time (servers multiplex many sessions internally).
/// Implementations define [`PirTransport::round_trip`] only; the typed
/// operations are written once, here.
pub trait PirTransport: Send {
    /// Sends one request frame and returns the reply frame with the bytes
    /// moved each way. The reply is returned as the server sent it, so a
    /// refusal frame is an `Ok` here; the typed operations map refusals
    /// to errors.
    ///
    /// # Errors
    ///
    /// [`PirError::Protocol`] when the exchange itself fails (connection
    /// lost, malformed reply). An in-process transport returns the
    /// engine's typed error where a server would send a refusal frame.
    fn round_trip(&mut self, request: Frame) -> Result<RoundTrip, PirError>;

    /// The served database's geometry and current shard/epoch state.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] on transport failures.
    fn server_info(&mut self) -> Result<ServerInfo, PirError> {
        match check_reply(self.round_trip(Frame::InfoRequest)?.reply)? {
            Frame::Info { info } => Ok(info),
            other => Err(unexpected_reply("Info", &other)),
        }
    }

    /// Submits a batch of query shares and returns the responses (in
    /// order) with wire-cost and timing accounting.
    ///
    /// # Errors
    ///
    /// Propagates server-side errors (domain mismatches, backend
    /// failures) and returns [`PirError::Protocol`] on transport failures
    /// or when the reply does not answer every share.
    fn query_batch(&mut self, shares: &[QueryShare]) -> Result<TransportBatch, PirError> {
        let started = Instant::now();
        let exchange = self.round_trip(Frame::QueryBatch {
            shares: shares.to_vec(),
        })?;
        let wall_seconds = started.elapsed().as_secs_f64();
        match check_reply(exchange.reply)? {
            Frame::ResponseBatch {
                epoch,
                wall_seconds: server_wall_seconds,
                phases,
                responses,
            } => {
                if responses.len() != shares.len() {
                    return Err(protocol_error(format!(
                        "server answered {} responses to {} shares",
                        responses.len(),
                        shares.len()
                    )));
                }
                Ok(TransportBatch {
                    responses,
                    epoch,
                    wall_seconds,
                    server_wall_seconds,
                    phase_totals: phases,
                    upload_bytes: exchange.upload_bytes,
                    download_bytes: exchange.download_bytes,
                })
            }
            other => Err(unexpected_reply("ResponseBatch", &other)),
        }
    }

    /// Scans one full-domain linear selector share (the n-server naive
    /// scheme) and returns the XOR subresult with its epoch and phase
    /// accounting.
    ///
    /// # Errors
    ///
    /// As for [`PirTransport::query_batch`].
    fn scan_selector(&mut self, selector: &SelectorVector) -> Result<ScanResult, PirError> {
        let request = Frame::SelectorScan {
            selector: selector.clone(),
        };
        match check_reply(self.round_trip(request)?.reply)? {
            Frame::SelectorResult {
                epoch,
                payload,
                phases,
            } => Ok(ScanResult {
                payload,
                epoch,
                phases,
            }),
            other => Err(unexpected_reply("SelectorResult", &other)),
        }
    }

    /// Applies a bulk update batch (§3.3) to the server's database.
    ///
    /// # Errors
    ///
    /// Propagates the engine's all-or-nothing validation errors and
    /// returns [`PirError::Protocol`] on transport failures.
    fn apply_updates(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<UpdateOutcome, PirError> {
        let request = Frame::UpdateBatch {
            updates: updates.to_vec(),
        };
        match check_reply(self.round_trip(request)?.reply)? {
            Frame::UpdateAck { outcome } => Ok(outcome),
            other => Err(unexpected_reply("UpdateAck", &other)),
        }
    }

    /// The server's database epoch and update-journal coverage — what a
    /// replicated scheme consults when its replicas disagree, to decide
    /// which one lags and whether the lag is still replayable.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] on transport failures.
    fn epoch_info(&mut self) -> Result<EpochInfo, PirError> {
        match check_reply(self.round_trip(Frame::EpochInfoRequest)?.reply)? {
            Frame::EpochInfo { info } => Ok(info),
            other => Err(unexpected_reply("EpochInfo", &other)),
        }
    }

    /// The update batches a replica stuck at `from_epoch` must apply, in
    /// order, to reach this server's epoch (see
    /// [`crate::journal::UpdateJournal::replay_from`]).
    ///
    /// The server bounds every reply frame, so a large lag arrives as a
    /// *prefix* of the replay per round trip. This loops, advancing the
    /// requested epoch by the batches received, until the server's epoch
    /// at entry is reached or a reply comes back empty (caught up).
    /// Pinning the target at entry bounds the loop — a concurrent writer
    /// cannot extend it indefinitely; its tail batches are picked up by
    /// the caller's next resync round.
    ///
    /// # Errors
    ///
    /// * [`PirError::JournalTruncated`] when the server's journal no
    ///   longer reaches back to `from_epoch`;
    /// * [`PirError::Protocol`] on transport failures or when `from_epoch`
    ///   is ahead of the server.
    fn replay_updates(&mut self, from_epoch: u64) -> Result<Vec<UpdateBatch>, PirError> {
        let target = self.epoch_info()?.current_epoch;
        let mut next_epoch = from_epoch;
        let mut all: Vec<UpdateBatch> = Vec::new();
        loop {
            let request = Frame::UpdateReplayRequest {
                from_epoch: next_epoch,
            };
            let batches = match check_reply(self.round_trip(request)?.reply)? {
                Frame::UpdateReplay { batches } => batches,
                other => return Err(unexpected_reply("UpdateReplay", &other)),
            };
            if batches.is_empty() {
                break;
            }
            next_epoch += batches.len() as u64;
            all.extend(batches);
            if next_epoch >= target {
                break;
            }
        }
        Ok(all)
    }
}

// ---------------------------------------------------------------------------
// In-process transport.
// ---------------------------------------------------------------------------

/// A [`PirTransport`] wrapping a [`QueryEngine`] in the same process — no
/// sockets, no serialization, but the same interface, the same answers
/// ([`QueryEngine::handle`]) and the same wire cost accounting as a remote
/// server.
#[derive(Debug)]
pub struct LocalTransport<S: UpdatableBackend + Send + Sync> {
    engine: QueryEngine<S>,
}

impl<S: UpdatableBackend + Send + Sync> LocalTransport<S> {
    /// Wraps an engine.
    #[must_use]
    pub fn new(engine: QueryEngine<S>) -> Self {
        LocalTransport { engine }
    }

    /// The wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &QueryEngine<S> {
        &self.engine
    }

    /// Mutable access to the wrapped engine.
    pub fn engine_mut(&mut self) -> &mut QueryEngine<S> {
        &mut self.engine
    }

    /// Unwraps the transport back into its engine.
    #[must_use]
    pub fn into_engine(self) -> QueryEngine<S> {
        self.engine
    }
}

impl<S: UpdatableBackend + Send + Sync> PirTransport for LocalTransport<S> {
    fn round_trip(&mut self, request: Frame) -> Result<RoundTrip, PirError> {
        let upload_bytes = request.encoded_bytes() as u64;
        // Replies are bounded like a default-configured server's, so a
        // long replay is chunked exactly as it would be on the wire.
        let reply = self.engine.handle(request, wire::MAX_FRAME_BYTES)?;
        Ok(RoundTrip {
            upload_bytes,
            download_bytes: reply.encoded_bytes() as u64,
            reply,
        })
    }
}

// ---------------------------------------------------------------------------
// TCP transport.
// ---------------------------------------------------------------------------

/// How a [`TcpTransport`] behaves when an operation's connection fails:
/// how many attempts an **idempotent** operation gets, how the waits
/// between attempts grow, and how long any single socket read/write may
/// block.
///
/// Only idempotent operations (queries, scans, info, epoch info, replay)
/// are retried — re-running them cannot change server state. An update
/// batch is **never** blindly re-sent: once its request bytes may have
/// reached the server, a retry could apply the batch twice (bumping the
/// epoch twice and desynchronising replicas). A failed update surfaces to
/// the caller, where [`crate::scheme::TwoServerPir::apply_updates`]
/// resolves the ambiguity through epoch comparison instead of resending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts an idempotent operation gets (at least 1). The
    /// default of 1 means no retries — exactly the pre-policy behavior.
    pub max_attempts: u32,
    /// Wait before the first retry; doubles per retry up to
    /// [`RetryPolicy::max_backoff`].
    pub initial_backoff: Duration,
    /// Upper bound on the exponential backoff.
    pub max_backoff: Duration,
    /// Per-attempt bound on any single socket read or write. `None` —
    /// the default — waits indefinitely, which is right for trusted
    /// servers running arbitrarily large batches; set a timeout when a
    /// wedged server must surface as [`PirError::Protocol`] instead of
    /// blocking the client forever.
    pub io_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            io_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// A policy for fault-tolerant deployments: a few quick retries with
    /// exponential backoff and a per-attempt I/O timeout.
    #[must_use]
    pub fn resilient() -> Self {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(250),
            io_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// How one low-level exchange failed: `Io` broke the connection (the
/// transport reconnects and, for idempotent operations, retries), `Fatal`
/// is a definitive answer (malformed or unexpected reply, version
/// mismatch) that no retry can change.
enum Failure {
    Io(String),
    Fatal(PirError),
}

/// A [`PirTransport`] speaking the [`crate::wire`] format over a TCP
/// connection (connection-per-session: one `TcpTransport` is one server
/// session; drop it to close the session).
///
/// The transport owns a [`RetryPolicy`]: when the connection breaks it
/// reconnects and re-handshakes, and idempotent requests are retried with
/// exponential backoff. Every failed exchange names the peer and the
/// request, so one replica's failure is attributable in a fleet's logs.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    /// Resolved peer addresses, kept for reconnection.
    peer: Vec<SocketAddr>,
    /// The peer as given by the caller, for error messages.
    peer_label: String,
    policy: RetryPolicy,
    /// Set when the connection is known dead (an I/O failure or a framing
    /// desync); the next operation reconnects before sending.
    broken: bool,
    /// The server info of the latest handshake.
    info: ServerInfo,
    uploaded_bytes: u64,
    downloaded_bytes: u64,
}

impl TcpTransport {
    /// Connects to an `impir-server` at `addr` and performs the
    /// magic/version handshake, with the default (no-retry)
    /// [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] if the connection cannot be
    /// established, the peer does not speak the protocol, or the versions
    /// disagree.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, PirError> {
        Self::connect_with(addr, RetryPolicy::default())
    }

    /// [`TcpTransport::connect`] with an explicit [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// As for [`TcpTransport::connect`].
    pub fn connect_with(addr: impl ToSocketAddrs, policy: RetryPolicy) -> Result<Self, PirError> {
        let peer: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|err| protocol_error(format!("resolving server address: {err}")))?
            .collect();
        let Some(first) = peer.first() else {
            return Err(protocol_error(
                "server address resolved to no socket addresses",
            ));
        };
        let peer_label = first.to_string();
        let stream = TcpStream::connect(&peer[..])
            .map_err(|err| protocol_error(format!("connecting to server {peer_label}: {err}")))?;
        let mut transport = TcpTransport {
            stream,
            peer,
            peer_label,
            policy,
            broken: false,
            info: ServerInfo {
                num_records: 0,
                record_size: 0,
                shard_count: 0,
                epoch: 0,
            },
            uploaded_bytes: 0,
            downloaded_bytes: 0,
        };
        transport.configure_stream()?;
        transport
            .handshake()
            .map_err(|failure| transport.to_error("handshaking", failure))?;
        Ok(transport)
    }

    /// The server info captured at the latest handshake (the connect, or
    /// the reconnect after a broken connection).
    #[must_use]
    pub fn cached_info(&self) -> ServerInfo {
        self.info
    }

    /// The peer address errors and logs refer to.
    #[must_use]
    pub fn peer(&self) -> &str {
        &self.peer_label
    }

    /// Total request bytes this session has put on the wire (handshakes
    /// and reconnects included).
    #[must_use]
    pub fn uploaded_bytes(&self) -> u64 {
        self.uploaded_bytes
    }

    /// Total response bytes this session has taken off the wire.
    #[must_use]
    pub fn downloaded_bytes(&self) -> u64 {
        self.downloaded_bytes
    }

    /// Replaces the transport's [`RetryPolicy`]. The per-attempt I/O
    /// timeout applies from the next operation.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] if the socket rejects the timeout
    /// (e.g. a zero duration).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) -> Result<(), PirError> {
        self.policy = policy;
        self.configure_stream()
    }

    /// Bounds how long this session waits for any single socket read or
    /// write (shorthand for updating the policy's `io_timeout`).
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] if the socket rejects the timeout
    /// (e.g. a zero duration).
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), PirError> {
        self.policy.io_timeout = timeout;
        self.configure_stream()
    }

    /// Applies the policy's socket options to the current stream.
    fn configure_stream(&mut self) -> Result<(), PirError> {
        let _ = self.stream.set_nodelay(true);
        self.stream
            .set_read_timeout(self.policy.io_timeout)
            .map_err(|err| self.operation_error("setting read timeout", &err.to_string()))?;
        self.stream
            .set_write_timeout(self.policy.io_timeout)
            .map_err(|err| self.operation_error("setting write timeout", &err.to_string()))
    }

    /// "op to peer: detail" — every error this transport produces names
    /// the peer and the operation, so multi-replica failures are
    /// attributable.
    fn operation_error(&self, op: &str, detail: &str) -> PirError {
        protocol_error(format!("{op} to server {}: {detail}", self.peer_label))
    }

    fn to_error(&self, op: &str, failure: Failure) -> PirError {
        match failure {
            Failure::Io(detail) => self.operation_error(op, &detail),
            Failure::Fatal(err) => err,
        }
    }

    /// Dials the peer again and re-handshakes, replacing the dead stream.
    fn reconnect(&mut self) -> Result<(), Failure> {
        let stream = TcpStream::connect(&self.peer[..])
            .map_err(|err| Failure::Io(format!("reconnecting: {err}")))?;
        self.stream = stream;
        self.configure_stream().map_err(Failure::Fatal)?;
        self.handshake()
    }

    /// The magic/version exchange on a fresh stream.
    fn handshake(&mut self) -> Result<(), Failure> {
        self.broken = false;
        let encoded = Frame::Hello {
            version: WIRE_VERSION,
        }
        .encode()
        .map_err(Failure::Fatal)?;
        let (reply, _) = self.exchange(&encoded)?;
        match check_reply(reply).map_err(Failure::Fatal)? {
            Frame::HelloAck { version, info } => {
                if version != WIRE_VERSION {
                    self.broken = true;
                    return Err(Failure::Fatal(self.operation_error(
                        "handshaking",
                        &format!(
                            "server speaks wire version {version}, this client speaks \
                             {WIRE_VERSION}"
                        ),
                    )));
                }
                self.info = info;
                Ok(())
            }
            other => Err(Failure::Fatal(self.operation_error(
                "handshaking",
                &unexpected_reply("HelloAck", &other).to_string(),
            ))),
        }
    }

    /// One request/response exchange on the current stream: the reply and
    /// its size on the wire. I/O failures and framing desyncs mark the
    /// connection broken; any decoded reply, refusals included, leaves it
    /// usable.
    fn exchange(&mut self, encoded: &[u8]) -> Result<(Frame, u64), Failure> {
        if let Err(err) = self.stream.write_all(encoded) {
            self.broken = true;
            return Err(Failure::Io(format!("writing request: {err}")));
        }
        if let Err(err) = self.stream.flush() {
            self.broken = true;
            return Err(Failure::Io(format!("flushing request: {err}")));
        }
        self.uploaded_bytes += encoded.len() as u64;
        self.receive_reply()
    }

    /// Reads one reply frame and its size on the wire, classifying
    /// failures: socket errors are retryable [`Failure::Io`]; malformed
    /// frames are [`Failure::Fatal`] (the stream is desynchronized — also
    /// marked broken so the next operation reconnects).
    fn receive_reply(&mut self) -> Result<(Frame, u64), Failure> {
        let mut prefix = [0u8; 4];
        if let Err(err) = self.stream.read_exact(&mut prefix) {
            self.broken = true;
            return Err(Failure::Io(format!("reading reply length: {err}")));
        }
        let length = u32::from_le_bytes(prefix) as usize;
        if length == 0 || length > wire::MAX_FRAME_BYTES {
            self.broken = true;
            return Err(Failure::Fatal(self.operation_error(
                "reading reply",
                &format!(
                    "frame length {length} outside (0, {}]",
                    wire::MAX_FRAME_BYTES
                ),
            )));
        }
        let mut buf = vec![0u8; 4 + length];
        buf[..4].copy_from_slice(&prefix);
        if let Err(err) = self.stream.read_exact(&mut buf[4..]) {
            self.broken = true;
            return Err(Failure::Io(format!("reading reply body: {err}")));
        }
        self.downloaded_bytes += buf.len() as u64;
        let reply = Frame::decode(&buf).map_err(|err| {
            // The stream is desynchronized from here on: reconnect next.
            self.broken = true;
            Failure::Fatal(self.operation_error("decoding reply", &err.to_string()))
        })?;
        Ok((reply, buf.len() as u64))
    }

    /// Runs one **idempotent** request to completion under the retry
    /// policy: reconnects a broken connection, retries I/O failures with
    /// exponential backoff, and surfaces fatal failures immediately.
    fn idempotent_request(&mut self, op: &str, encoded: &[u8]) -> Result<(Frame, u64), PirError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut backoff = self.policy.initial_backoff;
        let mut attempt = 0;
        loop {
            attempt += 1;
            let result = if self.broken {
                self.reconnect().and_then(|()| self.exchange(encoded))
            } else {
                self.exchange(encoded)
            };
            match result {
                Ok(reply) => return Ok(reply),
                Err(Failure::Fatal(err)) => return Err(err),
                Err(Failure::Io(detail)) => {
                    if attempt >= attempts {
                        return Err(self.operation_error(
                            op,
                            &format!("{detail} (after {attempt} attempt(s))"),
                        ));
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(self.policy.max_backoff);
                }
            }
        }
    }

    /// Runs one **non-idempotent** request: reconnecting a known-broken
    /// connection *before* sending is retried (nothing has been sent yet,
    /// so it cannot duplicate anything), but once the request bytes may
    /// have left this host, any failure is final — the server may have
    /// applied the update even though the ack was lost, and only the
    /// scheme layer can resolve that ambiguity (by epoch comparison, see
    /// [`crate::scheme::TwoServerPir::apply_updates`]).
    fn update_request(&mut self, op: &str, encoded: &[u8]) -> Result<(Frame, u64), PirError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut backoff = self.policy.initial_backoff;
        let mut attempt = 0;
        while self.broken {
            attempt += 1;
            match self.reconnect() {
                Ok(()) => break,
                Err(Failure::Fatal(err)) => return Err(err),
                Err(Failure::Io(detail)) => {
                    if attempt >= attempts {
                        return Err(self.operation_error(
                            op,
                            &format!("{detail} (after {attempt} reconnect attempt(s))"),
                        ));
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(self.policy.max_backoff);
                }
            }
        }
        self.exchange(encoded)
            .map_err(|failure| self.to_error(op, failure))
    }
}

impl PirTransport for TcpTransport {
    fn round_trip(&mut self, request: Frame) -> Result<RoundTrip, PirError> {
        let op = request.name();
        let encoded = request.encode()?;
        // Everything but an update batch is safe to re-send.
        let (reply, download_bytes) = if matches!(request, Frame::UpdateBatch { .. }) {
            self.update_request(op, &encoded)?
        } else {
            self.idempotent_request(op, &encoded)?
        };
        Ok(RoundTrip {
            reply,
            upload_bytes: encoded.len() as u64,
            download_bytes,
        })
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Best-effort clean close; the server also handles abrupt
        // disconnects.
        if let Ok(encoded) = Frame::Goodbye.encode() {
            let _ = self.stream.write_all(&encoded);
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

// ---------------------------------------------------------------------------
// Multiplexed TCP transport: many logical sessions, one connection.
// ---------------------------------------------------------------------------

/// What the reader thread hands a waiting session: the reply and its size
/// on the wire, or why the connection died.
type MuxReply = Result<(Frame, u64), PirError>;

/// State shared between a [`MuxConnection`], its [`MuxSession`]s and the
/// background reader thread.
struct MuxShared {
    /// The write half (a `try_clone` of the reader's stream); one frame
    /// at a time goes out under this lock, so concurrent sessions never
    /// interleave bytes inside a frame.
    writer: Mutex<TcpStream>,
    /// One in-flight request per session id; the reader thread completes
    /// them as [`Frame::Mux`] replies arrive, in whatever order the
    /// server answers.
    pending: Mutex<HashMap<u32, mpsc::Sender<MuxReply>>>,
    /// Set on any I/O failure or framing desync: the connection is dead
    /// and every subsequent request fails fast. A `MuxConnection` never
    /// reconnects itself — its owner (e.g. the router) replaces it, so
    /// sessions keep connection-per-session's explicit failure model.
    broken: AtomicBool,
    /// The peer as given by the caller, for error messages.
    peer_label: String,
    /// Total request bytes this connection has put on the wire.
    uploaded: AtomicU64,
    /// Total response bytes this connection has taken off the wire.
    downloaded: AtomicU64,
}

impl MuxShared {
    /// Marks the connection dead and fails every in-flight request with
    /// an error naming `reason`.
    fn fail(&self, reason: &str) {
        self.broken.store(true, Ordering::SeqCst);
        let mut pending = self.pending.lock().expect("mux pending lock poisoned");
        for (_, tx) in pending.drain() {
            let _ = tx.send(Err(protocol_error(format!(
                "multiplexed connection to server {} failed: {reason}",
                self.peer_label
            ))));
        }
    }
}

/// The reader half of a [`MuxConnection`]: blocks on the socket, routes
/// each [`Frame::Mux`] reply to the session that asked, and fails every
/// pending request when the connection dies (including the deliberate
/// shutdown `MuxConnection::drop` performs, which is what ends this
/// thread).
fn mux_reader_loop(mut stream: TcpStream, shared: &MuxShared) {
    loop {
        let (frame, taken) = match wire::read_frame(&mut stream) {
            Ok(read) => read,
            Err(err) => {
                shared.fail(&err.to_string());
                return;
            }
        };
        shared.downloaded.fetch_add(taken as u64, Ordering::Relaxed);
        match frame {
            Frame::Mux { session, frame } => {
                let sender = shared
                    .pending
                    .lock()
                    .expect("mux pending lock poisoned")
                    .remove(&session);
                match sender {
                    Some(tx) => {
                        // A dropped receiver (caller gave up) is fine;
                        // the reply is simply discarded.
                        let _ = tx.send(Ok((*frame, taken as u64)));
                    }
                    None => {
                        // A reply for a session nobody is waiting on
                        // means the two ends disagree about the stream
                        // state — fail closed rather than guess.
                        shared.fail(&format!("reply for unknown session {session}"));
                        return;
                    }
                }
            }
            other => {
                shared.fail(&format!(
                    "unmuxed {} frame on a multiplexed connection",
                    other.name()
                ));
                return;
            }
        }
    }
}

/// One multiplexed TCP connection to an `impir-server`, carrying many
/// logical sessions (see the [module docs](self)). Create sessions with
/// [`MuxConnection::session`]; drop the connection to close every
/// session at once.
pub struct MuxConnection {
    shared: Arc<MuxShared>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Session-id allocator. Id 0 is reserved for the connection's root
    /// session (plain unwrapped frames), so allocation starts at 1.
    next_session: AtomicU32,
    info: ServerInfo,
}

impl std::fmt::Debug for MuxConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxConnection")
            .field("peer", &self.shared.peer_label)
            .field("broken", &self.shared.broken.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl MuxConnection {
    /// Connects and performs the (connection-level, unwrapped)
    /// magic/version handshake, then starts the reader thread.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] if the connection cannot be
    /// established, the peer does not speak the protocol, or the
    /// versions disagree.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, PirError> {
        Self::connect_with(addr, None)
    }

    /// [`MuxConnection::connect`] with a bound on any single socket
    /// *write* (reads stay unbounded: the reader thread legitimately
    /// blocks until the server has something to say).
    ///
    /// # Errors
    ///
    /// As for [`MuxConnection::connect`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        write_timeout: Option<Duration>,
    ) -> Result<Self, PirError> {
        let peer: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|err| protocol_error(format!("resolving server address: {err}")))?
            .collect();
        let Some(first) = peer.first() else {
            return Err(protocol_error(
                "server address resolved to no socket addresses",
            ));
        };
        let peer_label = first.to_string();
        let mut stream = TcpStream::connect(&peer[..])
            .map_err(|err| protocol_error(format!("connecting to server {peer_label}: {err}")))?;
        let _ = stream.set_nodelay(true);

        // Connection-level handshake, before any multiplexing: plain
        // Hello out, plain HelloAck back.
        let hello = Frame::Hello {
            version: WIRE_VERSION,
        }
        .encode()?;
        stream
            .write_all(&hello)
            .and_then(|()| stream.flush())
            .map_err(|err| {
                protocol_error(format!("handshaking with server {peer_label}: {err}"))
            })?;
        let (reply, taken) = wire::read_frame(&mut stream)?;
        let info = match check_reply(reply)? {
            Frame::HelloAck { version, info } => {
                if version != WIRE_VERSION {
                    return Err(protocol_error(format!(
                        "server {peer_label} speaks wire version {version}, this client \
                         speaks {WIRE_VERSION}"
                    )));
                }
                info
            }
            other => {
                return Err(protocol_error(format!(
                    "expected a HelloAck frame from server {peer_label}, got {}",
                    other.name()
                )));
            }
        };

        let writer = stream.try_clone().map_err(|err| {
            protocol_error(format!("cloning stream to server {peer_label}: {err}"))
        })?;
        writer.set_write_timeout(write_timeout).map_err(|err| {
            protocol_error(format!(
                "setting write timeout to server {peer_label}: {err}"
            ))
        })?;
        let shared = Arc::new(MuxShared {
            writer: Mutex::new(writer),
            pending: Mutex::new(HashMap::new()),
            broken: AtomicBool::new(false),
            peer_label,
            uploaded: AtomicU64::new(hello.len() as u64),
            downloaded: AtomicU64::new(taken as u64),
        });
        let reader_shared = shared.clone();
        let reader = std::thread::Builder::new()
            .name("impir-mux-reader".to_string())
            .spawn(move || mux_reader_loop(stream, &reader_shared))
            .map_err(|err| protocol_error(format!("spawning mux reader thread: {err}")))?;
        Ok(MuxConnection {
            shared,
            reader: Some(reader),
            next_session: AtomicU32::new(1),
            info,
        })
    }

    /// Opens a new logical session on this connection. Purely local: the
    /// server learns of the session when its first frame arrives, and
    /// the session closes when the [`MuxSession`] drops (a muxed
    /// Goodbye) or the connection does.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] when the connection is already
    /// known dead.
    pub fn session(&self) -> Result<MuxSession, PirError> {
        if self.is_broken() {
            return Err(protocol_error(format!(
                "multiplexed connection to server {} is broken",
                self.shared.peer_label
            )));
        }
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        Ok(MuxSession {
            shared: self.shared.clone(),
            session,
        })
    }

    /// The server info captured at the connection handshake.
    #[must_use]
    pub fn cached_info(&self) -> ServerInfo {
        self.info
    }

    /// The peer address errors and logs refer to.
    #[must_use]
    pub fn peer(&self) -> &str {
        &self.shared.peer_label
    }

    /// Whether the connection is known dead (every further request on
    /// any of its sessions fails fast; the owner should replace it).
    #[must_use]
    pub fn is_broken(&self) -> bool {
        self.shared.broken.load(Ordering::SeqCst)
    }

    /// Total request bytes this connection has put on the wire, across
    /// all its sessions (handshake included).
    #[must_use]
    pub fn uploaded_bytes(&self) -> u64 {
        self.shared.uploaded.load(Ordering::Relaxed)
    }

    /// Total response bytes this connection has taken off the wire,
    /// across all its sessions (handshake included).
    #[must_use]
    pub fn downloaded_bytes(&self) -> u64 {
        self.shared.downloaded.load(Ordering::Relaxed)
    }
}

impl Drop for MuxConnection {
    fn drop(&mut self) {
        // Best-effort clean close of the root session, then a shutdown —
        // which is also what unblocks and ends the reader thread.
        if let Ok(mut writer) = self.shared.writer.lock() {
            if let Ok(encoded) = Frame::Goodbye.encode() {
                let _ = writer.write_all(&encoded);
            }
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One logical session on a [`MuxConnection`] — a full [`PirTransport`]:
/// schemes and the router's per-client backend legs hold a `MuxSession`
/// exactly where they previously held a whole [`TcpTransport`].
pub struct MuxSession {
    shared: Arc<MuxShared>,
    session: u32,
}

impl std::fmt::Debug for MuxSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxSession")
            .field("peer", &self.shared.peer_label)
            .field("session", &self.session)
            .finish_non_exhaustive()
    }
}

impl MuxSession {
    /// This session's id on the shared connection.
    #[must_use]
    pub fn session_id(&self) -> u32 {
        self.session
    }

    fn operation_error(&self, op: &str, detail: &str) -> PirError {
        protocol_error(format!(
            "{op} to server {} (session {}): {detail}",
            self.shared.peer_label, self.session
        ))
    }
}

impl PirTransport for MuxSession {
    /// Unlike [`TcpTransport`] there are no retries here: a mux connection
    /// is shared, so recovery (a replacement connection) belongs to its
    /// owner.
    fn round_trip(&mut self, request: Frame) -> Result<RoundTrip, PirError> {
        let op = request.name();
        if self.shared.broken.load(Ordering::SeqCst) {
            return Err(self.operation_error(op, "connection is broken"));
        }
        let encoded = Frame::Mux {
            session: self.session,
            frame: Box::new(request),
        }
        .encode()?;
        let (tx, rx) = mpsc::channel();
        self.shared
            .pending
            .lock()
            .expect("mux pending lock poisoned")
            .insert(self.session, tx);
        {
            let mut writer = self.shared.writer.lock().expect("mux writer lock poisoned");
            if let Err(err) = writer.write_all(&encoded).and_then(|()| writer.flush()) {
                drop(writer);
                self.shared.fail(&format!("writing request: {err}"));
                return Err(self.operation_error(op, &format!("writing request: {err}")));
            }
        }
        let upload_bytes = encoded.len() as u64;
        self.shared
            .uploaded
            .fetch_add(upload_bytes, Ordering::Relaxed);
        match rx.recv() {
            Ok(Ok((reply, download_bytes))) => Ok(RoundTrip {
                reply,
                upload_bytes,
                download_bytes,
            }),
            Ok(Err(err)) => Err(err),
            Err(_) => Err(self.operation_error(op, "connection closed before the reply arrived")),
        }
    }
}

impl Drop for MuxSession {
    fn drop(&mut self) {
        // Best-effort muxed Goodbye so the server can retire this
        // logical session without waiting for the whole connection.
        if self.shared.broken.load(Ordering::SeqCst) {
            return;
        }
        let goodbye = Frame::Mux {
            session: self.session,
            frame: Box::new(Frame::Goodbye),
        };
        if let Ok(encoded) = goodbye.encode() {
            if let Ok(mut writer) = self.shared.writer.lock() {
                let _ = writer.write_all(&encoded);
                let _ = writer.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::engine::EngineConfig;
    use crate::server::cpu::{CpuPirServer, CpuServerConfig};
    use crate::shard::ShardedDatabase;
    use crate::wire::{query_batch_frame_bytes, response_batch_frame_bytes};
    use crate::PirClient;
    use std::sync::Arc;

    fn local(db: &Arc<Database>, shards: usize) -> LocalTransport<CpuPirServer> {
        let sharded = ShardedDatabase::uniform(db.clone(), shards).unwrap();
        let engine = QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
            CpuPirServer::new(shard_db, CpuServerConfig::baseline())
        })
        .unwrap();
        LocalTransport::new(engine)
    }

    #[test]
    fn local_transport_reports_engine_info_and_wire_costs() {
        let db = Arc::new(Database::random(200, 16, 3).unwrap());
        let mut transport = local(&db, 2);
        let info = transport.server_info().unwrap();
        assert_eq!(info.num_records, 200);
        assert_eq!(info.record_size, 16);
        assert_eq!(info.shard_count, 2);
        assert_eq!(info.epoch, 0);

        let mut client = PirClient::new(200, 16, 1).unwrap();
        let (shares, _) = client.generate_batch(&[5, 150, 99]).unwrap();
        let batch = transport.query_batch(&shares).unwrap();
        assert_eq!(batch.responses.len(), 3);
        assert_eq!(batch.upload_bytes, query_batch_frame_bytes(&shares) as u64);
        assert_eq!(
            batch.download_bytes,
            response_batch_frame_bytes(&batch.responses) as u64
        );
        assert_eq!(batch.epoch, 0);

        let outcome = transport.apply_updates(&[(5, vec![0xEE; 16])]).unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(transport.server_info().unwrap().epoch, 1);
    }

    #[test]
    fn local_transport_scan_matches_database() {
        let db = Arc::new(Database::random(96, 8, 5).unwrap());
        let mut transport = local(&db, 3);
        let selector: SelectorVector = (0..96).map(|i| i % 7 == 0).collect();
        let scan = transport.scan_selector(&selector).unwrap();
        assert_eq!(scan.payload, db.xor_select(&selector));
        assert_eq!(scan.epoch, 0);
    }

    #[test]
    fn tcp_connect_to_nothing_is_a_protocol_error() {
        // Port 1 on localhost is essentially never listening.
        let result = TcpTransport::connect("127.0.0.1:1");
        assert!(matches!(result, Err(PirError::Protocol { .. })));
    }
}
