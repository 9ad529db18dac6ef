//! The front-tier router: one listening address for a whole fleet.
//!
//! [`PirRouter`] speaks the ordinary client-side [`impir_core::wire`]
//! protocol on its listen address — a client cannot tell a router from a
//! replica — and forwards every session's frames to one of the topology's
//! replicas over a **shared multiplexed connection per replica**
//! ([`MuxConnection`]): every client session, health probe and catch-up
//! replay to the same replica rides one TCP connection as its own
//! logical [`MuxSession`], instead of dialing a fresh socket each:
//!
//! * **spreading** — sessions are assigned round-robin over the healthy
//!   replicas, so concurrent clients land on different replicas;
//! * **accounting** — per-replica request/response wire bytes are
//!   accumulated across all sessions and probes
//!   ([`PirRouter::replica_traffic`]): each slot's totals are the bytes
//!   folded in from connections that have since been replaced plus the
//!   live connection's counters;
//! * **health probing** — a background prober sends
//!   [`Frame::EpochInfoRequest`] to every replica on the topology's
//!   `probe-interval-ms`; an unreachable replica is marked unhealthy (no
//!   new sessions or updates go to it), and a replica lagging more than
//!   `max-lag-epochs` behind the fleet's front epoch is **caught up** by
//!   replaying its missed batches from an ahead peer's update journal
//!   (the PR 7 recovery path, driven fleet-side instead of client-side);
//! * **failover** — when a replica dies mid-session, its shared
//!   connection breaks, every in-flight request on it fails fast, and
//!   idempotent requests (queries, scans, info, replay) transparently
//!   move to the next healthy replica and are retried there; the client
//!   only ever sees an answer. Every idempotent request is forwarded
//!   verbatim and its reply comes back verbatim — a replica's rejection
//!   (bad share domain, truncated journal) is an answer, not a fault. A
//!   failed exchange is first re-checked with an epoch probe, so a request
//!   that fails on its own (an oversized frame) is reported to the client
//!   instead of being retried elsewhere. A journal replay crosses the
//!   router one bounded prefix per request, as from a replica;
//! * **load-shed forwarding** — a replica's typed
//!   [`Frame::Overloaded`] refusal means the replica is *alive* and
//!   shedding; the router forwards it to the client verbatim rather
//!   than failing over, so a hot fleet backs clients off instead of
//!   stampeding the next replica;
//! * **update fan-out** — an [`Frame::UpdateBatch`] is applied to every
//!   healthy replica under one router-wide update lock (serialised
//!   against the prober's catch-ups). Replicas that fail or were already
//!   unhealthy are left behind and converge through the prober's journal
//!   replay. The ack reports the highest epoch reached.
//!
//! [`PirRouter::shutdown`] joins *every* thread the router started —
//! the accept loop, each session thread, the prober, and each backend
//! connection's reader thread — before it returns.
//!
//! What the router does **not** hide: a query racing an in-flight update
//! fan-out can observe two different epochs on two sessions — exactly
//! the torn interleaving [`impir_core::scheme::TwoServerPir`] already
//! detects and resolves by epoch, so the client-side contract is
//! unchanged.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use impir_core::topology::{FleetTopology, RetrySpec};
use impir_core::transport::{MuxConnection, MuxSession, PirTransport};
use impir_core::wire::{error_reply, Frame, WIRE_VERSION};
use impir_core::{PirError, UpdateOutcome};

use crate::protocol;
use crate::session::{
    accept_connections, hello_refusal, read_session_frame, wake_acceptor, write_session_frame,
};

/// How many times a fan-out leg waits out a replica's typed overload
/// refusal before leaving the replica to the prober's journal replay.
const FAN_OUT_SHED_RETRIES: u32 = 3;

/// Upper bound on honouring a replica's advertised `retry_after_ms`, so
/// a bogus value cannot park a router thread for minutes.
const MAX_SHED_WAIT: Duration = Duration::from_millis(1_000);

/// One replica as the router sees it.
struct ReplicaSlot {
    name: String,
    addr: String,
    /// Cleared when the replica is unreachable or lagging beyond the
    /// tolerated window; set again once the prober has it caught up.
    /// Sessions check this before every request and rotate away early.
    healthy: AtomicBool,
    /// The slot's shared multiplexed connection. `None` until the first
    /// session or probe needs it; replaced (never repaired) when broken.
    conn: Mutex<Option<Arc<MuxConnection>>>,
    /// Byte totals folded in from connections that have since been
    /// replaced; the live connection's counters come on top.
    uploaded: AtomicU64,
    downloaded: AtomicU64,
}

impl ReplicaSlot {
    /// Folded totals plus whatever the live connection has counted.
    fn traffic(&self) -> (u64, u64) {
        let mut up = self.uploaded.load(Ordering::Relaxed);
        let mut down = self.downloaded.load(Ordering::Relaxed);
        if let Ok(guard) = self.conn.lock() {
            if let Some(conn) = guard.as_ref() {
                up += conn.uploaded_bytes();
                down += conn.downloaded_bytes();
            }
        }
        (up, down)
    }
}

/// State shared by the accept loop, every session thread and the prober.
struct RouterState {
    slots: Vec<ReplicaSlot>,
    retry: RetrySpec,
    /// Bound on any single backend socket write (reads stay unbounded:
    /// the connections' reader threads legitimately block).
    io_timeout: Duration,
    /// Round-robin cursor for assigning new sessions (and new backends
    /// after a failover) to replicas.
    next: AtomicUsize,
    /// Serialises update fan-outs against each other and against the
    /// prober's catch-up replays, so a replica never receives a journal
    /// replay interleaved with a fresh batch.
    update_lock: Mutex<()>,
    max_lag_epochs: u64,
}

impl RouterState {
    /// The slot's live multiplexed connection, dialing one if the slot
    /// has none or the previous one broke. A dead connection's byte
    /// counters are folded into the slot totals before it is replaced;
    /// sessions still holding it fail fast and rotate.
    fn connection(&self, slot: usize) -> Result<Arc<MuxConnection>, PirError> {
        let slot_ref = &self.slots[slot];
        let mut guard = slot_ref
            .conn
            .lock()
            .map_err(|_| protocol("router replica-connection lock poisoned"))?;
        if let Some(conn) = guard.as_ref() {
            if !conn.is_broken() {
                return Ok(Arc::clone(conn));
            }
        }
        if let Some(dead) = guard.take() {
            slot_ref
                .uploaded
                .fetch_add(dead.uploaded_bytes(), Ordering::Relaxed);
            slot_ref
                .downloaded
                .fetch_add(dead.downloaded_bytes(), Ordering::Relaxed);
        }
        let conn = Arc::new(self.connect_slot(slot)?);
        *guard = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// Dials `slot` with the topology's retry/backoff spec. Runs under
    /// the slot's connection lock: concurrent sessions needing the same
    /// replica wait for one dialer instead of racing it.
    fn connect_slot(&self, slot: usize) -> Result<MuxConnection, PirError> {
        let addr = self.slots[slot].addr.as_str();
        let mut backoff = Duration::from_millis(self.retry.backoff_ms);
        let max_backoff = Duration::from_millis(self.retry.max_backoff_ms);
        let mut last: Option<PirError> = None;
        for attempt in 0..self.retry.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(max_backoff);
            }
            match MuxConnection::connect_with(addr, Some(self.io_timeout)) {
                Ok(conn) => return Ok(conn),
                Err(err) => last = Some(err),
            }
        }
        Err(last.expect("at least one connect attempt runs"))
    }
}

/// Wire traffic the router has exchanged with one replica, summed over
/// all sessions, probes and catch-up replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaTraffic {
    /// The replica's topology name.
    pub name: String,
    /// Whether the router currently considers the replica healthy.
    pub healthy: bool,
    /// Request bytes the router has sent to this replica.
    pub uploaded_bytes: u64,
    /// Response bytes the router has received from this replica.
    pub downloaded_bytes: u64,
}

/// A running front-tier router. Dropping the handle shuts it down.
pub struct PirRouter {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    state: Arc<RouterState>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    prober_handle: Option<std::thread::JoinHandle<()>>,
}

impl PirRouter {
    /// Binds the topology's `[router]` listen address and starts
    /// spreading client sessions over its replicas.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for a topology without a `[router]`
    /// section (or an otherwise invalid one) and [`PirError::Protocol`]
    /// when the listen address cannot be bound. Replicas do **not** have
    /// to be reachable at bind time — the prober and per-session
    /// failover deal with late or dead replicas.
    pub fn bind(topology: &FleetTopology) -> Result<Self, PirError> {
        topology.validate()?;
        let Some(router) = &topology.router else {
            return Err(PirError::Config {
                reason: "the topology has no [router] section".to_string(),
            });
        };
        let slots = topology
            .replicas
            .iter()
            .map(|replica| ReplicaSlot {
                name: replica.name.clone(),
                addr: replica
                    .listen
                    .clone()
                    .expect("validate() guarantees router fleets are all-TCP"),
                healthy: AtomicBool::new(true),
                conn: Mutex::new(None),
                uploaded: AtomicU64::new(0),
                downloaded: AtomicU64::new(0),
            })
            .collect();
        let io_timeout = topology.service_io_timeout();
        let state = Arc::new(RouterState {
            slots,
            retry: topology.retry,
            io_timeout,
            next: AtomicUsize::new(0),
            update_lock: Mutex::new(()),
            max_lag_epochs: router.max_lag_epochs,
        });
        let listener =
            TcpListener::bind(router.listen.as_str()).map_err(|err| PirError::Protocol {
                reason: format!("binding router listener on {}: {err}", router.listen),
            })?;
        let addr = listener.local_addr().map_err(|err| PirError::Protocol {
            reason: format!("reading router listener address: {err}"),
        })?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let probe_interval = Duration::from_millis(router.probe_interval_ms);

        let accept_state = Arc::clone(&state);
        let accept_shutdown = Arc::clone(&shutdown);
        let session_shutdown = Arc::clone(&shutdown);
        let accept_handle = std::thread::spawn(move || {
            accept_connections(
                &listener,
                || accept_shutdown.load(Ordering::SeqCst),
                move |stream| session_loop(stream, &accept_state, &session_shutdown, io_timeout),
            );
        });
        let prober_state = Arc::clone(&state);
        let prober_shutdown = Arc::clone(&shutdown);
        let prober_handle = std::thread::spawn(move || {
            prober_loop(&prober_state, &prober_shutdown, probe_interval);
        });
        Ok(PirRouter {
            addr,
            shutdown,
            state,
            accept_handle: Some(accept_handle),
            prober_handle: Some(prober_handle),
        })
    }

    /// The address the router listens on (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Per-replica wire-traffic and health accounting, in topology order.
    #[must_use]
    pub fn replica_traffic(&self) -> Vec<ReplicaTraffic> {
        self.state
            .slots
            .iter()
            .map(|slot| {
                let (uploaded_bytes, downloaded_bytes) = slot.traffic();
                ReplicaTraffic {
                    name: slot.name.clone(),
                    healthy: slot.healthy.load(Ordering::SeqCst),
                    uploaded_bytes,
                    downloaded_bytes,
                }
            })
            .collect()
    }

    /// Gracefully stops the router: no new sessions, in-flight requests
    /// drain, every thread is joined — session threads, the prober, and
    /// each backend connection's reader thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            wake_acceptor(self.addr);
            let _ = handle.join();
        }
        if let Some(handle) = self.prober_handle.take() {
            let _ = handle.join();
        }
        // With the accept loop joined, every session thread is joined
        // too, so the slots hold the last reference to each backend
        // connection: dropping them here sends the connection-level
        // Goodbyes and joins their reader threads — shutdown() returns
        // with no router thread left running.
        for slot in &self.state.slots {
            if let Ok(mut guard) = slot.conn.lock() {
                if let Some(conn) = guard.take() {
                    slot.uploaded
                        .fetch_add(conn.uploaded_bytes(), Ordering::Relaxed);
                    slot.downloaded
                        .fetch_add(conn.downloaded_bytes(), Ordering::Relaxed);
                }
            }
        }
    }
}

impl Drop for PirRouter {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for PirRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PirRouter")
            .field("addr", &self.addr)
            .field("replicas", &self.state.slots.len())
            .finish_non_exhaustive()
    }
}

/// The router side of one client session: a logical [`MuxSession`] on
/// the pinned replica's shared connection, with failover when that
/// replica dies.
struct RoutedBackend {
    slot: usize,
    /// Pins the shared connection so it cannot be dropped out from
    /// under the session (the slot may replace its `Arc` on breakage).
    conn: Arc<MuxConnection>,
    session: MuxSession,
    info: impir_core::ServerInfo,
}

impl RoutedBackend {
    /// Opens a session on the next healthy replica, round-robin, and
    /// fetches its current [`impir_core::ServerInfo`] — so the client's
    /// HelloAck carries the replica's live epoch, exactly as if it had
    /// dialed the replica itself. Replicas that refuse the connection
    /// are marked unhealthy and skipped; a replica that answers with a
    /// typed overload refusal is *alive*, so the refusal propagates
    /// instead of condemning the replica.
    fn connect(state: &RouterState) -> Result<Self, PirError> {
        let slots = state.slots.len();
        let start = state.next.fetch_add(1, Ordering::Relaxed);
        let mut last_error: Option<PirError> = None;
        for offset in 0..slots {
            let slot = (start + offset) % slots;
            if !state.slots[slot].healthy.load(Ordering::SeqCst) {
                continue;
            }
            let conn = match state.connection(slot) {
                Ok(conn) => conn,
                Err(err) => {
                    state.slots[slot].healthy.store(false, Ordering::SeqCst);
                    last_error = Some(err);
                    continue;
                }
            };
            let mut session = match conn.session() {
                Ok(session) => session,
                Err(err) => {
                    last_error = Some(err);
                    continue;
                }
            };
            match session.server_info() {
                Ok(info) => {
                    return Ok(RoutedBackend {
                        slot,
                        conn,
                        session,
                        info,
                    })
                }
                Err(PirError::Overloaded { retry_after_ms }) => {
                    last_error = Some(PirError::Overloaded { retry_after_ms });
                }
                Err(err) => {
                    state.slots[slot].healthy.store(false, Ordering::SeqCst);
                    last_error = Some(err);
                }
            }
        }
        Err(last_error.unwrap_or_else(|| protocol("no healthy replica available")))
    }

    /// Forwards one idempotent request to the pinned replica and returns
    /// its reply frame verbatim, failing over to the next healthy replica
    /// if the replica is dead. A reply is never failed over: a refusal
    /// (`Error`, `JournalTruncated`, or a typed `Overloaded` — the replica
    /// is alive and shedding, and failing over would stampede the rest of
    /// the fleet) travels to the client as the replica sent it. A failed
    /// exchange is first re-checked with an epoch probe on the same
    /// session: if the replica still answers, the failure was the request's
    /// own (an oversized frame, say) and is returned to the client instead
    /// of being retried elsewhere.
    fn call(&mut self, state: &RouterState, request: &Frame) -> Result<Frame, PirError> {
        let slots = state.slots.len();
        for _ in 0..=slots {
            if !state.slots[self.slot].healthy.load(Ordering::SeqCst) {
                self.rotate(state)?;
            }
            match self.session.round_trip(request.clone()) {
                Ok(exchange) => return Ok(exchange.reply),
                Err(err) => {
                    let alive = !self.conn.is_broken()
                        && matches!(
                            self.session.epoch_info(),
                            Ok(_) | Err(PirError::Overloaded { .. })
                        );
                    if alive {
                        return Err(err);
                    }
                    state.slots[self.slot]
                        .healthy
                        .store(false, Ordering::SeqCst);
                    self.rotate(state)?;
                }
            }
        }
        Err(protocol("every replica failed the request"))
    }

    /// Replaces the dead backend with a session on the next healthy
    /// replica.
    fn rotate(&mut self, state: &RouterState) -> Result<(), PirError> {
        let replacement = RoutedBackend::connect(state)?;
        *self = replacement;
        Ok(())
    }
}

fn session_loop(
    mut stream: TcpStream,
    state: &Arc<RouterState>,
    shutdown: &AtomicBool,
    io_timeout: Duration,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));

    // Handshake: the router answers exactly like a replica would, using
    // the backend replica's own advertised geometry and live epoch.
    let frame = match read_session_frame(&mut stream, shutdown) {
        Ok(Some(frame)) => frame,
        _ => return,
    };
    if let Some(refusal) = hello_refusal(&frame) {
        let _ = write_session_frame(&mut stream, &refusal, shutdown);
        return;
    }
    let mut backend = match RoutedBackend::connect(state) {
        Ok(backend) => {
            let ack = Frame::HelloAck {
                version: WIRE_VERSION,
                info: backend.info,
            };
            if write_session_frame(&mut stream, &ack, shutdown).is_err() {
                return;
            }
            backend
        }
        // Every replica is shedding: refuse the session with the same
        // typed frame a replica would use.
        Err(PirError::Overloaded { retry_after_ms }) => {
            let _ =
                write_session_frame(&mut stream, &Frame::Overloaded { retry_after_ms }, shutdown);
            return;
        }
        Err(err) => {
            let _ = write_session_frame(
                &mut stream,
                &Frame::Error {
                    message: format!("router has no healthy replica: {err}"),
                },
                shutdown,
            );
            return;
        }
    };

    loop {
        let frame = match read_session_frame(&mut stream, shutdown) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean close
            Err(err) => {
                let _ = write_session_frame(
                    &mut stream,
                    &Frame::Error {
                        message: err.to_string(),
                    },
                    shutdown,
                );
                return;
            }
        };
        let reply = match frame {
            // Updates are NOT failover-retried through the session's pinned
            // replica: they fan out to the whole fleet under the router's
            // update lock, exactly once per healthy replica.
            Frame::UpdateBatch { updates } => {
                fan_out_update(state, &updates).map(|outcome| Frame::UpdateAck { outcome })
            }
            Frame::Goodbye => return,
            request if request.is_idempotent_request() => backend.call(state, &request),
            other => {
                let _ = write_session_frame(
                    &mut stream,
                    &Frame::Error {
                        message: format!("unexpected {} frame mid-session", other.name()),
                    },
                    shutdown,
                );
                return;
            }
        };
        let frame = reply.unwrap_or_else(|err| error_reply(&err));
        if write_session_frame(&mut stream, &frame, shutdown).is_err() {
            return;
        }
    }
}

/// What one replica did with a fanned-out update batch.
enum FanOutResult {
    /// Applied it; the ack carries the replica's post-update epoch.
    Applied(UpdateOutcome),
    /// Alive and *rejected* it (validation failure — deterministic, so
    /// identical on every replica: none of them lands the batch).
    Rejected(PirError),
    /// Unhealthy, unreachable, still shedding after the overload
    /// retries, or died mid-update; the prober's journal replay catches
    /// it up later.
    Skipped,
}

/// Applies one update batch to every healthy replica concurrently
/// ([`impir_dpf::fan_out`]: the last replica's leg runs on this thread), so
/// the fleet's update latency is the *max* of the replica round trips, not
/// their sum. The update lock still
/// serialises whole fan-outs against each other and against the prober's
/// catch-ups. Replicas that die mid-fan-out are marked unhealthy and left
/// to the prober's journal replay; a *rejected* batch (validation failure
/// — deterministic, so every replica rejects it identically and nothing
/// lands anywhere) is reported to the client.
fn fan_out_update(
    state: &RouterState,
    updates: &[(u64, Vec<u8>)],
) -> Result<UpdateOutcome, PirError> {
    let _guard = state
        .update_lock
        .lock()
        .map_err(|_| protocol("router update lock poisoned"))?;
    let results = impir_dpf::fan_out(0..state.slots.len(), |slot| {
        fan_out_to_slot(state, slot, updates)
    });
    let mut best: Option<UpdateOutcome> = None;
    let mut failures = 0usize;
    for result in results {
        match result {
            FanOutResult::Applied(outcome) => {
                if best.as_ref().is_none_or(|b| outcome.epoch > b.epoch) {
                    best = Some(outcome);
                }
            }
            FanOutResult::Rejected(err) => return Err(err),
            FanOutResult::Skipped => failures += 1,
        }
    }
    best.ok_or_else(|| {
        protocol(&format!(
            "update reached none of the {failures} replica(s): every one is unhealthy or died \
             mid-update"
        ))
    })
}

/// One replica's leg of [`fan_out_update`], riding the slot's shared
/// connection as its own logical session.
fn fan_out_to_slot(state: &RouterState, slot: usize, updates: &[(u64, Vec<u8>)]) -> FanOutResult {
    if !state.slots[slot].healthy.load(Ordering::SeqCst) {
        return FanOutResult::Skipped;
    }
    let Ok(conn) = state.connection(slot) else {
        state.slots[slot].healthy.store(false, Ordering::SeqCst);
        return FanOutResult::Skipped;
    };
    let Ok(mut session) = conn.session() else {
        return FanOutResult::Skipped;
    };
    for _ in 0..FAN_OUT_SHED_RETRIES {
        match session.apply_updates(updates) {
            Ok(outcome) => return FanOutResult::Applied(outcome),
            // A shedding replica is alive: wait out its advertised
            // backoff instead of condemning it to a journal replay.
            Err(PirError::Overloaded { retry_after_ms }) => {
                std::thread::sleep(Duration::from_millis(retry_after_ms).min(MAX_SHED_WAIT));
            }
            Err(err) => {
                let alive = !conn.is_broken()
                    && matches!(
                        session.epoch_info(),
                        Ok(_) | Err(PirError::Overloaded { .. })
                    );
                if alive {
                    // The replica is alive and rejected the batch; every
                    // peer runs the same all-or-nothing validation and
                    // rejects it too, so nothing has landed anywhere.
                    return FanOutResult::Rejected(err);
                }
                state.slots[slot].healthy.store(false, Ordering::SeqCst);
                return FanOutResult::Skipped;
            }
        }
    }
    FanOutResult::Skipped
}

/// Sleeps `total` in small steps so shutdown stays snappy.
fn interruptible_sleep(total: Duration, shutdown: &AtomicBool) {
    let step = Duration::from_millis(20).min(total);
    let mut slept = Duration::ZERO;
    while slept < total && !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(step);
        slept += step;
    }
}

/// The background health/lag prober: every interval, ask every replica
/// for its [`impir_core::EpochInfo`]; unreachable replicas are marked
/// unhealthy, reachable ones lagging beyond `max-lag-epochs` are caught
/// up from an ahead peer's journal and then marked healthy again.
fn prober_loop(state: &Arc<RouterState>, shutdown: &AtomicBool, probe_interval: Duration) {
    while !shutdown.load(Ordering::SeqCst) {
        interruptible_sleep(probe_interval, shutdown);
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Probe every replica with its own logical session on the
        // slot's shared connection.
        let mut epochs: Vec<Option<u64>> = Vec::with_capacity(state.slots.len());
        for slot in 0..state.slots.len() {
            epochs.push(probe_epoch(state, slot));
        }
        let Some(front) = epochs.iter().flatten().copied().max() else {
            // Nobody answered; every slot is already marked unhealthy.
            continue;
        };
        let ahead = epochs.iter().position(|&e| e == Some(front));
        for (slot, probed) in epochs.iter().enumerate() {
            match *probed {
                None => state.slots[slot].healthy.store(false, Ordering::SeqCst),
                Some(epoch) if front - epoch <= state.max_lag_epochs => {
                    state.slots[slot].healthy.store(true, Ordering::SeqCst);
                }
                Some(_) => {
                    let caught_up = ahead
                        .map(|ahead| catch_up(state, slot, ahead))
                        .unwrap_or(false);
                    state.slots[slot].healthy.store(caught_up, Ordering::SeqCst);
                }
            }
        }
    }
}

/// One epoch probe against `slot`; `None` marks the replica unreachable
/// (and unhealthy). A typed overload refusal gets one retry after the
/// advertised backoff — a shedding replica is alive, and a single busy
/// interval should not cost it its healthy flag.
fn probe_epoch(state: &RouterState, slot: usize) -> Option<u64> {
    let Ok(conn) = state.connection(slot) else {
        state.slots[slot].healthy.store(false, Ordering::SeqCst);
        return None;
    };
    let Ok(mut session) = conn.session() else {
        state.slots[slot].healthy.store(false, Ordering::SeqCst);
        return None;
    };
    let mut attempt = session.epoch_info();
    if let Err(PirError::Overloaded { retry_after_ms }) = attempt {
        std::thread::sleep(Duration::from_millis(retry_after_ms).min(MAX_SHED_WAIT));
        attempt = session.epoch_info();
    }
    match attempt {
        Ok(info) => Some(info.current_epoch),
        Err(_) => {
            state.slots[slot].healthy.store(false, Ordering::SeqCst);
            None
        }
    }
}

/// Replays `behind`'s missed batches from `ahead`'s update journal — the
/// wire-level PR 7 catch-up, driven by the router instead of a client.
/// Runs under the update lock so no fan-out interleaves with the replay.
fn catch_up(state: &RouterState, behind: usize, ahead: usize) -> bool {
    let Ok(_guard) = state.update_lock.lock() else {
        return false;
    };
    let Ok(ahead_conn) = state.connection(ahead) else {
        return false;
    };
    let Ok(behind_conn) = state.connection(behind) else {
        return false;
    };
    let (Ok(mut ahead_session), Ok(mut behind_session)) =
        (ahead_conn.session(), behind_conn.session())
    else {
        return false;
    };
    let replayed = (|| -> Result<(), PirError> {
        // The probed epoch is stale by the time the lock is held: a
        // fan-out that was mid-flight when the probe ran may already have
        // landed the "missed" batches. Re-read both epochs under the lock
        // and replay only what is genuinely missing — blindly replaying
        // `behind_epoch` would apply a batch twice and push the replica
        // *ahead* of its peers.
        let current = behind_session.epoch_info()?.current_epoch;
        let ahead_epoch = ahead_session.epoch_info()?.current_epoch;
        if current >= ahead_epoch {
            return Ok(());
        }
        // A JournalTruncated here stays an error: the replica cannot be
        // healed over the wire and needs a re-seed — it simply stays
        // unhealthy, and the probe log (epoch never converging) is the
        // operator's signal.
        let batches = ahead_session.replay_updates(current)?;
        for batch in batches {
            behind_session.apply_updates(&batch)?;
        }
        Ok(())
    })();
    replayed.is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{assert_threads_return_to, live_threads};
    use crate::{build_service, build_service_with, ServiceConfig};
    use impir_core::topology::{ReplicaSpec, RouterSpec};
    use impir_core::transport::{LocalTransport, TcpTransport};
    use impir_core::PirClient;

    /// Binds and releases an ephemeral port so the topology can name a
    /// concrete replica address (the classic free-port dance; fine for
    /// tests, racy in production).
    fn free_addr() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        addr
    }

    fn routed_fleet(replicas: usize) -> FleetTopology {
        let mut topology = FleetTopology::new(192, 8, 77);
        for index in 0..replicas {
            topology
                .replicas
                .push(ReplicaSpec::tcp(format!("r{index}"), free_addr()));
        }
        topology.router = Some(RouterSpec {
            listen: free_addr(),
            probe_interval_ms: 50,
            max_lag_epochs: 0,
        });
        topology
    }

    #[test]
    fn routed_sessions_answer_over_shared_replica_connections() {
        let topology = routed_fleet(2);
        let services: Vec<_> = (0..2)
            .map(|index| build_service(&topology, index).unwrap())
            .collect();
        let router = PirRouter::bind(&topology).unwrap();

        // Four concurrent client sessions: round-robin lands them on both
        // replicas, every backend leg multiplexed over one connection per
        // replica.
        let mut transports: Vec<TcpTransport> = (0..4)
            .map(|_| TcpTransport::connect(router.addr()).unwrap())
            .collect();
        let mut oracle = LocalTransport::new(topology.build_engine(0).unwrap());
        let mut client = PirClient::new(192, 8, 5).unwrap();
        let (shares, _) = client.generate_batch(&[0, 100, 191]).unwrap();
        let expected = oracle.query_batch(&shares).unwrap();
        for transport in &mut transports {
            let batch = transport.query_batch(&shares).unwrap();
            assert_eq!(batch.responses, expected.responses);
        }

        // One update through one session reaches every replica.
        let ack = transports[0].apply_updates(&[(7, vec![0xEE; 8])]).unwrap();
        assert_eq!(ack.epoch, 1);

        for traffic in router.replica_traffic() {
            assert!(traffic.healthy, "replica {} unhealthy", traffic.name);
            assert!(
                traffic.uploaded_bytes > 0 && traffic.downloaded_bytes > 0,
                "replica {} saw no traffic",
                traffic.name
            );
        }
        drop(transports);
        router.shutdown();
        for service in services {
            service.shutdown();
        }
    }

    #[test]
    fn routed_replays_arrive_in_the_replicas_bounded_prefixes() {
        // A 64-byte replay frame holds two single-record batches (each
        // batch body is 24 bytes here), so five batches take three
        // replies. The router forwards each request and each bounded
        // reply as it is; the client's replay loop reassembles them.
        let topology = routed_fleet(2);
        let config = ServiceConfig {
            max_replay_frame_bytes: 64,
            ..ServiceConfig::default()
        };
        let services: Vec<_> = (0..2)
            .map(|index| build_service_with(&topology, index, config).unwrap())
            .collect();
        let router = PirRouter::bind(&topology).unwrap();
        let mut routed = TcpTransport::connect(router.addr()).unwrap();
        for round in 0..5u8 {
            routed
                .apply_updates(&[(u64::from(round), vec![round; 8])])
                .unwrap();
        }

        let mut direct = TcpTransport::connect(services[0].addr()).unwrap();
        let expected = direct.replay_updates(0).unwrap();
        assert_eq!(expected.len(), 5);
        assert_eq!(routed.replay_updates(0).unwrap(), expected);

        drop((routed, direct));
        router.shutdown();
        for service in services {
            service.shutdown();
        }
    }

    #[test]
    fn shutdown_joins_every_router_thread() {
        let topology = routed_fleet(2);
        let services: Vec<_> = (0..2)
            .map(|index| build_service(&topology, index).unwrap())
            .collect();
        let before = live_threads();

        let router = PirRouter::bind(&topology).unwrap();
        let mut transports: Vec<TcpTransport> = (0..3)
            .map(|_| TcpTransport::connect(router.addr()).unwrap())
            .collect();
        let mut client = PirClient::new(192, 8, 9).unwrap();
        let (shares, _) = client.generate_batch(&[1, 50]).unwrap();
        for transport in &mut transports {
            assert_eq!(transport.query_batch(&shares).unwrap().responses.len(), 2);
        }
        drop(transports);
        router.shutdown();

        // The accept loop, the prober, every session thread and every
        // backend connection's reader thread must be joined before
        // shutdown() returns. The replicas' own connection threads (they
        // live in this process too) exit asynchronously when the
        // connections close.
        assert_threads_return_to(before, "router shutdown");
        for service in services {
            service.shutdown();
        }
    }
}
