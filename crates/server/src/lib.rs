//! The IM-PIR network server: many client sessions, one shared
//! [`QueryEngine`].
//!
//! [`PirService`] owns the server side of the service layer:
//!
//! * one **session tier** turns TCP connections into request frames, on
//!   blocking I/O: per connection a reader thread parses and validates
//!   [`impir_core::wire`] frames (handshake first, then requests) and
//!   forwards them without waiting for their answers, and a writer thread
//!   sends the replies back in request order (see the `session` module's
//!   docs). Two threads per *connection*, however many sessions it
//!   carries;
//! * **session multiplexing** ([`impir_core::wire::Frame::Mux`]): many
//!   logical sessions share one TCP connection, each request/reply pair
//!   tagged with a session id, their requests pipelined. Plain frames
//!   belong to the connection's root session, so v1 clients work
//!   unchanged;
//! * sessions forward their requests to one **dispatcher thread** that
//!   owns the engine. Query batches from *concurrently active sessions*
//!   are coalesced into one engine wave — the merged batch flows through
//!   the engine's existing bounded admission queue, so cross-session
//!   batching inherits the §3.4 pipeline (and its backpressure) instead
//!   of re-implementing it. The dispatcher's own request queue is bounded
//!   ([`ServiceConfig::admission_capacity`]) and sessions never block on
//!   it: a full queue **sheds load** with a typed
//!   [`impir_core::wire::Frame::Overloaded`] refusal, and a connection
//!   whose peer stops reading its replies stops being read, so overload
//!   never buffers without bound;
//! * updates and queries are serialised by the dispatcher, and every
//!   response batch is tagged with the database epoch it executed
//!   against, so clients can detect update/query interleavings that
//!   reached only one replica;
//! * with `--rebalance auto` the dispatcher also closes the measured-skew
//!   feedback loop: after a query wave whose per-shard timings show one
//!   shard dominating the scan, it executes a bounded record migration
//!   *between* waves ([`RebalancePolicy`]) — an epoch step lagging
//!   replicas replay like any update batch;
//! * [`PirService::shutdown`] stops accepting, wakes idle sessions,
//!   drains the dispatcher and joins every thread — a graceful stop.
//!
//! Until PR 13 there were two session tiers behind a `session-tier` knob:
//! a thread per connection that served one request at a time, and a
//! single non-blocking loop over every socket. Neither could be deleted
//! in favour of the other — the loop could only *poll* (std has no
//! `poll`/`epoll` and the crate forbids `unsafe`), which cost a lone
//! client 1.2 ms per round trip against 0.09 ms, while the thread per
//! connection halved multiplexed throughput because it never had two
//! requests in flight. What made the loop scale was `Frame::Mux`, not
//! readiness polling; the one tier above keeps that, the typed shedding
//! and the logical-session budget, on kernel wakeups.
//!
//! A session's shares are validated against the engine's DPF domain
//! *before* they join a merged wave: one client with stale geometry gets
//! its own error frame and nobody else's queries fail.
//!
//! The service is built from a [`FleetTopology`] — the declarative fleet
//! description in [`impir_core::topology`] — via [`build_service`]; the
//! `impir-server` binary's classic flags desugar into the same topology
//! value (see [`cli`]), so there is exactly one construction path. The
//! [`router`] module adds the front tier that spreads client sessions
//! over a topology's replicas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod router;
mod session;

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};
use impir_core::batch::UpdatableBackend;
use impir_core::database::Database;
use impir_core::engine::QueryEngine;
use impir_core::rebalance::{RebalanceConfig, RebalancePlanner};
use impir_core::server::phases::PhaseBreakdown;
use impir_core::topology::{FleetTopology, RebalanceMode};
use impir_core::wire::{error_reply, Frame, MAX_FRAME_BYTES};
use impir_core::{PirError, QueryShare, ServerResponse};

use session::{accept_connections, serve_connection, wake_acceptor, SessionBudget, SessionContext};

/// Configuration of a [`PirService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum number of concurrent sessions' query batches coalesced into
    /// one engine wave. The dispatcher never waits for more batches — it
    /// merges whatever is already pending, up to this limit.
    pub coalesce_limit: usize,
    /// Stop accepting new work once this many **logical sessions** have
    /// opened (`None` = serve until shutdown). The budget counts logical
    /// sessions, not TCP connections: a connection's root session counts
    /// one when its protocol handshake completes, and every distinct
    /// multiplexed session id opened on a connection
    /// ([`impir_core::wire::Frame::Mux`]) counts one more. The count is
    /// monotone — sessions that close do not refund the budget — so
    /// `max_sessions = N` means "serve at most N sessions over this
    /// process's lifetime", which is what one-shot deployments and tests
    /// want. Probe connections that never say `Hello` — port scanners,
    /// health checks — do not consume the budget. The bound is
    /// best-effort, not exact: root sessions of connections accepted
    /// *before* the budget was exhausted are served in full, so
    /// near-simultaneous arrivals can briefly overshoot the limit; a
    /// *multiplexed* session opened past the budget is refused with an
    /// error frame while its connection stays usable.
    pub max_sessions: Option<usize>,
    /// Capacity of the dispatcher's bounded admission queue, in requests.
    /// A request that finds it full is shed — refused with a typed
    /// [`impir_core::wire::Frame::Overloaded`] — never blocked on.
    pub admission_capacity: usize,
    /// Per-session socket read/write timeout: how long a blocked session
    /// read or write sleeps before waking to re-check the shutdown flag
    /// (and retry). Shorter values make shutdown and fault detection
    /// snappier at the cost of more wakeups; `--io-timeout-ms` on the
    /// `impir-server` binary sets this.
    pub io_timeout: Duration,
    /// Upper bound, in encoded bytes, on one `UpdateReplay` reply frame.
    /// A journal replay larger than this is sent as the longest prefix
    /// that fits; the client re-requests from its advanced epoch until it
    /// is caught up. Defaults to the wire-level
    /// [`MAX_FRAME_BYTES`] (and may not exceed it — larger frames are
    /// rejected by the encoder); tests lower it to exercise chunking with
    /// small batches.
    pub max_replay_frame_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            coalesce_limit: 16,
            max_sessions: None,
            admission_capacity: 64,
            io_timeout: Duration::from_millis(50),
            max_replay_frame_bytes: MAX_FRAME_BYTES,
        }
    }
}

impl ServiceConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for a zero coalesce limit or a zero
    /// I/O timeout (the OS rejects zero socket timeouts).
    pub fn validate(&self) -> Result<(), PirError> {
        if self.coalesce_limit == 0 {
            return Err(PirError::Config {
                reason: "the session coalesce limit must be at least 1".to_string(),
            });
        }
        if self.admission_capacity == 0 {
            return Err(PirError::Config {
                reason: "the dispatcher admission capacity must be at least 1".to_string(),
            });
        }
        if self.io_timeout.is_zero() {
            return Err(PirError::Config {
                reason: "the session I/O timeout must be non-zero".to_string(),
            });
        }
        if self.max_replay_frame_bytes < MIN_REPLAY_FRAME_BYTES
            || self.max_replay_frame_bytes > MAX_FRAME_BYTES
        {
            return Err(PirError::Config {
                reason: format!(
                    "the replay frame bound must be between {MIN_REPLAY_FRAME_BYTES} and \
                     {MAX_FRAME_BYTES} bytes, got {}",
                    self.max_replay_frame_bytes
                ),
            });
        }
        Ok(())
    }
}

/// A per-shard backend constructor the dispatcher retains so it can
/// rebuild shards live when a rebalance triggers — the same closure shape
/// the engine was constructed with.
pub type ShardFactory<S> =
    Box<dyn FnMut(Arc<Database>, usize) -> Result<S, PirError> + Send + 'static>;

/// The live-rebalancing policy of a served engine: after each query wave
/// the dispatcher hands the wave's measured per-shard timings to the
/// planner, and executes any non-empty migration plan it emits — between
/// waves, under the dispatcher's existing update/query serialization, so
/// no traffic is drained. The planner's hysteresis
/// ([`RebalanceConfig::min_skew`]) is the trigger threshold; its
/// per-round record cap bounds how much data one wave gap may move.
pub struct RebalancePolicy<S> {
    planner: RebalancePlanner,
    factory: ShardFactory<S>,
}

impl<S> std::fmt::Debug for RebalancePolicy<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RebalancePolicy")
            .field("planner", &self.planner)
            .finish_non_exhaustive()
    }
}

impl<S> RebalancePolicy<S> {
    /// A policy that plans with `config` and rebuilds shards with
    /// `factory`.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for an invalid [`RebalanceConfig`].
    pub fn new(config: RebalanceConfig, factory: ShardFactory<S>) -> Result<Self, PirError> {
        Ok(RebalancePolicy {
            planner: RebalancePlanner::new(config)?,
            factory,
        })
    }
}

/// The [`ServiceConfig`] a topology implies: its `io-timeout-ms` becomes
/// the per-session socket timeout and `max-sessions` the logical-session
/// budget; everything else keeps its default.
#[must_use]
pub fn service_config_for(topology: &FleetTopology) -> ServiceConfig {
    ServiceConfig {
        io_timeout: topology.service_io_timeout(),
        max_sessions: topology.max_sessions,
        ..ServiceConfig::default()
    }
}

/// Builds and binds one of the topology's replicas: constructs its
/// engine with [`FleetTopology::build_engine`] and serves it on the
/// replica's listen address (`127.0.0.1:0` for replicas without one).
///
/// This is *the* construction path — the `impir-server` binary, the
/// examples and the integration tests all build services through here,
/// whether the topology came from a `--config` file or was desugared
/// from classic flags.
///
/// # Errors
///
/// Returns [`PirError::Config`] for an invalid topology or replica index
/// and [`PirError::Protocol`] if the listener cannot be bound.
pub fn build_service(topology: &FleetTopology, replica: usize) -> Result<PirService, PirError> {
    build_service_with(topology, replica, service_config_for(topology))
}

/// [`build_service`] with an explicit [`ServiceConfig`] (tests use this
/// to cap sessions or shrink replay frames).
///
/// # Errors
///
/// As for [`build_service`], plus [`PirError::Config`] for an invalid
/// `config`.
pub fn build_service_with(
    topology: &FleetTopology,
    replica: usize,
    config: ServiceConfig,
) -> Result<PirService, PirError> {
    let engine = topology.build_engine(replica)?;
    let listen = topology
        .replicas
        .get(replica)
        .and_then(|spec| spec.listen.as_deref())
        .unwrap_or("127.0.0.1:0");
    // `rebalance = auto` closes the measured-skew feedback loop: the
    // dispatcher rebuilds shards with the same factory the topology
    // built the engine from.
    let rebalancer = match topology.rebalance {
        RebalanceMode::Off => None,
        RebalanceMode::Auto => Some(RebalancePolicy::new(
            RebalanceConfig::default(),
            topology.backend_factory(replica)?,
        )?),
    };
    PirService::bind_with_rebalancer(engine, listen, config, rebalancer)
}

/// Smallest accepted [`ServiceConfig::max_replay_frame_bytes`]: room for
/// the frame tag, the batch-count prefix, and at least one tiny batch.
pub const MIN_REPLAY_FRAME_BYTES: usize = 64;

/// A session's request to the dispatcher: a request frame and where its
/// reply frame goes (a dedicated bounded channel per request).
pub(crate) struct ServiceRequest {
    pub(crate) frame: Frame,
    pub(crate) reply: Sender<Frame>,
}

/// A running PIR server: accept loop, connection threads and the dispatcher
/// that owns the engine. Dropping the handle shuts the service down.
#[derive(Debug)]
pub struct PirService {
    addr: SocketAddr,
    plan: impir_core::ShardPlan,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    dispatcher_handle: Option<std::thread::JoinHandle<()>>,
}

impl PirService {
    /// Binds `addr` and starts serving `engine` on it.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for an invalid `config` and
    /// [`PirError::Protocol`] if the listener cannot be bound.
    pub fn bind<S>(
        engine: QueryEngine<S>,
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
    ) -> Result<Self, PirError>
    where
        S: UpdatableBackend + Send + Sync + 'static,
    {
        PirService::bind_with_rebalancer(engine, addr, config, None)
    }

    /// [`PirService::bind`] with an optional live-rebalancing policy: when
    /// set, the dispatcher plans from each query wave's measured per-shard
    /// timings and migrates records between waves (see
    /// [`RebalancePolicy`]).
    ///
    /// # Errors
    ///
    /// As for [`PirService::bind`].
    pub fn bind_with_rebalancer<S>(
        engine: QueryEngine<S>,
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
        rebalancer: Option<RebalancePolicy<S>>,
    ) -> Result<Self, PirError>
    where
        S: UpdatableBackend + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr).map_err(|err| PirError::Protocol {
            reason: format!("binding listener: {err}"),
        })?;
        PirService::serve_with_rebalancer(engine, listener, config, rebalancer)
    }

    /// Starts serving `engine` on an already-bound listener.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for an invalid `config` and
    /// [`PirError::Protocol`] if the listener cannot be inspected or made
    /// blocking.
    pub fn serve<S>(
        engine: QueryEngine<S>,
        listener: TcpListener,
        config: ServiceConfig,
    ) -> Result<Self, PirError>
    where
        S: UpdatableBackend + Send + Sync + 'static,
    {
        PirService::serve_with_rebalancer(engine, listener, config, None)
    }

    /// [`PirService::serve`] with an optional live-rebalancing policy.
    ///
    /// # Errors
    ///
    /// As for [`PirService::serve`].
    pub fn serve_with_rebalancer<S>(
        engine: QueryEngine<S>,
        listener: TcpListener,
        config: ServiceConfig,
        rebalancer: Option<RebalancePolicy<S>>,
    ) -> Result<Self, PirError>
    where
        S: UpdatableBackend + Send + Sync + 'static,
    {
        config.validate()?;
        let addr = listener.local_addr().map_err(|err| PirError::Protocol {
            reason: format!("reading listener address: {err}"),
        })?;
        // The acceptor blocks in `accept`; `stop()` wakes it by connecting.
        listener
            .set_nonblocking(false)
            .map_err(|err| PirError::Protocol {
                reason: format!("configuring listener: {err}"),
            })?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Bounded admission: a request that finds the queue full is shed
        // with an `Overloaded` refusal, so overload never buffers requests
        // without bound.
        let (requests, request_rx) = bounded::<ServiceRequest>(config.admission_capacity);
        let plan = engine.plan().clone();

        let dispatcher_handle = std::thread::spawn(move || {
            dispatcher_loop(engine, &request_rx, &config, rebalancer);
        });

        // The context owns the master request sender and drops with the
        // accept thread, so the dispatcher ends exactly when the acceptor
        // and the last connection have.
        let context = Arc::new(SessionContext {
            requests,
            shutdown: Arc::clone(&shutdown),
            budget: SessionBudget::new(config.max_sessions, addr),
            config,
        });
        let accept_handle = std::thread::spawn(move || {
            let serving = Arc::clone(&context);
            accept_connections(
                &listener,
                || context.shutdown.load(Ordering::SeqCst) || context.budget.spent(),
                move |stream| serve_connection(stream, &serving),
            );
        });

        Ok(PirService {
            addr,
            plan,
            shutdown,
            accept_handle: Some(accept_handle),
            dispatcher_handle: Some(dispatcher_handle),
        })
    }

    /// The address the service listens on (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The realized shard layout of the served engine (what the startup
    /// banner reports; autoshard policies resolve to concrete boundaries
    /// only at build time).
    #[must_use]
    pub fn plan(&self) -> &impir_core::ShardPlan {
        &self.plan
    }

    /// Gracefully stops the service: no new connections are accepted,
    /// idle sessions are woken and closed, in-flight requests drain, and
    /// every thread is joined.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Waits for the service to end **on its own**: the accept loop stops
    /// once its session budget ([`ServiceConfig::max_sessions`]) is spent
    /// and exits when every accepted connection has disconnected, after
    /// which the dispatcher drains and this returns. Without a session budget this
    /// blocks until the listener fails (i.e. effectively forever).
    pub fn join(mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.dispatcher_handle.take() {
            let _ = handle.join();
        }
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            wake_acceptor(self.addr);
            let _ = handle.join();
        }
        if let Some(handle) = self.dispatcher_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PirService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Owns the engine: serialises updates against queries and coalesces
/// concurrently pending query batches into single engine waves. Every
/// other request is answered by [`QueryEngine::handle`].
fn dispatcher_loop<S: UpdatableBackend + Send + Sync>(
    mut engine: QueryEngine<S>,
    requests: &Receiver<ServiceRequest>,
    config: &ServiceConfig,
    mut rebalancer: Option<RebalancePolicy<S>>,
) {
    loop {
        let Ok(request) = requests.recv() else {
            break; // every session (and the accept loop) has hung up
        };
        let mut pending = Some(request);
        while let Some(ServiceRequest { frame, reply }) = pending.take() {
            let Frame::QueryBatch { shares } = frame else {
                let answer = engine
                    .handle(frame, config.max_replay_frame_bytes)
                    .unwrap_or_else(|err| error_reply(&err));
                let _ = reply.send(answer);
                continue;
            };
            // Merge whatever other sessions have already queued — never
            // waiting — so concurrent sessions share one trip through the
            // engine's admission queue.
            let mut wave = vec![(shares, reply)];
            while wave.len() < config.coalesce_limit {
                match requests.try_recv() {
                    Ok(ServiceRequest {
                        frame: Frame::QueryBatch { shares },
                        reply,
                    }) => wave.push((shares, reply)),
                    Ok(other) => {
                        // Anything else (an update, say) ends the wave; it
                        // executes right after, strictly ordered against it.
                        pending = Some(other);
                        break;
                    }
                    Err(_) => break,
                }
            }
            execute_wave(&mut engine, wave);
            // Between waves — with the engine otherwise idle — is the only
            // moment the dispatcher rebalances: queries and updates stay
            // strictly serialized against the plan swap.
            maybe_rebalance(&mut engine, &mut rebalancer);
        }
    }
}

/// Plans from the last wave's measured per-shard timings and executes any
/// non-empty migration. The planner's hysteresis keeps balanced (or
/// not-yet-re-measured) engines untouched; a failed migration leaves the
/// engine on its previous layout and disables further rebalancing rather
/// than retrying into the same failure every wave.
fn maybe_rebalance<S: UpdatableBackend + Send + Sync>(
    engine: &mut QueryEngine<S>,
    rebalancer: &mut Option<RebalancePolicy<S>>,
) {
    let Some(policy) = rebalancer.as_mut() else {
        return;
    };
    let plan = policy.planner.plan(&engine.shard_timings());
    if plan.is_empty() {
        return;
    }
    if let Err(err) = engine.rebalance(&plan, &mut policy.factory) {
        eprintln!("impir-server: auto-rebalance disabled after a failed migration: {err}");
        *rebalancer = None;
    }
}

type SessionBatch = (Vec<QueryShare>, Sender<Frame>);

/// Runs one merged wave of query batches through the engine and routes
/// each session's slice of the responses back to it.
fn execute_wave<S: UpdatableBackend + Send + Sync>(
    engine: &mut QueryEngine<S>,
    wave: Vec<SessionBatch>,
) {
    // Per-session validation first: a session whose keys cover the wrong
    // domain gets its own error and never poisons the merged batch.
    let domain_bits = engine.domain_bits();
    let mut admitted: Vec<SessionBatch> = Vec::with_capacity(wave.len());
    for (shares, reply) in wave {
        match shares
            .iter()
            .find(|share| share.key.domain_bits() != domain_bits)
        {
            Some(bad) => {
                let _ = reply.send(error_reply(&PirError::QueryDomainMismatch {
                    key_domain_bits: bad.key.domain_bits(),
                    database_domain_bits: domain_bits,
                }));
            }
            None => admitted.push((shares, reply)),
        }
    }
    if admitted.is_empty() {
        return;
    }
    // The uncontended case — one session in the wave — executes its batch
    // directly; coalesced waves *move* each session's shares into the
    // merged batch (their only later use is the count, captured first).
    let counts: Vec<usize> = admitted.iter().map(|(shares, _)| shares.len()).collect();
    let merged: Vec<QueryShare>;
    let batch: &[QueryShare] = if admitted.len() == 1 {
        &admitted[0].0
    } else {
        merged = admitted
            .iter_mut()
            .flat_map(|(shares, _)| shares.drain(..))
            .collect();
        &merged
    };
    let total_queries = batch.len();
    if total_queries == 0 {
        // All-empty batches short-circuit: 0/0 below would attribute NaN
        // costs to the sessions.
        let epoch = engine.database_epoch();
        for (_, reply) in &admitted {
            let _ = reply.send(Frame::ResponseBatch {
                epoch,
                wall_seconds: 0.0,
                phases: PhaseBreakdown::zero(),
                responses: Vec::new(),
            });
        }
        return;
    }
    match engine.execute_batch(batch) {
        Err(err) => {
            for (_, reply) in &admitted {
                let _ = reply.send(error_reply(&err));
            }
        }
        Ok(outcome) => {
            let epoch = engine.database_epoch();
            let mut responses = outcome.responses.into_iter();
            for (count, (_, reply)) in counts.iter().zip(&admitted) {
                // Attribute the wave's cost proportionally: a session is
                // billed its share of the merged batch, so per-client
                // accounting does not inflate with the *other* sessions'
                // coalesced work (and summing across sessions recovers the
                // wave's true totals).
                let fraction = *count as f64 / total_queries as f64;
                let slice: Vec<ServerResponse> = responses.by_ref().take(*count).collect();
                let _ = reply.send(Frame::ResponseBatch {
                    epoch,
                    wall_seconds: outcome.wall_seconds * fraction,
                    phases: outcome.phase_totals.scaled(fraction),
                    responses: slice,
                });
            }
        }
    }
}

pub(crate) fn protocol(reason: &str) -> PirError {
    PirError::Protocol {
        reason: reason.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpStream;
    use std::time::Instant;

    use super::*;
    use impir_core::database::Database;
    use impir_core::engine::EngineConfig;
    use impir_core::server::cpu::{CpuPirServer, CpuServerConfig};
    use impir_core::shard::ShardedDatabase;
    use impir_core::transport::{MuxConnection, MuxSession, PirTransport, TcpTransport};
    use impir_core::wire::{read_frame, write_frame, WIRE_VERSION};
    use impir_core::PirClient;

    fn cpu_engine(db: &Arc<Database>, shards: usize) -> QueryEngine<CpuPirServer> {
        let sharded = ShardedDatabase::uniform(db.clone(), shards).unwrap();
        QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
            CpuPirServer::new(shard_db, CpuServerConfig::baseline())
        })
        .unwrap()
    }

    fn spawn_cpu_service(db: &Arc<Database>, shards: usize) -> PirService {
        PirService::bind(
            cpu_engine(db, shards),
            "127.0.0.1:0",
            ServiceConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn served_responses_match_the_inprocess_engine_byte_for_byte() {
        let db = Arc::new(Database::random(300, 16, 21).unwrap());
        let service = spawn_cpu_service(&db, 3);
        let mut transport = TcpTransport::connect(service.addr()).unwrap();
        assert_eq!(transport.cached_info().num_records, 300);
        assert_eq!(transport.cached_info().shard_count, 3);

        let mut client = PirClient::new(300, 16, 5).unwrap();
        let (shares, _) = client.generate_batch(&[0, 123, 299, 123]).unwrap();
        let remote = transport.query_batch(&shares).unwrap();
        let local = cpu_engine(&db, 3).execute_batch(&shares).unwrap();
        assert_eq!(remote.responses, local.responses);
        assert_eq!(remote.epoch, 0);
        service.shutdown();
    }

    #[test]
    fn concurrent_sessions_are_all_answered_correctly() {
        let db = Arc::new(Database::random(256, 8, 31).unwrap());
        let service = spawn_cpu_service(&db, 2);
        let addr = service.addr();
        let mut local = cpu_engine(&db, 1);
        let mut workers = Vec::new();
        for session in 0..4u64 {
            let db = Arc::clone(&db);
            workers.push(std::thread::spawn(move || {
                let mut transport = TcpTransport::connect(addr).unwrap();
                let mut client = PirClient::new(256, 8, session).unwrap();
                let indices: Vec<u64> = (0..7).map(|i| (i * 31 + session * 13) % 256).collect();
                let (shares, _) = client.generate_batch(&indices).unwrap();
                let batch = transport.query_batch(&shares).unwrap();
                assert_eq!(batch.responses.len(), shares.len());
                for (share, response) in shares.iter().zip(&batch.responses) {
                    assert_eq!(response.query_id, share.query_id);
                }
                let _ = db;
                (shares, batch.responses)
            }));
        }
        for worker in workers {
            let (shares, responses) = worker.join().unwrap();
            // Sessions may have been coalesced into shared waves; each
            // session's answers must still equal the in-process engine's.
            let expected = local.execute_batch(&shares).unwrap();
            assert_eq!(responses, expected.responses);
        }
        service.shutdown();
    }

    #[test]
    fn stale_geometry_session_fails_alone() {
        let db = Arc::new(Database::random(128, 8, 41).unwrap());
        let service = spawn_cpu_service(&db, 1);
        let mut good = TcpTransport::connect(service.addr()).unwrap();
        let mut stale = TcpTransport::connect(service.addr()).unwrap();

        // Keys generated for a much larger domain.
        let mut wrong_client = PirClient::new(1 << 20, 8, 1).unwrap();
        let (bad_shares, _) = wrong_client.generate_batch(&[5]).unwrap();
        assert!(matches!(
            stale.query_batch(&bad_shares),
            Err(PirError::Protocol { .. })
        ));

        // The session (and the service) survive for well-formed clients.
        let mut client = PirClient::new(128, 8, 2).unwrap();
        let (shares, _) = client.generate_batch(&[0, 64, 127]).unwrap();
        assert_eq!(good.query_batch(&shares).unwrap().responses.len(), 3);
        // Even the stale session stays usable after its error.
        let (retry, _) = client.generate_batch(&[1]).unwrap();
        assert_eq!(stale.query_batch(&retry).unwrap().responses.len(), 1);
        service.shutdown();
    }

    #[test]
    fn updates_bump_the_epoch_for_every_session() {
        let db = Arc::new(Database::random(96, 8, 51).unwrap());
        let service = spawn_cpu_service(&db, 2);
        let mut writer = TcpTransport::connect(service.addr()).unwrap();
        let mut reader = TcpTransport::connect(service.addr()).unwrap();

        let outcome = writer.apply_updates(&[(7, vec![0xCD; 8])]).unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.records_updated, 1);

        let mut client = PirClient::new(96, 8, 3).unwrap();
        let (shares, _) = client.generate_batch(&[7]).unwrap();
        let batch = reader.query_batch(&shares).unwrap();
        assert_eq!(batch.epoch, 1);
        // All-or-nothing validation over the wire too.
        assert!(matches!(
            writer.apply_updates(&[(96, vec![0u8; 8])]),
            Err(PirError::Protocol { .. })
        ));
        assert_eq!(reader.server_info().unwrap().epoch, 1);
        service.shutdown();
    }

    #[test]
    fn selector_scans_run_over_the_wire() {
        let db = Arc::new(Database::random(200, 16, 61).unwrap());
        let service = spawn_cpu_service(&db, 3);
        let mut transport = TcpTransport::connect(service.addr()).unwrap();
        let selector: impir_dpf::SelectorVector = (0..200).map(|i| i % 3 == 1).collect();
        let scan = transport.scan_selector(&selector).unwrap();
        assert_eq!(scan.payload, db.xor_select(&selector));
        assert_eq!(scan.epoch, 0);
        service.shutdown();
    }

    #[test]
    fn shutdown_with_idle_sessions_returns() {
        let db = Arc::new(Database::random(64, 8, 71).unwrap());
        let service = spawn_cpu_service(&db, 1);
        let idle = TcpTransport::connect(service.addr()).unwrap();
        // The connection's reader is blocked waiting for this client's next
        // frame; shutdown must wake it and return promptly.
        service.shutdown();
        drop(idle);
    }

    #[test]
    fn session_budget_ends_the_service() {
        let db = Arc::new(Database::random(64, 8, 81).unwrap());
        let mut client = PirClient::new(64, 8, 4).unwrap();
        let (shares, _) = client.generate_batch(&[0]).unwrap();
        // The last budget slot goes to a root session (`mux == false`, the
        // `--max-sessions 1` case) or to a multiplexed one; either way
        // whoever takes it must wake the blocked acceptor, or `join()`
        // hangs after the last session has left.
        for mux in [false, true] {
            let service = PirService::bind(
                cpu_engine(&db, 1),
                "127.0.0.1:0",
                ServiceConfig {
                    max_sessions: Some(1 + usize::from(mux)),
                    ..ServiceConfig::default()
                },
            )
            .unwrap();
            let addr = service.addr();
            let joiner = std::thread::spawn(move || service.join());
            if mux {
                let connection = MuxConnection::connect(addr).unwrap();
                let mut session = connection.session().unwrap();
                assert_eq!(session.query_batch(&shares).unwrap().responses.len(), 1);
            } else {
                let mut transport = TcpTransport::connect(addr).unwrap();
                assert_eq!(transport.query_batch(&shares).unwrap().responses.len(), 1);
            } // disconnect → the budgeted sessions are over
            joiner.join().unwrap();
        }
    }

    #[test]
    fn mux_sessions_answer_correctly() {
        let db = Arc::new(Database::random(256, 8, 31).unwrap());
        let service = spawn_cpu_service(&db, 2);
        let connection = MuxConnection::connect(service.addr()).unwrap();
        let mut local = cpu_engine(&db, 1);
        let mut sessions: Vec<MuxSession> = (0..4).map(|_| connection.session().unwrap()).collect();
        for (index, session) in sessions.iter_mut().enumerate() {
            let mut client = PirClient::new(256, 8, index as u64).unwrap();
            let indices: Vec<u64> = (0..5).map(|i| (i * 31 + index as u64 * 13) % 256).collect();
            let (shares, _) = client.generate_batch(&indices).unwrap();
            let batch = session.query_batch(&shares).unwrap();
            assert_eq!(
                batch.responses,
                local.execute_batch(&shares).unwrap().responses
            );
        }
        drop(sessions);
        drop(connection);
        service.shutdown();
    }

    #[test]
    fn logical_session_budget_counts_mux_sessions() {
        let db = Arc::new(Database::random(64, 8, 91).unwrap());
        // Budget 2: the connection's root session plus ONE multiplexed
        // session; the next distinct session id must be refused while the
        // connection (and its admitted sessions) keep working.
        let service = PirService::bind(
            cpu_engine(&db, 1),
            "127.0.0.1:0",
            ServiceConfig {
                max_sessions: Some(2),
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let connection = MuxConnection::connect(service.addr()).unwrap();
        let mut admitted = connection.session().unwrap();
        let mut client = PirClient::new(64, 8, 6).unwrap();
        let (shares, _) = client.generate_batch(&[3]).unwrap();
        assert_eq!(admitted.query_batch(&shares).unwrap().responses.len(), 1);

        let mut refused = connection.session().unwrap();
        match refused.query_batch(&shares) {
            Err(PirError::Protocol { reason }) => {
                assert!(reason.contains("session budget"), "{reason}");
            }
            other => panic!("expected a budget refusal, got {other:?}"),
        }
        // The admitted session is still healthy after its sibling's
        // refusal.
        assert_eq!(admitted.query_batch(&shares).unwrap().responses.len(), 1);
        drop((admitted, refused, connection));
        service.shutdown();
    }

    /// A handshaken raw socket — the pipelining (or hostile) client's view
    /// of the protocol, no transport layer in between.
    fn raw_session(addr: SocketAddr) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        let hello = Frame::Hello {
            version: WIRE_VERSION,
        };
        write_frame(&mut stream, &hello).unwrap();
        assert!(matches!(
            read_frame(&mut stream).unwrap().0,
            Frame::HelloAck { .. }
        ));
        stream
    }

    fn muxed(session: u32, frame: Frame) -> Frame {
        Frame::Mux {
            session,
            frame: Box::new(frame),
        }
    }

    #[test]
    fn pipelined_requests_on_one_session_are_answered_in_request_order() {
        let db = Arc::new(Database::random(64, 8, 101).unwrap());
        // One admission slot: while the update holds the dispatcher, a
        // request behind it may be shed — a reply that is ready at once,
        // and still must not overtake the update's.
        let service = PirService::bind(
            cpu_engine(&db, 1),
            "127.0.0.1:0",
            ServiceConfig {
                admission_capacity: 1,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let mut stream = raw_session(service.addr());
        let updates: Vec<(u64, Vec<u8>)> = (0..20_000u64).map(|i| (i % 64, vec![7; 8])).collect();
        for request in [
            Frame::UpdateBatch { updates },
            Frame::InfoRequest,
            Frame::EpochInfoRequest,
        ] {
            write_frame(&mut stream, &muxed(5, request)).unwrap();
        }

        let mut replies = (0..3).map(|_| match read_frame(&mut stream).unwrap().0 {
            Frame::Mux { session: 5, frame } => *frame,
            other => panic!("expected a reply on session 5, got {other:?}"),
        });
        assert!(matches!(replies.next(), Some(Frame::UpdateAck { .. })));
        assert!(matches!(
            replies.next(),
            Some(Frame::Info { .. } | Frame::Overloaded { .. })
        ));
        assert!(matches!(
            replies.next(),
            Some(Frame::EpochInfo { .. } | Frame::Overloaded { .. })
        ));
        drop(stream);
        service.shutdown();
    }

    #[test]
    fn a_peer_that_never_reads_stalls_only_its_own_connection() {
        let db = Arc::new(Database::random(64, 256, 111).unwrap());
        let service = spawn_cpu_service(&db, 1);
        let mut client = PirClient::new(64, 256, 8).unwrap();
        let indices: Vec<u64> = (0..64).collect();
        let (shares, _) = client.generate_batch(&indices).unwrap();

        // Pipeline queries (each answered with 16 KiB) on several session
        // ids and never read a reply. Once the reply path's socket buffers
        // and the connection's reply FIFO are full the server's reader
        // must park, which the peer sees as its own writes stalling. A
        // server that kept reading would swallow every request below and
        // hold their replies (CAP x 16 KiB) in memory.
        const CAP: usize = 8_000;
        let mut hostile = raw_session(service.addr());
        hostile
            .set_write_timeout(Some(Duration::from_millis(250)))
            .unwrap();
        let stalled_after = (0..CAP).find(|&sent| {
            let request = muxed(
                1 + (sent % 4) as u32,
                Frame::QueryBatch {
                    shares: shares.clone(),
                },
            );
            write_frame(&mut hostile, &request).is_err()
        });
        assert!(
            stalled_after.is_some(),
            "the server read {CAP} pipelined requests from a peer that reads no replies"
        );

        // The stall is that connection's alone.
        let mut polite = TcpTransport::connect(service.addr()).unwrap();
        assert_eq!(
            polite.query_batch(&shares).unwrap().responses,
            cpu_engine(&db, 1).execute_batch(&shares).unwrap().responses
        );
        drop(polite);

        // Neither the parked reader nor the blocked writer pins shutdown:
        // both notice within an I/O timeout or two.
        let io_timeout = ServiceConfig::default().io_timeout;
        let stopping = Instant::now();
        service.shutdown();
        assert!(
            stopping.elapsed() < 40 * io_timeout,
            "shutdown took {:?} with a stalled connection open",
            stopping.elapsed()
        );
        drop(hostile);
    }

    /// The process's live thread count, from the kernel's own books.
    pub(crate) fn live_threads() -> usize {
        std::fs::read_to_string("/proc/self/status")
            .unwrap()
            .lines()
            .find_map(|line| line.strip_prefix("Threads:"))
            .unwrap()
            .trim()
            .parse()
            .unwrap()
    }

    /// Waits for the live thread count to fall back to `baseline`. Other
    /// tests of this process start and stop threads meanwhile, so the
    /// count gets a moment to settle before a leak is called.
    pub(crate) fn assert_threads_return_to(baseline: usize, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let now = live_threads();
            if now <= baseline {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "{what} left {} thread(s) running",
                now - baseline
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn shutdown_joins_every_service_thread() {
        let db = Arc::new(Database::random(64, 8, 121).unwrap());
        let mut client = PirClient::new(64, 8, 9).unwrap();
        let (shares, _) = client.generate_batch(&[1, 50]).unwrap();
        let before = live_threads();

        let service = spawn_cpu_service(&db, 2);
        let mut plain: Vec<TcpTransport> = (0..3)
            .map(|_| TcpTransport::connect(service.addr()).unwrap())
            .collect();
        let connection = MuxConnection::connect(service.addr()).unwrap();
        let mut muxed: Vec<MuxSession> = (0..3).map(|_| connection.session().unwrap()).collect();
        for transport in &mut plain {
            assert_eq!(transport.query_batch(&shares).unwrap().responses.len(), 2);
        }
        for session in &mut muxed {
            assert_eq!(session.query_batch(&shares).unwrap().responses.len(), 2);
        }
        // One plain connection is still open when the service stops.
        plain.truncate(1);
        drop(muxed);
        drop(connection);
        service.shutdown();

        // The acceptor, the dispatcher and every connection's reader and
        // writer are joined before shutdown() returns.
        assert_threads_return_to(before, "service shutdown");
        drop(plain);
    }
}
