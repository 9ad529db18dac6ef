//! Declarative fleet topology: *what a deployment looks like*, as data.
//!
//! A [`FleetTopology`] names every replica of an IM-PIR fleet — where it
//! listens, which backend serves it (CPU or simulated PIM, with its DPU
//! geometry), how its engine is sharded, how deep its update journal is,
//! and which retry/timeout policy clients use to reach it — plus an
//! optional front-tier router section. The same value drives **every**
//! construction path in the workspace:
//!
//! * servers: `impir-server --config fleet.toml` (and the flag form, which
//!   desugars into the same `FleetTopology`) builds its engine through
//!   [`FleetTopology::build_engine`];
//! * clients: [`crate::scheme::TwoServerPir::from_topology`] and
//!   [`crate::multi_server::NServerNaivePir::from_topology`] connect the
//!   right [`LocalTransport`]/[`TcpTransport`] per replica, with the
//!   topology's [`RetryPolicy`];
//! * the router: `impir-server --config fleet.toml --router` spreads
//!   client sessions over the topology's replicas.
//!
//! Per the middleware design the paper builds on, the schemes never know
//! *where* a replica runs — the topology is the single artifact where
//! that policy is decided, so application logic stays separate from
//! distribution policy.
//!
//! # File format
//!
//! Line-oriented and hand-parsed (no external dependencies): `#` starts a
//! comment, `[section]` opens a section, `key = value` sets a key. Three
//! section kinds exist — one `[fleet]`, one `[replica NAME]` per replica,
//! and at most one `[router]`. Hostile input never panics: every decode
//! problem is a [`PirError::Config`] naming the offending line.
//!
//! ```text
//! # Two CPU replicas on loopback TCP.
//! [fleet]
//! records = 2048
//! record-bytes = 32
//! seed = 7
//!
//! [replica left]
//! listen = 127.0.0.1:7700
//! shards = 2
//!
//! [replica right]
//! listen = 127.0.0.1:7701
//! shards = 3
//! ```
//!
//! [`FleetTopology::to_config_string`] serializes a topology back into
//! this format such that parse ∘ serialize ∘ parse is the identity.
//!
//! One `[fleet]` key is accepted and ignored: `session-tier =
//! threads|events` selected between two server session tiers until PR 13
//! left one. Its value is still validated; it is not stored and the
//! serializer does not write it.

use std::sync::Arc;
use std::time::Duration;

use crate::batch::{BatchConfig, UpdatableBackend};
use crate::capacity::{measure_scan_bandwidth, CapacityProfile, ShardPlanner};
use crate::database::Database;
use crate::engine::{EngineConfig, QueryEngine, DEFAULT_JOURNAL_BATCHES};
use crate::error::PirError;
use crate::server::cpu::{CpuPirServer, CpuServerConfig};
use crate::server::pim::{ImPirConfig, ImPirServer};
use crate::shard::ShardedDatabase;
use crate::transport::{LocalTransport, PirTransport, RetryPolicy, TcpTransport};
use impir_pim::PimConfig;

/// A backend chosen by the topology, type-erased so one engine type serves
/// heterogeneous fleets (CPU and PIM replicas side by side).
pub type BoxedBackend = Box<dyn UpdatableBackend + Send + Sync>;

/// The engine every topology-built replica runs:
/// [`QueryEngine`] over a [`BoxedBackend`] per shard.
pub type FleetEngine = QueryEngine<BoxedBackend>;

/// A per-shard backend constructor for a topology-built replica — the
/// closure shape [`QueryEngine::sharded`] and [`QueryEngine::rebalance`]
/// take, boxed so the service layer can retain it and rebuild shards live
/// when a rebalance triggers.
pub type BackendFactory =
    Box<dyn FnMut(Arc<Database>, usize) -> Result<BoxedBackend, PirError> + Send>;

/// Records in the probe replica `autoshard = calibrated` measures against.
pub const PROBE_RECORDS: u64 = 2048;
/// How many probe scans calibration runs (the best one counts).
pub const PROBE_SCANS: usize = 2;
/// Weight of the measured bandwidth when blending into the declared one.
pub const CALIBRATION_BLEND: f64 = 0.5;
/// Per-DPU MRAM bytes of topology-built PIM replicas (the simulator's
/// tiny-test geometry, scaled for CI-sized databases).
pub const PIM_MRAM_BYTES: usize = 32 << 20;

/// Whether a serving replica closes the measured-skew feedback loop by
/// migrating records between shards live (`[fleet] rebalance = auto|off`,
/// or `impir-server --rebalance auto|off`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RebalanceMode {
    /// Never rebalance; the construction-time layout is permanent.
    #[default]
    Off,
    /// After a query wave, when the measured scan skew exceeds the
    /// trigger threshold, plan and execute a bounded migration between
    /// waves (see [`crate::rebalance::RebalancePlanner`]).
    Auto,
}

impl std::fmt::Display for RebalanceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RebalanceMode::Off => "off",
            RebalanceMode::Auto => "auto",
        })
    }
}

impl RebalanceMode {
    /// Parses `auto` or `off` (the CLI and topology-file spelling).
    #[must_use]
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "off" => Some(RebalanceMode::Off),
            "auto" => Some(RebalanceMode::Auto),
            _ => None,
        }
    }
}

/// How the engine's shard layout is chosen for a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Manual uniform split into this many shards (`shards = K`).
    Uniform(usize),
    /// Capacity-aware planning from the backend's declared profile
    /// (`autoshard = declared`).
    Declared,
    /// Declared profile blended with measured probe scans
    /// (`autoshard = calibrated`).
    Calibrated,
}

/// Client-side retry/timeout policy, in file-friendly integer fields.
///
/// `policy()` converts into the transport layer's [`RetryPolicy`]; a
/// `io_timeout_ms` of 0 means "no per-attempt I/O timeout" (the
/// [`RetryPolicy`] default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrySpec {
    /// Total attempts an idempotent operation gets (at least 1; 1 = no
    /// retries).
    pub attempts: u32,
    /// Wait before the first retry, in milliseconds; doubles per retry.
    pub backoff_ms: u64,
    /// Upper bound on the exponential backoff, in milliseconds.
    pub max_backoff_ms: u64,
    /// Per-attempt bound on any single socket read or write, in
    /// milliseconds; 0 waits indefinitely.
    pub io_timeout_ms: u64,
}

impl Default for RetrySpec {
    fn default() -> Self {
        let policy = RetryPolicy::default();
        RetrySpec {
            attempts: policy.max_attempts,
            backoff_ms: policy.initial_backoff.as_millis() as u64,
            max_backoff_ms: policy.max_backoff.as_millis() as u64,
            io_timeout_ms: 0,
        }
    }
}

impl RetrySpec {
    /// The transport-layer [`RetryPolicy`] this spec describes.
    #[must_use]
    pub fn policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: self.attempts,
            initial_backoff: Duration::from_millis(self.backoff_ms),
            max_backoff: Duration::from_millis(self.max_backoff_ms),
            io_timeout: (self.io_timeout_ms > 0).then(|| Duration::from_millis(self.io_timeout_ms)),
        }
    }
}

/// How clients reach a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process: [`FleetTopology::connect`] builds the replica's engine
    /// locally and wraps it in a [`LocalTransport`].
    Local,
    /// Over the wire: clients dial the replica's `listen` address with a
    /// [`TcpTransport`].
    Tcp,
}

/// Which backend a replica runs, with its geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSpec {
    /// Host-CPU scan backend.
    Cpu,
    /// Simulated UPMEM PIM backend.
    Pim {
        /// Simulated DPUs per cluster.
        dpus: usize,
        /// DPU clusters (the backend's wave width).
        clusters: usize,
    },
}

/// One replica of the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSpec {
    /// Unique name (`[replica NAME]`): letters, digits, `.`/`_`/`-`.
    pub name: String,
    /// How clients reach this replica.
    pub transport: TransportKind,
    /// Listen address for TCP replicas (`host:port`; port 0 binds an
    /// ephemeral port, which clients then discover out of band).
    pub listen: Option<String>,
    /// Which backend serves this replica.
    pub backend: BackendSpec,
    /// Per-replica shard policy; `None` inherits the fleet's.
    pub sharding: Option<ShardPolicy>,
}

impl ReplicaSpec {
    /// A local (in-process) CPU replica with fleet-inherited policy.
    #[must_use]
    pub fn local(name: impl Into<String>) -> Self {
        ReplicaSpec {
            name: name.into(),
            transport: TransportKind::Local,
            listen: None,
            backend: BackendSpec::Cpu,
            sharding: None,
        }
    }

    /// A TCP CPU replica listening on `listen`, with fleet-inherited
    /// policy.
    #[must_use]
    pub fn tcp(name: impl Into<String>, listen: impl Into<String>) -> Self {
        ReplicaSpec {
            name: name.into(),
            transport: TransportKind::Tcp,
            listen: Some(listen.into()),
            backend: BackendSpec::Cpu,
            sharding: None,
        }
    }
}

/// The optional front-tier router (`[router]` section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterSpec {
    /// Address the router listens on for client sessions.
    pub listen: String,
    /// How often the router probes replica health/lag via
    /// [`crate::wire::Frame::EpochInfoRequest`], in milliseconds.
    pub probe_interval_ms: u64,
    /// Largest epoch lag the router tolerates before it catches the
    /// replica up from an ahead peer's journal.
    pub max_lag_epochs: u64,
}

/// Default router probe interval, in milliseconds.
pub const DEFAULT_PROBE_INTERVAL_MS: u64 = 200;

/// A typed, validated description of an IM-PIR fleet — see the
/// [module docs](crate::topology) for the file format and the
/// construction paths it drives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTopology {
    /// Database records (every replica holds the same synthetic replica).
    pub records: u64,
    /// Record size in bytes.
    pub record_bytes: usize,
    /// Database seed; replicas must match or clients fail the geometry
    /// check.
    pub seed: u64,
    /// Fleet-wide shard policy (replicas may override).
    pub sharding: ShardPolicy,
    /// Update-journal retention, in applied batches (0 disables the
    /// journal — a diverged replica then needs a re-seed).
    pub journal_batches: usize,
    /// Whether serving replicas rebalance their shard layout live from
    /// measured skew.
    pub rebalance: RebalanceMode,
    /// Per-session socket read/write timeout of the *server* side, in
    /// milliseconds (must be at least 1).
    pub io_timeout_ms: u64,
    /// Optional budget of **logical** sessions a serving replica accepts
    /// before it stops accepting (`None` = unlimited). Under
    /// multiplexing every session id counts, not every TCP connection —
    /// see `ServiceConfig::max_sessions` in `impir-server`. Must be at
    /// least 1 when set; write no key at all for "unlimited".
    pub max_sessions: Option<usize>,
    /// Client-side retry/timeout policy for reaching TCP replicas.
    pub retry: RetrySpec,
    /// The fleet's replicas, in declaration order.
    pub replicas: Vec<ReplicaSpec>,
    /// The optional front-tier router.
    pub router: Option<RouterSpec>,
}

impl FleetTopology {
    /// A topology skeleton with library defaults and no replicas; push
    /// [`ReplicaSpec`]s before building anything from it.
    #[must_use]
    pub fn new(records: u64, record_bytes: usize, seed: u64) -> Self {
        FleetTopology {
            records,
            record_bytes,
            seed,
            sharding: ShardPolicy::Uniform(1),
            journal_batches: DEFAULT_JOURNAL_BATCHES,
            rebalance: RebalanceMode::Off,
            io_timeout_ms: 50,
            max_sessions: None,
            retry: RetrySpec::default(),
            replicas: Vec::new(),
            router: None,
        }
    }

    /// Parses the topology file format described in the
    /// [module docs](crate::topology).
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] — naming the offending line — for any
    /// malformed input: unknown sections or keys, duplicate keys or
    /// sections, values that do not parse (including out-of-range
    /// numbers), `shards`/`autoshard` given together, and for any
    /// semantic problem [`FleetTopology::validate`] would report. Hostile
    /// input never panics.
    pub fn parse(input: &str) -> Result<Self, PirError> {
        Parser::new().parse(input)
    }

    /// Reads and [`parse`](FleetTopology::parse)s a topology file.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for unreadable files and for
    /// everything [`FleetTopology::parse`] rejects.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self, PirError> {
        let path = path.as_ref();
        let input = std::fs::read_to_string(path).map_err(|err| PirError::Config {
            reason: format!("reading topology file `{}`: {err}", path.display()),
        })?;
        Self::parse(&input).map_err(|err| match err {
            PirError::Config { reason } => PirError::Config {
                reason: format!("{}: {reason}", path.display()),
            },
            other => other,
        })
    }

    /// Serializes the topology into the file format, canonically: every
    /// fleet-level key is written with its resolved value, optional
    /// per-replica overrides only when set. `parse(to_config_string(t))`
    /// reproduces `t` exactly.
    #[must_use]
    pub fn to_config_string(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("# IM-PIR fleet topology\n[fleet]\n");
        let _ = writeln!(out, "records = {}", self.records);
        let _ = writeln!(out, "record-bytes = {}", self.record_bytes);
        let _ = writeln!(out, "seed = {}", self.seed);
        write_sharding(&mut out, self.sharding);
        let _ = writeln!(out, "journal-batches = {}", self.journal_batches);
        let _ = writeln!(out, "rebalance = {}", self.rebalance);
        let _ = writeln!(out, "io-timeout-ms = {}", self.io_timeout_ms);
        // `max-sessions` has no "unlimited" spelling — absence is the
        // canonical form, keeping parse ∘ serialize ∘ parse the identity.
        if let Some(max_sessions) = self.max_sessions {
            let _ = writeln!(out, "max-sessions = {max_sessions}");
        }
        let _ = writeln!(out, "retry-attempts = {}", self.retry.attempts);
        let _ = writeln!(out, "retry-backoff-ms = {}", self.retry.backoff_ms);
        let _ = writeln!(out, "retry-max-backoff-ms = {}", self.retry.max_backoff_ms);
        let _ = writeln!(out, "retry-io-timeout-ms = {}", self.retry.io_timeout_ms);
        for replica in &self.replicas {
            let _ = writeln!(out, "\n[replica {}]", replica.name);
            let transport = match replica.transport {
                TransportKind::Local => "local",
                TransportKind::Tcp => "tcp",
            };
            let _ = writeln!(out, "transport = {transport}");
            if let Some(listen) = &replica.listen {
                let _ = writeln!(out, "listen = {listen}");
            }
            match replica.backend {
                BackendSpec::Cpu => {
                    let _ = writeln!(out, "backend = cpu");
                }
                BackendSpec::Pim { dpus, clusters } => {
                    let _ = writeln!(out, "backend = pim");
                    let _ = writeln!(out, "dpus = {dpus}");
                    let _ = writeln!(out, "clusters = {clusters}");
                }
            }
            if let Some(sharding) = replica.sharding {
                write_sharding(&mut out, sharding);
            }
        }
        if let Some(router) = &self.router {
            out.push_str("\n[router]\n");
            let _ = writeln!(out, "listen = {}", router.listen);
            let _ = writeln!(out, "probe-interval-ms = {}", router.probe_interval_ms);
            let _ = writeln!(out, "max-lag-epochs = {}", router.max_lag_epochs);
        }
        out
    }

    /// Checks the topology's semantic invariants.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for: an empty database geometry, no
    /// replicas, duplicate or malformed replica names, a TCP replica
    /// without a listen address, zero shard counts, zero DPUs/clusters, a
    /// zero I/O timeout or retry attempt count, and a router over non-TCP
    /// replicas.
    pub fn validate(&self) -> Result<(), PirError> {
        if self.records == 0 {
            return config("the fleet needs at least 1 record");
        }
        if self.record_bytes == 0 {
            return config("record-bytes must be at least 1");
        }
        if self.io_timeout_ms == 0 {
            return config("io-timeout-ms must be at least 1");
        }
        if self.retry.attempts == 0 {
            return config("retry-attempts must be at least 1");
        }
        if self.max_sessions == Some(0) {
            return config("max-sessions must be at least 1 (omit the key for no session budget)");
        }
        validate_sharding(self.sharding, "[fleet]")?;
        if self.replicas.is_empty() {
            return config("the fleet needs at least one [replica NAME] section");
        }
        let mut names: Vec<&str> = Vec::with_capacity(self.replicas.len());
        for replica in &self.replicas {
            let name = replica.name.as_str();
            if !valid_name(name) {
                return config(format!(
                    "replica name `{name}` is invalid: use letters, digits, `.`, `_` or `-`"
                ));
            }
            if names.contains(&name) {
                return config(format!("duplicate replica name `{name}`"));
            }
            names.push(name);
            if replica.transport == TransportKind::Tcp && replica.listen.is_none() {
                return config(format!(
                    "replica `{name}`: transport tcp requires a listen address"
                ));
            }
            if let Some(sharding) = replica.sharding {
                validate_sharding(sharding, &format!("replica `{name}`"))?;
            }
            match replica.backend {
                BackendSpec::Cpu => {}
                BackendSpec::Pim { dpus, clusters } => {
                    if dpus == 0 || clusters == 0 {
                        return config(format!(
                            "replica `{name}`: dpus and clusters must be at least 1"
                        ));
                    }
                }
            }
        }
        if let Some(router) = &self.router {
            if router.listen.is_empty() {
                return config("[router]: listen is required");
            }
            if router.probe_interval_ms == 0 {
                return config("[router]: probe-interval-ms must be at least 1");
            }
            for replica in &self.replicas {
                if replica.transport != TransportKind::Tcp {
                    return config(format!(
                        "[router]: replica `{}` is not tcp — the router can only forward \
                         to replicas it can dial",
                        replica.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// The index of the replica named `name`, if any.
    #[must_use]
    pub fn replica_index(&self, name: &str) -> Option<usize> {
        self.replicas.iter().position(|r| r.name == name)
    }

    /// The synthetic database every replica of this fleet holds.
    ///
    /// # Errors
    ///
    /// Propagates [`Database::random`] failures (degenerate geometry).
    pub fn build_database(&self) -> Result<Arc<Database>, PirError> {
        Ok(Arc::new(Database::random(
            self.records,
            self.record_bytes,
            self.seed,
        )?))
    }

    /// Builds the engine replica `replica` runs: the one construction path
    /// behind `impir-server`, the examples and the topology-based client
    /// constructors. The replica's backend kind and shard policy (falling
    /// back to the fleet's) decide what gets built;
    /// `autoshard` policies run the capacity planner (with probe-scan
    /// calibration for [`ShardPolicy::Calibrated`]).
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for an out-of-range replica index or
    /// an invalid topology, and propagates backend/planner construction
    /// failures.
    pub fn build_engine(&self, replica: usize) -> Result<FleetEngine, PirError> {
        self.validate()?;
        let spec = self.replicas.get(replica).ok_or_else(|| PirError::Config {
            reason: format!(
                "replica index {replica} is out of range: the topology has {} replica(s)",
                self.replicas.len()
            ),
        })?;
        let database = self.build_database()?;
        let sharding = spec.sharding.unwrap_or(self.sharding);
        let (records, record_bytes, seed) = (self.records, self.record_bytes, self.seed);
        let factory = self.backend_factory(replica)?;
        match spec.backend {
            BackendSpec::Cpu => {
                let cpu_config = CpuServerConfig::baseline();
                let engine_config = EngineConfig {
                    journal_batches: self.journal_batches,
                    ..EngineConfig::default()
                };
                match sharding {
                    ShardPolicy::Uniform(shards) => {
                        let sharded = ShardedDatabase::uniform(database, shards)?;
                        QueryEngine::sharded(&sharded, engine_config, factory)
                    }
                    _ => {
                        let profile = cpu_config.capacity_profile()?;
                        let planner = autoshard_planner(profile, records, sharding, || {
                            let probe_db = Arc::new(Database::random(
                                records.min(PROBE_RECORDS),
                                record_bytes,
                                seed,
                            )?);
                            let mut probe = CpuPirServer::new(probe_db, cpu_config)?;
                            measure_scan_bandwidth(&mut probe, PROBE_SCANS)
                        })?;
                        QueryEngine::planned(database, engine_config, &planner, factory)
                    }
                }
            }
            BackendSpec::Pim { dpus, clusters } => {
                let config = Self::pim_backend_config(dpus, clusters);
                let engine_config =
                    EngineConfig::new(BatchConfig::default(), config.eval_strategy())?;
                let engine_config = EngineConfig {
                    journal_batches: self.journal_batches,
                    ..engine_config
                };
                match sharding {
                    ShardPolicy::Uniform(shards) => {
                        let sharded = ShardedDatabase::uniform(database, shards)?;
                        QueryEngine::sharded(&sharded, engine_config, factory)
                    }
                    _ => {
                        let profile = config.capacity_profile(record_bytes)?;
                        let probe_records = records.min(profile.record_capacity).min(PROBE_RECORDS);
                        let planner = autoshard_planner(profile, records, sharding, move || {
                            let probe_db =
                                Arc::new(Database::random(probe_records, record_bytes, seed)?);
                            let mut probe = ImPirServer::new(probe_db, config)?;
                            measure_scan_bandwidth(&mut probe, PROBE_SCANS)
                        })?;
                        QueryEngine::planned(database, engine_config, &planner, factory)
                    }
                }
            }
        }
    }

    /// The per-shard backend constructor replica `replica`'s engine was
    /// built with, as a retainable [`BackendFactory`]: the service layer
    /// hands it back to [`QueryEngine::rebalance`] so live shard rebuilds
    /// produce backends identical in kind and geometry policy to the
    /// construction-time ones.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for an out-of-range replica index.
    pub fn backend_factory(&self, replica: usize) -> Result<BackendFactory, PirError> {
        let spec = self.replicas.get(replica).ok_or_else(|| PirError::Config {
            reason: format!(
                "replica index {replica} is out of range: the topology has {} replica(s)",
                self.replicas.len()
            ),
        })?;
        match spec.backend {
            BackendSpec::Cpu => Ok(Box::new(|shard_db, _| {
                CpuPirServer::new(shard_db, CpuServerConfig::baseline())
                    .map(|server| Box::new(server) as BoxedBackend)
            })),
            BackendSpec::Pim { dpus, clusters } => {
                let config = Self::pim_backend_config(dpus, clusters);
                Ok(Box::new(move |shard_db, _| {
                    ImPirServer::new(shard_db, config.clone())
                        .map(|server| Box::new(server) as BoxedBackend)
                }))
            }
        }
    }

    /// The PIM backend config for a replica with the given DPU geometry.
    fn pim_backend_config(dpus: usize, clusters: usize) -> ImPirConfig {
        ImPirConfig {
            pim: PimConfig::tiny_test(dpus, PIM_MRAM_BYTES),
            clusters,
            eval_threads: 1,
        }
    }

    /// Connects a client-side transport to replica `replica`: a
    /// [`TcpTransport`] (dialing the listen address under the topology's
    /// [`RetrySpec`]) for TCP replicas, a freshly built in-process engine
    /// behind a [`LocalTransport`] for local ones.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for an out-of-range index or invalid
    /// topology, and [`PirError::Protocol`] when a TCP replica cannot be
    /// reached.
    pub fn connect(&self, replica: usize) -> Result<Box<dyn PirTransport>, PirError> {
        self.validate()?;
        let spec = self.replicas.get(replica).ok_or_else(|| PirError::Config {
            reason: format!(
                "replica index {replica} is out of range: the topology has {} replica(s)",
                self.replicas.len()
            ),
        })?;
        match spec.transport {
            TransportKind::Local => Ok(Box::new(LocalTransport::new(self.build_engine(replica)?))),
            TransportKind::Tcp => {
                let listen = spec.listen.as_deref().ok_or_else(|| PirError::Config {
                    reason: format!(
                        "replica `{}`: transport tcp requires a listen address",
                        spec.name
                    ),
                })?;
                Ok(Box::new(TcpTransport::connect_with(
                    listen,
                    self.retry.policy(),
                )?))
            }
        }
    }

    /// The server-side per-session socket timeout this topology asks for.
    #[must_use]
    pub fn service_io_timeout(&self) -> Duration {
        Duration::from_millis(self.io_timeout_ms)
    }
}

/// Builds the capacity-aware planner for a fleet of identical backends:
/// the shard count is the smallest number of backends whose aggregate
/// record capacity holds the database (1 for capacity-unbounded
/// backends), with the measured probe bandwidth blended in when
/// calibrating.
fn autoshard_planner(
    profile: CapacityProfile,
    records: u64,
    sharding: ShardPolicy,
    probe: impl FnOnce() -> Result<f64, PirError>,
) -> Result<ShardPlanner, PirError> {
    let profile = if sharding == ShardPolicy::Calibrated {
        let measured = probe()?;
        profile.with_measured_scan_bandwidth(measured, CALIBRATION_BLEND)?
    } else {
        profile
    };
    let backends = records
        .div_ceil(profile.record_capacity)
        .clamp(1, records.max(1)) as usize;
    ShardPlanner::new(vec![profile; backends])
}

fn write_sharding(out: &mut String, sharding: ShardPolicy) {
    use std::fmt::Write;
    match sharding {
        ShardPolicy::Uniform(shards) => {
            let _ = writeln!(out, "shards = {shards}");
        }
        ShardPolicy::Declared => {
            let _ = writeln!(out, "autoshard = declared");
        }
        ShardPolicy::Calibrated => {
            let _ = writeln!(out, "autoshard = calibrated");
        }
    }
}

fn validate_sharding(sharding: ShardPolicy, section: &str) -> Result<(), PirError> {
    if sharding == ShardPolicy::Uniform(0) {
        return config(format!("{section}: shards must be at least 1"));
    }
    Ok(())
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

fn config<T>(reason: impl Into<String>) -> Result<T, PirError> {
    Err(PirError::Config {
        reason: reason.into(),
    })
}

// ---------------------------------------------------------------------------
// The parser.
// ---------------------------------------------------------------------------

/// Which section the parser is currently inside.
enum Section {
    /// Before any section header.
    Preamble,
    Fleet,
    Replica(usize),
    Router,
}

/// A replica section under construction; finalized into a [`ReplicaSpec`]
/// once the whole file is read (keys may arrive in any order).
struct ReplicaBuilder {
    name: String,
    header_line: usize,
    listen: Option<String>,
    transport: Option<TransportKind>,
    backend: Option<BackendSpec>,
    dpus: Option<usize>,
    clusters: Option<usize>,
    sharding: Option<ShardPolicy>,
    seen: Vec<String>,
}

struct Parser {
    records: Option<u64>,
    record_bytes: Option<usize>,
    seed: Option<u64>,
    sharding: Option<ShardPolicy>,
    journal_batches: Option<usize>,
    rebalance: Option<RebalanceMode>,
    io_timeout_ms: Option<u64>,
    max_sessions: Option<usize>,
    retry: RetrySpec,
    replicas: Vec<ReplicaBuilder>,
    router_listen: Option<String>,
    router_probe_interval_ms: Option<u64>,
    router_max_lag_epochs: Option<u64>,
    fleet_seen: Vec<String>,
    router_seen: Vec<String>,
    saw_fleet: bool,
    saw_router: bool,
    section: Section,
}

fn line_error<T>(line: usize, reason: impl std::fmt::Display) -> Result<T, PirError> {
    Err(PirError::Config {
        reason: format!("line {line}: {reason}"),
    })
}

impl Parser {
    fn new() -> Self {
        Parser {
            records: None,
            record_bytes: None,
            seed: None,
            sharding: None,
            journal_batches: None,
            rebalance: None,
            io_timeout_ms: None,
            max_sessions: None,
            retry: RetrySpec::default(),
            replicas: Vec::new(),
            router_listen: None,
            router_probe_interval_ms: None,
            router_max_lag_epochs: None,
            fleet_seen: Vec::new(),
            router_seen: Vec::new(),
            saw_fleet: false,
            saw_router: false,
            section: Section::Preamble,
        }
    }

    fn parse(mut self, input: &str) -> Result<FleetTopology, PirError> {
        for (index, raw) in input.lines().enumerate() {
            let line_no = index + 1;
            // Everything after `#` is a comment; what remains must be a
            // section header or a `key = value` pair.
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(header) = rest.strip_suffix(']') else {
                    return line_error(line_no, "section header is missing the closing `]`");
                };
                self.open_section(header.trim(), line_no)?;
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return line_error(
                    line_no,
                    format!("expected `key = value` or `[section]`, got `{line}`"),
                );
            };
            let key = key.trim();
            let value = value.trim();
            if key.is_empty() {
                return line_error(line_no, "empty key before `=`");
            }
            if value.is_empty() {
                return line_error(line_no, format!("key `{key}` has an empty value"));
            }
            self.set_key(key, value, line_no)?;
        }
        self.finish()
    }

    fn open_section(&mut self, header: &str, line_no: usize) -> Result<(), PirError> {
        if header == "fleet" {
            if self.saw_fleet {
                return line_error(line_no, "duplicate [fleet] section");
            }
            self.saw_fleet = true;
            self.section = Section::Fleet;
            return Ok(());
        }
        if header == "router" {
            if self.saw_router {
                return line_error(line_no, "duplicate [router] section");
            }
            self.saw_router = true;
            self.section = Section::Router;
            return Ok(());
        }
        if let Some(name) = header.strip_prefix("replica") {
            let name = name.trim();
            if name.is_empty() {
                return line_error(line_no, "replica section needs a name: `[replica NAME]`");
            }
            if !valid_name(name) {
                return line_error(
                    line_no,
                    format!(
                        "replica name `{name}` is invalid: use letters, digits, `.`, `_` or `-`"
                    ),
                );
            }
            if self.replicas.iter().any(|r| r.name == name) {
                return line_error(line_no, format!("duplicate replica name `{name}`"));
            }
            self.replicas.push(ReplicaBuilder {
                name: name.to_string(),
                header_line: line_no,
                listen: None,
                transport: None,
                backend: None,
                dpus: None,
                clusters: None,
                sharding: None,
                seen: Vec::new(),
            });
            self.section = Section::Replica(self.replicas.len() - 1);
            return Ok(());
        }
        line_error(
            line_no,
            format!("unknown section `[{header}]` (expected [fleet], [replica NAME] or [router])"),
        )
    }

    fn set_key(&mut self, key: &str, value: &str, line_no: usize) -> Result<(), PirError> {
        match self.section {
            Section::Preamble => line_error(
                line_no,
                format!("key `{key}` appears before any section header"),
            ),
            Section::Fleet => self.set_fleet_key(key, value, line_no),
            Section::Replica(index) => self.set_replica_key(index, key, value, line_no),
            Section::Router => self.set_router_key(key, value, line_no),
        }
    }

    fn note_seen(
        seen: &mut Vec<String>,
        section: &str,
        key: &str,
        line_no: usize,
    ) -> Result<(), PirError> {
        if seen.iter().any(|k| k == key) {
            return line_error(line_no, format!("duplicate key `{key}` in {section}"));
        }
        seen.push(key.to_string());
        Ok(())
    }

    fn set_fleet_key(&mut self, key: &str, value: &str, line_no: usize) -> Result<(), PirError> {
        Self::note_seen(&mut self.fleet_seen, "[fleet]", key, line_no)?;
        match key {
            "records" => self.records = Some(parse_u64(key, value, line_no)?),
            "record-bytes" => self.record_bytes = Some(parse_usize(key, value, line_no)?),
            "seed" => self.seed = Some(parse_u64(key, value, line_no)?),
            "shards" => {
                if matches!(
                    self.sharding,
                    Some(ShardPolicy::Declared | ShardPolicy::Calibrated)
                ) {
                    return line_error(line_no, EXCLUSIVE_SHARDING);
                }
                self.sharding = Some(ShardPolicy::Uniform(parse_usize(key, value, line_no)?));
            }
            "autoshard" => {
                if matches!(self.sharding, Some(ShardPolicy::Uniform(_))) {
                    return line_error(line_no, EXCLUSIVE_SHARDING);
                }
                self.sharding = Some(parse_autoshard(value, line_no)?);
            }
            "journal-batches" => self.journal_batches = Some(parse_usize(key, value, line_no)?),
            "rebalance" => self.rebalance = Some(parse_rebalance(value, line_no)?),
            "io-timeout-ms" => self.io_timeout_ms = Some(parse_u64(key, value, line_no)?),
            // Accepted and ignored since PR 13 (one session tier): fleet
            // files written for the two-tier server keep loading, a value
            // that never was a tier is still an error, nothing is stored.
            "session-tier" => {
                if !matches!(value, "threads" | "events") {
                    return line_error(
                        line_no,
                        format!("session-tier expects `threads` or `events`, got `{value}`"),
                    );
                }
            }
            "max-sessions" => {
                let sessions = parse_usize(key, value, line_no)?;
                if sessions == 0 {
                    return line_error(
                        line_no,
                        "max-sessions must be at least 1 (omit the key for no session budget)",
                    );
                }
                self.max_sessions = Some(sessions);
            }
            "retry-attempts" => self.retry.attempts = parse_u32(key, value, line_no)?,
            "retry-backoff-ms" => self.retry.backoff_ms = parse_u64(key, value, line_no)?,
            "retry-max-backoff-ms" => self.retry.max_backoff_ms = parse_u64(key, value, line_no)?,
            "retry-io-timeout-ms" => self.retry.io_timeout_ms = parse_u64(key, value, line_no)?,
            other => {
                return line_error(line_no, format!("unknown key `{other}` in [fleet]"));
            }
        }
        Ok(())
    }

    fn set_replica_key(
        &mut self,
        index: usize,
        key: &str,
        value: &str,
        line_no: usize,
    ) -> Result<(), PirError> {
        let replica = &mut self.replicas[index];
        let section = format!("[replica {}]", replica.name);
        Self::note_seen(&mut replica.seen, &section, key, line_no)?;
        match key {
            "listen" => replica.listen = Some(value.to_string()),
            "transport" => {
                replica.transport = Some(match value {
                    "local" => TransportKind::Local,
                    "tcp" => TransportKind::Tcp,
                    other => {
                        return line_error(
                            line_no,
                            format!("transport expects `local` or `tcp`, got `{other}`"),
                        )
                    }
                });
            }
            "backend" => {
                replica.backend = Some(match value {
                    "cpu" => BackendSpec::Cpu,
                    // Geometry is patched in at finalize time, once the
                    // whole section (keys in any order) has been read.
                    "pim" => BackendSpec::Pim {
                        dpus: 0,
                        clusters: 0,
                    },
                    other => {
                        return line_error(
                            line_no,
                            format!("backend expects `cpu` or `pim`, got `{other}`"),
                        )
                    }
                });
            }
            "dpus" => replica.dpus = Some(parse_usize(key, value, line_no)?),
            "clusters" => replica.clusters = Some(parse_usize(key, value, line_no)?),
            "shards" => {
                if matches!(
                    replica.sharding,
                    Some(ShardPolicy::Declared | ShardPolicy::Calibrated)
                ) {
                    return line_error(line_no, EXCLUSIVE_SHARDING);
                }
                replica.sharding = Some(ShardPolicy::Uniform(parse_usize(key, value, line_no)?));
            }
            "autoshard" => {
                if matches!(replica.sharding, Some(ShardPolicy::Uniform(_))) {
                    return line_error(line_no, EXCLUSIVE_SHARDING);
                }
                replica.sharding = Some(parse_autoshard(value, line_no)?);
            }
            other => {
                return line_error(line_no, format!("unknown key `{other}` in {section}"));
            }
        }
        Ok(())
    }

    fn set_router_key(&mut self, key: &str, value: &str, line_no: usize) -> Result<(), PirError> {
        Self::note_seen(&mut self.router_seen, "[router]", key, line_no)?;
        match key {
            "listen" => self.router_listen = Some(value.to_string()),
            "probe-interval-ms" => {
                self.router_probe_interval_ms = Some(parse_u64(key, value, line_no)?);
            }
            "max-lag-epochs" => self.router_max_lag_epochs = Some(parse_u64(key, value, line_no)?),
            other => {
                return line_error(line_no, format!("unknown key `{other}` in [router]"));
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<FleetTopology, PirError> {
        if !self.saw_fleet {
            return config("the topology needs a [fleet] section");
        }
        let Some(records) = self.records else {
            return config("[fleet]: records is required");
        };
        let mut replicas = Vec::with_capacity(self.replicas.len());
        for builder in self.replicas {
            replicas.push(builder.finish()?);
        }
        let router = if self.saw_router {
            let Some(listen) = self.router_listen else {
                return config("[router]: listen is required");
            };
            Some(RouterSpec {
                listen,
                probe_interval_ms: self
                    .router_probe_interval_ms
                    .unwrap_or(DEFAULT_PROBE_INTERVAL_MS),
                max_lag_epochs: self.router_max_lag_epochs.unwrap_or(0),
            })
        } else {
            None
        };
        let topology = FleetTopology {
            records,
            record_bytes: self.record_bytes.unwrap_or(32),
            seed: self.seed.unwrap_or(42),
            sharding: self.sharding.unwrap_or(ShardPolicy::Uniform(1)),
            journal_batches: self.journal_batches.unwrap_or(DEFAULT_JOURNAL_BATCHES),
            rebalance: self.rebalance.unwrap_or_default(),
            io_timeout_ms: self.io_timeout_ms.unwrap_or(50),
            max_sessions: self.max_sessions,
            retry: self.retry,
            replicas,
            router,
        };
        topology.validate()?;
        Ok(topology)
    }
}

impl ReplicaBuilder {
    fn finish(self) -> Result<ReplicaSpec, PirError> {
        let backend = match self.backend {
            Some(BackendSpec::Pim { .. }) => BackendSpec::Pim {
                dpus: self.dpus.unwrap_or(8),
                clusters: self.clusters.unwrap_or(1),
            },
            Some(BackendSpec::Cpu) | None => {
                if self.dpus.is_some() || self.clusters.is_some() {
                    return line_error(
                        self.header_line,
                        format!(
                            "[replica {}]: dpus/clusters apply to the pim backend only",
                            self.name
                        ),
                    );
                }
                BackendSpec::Cpu
            }
        };
        let transport = self.transport.unwrap_or(if self.listen.is_some() {
            TransportKind::Tcp
        } else {
            TransportKind::Local
        });
        Ok(ReplicaSpec {
            name: self.name,
            transport,
            listen: self.listen,
            backend,
            sharding: self.sharding,
        })
    }
}

const EXCLUSIVE_SHARDING: &str = "`autoshard` and `shards` are mutually exclusive: `autoshard` \
     derives the shard count and boundaries from backend capacity, `shards` sets a manual \
     uniform split";

fn parse_u64(key: &str, value: &str, line_no: usize) -> Result<u64, PirError> {
    value.parse().map_err(|_| PirError::Config {
        reason: format!(
            "line {line_no}: `{key}` expects an unsigned 64-bit integer, got `{value}`"
        ),
    })
}

fn parse_u32(key: &str, value: &str, line_no: usize) -> Result<u32, PirError> {
    value.parse().map_err(|_| PirError::Config {
        reason: format!(
            "line {line_no}: `{key}` expects an unsigned 32-bit integer, got `{value}`"
        ),
    })
}

fn parse_usize(key: &str, value: &str, line_no: usize) -> Result<usize, PirError> {
    value.parse().map_err(|_| PirError::Config {
        reason: format!("line {line_no}: `{key}` expects an unsigned integer, got `{value}`"),
    })
}

fn parse_autoshard(value: &str, line_no: usize) -> Result<ShardPolicy, PirError> {
    match value {
        "declared" => Ok(ShardPolicy::Declared),
        "calibrated" => Ok(ShardPolicy::Calibrated),
        other => line_error(
            line_no,
            format!("autoshard expects `declared` or `calibrated`, got `{other}`"),
        ),
    }
}

fn parse_rebalance(value: &str, line_no: usize) -> Result<RebalanceMode, PirError> {
    RebalanceMode::parse(value).ok_or_else(|| PirError::Config {
        reason: format!("line {line_no}: rebalance expects `auto` or `off`, got `{value}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> &'static str {
        "[fleet]\nrecords = 64\n\n[replica a]\nlisten = 127.0.0.1:0\n"
    }

    #[test]
    fn parses_minimal_fleet_with_defaults() {
        let topology = FleetTopology::parse(minimal()).expect("minimal topology parses");
        assert_eq!(topology.records, 64);
        assert_eq!(topology.record_bytes, 32);
        assert_eq!(topology.seed, 42);
        assert_eq!(topology.sharding, ShardPolicy::Uniform(1));
        assert_eq!(topology.journal_batches, DEFAULT_JOURNAL_BATCHES);
        assert_eq!(topology.rebalance, RebalanceMode::Off);
        assert_eq!(topology.replicas.len(), 1);
        let replica = &topology.replicas[0];
        assert_eq!(replica.name, "a");
        // A listen address without an explicit transport means TCP.
        assert_eq!(replica.transport, TransportKind::Tcp);
        assert_eq!(replica.backend, BackendSpec::Cpu);
        assert!(topology.router.is_none());
    }

    #[test]
    fn round_trips_through_the_serializer() {
        let input = "\
[fleet]
records = 512
record-bytes = 16
seed = 9
autoshard = declared
journal-batches = 8
rebalance = auto
io-timeout-ms = 20
session-tier = events
max-sessions = 128
retry-attempts = 4
retry-backoff-ms = 5
retry-max-backoff-ms = 100
retry-io-timeout-ms = 250

[replica cpu-0]
listen = 127.0.0.1:7700
shards = 2

[replica pim-0]
listen = 127.0.0.1:7701
backend = pim
dpus = 4
clusters = 2

[router]
listen = 127.0.0.1:7800
probe-interval-ms = 100
max-lag-epochs = 1
";
        let parsed = FleetTopology::parse(input).expect("parses");
        assert_eq!(parsed.rebalance, RebalanceMode::Auto);
        assert_eq!(parsed.max_sessions, Some(128));
        let reparsed =
            FleetTopology::parse(&parsed.to_config_string()).expect("serialized form parses");
        assert_eq!(parsed, reparsed);
    }

    #[test]
    fn rejects_unknown_rebalance_modes() {
        let err = FleetTopology::parse("[fleet]\nrecords = 4\nrebalance = maybe\n")
            .expect_err("bad rebalance value must fail");
        assert!(err.to_string().contains("rebalance"), "{err}");
    }

    #[test]
    fn rejects_unknown_tier_values_and_zero_session_budgets() {
        let err = FleetTopology::parse("[fleet]\nrecords = 4\nsession-tier = fibers\n")
            .expect_err("bad session-tier value must fail");
        assert!(err.to_string().contains("session-tier"), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");

        // A budget of zero sessions would accept nothing; the parser names
        // the offending line, and validate() catches programmatic zeros.
        let err = FleetTopology::parse("[fleet]\nrecords = 4\nmax-sessions = 0\n")
            .expect_err("zero session budget must fail");
        assert!(err.to_string().contains("max-sessions"), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
        let mut topology = FleetTopology::new(4, 32, 1);
        topology.replicas.push(ReplicaSpec::local("a"));
        topology.max_sessions = Some(0);
        assert!(topology.validate().is_err());
    }

    #[test]
    fn the_tier_key_is_accepted_and_ignored() {
        let with_key = minimal().replace("records = 64\n", "records = 64\nsession-tier = events\n");
        let topology = FleetTopology::parse(&with_key).expect("parses");
        assert_eq!(topology, FleetTopology::parse(minimal()).expect("parses"));
        assert_eq!(topology.max_sessions, None);
        // Neither the ignored key nor the absent session budget is
        // written, so the round trip stays the identity.
        let serialized = topology.to_config_string();
        assert!(!serialized.contains("session-tier"));
        assert!(!serialized.contains("max-sessions"));
        assert_eq!(
            FleetTopology::parse(&serialized).expect("reparses"),
            topology
        );
        // Ignored is not unchecked: the key still may appear only once.
        let twice = with_key.replace("events\n", "events\nsession-tier = threads\n");
        assert!(FleetTopology::parse(&twice).is_err());
    }

    #[test]
    fn backend_factory_matches_the_built_engine() {
        let mut topology = FleetTopology::new(96, 16, 5);
        topology.replicas.push(ReplicaSpec::local("cpu"));
        let mut pim = ReplicaSpec::local("pim");
        pim.backend = BackendSpec::Pim {
            dpus: 4,
            clusters: 2,
        };
        topology.replicas.push(pim);
        for replica in 0..2 {
            let mut factory = topology.backend_factory(replica).expect("factory builds");
            let shard_db = topology.build_database().expect("database builds");
            let backend = factory(shard_db, 0).expect("backend builds");
            assert_eq!(backend.num_records(), 96);
            assert_eq!(backend.record_size(), 16);
        }
        assert!(topology.backend_factory(2).is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: [(&str, &str); 8] = [
            ("[fleet]\nrecords = 64\nbogus = 1\n", "line 3"),
            // The retired scan-kernel key is an unknown key like any other,
            // in either section it used to live in.
            (
                "[fleet]\nrecords = 64\nscan-kernel = auto\n",
                "line 3: unknown key `scan-kernel`",
            ),
            (
                "[fleet]\nrecords = 64\n[replica a]\nscan-kernel = auto\n",
                "line 4: unknown key `scan-kernel`",
            ),
            ("[fleet]\nrecords = 64\nrecords = 65\n", "line 3"),
            ("[fleet]\nrecords = 99999999999999999999\n", "line 2"),
            ("[fleet]\nrecords = 64\n[replica a\n", "line 3"),
            ("records = 64\n", "line 1"),
            (
                "[fleet]\nrecords = 64\nshards = 2\nautoshard = declared\n",
                "line 4",
            ),
        ];
        for (input, needle) in cases {
            let err = FleetTopology::parse(input).expect_err("must fail");
            let PirError::Config { reason } = &err else {
                panic!("expected a Config error, got {err:?}");
            };
            assert!(
                reason.contains(needle),
                "error for {input:?} should name {needle}: {reason}"
            );
        }
    }

    #[test]
    fn rejects_semantic_problems() {
        // TCP without a listen address.
        let err = FleetTopology::parse("[fleet]\nrecords = 4\n[replica a]\ntransport = tcp\n")
            .expect_err("tcp needs listen");
        assert!(err.to_string().contains("listen"), "{err}");
        // dpus on a cpu replica.
        let err = FleetTopology::parse("[fleet]\nrecords = 4\n[replica a]\ndpus = 4\n")
            .expect_err("dpus needs pim");
        assert!(err.to_string().contains("pim"), "{err}");
        // A router over a local replica.
        let err = FleetTopology::parse(
            "[fleet]\nrecords = 4\n[replica a]\ntransport = local\n[router]\nlisten = x:0\n",
        )
        .expect_err("router needs tcp replicas");
        assert!(err.to_string().contains("router"), "{err}");
    }

    #[test]
    fn builds_a_local_engine_from_the_topology() {
        let mut topology = FleetTopology::new(128, 16, 3);
        topology.replicas.push(ReplicaSpec::local("solo"));
        topology.replicas[0].sharding = Some(ShardPolicy::Uniform(2));
        let engine = topology.build_engine(0).expect("engine builds");
        assert_eq!(engine.num_records(), 128);
        assert_eq!(engine.record_size(), 16);
        assert_eq!(engine.shard_count(), 2);
    }

    #[test]
    fn mixed_backends_build_through_one_engine_type() {
        let mut topology = FleetTopology::new(96, 32, 5);
        topology.replicas.push(ReplicaSpec::local("cpu"));
        let mut pim = ReplicaSpec::local("pim");
        pim.backend = BackendSpec::Pim {
            dpus: 4,
            clusters: 1,
        };
        topology.replicas.push(pim);
        let engines: Vec<FleetEngine> = (0..2)
            .map(|i| topology.build_engine(i).expect("engine builds"))
            .collect();
        assert!(engines.iter().all(|e| e.num_records() == 96));
    }

    #[test]
    fn autoshard_declared_builds_for_pim() {
        let mut topology = FleetTopology::new(64, 32, 1);
        let mut pim = ReplicaSpec::local("pim");
        pim.backend = BackendSpec::Pim {
            dpus: 4,
            clusters: 1,
        };
        pim.sharding = Some(ShardPolicy::Declared);
        topology.replicas.push(pim);
        let engine = topology.build_engine(0).expect("autoshard engine builds");
        assert!(engine.shard_count() >= 1);
    }
}
