//! The unified sharded query engine — one execution layer for every
//! deployment.
//!
//! [`QueryEngine`] owns a set of record-range shards (see
//! [`crate::shard`]), each backed by its own [`BatchExecutor`] instance
//! (PIM, CPU, streaming, or any future backend), and drives the paper's
//! §3.4 batch pipeline across them:
//!
//! 1. **evaluation stage** — workers expand each query's DPF key over the
//!    *full* record domain inside a bounded admission window
//!    (backpressure, see [`crate::batch`]);
//! 2. **shard fan-out** — every shard receives the slice of each selector
//!    covering its record range and scans it in waves of its backend's
//!    [`BatchExecutor::wave_width`], all shards in parallel;
//! 3. **merge** — because the PIR answer is a XOR over selected records,
//!    the engine XORs the per-shard payloads into the final response;
//!    shard [`PhaseBreakdown`]s combine as a critical path (the shards ran
//!    concurrently on disjoint hardware), then add to the evaluation
//!    phase.
//!
//! Every deployment in the workspace executes through this layer:
//! [`crate::scheme::TwoServerPir`] wraps two engines,
//! [`crate::multi_server::NServerNaivePir`] scans its linear shares through
//! one, and the benchmark harness drives `impir_baselines`' systems which
//! wrap engines themselves. Plugging in a new backend means implementing
//! [`BatchExecutor`] (three methods) — the engine supplies sharding,
//! pipelining, backpressure and accounting.
//!
//! Database **updates** go through the engine as well (§3.3 bulk updates):
//! [`QueryEngine::apply_updates`] accepts global record indices, validates
//! the batch all-or-nothing, routes each entry to the shard holding it (in
//! that shard's local index space) and updates the
//! [`UpdatableBackend`]s in parallel — callers say *what* changed, the
//! engine decides *where* it lands.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use impir_core::database::Database;
//! use impir_core::engine::{EngineConfig, QueryEngine};
//! use impir_core::server::cpu::{CpuPirServer, CpuServerConfig};
//! use impir_core::shard::ShardedDatabase;
//! use impir_core::PirClient;
//!
//! let db = Arc::new(Database::random(300, 16, 1)?);
//! let sharded = ShardedDatabase::uniform(db.clone(), 3)?;
//! let mut engine = QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
//!     CpuPirServer::new(shard_db, CpuServerConfig::baseline())
//! })?;
//! // Single-server subresults XOR-combine across shards, so two such
//! // engines (one per non-colluding server) reconstruct records exactly.
//! let mut client = PirClient::new(300, 16, 0)?;
//! let (share, _) = client.generate_query(123)?;
//! let (response, _) = engine.execute_query(&share)?;
//! assert_eq!(response.payload.len(), 16);
//! # Ok::<(), impir_core::PirError>(())
//! ```

use std::sync::Arc;
use std::time::Instant;

use impir_dpf::{EvalStrategy, SelectorVector};

use crate::batch::{
    BatchConfig, BatchExecutor, SelectorEvaluator, UpdatableBackend, UpdateOutcome,
};
use crate::dpxor;
use crate::error::PirError;
use crate::journal::UpdateBatch;
use crate::protocol::{QueryShare, ServerResponse};
use crate::server::phases::{PhaseBreakdown, PhaseTime};
use crate::server::BatchOutcome;
use crate::shard::{ShardPlan, ShardedDatabase};
use crate::wire::{update_batch_frame_bytes, Frame, ServerInfo, FRAME_HEADER_BYTES, WIRE_VERSION};

/// Configuration of a [`QueryEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// The batch pipeline parameters (worker threads, admission-queue
    /// depth).
    pub pipeline: BatchConfig,
    /// Strategy for the engine's full-domain DPF evaluations (stage 1) in
    /// **sharded** engines. The engine evaluates once over the whole domain
    /// and slices per shard, so shard backends never re-evaluate keys.
    /// (A single-shard engine built with [`QueryEngine::single`] evaluates
    /// through its backend's own [`BatchExecutor::selector_evaluator`]
    /// instead, honoring the backend's configured strategy.)
    pub eval_strategy: EvalStrategy,
    /// How many applied update batches the engine's
    /// [`crate::journal::UpdateJournal`] retains for replica catch-up
    /// (`impir-server --journal-batches`). Zero disables journaling: a
    /// lagging replica then always fails closed with
    /// [`PirError::JournalTruncated`].
    pub journal_batches: usize,
}

/// Default journal retention: deep enough that a replica missing a few
/// batches (the one-sided-failure window) always recovers, shallow enough
/// that the retained clones stay a small multiple of one batch.
pub const DEFAULT_JOURNAL_BATCHES: usize = 64;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            pipeline: BatchConfig::default(),
            eval_strategy: EvalStrategy::SubtreeParallel {
                threads: impir_dpf::host_parallelism(),
            },
            journal_batches: DEFAULT_JOURNAL_BATCHES,
        }
    }
}

impl EngineConfig {
    /// Creates a configuration from explicit pipeline parameters and an
    /// evaluation strategy.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if the pipeline configuration or the
    /// evaluation strategy is invalid.
    pub fn new(pipeline: BatchConfig, eval_strategy: EvalStrategy) -> Result<Self, PirError> {
        let config = EngineConfig {
            pipeline,
            eval_strategy,
            journal_batches: DEFAULT_JOURNAL_BATCHES,
        };
        config.validate()?;
        Ok(config)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if the pipeline configuration or the
    /// evaluation strategy is invalid (e.g. a subtree-parallel strategy
    /// with zero threads).
    pub fn validate(&self) -> Result<(), PirError> {
        self.pipeline.validate()?;
        validate_eval_strategy(&self.eval_strategy)
    }
}

/// Rejects degenerate [`EvalStrategy`] values at the configuration
/// boundary, so the evaluation paths never have to paper over them with
/// runtime clamps.
pub(crate) fn validate_eval_strategy(strategy: &EvalStrategy) -> Result<(), PirError> {
    if matches!(strategy, EvalStrategy::SubtreeParallel { threads: 0 }) {
        return Err(PirError::Config {
            reason: "the subtree-parallel evaluation strategy needs at least one thread"
                .to_string(),
        });
    }
    Ok(())
}

/// What one shard's scan produces: the per-query XOR payloads plus the
/// shard's phase accounting.
type ShardScanResult = Result<(Vec<Vec<u8>>, PhaseBreakdown), PirError>;

/// One shard: a backend plus the record range it answers for.
#[derive(Debug)]
struct EngineShard<S> {
    backend: S,
    start: u64,
    records: u64,
}

/// The engine's stage-1 selector evaluator, built **once at construction**:
/// the evaluator (and the scratch pool it owns) lives as long as the
/// engine, so steady-state serving reuses the same warmed expansion buffers
/// query after query, batch after batch. For single-shard engines this is
/// the backend's own [`BatchExecutor::selector_evaluator`] (the backend's
/// configured strategy and domain checks govern); for sharded engines it is
/// the engine's strategy over the full domain, since no single backend
/// covers it.
struct EngineEvaluator(SelectorEvaluator);

impl std::fmt::Debug for EngineEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EngineEvaluator")
    }
}

/// The unified sharded execution layer (see the module docs).
#[derive(Debug)]
pub struct QueryEngine<S> {
    shards: Vec<EngineShard<S>>,
    plan: ShardPlan,
    num_records: u64,
    record_size: usize,
    domain_bits: u32,
    config: EngineConfig,
    evaluator: EngineEvaluator,
    epoch: u64,
    /// The applied-update journal replica catch-up replays from — advanced
    /// in lockstep with `epoch` (see [`crate::journal::UpdateJournal`]).
    journal: crate::journal::UpdateJournal,
    /// Per-shard phase breakdowns of the most recent
    /// [`QueryEngine::execute_batch`], in shard order (zeros before the
    /// first batch) — the raw material of [`QueryEngine::shard_timings`].
    last_shard_phases: Vec<PhaseBreakdown>,
    /// How many queries the most recent batch held (zero before the first
    /// batch, and reset by a rebalance): the divisor that normalizes the
    /// per-batch phase breakdowns above to per-query figures, so measured
    /// timings compare against the planner's per-query predictions.
    last_batch_queries: usize,
    /// Per-shard single-query scan predictions from the
    /// [`crate::capacity::ShardPlanner`], present only for engines built
    /// through [`QueryEngine::planned`].
    predicted_scan_seconds: Option<Vec<f64>>,
}

/// One shard's predicted-vs-actual timing, reported by
/// [`QueryEngine::shard_timings`] so a capacity plan's quality is
/// observable in production: a shard whose actual scan time dwarfs its
/// prediction (or its siblings') is the critical path the planner should
/// have shrunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTiming {
    /// Shard index (= planner profile index for planned engines).
    pub shard: usize,
    /// The record range the shard serves.
    pub range: std::ops::Range<u64>,
    /// The planner's predicted seconds for **one** query's scan of this
    /// shard (`None` for engines not built through
    /// [`QueryEngine::planned`]).
    pub predicted_scan_seconds: Option<f64>,
    /// How many queries the most recent batch held (zero before the first
    /// batch) — the divisor normalizing the per-batch `phases` to the
    /// per-query figures predictions are stated in.
    pub queries: usize,
    /// The shard's actual phase breakdown over the most recent batch
    /// (zeros before the first batch).
    pub phases: PhaseBreakdown,
}

impl ShardTiming {
    /// The shard's actual scan-side time over the last **batch**, in
    /// hybrid seconds (simulated hardware time for PIM phases, wall time
    /// for host phases). Compare against `predicted_scan_seconds *
    /// queries`, or use [`ShardTiming::actual_seconds_per_query`] — the
    /// prediction is per-query, and comparing it against this per-batch
    /// figure conflates batch size with skew.
    #[must_use]
    pub fn actual_hybrid_seconds(&self) -> f64 {
        self.phases.total_hybrid_seconds()
    }

    /// The shard's actual hybrid seconds **per query** of the most recent
    /// batch — the same unit as `predicted_scan_seconds`, so predicted
    /// and measured compare directly whatever the batch size was. Zero
    /// before the first batch.
    #[must_use]
    pub fn actual_seconds_per_query(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.phases.total_hybrid_seconds() / self.queries as f64
    }
}

/// Builds the sharded engine's full-domain strategy evaluator: the closure
/// owns a scratch pool, so every evaluation through it — from any batch,
/// on any stage-1 worker — checks warmed buffers out of one long-lived
/// pool.
fn strategy_evaluator(strategy: EvalStrategy, num_records: u64) -> EngineEvaluator {
    let prg = impir_crypto::prg::LengthDoublingPrg::shared();
    let scratches = impir_dpf::ScratchPool::new();
    EngineEvaluator(Box::new(move |share| {
        scratches
            .with(|scratch| {
                strategy.eval_range_with_scratch(&share.key, 0, num_records, prg, scratch)
            })
            .map_err(PirError::from)
    }))
}

impl<S: BatchExecutor + Send + Sync> QueryEngine<S> {
    /// Wraps one pre-built backend as a single-shard engine covering its
    /// whole database. Stage-1 evaluation goes through the backend's own
    /// [`BatchExecutor::selector_evaluator`] (`config.eval_strategy` is not
    /// used — the backend's configured strategy governs).
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if `config` is invalid.
    pub fn single(backend: S, config: EngineConfig) -> Result<Self, PirError> {
        config.validate()?;
        let num_records = backend.num_records();
        let record_size = backend.record_size();
        let plan = ShardPlan::single(num_records)?;
        // Built once: the backend evaluator's scratch pool serves every
        // batch this engine ever executes.
        let evaluator = EngineEvaluator(backend.selector_evaluator());
        Ok(QueryEngine {
            shards: vec![EngineShard {
                backend,
                start: 0,
                records: num_records,
            }],
            plan,
            num_records,
            record_size,
            domain_bits: domain_bits_for(num_records),
            config,
            evaluator,
            epoch: 0,
            journal: crate::journal::UpdateJournal::new(config.journal_batches),
            last_shard_phases: vec![PhaseBreakdown::zero()],
            last_batch_queries: 0,
            predicted_scan_seconds: None,
        })
    }

    /// Builds an engine over a sharded database, constructing one backend
    /// per shard through `factory` (which receives the shard's materialised
    /// replica and its index).
    ///
    /// # Errors
    ///
    /// * [`PirError::Config`] if `config` is invalid or a constructed
    ///   backend disagrees with its shard's geometry;
    /// * any error `factory` returns.
    pub fn sharded<F>(
        database: &ShardedDatabase,
        config: EngineConfig,
        mut factory: F,
    ) -> Result<Self, PirError>
    where
        F: FnMut(std::sync::Arc<crate::database::Database>, usize) -> Result<S, PirError>,
    {
        config.validate()?;
        let plan = database.plan().clone();
        let mut shards = Vec::with_capacity(plan.shard_count());
        for shard in 0..plan.shard_count() {
            let range = plan.range(shard).expect("shard index within plan");
            let replica = database.shard_database(shard)?;
            let backend = factory(replica, shard)?;
            let records = range.end - range.start;
            if backend.num_records() != records
                || backend.record_size() != database.database().record_size()
            {
                return Err(PirError::Config {
                    reason: format!(
                        "backend for shard {shard} holds {} records of {} bytes but the \
                         shard spans {records} records of {} bytes",
                        backend.num_records(),
                        backend.record_size(),
                        database.database().record_size()
                    ),
                });
            }
            shards.push(EngineShard {
                backend,
                start: range.start,
                records,
            });
        }
        let num_records = database.database().num_records();
        let shard_count = shards.len();
        Ok(QueryEngine {
            shards,
            plan,
            num_records,
            record_size: database.database().record_size(),
            domain_bits: domain_bits_for(num_records),
            config,
            evaluator: strategy_evaluator(config.eval_strategy, num_records),
            epoch: 0,
            journal: crate::journal::UpdateJournal::new(config.journal_batches),
            last_shard_phases: vec![PhaseBreakdown::zero(); shard_count],
            last_batch_queries: 0,
            predicted_scan_seconds: None,
        })
    }

    /// Builds an engine whose shard boundaries come from a capacity-aware
    /// [`crate::capacity::ShardPlanner`] instead of a uniform split: the
    /// planner's plan partitions `database`, shard `i` is constructed by
    /// `factory` from the `i`-th profile's record range, and each shard's
    /// predicted scan time is recorded so [`QueryEngine::shard_timings`]
    /// can expose predicted-vs-actual skew.
    ///
    /// Heterogeneous fleets pair naturally with this constructor: `S` may
    /// be a boxed trait object (e.g. `Box<dyn UpdatableBackend + Send +
    /// Sync>`), so `factory` can return a different backend kind per shard
    /// — a PIM backend for the MRAM-resident head, a streaming backend for
    /// the overflow tail, a CPU backend for the rest.
    ///
    /// # Errors
    ///
    /// * [`PirError::Config`] if `config` is invalid, the planner cannot
    ///   cover the database (capacity short, fewer records than backends),
    ///   or a constructed backend disagrees with its shard's geometry;
    /// * any error `factory` returns.
    pub fn planned<F>(
        database: Arc<crate::database::Database>,
        config: EngineConfig,
        planner: &crate::capacity::ShardPlanner,
        factory: F,
    ) -> Result<Self, PirError>
    where
        F: FnMut(Arc<crate::database::Database>, usize) -> Result<S, PirError>,
    {
        let record_size = database.record_size();
        let plan = planner.plan(database.num_records(), record_size)?;
        let predicted = planner.predicted_shard_scan_seconds(&plan, record_size, 1)?;
        let sharded = ShardedDatabase::new(database, plan)?;
        let mut engine = QueryEngine::sharded(&sharded, config, factory)?;
        engine.predicted_scan_seconds = Some(predicted);
        Ok(engine)
    }

    /// Number of records across all shards.
    #[must_use]
    pub fn num_records(&self) -> u64 {
        self.num_records
    }

    /// Record size in bytes.
    #[must_use]
    pub fn record_size(&self) -> usize {
        self.record_size
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard plan in use.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The DPF domain (in bits) the engine expects query keys to cover —
    /// `⌈log2(num_records)⌉`, at least 1. Lets service fronts validate a
    /// session's shares *before* admitting them into a shared batch wave,
    /// so one client's stale geometry cannot fail other clients' queries.
    #[must_use]
    pub fn domain_bits(&self) -> u32 {
        self.domain_bits
    }

    /// The engine configuration in use.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The backend serving shard `shard`, if it exists.
    #[must_use]
    pub fn backend(&self, shard: usize) -> Option<&S> {
        self.shards.get(shard).map(|s| &s.backend)
    }

    /// Mutable access to the backend serving shard `shard`, if it exists.
    ///
    /// A sharded backend addresses records in its **shard-local** index
    /// space; do not apply database updates through this accessor — use
    /// [`QueryEngine::apply_updates`], which translates global indices and
    /// keeps all shards consistent.
    pub fn backend_mut(&mut self, shard: usize) -> Option<&mut S> {
        self.shards.get_mut(shard).map(|s| &mut s.backend)
    }

    /// The engine's database epoch: bumped once per successful
    /// [`QueryEngine::apply_updates`] batch. Zero means the engine still
    /// serves the database it was constructed over.
    #[must_use]
    pub fn database_epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine's epoch and journal coverage, as answered to
    /// [`crate::wire::Frame::EpochInfoRequest`].
    #[must_use]
    pub fn epoch_info(&self) -> crate::wire::EpochInfo {
        debug_assert_eq!(self.journal.epoch(), self.epoch);
        self.journal.epoch_info()
    }

    /// The update batches a replica stuck at `from_epoch` must apply, in
    /// order, to reach this engine's epoch — the server side of
    /// [`crate::wire::Frame::UpdateReplayRequest`].
    ///
    /// # Errors
    ///
    /// * [`PirError::JournalTruncated`] when the journal's retention
    ///   window no longer reaches back to `from_epoch`;
    /// * [`PirError::Protocol`] when `from_epoch` is ahead of this engine.
    pub fn replay_updates(&self, from_epoch: u64) -> Result<Vec<UpdateBatch>, PirError> {
        self.journal.replay_from(from_epoch)
    }

    /// Per-shard predicted-vs-actual timings: each shard's record range,
    /// the planner's predicted single-query scan seconds (for engines built
    /// through [`QueryEngine::planned`]) and the shard's actual
    /// [`PhaseBreakdown`] over the most recent
    /// [`QueryEngine::execute_batch`] (zeros before the first batch).
    #[must_use]
    pub fn shard_timings(&self) -> Vec<ShardTiming> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, engine_shard)| ShardTiming {
                shard,
                range: engine_shard.start..engine_shard.start + engine_shard.records,
                predicted_scan_seconds: self
                    .predicted_scan_seconds
                    .as_ref()
                    .map(|predicted| predicted[shard]),
                queries: self.last_batch_queries,
                phases: self
                    .last_shard_phases
                    .get(shard)
                    .copied()
                    .unwrap_or_else(PhaseBreakdown::zero),
            })
            .collect()
    }

    /// Scan skew of the most recent batch: the slowest shard's hybrid scan
    /// seconds over the mean across shards (1.0 = perfectly balanced).
    /// `None` before the first non-empty batch. A well-planned layout keeps
    /// this near 1; a uniform layout over asymmetric backends shows the
    /// slowest backend's multiple.
    #[must_use]
    pub fn scan_skew(&self) -> Option<f64> {
        let times: Vec<f64> = self
            .last_shard_phases
            .iter()
            .map(PhaseBreakdown::total_hybrid_seconds)
            .collect();
        let total: f64 = times.iter().sum();
        if times.is_empty() || total <= 0.0 {
            return None;
        }
        let mean = total / times.len() as f64;
        Some(times.iter().fold(0.0f64, |a, &b| a.max(b)) / mean)
    }

    fn check_domain(&self, share: &QueryShare) -> Result<(), PirError> {
        if share.key.domain_bits() != self.domain_bits {
            return Err(PirError::QueryDomainMismatch {
                key_domain_bits: share.key.domain_bits(),
                database_domain_bits: self.domain_bits,
            });
        }
        Ok(())
    }

    /// Executes one query end to end through the engine.
    ///
    /// # Errors
    ///
    /// See [`QueryEngine::execute_batch`].
    pub fn execute_query(
        &mut self,
        share: &QueryShare,
    ) -> Result<(ServerResponse, PhaseBreakdown), PirError> {
        let outcome = self.execute_batch(std::slice::from_ref(share))?;
        let response = outcome
            .responses
            .into_iter()
            .next()
            .expect("one response per share");
        Ok((response, outcome.phase_totals))
    }

    /// Executes a batch of query shares through the full pipeline:
    /// worker-stage evaluation with backpressure, per-shard wave fan-out,
    /// XOR merge. Responses are returned in the same order as `shares`.
    ///
    /// The calling thread is evaluation worker 0, drives shard 0's scans
    /// and merges; only `min(worker_threads, shares) − 1` evaluation
    /// helpers and one driver per *further* shard are spawned.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::QueryDomainMismatch`] for keys not covering the
    /// engine's domain and propagates DPF/backend failures.
    pub fn execute_batch(&mut self, shares: &[QueryShare]) -> Result<BatchOutcome, PirError> {
        if shares.is_empty() {
            return Ok(BatchOutcome {
                responses: Vec::new(),
                wall_seconds: 0.0,
                phase_totals: PhaseBreakdown::zero(),
            });
        }
        let started = Instant::now();
        for share in shares {
            self.check_domain(share)?;
        }

        // The borrow-free, engine-lived evaluator lets the helper workers
        // run while the shard consumers hold the backends mutably — and
        // carries its warmed scratch pool from batch to batch.
        let evaluator = &self.evaluator.0;
        let pipeline = self.config.pipeline;
        let count = shares.len();

        // Stages 1+2, overlapped: the pipeline's workers (this thread is
        // worker 0) evaluate full-domain selectors inside the bounded
        // admission window; each selector, as it completes (in query
        // order), is handed to every shard's consumer, which slices its own
        // record range and scans in waves of its backend's width. This
        // thread drives shard 0's consumer inline; shards 1.. are driven by
        // one scoped thread each from a bounded feed. When a shard falls
        // behind, its feed fills and the evaluation stage blocks —
        // backpressure end to end. A single shard has no feed and no
        // thread: with one share, the whole batch runs right here.
        //
        // The stage-1 workers run concurrently, so the eval phase is the
        // critical path across their per-worker wall-time sums — summing
        // every evaluation would report an eval phase that can exceed the
        // batch's own wall time.
        let mut worker_eval: Vec<PhaseTime> =
            vec![PhaseTime::zero(); pipeline.worker_threads.max(1)];
        let (first, rest) = self
            .shards
            .split_first_mut()
            .expect("an engine has at least one shard");
        let (pipeline_result, shard_results): (Result<(), PirError>, Vec<ShardScanResult>) =
            std::thread::scope(|scope| {
                let mut feeds = Vec::with_capacity(rest.len());
                let mut handles = Vec::with_capacity(rest.len());
                for shard in rest {
                    let (sender, receiver) =
                        crossbeam::channel::bounded::<Arc<SelectorVector>>(pipeline.queue_depth);
                    feeds.push(sender);
                    handles.push(scope.spawn(move || {
                        // An early close (upstream error) returns the
                        // payloads scanned so far; the pipeline's error
                        // takes precedence.
                        let mut consumer = ShardConsumer::new(shard, count);
                        while let Ok(selector) = receiver.recv() {
                            consumer.push(&selector)?;
                        }
                        Ok(consumer.finish())
                    }));
                }
                let mut consumer = ShardConsumer::new(first, count);
                let pipeline_result = crate::batch::stream_selectors(
                    count,
                    &pipeline,
                    |position| evaluator(&shares[position]),
                    |_, worker, selector, eval_wall_seconds| {
                        worker_eval[worker].merge(&PhaseTime::host(eval_wall_seconds));
                        if feeds.is_empty() {
                            return consumer.push(&selector);
                        }
                        // The other shards get the shared selector first, so
                        // they scan while this thread scans shard 0. A
                        // dropped receiver means that shard errored; its
                        // result carries the real failure.
                        let selector = Arc::new(selector);
                        for sender in &feeds {
                            let _ = sender.send(Arc::clone(&selector));
                        }
                        consumer.push(&selector)
                    },
                );
                drop(feeds);
                let shard_results = std::iter::once(Ok(consumer.finish()))
                    .chain(
                        handles
                            .into_iter()
                            .map(|handle| handle.join().expect("shard driver panicked")),
                    )
                    .collect();
                (pipeline_result, shard_results)
            });
        pipeline_result?;

        // Stage 3: merge — XOR the per-shard payloads into each response.
        // The shards ran concurrently on disjoint (simulated) hardware, so
        // their phase breakdowns combine as a critical path, not a sum.
        let mut totals = PhaseBreakdown::zero();
        for per_worker in &worker_eval {
            totals.eval.merge_parallel(per_worker);
        }
        let merge_started = Instant::now();
        let mut payloads: Vec<Vec<u8>> = vec![vec![0u8; self.record_size]; shares.len()];
        let mut shard_critical_path = PhaseBreakdown::zero();
        let mut per_shard_phases = Vec::with_capacity(self.shards.len());
        for result in shard_results {
            let (shard_payloads, shard_phases) = result?;
            shard_critical_path.merge_parallel(&shard_phases);
            per_shard_phases.push(shard_phases);
            debug_assert_eq!(shard_payloads.len(), shares.len());
            for (merged, payload) in payloads.iter_mut().zip(&shard_payloads) {
                dpxor::xor_in_place(merged, payload);
            }
        }
        // Retain the per-shard view (and the batch size that produced it,
        // so the per-batch times normalize to per-query) so callers can
        // inspect how balanced the plan actually was (see `shard_timings`).
        self.last_shard_phases = per_shard_phases;
        self.last_batch_queries = shares.len();
        totals.merge(&shard_critical_path);
        if self.shards.len() > 1 {
            // The cross-shard XOR is extra aggregation work a single-shard
            // deployment does not perform; account it explicitly.
            totals
                .aggregate
                .merge(&PhaseTime::host(merge_started.elapsed().as_secs_f64()));
        }

        let responses: Vec<ServerResponse> = shares
            .iter()
            .zip(payloads)
            .map(|(share, payload)| ServerResponse::new(share.query_id, share.key.party(), payload))
            .collect();

        Ok(BatchOutcome {
            responses,
            wall_seconds: started.elapsed().as_secs_f64(),
            phase_totals: totals,
        })
    }

    /// Scans a pre-evaluated full-domain selector through every shard and
    /// XOR-merges the sub-answers — the execution path for schemes that
    /// build their own linear selector shares instead of DPF keys
    /// ([`crate::multi_server::NServerNaivePir`]).
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if the selector does not cover the
    /// engine's record space and propagates backend failures.
    pub fn scan_selector(
        &mut self,
        selector: &SelectorVector,
    ) -> Result<(Vec<u8>, PhaseBreakdown), PirError> {
        if selector.len() as u64 != self.num_records {
            return Err(PirError::Config {
                reason: format!(
                    "selector covers {} records but the engine serves {}",
                    selector.len(),
                    self.num_records
                ),
            });
        }
        let mut payload = vec![0u8; self.record_size];
        let mut phases = PhaseBreakdown::zero();
        let shard_results = impir_dpf::fan_out(self.shards.iter_mut(), |shard| {
            let mut consumer = ShardConsumer::new(shard, 1);
            consumer.push(selector)?;
            Ok::<_, PirError>(consumer.finish())
        });
        for result in shard_results {
            let (shard_payloads, shard_phases) = result?;
            // The shards scanned concurrently on disjoint hardware.
            phases.merge_parallel(&shard_phases);
            dpxor::xor_in_place(&mut payload, &shard_payloads[0]);
        }
        Ok((payload, phases))
    }
}

impl<S: UpdatableBackend + Send + Sync> QueryEngine<S> {
    /// Applies a batch of record updates (pairs of **global** record index
    /// and replacement bytes) across every shard of the engine — the §3.3
    /// bulk-update path, lifted to the execution layer so callers say
    /// *what* changed and the engine decides *where* it lands.
    ///
    /// The whole batch is validated against the engine's geometry first
    /// (all-or-nothing: one invalid entry means no shard observes any
    /// update), global indices are translated to shard-local ones through
    /// the [`ShardPlan`], and the per-shard update sets fan out to the
    /// backends in parallel. Backends commit atomically after the engine's
    /// validation, so after a successful call every shard, backend replica
    /// and snapshot agrees with the updated database; responses are
    /// byte-identical to a fresh engine built over it.
    ///
    /// Returns the aggregated [`UpdateOutcome`]: total bytes pushed across
    /// shards, the simulated transfer time as the critical path over the
    /// concurrently updating shards, and the engine's new database epoch.
    ///
    /// # Errors
    ///
    /// * [`PirError::IndexOutOfRange`] for an update outside the engine's
    ///   record space;
    /// * [`PirError::RecordSizeMismatch`] for a payload of the wrong size;
    /// * backend transfer failures.
    pub fn apply_updates(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<UpdateOutcome, PirError> {
        crate::batch::validate_updates(updates, self.num_records, self.record_size)?;
        if updates.is_empty() {
            return Ok(UpdateOutcome {
                records_updated: 0,
                bytes_pushed: 0,
                simulated_seconds: 0.0,
                epoch: self.epoch,
            });
        }
        // A single-shard engine's local and global index spaces coincide:
        // hand the batch straight to the backend, skipping the partition
        // (and its payload copies).
        if self.shards.len() == 1 {
            let outcome = self.shards[0].backend.apply_updates(updates)?;
            self.epoch += 1;
            self.journal.record(updates);
            return Ok(UpdateOutcome {
                records_updated: updates.len(),
                bytes_pushed: outcome.bytes_pushed,
                simulated_seconds: outcome.simulated_seconds,
                epoch: self.epoch,
            });
        }
        // Global → shard-local translation; entry order is preserved per
        // shard, so duplicated indices keep their last-write-wins meaning.
        let mut per_shard: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); self.shards.len()];
        for (index, bytes) in updates {
            let shard = self
                .plan
                .shard_of(*index)
                .expect("validated index falls in some shard of the plan");
            let local = index - self.shards[shard].start;
            per_shard[shard].push((local, bytes.clone()));
        }
        // Fan out: the shards' backends update concurrently (disjoint
        // simulated hardware), the last one on this thread.
        let results = impir_dpf::fan_out(
            self.shards.iter_mut().zip(&per_shard),
            |(shard, shard_updates)| {
                if shard_updates.is_empty() {
                    return Ok(None);
                }
                shard.backend.apply_updates(shard_updates).map(Some)
            },
        );
        let mut bytes_pushed = 0u64;
        let mut simulated_seconds = 0.0f64;
        for result in results {
            if let Some(outcome) = result? {
                bytes_pushed += outcome.bytes_pushed;
                // The shards updated concurrently: critical path, not sum.
                simulated_seconds = simulated_seconds.max(outcome.simulated_seconds);
            }
        }
        self.epoch += 1;
        self.journal.record(updates);
        Ok(UpdateOutcome {
            records_updated: updates.len(),
            bytes_pushed,
            simulated_seconds,
            epoch: self.epoch,
        })
    }

    /// Answers one request frame — the server's whole protocol surface in
    /// one function. A replica's dispatcher runs every request but query
    /// batches through here (it coalesces those across sessions first),
    /// and [`crate::transport::LocalTransport`] runs every request through
    /// here, so an in-process replica and a remote one give the same
    /// answers by construction.
    ///
    /// A `Hello` is answered with a `HelloAck` (the session tier checks the
    /// version before it forwards one). A journal replay is sent as the
    /// longest prefix of the missing batches whose `UpdateReplay` frame
    /// fits `max_reply_bytes`; the client asks again from its advanced
    /// epoch until it has caught up.
    ///
    /// # Errors
    ///
    /// The engine's own errors, typed (so a local caller sees, e.g.,
    /// [`PirError::QueryDomainMismatch`] or [`PirError::JournalTruncated`]);
    /// a server turns them into reply frames with
    /// [`crate::wire::error_reply`]. [`PirError::Protocol`] for a frame that
    /// is not a request, and for a replay whose next batch alone exceeds
    /// `max_reply_bytes`.
    pub fn handle(&mut self, request: Frame, max_reply_bytes: usize) -> Result<Frame, PirError> {
        let info = ServerInfo {
            num_records: self.num_records,
            record_size: self.record_size,
            shard_count: self.shards.len(),
            epoch: self.epoch,
        };
        Ok(match request {
            Frame::Hello { .. } => Frame::HelloAck {
                version: WIRE_VERSION,
                info,
            },
            Frame::InfoRequest => Frame::Info { info },
            Frame::EpochInfoRequest => Frame::EpochInfo {
                info: self.epoch_info(),
            },
            Frame::QueryBatch { shares } => {
                let outcome = self.execute_batch(&shares)?;
                Frame::ResponseBatch {
                    epoch: self.epoch,
                    wall_seconds: outcome.wall_seconds,
                    phases: outcome.phase_totals,
                    responses: outcome.responses,
                }
            }
            Frame::SelectorScan { selector } => {
                let (payload, phases) = self.scan_selector(&selector)?;
                Frame::SelectorResult {
                    epoch: self.epoch,
                    payload,
                    phases,
                }
            }
            Frame::UpdateBatch { updates } => Frame::UpdateAck {
                outcome: self.apply_updates(&updates)?,
            },
            Frame::UpdateReplayRequest { from_epoch } => {
                let batches = self.replay_updates(from_epoch)?;
                let pending = batches.len();
                let mut body = 1 + 4; // the tag and the batch-count prefix
                let mut sent: Vec<UpdateBatch> = Vec::new();
                for batch in batches {
                    body += update_batch_frame_bytes(&batch) - FRAME_HEADER_BYTES;
                    if body > max_reply_bytes {
                        break;
                    }
                    sent.push(batch);
                }
                if sent.is_empty() && pending > 0 {
                    // Never degrade this to an empty reply: the client
                    // reads empty as "caught up" and would stay lagging.
                    return Err(PirError::Protocol {
                        reason: format!(
                            "replay from epoch {from_epoch} cannot proceed: the next journalled \
                             batch alone exceeds the replay frame bound of {max_reply_bytes} \
                             bytes; re-seed the lagging replica from a current snapshot"
                        ),
                    });
                }
                Frame::UpdateReplay { batches: sent }
            }
            other => {
                return Err(PirError::Protocol {
                    reason: format!("a {} frame is not a request", other.name()),
                })
            }
        })
    }

    /// Executes a [`crate::rebalance::MigrationPlan`] live — records move
    /// between shards without draining traffic, and the layout change is
    /// invisible to clients (responses stay byte-identical, because the
    /// PIR answer is a XOR over selected records wherever they live).
    ///
    /// For every shard whose record range changes, the new replica is
    /// assembled from the **current** backends' copy-on-write databases:
    /// records the shard keeps are carried over directly, while records
    /// migrating *in* are staged as zeros and then pushed through the
    /// rebuilt backend's all-or-nothing
    /// [`UpdatableBackend::apply_updates`] path — so a PIM receiver
    /// coalesces the incoming range into MRAM exactly like a §3.3 bulk
    /// update. Unchanged shards keep their existing backends (and their
    /// warmed state). Only after every rebuilt backend has committed does
    /// the engine swap in the new backends and the new [`ShardPlan`]
    /// together, under the same `&mut self` serialization every update
    /// takes — a service front that serializes updates against query
    /// waves gets an atomic plan swap for free.
    ///
    /// A rebalance is **one epoch step**: the records that changed shards
    /// are journaled as an identity update batch (global indices,
    /// unchanged bytes), so a replica that never rebalanced replays it
    /// like any other batch — epochs converge and both replicas keep
    /// reconstructing identical records. The engine's per-shard
    /// measurements are reset (they described the old layout), so
    /// [`QueryEngine::scan_skew`] reports `None` until the new layout has
    /// served a batch — which is also what keeps a measured-skew feedback
    /// loop from thrashing on stale numbers.
    ///
    /// An empty plan is a no-op: nothing is rebuilt and the epoch does
    /// **not** advance.
    ///
    /// # Errors
    ///
    /// * [`PirError::Config`] for an unsound plan (non-adjacent move,
    ///   emptied donor, unknown shard — see
    ///   [`crate::rebalance::MigrationPlan::apply_to`]) or a factory
    ///   backend that disagrees with its new shard geometry;
    /// * any error `factory` or a backend's update path returns. On
    ///   error the engine keeps its previous layout, backends and epoch.
    pub fn rebalance<F>(
        &mut self,
        plan: &crate::rebalance::MigrationPlan,
        mut factory: F,
    ) -> Result<crate::rebalance::RebalanceOutcome, PirError>
    where
        F: FnMut(Arc<crate::database::Database>, usize) -> Result<S, PirError>,
    {
        use crate::rebalance::RebalanceOutcome;
        if plan.is_empty() {
            return Ok(RebalanceOutcome {
                records_moved: 0,
                shards_rebuilt: 0,
                bytes_pushed: 0,
                simulated_seconds: 0.0,
                epoch: self.epoch,
            });
        }
        let new_plan = plan.apply_to(&self.plan)?;
        let record_size = self.record_size;
        let changed: Vec<usize> = (0..self.shards.len())
            .filter(|&shard| self.plan.range(shard) != new_plan.range(shard))
            .collect();

        // Build every rebuilt shard against the *current* backends before
        // anything is swapped: a failure mid-way leaves the engine
        // serving its old layout untouched.
        let mut rebuilt: Vec<(usize, EngineShard<S>)> = Vec::with_capacity(changed.len());
        let mut journal_batch: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut bytes_pushed = 0u64;
        let mut simulated_seconds = 0.0f64;
        for &shard in &changed {
            let new_range = new_plan.range(shard).expect("shard index within plan");
            let old_range = self.plan.range(shard).expect("shard index within plan");
            let len = new_range.end - new_range.start;
            let mut records: Vec<Vec<u8>> = Vec::with_capacity(len as usize);
            let mut incoming: Vec<(u64, Vec<u8>)> = Vec::new();
            for global in new_range.clone() {
                if old_range.contains(&global) {
                    // A record the shard keeps: carried over from its own
                    // copy-on-write replica at the old local index.
                    let local = global - old_range.start;
                    records.push(self.shards[shard].backend.database().record(local).to_vec());
                } else {
                    // A record migrating in: staged as zeros here, read
                    // out of its current owner's replica, and pushed
                    // through the rebuilt backend's update path below.
                    records.push(vec![0u8; record_size]);
                    let owner = self
                        .plan
                        .shard_of(global)
                        .expect("every record has an owner in the old plan");
                    let bytes = self.shards[owner]
                        .backend
                        .database()
                        .record(global - self.shards[owner].start)
                        .to_vec();
                    journal_batch.push((global, bytes.clone()));
                    incoming.push((global - new_range.start, bytes));
                }
            }
            let replica = Arc::new(crate::database::Database::from_records(&records)?);
            let mut backend = factory(replica, shard)?;
            if backend.num_records() != len || backend.record_size() != record_size {
                return Err(PirError::Config {
                    reason: format!(
                        "rebalanced backend for shard {shard} holds {} records of {} bytes \
                         but the new shard spans {len} records of {record_size} bytes",
                        backend.num_records(),
                        backend.record_size()
                    ),
                });
            }
            if !incoming.is_empty() {
                let outcome = backend.apply_updates(&incoming)?;
                bytes_pushed += outcome.bytes_pushed;
                // Rebuilt shards push concurrently-disjoint hardware:
                // critical path, not sum — same accounting as updates.
                simulated_seconds = simulated_seconds.max(outcome.simulated_seconds);
            }
            rebuilt.push((
                shard,
                EngineShard {
                    backend,
                    start: new_range.start,
                    records: len,
                },
            ));
        }

        // Everything committed: swap backends and plan together. The
        // planner's per-query predictions scale with the shard's record
        // count (the scan is linear in records), so surviving predictions
        // stay comparable against future measurements.
        if let Some(predicted) = &mut self.predicted_scan_seconds {
            for &shard in &changed {
                let old_len = {
                    let range = self.plan.range(shard).expect("shard index within plan");
                    (range.end - range.start) as f64
                };
                let new_len = {
                    let range = new_plan.range(shard).expect("shard index within plan");
                    (range.end - range.start) as f64
                };
                predicted[shard] *= new_len / old_len;
            }
        }
        for (shard, engine_shard) in rebuilt {
            self.shards[shard] = engine_shard;
        }
        self.plan = new_plan;
        // The retained measurements described the old layout; reset them
        // so skew-driven triggers re-measure before moving again.
        for phases in &mut self.last_shard_phases {
            *phases = PhaseBreakdown::zero();
        }
        self.last_batch_queries = 0;
        // One epoch step, journaled as an identity batch of the moved
        // records: an un-rebalanced peer replaying it applies no-op writes
        // and converges on the same epoch and bytes.
        journal_batch.sort_by_key(|(global, _)| *global);
        let records_moved = journal_batch.len() as u64;
        self.epoch += 1;
        self.journal.record(&journal_batch);
        Ok(RebalanceOutcome {
            records_moved,
            shards_rebuilt: changed.len(),
            bytes_pushed,
            simulated_seconds,
            epoch: self.epoch,
        })
    }
}

/// One shard's push-style selector consumer — the single body behind every
/// shard scan, whoever drives it (the calling thread inline for shard 0, a
/// scoped thread reading a bounded feed for shards 1..): slices the
/// shard's record range out of each full-domain selector pushed (in query
/// order) and scans in waves of the backend's width, or at the batch's
/// tail.
struct ShardConsumer<'a, S> {
    shard: &'a mut EngineShard<S>,
    width: usize,
    expected: usize,
    wave: Vec<SelectorVector>,
    payloads: Vec<Vec<u8>>,
    phases: PhaseBreakdown,
}

impl<'a, S: BatchExecutor> ShardConsumer<'a, S> {
    /// A consumer that will be pushed exactly `expected` selectors.
    fn new(shard: &'a mut EngineShard<S>, expected: usize) -> Self {
        let width = shard.backend.wave_width().max(1);
        ShardConsumer {
            shard,
            width,
            expected,
            wave: Vec::with_capacity(width),
            payloads: Vec::with_capacity(expected),
            phases: PhaseBreakdown::zero(),
        }
    }

    fn push(&mut self, selector: &SelectorVector) -> Result<(), PirError> {
        let (start, records) = (self.shard.start as usize, self.shard.records as usize);
        self.wave.push(selector.slice(start, records));
        if self.wave.len() == self.width || self.payloads.len() + self.wave.len() == self.expected {
            let refs: Vec<&SelectorVector> = self.wave.iter().collect();
            let (wave_payloads, wave_phases) = self.shard.backend.execute_wave(&refs)?;
            debug_assert_eq!(wave_payloads.len(), self.wave.len());
            self.phases.merge(&wave_phases);
            self.payloads.extend(wave_payloads);
            self.wave.clear();
        }
        Ok(())
    }

    /// The per-query XOR payloads scanned so far, plus the shard's phase
    /// accounting.
    fn finish(self) -> (Vec<Vec<u8>>, PhaseBreakdown) {
        (self.payloads, self.phases)
    }
}

/// `⌈log2(num_records)⌉`, at least 1 — the DPF domain the engine expects
/// query keys to cover (delegates to the database layer's definition).
fn domain_bits_for(num_records: u64) -> u32 {
    debug_assert!(num_records > 0);
    crate::database::domain_bits_for_records(num_records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PirClient;
    use crate::database::Database;
    use crate::server::cpu::{CpuPirServer, CpuServerConfig};
    use crate::server::pim::{ImPirConfig, ImPirServer};
    use std::sync::Arc;

    fn cpu_engine(db: &Arc<Database>, shards: usize) -> QueryEngine<CpuPirServer> {
        let sharded = ShardedDatabase::uniform(db.clone(), shards).unwrap();
        QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
            CpuPirServer::new(shard_db, CpuServerConfig::baseline())
        })
        .unwrap()
    }

    #[test]
    fn sharded_engines_reconstruct_records_like_unsharded_ones() {
        let db = Arc::new(Database::random(257, 16, 3).unwrap());
        let mut client = PirClient::new(257, 16, 1).unwrap();
        let indices = [0u64, 64, 128, 200, 256];
        for shards in [1usize, 2, 5] {
            let mut engine_1 = cpu_engine(&db, shards);
            let mut engine_2 = cpu_engine(&db, shards);
            for &index in &indices {
                let (q1, q2) = client.generate_query(index).unwrap();
                let (r1, _) = engine_1.execute_query(&q1).unwrap();
                let (r2, _) = engine_2.execute_query(&q2).unwrap();
                assert_eq!(
                    client.reconstruct(&r1, &r2).unwrap(),
                    db.record(index),
                    "shards={shards} index={index}"
                );
            }
        }
    }

    #[test]
    fn shard_count_does_not_change_server_payloads() {
        let db = Arc::new(Database::random(200, 8, 9).unwrap());
        let mut client = PirClient::new(200, 8, 5).unwrap();
        let (share, _) = client.generate_query(77).unwrap();
        let (reference, _) = cpu_engine(&db, 1).execute_query(&share).unwrap();
        for shards in [2usize, 3, 7] {
            let (payload, _) = cpu_engine(&db, shards).execute_query(&share).unwrap();
            assert_eq!(payload.payload, reference.payload, "shards={shards}");
        }
    }

    #[test]
    fn batches_not_divisible_by_shard_count_are_answered_in_order() {
        let db = Arc::new(Database::random(150, 16, 6).unwrap());
        let mut client = PirClient::new(150, 16, 2).unwrap();
        // 7 queries over 3 shards: neither a multiple of the shard count
        // nor of any backend wave width.
        let indices = [0u64, 149, 75, 3, 75, 148, 42];
        let (shares_1, shares_2) = client.generate_batch(&indices).unwrap();
        let mut engine_1 = cpu_engine(&db, 3);
        let mut engine_2 = cpu_engine(&db, 3);
        let outcome_1 = engine_1.execute_batch(&shares_1).unwrap();
        let outcome_2 = engine_2.execute_batch(&shares_2).unwrap();
        assert_eq!(outcome_1.responses.len(), indices.len());
        for (i, &index) in indices.iter().enumerate() {
            assert_eq!(outcome_1.responses[i].query_id, shares_1[i].query_id);
            let record = client
                .reconstruct(&outcome_1.responses[i], &outcome_2.responses[i])
                .unwrap();
            assert_eq!(record, db.record(index), "position {i}");
        }
    }

    #[test]
    fn pim_backends_shard_through_the_engine() {
        let db = Arc::new(Database::random(120, 8, 11).unwrap());
        let sharded = ShardedDatabase::uniform(db.clone(), 2).unwrap();
        let mut engine_1 =
            QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
                ImPirServer::new(shard_db, ImPirConfig::tiny_test(2).with_clusters(2))
            })
            .unwrap();
        let mut engine_2 = cpu_engine(&db, 3);
        let mut client = PirClient::new(120, 8, 7).unwrap();
        let indices = [5u64, 60, 119, 60, 0];
        let (shares_1, shares_2) = client.generate_batch(&indices).unwrap();
        let outcome_1 = engine_1.execute_batch(&shares_1).unwrap();
        let outcome_2 = engine_2.execute_batch(&shares_2).unwrap();
        for (i, &index) in indices.iter().enumerate() {
            let record = client
                .reconstruct(&outcome_1.responses[i], &outcome_2.responses[i])
                .unwrap();
            assert_eq!(record, db.record(index));
        }
        // The PIM shards accumulated simulated hardware time.
        assert!(outcome_1.phase_totals.dpxor.simulated_seconds.unwrap() > 0.0);
    }

    #[test]
    fn engine_rejects_mismatched_domains_and_selectors() {
        let db = Arc::new(Database::random(100, 8, 0).unwrap());
        let mut engine = cpu_engine(&db, 2);
        let mut wrong_client = PirClient::new(100_000, 8, 0).unwrap();
        let (share, _) = wrong_client.generate_query(5).unwrap();
        assert!(matches!(
            engine.execute_query(&share),
            Err(PirError::QueryDomainMismatch { .. })
        ));
        let short_selector: SelectorVector = (0..50).map(|_| false).collect();
        assert!(matches!(
            engine.scan_selector(&short_selector),
            Err(PirError::Config { .. })
        ));
    }

    #[test]
    fn scan_selector_matches_direct_database_scan() {
        let db = Arc::new(Database::random(90, 8, 2).unwrap());
        let mut engine = cpu_engine(&db, 4);
        let selector: SelectorVector = (0..90).map(|i| i % 3 == 0).collect();
        let (payload, _) = engine.scan_selector(&selector).unwrap();
        assert_eq!(payload, db.xor_select(&selector));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let db = Arc::new(Database::random(64, 8, 1).unwrap());
        let mut engine = cpu_engine(&db, 2);
        let outcome = engine.execute_batch(&[]).unwrap();
        assert!(outcome.responses.is_empty());
        assert_eq!(outcome.phase_totals, PhaseBreakdown::zero());
    }

    #[test]
    fn consecutive_batches_through_one_engine_match_fresh_engines() {
        // The engine's scratch pool persists across batches; payloads must
        // be identical to those of an engine that has never served before.
        let db = Arc::new(Database::random(220, 16, 13).unwrap());
        let mut client = PirClient::new(220, 16, 3).unwrap();
        let mut warm = cpu_engine(&db, 3);
        for batch in 0..3u64 {
            let indices: Vec<u64> = (0..9).map(|i| (i * 31 + batch * 11) % 220).collect();
            let (shares, _) = client.generate_batch(&indices).unwrap();
            let warm_outcome = warm.execute_batch(&shares).unwrap();
            let fresh_outcome = cpu_engine(&db, 3).execute_batch(&shares).unwrap();
            for (w, f) in warm_outcome.responses.iter().zip(&fresh_outcome.responses) {
                assert_eq!(w.payload, f.payload, "batch {batch}");
            }
        }
    }

    #[test]
    fn apply_updates_keeps_sharded_engines_consistent_with_fresh_ones() {
        let db = Arc::new(Database::random(250, 16, 17).unwrap());
        let mut client = PirClient::new(250, 16, 4).unwrap();
        let indices = [0u64, 99, 100, 249, 50];
        let (shares, _) = client.generate_batch(&indices).unwrap();
        let updates: Vec<(u64, Vec<u8>)> = vec![
            (0, vec![0x11; 16]),
            (99, vec![0x22; 16]),
            (100, vec![0x33; 16]),
            (249, vec![0x44; 16]),
        ];
        let mut updated_db = (*db).clone();
        for (index, bytes) in &updates {
            updated_db.set_record(*index, bytes).unwrap();
        }
        let updated_db = Arc::new(updated_db);
        for shards in [1usize, 3, 5] {
            let mut engine = cpu_engine(&db, shards);
            assert_eq!(engine.database_epoch(), 0);
            let outcome = engine.apply_updates(&updates).unwrap();
            assert_eq!(outcome.records_updated, 4);
            assert_eq!(outcome.epoch, 1);
            assert_eq!(engine.database_epoch(), 1);
            let updated = engine.execute_batch(&shares).unwrap();
            let fresh = cpu_engine(&updated_db, shards)
                .execute_batch(&shares)
                .unwrap();
            for (u, f) in updated.responses.iter().zip(&fresh.responses) {
                assert_eq!(u.payload, f.payload, "shards={shards}");
            }
        }
        // The construction-time database was never mutated (copy-on-write).
        assert_eq!(
            db.record(0),
            Database::random(250, 16, 17).unwrap().record(0)
        );
    }

    #[test]
    fn invalid_update_batches_are_rejected_before_any_shard_changes() {
        let db = Arc::new(Database::random(120, 8, 23).unwrap());
        let mut client = PirClient::new(120, 8, 6).unwrap();
        let (shares, _) = client.generate_batch(&[0u64, 60, 119]).unwrap();
        let mut engine = cpu_engine(&db, 3);
        let before = engine.execute_batch(&shares).unwrap();
        // One valid entry followed by an out-of-range one.
        let poisoned = vec![(0u64, vec![0xff; 8]), (120u64, vec![0xff; 8])];
        assert!(matches!(
            engine.apply_updates(&poisoned),
            Err(PirError::IndexOutOfRange { .. })
        ));
        // And a wrong-size payload.
        let wrong_size = vec![(1u64, vec![0xff; 4])];
        assert!(matches!(
            engine.apply_updates(&wrong_size),
            Err(PirError::RecordSizeMismatch { .. })
        ));
        assert_eq!(engine.database_epoch(), 0);
        let after = engine.execute_batch(&shares).unwrap();
        for (b, a) in before.responses.iter().zip(&after.responses) {
            assert_eq!(b.payload, a.payload);
        }
    }

    #[test]
    fn empty_update_batch_is_a_noop() {
        let db = Arc::new(Database::random(64, 8, 3).unwrap());
        let mut engine = cpu_engine(&db, 2);
        let outcome = engine.apply_updates(&[]).unwrap();
        assert_eq!(outcome.records_updated, 0);
        assert_eq!(outcome.epoch, 0);
        assert_eq!(engine.database_epoch(), 0);
    }

    #[test]
    fn eval_phase_never_exceeds_batch_wall_time_with_parallel_workers() {
        // Regression: per-worker eval wall times used to be *summed* into
        // the eval phase, so with several pipeline workers the reported
        // phase could exceed the batch's actual wall time. Workers run
        // concurrently — the phase is their critical path.
        let db = Arc::new(Database::random(4096, 32, 29).unwrap());
        let mut client = PirClient::new(4096, 32, 11).unwrap();
        let indices: Vec<u64> = (0..32).map(|i| (i * 131) % 4096).collect();
        let (shares, _) = client.generate_batch(&indices).unwrap();
        let config = EngineConfig::new(
            BatchConfig::with_workers(4).unwrap(),
            EvalStrategy::SubtreeParallel { threads: 2 },
        )
        .unwrap();
        let sharded = ShardedDatabase::uniform(db.clone(), 2).unwrap();
        let mut engine = QueryEngine::sharded(&sharded, config, |shard_db, _| {
            CpuPirServer::new(shard_db, CpuServerConfig::baseline())
        })
        .unwrap();
        let outcome = engine.execute_batch(&shares).unwrap();
        assert!(
            outcome.phase_totals.eval.wall_seconds <= outcome.wall_seconds,
            "eval phase {} exceeds batch wall time {}",
            outcome.phase_totals.eval.wall_seconds,
            outcome.wall_seconds
        );
        assert!(outcome.phase_totals.eval.wall_seconds > 0.0);
    }

    #[test]
    fn zero_thread_eval_strategy_is_rejected_at_the_config_boundary() {
        let config = EngineConfig {
            pipeline: BatchConfig::default(),
            eval_strategy: EvalStrategy::SubtreeParallel { threads: 0 },
            ..EngineConfig::default()
        };
        assert!(matches!(config.validate(), Err(PirError::Config { .. })));
        assert!(matches!(
            EngineConfig::new(
                BatchConfig::default(),
                EvalStrategy::SubtreeParallel { threads: 0 }
            ),
            Err(PirError::Config { .. })
        ));
        assert!(EngineConfig::new(
            BatchConfig::default(),
            EvalStrategy::SubtreeParallel { threads: 1 }
        )
        .is_ok());
    }

    #[test]
    fn planned_engines_follow_the_planner_and_report_shard_timings() {
        use crate::capacity::{CapacityProfile, ShardPlanner};
        let db = Arc::new(Database::random(400, 16, 7).unwrap());
        // 3:1 declared bandwidth ⇒ a 300/100 split.
        let planner = ShardPlanner::new(vec![
            CapacityProfile::unbounded(3.0e9, 4.0e7, 1).unwrap(),
            CapacityProfile::unbounded(1.0e9, 4.0e7, 1).unwrap(),
        ])
        .unwrap();
        let mut engine = QueryEngine::planned(
            db.clone(),
            EngineConfig::default(),
            &planner,
            |shard_db, _| CpuPirServer::new(shard_db, CpuServerConfig::baseline()),
        )
        .unwrap();
        assert_eq!(engine.plan().range(0), Some(0..300));
        assert_eq!(engine.plan().range(1), Some(300..400));

        // Before any batch: predictions present, actuals zero, no skew.
        let timings = engine.shard_timings();
        assert_eq!(timings.len(), 2);
        // The planner balances predicted scan time: the fast shard's 300
        // records and the slow shard's 100 cost the same, to within
        // integer-rounding of the boundary.
        let fast = timings[0].predicted_scan_seconds.unwrap();
        let slow = timings[1].predicted_scan_seconds.unwrap();
        assert!(fast > 0.0 && slow > 0.0);
        assert!((fast - slow).abs() / fast < 0.05, "fast={fast} slow={slow}");
        assert_eq!(timings[1].range, 300..400);
        assert_eq!(timings[0].actual_hybrid_seconds(), 0.0);
        assert_eq!(engine.scan_skew(), None);

        // Responses are byte-identical to a uniform engine's — the planner
        // only moves boundaries, never answers.
        let mut client = PirClient::new(400, 16, 3).unwrap();
        let indices = [0u64, 299, 300, 399, 150];
        let (shares, _) = client.generate_batch(&indices).unwrap();
        let planned_out = engine.execute_batch(&shares).unwrap();
        let uniform_out = cpu_engine(&db, 2).execute_batch(&shares).unwrap();
        for (p, u) in planned_out.responses.iter().zip(&uniform_out.responses) {
            assert_eq!(p.payload, u.payload);
        }

        // After a batch: actual timings recorded, skew observable.
        let timings = engine.shard_timings();
        assert!(timings.iter().any(|t| t.actual_hybrid_seconds() > 0.0));
        let skew = engine.scan_skew().expect("a non-empty batch ran");
        assert!(skew >= 1.0, "skew is max/mean, so at least 1: {skew}");
    }

    #[test]
    fn planned_engines_reject_fleets_that_cannot_hold_the_database() {
        use crate::capacity::{CapacityProfile, ShardPlanner};
        let db = Arc::new(Database::random(100, 8, 1).unwrap());
        let planner = ShardPlanner::new(vec![
            CapacityProfile::new(30, 1.0e9, 4.0e7, 1).unwrap(),
            CapacityProfile::new(30, 1.0e9, 4.0e7, 1).unwrap(),
        ])
        .unwrap();
        let result = QueryEngine::planned(db, EngineConfig::default(), &planner, |shard_db, _| {
            CpuPirServer::new(shard_db, CpuServerConfig::baseline())
        });
        assert!(matches!(result, Err(PirError::Config { .. })));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// On skewed plans, `apply_updates` must route every global record
        /// index to the shard holding it, translated into that shard's
        /// local index space — pinned by reading each shard backend's
        /// replica directly after the update.
        #[test]
        fn prop_apply_updates_translates_global_to_local_on_skewed_plans(
            seed in any::<u64>(),
            shards in 2usize..5,
        ) {
            // Deterministic skewed layout: shard i holds 3 + (seed-derived)
            // records, so boundaries land at "awkward" offsets.
            let ranges = crate::shard::test_util::skewed_ranges(seed, shards, 3, 40);
            let num_records = ranges.last().unwrap().end;
            let plan = ShardPlan::from_ranges(ranges.clone()).unwrap();
            let db = Arc::new(Database::random(num_records, 8, seed).unwrap());
            let sharded = ShardedDatabase::new(db.clone(), plan).unwrap();
            let mut engine =
                QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
                    CpuPirServer::new(shard_db, CpuServerConfig::baseline())
                })
                .unwrap();

            // Updates hitting every shard's first and last record plus a
            // few seed-chosen interior indices.
            let mut indices: Vec<u64> = ranges
                .iter()
                .flat_map(|r| [r.start, r.end - 1])
                .collect();
            for i in 0..4u64 {
                indices.push(seed.wrapping_mul(31).wrapping_add(i * 97) % num_records);
            }
            let updates: Vec<(u64, Vec<u8>)> = indices
                .iter()
                .enumerate()
                .map(|(i, &index)| (index, vec![0x40 | i as u8; 8]))
                .collect();
            let mut expected = (*db).clone();
            for (index, bytes) in &updates {
                expected.set_record(*index, bytes).unwrap();
            }

            engine.apply_updates(&updates).unwrap();
            // Every shard's replica must hold exactly the expected bytes at
            // the translated local index — for every record, not only the
            // updated ones.
            for (shard, range) in ranges.iter().enumerate() {
                let replica = engine.backend(shard).unwrap().database().clone();
                prop_assert_eq!(replica.num_records(), range.end - range.start);
                for global in range.clone() {
                    let local = global - range.start;
                    prop_assert_eq!(
                        replica.record(local),
                        expected.record(global),
                        "shard {} global {} local {}",
                        shard,
                        global,
                        local
                    );
                }
            }
        }

        /// Any sound migration plan, applied to an engine that has already
        /// served traffic, answers byte-identically to a fresh engine
        /// built over the same database with the post-migration layout —
        /// including a query batch generated *before* the rebalance and
        /// executed after it (the batch straddles the plan swap, as when a
        /// service front rebalances between two coalesced waves).
        #[test]
        fn prop_rebalanced_engines_answer_like_fresh_engines_on_the_new_layout(
            seed in any::<u64>(),
            shards in 2usize..5,
            moves in 1usize..4,
        ) {
            use crate::rebalance::{MigrationPlan, RecordMove};
            let ranges = crate::shard::test_util::skewed_ranges(seed, shards, 3, 40);
            let num_records = ranges.last().unwrap().end;
            let plan = ShardPlan::from_ranges(ranges.clone()).unwrap();
            let db = Arc::new(Database::random(num_records, 8, seed).unwrap());
            let sharded = ShardedDatabase::new(db.clone(), plan).unwrap();
            let factory = |shard_db: Arc<Database>, _| {
                CpuPirServer::new(shard_db, CpuServerConfig::baseline())
            };
            let mut engine =
                QueryEngine::sharded(&sharded, EngineConfig::default(), factory).unwrap();

            // Seed-derived moves kept sound against the evolving layout:
            // adjacent shards only, donor keeps at least one record.
            let mut evolving = ranges.clone();
            let mut migration = MigrationPlan::empty();
            for step in 0..moves as u64 {
                let donor = ((seed.wrapping_add(step * 7)) % shards as u64) as usize;
                let receiver = if donor + 1 < shards && (seed >> step) & 1 == 0 {
                    donor + 1
                } else if donor > 0 {
                    donor - 1
                } else {
                    donor + 1
                };
                let donor_len = evolving[donor].end - evolving[donor].start;
                if donor_len < 2 {
                    continue;
                }
                let records = 1 + seed.wrapping_mul(13).wrapping_add(step) % (donor_len - 1);
                if receiver == donor + 1 {
                    evolving[donor].end -= records;
                    evolving[receiver].start -= records;
                } else {
                    evolving[donor].start += records;
                    evolving[receiver].end += records;
                }
                migration.moves.push(RecordMove { donor, receiver, records });
            }

            // The straddling batch: shares generated against the old
            // layout (layouts are invisible to clients), first wave served
            // before the swap, second wave after.
            let mut client = PirClient::new(num_records, 8, seed).unwrap();
            let mut indices: Vec<u64> = ranges
                .iter()
                .flat_map(|r| [r.start, r.end - 1])
                .collect();
            indices.push(seed % num_records);
            let (shares, peer_shares) = client.generate_batch(&indices).unwrap();
            engine.execute_batch(&shares).unwrap();

            let outcome = engine.rebalance(&migration, factory).unwrap();
            prop_assert_eq!(engine.plan().ranges(), &evolving[..]);
            let expect_epoch = u64::from(!migration.is_empty());
            prop_assert_eq!(outcome.epoch, expect_epoch);
            prop_assert_eq!(engine.database_epoch(), expect_epoch);

            let fresh_sharded =
                ShardedDatabase::new(db.clone(), engine.plan().clone()).unwrap();
            let mut fresh =
                QueryEngine::sharded(&fresh_sharded, EngineConfig::default(), factory)
                    .unwrap();
            let rebalanced_out = engine.execute_batch(&shares).unwrap();
            let fresh_out = fresh.execute_batch(&shares).unwrap();
            for (r, f) in rebalanced_out.responses.iter().zip(&fresh_out.responses) {
                prop_assert_eq!(&r.payload, &f.payload);
            }

            // Two-server deployment where only this replica rebalanced:
            // reconstruction still yields the true record bytes.
            let mut peer =
                QueryEngine::sharded(&sharded, EngineConfig::default(), factory).unwrap();
            let peer_out = peer.execute_batch(&peer_shares).unwrap();
            for (i, &index) in indices.iter().enumerate() {
                let record = client
                    .reconstruct(&rebalanced_out.responses[i], &peer_out.responses[i])
                    .unwrap();
                prop_assert_eq!(record, db.record(index), "index {}", index);
            }
        }
    }

    #[test]
    fn factory_geometry_mismatch_is_rejected() {
        let db = Arc::new(Database::random(64, 8, 1).unwrap());
        let sharded = ShardedDatabase::uniform(db.clone(), 2).unwrap();
        let other = Arc::new(Database::random(64, 8, 2).unwrap());
        let result = QueryEngine::sharded(&sharded, EngineConfig::default(), |_, _| {
            // Ignores the shard replica and builds over the full database.
            CpuPirServer::new(other.clone(), CpuServerConfig::baseline())
        });
        assert!(matches!(result, Err(PirError::Config { .. })));
    }

    #[test]
    fn shard_timings_normalize_actuals_to_per_query_figures() {
        // Regression: predicted scan seconds are per-query while the
        // recorded phase breakdowns cover the whole batch, so comparing
        // them misreported skew by a factor of the batch size. The
        // simulated PIM phase times are deterministic, so the per-query
        // figure must be identical across batch sizes while the per-batch
        // figure grows with the batch.
        let db = Arc::new(Database::random(128, 8, 19).unwrap());
        let mut client = PirClient::new(128, 8, 9).unwrap();
        let mut per_query_dpxor = |batch: usize| {
            let sharded = ShardedDatabase::uniform(db.clone(), 2).unwrap();
            let mut engine =
                QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
                    ImPirServer::new(shard_db, ImPirConfig::tiny_test(2).with_clusters(2))
                })
                .unwrap();
            let indices: Vec<u64> = (0..batch as u64).map(|i| (i * 41) % 128).collect();
            let (shares, _) = client.generate_batch(&indices).unwrap();
            engine.execute_batch(&shares).unwrap();
            let timing = engine.shard_timings().remove(0);
            assert_eq!(timing.queries, batch);
            let batch_sim = timing.phases.dpxor.simulated_seconds.unwrap();
            assert!(batch_sim > 0.0);
            // The per-query accessor divides the hybrid total by the batch.
            let per_query = timing.actual_seconds_per_query();
            assert!((per_query * batch as f64 - timing.actual_hybrid_seconds()).abs() < 1e-12);
            batch_sim / batch as f64
        };
        let small = per_query_dpxor(2);
        let large = per_query_dpxor(8);
        assert!(
            (small - large).abs() / small < 1e-9,
            "per-query dpxor time must not depend on batch size: {small} vs {large}"
        );
    }

    #[test]
    fn empty_migration_plan_is_a_noop() {
        let db = Arc::new(Database::random(64, 8, 5).unwrap());
        let mut engine = cpu_engine(&db, 2);
        let outcome = engine
            .rebalance(&crate::rebalance::MigrationPlan::empty(), |shard_db, _| {
                CpuPirServer::new(shard_db, CpuServerConfig::baseline())
            })
            .unwrap();
        assert_eq!(outcome.records_moved, 0);
        assert_eq!(outcome.shards_rebuilt, 0);
        assert_eq!(outcome.epoch, 0);
        assert_eq!(engine.database_epoch(), 0);
    }

    #[test]
    fn rebalance_matches_a_fresh_engine_built_on_the_new_layout() {
        use crate::rebalance::{MigrationPlan, RecordMove};
        let db = Arc::new(Database::random(210, 16, 31).unwrap());
        let mut client = PirClient::new(210, 16, 2).unwrap();
        let indices = [0u64, 69, 70, 99, 100, 209, 140];
        let (shares, peer_shares) = client.generate_batch(&indices).unwrap();

        // A live engine that has already served traffic and absorbed an
        // update before the rebalance — the moved bytes must come from the
        // updated copy-on-write replicas, not the construction database.
        let mut engine = cpu_engine(&db, 3); // uniform: 70 | 70 | 70
        engine.execute_batch(&shares).unwrap();
        let updates: Vec<(u64, Vec<u8>)> = vec![(69, vec![0xAA; 16]), (100, vec![0xBB; 16])];
        engine.apply_updates(&updates).unwrap();
        let mut updated_db = (*db).clone();
        for (index, bytes) in &updates {
            updated_db.set_record(*index, bytes).unwrap();
        }
        let updated_db = Arc::new(updated_db);

        let plan = MigrationPlan {
            moves: vec![
                RecordMove {
                    donor: 0,
                    receiver: 1,
                    records: 30,
                },
                RecordMove {
                    donor: 2,
                    receiver: 1,
                    records: 10,
                },
            ],
        };
        let outcome = engine
            .rebalance(&plan, |shard_db, _| {
                CpuPirServer::new(shard_db, CpuServerConfig::baseline())
            })
            .unwrap();
        assert_eq!(outcome.records_moved, 40);
        assert_eq!(outcome.shards_rebuilt, 3);
        assert_eq!(outcome.epoch, 2, "one update batch + one rebalance step");
        assert_eq!(engine.database_epoch(), 2);
        assert_eq!(engine.plan().range(0), Some(0..40));
        assert_eq!(engine.plan().range(1), Some(40..150));
        assert_eq!(engine.plan().range(2), Some(150..210));
        // Measurements described the old layout: reset until re-measured.
        assert_eq!(engine.scan_skew(), None);

        // Byte-identity: the rebalanced engine answers exactly like a
        // fresh engine constructed over the same database with the new
        // layout — and the pair reconstructs true records.
        let new_plan = engine.plan().clone();
        let fresh_sharded = ShardedDatabase::new(updated_db.clone(), new_plan).unwrap();
        let mut fresh =
            QueryEngine::sharded(&fresh_sharded, EngineConfig::default(), |shard_db, _| {
                CpuPirServer::new(shard_db, CpuServerConfig::baseline())
            })
            .unwrap();
        let rebalanced_out = engine.execute_batch(&shares).unwrap();
        let fresh_out = fresh.execute_batch(&shares).unwrap();
        for (r, f) in rebalanced_out.responses.iter().zip(&fresh_out.responses) {
            assert_eq!(r.payload, f.payload);
        }
        let mut peer = cpu_engine(&updated_db, 3);
        let peer_out = peer.execute_batch(&peer_shares).unwrap();
        for (i, &index) in indices.iter().enumerate() {
            let record = client
                .reconstruct(&rebalanced_out.responses[i], &peer_out.responses[i])
                .unwrap();
            assert_eq!(record, updated_db.record(index), "index {index}");
        }
    }

    #[test]
    fn rebalance_epoch_step_converges_an_unrebalanced_peer() {
        use crate::rebalance::{MigrationPlan, RecordMove};
        let db = Arc::new(Database::random(180, 8, 43).unwrap());
        let mut rebalanced = cpu_engine(&db, 3);
        let mut peer = cpu_engine(&db, 3);

        let plan = MigrationPlan {
            moves: vec![RecordMove {
                donor: 1,
                receiver: 0,
                records: 25,
            }],
        };
        rebalanced
            .rebalance(&plan, |shard_db, _| {
                CpuPirServer::new(shard_db, CpuServerConfig::baseline())
            })
            .unwrap();
        assert_eq!(rebalanced.database_epoch(), 1);
        assert_eq!(peer.database_epoch(), 0);

        // The peer replays the rebalance like any other missed epoch: the
        // identity batch applies no-op writes and the epochs converge.
        let missed = rebalanced.replay_updates(peer.database_epoch()).unwrap();
        assert_eq!(missed.len(), 1);
        assert_eq!(missed[0].len(), 25, "one identity write per moved record");
        for batch in &missed {
            peer.apply_updates(batch).unwrap();
        }
        assert_eq!(peer.database_epoch(), rebalanced.database_epoch());

        // A two-server deployment where only one replica rebalanced still
        // reconstructs every record byte-identically.
        let mut client = PirClient::new(180, 8, 4).unwrap();
        let indices = [0u64, 34, 35, 59, 60, 85, 179];
        let (shares_1, shares_2) = client.generate_batch(&indices).unwrap();
        let out_1 = rebalanced.execute_batch(&shares_1).unwrap();
        let out_2 = peer.execute_batch(&shares_2).unwrap();
        for (i, &index) in indices.iter().enumerate() {
            let record = client
                .reconstruct(&out_1.responses[i], &out_2.responses[i])
                .unwrap();
            assert_eq!(record, db.record(index), "index {index}");
        }
    }

    #[test]
    fn rebalance_rescales_planned_predictions_to_new_record_counts() {
        use crate::capacity::{CapacityProfile, ShardPlanner};
        use crate::rebalance::{MigrationPlan, RecordMove};
        let db = Arc::new(Database::random(400, 16, 7).unwrap());
        let planner = ShardPlanner::new(vec![
            CapacityProfile::unbounded(3.0e9, 4.0e7, 1).unwrap(),
            CapacityProfile::unbounded(1.0e9, 4.0e7, 1).unwrap(),
        ])
        .unwrap();
        let mut engine = QueryEngine::planned(
            db.clone(),
            EngineConfig::default(),
            &planner,
            |shard_db, _| CpuPirServer::new(shard_db, CpuServerConfig::baseline()),
        )
        .unwrap();
        assert_eq!(engine.plan().range(0), Some(0..300));
        let before: Vec<f64> = engine
            .shard_timings()
            .iter()
            .map(|t| t.predicted_scan_seconds.unwrap())
            .collect();
        let plan = MigrationPlan {
            moves: vec![RecordMove {
                donor: 0,
                receiver: 1,
                records: 60,
            }],
        };
        engine
            .rebalance(&plan, |shard_db, _| {
                CpuPirServer::new(shard_db, CpuServerConfig::baseline())
            })
            .unwrap();
        let after: Vec<f64> = engine
            .shard_timings()
            .iter()
            .map(|t| t.predicted_scan_seconds.unwrap())
            .collect();
        // Predictions scale linearly with the shard's record count.
        assert!((after[0] - before[0] * 240.0 / 300.0).abs() < 1e-12);
        assert!((after[1] - before[1] * 160.0 / 100.0).abs() < 1e-12);
    }

    // ---- who runs what: the pipeline observed from inside its stages ----

    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::thread::ThreadId;

    /// What the probed stages record — the thread of every evaluation and
    /// of every shard wave, and how many evaluated selectors shard 0 (the
    /// in-order consumption point) has not scanned yet — and the faults
    /// they inject.
    #[derive(Default)]
    struct Probe {
        eval_threads: Mutex<Vec<ThreadId>>,
        /// Evaluations block until this many distinct threads have
        /// evaluated (forces the interleaving instead of hoping for it).
        eval_rendezvous: usize,
        evaluating: Condvar,
        wave_threads: Mutex<Vec<(usize, ThreadId)>>,
        live: AtomicUsize,
        peak_live: AtomicUsize,
        /// Evaluations of positions at or past this one fail.
        fail_eval_from: Option<u64>,
        /// `(shard, n)`: that shard's wave holding its `n`-th selector fails.
        fail_wave: Option<(usize, usize)>,
    }

    fn injected_fault() -> PirError {
        PirError::Config {
            reason: "injected fault".to_string(),
        }
    }

    fn distinct(threads: &[ThreadId]) -> usize {
        threads
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len()
    }

    impl Probe {
        fn evaluate(
            &self,
            inner: &SelectorEvaluator,
            share: &QueryShare,
        ) -> Result<SelectorVector, PirError> {
            let mut threads = self.eval_threads.lock().unwrap();
            threads.push(std::thread::current().id());
            self.evaluating.notify_all();
            let (threads, _) = self
                .evaluating
                .wait_timeout_while(threads, std::time::Duration::from_secs(10), |threads| {
                    distinct(threads) < self.eval_rendezvous
                })
                .unwrap();
            drop(threads);
            if self
                .fail_eval_from
                .is_some_and(|from| share.query_id >= from)
            {
                return Err(injected_fault());
            }
            let selector = inner(share)?;
            let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak_live.fetch_max(live, Ordering::SeqCst);
            Ok(selector)
        }
    }

    /// A CPU backend reporting every wave to a [`Probe`].
    struct ProbedBackend {
        inner: CpuPirServer,
        shard: usize,
        width: usize,
        scanned: usize,
        probe: Arc<Probe>,
    }

    impl crate::server::PirServer for ProbedBackend {
        fn num_records(&self) -> u64 {
            self.inner.num_records()
        }

        fn record_size(&self) -> usize {
            self.inner.record_size()
        }

        fn process_query(
            &mut self,
            share: &QueryShare,
        ) -> Result<(ServerResponse, PhaseBreakdown), PirError> {
            self.inner.process_query(share)
        }
    }

    impl BatchExecutor for ProbedBackend {
        fn evaluate_selector(&self, share: &QueryShare) -> Result<SelectorVector, PirError> {
            self.inner.evaluate_selector(share)
        }

        fn selector_evaluator(&self) -> SelectorEvaluator {
            self.inner.selector_evaluator()
        }

        fn wave_width(&self) -> usize {
            self.width
        }

        fn execute_wave(
            &mut self,
            selectors: &[&SelectorVector],
        ) -> Result<(Vec<Vec<u8>>, PhaseBreakdown), PirError> {
            let thread = std::thread::current().id();
            self.probe
                .wave_threads
                .lock()
                .unwrap()
                .push((self.shard, thread));
            if self.shard == 0 {
                self.probe.live.fetch_sub(selectors.len(), Ordering::SeqCst);
            }
            let wave = self.scanned..self.scanned + selectors.len();
            self.scanned = wave.end;
            if matches!(self.probe.fail_wave, Some((shard, n)) if shard == self.shard && wave.contains(&n))
            {
                return Err(injected_fault());
            }
            self.inner.execute_wave(selectors)
        }
    }

    /// An engine over `db` whose evaluator and shard backends all report to
    /// `probe`.
    fn probed_engine(
        db: &Arc<Database>,
        shards: usize,
        pipeline: BatchConfig,
        width: usize,
        probe: &Arc<Probe>,
    ) -> QueryEngine<ProbedBackend> {
        let sharded = ShardedDatabase::uniform(db.clone(), shards).unwrap();
        let config = EngineConfig::new(pipeline, EvalStrategy::LevelByLevel).unwrap();
        let mut engine = QueryEngine::sharded(&sharded, config, |shard_db, shard| {
            Ok(ProbedBackend {
                inner: CpuPirServer::new(shard_db, CpuServerConfig::baseline())?,
                shard,
                width,
                scanned: 0,
                probe: Arc::clone(probe),
            })
        })
        .unwrap();
        let EngineEvaluator(inner) = strategy_evaluator(config.eval_strategy, db.num_records());
        let probe = Arc::clone(probe);
        engine.evaluator = EngineEvaluator(Box::new(move |share| probe.evaluate(&inner, share)));
        engine
    }

    fn probe_shares(db: &Arc<Database>, count: usize) -> Vec<QueryShare> {
        let mut client = PirClient::new(db.num_records(), db.record_size(), 5).unwrap();
        let indices: Vec<u64> = (0..count as u64)
            .map(|i| (i * 37 + 11) % db.num_records())
            .collect();
        client.generate_batch(&indices).unwrap().0
    }

    #[test]
    fn a_one_share_batch_on_one_shard_never_leaves_the_calling_thread() {
        let db = Arc::new(Database::random(100, 8, 3).unwrap());
        let probe = Arc::new(Probe::default());
        // Four workers configured: helpers are sized by the batch, not the knob.
        let pipeline = BatchConfig::with_workers(4).unwrap();
        let mut engine = probed_engine(&db, 1, pipeline, 2, &probe);
        let outcome = engine.execute_batch(&probe_shares(&db, 1)).unwrap();
        assert_eq!(outcome.responses.len(), 1);
        // Evaluate and the wave ran here; the merge is straight-line code
        // of `execute_batch` itself, so it can run nowhere else.
        let caller = std::thread::current().id();
        assert_eq!(*probe.eval_threads.lock().unwrap(), vec![caller]);
        assert_eq!(*probe.wave_threads.lock().unwrap(), vec![(0, caller)]);
    }

    #[test]
    fn two_workers_evaluate_on_the_caller_and_exactly_one_helper() {
        let db = Arc::new(Database::random(100, 8, 3).unwrap());
        let probe = Arc::new(Probe {
            eval_rendezvous: 2,
            ..Probe::default()
        });
        let pipeline = BatchConfig::with_workers(2).unwrap();
        let mut engine = probed_engine(&db, 1, pipeline, 1, &probe);
        engine.execute_batch(&probe_shares(&db, 4)).unwrap();
        let threads = probe.eval_threads.lock().unwrap();
        assert_eq!(threads.len(), 4);
        assert_eq!(distinct(&threads), 2, "the caller plus one helper");
        assert!(threads.contains(&std::thread::current().id()));
    }

    #[test]
    fn shard_zero_scans_on_the_caller_and_the_other_shards_elsewhere() {
        let db = Arc::new(Database::random(100, 8, 3).unwrap());
        let probe = Arc::new(Probe::default());
        let pipeline = BatchConfig::with_workers(2).unwrap();
        let mut engine = probed_engine(&db, 3, pipeline, 2, &probe);
        engine.execute_batch(&probe_shares(&db, 5)).unwrap();
        let caller = std::thread::current().id();
        let waves = probe.wave_threads.lock().unwrap();
        for shard in 0..3 {
            let threads: Vec<ThreadId> = waves
                .iter()
                .filter(|(s, _)| *s == shard)
                .map(|(_, thread)| *thread)
                .collect();
            assert_eq!(threads.len(), 3, "5 selectors in waves of 2");
            assert_eq!(distinct(&threads), 1, "one driver per shard");
            assert_eq!(threads[0] == caller, shard == 0, "shard {shard}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The whole pipeline against a sequential oracle, over every
        /// shape it can take: responses byte-identical, never more live
        /// selectors than the admission window allows, and a fault —
        /// wherever it strikes — comes back as that error instead of a
        /// wedged thread. (`queue_depth = 1` under four workers is the
        /// tight-backpressure case; `fault_at = 0` in evaluate is the
        /// every-evaluation-fails case.)
        #[test]
        fn prop_pipeline_matches_a_sequential_oracle_inside_its_window(
            count in 0usize..40,
            worker_threads in 1usize..=4,
            queue_depth in 1usize..=4,
            shards in 1usize..=3,
            width in 1usize..=2,
            // 0: no fault; 1: evaluate, from `fault_at` on; 2..: the wave
            // of shard `fault_site - 2` holding its `fault_at`-th selector.
            fault_site in 0usize..5,
            fault_at in 0usize..40,
        ) {
            let db = Arc::new(Database::random(100, 8, 3).unwrap());
            let probe = Arc::new(Probe {
                fail_eval_from: (fault_site == 1).then_some(fault_at as u64),
                fail_wave: (fault_site >= 2).then(|| (fault_site - 2, fault_at)),
                ..Probe::default()
            });
            let faulted = fault_at < count
                && (fault_site == 1 || (2..2 + shards).contains(&fault_site));
            let pipeline = BatchConfig::with_workers_and_queue(worker_threads, queue_depth).unwrap();
            let mut engine = probed_engine(&db, shards, pipeline, width, &probe);
            let shares = probe_shares(&db, count);

            let result = engine.execute_batch(&shares);

            if faulted {
                prop_assert_eq!(result.err(), Some(injected_fault()));
            } else {
                let mut oracle = CpuPirServer::new(db.clone(), CpuServerConfig::baseline()).unwrap();
                let responses = result.unwrap().responses;
                prop_assert_eq!(responses.len(), count);
                for (share, response) in shares.iter().zip(&responses) {
                    use crate::server::PirServer;
                    prop_assert_eq!(response, &oracle.process_query(share).unwrap().0);
                }
            }
            // Claimed-but-unconsumed positions never exceed the window;
            // shard 0 may hold `width − 1` consumed slices in its open wave.
            let bound = queue_depth + worker_threads + width - 1;
            prop_assert!(
                probe.peak_live.load(Ordering::SeqCst) <= bound,
                "{} live selectors, bound {bound}",
                probe.peak_live.load(Ordering::SeqCst)
            );
        }
    }
}
