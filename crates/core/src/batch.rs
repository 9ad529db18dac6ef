//! Batched query processing (§3.4, Figure 8), generic over server backends.
//!
//! A PIR server usually receives many queries at once. IM-PIR pipelines
//! them in two concurrently running stages:
//!
//! * **host workers** claim query positions in order inside a bounded
//!   **admission window**, run the DPF evaluation and file
//!   `(position, selector bits)` tasks in a small reorder buffer;
//! * a **scheduler** consumes tasks *in query order*, groups them into
//!   waves of the backend's [`BatchExecutor::wave_width`] and launches each
//!   wave's scan on the backend — for IM-PIR one `dpXOR` launch across all
//!   active DPU clusters; for the CPU and streaming backends a host-side
//!   scan — while the workers keep evaluating the next queries.
//!
//! **The calling thread is the scheduler and worker 0**: to run N workers
//! the pipeline spawns N−1 scoped helpers ([`impir_dpf::fan_out`]'s rule),
//! so a batch with nothing to overlap — one share, or one worker — spawns
//! no thread at all.
//!
//! Backpressure is real: when the data plane falls behind, the window stops
//! releasing positions and the helpers block, so at most
//! `O(queue_depth + worker_threads)` evaluated selectors exist at any
//! moment no matter how large the batch. Wave composition is deterministic
//! (waves are consecutive query positions) regardless of worker scheduling.
//!
//! The pipeline is **backend-generic**: any server implementing
//! [`BatchExecutor`] — the PIM server, the CPU server, the out-of-core
//! streaming server, and any future backend — is driven by the same
//! [`process_batch`] implementation, and the sharded
//! [`crate::engine::QueryEngine`] reuses the same streaming stage-1
//! machinery for its full-domain evaluation. With a single cluster every
//! query's `dpXOR` runs over all DPUs but queries serialise on the PIM
//! side; with more clusters queries proceed in parallel at the cost of
//! fewer DPUs (and therefore more records) per DPU per query — the
//! trade-off quantified in Figure 11.

use std::time::Instant;

use impir_dpf::SelectorVector;

use crate::error::PirError;
use crate::protocol::{QueryShare, ServerResponse};
use crate::server::phases::{PhaseBreakdown, PhaseTime};
use crate::server::{BatchOutcome, PirServer};

/// Configuration of the batched execution pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of host threads performing DPF evaluations (defaults to the
    /// host's available parallelism). The thread calling into the pipeline
    /// is one of them: a batch runs on `min(worker_threads, batch size) − 1`
    /// spawned helpers plus the caller.
    pub worker_threads: usize,
    /// Depth of the admission window between the evaluation workers and
    /// the scheduler: a position may be claimed only while fewer than
    /// `queue_depth + worker_threads` positions are claimed but not yet
    /// consumed. A full window blocks the workers (backpressure): at most
    /// that many evaluated-but-unscanned selector vectors exist at any
    /// moment (reorder buffer + in-flight evaluations), independent of the
    /// batch size. The engine's per-shard feeds hold `queue_depth`
    /// selectors each.
    pub queue_depth: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        let worker_threads = impir_dpf::host_parallelism();
        BatchConfig {
            worker_threads,
            queue_depth: 2 * worker_threads,
        }
    }
}

impl BatchConfig {
    /// Creates a configuration with an explicit worker-thread count and the
    /// default admission-queue depth (twice the worker count).
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if `worker_threads` is zero.
    pub fn with_workers(worker_threads: usize) -> Result<Self, PirError> {
        BatchConfig {
            worker_threads,
            queue_depth: 2 * worker_threads.max(1),
        }
        .validated()
    }

    /// Creates a configuration with explicit worker-thread count and
    /// admission-queue depth.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if either value is zero.
    pub fn with_workers_and_queue(
        worker_threads: usize,
        queue_depth: usize,
    ) -> Result<Self, PirError> {
        BatchConfig {
            worker_threads,
            queue_depth,
        }
        .validated()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if `worker_threads` or `queue_depth` is
    /// zero.
    pub fn validate(&self) -> Result<(), PirError> {
        if self.worker_threads == 0 {
            return Err(PirError::Config {
                reason: "at least one worker thread is required".to_string(),
            });
        }
        if self.queue_depth == 0 {
            return Err(PirError::Config {
                reason: "the admission queue needs a capacity of at least one task".to_string(),
            });
        }
        Ok(())
    }

    fn validated(self) -> Result<Self, PirError> {
        self.validate()?;
        Ok(self)
    }
}

/// The data-plane interface the generic batch pipeline (and the sharded
/// [`crate::engine::QueryEngine`]) drives.
///
/// A backend separates the two halves of Algorithm 1 that the pipeline
/// overlaps: turning a query share into selector bits over its own record
/// space ([`BatchExecutor::evaluate_selector`], stage 1) and scanning the
/// database under pre-evaluated selectors
/// ([`BatchExecutor::execute_wave`], stage 2). Implementations exist for
/// the PIM server ([`crate::server::pim::ImPirServer`], wave width = its
/// cluster count), the CPU server ([`crate::server::cpu::CpuPirServer`])
/// and the out-of-core server
/// ([`crate::server::streaming::StreamingImPirServer`]).
pub trait BatchExecutor: PirServer {
    /// Evaluates one query share into selector bits covering this server's
    /// record space (Figure 8 step ➊/➋).
    ///
    /// # Errors
    ///
    /// Returns [`PirError::QueryDomainMismatch`] if the key does not cover
    /// this server's database and propagates DPF evaluation failures.
    fn evaluate_selector(&self, share: &QueryShare) -> Result<SelectorVector, PirError>;

    /// A self-contained evaluator performing the same work as
    /// [`BatchExecutor::evaluate_selector`] without borrowing the server.
    ///
    /// The pipeline's workers evaluate through this handle while the
    /// scheduler holds the server mutably for wave execution — that is
    /// what lets the two stages overlap. Implementations capture cheap
    /// clones (an `Arc` of the database, the evaluation strategy).
    fn selector_evaluator(&self) -> SelectorEvaluator;

    /// Maximum number of selector scans one [`BatchExecutor::execute_wave`]
    /// call can run concurrently (1 unless the backend has query-level
    /// parallelism, e.g. DPU clusters).
    fn wave_width(&self) -> usize {
        1
    }

    /// Scans the database under each pre-evaluated selector (Figure 8
    /// steps ➌–➏), returning one XOR payload per selector, in order, plus
    /// the phase times accumulated over the wave.
    ///
    /// Every selector must cover exactly this server's record space; at
    /// most [`BatchExecutor::wave_width`] selectors are passed per call.
    ///
    /// # Errors
    ///
    /// Propagates backend failures (PIM transfers, kernel faults, …).
    fn execute_wave(
        &mut self,
        selectors: &[&SelectorVector],
    ) -> Result<(Vec<Vec<u8>>, PhaseBreakdown), PirError>;
}

/// The result of one bulk database update batch (paper §3.3: "the CPU uses
/// brief windows when DPUs are idle to apply bulk database updates").
///
/// Returned both by backend-level [`UpdatableBackend::apply_updates`] and by
/// the engine-level [`crate::engine::QueryEngine::apply_updates`]; in the
/// engine case the counters aggregate over all shards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateOutcome {
    /// Number of update entries applied (duplicated indices count once per
    /// entry; the last entry for an index wins).
    pub records_updated: usize,
    /// Total bytes pushed to DPU MRAM across all clusters (zero for
    /// host-resident backends; the streaming backend pays its transfer at
    /// query time when segments re-stream, so it also reports zero here).
    pub bytes_pushed: u64,
    /// Simulated transfer time of the bulk update on the modelled hardware,
    /// in seconds. At the engine level this is the critical path across
    /// shards (their backends update concurrently on disjoint hardware).
    pub simulated_seconds: f64,
    /// The database epoch after this update: a counter bumped once per
    /// successful update batch — engine-level when returned by
    /// [`crate::engine::QueryEngine::apply_updates`], backend-local
    /// otherwise. Zero means "never updated".
    pub epoch: u64,
}

/// A backend whose visible database can be mutated in place by bulk record
/// updates (§3.3).
///
/// Implementations must be **all-or-nothing**: every update entry is
/// validated against the backend's geometry before any record is touched,
/// so a batch containing one invalid entry leaves the database unchanged.
/// After a successful call, every subsequent query (and every byte the
/// backend stages, streams or scans) must observe the new contents — the
/// backend's database snapshot may not silently go stale.
///
/// Callers holding a sharded deployment should not drive this trait
/// directly: [`crate::engine::QueryEngine::apply_updates`] translates
/// global record indices into each shard's local index space and fans the
/// per-shard update sets out in parallel. Reaching a sharded backend
/// through [`crate::engine::QueryEngine::backend_mut`] would apply global
/// indices to shard-local records — the bug the engine entry point exists
/// to prevent.
pub trait UpdatableBackend: BatchExecutor {
    /// Overwrites the records named in `updates` (pairs of record index and
    /// replacement bytes) in this backend's database.
    ///
    /// # Errors
    ///
    /// * [`PirError::IndexOutOfRange`] for an update outside the database;
    /// * [`PirError::RecordSizeMismatch`] for a payload of the wrong size;
    /// * backend transfer failures.
    ///
    /// On any validation error no record has been modified.
    fn apply_updates(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<UpdateOutcome, PirError>;

    /// The backend's current host-side database replica — the
    /// copy-on-write snapshot every scan (and for accelerator backends,
    /// every MRAM push) reads from. Must reflect all updates applied so
    /// far, so the engine's rebalancer can read a migrating record range
    /// out of a live shard without a drain.
    fn database(&self) -> &std::sync::Arc<crate::database::Database>;
}

// The batch/update traits are object safe; these forwarding impls let a
// boxed backend (`Box<dyn UpdatableBackend + Send + Sync>`, or any other
// trait-object combination) plug into the engine directly, so one
// [`crate::engine::QueryEngine`] can drive heterogeneous backend kinds
// without every caller writing its own dispatch enum.
impl<S: BatchExecutor + ?Sized> BatchExecutor for Box<S> {
    fn evaluate_selector(&self, share: &QueryShare) -> Result<SelectorVector, PirError> {
        (**self).evaluate_selector(share)
    }

    fn selector_evaluator(&self) -> SelectorEvaluator {
        (**self).selector_evaluator()
    }

    fn wave_width(&self) -> usize {
        (**self).wave_width()
    }

    fn execute_wave(
        &mut self,
        selectors: &[&SelectorVector],
    ) -> Result<(Vec<Vec<u8>>, PhaseBreakdown), PirError> {
        (**self).execute_wave(selectors)
    }
}

impl<S: UpdatableBackend + ?Sized> UpdatableBackend for Box<S> {
    fn apply_updates(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<UpdateOutcome, PirError> {
        (**self).apply_updates(updates)
    }

    fn database(&self) -> &std::sync::Arc<crate::database::Database> {
        (**self).database()
    }
}

/// Validates a whole update batch against a database geometry **before**
/// anything is mutated — the single definition of the all-or-nothing check
/// shared by every [`UpdatableBackend`] and by the engine, so a failed
/// update can never leave some replicas (or shards) updated and others
/// stale.
pub(crate) fn validate_updates(
    updates: &[(u64, Vec<u8>)],
    num_records: u64,
    record_size: usize,
) -> Result<(), PirError> {
    for (index, bytes) in updates {
        if *index >= num_records {
            return Err(PirError::IndexOutOfRange {
                index: *index,
                num_records,
            });
        }
        if bytes.len() != record_size {
            return Err(PirError::RecordSizeMismatch {
                expected: record_size,
                actual: bytes.len(),
            });
        }
    }
    Ok(())
}

/// Shared [`UpdatableBackend::apply_updates`] implementation for backends
/// whose visible database lives on the host behind an `Arc` (the CPU and
/// streaming servers): validate the batch all-or-nothing, rewrite the
/// replica copy-on-write ([`std::sync::Arc::make_mut`], so an `Arc` shared
/// with other holders is cloned rather than mutated under them) and bump
/// the backend's epoch. No bytes move to an accelerator, so the outcome's
/// transfer counters are zero.
pub(crate) fn apply_host_updates(
    database: &mut std::sync::Arc<crate::database::Database>,
    epoch: &mut u64,
    updates: &[(u64, Vec<u8>)],
) -> Result<UpdateOutcome, PirError> {
    validate_updates(updates, database.num_records(), database.record_size())?;
    if !updates.is_empty() {
        let replica = std::sync::Arc::make_mut(database);
        for (index, bytes) in updates {
            replica
                .set_record(*index, bytes)
                .expect("update entries were validated against this geometry");
        }
        *epoch += 1;
    }
    Ok(UpdateOutcome {
        records_updated: updates.len(),
        bytes_pushed: 0,
        simulated_seconds: 0.0,
        epoch: *epoch,
    })
}

/// A boxed, borrow-free selector evaluation function (see
/// [`BatchExecutor::selector_evaluator`]).
pub type SelectorEvaluator =
    Box<dyn Fn(&QueryShare) -> Result<SelectorVector, PirError> + Send + Sync>;

/// The standard [`SelectorEvaluator`] for a backend holding a full replica
/// of `database`: checks the key's domain against the database geometry,
/// then evaluates `strategy` over every record. All three bundled backends
/// build their evaluator through this single definition so domain
/// validation cannot drift between them.
///
/// The evaluator owns a [`ScratchPool`](impir_dpf::ScratchPool) and borrows
/// the process-wide pre-expanded PRG: each in-flight evaluation checks a
/// scratch out of the pool, so once every stage-1 worker has warmed one
/// up, steady-state batch serving performs **no heap allocation on the
/// expansion path** (the result vector itself is the only per-query
/// allocation). The pool — and therefore the warmed scratches — lives as
/// long as the evaluator, across batches.
pub fn database_selector_evaluator(
    database: std::sync::Arc<crate::database::Database>,
    strategy: impir_dpf::EvalStrategy,
) -> SelectorEvaluator {
    let prg = impir_crypto::prg::LengthDoublingPrg::shared();
    let scratches = impir_dpf::ScratchPool::new();
    Box::new(move |share| {
        let expected = database.domain_bits();
        if share.key.domain_bits() != expected {
            return Err(PirError::QueryDomainMismatch {
                key_domain_bits: share.key.domain_bits(),
                database_domain_bits: expected,
            });
        }
        let selector = scratches.with(|scratch| {
            strategy.eval_range_with_scratch(&share.key, 0, database.num_records(), prg, scratch)
        })?;
        Ok(selector)
    })
}

/// A task produced by the evaluation stage: the worker that evaluated it,
/// its evaluated selector bits and the wall time the evaluation took.
struct EvaluatedSelector {
    worker: usize,
    selector: SelectorVector,
    eval_wall_seconds: f64,
}

/// The admission state every pipeline thread shares: positions are claimed
/// in order, finished evaluations wait in the reorder buffer until the
/// scheduler reaches them, and `claimed − consumed` never exceeds the
/// window — which is what bounds the buffer.
struct Admission {
    claimed: usize,
    consumed: usize,
    /// No further position may be claimed (an evaluation or `consume`
    /// failed).
    cancelled: bool,
    /// A pipeline thread is unwinding: what it claimed will never arrive.
    aborted: bool,
    reorder: std::collections::BTreeMap<usize, Result<EvaluatedSelector, PirError>>,
}

/// Held by every pipeline thread: a panic in `evaluate` or `consume` must
/// release the others, or `thread::scope` would wait for them forever and
/// turn the panic into a hang.
struct AbortOnUnwind<'a>(&'a std::sync::Mutex<Admission>, &'a std::sync::Condvar);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut state = self
                .0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.cancelled = true;
            state.aborted = true;
            self.1.notify_all();
        }
    }
}

/// The streaming stage-1 pipeline: evaluates positions `0..count` on
/// `worker_threads` threads and hands each result to `consume` **in
/// position order**, on the calling thread, while the other workers keep
/// evaluating ahead — `consume` typically launches data-plane scans, so
/// the two stages overlap. `consume` receives the index of the worker
/// that ran the evaluation, so callers can account the concurrent
/// workers' wall times as a critical path instead of a sum.
///
/// **The calling thread is worker 0 and the scheduler**; only
/// `min(worker_threads, count) − 1` helper threads exist, so a one-share
/// batch (or `worker_threads = 1`) spawns nothing. The caller consumes
/// whatever is ready in position order first, evaluates a position itself
/// when the window allows, and sleeps only when helpers hold everything
/// outstanding.
///
/// Flow control: position `p` may be claimed only once fewer than
/// `queue_depth + workers` positions separate it from the scheduler's
/// consumption point. When `consume` falls behind, the window closes and
/// the helpers block — at most `queue_depth + worker_threads` selectors
/// exist at any moment, regardless of `count` and even if one evaluation
/// straggles.
///
/// On failure (evaluation or `consume`) no further position is claimed,
/// no thread is left blocked, and the error at the **lowest position** is
/// returned — the one a sequential run would have hit first.
pub(crate) fn stream_selectors<E, C>(
    count: usize,
    config: &BatchConfig,
    evaluate: E,
    mut consume: C,
) -> Result<(), PirError>
where
    E: Fn(usize) -> Result<SelectorVector, PirError> + Sync,
    C: FnMut(usize, usize, SelectorVector, f64) -> Result<(), PirError>,
{
    let workers = config.worker_threads.min(count).max(1);
    let window = config.queue_depth + workers;
    let admission = std::sync::Mutex::new(Admission {
        claimed: 0,
        consumed: 0,
        cancelled: false,
        aborted: false,
        reorder: std::collections::BTreeMap::new(),
    });
    let changed = std::sync::Condvar::new();
    let lock = || admission.lock().expect("a pipeline thread panicked");
    let wait = |guard| changed.wait(guard).expect("a pipeline thread panicked");
    let notify = || changed.notify_all();
    let abort_on_unwind = || AbortOnUnwind(&admission, &changed);
    let claimable =
        |state: &Admission| !state.cancelled && state.claimed < count.min(state.consumed + window);
    // Claims the next position, evaluates it with the lock released and
    // files the result; a failed evaluation closes admission.
    let evaluate_next = |mut state: std::sync::MutexGuard<'_, Admission>, worker: usize| {
        let position = state.claimed;
        state.claimed += 1;
        drop(state);
        let eval_started = Instant::now();
        let task = evaluate(position).map(|selector| EvaluatedSelector {
            worker,
            selector,
            eval_wall_seconds: eval_started.elapsed().as_secs_f64(),
        });
        let mut state = lock();
        state.cancelled |= task.is_err();
        state.reorder.insert(position, task);
        state
    };

    let mut first_error = None;
    std::thread::scope(|scope| {
        for worker in 1..workers {
            scope.spawn(move || {
                let _abort = abort_on_unwind();
                let mut state = lock();
                loop {
                    if claimable(&state) {
                        state = evaluate_next(state, worker);
                        notify();
                    } else if state.cancelled || state.claimed == count {
                        break;
                    } else {
                        state = wait(state);
                    }
                }
            });
        }

        let _abort = abort_on_unwind();
        let mut state = lock();
        while first_error.is_none() && state.consumed < count && !state.aborted {
            let position = state.consumed;
            if let Some(task) = state.reorder.remove(&position) {
                drop(state);
                let consumed = task.and_then(|task| {
                    consume(position, task.worker, task.selector, task.eval_wall_seconds)
                });
                state = lock();
                match consumed {
                    Ok(()) => state.consumed += 1,
                    Err(error) => {
                        first_error = Some(error);
                        state.cancelled = true;
                    }
                }
                notify();
            } else if claimable(&state) {
                state = evaluate_next(state, 0);
            } else {
                // Position `consumed` is claimed by a helper (the caller
                // files its own results before coming back here); should
                // that helper panic, the scope's join re-raises it.
                state = wait(state);
            }
        }
    });
    first_error.map_or(Ok(()), Err)
}

/// Processes a batch of query shares on any [`BatchExecutor`] following the
/// Figure-8 pipeline: helper workers evaluate ahead (through the backend's
/// borrow-free [`SelectorEvaluator`]) while the calling thread — itself
/// worker 0 — launches each completed wave's scan on the backend.
///
/// Responses are returned in the same order as `shares`.
///
/// # Errors
///
/// Returns [`PirError::Config`] for an invalid `config` and propagates the
/// first DPF or backend error encountered by any stage.
pub fn process_batch<S: BatchExecutor>(
    server: &mut S,
    shares: &[QueryShare],
    config: &BatchConfig,
) -> Result<BatchOutcome, PirError> {
    config.validate()?;
    if shares.is_empty() {
        return Ok(BatchOutcome {
            responses: Vec::new(),
            wall_seconds: 0.0,
            phase_totals: PhaseBreakdown::zero(),
        });
    }
    let started = Instant::now();
    let width = server.wave_width().max(1);
    let evaluator = server.selector_evaluator();

    let mut totals = PhaseBreakdown::zero();
    let mut responses: Vec<ServerResponse> = Vec::with_capacity(shares.len());
    let mut wave: Vec<(usize, SelectorVector)> = Vec::with_capacity(width);
    // The stage-1 workers evaluate concurrently, so the eval phase is the
    // critical path across their per-worker wall-time sums — summing all
    // evaluations would report an eval phase longer than the batch itself.
    let mut worker_eval: Vec<PhaseTime> = vec![PhaseTime::zero(); config.worker_threads.max(1)];

    stream_selectors(
        shares.len(),
        config,
        |position| evaluator(&shares[position]),
        |position, worker, selector, eval_wall_seconds| {
            worker_eval[worker].merge(&PhaseTime::host(eval_wall_seconds));
            wave.push((position, selector));
            // `consume` runs in position order, so a full wave — or the
            // batch's tail — is always a run of consecutive positions
            // (Figure 8 step ➌); on the PIM backend each wave's dpXOR runs
            // on all active clusters at once.
            if wave.len() == width || position + 1 == shares.len() {
                let selectors: Vec<&SelectorVector> =
                    wave.iter().map(|(_, selector)| selector).collect();
                let (payloads, wave_phases) = server.execute_wave(&selectors)?;
                debug_assert_eq!(payloads.len(), wave.len(), "one payload per wave slot");
                totals.merge(&wave_phases);
                for ((slot, _), payload) in wave.iter().zip(payloads) {
                    let share = &shares[*slot];
                    responses.push(ServerResponse::new(
                        share.query_id,
                        share.key.party(),
                        payload,
                    ));
                }
                wave.clear();
            }
            Ok(())
        },
    )?;
    for per_worker in &worker_eval {
        totals.eval.merge_parallel(per_worker);
    }

    Ok(BatchOutcome {
        responses,
        wall_seconds: started.elapsed().as_secs_f64(),
        phase_totals: totals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PirClient;
    use crate::database::Database;
    use crate::server::cpu::{CpuPirServer, CpuServerConfig};
    use crate::server::pim::{ImPirConfig, ImPirServer};
    use crate::server::streaming::{StreamingConfig, StreamingImPirServer};
    use std::sync::Arc;

    fn setup(
        num_records: u64,
        record_size: usize,
        config: ImPirConfig,
    ) -> (Arc<Database>, ImPirServer, ImPirServer, PirClient) {
        let db = Arc::new(Database::random(num_records, record_size, 77).unwrap());
        let s1 = ImPirServer::new(db.clone(), config.clone()).unwrap();
        let s2 = ImPirServer::new(db.clone(), config).unwrap();
        let client = PirClient::new(num_records, record_size, 13).unwrap();
        (db, s1, s2, client)
    }

    #[test]
    fn batch_on_single_cluster_matches_database() {
        let (db, mut s1, mut s2, mut client) = setup(256, 32, ImPirConfig::tiny_test(4));
        let indices: Vec<u64> = (0..16).map(|i| (i * 37) % 256).collect();
        let (shares_1, shares_2) = client.generate_batch(&indices).unwrap();
        let batch_1 = s1.process_batch(&shares_1).unwrap();
        let batch_2 = s2.process_batch(&shares_2).unwrap();
        assert_eq!(batch_1.responses.len(), indices.len());
        for (i, index) in indices.iter().enumerate() {
            let record = client
                .reconstruct(&batch_1.responses[i], &batch_2.responses[i])
                .unwrap();
            assert_eq!(record, db.record(*index), "query {i} index {index}");
        }
    }

    #[test]
    fn batch_on_multiple_clusters_matches_database() {
        let (db, mut s1, mut s2, mut client) =
            setup(300, 16, ImPirConfig::tiny_test(8).with_clusters(4));
        let indices: Vec<u64> = (0..32).map(|i| (i * 13 + 7) % 300).collect();
        let (shares_1, shares_2) = client.generate_batch(&indices).unwrap();
        let batch_1 = s1.process_batch(&shares_1).unwrap();
        let batch_2 = s2.process_batch(&shares_2).unwrap();
        for (i, index) in indices.iter().enumerate() {
            let record = client
                .reconstruct(&batch_1.responses[i], &batch_2.responses[i])
                .unwrap();
            assert_eq!(record, db.record(*index));
        }
        // The batch accumulated time in every PIM phase.
        assert!(batch_1.phase_totals.dpxor.simulated_seconds.unwrap() > 0.0);
        assert!(batch_1.phase_totals.eval.wall_seconds > 0.0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (_, mut s1, _, _) = setup(32, 8, ImPirConfig::tiny_test(2));
        let outcome = s1.process_batch(&[]).unwrap();
        assert!(outcome.responses.is_empty());
        assert_eq!(outcome.phase_totals, PhaseBreakdown::zero());
    }

    #[test]
    fn repeated_indices_in_a_batch_are_answered_consistently() {
        let (db, mut s1, mut s2, mut client) =
            setup(128, 8, ImPirConfig::tiny_test(4).with_clusters(2));
        let indices = vec![7u64, 7, 7, 100, 100];
        let (shares_1, shares_2) = client.generate_batch(&indices).unwrap();
        let batch_1 = s1.process_batch(&shares_1).unwrap();
        let batch_2 = s2.process_batch(&shares_2).unwrap();
        for (i, index) in indices.iter().enumerate() {
            let record = client
                .reconstruct(&batch_1.responses[i], &batch_2.responses[i])
                .unwrap();
            assert_eq!(record, db.record(*index));
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (db, mut s1, mut s2, mut client) = setup(200, 8, ImPirConfig::tiny_test(4));
        let indices: Vec<u64> = (0..10).map(|i| i * 19 % 200).collect();
        let (shares_1, shares_2) = client.generate_batch(&indices).unwrap();
        let one_worker =
            process_batch(&mut s1, &shares_1, &BatchConfig::with_workers(1).unwrap()).unwrap();
        let many_workers =
            process_batch(&mut s2, &shares_2, &BatchConfig::with_workers(8).unwrap()).unwrap();
        for (i, index) in indices.iter().enumerate() {
            let record = client
                .reconstruct(&one_worker.responses[i], &many_workers.responses[i])
                .unwrap();
            assert_eq!(record, db.record(*index));
        }
    }

    #[test]
    fn generic_pipeline_drives_cpu_and_streaming_backends() {
        let db = Arc::new(Database::random(300, 16, 4).unwrap());
        let mut client = PirClient::new(300, 16, 2).unwrap();
        let indices = [0u64, 33, 150, 299, 150];
        let (shares, _) = client.generate_batch(&indices).unwrap();
        let config = BatchConfig::with_workers(2).unwrap();

        let mut cpu = CpuPirServer::new(db.clone(), CpuServerConfig::baseline()).unwrap();
        let mut pim = ImPirServer::new(db.clone(), ImPirConfig::tiny_test(4)).unwrap();
        let streaming_config = StreamingConfig::new(ImPirConfig::tiny_test(4), 512).unwrap();
        let mut streaming = StreamingImPirServer::new(db.clone(), streaming_config).unwrap();

        let cpu_out = process_batch(&mut cpu, &shares, &config).unwrap();
        let pim_out = process_batch(&mut pim, &shares, &config).unwrap();
        let streaming_out = process_batch(&mut streaming, &shares, &config).unwrap();
        for i in 0..indices.len() {
            assert_eq!(cpu_out.responses[i].payload, pim_out.responses[i].payload);
            assert_eq!(
                cpu_out.responses[i].payload,
                streaming_out.responses[i].payload
            );
        }
    }

    #[test]
    fn a_panicking_stage_unwinds_the_pipeline_instead_of_wedging_it() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Two workers, so exactly one helper. Either it panics in its first
        // evaluation (the caller holds its own until the helper got there),
        // or the caller panics in `consume` while the helper is evaluating
        // or asleep on the window; both must come back as a panic.
        let config = BatchConfig::with_workers_and_queue(2, 1).unwrap();
        let run = |panic_in_consume: bool| {
            std::thread::spawn(move || {
                let caller = std::thread::current().id();
                let helper_evaluating = AtomicBool::new(false);
                stream_selectors(
                    64,
                    &config,
                    |_| {
                        if std::thread::current().id() == caller {
                            while !helper_evaluating.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                        } else {
                            helper_evaluating.store(true, Ordering::SeqCst);
                            assert!(panic_in_consume, "injected helper panic");
                        }
                        Ok(SelectorVector::zeros(8))
                    },
                    |position, _, _, _| {
                        assert!(!panic_in_consume || position < 8, "injected consume panic");
                        Ok(())
                    },
                )
            })
            .join()
        };
        assert!(run(true).is_err(), "a consume panic reaches the caller");
        assert!(run(false).is_err(), "a helper panic reaches the caller");
    }

    #[test]
    fn evaluator_scratch_reuse_across_batches_matches_fresh_scratch() {
        // The acceptance criterion for the zero-allocation expansion path:
        // one evaluator (whose scratch pool persists across batches) must
        // produce the same selectors for every query of two consecutive
        // batches as evaluation through a fresh scratch.
        let db = Arc::new(Database::random(300, 16, 21).unwrap());
        let mut client = PirClient::new(300, 16, 9).unwrap();
        let strategy = impir_dpf::EvalStrategy::SubtreeParallel { threads: 4 };
        let evaluator = crate::batch::database_selector_evaluator(db.clone(), strategy);
        let prg = impir_crypto::prg::LengthDoublingPrg::default();
        for batch in 0..2u64 {
            let indices: Vec<u64> = (0..12).map(|i| (i * 23 + batch * 7) % 300).collect();
            let (shares, _) = client.generate_batch(&indices).unwrap();
            for (i, share) in shares.iter().enumerate() {
                let reused = evaluator(share).unwrap();
                let mut fresh_scratch = impir_dpf::EvalScratch::new();
                let fresh = strategy
                    .eval_range_with_scratch(&share.key, 0, 300, &prg, &mut fresh_scratch)
                    .unwrap();
                assert_eq!(reused, fresh, "batch {batch} query {i}");
            }
        }
    }

    #[test]
    fn zero_workers_and_zero_queue_are_rejected() {
        assert!(matches!(
            BatchConfig::with_workers(0),
            Err(PirError::Config { .. })
        ));
        assert!(BatchConfig::with_workers(3).is_ok());
        assert!(matches!(
            BatchConfig::with_workers_and_queue(2, 0),
            Err(PirError::Config { .. })
        ));
        let invalid = BatchConfig {
            worker_threads: 0,
            queue_depth: 4,
        };
        assert!(invalid.validate().is_err());
    }
}
