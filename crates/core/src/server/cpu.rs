//! A processor-centric PIR server: DPF evaluation and `dpXOR` on the host.
//!
//! This backend performs exactly the same work as [`crate::server::pim`]
//! but keeps the `dpXOR` scan on CPU threads, moving every database byte
//! from DRAM through the cache hierarchy — the data-movement cost IM-PIR is
//! designed to avoid. One query's scan is one call of
//! [`crate::dpxor::xor_select_into_with`] on one thread — the paper's
//! CPU-PIR baseline ("a single CPU thread for each query, accelerated with
//! AVX"); a wave's queries scan side by side, one per core, and splitting a
//! single query's scan over cores is what sharding does one layer up
//! ([`crate::engine::QueryEngine`]).

use std::sync::Arc;

use impir_dpf::{host_parallelism, EvalStrategy, SelectorVector};

use crate::database::Database;
use crate::error::PirError;
use crate::protocol::{QueryShare, ServerResponse};
use crate::server::phases::{PhaseBreakdown, PhaseTime};
use crate::server::{timed, PirServer};

/// Configuration of a [`CpuPirServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct CpuServerConfig {
    /// Strategy for expanding the DPF key over the database domain.
    pub eval_strategy: EvalStrategy,
}

impl CpuServerConfig {
    /// The paper's CPU-PIR baseline: level-by-level evaluation.
    #[must_use]
    pub fn baseline() -> Self {
        CpuServerConfig {
            eval_strategy: EvalStrategy::LevelByLevel,
        }
    }

    /// A CPU server that spreads one query's DPF evaluation over all
    /// available cores.
    #[must_use]
    pub fn multithreaded() -> Self {
        CpuServerConfig {
            eval_strategy: EvalStrategy::SubtreeParallel {
                threads: host_parallelism(),
            },
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if the evaluation strategy is
    /// degenerate (zero subtree-parallel threads).
    pub fn validate(&self) -> Result<(), PirError> {
        crate::engine::validate_eval_strategy(&self.eval_strategy)
    }

    /// Number of concurrent wave slots a server under this configuration
    /// runs: each slot scans on one thread, so a wave is one query per core
    /// ([`host_parallelism`]). The single definition backing both
    /// [`crate::batch::BatchExecutor::wave_width`] and the declared
    /// capacity profile, so the planner can never predict wave counts the
    /// backend does not deliver.
    #[must_use]
    pub fn wave_width(&self) -> usize {
        host_parallelism()
    }

    /// The **declared** [`crate::capacity::CapacityProfile`] of a CPU
    /// server under this configuration: record capacity bounded only by
    /// host memory, one wave slot scanning at one thread's worth of the
    /// declared per-thread DRAM bandwidth
    /// ([`crate::capacity::HOST_SCAN_BANDWIDTH_PER_THREAD`] — refine with
    /// [`crate::capacity::measure_scan_bandwidth`]), and the wave width the
    /// backend itself reports ([`CpuServerConfig::wave_width`]).
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if the configuration is invalid.
    pub fn capacity_profile(&self) -> Result<crate::capacity::CapacityProfile, PirError> {
        self.validate()?;
        let eval_threads = match self.eval_strategy {
            EvalStrategy::SubtreeParallel { threads } => threads,
            _ => 1,
        };
        crate::capacity::CapacityProfile::unbounded(
            crate::capacity::HOST_SCAN_BANDWIDTH_PER_THREAD,
            eval_threads as f64 * crate::capacity::HOST_EVAL_LEAVES_PER_SEC_PER_THREAD,
            self.wave_width(),
        )
    }
}

impl Default for CpuServerConfig {
    fn default() -> Self {
        CpuServerConfig::baseline()
    }
}

/// A CPU-only PIR server.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use impir_core::{database::Database, client::PirClient, server::PirServer};
/// use impir_core::server::cpu::{CpuPirServer, CpuServerConfig};
///
/// let db = Arc::new(Database::random(128, 16, 3)?);
/// let mut server_1 = CpuPirServer::new(db.clone(), CpuServerConfig::baseline())?;
/// let mut server_2 = CpuPirServer::new(db.clone(), CpuServerConfig::baseline())?;
/// let mut client = PirClient::new(128, 16, 0)?;
/// let (q1, q2) = client.generate_query(77)?;
/// let (r1, _) = server_1.process_query(&q1)?;
/// let (r2, _) = server_2.process_query(&q2)?;
/// assert_eq!(client.reconstruct(&r1, &r2)?, db.record(77));
/// # Ok::<(), impir_core::PirError>(())
/// ```
#[derive(Debug)]
pub struct CpuPirServer {
    database: Arc<Database>,
    config: CpuServerConfig,
    /// Reusable `dpXOR` accumulator-word buffers, one checked out per
    /// in-flight scan: after warm-up, steady-state batch scanning performs
    /// no per-query scratch allocation (the scan-side counterpart of the
    /// DPF side's [`impir_dpf::ScratchPool`]).
    scan_scratches: impir_dpf::BufferPool<Vec<u64>>,
    database_epoch: u64,
}

impl CpuPirServer {
    /// Creates a CPU server over `database`.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if the configuration is invalid.
    pub fn new(database: Arc<Database>, config: CpuServerConfig) -> Result<Self, PirError> {
        config.validate()?;
        Ok(CpuPirServer {
            database,
            config,
            scan_scratches: impir_dpf::BufferPool::new(),
            database_epoch: 0,
        })
    }

    /// The configuration this server runs with.
    #[must_use]
    pub fn config(&self) -> &CpuServerConfig {
        &self.config
    }

    /// The database replica held by this server.
    #[must_use]
    pub fn database(&self) -> &Arc<Database> {
        &self.database
    }

    fn check_domain(&self, share: &QueryShare) -> Result<(), PirError> {
        let expected = self.database.domain_bits();
        if share.key.domain_bits() != expected {
            return Err(PirError::QueryDomainMismatch {
                key_domain_bits: share.key.domain_bits(),
                database_domain_bits: expected,
            });
        }
        Ok(())
    }

    /// The `dpXOR` scan over the full database, on the calling thread.
    fn scan(&self, selector: &SelectorVector) -> Vec<u8> {
        self.scan_scratches
            .with(|acc_words| self.database.xor_select_with(selector, acc_words))
    }
}

impl PirServer for CpuPirServer {
    fn num_records(&self) -> u64 {
        self.database.num_records()
    }

    fn record_size(&self) -> usize {
        self.database.record_size()
    }

    fn process_query(
        &mut self,
        share: &QueryShare,
    ) -> Result<(ServerResponse, PhaseBreakdown), PirError> {
        self.check_domain(share)?;
        let num_records = self.database.num_records();

        // Phase ➋: DPF evaluation over the database domain.
        let (selector, eval_seconds) = timed(|| {
            self.config
                .eval_strategy
                .eval_range(&share.key, 0, num_records)
        });
        let selector = selector?;

        // Phase ➍ (on the CPU): selector-weighted XOR of the whole DB.
        let (payload, dpxor_seconds) = timed(|| self.scan(&selector));

        let phases = PhaseBreakdown {
            eval: PhaseTime::host(eval_seconds),
            dpxor: PhaseTime::host(dpxor_seconds),
            ..PhaseBreakdown::zero()
        };
        Ok((
            ServerResponse::new(share.query_id, share.key.party(), payload),
            phases,
        ))
    }

    fn process_batch(
        &mut self,
        shares: &[QueryShare],
    ) -> Result<crate::server::BatchOutcome, PirError> {
        // The CPU baseline handles each query on its own worker thread
        // (§5.1: "a single CPU thread for each query"); the generic
        // pipeline reproduces that with its stage-1 worker fan-out, and
        // stage 2 runs the scans.
        crate::batch::process_batch(self, shares, &crate::batch::BatchConfig::default())
    }
}

impl crate::batch::BatchExecutor for CpuPirServer {
    fn evaluate_selector(&self, share: &QueryShare) -> Result<SelectorVector, PirError> {
        self.check_domain(share)?;
        Ok(self
            .config
            .eval_strategy
            .eval_range(&share.key, 0, self.database.num_records())?)
    }

    fn selector_evaluator(&self) -> crate::batch::SelectorEvaluator {
        crate::batch::database_selector_evaluator(
            Arc::clone(&self.database),
            self.config.eval_strategy,
        )
    }

    fn wave_width(&self) -> usize {
        // §5.1, "a single CPU thread for each query": one query per core
        // (see `CpuServerConfig::wave_width`).
        self.config.wave_width()
    }

    fn execute_wave(
        &mut self,
        selectors: &[&SelectorVector],
    ) -> Result<(Vec<Vec<u8>>, PhaseBreakdown), PirError> {
        let mut phases = PhaseBreakdown::zero();
        // The wave's slots scan concurrently — the last one on the calling
        // thread, so a one-selector wave spawns nothing (the wave width
        // caps the slots at the host's parallelism); each slot's scan is
        // timed where it runs and the per-query dpXOR costs are summed, as
        // the baseline's cost model expects.
        let timings = impir_dpf::fan_out(selectors, |selector| timed(|| self.scan(selector)));
        let mut payloads = Vec::with_capacity(selectors.len());
        for (payload, dpxor_seconds) in timings {
            phases.dpxor.merge(&PhaseTime::host(dpxor_seconds));
            payloads.push(payload);
        }
        Ok((payloads, phases))
    }
}

impl crate::capacity::ProfiledBackend for CpuPirServer {
    /// Host-parameter profile (see [`CpuServerConfig::capacity_profile`]).
    fn capacity_profile(&self) -> crate::capacity::CapacityProfile {
        self.config
            .capacity_profile()
            .expect("the server was constructed under this configuration")
    }
}

impl crate::batch::UpdatableBackend for CpuPirServer {
    /// Overwrites records in the server's database replica. The replica is
    /// copy-on-write: if the `Arc` is shared (e.g. with a second server or
    /// an external oracle), this server gets its own updated copy and the
    /// shared one stays untouched. Subsequent scans read the new contents;
    /// no bytes move to any accelerator, so `bytes_pushed` and
    /// `simulated_seconds` are zero.
    fn apply_updates(
        &mut self,
        updates: &[(u64, Vec<u8>)],
    ) -> Result<crate::batch::UpdateOutcome, PirError> {
        crate::batch::apply_host_updates(&mut self.database, &mut self.database_epoch, updates)
    }

    fn database(&self) -> &Arc<Database> {
        CpuPirServer::database(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PirClient;
    use proptest::prelude::*;

    fn setup(
        num_records: u64,
        record_size: usize,
        config: CpuServerConfig,
    ) -> (Arc<Database>, CpuPirServer, CpuPirServer, PirClient) {
        let db = Arc::new(Database::random(num_records, record_size, 11).unwrap());
        let s1 = CpuPirServer::new(db.clone(), config.clone()).unwrap();
        let s2 = CpuPirServer::new(db.clone(), config).unwrap();
        let client = PirClient::new(num_records, record_size, 5).unwrap();
        (db, s1, s2, client)
    }

    #[test]
    fn end_to_end_retrieval_baseline_config() {
        let (db, mut s1, mut s2, mut client) = setup(300, 32, CpuServerConfig::baseline());
        for index in [0u64, 1, 150, 299] {
            let (q1, q2) = client.generate_query(index).unwrap();
            let (r1, phases_1) = s1.process_query(&q1).unwrap();
            let (r2, _) = s2.process_query(&q2).unwrap();
            assert_eq!(client.reconstruct(&r1, &r2).unwrap(), db.record(index));
            assert!(phases_1.eval.wall_seconds >= 0.0);
            assert!(phases_1.copy_to_pim.wall_seconds == 0.0);
        }
    }

    #[test]
    fn end_to_end_retrieval_multithreaded_config() {
        let (db, mut s1, mut s2, mut client) = setup(500, 24, CpuServerConfig::multithreaded());
        let (q1, q2) = client.generate_query(421).unwrap();
        let (r1, _) = s1.process_query(&q1).unwrap();
        let (r2, _) = s2.process_query(&q2).unwrap();
        assert_eq!(client.reconstruct(&r1, &r2).unwrap(), db.record(421));
    }

    #[test]
    fn batch_processing_matches_single_queries() {
        let (db, mut s1, mut s2, mut client) = setup(200, 16, CpuServerConfig::baseline());
        let indices = [3u64, 77, 123, 199, 0];
        let (shares_1, shares_2) = client.generate_batch(&indices).unwrap();
        let batch_1 = s1.process_batch(&shares_1).unwrap();
        let batch_2 = s2.process_batch(&shares_2).unwrap();
        assert_eq!(batch_1.responses.len(), indices.len());
        for (i, index) in indices.iter().enumerate() {
            let record = client
                .reconstruct(&batch_1.responses[i], &batch_2.responses[i])
                .unwrap();
            assert_eq!(record, db.record(*index));
        }
        assert!(batch_1.throughput_qps() > 0.0);
    }

    #[test]
    fn domain_mismatch_is_rejected() {
        let (_, mut s1, _, _) = setup(100, 8, CpuServerConfig::baseline());
        let mut other_client = PirClient::new(100_000, 8, 0).unwrap();
        let (q1, _) = other_client.generate_query(5).unwrap();
        assert!(matches!(
            s1.process_query(&q1),
            Err(PirError::QueryDomainMismatch { .. })
        ));
    }

    #[test]
    fn updates_are_visible_and_copy_on_write_preserves_shared_replicas() {
        use crate::batch::UpdatableBackend;
        let (db, mut s1, mut s2, mut client) = setup(100, 8, CpuServerConfig::baseline());
        let updates: Vec<(u64, Vec<u8>)> = vec![(0, vec![0xaa; 8]), (99, vec![0xbb; 8])];
        let outcome = s1.apply_updates(&updates).unwrap();
        s2.apply_updates(&updates).unwrap();
        assert_eq!(outcome.records_updated, 2);
        assert_eq!(outcome.bytes_pushed, 0);
        assert_eq!(outcome.epoch, 1);
        // The servers' replicas moved; the caller's Arc did not.
        assert_eq!(s1.database().record(0), &[0xaa; 8]);
        assert_ne!(db.record(0), &[0xaa; 8][..]);
        for (index, bytes) in &updates {
            let (q1, q2) = client.generate_query(*index).unwrap();
            let (r1, _) = s1.process_query(&q1).unwrap();
            let (r2, _) = s2.process_query(&q2).unwrap();
            assert_eq!(client.reconstruct(&r1, &r2).unwrap(), bytes.as_slice());
        }
        // All-or-nothing: a poisoned batch leaves the replica unchanged.
        let poisoned = vec![(1u64, vec![0xcc; 8]), (100u64, vec![0xcc; 8])];
        assert!(matches!(
            s1.apply_updates(&poisoned),
            Err(PirError::IndexOutOfRange { .. })
        ));
        assert_eq!(s1.database().record(1), db.record(1));
    }

    #[test]
    fn wave_width_is_the_host_parallelism() {
        assert_eq!(
            CpuServerConfig::baseline().wave_width(),
            impir_dpf::host_parallelism()
        );
    }

    #[test]
    fn zero_thread_eval_strategy_is_rejected() {
        let db = Arc::new(Database::random(10, 8, 0).unwrap());
        let config = CpuServerConfig {
            eval_strategy: EvalStrategy::SubtreeParallel { threads: 0 },
        };
        assert!(matches!(
            CpuPirServer::new(db, config),
            Err(PirError::Config { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_retrieval_is_correct_for_random_geometries(
            num_records in 2u64..600,
            record_words in 1usize..5,
            seed in any::<u64>(),
        ) {
            let record_size = record_words * 8;
            let db = Arc::new(Database::random(num_records, record_size, seed).unwrap());
            let config = CpuServerConfig {
                eval_strategy: EvalStrategy::MemoryBounded { chunk_bits: 6 },
            };
            let mut s1 = CpuPirServer::new(db.clone(), config.clone()).unwrap();
            let mut s2 = CpuPirServer::new(db.clone(), config).unwrap();
            let mut client = PirClient::new(num_records, record_size, seed ^ 1).unwrap();
            let index = seed % num_records;
            let (q1, q2) = client.generate_query(index).unwrap();
            let (r1, _) = s1.process_query(&q1).unwrap();
            let (r2, _) = s2.process_query(&q2).unwrap();
            prop_assert_eq!(client.reconstruct(&r1, &r2).unwrap(), db.record(index));
        }
    }
}
