//! Out-of-core ("batched") IM-PIR for databases larger than aggregate MRAM.
//!
//! §3.3 of the paper notes that databases exceeding the PIM system's total
//! MRAM (160 GB on the full UPMEM server) "may require a minor adaptation
//! of our one-shot database evaluation: for example, by evaluating the
//! linear operations on database items in batches, copying unprocessed
//! chunks into DPUs in each batch". This module implements that adaptation:
//! the database is split into *segments* small enough to fit the per-DPU
//! MRAM budget, and each query's `dpXOR` streams over the segments —
//! re-pushing each segment's records before its launch and XOR-accumulating
//! the per-segment subresults.
//!
//! The price is exactly what the paper warns about: every query (or wave of
//! queries sharing a pass) now moves the whole database over the CPU→DPU
//! link instead of only the selector bits, so the one-shot preloaded mode
//! of [`crate::server::pim::ImPirServer`] should be preferred whenever the
//! database fits.

use std::sync::Arc;

use impir_dpf::SelectorVector;
use impir_pim::{ClusterLayout, PimSystem};

use crate::database::Database;
use crate::dpxor;
use crate::error::PirError;
use crate::protocol::{QueryShare, ServerResponse};
use crate::server::phases::{PhaseBreakdown, PhaseTime};
use crate::server::pim::{DpXorKernel, DpuLayout, ImPirConfig};
use crate::server::{timed, PirServer};

/// Size of the per-DPU MRAM header (kept in sync with the preloaded mode).
const HEADER_BYTES: usize = 16;

/// Configuration of a [`StreamingImPirServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingConfig {
    /// The underlying PIM / cluster / evaluation configuration.
    pub base: ImPirConfig,
    /// MRAM bytes per DPU the server may occupy with database records per
    /// segment (on real hardware this is the 64 MB bank minus the space
    /// reserved for selector bits and the subresult).
    pub resident_bytes_per_dpu: usize,
}

impl StreamingConfig {
    /// A configuration that dedicates at most `resident_bytes_per_dpu`
    /// bytes of each DPU's MRAM to database records per segment.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if the budget is zero or the base
    /// configuration is invalid.
    pub fn new(base: ImPirConfig, resident_bytes_per_dpu: usize) -> Result<Self, PirError> {
        base.validate()?;
        if resident_bytes_per_dpu == 0 {
            return Err(PirError::Config {
                reason: "per-DPU residency budget must be non-zero".to_string(),
            });
        }
        Ok(StreamingConfig {
            base,
            resident_bytes_per_dpu,
        })
    }

    /// The **declared** [`crate::capacity::CapacityProfile`] of a streaming
    /// server under this configuration for records of `record_size` bytes:
    /// capacity is bounded only by host memory (any overflow streams in
    /// more segments), the wave width is 1 (queries serialise on the
    /// CPU→DPU link), and the scan bandwidth prices one full segment pass
    /// through the timed simulator's cost model — database re-push,
    /// selector scatter, kernel launch and subresult gather, so the
    /// per-segment fixed latencies that dominate small segments are
    /// charged.
    ///
    /// # Errors
    ///
    /// * [`PirError::Config`] for an invalid configuration or zero record
    ///   size;
    /// * [`PirError::DatabaseTooLargeForPim`] if the residency budget
    ///   cannot host a single record per DPU.
    pub fn capacity_profile(
        &self,
        record_size: usize,
    ) -> Result<crate::capacity::CapacityProfile, PirError> {
        self.base.validate()?;
        if record_size == 0 {
            return Err(PirError::Config {
                reason: "record size must be non-zero".to_string(),
            });
        }
        let layout = ClusterLayout::new(self.base.pim.dpus, self.base.clusters)?;
        let min_cluster_dpus = (0..layout.cluster_count())
            .map(|c| layout.dpus_in_cluster(c))
            .min()
            .unwrap_or(1);
        let records_per_dpu = self.resident_bytes_per_dpu / record_size;
        if records_per_dpu == 0 {
            return Err(PirError::DatabaseTooLargeForPim {
                required_bytes_per_dpu: record_size + HEADER_BYTES,
                mram_bytes_per_dpu: self.resident_bytes_per_dpu,
            });
        }
        // Streaming scans run on cluster 0 with segments sized to the
        // smallest cluster (see `StreamingImPirServer::new`).
        let scan_dpus = layout.dpu_range(0).len() as u64;
        let segment_records = records_per_dpu as u64 * min_cluster_dpus as u64;
        let segment_bytes = segment_records * record_size as u64;

        let cost = impir_pim::CostModel::new(self.base.pim.clone());
        let per_dpu_records = segment_records.div_ceil(scan_dpus);
        let meter = crate::server::pim::declared_dpxor_meter(
            per_dpu_records,
            record_size,
            self.base.pim.tasklets_per_dpu,
        );
        let per_segment_seconds = cost
            .host_to_dpu_seconds(segment_bytes + scan_dpus * HEADER_BYTES as u64)
            + cost.host_to_dpu_seconds(segment_records.div_ceil(8))
            + cost.launch_seconds(std::slice::from_ref(&meter))
            + cost.dpu_to_host_seconds(scan_dpus * record_size as u64);
        let bandwidth = segment_bytes as f64 / per_segment_seconds;
        crate::capacity::CapacityProfile::unbounded(
            bandwidth,
            self.base.eval_threads as f64 * crate::capacity::HOST_EVAL_LEAVES_PER_SEC_PER_THREAD,
            1,
        )
    }
}

/// An IM-PIR server that streams the database through DPU MRAM in segments
/// instead of preloading it once.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use impir_core::{database::Database, client::PirClient, server::PirServer};
/// use impir_core::server::pim::ImPirConfig;
/// use impir_core::server::streaming::{StreamingConfig, StreamingImPirServer};
///
/// // 512 records of 32 B but only 2 KiB of record residency per DPU per
/// // segment: the scan needs several passes.
/// let db = Arc::new(Database::random(512, 32, 5)?);
/// let config = StreamingConfig::new(ImPirConfig::tiny_test(4), 2048)?;
/// let mut server_1 = StreamingImPirServer::new(db.clone(), config.clone())?;
/// let mut server_2 = StreamingImPirServer::new(db.clone(), config)?;
/// assert!(server_1.segments() > 1);
/// let mut client = PirClient::new(512, 32, 0)?;
/// let (q1, q2) = client.generate_query(300)?;
/// let (r1, _) = server_1.process_query(&q1)?;
/// let (r2, _) = server_2.process_query(&q2)?;
/// assert_eq!(client.reconstruct(&r1, &r2)?, db.record(300));
/// # Ok::<(), impir_core::PirError>(())
/// ```
#[derive(Debug)]
pub struct StreamingImPirServer {
    database: Arc<Database>,
    config: StreamingConfig,
    system: PimSystem,
    layout: ClusterLayout,
    dpu_layout: DpuLayout,
    records_per_segment: u64,
    database_epoch: u64,
}

impl StreamingImPirServer {
    /// Builds the streaming server.
    ///
    /// The segment size is the largest number of records whose per-DPU
    /// share fits the configured residency budget.
    ///
    /// # Errors
    ///
    /// Propagates configuration and PIM allocation errors, and returns
    /// [`PirError::DatabaseTooLargeForPim`] if even a single record per DPU
    /// does not fit the budget.
    pub fn new(database: Arc<Database>, config: StreamingConfig) -> Result<Self, PirError> {
        let layout = ClusterLayout::new(config.base.pim.dpus, config.base.clusters)?;
        let min_cluster_dpus = (0..layout.cluster_count())
            .map(|c| layout.dpus_in_cluster(c))
            .min()
            .unwrap_or(1);

        let record_size = database.record_size();
        let records_per_dpu_budget = config.resident_bytes_per_dpu / record_size;
        if records_per_dpu_budget == 0 {
            return Err(PirError::DatabaseTooLargeForPim {
                required_bytes_per_dpu: record_size + HEADER_BYTES,
                mram_bytes_per_dpu: config.resident_bytes_per_dpu,
            });
        }
        let records_per_segment =
            (records_per_dpu_budget as u64 * min_cluster_dpus as u64).min(database.num_records());

        // The MRAM layout is computed for one segment (the largest resident
        // working set a DPU ever holds).
        let segment_database_view = SegmentGeometry {
            records: records_per_segment,
            record_size,
        };
        let dpu_layout = segment_database_view.layout(min_cluster_dpus);
        if dpu_layout.required_mram_bytes() > config.base.pim.mram_bytes_per_dpu {
            return Err(PirError::DatabaseTooLargeForPim {
                required_bytes_per_dpu: dpu_layout.required_mram_bytes(),
                mram_bytes_per_dpu: config.base.pim.mram_bytes_per_dpu,
            });
        }

        let system = PimSystem::new(config.base.pim.clone())?;
        Ok(StreamingImPirServer {
            database,
            config,
            system,
            layout,
            dpu_layout,
            records_per_segment,
            database_epoch: 0,
        })
    }

    /// The host-side database replica the server re-streams segments from.
    #[must_use]
    pub fn database(&self) -> &Arc<Database> {
        &self.database
    }

    /// Number of database segments (passes) one full scan needs.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.database
            .num_records()
            .div_ceil(self.records_per_segment) as usize
    }

    /// Number of records streamed per segment.
    #[must_use]
    pub fn records_per_segment(&self) -> u64 {
        self.records_per_segment
    }

    /// The streaming configuration in use.
    #[must_use]
    pub fn config(&self) -> &StreamingConfig {
        &self.config
    }

    /// Cumulative simulated-activity report of the underlying PIM system.
    #[must_use]
    pub fn pim_report(&self) -> impir_pim::ExecutionReport {
        self.system.report()
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

    /// Streams one segment through cluster 0: pushes the segment's records
    /// and selector slice, launches the `dpXOR` kernel and gathers the
    /// per-DPU subresults.
    fn scan_segment(
        &mut self,
        segment_start: u64,
        segment_records: u64,
        selector: &SelectorVector,
        phases: &mut PhaseBreakdown,
    ) -> Result<Vec<u8>, PirError> {
        let record_size = self.database.record_size();
        let range = self.layout.dpu_range(0);
        let dpus = range.len();
        let per_dpu = (segment_records as usize).div_ceil(dpus);

        // Push this segment's database chunks (header + records) and the
        // matching selector slices. Unlike the preloaded mode, the database
        // bytes count towards every query's copy(cpu→pim) phase.
        let mut db_buffers = Vec::with_capacity(dpus);
        let mut selector_buffers = Vec::with_capacity(dpus);
        for slot in 0..dpus {
            let start = slot * per_dpu;
            let count = if start >= segment_records as usize {
                0
            } else {
                per_dpu.min(segment_records as usize - start)
            };
            let mut buffer = Vec::with_capacity(HEADER_BYTES + count * record_size);
            buffer.extend_from_slice(&(count as u64).to_le_bytes());
            buffer.extend_from_slice(&(record_size as u64).to_le_bytes());
            if count > 0 {
                buffer.extend_from_slice(
                    self.database
                        .record_chunk(segment_start + start as u64, count as u64),
                );
            }
            db_buffers.push(buffer);
            if count > 0 {
                selector_buffers.push(
                    selector
                        .slice((segment_start as usize) + start, count)
                        .to_bytes(),
                );
            } else {
                selector_buffers.push(vec![0u8]);
            }
        }
        let (push_db, db_wall) = timed(|| {
            self.system
                .scatter_to_mram_range(range.clone(), 0, &db_buffers)
        });
        let push_db = push_db?;
        let (push_sel, sel_wall) = timed(|| {
            self.system.scatter_to_mram_range(
                range.clone(),
                self.dpu_layout.selector_offset,
                &selector_buffers,
            )
        });
        let push_sel = push_sel?;
        phases.copy_to_pim.merge(&PhaseTime::pim(
            db_wall + sel_wall,
            push_db.simulated_seconds + push_sel.simulated_seconds,
        ));

        // Launch the same dpXOR kernel as the preloaded mode.
        let kernel = DpXorKernel::new(self.dpu_layout);
        let (launch, launch_wall) = timed(|| self.system.launch(range.clone(), &kernel));
        let launch = launch?;
        phases
            .dpxor
            .merge(&PhaseTime::pim(launch_wall, launch.simulated_seconds));

        // Gather and combine this segment's subresults.
        let (gathered, gather_wall) = timed(|| {
            self.system.gather_from_mram(
                range.clone(),
                self.dpu_layout.subresult_offset,
                record_size,
            )
        });
        let (subresults, gather_outcome) = gathered?;
        phases.copy_from_pim.merge(&PhaseTime::pim(
            gather_wall,
            gather_outcome.simulated_seconds,
        ));

        let (segment_result, aggregate_wall) =
            timed(|| dpxor::xor_reduce(&subresults, record_size));
        phases.aggregate.merge(&PhaseTime::host(aggregate_wall));
        Ok(segment_result)
    }

    /// Streams the whole database through MRAM under a pre-evaluated
    /// selector (phases ➌–➏, once per segment), returning the XOR payload
    /// and the accumulated phase times (`eval` left at zero).
    ///
    /// # Errors
    ///
    /// Propagates PIM transfer and kernel errors.
    ///
    /// # Panics
    ///
    /// Panics if the selector does not cover exactly this server's record
    /// space.
    fn streamed_scan(
        &mut self,
        selector: &SelectorVector,
    ) -> Result<(Vec<u8>, PhaseBreakdown), PirError> {
        let num_records = self.database.num_records();
        assert_eq!(
            selector.len() as u64,
            num_records,
            "selector length must equal the number of records"
        );
        let mut phases = PhaseBreakdown::zero();
        let mut payload = vec![0u8; self.database.record_size()];
        let mut segment_start = 0u64;
        while segment_start < num_records {
            let segment_records = self.records_per_segment.min(num_records - segment_start);
            let segment_result =
                self.scan_segment(segment_start, segment_records, selector, &mut phases)?;
            dpxor::xor_in_place(&mut payload, &segment_result);
            segment_start += segment_records;
        }
        Ok((payload, phases))
    }
}

/// Geometry of one resident segment, used to compute the MRAM layout.
struct SegmentGeometry {
    records: u64,
    record_size: usize,
}

impl SegmentGeometry {
    fn layout(&self, min_cluster_dpus: usize) -> DpuLayout {
        // Reuse the preloaded-mode layout arithmetic by building a
        // zero-filled database of the segment's geometry. The contents are
        // irrelevant; only the sizes matter.
        let stand_in = Database::zeroed(self.records.max(1), self.record_size)
            .expect("segment geometry is non-degenerate");
        DpuLayout::for_database(&stand_in, min_cluster_dpus)
    }
}

impl PirServer for StreamingImPirServer {
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
        use crate::batch::BatchExecutor;

        // Phase ➋: evaluate the whole selector on the host (identical to
        // the preloaded mode).
        let (selector, eval_wall) = timed(|| self.evaluate_selector(share));
        let selector = selector?;

        // Phases ➌–➏, once per segment.
        let (payload, mut phases) = self.streamed_scan(&selector)?;
        phases.eval = PhaseTime::host(eval_wall);

        Ok((
            ServerResponse::new(share.query_id, share.key.party(), payload),
            phases,
        ))
    }

    fn process_batch(
        &mut self,
        shares: &[QueryShare],
    ) -> Result<crate::server::BatchOutcome, PirError> {
        crate::batch::process_batch(self, shares, &crate::batch::BatchConfig::default())
    }
}

impl crate::batch::BatchExecutor for StreamingImPirServer {
    fn evaluate_selector(&self, share: &QueryShare) -> Result<SelectorVector, PirError> {
        self.check_domain(share)?;
        Ok(self.config.base.eval_strategy().eval_range(
            &share.key,
            0,
            self.database.num_records(),
        )?)
    }

    fn selector_evaluator(&self) -> crate::batch::SelectorEvaluator {
        crate::batch::database_selector_evaluator(
            Arc::clone(&self.database),
            self.config.base.eval_strategy(),
        )
    }

    /// The streaming server monopolises the CPU→DPU link re-pushing
    /// database segments, so queries serialise on the data plane.
    fn wave_width(&self) -> usize {
        1
    }

    fn execute_wave(
        &mut self,
        selectors: &[&SelectorVector],
    ) -> Result<(Vec<Vec<u8>>, PhaseBreakdown), PirError> {
        let mut phases = PhaseBreakdown::zero();
        let mut payloads = Vec::with_capacity(selectors.len());
        for selector in selectors {
            let (payload, scan_phases) = self.streamed_scan(selector)?;
            phases.merge(&scan_phases);
            payloads.push(payload);
        }
        Ok((payloads, phases))
    }
}

impl crate::capacity::ProfiledBackend for StreamingImPirServer {
    /// Streaming profile: host-bounded capacity, per-segment re-push cost
    /// from the cost model (see [`StreamingConfig::capacity_profile`]).
    fn capacity_profile(&self) -> crate::capacity::CapacityProfile {
        self.config
            .capacity_profile(self.database.record_size())
            .expect("the server was constructed under this configuration and geometry")
    }
}

impl crate::batch::UpdatableBackend for StreamingImPirServer {
    /// Overwrites records in the host-side database the server re-streams
    /// from (copy-on-write, so a shared `Arc` replica is cloned rather than
    /// mutated under other holders). Every subsequent segment push reads
    /// the updated bytes, so the next scan of each query observes the new
    /// contents; nothing moves to MRAM at update time — the transfer is
    /// paid per query, as always in the streaming mode — so `bytes_pushed`
    /// and `simulated_seconds` are zero.
    fn apply_updates(
        &mut self,
        updates: &[(u64, Vec<u8>)],
    ) -> Result<crate::batch::UpdateOutcome, PirError> {
        crate::batch::apply_host_updates(&mut self.database, &mut self.database_epoch, updates)
    }

    fn database(&self) -> &Arc<Database> {
        StreamingImPirServer::database(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PirClient;
    use crate::server::pim::ImPirServer;
    use proptest::prelude::*;

    fn streaming_pair(
        num_records: u64,
        record_size: usize,
        resident_bytes: usize,
    ) -> (
        Arc<Database>,
        StreamingImPirServer,
        StreamingImPirServer,
        PirClient,
    ) {
        let db = Arc::new(Database::random(num_records, record_size, 3).unwrap());
        let config = StreamingConfig::new(ImPirConfig::tiny_test(4), resident_bytes).unwrap();
        let s1 = StreamingImPirServer::new(db.clone(), config.clone()).unwrap();
        let s2 = StreamingImPirServer::new(db.clone(), config).unwrap();
        let client = PirClient::new(num_records, record_size, 5).unwrap();
        (db, s1, s2, client)
    }

    #[test]
    fn multi_segment_retrieval_is_correct() {
        let (db, mut s1, mut s2, mut client) = streaming_pair(600, 32, 1024);
        assert!(s1.segments() > 1, "expected several segments");
        for index in [0u64, 299, 599] {
            let (q1, q2) = client.generate_query(index).unwrap();
            let (r1, phases) = s1.process_query(&q1).unwrap();
            let (r2, _) = s2.process_query(&q2).unwrap();
            assert_eq!(client.reconstruct(&r1, &r2).unwrap(), db.record(index));
            // Streaming pays the database transfer on every query.
            assert!(
                phases.copy_to_pim.simulated_seconds.unwrap()
                    > phases.copy_from_pim.simulated_seconds.unwrap()
            );
        }
    }

    #[test]
    fn streaming_and_preloaded_servers_agree() {
        let db = Arc::new(Database::random(500, 16, 9).unwrap());
        let mut preloaded = ImPirServer::new(db.clone(), ImPirConfig::tiny_test(4)).unwrap();
        let config = StreamingConfig::new(ImPirConfig::tiny_test(4), 512).unwrap();
        let mut streaming = StreamingImPirServer::new(db.clone(), config).unwrap();
        let mut client = PirClient::new(500, 16, 1).unwrap();
        for index in [3u64, 250, 499] {
            let (q1, _) = client.generate_query(index).unwrap();
            let (from_preloaded, _) = preloaded.process_query(&q1).unwrap();
            let (from_streaming, _) = streaming.process_query(&q1).unwrap();
            assert_eq!(from_preloaded.payload, from_streaming.payload);
        }
    }

    #[test]
    fn single_segment_case_degenerates_to_one_pass() {
        let (db, mut s1, mut s2, mut client) = streaming_pair(64, 8, 1 << 16);
        assert_eq!(s1.segments(), 1);
        let (q1, q2) = client.generate_query(42).unwrap();
        let (r1, _) = s1.process_query(&q1).unwrap();
        let (r2, _) = s2.process_query(&q2).unwrap();
        assert_eq!(client.reconstruct(&r1, &r2).unwrap(), db.record(42));
    }

    #[test]
    fn updates_refresh_the_bytes_every_segment_restreams() {
        use crate::batch::UpdatableBackend;
        let (db, mut s1, mut s2, mut client) = streaming_pair(600, 32, 1024);
        assert!(s1.segments() > 1, "the update must span several segments");
        // One update per segment region, so every re-streamed segment must
        // carry fresh bytes.
        let updates: Vec<(u64, Vec<u8>)> = vec![
            (0, vec![0x5a; 32]),
            (299, vec![0x6b; 32]),
            (599, vec![0x7c; 32]),
        ];
        let outcome = s1.apply_updates(&updates).unwrap();
        s2.apply_updates(&updates).unwrap();
        assert_eq!(outcome.records_updated, 3);
        // Streaming pays its transfer per query, not at update time.
        assert_eq!(outcome.bytes_pushed, 0);
        assert_eq!(outcome.simulated_seconds, 0.0);
        for (index, bytes) in &updates {
            let (q1, q2) = client.generate_query(*index).unwrap();
            let (r1, _) = s1.process_query(&q1).unwrap();
            let (r2, _) = s2.process_query(&q2).unwrap();
            assert_eq!(client.reconstruct(&r1, &r2).unwrap(), bytes.as_slice());
        }
        // Untouched records and the caller's Arc are unaffected.
        let (q1, q2) = client.generate_query(100).unwrap();
        let (r1, _) = s1.process_query(&q1).unwrap();
        let (r2, _) = s2.process_query(&q2).unwrap();
        assert_eq!(client.reconstruct(&r1, &r2).unwrap(), db.record(100));
        assert_ne!(db.record(0), &[0x5a; 32][..]);
    }

    #[test]
    fn zero_budget_is_rejected() {
        assert!(StreamingConfig::new(ImPirConfig::tiny_test(2), 0).is_err());
        let db = Arc::new(Database::random(10, 64, 0).unwrap());
        // A budget smaller than one record cannot host any segment.
        let config = StreamingConfig::new(ImPirConfig::tiny_test(2), 32).unwrap();
        assert!(matches!(
            StreamingImPirServer::new(db, config),
            Err(PirError::DatabaseTooLargeForPim { .. })
        ));
    }

    #[test]
    fn pim_report_shows_database_retransfer() {
        let (db, mut s1, _, mut client) = streaming_pair(512, 32, 1024);
        let (q1, _) = client.generate_query(0).unwrap();
        s1.process_query(&q1).unwrap();
        let report = s1.pim_report();
        // Every query must push at least the whole database once.
        assert!(report.transfers.host_to_dpu_bytes >= db.size_bytes());
        assert_eq!(report.launches as usize, s1.segments());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_streaming_retrieval_matches_database(
            num_records in 2u64..400,
            record_words in 1usize..4,
            resident_records in 1usize..64,
            seed in any::<u64>(),
        ) {
            let record_size = record_words * 8;
            let db = Arc::new(Database::random(num_records, record_size, seed).unwrap());
            let config = StreamingConfig::new(
                ImPirConfig::tiny_test(3),
                resident_records * record_size,
            )
            .unwrap();
            let mut s1 = StreamingImPirServer::new(db.clone(), config.clone()).unwrap();
            let mut s2 = StreamingImPirServer::new(db.clone(), config).unwrap();
            let mut client = PirClient::new(num_records, record_size, seed ^ 5).unwrap();
            let index = seed % num_records;
            let (q1, q2) = client.generate_query(index).unwrap();
            let (r1, _) = s1.process_query(&q1).unwrap();
            let (r2, _) = s2.process_query(&q2).unwrap();
            prop_assert_eq!(client.reconstruct(&r1, &r2).unwrap(), db.record(index).to_vec());
        }
    }
}
