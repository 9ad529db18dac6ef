//! The IM-PIR server: host-side DPF evaluation + in-memory `dpXOR` on DPUs.
//!
//! This is the paper's contribution (§3, Figure 5, Algorithm 1). The server
//! preloads its database replica into DPU MRAM once; for every query it
//!
//! 1. expands the DPF key over the database domain on the host CPU with the
//!    subtree-parallel strategy of §3.2 (step ➋),
//! 2. scatters the resulting selector bits to the DPUs holding the
//!    corresponding database chunks (step ➌),
//! 3. launches the `dpXOR` kernel, a two-stage parallel reduction run by
//!    the DPU tasklets over their MRAM-resident chunk (step ➍),
//! 4. gathers the per-DPU subresults (step ➎) and XORs them into the
//!    response on the host (step ➏).
//!
//! The allocated DPUs can be partitioned into clusters (§3.4); each cluster
//! holds a full database replica and serves one query at a time, so batched
//! queries proceed in parallel across clusters (see [`crate::batch`]).

use std::ops::Range;
use std::sync::Arc;

use impir_dpf::{EvalStrategy, SelectorVector};
use impir_pim::{
    ClusterLayout, DpuContext, DpuProgram, PimConfig, PimError, PimSystem, TaskletContext,
};

use crate::database::Database;
use crate::dpxor;
use crate::error::PirError;
use crate::protocol::{QueryShare, ServerResponse};
use crate::server::phases::{PhaseBreakdown, PhaseTime};
use crate::server::{timed, PirServer};

/// Size of the per-DPU MRAM header describing the chunk it holds.
const HEADER_BYTES: usize = 16;

/// Configuration of an [`ImPirServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct ImPirConfig {
    /// The PIM system to allocate (DPU count, MRAM size, tasklets, …).
    pub pim: PimConfig,
    /// Number of DPU clusters; each cluster holds a full database replica
    /// and serves one query at a time (§3.4).
    pub clusters: usize,
    /// Host CPU threads used for the subtree-parallel DPF evaluation.
    pub eval_threads: usize,
}

impl ImPirConfig {
    /// The paper's evaluation configuration: 2048 DPUs, a single cluster,
    /// all host threads evaluating.
    #[must_use]
    pub fn paper() -> Self {
        ImPirConfig {
            pim: PimConfig::paper_server(),
            clusters: 1,
            eval_threads: impir_dpf::host_parallelism(),
        }
    }

    /// A small configuration for unit tests and examples: `dpus` DPUs with
    /// 1 MiB of MRAM each, one cluster, two evaluation threads.
    #[must_use]
    pub fn tiny_test(dpus: usize) -> Self {
        ImPirConfig {
            pim: PimConfig::tiny_test(dpus, 1 << 20),
            clusters: 1,
            eval_threads: 2,
        }
    }

    /// Returns the same configuration partitioned into `clusters` clusters.
    #[must_use]
    pub fn with_clusters(mut self, clusters: usize) -> Self {
        self.clusters = clusters;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] for zero thread/cluster counts and
    /// propagates PIM configuration errors.
    pub fn validate(&self) -> Result<(), PirError> {
        self.pim.validate()?;
        if self.clusters == 0 {
            return Err(PirError::Config {
                reason: "at least one DPU cluster is required".to_string(),
            });
        }
        if self.clusters > self.pim.dpus {
            return Err(PirError::Config {
                reason: format!(
                    "{} clusters requested but only {} DPUs allocated",
                    self.clusters, self.pim.dpus
                ),
            });
        }
        if self.eval_threads == 0 {
            return Err(PirError::Config {
                reason: "at least one evaluation thread is required".to_string(),
            });
        }
        Ok(())
    }

    /// The evaluation strategy implied by `eval_threads` (the paper's
    /// subtree-parallel scheme).
    #[must_use]
    pub fn eval_strategy(&self) -> EvalStrategy {
        EvalStrategy::SubtreeParallel {
            threads: self.eval_threads,
        }
    }

    /// The **declared** [`CapacityProfile`] of a server built under this
    /// configuration for records of `record_size` bytes, computable before
    /// any backend exists:
    ///
    /// * record capacity is what the smallest cluster's DPUs can hold in
    ///   MRAM alongside header, selector bits and subresult (the exact
    ///   admission bound [`ImPirServer::new`] enforces, via
    ///   [`max_records_per_dpu`]);
    /// * scan bandwidth of one wave slot comes from the timed simulator's
    ///   [`CostModel`] at full shard load — selector scatter, `dpXOR`
    ///   kernel streaming (MRAM DMA vs pipeline, whichever binds) and
    ///   subresult gather;
    /// * the wave width is the cluster count (§3.4).
    ///
    /// # Errors
    ///
    /// * [`PirError::Config`] for an invalid configuration or zero record
    ///   size;
    /// * [`PirError::DatabaseTooLargeForPim`] if not even one record per
    ///   DPU fits the MRAM budget.
    pub fn capacity_profile(
        &self,
        record_size: usize,
    ) -> Result<crate::capacity::CapacityProfile, PirError> {
        self.validate()?;
        if record_size == 0 {
            return Err(PirError::Config {
                reason: "record size must be non-zero".to_string(),
            });
        }
        let layout = ClusterLayout::new(self.pim.dpus, self.clusters)?;
        let min_cluster_dpus = (0..layout.cluster_count())
            .map(|c| layout.dpus_in_cluster(c))
            .min()
            .unwrap_or(1);
        let per_dpu = max_records_per_dpu(record_size, self.pim.mram_bytes_per_dpu);
        if per_dpu == 0 {
            return Err(PirError::DatabaseTooLargeForPim {
                required_bytes_per_dpu: DpuLayout::for_geometry(1, record_size)
                    .required_mram_bytes(),
                mram_bytes_per_dpu: self.pim.mram_bytes_per_dpu,
            });
        }
        let record_capacity = per_dpu as u64 * min_cluster_dpus as u64;

        // One wave slot = one query on the smallest cluster, at full load:
        // the same per-byte accounting the dpXOR kernel meters at run time,
        // priced by the simulator's cost model.
        let cost = impir_pim::CostModel::new(self.pim.clone());
        let per_dpu_records = record_capacity.div_ceil(min_cluster_dpus as u64);
        let meter = declared_dpxor_meter(per_dpu_records, record_size, self.pim.tasklets_per_dpu);
        let slot_seconds = cost.host_to_dpu_seconds(record_capacity.div_ceil(8))
            + cost.launch_seconds(std::slice::from_ref(&meter))
            + cost.dpu_to_host_seconds(min_cluster_dpus as u64 * record_size as u64);
        let bandwidth = (record_capacity as f64 * record_size as f64) / slot_seconds;
        crate::capacity::CapacityProfile::new(
            record_capacity,
            bandwidth,
            self.eval_threads as f64 * crate::capacity::HOST_EVAL_LEAVES_PER_SEC_PER_THREAD,
            self.clusters,
        )
    }
}

impl Default for ImPirConfig {
    fn default() -> Self {
        ImPirConfig::paper()
    }
}

/// The MRAM layout used on every DPU (identical across clusters so one
/// kernel description covers all of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpuLayout {
    /// Maximum number of records any single DPU holds (`B_d = ⌈N / P_c⌉`
    /// for the smallest cluster).
    pub records_capacity: usize,
    /// Record size in bytes.
    pub record_size: usize,
    /// MRAM offset of the database chunk (just after the header).
    pub db_offset: usize,
    /// MRAM offset of the per-query selector bits.
    pub selector_offset: usize,
    /// MRAM offset where the kernel leaves the DPU's subresult.
    pub subresult_offset: usize,
}

impl DpuLayout {
    /// Computes the layout for a database (or database segment) split over
    /// clusters whose smallest cluster has `min_cluster_dpus` DPUs.
    ///
    /// Exposed so the out-of-core mode
    /// ([`crate::server::streaming::StreamingImPirServer`]) can lay out one
    /// resident segment with exactly the same arithmetic as the preloaded
    /// mode.
    #[must_use]
    pub fn for_database(database: &Database, min_cluster_dpus: usize) -> Self {
        DpuLayout::new(database, min_cluster_dpus)
    }

    /// Computes the layout for a database split over clusters whose
    /// smallest cluster has `min_cluster_dpus` DPUs.
    fn new(database: &Database, min_cluster_dpus: usize) -> Self {
        let records_capacity = (database.num_records() as usize).div_ceil(min_cluster_dpus.max(1));
        DpuLayout::for_geometry(records_capacity, database.record_size())
    }

    /// Computes the layout for a DPU holding up to `records_capacity`
    /// records of `record_size` bytes — the single definition of the MRAM
    /// arithmetic, shared by server construction and capacity planning
    /// ([`max_records_per_dpu`]).
    #[must_use]
    pub fn for_geometry(records_capacity: usize, record_size: usize) -> Self {
        let db_offset = HEADER_BYTES;
        let db_end = db_offset + records_capacity * record_size;
        let selector_offset = align_up(db_end, 8);
        let selector_end = selector_offset + records_capacity.div_ceil(8);
        let subresult_offset = align_up(selector_end, 8);
        DpuLayout {
            records_capacity,
            record_size,
            db_offset,
            selector_offset,
            subresult_offset,
        }
    }

    /// Total MRAM bytes the layout needs on one DPU.
    #[must_use]
    pub fn required_mram_bytes(&self) -> usize {
        self.subresult_offset + self.record_size
    }
}

fn align_up(value: usize, alignment: usize) -> usize {
    value.div_ceil(alignment) * alignment
}

/// The [`impir_pim::KernelMeter`] the `dpXOR` kernel accrues on one DPU
/// holding `per_dpu_records` records of `record_size` bytes under
/// `tasklets` tasklets: per-tasklet header reads, record and selector
/// streaming, the subresult write, and the kernel's 4 instructions per
/// record. The declared-profile mirror of [`DpXorKernel::run_tasklet`]'s
/// run-time accounting, defined once so the PIM and streaming capacity
/// profiles cannot drift from the kernel (or from each other).
pub(crate) fn declared_dpxor_meter(
    per_dpu_records: u64,
    record_size: usize,
    tasklets: usize,
) -> impir_pim::KernelMeter {
    impir_pim::KernelMeter {
        mram_bytes_read: HEADER_BYTES as u64 * tasklets as u64
            + per_dpu_records * record_size as u64
            + per_dpu_records.div_ceil(8),
        mram_bytes_written: record_size as u64,
        instructions: 4 * per_dpu_records,
    }
}

/// The largest number of records of `record_size` bytes one DPU can hold
/// alongside its header, selector bits and subresult, under `mram_bytes` of
/// MRAM — the exact inverse of [`DpuLayout::required_mram_bytes`], found by
/// binary search so the capacity planner and [`ImPirServer::new`]'s
/// admission check can never disagree.
#[must_use]
pub fn max_records_per_dpu(record_size: usize, mram_bytes: usize) -> usize {
    let fits = |records: usize| {
        DpuLayout::for_geometry(records, record_size).required_mram_bytes() <= mram_bytes
    };
    if record_size == 0 || !fits(1) {
        return 0;
    }
    let mut lo = 1usize; // known to fit
    let mut hi = mram_bytes / record_size + 1; // cannot fit (records alone exceed MRAM)
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The `dpXOR` DPU program (Algorithm 1, `TaskletXOR` + `MasterXOR`).
///
/// Every tasklet XORs the records of its slice whose selector bit is set
/// (stage 1 of the parallel reduction); the master tasklet XORs the partial
/// results and leaves the DPU's subresult in MRAM for the host to gather
/// (stage 2).
#[derive(Debug, Clone, Copy)]
pub struct DpXorKernel {
    layout: DpuLayout,
}

impl DpXorKernel {
    /// Creates the kernel for a given MRAM layout.
    #[must_use]
    pub fn new(layout: DpuLayout) -> Self {
        DpXorKernel { layout }
    }
}

impl DpuProgram for DpXorKernel {
    type TaskletOutput = Vec<u8>;
    type DpuOutput = ();

    fn run_tasklet(&self, ctx: &mut TaskletContext<'_>) -> Result<Vec<u8>, PimError> {
        let record_size = self.layout.record_size;
        // The header tells the tasklet how many records this DPU actually
        // holds (the last DPU of a cluster usually holds fewer than B_d).
        let header = ctx.mram_read(0, HEADER_BYTES)?;
        let record_count =
            u64::from_le_bytes(header[0..8].try_into().expect("8-byte field")) as usize;
        let stored_record_size =
            u64::from_le_bytes(header[8..16].try_into().expect("8-byte field")) as usize;
        if stored_record_size != record_size {
            return ctx.fault(format!(
                "record size mismatch: header says {stored_record_size}, kernel expects {record_size}"
            ));
        }

        let mut accumulator = vec![0u8; record_size];
        let (start, count) = ctx.partition(record_count);
        if count == 0 {
            return Ok(accumulator);
        }

        // WRAM staging: the accumulator plus one record buffer per tasklet.
        ctx.wram_reserve(2 * record_size)?;

        // Selector bytes covering this tasklet's records.
        let first_selector_byte = start / 8;
        let selector_len = (start + count).div_ceil(8) - first_selector_byte;
        let selector = ctx.mram_read(
            self.layout.selector_offset + first_selector_byte,
            selector_len,
        )?;
        // The tasklet's share of the database chunk.
        let records = ctx.mram_read(
            self.layout.db_offset + start * record_size,
            count * record_size,
        )?;

        for local in 0..count {
            let bit_index = start + local;
            let byte = selector[bit_index / 8 - first_selector_byte];
            if (byte >> (bit_index % 8)) & 1 == 1 {
                dpxor::xor_in_place(
                    &mut accumulator,
                    &records[local * record_size..(local + 1) * record_size],
                );
            }
        }
        // Loop control, selector test and address arithmetic beyond the
        // per-byte accounting done by `mram_read`.
        ctx.record_instructions(count as u64 * 4);
        ctx.wram_release(2 * record_size);
        Ok(accumulator)
    }

    fn reduce(&self, ctx: &mut DpuContext<'_>, partials: Vec<Vec<u8>>) -> Result<(), PimError> {
        let subresult = dpxor::xor_reduce(&partials, self.layout.record_size);
        ctx.mram_write(self.layout.subresult_offset, &subresult)?;
        Ok(())
    }
}

pub use crate::batch::UpdateOutcome;

/// The IM-PIR server backend.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug)]
pub struct ImPirServer {
    database: Arc<Database>,
    config: ImPirConfig,
    system: PimSystem,
    layout: ClusterLayout,
    dpu_layout: DpuLayout,
    database_epoch: u64,
}

impl ImPirServer {
    /// Allocates the PIM system, partitions it into clusters and preloads
    /// the database replica into every cluster's DPU MRAM (§3.3, database
    /// preloading — done once, outside query processing).
    ///
    /// # Errors
    ///
    /// * [`PirError::Config`] for invalid configurations;
    /// * [`PirError::DatabaseTooLargeForPim`] if a DPU's share of the
    ///   database (plus selector bits and subresult) exceeds its MRAM;
    /// * PIM errors from the allocation or the preload transfers.
    pub fn new(database: Arc<Database>, config: ImPirConfig) -> Result<Self, PirError> {
        config.validate()?;
        let layout = ClusterLayout::new(config.pim.dpus, config.clusters)?;
        let min_cluster_dpus = (0..layout.cluster_count())
            .map(|c| layout.dpus_in_cluster(c))
            .min()
            .unwrap_or(1);
        let dpu_layout = DpuLayout::new(&database, min_cluster_dpus);
        if dpu_layout.required_mram_bytes() > config.pim.mram_bytes_per_dpu {
            return Err(PirError::DatabaseTooLargeForPim {
                required_bytes_per_dpu: dpu_layout.required_mram_bytes(),
                mram_bytes_per_dpu: config.pim.mram_bytes_per_dpu,
            });
        }
        let mut system = PimSystem::new(config.pim.clone())?;
        preload_database(&mut system, &layout, &dpu_layout, &database)?;
        Ok(ImPirServer {
            database,
            config,
            system,
            layout,
            dpu_layout,
            database_epoch: 0,
        })
    }

    /// The cluster layout in use.
    #[must_use]
    pub fn cluster_layout(&self) -> &ClusterLayout {
        &self.layout
    }

    /// The per-DPU MRAM layout in use.
    #[must_use]
    pub fn dpu_layout(&self) -> DpuLayout {
        self.dpu_layout
    }

    /// The configuration this server was built with.
    #[must_use]
    pub fn config(&self) -> &ImPirConfig {
        &self.config
    }

    /// The database replica held by this server.
    #[must_use]
    pub fn database(&self) -> &Arc<Database> {
        &self.database
    }

    /// Cumulative simulated-activity report of the underlying PIM system
    /// (transfers, kernel meters, modelled seconds).
    #[must_use]
    pub fn pim_report(&self) -> impir_pim::ExecutionReport {
        self.system.report()
    }

    /// Clears the cumulative PIM report.
    pub fn reset_pim_report(&mut self) {
        self.system.reset_report();
    }

    /// Applies in-place record updates to the DPU-resident database
    /// replicas (§3.3: "the CPU uses brief windows when DPUs are idle to
    /// apply bulk database updates", amortising CPU–DPU transfers).
    ///
    /// Every cluster's copy of each updated record is overwritten directly
    /// in MRAM, and the server's host-side `Arc` snapshot is brought along
    /// (copy-on-write, so replicas shared with other servers stay
    /// untouched): after this call [`ImPirServer::database`] and the
    /// MRAM-resident chunks agree, and subsequent queries observe the new
    /// values on every cluster. Callers need no side oracle.
    ///
    /// Runs of adjacent updated records landing on the same DPU coalesce
    /// into one contiguous MRAM transfer each, so a bulk update of `k`
    /// consecutive records pays the per-transfer latency once per DPU per
    /// cluster instead of `k` times — the §3.3 amortisation. Duplicate
    /// indices within one batch collapse to the last entry.
    ///
    /// Returns the total number of bytes pushed and the simulated transfer
    /// time the bulk update would take on the modelled hardware.
    ///
    /// # Errors
    ///
    /// * [`PirError::IndexOutOfRange`] for an update outside the database;
    /// * [`PirError::RecordSizeMismatch`] for a payload of the wrong size;
    /// * PIM transfer errors.
    ///
    /// Validation runs before anything is mutated, so a batch containing
    /// one invalid entry leaves every cluster (and the snapshot) unchanged.
    pub fn apply_updates(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<UpdateOutcome, PirError> {
        let record_size = self.database.record_size();
        let num_records = self.database.num_records();
        // Validate everything first so a failed update cannot leave some
        // clusters updated and others stale.
        crate::batch::validate_updates(updates, num_records, record_size)?;
        if updates.is_empty() {
            return Ok(UpdateOutcome {
                records_updated: 0,
                bytes_pushed: 0,
                simulated_seconds: 0.0,
                epoch: self.database_epoch,
            });
        }
        // Last write wins per index; the sorted order is what lets adjacent
        // records coalesce into contiguous transfers below.
        let mut latest: std::collections::BTreeMap<u64, &[u8]> = std::collections::BTreeMap::new();
        for (index, bytes) in updates {
            latest.insert(*index, bytes.as_slice());
        }
        let mut bytes_pushed = 0u64;
        let mut simulated_seconds = 0.0f64;
        for cluster in 0..self.layout.cluster_count() {
            let range = self.layout.dpu_range(cluster);
            let per_dpu = (num_records as usize).div_ceil(range.len());
            // Coalesce: records are contiguous within a DPU's MRAM chunk,
            // so consecutive indices on one DPU form one contiguous run.
            let mut runs: Vec<(usize, usize, Vec<u8>)> = Vec::new();
            for (&index, &bytes) in &latest {
                let dpu = range.start + index as usize / per_dpu;
                let offset = self.dpu_layout.db_offset + (index as usize % per_dpu) * record_size;
                match runs.last_mut() {
                    Some((run_dpu, run_offset, buffer))
                        if *run_dpu == dpu && *run_offset + buffer.len() == offset =>
                    {
                        buffer.extend_from_slice(bytes);
                    }
                    _ => runs.push((dpu, offset, bytes.to_vec())),
                }
            }
            for (dpu, offset, buffer) in runs {
                let outcome = self.system.push_to_dpu(dpu, offset, &buffer)?;
                bytes_pushed += outcome.bytes;
                simulated_seconds += outcome.simulated_seconds;
            }
        }
        // Keep the host-side snapshot in lockstep with the MRAM replicas
        // (copy-on-write: a snapshot shared with another server is cloned,
        // not mutated under it).
        let snapshot = Arc::make_mut(&mut self.database);
        for (&index, &bytes) in &latest {
            snapshot
                .set_record(index, bytes)
                .expect("update entries were validated against this geometry");
        }
        self.database_epoch += 1;
        Ok(UpdateOutcome {
            records_updated: updates.len(),
            bytes_pushed,
            simulated_seconds,
            epoch: self.database_epoch,
        })
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

    /// Host-side DPF evaluation of one query (Algorithm 1 step ➋).
    ///
    /// # Errors
    ///
    /// Propagates DPF evaluation errors (e.g. a key whose domain does not
    /// cover the database).
    pub fn evaluate_share(&self, share: &QueryShare) -> Result<SelectorVector, PirError> {
        self.check_domain(share)?;
        Ok(self
            .config
            .eval_strategy()
            .eval_range(&share.key, 0, self.database.num_records())?)
    }

    /// Splits a full-domain selector vector into the per-DPU chunks of one
    /// cluster, packed as the byte buffers copied to MRAM (step ➌).
    fn selector_chunks(&self, cluster: usize, selector: &SelectorVector) -> Vec<Vec<u8>> {
        let dpus = self.layout.dpus_in_cluster(cluster);
        let num_records = self.database.num_records() as usize;
        let per_dpu = num_records.div_ceil(dpus);
        (0..dpus)
            .map(|dpu| {
                let start = dpu * per_dpu;
                if start >= num_records {
                    return vec![0u8; 1];
                }
                let count = per_dpu.min(num_records - start);
                let slice = selector.slice(start, count);
                slice.to_bytes()
            })
            .collect()
    }

    /// Runs the PIM-side phases (➌–➏) for pre-evaluated selectors, one per
    /// cluster slot, returning the raw XOR payloads in assignment order
    /// along with the phases accumulated for the whole wave.
    ///
    /// All clusters of the wave are launched together, which is exactly how
    /// the hardware would overlap them; the simulated time of the launch is
    /// therefore the critical path across the active clusters. This is the
    /// data-plane entry the generic batch pipeline and the sharded engine
    /// drive; [`ImPirServer::dpxor_wave`] wraps it for callers holding
    /// query shares.
    ///
    /// # Errors
    ///
    /// Propagates PIM transfer and kernel errors.
    pub fn dpxor_wave_payloads(
        &mut self,
        assignments: &[(usize, &SelectorVector)],
    ) -> Result<(Vec<Vec<u8>>, PhaseBreakdown), PirError> {
        if assignments.is_empty() {
            return Ok((Vec::new(), PhaseBreakdown::zero()));
        }
        for (cluster, _) in assignments {
            assert!(
                *cluster < self.layout.cluster_count(),
                "cluster {cluster} out of range"
            );
        }

        // Phase ➌: scatter each query's selector bits to its cluster.
        let mut copy_to_pim = PhaseTime::zero();
        for (cluster, selector) in assignments {
            let chunks = self.selector_chunks(*cluster, selector);
            let range = self.layout.dpu_range(*cluster);
            let (outcome, wall) = timed(|| {
                self.system.scatter_to_mram_range(
                    range.clone(),
                    self.dpu_layout.selector_offset,
                    &chunks,
                )
            });
            let outcome = outcome?;
            copy_to_pim.merge(&PhaseTime::pim(wall, outcome.simulated_seconds));
        }

        // Phase ➍: one launch covering every active cluster.
        let covering = covering_range(
            assignments
                .iter()
                .map(|(cluster, _)| self.layout.dpu_range(*cluster)),
        );
        let kernel = DpXorKernel::new(self.dpu_layout);
        let (launch, dpxor_wall) = timed(|| self.system.launch(covering.clone(), &kernel));
        let launch = launch?;
        let dpxor = PhaseTime::pim(dpxor_wall, launch.simulated_seconds);

        // Phase ➎: gather every active cluster's subresults in one batch.
        let (gathered, gather_wall) = timed(|| {
            self.system.gather_from_mram(
                covering.clone(),
                self.dpu_layout.subresult_offset,
                self.dpu_layout.record_size,
            )
        });
        let (subresults, gather_outcome) = gathered?;
        let copy_from_pim = PhaseTime::pim(gather_wall, gather_outcome.simulated_seconds);

        // Phase ➏: aggregate per-cluster subresults on the host.
        let mut aggregate = PhaseTime::zero();
        let mut payloads = Vec::with_capacity(assignments.len());
        for (cluster, _) in assignments {
            let range = self.layout.dpu_range(*cluster);
            let offset = range.start - covering.start;
            let cluster_subresults = &subresults[offset..offset + range.len()];
            let (payload, wall) =
                timed(|| dpxor::xor_reduce(cluster_subresults, self.dpu_layout.record_size));
            aggregate.merge(&PhaseTime::host(wall));
            payloads.push(payload);
        }

        let phases = PhaseBreakdown {
            eval: PhaseTime::zero(),
            copy_to_pim,
            dpxor,
            copy_from_pim,
            aggregate,
        };
        Ok((payloads, phases))
    }

    /// Runs the PIM-side phases (➌–➏) for queries already evaluated on the
    /// host, one query per cluster slot. Returns the responses in the same
    /// order as `assignments` along with the phases accumulated for the
    /// whole wave.
    ///
    /// # Errors
    ///
    /// Propagates PIM transfer and kernel errors.
    pub fn dpxor_wave(
        &mut self,
        assignments: &[(usize, &QueryShare, &SelectorVector)],
    ) -> Result<(Vec<ServerResponse>, PhaseBreakdown), PirError> {
        let selector_assignments: Vec<(usize, &SelectorVector)> = assignments
            .iter()
            .map(|(cluster, _, selector)| (*cluster, *selector))
            .collect();
        let (payloads, phases) = self.dpxor_wave_payloads(&selector_assignments)?;
        let responses = assignments
            .iter()
            .zip(payloads)
            .map(|((_, share, _), payload)| {
                ServerResponse::new(share.query_id, share.key.party(), payload)
            })
            .collect();
        Ok((responses, phases))
    }

    /// Processes one query end to end on a specific cluster.
    ///
    /// # Errors
    ///
    /// Propagates DPF and PIM errors; see [`ImPirServer::new`] for the
    /// configuration-time checks.
    pub fn process_query_on_cluster(
        &mut self,
        cluster: usize,
        share: &QueryShare,
    ) -> Result<(ServerResponse, PhaseBreakdown), PirError> {
        // Phase ➋ on the host.
        let (selector, eval_wall) = timed(|| self.evaluate_share(share));
        let selector = selector?;
        let (responses, mut phases) = self.dpxor_wave(&[(cluster, share, &selector)])?;
        phases.eval = PhaseTime::host(eval_wall);
        let response = responses.into_iter().next().expect("one assignment");
        Ok((response, phases))
    }
}

fn covering_range(ranges: impl Iterator<Item = Range<usize>>) -> Range<usize> {
    let mut start = usize::MAX;
    let mut end = 0usize;
    for range in ranges {
        start = start.min(range.start);
        end = end.max(range.end);
    }
    if start == usize::MAX {
        0..0
    } else {
        start..end
    }
}

fn preload_database(
    system: &mut PimSystem,
    layout: &ClusterLayout,
    _dpu_layout: &DpuLayout,
    database: &Database,
) -> Result<(), PimError> {
    let num_records = database.num_records() as usize;
    let record_size = database.record_size();
    for cluster in 0..layout.cluster_count() {
        let range = layout.dpu_range(cluster);
        let dpus = range.len();
        let per_dpu = num_records.div_ceil(dpus);
        for (slot, dpu) in range.enumerate() {
            let start = slot * per_dpu;
            let count = if start >= num_records {
                0
            } else {
                per_dpu.min(num_records - start)
            };
            let mut buffer = Vec::with_capacity(HEADER_BYTES + count * record_size);
            buffer.extend_from_slice(&(count as u64).to_le_bytes());
            buffer.extend_from_slice(&(record_size as u64).to_le_bytes());
            if count > 0 {
                buffer.extend_from_slice(database.record_chunk(start as u64, count as u64));
            }
            system.push_to_dpu(dpu, 0, &buffer)?;
        }
    }
    Ok(())
}

impl PirServer for ImPirServer {
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
        self.process_query_on_cluster(0, share)
    }

    fn process_batch(
        &mut self,
        shares: &[QueryShare],
    ) -> Result<crate::server::BatchOutcome, PirError> {
        crate::batch::process_batch(self, shares, &crate::batch::BatchConfig::default())
    }
}

impl crate::batch::BatchExecutor for ImPirServer {
    fn evaluate_selector(&self, share: &QueryShare) -> Result<SelectorVector, PirError> {
        self.evaluate_share(share)
    }

    fn selector_evaluator(&self) -> crate::batch::SelectorEvaluator {
        crate::batch::database_selector_evaluator(
            Arc::clone(&self.database),
            self.config.eval_strategy(),
        )
    }

    /// One query per DPU cluster can scan concurrently (§3.4).
    fn wave_width(&self) -> usize {
        self.layout.cluster_count()
    }

    fn execute_wave(
        &mut self,
        selectors: &[&SelectorVector],
    ) -> Result<(Vec<Vec<u8>>, PhaseBreakdown), PirError> {
        debug_assert!(selectors.len() <= self.layout.cluster_count());
        let assignments: Vec<(usize, &SelectorVector)> = selectors
            .iter()
            .enumerate()
            .map(|(slot, selector)| (slot, *selector))
            .collect();
        self.dpxor_wave_payloads(&assignments)
    }
}

impl crate::batch::UpdatableBackend for ImPirServer {
    fn apply_updates(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<UpdateOutcome, PirError> {
        ImPirServer::apply_updates(self, updates)
    }

    fn database(&self) -> &Arc<Database> {
        ImPirServer::database(self)
    }
}

impl crate::capacity::ProfiledBackend for ImPirServer {
    /// Record capacity from the per-cluster MRAM budget, scan bandwidth
    /// from the timed simulator's cost model (see
    /// [`ImPirConfig::capacity_profile`]).
    fn capacity_profile(&self) -> crate::capacity::CapacityProfile {
        self.config
            .capacity_profile(self.database.record_size())
            .expect("the server was constructed under this configuration and geometry")
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
        config: ImPirConfig,
    ) -> (Arc<Database>, ImPirServer, ImPirServer, PirClient) {
        let db = Arc::new(Database::random(num_records, record_size, 21).unwrap());
        let s1 = ImPirServer::new(db.clone(), config.clone()).unwrap();
        let s2 = ImPirServer::new(db.clone(), config).unwrap();
        let client = PirClient::new(num_records, record_size, 8).unwrap();
        (db, s1, s2, client)
    }

    #[test]
    fn end_to_end_retrieval_on_pim() {
        let (db, mut s1, mut s2, mut client) = setup(300, 32, ImPirConfig::tiny_test(4));
        for index in [0u64, 37, 150, 299] {
            let (q1, q2) = client.generate_query(index).unwrap();
            let (r1, phases) = s1.process_query(&q1).unwrap();
            let (r2, _) = s2.process_query(&q2).unwrap();
            assert_eq!(client.reconstruct(&r1, &r2).unwrap(), db.record(index));
            // PIM phases carry simulated hardware time.
            assert!(phases.dpxor.simulated_seconds.is_some());
            assert!(phases.copy_to_pim.simulated_seconds.is_some());
            assert!(phases.eval.wall_seconds >= 0.0);
        }
    }

    #[test]
    fn clustered_server_answers_on_every_cluster() {
        let (db, mut s1, mut s2, mut client) =
            setup(257, 16, ImPirConfig::tiny_test(8).with_clusters(4));
        for cluster in 0..4 {
            let index = 13 * (cluster as u64 + 1);
            let (q1, q2) = client.generate_query(index).unwrap();
            let (r1, _) = s1.process_query_on_cluster(cluster, &q1).unwrap();
            let (r2, _) = s2.process_query_on_cluster(cluster, &q2).unwrap();
            assert_eq!(client.reconstruct(&r1, &r2).unwrap(), db.record(index));
        }
    }

    #[test]
    fn wave_processing_answers_multiple_queries_at_once() {
        let (db, mut s1, mut s2, mut client) =
            setup(200, 8, ImPirConfig::tiny_test(6).with_clusters(3));
        let indices = [5u64, 77, 123];
        let (shares_1, shares_2) = client.generate_batch(&indices).unwrap();
        let selectors_1: Vec<_> = shares_1
            .iter()
            .map(|s| s1.evaluate_share(s).unwrap())
            .collect();
        let selectors_2: Vec<_> = shares_2
            .iter()
            .map(|s| s2.evaluate_share(s).unwrap())
            .collect();
        let assignments_1: Vec<_> = shares_1
            .iter()
            .zip(&selectors_1)
            .enumerate()
            .map(|(cluster, (share, sel))| (cluster, share, sel))
            .collect();
        let assignments_2: Vec<_> = shares_2
            .iter()
            .zip(&selectors_2)
            .enumerate()
            .map(|(cluster, (share, sel))| (cluster, share, sel))
            .collect();
        let (r1, _) = s1.dpxor_wave(&assignments_1).unwrap();
        let (r2, _) = s2.dpxor_wave(&assignments_2).unwrap();
        for (i, index) in indices.iter().enumerate() {
            assert_eq!(
                client.reconstruct(&r1[i], &r2[i]).unwrap(),
                db.record(*index)
            );
        }
    }

    #[test]
    fn database_too_large_for_mram_is_rejected() {
        let db = Arc::new(Database::random(10_000, 64, 0).unwrap());
        // 2 DPUs × 64 KiB of MRAM cannot hold 10 000 × 64-byte records.
        let config = ImPirConfig {
            pim: PimConfig::tiny_test(2, 64 * 1024),
            clusters: 1,
            eval_threads: 1,
        };
        assert!(matches!(
            ImPirServer::new(db, config),
            Err(PirError::DatabaseTooLargeForPim { .. })
        ));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let db = Arc::new(Database::random(16, 8, 0).unwrap());
        assert!(ImPirServer::new(db.clone(), ImPirConfig::tiny_test(4).with_clusters(0)).is_err());
        assert!(ImPirServer::new(db.clone(), ImPirConfig::tiny_test(4).with_clusters(9)).is_err());
        let mut config = ImPirConfig::tiny_test(4);
        config.eval_threads = 0;
        assert!(ImPirServer::new(db, config).is_err());
    }

    #[test]
    fn domain_mismatch_is_rejected() {
        let (_, mut s1, _, _) = setup(100, 8, ImPirConfig::tiny_test(2));
        let mut other_client = PirClient::new(1_000_000, 8, 0).unwrap();
        let (q1, _) = other_client.generate_query(5).unwrap();
        assert!(matches!(
            s1.process_query(&q1),
            Err(PirError::QueryDomainMismatch { .. })
        ));
    }

    #[test]
    fn layout_accounts_for_all_regions() {
        let db = Database::random(1000, 32, 0).unwrap();
        let layout = DpuLayout::new(&db, 8);
        assert_eq!(layout.records_capacity, 125);
        assert!(layout.db_offset >= HEADER_BYTES);
        assert!(layout.selector_offset >= layout.db_offset + 125 * 32);
        assert!(layout.subresult_offset >= layout.selector_offset + 16);
        assert_eq!(layout.required_mram_bytes(), layout.subresult_offset + 32);
    }

    #[test]
    fn updates_are_visible_to_subsequent_queries_on_every_cluster() {
        let (db, mut s1, mut s2, mut client) =
            setup(200, 16, ImPirConfig::tiny_test(6).with_clusters(3));
        let updates: Vec<(u64, Vec<u8>)> = vec![
            (0, vec![0xaa; 16]),
            (99, vec![0xbb; 16]),
            (199, vec![0xcc; 16]),
        ];
        let outcome_1 = s1.apply_updates(&updates).unwrap();
        let outcome_2 = s2.apply_updates(&updates).unwrap();
        assert_eq!(outcome_1.records_updated, 3);
        // Each of the 3 clusters receives each updated record once.
        assert_eq!(outcome_1.bytes_pushed, 3 * 3 * 16);
        assert!(outcome_2.simulated_seconds > 0.0);
        assert_eq!(outcome_1.epoch, 1);

        // The server's own snapshot moved with the MRAM replicas: it is the
        // up-to-date oracle, no caller-side copy needed.
        for (index, bytes) in &updates {
            assert_eq!(s1.database().record(*index), bytes.as_slice());
        }
        // The construction-time Arc the caller still holds is untouched
        // (copy-on-write).
        assert_ne!(db.record(0), &[0xaa; 16][..]);

        for cluster in 0..3 {
            for (index, _) in &updates {
                let (q1, q2) = client.generate_query(*index).unwrap();
                let (r1, _) = s1.process_query_on_cluster(cluster, &q1).unwrap();
                let (r2, _) = s2.process_query_on_cluster(cluster, &q2).unwrap();
                assert_eq!(
                    client.reconstruct(&r1, &r2).unwrap(),
                    s1.database().record(*index),
                    "cluster {cluster} index {index}"
                );
            }
        }
        // Untouched records are unaffected.
        let (q1, q2) = client.generate_query(50).unwrap();
        let (r1, _) = s1.process_query(&q1).unwrap();
        let (r2, _) = s2.process_query(&q2).unwrap();
        assert_eq!(client.reconstruct(&r1, &r2).unwrap(), db.record(50));
    }

    #[test]
    fn adjacent_updates_coalesce_into_one_transfer_per_dpu_per_cluster() {
        // 200 records over 2 clusters of 2 DPUs each: per_dpu = 100, so
        // indices 10..18 share one DPU chunk and index 150 sits on the
        // second DPU of each cluster.
        let (_, mut s1, mut s2, mut client) =
            setup(200, 16, ImPirConfig::tiny_test(4).with_clusters(2));
        let mut updates: Vec<(u64, Vec<u8>)> =
            (10u64..18).map(|i| (i, vec![i as u8; 16])).collect();
        updates.push((150, vec![0x99; 16]));

        let batches_before = s1.pim_report().transfers.host_to_dpu_batches;
        let outcome = s1.apply_updates(&updates).unwrap();
        let batches_after = s1.pim_report().transfers.host_to_dpu_batches;

        // Byte counts are unchanged by coalescing: every cluster still
        // receives every updated record exactly once.
        assert_eq!(outcome.bytes_pushed, 2 * 9 * 16);
        // ...but the adjacent run becomes a single transfer per DPU per
        // cluster: (1 run + 1 single) × 2 clusters, not 9 × 2 pushes.
        assert_eq!(batches_after - batches_before, 4);

        // Coalesced transfers land the same contents as per-record pushes.
        s2.apply_updates(&updates).unwrap();
        for (index, bytes) in &updates {
            let (q1, q2) = client.generate_query(*index).unwrap();
            let (r1, _) = s1.process_query(&q1).unwrap();
            let (r2, _) = s2.process_query(&q2).unwrap();
            assert_eq!(client.reconstruct(&r1, &r2).unwrap(), bytes.as_slice());
        }
    }

    #[test]
    fn duplicate_update_indices_resolve_to_the_last_entry() {
        let (_, mut s1, mut s2, mut client) = setup(64, 8, ImPirConfig::tiny_test(2));
        let updates: Vec<(u64, Vec<u8>)> =
            vec![(5, vec![0x01; 8]), (6, vec![0x02; 8]), (5, vec![0x03; 8])];
        let outcome = s1.apply_updates(&updates).unwrap();
        s2.apply_updates(&updates).unwrap();
        assert_eq!(outcome.records_updated, 3);
        // Two distinct records pushed once each (5 and 6 are adjacent on
        // one DPU, so they coalesce into a single 16-byte transfer).
        assert_eq!(outcome.bytes_pushed, 2 * 8);
        assert_eq!(s1.database().record(5), &[0x03; 8]);
        let (q1, q2) = client.generate_query(5).unwrap();
        let (r1, _) = s1.process_query(&q1).unwrap();
        let (r2, _) = s2.process_query(&q2).unwrap();
        assert_eq!(client.reconstruct(&r1, &r2).unwrap(), vec![0x03; 8]);
    }

    #[test]
    fn invalid_updates_are_rejected_atomically() {
        let (_, mut s1, _, _) = setup(50, 8, ImPirConfig::tiny_test(2));
        let bad_index = vec![(60u64, vec![0u8; 8])];
        assert!(matches!(
            s1.apply_updates(&bad_index),
            Err(PirError::IndexOutOfRange { .. })
        ));
        let bad_size = vec![(1u64, vec![0u8; 4])];
        assert!(matches!(
            s1.apply_updates(&bad_size),
            Err(PirError::RecordSizeMismatch { .. })
        ));
    }

    #[test]
    fn pim_report_accumulates_activity() {
        let (_, mut s1, _, mut client) = setup(64, 16, ImPirConfig::tiny_test(2));
        let before = s1.pim_report();
        let (q1, _) = client.generate_query(3).unwrap();
        s1.process_query(&q1).unwrap();
        let after = s1.pim_report();
        assert!(after.launches > before.launches);
        assert!(after.transfers.host_to_dpu_bytes > before.transfers.host_to_dpu_bytes);
        s1.reset_pim_report();
        assert_eq!(s1.pim_report().launches, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn prop_pim_retrieval_is_correct(
            num_records in 2u64..400,
            record_words in 1usize..4,
            dpus in 1usize..7,
            clusters in 1usize..4,
            seed in any::<u64>(),
        ) {
            prop_assume!(clusters <= dpus);
            let record_size = record_words * 8;
            let db = Arc::new(Database::random(num_records, record_size, seed).unwrap());
            let config = ImPirConfig::tiny_test(dpus).with_clusters(clusters);
            let mut s1 = ImPirServer::new(db.clone(), config.clone()).unwrap();
            let mut s2 = ImPirServer::new(db.clone(), config).unwrap();
            let mut client = PirClient::new(num_records, record_size, seed ^ 3).unwrap();
            let index = seed % num_records;
            let (q1, q2) = client.generate_query(index).unwrap();
            let cluster = (seed as usize) % clusters;
            let (r1, _) = s1.process_query_on_cluster(cluster, &q1).unwrap();
            let (r2, _) = s2.process_query_on_cluster(cluster, &q2).unwrap();
            prop_assert_eq!(client.reconstruct(&r1, &r2).unwrap(), db.record(index));
        }
    }
}
