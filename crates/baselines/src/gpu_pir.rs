//! GPU-PIR: the GPU-accelerated DPF-PIR comparator (paper §5.5).
//!
//! The paper compares IM-PIR against the GPU DPF-PIR of Lam et al.
//! (ASPLOS'24), executed on an NVIDIA RTX 4090. That system evaluates the
//! DPF with a *memory-bounded tree traversal* (chunked level-by-level
//! expansion, bounding intermediate memory) and performs the
//! selector-weighted XOR with massively parallel reductions over VRAM.
//!
//! This reproduction has no GPU, so — per the substitution rule in
//! `DESIGN.md` — the baseline is **functionally** executed on host threads
//! using exactly those algorithmic choices (memory-bounded traversal +
//! parallel scan), while its **reported hardware time** comes from the
//! calibrated RTX 4090 device model in [`impir_perf`]. Functional output is
//! bit-identical to the other backends, which the equivalence tests check.

use std::sync::Arc;

use impir_core::engine::{EngineConfig, QueryEngine};
use impir_core::server::cpu::{CpuPirServer, CpuServerConfig};
use impir_core::server::phases::{PhaseBreakdown, PhaseTime};
use impir_core::server::BatchOutcome;
use impir_core::{BatchConfig, Database, PirError, QueryShare};
use impir_dpf::EvalStrategy;
use impir_perf::model::{BatchEstimate, PirWorkload};
use impir_perf::DeviceProfile;

use crate::sut::SystemUnderTest;

/// The GPU-PIR comparator.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use impir_baselines::{GpuPirBaseline, SystemUnderTest};
/// use impir_core::{Database, PirClient};
///
/// let db = Arc::new(Database::random(64, 32, 4)?);
/// let mut gpu = GpuPirBaseline::new(db)?;
/// let mut client = PirClient::new(64, 32, 0)?;
/// let (shares, _) = client.generate_batch(&[7])?;
/// let outcome = gpu.process_batch(&shares)?;
/// // The phase totals carry the modelled GPU time alongside measured time.
/// assert!(outcome.phase_totals.dpxor.simulated_seconds.is_some());
/// # Ok::<(), impir_core::PirError>(())
/// ```
#[derive(Debug)]
pub struct GpuPirBaseline {
    engine: QueryEngine<CpuPirServer>,
    database: Arc<Database>,
    profile: DeviceProfile,
}

impl GpuPirBaseline {
    /// Builds the GPU-PIR comparator over `database`.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn new(database: Arc<Database>) -> Result<Self, PirError> {
        // Memory-bounded traversal (the GPU paper's evaluation strategy);
        // the scan's reported time comes from the device model.
        let eval_strategy = EvalStrategy::MemoryBounded {
            chunk_bits: impir_dpf::parallel::DEFAULT_CHUNK_BITS,
        };
        let config = CpuServerConfig { eval_strategy };
        // The GPU serialises queries on the device; a single evaluation
        // worker mirrors that in the engine pipeline.
        let engine_config = EngineConfig::new(BatchConfig::with_workers(1)?, eval_strategy)?;
        let server = CpuPirServer::new(Arc::clone(&database), config)?;
        Ok(GpuPirBaseline {
            engine: QueryEngine::single(server, engine_config)?,
            database,
            profile: DeviceProfile::gpu_rtx_4090(),
        })
    }

    /// The GPU device profile driving the modelled timings.
    #[must_use]
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Attaches modelled GPU phase times to a functional outcome: the
    /// workload actually processed is re-timed with the RTX 4090 model.
    fn attach_model(&self, outcome: &mut BatchOutcome, queries: usize) {
        let workload = PirWorkload::new(
            self.database.size_bytes(),
            self.database.record_size() as u64,
            queries.max(1),
        );
        let per_query = impir_perf::model::gpu_pir_query(&self.profile, &workload);
        let queries = queries.max(1) as f64;
        let eval_wall = outcome.phase_totals.eval.wall_seconds;
        let dpxor_wall = outcome.phase_totals.dpxor.wall_seconds;
        outcome.phase_totals = PhaseBreakdown {
            eval: PhaseTime::pim(eval_wall, per_query.eval_seconds * queries),
            copy_to_pim: PhaseTime::pim(0.0, per_query.transfer_seconds * queries),
            dpxor: PhaseTime::pim(dpxor_wall, per_query.dpxor_seconds * queries),
            copy_from_pim: PhaseTime::zero(),
            aggregate: PhaseTime::zero(),
        };
    }
}

impl SystemUnderTest for GpuPirBaseline {
    fn label(&self) -> &'static str {
        "GPU-PIR"
    }

    fn num_records(&self) -> u64 {
        self.engine.num_records()
    }

    fn record_size(&self) -> usize {
        self.engine.record_size()
    }

    fn process_batch(&mut self, shares: &[QueryShare]) -> Result<BatchOutcome, PirError> {
        // Functionally executed through the engine (single worker — the
        // GPU serialises queries on the device), then re-timed with the
        // RTX 4090 device model.
        let mut outcome = self.engine.execute_batch(shares)?;
        self.attach_model(&mut outcome, shares.len());
        Ok(outcome)
    }

    fn model_batch(&self, workload: &PirWorkload) -> BatchEstimate {
        impir_perf::model::gpu_pir_batch(&self.profile, workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impir_core::PirClient;

    #[test]
    fn gpu_baseline_answers_match_the_database() {
        let db = Arc::new(Database::random(200, 16, 9).unwrap());
        let mut gpu_1 = GpuPirBaseline::new(db.clone()).unwrap();
        let mut gpu_2 = GpuPirBaseline::new(db.clone()).unwrap();
        let mut client = PirClient::new(200, 16, 2).unwrap();
        let indices = [5u64, 42, 199];
        let (shares_1, shares_2) = client.generate_batch(&indices).unwrap();
        let outcome_1 = gpu_1.process_batch(&shares_1).unwrap();
        let outcome_2 = gpu_2.process_batch(&shares_2).unwrap();
        for (i, index) in indices.iter().enumerate() {
            let record = client
                .reconstruct(&outcome_1.responses[i], &outcome_2.responses[i])
                .unwrap();
            assert_eq!(record, db.record(*index));
        }
    }

    #[test]
    fn modelled_times_are_attached_and_scale_with_batch() {
        let db = Arc::new(Database::random(64, 32, 0).unwrap());
        let mut gpu = GpuPirBaseline::new(db).unwrap();
        let mut client = PirClient::new(64, 32, 0).unwrap();
        let (one, _) = client.generate_batch(&[1]).unwrap();
        let (four, _) = client.generate_batch(&[1, 2, 3, 4]).unwrap();
        let outcome_one = gpu.process_batch(&one).unwrap();
        let outcome_four = gpu.process_batch(&four).unwrap();
        let sim_one = outcome_one.phase_totals.total_hybrid_seconds();
        let sim_four = outcome_four.phase_totals.total_hybrid_seconds();
        assert!(sim_four > sim_one);
    }

    #[test]
    fn paper_scale_model_orders_gpu_between_cpu_and_pim() {
        let db = Arc::new(Database::random(16, 32, 0).unwrap());
        let gpu = GpuPirBaseline::new(db.clone()).unwrap();
        let cpu = crate::CpuPirBaseline::new(db).unwrap();
        let workload = PirWorkload::new(1 << 30, 32, 32);
        let gpu_latency = gpu.model_batch(&workload).latency_seconds;
        let cpu_latency = cpu.model_batch(&workload).latency_seconds;
        assert!(gpu_latency < cpu_latency);
    }
}
