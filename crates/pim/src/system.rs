//! The host-side view of a PIM system: DPU allocation, transfers, launches.
//!
//! Mirrors the UPMEM SDK's host API surface (allocate a DPU set, push/
//! broadcast/gather MRAM buffers, launch the DPU binary, read results)
//! while metering every operation so the [`crate::cost::CostModel`] can
//! attribute simulated hardware time to it.

use std::ops::Range;

use crate::config::PimConfig;
use crate::cost::CostModel;
use crate::error::PimError;
use crate::kernel::{DpuContext, DpuProgram, TaskletContext};
use crate::mram::Mram;
use crate::stats::{ExecutionReport, KernelMeter, LaunchOutcome, TransferOutcome, TransferStats};

/// Identifier of a DPU within an allocated set.
pub type DpuId = usize;

/// What one DPU produces during a launch: its kernel output plus the work
/// meter the cost model prices.
type DpuRun<O> = (O, KernelMeter);

/// One simulated DPU: an id plus its private MRAM bank.
#[derive(Debug)]
struct Dpu {
    mram: Mram,
}

/// A simulated UPMEM PIM system (an allocated set of DPUs).
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug)]
pub struct PimSystem {
    config: PimConfig,
    cost: CostModel,
    dpus: Vec<Dpu>,
    report: ExecutionReport,
    /// Host threads a launch may spread its DPUs over, read once here:
    /// `available_parallelism` is a syscall plus cgroup file reads
    /// (≈14 µs), and every query wave launches at least once.
    host_workers: usize,
}

impl PimSystem {
    /// Allocates a simulated PIM system according to `config`.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`] if the configuration is
    /// inconsistent.
    pub fn new(config: PimConfig) -> Result<Self, PimError> {
        config.validate()?;
        let dpus = (0..config.dpus)
            .map(|id| Dpu {
                mram: Mram::new(id, config.mram_bytes_per_dpu),
            })
            .collect();
        Ok(PimSystem {
            cost: CostModel::new(config.clone()),
            config,
            dpus,
            report: ExecutionReport::default(),
            host_workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        })
    }

    /// The configuration this system was allocated with.
    #[must_use]
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Number of allocated DPUs.
    #[must_use]
    pub fn dpu_count(&self) -> usize {
        self.dpus.len()
    }

    /// The range covering every allocated DPU.
    #[must_use]
    pub fn all_dpus(&self) -> Range<DpuId> {
        0..self.dpus.len()
    }

    /// The cost model attached to this system.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Cumulative report of all simulated activity since the last
    /// [`PimSystem::reset_report`].
    #[must_use]
    pub fn report(&self) -> ExecutionReport {
        self.report
    }

    /// Clears the cumulative report.
    pub fn reset_report(&mut self) {
        self.report = ExecutionReport::default();
    }

    fn check_range(&self, dpus: &Range<DpuId>) -> Result<(), PimError> {
        if dpus.end > self.dpus.len() || dpus.start > dpus.end {
            return Err(PimError::InvalidDpu {
                dpu: dpus.end.saturating_sub(1),
                allocated: self.dpus.len(),
            });
        }
        Ok(())
    }

    /// Pushes `bytes` into one DPU's MRAM at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidDpu`] for an unknown DPU or an MRAM
    /// capacity error from the target bank.
    pub fn push_to_dpu(
        &mut self,
        dpu: DpuId,
        offset: usize,
        bytes: &[u8],
    ) -> Result<TransferOutcome, PimError> {
        let allocated = self.dpus.len();
        let bank = self
            .dpus
            .get_mut(dpu)
            .ok_or(PimError::InvalidDpu { dpu, allocated })?;
        bank.mram.write(offset, bytes)?;
        Ok(self.account_push(bytes.len() as u64))
    }

    /// Scatters one buffer per DPU (over the whole system) at `offset`.
    ///
    /// This is the "serial/parallel transfer" of the UPMEM SDK used to load
    /// per-DPU database chunks (§3.3, database preloading).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::TransferShapeMismatch`] if the number of buffers
    /// differs from the number of DPUs, or an MRAM error from any bank.
    pub fn scatter_to_mram(
        &mut self,
        offset: usize,
        buffers: &[Vec<u8>],
    ) -> Result<TransferOutcome, PimError> {
        self.scatter_to_mram_range(self.all_dpus(), offset, buffers)
    }

    /// Scatters one buffer per DPU of `dpus` (a contiguous range, e.g. one
    /// cluster) at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::TransferShapeMismatch`] if the number of buffers
    /// differs from the size of the range, [`PimError::InvalidDpu`] if the
    /// range is out of bounds, or an MRAM error from any bank.
    pub fn scatter_to_mram_range(
        &mut self,
        dpus: Range<DpuId>,
        offset: usize,
        buffers: &[Vec<u8>],
    ) -> Result<TransferOutcome, PimError> {
        self.check_range(&dpus)?;
        if buffers.len() != dpus.len() {
            return Err(PimError::TransferShapeMismatch {
                buffers: buffers.len(),
                dpus: dpus.len(),
            });
        }
        let mut bytes = 0u64;
        for (dpu, buffer) in dpus.clone().zip(buffers) {
            self.dpus[dpu].mram.write(offset, buffer)?;
            bytes += buffer.len() as u64;
        }
        Ok(self.account_push(bytes))
    }

    /// Copies the same buffer into every DPU of `dpus` at `offset` (the
    /// SDK's broadcast transfer).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidDpu`] if the range is out of bounds or an
    /// MRAM error from any bank.
    pub fn broadcast_to_mram(
        &mut self,
        dpus: Range<DpuId>,
        offset: usize,
        bytes: &[u8],
    ) -> Result<TransferOutcome, PimError> {
        self.check_range(&dpus)?;
        for dpu in dpus.clone() {
            self.dpus[dpu].mram.write(offset, bytes)?;
        }
        Ok(self.account_push(bytes.len() as u64 * dpus.len() as u64))
    }

    /// Gathers `len` bytes at `offset` from every DPU of `dpus`.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidDpu`] if the range is out of bounds or an
    /// MRAM error from any bank.
    pub fn gather_from_mram(
        &mut self,
        dpus: Range<DpuId>,
        offset: usize,
        len: usize,
    ) -> Result<(Vec<Vec<u8>>, TransferOutcome), PimError> {
        self.check_range(&dpus)?;
        let mut buffers = Vec::with_capacity(dpus.len());
        for dpu in dpus.clone() {
            buffers.push(self.dpus[dpu].mram.read(offset, len)?.to_vec());
        }
        let outcome = self.account_gather(len as u64 * dpus.len() as u64);
        Ok((buffers, outcome))
    }

    /// Launches `program` on every allocated DPU.
    ///
    /// # Errors
    ///
    /// Propagates the first kernel or context error reported by any DPU.
    pub fn launch_all<P: DpuProgram>(
        &mut self,
        program: &P,
    ) -> Result<LaunchOutcome<P::DpuOutput>, PimError> {
        self.launch(self.all_dpus(), program)
    }

    /// Launches `program` on the DPUs of `dpus` (e.g. one cluster).
    ///
    /// Each DPU runs `tasklets_per_dpu` tasklet invocations (stage 1)
    /// followed by the master-tasklet reduction (stage 2). DPUs execute in
    /// parallel on real host threads (contiguous DPU chunks, one scoped
    /// thread each except the last, which runs on the calling thread — a
    /// one-chunk launch spawns nothing), mirroring hardware DPU-level
    /// parallelism; results and meters come back in DPU id order
    /// regardless of worker scheduling, and on error the lowest-id failing
    /// chunk wins, so the fan-out is observationally identical to a
    /// sequential launch.
    ///
    /// Simulated time is unaffected by the host-side parallelism: the
    /// launch's modelled seconds remain the **critical path** over the
    /// per-DPU kernel meters ([`CostModel::launch_seconds`]), never a sum
    /// over host workers.
    ///
    /// # Errors
    ///
    /// Propagates the first kernel or context error reported by any DPU.
    pub fn launch<P: DpuProgram>(
        &mut self,
        dpus: Range<DpuId>,
        program: &P,
    ) -> Result<LaunchOutcome<P::DpuOutput>, PimError> {
        self.check_range(&dpus)?;
        let tasklets = self.config.tasklets_per_dpu;
        let wram_per_tasklet = self.config.wram_bytes_per_dpu / tasklets.max(1);

        let range_start = dpus.start;
        let selected = &mut self.dpus[dpus.clone()];
        let run_dpu = |dpu_id: DpuId, dpu: &mut Dpu| -> Result<DpuRun<P::DpuOutput>, PimError> {
            let mut meter = KernelMeter::default();
            let mut partials = Vec::with_capacity(tasklets);
            for tasklet in 0..tasklets {
                let mut ctx =
                    TaskletContext::new(dpu_id, tasklet, tasklets, &dpu.mram, wram_per_tasklet);
                let partial = program.run_tasklet(&mut ctx)?;
                meter.merge(&ctx.meter());
                partials.push(partial);
            }
            let mut ctx = DpuContext::new(dpu_id, &mut dpu.mram);
            let output = program.reduce(&mut ctx, partials)?;
            meter.merge(&ctx.meter());
            Ok((output, meter))
        };

        // Contiguous chunks keep the id→result mapping trivial; the
        // per-chunk result vectors concatenate back in DPU order.
        let chunk = selected.len().div_ceil(self.host_workers).max(1);
        let run_chunk = |(worker, dpu_chunk): (usize, &mut [Dpu])| {
            dpu_chunk
                .iter_mut()
                .enumerate()
                .map(|(index, dpu)| run_dpu(range_start + worker * chunk + index, dpu))
                .collect::<Result<Vec<DpuRun<P::DpuOutput>>, PimError>>()
        };
        let mut chunks: Vec<_> = selected.chunks_mut(chunk).enumerate().collect();
        let last = chunks.pop();
        let mut per_dpu = Vec::with_capacity(dpus.len());
        std::thread::scope(|scope| {
            let helpers: Vec<_> = chunks
                .into_iter()
                .map(|dpu_chunk| scope.spawn(|| run_chunk(dpu_chunk)))
                .collect();
            let last = last.map(run_chunk);
            for chunk_result in helpers
                .into_iter()
                .map(|helper| helper.join().expect("DPU launch worker panicked"))
                .chain(last)
            {
                per_dpu.extend(chunk_result?);
            }
            Ok::<(), PimError>(())
        })?;

        let (results, meters): (Vec<_>, Vec<_>) = per_dpu.into_iter().unzip();
        let simulated_seconds = self.cost.launch_seconds(&meters);

        self.report.launches += 1;
        self.report.simulated_kernel_seconds += simulated_seconds;
        let mut total = KernelMeter::default();
        for meter in &meters {
            total.merge(meter);
        }
        self.report.kernels.merge(&total);

        Ok(LaunchOutcome {
            results,
            meters,
            simulated_seconds,
        })
    }

    fn account_push(&mut self, bytes: u64) -> TransferOutcome {
        let simulated_seconds = self.cost.host_to_dpu_seconds(bytes);
        self.report.transfers.host_to_dpu_bytes += bytes;
        self.report.transfers.host_to_dpu_batches += 1;
        self.report.simulated_transfer_seconds += simulated_seconds;
        TransferOutcome {
            bytes,
            simulated_seconds,
        }
    }

    fn account_gather(&mut self, bytes: u64) -> TransferOutcome {
        let simulated_seconds = self.cost.dpu_to_host_seconds(bytes);
        self.report.transfers.dpu_to_host_bytes += bytes;
        self.report.transfers.dpu_to_host_batches += 1;
        self.report.simulated_transfer_seconds += simulated_seconds;
        TransferOutcome {
            bytes,
            simulated_seconds,
        }
    }

    /// Raw transfer counters accumulated so far.
    #[must_use]
    pub fn transfer_stats(&self) -> TransferStats {
        self.report.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// XORs all 8-byte words of each DPU's first `bytes` MRAM bytes.
    struct XorWordsKernel {
        bytes: usize,
    }

    impl DpuProgram for XorWordsKernel {
        type TaskletOutput = u64;
        type DpuOutput = u64;

        fn run_tasklet(&self, ctx: &mut TaskletContext<'_>) -> Result<u64, PimError> {
            let words = self.bytes / 8;
            let (start, count) = ctx.partition(words);
            if count == 0 {
                return Ok(0);
            }
            let data = ctx.mram_read(start * 8, count * 8)?;
            let mut acc = 0u64;
            for chunk in data.chunks_exact(8) {
                acc ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            Ok(acc)
        }

        fn reduce(&self, _ctx: &mut DpuContext<'_>, partials: Vec<u64>) -> Result<u64, PimError> {
            Ok(partials.into_iter().fold(0, |acc, p| acc ^ p))
        }
    }

    fn filled_system(dpus: usize, bytes_per_dpu: usize) -> (PimSystem, Vec<Vec<u8>>) {
        let config = PimConfig::tiny_test(dpus, 1 << 20);
        let mut system = PimSystem::new(config).unwrap();
        let buffers: Vec<Vec<u8>> = (0..dpus)
            .map(|d| {
                (0..bytes_per_dpu)
                    .map(|i| ((d * 31 + i * 7) % 256) as u8)
                    .collect()
            })
            .collect();
        system.scatter_to_mram(0, &buffers).unwrap();
        (system, buffers)
    }

    fn reference_xor(buffer: &[u8]) -> u64 {
        buffer
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .fold(0, |acc, w| acc ^ w)
    }

    #[test]
    fn scatter_launch_gather_roundtrip() {
        let (mut system, buffers) = filled_system(4, 256);
        let outcome = system.launch_all(&XorWordsKernel { bytes: 256 }).unwrap();
        assert_eq!(outcome.results.len(), 4);
        for (result, buffer) in outcome.results.iter().zip(&buffers) {
            assert_eq!(*result, reference_xor(buffer));
        }
        // The kernel streamed every DPU's 256 bytes from MRAM.
        assert!(outcome
            .meters
            .iter()
            .all(|meter| meter.mram_bytes_read == 256));
        assert!(outcome.simulated_seconds > 0.0);
    }

    #[test]
    fn launch_on_sub_range_only_touches_that_cluster() {
        let (mut system, buffers) = filled_system(8, 64);
        let outcome = system.launch(2..5, &XorWordsKernel { bytes: 64 }).unwrap();
        assert_eq!(outcome.results.len(), 3);
        for (i, result) in outcome.results.iter().enumerate() {
            assert_eq!(*result, reference_xor(&buffers[2 + i]));
        }
    }

    #[test]
    fn scatter_shape_mismatch_is_rejected() {
        let config = PimConfig::tiny_test(4, 1024);
        let mut system = PimSystem::new(config).unwrap();
        let err = system
            .scatter_to_mram(0, &vec![vec![0u8; 8]; 3])
            .unwrap_err();
        assert!(matches!(
            err,
            PimError::TransferShapeMismatch {
                buffers: 3,
                dpus: 4
            }
        ));
    }

    #[test]
    fn invalid_ranges_are_rejected() {
        let config = PimConfig::tiny_test(4, 1024);
        let mut system = PimSystem::new(config).unwrap();
        assert!(system.launch(2..5, &XorWordsKernel { bytes: 0 }).is_err());
        assert!(system.broadcast_to_mram(0..5, 0, &[0u8; 4]).is_err());
        assert!(system.push_to_dpu(4, 0, &[1]).is_err());
    }

    #[test]
    fn broadcast_and_gather_roundtrip() {
        let config = PimConfig::tiny_test(3, 1024);
        let mut system = PimSystem::new(config).unwrap();
        system.broadcast_to_mram(0..3, 16, &[0xab; 32]).unwrap();
        let (buffers, outcome) = system.gather_from_mram(0..3, 16, 32).unwrap();
        assert_eq!(buffers, vec![vec![0xab; 32]; 3]);
        assert_eq!(outcome.bytes, 96);
    }

    #[test]
    fn mram_capacity_is_enforced_through_transfers() {
        let config = PimConfig::tiny_test(1, 128);
        let mut system = PimSystem::new(config).unwrap();
        assert!(matches!(
            system.push_to_dpu(0, 120, &[0u8; 16]),
            Err(PimError::MramCapacityExceeded { .. })
        ));
    }

    #[test]
    fn report_accumulates_and_resets() {
        let (mut system, _) = filled_system(2, 64);
        system.launch_all(&XorWordsKernel { bytes: 64 }).unwrap();
        let report = system.report();
        assert_eq!(report.launches, 1);
        assert!(report.transfers.host_to_dpu_bytes >= 128);
        assert!(report.simulated_total_seconds() > 0.0);
        system.reset_report();
        assert_eq!(system.report(), ExecutionReport::default());
    }

    #[test]
    fn parallel_launch_keeps_dpu_order_and_critical_path_accounting() {
        // The DPU fan-out runs on several host threads; neither the result
        // order nor the simulated-time accounting may depend on that. Use
        // more DPUs than typical core counts so the chunking really splits.
        let (mut system, buffers) = filled_system(37, 64);
        let outcome = system.launch_all(&XorWordsKernel { bytes: 64 }).unwrap();
        // Results in DPU id order.
        for (result, buffer) in outcome.results.iter().zip(&buffers) {
            assert_eq!(*result, reference_xor(buffer));
        }
        // Simulated time is the critical path over the per-DPU meters (plus
        // launch latency) — exactly what the cost model derives from the
        // meters, never a sum over host workers.
        let expected = system.cost_model().launch_seconds(&outcome.meters);
        assert!((outcome.simulated_seconds - expected).abs() < 1e-15);
        let summed: f64 = outcome
            .meters
            .iter()
            .map(|meter| system.cost_model().dpu_kernel_seconds(meter))
            .sum();
        assert!(
            outcome.simulated_seconds - system.config().launch_latency_sec < summed / 2.0,
            "critical path must not degenerate into a sum across 37 DPUs"
        );
    }

    /// Reports which host thread ran each DPU.
    struct WhoRanMe;

    impl DpuProgram for WhoRanMe {
        type TaskletOutput = ();
        type DpuOutput = std::thread::ThreadId;

        fn run_tasklet(&self, _ctx: &mut TaskletContext<'_>) -> Result<(), PimError> {
            Ok(())
        }

        fn reduce(
            &self,
            _ctx: &mut DpuContext<'_>,
            _partials: Vec<()>,
        ) -> Result<std::thread::ThreadId, PimError> {
            Ok(std::thread::current().id())
        }
    }

    #[test]
    fn the_last_dpu_chunk_runs_on_the_launching_thread() {
        let mut system = PimSystem::new(PimConfig::tiny_test(37, 1024)).unwrap();
        let caller = std::thread::current().id();
        // One DPU is one chunk: nothing is spawned, whatever the host.
        assert_eq!(system.launch(5..6, &WhoRanMe).unwrap().results, [caller]);
        assert!(system.launch(5..5, &WhoRanMe).unwrap().results.is_empty());
        let everywhere = system.launch_all(&WhoRanMe).unwrap().results;
        assert_eq!(everywhere.last(), Some(&caller));
        let helpers: std::collections::HashSet<_> =
            everywhere.iter().filter(|id| **id != caller).collect();
        let chunks = 37usize.div_ceil(37usize.div_ceil(system.host_workers));
        assert_eq!(helpers.len(), chunks - 1);
    }

    #[test]
    fn more_dpus_reduce_simulated_kernel_time_for_fixed_total_data() {
        // Same total data split over more DPUs ⇒ shorter critical path.
        let total_bytes = 1 << 16;
        let few = {
            let (mut system, _) = filled_system(2, total_bytes / 2);
            system
                .launch_all(&XorWordsKernel {
                    bytes: total_bytes / 2,
                })
                .unwrap()
                .simulated_seconds
        };
        let many = {
            let (mut system, _) = filled_system(16, total_bytes / 16);
            system
                .launch_all(&XorWordsKernel {
                    bytes: total_bytes / 16,
                })
                .unwrap()
                .simulated_seconds
        };
        assert!(many < few, "many={many} few={few}");
    }
}
