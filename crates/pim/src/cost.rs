//! Analytic cost model translating metered work into UPMEM wall-clock time.
//!
//! The functional simulator executes kernels on the host, so its own
//! wall-clock says nothing about UPMEM hardware. Instead, every transfer
//! and launch is metered (bytes moved, MRAM traffic, instructions) and this
//! model converts the meters into seconds using the published UPMEM
//! parameters carried by [`PimConfig`]:
//!
//! * host↔DPU copies move at the configured rank-parallel bandwidth plus a
//!   fixed per-batch latency;
//! * a kernel's runtime on one DPU is the *maximum* of its MRAM streaming
//!   time (traffic / per-DPU DMA bandwidth) and its pipeline time
//!   (instructions / (frequency × IPC × pipeline-utilisation)) — the
//!   standard bound for a machine where DMA and compute overlap;
//! * a launch across many DPUs completes when its slowest DPU does, plus a
//!   fixed launch latency.
//!
//! For `dpXOR`-style streaming kernels the MRAM term dominates, which is
//! exactly the regime the paper exploits.

use crate::config::PimConfig;
use crate::stats::KernelMeter;

/// Converts [`KernelMeter`]s and transfer sizes into simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    config: PimConfig,
}

impl CostModel {
    /// Creates a cost model for `config`.
    #[must_use]
    pub fn new(config: PimConfig) -> Self {
        CostModel { config }
    }

    /// The configuration backing this model.
    #[must_use]
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Seconds to push `bytes` from the host into DPU MRAM (one batch).
    #[must_use]
    pub fn host_to_dpu_seconds(&self, bytes: u64) -> f64 {
        self.config.transfer_latency_sec
            + bytes as f64 / self.config.host_to_dpu_bandwidth_bytes_per_sec
    }

    /// Seconds to gather `bytes` from DPU MRAM back to the host (one batch).
    #[must_use]
    pub fn dpu_to_host_seconds(&self, bytes: u64) -> f64 {
        self.config.transfer_latency_sec
            + bytes as f64 / self.config.dpu_to_host_bandwidth_bytes_per_sec
    }

    /// Seconds one DPU spends executing a kernel that performed the work in
    /// `meter`.
    #[must_use]
    pub fn dpu_kernel_seconds(&self, meter: &KernelMeter) -> f64 {
        let dma_seconds = meter.mram_traffic() as f64 / self.config.mram_bandwidth_bytes_per_sec;
        let effective_ips = f64::from(self.config.frequency_mhz)
            * 1e6
            * self.config.instructions_per_cycle
            * self.config.pipeline_utilisation();
        let pipeline_seconds = meter.instructions as f64 / effective_ips;
        dma_seconds.max(pipeline_seconds)
    }

    /// Seconds for a launch whose per-DPU meters are `meters` (the DPUs run
    /// in parallel; the launch completes when the slowest one does).
    #[must_use]
    pub fn launch_seconds(&self, meters: &[KernelMeter]) -> f64 {
        let critical_path = meters
            .iter()
            .map(|meter| self.dpu_kernel_seconds(meter))
            .fold(0.0f64, f64::max);
        self.config.launch_latency_sec + critical_path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(PimConfig::paper_server())
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let model = model();
        let small = model.host_to_dpu_seconds(1 << 10);
        let large = model.host_to_dpu_seconds(1 << 30);
        assert!(large > small);
        // A 1 GiB push at 6.5 GB/s is on the order of 0.17 s.
        assert!(large > 0.1 && large < 0.3, "{large}");
    }

    #[test]
    fn streaming_kernel_is_mram_bound() {
        let model = model();
        // Streaming 32 MiB of MRAM with one instruction per 8 bytes.
        let meter = KernelMeter {
            mram_bytes_read: 32 << 20,
            mram_bytes_written: 0,
            instructions: (32 << 20) / 8,
        };
        let seconds = model.dpu_kernel_seconds(&meter);
        let dma_only = (32u64 << 20) as f64 / 700.0e6;
        assert!((seconds - dma_only).abs() / dma_only < 1e-9);
    }

    #[test]
    fn compute_heavy_kernel_is_pipeline_bound() {
        let model = model();
        let meter = KernelMeter {
            mram_bytes_read: 8,
            mram_bytes_written: 0,
            instructions: 350_000_000, // one second of pipeline work at 350 MHz
        };
        let seconds = model.dpu_kernel_seconds(&meter);
        assert!(seconds > 0.9, "{seconds}");
    }

    #[test]
    fn launch_takes_the_critical_path() {
        let model = model();
        let light = KernelMeter {
            mram_bytes_read: 1 << 10,
            ..Default::default()
        };
        let heavy = KernelMeter {
            mram_bytes_read: 1 << 25,
            ..Default::default()
        };
        let launch = model.launch_seconds(&[light, heavy, light]);
        assert!(launch >= model.dpu_kernel_seconds(&heavy));
        assert!(launch < model.dpu_kernel_seconds(&heavy) + 1e-3);
    }

    #[test]
    fn empty_launch_costs_only_latency() {
        let model = model();
        let launch = model.launch_seconds(&[]);
        assert!((launch - model.config().launch_latency_sec).abs() < 1e-12);
    }

    #[test]
    fn fewer_tasklets_slow_down_pipeline_bound_kernels() {
        let mut config = PimConfig::paper_server();
        config.tasklets_per_dpu = 4;
        let starved = CostModel::new(config);
        let saturated = model();
        let meter = KernelMeter {
            mram_bytes_read: 0,
            mram_bytes_written: 0,
            instructions: 1_000_000,
        };
        assert!(starved.dpu_kernel_seconds(&meter) > saturated.dpu_kernel_seconds(&meter));
    }
}
