//! UPMEM PIM system configuration.
//!
//! The defaults correspond to the server used in the paper's evaluation
//! (§5.2): 20 PIM-enabled modules totalling 2560 DPUs at 350 MHz, 64 MB of
//! MRAM and 64 KB of WRAM per DPU, ≈700 MB/s of MRAM↔WRAM DMA bandwidth per
//! DPU, and 16 tasklets per DPU (≥11 are needed to saturate the pipeline).
//! The experiments use 2048 of the 2560 DPUs "because it is easier to work
//! with powers of two".

use crate::error::PimError;

/// Number of DPUs per PIM chip in the UPMEM architecture.
pub const DPUS_PER_CHIP: usize = 8;
/// Number of PIM chips per rank.
pub const CHIPS_PER_RANK: usize = 8;
/// Number of ranks per PIM DIMM.
pub const RANKS_PER_MODULE: usize = 2;
/// Number of DPUs per PIM DIMM (8 GB module → 128 DPUs).
pub const DPUS_PER_MODULE: usize = DPUS_PER_CHIP * CHIPS_PER_RANK * RANKS_PER_MODULE;
/// Hardware limit on tasklets (hardware threads) per DPU.
pub const MAX_TASKLETS: usize = 24;
/// Tasklet count needed to fully utilise the DPU pipeline (PrIM, [47, 84]).
pub const PIPELINE_SATURATION_TASKLETS: usize = 11;

/// Configuration of a simulated UPMEM PIM system.
///
/// # Example
///
/// ```
/// use impir_pim::PimConfig;
///
/// let paper = PimConfig::paper_server();
/// assert_eq!(paper.dpus, 2048);
/// assert_eq!(paper.mram_bytes_per_dpu, 64 * 1024 * 1024);
/// paper.validate()?;
/// # Ok::<(), impir_pim::PimError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PimConfig {
    /// Number of DPUs allocated to the application.
    pub dpus: usize,
    /// MRAM capacity per DPU, in bytes (64 MB on UPMEM hardware).
    pub mram_bytes_per_dpu: usize,
    /// WRAM capacity per DPU, in bytes (64 KB on UPMEM hardware).
    pub wram_bytes_per_dpu: usize,
    /// IRAM capacity per DPU, in bytes (24 KB on UPMEM hardware).
    pub iram_bytes_per_dpu: usize,
    /// Number of tasklets (software threads) launched per DPU.
    pub tasklets_per_dpu: usize,
    /// DPU clock frequency in MHz (350 or 400 on current hardware).
    pub frequency_mhz: u32,
    /// Sustained MRAM↔WRAM DMA bandwidth per DPU, bytes/second
    /// (≈700 MB/s at 350 MHz).
    pub mram_bandwidth_bytes_per_sec: f64,
    /// Aggregate host CPU → DPU MRAM copy bandwidth across all ranks,
    /// bytes/second. The PrIM characterisation measures ≈6–8 GB/s for
    /// parallel rank transfers; the model defaults to 6.5 GB/s.
    pub host_to_dpu_bandwidth_bytes_per_sec: f64,
    /// Aggregate DPU MRAM → host CPU copy bandwidth, bytes/second
    /// (retrieval is somewhat slower than push on real hardware).
    pub dpu_to_host_bandwidth_bytes_per_sec: f64,
    /// Fixed software/driver overhead charged per host↔DPU transfer batch,
    /// in seconds (rank scheduling, ioctl overhead).
    pub transfer_latency_sec: f64,
    /// Fixed overhead charged per DPU program launch, in seconds.
    pub launch_latency_sec: f64,
    /// Average pipeline instructions-per-cycle at full tasklet occupancy.
    pub instructions_per_cycle: f64,
}

impl PimConfig {
    /// The paper's evaluation platform: 2048 DPUs (out of 2560 present) at
    /// 350 MHz with 16 tasklets each.
    #[must_use]
    pub fn paper_server() -> Self {
        PimConfig {
            dpus: 2048,
            ..PimConfig::upmem_defaults()
        }
    }

    /// A full 20-module UPMEM server (2560 DPUs, 160 GB of MRAM).
    #[must_use]
    pub fn full_server() -> Self {
        PimConfig {
            dpus: 2560,
            ..PimConfig::upmem_defaults()
        }
    }

    /// Baseline UPMEM per-DPU parameters shared by all presets.
    #[must_use]
    pub fn upmem_defaults() -> Self {
        PimConfig {
            dpus: DPUS_PER_MODULE,
            mram_bytes_per_dpu: 64 * 1024 * 1024,
            wram_bytes_per_dpu: 64 * 1024,
            iram_bytes_per_dpu: 24 * 1024,
            tasklets_per_dpu: 16,
            frequency_mhz: 350,
            mram_bandwidth_bytes_per_sec: 700.0e6,
            host_to_dpu_bandwidth_bytes_per_sec: 6.5e9,
            dpu_to_host_bandwidth_bytes_per_sec: 4.7e9,
            transfer_latency_sec: 35.0e-6,
            launch_latency_sec: 60.0e-6,
            instructions_per_cycle: 1.0,
        }
    }

    /// A deliberately small configuration for unit tests and examples:
    /// `dpus` DPUs with `mram_bytes_per_dpu` bytes of MRAM each, 4
    /// tasklets, and the real machine's bandwidth parameters.
    #[must_use]
    pub fn tiny_test(dpus: usize, mram_bytes_per_dpu: usize) -> Self {
        PimConfig {
            dpus,
            mram_bytes_per_dpu,
            tasklets_per_dpu: 4,
            ..PimConfig::upmem_defaults()
        }
    }

    /// Total MRAM capacity across all DPUs, in bytes.
    #[must_use]
    pub fn total_mram_bytes(&self) -> u64 {
        self.dpus as u64 * self.mram_bytes_per_dpu as u64
    }

    /// Aggregate MRAM streaming bandwidth across all DPUs, bytes/second —
    /// the ≈1.79 TB/s headline figure for the paper's 2560-DPU server.
    #[must_use]
    pub fn aggregate_mram_bandwidth(&self) -> f64 {
        self.dpus as f64 * self.mram_bandwidth_bytes_per_sec
    }

    /// The fraction of the DPU pipeline the configured tasklet count can
    /// keep busy (the pipeline needs ≥11 tasklets for full utilisation).
    #[must_use]
    pub fn pipeline_utilisation(&self) -> f64 {
        (self.tasklets_per_dpu as f64 / PIPELINE_SATURATION_TASKLETS as f64).min(1.0)
    }

    /// Checks the configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), PimError> {
        let fail = |reason: &str| {
            Err(PimError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if self.dpus == 0 {
            return fail("at least one DPU is required");
        }
        if self.mram_bytes_per_dpu == 0 {
            return fail("MRAM capacity must be non-zero");
        }
        if self.wram_bytes_per_dpu == 0 {
            return fail("WRAM capacity must be non-zero");
        }
        if self.tasklets_per_dpu == 0 || self.tasklets_per_dpu > MAX_TASKLETS {
            return fail("tasklets per DPU must be between 1 and 24");
        }
        if self.frequency_mhz == 0 {
            return fail("DPU frequency must be non-zero");
        }
        if self.mram_bandwidth_bytes_per_sec <= 0.0
            || self.host_to_dpu_bandwidth_bytes_per_sec <= 0.0
            || self.dpu_to_host_bandwidth_bytes_per_sec <= 0.0
        {
            return fail("bandwidths must be positive");
        }
        if self.transfer_latency_sec < 0.0 || self.launch_latency_sec < 0.0 {
            return fail("latencies must be non-negative");
        }
        if self.instructions_per_cycle <= 0.0 {
            return fail("instructions per cycle must be positive");
        }
        Ok(())
    }
}

impl Default for PimConfig {
    fn default() -> Self {
        PimConfig::paper_server()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_server_matches_published_numbers() {
        let config = PimConfig::paper_server();
        assert_eq!(config.dpus, 2048);
        assert_eq!(config.tasklets_per_dpu, 16);
        assert_eq!(config.frequency_mhz, 350);
        // 2560 DPUs × 700 MB/s ≈ 1.79 TB/s, the paper's aggregate figure.
        let full = PimConfig::full_server();
        let aggregate_tb_per_s = full.aggregate_mram_bandwidth() / 1e12;
        assert!(
            (1.7..1.9).contains(&aggregate_tb_per_s),
            "{aggregate_tb_per_s}"
        );
        // 2560 × 64 MB = 160 GB of MRAM.
        assert_eq!(full.total_mram_bytes(), 160 * 1024 * 1024 * 1024);
    }

    #[test]
    fn validation_accepts_presets() {
        PimConfig::paper_server().validate().unwrap();
        PimConfig::full_server().validate().unwrap();
        PimConfig::tiny_test(2, 1024).validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut config = PimConfig::tiny_test(0, 1024);
        assert!(config.validate().is_err());
        config = PimConfig::tiny_test(1, 0);
        assert!(config.validate().is_err());
        config = PimConfig::tiny_test(1, 1024);
        config.tasklets_per_dpu = 25;
        assert!(config.validate().is_err());
        config = PimConfig::tiny_test(1, 1024);
        config.mram_bandwidth_bytes_per_sec = -1.0;
        assert!(config.validate().is_err());
    }

    #[test]
    fn pipeline_utilisation_saturates_at_eleven_tasklets() {
        let mut config = PimConfig::tiny_test(1, 1024);
        config.tasklets_per_dpu = 4;
        assert!(config.pipeline_utilisation() < 0.5);
        config.tasklets_per_dpu = 16;
        assert_eq!(config.pipeline_utilisation(), 1.0);
    }

    #[test]
    fn module_constants_are_consistent() {
        assert_eq!(DPUS_PER_MODULE, 128);
        assert_eq!(20 * DPUS_PER_MODULE, 2560);
    }
}
