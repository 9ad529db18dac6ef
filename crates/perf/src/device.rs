//! Device profiles for the machines used in the paper's evaluation (§5.2).
//!
//! Each profile captures the handful of first-order parameters the paper's
//! own analysis attributes performance to: sustained memory bandwidth,
//! AES throughput, core/thread counts and (for accelerators) host-link
//! bandwidth. Values come from the paper where stated and from vendor /
//! PrIM-characterisation data otherwise; they are inputs to the analytic
//! model, not measurements of this repository.

/// First-order performance parameters of one execution platform.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable platform name.
    pub name: String,
    /// Sustained memory (or aggregate MRAM / VRAM) bandwidth available to a
    /// database scan, in bytes per second.
    pub scan_bandwidth_bytes_per_sec: f64,
    /// Memory bandwidth available to a *single* worker thread, in bytes per
    /// second (what a one-thread-per-query baseline can actually use).
    pub per_thread_scan_bandwidth_bytes_per_sec: f64,
    /// AES-128 block throughput of one worker thread (blocks per second).
    pub aes_blocks_per_sec_per_thread: f64,
    /// Number of worker threads / processing elements available for
    /// query processing.
    pub worker_threads: usize,
    /// Last-level cache (or scratchpad) size in bytes.
    pub last_level_cache_bytes: u64,
    /// Peak double-rate compute throughput, in GFLOP/s (used only by the
    /// roofline plot).
    pub peak_gflops: f64,
    /// Bandwidth of the link between the host and the accelerator, in
    /// bytes/second (`None` for a plain CPU).
    pub host_link_bandwidth_bytes_per_sec: Option<f64>,
    /// Fixed overhead per offload/launch, in seconds (`None` for a plain
    /// CPU).
    pub launch_latency_sec: Option<f64>,
}

impl DeviceProfile {
    /// The paper's CPU baseline machine: two 16-core Xeon E5-2683 v4
    /// (2.1 GHz, AVX2 + AES-NI, 40 MB LLC per socket, 128 GB DDR4).
    ///
    /// The per-thread scan bandwidth (~12 GB/s) is what a single AVX2
    /// XOR-scan thread sustains from DRAM; the aggregate value is the
    /// dual-socket STREAM-class figure.
    #[must_use]
    pub fn cpu_baseline_xeon_e5_2683() -> Self {
        DeviceProfile {
            name: "2x Xeon E5-2683 v4 (CPU-PIR baseline)".to_string(),
            scan_bandwidth_bytes_per_sec: 100.0e9,
            per_thread_scan_bandwidth_bytes_per_sec: 12.0e9,
            aes_blocks_per_sec_per_thread: 5.3e8,
            worker_threads: 32,
            last_level_cache_bytes: 2 * 40 * 1024 * 1024,
            peak_gflops: 1075.0,
            host_link_bandwidth_bytes_per_sec: None,
            launch_latency_sec: None,
        }
    }

    /// The host CPU of the paper's PIM server: two 8-core Xeon Silver 4110
    /// (2.1 GHz, AVX2 + AES-NI, 11 MB LLC per socket, 256 GB DDR4).
    #[must_use]
    pub fn pim_host_xeon_silver_4110() -> Self {
        DeviceProfile {
            name: "2x Xeon Silver 4110 (IM-PIR host CPU)".to_string(),
            scan_bandwidth_bytes_per_sec: 90.0e9,
            per_thread_scan_bandwidth_bytes_per_sec: 11.0e9,
            aes_blocks_per_sec_per_thread: 5.3e8,
            worker_threads: 32,
            last_level_cache_bytes: 2 * 11 * 1024 * 1024,
            peak_gflops: 538.0,
            host_link_bandwidth_bytes_per_sec: None,
            launch_latency_sec: None,
        }
    }

    /// The paper's UPMEM PIM platform, seen as one device: 2048 DPUs at
    /// 350 MHz with ≈700 MB/s of MRAM bandwidth each (≈1.43 TB/s in
    /// aggregate for the 2048-DPU allocation; 1.79 TB/s for all 2560).
    #[must_use]
    pub fn upmem_2048_dpus() -> Self {
        DeviceProfile {
            name: "UPMEM PIM (2048 DPUs @ 350 MHz)".to_string(),
            scan_bandwidth_bytes_per_sec: 2048.0 * 700.0e6,
            per_thread_scan_bandwidth_bytes_per_sec: 700.0e6,
            aes_blocks_per_sec_per_thread: 1.0e6,
            worker_threads: 2048,
            last_level_cache_bytes: 64 * 1024,
            peak_gflops: 58.0,
            host_link_bandwidth_bytes_per_sec: Some(6.5e9),
            launch_latency_sec: Some(60.0e-6),
        }
    }

    /// The GPU used for the GPU-PIR comparison: NVIDIA GeForce RTX 4090
    /// (1.01 TB/s VRAM bandwidth, 72 MB L2, 24 GB VRAM, PCIe 4.0 x16).
    #[must_use]
    pub fn gpu_rtx_4090() -> Self {
        DeviceProfile {
            name: "NVIDIA GeForce RTX 4090 (GPU-PIR)".to_string(),
            scan_bandwidth_bytes_per_sec: 1.01e12,
            per_thread_scan_bandwidth_bytes_per_sec: 1.01e12 / 128.0,
            aes_blocks_per_sec_per_thread: 1.5e7,
            worker_threads: 16384,
            last_level_cache_bytes: 72 * 1024 * 1024,
            peak_gflops: 82_580.0,
            host_link_bandwidth_bytes_per_sec: Some(25.0e9),
            launch_latency_sec: Some(10.0e-6),
        }
    }

    /// A profile built from bandwidths **measured on the machine running
    /// the benchmark**, rather than from published parameters — the input
    /// to the measured-roofline comparison in the `hotpath` bench bin
    /// (scan GB/s vs this profile's memory ceiling).
    ///
    /// `per_thread` and `aggregate` are sustained read bandwidths in
    /// bytes/second from a streaming probe over a scan-sized working set
    /// (so on small hosts the "memory" ceiling is honestly the cache level
    /// that working set lives in); `aes_blocks_per_sec_per_thread` is the
    /// PRG's measured single-thread rate (the `hotpath` bin's batch-kernel
    /// figure). The one parameter nothing measures, peak compute, is a
    /// nominal 16 GFLOP/s per thread (2 GHz × 8 SIMD lanes) — only the
    /// roofline's ridge-point classification consults it, and dpXOR sits
    /// orders of magnitude below it either way.
    #[must_use]
    pub fn measured_host(
        per_thread_scan_bandwidth_bytes_per_sec: f64,
        scan_bandwidth_bytes_per_sec: f64,
        aes_blocks_per_sec_per_thread: f64,
        worker_threads: usize,
    ) -> Self {
        DeviceProfile {
            name: format!("measured host ({worker_threads} threads)"),
            scan_bandwidth_bytes_per_sec,
            per_thread_scan_bandwidth_bytes_per_sec,
            aes_blocks_per_sec_per_thread,
            worker_threads,
            last_level_cache_bytes: 32 * 1024 * 1024,
            peak_gflops: worker_threads as f64 * 16.0,
            host_link_bandwidth_bytes_per_sec: None,
            launch_latency_sec: None,
        }
    }

    /// Total AES throughput with all worker threads busy, blocks/second.
    #[must_use]
    pub fn aggregate_aes_blocks_per_sec(&self) -> f64 {
        self.aes_blocks_per_sec_per_thread * self.worker_threads as f64
    }

    /// Whether a working set of `bytes` fits in the last-level cache —
    /// the effect behind the paper's observation that CPU-PIR "suffers more
    /// cache misses as its last-level cache cannot accommodate the large
    /// DB".
    #[must_use]
    pub fn fits_in_llc(&self, bytes: u64) -> bool {
        bytes <= self.last_level_cache_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_positive_parameters() {
        for profile in [
            DeviceProfile::cpu_baseline_xeon_e5_2683(),
            DeviceProfile::pim_host_xeon_silver_4110(),
            DeviceProfile::upmem_2048_dpus(),
            DeviceProfile::gpu_rtx_4090(),
        ] {
            assert!(
                profile.scan_bandwidth_bytes_per_sec > 0.0,
                "{}",
                profile.name
            );
            assert!(profile.per_thread_scan_bandwidth_bytes_per_sec > 0.0);
            assert!(profile.aes_blocks_per_sec_per_thread > 0.0);
            assert!(profile.worker_threads > 0);
        }
    }

    #[test]
    fn relative_bandwidth_ordering_matches_paper() {
        // PIM aggregate > GPU > CPU, the ordering behind Take-away 6.
        let cpu = DeviceProfile::cpu_baseline_xeon_e5_2683();
        let gpu = DeviceProfile::gpu_rtx_4090();
        let pim = DeviceProfile::upmem_2048_dpus();
        assert!(pim.scan_bandwidth_bytes_per_sec > gpu.scan_bandwidth_bytes_per_sec);
        assert!(gpu.scan_bandwidth_bytes_per_sec > cpu.scan_bandwidth_bytes_per_sec);
    }

    #[test]
    fn upmem_aggregate_matches_dpu_count_times_per_dpu() {
        let pim = DeviceProfile::upmem_2048_dpus();
        let expected = 2048.0 * 700.0e6;
        assert!((pim.scan_bandwidth_bytes_per_sec - expected).abs() < 1.0);
    }

    #[test]
    fn llc_check_uses_cache_size() {
        let cpu = DeviceProfile::cpu_baseline_xeon_e5_2683();
        assert!(cpu.fits_in_llc(1 << 20));
        assert!(!cpu.fits_in_llc(1 << 30));
    }
}
