//! Metering of transfers and kernel work.
//!
//! Every host↔DPU copy and every kernel launch is metered so that the
//! [`crate::cost::CostModel`] can convert the simulator's functional
//! execution into the wall-clock the same operations would take on the
//! paper's UPMEM hardware. Keeping the meters separate from the model also
//! lets tests assert on raw byte counts without caring about bandwidth
//! parameters.

/// Cumulative host↔DPU transfer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Total bytes pushed from the host into DPU MRAM.
    pub host_to_dpu_bytes: u64,
    /// Total bytes gathered from DPU MRAM back to the host.
    pub dpu_to_host_bytes: u64,
    /// Number of push transfer batches issued.
    pub host_to_dpu_batches: u64,
    /// Number of gather transfer batches issued.
    pub dpu_to_host_batches: u64,
}

impl TransferStats {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &TransferStats) {
        self.host_to_dpu_bytes += other.host_to_dpu_bytes;
        self.dpu_to_host_bytes += other.dpu_to_host_bytes;
        self.host_to_dpu_batches += other.host_to_dpu_batches;
        self.dpu_to_host_batches += other.dpu_to_host_batches;
    }

    /// Total bytes moved in either direction.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.host_to_dpu_bytes + self.dpu_to_host_bytes
    }
}

/// Work performed by one DPU during one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelMeter {
    /// Bytes streamed from MRAM into the pipeline (via WRAM DMA).
    pub mram_bytes_read: u64,
    /// Bytes written back to MRAM.
    pub mram_bytes_written: u64,
    /// Pipeline instructions retired (approximate, as counted by kernels).
    pub instructions: u64,
}

impl KernelMeter {
    /// Adds `other` into `self` (used to combine per-tasklet meters).
    pub fn merge(&mut self, other: &KernelMeter) {
        self.mram_bytes_read += other.mram_bytes_read;
        self.mram_bytes_written += other.mram_bytes_written;
        self.instructions += other.instructions;
    }

    /// Total MRAM traffic in bytes.
    #[must_use]
    pub fn mram_traffic(&self) -> u64 {
        self.mram_bytes_read + self.mram_bytes_written
    }
}

/// The outcome of a host↔DPU transfer batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferOutcome {
    /// Bytes moved by the batch.
    pub bytes: u64,
    /// Time the batch would take on the modelled hardware, in seconds.
    pub simulated_seconds: f64,
}

/// The outcome of launching a DPU program on a set of DPUs.
#[derive(Debug)]
pub struct LaunchOutcome<O> {
    /// Per-DPU results, in DPU order.
    pub results: Vec<O>,
    /// Per-DPU work meters, in DPU order.
    pub meters: Vec<KernelMeter>,
    /// Time the launch would take on the modelled hardware (all DPUs run in
    /// parallel, so this is the slowest DPU plus launch overhead), in
    /// seconds.
    pub simulated_seconds: f64,
}

impl<O> LaunchOutcome<O> {
    /// The combined meter across all DPUs of the launch.
    #[must_use]
    pub fn total_meter(&self) -> KernelMeter {
        let mut total = KernelMeter::default();
        for meter in &self.meters {
            total.merge(meter);
        }
        total
    }
}

/// A cumulative report of all simulated activity on a [`crate::PimSystem`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutionReport {
    /// Cumulative transfer counters.
    pub transfers: TransferStats,
    /// Cumulative kernel meters (summed over DPUs and launches).
    pub kernels: KernelMeter,
    /// Number of kernel launches issued.
    pub launches: u64,
    /// Total simulated seconds spent in host→DPU and DPU→host transfers.
    pub simulated_transfer_seconds: f64,
    /// Total simulated seconds spent in kernel execution (sum of per-launch
    /// critical paths).
    pub simulated_kernel_seconds: f64,
}

impl ExecutionReport {
    /// Total simulated seconds of PIM activity.
    #[must_use]
    pub fn simulated_total_seconds(&self) -> f64 {
        self.simulated_transfer_seconds + self.simulated_kernel_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_stats_merge_adds_fields() {
        let mut a = TransferStats {
            host_to_dpu_bytes: 10,
            dpu_to_host_bytes: 20,
            host_to_dpu_batches: 1,
            dpu_to_host_batches: 2,
        };
        let b = TransferStats {
            host_to_dpu_bytes: 5,
            dpu_to_host_bytes: 6,
            host_to_dpu_batches: 7,
            dpu_to_host_batches: 8,
        };
        a.merge(&b);
        assert_eq!(a.host_to_dpu_bytes, 15);
        assert_eq!(a.total_bytes(), 41);
        assert_eq!(a.dpu_to_host_batches, 10);
    }

    #[test]
    fn kernel_meter_merge_and_traffic() {
        let mut meter = KernelMeter {
            mram_bytes_read: 100,
            mram_bytes_written: 10,
            instructions: 5,
        };
        meter.merge(&KernelMeter {
            mram_bytes_read: 1,
            mram_bytes_written: 2,
            instructions: 3,
        });
        assert_eq!(meter.mram_traffic(), 113);
        assert_eq!(meter.instructions, 8);
    }

    #[test]
    fn launch_outcome_totals_meters() {
        let outcome = LaunchOutcome {
            results: vec![(), ()],
            meters: vec![
                KernelMeter {
                    mram_bytes_read: 1,
                    mram_bytes_written: 0,
                    instructions: 10,
                },
                KernelMeter {
                    mram_bytes_read: 2,
                    mram_bytes_written: 0,
                    instructions: 20,
                },
            ],
            simulated_seconds: 0.5,
        };
        let total = outcome.total_meter();
        assert_eq!(total.mram_bytes_read, 3);
        assert_eq!(total.instructions, 30);
    }

    #[test]
    fn report_total_is_sum_of_components() {
        let report = ExecutionReport {
            simulated_transfer_seconds: 1.0,
            simulated_kernel_seconds: 2.5,
            ..Default::default()
        };
        assert!((report.simulated_total_seconds() - 3.5).abs() < 1e-12);
    }
}
