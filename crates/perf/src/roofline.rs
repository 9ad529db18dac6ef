//! Roofline model (paper Figure 3b).
//!
//! The roofline model bounds a kernel's attainable performance by
//! `min(peak_compute, memory_bandwidth × operational_intensity)`. The paper
//! uses it to show that the DPF-PIR server kernels (`Eval` and especially
//! `dpXOR`) have operational intensities far below the baseline CPU's ridge
//! point and are therefore memory-bound — the observation that motivates a
//! memory-centric architecture.
//!
//! # Measured roofline comparison
//!
//! Because `dpXOR` is memory-bound, its ceiling in *bytes per second* is
//! simply the device's memory bandwidth: a scan that streams at the
//! bandwidth the memory system sustains is running "as fast as the hardware
//! allows", and any gap is implementation overhead. The `hotpath` bench bin
//! closes this loop: it measures the read bandwidth of the benchmark host
//! with a streaming probe, builds a
//! [`DeviceProfile::measured_host`](crate::DeviceProfile::measured_host)
//! profile from it, and reports every measured scan throughput as a
//! fraction of that ceiling via [`RooflineModel::scan_efficiency`] into
//! `BENCH_hotpath.json`.

use crate::device::DeviceProfile;

/// Classification of a kernel under the roofline model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// Attainable performance is limited by memory bandwidth.
    MemoryBound,
    /// Attainable performance is limited by peak compute.
    ComputeBound,
}

/// One kernel plotted on the roofline.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Kernel name (e.g. `dpXOR`, `Eval`).
    pub kernel: String,
    /// Operational intensity in operations per byte.
    pub operational_intensity: f64,
    /// Attainable performance in GFLOP/s (or GOP/s).
    pub attainable_gflops: f64,
    /// Whether the kernel is memory- or compute-bound on this device.
    pub bound: BoundKind,
}

/// A roofline for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineModel {
    /// Peak compute throughput, GFLOP/s.
    pub peak_gflops: f64,
    /// Sustained memory bandwidth, GB/s.
    pub memory_bandwidth_gb_per_sec: f64,
}

/// Operational intensity of the `dpXOR` kernel: one 64-bit XOR (counted as
/// one op) per 8 database bytes read plus 1/8 selector byte ⇒ ≈0.12 op/B.
pub const DPXOR_OPERATIONAL_INTENSITY: f64 = 1.0 / 8.125;

/// Operational intensity of the GGM `Eval` kernel: ≈20 ops per 16-byte
/// AES block written, with each node read and written once ⇒ ≈0.6 op/B.
pub const EVAL_OPERATIONAL_INTENSITY: f64 = 0.6;

impl RooflineModel {
    /// Builds the roofline of `profile`.
    #[must_use]
    pub fn for_device(profile: &DeviceProfile) -> Self {
        RooflineModel {
            peak_gflops: profile.peak_gflops,
            memory_bandwidth_gb_per_sec: profile.scan_bandwidth_bytes_per_sec / 1e9,
        }
    }

    /// Attainable performance at `operational_intensity` (op/byte), in
    /// GFLOP/s.
    #[must_use]
    pub fn attainable_gflops(&self, operational_intensity: f64) -> f64 {
        (self.memory_bandwidth_gb_per_sec * operational_intensity).min(self.peak_gflops)
    }

    /// The ridge point: the operational intensity at which a kernel stops
    /// being memory-bound.
    #[must_use]
    pub fn ridge_point(&self) -> f64 {
        self.peak_gflops / self.memory_bandwidth_gb_per_sec
    }

    /// Classifies a kernel with the given operational intensity.
    #[must_use]
    pub fn classify(&self, operational_intensity: f64) -> BoundKind {
        if operational_intensity < self.ridge_point() {
            BoundKind::MemoryBound
        } else {
            BoundKind::ComputeBound
        }
    }

    /// Builds the named point for one kernel.
    #[must_use]
    pub fn point(&self, kernel: &str, operational_intensity: f64) -> RooflinePoint {
        RooflinePoint {
            kernel: kernel.to_string(),
            operational_intensity,
            attainable_gflops: self.attainable_gflops(operational_intensity),
            bound: self.classify(operational_intensity),
        }
    }

    /// The two PIR kernel points the paper plots (Figure 3b): `dpXOR` and
    /// `Eval`.
    #[must_use]
    pub fn pir_points(&self) -> Vec<RooflinePoint> {
        vec![
            self.point("dpXOR", DPXOR_OPERATIONAL_INTENSITY),
            self.point("Eval", EVAL_OPERATIONAL_INTENSITY),
        ]
    }

    /// Fraction of the memory-bandwidth ceiling a measured scan achieves:
    /// `measured GB/s ÷ ceiling GB/s`.
    ///
    /// For a memory-bound kernel like `dpXOR` the byte-throughput ceiling
    /// *is* the memory bandwidth (the compute roof only binds past the
    /// ridge point, orders of magnitude above dpXOR's operational
    /// intensity), so a ratio near 1.0 means the scan runs as fast as the
    /// host memory system allows and the remaining gap is implementation
    /// overhead, not hardware.
    #[must_use]
    pub fn scan_efficiency(&self, measured_scan_gb_per_sec: f64) -> f64 {
        measured_scan_gb_per_sec / self.memory_bandwidth_gb_per_sec
    }

    /// Samples the roofline curve at logarithmically spaced intensities, for
    /// plotting.
    #[must_use]
    pub fn curve(&self, min_oi: f64, max_oi: f64, samples: usize) -> Vec<(f64, f64)> {
        assert!(samples >= 2, "need at least two samples");
        assert!(min_oi > 0.0 && max_oi > min_oi, "invalid intensity range");
        let log_min = min_oi.ln();
        let log_max = max_oi.ln();
        (0..samples)
            .map(|i| {
                let oi = (log_min + (log_max - log_min) * i as f64 / (samples - 1) as f64).exp();
                (oi, self.attainable_gflops(oi))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> RooflineModel {
        RooflineModel::for_device(&DeviceProfile::cpu_baseline_xeon_e5_2683())
    }

    #[test]
    fn pir_kernels_are_memory_bound_on_the_baseline_cpu() {
        // The core claim of Figure 3b.
        let roofline = baseline();
        for point in roofline.pir_points() {
            assert_eq!(point.bound, BoundKind::MemoryBound, "{}", point.kernel);
            assert!(point.attainable_gflops < roofline.peak_gflops);
        }
    }

    #[test]
    fn attainable_performance_saturates_at_peak() {
        let roofline = baseline();
        let high_oi = roofline.ridge_point() * 100.0;
        assert!((roofline.attainable_gflops(high_oi) - roofline.peak_gflops).abs() < 1e-9);
    }

    #[test]
    fn attainable_performance_is_monotone_in_intensity() {
        let roofline = baseline();
        let mut previous = 0.0;
        for (_, gflops) in roofline.curve(0.01, 50.0, 64) {
            assert!(gflops >= previous);
            previous = gflops;
        }
    }

    #[test]
    fn ridge_point_separates_regions() {
        let roofline = baseline();
        let ridge = roofline.ridge_point();
        assert_eq!(roofline.classify(ridge / 2.0), BoundKind::MemoryBound);
        assert_eq!(roofline.classify(ridge * 2.0), BoundKind::ComputeBound);
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn curve_requires_two_samples() {
        let _ = baseline().curve(0.1, 1.0, 1);
    }

    #[test]
    fn scan_efficiency_is_the_bandwidth_fraction() {
        let roofline = baseline(); // 100 GB/s ceiling
        assert!((roofline.scan_efficiency(50.0) - 0.5).abs() < 1e-12);
        assert!((roofline.scan_efficiency(100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dpxor_intensity_is_lower_than_eval() {
        // Evaluated at compile time — the relation between the two model
        // constants is part of the crate's contract.
        const { assert!(DPXOR_OPERATIONAL_INTENSITY < EVAL_OPERATIONAL_INTENSITY) }
    }
}
