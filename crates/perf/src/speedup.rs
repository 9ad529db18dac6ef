//! Throughput, latency and speedup arithmetic shared by the figure harness.

/// One measured or modelled data point of a latency/throughput sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The system that produced the point (e.g. `CPU-PIR`, `IM-PIR`).
    pub system: String,
    /// The x-axis value (database bytes, batch size, cluster count, …).
    pub x: f64,
    /// Batch size used for the point.
    pub batch_size: usize,
    /// End-to-end latency for the batch, in seconds.
    pub latency_seconds: f64,
}

impl SweepPoint {
    /// Creates a sweep point.
    #[must_use]
    pub fn new(system: impl Into<String>, x: f64, batch_size: usize, latency_seconds: f64) -> Self {
        SweepPoint {
            system: system.into(),
            x,
            batch_size,
            latency_seconds,
        }
    }

    /// Queries per second for this point.
    #[must_use]
    pub fn throughput_qps(&self) -> f64 {
        self.batch_size as f64 / self.latency_seconds
    }
}

/// The speedup of `fast` over `slow` (how many times lower the latency is).
///
/// This is the paper's "speedup factor": the ratio of CPU-PIR query latency
/// to IM-PIR query latency.
#[must_use]
pub fn speedup(slow_latency_seconds: f64, fast_latency_seconds: f64) -> f64 {
    slow_latency_seconds / fast_latency_seconds
}

/// Geometric mean of a slice of positive values (used to summarise speedups
/// across a sweep).
///
/// Returns `None` for an empty slice or any non-positive value.
#[must_use]
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_is_latency_ratio() {
        assert!((speedup(4.0, 1.0) - 4.0).abs() < 1e-12);
        assert!((speedup(1.0, 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sweep_point_throughput() {
        let point = SweepPoint::new("IM-PIR", 1e9, 32, 0.5);
        assert!((point.throughput_qps() - 64.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_none());
        assert!(geometric_mean(&[1.0, 0.0]).is_none());
    }
}
