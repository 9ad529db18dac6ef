//! Query index streams.
//!
//! PIR hides *which* record a client asks for, so the server-side cost is
//! independent of the query distribution; the distributions here matter for
//! end-to-end experiments (e.g. verifying batching behaviour) and for the
//! application scenarios, not for privacy.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How client query indices are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum QueryDistribution {
    /// Uniformly random indices — the paper's evaluation setting.
    #[default]
    Uniform,
    /// Zipf-distributed indices with exponent `s` (skewed popularity, as in
    /// media-consumption workloads).
    Zipf {
        /// The Zipf exponent (`s > 0`); larger means more skew.
        exponent: f64,
    },
    /// A fixed fraction of queries hit one hot index, the rest are uniform.
    Hotspot {
        /// Fraction of queries (0–1) directed at the hot index.
        hot_fraction: f64,
    },
}

impl QueryDistribution {
    /// Draws `count` query indices over a database of `num_records`
    /// records, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_records` is zero.
    #[must_use]
    pub fn sample(&self, count: usize, num_records: u64, seed: u64) -> Vec<u64> {
        assert!(num_records > 0, "cannot sample from an empty database");
        let mut rng = StdRng::seed_from_u64(seed);
        match *self {
            QueryDistribution::Uniform => {
                (0..count).map(|_| rng.gen_range(0..num_records)).collect()
            }
            QueryDistribution::Zipf { exponent } => {
                let zipf = ZipfSampler::new(num_records, exponent);
                (0..count).map(|_| zipf.sample(&mut rng)).collect()
            }
            QueryDistribution::Hotspot { hot_fraction } => {
                let hot_index = rng.gen_range(0..num_records);
                (0..count)
                    .map(|_| {
                        if rng.gen::<f64>() < hot_fraction {
                            hot_index
                        } else {
                            rng.gen_range(0..num_records)
                        }
                    })
                    .collect()
            }
        }
    }
}

/// Inverse-CDF Zipf sampler over `1..=n`, mapped to indices `0..n`.
#[derive(Debug, Clone)]
struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: u64, exponent: f64) -> Self {
        // For very large domains, sampling exactness over the tail does not
        // matter for workload purposes; cap the explicit table and spill the
        // remaining mass uniformly over the tail.
        let table = n.min(1 << 16) as usize;
        let mut cumulative = Vec::with_capacity(table);
        let mut total = 0.0;
        for rank in 1..=table {
            total += 1.0 / (rank as f64).powf(exponent);
            cumulative.push(total);
        }
        for value in &mut cumulative {
            *value /= total;
        }
        ZipfSampler { cumulative }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        match self
            .cumulative
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("no NaN"))
        {
            Ok(index) | Err(index) => index.min(self.cumulative.len() - 1) as u64,
        }
    }
}

impl Distribution<u64> for ZipfSampler {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        ZipfSampler::sample(self, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_indices_are_in_range_and_deterministic() {
        let a = QueryDistribution::Uniform.sample(1000, 500, 1);
        let b = QueryDistribution::Uniform.sample(1000, 500, 1);
        assert_eq!(a, b);
        assert!(a.iter().all(|&i| i < 500));
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks() {
        let samples = QueryDistribution::Zipf { exponent: 1.2 }.sample(5000, 10_000, 3);
        let head = samples.iter().filter(|&&i| i < 10).count();
        let tail = samples.iter().filter(|&&i| i >= 5000).count();
        assert!(head > tail, "head={head} tail={tail}");
        assert!(samples.iter().all(|&i| i < 10_000));
    }

    #[test]
    fn hotspot_hits_one_index_often() {
        let samples = QueryDistribution::Hotspot { hot_fraction: 0.9 }.sample(2000, 1_000, 5);
        let mut counts = std::collections::HashMap::new();
        for sample in &samples {
            *counts.entry(sample).or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 1500, "hot index only hit {max} times");
    }

    #[test]
    #[should_panic(expected = "empty database")]
    fn sampling_from_empty_database_panics() {
        let _ = QueryDistribution::Uniform.sample(1, 0, 0);
    }
}
