//! Named application scenarios.
//!
//! The paper motivates PIR with concrete privacy-critical applications
//! (§1, §5.2): Certificate Transparency auditing, compromised-credential
//! checking and private media consumption. Each scenario here bundles a
//! record format, a default database size and a query distribution so
//! examples and benchmarks can speak the application's language instead of
//! raw byte counts.

use crate::queries::QueryDistribution;
use crate::records::DatabaseSpec;

/// A named PIR application scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name.
    pub name: String,
    /// What a record represents in this application.
    pub record_description: String,
    /// Record size in bytes.
    pub record_bytes: usize,
    /// Default number of records for laptop-scale runs.
    pub default_records: u64,
    /// Query index distribution typical for the application.
    pub distribution: QueryDistribution,
}

impl Scenario {
    /// Certificate Transparency auditing: looking up a certificate's
    /// SHA-256 hash in a public CT log without revealing which certificate
    /// is being audited.
    #[must_use]
    pub fn certificate_transparency() -> Self {
        Scenario {
            name: "certificate-transparency".to_string(),
            record_description: "SHA-256 hash of an issued TLS certificate".to_string(),
            record_bytes: 32,
            default_records: 1 << 16,
            distribution: QueryDistribution::Uniform,
        }
    }

    /// Compromised-credential checking (Have I Been Pwned-style): testing a
    /// password hash against a breach corpus without revealing the hash.
    #[must_use]
    pub fn compromised_credentials() -> Self {
        Scenario {
            name: "compromised-credentials".to_string(),
            record_description: "SHA-256 hash of a leaked credential".to_string(),
            record_bytes: 32,
            default_records: 1 << 17,
            distribution: QueryDistribution::Uniform,
        }
    }

    /// Private media consumption (Popcorn-style): fetching a catalogue
    /// entry without revealing which title is being watched; popularity is
    /// heavily skewed.
    #[must_use]
    pub fn private_media() -> Self {
        Scenario {
            name: "private-media".to_string(),
            record_description: "metadata chunk of a media catalogue entry".to_string(),
            record_bytes: 64,
            default_records: 1 << 15,
            distribution: QueryDistribution::Zipf { exponent: 1.1 },
        }
    }

    /// All built-in scenarios.
    #[must_use]
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario::certificate_transparency(),
            Scenario::compromised_credentials(),
            Scenario::private_media(),
        ]
    }

    /// The database specification for this scenario at its default size.
    #[must_use]
    pub fn database_spec(&self, seed: u64) -> DatabaseSpec {
        DatabaseSpec::new(self.default_records, self.record_bytes, seed)
    }

    /// A database specification scaled to approximately `total_bytes`.
    #[must_use]
    pub fn database_spec_with_bytes(&self, total_bytes: u64, seed: u64) -> DatabaseSpec {
        DatabaseSpec::with_total_bytes(total_bytes, self.record_bytes, seed)
    }

    /// Samples a batch of query indices for this scenario.
    #[must_use]
    pub fn sample_queries(&self, count: usize, num_records: u64, seed: u64) -> Vec<u64> {
        self.distribution.sample(count, num_records, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_have_distinct_names_and_valid_specs() {
        let all = Scenario::all();
        assert_eq!(all.len(), 3);
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 3);
        for scenario in &all {
            let spec = scenario.database_spec(1);
            assert!(spec.num_records > 0);
            assert!(spec.record_bytes > 0);
            spec.build().unwrap();
        }
    }

    #[test]
    fn hash_based_scenarios_use_32_byte_records() {
        assert_eq!(Scenario::certificate_transparency().record_bytes, 32);
        assert_eq!(Scenario::compromised_credentials().record_bytes, 32);
    }

    #[test]
    fn queries_respect_database_size() {
        let scenario = Scenario::private_media();
        let queries = scenario.sample_queries(500, 1000, 3);
        assert_eq!(queries.len(), 500);
        assert!(queries.iter().all(|&q| q < 1000));
    }

    #[test]
    fn byte_scaled_spec_matches_requested_size() {
        let scenario = Scenario::certificate_transparency();
        let spec = scenario.database_spec_with_bytes(1 << 20, 0);
        assert_eq!(spec.total_bytes(), 1 << 20);
    }
}
