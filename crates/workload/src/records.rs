//! Database generation: random fixed-size hash records.

use impir_core::{Database, PirError};

/// A declarative description of a synthetic PIR database.
///
/// # Example
///
/// ```
/// use impir_workload::DatabaseSpec;
///
/// // A 1 MiB database of 32-byte records, deterministically seeded.
/// let spec = DatabaseSpec::with_total_bytes(1 << 20, 32, 42);
/// let db = spec.build()?;
/// assert_eq!(db.num_records(), 32_768);
/// assert_eq!(db.record_size(), 32);
/// # Ok::<(), impir_core::PirError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatabaseSpec {
    /// Number of records.
    pub num_records: u64,
    /// Record size in bytes.
    pub record_bytes: usize,
    /// Seed for deterministic record contents.
    pub seed: u64,
}

impl DatabaseSpec {
    /// A database with an explicit record count.
    #[must_use]
    pub fn new(num_records: u64, record_bytes: usize, seed: u64) -> Self {
        DatabaseSpec {
            num_records,
            record_bytes,
            seed,
        }
    }

    /// A database sized by total bytes (the paper's sweeps are expressed in
    /// GB of database, not record counts).
    #[must_use]
    pub fn with_total_bytes(total_bytes: u64, record_bytes: usize, seed: u64) -> Self {
        DatabaseSpec {
            num_records: records_for_db_size(total_bytes, record_bytes),
            record_bytes,
            seed,
        }
    }

    /// Total size of the described database in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.num_records * self.record_bytes as u64
    }

    /// Materialises the database.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::InvalidDatabaseGeometry`] for a zero-sized
    /// specification.
    pub fn build(&self) -> Result<Database, PirError> {
        Database::random(self.num_records, self.record_bytes, self.seed)
    }
}

/// Number of records a database of `total_bytes` bytes holds at
/// `record_bytes` per record (at least 1).
#[must_use]
pub fn records_for_db_size(total_bytes: u64, record_bytes: usize) -> u64 {
    (total_bytes / record_bytes as u64).max(1)
}

/// Formats a database size in bytes the way the paper's figures label their
/// x-axes (`0.5 GB`, `1 GB`, `64 MB`, …).
#[must_use]
pub fn db_size_label(total_bytes: u64) -> String {
    const GIB: f64 = (1u64 << 30) as f64;
    const MIB: f64 = (1u64 << 20) as f64;
    let bytes = total_bytes as f64;
    if bytes >= GIB / 2.0 {
        let gib = bytes / GIB;
        if (gib - gib.round()).abs() < 1e-9 {
            format!("{} GB", gib.round() as u64)
        } else {
            format!("{gib:.1} GB")
        }
    } else if bytes >= MIB {
        format!("{} MB", (bytes / MIB).round() as u64)
    } else {
        format!("{total_bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_by_total_bytes_matches_record_count() {
        let spec = DatabaseSpec::with_total_bytes(1 << 30, 32, 0);
        assert_eq!(spec.num_records, (1 << 30) / 32);
        assert_eq!(spec.total_bytes(), 1 << 30);
    }

    #[test]
    fn build_is_deterministic() {
        let a = DatabaseSpec::new(100, 32, 7).build().unwrap();
        let b = DatabaseSpec::new(100, 32, 7).build().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn records_for_tiny_databases_is_at_least_one() {
        assert_eq!(records_for_db_size(8, 32), 1);
        assert_eq!(records_for_db_size(1 << 20, 32), 32_768);
    }

    #[test]
    fn size_labels_match_paper_axes() {
        assert_eq!(db_size_label(1 << 30), "1 GB");
        assert_eq!(db_size_label(8 << 30), "8 GB");
        assert_eq!(db_size_label((1 << 30) / 2), "0.5 GB");
        assert_eq!(db_size_label(64 << 20), "64 MB");
        assert_eq!(db_size_label(100), "100 B");
    }
}
