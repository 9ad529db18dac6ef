//! The public PIR database.
//!
//! A PIR database is a flat table of `N` fixed-size records (the paper uses
//! 32-byte hashes). It is *public* data — privacy concerns only the query —
//! so both servers hold identical replicas and, in IM-PIR, preload their
//! replica into DPU MRAM once, ahead of query processing (§3.3).

use impir_dpf::SelectorVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dpxor;
use crate::error::PirError;

/// A PIR database: `num_records` records of `record_size` bytes each,
/// stored contiguously.
///
/// # Example
///
/// ```
/// use impir_core::database::Database;
///
/// let db = Database::random(1024, 32, 1)?;
/// assert_eq!(db.num_records(), 1024);
/// assert_eq!(db.record(17).len(), 32);
/// assert_eq!(db.size_bytes(), 1024 * 32);
/// # Ok::<(), impir_core::PirError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Database {
    record_size: usize,
    num_records: u64,
    data: Vec<u8>,
}

impl Database {
    /// Creates an all-zero database.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::InvalidDatabaseGeometry`] if either dimension is
    /// zero.
    pub fn zeroed(num_records: u64, record_size: usize) -> Result<Self, PirError> {
        if num_records == 0 || record_size == 0 {
            return Err(PirError::InvalidDatabaseGeometry {
                num_records,
                record_bytes: record_size,
            });
        }
        Ok(Database {
            record_size,
            num_records,
            data: vec![0; (num_records as usize) * record_size],
        })
    }

    /// Creates a database of pseudorandom records, deterministically derived
    /// from `seed` — the synthetic "random 32-byte hash" workload of §5.2.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::InvalidDatabaseGeometry`] if either dimension is
    /// zero.
    pub fn random(num_records: u64, record_size: usize, seed: u64) -> Result<Self, PirError> {
        let mut db = Database::zeroed(num_records, record_size)?;
        let mut rng = StdRng::seed_from_u64(seed);
        rng.fill(db.data.as_mut_slice());
        Ok(db)
    }

    /// Builds a database from explicit records (all must share one length).
    ///
    /// # Errors
    ///
    /// * [`PirError::InvalidDatabaseGeometry`] if `records` is empty;
    /// * [`PirError::RecordSizeMismatch`] if any record's length differs
    ///   from the first one's.
    pub fn from_records<R: AsRef<[u8]>>(records: &[R]) -> Result<Self, PirError> {
        let first = records.first().ok_or(PirError::InvalidDatabaseGeometry {
            num_records: 0,
            record_bytes: 0,
        })?;
        let record_size = first.as_ref().len();
        if record_size == 0 {
            return Err(PirError::InvalidDatabaseGeometry {
                num_records: records.len() as u64,
                record_bytes: 0,
            });
        }
        let mut data = Vec::with_capacity(records.len() * record_size);
        for record in records {
            let bytes = record.as_ref();
            if bytes.len() != record_size {
                return Err(PirError::RecordSizeMismatch {
                    expected: record_size,
                    actual: bytes.len(),
                });
            }
            data.extend_from_slice(bytes);
        }
        Ok(Database {
            record_size,
            num_records: records.len() as u64,
            data,
        })
    }

    /// Number of records.
    #[must_use]
    pub fn num_records(&self) -> u64 {
        self.num_records
    }

    /// Size of one record in bytes.
    #[must_use]
    pub fn record_size(&self) -> usize {
        self.record_size
    }

    /// Total database size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.num_records * self.record_size as u64
    }

    /// Number of domain bits a DPF key must cover to address every record
    /// (`⌈log2(num_records)⌉`, at least 1).
    #[must_use]
    pub fn domain_bits(&self) -> u32 {
        domain_bits_for_records(self.num_records)
    }

    /// The record at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_records()`; use [`Database::try_record`] for
    /// a fallible accessor.
    #[must_use]
    pub fn record(&self, index: u64) -> &[u8] {
        self.try_record(index).expect("record index in range")
    }

    /// The record at `index`, or an error for out-of-range indices.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::IndexOutOfRange`] if `index >= num_records()`.
    pub fn try_record(&self, index: u64) -> Result<&[u8], PirError> {
        if index >= self.num_records {
            return Err(PirError::IndexOutOfRange {
                index,
                num_records: self.num_records,
            });
        }
        let start = index as usize * self.record_size;
        Ok(&self.data[start..start + self.record_size])
    }

    /// The raw contiguous byte buffer backing the database.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// The bytes of records `[start, start + count)` — the chunk copied to
    /// one DPU during preloading (§3.3: `B_d = ⌈N / P⌉` records per DPU).
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the database.
    #[must_use]
    pub fn record_chunk(&self, start: u64, count: u64) -> &[u8] {
        assert!(
            start + count <= self.num_records,
            "chunk [{start}, {}) exceeds {} records",
            start + count,
            self.num_records
        );
        let begin = start as usize * self.record_size;
        let end = begin + count as usize * self.record_size;
        &self.data[begin..end]
    }

    /// A new database holding only records `[start, start + count)` — the
    /// materialised replica one shard of a
    /// [`crate::shard::ShardedDatabase`] hands to its backend.
    ///
    /// # Errors
    ///
    /// * [`PirError::InvalidDatabaseGeometry`] if `count` is zero;
    /// * [`PirError::IndexOutOfRange`] if the range extends past the end of
    ///   the database.
    pub fn subrange(&self, start: u64, count: u64) -> Result<Database, PirError> {
        if count == 0 {
            return Err(PirError::InvalidDatabaseGeometry {
                num_records: 0,
                record_bytes: self.record_size,
            });
        }
        let end = start.checked_add(count).ok_or(PirError::IndexOutOfRange {
            index: u64::MAX,
            num_records: self.num_records,
        })?;
        if end > self.num_records {
            return Err(PirError::IndexOutOfRange {
                index: end - 1,
                num_records: self.num_records,
            });
        }
        Ok(Database {
            record_size: self.record_size,
            num_records: count,
            data: self.record_chunk(start, count).to_vec(),
        })
    }

    /// Overwrites the record at `index` with `bytes`.
    ///
    /// This is the primitive the §3.3 update workflows build on. Callers
    /// serving queries should not drive it directly: backends keep their
    /// own replicas in sync through
    /// [`crate::batch::UpdatableBackend::apply_updates`], and sharded
    /// deployments update consistently through
    /// [`crate::engine::QueryEngine::apply_updates`] — no caller-side
    /// oracle copy is needed.
    ///
    /// # Errors
    ///
    /// * [`PirError::IndexOutOfRange`] if `index` is not a valid record;
    /// * [`PirError::RecordSizeMismatch`] if `bytes` has the wrong length.
    pub fn set_record(&mut self, index: u64, bytes: &[u8]) -> Result<(), PirError> {
        if index >= self.num_records {
            return Err(PirError::IndexOutOfRange {
                index,
                num_records: self.num_records,
            });
        }
        if bytes.len() != self.record_size {
            return Err(PirError::RecordSizeMismatch {
                expected: self.record_size,
                actual: bytes.len(),
            });
        }
        let start = index as usize * self.record_size;
        self.data[start..start + self.record_size].copy_from_slice(bytes);
        Ok(())
    }

    /// The `dpXOR` scan: XORs every record whose selector bit is set.
    ///
    /// This is the linear scan every PIR server must perform (the
    /// *all-for-one* principle): one call of
    /// [`crate::dpxor::xor_select_into`], which is pinned byte-identical to
    /// the scalar oracle [`crate::dpxor::xor_select_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if the selector length differs from the number of records.
    #[must_use]
    pub fn xor_select(&self, selector: &SelectorVector) -> Vec<u8> {
        let mut acc_words = Vec::new();
        self.xor_select_with(selector, &mut acc_words)
    }

    /// [`Database::xor_select`] with a caller-owned word scratch, so scan
    /// loops (one scan per query of a batch) reuse the accumulator words
    /// instead of allocating them per call.
    ///
    /// # Panics
    ///
    /// Panics if the selector length differs from the number of records.
    #[must_use]
    pub fn xor_select_with(&self, selector: &SelectorVector, acc_words: &mut Vec<u64>) -> Vec<u8> {
        assert_eq!(
            selector.len() as u64,
            self.num_records,
            "selector length must equal the number of records"
        );
        let mut accumulator = vec![0u8; self.record_size];
        dpxor::xor_select_into_with(
            &self.data,
            self.record_size,
            selector,
            &mut accumulator,
            acc_words,
        );
        accumulator
    }
}

/// `⌈log2(num_records)⌉`, at least 1 — the single definition of the DPF
/// domain for a record count, shared by [`Database::domain_bits`], the
/// client and the engine so their domain checks can never drift apart.
pub(crate) fn domain_bits_for_records(num_records: u64) -> u32 {
    let bits = 64 - (num_records.max(1) - 1).leading_zeros();
    bits.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_accessors() {
        let db = Database::random(100, 16, 3).unwrap();
        assert_eq!(db.num_records(), 100);
        assert_eq!(db.record_size(), 16);
        assert_eq!(db.size_bytes(), 1600);
        assert_eq!(db.domain_bits(), 7);
        assert_eq!(db.as_bytes().len(), 1600);
    }

    #[test]
    fn domain_bits_handles_powers_of_two_and_one_record() {
        assert_eq!(Database::zeroed(1, 8).unwrap().domain_bits(), 1);
        assert_eq!(Database::zeroed(2, 8).unwrap().domain_bits(), 1);
        assert_eq!(Database::zeroed(3, 8).unwrap().domain_bits(), 2);
        assert_eq!(Database::zeroed(256, 8).unwrap().domain_bits(), 8);
        assert_eq!(Database::zeroed(257, 8).unwrap().domain_bits(), 9);
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        assert!(Database::zeroed(0, 8).is_err());
        assert!(Database::zeroed(8, 0).is_err());
        assert!(Database::random(0, 8, 1).is_err());
        let empty: &[Vec<u8>] = &[];
        assert!(Database::from_records(empty).is_err());
    }

    #[test]
    fn from_records_roundtrips() {
        let records: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 4]).collect();
        let db = Database::from_records(&records).unwrap();
        for (i, record) in records.iter().enumerate() {
            assert_eq!(db.record(i as u64), record.as_slice());
        }
    }

    #[test]
    fn mismatched_record_sizes_are_rejected() {
        let records = vec![vec![1u8; 4], vec![2u8; 5]];
        assert!(matches!(
            Database::from_records(&records),
            Err(PirError::RecordSizeMismatch {
                expected: 4,
                actual: 5
            })
        ));
    }

    #[test]
    fn try_record_bounds_check() {
        let db = Database::random(10, 8, 0).unwrap();
        assert!(db.try_record(9).is_ok());
        assert!(db.try_record(10).is_err());
    }

    #[test]
    fn random_databases_are_deterministic_per_seed() {
        let a = Database::random(64, 32, 42).unwrap();
        let b = Database::random(64, 32, 42).unwrap();
        let c = Database::random(64, 32, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn xor_select_matches_manual_xor() {
        let db = Database::random(50, 8, 9).unwrap();
        let selector: SelectorVector = (0..50).map(|i| i % 3 == 0).collect();
        let mut expected = vec![0u8; 8];
        for i in 0..50u64 {
            if i % 3 == 0 {
                for (acc, byte) in expected.iter_mut().zip(db.record(i)) {
                    *acc ^= *byte;
                }
            }
        }
        assert_eq!(db.xor_select(&selector), expected);
    }

    #[test]
    fn set_record_overwrites_and_validates() {
        let mut db = Database::random(10, 4, 0).unwrap();
        db.set_record(3, &[9, 9, 9, 9]).unwrap();
        assert_eq!(db.record(3), &[9, 9, 9, 9]);
        assert!(matches!(
            db.set_record(10, &[0; 4]),
            Err(PirError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            db.set_record(0, &[0; 3]),
            Err(PirError::RecordSizeMismatch { .. })
        ));
    }

    #[test]
    fn record_chunk_is_contiguous_records() {
        let db = Database::random(20, 4, 5).unwrap();
        let chunk = db.record_chunk(5, 3);
        assert_eq!(chunk.len(), 12);
        assert_eq!(&chunk[0..4], db.record(5));
        assert_eq!(&chunk[8..12], db.record(7));
    }
}
