//! The `dpXOR` primitive: selector-weighted XOR over a run of records.
//!
//! This is the memory-bound linear scan at the heart of every multi-server
//! PIR query (§2.3, §3.3): for each record `j`, if the selector bit
//! `Eval(k, j)` is set, XOR the record into an accumulator. The paper's
//! whole point is *where* this scan runs — on the CPU (baseline), on a GPU,
//! or in memory on DPUs — but the arithmetic is identical everywhere.
//!
//! # Two functions, no dispatch
//!
//! * [`xor_select_into`] / [`xor_select_into_with`] — the scan every
//!   host-side backend runs (the CPU and streaming servers, the CPU/GPU
//!   baselines, the PIM server's host snapshot). Records of up to
//!   [`MAX_REGISTER_WORDS`] whole words are scanned with the whole
//!   accumulator held in registers (4–8 `u64` XORs per selector-bit check
//!   for the paper's 32–64-byte records), larger records in unrolled 8-word
//!   groups, and a record size that is *not* a multiple of 8 takes the word
//!   path for its aligned prefix plus a ≤7-byte tail packed into one extra
//!   `u64` — odd sizes (33-byte records as much as the paper's 40-byte ones)
//!   do not collapse to a byte loop.
//! * [`xor_select_scalar`] — the byte-wise reference loop, Algorithm 1
//!   written down literally. It is the oracle the fast path is tested
//!   byte-identical against for every geometry, and nothing serves a query
//!   with it.
//!
//! The fast path skips all-zero selector words in one branch, so a sparse
//! selector costs ~1 branch per 64 records — on average the scan touches
//! half the records, exactly Algorithm 1's
//! `if v[j] = 1 then t_i ← t_i ⊕ D_d[j]`. Intra-query parallelism is not
//! this module's business: a shard *is* a record-range chunk scanned on its
//! own thread and XOR-merged, one layer up
//! ([`crate::engine::QueryEngine`]).

use impir_dpf::SelectorVector;

/// Largest number of whole 8-byte words per record for which the scan keeps
/// the full accumulator in registers.
pub const MAX_REGISTER_WORDS: usize = 8;

/// Loads up to 7 tail bytes as a little-endian `u64` (upper bytes zero).
#[inline]
fn load_tail(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

/// Stores the low `bytes.len()` bytes of `word` back into `bytes`.
#[inline]
fn store_tail(word: u64, bytes: &mut [u8]) {
    let len = bytes.len();
    bytes.copy_from_slice(&word.to_le_bytes()[..len]);
}

#[inline]
fn load_word(bytes: &[u8], word: usize) -> u64 {
    u64::from_le_bytes(
        bytes[word * 8..word * 8 + 8]
            .try_into()
            .expect("8-byte chunk"),
    )
}

/// Register-resident scan for records of `W` whole words plus an optional
/// tail: the accumulator never leaves registers between records, so each
/// selector-bit check costs `W` loads + `W` XORs and nothing else.
fn scan_registers<const W: usize>(
    records: &[u8],
    record_size: usize,
    selector: &SelectorVector,
    accumulator: &mut [u8],
) {
    debug_assert_eq!(record_size / 8, W);
    let tail = record_size - W * 8;
    let mut acc = [0u64; W];
    for (word, slot) in acc.iter_mut().enumerate() {
        *slot = load_word(accumulator, word);
    }
    let mut acc_tail = load_tail(&accumulator[W * 8..]);

    for (word_index, &selector_word) in selector.words().iter().enumerate() {
        // All-zero selector words — 64 unselected records — cost one branch.
        if selector_word == 0 {
            continue;
        }
        let mut remaining = selector_word;
        while remaining != 0 {
            let bit = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            let start = (word_index * 64 + bit) * record_size;
            let record = &records[start..start + record_size];
            // Fixed-length word region, so the per-word loads bounds-check
            // against the constant `W * 8` and fold away.
            let word_bytes = &record[..W * 8];
            for (word, slot) in acc.iter_mut().enumerate() {
                *slot ^= load_word(word_bytes, word);
            }
            if tail != 0 {
                acc_tail ^= load_tail(&record[W * 8..]);
            }
        }
    }

    for (word, slot) in acc.iter().enumerate() {
        accumulator[word * 8..word * 8 + 8].copy_from_slice(&slot.to_le_bytes());
    }
    if tail != 0 {
        store_tail(acc_tail, &mut accumulator[W * 8..]);
    }
}

/// Unrolled scan for records larger than [`MAX_REGISTER_WORDS`] words: the
/// aligned prefix is XORed in 8-word groups (each group's loads issued
/// back to back before any accumulator store), the sub-group remainder one
/// word at a time, and the tail as one packed word.
fn scan_unrolled_large(
    records: &[u8],
    record_size: usize,
    selector: &SelectorVector,
    accumulator: &mut [u8],
    acc_words: &mut Vec<u64>,
) {
    let whole_words = record_size / 8;
    let tail = record_size % 8;
    acc_words.clear();
    acc_words.resize(whole_words, 0);
    for (word, slot) in acc_words.iter_mut().enumerate() {
        *slot = load_word(accumulator, word);
    }
    let mut acc_tail = load_tail(&accumulator[whole_words * 8..]);

    for (word_index, &selector_word) in selector.words().iter().enumerate() {
        if selector_word == 0 {
            continue;
        }
        let mut remaining = selector_word;
        while remaining != 0 {
            let bit = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            let start = (word_index * 64 + bit) * record_size;
            let record = &records[start..start + record_size];
            let mut acc_groups = acc_words.chunks_exact_mut(8);
            let mut record_groups = record[..whole_words * 8].chunks_exact(64);
            for (acc_group, record_group) in (&mut acc_groups).zip(&mut record_groups) {
                for (word, slot) in acc_group.iter_mut().enumerate() {
                    *slot ^= load_word(record_group, word);
                }
            }
            let record_rest = record_groups.remainder();
            for (word, slot) in acc_groups.into_remainder().iter_mut().enumerate() {
                *slot ^= load_word(record_rest, word);
            }
            if tail != 0 {
                acc_tail ^= load_tail(&record[whole_words * 8..]);
            }
        }
    }

    for (chunk, slot) in accumulator.chunks_exact_mut(8).zip(acc_words.iter()) {
        chunk.copy_from_slice(&slot.to_le_bytes());
    }
    if tail != 0 {
        store_tail(acc_tail, &mut accumulator[whole_words * 8..]);
    }
}

/// XORs every selected record of `records` into `accumulator`.
///
/// `records` must contain exactly `selector.len()` records of
/// `record_size` bytes; `accumulator` must be `record_size` bytes long.
///
/// # Panics
///
/// Panics if the slice sizes are inconsistent.
pub fn xor_select_into(
    records: &[u8],
    record_size: usize,
    selector: &SelectorVector,
    accumulator: &mut [u8],
) {
    let mut acc_words = Vec::new();
    xor_select_into_with(records, record_size, selector, accumulator, &mut acc_words);
}

/// [`xor_select_into`] with a caller-owned word scratch (cleared and
/// refilled, keeping capacity), so repeated scans of records larger than
/// [`MAX_REGISTER_WORDS`] words — one per query of a batch — allocate
/// nothing in the steady state. Smaller records never touch it.
///
/// # Panics
///
/// Panics if the slice sizes are inconsistent.
pub fn xor_select_into_with(
    records: &[u8],
    record_size: usize,
    selector: &SelectorVector,
    accumulator: &mut [u8],
    acc_words: &mut Vec<u64>,
) {
    check_shapes(records, record_size, selector, accumulator);
    match record_size / 8 {
        0 => scan_registers::<0>(records, record_size, selector, accumulator),
        1 => scan_registers::<1>(records, record_size, selector, accumulator),
        2 => scan_registers::<2>(records, record_size, selector, accumulator),
        3 => scan_registers::<3>(records, record_size, selector, accumulator),
        4 => scan_registers::<4>(records, record_size, selector, accumulator),
        5 => scan_registers::<5>(records, record_size, selector, accumulator),
        6 => scan_registers::<6>(records, record_size, selector, accumulator),
        7 => scan_registers::<7>(records, record_size, selector, accumulator),
        8 => scan_registers::<8>(records, record_size, selector, accumulator),
        _ => scan_unrolled_large(records, record_size, selector, accumulator, acc_words),
    }
}

/// Byte-wise reference implementation of the selector-weighted XOR.
///
/// # Panics
///
/// Panics if the slice sizes are inconsistent.
pub fn xor_select_scalar(
    records: &[u8],
    record_size: usize,
    selector: &SelectorVector,
    accumulator: &mut [u8],
) {
    check_shapes(records, record_size, selector, accumulator);
    for index in 0..selector.len() {
        if selector.get(index) {
            let start = index * record_size;
            for (acc, byte) in accumulator
                .iter_mut()
                .zip(&records[start..start + record_size])
            {
                *acc ^= *byte;
            }
        }
    }
}

/// Merges a set of per-chunk partial results into a single record by XOR —
/// the second stage of the parallel reduction (Algorithm 1's `MasterXOR`
/// on a DPU and the host-side aggregation of per-DPU subresults).
///
/// # Panics
///
/// Panics if the partials do not all have length `record_size`.
#[must_use]
pub fn xor_reduce(partials: &[Vec<u8>], record_size: usize) -> Vec<u8> {
    let mut accumulator = vec![0u8; record_size];
    for partial in partials {
        assert_eq!(
            partial.len(),
            record_size,
            "partial result has the wrong record size"
        );
        for (acc, byte) in accumulator.iter_mut().zip(partial) {
            *acc ^= *byte;
        }
    }
    accumulator
}

/// XORs `other` into `accumulator` in place.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_in_place(accumulator: &mut [u8], other: &[u8]) {
    assert_eq!(accumulator.len(), other.len(), "length mismatch");
    for (acc, byte) in accumulator.iter_mut().zip(other) {
        *acc ^= *byte;
    }
}

fn check_shapes(
    records: &[u8],
    record_size: usize,
    selector: &SelectorVector,
    accumulator: &mut [u8],
) {
    assert!(record_size > 0, "record size must be non-zero");
    assert_eq!(
        records.len(),
        selector.len() * record_size,
        "records buffer does not match selector length"
    );
    assert_eq!(
        accumulator.len(),
        record_size,
        "accumulator must be one record long"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_records(count: usize, record_size: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count * record_size).map(|_| rng.gen()).collect()
    }

    /// Selector patterns the fast path must agree with the oracle on:
    /// empty, full, sparse (one bit per word, so the word-skipping branch
    /// exercises both arms) and pseudo-random.
    fn selector_patterns(count: usize, seed: u64) -> Vec<(&'static str, SelectorVector)> {
        let mut rng = StdRng::seed_from_u64(seed);
        vec![
            ("all-zero", SelectorVector::zeros(count)),
            ("all-one", (0..count).map(|_| true).collect()),
            ("sparse", (0..count).map(|i| i % 64 == 63).collect()),
            ("random", (0..count).map(|_| rng.gen()).collect()),
        ]
    }

    fn oracle(records: &[u8], record_size: usize, selector: &SelectorVector) -> Vec<u8> {
        let mut accumulator = vec![0u8; record_size];
        xor_select_scalar(records, record_size, selector, &mut accumulator);
        accumulator
    }

    #[test]
    fn fast_path_matches_the_oracle_across_geometries() {
        // Record sizes straddling every boundary of the size match:
        // sub-word, exact words, word+tail, the register/unrolled crossover
        // at 64 bytes, and a large record with both a group remainder and a
        // tail.
        for record_size in [1usize, 2, 7, 8, 9, 16, 33, 40, 64, 65, 72, 100, 257] {
            let count = 200;
            let records = random_records(count, record_size, record_size as u64);
            for (pattern, selector) in selector_patterns(count, 7) {
                let expected = oracle(&records, record_size, &selector);
                let mut accumulator = vec![0u8; record_size];
                xor_select_into(&records, record_size, &selector, &mut accumulator);
                assert_eq!(
                    accumulator, expected,
                    "record_size={record_size} pattern={pattern}"
                );
            }
        }
    }

    #[test]
    fn fast_path_accumulates_into_nonzero_accumulators() {
        // The contract is `accumulator ^= scan`, not `accumulator = scan`.
        let record_size = 33;
        let records = random_records(100, record_size, 5);
        let selector: SelectorVector = (0..100).map(|i| i % 3 == 0).collect();
        let mut expected = vec![0x5a; record_size];
        xor_select_scalar(&records, record_size, &selector, &mut expected);
        let mut accumulator = vec![0x5a; record_size];
        xor_select_into(&records, record_size, &selector, &mut accumulator);
        assert_eq!(accumulator, expected);
    }

    #[test]
    fn scratch_reuse_matches_the_oracle_across_record_sizes() {
        // One scratch carried across scans of different record sizes — the
        // >64-byte ones are those that actually use it — must change
        // nothing.
        let mut scratch = Vec::new();
        for (count, record_size, seed) in [
            (64usize, 32usize, 1u64),
            (100, 8, 2),
            (40, 100, 3),
            (30, 48, 4),
            (25, 257, 5),
            (40, 72, 6),
        ] {
            let records = random_records(count, record_size, seed);
            let selector: SelectorVector = (0..count).map(|i| i % 3 != 0).collect();
            let mut reused = vec![0u8; record_size];
            xor_select_into_with(&records, record_size, &selector, &mut reused, &mut scratch);
            assert_eq!(
                reused,
                oracle(&records, record_size, &selector),
                "record_size={record_size}"
            );
        }
    }

    #[test]
    fn fast_path_handles_odd_record_sizes() {
        let records = random_records(50, 7, 2);
        let selector: SelectorVector = (0..50).map(|i| i % 2 == 0).collect();
        let mut accumulator = vec![0u8; 7];
        xor_select_into(&records, 7, &selector, &mut accumulator);
        assert_eq!(accumulator, oracle(&records, 7, &selector));
    }

    #[test]
    fn empty_selector_leaves_accumulator_unchanged() {
        let selector = SelectorVector::zeros(16);
        let records = random_records(16, 8, 3);
        let mut accumulator = vec![0xaa; 8];
        xor_select_into(&records, 8, &selector, &mut accumulator);
        assert_eq!(accumulator, vec![0xaa; 8]);
    }

    #[test]
    fn one_hot_selector_returns_that_record() {
        let records = random_records(64, 16, 4);
        let mut selector = SelectorVector::zeros(64);
        selector.set(37, true);
        let mut accumulator = vec![0u8; 16];
        xor_select_into(&records, 16, &selector, &mut accumulator);
        assert_eq!(accumulator, &records[37 * 16..38 * 16]);
    }

    #[test]
    fn xor_reduce_combines_partials() {
        let partials = vec![vec![0b1010u8, 0], vec![0b0110u8, 1], vec![0b0001u8, 1]];
        assert_eq!(xor_reduce(&partials, 2), vec![0b1101, 0]);
        assert_eq!(xor_reduce(&[], 3), vec![0, 0, 0]);
    }

    #[test]
    fn xor_in_place_is_xor() {
        let mut acc = vec![1u8, 2, 3];
        xor_in_place(&mut acc, &[1, 1, 1]);
        assert_eq!(acc, vec![0, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn shape_mismatch_panics() {
        let selector = SelectorVector::zeros(4);
        let mut acc = vec![0u8; 8];
        xor_select_into(&[0u8; 8], 8, &selector, &mut acc);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_fast_path_matches_scalar(
            count in 1usize..300,
            record_size in 1usize..=257,
            density in 0u8..=4,
            seed in any::<u64>(),
        ) {
            let records = random_records(count, record_size, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
            let selector: SelectorVector = match density {
                0 => SelectorVector::zeros(count),
                1 => (0..count).map(|_| true).collect(),
                2 => (0..count).map(|i| i % 61 == 0).collect(),
                _ => (0..count).map(|_| rng.gen()).collect(),
            };
            let mut accumulator = vec![0u8; record_size];
            xor_select_into(&records, record_size, &selector, &mut accumulator);
            prop_assert_eq!(
                &accumulator,
                &oracle(&records, record_size, &selector),
                "record_size={}",
                record_size
            );
        }

        #[test]
        fn prop_fast_path_agrees_on_offset_chunks(
            count in 65usize..300,
            record_size in 1usize..64,
            offset in 1usize..64,
            seed in any::<u64>(),
        ) {
            // A shard is a record-range chunk whose selector slice starts at
            // an arbitrary bit offset of the full-domain selector; the scan
            // must agree with the oracle on such unaligned sub-scans.
            let offset = offset.min(count - 1);
            let chunk_records = count - offset;
            let records = random_records(count, record_size, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0ff5e7);
            let selector: SelectorVector = (0..count).map(|_| rng.gen()).collect();
            let chunk = &records[offset * record_size..];
            let chunk_selector = selector.slice(offset, chunk_records);
            let mut accumulator = vec![0u8; record_size];
            xor_select_into(chunk, record_size, &chunk_selector, &mut accumulator);
            prop_assert_eq!(&accumulator, &oracle(chunk, record_size, &chunk_selector));
        }

        #[test]
        fn prop_xor_select_is_linear(
            count in 1usize..120,
            seed in any::<u64>(),
        ) {
            // xor_select(a ⊕ b) == xor_select(a) ⊕ xor_select(b): the scan is
            // linear in the selector, the property PIR correctness rests on.
            let record_size = 16;
            let records = random_records(count, record_size, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
            let a: SelectorVector = (0..count).map(|_| rng.gen()).collect();
            let b: SelectorVector = (0..count).map(|_| rng.gen()).collect();
            let mut a_xor_b = a.clone();
            a_xor_b.xor_assign(&b);

            let mut out_a = vec![0u8; record_size];
            let mut out_b = vec![0u8; record_size];
            let mut out_ab = vec![0u8; record_size];
            xor_select_into(&records, record_size, &a, &mut out_a);
            xor_select_into(&records, record_size, &b, &mut out_b);
            xor_select_into(&records, record_size, &a_xor_b, &mut out_ab);
            xor_in_place(&mut out_a, &out_b);
            prop_assert_eq!(out_a, out_ab);
        }
    }
}
