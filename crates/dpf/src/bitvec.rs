//! Packed selector bit-vectors.
//!
//! A server's full-domain DPF evaluation produces one selector bit per
//! database record — `Eval(k, j)` for every `j` — which is then used to
//! decide whether record `j` participates in the XOR accumulation (§3.3).
//! Storing those bits packed 64-per-word keeps the vector 8× smaller than a
//! byte-per-bit layout and lets the `dpXOR` kernels and the CPU↔DPU copies
//! move whole words, which is also how the paper ships "bit arrays" to the
//! DPUs.

/// A densely packed vector of selector bits.
///
/// # Example
///
/// ```
/// use impir_dpf::SelectorVector;
///
/// let mut v = SelectorVector::zeros(130);
/// v.set(0, true);
/// v.set(129, true);
/// assert_eq!(v.count_ones(), 2);
/// assert!(v.get(129));
/// assert!(!v.get(64));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SelectorVector {
    words: Vec<u64>,
    len: usize,
}

impl SelectorVector {
    /// Creates an all-zero vector of `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        SelectorVector {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a vector from an iterator of booleans.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut vector = SelectorVector::zeros(0);
        for bit in bits {
            vector.push(bit);
        }
        vector
    }

    /// Number of bits in the vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a bit at the end of the vector.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        let offset = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1 << offset;
        }
        self.len += 1;
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets the bit at `index` to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % 64);
        if bit {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed 64-bit words backing the vector.
    ///
    /// Bits beyond `len()` in the final word are guaranteed to be zero as
    /// long as the vector was only modified through this API.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The packed representation as bytes (little-endian words), the layout
    /// copied into DPU MRAM.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Reconstructs a vector from the packed byte layout produced by
    /// [`SelectorVector::to_bytes`].
    ///
    /// Extra trailing bytes (zero padding) are tolerated; missing bytes are
    /// not.
    #[must_use]
    pub fn from_bytes(bytes: &[u8], len: usize) -> Option<Self> {
        let needed_words = len.div_ceil(64);
        if bytes.len() < needed_words * 8 {
            return None;
        }
        let words = bytes[..needed_words * 8]
            .chunks_exact(8)
            .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("chunk of 8 bytes")))
            .collect();
        Some(SelectorVector { words, len })
    }

    /// Reserves capacity for at least `additional_bits` more bits, so that
    /// subsequent appends perform no reallocation.
    ///
    /// Lets hot paths (the DPF expansion pipeline) size a query's selector
    /// vector once up front.
    pub fn reserve_bits(&mut self, additional_bits: usize) {
        let needed_words = (self.len + additional_bits).div_ceil(64);
        self.words
            .reserve(needed_words.saturating_sub(self.words.len()));
    }

    /// Appends the first `count` bits of the packed `words` (bit `i` of the
    /// sequence is bit `i % 64` of `words[i / 64]`) to the end of the
    /// vector, shifting and merging whole words at the current bit offset —
    /// the word-level replacement for pushing bits one at a time.
    ///
    /// Bits of `words` at positions `count` and beyond are ignored, so
    /// callers may hand over scratch buffers with stale tails.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than `count` bits.
    pub fn extend_from_words(&mut self, words: &[u64], count: usize) {
        assert!(
            count <= words.len() * 64,
            "{count} bits requested from {} words",
            words.len()
        );
        if count == 0 {
            return;
        }
        let src_words = count.div_ceil(64);
        let new_len = self.len + count;
        let offset = self.len % 64;
        self.words.resize(new_len.div_ceil(64), 0);
        let base = self.len / 64;
        if offset == 0 {
            self.words[base..base + src_words].copy_from_slice(&words[..src_words]);
        } else {
            for (k, &word) in words[..src_words].iter().enumerate() {
                self.words[base + k] |= word << offset;
                if base + k + 1 < self.words.len() {
                    self.words[base + k + 1] = word >> (64 - offset);
                }
            }
        }
        self.len = new_len;
        self.clear_tail();
    }

    /// Appends all of `other`'s bits to the end of the vector using the
    /// word-level shift-and-merge path.
    pub fn extend_from_bitvec(&mut self, other: &SelectorVector) {
        self.extend_from_words(&other.words, other.len);
    }

    /// Zeroes any bits of the final word at positions `len` and beyond,
    /// restoring the invariant [`SelectorVector::words`] documents.
    fn clear_tail(&mut self) {
        if !self.len.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (self.len % 64)) - 1;
            }
        }
    }

    /// XORs `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn xor_assign(&mut self, other: &SelectorVector) {
        assert_eq!(self.len, other.len, "selector vectors must match in length");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= *b;
        }
    }

    /// Iterates over the bits of the vector.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Extracts the sub-vector covering `[start, start + count)`.
    ///
    /// This is how a full-domain evaluation is split into the per-DPU
    /// chunks described in §3.3 ("the first DPU receives the first `B_d`
    /// DPF evaluation results..."). Word-aligned starts copy whole words;
    /// unaligned starts shift-and-merge adjacent word pairs — neither path
    /// touches individual bits.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the vector.
    #[must_use]
    pub fn slice(&self, start: usize, count: usize) -> SelectorVector {
        assert!(
            start + count <= self.len,
            "slice [{start}, {}) out of range {}",
            start + count,
            self.len
        );
        let first_word = start / 64;
        let offset = start % 64;
        let words_needed = count.div_ceil(64);
        let mut words: Vec<u64>;
        if offset == 0 {
            words = self.words[first_word..first_word + words_needed].to_vec();
        } else {
            words = Vec::with_capacity(words_needed);
            for k in 0..words_needed {
                let low = self.words[first_word + k] >> offset;
                let high = self
                    .words
                    .get(first_word + k + 1)
                    .map_or(0, |word| word << (64 - offset));
                words.push(low | high);
            }
        }
        // Clear any bits past `count` in the final word.
        if !count.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (count % 64)) - 1;
            }
        }
        SelectorVector { words, len: count }
    }

    /// Concatenates a sequence of vectors into one, merging whole words.
    #[must_use]
    pub fn concat(parts: &[SelectorVector]) -> SelectorVector {
        let total: usize = parts.iter().map(SelectorVector::len).sum();
        let mut out = SelectorVector::zeros(0);
        out.reserve_bits(total);
        for part in parts {
            out.extend_from_bitvec(part);
        }
        out
    }
}

impl FromIterator<bool> for SelectorVector {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        SelectorVector::from_bits(iter)
    }
}

impl Extend<bool> for SelectorVector {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for bit in iter {
            self.push(bit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retired bit-by-bit slice, kept as the oracle for the word path.
    fn slice_bitwise(vector: &SelectorVector, start: usize, count: usize) -> SelectorVector {
        SelectorVector::from_bits((start..start + count).map(|i| vector.get(i)))
    }

    /// The retired bit-by-bit concat, kept as the oracle for the word path.
    fn concat_bitwise(parts: &[SelectorVector]) -> SelectorVector {
        let mut out = SelectorVector::zeros(0);
        for part in parts {
            for bit in part.iter() {
                out.push(bit);
            }
        }
        out
    }

    fn pseudo_vector(len: usize, seed: u64) -> SelectorVector {
        (0..len)
            .map(|i| {
                (i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left(17)
                    % 7
                    < seed % 7
            })
            .collect()
    }

    #[test]
    fn slice_matches_bitwise_oracle_everywhere() {
        let vector = pseudo_vector(403, 3);
        for start in [0usize, 1, 7, 63, 64, 65, 100, 128, 200, 402] {
            for count in [0usize, 1, 5, 63, 64, 65, 127, 130, 203] {
                if start + count > vector.len() {
                    continue;
                }
                assert_eq!(
                    vector.slice(start, count),
                    slice_bitwise(&vector, start, count),
                    "start={start} count={count}"
                );
            }
        }
    }

    #[test]
    fn concat_matches_bitwise_oracle() {
        for lens in [
            vec![0usize, 1, 63],
            vec![64, 64],
            vec![13, 51, 7, 130, 1],
            vec![200],
            vec![],
        ] {
            let parts: Vec<SelectorVector> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| pseudo_vector(len, i as u64 + 2))
                .collect();
            assert_eq!(
                SelectorVector::concat(&parts),
                concat_bitwise(&parts),
                "lens={lens:?}"
            );
        }
    }

    #[test]
    fn extend_from_words_matches_pushes_at_every_offset() {
        for initial in [0usize, 1, 37, 63, 64, 65, 128] {
            for count in [0usize, 1, 17, 64, 65, 128, 129] {
                let mut vector = pseudo_vector(initial, 5);
                let expected_bits: Vec<bool> = (0..count).map(|i| (i * 11) % 3 == 0).collect();
                let mut expected = vector.clone();
                for &bit in &expected_bits {
                    expected.push(bit);
                }
                // Pack the bits and poison the tail of the last word to
                // check stale source bits are masked off.
                let mut words = vec![0u64; count.div_ceil(64).max(1)];
                for (i, &bit) in expected_bits.iter().enumerate() {
                    if bit {
                        words[i / 64] |= 1 << (i % 64);
                    }
                }
                if !count.is_multiple_of(64) {
                    *words.last_mut().unwrap() |= !((1u64 << (count % 64)) - 1);
                }
                vector.extend_from_words(&words, count);
                assert_eq!(vector, expected, "initial={initial} count={count}");
            }
        }
    }

    #[test]
    fn extend_from_bitvec_equals_extend_iterator() {
        let mut word_path = pseudo_vector(77, 1);
        let mut bit_path = word_path.clone();
        let suffix = pseudo_vector(190, 4);
        word_path.extend_from_bitvec(&suffix);
        bit_path.extend(suffix.iter());
        assert_eq!(word_path, bit_path);
    }

    #[test]
    #[should_panic(expected = "bits requested")]
    fn extend_from_words_rejects_short_buffers() {
        let mut vector = SelectorVector::zeros(0);
        vector.extend_from_words(&[0u64], 65);
    }

    #[test]
    fn push_get_roundtrip() {
        let bits: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let vector: SelectorVector = bits.iter().copied().collect();
        assert_eq!(vector.len(), bits.len());
        for (i, bit) in bits.iter().enumerate() {
            assert_eq!(vector.get(i), *bit, "bit {i}");
        }
    }

    #[test]
    fn count_ones_matches_naive() {
        let bits: Vec<bool> = (0..777).map(|i| (i * 7) % 11 < 4).collect();
        let vector: SelectorVector = bits.iter().copied().collect();
        assert_eq!(vector.count_ones(), bits.iter().filter(|b| **b).count());
    }

    #[test]
    fn xor_assign_is_bitwise() {
        let a: SelectorVector = (0..100).map(|i| i % 2 == 0).collect();
        let b: SelectorVector = (0..100).map(|i| i % 3 == 0).collect();
        let mut c = a.clone();
        c.xor_assign(&b);
        for i in 0..100 {
            assert_eq!(c.get(i), a.get(i) ^ b.get(i));
        }
    }

    #[test]
    fn slice_word_aligned_and_unaligned() {
        let bits: Vec<bool> = (0..300).map(|i| (i / 5) % 2 == 0).collect();
        let vector: SelectorVector = bits.iter().copied().collect();
        for (start, count) in [(0, 64), (64, 100), (7, 80), (130, 170), (299, 1)] {
            let sliced = vector.slice(start, count);
            assert_eq!(sliced.len(), count);
            for i in 0..count {
                assert_eq!(sliced.get(i), bits[start + i], "start={start} i={i}");
            }
        }
    }

    #[test]
    fn aligned_slice_clears_trailing_bits() {
        let vector: SelectorVector = (0..128).map(|_| true).collect();
        let sliced = vector.slice(0, 70);
        assert_eq!(sliced.count_ones(), 70);
    }

    #[test]
    fn bytes_roundtrip() {
        let vector: SelectorVector = (0..130).map(|i| i % 7 == 0).collect();
        let bytes = vector.to_bytes();
        let restored = SelectorVector::from_bytes(&bytes, vector.len()).expect("enough bytes");
        assert_eq!(restored, vector);
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        let vector: SelectorVector = (0..130).map(|i| i % 2 == 0).collect();
        let bytes = vector.to_bytes();
        assert!(SelectorVector::from_bytes(&bytes[..bytes.len() - 1], vector.len()).is_none());
    }

    #[test]
    fn concat_restores_slices() {
        let vector: SelectorVector = (0..250).map(|i| i % 13 == 0).collect();
        let parts = vec![
            vector.slice(0, 100),
            vector.slice(100, 100),
            vector.slice(200, 50),
        ];
        assert_eq!(SelectorVector::concat(&parts), vector);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let vector = SelectorVector::zeros(10);
        let _ = vector.get(10);
    }

    #[test]
    fn empty_vector_behaves() {
        let vector = SelectorVector::zeros(0);
        assert!(vector.is_empty());
        assert_eq!(vector.count_ones(), 0);
        assert!(vector.to_bytes().is_empty());
    }
}
