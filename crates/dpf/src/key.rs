//! DPF key material.
//!
//! The paper (§3.1) describes each key as "two 2-dimensional codewords
//! `C0, C1 ∈ F_{2^λ}^{2×(log N + 1)}`" following the GPU-PIR construction
//! [62], which itself extends the GGM-based DPF of Gilboa–Ishai [36]. The
//! equivalent, more common presentation (Boyle–Gilboa–Ishai) stores one
//! root seed plus one *correction word* per tree level; the correction words
//! are exactly the rows of those codeword matrices. This module stores keys
//! in the correction-word form and documents the mapping.

use impir_crypto::Block;

use crate::error::DpfError;

/// Identifies which of the two non-colluding servers a key is meant for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartyId {
    /// The first server (S1).
    Server1,
    /// The second server (S2).
    Server2,
}

impl PartyId {
    /// The party's index (0 for S1, 1 for S2), used as the root control bit.
    #[must_use]
    pub fn index(self) -> u8 {
        match self {
            PartyId::Server1 => 0,
            PartyId::Server2 => 1,
        }
    }

    /// The other party.
    #[must_use]
    pub fn other(self) -> PartyId {
        match self {
            PartyId::Server1 => PartyId::Server2,
            PartyId::Server2 => PartyId::Server1,
        }
    }
}

/// Per-level correction word.
///
/// One correction word is applied at every level of the GGM tree by the
/// party whose control bit is set, keeping the two parties' seeds identical
/// off the special path and independent on it. In the paper's codeword
/// notation, level `d`'s correction word is column `d` of the key's
/// codeword matrices: `seed` is the `F_{2^λ}` entry and
/// `(control_left, control_right)` are the two `F_2` rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrectionWord {
    /// Seed correction applied to the child seed.
    pub seed: Block,
    /// Control-bit correction applied to the left child.
    pub control_left: bool,
    /// Control-bit correction applied to the right child.
    pub control_right: bool,
}

/// A single party's DPF key.
///
/// Together with its sibling (generated by the same
/// [`crate::gen::generate_keys`] call) it secret-shares the one-hot
/// selector for the client's query index. Individually it is pseudorandom
/// and reveals nothing about that index.
///
/// # Example
///
/// ```
/// use impir_dpf::gen::generate_keys;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let (k1, _k2) = generate_keys(8, 17, &mut rng)?;
/// assert_eq!(k1.domain_bits(), 8);
/// assert_eq!(k1.domain_size(), 256);
/// let bytes = k1.to_bytes();
/// assert_eq!(impir_dpf::DpfKey::from_bytes(&bytes)?, k1);
/// # Ok::<(), impir_dpf::DpfError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpfKey {
    party: PartyId,
    domain_bits: u32,
    root_seed: Block,
    correction_words: Vec<CorrectionWord>,
}

impl DpfKey {
    /// Assembles a key from its parts. Intended for use by
    /// [`crate::gen::generate_keys`]; exposed so serialization layers and
    /// tests can construct keys directly.
    ///
    /// # Errors
    ///
    /// Returns [`DpfError::MalformedKey`] if the number of correction words
    /// does not equal `domain_bits`.
    pub fn from_parts(
        party: PartyId,
        domain_bits: u32,
        root_seed: Block,
        correction_words: Vec<CorrectionWord>,
    ) -> Result<Self, DpfError> {
        if correction_words.len() != domain_bits as usize {
            return Err(DpfError::MalformedKey {
                reason: format!(
                    "expected {domain_bits} correction words, got {}",
                    correction_words.len()
                ),
            });
        }
        Ok(DpfKey {
            party,
            domain_bits,
            root_seed,
            correction_words,
        })
    }

    /// Which server this key belongs to.
    #[must_use]
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// The key's root control bit (the party index, as in BGI).
    #[must_use]
    pub fn root_control(&self) -> bool {
        self.party.index() == 1
    }

    /// The pseudorandom root seed.
    #[must_use]
    pub fn root_seed(&self) -> Block {
        self.root_seed
    }

    /// Domain size of the shared point function, in bits.
    #[must_use]
    pub fn domain_bits(&self) -> u32 {
        self.domain_bits
    }

    /// Domain size of the shared point function, in elements (`2^bits`).
    #[must_use]
    pub fn domain_size(&self) -> u64 {
        1u64 << self.domain_bits
    }

    /// The per-level correction words (level 1 first).
    #[must_use]
    pub fn correction_words(&self) -> &[CorrectionWord] {
        &self.correction_words
    }

    /// Size of the key on the wire, in bytes.
    ///
    /// The client sends one key per server per query; this is the quantity
    /// behind the paper's observation that multi-server PIR upload cost is
    /// `O(λ log N)`.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        // party (1) + domain_bits (4) + root seed (16) + per level (16 + 1).
        1 + 4 + 16 + self.correction_words.len() * 17
    }

    /// Serializes the key into a compact, self-describing byte string.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes());
        out.push(self.party.index());
        out.extend_from_slice(&self.domain_bits.to_le_bytes());
        out.extend_from_slice(&self.root_seed.to_bytes());
        for cw in &self.correction_words {
            out.extend_from_slice(&cw.seed.to_bytes());
            out.push(u8::from(cw.control_left) | (u8::from(cw.control_right) << 1));
        }
        out
    }

    /// Parses a key serialized by [`DpfKey::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`DpfError::MalformedKey`] if the input is truncated, has
    /// trailing garbage, or encodes an invalid party / domain.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DpfError> {
        let malformed = |reason: &str| DpfError::MalformedKey {
            reason: reason.to_string(),
        };
        if bytes.len() < 21 {
            return Err(malformed("key shorter than fixed header"));
        }
        let party = match bytes[0] {
            0 => PartyId::Server1,
            1 => PartyId::Server2,
            _ => return Err(malformed("invalid party byte")),
        };
        let domain_bits = u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes"));
        if domain_bits == 0 || domain_bits > crate::MAX_DOMAIN_BITS {
            return Err(malformed("domain bits out of range"));
        }
        let root_seed = Block::from_bytes(bytes[5..21].try_into().expect("16 bytes"));
        let expected_len = 21 + domain_bits as usize * 17;
        if bytes.len() != expected_len {
            return Err(malformed("key length does not match domain"));
        }
        let mut correction_words = Vec::with_capacity(domain_bits as usize);
        for level in 0..domain_bits as usize {
            let offset = 21 + level * 17;
            let seed = Block::from_bytes(bytes[offset..offset + 16].try_into().expect("16 bytes"));
            let flags = bytes[offset + 16];
            if flags > 0b11 {
                return Err(malformed("invalid control-bit flags"));
            }
            correction_words.push(CorrectionWord {
                seed,
                control_left: flags & 1 == 1,
                control_right: flags & 2 == 2,
            });
        }
        DpfKey::from_parts(party, domain_bits, root_seed, correction_words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_keys;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_key() -> DpfKey {
        let mut rng = StdRng::seed_from_u64(3);
        generate_keys(12, 100, &mut rng)
            .expect("valid parameters")
            .0
    }

    #[test]
    fn serialization_roundtrips() {
        let key = sample_key();
        let bytes = key.to_bytes();
        assert_eq!(bytes.len(), key.size_bytes());
        assert_eq!(DpfKey::from_bytes(&bytes).expect("roundtrip"), key);
    }

    #[test]
    fn truncated_keys_are_rejected() {
        let bytes = sample_key().to_bytes();
        for cut in [0, 1, 10, bytes.len() - 1] {
            assert!(
                DpfKey::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_key().to_bytes();
        bytes.push(0);
        assert!(DpfKey::from_bytes(&bytes).is_err());
    }

    #[test]
    fn invalid_party_and_flags_are_rejected() {
        let mut bytes = sample_key().to_bytes();
        bytes[0] = 7;
        assert!(DpfKey::from_bytes(&bytes).is_err());

        let mut bytes = sample_key().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] = 0xff;
        assert!(DpfKey::from_bytes(&bytes).is_err());
    }

    #[test]
    fn from_parts_validates_level_count() {
        let key = sample_key();
        let result = DpfKey::from_parts(
            key.party(),
            key.domain_bits() + 1,
            key.root_seed(),
            key.correction_words().to_vec(),
        );
        assert!(result.is_err());
    }

    #[test]
    fn key_size_is_logarithmic_in_domain() {
        let mut rng = StdRng::seed_from_u64(11);
        let (small, _) = generate_keys(10, 1, &mut rng).expect("valid");
        let (large, _) = generate_keys(20, 1, &mut rng).expect("valid");
        // Doubling the exponent only adds ~10 correction words.
        assert_eq!(large.size_bytes() - small.size_bytes(), 10 * 17);
    }

    #[test]
    fn party_helpers() {
        assert_eq!(PartyId::Server1.other(), PartyId::Server2);
        assert_eq!(PartyId::Server2.other(), PartyId::Server1);
        assert_eq!(PartyId::Server1.index(), 0);
        assert_eq!(PartyId::Server2.index(), 1);
    }
}
