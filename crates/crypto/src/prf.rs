//! Keyed pseudorandom functions.
//!
//! The paper describes the GGM evaluation as "each node invokes a PRF,
//! AES-128 in this case" (§3.2). This module provides the keyed-PRF view of
//! AES used for key generation (sampling root seeds) and for deriving
//! deterministic per-query randomness in tests and workloads.

use crate::aes::Aes128;
use crate::Block;

/// A pseudorandom function family from 128-bit inputs to 128-bit outputs.
///
/// The trait is sealed in spirit (the workspace only ever uses [`AesPrf`]),
/// but is left open so tests can substitute counting or constant PRFs when
/// exercising higher layers.
pub trait Prf {
    /// Evaluates the PRF on `input`.
    fn eval(&self, input: Block) -> Block;

    /// Evaluates the PRF on a batch of inputs, in place.
    fn eval_batch(&self, inputs: &mut [Block]) {
        for input in inputs {
            *input = self.eval(*input);
        }
    }
}

/// AES-128 based PRF: `F_k(x) = AES_k(x)`.
///
/// # Example
///
/// ```
/// use impir_crypto::{prf::{AesPrf, Prf}, Block};
///
/// let prf = AesPrf::new(Block::from(7u128));
/// assert_eq!(prf.eval(Block::ZERO), prf.eval(Block::ZERO));
/// assert_ne!(prf.eval(Block::ZERO), prf.eval(Block::ONES));
/// ```
#[derive(Clone)]
pub struct AesPrf {
    cipher: Aes128,
}

impl std::fmt::Debug for AesPrf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AesPrf").finish_non_exhaustive()
    }
}

impl AesPrf {
    /// Creates a PRF keyed with `key`.
    #[must_use]
    pub fn new(key: Block) -> Self {
        AesPrf {
            cipher: Aes128::from_block(key),
        }
    }
}

impl Prf for AesPrf {
    fn eval(&self, input: Block) -> Block {
        self.cipher.encrypt_block(input)
    }

    fn eval_batch(&self, inputs: &mut [Block]) {
        self.cipher.encrypt_blocks(inputs);
    }
}

/// Derives a fresh pseudorandom [`Block`] from a seed and a domain-separated
/// counter.
///
/// Used by the workload generator and by DPF key generation to stretch one
/// client seed into the many random values a protocol run needs,
/// deterministically (so experiments are reproducible).
#[must_use]
pub fn derive_block(seed: Block, domain: u64, counter: u64) -> Block {
    let prf = AesPrf::new(seed);
    prf.eval(Block::from_words(counter, domain))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prf_is_deterministic() {
        let prf = AesPrf::new(Block::from(1u128));
        assert_eq!(prf.eval(Block::from(9u128)), prf.eval(Block::from(9u128)));
    }

    #[test]
    fn different_keys_give_different_outputs() {
        let a = AesPrf::new(Block::from(1u128));
        let b = AesPrf::new(Block::from(2u128));
        assert_ne!(a.eval(Block::ZERO), b.eval(Block::ZERO));
    }

    #[test]
    fn batch_matches_pointwise() {
        let prf = AesPrf::new(Block::from(77u128));
        let mut batch: Vec<Block> = (0..19u128).map(Block::from).collect();
        let expected: Vec<Block> = batch.iter().map(|b| prf.eval(*b)).collect();
        prf.eval_batch(&mut batch);
        assert_eq!(batch, expected);
    }

    #[test]
    fn derive_block_separates_domains_and_counters() {
        let seed = Block::from(0x1234u128);
        assert_ne!(derive_block(seed, 0, 0), derive_block(seed, 0, 1));
        assert_ne!(derive_block(seed, 0, 0), derive_block(seed, 1, 0));
        assert_eq!(derive_block(seed, 3, 4), derive_block(seed, 3, 4));
    }
}
