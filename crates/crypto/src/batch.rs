//! Batched AES invocation, mirroring IM-PIR's AES-NI pipelining strategy.
//!
//! §3.2 of the paper ("AES-NI optimization") batches AES calls across all
//! GGM-tree nodes of a level so the hardware pipeline stays full. The same
//! structure is exposed here: callers hand over a whole level's worth of
//! blocks at once and the table-driven kernel of [`crate::aes`] carries
//! [`PIPELINE_WIDTH`] of them through the rounds together — in software the
//! thing being hidden is the latency of a table load rather than of an
//! `aesenc`, but the batching decision is the paper's.
//!
//! Everything in this module rides the **hot path** (the word-oriented
//! kernel behind [`Aes128::encrypt_blocks`]); the byte-oriented
//! [`Aes128::encrypt_block`] is its oracle. Neither is constant-time — see
//! the [`crate::aes`] module docs for why that is acceptable for the
//! server-side work batched here.

use crate::aes::Aes128;
use crate::Block;

/// Blocks the batch kernel carries through the AES rounds together.
///
/// Every round of a block is sixteen dependent-address table lookups; with
/// one block in flight the core waits out each load's latency, with four
/// the loads of one block hide behind the others'. AES-NI on recent Intel
/// parts keeps 4–8 independent encryptions in flight the same way. The
/// GGM expansion gets its four from two seeds under the two fixed keys.
/// Results do not depend on the width; throughput does.
pub const PIPELINE_WIDTH: usize = 4;

/// Applies the Matyas–Meyer–Oseas compression `x ↦ AES_k(x) ⊕ x` to every
/// block of `blocks`, in place.
///
/// This is the fixed-key, correlation-robust hash at the heart of the GGM
/// PRG expansion; batching it is what makes level-wise DPF evaluation
/// AES-bound rather than control-flow-bound. The feed-forward XOR happens
/// while the inputs are still in registers, so the batch runs without a
/// copy of the level and without touching the heap.
pub fn mmo_batch(cipher: &Aes128, blocks: &mut [Block]) {
    cipher.map_blocks(blocks, |input, output| output ^ input);
}

/// Counts how many AES block encryptions a batch of `n` MMO evaluations
/// costs.
///
/// Exposed so the performance model can charge the exact number of AES
/// operations the functional code performs.
#[must_use]
pub fn aes_ops_for_mmo(n: usize) -> usize {
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmo_batch_is_aes_xor_input() {
        let cipher = Aes128::new([5u8; 16]);
        let inputs: Vec<Block> = (0..13u128).map(|i| Block::from(i * 77)).collect();
        let mut batch = inputs.clone();
        mmo_batch(&cipher, &mut batch);
        for (output, input) in batch.iter().zip(&inputs) {
            assert_eq!(*output, cipher.encrypt_block(*input) ^ *input);
        }
    }

    #[test]
    fn mmo_on_empty_slice_is_a_noop() {
        let cipher = Aes128::new([5u8; 16]);
        let mut empty: Vec<Block> = Vec::new();
        mmo_batch(&cipher, &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn aes_op_accounting_is_linear() {
        assert_eq!(aes_ops_for_mmo(0), 0);
        assert_eq!(aes_ops_for_mmo(1), 1);
        assert_eq!(aes_ops_for_mmo(1000), 1000);
    }
}
