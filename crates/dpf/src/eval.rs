//! DPF evaluation (`Eval`), run by each PIR server.
//!
//! Evaluating a key at a single index walks one root-to-leaf path of the
//! GGM computation tree (eqs. (1)–(3) of the paper); expanding the key over
//! the whole database domain — what the server actually does for every
//! query — is a full tree expansion whose parallelisation strategies live in
//! [`crate::parallel`].
//!
//! # Buffer-reuse design
//!
//! Full-domain expansion is the server's hottest loop, so it is built as a
//! **zero-allocation, word-packed pipeline** around [`EvalScratch`]:
//!
//! * each level's parent seeds are expanded by
//!   [`LengthDoublingPrg::expand_level_into`] straight into the scratch's
//!   `left`/`right` block buffers, with the children's control bits packed
//!   into `u64` words *already in left-to-right child order* — no
//!   per-node intermediates;
//! * the per-level correction (BGI: XOR the level's correction word into
//!   every child of a parent whose control bit is set) is applied to the
//!   control bits **64 at a time** by spreading the parent control word
//!   across the child word, and to the seeds while interleaving them back
//!   into the scratch's ping-pong `seeds` buffer;
//! * the leaf level never materialises seeds or `Vec<bool>`s: the corrected
//!   control words are shift-merged directly into the output
//!   [`SelectorVector`] via [`SelectorVector::extend_from_words`].
//!
//! All buffers are sized once to the largest subtree an [`EvalScratch`]
//! has seen, so steady-state batch serving ([`ScratchPool`], one scratch
//! per in-flight evaluation) performs no heap allocation on the expansion
//! path. [`expand_subtree_reference`] keeps the original level-by-level
//! expansion as the correctness oracle and benchmark baseline.

use std::sync::Mutex;

use impir_crypto::prg::LengthDoublingPrg;
use impir_crypto::Block;

use crate::bitvec::SelectorVector;
use crate::error::DpfError;
use crate::key::DpfKey;

/// The evaluation state at one GGM node: the pseudorandom seed and the
/// party's control bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeState {
    /// The node's pseudorandom seed (low bit cleared).
    pub seed: Block,
    /// The party's control bit at this node.
    pub control: bool,
}

impl NodeState {
    /// The root state encoded in a key.
    #[must_use]
    pub fn root(key: &DpfKey) -> NodeState {
        NodeState {
            seed: key.root_seed(),
            control: key.root_control(),
        }
    }
}

/// Advances a node state one level down the tree, following `bit`.
///
/// Applies the level's correction word when the current control bit is set,
/// exactly as in the BGI evaluation procedure.
#[must_use]
pub fn step(
    key: &DpfKey,
    state: NodeState,
    level: usize,
    bit: bool,
    prg: &LengthDoublingPrg,
) -> NodeState {
    let expansion = prg.expand_one(state.seed, bit);
    let cw = key.correction_words()[level];
    if state.control {
        NodeState {
            seed: expansion.seed ^ cw.seed,
            control: expansion.control
                ^ if bit {
                    cw.control_right
                } else {
                    cw.control_left
                },
        }
    } else {
        NodeState {
            seed: expansion.seed,
            control: expansion.control,
        }
    }
}

/// Expands a node state into both children at `level`.
#[must_use]
pub fn step_both(
    key: &DpfKey,
    state: NodeState,
    level: usize,
    prg: &LengthDoublingPrg,
) -> (NodeState, NodeState) {
    let expansion = prg.expand(state.seed);
    let cw = key.correction_words()[level];
    let (mut left, mut right) = (
        NodeState {
            seed: expansion.left.seed,
            control: expansion.left.control,
        },
        NodeState {
            seed: expansion.right.seed,
            control: expansion.right.control,
        },
    );
    if state.control {
        left.seed ^= cw.seed;
        left.control ^= cw.control_left;
        right.seed ^= cw.seed;
        right.control ^= cw.control_right;
    }
    (left, right)
}

/// Evaluates the key at a single domain point.
///
/// `Eval(k, x)` returns this party's share of `P_{α,1}(x)`; XORing both
/// parties' shares yields 1 exactly when `x = α`.
///
/// # Errors
///
/// Returns [`DpfError::InputOutOfDomain`] if `x` does not fit in the key's
/// domain.
///
/// # Example
///
/// ```
/// use impir_dpf::{gen::generate_keys, eval::eval_point};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(2);
/// let (k1, k2) = generate_keys(6, 9, &mut rng)?;
/// assert!(eval_point(&k1, 9)? ^ eval_point(&k2, 9)?);
/// assert!(!(eval_point(&k1, 8)? ^ eval_point(&k2, 8)?));
/// # Ok::<(), impir_dpf::DpfError>(())
/// ```
pub fn eval_point(key: &DpfKey, x: u64) -> Result<bool, DpfError> {
    eval_point_with_prg(key, x, LengthDoublingPrg::shared())
}

/// [`eval_point`] with a caller-provided PRG (avoids re-expanding the fixed
/// AES keys in tight loops).
///
/// # Errors
///
/// Returns [`DpfError::InputOutOfDomain`] if `x` does not fit in the key's
/// domain.
pub fn eval_point_with_prg(
    key: &DpfKey,
    x: u64,
    prg: &LengthDoublingPrg,
) -> Result<bool, DpfError> {
    let domain_bits = key.domain_bits();
    if domain_bits < 64 && x >= (1u64 << domain_bits) {
        return Err(DpfError::InputOutOfDomain {
            input: x,
            domain_bits,
        });
    }
    let mut state = NodeState::root(key);
    for level in 0..domain_bits {
        let bit = (x >> (domain_bits - 1 - level)) & 1 == 1;
        state = step(key, state, level as usize, bit, prg);
    }
    Ok(state.control)
}

/// Walks from the root down `prefix_bits` levels following `prefix`
/// (MSB-first), returning the state of the interior node that roots the
/// subtree of all leaves sharing that prefix.
///
/// This is the entry point for chunked ("memory-bounded") and subtree-
/// parallel full-domain evaluation: a worker first positions itself at its
/// subtree root, then expands only that subtree.
///
/// # Errors
///
/// Returns [`DpfError::InputOutOfDomain`] if `prefix_bits` exceeds the
/// key's depth or the prefix has bits above `prefix_bits`.
pub fn eval_prefix(
    key: &DpfKey,
    prefix: u64,
    prefix_bits: u32,
    prg: &LengthDoublingPrg,
) -> Result<NodeState, DpfError> {
    if prefix_bits > key.domain_bits() {
        return Err(DpfError::InputOutOfDomain {
            input: prefix,
            domain_bits: key.domain_bits(),
        });
    }
    if prefix_bits < 64 && prefix >= (1u64 << prefix_bits) {
        return Err(DpfError::InputOutOfDomain {
            input: prefix,
            domain_bits: prefix_bits,
        });
    }
    let mut state = NodeState::root(key);
    for level in 0..prefix_bits {
        let bit = (prefix >> (prefix_bits - 1 - level)) & 1 == 1;
        state = step(key, state, level as usize, bit, prg);
    }
    Ok(state)
}

/// Reusable buffers for the word-packed subtree expansion (see the module
/// docs).
///
/// A scratch grows to fit the largest subtree it has expanded and is then
/// reused allocation-free: the steady state of batch serving keeps one
/// scratch per in-flight evaluation (see [`ScratchPool`]) so no query pays
/// for buffer setup.
///
/// # Example
///
/// ```
/// use impir_dpf::{gen::generate_keys, eval, SelectorVector};
/// use impir_crypto::prg::LengthDoublingPrg;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let (k1, _) = generate_keys(8, 17, &mut rng)?;
/// let prg = LengthDoublingPrg::default();
/// let mut scratch = eval::EvalScratch::new();
/// let mut out = SelectorVector::zeros(0);
/// eval::eval_range_into(&k1, 0, 256, &prg, &mut scratch, &mut out)?;
/// assert_eq!(out, eval::eval_full(&k1));
/// # Ok::<(), impir_dpf::DpfError>(())
/// ```
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// The ping-pong seed buffer: holds the current level's node seeds in
    /// left-to-right order; children are interleaved back into it as their
    /// parents are consumed.
    seeds: Vec<Block>,
    /// Raw left-child seeds straight out of the PRG for one level.
    left: Vec<Block>,
    /// Raw right-child seeds straight out of the PRG for one level.
    right: Vec<Block>,
    /// Packed control bits of the current level (bit `i` = node `i`).
    controls: Vec<u64>,
    /// Packed, interleaved child control bits of the level being expanded;
    /// swapped with `controls` after each level (the control-word
    /// ping-pong).
    child_controls: Vec<u64>,
}

impl EvalScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Creates a scratch pre-sized for subtrees of up to `2^depth` leaves.
    #[must_use]
    pub fn with_subtree_depth(depth: u32) -> Self {
        let mut scratch = EvalScratch::new();
        scratch.ensure(depth);
        scratch
    }

    /// Grows the buffers to fit a subtree of `2^depth` leaves. No-op (and
    /// allocation-free) when the scratch is already large enough.
    fn ensure(&mut self, depth: u32) {
        // The widest level whose seeds must be stored — and the widest set
        // of parents expanded at once — is the last interior level,
        // 2^(depth-1) nodes; the control words must additionally hold the
        // leaf level's 2^depth bits.
        let widest = 1usize << depth.saturating_sub(1);
        let control_words = (1usize << depth).div_ceil(64);
        if self.seeds.len() < widest {
            self.seeds.resize(widest, Block::ZERO);
            self.left.resize(widest, Block::ZERO);
            self.right.resize(widest, Block::ZERO);
        }
        if self.controls.len() < control_words {
            self.controls.resize(control_words, 0);
            self.child_controls.resize(control_words, 0);
        }
    }
}

/// A shareable check-out/check-in pool of reusable buffers.
///
/// Generic over the buffer type so the DPF expansion scratches
/// ([`ScratchPool`]) and the `dpXOR` scan's accumulator words share one
/// implementation. A buffer is created only when every pooled one is
/// checked out, so after warm-up (one buffer per concurrent user) the pool
/// hands out warmed buffers allocation-free.
#[derive(Debug, Default)]
pub struct BufferPool<T> {
    pool: Mutex<Vec<T>>,
}

impl<T: Default> BufferPool<T> {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        BufferPool {
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` with a buffer checked out of the pool (creating one only
    /// if every buffer is in use), returning it afterwards.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut buffer = self
            .pool
            .lock()
            .expect("buffer pool poisoned")
            .pop()
            .unwrap_or_default();
        let result = f(&mut buffer);
        self.pool.lock().expect("buffer pool poisoned").push(buffer);
        result
    }

    /// Number of buffers currently resting in the pool (i.e. not checked
    /// out). After a batch drains, this is the number of distinct buffers
    /// the batch warmed up.
    #[must_use]
    pub fn idle_count(&self) -> usize {
        self.pool.lock().expect("buffer pool poisoned").len()
    }
}

/// A pool of [`EvalScratch`]es for concurrent evaluators: the batch
/// pipeline's stage-1 workers evaluate through one shared closure, and the
/// pool hands each in-flight evaluation its own scratch, so batch serving
/// allocates nothing on the expansion path in the steady state.
pub type ScratchPool = BufferPool<EvalScratch>;

/// Spreads the low 32 bits of `x` to the even bit positions (bit `j` moves
/// to bit `2j`) — the mask that maps one word of parent control bits onto
/// the interleaved left/right child control bits they correct.
#[inline]
fn interleave_with_zeros(x: u64) -> u64 {
    let mut x = x & 0xFFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Expands the subtree rooted at `state` (which sits `start_level` levels
/// below the root) down to the leaves, appending the leaf control bits
/// left-to-right to `out`.
///
/// This is the zero-allocation pipeline described in the module docs: all
/// intermediates live in `scratch` (which grows only if the subtree is
/// larger than any it has seen) and the leaf level is written into `out`
/// as packed words.
pub fn expand_subtree_into(
    key: &DpfKey,
    state: NodeState,
    start_level: u32,
    prg: &LengthDoublingPrg,
    scratch: &mut EvalScratch,
    out: &mut SelectorVector,
) {
    let depth = key.domain_bits() - start_level;
    if depth == 0 {
        out.push(state.control);
        return;
    }
    scratch.ensure(depth);
    let EvalScratch {
        seeds,
        left,
        right,
        controls,
        child_controls,
    } = scratch;
    seeds[0] = state.seed;
    controls[0] = u64::from(state.control);
    let mut nodes = 1usize;
    for level in start_level..key.domain_bits() {
        let cw = key.correction_words()[level as usize];
        prg.expand_level_into(&seeds[..nodes], left, right, child_controls);

        // Control-bit correction, 64 children (32 parents) per iteration:
        // child bit 2i (left) flips iff parent i's control bit is set and
        // the correction word's left flag is set; bit 2i + 1 likewise with
        // the right flag. (Parent bits past `nodes` may be stale from a
        // previous level; the child bits they corrupt lie past 2·nodes and
        // are never read.)
        let child_words = (2 * nodes).div_ceil(64);
        let flip_left = u64::from(cw.control_left);
        let flip_right = u64::from(cw.control_right);
        if flip_left | flip_right != 0 {
            for word in 0..child_words {
                let parents = controls[word / 2] >> ((word % 2) * 32);
                let spread = interleave_with_zeros(parents);
                child_controls[word] ^= (spread * flip_left) | ((spread << 1) * flip_right);
            }
        }

        if level + 1 == key.domain_bits() {
            // Leaf level: the corrected control words are the selector
            // bits — merge them into the output without touching seeds.
            out.extend_from_words(&child_controls[..child_words], 2 * nodes);
        } else {
            // Interior level: apply the seed correction while interleaving
            // the children back into the ping-pong buffer.
            for parent in 0..nodes {
                let parent_on = (controls[parent / 64] >> (parent % 64)) & 1 == 1;
                let (mut left_seed, mut right_seed) = (left[parent], right[parent]);
                if parent_on {
                    left_seed ^= cw.seed;
                    right_seed ^= cw.seed;
                }
                seeds[2 * parent] = left_seed;
                seeds[2 * parent + 1] = right_seed;
            }
            std::mem::swap(controls, child_controls);
            nodes *= 2;
        }
    }
}

/// Expands the subtree rooted at `state` breadth-first down to the leaves,
/// returning the leaf control bits left-to-right.
///
/// Convenience wrapper over [`expand_subtree_into`] with a fresh scratch;
/// hot paths should hold an [`EvalScratch`] (or a [`ScratchPool`]) and call
/// the `_into` form directly.
#[must_use]
pub fn expand_subtree(
    key: &DpfKey,
    state: NodeState,
    start_level: u32,
    prg: &LengthDoublingPrg,
) -> SelectorVector {
    let depth = key.domain_bits() - start_level;
    let mut scratch = EvalScratch::new();
    let mut out = SelectorVector::zeros(0);
    out.reserve_bits(1usize << depth);
    expand_subtree_into(key, state, start_level, prg, &mut scratch, &mut out);
    out
}

/// The original level-by-level subtree expansion, kept as the correctness
/// oracle for the zero-allocation pipeline and as the baseline the
/// `hotpath` benchmark times the new path against.
///
/// Functionally identical to [`expand_subtree`]; allocates two fresh
/// vectors (plus one `NodeExpansion` vector) per tree level.
#[must_use]
pub fn expand_subtree_reference(
    key: &DpfKey,
    state: NodeState,
    start_level: u32,
    prg: &LengthDoublingPrg,
) -> SelectorVector {
    let depth = key.domain_bits() - start_level;
    let mut seeds = vec![state.seed];
    let mut controls = vec![state.control];
    for level in start_level..key.domain_bits() {
        let cw = key.correction_words()[level as usize];
        let expansions = prg.expand_level(&seeds);
        let mut next_seeds = Vec::with_capacity(seeds.len() * 2);
        let mut next_controls = Vec::with_capacity(controls.len() * 2);
        for (expansion, control) in expansions.iter().zip(&controls) {
            let (mut left_seed, mut left_control) = (expansion.left.seed, expansion.left.control);
            let (mut right_seed, mut right_control) =
                (expansion.right.seed, expansion.right.control);
            if *control {
                left_seed ^= cw.seed;
                left_control ^= cw.control_left;
                right_seed ^= cw.seed;
                right_control ^= cw.control_right;
            }
            next_seeds.push(left_seed);
            next_seeds.push(right_seed);
            next_controls.push(left_control);
            next_controls.push(right_control);
        }
        seeds = next_seeds;
        controls = next_controls;
    }
    debug_assert_eq!(controls.len(), 1usize << depth);
    controls.into_iter().collect()
}

/// Evaluates the key over its entire domain, returning one selector bit per
/// index (the vector `v = [Eval(k,0), ..., Eval(k, N-1)]` of §2.3).
///
/// This is the straightforward level-by-level expansion; see
/// [`crate::parallel::EvalStrategy`] for the parallel/memory-bounded
/// variants the paper discusses.
#[must_use]
pub fn eval_full(key: &DpfKey) -> SelectorVector {
    expand_subtree(key, NodeState::root(key), 0, LengthDoublingPrg::shared())
}

/// Evaluates the key over the index range `[start, start + count)`.
///
/// The range is decomposed into maximal aligned subtrees, each expanded
/// level-by-level; memory use is bounded by the largest aligned chunk
/// rather than the whole domain. This is what a single DPU-chunk evaluation
/// or a memory-bounded traversal builds on.
///
/// # Errors
///
/// Returns [`DpfError::InputOutOfDomain`] if the range extends past the
/// domain.
pub fn eval_range(key: &DpfKey, start: u64, count: u64) -> Result<SelectorVector, DpfError> {
    eval_range_with_prg(key, start, count, LengthDoublingPrg::shared())
}

/// [`eval_range`] with a caller-provided PRG.
///
/// # Errors
///
/// Returns [`DpfError::InputOutOfDomain`] if the range extends past the
/// domain.
pub fn eval_range_with_prg(
    key: &DpfKey,
    start: u64,
    count: u64,
    prg: &LengthDoublingPrg,
) -> Result<SelectorVector, DpfError> {
    let mut scratch = EvalScratch::new();
    let mut out = SelectorVector::zeros(0);
    eval_range_into(key, start, count, prg, &mut scratch, &mut out)?;
    Ok(out)
}

/// [`eval_range`] appending into a caller-owned output vector with
/// caller-owned scratch — the allocation-free form the batch pipeline's
/// evaluators use.
///
/// # Errors
///
/// Returns [`DpfError::InputOutOfDomain`] if the range extends past the
/// domain (including ranges whose `start + count` overflows `u64`).
pub fn eval_range_into(
    key: &DpfKey,
    start: u64,
    count: u64,
    prg: &LengthDoublingPrg,
    scratch: &mut EvalScratch,
    out: &mut SelectorVector,
) -> Result<(), DpfError> {
    let domain = key.domain_size();
    // `checked_add` so an adversarial `start + count` cannot wrap past the
    // bounds check.
    let end = match start.checked_add(count) {
        Some(end) if end <= domain => end,
        _ => {
            return Err(DpfError::InputOutOfDomain {
                input: start.saturating_add(count),
                domain_bits: key.domain_bits(),
            })
        }
    };
    if count == 0 {
        return Ok(());
    }
    out.reserve_bits(count as usize);
    let mut cursor = start;
    while cursor < end {
        // Largest power-of-two aligned subtree that starts at `cursor` and
        // fits within the remaining range.
        let alignment = if cursor == 0 {
            u64::MAX
        } else {
            1u64 << cursor.trailing_zeros()
        };
        let remaining = end - cursor;
        let mut chunk = alignment.min(remaining.next_power_of_two());
        while chunk > remaining {
            chunk /= 2;
        }
        let chunk_bits = chunk.trailing_zeros();
        let prefix_bits = key.domain_bits() - chunk_bits;
        let prefix = cursor >> chunk_bits;
        let state = eval_prefix(key, prefix, prefix_bits, prg)?;
        expand_subtree_into(key, state, prefix_bits, prg, scratch, out);
        cursor += chunk;
    }
    Ok(())
}

/// Number of PRG node expansions a full-domain, level-by-level evaluation
/// performs (`2^1 + 2^2 + … + 2^n ≈ 2N` halved because each expansion
/// produces both children ⇒ `N - 1` node expansions plus the root).
///
/// Used by the performance model to attribute the `Eval` phase cost.
#[must_use]
pub fn eval_full_prg_expansions(domain_bits: u32) -> u64 {
    (1u64 << domain_bits).saturating_sub(1).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_keys;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn keypair(domain_bits: u32, alpha: u64, seed: u64) -> (DpfKey, DpfKey) {
        let mut rng = StdRng::seed_from_u64(seed);
        generate_keys(domain_bits, alpha, &mut rng).expect("valid parameters")
    }

    #[test]
    fn eval_full_matches_pointwise_eval() {
        let (k1, k2) = keypair(9, 300, 42);
        let full_1 = eval_full(&k1);
        let full_2 = eval_full(&k2);
        for x in 0..(1u64 << 9) {
            assert_eq!(full_1.get(x as usize), eval_point(&k1, x).unwrap());
            assert_eq!(full_2.get(x as usize), eval_point(&k2, x).unwrap());
        }
    }

    #[test]
    fn full_domain_shares_reconstruct_one_hot() {
        let (k1, k2) = keypair(11, 1234, 7);
        let mut combined = eval_full(&k1);
        combined.xor_assign(&eval_full(&k2));
        assert_eq!(combined.count_ones(), 1);
        assert!(combined.get(1234));
    }

    #[test]
    fn pipeline_matches_reference_expansion() {
        // The zero-allocation pipeline must be byte-identical to the
        // original level-by-level expansion on every subtree shape.
        let prg = LengthDoublingPrg::default();
        for domain_bits in 1..=10u32 {
            let (k1, k2) = keypair(
                domain_bits,
                (1u64 << domain_bits) - 1,
                17 + domain_bits as u64,
            );
            for key in [&k1, &k2] {
                for start_level in 0..=domain_bits {
                    let prefix = (1u64 << start_level) - 1;
                    let state = eval_prefix(key, prefix, start_level, &prg).unwrap();
                    let new = expand_subtree(key, state, start_level, &prg);
                    let reference = expand_subtree_reference(key, state, start_level, &prg);
                    assert_eq!(
                        new.words(),
                        reference.words(),
                        "domain_bits={domain_bits} start_level={start_level}"
                    );
                    assert_eq!(new.len(), reference.len());
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_queries_matches_fresh_scratch() {
        let prg = LengthDoublingPrg::default();
        let mut reused = EvalScratch::new();
        // Interleave domains of different sizes so the reused scratch sees
        // shrinking and growing subtrees with stale data in its buffers.
        for (domain_bits, alpha, seed) in [
            (10u32, 700u64, 1u64),
            (4, 9, 2),
            (12, 4000, 3),
            (4, 3, 4),
            (10, 0, 5),
        ] {
            let (k1, _) = keypair(domain_bits, alpha, seed);
            let mut from_reused = SelectorVector::zeros(0);
            eval_range_into(
                &k1,
                0,
                1 << domain_bits,
                &prg,
                &mut reused,
                &mut from_reused,
            )
            .unwrap();
            let mut fresh = EvalScratch::new();
            let mut from_fresh = SelectorVector::zeros(0);
            eval_range_into(&k1, 0, 1 << domain_bits, &prg, &mut fresh, &mut from_fresh).unwrap();
            assert_eq!(
                from_reused, from_fresh,
                "domain_bits={domain_bits} alpha={alpha}"
            );
        }
    }

    #[test]
    fn scratch_pool_hands_out_and_reclaims_scratches() {
        let pool = ScratchPool::new();
        assert_eq!(pool.idle_count(), 0);
        let (k1, _) = keypair(8, 100, 9);
        let prg = LengthDoublingPrg::default();
        for _ in 0..3 {
            let out = pool.with(|scratch| {
                let mut out = SelectorVector::zeros(0);
                eval_range_into(&k1, 0, 256, &prg, scratch, &mut out).unwrap();
                out
            });
            assert_eq!(out, eval_full(&k1));
        }
        // Sequential use warms up exactly one scratch.
        assert_eq!(pool.idle_count(), 1);
    }

    #[test]
    fn eval_range_matches_full_evaluation() {
        let (k1, _) = keypair(10, 600, 3);
        let full = eval_full(&k1);
        let prg = LengthDoublingPrg::default();
        for (start, count) in [
            (0u64, 1024u64),
            (0, 128),
            (128, 128),
            (100, 300),
            (1000, 24),
            (513, 1),
        ] {
            let range = eval_range_with_prg(&k1, start, count, &prg).unwrap();
            assert_eq!(range.len() as u64, count);
            for i in 0..count {
                assert_eq!(
                    range.get(i as usize),
                    full.get((start + i) as usize),
                    "start={start} count={count} i={i}"
                );
            }
        }
    }

    #[test]
    fn eval_range_rejects_out_of_domain() {
        let (k1, _) = keypair(8, 0, 1);
        assert!(eval_range(&k1, 200, 100).is_err());
        assert!(eval_range(&k1, 256, 1).is_err());
        assert!(eval_range(&k1, 0, 257).is_err());
    }

    #[test]
    fn eval_range_rejects_overflowing_ranges() {
        // `start + count` wrapping past zero must not sneak under the
        // bounds check.
        let (k1, _) = keypair(8, 0, 1);
        assert!(matches!(
            eval_range(&k1, u64::MAX, 2),
            Err(DpfError::InputOutOfDomain { .. })
        ));
        assert!(matches!(
            eval_range(&k1, u64::MAX - 5, 10),
            Err(DpfError::InputOutOfDomain { .. })
        ));
        assert!(matches!(
            eval_range(&k1, 2, u64::MAX - 1),
            Err(DpfError::InputOutOfDomain { .. })
        ));
    }

    #[test]
    fn eval_range_empty_is_empty() {
        let (k1, _) = keypair(8, 0, 1);
        assert!(eval_range(&k1, 17, 0).unwrap().is_empty());
    }

    #[test]
    fn eval_point_rejects_out_of_domain() {
        let (k1, _) = keypair(8, 0, 1);
        assert!(matches!(
            eval_point(&k1, 256),
            Err(DpfError::InputOutOfDomain { .. })
        ));
    }

    #[test]
    fn individual_shares_look_balanced() {
        // A single key's evaluation should be pseudorandom, i.e. roughly
        // half the bits set — a cheap sanity check that no key leaks the
        // query index through gross bias.
        let (k1, _) = keypair(12, 77, 99);
        let ones = eval_full(&k1).count_ones();
        let total = 1usize << 12;
        assert!(ones > total / 4 && ones < 3 * total / 4, "ones = {ones}");
    }

    #[test]
    fn expansion_accounting() {
        assert_eq!(eval_full_prg_expansions(1), 1);
        assert_eq!(eval_full_prg_expansions(10), 1023);
    }

    #[test]
    fn interleave_with_zeros_spreads_bits() {
        assert_eq!(interleave_with_zeros(0), 0);
        assert_eq!(interleave_with_zeros(1), 1);
        assert_eq!(interleave_with_zeros(0b10), 0b100);
        assert_eq!(interleave_with_zeros(0xFFFF_FFFF), 0x5555_5555_5555_5555);
        // High half of the input is ignored.
        assert_eq!(interleave_with_zeros(0xFFFF_FFFF_0000_0001), 1);
        for bit in 0..32u32 {
            assert_eq!(interleave_with_zeros(1u64 << bit), 1u64 << (2 * bit));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_shares_reconstruct_point(
            domain_bits in 1u32..12,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let domain = 1u64 << domain_bits;
            let alpha = rng.gen_range(0..domain);
            let (k1, k2) = generate_keys(domain_bits, alpha, &mut rng).unwrap();
            let mut combined = eval_full(&k1);
            combined.xor_assign(&eval_full(&k2));
            prop_assert_eq!(combined.count_ones(), 1);
            prop_assert!(combined.get(alpha as usize));
        }

        #[test]
        fn prop_eval_range_consistent_with_full(
            domain_bits in 3u32..11,
            seed in any::<u64>(),
            start_frac in 0.0f64..1.0,
            len_frac in 0.0f64..1.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let domain = 1u64 << domain_bits;
            let alpha = rng.gen_range(0..domain);
            let (k1, _) = generate_keys(domain_bits, alpha, &mut rng).unwrap();
            let start = (start_frac * domain as f64) as u64;
            let count = ((len_frac * (domain - start) as f64) as u64).min(domain - start);
            let full = eval_full(&k1);
            let range = eval_range(&k1, start, count).unwrap();
            for i in 0..count {
                prop_assert_eq!(range.get(i as usize), full.get((start + i) as usize));
            }
        }

        #[test]
        fn prop_pipeline_byte_identical_to_reference(
            domain_bits in 1u32..12,
            seed in any::<u64>(),
        ) {
            // The tentpole invariant: the new expand_level_into/EvalScratch
            // pipeline produces byte-identical selector words to the old
            // level-by-level expansion for random keys across domains.
            let mut rng = StdRng::seed_from_u64(seed);
            let domain = 1u64 << domain_bits;
            let alpha = rng.gen_range(0..domain);
            let (k1, k2) = generate_keys(domain_bits, alpha, &mut rng).unwrap();
            let prg = LengthDoublingPrg::default();
            for key in [&k1, &k2] {
                let root = NodeState::root(key);
                let new = expand_subtree(key, root, 0, &prg);
                let reference = expand_subtree_reference(key, root, 0, &prg);
                prop_assert_eq!(new.words(), reference.words());
            }
        }

        #[test]
        fn prop_scratch_reuse_equals_fresh_scratch(
            bits_a in 1u32..10,
            bits_b in 1u32..10,
            seed in any::<u64>(),
        ) {
            // Back-to-back queries of different domain sizes through one
            // scratch must match fresh-scratch evaluation.
            let mut rng = StdRng::seed_from_u64(seed);
            let prg = LengthDoublingPrg::default();
            let mut reused = EvalScratch::new();
            for bits in [bits_a, bits_b, bits_a] {
                let domain = 1u64 << bits;
                let alpha = rng.gen_range(0..domain);
                let (k, _) = generate_keys(bits, alpha, &mut rng).unwrap();
                let start = alpha / 2;
                let count = domain - start;
                let mut out = SelectorVector::zeros(0);
                eval_range_into(&k, start, count, &prg, &mut reused, &mut out).unwrap();
                let fresh = eval_range_with_prg(&k, start, count, &prg).unwrap();
                prop_assert_eq!(out, fresh);
            }
        }
    }
}
