//! Length-doubling pseudorandom generator used to expand GGM-tree nodes.
//!
//! Each node of the DPF's GGM computation tree is expanded into its two
//! children by a length-doubling PRG `G(s) = (G_0(s), G_1(s))` where
//! `G_b(s) = AES_{K_b}(s) ⊕ s` (Matyas–Meyer–Oseas with two fixed, public
//! keys). The per-child control bits are derived from the low bit of the
//! expanded seeds, exactly as in the Boyle–Gilboa–Ishai DPF that the
//! paper's construction [62] builds upon.
//!
//! Two routes compute the same function. [`LengthDoublingPrg::expand`] and
//! [`LengthDoublingPrg::expand_one`] go node by node through the
//! byte-oriented reference AES — the oracle, and the path `Gen` and
//! single-point `Eval` walk. [`LengthDoublingPrg::expand_level_into`] takes
//! a whole level through the table-driven batch kernel in one fused pass —
//! the path server-side full-domain `Eval` spends its time in. Client and
//! server only agree on a DPF key if the two routes agree on every byte; a
//! literal golden vector in this module's tests pins both.

use std::sync::OnceLock;

use crate::aes::{encrypt_lanes, Aes128};
use crate::Block;

/// The expansion of one GGM seed into a child seed plus control bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildExpansion {
    /// The child's pseudorandom seed (low bit cleared).
    pub seed: Block,
    /// The child's pseudorandom control bit.
    pub control: bool,
}

/// The full expansion of one GGM node into its two children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeExpansion {
    /// Expansion for the left (bit = 0) child.
    pub left: ChildExpansion,
    /// Expansion for the right (bit = 1) child.
    pub right: ChildExpansion,
}

impl NodeExpansion {
    /// Returns the expansion for the child selected by `bit`
    /// (`false` = left, `true` = right).
    #[must_use]
    pub fn child(&self, bit: bool) -> ChildExpansion {
        if bit {
            self.right
        } else {
            self.left
        }
    }
}

/// Fixed-key, length-doubling PRG (Matyas–Meyer–Oseas over AES-128).
///
/// The two AES keys are fixed and public; security rests on AES behaving as
/// a correlation-robust hash, the standard assumption for GGM-style DPFs.
///
/// # Example
///
/// ```
/// use impir_crypto::{prg::LengthDoublingPrg, Block};
///
/// let prg = LengthDoublingPrg::default();
/// let e = prg.expand(Block::from(1u128));
/// assert_ne!(e.left.seed, e.right.seed);
/// ```
#[derive(Clone)]
pub struct LengthDoublingPrg {
    left_key: Aes128,
    right_key: Aes128,
}

impl std::fmt::Debug for LengthDoublingPrg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LengthDoublingPrg")
            .field("keys", &2)
            .finish()
    }
}

/// Public fixed key used for the left expansion.
pub const LEFT_EXPANSION_KEY: [u8; 16] = [
    0x1b, 0x3c, 0x5d, 0x7e, 0x9f, 0xa0, 0xb1, 0xc2, 0xd3, 0xe4, 0xf5, 0x06, 0x17, 0x28, 0x39, 0x4a,
];

/// Public fixed key used for the right expansion.
pub const RIGHT_EXPANSION_KEY: [u8; 16] = [
    0xa5, 0x96, 0x87, 0x78, 0x69, 0x5a, 0x4b, 0x3c, 0x2d, 0x1e, 0x0f, 0xf0, 0xe1, 0xd2, 0xc3, 0xb4,
];

impl Default for LengthDoublingPrg {
    fn default() -> Self {
        LengthDoublingPrg {
            left_key: Aes128::new(LEFT_EXPANSION_KEY),
            right_key: Aes128::new(RIGHT_EXPANSION_KEY),
        }
    }
}

impl LengthDoublingPrg {
    /// The process-wide [`Default`] instance, its two key schedules run
    /// once. The keys are public constants, so every party's PRG is this
    /// one; entry points that are not handed a PRG borrow it instead of
    /// re-expanding both keys per call.
    #[must_use]
    pub fn shared() -> &'static LengthDoublingPrg {
        static SHARED: OnceLock<LengthDoublingPrg> = OnceLock::new();
        SHARED.get_or_init(LengthDoublingPrg::default)
    }

    /// Creates a PRG with caller-provided fixed keys.
    ///
    /// All parties of one PIR deployment must agree on the same keys; the
    /// [`Default`] instance is what the rest of the workspace uses.
    #[must_use]
    pub fn with_keys(left: [u8; 16], right: [u8; 16]) -> Self {
        LengthDoublingPrg {
            left_key: Aes128::new(left),
            right_key: Aes128::new(right),
        }
    }

    /// Expands `seed` into its two pseudorandom children.
    #[must_use]
    pub fn expand(&self, seed: Block) -> NodeExpansion {
        NodeExpansion {
            left: self.expand_one(seed, false),
            right: self.expand_one(seed, true),
        }
    }

    /// Expands only the child selected by `bit`, halving the AES work when
    /// a traversal only follows one path (single-point `Eval`).
    #[must_use]
    pub fn expand_one(&self, seed: Block, bit: bool) -> ChildExpansion {
        let cipher = if bit { &self.right_key } else { &self.left_key };
        let raw = cipher.encrypt_block(seed) ^ seed;
        ChildExpansion {
            seed: raw.with_lsb_cleared(),
            control: raw.lsb(),
        }
    }

    /// Expands a whole level of seeds at once, writing `(left, right)` pairs.
    ///
    /// `seeds` holds the parent seeds; the return value holds, for each
    /// parent, its full [`NodeExpansion`]. The AES calls are issued through
    /// the batched path so the access pattern matches §3.2's AES-NI
    /// batching.
    #[must_use]
    pub fn expand_level(&self, seeds: &[Block]) -> Vec<NodeExpansion> {
        let mut left: Vec<Block> = seeds.to_vec();
        let mut right: Vec<Block> = seeds.to_vec();
        crate::batch::mmo_batch(&self.left_key, &mut left);
        crate::batch::mmo_batch(&self.right_key, &mut right);
        left.iter()
            .zip(right.iter())
            .map(|(l, r)| NodeExpansion {
                left: ChildExpansion {
                    seed: l.with_lsb_cleared(),
                    control: l.lsb(),
                },
                right: ChildExpansion {
                    seed: r.with_lsb_cleared(),
                    control: r.lsb(),
                },
            })
            .collect()
    }

    /// Expands a level of parent seeds directly into caller-owned buffers,
    /// performing **no heap allocation** — the hot-path form of
    /// [`LengthDoublingPrg::expand_level`], and the call server-side
    /// full-domain `Eval` spends its time in.
    ///
    /// For each parent `i` of `seeds`:
    ///
    /// * `left[i]` / `right[i]` receive the two child seeds (low bit
    ///   cleared), and
    /// * bits `2i` / `2i + 1` of the packed `controls` words receive the
    ///   left / right child's control bit — i.e. the control bits come out
    ///   already in left-to-right child order, ready for word-level
    ///   correction and merging by the DPF's level expansion.
    ///
    /// One pass: each pair of seeds is loaded once, run under both fixed
    /// keys as the four interleaved lanes of the batch AES kernel
    /// ([`crate::batch::PIPELINE_WIDTH`]), fed forward, and stored with its
    /// control bits already packed — §3.2's "keep the AES pipeline full",
    /// with the load latency of a table lookup standing in for the AES-NI
    /// pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `left` or `right` holds fewer than `seeds.len()` blocks or
    /// `controls` fewer than `seeds.len().div_ceil(32)` words.
    pub fn expand_level_into(
        &self,
        seeds: &[Block],
        left: &mut [Block],
        right: &mut [Block],
        controls: &mut [u64],
    ) {
        let n = seeds.len();
        assert!(left.len() >= n, "left buffer holds fewer blocks than seeds");
        assert!(
            right.len() >= n,
            "right buffer holds fewer blocks than seeds"
        );
        assert!(
            controls.len() >= n.div_ceil(32),
            "controls buffer too small: {} words for {n} parents",
            controls.len()
        );
        let (l, r) = (&self.left_key, &self.right_key);
        // One control word covers 32 parents, so the level is walked a word
        // at a time and each word is written exactly once.
        let words = seeds
            .chunks(32)
            .zip(left[..n].chunks_mut(32))
            .zip(right[..n].chunks_mut(32))
            .zip(controls.iter_mut());
        for (((seeds, left), right), word) in words {
            let mut packed = 0u64;
            let mut store = |i: usize, seed: Block, raw_left: Block, raw_right: Block| {
                let (raw_left, raw_right) = (raw_left ^ seed, raw_right ^ seed);
                packed |= (u64::from(raw_left.lsb()) | u64::from(raw_right.lsb()) << 1) << (2 * i);
                left[i] = raw_left.with_lsb_cleared();
                right[i] = raw_right.with_lsb_cleared();
            };
            let mut pairs = seeds.chunks_exact(2);
            for (pair, chunk) in (&mut pairs).enumerate() {
                let (a, b) = (chunk[0], chunk[1]);
                let [la, ra, lb, rb] = encrypt_lanes([l, r, l, r], [a, a, b, b]);
                store(2 * pair, a, la, ra);
                store(2 * pair + 1, b, lb, rb);
            }
            if let [a] = *pairs.remainder() {
                let [la, ra] = encrypt_lanes([l, r], [a, a]);
                store(seeds.len() - 1, a, la, ra);
            }
            *word = packed;
        }
    }

    /// Number of AES block operations needed to expand `n` nodes.
    #[must_use]
    pub fn aes_ops_per_level(n: usize) -> usize {
        2 * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic() {
        let prg = LengthDoublingPrg::default();
        let seed = Block::from(0xdeadbeefu128);
        assert_eq!(prg.expand(seed), prg.expand(seed));
    }

    #[test]
    fn children_are_distinct_and_differ_from_parent() {
        let prg = LengthDoublingPrg::default();
        for i in 0..64u128 {
            let seed = Block::from(i * 0x9e3779b97f4a7c15);
            let e = prg.expand(seed);
            assert_ne!(e.left.seed, e.right.seed, "seed {i}");
            assert_ne!(e.left.seed, seed.with_lsb_cleared());
        }
    }

    #[test]
    fn expand_one_matches_expand() {
        let prg = LengthDoublingPrg::default();
        let seed = Block::from(123456789u128);
        let full = prg.expand(seed);
        assert_eq!(prg.expand_one(seed, false), full.left);
        assert_eq!(prg.expand_one(seed, true), full.right);
    }

    #[test]
    fn expand_level_matches_pointwise_expansion() {
        let prg = LengthDoublingPrg::default();
        let seeds: Vec<Block> = (0..23u128).map(|i| Block::from(i * 31 + 7)).collect();
        let level = prg.expand_level(&seeds);
        assert_eq!(level.len(), seeds.len());
        for (seed, expansion) in seeds.iter().zip(&level) {
            assert_eq!(*expansion, prg.expand(*seed));
        }
    }

    #[test]
    fn expand_level_into_matches_expand_level() {
        let prg = LengthDoublingPrg::default();
        for n in [0usize, 1, 2, 7, 31, 32, 33, 64, 100] {
            let seeds: Vec<Block> = (0..n as u128).map(|i| Block::from(i * 97 + 5)).collect();
            let reference = prg.expand_level(&seeds);
            let mut left = vec![Block::ZERO; n];
            let mut right = vec![Block::ZERO; n];
            // Pre-poison the control words so stale bits would be caught.
            let mut controls = vec![u64::MAX; n.div_ceil(32)];
            prg.expand_level_into(&seeds, &mut left, &mut right, &mut controls);
            for (i, expansion) in reference.iter().enumerate() {
                assert_eq!(left[i], expansion.left.seed, "n={n} left seed {i}");
                assert_eq!(right[i], expansion.right.seed, "n={n} right seed {i}");
                let pair = (controls[i / 32] >> ((i % 32) * 2)) & 0b11;
                assert_eq!(pair & 1 == 1, expansion.left.control, "n={n} left bit {i}");
                assert_eq!(
                    pair & 2 == 2,
                    expansion.right.control,
                    "n={n} right bit {i}"
                );
            }
            // Bits past the parents stay zero.
            if n % 32 != 0 {
                let tail = controls[n / 32] >> ((n % 32) * 2);
                assert_eq!(tail, 0, "n={n} stale bits past the last parent");
            }
        }
    }

    #[test]
    fn default_prg_golden_vector() {
        // A DPF key on the wire only means something if the client's and
        // the server's PRGs agree — across processes and across commits.
        // These literals were produced by the byte-oriented implementation
        // this crate started with; any kernel must reproduce them.
        let seeds = [
            0,
            1,
            0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
            0xdead_beef_cafe_f00d_0bad_c0de_face_b00c,
            u128::MAX,
        ]
        .map(Block::from);
        let children: [(u128, u128); 5] = [
            (
                0xe007_64f8_7ef7_670e_9dd5_9737_05ff_2b5a,
                0x02d1_3398_febc_5f01_c7bd_d071_077e_6a48,
            ),
            (
                0x5fe0_e31a_c633_2138_457b_0c2c_ad93_3fba,
                0x34ad_1446_3bd4_f120_1cf2_ca11_5a9f_b7dc,
            ),
            (
                0xd215_20d4_9bfe_dd00_a2e5_7501_73f0_7198,
                0x7bce_4c75_3c95_66ba_bfa9_b303_595e_da4a,
            ),
            (
                0x9325_6489_c929_41fc_876d_140c_cf5d_5e86,
                0x4031_3f47_5c3b_8fb6_d414_28e6_fa58_294c,
            ),
            (
                0x9bae_ccb1_59b0_7933_23ad_cae5_7a6d_8d66,
                0xc13d_038e_4c48_378c_9fda_3e37_8e47_cd48,
            ),
        ];
        let prg = LengthDoublingPrg::default();
        let mut left = [Block::ZERO; 5];
        let mut right = [Block::ZERO; 5];
        let mut controls = [u64::MAX; 1];
        prg.expand_level_into(&seeds, &mut left, &mut right, &mut controls);
        for (i, (l, r)) in children.into_iter().enumerate() {
            assert_eq!(left[i], Block::from(l), "left child of seed {i}");
            assert_eq!(right[i], Block::from(r), "right child of seed {i}");
        }
        assert_eq!(controls, [0x1d6]);
        // The reference path (what `Gen` walks) lands on the same values.
        for (i, seed) in seeds.into_iter().enumerate() {
            let pair = (controls[0] >> (2 * i)) & 0b11;
            let expansion = prg.expand(seed);
            assert_eq!(expansion.left.seed, left[i]);
            assert_eq!(expansion.right.seed, right[i]);
            assert_eq!(expansion.left.control, pair & 1 == 1);
            assert_eq!(expansion.right.control, pair & 2 == 2);
        }
    }

    #[test]
    fn shared_instance_is_the_default_prg() {
        let seed = Block::from(0x5eed_u128);
        assert_eq!(
            LengthDoublingPrg::shared().expand(seed),
            LengthDoublingPrg::default().expand(seed)
        );
    }

    #[test]
    fn expand_level_into_accepts_oversized_buffers() {
        let prg = LengthDoublingPrg::default();
        let seeds: Vec<Block> = (0..5u128).map(Block::from).collect();
        let mut left = vec![Block::ZERO; 16];
        let mut right = vec![Block::ZERO; 16];
        let mut controls = vec![0u64; 4];
        prg.expand_level_into(&seeds, &mut left, &mut right, &mut controls);
        let reference = prg.expand_level(&seeds);
        assert_eq!(left[4], reference[4].left.seed);
        assert_eq!(left[5], Block::ZERO, "blocks past the level are untouched");
    }

    #[test]
    #[should_panic(expected = "left buffer")]
    fn expand_level_into_rejects_short_buffers() {
        let prg = LengthDoublingPrg::default();
        let seeds = vec![Block::ZERO; 4];
        let mut left = vec![Block::ZERO; 3];
        let mut right = vec![Block::ZERO; 4];
        let mut controls = vec![0u64; 1];
        prg.expand_level_into(&seeds, &mut left, &mut right, &mut controls);
    }

    #[test]
    fn seeds_have_cleared_low_bit() {
        let prg = LengthDoublingPrg::default();
        let e = prg.expand(Block::from(0xabcdefu128));
        assert!(!e.left.seed.lsb());
        assert!(!e.right.seed.lsb());
    }

    #[test]
    fn custom_keys_produce_different_streams() {
        let default_prg = LengthDoublingPrg::default();
        let custom = LengthDoublingPrg::with_keys([1u8; 16], [2u8; 16]);
        let seed = Block::from(99u128);
        assert_ne!(default_prg.expand(seed), custom.expand(seed));
    }

    #[test]
    fn aes_op_accounting() {
        assert_eq!(LengthDoublingPrg::aes_ops_per_level(0), 0);
        assert_eq!(LengthDoublingPrg::aes_ops_per_level(10), 20);
    }

    #[test]
    fn node_expansion_child_selector() {
        let prg = LengthDoublingPrg::default();
        let e = prg.expand(Block::from(5u128));
        assert_eq!(e.child(false), e.left);
        assert_eq!(e.child(true), e.right);
    }
}
