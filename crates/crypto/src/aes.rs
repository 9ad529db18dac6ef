//! A portable software AES-128 (encryption only), in two forms that share
//! one key schedule.
//!
//! IM-PIR's DPF uses AES-128 as its pseudorandom function and relies on the
//! host CPU's AES-NI instructions for speed. This reproduction cannot assume
//! AES-NI, so it ships FIPS-197 in software:
//!
//! * **The oracle** — [`Aes128::encrypt_block`], the byte-oriented
//!   SubBytes / ShiftRows / MixColumns / AddRoundKey loop read straight off
//!   the standard. Every result of the batch path is pinned against it, and
//!   it is the path client-side `Gen` and single-point `Eval` take
//!   ([`crate::prg::LengthDoublingPrg::expand`] /
//!   [`expand_one`](crate::prg::LengthDoublingPrg::expand_one)): `log N`
//!   blocks per key, where throughput does not matter and the simplest code
//!   is the right code for the party that holds the secret index.
//! * **The hot path** — [`Aes128::encrypt_blocks`] and the fused GGM level
//!   expansion built on the same kernel
//!   ([`crate::prg::LengthDoublingPrg::expand_level_into`], i.e. server-side
//!   full-domain `Eval`): the state is four little-endian `u32` columns,
//!   SubBytes + ShiftRows + MixColumns of one column are four lookups into
//!   a single 1 KiB table (`T0`, built at compile time from the S-box; the
//!   tables for rows 1–3 are its byte rotations), and
//!   [`PIPELINE_WIDTH`] independent blocks are carried through the rounds together so their lookups
//!   overlap.
//!
//! **Neither path is constant-time.** The oracle's S-box is already a
//! 256-byte table indexed by key-dependent state, and `T0` is a larger one;
//! both leak through the data cache to a co-resident observer. That is
//! acceptable where the hot path runs: a replica expands DPF keys whose
//! every seed, control bit and correction word is — by DPF security —
//! distributed independently of the queried index, so its whole view, cache
//! footprint included, carries nothing about the index, and the two
//! expansion keys are public constants. `Gen` is the one place that touches
//! the index itself; it stays on the reference path so this kernel is never
//! an argument about client-side secrets.
//!
//! Operation counts and the batching structure of the DPF are identical to
//! the hardware-accelerated version; only raw throughput differs, which the
//! `impir-perf` device profiles account for when extrapolating to the
//! paper's hardware.
//!
//! Only encryption is implemented — a PRF never needs the inverse cipher.

use crate::batch::PIPELINE_WIDTH;
use crate::Block;

/// Number of 32-bit words in an AES-128 key.
const NK: usize = 4;
/// Number of AES-128 rounds.
const NR: usize = 10;
/// Number of 32-bit words in the state.
const NB: usize = 4;

/// The AES S-box.
#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants used by the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication by `x` (i.e. `{02}`) in GF(2^8) with the AES polynomial.
#[inline]
fn xtime(b: u8) -> u8 {
    let shifted = b << 1;
    if b & 0x80 != 0 {
        shifted ^ 0x1b
    } else {
        shifted
    }
}

/// The batch kernel's one table: entry `a` is the MixColumns column that
/// S-box output `s = SBOX[a]` contributes from row 0, as a little-endian
/// word `(2·s, s, s, 3·s)`. The contributions from rows 1, 2 and 3 are the
/// same four bytes rotated, so one 1 KiB table serves all four.
const T0: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut a = 0;
    while a < 256 {
        let s = SBOX[a];
        // `xtime(s)`; the oracle's helper is not a `const fn`.
        let s2 = (s << 1) ^ (if s & 0x80 != 0 { 0x1b } else { 0 });
        table[a] = u32::from_le_bytes([s2, s, s, s2 ^ s]);
        a += 1;
    }
    table
};

/// An expanded AES-128 key (11 round keys), ready for encryption.
///
/// The key schedule is computed once at construction time; each
/// [`Aes128::encrypt_block`] call then performs only the 10 AES rounds.
/// This mirrors how IM-PIR keeps the two fixed PRG keys expanded for the
/// lifetime of the server. The round keys are held inline — bytes for the
/// oracle, column words for the batch kernel — so a cipher is plain data
/// with no heap behind it.
///
/// # Example
///
/// ```
/// use impir_crypto::{aes::Aes128, Block};
///
/// let key = Aes128::new([0u8; 16]);
/// let ct = key.encrypt_block(Block::ZERO);
/// assert_ne!(ct, Block::ZERO);
/// assert_eq!(ct, key.encrypt_block(Block::ZERO));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Aes128 {
    /// The oracle's form: 16 bytes per round, column-major.
    round_keys: [[u8; 16]; NR + 1],
    /// The batch kernel's form: the same bytes as little-endian columns.
    round_words: [[u32; NB]; NR + 1],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").field("rounds", &NR).finish()
    }
}

impl Aes128 {
    /// Expands `key` into the 11 round keys of AES-128.
    #[must_use]
    pub fn new(key: [u8; 16]) -> Self {
        let mut words = [[0u8; 4]; NB * (NR + 1)];
        for (i, word) in words.iter_mut().take(NK).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in NK..NB * (NR + 1) {
            let mut temp = words[i - 1];
            if i % NK == 0 {
                temp.rotate_left(1);
                for byte in &mut temp {
                    *byte = SBOX[*byte as usize];
                }
                temp[0] ^= RCON[i / NK - 1];
            }
            for j in 0..4 {
                words[i][j] = words[i - NK][j] ^ temp[j];
            }
        }

        let mut round_keys = [[0u8; 16]; NR + 1];
        let mut round_words = [[0u32; NB]; NR + 1];
        for round in 0..=NR {
            for col in 0..NB {
                let word = words[round * NB + col];
                round_keys[round][4 * col..4 * col + 4].copy_from_slice(&word);
                round_words[round][col] = u32::from_le_bytes(word);
            }
        }
        Aes128 {
            round_keys,
            round_words,
        }
    }

    /// Creates a cipher from a [`Block`]-typed key.
    #[must_use]
    pub fn from_block(key: Block) -> Self {
        Aes128::new(key.to_bytes())
    }

    /// Encrypts a single 16-byte block.
    #[must_use]
    pub fn encrypt_block(&self, plaintext: Block) -> Block {
        let mut state = plaintext.to_bytes();
        add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..NR {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[NR]);
        Block::from_bytes(state)
    }

    /// Encrypts every block of `blocks` in place, through the batch kernel:
    /// [`PIPELINE_WIDTH`] blocks at a time, the remainder one by one through
    /// the same round function. Byte-identical to mapping
    /// [`Aes128::encrypt_block`] over the slice.
    pub fn encrypt_blocks(&self, blocks: &mut [Block]) {
        self.map_blocks(blocks, |_, output| output);
    }

    /// Replaces every block `x` of `blocks` with `finish(x, AES(x))`,
    /// through the batch kernel — what [`Aes128::encrypt_blocks`] and the
    /// Matyas–Meyer–Oseas batch differ in is only `finish`.
    pub(crate) fn map_blocks(&self, blocks: &mut [Block], finish: impl Fn(Block, Block) -> Block) {
        let mut groups = blocks.chunks_exact_mut(PIPELINE_WIDTH);
        for group in &mut groups {
            let inputs = <[Block; PIPELINE_WIDTH]>::try_from(&*group)
                .expect("chunks_exact_mut yields full groups");
            let outputs = encrypt_lanes([self; PIPELINE_WIDTH], inputs);
            for ((block, input), output) in group.iter_mut().zip(inputs).zip(outputs) {
                *block = finish(input, output);
            }
        }
        for block in groups.into_remainder() {
            let [output] = encrypt_lanes([self], [*block]);
            *block = finish(*block, output);
        }
    }
}

/// One inner round (SubBytes, ShiftRows, MixColumns, AddRoundKey) on a
/// state held as four little-endian column words: output column `c` takes
/// row `r` from input column `c + r` (ShiftRows), and each of those bytes
/// indexes the row-0 table rotated up by `r` bytes.
#[inline(always)]
fn table_round(s: [u32; NB], rk: &[u32; NB]) -> [u32; NB] {
    let column = |c: usize| {
        T0[(s[c] & 0xff) as usize]
            ^ T0[((s[(c + 1) % NB] >> 8) & 0xff) as usize].rotate_left(8)
            ^ T0[((s[(c + 2) % NB] >> 16) & 0xff) as usize].rotate_left(16)
            ^ T0[(s[(c + 3) % NB] >> 24) as usize].rotate_left(24)
            ^ rk[c]
    };
    [column(0), column(1), column(2), column(3)]
}

/// The last round (no MixColumns): plain S-box bytes, shifted into place.
#[inline(always)]
fn last_round(s: [u32; NB], rk: &[u32; NB]) -> [u32; NB] {
    let column = |c: usize| {
        u32::from_le_bytes([
            SBOX[(s[c] & 0xff) as usize],
            SBOX[((s[(c + 1) % NB] >> 8) & 0xff) as usize],
            SBOX[((s[(c + 2) % NB] >> 16) & 0xff) as usize],
            SBOX[(s[(c + 3) % NB] >> 24) as usize],
        ]) ^ rk[c]
    };
    [column(0), column(1), column(2), column(3)]
}

/// The batch kernel: encrypts `N` independent blocks, lane `i` under
/// `ciphers[i]`, all lanes advancing one round at a time so their table
/// lookups overlap. The keys are per lane because the GGM expansion runs
/// each seed under both fixed keys in one pass.
// `ciphers`, `blocks`, the state and the output are four arrays walked in
// lockstep by lane number; indexing them says so, and measures ~5 % faster
// here than the zipped-iterator spelling.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
pub(crate) fn encrypt_lanes<const N: usize>(
    ciphers: [&Aes128; N],
    blocks: [Block; N],
) -> [Block; N] {
    let mut state = [[0u32; NB]; N];
    for lane in 0..N {
        let block = blocks[lane].as_u128();
        for col in 0..NB {
            state[lane][col] = (block >> (32 * col)) as u32 ^ ciphers[lane].round_words[0][col];
        }
    }
    for round in 1..NR {
        for lane in 0..N {
            state[lane] = table_round(state[lane], &ciphers[lane].round_words[round]);
        }
    }
    let mut out = [Block::ZERO; N];
    for lane in 0..N {
        let s = last_round(state[lane], &ciphers[lane].round_words[NR]);
        out[lane] = Block::from(
            u128::from(s[0])
                | u128::from(s[1]) << 32
                | u128::from(s[2]) << 64
                | u128::from(s[3]) << 96,
        );
    }
    out
}

#[inline]
fn add_round_key(state: &mut [u8; 16], round_key: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(round_key.iter()) {
        *s ^= *k;
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for byte in state.iter_mut() {
        *byte = SBOX[*byte as usize];
    }
}

/// The state is stored column-major (byte `i` is row `i % 4`, column `i / 4`).
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Row 1: rotate left by 1.
    let tmp = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = tmp;
    // Row 2: rotate left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: rotate left by 3 (equivalently right by 1).
    let tmp = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = tmp;
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let base = 4 * col;
        let a0 = state[base];
        let a1 = state[base + 1];
        let a2 = state[base + 2];
        let a3 = state[base + 3];
        let all = a0 ^ a1 ^ a2 ^ a3;
        state[base] = a0 ^ all ^ xtime(a0 ^ a1);
        state[base + 1] = a1 ^ all ^ xtime(a1 ^ a2);
        state[base + 2] = a2 ^ all ^ xtime(a2 ^ a3);
        state[base + 3] = a3 ^ all ^ xtime(a3 ^ a0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197, Appendix B.
        let key = Aes128::new(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let plaintext = Block::from_bytes(hex16("3243f6a8885a308d313198a2e0370734"));
        let expected = Block::from_bytes(hex16("3925841d02dc09fbdc118597196a0b32"));
        assert_eq!(key.encrypt_block(plaintext), expected);
    }

    #[test]
    fn fips197_appendix_c_vector() {
        // FIPS-197, Appendix C.1 (AES-128).
        let key = Aes128::new(hex16("000102030405060708090a0b0c0d0e0f"));
        let plaintext = Block::from_bytes(hex16("00112233445566778899aabbccddeeff"));
        let expected = Block::from_bytes(hex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(key.encrypt_block(plaintext), expected);
    }

    #[test]
    fn nist_sp800_38a_ecb_vector() {
        // NIST SP 800-38A, F.1.1 ECB-AES128.Encrypt, first block.
        let key = Aes128::new(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let plaintext = Block::from_bytes(hex16("6bc1bee22e409f96e93d7e117393172a"));
        let expected = Block::from_bytes(hex16("3ad77bb40d7a3660a89ecaf32466ef97"));
        assert_eq!(key.encrypt_block(plaintext), expected);
    }

    #[test]
    fn encryption_is_deterministic_and_key_dependent() {
        let k1 = Aes128::new([1u8; 16]);
        let k2 = Aes128::new([2u8; 16]);
        let pt = Block::from(7u128);
        assert_eq!(k1.encrypt_block(pt), k1.encrypt_block(pt));
        assert_ne!(k1.encrypt_block(pt), k2.encrypt_block(pt));
    }

    #[test]
    fn encrypt_blocks_matches_single_block_path() {
        let key = Aes128::new([9u8; 16]);
        let mut batch: Vec<Block> = (0..64u128).map(Block::from).collect();
        let expected: Vec<Block> = batch.iter().map(|b| key.encrypt_block(*b)).collect();
        key.encrypt_blocks(&mut batch);
        assert_eq!(batch, expected);
    }

    /// Published known answers as `(key, plaintext, ciphertext)`: FIPS-197
    /// Appendix B and C.1, and the four blocks of SP 800-38A F.1.1.
    const KNOWN_ANSWERS: [(&str, &str, &str); 6] = [
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        ),
        (
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ),
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "6bc1bee22e409f96e93d7e117393172a",
            "3ad77bb40d7a3660a89ecaf32466ef97",
        ),
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "f5d3d58503b9699de785895a96fdbaaf",
        ),
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "43b1cd7f598ece23881b00e3ed030688",
        ),
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "f69f2445df4f9b17ad2b417be66c3710",
            "7b0c785e27e8ad3f8223207104725dd4",
        ),
    ];

    #[test]
    fn known_answers_hold_in_every_lane_of_the_batch_path() {
        // Slice lengths 1..=9 cover the remainder lane alone, one and two
        // full interleaved groups, and groups plus remainder; the vector
        // visits every position of each. Length 0 must simply return.
        for (key, plaintext, ciphertext) in KNOWN_ANSWERS {
            let cipher = Aes128::new(hex16(key));
            let plaintext = Block::from_bytes(hex16(plaintext));
            let ciphertext = Block::from_bytes(hex16(ciphertext));
            assert_eq!(cipher.encrypt_block(plaintext), ciphertext);
            cipher.encrypt_blocks(&mut []);
            for len in 1..=9usize {
                let filler: Vec<Block> = (0..len as u128)
                    .map(|i| Block::from((i + 1) * 0x0101_0101_0101_0101_0101))
                    .collect();
                for position in 0..len {
                    let mut blocks = filler.clone();
                    blocks[position] = plaintext;
                    cipher.encrypt_blocks(&mut blocks);
                    for (i, block) in blocks.iter().enumerate() {
                        let expected = if i == position {
                            ciphertext
                        } else {
                            cipher.encrypt_block(filler[i])
                        };
                        assert_eq!(
                            *block, expected,
                            "len {len}, vector at {position}, lane {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        let key = Aes128::new([0xaa; 16]);
        let text = format!("{key:?}");
        assert!(!text.contains("aa"));
        assert!(text.contains("Aes128"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Flipping any single plaintext bit changes the ciphertext
            /// substantially (avalanche) — a cheap sanity check that the
            /// round functions are actually wired together.
            #[test]
            fn prop_plaintext_avalanche(key in any::<[u8; 16]>(), pt in any::<u128>(), bit in 0u32..128) {
                let cipher = Aes128::new(key);
                let base = cipher.encrypt_block(Block::from(pt));
                let flipped = cipher.encrypt_block(Block::from(pt ^ (1u128 << bit)));
                let differing_bits = (base.as_u128() ^ flipped.as_u128()).count_ones();
                prop_assert!(differing_bits >= 20, "only {differing_bits} bits changed");
            }

            /// The batch kernel is the oracle, block for block, at every
            /// length around the interleaving width.
            #[test]
            fn prop_batch_path_matches_the_oracle(key in any::<[u8; 16]>(), len in 0usize..=67, salt in any::<u128>()) {
                let cipher = Aes128::new(key);
                let inputs: Vec<Block> = (0..len as u128)
                    .map(|i| Block::from(salt.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835)))
                    .collect();
                let expected: Vec<Block> = inputs.iter().map(|b| cipher.encrypt_block(*b)).collect();
                let mut batch = inputs;
                cipher.encrypt_blocks(&mut batch);
                prop_assert_eq!(batch, expected);
            }

            /// Distinct keys virtually never produce the same ciphertext
            /// for the same plaintext.
            #[test]
            fn prop_key_separation(k1 in any::<[u8; 16]>(), k2 in any::<[u8; 16]>(), pt in any::<u128>()) {
                prop_assume!(k1 != k2);
                let c1 = Aes128::new(k1).encrypt_block(Block::from(pt));
                let c2 = Aes128::new(k2).encrypt_block(Block::from(pt));
                prop_assert_ne!(c1, c2);
            }

            /// Encryption is a permutation: distinct plaintexts map to
            /// distinct ciphertexts under one key.
            #[test]
            fn prop_injective(key in any::<[u8; 16]>(), a in any::<u128>(), b in any::<u128>()) {
                prop_assume!(a != b);
                let cipher = Aes128::new(key);
                prop_assert_ne!(
                    cipher.encrypt_block(Block::from(a)),
                    cipher.encrypt_block(Block::from(b))
                );
            }
        }
    }
}
