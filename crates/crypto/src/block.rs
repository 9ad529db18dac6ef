//! 128-bit blocks, the basic unit of all PRF/PRG computations.

use std::fmt;
use std::ops::{BitXor, BitXorAssign};

/// A 128-bit block.
///
/// Blocks are the plaintext/ciphertext unit of AES-128 and, in the DPF, the
/// per-node seed of the GGM computation tree. They behave like a tiny
/// fixed-width bit-vector: XOR, equality, hex formatting and byte
/// conversions are all provided.
///
/// # Example
///
/// ```
/// use impir_crypto::Block;
///
/// let a = Block::from(0x0123_4567_89ab_cdefu128);
/// let b = Block::from(0xffff_0000_ffff_0000u128);
/// assert_eq!((a ^ b) ^ b, a);
/// assert_eq!(Block::ZERO ^ a, a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Block(u128);

impl Block {
    /// The all-zero block.
    pub const ZERO: Block = Block(0);

    /// The all-ones block.
    pub const ONES: Block = Block(u128::MAX);

    /// Creates a block from its little-endian byte representation.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Block(u128::from_le_bytes(bytes))
    }

    /// Returns the little-endian byte representation of the block.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Returns the raw 128-bit integer value.
    #[must_use]
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Returns the least-significant bit of the block.
    ///
    /// The DPF construction derives per-node control bits from this bit.
    #[must_use]
    pub fn lsb(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns a copy of the block with the least-significant bit cleared.
    ///
    /// Used to canonicalise GGM seeds so the control bit can be transported
    /// in the low bit without influencing the seed value.
    #[must_use]
    pub fn with_lsb_cleared(self) -> Block {
        Block(self.0 & !1)
    }

    /// Returns a copy of the block with the least-significant bit set to
    /// `bit`.
    #[must_use]
    pub fn with_lsb(self, bit: bool) -> Block {
        Block((self.0 & !1) | u128::from(bit))
    }

    /// Returns `true` if every bit of the block is zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Interprets the block as a pair of 64-bit words `(low, high)`.
    #[must_use]
    pub fn to_words(self) -> (u64, u64) {
        (self.0 as u64, (self.0 >> 64) as u64)
    }

    /// Builds a block out of a pair of 64-bit words `(low, high)`.
    #[must_use]
    pub fn from_words(low: u64, high: u64) -> Self {
        Block((u128::from(high) << 64) | u128::from(low))
    }
}

impl From<u128> for Block {
    fn from(value: u128) -> Self {
        Block(value)
    }
}

impl From<Block> for u128 {
    fn from(value: Block) -> Self {
        value.0
    }
}

impl From<[u8; 16]> for Block {
    fn from(bytes: [u8; 16]) -> Self {
        Block::from_bytes(bytes)
    }
}

impl From<Block> for [u8; 16] {
    fn from(value: Block) -> Self {
        value.to_bytes()
    }
}

impl BitXor for Block {
    type Output = Block;

    fn bitxor(self, rhs: Block) -> Block {
        Block(self.0 ^ rhs.0)
    }
}

impl BitXorAssign for Block {
    fn bitxor_assign(&mut self, rhs: Block) {
        self.0 ^= rhs.0;
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block({:032x})", self.0)
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::LowerHex for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_bytes() {
        let block = Block::from(0x0011_2233_4455_6677_8899_aabb_ccdd_eeffu128);
        assert_eq!(Block::from_bytes(block.to_bytes()), block);
    }

    #[test]
    fn xor_is_self_inverse() {
        let a = Block::from(12345u128);
        let b = Block::from(67890u128);
        assert_eq!((a ^ b) ^ b, a);
    }

    #[test]
    fn lsb_manipulation() {
        let block = Block::from(0b1011u128);
        assert!(block.lsb());
        assert!(!block.with_lsb_cleared().lsb());
        assert_eq!(block.with_lsb_cleared().as_u128(), 0b1010);
        assert!(block.with_lsb(true).lsb());
        assert_eq!(block.with_lsb(false).as_u128(), 0b1010);
    }

    #[test]
    fn word_conversion_roundtrips() {
        let block = Block::from(0xdead_beef_0000_0001_cafe_babe_0000_0002u128);
        let (low, high) = block.to_words();
        assert_eq!(Block::from_words(low, high), block);
    }

    #[test]
    fn constants_are_distinct() {
        assert!(Block::ZERO.is_zero());
        assert!(!Block::ONES.is_zero());
        assert_ne!(Block::ZERO, Block::ONES);
    }

    #[test]
    fn debug_is_nonempty_and_hex() {
        let text = format!("{:?}", Block::ZERO);
        assert!(text.contains("Block("));
        assert!(text.contains("00000000000000000000000000000000"));
    }

    #[test]
    fn ordering_matches_integer_ordering() {
        assert!(Block::from(1u128) < Block::from(2u128));
        assert!(Block::ZERO < Block::ONES);
    }
}
