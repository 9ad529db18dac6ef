//! Cryptographic substrate for the IM-PIR reproduction.
//!
//! IM-PIR's distributed point function (DPF) uses AES-128 as its
//! pseudorandom function (the paper evaluates it with hardware AES-NI on the
//! host CPU). This crate provides the portable building blocks the rest of
//! the workspace relies on:
//!
//! * [`Block`] — a 128-bit value, the unit every AES/PRG/PRF operation works
//!   on;
//! * [`aes::Aes128`] — a self-contained FIPS-197 AES-128 (encryption only,
//!   which is all a PRF needs) in two forms: the byte-oriented
//!   [`encrypt_block`](aes::Aes128::encrypt_block), which is the **oracle**
//!   and the path client-side `Gen` takes, and the word-oriented,
//!   table-driven, four-blocks-in-flight
//!   [`encrypt_blocks`](aes::Aes128::encrypt_blocks), which is the **hot
//!   path**. Neither is constant-time; [`aes`] says why that is acceptable
//!   for what each one serves;
//! * [`batch`] — a batched multi-block encryption API mirroring how IM-PIR
//!   batches AES-NI invocations across GGM-tree nodes at each level, on the
//!   hot path;
//! * [`prg::LengthDoublingPrg`] — the fixed-key, length-doubling PRG
//!   (Matyas–Meyer–Oseas style) that expands one GGM node into its two
//!   children: node by node on the oracle path
//!   ([`expand`](prg::LengthDoublingPrg::expand)), a whole level at a time
//!   on the hot one
//!   ([`expand_level_into`](prg::LengthDoublingPrg::expand_level_into),
//!   where server-side `Eval` spends its time);
//! * [`prf::Prf`] / [`prf::AesPrf`] — the keyed PRF abstraction used by the
//!   DPF key-generation procedure.
//!
//! # Example
//!
//! ```
//! use impir_crypto::{Block, prg::LengthDoublingPrg};
//!
//! let prg = LengthDoublingPrg::default();
//! let seed = Block::from(42u128);
//! let expansion = prg.expand(seed);
//! // Expansion is deterministic ...
//! assert_eq!(expansion, prg.expand(seed));
//! // ... and the two children differ from each other and from the parent.
//! assert_ne!(expansion.left.seed, expansion.right.seed);
//! assert_ne!(expansion.left.seed, seed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod batch;
mod block;
pub mod prf;
pub mod prg;

pub use block::Block;

/// Number of bytes in a [`Block`].
pub const BLOCK_BYTES: usize = 16;

/// The security parameter λ used throughout the workspace, in bits.
///
/// The paper instantiates the DPF with AES-128, i.e. λ = 128.
pub const SECURITY_PARAMETER_BITS: usize = 128;
