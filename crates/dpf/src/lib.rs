//! Distributed point functions (DPFs) for multi-server PIR.
//!
//! A DPF secret-shares a point function `P_{α,β}` (zero everywhere except at
//! `α`, where it equals `β`) into two keys `k1, k2` such that
//! `Eval(k1, x) ⊕ Eval(k2, x) = P_{α,β}(x)` for every `x`, while neither key
//! alone reveals `α` or `β`. In two-server PIR the client's query index is
//! the point `α` and each server expands its key over the whole database
//! domain to obtain its selector bit-vector (§2.3 of the IM-PIR paper).
//!
//! This crate implements:
//!
//! * the [`naive`] XOR-shared one-hot scheme of the paper's Figure 2
//!   (linear-size keys, used as a correctness oracle and teaching example);
//! * the GGM-tree DPF of Gilboa–Ishai / Boyle–Gilboa–Ishai, the construction
//!   the paper adopts from its reference [62] (logarithmic-size keys,
//!   AES-128 as the PRF) — [`DpfKey`], [`gen`], [`eval`];
//! * the four full-domain evaluation strategies discussed in §3.2 and
//!   Figure 7 — branch-parallel, level-by-level, memory-bounded traversal
//!   and the subtree-parallel scheme IM-PIR runs on the host CPU —
//!   in [`parallel`].
//!
//! # Example
//!
//! ```
//! use impir_dpf::{gen::generate_keys, eval::eval_point, point_function::PointFunction};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let domain_bits = 10; // database of 1024 records
//! let alpha = 613;
//! let (k1, k2) = generate_keys(domain_bits, alpha, &mut rng)?;
//! let point = PointFunction::new(alpha, true);
//! for x in [0u64, 1, 612, 613, 614, 1023] {
//!     let shared = eval_point(&k1, x)? ^ eval_point(&k2, x)?;
//!     assert_eq!(shared, point.eval(x));
//! }
//! # Ok::<(), impir_dpf::DpfError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
mod error;
pub mod eval;
pub mod gen;
pub mod key;
pub mod naive;
pub mod parallel;
pub mod point_function;

pub use bitvec::SelectorVector;
pub use error::DpfError;
pub use eval::{BufferPool, EvalScratch, ScratchPool};
pub use key::{CorrectionWord, DpfKey, PartyId};
pub use parallel::{fan_out, host_parallelism, EvalStrategy};

/// Maximum supported domain size in bits.
///
/// 2^40 one-byte records would already be a terabyte-scale database, far
/// beyond both the paper's evaluation (≤ 32 GB) and anything this simulator
/// can hold; the limit mostly guards against accidental `u64` overflow in
/// index arithmetic.
pub const MAX_DOMAIN_BITS: u32 = 40;
