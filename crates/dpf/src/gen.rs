//! DPF key generation (`Gen`), run by the PIR client.
//!
//! `Gen(1^λ, i)` produces the two keys `(k1, k2)` that secret-share the
//! one-hot selector for database index `i` (§3.1, Algorithm 1 step ➊). Key
//! generation costs `O(log N)` PRG expansions, which is why the paper keeps
//! it on the client and reports it as negligible next to server-side work
//! (Figure 3a).

use impir_crypto::prg::LengthDoublingPrg;
use impir_crypto::Block;
use rand::Rng;

use crate::error::DpfError;
use crate::key::{CorrectionWord, DpfKey, PartyId};
use crate::MAX_DOMAIN_BITS;

/// Generates a DPF key pair sharing the point function `P_{alpha,1}` over a
/// domain of `2^domain_bits` indices.
///
/// The construction is the GGM/Boyle–Gilboa–Ishai tree DPF the paper adopts
/// from its references [36, 62]: both keys carry identical per-level
/// correction words and differ only in their pseudorandom root seeds (and
/// the public root control bit, which is the party index).
///
/// # Errors
///
/// * [`DpfError::InvalidDomain`] if `domain_bits` is zero or larger than
///   [`MAX_DOMAIN_BITS`];
/// * [`DpfError::PointOutOfDomain`] if `alpha >= 2^domain_bits`.
///
/// # Example
///
/// ```
/// use impir_dpf::gen::generate_keys;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let (k1, k2) = generate_keys(16, 40_000, &mut rng)?;
/// assert_eq!(k1.correction_words(), k2.correction_words());
/// assert_ne!(k1.root_seed(), k2.root_seed());
/// # Ok::<(), impir_dpf::DpfError>(())
/// ```
pub fn generate_keys<R: Rng + ?Sized>(
    domain_bits: u32,
    alpha: u64,
    rng: &mut R,
) -> Result<(DpfKey, DpfKey), DpfError> {
    generate_keys_with_prg(domain_bits, alpha, rng, LengthDoublingPrg::shared())
}

/// Same as [`generate_keys`] but with a caller-provided PRG instance.
///
/// All parties (client and both servers) must use the same PRG keys; the
/// default instance is what the rest of the workspace uses. Exposed so the
/// evaluation-strategy benchmarks can share a single expanded PRG.
///
/// # Errors
///
/// See [`generate_keys`].
pub fn generate_keys_with_prg<R: Rng + ?Sized>(
    domain_bits: u32,
    alpha: u64,
    rng: &mut R,
    prg: &LengthDoublingPrg,
) -> Result<(DpfKey, DpfKey), DpfError> {
    if domain_bits == 0 || domain_bits > MAX_DOMAIN_BITS {
        return Err(DpfError::InvalidDomain { domain_bits });
    }
    if domain_bits < 64 && alpha >= (1u64 << domain_bits) {
        return Err(DpfError::PointOutOfDomain { alpha, domain_bits });
    }

    // Root seeds: pseudorandom, with the low bit reserved for control bits.
    let mut seed_1 = Block::from(rng.gen::<u128>()).with_lsb_cleared();
    let mut seed_2 = Block::from(rng.gen::<u128>()).with_lsb_cleared();
    if seed_1 == seed_2 {
        // Astronomically unlikely, but identical seeds would make the DPF
        // trivially insecure *and* incorrect; re-drawing keeps Gen total.
        seed_2 ^= Block::from(1u128 << 1);
    }
    let root_seed_1 = seed_1;
    let root_seed_2 = seed_2;

    // Root control bits are the party indices.
    let mut control_1 = false;
    let mut control_2 = true;

    let mut correction_words = Vec::with_capacity(domain_bits as usize);

    for level in 0..domain_bits {
        // Bits of alpha are consumed MSB-first so that leaf `x` sits at tree
        // position `x` when levels are expanded left-to-right.
        let alpha_bit = (alpha >> (domain_bits - 1 - level)) & 1 == 1;

        let expansion_1 = prg.expand(seed_1);
        let expansion_2 = prg.expand(seed_2);

        let keep = alpha_bit;
        let lose = !alpha_bit;

        let seed_cw = expansion_1.child(lose).seed ^ expansion_2.child(lose).seed;
        let control_cw_left =
            expansion_1.left.control ^ expansion_2.left.control ^ alpha_bit ^ true;
        let control_cw_right = expansion_1.right.control ^ expansion_2.right.control ^ alpha_bit;

        let control_cw_keep = if keep {
            control_cw_right
        } else {
            control_cw_left
        };

        let next_seed_1 = if control_1 {
            expansion_1.child(keep).seed ^ seed_cw
        } else {
            expansion_1.child(keep).seed
        };
        let next_seed_2 = if control_2 {
            expansion_2.child(keep).seed ^ seed_cw
        } else {
            expansion_2.child(keep).seed
        };
        let next_control_1 = expansion_1.child(keep).control ^ (control_1 & control_cw_keep);
        let next_control_2 = expansion_2.child(keep).control ^ (control_2 & control_cw_keep);

        correction_words.push(CorrectionWord {
            seed: seed_cw,
            control_left: control_cw_left,
            control_right: control_cw_right,
        });

        seed_1 = next_seed_1;
        seed_2 = next_seed_2;
        control_1 = next_control_1;
        control_2 = next_control_2;
    }

    let key_1 = DpfKey::from_parts(
        PartyId::Server1,
        domain_bits,
        root_seed_1,
        correction_words.clone(),
    )?;
    let key_2 = DpfKey::from_parts(PartyId::Server2, domain_bits, root_seed_2, correction_words)?;
    Ok((key_1, key_2))
}

/// Number of PRG node expansions key generation performs.
///
/// Used by the performance model to attribute client-side cost (the `Gen`
/// bar of Figure 3a).
#[must_use]
pub fn gen_prg_expansions(domain_bits: u32) -> u64 {
    2 * u64::from(domain_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_point;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_invalid_domains() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            generate_keys(0, 0, &mut rng),
            Err(DpfError::InvalidDomain { .. })
        ));
        assert!(matches!(
            generate_keys(MAX_DOMAIN_BITS + 1, 0, &mut rng),
            Err(DpfError::InvalidDomain { .. })
        ));
    }

    #[test]
    fn rejects_alpha_outside_domain() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            generate_keys(4, 16, &mut rng),
            Err(DpfError::PointOutOfDomain { .. })
        ));
    }

    #[test]
    fn keys_share_correction_words_but_not_seeds() {
        let mut rng = StdRng::seed_from_u64(5);
        let (k1, k2) = generate_keys(10, 77, &mut rng).expect("valid");
        assert_eq!(k1.correction_words(), k2.correction_words());
        assert_ne!(k1.root_seed(), k2.root_seed());
        assert_eq!(k1.party(), PartyId::Server1);
        assert_eq!(k2.party(), PartyId::Server2);
    }

    #[test]
    fn shares_reconstruct_point_function_small_domain() {
        let mut rng = StdRng::seed_from_u64(9);
        for domain_bits in 1..=8u32 {
            let domain = 1u64 << domain_bits;
            let alpha = rng.gen_range(0..domain);
            let (k1, k2) = generate_keys(domain_bits, alpha, &mut rng).expect("valid");
            for x in 0..domain {
                let bit = eval_point(&k1, x).unwrap() ^ eval_point(&k2, x).unwrap();
                assert_eq!(bit, x == alpha, "domain_bits={domain_bits} x={x}");
            }
        }
    }

    #[test]
    fn gen_cost_model_is_linear_in_depth() {
        assert_eq!(gen_prg_expansions(1), 2);
        assert_eq!(gen_prg_expansions(30), 60);
    }
}
