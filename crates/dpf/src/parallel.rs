//! Full-domain DPF evaluation strategies (paper §3.2, Figure 7).
//!
//! Expanding a DPF key over the whole database domain is the "Eval" phase
//! of every PIR query and, once the `dpXOR` scan has been offloaded to PIM,
//! becomes the dominant server-side cost (Table 1: 76.45 % of IM-PIR's
//! latency). The paper weighs four ways of parallelising it:
//!
//! * **branch-parallel** — every worker walks from the root to its own
//!   leaves, recomputing the shared path (wasteful: `O(N log N)` PRG calls,
//!   and infeasible on DPUs because of the 64 KB WRAM);
//! * **level-by-level** — a single breadth-first sweep storing a whole tree
//!   level (`O(N)` PRG calls but `O(N)` intermediate memory and, on PIM,
//!   prohibitive inter-DPU communication);
//! * **memory-bounded traversal** — the level-by-level sweep restricted to
//!   fixed-size chunks of leaves (the GPU-PIR approach of the paper's
//!   reference [62]);
//! * **subtree-parallel** — the strategy IM-PIR uses on the host CPU: a
//!   master thread expands the top of the tree down to level `L = log2(T)`,
//!   then `T` worker threads expand their perfect subtrees independently,
//!   batching AES calls per level.
//!
//! All four produce identical selector vectors; they differ only in cost.
//!
//! # Execution model
//!
//! Every strategy expands subtrees through the zero-allocation
//! [`EvalScratch`](crate::eval::EvalScratch) pipeline of [`crate::eval`].
//! Two entry points trade parallelism against buffer reuse:
//!
//! * [`EvalStrategy::eval_full`] / [`EvalStrategy::eval_range`] optimise
//!   **single-query latency**: the subtree-parallel strategy fans its
//!   perfect subtrees out over real threads through [`fan_out`], each
//!   worker — the calling thread is the last of them — expanding through
//!   its own scratch;
//! * [`EvalStrategy::eval_range_with_scratch`] optimises **steady-state
//!   batch throughput**: it runs on the calling thread reusing one
//!   caller-owned scratch, because the batch pipeline already runs one
//!   evaluation per stage-1 worker thread — spawning nested threads there
//!   would oversubscribe the host, and per-query scratch reuse is what
//!   makes batch serving allocation-free.

use impir_crypto::prg::LengthDoublingPrg;

use crate::bitvec::SelectorVector;
use crate::error::DpfError;
use crate::eval::{
    eval_point_with_prg, eval_prefix, eval_range_into, eval_range_with_prg, expand_subtree,
    expand_subtree_into, EvalScratch, NodeState,
};
use crate::key::DpfKey;

/// Default chunk size (in leaves) for the memory-bounded traversal,
/// matching the 8 K-node chunks used by the GPU-PIR reference
/// implementation.
pub const DEFAULT_CHUNK_BITS: u32 = 13;

/// Number of hardware threads available to this process
/// (`std::thread::available_parallelism`, 1 if unknown) — the single
/// definition every thread-count default in the workspace derives from.
/// Read once per process: the call is a `sched_getaffinity` plus cgroup
/// file reads (≈14 µs), and query paths ask on every batch. Thread-level
/// parallelism comes exclusively from [`fan_out`]s sized by this function.
#[must_use]
pub fn host_parallelism() -> usize {
    static HOST_PARALLELISM: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST_PARALLELISM.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The workspace's one fan-out rule: runs `run` over every item
/// concurrently — N−1 scoped threads and **the last item on the calling
/// thread** — and returns the results in item order. One item therefore
/// costs no thread at all, and the caller is never an idle joiner.
///
/// # Panics
///
/// Propagates a panic from any `run` call once every helper has finished.
pub fn fan_out<I, R, F>(items: I, run: F) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let mut items: Vec<I::Item> = items.into_iter().collect();
    let last = items.pop();
    let run = &run;
    std::thread::scope(|scope| {
        let helpers: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || run(item)))
            .collect();
        let last = last.map(run);
        helpers
            .into_iter()
            .map(|helper| helper.join().expect("fan-out helper panicked"))
            .chain(last)
            .collect()
    })
}

/// How a server expands a DPF key over the full database domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvalStrategy {
    /// Each leaf (or leaf range) is computed from the root independently.
    ///
    /// Simple and embarrassingly parallel but performs `O(N log N)` PRG
    /// expansions; §3.2 rules it out for DPUs (WRAM too small) and the
    /// host only keeps it as a correctness oracle.
    BranchParallel,
    /// One sequential breadth-first expansion holding an entire level in
    /// memory.
    LevelByLevel,
    /// Breadth-first expansion over aligned chunks of `2^chunk_bits`
    /// leaves, bounding intermediate memory (the approach of the paper's
    /// GPU reference [62]).
    MemoryBounded {
        /// log2 of the chunk size in leaves.
        chunk_bits: u32,
    },
    /// IM-PIR's host-side strategy: expand the top of the tree to level
    /// `log2(threads)`, then evaluate each perfect subtree on its own
    /// worker thread.
    SubtreeParallel {
        /// Number of worker threads / subtrees (rounded up to a power of
        /// two).
        threads: usize,
    },
}

impl Default for EvalStrategy {
    fn default() -> Self {
        EvalStrategy::SubtreeParallel {
            threads: host_parallelism(),
        }
    }
}

impl EvalStrategy {
    /// A short, stable name for reports and benchmark labels.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EvalStrategy::BranchParallel => "branch-parallel",
            EvalStrategy::LevelByLevel => "level-by-level",
            EvalStrategy::MemoryBounded { .. } => "memory-bounded",
            EvalStrategy::SubtreeParallel { .. } => "subtree-parallel",
        }
    }

    /// Evaluates `key` over its whole domain with this strategy.
    #[must_use]
    pub fn eval_full(&self, key: &DpfKey) -> SelectorVector {
        self.eval_full_with_prg(key, LengthDoublingPrg::shared())
    }

    /// [`EvalStrategy::eval_full`] with a caller-provided PRG.
    #[must_use]
    pub fn eval_full_with_prg(&self, key: &DpfKey, prg: &LengthDoublingPrg) -> SelectorVector {
        let domain = key.domain_size();
        match *self {
            EvalStrategy::BranchParallel => (0..domain)
                .map(|x| eval_point_with_prg(key, x, prg).expect("x is within the key's domain"))
                .collect(),
            EvalStrategy::LevelByLevel => expand_subtree(key, NodeState::root(key), 0, prg),
            EvalStrategy::MemoryBounded { .. } => self
                .eval_range(key, 0, domain)
                .expect("the full domain is in range"),
            EvalStrategy::SubtreeParallel { threads } => eval_subtree_parallel(key, threads, prg),
        }
    }

    /// Evaluates `key` over `[start, start + count)` with this strategy.
    ///
    /// Only the subtree-parallel strategy parallelises ranges (over real
    /// scoped worker threads, one scratch each); the others run the
    /// sequential chunked walk, which is what the paper's description
    /// implies (ranges are already per-DPU slices).
    ///
    /// # Errors
    ///
    /// Returns [`DpfError::InputOutOfDomain`] if the range leaves the
    /// key's domain.
    pub fn eval_range(
        &self,
        key: &DpfKey,
        start: u64,
        count: u64,
    ) -> Result<SelectorVector, DpfError> {
        // Validate once up front (overflow-proof), so the per-worker chunk
        // arithmetic below can never wrap: after this check every offset
        // the workers compute stays within `domain ≤ 2^MAX_DOMAIN_BITS`.
        check_range(key, start, count)?;
        let prg = LengthDoublingPrg::shared();
        match *self {
            EvalStrategy::SubtreeParallel { threads } if threads > 1 && count > 1 => {
                let workers = threads.min(count as usize);
                let per_worker = count.div_ceil(workers as u64);
                let parts = fan_out(0..workers as u64, |w| {
                    let chunk_start = start + w * per_worker;
                    let chunk_count = per_worker.min(count.saturating_sub(w * per_worker));
                    eval_range_with_prg(key, chunk_start, chunk_count, prg)
                });
                let parts: Result<Vec<SelectorVector>, DpfError> = parts.into_iter().collect();
                Ok(SelectorVector::concat(&parts?))
            }
            _ => {
                let mut scratch = EvalScratch::new();
                self.eval_range_with_scratch(key, start, count, prg, &mut scratch)
            }
        }
    }

    /// [`EvalStrategy::eval_range`] on the calling thread, reusing a
    /// caller-owned scratch — the allocation-free form the batch pipeline's
    /// stage-1 workers evaluate through (see the module docs for when to
    /// prefer which entry point).
    ///
    /// All strategies produce identical selector vectors; here they differ
    /// only in traversal order and scratch footprint. The subtree-parallel
    /// strategy walks its subtrees sequentially on this thread: across-
    /// query parallelism is the pipeline's job.
    ///
    /// # Errors
    ///
    /// Returns [`DpfError::InputOutOfDomain`] if the range leaves the
    /// key's domain.
    pub fn eval_range_with_scratch(
        &self,
        key: &DpfKey,
        start: u64,
        count: u64,
        prg: &LengthDoublingPrg,
        scratch: &mut EvalScratch,
    ) -> Result<SelectorVector, DpfError> {
        // Validate before reserving: an adversarial `count` must come back
        // as an error, not as an attempt to reserve 2^64 bits.
        check_range(key, start, count)?;
        let end = start + count;
        let mut out = SelectorVector::zeros(0);
        out.reserve_bits(count as usize);
        match *self {
            EvalStrategy::BranchParallel => {
                for x in start..end {
                    out.push(eval_point_with_prg(key, x, prg)?);
                }
            }
            EvalStrategy::MemoryBounded { chunk_bits } => {
                let chunk_bits = chunk_bits.min(key.domain_bits());
                let chunk = 1u64 << chunk_bits;
                let mut cursor = start;
                while cursor < end {
                    let step = chunk.min(end - cursor);
                    eval_range_into(key, cursor, step, prg, scratch, &mut out)?;
                    cursor += step;
                }
            }
            EvalStrategy::LevelByLevel | EvalStrategy::SubtreeParallel { .. } => {
                eval_range_into(key, start, count, prg, scratch, &mut out)?;
            }
        }
        Ok(out)
    }

    /// Number of PRG node expansions this strategy performs for a
    /// full-domain evaluation — the quantity the performance model charges
    /// for the Eval phase.
    #[must_use]
    pub fn prg_expansions(&self, domain_bits: u32) -> u64 {
        let leaves = 1u64 << domain_bits;
        match *self {
            // Every leaf walks the full depth.
            EvalStrategy::BranchParallel => leaves * u64::from(domain_bits),
            // One expansion per interior node.
            EvalStrategy::LevelByLevel => leaves.saturating_sub(1).max(1),
            EvalStrategy::MemoryBounded { chunk_bits } => {
                let chunk_bits = chunk_bits.min(domain_bits);
                let chunks = leaves >> chunk_bits;
                let per_chunk_path = u64::from(domain_bits - chunk_bits);
                let per_chunk_subtree = (1u64 << chunk_bits) - 1;
                chunks * (per_chunk_path + per_chunk_subtree.max(1))
            }
            EvalStrategy::SubtreeParallel { threads } => {
                let level = subtree_level(threads, domain_bits);
                let top = (1u64 << level) - 1;
                let subtrees = 1u64 << level;
                let per_subtree = (1u64 << (domain_bits - level)) - 1;
                top + subtrees * per_subtree.max(1)
            }
        }
    }
}

/// Overflow-proof range validation shared by every strategy entry point:
/// rejects any `[start, start + count)` that wraps `u64` or leaves the
/// key's domain.
fn check_range(key: &DpfKey, start: u64, count: u64) -> Result<(), DpfError> {
    match start.checked_add(count) {
        Some(end) if end <= key.domain_size() => Ok(()),
        _ => Err(DpfError::InputOutOfDomain {
            input: start.saturating_add(count),
            domain_bits: key.domain_bits(),
        }),
    }
}

/// The tree level at which subtree-parallel evaluation hands over to
/// worker threads: `L = ceil(log2(threads))`, clamped to the tree depth.
#[must_use]
pub fn subtree_level(threads: usize, domain_bits: u32) -> u32 {
    let level = usize::BITS - threads.next_power_of_two().leading_zeros() - 1;
    level.min(domain_bits)
}

/// Subtree-parallel full-domain evaluation on real threads: the master
/// thread positions each perfect subtree's root, then at most `threads`
/// workers — the master itself runs the last share ([`fan_out`]) — split
/// the subtrees among themselves (the
/// subtree count rounds `threads` up to a power of two, so a worker may
/// expand two subtrees back to back through one [`EvalScratch`] — never
/// more OS threads than the caller budgeted). The parts concatenate
/// word-wise: every part is a run of power-of-two subtrees, so parts of
/// 64+ leaves merge with plain word copies.
fn eval_subtree_parallel(key: &DpfKey, threads: usize, prg: &LengthDoublingPrg) -> SelectorVector {
    let level = subtree_level(threads, key.domain_bits());
    if level == 0 {
        return expand_subtree(key, NodeState::root(key), 0, prg);
    }
    // Master thread: walk to every subtree root (the top of the tree is
    // tiny — at most `2 * threads` paths of length `level`).
    let subtree_count = 1usize << level;
    let roots: Vec<NodeState> = (0..subtree_count as u64)
        .map(|prefix| {
            eval_prefix(key, prefix, level, prg).expect("prefix is within the key's domain")
        })
        .collect();

    // Workers: each expands its contiguous run of subtrees.
    let workers = threads.min(subtree_count);
    let per_worker = subtree_count.div_ceil(workers);
    let subtree_leaves = 1usize << (key.domain_bits() - level);
    let parts = fan_out(roots.chunks(per_worker), |worker_roots| {
        let mut scratch = EvalScratch::new();
        let mut part = SelectorVector::zeros(0);
        part.reserve_bits(worker_roots.len() * subtree_leaves);
        for state in worker_roots {
            expand_subtree_into(key, *state, level, prg, &mut scratch, &mut part);
        }
        part
    });
    SelectorVector::concat(&parts)
}

/// All strategies, at a configuration suitable for comparisons in tests and
/// benchmarks.
#[must_use]
pub fn all_strategies(threads: usize) -> Vec<EvalStrategy> {
    vec![
        EvalStrategy::BranchParallel,
        EvalStrategy::LevelByLevel,
        EvalStrategy::MemoryBounded {
            chunk_bits: DEFAULT_CHUNK_BITS,
        },
        EvalStrategy::SubtreeParallel { threads },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_full;
    use crate::gen::generate_keys;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn keypair(domain_bits: u32, alpha: u64, seed: u64) -> (DpfKey, DpfKey) {
        let mut rng = StdRng::seed_from_u64(seed);
        generate_keys(domain_bits, alpha, &mut rng).expect("valid parameters")
    }

    #[test]
    fn fan_out_runs_the_last_item_on_the_caller_and_keeps_item_order() {
        let caller = std::thread::current().id();
        for items in 0..4usize {
            let ran: Vec<(usize, std::thread::ThreadId)> =
                fan_out(0..items, |item| (item, std::thread::current().id()));
            assert_eq!(ran.len(), items);
            for (position, (item, thread)) in ran.iter().enumerate() {
                assert_eq!(*item, position);
                assert_eq!(*thread == caller, position + 1 == items, "{items} items");
            }
        }
    }

    #[test]
    fn all_strategies_agree_with_reference() {
        let (k1, _) = keypair(10, 700, 21);
        let reference = eval_full(&k1);
        for strategy in all_strategies(4) {
            assert_eq!(
                strategy.eval_full(&k1),
                reference,
                "strategy {}",
                strategy.name()
            );
        }
    }

    #[test]
    fn strategies_agree_on_tiny_domains() {
        let (k1, _) = keypair(1, 1, 3);
        let reference = eval_full(&k1);
        for strategy in all_strategies(8) {
            assert_eq!(strategy.eval_full(&k1), reference);
        }
    }

    #[test]
    fn subtree_parallel_with_more_threads_than_leaves() {
        let (k1, _) = keypair(2, 3, 3);
        let strategy = EvalStrategy::SubtreeParallel { threads: 64 };
        assert_eq!(strategy.eval_full(&k1), eval_full(&k1));
    }

    #[test]
    fn memory_bounded_with_oversized_chunks() {
        let (k1, _) = keypair(4, 9, 3);
        let strategy = EvalStrategy::MemoryBounded { chunk_bits: 20 };
        assert_eq!(strategy.eval_full(&k1), eval_full(&k1));
    }

    #[test]
    fn eval_range_strategies_match_reference() {
        let (k1, _) = keypair(9, 100, 5);
        let reference = eval_full(&k1);
        for strategy in all_strategies(4) {
            let range = strategy.eval_range(&k1, 37, 300).unwrap();
            for i in 0..300usize {
                assert_eq!(range.get(i), reference.get(37 + i), "{}", strategy.name());
            }
        }
    }

    #[test]
    fn eval_range_with_scratch_matches_eval_range_for_all_strategies() {
        let (k1, _) = keypair(9, 350, 13);
        let prg = LengthDoublingPrg::default();
        let mut scratch = EvalScratch::new();
        for strategy in all_strategies(4) {
            for (start, count) in [(0u64, 512u64), (37, 300), (511, 1), (100, 0)] {
                let threaded = strategy.eval_range(&k1, start, count).unwrap();
                let scratched = strategy
                    .eval_range_with_scratch(&k1, start, count, &prg, &mut scratch)
                    .unwrap();
                assert_eq!(
                    threaded,
                    scratched,
                    "strategy {} start={start} count={count}",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn eval_range_with_scratch_rejects_out_of_domain_for_all_strategies() {
        let (k1, _) = keypair(8, 0, 1);
        let prg = LengthDoublingPrg::default();
        let mut scratch = EvalScratch::new();
        for strategy in all_strategies(2) {
            // (2, u64::MAX - 1) must error out *before* any buffer is
            // reserved for the (absurd) count.
            for (start, count) in [(200u64, 100u64), (256, 1), (u64::MAX, 2), (2, u64::MAX - 1)] {
                assert!(
                    strategy
                        .eval_range_with_scratch(&k1, start, count, &prg, &mut scratch)
                        .is_err(),
                    "strategy {} start={start} count={count}",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn eval_range_rejects_adversarial_ranges_for_all_strategies() {
        // The threaded entry point must also reject wrapping ranges before
        // any per-worker offset arithmetic runs.
        let (k1, _) = keypair(8, 0, 1);
        for strategy in all_strategies(4) {
            for (start, count) in [(u64::MAX, 2u64), (2, u64::MAX - 1), (200, 100), (0, 257)] {
                assert!(
                    strategy.eval_range(&k1, start, count).is_err(),
                    "strategy {} start={start} count={count}",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn subtree_level_is_clamped() {
        assert_eq!(subtree_level(1, 10), 0);
        assert_eq!(subtree_level(2, 10), 1);
        assert_eq!(subtree_level(8, 10), 3);
        // Non-power-of-two thread counts round up to the next power of two.
        assert_eq!(subtree_level(7, 10), 3);
        assert_eq!(subtree_level(1024, 5), 5);
    }

    #[test]
    fn subtree_parallel_internal_helper_matches_reference() {
        let (k1, _) = keypair(8, 100, 2);
        let prg = LengthDoublingPrg::default();
        for threads in [1usize, 2, 3, 8, 16] {
            assert_eq!(
                eval_subtree_parallel(&k1, threads, &prg),
                eval_full(&k1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn branch_parallel_costs_more_prg_calls() {
        let level_by_level = EvalStrategy::LevelByLevel.prg_expansions(16);
        let branch = EvalStrategy::BranchParallel.prg_expansions(16);
        assert!(branch > 10 * level_by_level);
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(EvalStrategy::BranchParallel.name(), "branch-parallel");
        assert_eq!(EvalStrategy::default().name(), "subtree-parallel");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_strategies_agree(
            domain_bits in 1u32..10,
            seed in any::<u64>(),
            threads in 1usize..9,
            chunk_bits in 1u32..8,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let domain = 1u64 << domain_bits;
            let alpha = rng.gen_range(0..domain);
            let (k1, k2) = generate_keys(domain_bits, alpha, &mut rng).unwrap();
            let reference_1 = eval_full(&k1);
            let reference_2 = eval_full(&k2);
            let strategies = [
                EvalStrategy::BranchParallel,
                EvalStrategy::LevelByLevel,
                EvalStrategy::MemoryBounded { chunk_bits },
                EvalStrategy::SubtreeParallel { threads },
            ];
            for strategy in strategies {
                prop_assert_eq!(strategy.eval_full(&k1), reference_1.clone());
                prop_assert_eq!(strategy.eval_full(&k2), reference_2.clone());
            }
        }
    }
}
