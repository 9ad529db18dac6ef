//! Ablation benchmarks for the design choices discussed in §3 of the paper
//! and called out in `DESIGN.md`:
//!
//! * the four full-domain DPF evaluation strategies of §3.2 (branch-parallel
//!   / level-by-level / memory-bounded / subtree-parallel);
//! * the `dpXOR` inner loop: byte-wise scalar vs 64-bit-wide lanes (the
//!   portable stand-in for the paper's AVX path);
//! * the effect of the DPU tasklet count on the simulated `dpXOR` kernel
//!   (the paper uses 16 tasklets because ≥11 are needed to saturate the
//!   pipeline).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use impir_core::server::pim::{ImPirConfig, ImPirServer};
use impir_core::server::PirServer;
use impir_core::{dpxor, Database, PirClient};
use impir_dpf::{EvalStrategy, SelectorVector};
use impir_pim::PimConfig;

const RECORD_BYTES: usize = 32;
const RECORDS: u64 = 16384;

fn bench_eval_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_eval_strategies");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));

    let mut client = PirClient::new(RECORDS, RECORD_BYTES, 0).expect("client");
    let (share, _) = client.generate_query(RECORDS / 2).expect("query");
    let strategies = [
        ("branch_parallel", EvalStrategy::BranchParallel),
        ("level_by_level", EvalStrategy::LevelByLevel),
        (
            "memory_bounded",
            EvalStrategy::MemoryBounded { chunk_bits: 10 },
        ),
        (
            "subtree_parallel",
            EvalStrategy::SubtreeParallel { threads: 4 },
        ),
    ];
    for (name, strategy) in strategies {
        group.bench_with_input(
            BenchmarkId::new("strategy", name),
            &strategy,
            |b, strategy| {
                // Full-domain evaluation so each strategy uses its own traversal.
                b.iter(|| strategy.eval_full(&share.key));
            },
        );
    }
    group.finish();
}

fn bench_dpxor_lanes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_dpxor_lanes");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));

    let db = Database::random(RECORDS, RECORD_BYTES, 1).expect("geometry");
    let selector: SelectorVector = (0..RECORDS as usize).map(|i| i % 2 == 0).collect();
    group.bench_function("scalar", |b| {
        b.iter(|| {
            let mut acc = vec![0u8; RECORD_BYTES];
            dpxor::xor_select_scalar(db.as_bytes(), RECORD_BYTES, &selector, &mut acc);
            acc
        });
    });
    group.bench_function("fast_path", |b| {
        b.iter(|| {
            let mut acc = vec![0u8; RECORD_BYTES];
            dpxor::xor_select_into(db.as_bytes(), RECORD_BYTES, &selector, &mut acc);
            acc
        });
    });
    group.finish();
}

fn bench_tasklet_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_tasklets");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));

    let db = Arc::new(Database::random(RECORDS, RECORD_BYTES, 2).expect("geometry"));
    let mut client = PirClient::new(RECORDS, RECORD_BYTES, 1).expect("client");
    let (share, _) = client.generate_query(100).expect("query");
    for tasklets in [1usize, 4, 11, 16] {
        group.bench_with_input(
            BenchmarkId::new("tasklets", tasklets),
            &tasklets,
            |b, &tasklets| {
                let mut pim = PimConfig::tiny_test(8, 4 << 20);
                pim.tasklets_per_dpu = tasklets;
                let config = ImPirConfig {
                    pim,
                    clusters: 1,
                    eval_threads: 1,
                };
                let mut server = ImPirServer::new(db.clone(), config).expect("server");
                b.iter(|| server.process_query(&share).expect("query"));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_eval_strategies,
    bench_dpxor_lanes,
    bench_tasklet_counts
);
criterion_main!(benches);
