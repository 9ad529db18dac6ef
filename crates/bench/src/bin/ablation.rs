//! Ablation report for the design choices §3 of the paper discusses:
//! evaluation-strategy PRG costs (Figure 7's trade-offs), the wide vs
//! scalar `dpXOR` inner loop, and the tasklet-count sensitivity of the
//! simulated DPU kernel.
//!
//! Run with `cargo run -p impir-bench --release --bin ablation`.

use std::sync::Arc;
use std::time::Instant;

use impir_bench::paper;
use impir_bench::report::{DataPoint, FigureReport, Series};
use impir_core::engine::{EngineConfig, QueryEngine};
use impir_core::server::cpu::{CpuPirServer, CpuServerConfig};
use impir_core::server::pim::{ImPirConfig, ImPirServer};
use impir_core::server::PirServer;
use impir_core::shard::ShardedDatabase;
use impir_core::{dpxor, BatchConfig, Database, PirClient};
use impir_dpf::{EvalStrategy, SelectorVector};
use impir_pim::PimConfig;

fn main() {
    eval_strategy_ablation();
    dpxor_lane_ablation();
    tasklet_ablation();
    engine_pipeline_ablation();
}

/// Sensitivity of the unified batch pipeline to its knobs: evaluation
/// worker count, admission-queue depth (backpressure) and shard count. All
/// sweeps run the same batch through `QueryEngine` over CPU backends, so
/// the differences isolate the pipeline itself.
fn engine_pipeline_ablation() {
    let mut report = FigureReport::new(
        "ablation-engine-pipeline",
        "QueryEngine batch pipeline: workers × queue depth × shards",
        "wall time is pipeline-bound; responses are byte-identical across all settings",
    );
    let records: u64 = 1 << 14;
    let db = Arc::new(Database::random(records, paper::RECORD_BYTES, 17).expect("geometry"));
    let mut client = PirClient::new(records, paper::RECORD_BYTES, 3).expect("client");
    let indices: Vec<u64> = (0..64u64).map(|i| (i * 257) % records).collect();
    let (shares, _) = client.generate_batch(&indices).expect("batch");

    let mut series = Series::new("measured batch wall time", "ms");
    for (workers, queue_depth, shards) in [
        (1usize, 1usize, 1usize),
        (1, 8, 1),
        (4, 1, 1),
        (4, 8, 1),
        (4, 8, 2),
        (4, 8, 4),
    ] {
        let sharded = ShardedDatabase::uniform(db.clone(), shards).expect("plan");
        let pipeline =
            BatchConfig::with_workers_and_queue(workers, queue_depth).expect("pipeline config");
        let engine_config =
            EngineConfig::new(pipeline, EvalStrategy::SubtreeParallel { threads: workers })
                .expect("engine config");
        let mut engine = QueryEngine::sharded(&sharded, engine_config, |shard_db, _| {
            CpuPirServer::new(shard_db, CpuServerConfig::baseline())
        })
        .expect("engine builds");
        let outcome = engine.execute_batch(&shares).expect("batch executes");
        let label = format!("w={workers} q={queue_depth} s={shards}");
        println!(
            "[engine {label}] wall {:.3}s eval {:.3}s dpxor {:.3}s",
            outcome.wall_seconds,
            outcome.phase_totals.eval.wall_seconds,
            outcome.phase_totals.dpxor.wall_seconds,
        );
        series.push(DataPoint::new(label, 0.0, outcome.wall_seconds * 1e3));
    }
    report.push_series(series);
    report.push_note(format!(
        "batch = {}, {} records × {} B, CPU shard backends",
        indices.len(),
        records,
        paper::RECORD_BYTES
    ));
    report.emit();
}

/// §3.2 / Figure 7: PRG-expansion counts and measured time of the four
/// full-domain evaluation strategies.
fn eval_strategy_ablation() {
    let mut report = FigureReport::new(
        "ablation-eval-strategies",
        "DPF full-domain evaluation strategies (Figure 7 trade-offs)",
        "branch-parallel wastes O(N log N) PRG calls; the others are O(N); \
         IM-PIR adopts the subtree-parallel scheme on the host CPU",
    );
    let records: u64 = 1 << 16;
    let domain_bits = 16;
    let mut client = PirClient::new(records, paper::RECORD_BYTES, 0).expect("client");
    let (share, _) = client.generate_query(records / 2).expect("query");

    let strategies = [
        ("branch-parallel", EvalStrategy::BranchParallel),
        ("level-by-level", EvalStrategy::LevelByLevel),
        (
            "memory-bounded",
            EvalStrategy::MemoryBounded { chunk_bits: 10 },
        ),
        (
            "subtree-parallel",
            EvalStrategy::SubtreeParallel { threads: 4 },
        ),
    ];
    let mut prg_series = Series::new("PRG node expansions (analytic)", "expansions");
    let mut time_series = Series::new("measured full-domain evaluation", "ms");
    for (name, strategy) in strategies {
        prg_series.push(DataPoint::new(
            name,
            0.0,
            strategy.prg_expansions(domain_bits) as f64,
        ));
        let started = Instant::now();
        // Full-domain evaluation (the domain is exactly `records` here), so
        // each strategy follows its own traversal rather than the shared
        // range-walk fallback.
        let selector = strategy.eval_full(&share.key);
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(selector.len() as u64, records);
        time_series.push(DataPoint::new(name, 0.0, elapsed * 1e3));
    }
    report.push_series(prg_series);
    report.push_series(time_series);
    report.push_note("64 Ki-record domain; measured on one host core with the portable AES");
    report.emit();
}

/// Byte-wise oracle vs the 64-bit-lane fast path of `dpXOR` (the AVX
/// stand-in the CPU servers use).
fn dpxor_lane_ablation() {
    let mut report = FigureReport::new(
        "ablation-dpxor-lanes",
        "dpXOR inner loop: byte-wise scalar vs 64-bit lanes",
        "the paper's CPU implementations rely on AVX for wide XORs",
    );
    let mut series = Series::new("scan time (64 Ki records x 32 B)", "ms");
    let db = Database::random(1 << 16, paper::RECORD_BYTES, 1).expect("geometry");
    let selector: SelectorVector = (0..(1usize << 16)).map(|i| i % 2 == 0).collect();

    for (name, fast) in [("scalar", false), ("fast-path", true)] {
        let started = Instant::now();
        let mut accumulator = vec![0u8; paper::RECORD_BYTES];
        if fast {
            dpxor::xor_select_into(
                db.as_bytes(),
                paper::RECORD_BYTES,
                &selector,
                &mut accumulator,
            );
        } else {
            dpxor::xor_select_scalar(
                db.as_bytes(),
                paper::RECORD_BYTES,
                &selector,
                &mut accumulator,
            );
        }
        series.push(DataPoint::new(
            name,
            0.0,
            started.elapsed().as_secs_f64() * 1e3,
        ));
    }
    report.push_series(series);
    report.emit();
}

/// Tasklet-count sensitivity of the simulated dpXOR kernel (the paper uses
/// 16 tasklets; ≥11 are needed to keep the DPU pipeline full).
fn tasklet_ablation() {
    let mut report = FigureReport::new(
        "ablation-tasklets",
        "Simulated dpXOR kernel time vs tasklets per DPU",
        "≥11 tasklets are needed to saturate the DPU pipeline (PrIM); the paper uses 16",
    );
    let records: u64 = 1 << 15;
    let db = Arc::new(Database::random(records, paper::RECORD_BYTES, 3).expect("geometry"));
    let mut client = PirClient::new(records, paper::RECORD_BYTES, 2).expect("client");
    let (share, _) = client.generate_query(7).expect("query");
    let mut series = Series::new("simulated dpXOR kernel time", "ms");
    for tasklets in [1usize, 2, 4, 8, 11, 16, 24] {
        let mut pim = PimConfig::tiny_test(8, 8 << 20);
        pim.tasklets_per_dpu = tasklets;
        let config = ImPirConfig {
            pim,
            clusters: 1,
            eval_threads: 1,
        };
        let mut server = ImPirServer::new(db.clone(), config).expect("server");
        let (_, phases) = server.process_query(&share).expect("query");
        series.push(DataPoint::new(
            format!("{tasklets} tasklets"),
            tasklets as f64,
            phases.dpxor.simulated_seconds.unwrap_or_default() * 1e3,
        ));
    }
    report.push_series(series);
    report.push_note(
        "kernel time comes from the UPMEM cost model: pipeline-bound below ~11 tasklets, \
         MRAM-bandwidth-bound above",
    );
    report.emit();
}
