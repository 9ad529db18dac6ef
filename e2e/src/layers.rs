//! Single-layer probes of the traced run: each times calls into one
//! module's public functions at the workload's own sizes, and three of them
//! are ceilings — AES blocks/s, read bandwidth, loopback round trip — that
//! turn the numbers they bound into ratios.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use impir_core::dpxor::xor_select_into;
use impir_core::scheme::TwoServerPir;
use impir_core::transport::TcpTransport;
use impir_core::wire::{encode_query_batch, Frame};
use impir_core::PirError;
use impir_crypto::prg::LengthDoublingPrg;
use impir_crypto::Block;
use impir_dpf::eval::{eval_full, eval_full_prg_expansions};
use impir_dpf::SelectorVector;
use impir_server::router::PirRouter;

use crate::deploy::{Deployment, Seeded};
use crate::spec::{Shape, UpdateCycle};
use crate::stats::{median, percentile, sorted};

/// Time each probe may spend repeating its call.
const PROBE_BUDGET: Duration = Duration::from_millis(150);
const MIN_SAMPLES: usize = 5;
/// Shortest interval worth timing: a call faster than this is repeated
/// inside one sample, so the clock's own cost (two reads, ≈50 ns) stays
/// below a percent of what it measures.
const MIN_SAMPLE: Duration = Duration::from_micros(20);

/// Median seconds per call of `call`, sampled for [`PROBE_BUDGET`].
fn time_median(mut call: impl FnMut()) -> f64 {
    let started = Instant::now();
    call();
    let first = started.elapsed().max(Duration::from_nanos(1));
    let calls_per_sample = (MIN_SAMPLE.as_nanos() / first.as_nanos()).clamp(1, 4096) as u32;
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || started.elapsed() < PROBE_BUDGET {
        let at = Instant::now();
        for _ in 0..calls_per_sample {
            call();
        }
        samples.push(at.elapsed().as_secs_f64() / f64::from(calls_per_sample));
    }
    median(&samples)
}

fn io_error(what: &str, err: std::io::Error) -> PirError {
    PirError::Protocol {
        reason: format!("{what}: {err}"),
    }
}

/// Round trip of one byte over a raw loopback TCP connection with
/// `TCP_NODELAY`: what any request/reply over the loopback device costs
/// before the protocol adds anything.
fn loopback_rtt_us() -> Result<f64, PirError> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io_error("binding echo", e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| io_error("echo address", e))?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let mut byte = [0u8; 1];
        while peer.read(&mut byte)? == 1 {
            peer.write_all(&byte)?;
        }
        Ok(())
    });
    let rtt = (|| -> std::io::Result<f64> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut byte = [7u8; 1];
        let seconds = time_median(|| {
            let ok = stream.write_all(&byte).is_ok() && stream.read_exact(&mut byte).is_ok();
            assert!(ok, "loopback echo failed");
        });
        Ok(seconds * 1e6)
    })();
    // The client stream is dropped by now, which ends the echo loop.
    let echoed = echo.join().expect("echo thread panicked");
    echoed.map_err(|e| io_error("echo server", e))?;
    rtt.map_err(|e| io_error("echo client", e))
}

/// XOR-folds every byte of `bytes` as 64-bit words: a read of the whole
/// buffer with almost no arithmetic, the ceiling for a scan of it.
fn read_all(bytes: &[u8]) -> u64 {
    let mut lanes = [0u64; 8];
    for line in bytes.chunks_exact(64) {
        for (lane, word) in lanes.iter_mut().zip(line.chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        }
    }
    lanes.iter().fold(0, |acc, lane| acc ^ lane)
}

/// Median latency of `ops` single-index queries through `scheme`, in ms.
fn query_p50_ms(scheme: &mut TwoServerPir, rng: &mut Seeded, ops: usize) -> Result<f64, PirError> {
    let records = scheme.client().num_records();
    let mut samples = Vec::with_capacity(ops);
    for _ in 0..ops {
        let index = rng.below(records);
        let at = Instant::now();
        black_box(scheme.query(index)?);
        samples.push(at.elapsed().as_secs_f64() * 1e3);
    }
    Ok(percentile(&sorted(samples), 0.5))
}

/// Runs every probe that applies to the deployment and returns the
/// per-layer metrics they yield, by name.
pub fn probe(
    deployment: &Deployment,
    shape: Shape,
    seed: u64,
) -> Result<BTreeMap<&'static str, f64>, PirError> {
    let mut out = BTreeMap::new();
    let mut rng = Seeded::new(seed ^ 0x6c61_7965_7273);
    let topology = &deployment.topology;
    let oracle = &deployment.oracle;
    let batch = match shape {
        Shape::Single { batch, .. } => batch,
        Shape::FanIn { .. } => 1,
    };

    // crypto: the AES ceiling, through the call `eval_full` expands with.
    let prg = LengthDoublingPrg::default();
    let seeds: Vec<Block> = (0..4096)
        .map(|_| Block::from_words(rng.next(), rng.next()))
        .collect();
    let (mut left, mut right) = (seeds.clone(), seeds.clone());
    let mut controls = vec![0u64; seeds.len().div_ceil(32)];
    let expand_s = time_median(|| {
        prg.expand_level_into(black_box(&seeds), &mut left, &mut right, &mut controls);
        black_box(&controls);
    });
    let prg_blocks_per_s = 2.0 * seeds.len() as f64 / expand_s;
    out.insert("crypto.prg_blocks_per_s", prg_blocks_per_s);

    // dpf: one full-domain evaluation at the workload's domain.
    let mut client = deployment.client(seed)?;
    let indices: Vec<u64> = (0..batch).map(|_| rng.below(topology.records)).collect();
    let (shares, _) = client.generate_batch(&indices)?;
    let key = &shares[0].key;
    let leaves = eval_full(key).len();
    let eval_s = time_median(|| {
        black_box(eval_full(black_box(key)));
    });
    out.insert("dpf.eval_full_ms", eval_s * 1e3);
    out.insert("dpf.leaves_per_s", leaves as f64 / eval_s);
    let eval_blocks = 2.0 * eval_full_prg_expansions(client.domain_bits()) as f64;
    out.insert(
        "dpf.prg_ceiling_ratio",
        eval_blocks / eval_s / prg_blocks_per_s,
    );

    // wire + transport, on a session of its own to replica 0.
    let mut leg = deployment.connect(0)?;
    let answered = leg.query_batch(&shares)?;
    out.insert("wire.request_bytes", answered.upload_bytes as f64);
    out.insert("wire.response_bytes", answered.download_bytes as f64);
    let encode_s = time_median(|| {
        black_box(encode_query_batch(black_box(&shares)).expect("shares encode"));
    });
    out.insert("wire.encode_query_us", encode_s * 1e6);
    let reply = Frame::ResponseBatch {
        epoch: answered.epoch,
        wall_seconds: answered.server_wall_seconds,
        phases: answered.phase_totals,
        responses: answered.responses,
    }
    .encode()?;
    let decode_s = time_median(|| {
        black_box(Frame::decode(black_box(&reply)).expect("reply decodes"));
    });
    out.insert("wire.decode_response_us", decode_s * 1e6);
    let info_s = time_median(|| {
        black_box(leg.server_info().expect("server info"));
    });
    out.insert("transport.info_rtt_us", info_s * 1e6);
    drop(leg);
    if deployment.is_tcp() {
        let loopback_us = loopback_rtt_us()?;
        out.insert("transport.loopback_rtt_us", loopback_us);
        out.insert(
            "transport.loopback_ceiling_ratio",
            loopback_us / (info_s * 1e6),
        );
    }

    // router: the same queries through a front-tier router, minus direct.
    if topology.router.is_some() {
        let router = PirRouter::bind(topology)?;
        let routed = (|| {
            let mut via_router = TwoServerPir::from_transports(
                deployment.client(seed)?,
                Box::new(TcpTransport::connect(router.addr())?),
                Box::new(TcpTransport::connect(router.addr())?),
            )?;
            let mut direct = deployment.scheme(seed)?;
            // Interleaved, so drift affects both sides alike.
            let mut routed_ms = Vec::new();
            let mut direct_ms = Vec::new();
            for _ in 0..4 {
                routed_ms.push(query_p50_ms(&mut via_router, &mut rng, 100)?);
                direct_ms.push(query_p50_ms(&mut direct, &mut rng, 100)?);
            }
            Ok::<f64, PirError>(median(&routed_ms) - median(&direct_ms))
        })();
        router.shutdown();
        out.insert("router.hop_ms", routed?);
    }

    // engine: a replica's engine called directly, one share per batch, so
    // its wall time minus its phases is the engine's own fixed cost.
    let mut engine = topology.build_engine(0)?;
    let single = &shares[..1];
    let mut overhead_s = Vec::new();
    let execute_s = time_median(|| {
        let outcome = engine
            .execute_batch(black_box(single))
            .expect("engine executes");
        overhead_s.push(outcome.wall_seconds - outcome.phase_totals.total_wall_seconds());
    });
    out.insert("engine.execute_batch_ms", execute_s * 1e3);
    out.insert("engine.overhead_ms", median(&overhead_s) * 1e3);
    if let Shape::Single {
        update: Some(UpdateCycle { records, .. }),
        ..
    } = shape
    {
        let apply_s = time_median(|| {
            let updates: Vec<(u64, Vec<u8>)> = (0..records)
                .map(|_| {
                    (
                        rng.below(topology.records),
                        rng.bytes(topology.record_bytes),
                    )
                })
                .collect();
            black_box(
                engine
                    .apply_updates(&updates)
                    .expect("engine applies updates"),
            );
        });
        out.insert("engine.apply_updates_ms", apply_s * 1e3);
    }
    drop(engine);

    // dpxor: the dispatched scan kernel over the workload's database at
    // selector density 0.5, against a plain read of the whole database.
    // The scan's rate counts the selected records only: the kernel may skip
    // the rest, so that is the traffic it must move.
    let selector =
        SelectorVector::from_bits((0..oracle.num_records()).map(|_| rng.next() & 1 == 1));
    let mut accumulator = vec![0u8; oracle.record_size()];
    let scan_s = time_median(|| {
        accumulator.fill(0);
        xor_select_into(
            oracle.as_bytes(),
            oracle.record_size(),
            &selector,
            &mut accumulator,
        );
        black_box(&accumulator);
    });
    let read_s = time_median(|| {
        black_box(read_all(black_box(oracle.as_bytes())));
    });
    let scan_gbps = (selector.count_ones() * oracle.record_size()) as f64 / 1e9 / scan_s;
    let read_gbps = oracle.size_bytes() as f64 / 1e9 / read_s;
    out.insert("dpxor.scan_ms", scan_s * 1e3);
    out.insert("dpxor.scan_gbps", scan_gbps);
    out.insert("dpxor.read_ceiling_gbps", read_gbps);
    out.insert("dpxor.roofline_ratio", scan_gbps / read_gbps);
    Ok(out)
}
