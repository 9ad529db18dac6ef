//! `e2e` — the repository's benchmark: five named workloads (four of them
//! gated by `/BENCHMARK.json`), measured end to end and layer by layer from
//! outside the system (see `README.md` beside this package).
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! e2e suite --out FILE [--seeds K] [--seconds S] [--workload NAME]
//!                                                        K seeds of every gated workload (or of NAME), each run in a child process
//! e2e compare A.json B.json                              two suite files against the bounds; exit 1 on `worse`
//! ```

#![forbid(unsafe_code)]

mod compare;
mod deploy;
mod drive;
mod json;
mod layers;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use impir_core::PirError;

use crate::deploy::{proc_status, Deployment, Seeded};
use crate::drive::{phase_list, Driver, RunStats, Window};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, median, percentile, sorted};
use crate::trace::ledger_ms;

/// An untraced run measures on its first set-up, then sets up again — at
/// least `MIN_SETUPS` times in all, and up to `MAX_SETUPS` until
/// `SETUP_BUDGET` is spent — so that a set-up of a few milliseconds is
/// sampled often enough for a steady median. `setup_s` is the median of them
/// all. The repeats come after the window and after peak memory is read, so
/// they disturb neither.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// What one run reports: the contract's result line.
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Name, value, unit, and the sample count behind the value.
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
}

impl RunReport {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json::quote(name),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Builds the deployment and its connected, warmed-up client side: what
/// `setup_s` times.
fn set_up(
    workload: &Workload,
    seed: u64,
    traced: bool,
) -> Result<(Deployment, Driver, Seeded), PirError> {
    // The generator restarts with every set-up, so the measured window's
    // inputs depend on the seed alone.
    let mut rng = Seeded::new(seed);
    let mut deployment = Deployment::start(workload)?;
    match Driver::connect(&mut deployment, workload.shape, seed, &mut rng, traced) {
        Ok(driver) => Ok((deployment, driver, rng)),
        Err(err) => {
            deployment.shutdown();
            Err(err)
        }
    }
}

fn queries_per_s(stats: &RunStats) -> f64 {
    stats.verified_records as f64 / stats.elapsed_s
}

/// The untraced run: the end-to-end metrics.
fn run_end_to_end(workload: &Workload, seed: u64, window: Window) -> Result<RunReport, PirError> {
    let started = Instant::now();
    let (mut deployment, mut driver, mut rng) = set_up(workload, seed, false)?;
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    let outcome = driver
        .run(
            &mut deployment.oracle,
            &mut rng,
            Window::Ops(workload.settle_ops),
        )
        .and_then(|_| driver.run(&mut deployment.oracle, &mut rng, window));
    let peak_rss_mib = proc_status("VmHWM") / 1024.0;
    driver.close();
    deployment.shutdown();
    let stats = outcome?;

    let repeats_started = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && repeats_started.elapsed() < SETUP_BUDGET)
    {
        let started = Instant::now();
        let (deployment, driver, _) = set_up(workload, seed, false)?;
        setup_s.push(started.elapsed().as_secs_f64());
        driver.close();
        deployment.shutdown();
    }

    let query_ms = sorted(stats.query_ms.clone());
    if highest_supported_percentile(query_ms.len()).is_none_or(|p| p < workload.tail) {
        eprintln!(
            "note: {} latency samples leave fewer than {} beyond p{:.0}",
            query_ms.len(),
            stats::MIN_SAMPLES_BEYOND,
            workload.tail * 100.0
        );
    }
    let values = [
        (median(&setup_s), setup_s.len()),
        (queries_per_s(&stats), stats.verified_records as usize),
        (percentile(&query_ms, 0.50), query_ms.len()),
        (percentile(&query_ms, workload.tail), query_ms.len()),
        (
            stats.query_wire_bytes as f64 / (stats.leg_queries as f64 / 2.0).max(1.0),
            stats.leg_queries as usize / 2,
        ),
        (peak_rss_mib, 1),
    ];
    Ok(RunReport {
        correct: stats.wrong == 0,
        attempted: stats.attempted,
        failed: stats.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, n))| (name, value, unit, n))
            .collect(),
    })
}

fn results_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("impir-results").join("e2e")
}

/// The traced run: half the window replays the workload with spans, a
/// quarter runs it untraced on the same deployment (the tracing overhead and
/// the product path's update latency), and the probes of `layers` take the
/// rest.
fn run_per_layer(workload: &Workload, seed: u64, window: Window) -> Result<RunReport, PirError> {
    let (traced_window, plain_window) = match window {
        Window::Time(length) => (Window::Time(length / 2), Window::Time(length / 4)),
        Window::Ops(ops) => (Window::Ops(ops / 2), Window::Ops(ops / 2)),
    };
    let (mut deployment, mut driver, mut rng) = set_up(workload, seed, true)?;
    let traced = driver
        .run(
            &mut deployment.oracle,
            &mut rng,
            Window::Ops(workload.settle_ops),
        )
        .and_then(|_| {
            driver.reset_trace();
            driver.run(&mut deployment.oracle, &mut rng, traced_window)
        });
    let tracer = driver.close();
    let plain = traced.and_then(|traced| {
        let mut plain_driver =
            Driver::connect(&mut deployment, workload.shape, seed, &mut rng, false)?;
        // Local replicas are rebuilt by this connect, so they settle again.
        let plain = plain_driver
            .run(
                &mut deployment.oracle,
                &mut rng,
                Window::Ops(workload.settle_ops),
            )
            .and_then(|_| plain_driver.run(&mut deployment.oracle, &mut rng, plain_window));
        plain_driver.close();
        let probes = layers::probe(&deployment, workload.shape, seed)?;
        Ok((traced, plain?, probes))
    });
    deployment.shutdown();
    let (traced, plain, mut values) = plain?;
    let tracer = tracer.expect("a traced driver hands back its spans");

    let trace_path = results_dir().join(format!("{}.trace.jsonl", workload.name));
    if let Err(err) = tracer.write_jsonl(&trace_path) {
        eprintln!("warning: could not write {}: {err}", trace_path.display());
    }

    let per_query = 1.0 / (traced.leg_queries as f64).max(1.0);
    let per_batch = 1.0 / (traced.leg_batches as f64).max(1.0);
    values.insert("client.keygen_us", median(&traced.keygen_us));
    values.insert("client.reconstruct_us", median(&traced.reconstruct_us));
    values.insert(
        "transport.roundtrip_ms",
        traced.roundtrip_s * per_batch * 1e3,
    );
    values.insert(
        "transport.wait_ms",
        (traced.roundtrip_s - traced.server_wall_s) * per_batch * 1e3,
    );
    values.insert("server.shed_count", (traced.shed + plain.shed) as f64);
    values.insert("server.peak_threads", traced.peak_threads);
    const BACKEND: [(&str, &str); 5] = [
        ("backend.eval_ms", ""),
        ("backend.copy_to_pim_ms", "pim.copy_to_modelled_us"),
        ("backend.dpxor_ms", "pim.dpxor_modelled_us"),
        ("backend.copy_from_pim_ms", "pim.copy_from_modelled_us"),
        ("backend.aggregate_ms", ""),
    ];
    for ((_, phase), (wall_name, modelled_name)) in
        phase_list(&traced.phases).into_iter().zip(BACKEND)
    {
        values.insert(wall_name, phase.wall_seconds * per_query * 1e3);
        if let Some(modelled) = phase.simulated_seconds {
            values.insert(modelled_name, modelled * per_query * 1e6);
        }
    }
    values.insert(
        "pim.modelled_ms_per_query",
        traced.phases.total_hybrid_seconds() * per_query * 1e3,
    );
    let update_ms = sorted(plain.update_ms.clone());
    values.insert("update.p50_ms", percentile(&update_ms, 0.50));
    values.insert("update.p90_ms", percentile(&update_ms, 0.90));
    values.insert(
        "update.bytes_per_record",
        plain.update_wire_bytes as f64 / (plain.updated_records as f64).max(1.0),
    );

    let (ledger, op_ms) = ledger_ms(tracer.spans(), "query");
    let share = |name: &str| {
        100.0 * ledger.get(name).copied().unwrap_or(0.0) / op_ms.max(f64::MIN_POSITIVE)
    };
    values.insert("ledger.eval_share_pct", share("eval"));
    values.insert("ledger.dpxor_share_pct", share("dpxor"));
    values.insert("ledger.transport_share_pct", share("transport"));
    values.insert("ledger.server_overhead_share_pct", share("server"));
    values.insert("harness.ledger_residual_pct", share("query"));
    values.insert(
        "harness.trace_overhead_pct",
        100.0 * (1.0 - queries_per_s(&traced) / queries_per_s(&plain)),
    );
    eprintln!(
        "ledger of {} (mean per query op, blocking path, {op_ms:.4} ms):",
        workload.name
    );
    for (name, ms) in &ledger {
        eprintln!("  {name:<14} {ms:>9.4} ms  {:>5.1} %", share(name));
    }

    let samples = traced.query_ms.len();
    Ok(RunReport {
        correct: traced.wrong + plain.wrong == 0,
        attempted: traced.attempted + plain.attempted,
        failed: traced.failed + plain.failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name,
                    values.get(name).copied().unwrap_or(0.0),
                    unit,
                    samples,
                )
            })
            .collect(),
    })
}

pub fn run(
    workload: &Workload,
    seed: u64,
    window: Window,
    traced: bool,
) -> Result<RunReport, PirError> {
    if traced {
        run_per_layer(workload, seed, window)
    } else {
        run_end_to_end(workload, seed, window)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e --workload NAME --seed N --seconds S --trace 0|1\n       \
         e2e suite --out FILE [--seeds K] [--seconds S] [--workload NAME]\n       \
         e2e compare A.json B.json\nworkloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

/// `--key value` pairs; anything else is a usage error.
fn flags(args: &[String]) -> Option<BTreeMap<&str, &str>> {
    let mut out = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => out.insert(&key[2..], value.as_str()),
            _ => return None,
        };
    }
    Some(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => usage(),
        },
        Some("suite") => match flags(&args[1..]) {
            Some(flags) => compare::suite(&flags),
            None => usage(),
        },
        _ => {
            let Some(flags) = flags(&args) else {
                return usage();
            };
            let parsed = (|| {
                let workload = spec::workload(flags.get("workload")?)?;
                let seed: u64 = flags.get("seed")?.parse().ok()?;
                let seconds: u64 = flags.get("seconds")?.parse().ok()?;
                let traced = match *flags.get("trace")? {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                };
                (flags.len() == 4 && seconds >= 1).then_some((workload, seed, seconds, traced))
            })();
            let Some((workload, seed, seconds, traced)) = parsed else {
                return usage();
            };
            match run(
                workload,
                seed,
                Window::Time(Duration::from_secs(seconds)),
                traced,
            ) {
                Ok(report) => {
                    for (name, value, unit, n) in &report.metrics {
                        println!("{} {name} {value:.6} {unit} n={n}", workload.name);
                    }
                    println!("{}", report.to_json());
                    if report.correct {
                        ExitCode::SUCCESS
                    } else {
                        eprintln!("error: a reconstructed record differed from the oracle");
                        ExitCode::FAILURE
                    }
                }
                Err(err) => {
                    eprintln!("error: {err}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload completes a 50-op miniature, untraced and traced,
    /// with nothing failed and every metric of its list reported.
    #[test]
    fn every_workload_completes_a_miniature_without_failures() {
        for workload in &spec::WORKLOADS {
            for traced in [false, true] {
                let report = run(workload, 7, Window::Ops(50), traced)
                    .unwrap_or_else(|err| panic!("{} (traced: {traced}): {err}", workload.name));
                assert!(report.correct, "{}", workload.name);
                assert_eq!(report.failed, 0, "{}", workload.name);
                assert!(report.attempted >= 50, "{}", workload.name);
                let expected = if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(report.metrics.len(), expected);
                if !traced {
                    assert!(
                        report.metrics.iter().all(|(_, value, _, _)| *value > 0.0),
                        "{}: an end-to-end metric read 0",
                        workload.name
                    );
                }
                let line = json::Json::parse(&report.to_json()).expect("result line is JSON");
                assert_eq!(line.get("failed").and_then(json::Json::as_f64), Some(0.0));
            }
        }
    }
}
