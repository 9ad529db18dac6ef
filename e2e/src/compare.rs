//! Sets of runs: `suite` makes one (every gated workload, or the one named
//! with `--workload`, under several seeds, each run in a fresh child process
//! so set-up time and peak memory are per run), `compare` holds two against
//! the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

use crate::json::{quote, Json};
use crate::spec::{self, end_to_end_bounds, Bound};
use crate::stats::{median, spread};

/// workload → metric → one value per run.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn run_child(workload: &str, seed: u64, seconds: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", seconds, "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    Json::parse(stdout.lines().last().unwrap_or_default())
}

pub fn suite(flags: &BTreeMap<&str, &str>) -> ExitCode {
    let seeds: u64 = flags
        .get("seeds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let seconds = flags.get("seconds").copied().unwrap_or("10");
    let Some(out) = flags.get("out") else {
        eprintln!("error: suite needs --out FILE");
        return ExitCode::from(2);
    };
    let workloads = match flags.get("workload") {
        Some(name) => spec::workload(name)
            .map(|w| vec![w])
            .ok_or(format!("unknown workload `{name}`")),
        None => spec::gated(),
    };
    let workloads = match workloads {
        Ok(workloads) => workloads,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    let mut runs = Vec::new();
    let mut failures = 0.0;
    // Seeds outermost: slow drift of the machine lands on every workload.
    for seed in 1..=seeds {
        for workload in &workloads {
            match run_child(workload.name, seed, seconds) {
                Ok(result) => {
                    failures += result.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
                    let metrics: Vec<String> = result
                        .get("metrics")
                        .and_then(Json::as_object)
                        .into_iter()
                        .flatten()
                        .filter_map(|(name, m)| {
                            Some(format!("{}: {}", quote(name), m.get("value")?.as_f64()?))
                        })
                        .collect();
                    eprintln!("{} seed {seed}: {}", workload.name, metrics.join(", "));
                    runs.push(format!(
                        "  {{\"workload\": {}, \"seed\": {seed}, \"metrics\": {{{}}}}}",
                        quote(workload.name),
                        metrics.join(", ")
                    ));
                }
                Err(err) => {
                    eprintln!("error: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let body = format!(
        "{{\"seconds\": {seconds}, \"runs\": [\n{}\n]}}\n",
        runs.join(",\n")
    );
    if let Err(err) = std::fs::write(out, body) {
        eprintln!("error: writing {out}: {err}");
        return ExitCode::FAILURE;
    }
    match load(out.as_ref()).and_then(|set| Ok((set, end_to_end_bounds()?))) {
        Ok((set, bounds)) => {
            println!("workload metric median unit spread bound/3 n");
            for (workload, metrics) in &set {
                for bound in &bounds {
                    let values = metrics.get(&bound.name).map_or(&[][..], Vec::as_slice);
                    let (s, limit) = (spread(values), bound.bound / 3.0);
                    let steady = if s <= limit { "steady" } else { "NOISY" };
                    println!(
                        "{workload} {} {:.6} {} {s:.4} {limit:.4} n={} {steady}",
                        bound.name,
                        median(values),
                        bound.unit,
                        values.len()
                    );
                }
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    }
    if failures > 0.0 {
        eprintln!("error: {failures} operation(s) failed across the suite");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn load(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = RunSet::new();
    for run in doc.get("runs").ok_or("no `runs` list")?.as_array() {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("run without metrics")?;
        for (name, value) in metrics {
            set.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value.as_f64().ok_or("metric value is not a number")?);
        }
    }
    Ok(set)
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// `b` against `a` for one metric: `worse` when b's median is worse than
/// a's by more than the bound; `unresolved` when a's own run-to-run spread
/// is wider than the bound, unless every run of b reads better than every
/// run of a; otherwise `ok`. Also returns the share by which b is worse.
pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let sign = if bound.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let all_better = a.iter().all(|x| b.iter().all(|y| sign * (y - x) < 0.0));
    let verdict = if worse_by > bound.bound {
        Verdict::Worse
    } else if spread(a) > bound.bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let loaded = (|| Ok::<_, String>((load(a)?, load(b)?, end_to_end_bounds()?)))();
    let (set_a, set_b, bounds) = match loaded {
        Ok(loaded) => loaded,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    let mut any_worse = false;
    println!("workload metric median_a median_b unit worse_by bound verdict");
    for (workload, metrics_a) in &set_a {
        for bound in &bounds {
            let values_a = metrics_a.get(&bound.name).map_or(&[][..], Vec::as_slice);
            let values_b = set_b
                .get(workload)
                .and_then(|m| m.get(&bound.name))
                .map_or(&[][..], Vec::as_slice);
            if values_a.is_empty() || values_b.is_empty() {
                println!(
                    "{workload} {} missing from one side: unresolved",
                    bound.name
                );
                continue;
            }
            let (verdict, worse_by) = judge(bound, values_a, values_b);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{workload} {} {:.6} {:.6} {} {:+.2}% {:.0}% {}",
                bound.name,
                median(values_a),
                median(values_b),
                bound.unit,
                worse_by * 100.0,
                bound.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher_is_better: bool) -> Bound {
        Bound {
            name: "m".to_string(),
            unit: "ms".to_string(),
            higher_is_better,
            bound: 0.05,
        }
    }

    #[test]
    fn judge_applies_the_bound_in_the_metrics_direction() {
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        // Latency up 10 %: worse. Throughput up 10 %: fine.
        let up: Vec<f64> = steady.iter().map(|v| v * 1.10).collect();
        assert_eq!(judge(&bound(false), &steady, &up).0, Verdict::Worse);
        assert_eq!(judge(&bound(true), &steady, &up).0, Verdict::Ok);
        // Within the bound either way round.
        let near: Vec<f64> = steady.iter().map(|v| v * 1.02).collect();
        assert_eq!(judge(&bound(false), &steady, &near).0, Verdict::Ok);
        assert_eq!(judge(&bound(false), &near, &steady).0, Verdict::Ok);
    }

    #[test]
    fn judge_reports_noise_wider_than_the_bound_as_unresolved() {
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(&bound(false), &noisy, &noisy).0, Verdict::Unresolved);
        // …unless every run of b beats every run of a.
        let clear = [50.0, 60.0, 55.0];
        assert_eq!(judge(&bound(false), &noisy, &clear).0, Verdict::Ok);
    }
}
