//! Source size per workspace crate — the number ROADMAP aim 2 tracks.
//!
//! For the root package and every `[workspace] members` entry of the root
//! `Cargo.toml`: total lines of `src/**/*.rs`, and non-test lines (the lines
//! before a file's first `#[cfg(test)]`; the whole file if it has none).
//! Results go to stdout and to `BENCH_loc.json` in the working directory.
//!
//! Run from the repository root with
//! `cargo run -p impir-bench --release --bin loc`.

use std::path::Path;

use impir_bench::report::{DataPoint, FigureReport, Series};

/// `(total, non-test)` lines of every `.rs` file under `dir`, recursively.
fn count_lines(dir: &Path) -> std::io::Result<(usize, usize)> {
    let (mut total, mut non_test) = (0, 0);
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            let (sub_total, sub_non_test) = count_lines(&path)?;
            total += sub_total;
            non_test += sub_non_test;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let source = std::fs::read_to_string(&path)?;
            let lines = source.lines().count();
            total += lines;
            non_test += source
                .lines()
                .position(|line| line.trim() == "#[cfg(test)]")
                .unwrap_or(lines);
        }
    }
    Ok((total, non_test))
}

/// The quoted entries of the root manifest's `members = [ … ]` list.
fn workspace_members(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|line| !line.trim_start().starts_with("members"))
        .skip(1)
        .take_while(|line| line.trim() != "]")
        .filter_map(|line| line.trim().trim_end_matches(',').strip_prefix('"'))
        .filter_map(|entry| entry.strip_suffix('"'))
        .map(str::to_string)
        .collect()
}

fn main() -> std::io::Result<()> {
    let manifest = std::fs::read_to_string("Cargo.toml")?;
    let mut crates = vec![".".to_string()];
    crates.extend(workspace_members(&manifest));

    let mut total_series = Series::new("src lines, tests included", "lines");
    let mut non_test_series = Series::new("src lines before the first #[cfg(test)]", "lines");
    for (index, name) in crates.iter().enumerate() {
        let (total, non_test) = count_lines(&Path::new(name).join("src"))?;
        total_series.push(DataPoint::new(name.clone(), index as f64, total as f64));
        non_test_series.push(DataPoint::new(name.clone(), index as f64, non_test as f64));
    }

    let mut report = FigureReport::new(
        "loc",
        "Source lines per workspace crate (src/**/*.rs)",
        "not a paper figure: ROADMAP aim 2 tracks line count per crate, and no PR grows \
         crates/core or crates/server non-test lines without a gate to show for it",
    );
    report.push_series(total_series);
    report.push_series(non_test_series);
    report.push_note("`.` is the root package; e2e/ is outside the workspace and not counted");
    report.emit();
    std::fs::write("BENCH_loc.json", report.to_json())?;
    println!("[line counts written to BENCH_loc.json]");
    Ok(())
}
