//! Report data structures and rendering for the figure harness.

use std::fs;
use std::path::{Path, PathBuf};

/// One point of one series (one bar or one marker of a paper figure).
#[derive(Debug, Clone, PartialEq)]
pub struct DataPoint {
    /// Label of the x position (e.g. `1 GB`, `batch=32`).
    pub x_label: String,
    /// Numeric x value (bytes, batch size, cluster count, …).
    pub x_value: f64,
    /// The y value in `Series::unit`.
    pub value: f64,
}

impl DataPoint {
    /// Creates a data point.
    #[must_use]
    pub fn new(x_label: impl Into<String>, x_value: f64, value: f64) -> Self {
        DataPoint {
            x_label: x_label.into(),
            x_value,
            value,
        }
    }
}

/// One series of a figure (one line/bar group, e.g. `IM-PIR measured`).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name shown in the legend.
    pub name: String,
    /// Unit of the y values (e.g. `QPS`, `seconds`, `%`).
    pub unit: String,
    /// The series' points, in x order.
    pub points: Vec<DataPoint>,
}

impl Series {
    /// Creates an empty series.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            unit: unit.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, point: DataPoint) {
        self.points.push(point);
    }
}

/// A full report for one paper figure or table.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureReport {
    /// Stable identifier (`fig9a`, `table1`, …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// What the paper reports for this experiment (for side-by-side
    /// comparison in `EXPERIMENTS.md`).
    pub paper_expectation: String,
    /// The series of the figure.
    pub series: Vec<Series>,
    /// Free-form notes (caveats, configuration).
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        paper_expectation: impl Into<String>,
    ) -> Self {
        FigureReport {
            id: id.into(),
            title: title.into(),
            paper_expectation: paper_expectation.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Adds a note.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the report as an aligned text table.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!("paper: {}\n", self.paper_expectation));
        for series in &self.series {
            out.push_str(&format!("\n-- {} [{}] --\n", series.name, series.unit));
            for point in &series.points {
                out.push_str(&format!("  {:>14}  {:>14.6}\n", point.x_label, point.value));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// The default output directory for JSON reports.
    #[must_use]
    pub fn default_output_dir() -> PathBuf {
        PathBuf::from("target").join("impir-results")
    }

    /// Renders the report as pretty-printed JSON.
    ///
    /// (Hand-rolled: the report structure is small and fixed, and the
    /// offline build has no JSON crate.)
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_string(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_string(&self.title)));
        out.push_str(&format!(
            "  \"paper_expectation\": {},\n",
            json_string(&self.paper_expectation)
        ));
        out.push_str("  \"series\": [\n");
        for (s, series) in self.series.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_string(&series.name)));
            out.push_str(&format!("      \"unit\": {},\n", json_string(&series.unit)));
            out.push_str("      \"points\": [\n");
            for (p, point) in series.points.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"x_label\": {}, \"x_value\": {}, \"value\": {}}}{}\n",
                    json_string(&point.x_label),
                    json_number(point.x_value),
                    json_number(point.value),
                    if p + 1 < series.points.len() { "," } else { "" }
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!(
                "    }}{}\n",
                if s + 1 < self.series.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"notes\": [");
        for (n, note) in self.notes.iter().enumerate() {
            if n > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(note));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Writes the report as pretty-printed JSON under `dir`, returning the
    /// file path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Prints the table to stdout and writes the JSON report to the default
    /// directory (best effort — printing never fails the run).
    pub fn emit(&self) {
        println!("{}", self.to_table());
        match self.write_json(&Self::default_output_dir()) {
            Ok(path) => println!("[report written to {}]\n", path.display()),
            Err(err) => eprintln!("[warning: could not write report: {err}]"),
        }
    }
}

/// Escapes `value` as a JSON string literal.
fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `value` as a JSON number (JSON has no NaN/Infinity; those become
/// `null`).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> FigureReport {
        let mut report = FigureReport::new("figX", "Example", "grows linearly");
        let mut series = Series::new("IM-PIR", "QPS");
        series.push(DataPoint::new("1 GB", 1e9, 100.0));
        series.push(DataPoint::new("2 GB", 2e9, 55.0));
        report.push_series(series);
        report.push_note("measured on the simulator");
        report
    }

    #[test]
    fn table_contains_all_points_and_notes() {
        let table = sample_report().to_table();
        assert!(table.contains("figX"));
        assert!(table.contains("1 GB"));
        assert!(table.contains("55.0"));
        assert!(table.contains("measured on the simulator"));
    }

    #[test]
    fn json_contains_every_field_and_escapes_strings() {
        let mut report = sample_report();
        report.push_note("quote \" and backslash \\ and\nnewline");
        let json = report.to_json();
        assert!(json.contains("\"id\": \"figX\""));
        assert!(json.contains("\"name\": \"IM-PIR\""));
        assert!(json.contains("\"x_label\": \"1 GB\""));
        assert!(json.contains("\"value\": 55"));
        assert!(json.contains("quote \\\" and backslash \\\\ and\\nnewline"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "braces balance"
        );
    }

    #[test]
    fn write_json_creates_a_file() {
        let dir = std::env::temp_dir().join(format!("impir-report-test-{}", std::process::id()));
        let path = sample_report().write_json(&dir).unwrap();
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
