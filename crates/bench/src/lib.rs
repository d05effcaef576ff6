//! Shared utilities for the experiment binaries (`src/bin/*`).
//!
//! Every table and figure of the paper's evaluation — and the quantitative
//! study its conclusion proposes — is regenerated by one binary here:
//! `fig1`–`fig3` render the paper's traces, and the `exp_*` binaries run
//! the classification matrix, scaling sweeps, expected-time studies, and
//! the engine-throughput benchmark (`exp_explore`, which writes
//! `BENCH_explore.json`; schema documented in ROADMAP.md). Everything
//! prints GitHub-flavoured markdown via [`Table`] so outputs paste
//! directly into reports.

use std::fmt::Write as _;

/// A minimal markdown table builder for experiment output.
///
/// ```
/// use stab_bench::Table;
/// let mut t = Table::new(vec!["N", "m_N"]);
/// t.row(vec!["6".into(), "4".into()]);
/// let md = t.to_markdown();
/// assert!(md.contains("| N | m_N |"));
/// assert!(md.contains("| 6 | 4 |"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Table {
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Least-squares slope of `log(y)` against `log(x)` — the growth exponent
/// reported by the scaling experiments (`y ≈ c·x^slope`).
///
/// # Panics
///
/// Panics on fewer than two points or non-positive values.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(x > 0.0 && y > 0.0, "log-log fit needs positive data");
            (x.ln(), y.ln())
        })
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Formats a float with three significant decimals for table cells.
pub fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats `mean ± ci` for table cells.
pub fn fmt_ci(mean: f64, ci: f64) -> String {
    format!("{mean:.2} ± {ci:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["3".into(), "4".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a | b |\n|---|---|\n"));
        assert!(md.contains("| 3 | 4 |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn slope_recovers_power_law() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|i| (i as f64, 3.0 * (i as f64).powi(2)))
            .collect();
        let s = log_log_slope(&pts);
        assert!((s - 2.0).abs() < 1e-9, "slope {s}");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt3(1.23456), "1.235");
        assert_eq!(fmt_ci(10.5, 0.25), "10.50 ± 0.25");
    }
}
