//! # polygamy-bench — experiment harnesses
//!
//! One module per table/figure of the paper's evaluation (Section 6 and
//! appendices). Every harness prints the paper's reported numbers next to
//! our measured values so EXPERIMENTS.md can record paper-vs-measured for
//! each artefact. One binary drives them: `run_all` regenerates the whole
//! set, `run_all <name>…` (e.g. `run_all fig09_query_rate`) runs just the
//! named harnesses.
//!
//! Absolute wall-clock numbers differ from the paper's 20-node Hadoop
//! cluster by design; the harnesses reproduce *shapes*: linear index
//! scaling, constant relationship-evaluation rate, speedup curves, pruning
//! ratios, robustness plateaus and baseline blind spots.

#![forbid(unsafe_code)]

pub mod experiments;

use std::fmt::Write as _;
use std::time::Instant;

/// True when quick mode is requested (`--quick` argument or
/// `POLYGAMY_QUICK=1`); harnesses shrink workloads accordingly.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var_os("POLYGAMY_QUICK").is_some()
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// A minimal fixed-width table printer for harness reports.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..ncols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "| {:<w$} ", cell, w = widths[c]);
            }
            out.push_str("|\n");
        };
        line(&mut out, &self.header);
        for (c, w) in widths.iter().enumerate() {
            let _ = write!(out, "|{:-<w$}", "", w = w + 2);
            if c == ncols - 1 {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Formats a float with fixed precision, rendering NaN as `-`.
pub fn fnum(v: f64, digits: usize) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.digits$}")
    }
}

/// Formats bytes human-readably.
pub fn human_bytes(b: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.1} {}", UNITS[u])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("| alpha | 1     |"));
        assert!(s.contains("| b     | 12345 |"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn helpers() {
        assert_eq!(fnum(f64::NAN, 2), "-");
        assert_eq!(fnum(1.234, 2), "1.23");
        assert_eq!(human_bytes(10), "10.0 B");
        assert_eq!(human_bytes(2048), "2.0 KB");
        let (v, secs) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
