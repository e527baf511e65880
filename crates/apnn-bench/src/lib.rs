#![warn(missing_docs)]

//! # apnn-bench
//!
//! Benchmark harness for the APNN-TC reproduction: workload definitions
//! matching the paper's evaluation section, table/series printers, and the
//! experiment drivers behind the `repro` binary (one subcommand per paper
//! table and figure) and the `zoo_conv_shapes` bench.

pub mod artifacts;
pub mod experiments;
pub mod gen;
pub mod kernels;
pub mod precision;
pub mod schema;
pub mod serve_load;
pub mod workloads;

use std::fmt::Write as _;

/// Render a labeled series table: one row per label, one column per x.
pub fn format_series(title: &str, xs: &[usize], rows: &[(String, Vec<f64>)], unit: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {title} ({unit})");
    let _ = write!(out, "{:<22}", "");
    for x in xs {
        let _ = write!(out, "{x:>9}");
    }
    let _ = writeln!(out);
    for (label, vals) in rows {
        let _ = write!(out, "{label:<22}");
        for v in vals {
            let _ = write!(out, "{v:>9.2}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Geometric mean (speedup summaries).
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return f64::NAN;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// Maximum of a slice.
pub fn max(vals: &[f64]) -> f64 {
    vals.iter().cloned().fold(f64::NAN, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn series_formatting_contains_rows() {
        let s = format_series(
            "t",
            &[128, 256],
            &[("APMM-w1a2".to_string(), vec![1.5, 2.0])],
            "speedup",
        );
        assert!(s.contains("APMM-w1a2"));
        assert!(s.contains("128"));
        assert!(s.contains("2.00"));
    }
}
