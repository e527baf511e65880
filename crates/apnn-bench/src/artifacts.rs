//! The file writer every committed artifact goes through.
//!
//! The printed `repro` tables are for humans; the `BENCH_*.json` files are
//! for the *trajectory* — each is regenerated by its `repro` subcommand
//! and committed, so the numbers can be compared across the repository's
//! history instead of living only in terminal scrollback. Each file's
//! format is its [`crate::schema`] spec: [`write_artifact`] renders rows
//! through it, and the `bench-trajectory` CI job validates fresh and
//! committed copies against the same spec. CPU throughput is not one of
//! these artifacts: `bench/` times the engines and gates them on speed.

use std::path::PathBuf;

use crate::schema::{self, Row, Spec};

/// Render `rows` through `spec` into its artifact file, in the working
/// directory (or under `BENCH_DIR` when set). Returns the path written.
pub fn write_artifact(spec: &Spec, rows: &[Row]) -> std::io::Result<PathBuf> {
    let dir = std::env::var_os("BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let path = dir.join(spec.file());
    std::fs::write(&path, schema::render(spec, rows))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_json_round_trips_points() {
        use crate::serve_load::LoadPoint;
        let point = |tenant: &str, throughput_rps, worker_restarts| LoadPoint {
            model: "AlexNet-Tiny".into(),
            scheme: "APNN-w1a2".into(),
            tenant: tenant.into(),
            burst: 25,
            pool: 4,
            mean_fill: 3.25,
            p50_ticks: 2,
            p99_ticks: 9,
            offered_rps: 910.0,
            throughput_rps,
            shed_rate: 0.4375,
            expired: 12,
            poisoned: 2,
            worker_restarts,
            rollbacks: 1,
            client_retries: 3,
            version: 1,
        };
        let rows = [
            point("baseline", 456.78, 0).row(),
            point("faulted", 400.0, 1).row(),
        ];
        let json = schema::render(&schema::SERVE, &rows);
        assert!(json.contains("\"tenant\": \"faulted\", \"burst\": 25, \"pool\": 4"));
        assert!(json.contains("\"mean_fill\": 3.250"));
        assert!(json.contains("\"offered_rps\": 910.0"));
        assert!(json.contains("\"throughput_rps\": 456.8"));
        assert!(json.contains("\"shed_rate\": 0.4375"));
        assert!(json.contains("\"worker_restarts\": 1"));
        assert!(json.contains("\"client_retries\": 3, \"version\": 1}"));
        assert!(!json.contains("\"mode\"") && !json.contains("\"threads\""));
        let parsed = schema::parse_rows(&json).unwrap();
        assert_eq!(parsed[1], rows[1]);
        let keys = schema::validate(&schema::SERVE, &parsed).unwrap();
        assert_eq!(keys[0], ["AlexNet-Tiny", "APNN-w1a2", "baseline", "25"]);
    }
}
