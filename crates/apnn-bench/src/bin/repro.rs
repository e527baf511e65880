//! `repro` — regenerate every table and figure of the APNN-TC paper on the
//! simulated Ampere substrate.
//!
//! ```text
//! repro <fig5|...|fig12|table1|...|table4|fusion-ablation|ablation-tiles|
//!        ablation-layout|ablation-batching|turing|serve|precision|all>
//! repro profile
//! repro check-bench <fresh_dir> <committed_dir>
//! ```
//!
//! `serve` and `precision` additionally write the machine-readable
//! `BENCH_serve.json` (the chaos A/B goodput-retention pair) and
//! `BENCH_precision.json` (the precision autotuner's front, a pure function
//! of the code) into the working directory, or `BENCH_DIR`; a failed write
//! exits 1. `check-bench` schema-validates freshly generated artifacts
//! against the committed copies (the `bench-trajectory` CI gate). `serve`
//! needs a `--features fault-inject` build, and `all` skips it without one.
//! `profile` runs every servable zoo plan at w1a2, w2a2 and w2a8 and prints
//! one table per plan: each main stage's measured wall time per image (the
//! engine's own stage timers, median and IQR over a fixed number of
//! batches) beside its `pair_words` and its simulated price. It writes no
//! artifact and is not part of `all`, whose output is byte-stable. CPU
//! throughput is gated by `bench/`, with a spread and a regression bound.
//!
//! Figures 5/7 run on the RTX 3090 preset, 6/8 on the A100 preset, matching
//! the paper's panels; everything else defaults to the RTX 3090 (the paper
//! reports "similar trends" on both GPUs and focuses on the 3090, §6.1.2).

use apnn_bench::schema::{self, Row, Spec};
use apnn_bench::{artifacts, experiments as exp, precision, profile};
use apnn_sim::GpuSpec;

/// Write `rows` as `spec`'s artifact; the line reporting where they went.
/// A failed write exits 1, so the step that lost the artifact fails.
fn write(spec: &Spec, rows: &[Row]) -> String {
    match artifacts::write_artifact(spec, rows) {
        Ok(path) => format!("wrote {}\n", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", spec.file());
            std::process::exit(1)
        }
    }
}

/// Run the chaos A/B pair — one closed-loop workload on a fault-free twin
/// and under injected faults — write `BENCH_serve.json`, return the table.
/// The artifact *is* that pair, so a build without `fault-inject` writes
/// nothing and exits non-zero.
fn serve() -> String {
    #[cfg(feature = "fault-inject")]
    {
        use apnn_bench::serve_load;
        let points = serve_load::chaos_sweep(960);
        let rows: Vec<Row> = points.iter().map(serve_load::LoadPoint::row).collect();
        serve_load::report(&points) + &write(&schema::SERVE, &rows)
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        eprintln!(
            "repro serve: BENCH_serve.json is the chaos A/B pair, which needs a \
             `--features fault-inject` build; nothing written"
        );
        std::process::exit(1)
    }
}

/// Run the precision autotuner for ResNet18-Tiny (per-segment `(w, a)`
/// search pricing each candidate by the plane-pair words one 8-image batch
/// streams through the popcount kernel, against the QAT accuracy
/// harness), write `BENCH_precision.json`, return the Pareto table. Both
/// axes are deterministic: every run writes the same bytes.
fn precision() -> String {
    let points = precision::precision_bench(8);
    let rows: Vec<Row> = points.iter().map(precision::PrecisionPoint::row).collect();
    precision::precision_report(&points) + &write(&schema::PRECISION, &rows)
}

/// Validate freshly generated bench artifacts against the committed ones
/// (the `bench-trajectory` CI gate): for every [`schema::SPECS`] entry both
/// copies parse and validate, and a keyed artifact's copies cover the same
/// identity keys. Exits non-zero with a diagnostic on the first violation.
fn check_bench(fresh_dir: &str, committed_dir: &str) -> Result<String, String> {
    let mut counts = Vec::new();
    for spec in schema::SPECS {
        let keys = |dir: &str| -> Result<Vec<schema::Key>, String> {
            let path = std::path::Path::new(dir).join(spec.file());
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            schema::parse_rows(&text)
                .and_then(|rows| schema::validate(spec, &rows))
                .map_err(|e| format!("{}: {e}", path.display()))
        };
        let (fresh, committed) = (keys(fresh_dir)?, keys(committed_dir)?);
        if spec.keyed {
            schema::same_keys(&fresh, &committed, &spec.file())?;
        }
        counts.push(format!("{}/{} {}", fresh.len(), committed.len(), spec.name));
    }
    Ok(format!(
        "bench artifacts OK: fresh/committed rows {}; keyed sweep points match the \
         committed trajectory\n",
        counts.join(", ")
    ))
}

fn table1() -> String {
    use apnn_quant::data::SyntheticDataset;
    use apnn_quant::train::table1_experiment;
    let data = SyntheticDataset::generate(10, 96, 200, 100, 1.0, 2021);
    // Narrow-and-deep minis: the regime where activation resolution is the
    // bottleneck (tuned in examples/train_quantized.rs).
    let archs: &[(&str, Vec<usize>)] = &[
        ("AlexNet-mini", vec![64, 32]),
        ("VGG-mini", vec![48, 24]),
        ("ResNet-mini", vec![32, 32]),
    ];
    // Paper's ImageNet accuracies for reference.
    let paper = [(46.1, 55.7, 57.0), (53.4, 68.8, 69.8), (51.2, 62.6, 69.6)];
    let mut out = String::from(
        "## Table1 accuracy on the synthetic dataset (substitution for ImageNet, see DESIGN.md)\n",
    );
    out.push_str(&format!(
        "{:<14}{:>9}{:>9}{:>9}   paper(ImageNet): Binary/w1a2/Single\n",
        "Network", "Binary", "w1a2", "Single"
    ));
    for ((name, hidden), (pb, pw, ps)) in archs.iter().zip(paper) {
        let (b, w, f) = table1_experiment(&data, hidden.clone(), 5);
        out.push_str(&format!(
            "{name:<14}{:>8.1}%{:>8.1}%{:>8.1}%   {pb}/{pw}/{ps}\n",
            b * 100.0,
            w * 100.0,
            f * 100.0
        ));
    }
    out
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if arg == "check-bench" {
        let fresh = std::env::args().nth(2).unwrap_or_else(|| ".".to_string());
        let committed = std::env::args().nth(3).unwrap_or_else(|| ".".to_string());
        match check_bench(&fresh, &committed) {
            Ok(msg) => {
                println!("{msg}");
                return;
            }
            Err(e) => {
                eprintln!("bench artifact validation failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let g3090 = GpuSpec::rtx3090();
    let a100 = GpuSpec::a100();

    let run = |name: &str| -> Option<String> {
        match name {
            "fig5" => Some(exp::fig5(&g3090)),
            "fig6" => Some(exp::fig5(&a100)),
            "fig7" => Some(exp::fig7(&g3090)),
            "fig8" => Some(exp::fig7(&a100)),
            "fig9" => Some(exp::fig9(&g3090)),
            "fig10" => Some(exp::fig10(&g3090)),
            "fig11" => Some(exp::fig11(&g3090)),
            "fig12" => Some(exp::fig12(&g3090)),
            "table1" => Some(table1()),
            "table2" => Some(exp::table2(&g3090)),
            "table3" => Some(exp::table3(&g3090)),
            "table4" => Some(exp::table4(&g3090)),
            "fusion-ablation" => Some(exp::network_fusion_ablation(&g3090)),
            "ablation-tiles" => Some(exp::ablation_tiles(&g3090)),
            "ablation-layout" => Some(exp::ablation_layout(&g3090)),
            "ablation-batching" => Some(exp::ablation_batching(&g3090)),
            "turing" => Some(exp::turing(&g3090)),
            "serve" => Some(serve()),
            "precision" => Some(precision()),
            "profile" => Some(profile::render(&profile::profile(profile::BATCHES))),
            _ => None,
        }
    };

    if arg == "all" {
        for name in [
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "table1",
            "table2",
            "table3",
            "table4",
            "fusion-ablation",
            "ablation-tiles",
            "ablation-layout",
            "ablation-batching",
            "turing",
            #[cfg(feature = "fault-inject")]
            "serve",
            "precision",
        ] {
            println!("{}", run(name).unwrap());
        }
    } else if let Some(text) = run(&arg) {
        println!("{text}");
    } else {
        eprintln!(
            "unknown experiment '{arg}'. Options: fig5..fig12, table1..table4, \
             fusion-ablation, ablation-tiles, ablation-layout, ablation-batching, turing, \
             serve, precision, profile, check-bench <fresh_dir> <committed_dir>, all"
        );
        std::process::exit(2);
    }
}
