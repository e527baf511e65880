//! Experiment drivers: one function per paper table/figure.
//!
//! Each driver returns a formatted text block with our simulated
//! measurements next to the paper's published anchors (where the paper
//! prints concrete numbers). The `repro` binary dispatches to these;
//! DESIGN.md §6 discusses where the two disagree.

use apnn_kernels::apconv::simmap::{unfused_pipeline, ActLayout};
use apnn_kernels::apconv::{ApConv, Pool2};
use apnn_kernels::apmm::Apmm;
use apnn_kernels::autotune::autotune;
use apnn_kernels::baselines::conv::{conv_report, ConvShape};
use apnn_kernels::baselines::gemm::gemm_report;
use apnn_kernels::baselines::BaselineKind;
use apnn_kernels::fusion::Epilogue;
use apnn_nn::models::{alexnet, resnet18, vgg_variant};
use apnn_nn::{simulate, simulate_with, NetPrecision};
use apnn_sim::{launch, Counters, GpuSpec};

use crate::workloads::*;
use crate::{format_series, geomean, max};

/// Convert a conv description into the baseline ConvShape.
fn shape_of(desc: &apnn_kernels::apconv::ConvDesc) -> ConvShape {
    ConvShape {
        batch: desc.batch,
        cin: desc.cin,
        hw: desc.h,
        cout: desc.cout,
        k: desc.kh,
        stride: desc.stride,
        pad: desc.pad,
    }
}

/// Figs. 5/6 — APMM speedups over cutlass-int4 (a) and cublas-int8 (b).
pub fn fig5(spec: &GpuSpec) -> String {
    let xs = SWEEP_SIZES.to_vec();
    let mut out = String::new();

    for (panel, configs, base_kind, base_label) in [
        (
            "a",
            LOW_BIT_CONFIGS,
            BaselineKind::CutlassInt4,
            "cutlass-gemm-int4",
        ),
        (
            "b",
            HIGH_BIT_CONFIGS,
            BaselineKind::CublasInt8,
            "cublas-gemm-int8",
        ),
    ] {
        let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
        for (p, q) in configs {
            let series: Vec<f64> = xs
                .iter()
                .map(|&n| {
                    let ours = Apmm::new(fig5_gemm(n, p, q)).simulate(spec).time_s();
                    let base = gemm_report(base_kind, GEMM_BATCH, n, n, spec).time_s();
                    base / ours
                })
                .collect();
            rows.push((config_label("APMM", p, q), series));
        }
        // The paper also plots cutlass-int1's speedup over the panel's base.
        let int1: Vec<f64> = xs
            .iter()
            .map(|&n| {
                let i1 = gemm_report(BaselineKind::CutlassInt1, GEMM_BATCH, n, n, spec).time_s();
                let base = gemm_report(base_kind, GEMM_BATCH, n, n, spec).time_s();
                base / i1
            })
            .collect();
        rows.push(("cutlass-gemm-int1".to_string(), int1));

        let all: Vec<f64> = rows
            .iter()
            .take(configs.len())
            .flat_map(|r| r.1.iter().cloned())
            .collect();
        out.push_str(&format_series(
            &format!(
                "Fig5({panel}) APMM speedup over {base_label} on {}",
                spec.name
            ),
            &xs,
            &rows,
            "x",
        ));
        out.push_str(&format!(
            "max speedup {:.2}x, geomean {:.2}x  (paper: up to {} on RTX3090)\n\n",
            max(&all),
            geomean(&all),
            if panel == "a" {
                "2.35x (w1a2 over int4)"
            } else {
                "3.0x (w5a1 over int8)"
            }
        ));
    }
    out
}

/// Figs. 7/8 — APConv speedups over cutlass-conv-int4 (a) / int8 (b).
pub fn fig7(spec: &GpuSpec) -> String {
    let xs = SWEEP_SIZES.to_vec();
    let mut out = String::new();
    for (panel, configs, base_kind, base_label) in [
        (
            "a",
            LOW_BIT_CONFIGS,
            BaselineKind::CutlassInt4,
            "cutlass-conv-int4",
        ),
        (
            "b",
            HIGH_BIT_CONFIGS,
            BaselineKind::CutlassInt8,
            "cutlass-conv-int8",
        ),
    ] {
        let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
        for (p, q) in configs {
            let series: Vec<f64> = xs
                .iter()
                .map(|&c| {
                    let desc = fig7_conv(c, p, q);
                    let ours = ApConv::new(desc).simulate(spec).time_s();
                    let base = conv_report(base_kind, &shape_of(&desc), spec).time_s();
                    base / ours
                })
                .collect();
            rows.push((config_label("APConv", p, q), series));
        }
        let int1: Vec<f64> = xs
            .iter()
            .map(|&c| {
                let desc = fig7_conv(c, 1, 1);
                let i1 = conv_report(BaselineKind::CutlassInt1, &shape_of(&desc), spec).time_s();
                let base = conv_report(base_kind, &shape_of(&desc), spec).time_s();
                base / i1
            })
            .collect();
        rows.push(("cutlass-conv-int1".to_string(), int1));

        let all: Vec<f64> = rows
            .iter()
            .take(configs.len())
            .flat_map(|r| r.1.iter().cloned())
            .collect();
        out.push_str(&format_series(
            &format!(
                "Fig7({panel}) APConv speedup over {base_label} on {}",
                spec.name
            ),
            &xs,
            &rows,
            "x",
        ));
        out.push_str(&format!(
            "max speedup {:.2}x, geomean {:.2}x  (paper: up to {})\n\n",
            max(&all),
            geomean(&all),
            if panel == "a" {
                "3.78x over conv-int4"
            } else {
                "3.08x over conv-int8"
            }
        ));
    }
    out
}

/// Fig. 9 — per-layer latency breakdown of the APNN-w1a2 models (batch 8).
pub fn fig9(spec: &GpuSpec) -> String {
    let mut out = String::from("## Fig9 per-layer latency breakdown, APNN-w1a2, batch 8\n");
    for net in [alexnet(), vgg_variant(), resnet18()] {
        let r = simulate(&net, NetPrecision::w1a2(), spec, 8);
        out.push_str(&format!(
            "{}: first layer {:.1}% of {:.3} ms  (paper: AlexNet 80.4%, VGG 47.5%)\n",
            net.name,
            r.first_main_share() * 100.0,
            r.latency_ms()
        ));
        for (name, share) in r.main_shares() {
            out.push_str(&format!("    {name:<12} {:>5.1}%\n", share * 100.0));
        }
    }
    out
}

/// Fig. 10 — kernel-fusion benefit on APConv-w1a2 + pool + quantize.
pub fn fig10(spec: &GpuSpec) -> String {
    let xs = SWEEP_SIZES.to_vec();
    let epi = Epilogue::quantize(8.0, 0.0, 2);
    let mut fused_row = Vec::new();
    let mut unfused_row = Vec::new();
    for &c in &xs {
        let desc = fig7_conv(c, 1, 2);
        let conv = ApConv::new(desc);
        let fused = conv.simulate_fused(spec, Some(Pool2::Max), &epi).time_s();
        let unfused = unfused_pipeline(&desc, &conv.tile, spec, Pool2::Max, &epi);
        fused_row.push(fused * 1e6);
        unfused_row.push(unfused * 1e6);
    }
    let ratios: Vec<f64> = unfused_row
        .iter()
        .zip(&fused_row)
        .map(|(u, f)| u / f)
        .collect();
    let mut out = format_series(
        &format!("Fig10 APConv-w1a2+pool+quant latency on {}", spec.name),
        &xs,
        &[
            ("w/o fusion".to_string(), unfused_row),
            ("w/ fusion".to_string(), fused_row),
        ],
        "us",
    );
    out.push_str(&format!(
        "average fusion speedup {:.2}x  (paper: 1.77x average)\n",
        geomean(&ratios)
    ));
    out
}

/// Fig. 11 — bit decomposition/combination overheads vs TC compute on the
/// Fig. 7 conv workload (w1a2).
pub fn fig11(spec: &GpuSpec) -> String {
    let xs = SWEEP_SIZES.to_vec();
    let mut comb = Vec::new();
    let mut decomp = Vec::new();
    for &c in &xs {
        let desc = fig7_conv(c, 1, 2);
        let g = desc.as_gemm();
        let tile = autotune(g.m, g.n, g.k, g.w_bits, g.x_bits);
        let base = apnn_kernels::apconv::simmap::estimate(
            &desc,
            &tile,
            spec,
            None,
            None,
            ActLayout::Nphwc,
        );
        let cfg = apnn_kernels::apconv::simmap::kernel_config(&desc, &tile);
        let grid = tile.grid_blocks(g.batched_m(), g.batched_n()) as u64;
        let combine_ops = grid * (tile.bm * tile.bn) as u64;
        let decompose_ops = apnn_kernels::apmm::simmap::DECOMPOSE_OPS_PER_ELEM
            * desc.x_bits as u64
            * (desc.batch * desc.h * desc.w * desc.cin) as u64;
        let price = |ops: u64| {
            let c = Counters {
                cuda_int_ops: ops,
                ..Default::default()
            };
            launch::finish(spec, &cfg, c).cost.cuda_s
        };
        comb.push(100.0 * price(combine_ops) / base.cost.tensor_s);
        decomp.push(100.0 * price(decompose_ops) / base.cost.tensor_s);
    }
    let mut out = format_series(
        &format!(
            "Fig11 emulation overheads relative to TC compute on {}",
            spec.name
        ),
        &xs,
        &[
            ("+bit combination".to_string(), comb.clone()),
            ("+bit decomposition".to_string(), decomp.clone()),
        ],
        "%",
    );
    out.push_str(&format!(
        "averages: combination {:.2}%, decomposition {:.2}%  (paper: 1.16% and 2.02%; combination 2.4%→0.12% as C grows)\n",
        comb.iter().sum::<f64>() / comb.len() as f64,
        decomp.iter().sum::<f64>() / decomp.len() as f64,
    ));
    out
}

/// Fig. 12 — same-precision head-to-head: APMM-w4a4 vs cutlass-int4 and
/// APMM-w1a1 vs cutlass-int1.
pub fn fig12(spec: &GpuSpec) -> String {
    let xs = SWEEP_SIZES.to_vec();
    let w4a4: Vec<f64> = xs
        .iter()
        .map(|&n| {
            let ours = Apmm::new(fig5_gemm(n, 4, 4)).simulate(spec).time_s();
            gemm_report(BaselineKind::CutlassInt4, GEMM_BATCH, n, n, spec).time_s() / ours
        })
        .collect();
    let w1a1: Vec<f64> = xs
        .iter()
        .map(|&n| {
            let ours = Apmm::new(fig5_gemm(n, 1, 1)).simulate(spec).time_s();
            gemm_report(BaselineKind::CutlassInt1, GEMM_BATCH, n, n, spec).time_s() / ours
        })
        .collect();
    let mut out = format_series(
        &format!("Fig12 same-precision speedups on {}", spec.name),
        &xs,
        &[
            ("APMM-w4a4 / cutlass-int4".to_string(), w4a4.clone()),
            ("APMM-w1a1 / cutlass-int1".to_string(), w1a1.clone()),
        ],
        "x",
    );
    out.push_str(&format!(
        "geomeans: w4a4 {:.2}x (paper 1.3x), w1a1 {:.2}x (paper 1.35x)\n",
        geomean(&w4a4),
        geomean(&w1a1)
    ));
    out
}

/// Table 2 — whole-model latency (batch 8) and throughput (batch 128).
pub fn table2(spec: &GpuSpec) -> String {
    let schemes = [
        NetPrecision::Fp32,
        NetPrecision::Fp16,
        NetPrecision::Int8,
        NetPrecision::Bnn,
        NetPrecision::w1a2(),
    ];
    // Paper's RTX3090 numbers: (latency ms batch 8, throughput fps).
    let paper: [[(f64, f64); 3]; 5] = [
        [(4.43, 2.89e4), (25.24, 3.89e2), (60.96, 1.51e2)],
        [(3.79, 3.38e4), (24.19, 4.67e2), (57.33, 1.89e3)],
        [(13.10, 9.77e3), (25.77, 6.52e2), (57.09, 2.85e3)],
        [(0.69, 1.37e4), (2.17, 3.91e3), (0.68, 1.89e4)],
        [(0.36, 2.85e4), (1.66, 5.32e3), (0.64, 1.70e4)],
    ];
    let nets = [alexnet(), vgg_variant(), resnet18()];
    let mut out = format!(
        "## Table2 model inference on {} (ours | paper-RTX3090)\n{:<16}",
        spec.name, "Scheme"
    );
    for n in &nets {
        out.push_str(&format!("{:>26}", n.name));
    }
    out.push('\n');
    for (si, &scheme) in schemes.iter().enumerate() {
        out.push_str(&format!("{:<16}", scheme.label()));
        for (ni, net) in nets.iter().enumerate() {
            let lat = simulate(net, scheme, spec, 8).latency_ms();
            let thr = simulate(net, scheme, spec, 128).throughput_fps();
            let (plat, pthr) = paper[si][ni];
            out.push_str(&format!(
                " {lat:>7.2}ms {thr:>8.0}fps|{plat:>6.2}/{pthr:>7.0}"
            ));
        }
        out.push('\n');
    }
    out
}

/// Table 3 — the VGG precision-tradeoff case study.
pub fn table3(spec: &GpuSpec) -> String {
    let rows: [(NetPrecision, f64, f64); 7] = [
        (NetPrecision::Fp32, 25.24, 3.89e2),
        (NetPrecision::Fp16, 24.19, 4.66e2),
        (NetPrecision::Int8, 25.77, 6.52e2),
        (NetPrecision::Bnn, 2.17, 3.91e3),
        (NetPrecision::w1a2(), 1.66, 5.32e3),
        (NetPrecision::Apnn { w: 2, a: 2 }, 3.08, 2.59e3),
        (NetPrecision::Apnn { w: 2, a: 8 }, 14.14, 5.65e2),
    ];
    let net = vgg_variant();
    let mut out = format!(
        "## Table3 VGG case study on {}\n{:<16}{:>14}{:>16}{:>14}{:>16}\n",
        spec.name, "Scheme", "latency(ms)", "throughput(fps)", "paper(ms)", "paper(fps)"
    );
    for (scheme, plat, pthr) in rows {
        let lat = simulate(&net, scheme, spec, 8).latency_ms();
        let thr = simulate(&net, scheme, spec, 128).throughput_fps();
        out.push_str(&format!(
            "{:<16}{lat:>14.2}{thr:>16.0}{plat:>14.2}{pthr:>16.0}\n",
            scheme.label()
        ));
    }
    out
}

/// Table 4 — raw FC-layer latency, `M=64, K=N=1024`.
pub fn table4(spec: &GpuSpec) -> String {
    let paper = [6.67, 6.81, 7.06, 7.15, 15.61, 7.92];
    let mut vals = Vec::new();
    let mut labels = Vec::new();
    for (p, q) in [(1u32, 2u32), (1, 3), (1, 4), (2, 2)] {
        labels.push(config_label("APMM", p, q));
        vals.push(Apmm::new(table4_fc(p, q)).simulate(spec).time_us());
    }
    labels.push("cutlass-gemm-int4".into());
    vals.push(gemm_report(BaselineKind::CutlassInt4, 64, 1024, 1024, spec).time_us());
    labels.push("cutlass-gemm-int1".into());
    vals.push(gemm_report(BaselineKind::CutlassInt1, 64, 1024, 1024, spec).time_us());

    let mut out = format!(
        "## Table4 raw FC latency (M=64, K=N=1024) on {}\n{:<20}{:>12}{:>12}\n",
        spec.name, "Kernel", "ours(us)", "paper(us)"
    );
    for ((l, v), p) in labels.iter().zip(&vals).zip(&paper) {
        out.push_str(&format!("{l:<20}{v:>12.2}{p:>12.2}\n"));
    }
    out
}

/// Ablation: the §4.3 autotuner vs fixed tile configurations, across the
/// Fig. 5 GEMM sweep (w1a2).
pub fn ablation_tiles(spec: &GpuSpec) -> String {
    use apnn_kernels::apmm::{Apmm, TileConfig};
    let xs = SWEEP_SIZES.to_vec();
    let series = |tile: Option<TileConfig>| -> Vec<f64> {
        xs.iter()
            .map(|&n| {
                let desc = fig5_gemm(n, 1, 2);
                let apmm = match tile {
                    None => Apmm::new(desc),
                    Some(t) => Apmm::with_tile(desc, t),
                };
                apmm.simulate(spec).time_us()
            })
            .collect()
    };
    let auto = series(None);
    let big = series(Some(TileConfig::new(128, 128)));
    let small = series(Some(TileConfig::new(16, 16)));
    let worst_vs_auto: Vec<f64> = big
        .iter()
        .zip(&small)
        .zip(&auto)
        .map(|((b, s), a)| b.max(*s) / a)
        .collect();
    let mut out = format_series(
        &format!("Ablation: tile selection (APMM-w1a2) on {}", spec.name),
        &xs,
        &[
            ("autotuned (§4.3)".to_string(), auto.clone()),
            ("fixed 128x128".to_string(), big),
            ("fixed 16x16".to_string(), small),
        ],
        "us",
    );
    out.push_str(&format!(
        "autotuning avoids up to {:.2}x slowdown vs the worst fixed tile\n",
        max(&worst_vs_auto)
    ));
    out
}

/// Ablation: channel-major NPHWC vs traditional NCHW activation layout
/// (§4.2(a), Fig. 4) on the Fig. 7 conv workload.
pub fn ablation_layout(spec: &GpuSpec) -> String {
    use apnn_kernels::apconv::simmap::estimate;
    let xs = SWEEP_SIZES.to_vec();
    let run = |layout: ActLayout| -> Vec<f64> {
        xs.iter()
            .map(|&c| {
                let desc = fig7_conv(c, 1, 2);
                let conv = ApConv::new(desc);
                estimate(&desc, &conv.tile, spec, None, None, layout).time_us()
            })
            .collect()
    };
    let nphwc = run(ActLayout::Nphwc);
    let nchw = run(ActLayout::Nchw);
    let ratios: Vec<f64> = nchw.iter().zip(&nphwc).map(|(a, b)| a / b).collect();
    let mut out = format_series(
        &format!("Ablation: activation layout (APConv-w1a2) on {}", spec.name),
        &xs,
        &[
            ("NPHWC (channel-major)".to_string(), nphwc),
            ("NCHW (strided reads)".to_string(), nchw),
        ],
        "us",
    );
    out.push_str(&format!(
        "channel-major layout is up to {:.2}x faster (geomean {:.2}x)\n",
        max(&ratios),
        geomean(&ratios)
    ));
    out
}

/// Ablation: virtual batching (§4.1(a)) — one batched w2a2 launch vs four
/// independent w1a1 launches accumulating the same product.
pub fn ablation_batching(spec: &GpuSpec) -> String {
    let xs = SWEEP_SIZES.to_vec();
    let mut batched = Vec::new();
    let mut separate = Vec::new();
    for &n in &xs {
        let b = Apmm::new(fig5_gemm(n, 2, 2)).simulate(spec).time_us();
        let one = Apmm::new(fig5_gemm(n, 1, 1)).simulate(spec).time_us();
        batched.push(b);
        separate.push(4.0 * one); // p·q = 4 plane-pair kernels
    }
    let ratios: Vec<f64> = separate.iter().zip(&batched).map(|(s, b)| s / b).collect();
    let mut out = format_series(
        &format!("Ablation: virtual batching (w2a2) on {}", spec.name),
        &xs,
        &[
            ("batched (one launch)".to_string(), batched),
            ("4x separate w1a1".to_string(), separate),
        ],
        "us",
    );
    out.push_str(&format!(
        "batching the p*q plane-pairs wins {:.2}x on average\n",
        geomean(&ratios)
    ));
    out
}

/// Extension: the Table 4 workload on the Turing T4 preset, where only the
/// XOR `bmma` exists and the XOR-derived emulation cases run (§2.3).
pub fn turing(spec3090: &GpuSpec) -> String {
    let t4 = GpuSpec::t4();
    assert!(!t4.supports_and_bmma);
    let mut out = format!(
        "## Extension: XOR-only (Turing) support — Table 4 workload on {}\n",
        t4.name
    );
    for (p, q) in [(1u32, 2u32), (2, 2), (4, 4)] {
        let desc = table4_fc(p, q);
        let plan = apnn_kernels::select::plan_for_device(desc.w_enc, desc.x_enc, false);
        let t_t4 = Apmm::new(desc).simulate(&t4).time_us();
        let t_3090 = Apmm::new(desc).simulate(spec3090).time_us();
        out.push_str(&format!(
            "w{p}a{q}: {:?}/{:?} plan, T4 {:.2} us vs RTX3090 {:.2} us\n",
            plan.op, plan.case, t_t4, t_3090
        ));
    }
    out.push_str(
        "(functional equivalence of the XOR-derived cases is proven in\n apnn-kernels::apmm::cpu tests)\n",
    );
    out
}

/// Fig. 10's network-level cousin: fusion on/off for a whole model.
pub fn network_fusion_ablation(spec: &GpuSpec) -> String {
    let net = vgg_variant();
    let fused = simulate_with(&net, NetPrecision::w1a2(), spec, 8, true);
    let unfused = simulate_with(&net, NetPrecision::w1a2(), spec, 8, false);
    format!(
        "## VGG-Variant w1a2 network fusion ablation on {}\nfused {:.3} ms vs unfused {:.3} ms -> {:.2}x\n",
        spec.name,
        fused.latency_ms(),
        unfused.latency_ms(),
        unfused.total_s / fused.total_s
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_produces_speedups_above_one_somewhere() {
        let spec = GpuSpec::rtx3090();
        let text = fig5(&spec);
        assert!(text.contains("APMM-w1a2"));
        assert!(text.contains("cutlass-gemm-int1"));
    }

    #[test]
    fn table4_runs() {
        let spec = GpuSpec::rtx3090();
        let t = table4(&spec);
        assert!(t.contains("APMM-w1a2"));
        assert!(t.contains("cutlass-gemm-int4"));
    }

    #[test]
    fn fig9_first_layer_dominates_alexnet() {
        let spec = GpuSpec::rtx3090();
        let r = simulate(&alexnet(), NetPrecision::w1a2(), &spec, 8);
        assert!(
            r.first_main_share() > 0.4,
            "first layer share {}",
            r.first_main_share()
        );
    }

    #[test]
    fn fig10_fusion_wins_on_average() {
        let spec = GpuSpec::rtx3090();
        let t = fig10(&spec);
        let line = t.lines().last().unwrap();
        assert!(line.contains("average fusion speedup"));
    }

    #[test]
    fn table3_w2a8_latency_throughput_inversion() {
        // The paper's §6.2 subtlety: w2a8 beats INT8 on latency (batch 8)
        // but loses on throughput (batch 128) — the 16-plane emulation cost
        // catching up once the machine is saturated.
        let spec = GpuSpec::rtx3090();
        let net = apnn_nn::models::vgg_variant();
        let w2a8 = NetPrecision::Apnn { w: 2, a: 8 };
        let lat_w2a8 = simulate(&net, w2a8, &spec, 8).latency_ms();
        let lat_int8 = simulate(&net, NetPrecision::Int8, &spec, 8).latency_ms();
        let thr_w2a8 = simulate(&net, w2a8, &spec, 128).throughput_fps();
        let thr_int8 = simulate(&net, NetPrecision::Int8, &spec, 128).throughput_fps();
        assert!(lat_w2a8 < lat_int8, "latency: {lat_w2a8} vs {lat_int8}");
        assert!(thr_w2a8 < thr_int8, "throughput: {thr_w2a8} vs {thr_int8}");
    }

    #[test]
    fn turing_experiment_runs() {
        let spec = GpuSpec::rtx3090();
        let t = turing(&spec);
        assert!(t.contains("XorDerived"));
        assert!(t.contains("Tesla T4"));
    }
}
