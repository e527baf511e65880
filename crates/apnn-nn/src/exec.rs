//! Simulator-backed network execution: per-stage latency and traffic.
//!
//! [`simulate`] lowers the network through the compilation layer
//! ([`crate::compile::CompiledNet`]) and prices the resulting plan on the
//! `apnn-sim` cost model ([`CompiledNet::report`]): main stages go through the
//! APMM/APConv estimators (emulated schemes) or the cutlass/cublas-like
//! baselines; element-wise stages go through the generic element-wise
//! kernel. The result is the per-layer breakdown behind Fig. 9 and the
//! whole-network latency/throughput numbers of Tables 2 & 3.
//!
//! This is the only pricer: `tests/golden/sim_prices.txt` pins its
//! per-stage output for the paper zoo × every scheme.

use apnn_kernels::apconv::simmap::{estimate_with_efficiency as conv_estimate, ActLayout};
use apnn_kernels::apmm::simmap::{estimate_with_efficiency as apmm_estimate, APMM_TC_EFFICIENCY};
use apnn_kernels::baselines::conv::{conv_report, ConvShape};
use apnn_kernels::baselines::gemm::gemm_report;
use apnn_kernels::baselines::BNN_KERNEL_EFFICIENCY;
use apnn_sim::GpuSpec;

use crate::compile::{CompileOptions, CompiledNet, MainKernel, MainStage, Materialize, PlanStage};
use crate::fuse::{EwKind, MainOp};
use crate::net::Network;
use crate::precision::NetPrecision;

/// Per-stage simulation result.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage name (layer name or element-wise kind).
    pub name: String,
    /// Simulated latency (s).
    pub time_s: f64,
    /// Tensor-core stage?
    pub is_main: bool,
    /// Tensor-core MACs.
    pub macs: u64,
    /// Global-memory traffic (loads + stores, L2 level).
    pub global_bytes: u64,
    /// Which roofline term bounded this stage.
    pub bound: apnn_sim::cost::Bound,
}

/// Whole-network simulation result.
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// Model name.
    pub model: String,
    /// Precision-scheme label.
    pub scheme: String,
    /// Batch size.
    pub batch: usize,
    /// Per-stage reports in execution order.
    pub stages: Vec<StageReport>,
    /// End-to-end simulated latency (s).
    pub total_s: f64,
}

impl NetworkReport {
    /// Latency in milliseconds (the paper's Table 2/3 unit).
    pub fn latency_ms(&self) -> f64 {
        self.total_s * 1e3
    }

    /// Images per second at this batch size.
    pub fn throughput_fps(&self) -> f64 {
        self.batch as f64 / self.total_s
    }

    /// Fraction of total time spent in the first main stage (Fig. 9's
    /// headline quantity).
    pub fn first_main_share(&self) -> f64 {
        self.stages
            .iter()
            .find(|s| s.is_main)
            .map(|s| s.time_s / self.total_s)
            .unwrap_or(0.0)
    }

    /// Total global-memory traffic (bytes).
    pub fn traffic_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.global_bytes).sum()
    }

    /// Latency share per main stage, in execution order.
    pub fn main_shares(&self) -> Vec<(String, f64)> {
        self.stages
            .iter()
            .filter(|s| s.is_main)
            .map(|s| (s.name.clone(), s.time_s / self.total_s))
            .collect()
    }
}

/// Simulate one network at one precision scheme.
pub fn simulate(
    net: &Network,
    precision: NetPrecision,
    spec: &GpuSpec,
    batch: usize,
) -> NetworkReport {
    let fuse = matches!(precision, NetPrecision::Apnn { .. });
    simulate_with(net, precision, spec, batch, fuse)
}

/// [`simulate`] with an explicit fusion flag (the Fig. 10 network-level
/// ablation). Compiles the network into a [`crate::compile::CompiledNet`]
/// (simulation-only materialization) and prices the plan.
pub fn simulate_with(
    net: &Network,
    precision: NetPrecision,
    spec: &GpuSpec,
    batch: usize,
    fuse: bool,
) -> NetworkReport {
    let opts = CompileOptions {
        batch,
        fuse,
        materialize: Materialize::SimOnly,
    };
    CompiledNet::compile(net, precision, &opts).report(spec)
}

impl CompiledNet {
    /// Price the plan on the simulated GPU.
    pub fn report(&self, spec: &GpuSpec) -> NetworkReport {
        price_plan(self, spec)
    }
}

/// Price every stage of a compiled plan on the `apnn-sim` cost model.
fn price_plan(plan: &CompiledNet, spec: &GpuSpec) -> NetworkReport {
    let batch = plan.batch();
    let mut reports = Vec::with_capacity(plan.stages().len());
    for stage in plan.stages() {
        let rep = match stage {
            PlanStage::InputPack { elements } => price_input_pack(spec, (elements * batch) as u64),
            PlanStage::Elementwise {
                name,
                kind,
                in_elements,
                out_elements,
                ..
            } => {
                let precision = plan
                    .precision()
                    .expect("element-wise pricing needs a network precision");
                price_elementwise(
                    precision,
                    spec,
                    batch,
                    name,
                    *kind,
                    *in_elements,
                    *out_elements,
                )
            }
            PlanStage::Main(m) => price_compiled_main(plan, m, spec, batch),
        };
        reports.push(rep);
    }
    let total_s = reports.iter().map(|s| s.time_s).sum();
    NetworkReport {
        model: plan.model.clone(),
        scheme: plan.scheme.clone(),
        batch,
        stages: reports,
        total_s,
    }
}

/// Price the §5.1 input layer: quantize + pack the 8-bit RGB image.
fn price_input_pack(spec: &GpuSpec, elems: u64) -> StageReport {
    let r = apnn_kernels::apconv::simmap::elementwise_kernel(
        spec,
        elems,     // 1 byte per u8 element in
        elems,     // 8 packed planes out = 1 byte per element
        elems * 8, // shift/mask/ballot per plane
        0,
    );
    StageReport {
        name: "input-pack".into(),
        time_s: r.time_s(),
        is_main: false,
        macs: 0,
        global_bytes: r.counters.global_bytes(),
        bound: r.cost.bound,
    }
}

fn price_compiled_main(
    plan: &CompiledNet,
    m: &MainStage,
    spec: &GpuSpec,
    batch: usize,
) -> StageReport {
    let efficiency = match plan.precision() {
        Some(NetPrecision::Bnn) => BNN_KERNEL_EFFICIENCY,
        _ => APMM_TC_EFFICIENCY,
    };
    let epi_opt = if m.epi.ops().is_empty() {
        None
    } else {
        Some(&m.epi)
    };
    let r = match &m.kernel {
        MainKernel::Baseline => {
            let kind = plan
                .precision()
                .and_then(|p| p.baseline_kind())
                .expect("baseline stage without baseline precision");
            match m.op {
                MainOp::Conv {
                    cin,
                    h,
                    w,
                    cout,
                    k,
                    stride,
                    pad,
                } => {
                    assert_eq!(h, w, "baseline conv shapes are square");
                    conv_report(
                        kind,
                        &ConvShape {
                            batch,
                            cin,
                            hw: h,
                            cout,
                            k,
                            stride,
                            pad,
                        },
                        spec,
                    )
                }
                MainOp::Linear {
                    in_features,
                    out_features,
                } => gemm_report(kind, batch, out_features, in_features, spec),
            }
        }
        MainKernel::Conv { desc, tile, .. } => conv_estimate(
            desc,
            tile,
            spec,
            m.pool,
            epi_opt,
            ActLayout::Nphwc,
            efficiency,
        ),
        MainKernel::Linear { desc, tile, .. } => {
            apmm_estimate(desc, tile, spec, epi_opt, efficiency)
        }
    };
    StageReport {
        name: m.name.clone(),
        time_s: r.time_s(),
        is_main: true,
        macs: r.counters.tc_macs,
        global_bytes: r.counters.global_bytes(),
        bound: r.cost.bound,
    }
}

fn price_elementwise(
    precision: NetPrecision,
    spec: &GpuSpec,
    batch: usize,
    name: &str,
    kind: EwKind,
    in_elements: usize,
    out_elements: usize,
) -> StageReport {
    let n_in = (in_elements * batch) as u64;
    let n_out = (out_elements * batch) as u64;
    // Activation element width flowing between un-fused kernels.
    let elem_bytes = match precision {
        NetPrecision::Fp32 => 4,
        NetPrecision::Fp16 => 2,
        NetPrecision::Int8 => 1,
        // Un-fused emulated pipelines move i32 accumulators (§5.1's waste).
        NetPrecision::Bnn | NetPrecision::Apnn { .. } => 4,
    } as u64;
    let q_bits = precision.activation_bits(false) as u64;

    let (load, store, int_ops, flops) = match kind {
        EwKind::Pool { k, quantize, .. } => {
            let window = (k * k) as u64;
            let store = if quantize {
                (n_out * q_bits).div_ceil(8)
            } else {
                n_out * elem_bytes
            };
            (n_in * elem_bytes, store, n_out * window, 0)
        }
        EwKind::GlobalAvgPool => (n_in * elem_bytes, n_out * elem_bytes, n_in, 0),
        EwKind::BatchNorm => (n_in * elem_bytes, n_out * elem_bytes, 0, 4 * n_in),
        EwKind::Relu => (n_in * elem_bytes, n_out * elem_bytes, n_in, 0),
        EwKind::Quantize => (n_in * elem_bytes, (n_out * q_bits).div_ceil(8), 4 * n_in, 0),
        EwKind::ResidualAdd => (2 * n_in * elem_bytes, n_out * elem_bytes, n_in, 0),
        EwKind::InputPack => (n_in, n_out, 8 * n_in, 0),
    };
    let r = apnn_kernels::apconv::simmap::elementwise_kernel(spec, load, store, int_ops, flops);
    StageReport {
        name: name.to_string(),
        time_s: r.time_s(),
        is_main: false,
        macs: 0,
        global_bytes: r.counters.global_bytes(),
        bound: r.cost.bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerSpec as L;

    fn small_net() -> Network {
        Network::new("small", 3, 32, 32)
            .push(L::conv("conv1", 64, 3, 1, 1))
            .push(L::BatchNorm)
            .push(L::Relu)
            .push(L::MaxPool {
                k: 2,
                stride: 2,
                pad: 0,
            })
            .push(L::QuantizeActs)
            .push(L::conv("conv2", 128, 3, 1, 1))
            .push(L::BatchNorm)
            .push(L::Relu)
            .push(L::QuantizeActs)
            .push(L::Flatten)
            .push(L::linear("fc", 10))
    }

    #[test]
    fn apnn_beats_fp32_and_int8() {
        let spec = GpuSpec::rtx3090();
        let net = small_net();
        let apnn = simulate(&net, NetPrecision::w1a2(), &spec, 8);
        let fp32 = simulate(&net, NetPrecision::Fp32, &spec, 8);
        let int8 = simulate(&net, NetPrecision::Int8, &spec, 8);
        assert!(
            apnn.total_s < fp32.total_s,
            "{} vs {}",
            apnn.total_s,
            fp32.total_s
        );
        assert!(apnn.total_s < int8.total_s);
    }

    #[test]
    fn fused_beats_unfused() {
        let spec = GpuSpec::rtx3090();
        let net = small_net();
        let fused = simulate_with(&net, NetPrecision::w1a2(), &spec, 8, true);
        let unfused = simulate_with(&net, NetPrecision::w1a2(), &spec, 8, false);
        assert!(fused.total_s < unfused.total_s);
        assert!(fused.stages.len() < unfused.stages.len());
    }

    #[test]
    fn throughput_math() {
        let spec = GpuSpec::rtx3090();
        let r = simulate(&small_net(), NetPrecision::w1a2(), &spec, 128);
        assert!((r.throughput_fps() - 128.0 / r.total_s).abs() < 1e-9);
        assert!(r.latency_ms() > 0.0);
    }

    #[test]
    fn first_main_share_is_a_fraction() {
        let spec = GpuSpec::rtx3090();
        let r = simulate(&small_net(), NetPrecision::w1a2(), &spec, 8);
        let share = r.first_main_share();
        assert!(share > 0.0 && share < 1.0);
        let shares = r.main_shares();
        assert_eq!(shares.len(), 3);
    }

    #[test]
    fn packed_dataflow_moves_less_traffic_than_int8_pipeline() {
        // §5.1: inter-layer activations at 2 bits vs 8/32 bits.
        let spec = GpuSpec::rtx3090();
        let net = small_net();
        let apnn = simulate(&net, NetPrecision::w1a2(), &spec, 8);
        let fp32 = simulate(&net, NetPrecision::Fp32, &spec, 8);
        assert!(apnn.traffic_bytes() < fp32.traffic_bytes());
    }

    #[test]
    fn stage_bounds_are_reported() {
        let spec = GpuSpec::rtx3090();
        let r = simulate(&small_net(), NetPrecision::w1a2(), &spec, 8);
        // Every stage carries a bound; the heavy conv stages are not
        // overhead-bound at batch 8.
        let conv1 = r.stages.iter().find(|s| s.name == "conv1").unwrap();
        assert!(!matches!(conv1.bound, apnn_sim::cost::Bound::Overhead));
    }

    #[test]
    fn bnn_uses_unfused_small_tile_kernels() {
        let spec = GpuSpec::rtx3090();
        let net = small_net();
        let bnn = simulate(&net, NetPrecision::Bnn, &spec, 8);
        let apnn = simulate(&net, NetPrecision::w1a2(), &spec, 8);
        // More stages (un-fused) than the fused APNN pipeline.
        assert!(bnn.stages.len() > apnn.stages.len());
    }
}
