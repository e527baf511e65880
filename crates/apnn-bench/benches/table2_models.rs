//! Table 2 companion bench: (a) functional end-to-end inference of a
//! CIFAR-scale quantized network on the CPU engine, and (b) the
//! whole-network latency estimator over the ImageNet zoo (the estimator is
//! itself a deterministic computation worth tracking).

use apnn_bench::gen;
use apnn_bitpack::Encoding;
use apnn_kernels::apconv::{ApConv, ConvDesc, Pool2};
use apnn_kernels::apmm::{Apmm, ApmmDesc};
use apnn_kernels::fusion::Epilogue;
use apnn_nn::compile::{CompileOptions, CompiledNet};
use apnn_nn::models::{all_models, vgg_variant_tiny};
use apnn_nn::{simulate, NetPrecision};
use apnn_sim::GpuSpec;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

/// A small VGG-style w1a2 network at CIFAR scale (3×32×32, 10 classes).
fn cifar_net(batch: usize) -> (CompiledNet, apnn_bitpack::BitTensor4) {
    let epi = |bits| Epilogue::quantize(16.0, 0.0, bits);
    let mut net = CompiledNet::hand_built("cifar", "hand-built-w1a2", batch);

    let c1 = ConvDesc {
        batch,
        cin: 3,
        h: 32,
        w: 32,
        cout: 32,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
        w_bits: 1,
        x_bits: 8,
        w_enc: Encoding::PlusMinusOne,
        x_enc: Encoding::ZeroOne,
    };
    let (w1, input) = gen::conv_operands(&c1, 101);
    net.push_conv(ApConv::new(c1).prepare(w1), Some(Pool2::Max), epi(2));

    let c2 = ConvDesc {
        batch,
        cin: 32,
        h: 16,
        w: 16,
        cout: 64,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
        w_bits: 1,
        x_bits: 2,
        w_enc: Encoding::PlusMinusOne,
        x_enc: Encoding::ZeroOne,
    };
    let (w2, _) = gen::conv_operands(&c2, 102);
    net.push_conv(ApConv::new(c2).prepare(w2), Some(Pool2::Max), epi(2));

    let fc = ApmmDesc::w1aq(10, batch, 8 * 8 * 64, 2, Encoding::ZeroOne);
    let (wf, _) = gen::gemm_operands(&fc, 103);
    net.push_linear(Apmm::new(fc).prepare(wf), Epilogue::none());
    (net, input)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_models");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let (net, input) = cifar_net(4);
    group.bench_function("cifar_w1a2_infer_cpu_batch4", |b| {
        b.iter(|| net.infer(&input))
    });

    // The unified path: a zoo model lowered once into a CompiledNet, served
    // repeatedly — the per-iteration cost is pure execution (weights packed
    // and tiles tuned at compile time, outside the loop).
    let plan =
        vgg_variant_tiny().compile(NetPrecision::w1a2(), &CompileOptions::functional(4, 2021));
    group.bench_function("zoo_tiny_vgg_compiled_infer_batch4", |b| {
        b.iter(|| plan.infer(&input))
    });

    let spec = GpuSpec::rtx3090();
    let models = all_models();
    group.bench_function("zoo_latency_estimator_w1a2", |b| {
        b.iter(|| {
            models
                .iter()
                .map(|m| simulate(m, NetPrecision::w1a2(), &spec, 8).total_s)
                .sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
