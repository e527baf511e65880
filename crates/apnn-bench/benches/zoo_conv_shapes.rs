//! Per-shape timer for the convolutions the serving zoo actually runs:
//! `PreparedConv::execute_into` on one image at every distinct conv shape
//! of `servable_zoo()` × {w1a2, w2a2}, reported per **output row** (the
//! unit `conv_exec` works in: one activation strip in, one accumulator
//! row out). The shapes the zoo spends its time on are short reductions
//! over small maps, which the paper-figure benches (`fig7_apconv`) do not
//! cover; size kernel work against this, not against a throwaway harness.

use apnn_bench::gen;
use apnn_kernels::apconv::cpu::ConvScratch;
use apnn_kernels::apconv::{ApConv, ConvDesc};
use apnn_nn::compile::{CompileOptions, MainKernel};
use apnn_nn::models::servable_zoo;
use apnn_nn::NetPrecision;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;

/// Every distinct conv shape of the zoo under `precision`, one image each,
/// in first-use order.
fn zoo_conv_shapes(precision: NetPrecision) -> Vec<ConvDesc> {
    let mut shapes = Vec::new();
    for net in servable_zoo() {
        let plan = net.compile(precision, &CompileOptions::sim(1));
        for stage in plan.main_stages() {
            if let MainKernel::Conv { desc, .. } = &stage.kernel {
                if !shapes.contains(desc) {
                    shapes.push(*desc);
                }
            }
        }
    }
    shapes
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("zoo_conv_shapes");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(300));

    for (scheme, w, a) in [("w1a2", 1, 2), ("w2a2", 2, 2)] {
        for desc in zoo_conv_shapes(NetPrecision::Apnn { w, a }) {
            let (weights, x) = gen::conv_operands(&desc, 19);
            let conv = ApConv::new(desc).prepare(weights);
            let (mut scratch, mut out) = (ConvScratch::default(), Vec::new());
            let id = format!(
                "{scheme} {}x{}x{}>{} {}x{} s{} q{}",
                desc.kh, desc.kw, desc.cin, desc.cout, desc.h, desc.w, desc.stride, desc.x_bits
            );
            group
                .throughput(Throughput::Elements(desc.out_h() as u64))
                .bench_function(id, |b| {
                    b.iter(|| conv.execute_into(&x, &mut scratch, &mut out))
                });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
