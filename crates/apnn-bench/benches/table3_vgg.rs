//! Table 3 companion bench: a VGG-shaped conv layer (512 channels, 14×14)
//! across the precision ladder w1a2 / w2a2 / w2a8 — the `p·q` emulation
//! scaling that drives the paper's Table 3 tradeoff.

use apnn_bench::gen;
use apnn_bitpack::Encoding;
use apnn_kernels::apconv::cpu::ConvScratch;
use apnn_kernels::apconv::{ApConv, ConvDesc};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_vgg_layer_cpu");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for (p, q) in [(1u32, 2u32), (2, 2), (2, 8)] {
        let desc = ConvDesc {
            batch: 1,
            cin: 512,
            h: 14,
            w: 14,
            cout: 512,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
            w_bits: p,
            x_bits: q,
            w_enc: if p == 1 {
                Encoding::PlusMinusOne
            } else {
                Encoding::ZeroOne
            },
            x_enc: Encoding::ZeroOne,
        };
        let (w, x) = gen::conv_operands(&desc, 31);
        let conv = ApConv::new(desc).prepare(w);
        let (mut scratch, mut out) = (ConvScratch::default(), Vec::new());
        group.bench_with_input(
            BenchmarkId::new(format!("vgg-conv-w{p}a{q}"), 512),
            &512,
            |b, _| b.iter(|| conv.execute_into(&x, &mut scratch, &mut out)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
