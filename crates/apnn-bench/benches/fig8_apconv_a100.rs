//! Fig. 8 companion bench: high-bit convolution configurations on the CPU
//! engine (the Fig. 7b/8b set) — emulation cost scales with `p·q`.

use apnn_bench::gen;
use apnn_bench::workloads::fig7_conv;
use apnn_kernels::apconv::cpu::ConvScratch;
use apnn_kernels::apconv::ApConv;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_apconv_high_bits");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let channels = 256usize;
    for (p, q) in [(1u32, 5u32), (1, 8), (2, 6), (2, 8)] {
        let desc = fig7_conv(channels, p, q);
        let (w, x) = gen::conv_operands(&desc, 13);
        let conv = ApConv::new(desc).prepare(w);
        let (mut scratch, mut out) = (ConvScratch::default(), Vec::new());
        group.bench_with_input(
            BenchmarkId::new(format!("APConv-w{p}a{q}"), channels),
            &channels,
            |b, _| b.iter(|| conv.execute_into(&x, &mut scratch, &mut out)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
