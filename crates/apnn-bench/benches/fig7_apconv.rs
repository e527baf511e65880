//! Fig. 7 companion bench: the functional CPU convolution engine on the
//! paper's conv workload (16×16 input, 3×3 filter, C_in = C_out sweep).

use apnn_bench::gen;
use apnn_bench::workloads::fig7_conv;
use apnn_kernels::apconv::ApConv;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_apconv");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &channels in &[128usize, 256, 512] {
        let desc = fig7_conv(channels, 1, 2);
        let conv = ApConv::new(desc);
        let (w, x) = gen::conv_operands(&desc, 11);
        group.bench_with_input(
            BenchmarkId::new("APConv-w1a2", channels),
            &channels,
            |b, _| b.iter(|| conv.execute(&w, &x)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
