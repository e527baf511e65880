//! Fig. 12 companion bench: same-precision head-to-heads on the CPU engine
//! (w4a4 and fully binary w1a1).

use apnn_bench::gen;
use apnn_bench::workloads::fig5_gemm;
use apnn_kernels::apmm::cpu::ApmmScratch;
use apnn_kernels::apmm::Apmm;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12_same_bits_cpu");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &size in &[256usize, 512] {
        for (p, q) in [(4u32, 4u32), (1, 1)] {
            let desc = fig5_gemm(size, p, q);
            let (w, x) = gen::gemm_operands(&desc, 23);
            let apmm = Apmm::new(desc).prepare(w);
            let (mut scratch, mut out) = (ApmmScratch::default(), Vec::new());
            group.bench_with_input(
                BenchmarkId::new(format!("APMM-w{p}a{q}"), size),
                &size,
                |b, _| b.iter(|| apmm.execute_into(&x, &mut scratch, &mut out)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
