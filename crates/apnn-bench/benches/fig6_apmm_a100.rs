//! Fig. 6 companion bench: the high-bit configurations (Fig. 5b/6b set) on
//! the CPU engine — the cost of emulation grows with `p·q`, the effect that
//! produces the paper's int8 crossover at w2a8.

use apnn_bench::gen;
use apnn_bench::workloads::{fig5_gemm, HIGH_BIT_CONFIGS};
use apnn_kernels::apmm::cpu::ApmmScratch;
use apnn_kernels::apmm::Apmm;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_apmm_high_bits");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let size = 512usize;
    for (p, q) in HIGH_BIT_CONFIGS {
        let desc = fig5_gemm(size, p, q);
        let (w, x) = gen::gemm_operands(&desc, 7);
        let apmm = Apmm::new(desc).prepare(w);
        let (mut scratch, mut out) = (ApmmScratch::default(), Vec::new());
        group.bench_with_input(
            BenchmarkId::new(format!("APMM-w{p}a{q}"), size),
            &size,
            |b, _| b.iter(|| apmm.execute_into(&x, &mut scratch, &mut out)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
