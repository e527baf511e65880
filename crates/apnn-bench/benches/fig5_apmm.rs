//! Fig. 5 companion bench: wall-clock of the functional CPU engines on the
//! paper's GEMM workload (B=64, K=N sweep) — APMM-w1a2 bit-serial vs dense
//! int8 and fp32 baselines. The simulated-GPU figures come from
//! `repro fig5`; this measures that the bit-serial engine is real, correct
//! compute with the expected scaling.

use apnn_bench::gen;
use apnn_bench::workloads::fig5_gemm;
use apnn_kernels::apmm::Apmm;
use apnn_kernels::baselines::cpu::{gemm_f32, gemm_i8};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_apmm");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &size in &[128usize, 512, 1024] {
        let desc = fig5_gemm(size, 1, 2);
        let apmm = Apmm::new(desc);
        let (w, x) = gen::gemm_operands(&desc, 42);
        group.bench_with_input(BenchmarkId::new("APMM-w1a2", size), &size, |b, _| {
            b.iter(|| apmm.execute(&w, &x))
        });

        let a8 = gen::random_i8(desc.m, size, 1);
        let b8 = gen::random_i8(size, size, 2);
        group.bench_with_input(BenchmarkId::new("cpu-int8", size), &size, |b, _| {
            b.iter(|| gemm_i8(&a8, &b8, desc.m, size, size))
        });

        let af = gen::random_f32(desc.m, size, 3);
        let bf = gen::random_f32(size, size, 4);
        group.bench_with_input(BenchmarkId::new("cpu-fp32", size), &size, |b, _| {
            b.iter(|| gemm_f32(&af, &bf, desc.m, size, size))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
