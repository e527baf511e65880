//! Table 4 companion bench: the typical FC layer (M=64, K=N=1024) on the
//! CPU engines — APMM at the paper's four low-bit configs vs dense int8
//! and fp32.

use apnn_bench::gen;
use apnn_bench::workloads::table4_fc;
use apnn_kernels::apmm::cpu::ApmmScratch;
use apnn_kernels::apmm::Apmm;
use apnn_kernels::baselines::cpu::{gemm_f32, gemm_i8};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4_fc_cpu");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for (p, q) in [(1u32, 2u32), (1, 3), (1, 4), (2, 2)] {
        let desc = table4_fc(p, q);
        let (w, x) = gen::gemm_operands(&desc, 37);
        let apmm = Apmm::new(desc).prepare(w);
        let (mut scratch, mut out) = (ApmmScratch::default(), Vec::new());
        group.bench_function(BenchmarkId::new(format!("APMM-w{p}a{q}"), 1024), |b| {
            b.iter(|| apmm.execute_into(&x, &mut scratch, &mut out))
        });
    }

    let (m, n, k) = (64usize, 1024usize, 1024usize);
    let a8 = gen::random_i8(m, k, 41);
    let b8 = gen::random_i8(n, k, 43);
    group.bench_function(BenchmarkId::new("cpu-int8", 1024), |b| {
        b.iter(|| gemm_i8(&a8, &b8, m, n, k))
    });
    let af = gen::random_f32(m, k, 47);
    let bf = gen::random_f32(n, k, 53);
    group.bench_function(BenchmarkId::new("cpu-fp32", 1024), |b| {
        b.iter(|| gemm_f32(&af, &bf, m, n, k))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
