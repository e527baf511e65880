//! Fig. 11 companion bench: the cost of bit decomposition and bit
//! combination relative to the matrix computation itself, measured on real
//! CPU data structures.

use apnn_bench::gen;
use apnn_bitpack::planes::combine_partials;
use apnn_bitpack::{BitPlanes, Encoding};
use apnn_kernels::apmm::cpu::ApmmScratch;
use apnn_kernels::apmm::{Apmm, ApmmDesc};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_overheads_cpu");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let (m, n, k, q) = (128usize, 256usize, 1152usize, 2u32);
    let mut rng = SmallRng::seed_from_u64(3);
    let codes: Vec<u32> = (0..n * k).map(|_| rng.gen_range(0..(1 << q))).collect();

    // Bit decomposition: codes -> q planes.
    group.bench_function(BenchmarkId::new("bit-decomposition", k), |b| {
        b.iter(|| BitPlanes::from_codes(&codes, n, k, q, Encoding::ZeroOne))
    });

    // Tensor-core-equivalent compute (the dominant term).
    let desc = ApmmDesc::unsigned(m, n, k, 1, q);
    let (w, x) = gen::gemm_operands(&desc, 5);
    let apmm = Apmm::new(desc).prepare(w);
    let (mut scratch, mut out) = (ApmmScratch::default(), Vec::new());
    group.bench_function(BenchmarkId::new("matrix-compute", k), |b| {
        b.iter(|| apmm.execute_into(&x, &mut scratch, &mut out))
    });

    // Bit combination: shift-add of p·q partial matrices.
    let partials: Vec<Vec<Vec<i32>>> = (0..1)
        .map(|_| {
            (0..q as usize)
                .map(|t| (0..m * n).map(|i| ((i + t) % 97) as i32).collect())
                .collect()
        })
        .collect();
    group.bench_function(BenchmarkId::new("bit-combination", k), |b| {
        b.iter(|| combine_partials(&partials, m, n))
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
