//! Fig. 10 companion bench: fused conv+pool+quantize in one pass vs the
//! unfused pipeline materializing i32 intermediates — measured on the real
//! CPU engine.

use apnn_bench::gen;
use apnn_bench::workloads::fig7_conv;
use apnn_bitpack::{BitTensor4, Encoding};
use apnn_kernels::apconv::cpu::ConvScratch;
use apnn_kernels::apconv::{ApConv, Pool2, PreparedConv, Residual};
use apnn_kernels::fusion::{Epilogue, Steps};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// The unfused pipeline: conv to i32, then pooling pass, then quantize pass
/// — each a separate traversal (the "w/o fusion" configuration).
fn unfused(
    conv: &PreparedConv,
    x: &BitTensor4,
    epi: &Epilogue,
    scratch: &mut ConvScratch,
    y: &mut Vec<i32>,
) -> u64 {
    conv.execute_into(x, scratch, y);
    let (oh, ow) = (conv.desc.out_h(), conv.desc.out_w());
    let cout = conv.desc.cout;
    // Pooling pass.
    let (ph, pw) = (oh / 2, ow / 2);
    let mut pooled = vec![0i32; conv.desc.batch * ph * pw * cout];
    for b in 0..conv.desc.batch {
        for py in 0..ph {
            for px in 0..pw {
                for co in 0..cout {
                    let at = |dy: usize, dx: usize| {
                        y[((b * oh + 2 * py + dy) * ow + 2 * px + dx) * cout + co]
                    };
                    pooled[((b * ph + py) * pw + px) * cout + co] =
                        at(0, 0).max(at(0, 1)).max(at(1, 0)).max(at(1, 1));
                }
            }
        }
    }
    // Quantize pass.
    let mut acc = 0u64;
    for (i, &v) in pooled.iter().enumerate() {
        acc += epi.apply_to_code(v, i % cout) as u64;
    }
    acc
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_fusion_cpu");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &channels in &[128usize, 256] {
        let desc = fig7_conv(channels, 1, 2);
        let (w, x) = gen::conv_operands(&desc, 17);
        let conv = ApConv::new(desc).prepare(w);
        let epi = Epilogue::quantize(8.0, 0.0, 2);
        let steps = Steps::build(&epi, desc.cout).expect("a quantize-only chain is monotone");
        let mut scratch = ConvScratch::default();
        let mut out = BitTensor4::zeros(1, 1, 1, desc.cout, 2, Encoding::ZeroOne);
        let mut y = Vec::new();

        group.bench_with_input(BenchmarkId::new("fused", channels), &channels, |b, _| {
            b.iter(|| {
                conv.execute_fused_into(
                    &x,
                    Residual::None,
                    Some(Pool2::Max),
                    &steps,
                    &mut scratch,
                    &mut out,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("unfused", channels), &channels, |b, _| {
            b.iter(|| unfused(&conv, &x, &epi, &mut scratch, &mut y))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
