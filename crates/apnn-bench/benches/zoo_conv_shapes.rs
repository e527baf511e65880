//! Per-shape timers for the convolutions the serving zoo actually runs,
//! reported per **output row** (the unit `conv_exec` works in: one
//! activation strip in, one accumulator row out):
//!
//! * `zoo_conv_shapes` — `PreparedConv::execute_into` on one image at every
//!   distinct conv shape of `servable_zoo()` × {w1a2, w2a2, w2a8}: the strip and
//!   the kernel, accumulators stored;
//! * `zoo_conv_fused` — `PreparedConv::execute_fused_into` at every
//!   distinct (shape, pool, residual kind) of the same plans, with the
//!   compiled stage's own tail: the same rows plus the residual add, pool,
//!   step compares and packing. The difference between a shape's two rows
//!   is what its fused tail costs — the phase split of a plan without an
//!   instrumented copy.
//!
//! The shapes the zoo spends its time on are short reductions over small
//! maps, which the paper-figure benches (`fig7_apconv`) do not cover; size
//! kernel work against this, not against a throwaway harness.

use apnn_bench::gen;
use apnn_bitpack::{BitTensor4, Encoding, Layout, Tensor4};
use apnn_kernels::apconv::cpu::ConvScratch;
use apnn_kernels::apconv::{ApConv, ConvDesc, Pool2, Residual};
use apnn_nn::compile::{CompileOptions, MainKernel};
use apnn_nn::models::servable_zoo;
use apnn_nn::{NetPrecision, ResidualSrc, StageSrc};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;

const SCHEMES: [(&str, u32, u32); 3] = [("w1a2", 1, 2), ("w2a2", 2, 2), ("w2a8", 2, 8)];

fn shape_id(scheme: &str, desc: &ConvDesc) -> String {
    format!(
        "{scheme} {}x{}x{}>{} {}x{} s{} q{}",
        desc.kh, desc.kw, desc.cin, desc.cout, desc.h, desc.w, desc.stride, desc.x_bits
    )
}

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

fn unfused(c: &mut Criterion) {
    let mut group = c.benchmark_group("zoo_conv_shapes");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(300));

    for (scheme, w, a) in SCHEMES {
        for desc in zoo_conv_shapes(NetPrecision::Apnn { w, a }) {
            let (weights, x) = gen::conv_operands(&desc, 19);
            let conv = ApConv::new(desc).prepare(weights);
            let (mut scratch, mut out) = (ConvScratch::default(), Vec::new());
            group
                .throughput(Throughput::Elements(desc.out_h() as u64))
                .bench_function(shape_id(scheme, &desc), |b| {
                    b.iter(|| conv.execute_into(&x, &mut scratch, &mut out))
                });
        }
    }
    group.finish();
}

fn fused(c: &mut Criterion) {
    let mut group = c.benchmark_group("zoo_conv_fused");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(300));

    for (scheme, w, a) in SCHEMES {
        let mut seen: Vec<(ConvDesc, Option<Pool2>, Option<ResidualSrc>)> = Vec::new();
        for net in servable_zoo() {
            let plan = net.compile(
                NetPrecision::Apnn { w, a },
                &CompileOptions::functional(1, 2021),
            );
            for stage in plan.main_stages() {
                let MainKernel::Conv {
                    desc,
                    prepared: Some(conv),
                    ..
                } = &stage.kernel
                else {
                    continue;
                };
                let key = (*desc, stage.pool, stage.residual);
                // A skip projection stores raw accumulators: the group above.
                if stage.input == StageSrc::Branch || seen.contains(&key) {
                    continue;
                }
                seen.push(key);

                let (_, x) = gen::conv_operands(desc, 19);
                let (oh, ow, cout) = (desc.out_h(), desc.out_w(), desc.cout);
                let accs: Vec<i32> = (0..oh * ow * cout).map(|i| i as i32 % 23 - 11).collect();
                let bits = stage.tail().bits();
                let codes = Tensor4::<u32>::from_fn(1, cout, oh, ow, Layout::Nhwc, |_, c, y, x| {
                    ((3 * c + 5 * y + 7 * x) % (1 << bits)) as u32
                });
                let branch = BitTensor4::from_tensor(&codes, bits, Encoding::ZeroOne);
                let (residual, kind) = match stage.residual {
                    None => (Residual::None, ""),
                    Some(ResidualSrc::Projection) => (Residual::Accs(&accs), " +proj"),
                    Some(ResidualSrc::Identity) => (Residual::Codes(&branch), " +id"),
                };
                let pool = if stage.pool.is_some() { " pool" } else { "" };
                let mut scratch = ConvScratch::default();
                let mut out = BitTensor4::zeros(1, 1, 1, cout, bits, Encoding::ZeroOne);
                group
                    .throughput(Throughput::Elements(oh as u64))
                    .bench_function(format!("{}{pool}{kind}", shape_id(scheme, desc)), |b| {
                        b.iter(|| {
                            conv.execute_fused_into(
                                &x,
                                residual,
                                stage.pool,
                                stage.tail(),
                                &mut scratch,
                                &mut out,
                            )
                        })
                    });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, unfused, fused);
criterion_main!(benches);
