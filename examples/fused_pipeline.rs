//! Semantic-aware kernel fusion (§5.2): verify that the fused
//! conv + pool + quantize stage is bit-exact with the unfused pipeline and
//! show the traffic/latency it saves (Fig. 10's experiment, hands-on).
//!
//! Run with: `cargo run --release --example fused_pipeline`

use apnn_tc::kernels::apconv::cpu::ConvScratch;
use apnn_tc::kernels::apconv::simmap::{estimate, unfused_pipeline, ActLayout};
use apnn_tc::kernels::apconv::{ApConv, ConvWeights, Pool2, Residual};
use apnn_tc::kernels::fusion::{Epilogue, Steps};
use apnn_tc::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = SmallRng::seed_from_u64(5);
    let desc = ConvDesc::unsigned(1, 128, 16, 128, 3, 1, 1, 1, 2);
    let conv = ApConv::new(desc);
    let epi = Epilogue::quantize(32.0, 0.0, 2);

    // Operands.
    let n = desc.cout * desc.kh * desc.kw * desc.cin;
    let wcodes: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
    let weights = ConvWeights::from_codes(&desc, &wcodes);
    let xcodes = Tensor4::<u32>::from_fn(1, desc.cin, 16, 16, Layout::Nhwc, |_, _, _, _| {
        rng.gen_range(0..4)
    });
    let input = BitTensor4::from_tensor(&xcodes, 2, Encoding::ZeroOne);

    // Pack the weights once (§4.2) and compile the quantizing chain once
    // into its per-channel integer step table.
    let prepared = conv.prepare(weights);
    let steps = Steps::build(&epi, desc.cout).expect("a quantize-only chain is monotone");
    let mut scratch = ConvScratch::default();

    // Fused: one pass, packed 2-bit output.
    let mut fused_out = BitTensor4::zeros(0, 1, 1, desc.cout, 2, Encoding::ZeroOne);
    prepared.execute_fused_into(
        &input,
        Residual::None,
        Some(Pool2::Max),
        &steps,
        &mut scratch,
        &mut fused_out,
    );

    // Unfused: conv -> i32 map -> pooling pass -> quantization pass.
    let y = prepared.execute(&input);
    let (ow, c) = (16, desc.cout);
    let mut mismatch = 0usize;
    for py in 0..8 {
        for px in 0..8 {
            for co in 0..c {
                let at = |dy: usize, dx: usize| y[((2 * py + dy) * ow + 2 * px + dx) * c + co];
                let m = at(0, 0).max(at(0, 1)).max(at(1, 0)).max(at(1, 1));
                let code = epi.apply_to_code(m, co);
                if fused_out.get_code(0, py, px, co) != code {
                    mismatch += 1;
                }
            }
        }
    }
    println!(
        "bit-exact check: fused vs unfused pipeline -> {} mismatches over {} outputs",
        mismatch,
        8 * 8 * c
    );
    assert_eq!(mismatch, 0);

    // Simulated savings (Fig. 10).
    let spec = GpuSpec::rtx3090();
    let f = estimate(
        &desc,
        &conv.tile,
        &spec,
        Some(Pool2::Max),
        Some(&epi),
        ActLayout::Nphwc,
    );
    let u = unfused_pipeline(&desc, &conv.tile, &spec, Pool2::Max, &epi);
    println!(
        "simulated {}: fused {:.2} us vs unfused {:.2} us -> {:.2}x (paper Fig. 10: 1.77x avg)",
        spec.name,
        f.time_us(),
        u * 1e6,
        u / f.time_s()
    );
    println!(
        "fused store traffic: {} bytes (2-bit packed, pooled) vs {} bytes i32 un-pooled",
        f.counters.global_store_bytes,
        16 * 16 * c * 4
    );
}
