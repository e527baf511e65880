//! Generality beyond vision (§7 of the paper): a quantized self-attention
//! layer built from APMM kernels.
//!
//! Attention is GEMMs all the way down — QKV projections (1-bit weights ×
//! quantized activations, Case III) and the score matrix Q·Kᵀ (activation ×
//! activation, both unsigned codes: Case I). This example runs a single
//! head functionally, verifies the score GEMM against the i32 oracle, and
//! prints the simulated latency budget of the three stages.
//!
//! Run with: `cargo run --release --example attention_layer`

use apnn_tc::kernels::apmm::cpu::ApmmScratch;
use apnn_tc::kernels::fusion::Steps;
use apnn_tc::kernels::reference::gemm_i32;
use apnn_tc::kernels::{Apmm, ApmmDesc};
use apnn_tc::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = SmallRng::seed_from_u64(42);
    // One head: sequence length 128, model dim 256, head dim 64, w1a4.
    let (seq, d_model, d_head) = (128usize, 256usize, 64usize);
    let a_bits = 4u32;

    // Token activations as 4-bit codes (post-quantization).
    let x_codes: Vec<u32> = (0..seq * d_model).map(|_| rng.gen_range(0..16)).collect();
    let x = BitPlanes::from_codes(&x_codes, seq, d_model, a_bits, Encoding::ZeroOne);

    // Q/K projections: ±1 weights (Case III), packed once into the
    // kernel's layout.
    let proj_desc = ApmmDesc::w1aq(d_head, seq, d_model, a_bits, Encoding::ZeroOne);
    let proj_mm = Apmm::new(proj_desc);
    let proj = |seed: u64| -> PreparedApmm {
        let mut r = SmallRng::seed_from_u64(seed);
        let w: Vec<i32> = (0..d_head * d_model)
            .map(|_| if r.gen::<bool>() { 1 } else { -1 })
            .collect();
        proj_mm.prepare(BitPlanes::from_signed_binary(&w, d_head, d_model))
    };
    let (wq, wk) = (proj(1), proj(2));

    // Project, then re-quantize Q and K to 4-bit codes for the score GEMM:
    // the chain compiles once into its step table, and each projection
    // packs its codes transposed (seq × d_head).
    let quant = apnn_tc::kernels::Epilogue::quantize(64.0, -512.0, a_bits);
    let steps = Steps::build(&quant, d_head).expect("a quantize-only chain is monotone");
    let (mut scratch, mut codes) = (ApmmScratch::default(), Vec::new());
    let mut q = BitPlanes::zeros(seq, d_head, a_bits, Encoding::ZeroOne);
    wq.execute_fused_into(&x, &steps, &mut scratch, &mut codes, &mut q);
    let mut k = BitPlanes::zeros(seq, d_head, a_bits, Encoding::ZeroOne);
    wk.execute_fused_into(&x, &steps, &mut scratch, &mut codes, &mut k);
    let qv: Vec<i32> = q.reconstruct_codes().iter().map(|&c| c as i32).collect();
    let kv: Vec<i32> = k.reconstruct_codes().iter().map(|&c| c as i32).collect();

    // Attention scores: S = Q · Kᵀ — activation × activation, Case I.
    let score_desc = ApmmDesc::unsigned(seq, seq, d_head, a_bits, a_bits);
    let score_mm = Apmm::new(score_desc);
    let scores = score_mm.prepare(q).execute(&k);

    // Verify against the oracle on the decoded codes.
    assert_eq!(scores, gemm_i32(&qv, &kv, seq, seq, d_head));
    println!("score GEMM ({seq}x{seq}) verified against the i32 oracle");

    // Softmax over a row, just to show the full story end to end.
    let row = &scores[..seq];
    let max = *row.iter().max().unwrap() as f32;
    let exps: Vec<f32> = row
        .iter()
        .map(|&s| ((s as f32 - max) / 64.0).exp())
        .collect();
    let z: f32 = exps.iter().sum();
    println!(
        "softmax(row 0): top weight {:.3} at position {}",
        exps.iter().cloned().fold(0.0, f32::max) / z,
        exps.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0
    );

    // Simulated latency budget on the RTX 3090.
    let spec = GpuSpec::rtx3090();
    let t_proj = proj_mm.simulate_fused(&spec, &quant).time_us();
    let t_score = score_mm.simulate(&spec).time_us();
    println!(
        "\nsimulated {} budget: Q-proj {t_proj:.2} us + K-proj {t_proj:.2} us + scores {t_score:.2} us",
        spec.name
    );
    println!("(the attention building blocks are the same APMM kernels the CNN uses — §7)");
}
