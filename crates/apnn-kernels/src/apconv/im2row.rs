//! Explicit im2row lowering: convolution as a materialized APMM call.
//!
//! The production path ([`super::cpu`]) performs *direct* convolution over
//! a one-row activation strip (no im2row buffer, the §4.2 design). This
//! module materializes every window into activation planes and runs
//! the stock [`crate::apmm`] kernel instead — the classic GEMM-lowering
//! alternative. It exists for two reasons:
//!
//! * as an independent second implementation that cross-checks the direct
//!   kernel (`direct == im2row` is asserted in tests for every encoding
//!   case), and
//! * as the building block for users who want conv-shaped problems on the
//!   plain APMM interface.
//!
//! Limitations: only unsigned activations (Cases I and III) lower exactly.
//! ±1 activations cannot: zero-filled out-of-frame taps *and* the zero bits
//! of the 128-bit channel padding would both decode as −1 under the GEMM's
//! `K − 2·popc` rule, which only the direct kernel's per-window counter
//! corrections fix. [`im2row_conv`] rejects ±1 activations.

use apnn_bitpack::{BitPlanes, BitTensor4, Encoding};

use super::{ConvDesc, ConvWeights};
use crate::apmm::{Apmm, ApmmDesc};

/// Materialize the implicit-GEMM activation operand: one row per output
/// pixel, `KH·KW` channel segments per row (each padded to the fragment
/// width), matching [`ConvWeights`]' row layout exactly.
pub fn im2row_planes(desc: &ConvDesc, input: &BitTensor4) -> BitPlanes {
    let mut codes = Vec::new();
    let mut out = BitPlanes::zeros(1, 1, desc.x_bits, Encoding::ZeroOne);
    im2row_planes_into(desc, input, &mut codes, &mut out);
    out
}

/// [`im2row_planes`] writing into caller-owned buffers: `codes` is the
/// segmented-code scratch, `out` the materialized activation operand,
/// rebuilt in place. Allocation-free once both have reached capacity —
/// so even the explicit-GEMM lowering can run a steady-state loop without
/// re-materializing its (large) im2row buffer from the allocator.
pub fn im2row_planes_into(
    desc: &ConvDesc,
    input: &BitTensor4,
    codes: &mut Vec<u32>,
    out: &mut BitPlanes,
) {
    assert_eq!(input.bits(), desc.x_bits);
    assert_eq!(input.encoding(), desc.x_enc);
    let (oh, ow) = (desc.out_h(), desc.out_w());
    let pixels = desc.batch * oh * ow;
    let padded_c = desc.padded_c();
    let k_bits = desc.k_bits();

    // Build per-plane bit matrices with zero-fill for out-of-frame taps.
    codes.clear();
    codes.resize(pixels * k_bits, 0);
    let seg_codes = codes;
    for b in 0..desc.batch {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (b * oh + oy) * ow + ox;
                for ky in 0..desc.kh {
                    for kx in 0..desc.kw {
                        let iy = (oy * desc.stride + ky) as isize - desc.pad as isize;
                        let ix = (ox * desc.stride + kx) as isize - desc.pad as isize;
                        if iy < 0 || ix < 0 || iy >= desc.h as isize || ix >= desc.w as isize {
                            continue; // zero fill
                        }
                        let tap = ky * desc.kw + kx;
                        for c in 0..desc.cin {
                            let code = input.get_code(b, iy as usize, ix as usize, c);
                            seg_codes[row * k_bits + tap * padded_c + c] = code;
                        }
                    }
                }
            }
        }
    }
    out.from_codes_into(seg_codes, pixels, k_bits, desc.x_bits, desc.x_enc);
}

/// Convolution by explicit im2row + APMM. Output layout matches
/// [`super::ApConv::execute`] (NHWC i32).
///
/// Panics on ±1 activations (see module docs).
pub fn im2row_conv(desc: &ConvDesc, weights: &ConvWeights, input: &BitTensor4) -> Vec<i32> {
    assert!(
        desc.x_enc == Encoding::ZeroOne,
        "im2row lowering cannot express the ±1 out-of-frame/padding \
         correction; use the direct kernel"
    );
    let acts = im2row_planes(desc, input);
    let g = desc.as_gemm();
    // The weights' BitPlanes already use the segmented K layout; k widths
    // must agree bit-for-bit.
    assert_eq!(weights.planes().cols(), g.k);
    assert_eq!(acts.cols(), g.k);

    let gemm_desc = ApmmDesc {
        m: g.m,
        n: g.n,
        k: g.k,
        w_bits: desc.w_bits,
        x_bits: desc.x_bits,
        w_enc: desc.w_enc,
        x_enc: desc.x_enc,
    };
    // APMM returns cout × pixels; conv output is pixel-major (NHWC).
    let y = Apmm::new(gemm_desc).execute(weights.planes(), &acts);
    let (m, n) = (g.m, g.n);
    let mut out = vec![0i32; m * n];
    for co in 0..m {
        for pix in 0..n {
            out[pix * m + co] = y[co * n + pix];
        }
    }
    out
}

/// The im2row buffer's memory footprint in bytes — the cost the paper's
/// direct design avoids (`KH·KW×` amplification of the activation tensor).
pub fn im2row_bytes(desc: &ConvDesc) -> usize {
    let pixels = desc.batch * desc.out_h() * desc.out_w();
    pixels * desc.k_bits() * desc.x_bits as usize / 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apconv::ApConv;
    use apnn_bitpack::{Layout, Tensor4};

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn rand_input(desc: &ConvDesc, seed: &mut u64) -> BitTensor4 {
        let codes = Tensor4::<u32>::from_fn(
            desc.batch,
            desc.cin,
            desc.h,
            desc.w,
            Layout::Nhwc,
            |_, _, _, _| (lcg(seed) as u32) % (1 << desc.x_bits),
        );
        BitTensor4::from_tensor(&codes, desc.x_bits, desc.x_enc)
    }

    #[test]
    fn im2row_matches_direct_conv_unsigned() {
        let mut seed = 7;
        for desc in [
            ConvDesc::unsigned(2, 5, 8, 4, 3, 1, 1, 2, 2),
            ConvDesc::unsigned(1, 130, 5, 3, 3, 1, 1, 1, 3),
            ConvDesc::unsigned(1, 4, 9, 2, 5, 2, 2, 3, 1),
        ] {
            let n = desc.cout * desc.kh * desc.kw * desc.cin;
            let codes: Vec<u32> = (0..n)
                .map(|_| (lcg(&mut seed) as u32) % (1 << desc.w_bits))
                .collect();
            let weights = ConvWeights::from_codes(&desc, &codes);
            let input = rand_input(&desc, &mut seed);
            let direct = ApConv::new(desc).execute(&weights, &input);
            let lowered = im2row_conv(&desc, &weights, &input);
            assert_eq!(direct, lowered, "desc {desc:?}");
        }
    }

    #[test]
    fn im2row_matches_direct_conv_signed_weights() {
        let mut seed = 21;
        let mut desc = ConvDesc::unsigned(1, 6, 7, 4, 3, 1, 1, 1, 2);
        desc.w_enc = Encoding::PlusMinusOne;
        let n = desc.cout * 9 * desc.cin;
        let vals: Vec<i32> = (0..n)
            .map(|_| if lcg(&mut seed) & 1 == 0 { -1 } else { 1 })
            .collect();
        let weights = ConvWeights::from_signed(&desc, &vals);
        let input = rand_input(&desc, &mut seed);
        assert_eq!(
            ApConv::new(desc).execute(&weights, &input),
            im2row_conv(&desc, &weights, &input)
        );
    }

    #[test]
    #[should_panic(expected = "out-of-frame")]
    fn signed_activations_rejected() {
        let mut desc = ConvDesc::unsigned(1, 4, 4, 2, 3, 1, 1, 1, 1);
        desc.w_enc = Encoding::PlusMinusOne;
        desc.x_enc = Encoding::PlusMinusOne;
        let weights = ConvWeights::from_signed(&desc, &vec![1; 2 * 9 * 4]);
        let input = BitTensor4::zeros(1, 4, 4, 4, 1, Encoding::PlusMinusOne);
        let _ = im2row_conv(&desc, &weights, &input);
    }

    #[test]
    fn buffer_amplification_matches_formula() {
        // The im2row buffer is KH·KW·(padding) times the packed input.
        let desc = ConvDesc::unsigned(1, 128, 16, 128, 3, 1, 1, 1, 2);
        let buffer = im2row_bytes(&desc);
        // 256 pixels × 9 taps × 128 channels × 2 bits / 8.
        assert_eq!(buffer, 256 * 9 * 128 * 2 / 8);
    }

    #[test]
    fn im2row_into_reuses_buffers_across_shapes() {
        let mut seed = 51;
        let mut codes = Vec::new();
        let mut out = BitPlanes::zeros(1, 1, 2, Encoding::ZeroOne);
        for desc in [
            ConvDesc::unsigned(2, 5, 8, 4, 3, 1, 1, 2, 2),
            ConvDesc::unsigned(1, 4, 6, 2, 3, 1, 1, 1, 2),
        ] {
            let input = rand_input(&desc, &mut seed);
            im2row_planes_into(&desc, &input, &mut codes, &mut out);
            let fresh = im2row_planes(&desc, &input);
            assert_eq!(out.rows(), fresh.rows());
            assert_eq!(out.reconstruct_codes(), fresh.reconstruct_codes());
        }
    }

    #[test]
    fn stride_two_no_padding() {
        let mut seed = 33;
        let desc = ConvDesc::unsigned(2, 6, 8, 3, 3, 2, 0, 2, 3);
        let n = desc.cout * 9 * desc.cin;
        let codes: Vec<u32> = (0..n)
            .map(|_| (lcg(&mut seed) as u32) % (1 << desc.w_bits))
            .collect();
        let weights = ConvWeights::from_codes(&desc, &codes);
        let input = rand_input(&desc, &mut seed);
        assert_eq!(
            ApConv::new(desc).execute(&weights, &input),
            im2row_conv(&desc, &weights, &input)
        );
    }
}
