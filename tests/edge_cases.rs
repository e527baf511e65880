//! Failure-injection and boundary tests: degenerate shapes, extreme values,
//! and the invariants that must hold at the edges of the parameter space.

use apnn_tc::bitpack::{BitMatrix, BitPlanes, BitTensor4, Encoding};
use apnn_tc::kernels::apconv::{ApConv, ConvDesc, ConvWeights};
use apnn_tc::kernels::apmm::{Apmm, ApmmDesc};
use apnn_tc::kernels::fusion::{Epilogue, Steps};
use apnn_tc::kernels::reference::gemm_i32;
use apnn_tc::sim::GpuSpec;

#[test]
fn one_by_one_by_one_gemm() {
    for (wc, xc, want) in [(0u32, 0u32, 0i32), (1, 1, 1), (1, 0, 0)] {
        let w = BitPlanes::from_codes(&[wc], 1, 1, 1, Encoding::ZeroOne);
        let x = BitPlanes::from_codes(&[xc], 1, 1, 1, Encoding::ZeroOne);
        let y = Apmm::new(ApmmDesc::unsigned(1, 1, 1, 1, 1)).execute(&w, &x);
        assert_eq!(y, vec![want]);
    }
}

#[test]
fn max_bits_both_operands() {
    // 8×8-bit: the heaviest emulation (64 plane-pairs).
    let (m, n, k) = (4, 5, 40);
    let wc: Vec<u32> = (0..m * k).map(|i| (i as u32 * 37) % 256).collect();
    let xc: Vec<u32> = (0..n * k).map(|i| (i as u32 * 101) % 256).collect();
    let w = BitPlanes::from_codes(&wc, m, k, 8, Encoding::ZeroOne);
    let x = BitPlanes::from_codes(&xc, n, k, 8, Encoding::ZeroOne);
    let got = Apmm::new(ApmmDesc::unsigned(m, n, k, 8, 8)).execute(&w, &x);
    let wv: Vec<i32> = wc.iter().map(|&c| c as i32).collect();
    let xv: Vec<i32> = xc.iter().map(|&c| c as i32).collect();
    assert_eq!(got, gemm_i32(&wv, &xv, m, n, k));
}

#[test]
fn k_smaller_than_one_fragment() {
    // K = 3 pads to one 128-bit fragment; padding must stay invisible.
    let w = BitPlanes::from_signed_binary(&[1, -1, 1], 1, 3);
    let x = BitPlanes::from_signed_binary(&[-1, -1, 1], 1, 3);
    let desc = ApmmDesc::w1aq(1, 1, 3, 1, Encoding::PlusMinusOne);
    // (1·−1) + (−1·−1) + (1·1) = 1.
    assert_eq!(Apmm::new(desc).execute(&w, &x), vec![1]);
}

#[test]
fn epilogue_survives_extreme_accumulators() {
    let epi = Epilogue::quantize(1.0, 0.0, 8);
    assert_eq!(epi.apply_to_code(i32::MAX, 0), 255);
    assert_eq!(epi.apply_to_code(i32::MIN, 0), 0);
    let tiny_scale = Epilogue::quantize(f32::MIN_POSITIVE, 0.0, 1);
    assert!(tiny_scale.apply_to_code(i32::MAX, 0) <= 1);
    // The 8-bit step tables the kernels run agree with the chain at both
    // ends of the domain — for a chain that spans it and for one whose
    // every level is reached by all but a few accumulators, where the one
    // documented exclusion applies: `i32::MIN` itself (see `Steps`).
    let saturated = Epilogue::quantize(1.0, -3e9, 8);
    for (epi, excluded) in [(&epi, None), (&saturated, Some(i32::MIN))] {
        let steps = Steps::build(epi, 1).unwrap();
        let ends = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX];
        for acc in ends.into_iter().filter(|&acc| Some(acc) != excluded) {
            assert_eq!(steps.code(acc, 0), epi.apply_to_code(acc, 0));
        }
    }
    assert_eq!(saturated.apply_to_code(i32::MIN + 1, 0), 255);
}

#[test]
fn conv_window_larger_than_input_needs_padding() {
    // 5×5 kernel over a 3×3 input with pad 2: every window is mostly
    // out-of-frame; the input-aware padding must keep results exact.
    let desc = ConvDesc {
        batch: 1,
        cin: 2,
        h: 3,
        w: 3,
        cout: 2,
        kh: 5,
        kw: 5,
        stride: 1,
        pad: 2,
        w_bits: 1,
        x_bits: 1,
        w_enc: Encoding::PlusMinusOne,
        x_enc: Encoding::PlusMinusOne,
    };
    let nw = 2 * 25 * 2;
    let w_vals: Vec<i32> = (0..nw).map(|i| if i % 3 == 0 { -1 } else { 1 }).collect();
    let weights = ConvWeights::from_signed(&desc, &w_vals);
    let mut input = BitTensor4::zeros(1, 3, 3, 2, 1, Encoding::PlusMinusOne);
    for y in 0..3 {
        for x in 0..3 {
            for c in 0..2 {
                input.set_code(0, y, x, c, ((y + x + c) % 2) as u32);
            }
        }
    }
    let x_vals: Vec<i32> = {
        let mut v = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                for c in 0..2 {
                    v.push(2 * input.get_code(0, y, x, c) as i32 - 1);
                }
            }
        }
        v
    };
    let got = ApConv::new(desc).execute(&weights, &input);
    let want = apnn_tc::kernels::reference::conv2d_i32(&x_vals, &w_vals, 1, 3, 3, 2, 2, 5, 5, 1, 2);
    assert_eq!(got, want);
}

#[test]
fn zero_rows_matrix_is_legal() {
    let m = BitMatrix::zeros(0, 100);
    assert_eq!(m.rows(), 0);
    assert!(m.padding_is_zero());
    assert!(m.column_sums().iter().all(|&s| s == 0));
}

#[test]
fn zero_row_activation_shard_yields_empty_product() {
    // The empty-shard edge: a prepared plan handed a zero-row activation
    // batch must return the empty `m × 0` product.
    let desc = ApmmDesc::unsigned(6, 4, 96, 2, 2);
    let w_codes: Vec<u32> = (0..6 * 96).map(|i| (i % 4) as u32).collect();
    let w = BitPlanes::from_codes(&w_codes, 6, 96, 2, Encoding::ZeroOne);
    let prepared = Apmm::new(desc).prepare(w);
    let empty = BitPlanes::from_codes(&[], 0, 96, 2, Encoding::ZeroOne);
    assert!(prepared.execute(&empty).is_empty());

    let mut scratch = apnn_tc::kernels::apmm::cpu::ApmmScratch::default();
    let mut out = vec![1i32; 3];
    prepared.execute_into(&empty, &mut scratch, &mut out);
    assert!(out.is_empty());
}

#[test]
fn simulate_handles_degenerate_grids() {
    // A 1×1 output on a huge GPU: overhead-bound, never panics, never zero.
    let spec = GpuSpec::a100();
    let r = Apmm::new(ApmmDesc::unsigned(1, 1, 1, 1, 1)).simulate(&spec);
    assert!(r.time_s() >= spec.kernel_launch_overhead_s);
    assert_eq!(r.occupancy.waves, 1);
}

#[test]
fn accumulator_headroom_at_max_everything() {
    // Worst-case accumulator: K·(2^8−1)·(2^8−1) must not overflow i32 for
    // the K range the library targets (documented bound: K ≤ 33k at w8a8).
    let k: i64 = 33_000;
    let worst = k * 255 * 255;
    assert!(worst < i32::MAX as i64);
    // And an actual all-max computation at a smaller K stays exact.
    let (m, n, kk) = (1, 1, 1000);
    let wc = vec![255u32; kk];
    let xc = vec![255u32; kk];
    let w = BitPlanes::from_codes(&wc, m, kk, 8, Encoding::ZeroOne);
    let x = BitPlanes::from_codes(&xc, n, kk, 8, Encoding::ZeroOne);
    let y = Apmm::new(ApmmDesc::unsigned(m, n, kk, 8, 8)).execute(&w, &x);
    assert_eq!(y[0], 255 * 255 * kk as i32);
}

#[test]
#[should_panic(expected = "empty network")]
fn empty_functional_network_rejects_inference() {
    let net = apnn_tc::nn::CompiledNet::hand_built("empty", "hand-built", 1);
    let input = BitTensor4::zeros(1, 2, 2, 4, 2, Encoding::ZeroOne);
    let _ = net.infer(&input);
}

#[test]
#[should_panic(expected = "±1 encoding is one bit wide")]
fn multi_bit_signed_encoding_rejected() {
    let codes = vec![0u32; 4];
    let _ = BitPlanes::from_codes(&codes, 2, 2, 2, Encoding::PlusMinusOne);
}
