//! Property-based integration tests: the optimized kernels equal the naive
//! oracles for arbitrary shapes, bit widths and encodings.

use apnn_tc::bitpack::{BitPlanes, BitTensor4, Encoding, Layout, Tensor4};
use apnn_tc::kernels::apconv::{ApConv, ConvDesc, ConvWeights};
use apnn_tc::kernels::apmm::{Apmm, ApmmDesc};
use apnn_tc::kernels::fusion::{Epilogue, Steps};
use apnn_tc::kernels::reference::{conv2d_i32, gemm_i32};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct GemmCase {
    m: usize,
    n: usize,
    k: usize,
    p: u32,
    q: u32,
    w_signed: bool,
    x_signed: bool,
    w_codes: Vec<u32>,
    x_codes: Vec<u32>,
}

fn gemm_case() -> impl Strategy<Value = GemmCase> {
    (
        1usize..20,
        1usize..20,
        1usize..200,
        1u32..=4,
        1u32..=4,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_flat_map(|(m, n, k, p, q, mut w_signed, mut x_signed)| {
            // ±1 encodings are 1-bit only.
            if p > 1 {
                w_signed = false;
            }
            if q > 1 {
                x_signed = false;
            }
            let wb = if w_signed { 1 } else { p };
            let xb = if x_signed { 1 } else { q };
            (
                proptest::collection::vec(0u32..(1 << wb), m * k),
                proptest::collection::vec(0u32..(1 << xb), n * k),
            )
                .prop_map(move |(w_codes, x_codes)| GemmCase {
                    m,
                    n,
                    k,
                    p: wb,
                    q: xb,
                    w_signed,
                    x_signed,
                    w_codes,
                    x_codes,
                })
        })
}

fn decode(codes: &[u32], signed: bool) -> Vec<i32> {
    codes
        .iter()
        .map(|&c| if signed { 2 * c as i32 - 1 } else { c as i32 })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn apmm_equals_oracle(case in gemm_case()) {
        let w_enc = if case.w_signed { Encoding::PlusMinusOne } else { Encoding::ZeroOne };
        let x_enc = if case.x_signed { Encoding::PlusMinusOne } else { Encoding::ZeroOne };
        let desc = ApmmDesc {
            m: case.m, n: case.n, k: case.k,
            w_bits: case.p, x_bits: case.q,
            w_enc, x_enc,
        };
        let w = BitPlanes::from_codes(&case.w_codes, case.m, case.k, case.p, w_enc);
        let x = BitPlanes::from_codes(&case.x_codes, case.n, case.k, case.q, x_enc);
        let got = Apmm::new(desc).prepare(w).execute(&x);
        let want = gemm_i32(
            &decode(&case.w_codes, case.w_signed),
            &decode(&case.x_codes, case.x_signed),
            case.m, case.n, case.k,
        );
        prop_assert_eq!(got, want);
    }

    #[test]
    fn fused_quantize_equals_quantize_of_oracle(
        m in 1usize..12, n in 1usize..12, k in 1usize..100,
        q in 1u32..=3,
        seed in any::<u64>(),
        scale in 1u32..10,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as u32
        };
        let wc: Vec<u32> = (0..m * k).map(|_| next() % 2).collect();
        let xc: Vec<u32> = (0..n * k).map(|_| next() % (1 << q)).collect();
        let desc = ApmmDesc::unsigned(m, n, k, 1, q);
        let w = BitPlanes::from_codes(&wc, m, k, 1, Encoding::ZeroOne);
        let x = BitPlanes::from_codes(&xc, n, k, q, Encoding::ZeroOne);
        let epi = Epilogue::quantize(scale as f32, 0.0, q);
        let steps = Steps::build(&epi, m).unwrap();
        let mut packed = BitPlanes::zeros(1, 1, 1, Encoding::ZeroOne);
        Apmm::new(desc).prepare(w).execute_fused_into(
            &x,
            &steps,
            &mut Default::default(),
            &mut Vec::new(),
            &mut packed,
        );
        // Oracle: full product, quantize, compare codes (transposed).
        let want = gemm_i32(&decode(&wc, false), &decode(&xc, false), m, n, k);
        for i in 0..m {
            for j in 0..n {
                let code = epi.apply_to_code(want[i * n + j], i);
                prop_assert_eq!(packed.reconstruct_codes()[j * m + i], code);
            }
        }
    }

    #[test]
    fn conv_equals_oracle_any_geometry(
        cin in 1usize..8, hw in 2usize..8, cout in 1usize..5,
        kk in 1usize..4, pad in 0usize..2,
        q in 1u32..=3, seed in any::<u64>(),
    ) {
        let stride = 1usize;
        prop_assume!(hw + 2 * pad >= kk);
        let desc = ConvDesc {
            batch: 1, cin, h: hw, w: hw, cout,
            kh: kk, kw: kk, stride, pad,
            w_bits: 1, x_bits: q,
            w_enc: Encoding::PlusMinusOne,
            x_enc: Encoding::ZeroOne,
        };
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as u32
        };
        let nw = cout * kk * kk * cin;
        let w_vals: Vec<i32> = (0..nw).map(|_| if next() % 2 == 0 { -1 } else { 1 }).collect();
        let weights = ConvWeights::from_signed(&desc, &w_vals);
        let codes = Tensor4::<u32>::from_fn(1, cin, hw, hw, Layout::Nhwc, |_, _, _, _| next() % (1 << q));
        let input = BitTensor4::from_tensor(&codes, q, Encoding::ZeroOne);
        let mut x_vals = vec![0i32; hw * hw * cin];
        for y in 0..hw {
            for x in 0..hw {
                for c in 0..cin {
                    x_vals[(y * hw + x) * cin + c] = codes.get(0, c, y, x) as i32;
                }
            }
        }
        let got = ApConv::new(desc).prepare(weights).execute(&input);
        let want = conv2d_i32(&x_vals, &w_vals, 1, hw, hw, cin, cout, kk, kk, stride, pad);
        prop_assert_eq!(got, want);
    }
}
