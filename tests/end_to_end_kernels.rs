//! Cross-crate integration: the optimized kernels against the naive oracles
//! over every operand-encoding case.

use apnn_tc::bitpack::{BitPlanes, BitTensor4, Encoding, Layout, Tensor4};
use apnn_tc::kernels::apconv::{ApConv, ConvDesc, ConvWeights};
use apnn_tc::kernels::apmm::{Apmm, ApmmDesc};
use apnn_tc::kernels::reference::{conv2d_i32, gemm_i32};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn rand_codes(rng: &mut SmallRng, len: usize, bits: u32) -> Vec<u32> {
    (0..len).map(|_| rng.gen_range(0..(1u32 << bits))).collect()
}

fn rand_signs(rng: &mut SmallRng, len: usize) -> Vec<i32> {
    (0..len)
        .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
        .collect()
}

#[test]
fn apmm_all_cases_match_oracle() {
    let mut rng = SmallRng::seed_from_u64(1);
    // (m, n, k, p, q, w_enc, x_enc)
    let cases = [
        (31, 47, 129, 3, 2, Encoding::ZeroOne, Encoding::ZeroOne),
        (16, 64, 512, 1, 2, Encoding::PlusMinusOne, Encoding::ZeroOne),
        (
            24,
            24,
            200,
            1,
            1,
            Encoding::PlusMinusOne,
            Encoding::PlusMinusOne,
        ),
        (9, 13, 77, 4, 1, Encoding::ZeroOne, Encoding::PlusMinusOne),
        (64, 128, 1024, 2, 8, Encoding::ZeroOne, Encoding::ZeroOne),
    ];
    for (m, n, k, p, q, w_enc, x_enc) in cases {
        let desc = ApmmDesc {
            m,
            n,
            k,
            w_bits: p,
            x_bits: q,
            w_enc,
            x_enc,
        };
        let (w, wv): (BitPlanes, Vec<i32>) = match w_enc {
            Encoding::ZeroOne => {
                let c = rand_codes(&mut rng, m * k, p);
                let v = c.iter().map(|&x| x as i32).collect();
                (BitPlanes::from_codes(&c, m, k, p, w_enc), v)
            }
            Encoding::PlusMinusOne => {
                let v = rand_signs(&mut rng, m * k);
                (BitPlanes::from_signed_binary(&v, m, k), v)
            }
        };
        let (x, xv): (BitPlanes, Vec<i32>) = match x_enc {
            Encoding::ZeroOne => {
                let c = rand_codes(&mut rng, n * k, q);
                let v = c.iter().map(|&x| x as i32).collect();
                (BitPlanes::from_codes(&c, n, k, q, x_enc), v)
            }
            Encoding::PlusMinusOne => {
                let v = rand_signs(&mut rng, n * k);
                (BitPlanes::from_signed_binary(&v, n, k), v)
            }
        };
        let got = Apmm::new(desc).prepare(w).execute(&x);
        let want = gemm_i32(&wv, &xv, m, n, k);
        assert_eq!(got, want, "case w{p}a{q} {w_enc:?}/{x_enc:?}");
    }
}

#[test]
fn apconv_matches_oracle_with_padding_and_stride() {
    let mut rng = SmallRng::seed_from_u64(2);
    for (cin, hw, cout, kk, stride, pad, p, q, w_enc) in [
        (5, 9, 4, 3, 1, 1, 1, 2, Encoding::PlusMinusOne),
        (130, 6, 3, 3, 1, 1, 2, 2, Encoding::ZeroOne),
        (4, 11, 6, 5, 2, 2, 1, 3, Encoding::PlusMinusOne),
        (3, 8, 2, 1, 1, 0, 3, 1, Encoding::ZeroOne),
    ] {
        let desc = ConvDesc {
            batch: 2,
            cin,
            h: hw,
            w: hw,
            cout,
            kh: kk,
            kw: kk,
            stride,
            pad,
            w_bits: p,
            x_bits: q,
            w_enc,
            x_enc: Encoding::ZeroOne,
        };
        let n = cout * kk * kk * cin;
        let (weights, w_vals): (ConvWeights, Vec<i32>) = match w_enc {
            Encoding::PlusMinusOne => {
                let v = rand_signs(&mut rng, n);
                (ConvWeights::from_signed(&desc, &v), v)
            }
            Encoding::ZeroOne => {
                let c = rand_codes(&mut rng, n, p);
                let v = c.iter().map(|&x| x as i32).collect();
                (ConvWeights::from_codes(&desc, &c), v)
            }
        };
        let codes = Tensor4::<u32>::from_fn(2, cin, hw, hw, Layout::Nhwc, |_, _, _, _| {
            rng.gen_range(0..(1u32 << q))
        });
        let input = BitTensor4::from_tensor(&codes, q, Encoding::ZeroOne);
        let mut x_vals = vec![0i32; 2 * hw * hw * cin];
        for b in 0..2 {
            for y in 0..hw {
                for xw in 0..hw {
                    for c in 0..cin {
                        x_vals[((b * hw + y) * hw + xw) * cin + c] = codes.get(b, c, y, xw) as i32;
                    }
                }
            }
        }
        let got = ApConv::new(desc).prepare(weights).execute(&input);
        let want = conv2d_i32(&x_vals, &w_vals, 2, hw, hw, cin, cout, kk, kk, stride, pad);
        assert_eq!(got, want, "conv case {desc:?}");
    }
}

#[test]
fn fragment_template_tiled_kernel_and_oracle_triangle() {
    // Three independent implementations of the same product must agree:
    // the fragment-level template, the tiled CPU kernel, and the oracle.
    let mut rng = SmallRng::seed_from_u64(3);
    let (m, n, k, p, q) = (20, 36, 300, 2, 3);
    let wc = rand_codes(&mut rng, m * k, p);
    let xc = rand_codes(&mut rng, n * k, q);
    let w = BitPlanes::from_codes(&wc, m, k, p, Encoding::ZeroOne);
    let x = BitPlanes::from_codes(&xc, n, k, q, Encoding::ZeroOne);

    let tiled = Apmm::new(ApmmDesc::unsigned(m, n, k, p, q))
        .prepare(w.clone())
        .execute(&x);
    let template = apnn_tc::kernels::emulate::ap_bit_mm(&w, &x);
    let wv: Vec<i32> = wc.iter().map(|&c| c as i32).collect();
    let xv: Vec<i32> = xc.iter().map(|&c| c as i32).collect();
    let oracle = gemm_i32(&wv, &xv, m, n, k);

    assert_eq!(tiled, template);
    assert_eq!(tiled, oracle);
}
