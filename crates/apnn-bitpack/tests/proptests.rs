//! Property-based tests for the bit-packing substrate.

use apnn_bitpack::planes::combine_partials;
use apnn_bitpack::word::{and_popcount, xor_popcount};
use apnn_bitpack::{BitMatrix, BitPlanes, BitTensor4, Encoding, Layout, Tensor4};
use proptest::prelude::*;

/// Strategy: a code matrix with shape and bit width.
fn code_matrix(
    max_dim: usize,
    max_bits: u32,
) -> impl Strategy<Value = (Vec<u32>, usize, usize, u32)> {
    (1..=max_dim, 1..=max_dim, 1..=max_bits).prop_flat_map(|(r, c, b)| {
        proptest::collection::vec(0u32..(1 << b), r * c).prop_map(move |v| (v, r, c, b))
    })
}

proptest! {
    #[test]
    fn decompose_reconstruct_identity((codes, rows, cols, bits) in code_matrix(17, 8)) {
        let planes = BitPlanes::from_codes(&codes, rows, cols, bits, Encoding::ZeroOne);
        prop_assert_eq!(planes.reconstruct_codes(), codes);
        for p in planes.planes() {
            prop_assert!(p.padding_is_zero());
        }
    }

    #[test]
    fn plane_weighted_sum_equals_code((codes, rows, cols, bits) in code_matrix(9, 8)) {
        // Σ_s 2^s · plane_s(i,j) == code(i,j)
        let planes = BitPlanes::from_codes(&codes, rows, cols, bits, Encoding::ZeroOne);
        for r in 0..rows {
            for c in 0..cols {
                let mut v = 0u32;
                for s in 0..bits {
                    v += (planes.plane(s).get(r, c) as u32) << s;
                }
                prop_assert_eq!(v, codes[r * cols + c]);
            }
        }
    }

    #[test]
    fn and_xor_popcount_vs_scalar(
        a in proptest::collection::vec(any::<u64>(), 1..8),
        b in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut and_ref = 0u32;
        let mut xor_ref = 0u32;
        for i in 0..n * 64 {
            let x = ((a[i / 64] >> (i % 64)) & 1) as u32;
            let y = ((b[i / 64] >> (i % 64)) & 1) as u32;
            and_ref += x & y;
            xor_ref += x ^ y;
        }
        prop_assert_eq!(and_popcount(a, b), and_ref);
        prop_assert_eq!(xor_popcount(a, b), xor_ref);
    }

    #[test]
    fn xor_dot_identity_for_signed_binary(
        vals_a in proptest::collection::vec(prop_oneof![Just(-1i32), Just(1i32)], 1..200),
    ) {
        // dot(a, b) == K − 2·popc(a ⊕ b) for ±1 vectors of length K.
        let k = vals_a.len();
        let vals_b: Vec<i32> = vals_a.iter().map(|v| -v).collect();
        let a = BitPlanes::from_signed_binary(&vals_a, 1, k);
        let b = BitPlanes::from_signed_binary(&vals_b, 1, k);
        let dot_ref: i32 = vals_a.iter().zip(&vals_b).map(|(x, y)| x * y).sum();
        let popc = a.plane(0).xor_popcount_rows(0, b.plane(0), 0) as i32;
        prop_assert_eq!(dot_ref, k as i32 - 2 * popc);
    }

    #[test]
    fn case3_linear_transform_identity(
        w_vals in proptest::collection::vec(prop_oneof![Just(-1i32), Just(1i32)], 1..150),
        seed in any::<u64>(),
    ) {
        // WX == 2·ŴX − J·X with Ŵ = (W + J)/2 ∈ {0,1}, X ∈ {0,1}.
        let k = w_vals.len();
        let mut s = seed;
        let x_vals: Vec<i32> = (0..k).map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) & 1) as i32
        }).collect();
        let dot_ref: i32 = w_vals.iter().zip(&x_vals).map(|(w, x)| w * x).sum();

        let w_hat = BitMatrix::from_fn(1, k, |_, c| w_vals[c] > 0);
        let x = BitMatrix::from_fn(1, k, |_, c| x_vals[c] != 0);
        let hat_dot = w_hat.and_popcount_rows(0, &x, 0) as i32;
        let jx: i32 = x_vals.iter().sum();
        prop_assert_eq!(dot_ref, 2 * hat_dot - jx);
    }

    #[test]
    fn bittensor_roundtrip(
        n in 1usize..3, c in 1usize..40, h in 1usize..5, w in 1usize..5,
        bits in 1u32..=4, seed in any::<u64>(),
    ) {
        let mut s = seed;
        let codes = Tensor4::<u32>::from_fn(n, c, h, w, Layout::Nchw, |_, _, _, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 40) as u32) % (1 << bits)
        });
        let packed = BitTensor4::from_tensor(&codes, bits, Encoding::ZeroOne);
        prop_assert!(packed.padding_is_zero());
        let unpacked = packed.to_tensor();
        for in_ in 0..n {
            for ic in 0..c {
                for ih in 0..h {
                    for iw in 0..w {
                        prop_assert_eq!(codes.get(in_, ic, ih, iw), unpacked.get(in_, ic, ih, iw));
                    }
                }
            }
        }
    }

    #[test]
    fn combine_partials_matches_direct_product(
        (w_codes, m, kdim, p) in code_matrix(6, 3),
        seed in any::<u64>(),
        q in 1u32..=3,
    ) {
        // Build X with shape kdim×n (n = m for simplicity), compute
        // per-plane popcount partials by scalar loops, and check that
        // combine_partials reproduces the full-precision product.
        let n = m;
        let mut s = seed;
        let x_codes: Vec<u32> = (0..kdim * n).map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 35) as u32) % (1 << q)
        }).collect();

        // Reference product (row-major W: m×k, X: k×n).
        let mut y_ref = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for kk in 0..kdim {
                    acc += w_codes[i * kdim + kk] as i32 * x_codes[kk * n + j] as i32;
                }
                y_ref[i * n + j] = acc;
            }
        }

        // Per-plane partials.
        let mut partials = vec![vec![vec![0i32; m * n]; q as usize]; p as usize];
        for si in 0..p {
            for ti in 0..q {
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0i32;
                        for kk in 0..kdim {
                            let wb = (w_codes[i * kdim + kk] >> si) & 1;
                            let xb = (x_codes[kk * n + j] >> ti) & 1;
                            acc += (wb & xb) as i32;
                        }
                        partials[si as usize][ti as usize][i * n + j] = acc;
                    }
                }
            }
        }
        let y = combine_partials(&partials, m, n);
        prop_assert_eq!(y, y_ref);
    }
}
