//! AP-Bit operation template (paper §3.1).
//!
//! Computes `Y = W·Xᵀ` for a `p`-bit `W` (m×k) and a `q`-bit `X` (n×k,
//! stored with k contiguous, i.e. each row is a column of the logical X)
//! using only the 1-bit `bmma.8x8x128` primitive:
//!
//! 1. **Bit decomposition** — done ahead of time by [`BitPlanes`].
//! 2. **Batched tensor-core computation** — `p·q` passes of 8×8×128 `bmma`
//!    fragments accumulated over the K dimension.
//! 3. **Bit combination** — `Y = Σ_{s,t} 2^{s+t} · adjust(Y⁽ˢ'ᵗ⁾)` where
//!    `adjust` applies the encoding-case correction from [`crate::select`].
//!
//! This is the *un-tiled* form used for fragment-sized problems and as a
//! mid-level oracle; the production tiled kernel is [`crate::apmm`].

use apnn_bitpack::{BitMatrix, BitPlanes};
use apnn_sim::bmma::WORDS_PER_ROW;
use apnn_sim::{bmma_8x8x128, BMMA_K, BMMA_M, BMMA_N};

use crate::select::{adjust_partial, plan};

/// Gather an 8-row fragment of packed words starting at `row0`, zero-padding
/// rows past the end of the matrix.
fn gather_fragment(m: &BitMatrix, row0: usize, word_off: usize, out: &mut [u64]) {
    debug_assert_eq!(out.len(), BMMA_M * WORDS_PER_ROW);
    for r in 0..BMMA_M {
        let dst = &mut out[r * WORDS_PER_ROW..(r + 1) * WORDS_PER_ROW];
        if row0 + r < m.rows() {
            dst.copy_from_slice(m.row_word_slice(row0 + r, word_off, WORDS_PER_ROW));
        } else {
            dst.fill(0);
        }
    }
}

/// Arbitrary-precision small-matrix multiply on the bmma primitive.
///
/// Returns the row-major `m×n` i32 product of the *decoded* operands
/// (encodings applied). Panics if the operands disagree on padded width.
pub fn ap_bit_mm(w: &BitPlanes, x: &BitPlanes) -> Vec<i32> {
    let (m, n) = (w.rows(), x.rows());
    let k = w.cols();
    assert_eq!(k, x.cols(), "operands must share the K dimension");

    let eplan = plan(w.encoding(), x.encoding());
    let k_frags = w.plane(0).padded_cols() / BMMA_K;
    assert_eq!(x.plane(0).padded_cols(), w.plane(0).padded_cols());

    // Correction vectors (bit sums per plane).
    let w_row_sums: Vec<Vec<i32>> = (0..w.bits()).map(|s| w.plane(s).row_sums()).collect();
    let x_col_sums: Vec<Vec<i32>> = (0..x.bits())
        .map(|t| x.plane(t).row_sums()) // x rows are logical columns
        .collect();

    let mut y = vec![0i32; m * n];
    let mut a_frag = vec![0u64; BMMA_M * WORDS_PER_ROW];
    let mut b_frag = vec![0u64; BMMA_N * WORDS_PER_ROW];

    for s in 0..w.bits() {
        for t in 0..x.bits() {
            let weight = 1i32 << (s + t);
            for fi in 0..m.div_ceil(BMMA_M) {
                for fj in 0..n.div_ceil(BMMA_N) {
                    // Accumulate popcounts over the K fragments — exactly the
                    // hardware behaviour of chained bmma accumulation.
                    let mut c = [0i32; BMMA_M * BMMA_N];
                    for fk in 0..k_frags {
                        gather_fragment(w.plane(s), fi * BMMA_M, fk * WORDS_PER_ROW, &mut a_frag);
                        gather_fragment(x.plane(t), fj * BMMA_N, fk * WORDS_PER_ROW, &mut b_frag);
                        bmma_8x8x128(&a_frag, &b_frag, &mut c, eplan.op);
                    }
                    // Bit combination with the encoding-case adjustment.
                    for i in 0..BMMA_M {
                        let row = fi * BMMA_M + i;
                        if row >= m {
                            break;
                        }
                        for j in 0..BMMA_N {
                            let col = fj * BMMA_N + j;
                            if col >= n {
                                break;
                            }
                            let adj = adjust_partial(
                                eplan.case,
                                c[i * BMMA_N + j],
                                k as i32,
                                w_row_sums[s as usize][row],
                                x_col_sums[t as usize][col],
                            );
                            y[row * n + col] += weight * adj;
                        }
                    }
                }
            }
        }
    }
    y
}

/// Degenerate-case helper used by tests: decode planes and multiply via the
/// naive reference.
pub fn decoded_reference(w: &BitPlanes, x: &BitPlanes) -> Vec<i32> {
    let wv = w.values();
    let xv = x.values();
    crate::reference::gemm_i32(&wv, &xv, w.rows(), x.rows(), w.cols())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apnn_bitpack::Encoding;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn random_codes(len: usize, bits: u32, seed: &mut u64) -> Vec<u32> {
        (0..len).map(|_| (lcg(seed) as u32) % (1 << bits)).collect()
    }

    #[test]
    fn case1_unsigned_matches_reference() {
        let mut seed = 42;
        for (m, n, k, p, q) in [(8, 8, 128, 1, 2), (16, 8, 130, 2, 3), (5, 9, 300, 3, 2)] {
            let wc = random_codes(m * k, p, &mut seed);
            let xc = random_codes(n * k, q, &mut seed);
            let w = BitPlanes::from_codes(&wc, m, k, p, Encoding::ZeroOne);
            let x = BitPlanes::from_codes(&xc, n, k, q, Encoding::ZeroOne);
            assert_eq!(
                ap_bit_mm(&w, &x),
                decoded_reference(&w, &x),
                "m{m} n{n} k{k}"
            );
        }
    }

    #[test]
    fn case2_signed_binary_matches_reference() {
        let mut seed = 7;
        for (m, n, k) in [(8, 8, 128), (12, 20, 77), (3, 3, 500)] {
            let wv: Vec<i32> = (0..m * k)
                .map(|_| if lcg(&mut seed) & 1 == 0 { -1 } else { 1 })
                .collect();
            let xv: Vec<i32> = (0..n * k)
                .map(|_| if lcg(&mut seed) & 1 == 0 { -1 } else { 1 })
                .collect();
            let w = BitPlanes::from_signed_binary(&wv, m, k);
            let x = BitPlanes::from_signed_binary(&xv, n, k);
            assert_eq!(
                ap_bit_mm(&w, &x),
                decoded_reference(&w, &x),
                "m{m} n{n} k{k}"
            );
        }
    }

    #[test]
    fn case3_mixed_matches_reference() {
        let mut seed = 99;
        for (m, n, k, q) in [(8, 8, 128), (10, 14, 200), (4, 4, 64)]
            .into_iter()
            .zip([2u32, 3, 8])
            .map(|((m, n, k), q)| (m, n, k, q))
        {
            let wv: Vec<i32> = (0..m * k)
                .map(|_| if lcg(&mut seed) & 1 == 0 { -1 } else { 1 })
                .collect();
            let xc = random_codes(n * k, q, &mut seed);
            let w = BitPlanes::from_signed_binary(&wv, m, k);
            let x = BitPlanes::from_codes(&xc, n, k, q, Encoding::ZeroOne);
            assert_eq!(ap_bit_mm(&w, &x), decoded_reference(&w, &x), "w1a{q}");
        }
    }

    #[test]
    fn case3_mirrored_matches_reference() {
        let mut seed = 1234;
        let (m, n, k, p) = (9, 7, 150, 3);
        let wc = random_codes(m * k, p, &mut seed);
        let xv: Vec<i32> = (0..n * k)
            .map(|_| if lcg(&mut seed) & 1 == 0 { -1 } else { 1 })
            .collect();
        let w = BitPlanes::from_codes(&wc, m, k, p, Encoding::ZeroOne);
        let x = BitPlanes::from_signed_binary(&xv, n, k);
        assert_eq!(ap_bit_mm(&w, &x), decoded_reference(&w, &x));
    }

    #[test]
    fn paper_example_w1a2() {
        // The §3.1 walkthrough: 1-bit weights, 2-bit features, both unsigned.
        // wx = OP(w, x1)*2 + OP(w, x0).
        let w = BitPlanes::from_codes(&[1, 1, 0, 1], 1, 4, 1, Encoding::ZeroOne);
        let x = BitPlanes::from_codes(&[3, 2, 1, 0], 1, 4, 2, Encoding::ZeroOne);
        // w·x = 1*3 + 1*2 + 0*1 + 1*0 = 5.
        assert_eq!(ap_bit_mm(&w, &x), vec![5]);
    }
}
