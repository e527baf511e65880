//! Naive full-precision oracles for correctness testing.
//!
//! Every optimized kernel in this crate is validated against these loops.
//! They operate on *decoded arithmetic values* (after applying operand
//! encodings), so they are also the ground truth for the encoding cases.

/// Row-major `Y[m×n] = W[m×k] · Xᵀ[n×k]` over i32 values.
///
/// `x` is stored N×K (each row of `x` is a column of the logical X), matching
/// the B-fragment layout used by every kernel in this crate.
pub fn gemm_i32(w: &[i32], x: &[i32], m: usize, n: usize, k: usize) -> Vec<i32> {
    assert_eq!(w.len(), m * k);
    assert_eq!(x.len(), n * k);
    let mut y = vec![0i32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for kk in 0..k {
                acc += w[i * k + kk] * x[j * k + kk];
            }
            y[i * n + j] = acc;
        }
    }
    y
}

/// Direct 2-D convolution over decoded i32 values.
///
/// * `input`: NHWC order, shape `(batch, h, w, cin)`.
/// * `weights`: `(cout, kh, kw, cin)` order.
/// * Out-of-frame positions contribute **zero** regardless of encoding —
///   the semantics the paper's input-aware padding (§4.2(b)) preserves.
///
/// Returns NHWC `(batch, oh, ow, cout)`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_i32(
    input: &[i32],
    weights: &[i32],
    batch: usize,
    h: usize,
    w: usize,
    cin: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Vec<i32> {
    assert_eq!(input.len(), batch * h * w * cin);
    assert_eq!(weights.len(), cout * kh * kw * cin);
    let oh = (h + 2 * pad - kh) / stride + 1;
    let ow = (w + 2 * pad - kw) / stride + 1;
    let mut out = vec![0i32; batch * oh * ow * cout];
    for b in 0..batch {
        for oy in 0..oh {
            for ox in 0..ow {
                for co in 0..cout {
                    let mut acc = 0i32;
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                continue; // out-of-frame contributes zero
                            }
                            let (iy, ix) = (iy as usize, ix as usize);
                            for ci in 0..cin {
                                let xv = input[((b * h + iy) * w + ix) * cin + ci];
                                let wv = weights[((co * kh + ky) * kw + kx) * cin + ci];
                                acc += xv * wv;
                            }
                        }
                    }
                    out[((b * oh + oy) * ow + ox) * cout + co] = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_identity() {
        // W = I (2x2), X stored as N×K with rows = columns of X.
        let w = vec![1, 0, 0, 1];
        let x = vec![3, 5, 7, 11]; // X col0 = (3,5), col1 = (7,11)
        let y = gemm_i32(&w, &x, 2, 2, 2);
        // Y[i][j] = W_row_i · X_col_j
        assert_eq!(y, vec![3, 7, 5, 11]);
    }

    #[test]
    fn gemm_known_product() {
        // W = [[1,2],[3,4]], X (logical K×N) = [[5,6],[7,8]] => x rows (cols) =
        // [5,7] and [6,8].
        let w = vec![1, 2, 3, 4];
        let x = vec![5, 7, 6, 8];
        let y = gemm_i32(&w, &x, 2, 2, 2);
        assert_eq!(y, vec![19, 22, 43, 50]);
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 kernel with single channel passes input through.
        let input: Vec<i32> = (0..9).collect();
        let weights = vec![1];
        let out = conv2d_i32(&input, &weights, 1, 3, 3, 1, 1, 1, 1, 1, 0);
        assert_eq!(out, input);
    }

    #[test]
    fn conv_padding_zero_semantics() {
        // 3x3 all-ones kernel over 2x2 all-ones input with pad=1:
        // corners see 4 valid positions, output = count of valid cells.
        let input = vec![1i32; 4];
        let weights = vec![1i32; 9];
        let out = conv2d_i32(&input, &weights, 1, 2, 2, 1, 1, 3, 3, 1, 1);
        assert_eq!(out, vec![4, 4, 4, 4]);
    }

    #[test]
    fn conv_stride_two() {
        let input: Vec<i32> = (0..16).collect(); // 4x4
        let weights = vec![1i32]; // 1x1
        let out = conv2d_i32(&input, &weights, 1, 4, 4, 1, 1, 1, 1, 2, 0);
        assert_eq!(out, vec![0, 2, 8, 10]);
    }
}
