//! Memory-efficient bit combination and output packing (paper §4.1(b)).
//!
//! After the tensor-core passes produce 32-bit partials, two memory
//! bottlenecks remain: reducing `p·q` partial matrices into the final output
//! (solved by the in-block shift-add — see `simmap`), and converting 32-bit
//! values into `q`-bit packed codes for the next layer (solved here: each
//! accumulator is quantized to its code in place and the codes are packed
//! straight into the next layer's bit planes). It quantizes through the
//! chain's compiled [`Steps`] — the same thing the conv kernels are
//! handed — so a hidden linear stage's codes are a bisection of its step
//! table, not the f32 chain.

use apnn_bitpack::{BitPlanes, Encoding};

use crate::fusion::Steps;

/// Quantize the row-major `m×n` accumulator matrix through the compiled
/// chain `steps` and pack the resulting codes **transposed** (rows = n,
/// cols = m) so the packed planes can serve directly as the next layer's
/// activation operand. The channel index handed to `steps` is the
/// output-feature index `i` (the row of `Y`).
///
/// Writes into caller-owned buffers: `codes` is the transposed
/// quantized-code scratch, `out` the packed result (rebuilt in place, see
/// [`BitPlanes::from_codes_into`]). Allocation-free once both have reached
/// their peak capacity — the workspace-reuse form used by steady-state
/// serving.
pub fn quantize_pack_transposed_into(
    y: &[i32],
    m: usize,
    n: usize,
    steps: &Steps,
    codes: &mut Vec<u32>,
    out: &mut BitPlanes,
) {
    assert_eq!(y.len(), m * n);
    // Codes of the transposed output: row j (batch), col i (feature).
    // Every code is stored by the transpose loop — no zeroing pass.
    apnn_bitpack::resize_for_overwrite(codes, n * m);
    for i in 0..m {
        for j in 0..n {
            codes[j * m + i] = steps.code(y[i * n + j], i);
        }
    }
    out.from_codes_into(codes, n, m, steps.bits(), Encoding::ZeroOne);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::Epilogue;

    #[test]
    fn pack_transposes_and_quantizes() {
        // Y = [[0, 5], [10, 3]] (2x2), quantize scale=2, zp=0, bits=2.
        let y = vec![0, 5, 10, 3];
        let steps = Steps::build(&Epilogue::quantize(2.0, 0.0, 2), 2).unwrap();
        let mut packed = BitPlanes::zeros(1, 1, 1, Encoding::ZeroOne);
        quantize_pack_transposed_into(&y, 2, 2, &steps, &mut Vec::new(), &mut packed);
        assert_eq!(packed.rows(), 2);
        assert_eq!(packed.cols(), 2);
        let codes = packed.reconstruct_codes();
        // Transposed: (j=0): [q(0), q(10)] = [0, 3(clamped from 5)],
        //             (j=1): [q(5), q(3)] = [2, 1].
        assert_eq!(codes, vec![0, 3, 2, 1]);
    }
}
