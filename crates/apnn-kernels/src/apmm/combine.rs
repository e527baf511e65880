//! Memory-efficient bit combination and output packing (paper §4.1(b)).
//!
//! After the tensor-core passes produce 32-bit partials, two memory
//! bottlenecks remain: reducing `p·q` partial matrices into the final output
//! (solved by the in-block shift-add — see `simmap`), and converting 32-bit
//! values into `q`-bit packed codes for the next layer (solved here by the
//! ballot-style inter-thread packing, emulated via `apnn_bitpack::ballot`).
//! Both forms quantize through the chain's compiled [`Steps`] — the same
//! thing the conv kernels are handed — so a hidden linear stage's codes are
//! a bisection of its step table, not the f32 chain.

use apnn_bitpack::{ballot, BitPlanes, Encoding};

use crate::fusion::{Epilogue, Steps};

/// Quantize the row-major `m×n` accumulator matrix through `epi` and pack
/// the resulting codes **transposed** (rows = n, cols = m) so the packed
/// planes can serve directly as the next layer's activation operand.
///
/// The per-element quantization + per-warp ballot packing mirrors the GPU
/// routine: each output element is quantized in a register, then 32 "lanes"
/// at a time are packed into aligned words. The channel index passed to the
/// epilogue is the output-feature index `i` (the row of `Y`). Panics if the
/// chain is not provably monotone (it then has no [`Steps`]).
pub fn quantize_pack_transposed(
    y: &[i32],
    m: usize,
    n: usize,
    epi: &Epilogue,
    bits: u32,
) -> BitPlanes {
    assert_eq!(
        epi.output_bits(),
        Some(bits),
        "epilogue must end in quantize"
    );
    let steps = Steps::build(epi, m).expect("the quantizing chain is not provably monotone");
    let mut codes = Vec::new();
    let mut out = BitPlanes::zeros(n, m, bits, Encoding::ZeroOne);
    quantize_pack_transposed_into(y, m, n, &steps, &mut codes, &mut out);
    out
}

/// [`quantize_pack_transposed`] through a compiled [`Steps`], writing into
/// caller-owned buffers: `codes` is the transposed quantized-code scratch,
/// `out` the packed result (rebuilt in place, see
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

/// The warp-level packing route used on the GPU: quantize a stream of 32
/// accumulators (one per lane) and ballot-pack them into `bits` words.
/// Functionally equivalent to the element-wise path; exposed for tests that
/// prove the equivalence and for the NN executor's traffic accounting.
pub fn quantize_ballot_pack(
    accs: &[i32; 32],
    channel_of_lane: &[usize; 32],
    epi: &Epilogue,
    bits: u32,
) -> Vec<u32> {
    let codes: [u32; 32] =
        std::array::from_fn(|lane| epi.apply_to_code(accs[lane], channel_of_lane[lane]));
    ballot::pack_codes(&codes, bits)
}

/// Bytes of global traffic written per element at `bits` precision — the
/// quantity the §5.1 minimal-traffic dataflow compares against the 4-byte
/// i32 alternative (`32n` vs `qn` bits in the paper's intro example).
pub fn packed_store_bytes(elements: usize, bits: u32) -> u64 {
    ((elements as u64) * bits as u64).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apnn_bitpack::ballot::unpack_codes;

    #[test]
    fn pack_transposes_and_quantizes() {
        // Y = [[0, 5], [10, 3]] (2x2), quantize scale=2, zp=0, bits=2.
        let y = vec![0, 5, 10, 3];
        let epi = Epilogue::quantize(2.0, 0.0, 2);
        let packed = quantize_pack_transposed(&y, 2, 2, &epi, 2);
        assert_eq!(packed.rows(), 2);
        assert_eq!(packed.cols(), 2);
        let codes = packed.reconstruct_codes();
        // Transposed: (j=0): [q(0), q(10)] = [0, 3(clamped from 5)],
        //             (j=1): [q(5), q(3)] = [2, 1].
        assert_eq!(codes, vec![0, 3, 2, 1]);
    }

    #[test]
    fn ballot_route_matches_elementwise() {
        let epi = Epilogue::quantize(1.5, -2.0, 3);
        let accs: [i32; 32] = std::array::from_fn(|i| (i as i32) - 16);
        let chans: [usize; 32] = [0; 32];
        let words = quantize_ballot_pack(&accs, &chans, &epi, 3);
        let codes = unpack_codes(&words);
        for lane in 0..32 {
            assert_eq!(codes[lane], epi.apply_to_code(accs[lane], 0));
        }
    }

    #[test]
    fn store_bytes_math() {
        // The paper's dataflow example: n 2-bit activations cost 2n bits.
        assert_eq!(packed_store_bytes(1000, 2), 250);
        assert_eq!(packed_store_bytes(1000, 32), 4000);
        assert_eq!(packed_store_bytes(3, 3), 2); // rounds up
    }
}
