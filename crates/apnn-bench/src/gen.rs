//! Seeded random operands for the `zoo_conv_shapes` bench.

use apnn_bitpack::{BitTensor4, Encoding, Layout, Tensor4};
use apnn_kernels::apconv::{ConvDesc, ConvWeights};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random packed weights + input for a convolution description.
pub fn conv_operands(desc: &ConvDesc, seed: u64) -> (ConvWeights, BitTensor4) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = desc.cout * desc.kh * desc.kw * desc.cin;
    let weights = match desc.w_enc {
        Encoding::PlusMinusOne => {
            let vals: Vec<i32> = (0..n)
                .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
                .collect();
            ConvWeights::from_signed(desc, &vals)
        }
        Encoding::ZeroOne => {
            let codes: Vec<u32> = (0..n)
                .map(|_| rng.gen_range(0..(1u32 << desc.w_bits)))
                .collect();
            ConvWeights::from_codes(desc, &codes)
        }
    };
    let codes = Tensor4::<u32>::from_fn(
        desc.batch,
        desc.cin,
        desc.h,
        desc.w,
        Layout::Nhwc,
        |_, _, _, _| rng.gen_range(0..(1u32 << desc.x_bits)),
    );
    let input = BitTensor4::from_tensor(&codes, desc.x_bits, desc.x_enc);
    (weights, input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let desc = ConvDesc::unsigned(1, 8, 6, 4, 3, 1, 1, 2, 3);
        let (w0, x0) = conv_operands(&desc, 9);
        let (w1, x1) = conv_operands(&desc, 9);
        assert_eq!(
            w0.planes().reconstruct_codes(),
            w1.planes().reconstruct_codes()
        );
        assert_eq!(x0, x1);
    }

    #[test]
    fn conv_operands_shapes() {
        let desc = ConvDesc::unsigned(2, 8, 10, 4, 3, 1, 1, 2, 2);
        let (w, x) = conv_operands(&desc, 5);
        assert_eq!(w.dims().0, 4);
        assert_eq!(x.shape(), (2, 10, 10, 8));
    }
}
