//! Input-aware padding (paper §4.2(b)).
//!
//! Convolution semantics require out-of-frame window taps to contribute
//! **zero** to the accumulator. With `{0,1}` activations that is exactly
//! what padding zeros achieves — but when bit 0 encodes −1, a zero pad bit
//! would inject spurious −1 values. The paper's three strategies:
//!
//! 1. both `{0,1}` → pad 0 (nothing to correct);
//! 2. both `{−1,+1}` → pad 1 and track the out-of-frame positions with a
//!    counter, amending the result afterwards;
//! 3. weights `{−1,+1}`, features `{0,1}` → pad 0 (the Case III correction
//!    `J·X` only sums real feature bits, so results are unchanged).
//!
//! Because out-of-frame-ness is a property of a whole `(kh, kw)` tap (all
//! channels of the tap are outside together), the correction works at tap
//! granularity using the per-tap weight popcounts from
//! [`super::weights::ConvWeights`].

use apnn_bitpack::Encoding;

/// What to write into gathered feature words for an out-of-frame tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PadFill {
    /// Fill with 0 bits.
    Zeros,
    /// Fill with 1 bits across the `cin` valid channels (channel padding
    /// beyond `cin` stays 0 to preserve the word invariants).
    OnesValidChannels,
}

/// Select the padding strategy for the given operand encodings.
pub fn pad_fill(w_enc: Encoding, x_enc: Encoding) -> PadFill {
    match (w_enc, x_enc) {
        // Strategy 2: both ±1 — pad 1 + counter correction.
        (Encoding::PlusMinusOne, Encoding::PlusMinusOne) => PadFill::OnesValidChannels,
        // Strategies 1 & 3 (and the mirrored case): pad 0.
        _ => PadFill::Zeros,
    }
}

/// Build the fill words for one tap: `words` words covering `padded_c` bits
/// of which the first `cin` are valid channels.
pub fn fill_words(fill: PadFill, cin: usize, words: usize) -> Vec<u64> {
    match fill {
        PadFill::Zeros => vec![0u64; words],
        PadFill::OnesValidChannels => {
            let mut v = vec![0u64; words];
            for (wi, word) in v.iter_mut().enumerate() {
                let lo = wi * 64;
                if lo >= cin {
                    break;
                }
                let n = (cin - lo).min(64);
                *word = apnn_bitpack::word::low_mask(n);
            }
            v
        }
    }
}

/// The raw count `oob_taps` out-of-frame taps add to a window's popcount
/// under the boolean op (`xor`, else AND) when their activations hold
/// `fill` and their weights `oob_w` ones in all: what the kernel counted
/// that a zero-padded convolution does not contain. Strategy 2 is the
/// `(XOR, ones)` row, `oob_taps·cin − oob_w` ([`correct_xor_window`]'s
/// `popc_oob`); the zero fill adds nothing under AND and the weights' ones
/// under the XOR-only plans. The ones fill is strategy 2's alone, so it
/// never meets AND.
pub(crate) fn oob_popc(xor: bool, fill: PadFill, cin: i32, oob_taps: i32, oob_w: i32) -> i32 {
    match (xor, fill) {
        (false, PadFill::Zeros) => 0,
        (true, PadFill::Zeros) => oob_w,
        (true, PadFill::OnesValidChannels) => oob_taps * cin - oob_w,
        (false, PadFill::OnesValidChannels) => unreachable!("the ones fill is strategy 2's (XOR)"),
    }
}

/// Correction for the ±1/±1 (XOR) case on a window with out-of-frame taps.
///
/// The raw kernel computes `popc_total` over *all* taps with 1-filled pads.
/// For output correctness we need `K_valid − 2·popc_valid` where the
/// out-of-frame taps are excluded:
///
/// * `popc_oob = Σ_oob (cin − w_tap_popc)` — XOR of a weight bit with the
///   1-fill counts exactly the weight's zero bits;
/// * `popc_valid = popc_total − popc_oob`;
/// * `k_valid = (#valid taps) · cin`.
///
/// Returns the corrected dot product.
pub fn correct_xor_window(
    popc_total: i32,
    cin: i32,
    valid_taps: i32,
    oob_weight_popc_sum: i32,
    oob_taps: i32,
) -> i32 {
    let popc_oob = oob_taps * cin - oob_weight_popc_sum;
    let popc_valid = popc_total - popc_oob;
    valid_taps * cin - 2 * popc_valid
}

/// Correction for the mirrored Case III (unsigned weights, ±1 features):
/// the row-sum term must only count weight bits under *valid* taps.
pub fn valid_row_popc(total_row_popc: i32, oob_weight_popc_sum: i32) -> i32 {
    total_row_popc - oob_weight_popc_sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_selection() {
        assert_eq!(
            pad_fill(Encoding::ZeroOne, Encoding::ZeroOne),
            PadFill::Zeros
        );
        assert_eq!(
            pad_fill(Encoding::PlusMinusOne, Encoding::ZeroOne),
            PadFill::Zeros
        );
        assert_eq!(
            pad_fill(Encoding::PlusMinusOne, Encoding::PlusMinusOne),
            PadFill::OnesValidChannels
        );
        assert_eq!(
            pad_fill(Encoding::ZeroOne, Encoding::PlusMinusOne),
            PadFill::Zeros
        );
    }

    #[test]
    fn ones_fill_respects_channel_padding() {
        let words = fill_words(PadFill::OnesValidChannels, 70, 2);
        assert_eq!(words[0], u64::MAX);
        assert_eq!(words[1], (1u64 << 6) - 1);
        let words = fill_words(PadFill::OnesValidChannels, 3, 2);
        assert_eq!(words[0], 0b111);
        assert_eq!(words[1], 0);
    }

    #[test]
    fn zeros_fill() {
        assert_eq!(fill_words(PadFill::Zeros, 64, 2), vec![0, 0]);
    }

    #[test]
    fn xor_window_correction_scalar_check() {
        // 1 channel, 3 taps, 1 oob. w = [+1, -1, +1] (bits 1,0,1),
        // x_valid = [+1, -1] on the two valid taps, oob filled with +1.
        // XOR popc: tap0 (1^1)=0, tap1 (0^0)=0, tap_oob (1^1)=0 → total 0.
        // Desired: w0*x0 + w1*x1 = 1*1 + (-1)(-1) = 2.
        let corrected = correct_xor_window(0, 1, 2, /*oob w popc=1 (bit 1)*/ 1, 1);
        assert_eq!(corrected, 2);
        // Now w_oob = -1 (bit 0): XOR(0,1)=1 → total 1, oob popc sum 0.
        let corrected = correct_xor_window(1, 1, 2, 0, 1);
        assert_eq!(corrected, 2);
    }

    #[test]
    fn oob_popc_counts_what_the_fill_adds() {
        // Every 3-channel weight tap pattern against every (op, fill) a
        // plan meets, counted bit by bit — and strategy 2's row against
        // `correct_xor_window`'s `popc_oob`.
        let cin = 3;
        for (xor, fill) in [
            (false, PadFill::Zeros),
            (true, PadFill::Zeros),
            (true, PadFill::OnesValidChannels),
        ] {
            let f = fill_words(fill, cin, 1)[0];
            for taps in [[0b000u64, 0b101], [0b111, 0b010], [0b011, 0b110]] {
                let direct: u32 = taps
                    .iter()
                    .map(|&w| (if xor { w ^ f } else { w & f }).count_ones())
                    .sum();
                let oob_w = taps.iter().map(|w| w.count_ones() as i32).sum();
                assert_eq!(
                    oob_popc(xor, fill, cin as i32, 2, oob_w),
                    direct as i32,
                    "{fill:?} xor {xor} taps {taps:?}"
                );
            }
        }
        // `correct_xor_window(0, ..)` is `K_valid + 2·popc_oob`.
        assert_eq!(
            correct_xor_window(0, 3, 1, 4, 2),
            3 + 2 * oob_popc(true, PadFill::OnesValidChannels, 3, 2, 4)
        );
    }

    #[test]
    fn valid_row_popc_subtracts_oob() {
        assert_eq!(valid_row_popc(10, 3), 7);
    }
}
