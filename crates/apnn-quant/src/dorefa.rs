//! DoReFa-Net quantizers (Zhou et al. \[48\]) — the scheme behind the
//! paper's flagship w1a2 configuration.

/// k-bit uniform quantization of a value already in `[0, 1]`:
/// `q_k(x) = round(x·(2^k−1)) / (2^k−1)`.
#[inline]
pub fn quantize_unit(x: f32, bits: u32) -> f32 {
    let levels = ((1u32 << bits) - 1) as f32;
    (x.clamp(0.0, 1.0) * levels).round() / levels
}

/// DoReFa weight quantization to `bits` ≥ 2:
/// `w_q = 2·q_k( tanh(w) / (2·max|tanh(W)|) + 1/2 ) − 1`, producing values
/// in `[−1, 1]`. For `bits == 1` the XNOR rule `w_q = E[|w|]·sign(w)` is
/// used instead.
pub fn quantize_weights(weights: &[f32], bits: u32) -> Vec<f32> {
    if bits == 1 {
        let scale = weights.iter().map(|w| w.abs()).sum::<f32>() / weights.len().max(1) as f32;
        return weights
            .iter()
            .map(|&w| if w >= 0.0 { scale } else { -scale })
            .collect();
    }
    let max_tanh = weights
        .iter()
        .map(|w| w.tanh().abs())
        .fold(f32::MIN_POSITIVE, f32::max);
    weights
        .iter()
        .map(|&w| {
            let unit = w.tanh() / (2.0 * max_tanh) + 0.5;
            2.0 * quantize_unit(unit, bits) - 1.0
        })
        .collect()
}

/// Symmetric activation quantization over `[−1, 1]` (hard-tanh range): the
/// `2^k` levels are `−1 + 2·code/(2^k−1)`. For `k = 1` this is exactly the
/// BNN sign activation `{−1, +1}` — so the Table 1 "Binary" column is the
/// 1-bit member of the same family as w1a2's 2-bit grid.
#[inline]
pub fn quantize_symmetric(x: f32, bits: u32) -> (f32, u32) {
    let levels = ((1u32 << bits) - 1) as f32;
    let code = ((x.clamp(-1.0, 1.0) + 1.0) / 2.0 * levels).round() as u32;
    (code as f32 * 2.0 / levels - 1.0, code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_quantizer_grid() {
        // 2-bit: levels {0, 1/3, 2/3, 1}.
        assert_eq!(quantize_unit(0.0, 2), 0.0);
        assert!((quantize_unit(0.4, 2) - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(quantize_unit(1.0, 2), 1.0);
        assert_eq!(quantize_unit(2.0, 2), 1.0); // clips
        assert_eq!(quantize_unit(-1.0, 2), 0.0);
    }

    #[test]
    fn one_bit_weights_are_scaled_signs() {
        let w = vec![0.5, -0.25, 1.0, -1.0];
        let q = quantize_weights(&w, 1);
        let scale = (0.5 + 0.25 + 1.0 + 1.0) / 4.0;
        assert_eq!(q, vec![scale, -scale, scale, -scale]);
    }

    #[test]
    fn multi_bit_weights_bounded() {
        let w: Vec<f32> = (-10..=10).map(|i| i as f32 / 3.0).collect();
        for bits in [2u32, 3, 4] {
            let q = quantize_weights(&w, bits);
            assert!(q.iter().all(|&v| (-1.0..=1.0).contains(&v)));
            // Monotone in the input.
            for i in 1..q.len() {
                assert!(q[i] >= q[i - 1]);
            }
        }
    }

    #[test]
    fn symmetric_one_bit_is_sign() {
        assert_eq!(quantize_symmetric(0.7, 1), (1.0, 1));
        assert_eq!(quantize_symmetric(-0.7, 1), (-1.0, 0));
        assert_eq!(quantize_symmetric(5.0, 1), (1.0, 1));
    }

    #[test]
    fn symmetric_two_bit_grid() {
        // Levels: −1, −1/3, 1/3, 1.
        let (v, c) = quantize_symmetric(-1.0, 2);
        assert_eq!((v, c), (-1.0, 0));
        let (v, c) = quantize_symmetric(0.4, 2);
        assert!((v - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(c, 2);
        let (v, c) = quantize_symmetric(1.0, 2);
        assert_eq!((v, c), (1.0, 3));
    }

    #[test]
    fn symmetric_refines_with_bits() {
        let xs: Vec<f32> = (-20..=20).map(|i| i as f32 / 20.0).collect();
        let err = |bits| {
            xs.iter()
                .map(|&x| (quantize_symmetric(x, bits).0 - x).abs())
                .sum::<f32>()
        };
        assert!(err(2) < err(1));
        assert!(err(3) < err(2));
    }

    #[test]
    fn more_activation_bits_less_error() {
        let xs: Vec<f32> = (0..100).map(|i| i as f32 / 99.0).collect();
        let err = |bits| {
            xs.iter()
                .map(|&x| (quantize_unit(x, bits) - x).abs())
                .sum::<f32>()
        };
        assert!(err(2) < err(1));
        assert!(err(4) < err(2));
    }
}
