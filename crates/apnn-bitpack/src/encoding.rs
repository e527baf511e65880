//! Value semantics of stored bits — the input to the paper's
//! *data-adaptive operator selection* (§3.2).

/// How the bits of an operand map to arithmetic values.
///
/// Quantized networks mix two conventions: multi-bit tensors store unsigned
/// codes (`{0, 1, …, 2ᵖ−1}`, an affine scale/zero-point applied outside the
/// kernel), while binarized weights store `{−1, +1}` with bit 0 meaning −1.
/// The combination of the two operand encodings decides whether a kernel
/// computes with `AND` (Case I), `XOR` (Case II), or the Case III linear
/// transformation — see `apnn_kernels::select`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Bits are plain unsigned digits: a `p`-bit code `x` has value `x`.
    ZeroOne,
    /// One-bit operand where bit 0 encodes −1 and bit 1 encodes +1.
    ///
    /// Only meaningful for 1-bit planes; multi-bit signed tensors are
    /// represented as `ZeroOne` codes plus an affine zero-point.
    PlusMinusOne,
}

impl Encoding {
    /// Arithmetic value of a single bit under this encoding.
    #[inline]
    pub fn bit_value(self, bit: bool) -> i32 {
        match self {
            Encoding::ZeroOne => bit as i32,
            Encoding::PlusMinusOne => {
                if bit {
                    1
                } else {
                    -1
                }
            }
        }
    }

    /// Arithmetic value of a `bits`-wide unsigned code under this encoding.
    ///
    /// `PlusMinusOne` is only defined for 1-bit codes.
    #[inline]
    pub fn code_value(self, code: u32, bits: u32) -> i32 {
        match self {
            Encoding::ZeroOne => {
                debug_assert!(bits == 32 || code < (1u32 << bits));
                code as i32
            }
            Encoding::PlusMinusOne => {
                debug_assert_eq!(bits, 1, "PlusMinusOne encodes 1-bit operands only");
                self.bit_value(code & 1 != 0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_one_values() {
        assert_eq!(Encoding::ZeroOne.bit_value(false), 0);
        assert_eq!(Encoding::ZeroOne.bit_value(true), 1);
        assert_eq!(Encoding::ZeroOne.code_value(5, 3), 5);
    }

    #[test]
    fn plus_minus_one_values() {
        assert_eq!(Encoding::PlusMinusOne.bit_value(false), -1);
        assert_eq!(Encoding::PlusMinusOne.bit_value(true), 1);
        assert_eq!(Encoding::PlusMinusOne.code_value(0, 1), -1);
        assert_eq!(Encoding::PlusMinusOne.code_value(1, 1), 1);
    }
}
