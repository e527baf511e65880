//! Packed-word primitives: the CPU stand-in for the tensor-core bit ALU.
//!
//! All bit-packed containers in this crate store bits in little-endian order
//! inside `u64` words: bit `i` of a logical row lives at
//! `data[i / 64] >> (i % 64) & 1`. The row reductions below (XOR/AND +
//! popcount) are the software equivalent of the `bmma` + `popc` pipeline the
//! paper uses on Ampere tensor cores, one output at a time.

/// Number of bits per packed word.
pub const WORD_BITS: usize = 64;

/// The K-dimension granularity of the `bmma.8x8x128` tensor-core primitive.
///
/// Bit-matrix rows are padded to a multiple of this so that a row always maps
/// onto an integral number of tensor-core fragments (2 × `u64` words each).
pub const BMMA_K: usize = 128;

/// Words needed to hold `bits` bits.
#[inline]
pub const fn words_for_bits(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// Bits after padding `bits` up to the next multiple of [`BMMA_K`].
#[inline]
pub const fn pad_to_bmma_k(bits: usize) -> usize {
    // Always occupy at least one full 128-bit fragment, even for zero-width
    // rows, so kernels never see an empty fragment.
    if bits == 0 {
        BMMA_K
    } else {
        bits.div_ceil(BMMA_K) * BMMA_K
    }
}

/// Mask with the low `n` bits set (`n` in `0..=64`).
#[inline]
pub const fn low_mask(n: usize) -> u64 {
    if n >= WORD_BITS {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Bits `at..at + n` (`n ≤ 64`) of the bit string whose word `i` is
/// `word(i)`, as the low bits of one word.
#[inline]
pub fn bit_field(word: impl Fn(usize) -> u64, at: usize, n: usize) -> u64 {
    let (wi, bi) = (at / WORD_BITS, at % WORD_BITS);
    let mut field = word(wi) >> bi;
    if bi + n > WORD_BITS {
        field |= word(wi + 1) << (WORD_BITS - bi);
    }
    field & low_mask(n)
}

/// Total population count of a word slice.
#[inline]
pub fn popcount(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// Merged popcount of `op(a[i], b[i])` over two equal-length word slices —
/// the reduction the row-level primitives and the simulator's `bmma` run on
/// (the functional kernels use the lane-per-output form in
/// [`crate::popcnt`] instead): one `count_ones` per combined word, which
/// auto-vectorizes wherever the target has a vector popcount.
#[inline(always)]
fn merged_popcount(a: &[u64], b: &[u64], op: impl Fn(u64, u64) -> u64) -> u32 {
    let n = a.len();
    debug_assert_eq!(n, b.len());
    let mut acc = 0u32;
    for i in 0..n {
        acc += op(a[i], b[i]).count_ones();
    }
    acc
}

/// `popc(a ^ b)` over two equal-length word slices.
///
/// With `{−1,+1}` encodings this is the core of Case II of the paper's
/// operator selection: `dot(a, b) = n − 2·popc(a ⊕ b)`.
#[inline]
pub fn xor_popcount(a: &[u64], b: &[u64]) -> u32 {
    merged_popcount(a, b, |x, y| x ^ y)
}

/// `popc(a & b)` over two equal-length word slices (Case I / Case III).
#[inline]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u32 {
    merged_popcount(a, b, |x, y| x & y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_bits_boundaries() {
        assert_eq!(words_for_bits(0), 0);
        assert_eq!(words_for_bits(1), 1);
        assert_eq!(words_for_bits(64), 1);
        assert_eq!(words_for_bits(65), 2);
        assert_eq!(words_for_bits(128), 2);
    }

    #[test]
    fn pad_rounds_to_128() {
        assert_eq!(pad_to_bmma_k(0), 128);
        assert_eq!(pad_to_bmma_k(1), 128);
        assert_eq!(pad_to_bmma_k(128), 128);
        assert_eq!(pad_to_bmma_k(129), 256);
        assert_eq!(pad_to_bmma_k(512), 512);
    }

    #[test]
    fn low_mask_edges() {
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(1), 1);
        assert_eq!(low_mask(63), u64::MAX >> 1);
        assert_eq!(low_mask(64), u64::MAX);
    }

    #[test]
    fn xor_and_popcounts_match_scalar() {
        let a = [0b1010u64, u64::MAX, 0];
        let b = [0b0110u64, 0, u64::MAX];
        let mut xor_ref = 0;
        let mut and_ref = 0;
        for i in 0..3 * 64 {
            let ab = (a[i / 64] >> (i % 64)) & 1;
            let bb = (b[i / 64] >> (i % 64)) & 1;
            xor_ref += ab ^ bb;
            and_ref += ab & bb;
        }
        assert_eq!(xor_popcount(&a, &b) as u64, xor_ref);
        assert_eq!(and_popcount(&a, &b) as u64, and_ref);
    }
}
