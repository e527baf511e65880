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

/// Total population count of a word slice.
#[inline]
pub fn popcount(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// Carry-save adder over bit-sliced counters — the Harley–Seal building
/// block: per bit position, `a + b + c == sum + 2·carry`.
#[inline(always)]
pub const fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// Harley–Seal merged popcount of `op(a[i], b[i])`: four combined words
/// flow through a carry-save adder tree per round, so long reductions
/// spend one `count_ones` per four words (plus the final `ones`/`twos`
/// counts) instead of one per word. Exact for any length — the tail falls
/// back to word-at-a-time counting.
#[inline(always)]
pub(crate) fn merged_popcount_harley_seal(
    a: &[u64],
    b: &[u64],
    op: impl Fn(u64, u64) -> u64,
) -> u32 {
    let n = a.len();
    debug_assert_eq!(n, b.len());
    let mut fours = 0u32;
    let (mut ones, mut twos) = (0u64, 0u64);
    let mut i = 0;
    while i + 4 <= n {
        let (s1, c1) = csa(ones, op(a[i], b[i]), op(a[i + 1], b[i + 1]));
        let (s2, c2) = csa(s1, op(a[i + 2], b[i + 2]), op(a[i + 3], b[i + 3]));
        let (t, c4) = csa(twos, c1, c2);
        ones = s2;
        twos = t;
        fours += c4.count_ones();
        i += 4;
    }
    let mut acc = 4 * fours + 2 * twos.count_ones() + ones.count_ones();
    while i < n {
        acc += op(a[i], b[i]).count_ones();
        i += 1;
    }
    acc
}

/// Plain merged popcount reduction: one `count_ones` per combined word.
#[inline(always)]
fn merged_popcount_plain(a: &[u64], b: &[u64], op: impl Fn(u64, u64) -> u64) -> u32 {
    let n = a.len();
    debug_assert_eq!(n, b.len());
    let mut acc = 0u32;
    for i in 0..n {
        acc += op(a[i], b[i]).count_ones();
    }
    acc
}

/// Merged popcount of `op(a[i], b[i])` over two equal-length word slices —
/// the reduction the row-level primitives and the simulator's `bmma` run on
/// (the functional kernels use the lane-per-output form in
/// [`crate::popcnt`] instead).
///
/// Two exact implementations, chosen at compile time by target capability:
/// with a hardware popcount (x86 `popcnt`; with AVX512-VPOPCNTDQ the plain
/// loop auto-vectorizes to `vpopcntq`, eight words per instruction) the
/// straight reduction is fastest. Without one, `count_ones` lowers to a
/// ~12-op SWAR sequence per word, and the Harley–Seal carry-save tree —
/// which spends only one SWAR popcount per four words — wins. Both paths
/// produce identical counts; the `cfg!` folds at compile time.
#[inline(always)]
fn merged_popcount(a: &[u64], b: &[u64], op: impl Fn(u64, u64) -> u64) -> u32 {
    // `popcnt` is the x86 feature name; aarch64 always has NEON `cnt`, so
    // the plain loop is the fast path there too — Harley–Seal is only for
    // targets whose `count_ones` lowers to the scalar SWAR sequence.
    if cfg!(any(target_feature = "popcnt", target_arch = "aarch64")) {
        merged_popcount_plain(a, b, op)
    } else {
        merged_popcount_harley_seal(a, b, op)
    }
}

/// `popc(a ^ b)` over two equal-length word slices — a plain
/// auto-vectorizing reduction on hardware-popcount targets, the
/// Harley–Seal carry-save tree otherwise (compile-time dispatch).
///
/// With `{−1,+1}` encodings this is the core of Case II of the paper's
/// operator selection: `dot(a, b) = n − 2·popc(a ⊕ b)`.
#[inline]
pub fn xor_popcount(a: &[u64], b: &[u64]) -> u32 {
    merged_popcount(a, b, |x, y| x ^ y)
}

/// `popc(a & b)` over two equal-length word slices (Case I / Case III),
/// with the same per-target reduction dispatch as [`xor_popcount`].
#[inline]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u32 {
    merged_popcount(a, b, |x, y| x & y)
}

/// `popc(!(a ^ b))` restricted to `n_valid` bits — the XNOR dot product used
/// by binary (±1) networks when expressed as a popcount instead of the
/// `n − 2·popc(xor)` identity.
#[inline]
pub fn xnor_popcount(a: &[u64], b: &[u64], n_valid: usize) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(n_valid <= a.len() * WORD_BITS);
    let mut acc = 0u32;
    let full = n_valid / WORD_BITS;
    for i in 0..full {
        acc += (!(a[i] ^ b[i])).count_ones();
    }
    let rem = n_valid % WORD_BITS;
    if rem != 0 {
        acc += (!(a[full] ^ b[full]) & low_mask(rem)).count_ones();
    }
    acc
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

    #[test]
    fn xnor_respects_valid_width() {
        // All-zero words agree everywhere; only n_valid bits should count.
        let a = [0u64; 2];
        let b = [0u64; 2];
        assert_eq!(xnor_popcount(&a, &b, 100), 100);
        assert_eq!(xnor_popcount(&a, &b, 128), 128);
        assert_eq!(xnor_popcount(&a, &b, 64), 64);
        assert_eq!(xnor_popcount(&a, &b, 0), 0);
    }

    #[test]
    fn csa_is_a_full_adder_per_bit() {
        for a in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            for b in [0u64, 1, u64::MAX, 0x0F0F_F0F0] {
                for c in [0u64, u64::MAX, 0xAAAA_5555] {
                    let (s, cy) = csa(a, b, c);
                    for bit in 0..64 {
                        let at = |w: u64| (w >> bit) & 1;
                        assert_eq!(at(a) + at(b) + at(c), at(s) + 2 * at(cy));
                    }
                }
            }
        }
    }

    #[test]
    fn harley_seal_matches_scalar_for_every_length() {
        // Cover the CSA rounds (len >= 4), the tail, and mixed cases —
        // both dispatch arms must agree with the zip-sum reference
        // regardless of which one the build selects.
        let mut seed = 0x1234_5678_9ABC_DEF0u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for len in 0..=21 {
            let a: Vec<u64> = (0..len).map(|_| next()).collect();
            let b: Vec<u64> = (0..len).map(|_| next()).collect();
            let xor_ref: u32 = a.iter().zip(&b).map(|(&x, &y)| (x ^ y).count_ones()).sum();
            let and_ref: u32 = a.iter().zip(&b).map(|(&x, &y)| (x & y).count_ones()).sum();
            let hs =
                |x: &[u64], y: &[u64], f: fn(u64, u64) -> u64| merged_popcount_harley_seal(x, y, f);
            assert_eq!(hs(&a, &b, |x, y| x ^ y), xor_ref, "hs xor len {len}");
            assert_eq!(hs(&a, &b, |x, y| x & y), and_ref, "hs and len {len}");
            assert_eq!(
                merged_popcount_plain(&a, &b, |x, y| x ^ y),
                xor_ref,
                "plain xor len {len}"
            );
            assert_eq!(xor_popcount(&a, &b), xor_ref, "xor len {len}");
            assert_eq!(and_popcount(&a, &b), and_ref, "and len {len}");
        }
    }

    #[test]
    fn xnor_identity_vs_xor() {
        // popc(!(a^b)) over n bits == n - popc(a^b) when a^b has no bits
        // outside the n valid bits.
        let a = [0xDEAD_BEEF_0123_4567u64];
        let b = [0x0F0F_F0F0_AAAA_5555u64];
        let n = 64;
        assert_eq!(xnor_popcount(&a, &b, n), n as u32 - xor_popcount(&a, &b));
    }
}
