//! The one bit-plane transposer (Eq. 2, `x⁽ᵗ⁾ = (x >> t) & 1`) behind
//! `BitPlanes::from_codes{,_into}` and `BitTensor4::pack_row`. Eight codes
//! (each `< 2⁸`) are gathered into a `u64`, one per byte; plane `t`'s eight
//! bits are then `((v >> t) & 0x0101…01) · 0x0102_0408_1020_4080 >> 56`.
//! Multiplier byte `j` is `2^(7−j)`, so byte `i`'s low bit times byte `j`
//! lands on bit `8i + 7j + 7` — bit `56 + i` where `i + j = 7` — and no two
//! partial products share a bit: nothing carries into the top byte.

use crate::word::WORD_BITS;

const BYTE_LSBS: u64 = 0x0101_0101_0101_0101;
const GATHER: u64 = 0x0102_0408_1020_4080;

/// Transpose `codes` — runs of `len` codes, each `< 2^bits` — into `dst`,
/// one slice per plane, least significant first: run `r`'s plane `t` is
/// `dst[t][r·wpr ..][.. wpr]`, code `i` at bit `i % 64` of word `i / 64`.
/// Every word is stored, those past the run's codes as zero, so old
/// contents never matter and padding is zero by construction.
pub(crate) fn codes_to_planes<'a>(
    codes: &[u32],
    len: usize,
    wpr: usize,
    bits: u32,
    dst: impl Iterator<Item = &'a mut [u64]>,
) {
    match bits {
        1 => runs::<1>(codes, len, wpr, dst),
        2 => runs::<2>(codes, len, wpr, dst),
        3 => runs::<3>(codes, len, wpr, dst),
        4 => runs::<4>(codes, len, wpr, dst),
        5 => runs::<5>(codes, len, wpr, dst),
        6 => runs::<6>(codes, len, wpr, dst),
        7 => runs::<7>(codes, len, wpr, dst),
        8 => runs::<8>(codes, len, wpr, dst),
        bits => unreachable!("codes have 1–8 planes, not {bits}"),
    }
}

/// [`codes_to_planes`] at a compile-time plane count, so a word's planes
/// are registers and the per-plane extraction unrolls.
fn runs<'a, const BITS: usize>(
    codes: &[u32],
    len: usize,
    wpr: usize,
    mut dst: impl Iterator<Item = &'a mut [u64]>,
) {
    let mut planes: [&mut [u64]; BITS] =
        std::array::from_fn(|_| dst.next().expect("one destination slice per plane"));
    let runs = planes[0].len() / wpr;
    assert!(
        len <= wpr * WORD_BITS
            && codes.len() == runs * len
            && planes.iter().all(|p| p.len() == runs * wpr),
        "one run of codes per `wpr` words of every plane"
    );
    for r in 0..runs {
        let mut chunks = codes[r * len..(r + 1) * len].chunks(WORD_BITS);
        for j in r * wpr..(r + 1) * wpr {
            let words = chunks.next().map_or([0; BITS], plane_words::<BITS>);
            for (plane, word) in planes.iter_mut().zip(words) {
                plane[j] = word;
            }
        }
    }
}

/// One word per plane from up to 64 codes: bit `i` of word `t` is bit `t`
/// of `codes[i]`. Whole groups of eight are fixed-length (the gather
/// unrolls); a ragged group is gathered in a register too, since bytes
/// stored one by one and reloaded as a word stall on store forwarding.
#[inline(always)]
fn plane_words<const BITS: usize>(codes: &[u32]) -> [u64; BITS] {
    let mut words = [0; BITS];
    let mut add_group = |g: usize, group: &[u32]| {
        let v = (group.iter().enumerate()).fold(0, |v, (i, &c)| v | u64::from(c as u8) << (8 * i));
        for (t, word) in words.iter_mut().enumerate() {
            *word |= (((v >> t) & BYTE_LSBS).wrapping_mul(GATHER) >> 56) << (8 * g);
        }
    };
    let mut groups = codes.chunks_exact(8);
    for (g, eight) in (&mut groups).enumerate() {
        add_group(g, <&[u32; 8]>::try_from(eight).expect("groups of eight"));
    }
    if !groups.remainder().is_empty() {
        add_group(codes.len() / 8, groups.remainder());
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::pad_to_bmma_k;

    /// The per-bit definition the transposer must equal: plane `t` of run
    /// `r` holds bit `t` of code `i` at bit `i` of its row, nothing else.
    fn per_bit(codes: &[u32], runs: usize, len: usize, wpr: usize, bits: u32) -> Vec<Vec<u64>> {
        let mut planes = vec![vec![0u64; runs * wpr]; bits as usize];
        for (t, plane) in planes.iter_mut().enumerate() {
            for (k, &code) in codes.iter().enumerate() {
                let (r, i) = (k / len, k % len);
                plane[r * wpr + i / WORD_BITS] |= u64::from((code >> t) & 1) << (i % WORD_BITS);
            }
        }
        planes
    }

    #[test]
    fn every_code_in_every_lane_and_group_equals_the_per_bit_definition() {
        // Over `2^bits` rotations, position `i` of a run holds every code
        // `< 2^bits` once, beside neighbours that differ — so every code
        // meets every byte lane, every group of a word, the ragged last
        // group and the words after a 64-code boundary, at every run length
        // up to three words, fragment padding included. The destination
        // starts all ones: every word must be stored, not OR-merged.
        for bits in 1u32..=8 {
            let n_codes = 1u32 << bits;
            for len in 0..=130usize {
                let wpr = pad_to_bmma_k(len) / WORD_BITS;
                for rot in 0..n_codes {
                    // Two runs with different strides, so a run that bleeds
                    // into its neighbour's words shows.
                    let codes: Vec<u32> = (0..2 * len as u32)
                        .map(|k| {
                            let i = k % len.max(1) as u32;
                            let step = if k < len as u32 {
                                i + rot
                            } else {
                                3 * i + rot + 1
                            };
                            step % n_codes
                        })
                        .collect();
                    let mut got = vec![vec![u64::MAX; 2 * wpr]; bits as usize];
                    codes_to_planes(
                        &codes,
                        len,
                        wpr,
                        bits,
                        got.iter_mut().map(Vec::as_mut_slice),
                    );
                    assert_eq!(
                        got,
                        per_bit(&codes, 2, len, wpr, bits),
                        "bits={bits} len={len} rotation={rot}"
                    );
                }
            }
        }
    }
}
