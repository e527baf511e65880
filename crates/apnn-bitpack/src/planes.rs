//! Bit-plane decomposition and recombination (paper §3.1, Eq. 2).
//!
//! A `p`-bit matrix `W` of unsigned codes is split into `p` one-bit matrices
//! `W⁽ˢ⁾` with `w⁽ˢ⁾ᵢⱼ = (wᵢⱼ >> s) & 1`. The kernels then run `p·q` one-bit
//! BMMA operations and recombine partial products with shift-adds:
//! `Y = Σ_{s,t} 2^{s+t} · Y⁽ˢ'ᵗ⁾`.

use crate::bitmatrix::BitMatrix;
use crate::encoding::Encoding;

/// A matrix decomposed into bit planes, together with its logical shape and
/// the value encoding of the original operand.
#[derive(Debug, Clone)]
pub struct BitPlanes {
    planes: Vec<BitMatrix>,
    rows: usize,
    cols: usize,
    bits: u32,
    encoding: Encoding,
}

impl BitPlanes {
    /// Decompose row-major unsigned `codes` (shape `rows × cols`, each code
    /// `< 2^bits`) into `bits` one-bit planes.
    ///
    /// For [`Encoding::PlusMinusOne`], `bits` must be 1 and codes must be
    /// 0 (−1) or 1 (+1).
    pub fn from_codes(
        codes: &[u32],
        rows: usize,
        cols: usize,
        bits: u32,
        encoding: Encoding,
    ) -> Self {
        let mut planes = Self::zeros(0, 0, bits, encoding);
        planes.from_codes_into(codes, rows, cols, bits, encoding);
        planes
    }

    /// All-zero decomposition of the given logical shape — the
    /// pre-allocation primitive for workspace slots that are later rebuilt
    /// in place with [`BitPlanes::from_codes_into`].
    pub fn zeros(rows: usize, cols: usize, bits: u32, encoding: Encoding) -> Self {
        assert!((1..=8).contains(&bits), "supported plane counts are 1..=8");
        if encoding == Encoding::PlusMinusOne {
            assert_eq!(bits, 1, "±1 encoding is one bit wide");
        }
        BitPlanes {
            planes: (0..bits).map(|_| BitMatrix::zeros(rows, cols)).collect(),
            rows,
            cols,
            bits,
            encoding,
        }
    }

    /// Rebuild this decomposition **in place** from row-major unsigned
    /// `codes` (the borrowed-buffer variant of [`BitPlanes::from_codes`]):
    /// plane storage is reused, so once the operand has been built at its
    /// peak shape, later rebuilds — same `bits`, any `rows × cols` that fits
    /// the allocated capacity — perform **zero heap allocations**. Changing
    /// `bits` between calls restructures the plane list and may allocate.
    pub fn from_codes_into(
        &mut self,
        codes: &[u32],
        rows: usize,
        cols: usize,
        bits: u32,
        encoding: Encoding,
    ) {
        assert!((1..=8).contains(&bits), "supported plane counts are 1..=8");
        assert_eq!(codes.len(), rows * cols);
        if encoding == Encoding::PlusMinusOne {
            assert_eq!(bits, 1, "±1 encoding is one bit wide");
        }
        debug_assert!(
            bits == 32 || codes.iter().all(|&c| c < (1u32 << bits)),
            "codes exceed bit width"
        );
        // Empty matrices defer their allocation to the reshape below. The
        // transposer stores every word (padding included), all planes in
        // one pass over the codes, so the reshape skips the zeroing pass.
        self.planes
            .resize_with(bits as usize, || BitMatrix::zeros(0, 0));
        for plane in &mut self.planes {
            plane.reset_for_overwrite(rows, cols);
        }
        let wpr = self.planes[0].words_per_row();
        let dst = self.planes.iter_mut().map(BitMatrix::words_mut);
        crate::transpose::codes_to_planes(codes, cols, wpr, bits, dst);
        self.rows = rows;
        self.cols = cols;
        self.bits = bits;
        self.encoding = encoding;
    }

    /// Decompose signed values already restricted to `{−1, +1}`.
    pub fn from_signed_binary(values: &[i32], rows: usize, cols: usize) -> Self {
        assert_eq!(values.len(), rows * cols);
        let codes: Vec<u32> = values
            .iter()
            .map(|&v| {
                debug_assert!(v == -1 || v == 1, "signed binary values must be ±1");
                (v > 0) as u32
            })
            .collect();
        Self::from_codes(&codes, rows, cols, 1, Encoding::PlusMinusOne)
    }

    /// Number of planes (`p`).
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Logical rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Operand encoding.
    #[inline]
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Plane `s` (significance `2^s`).
    #[inline]
    pub fn plane(&self, s: u32) -> &BitMatrix {
        &self.planes[s as usize]
    }

    /// All planes, least significant first.
    #[inline]
    pub fn planes(&self) -> &[BitMatrix] {
        &self.planes
    }

    /// Reconstruct the unsigned codes (inverse of [`from_codes`]) — used by
    /// round-trip tests and by layers that need to unpack activations.
    ///
    /// [`from_codes`]: BitPlanes::from_codes
    pub fn reconstruct_codes(&self) -> Vec<u32> {
        let mut codes = vec![0u32; self.rows * self.cols];
        for (s, plane) in self.planes.iter().enumerate() {
            for r in 0..self.rows {
                for c in 0..self.cols {
                    if plane.get(r, c) {
                        codes[r * self.cols + c] |= 1 << s;
                    }
                }
            }
        }
        codes
    }

    /// Arithmetic values of the stored matrix under its encoding.
    pub fn values(&self) -> Vec<i32> {
        self.reconstruct_codes()
            .into_iter()
            .map(|c| self.encoding.code_value(c, self.bits))
            .collect()
    }
}

/// Combine per-plane BMMA partial outputs `partials[s][t]` (each `m·n` long,
/// row-major) into the final i32 output: `Y = Σ 2^{s+t} · Y⁽ˢ'ᵗ⁾`.
///
/// This is the reference (un-fused) form of the paper's *bit combination*
/// step; the memory-efficient fused form lives in the kernels crate.
pub fn combine_partials(partials: &[Vec<Vec<i32>>], m: usize, n: usize) -> Vec<i32> {
    let mut out = vec![0i32; m * n];
    for (s, row) in partials.iter().enumerate() {
        for (t, part) in row.iter().enumerate() {
            debug_assert_eq!(part.len(), m * n);
            let weight = 1i32 << (s + t);
            for (o, &p) in out.iter_mut().zip(part.iter()) {
                *o += weight * p;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompose_reconstruct_roundtrip() {
        let codes: Vec<u32> = (0..24).map(|i| (i * 7) % 8).collect();
        let planes = BitPlanes::from_codes(&codes, 4, 6, 3, Encoding::ZeroOne);
        assert_eq!(planes.bits(), 3);
        assert_eq!(planes.reconstruct_codes(), codes);
    }

    #[test]
    fn from_codes_extracts_each_plane() {
        // codes = [5, 2, 7] -> bit0 = [1,0,1], bit1 = [0,1,1], bit2 = [1,0,1]
        let planes = BitPlanes::from_codes(&[5, 2, 7], 1, 3, 3, Encoding::ZeroOne);
        let bits = |s: u32| {
            (0..3)
                .map(|c| planes.plane(s).get(0, c))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(0), [true, false, true]);
        assert_eq!(bits(1), [false, true, true]);
        assert_eq!(bits(2), [true, false, true]);
        assert!((0..3).all(|s| planes.plane(s).padding_is_zero()));
    }

    #[test]
    fn from_codes_into_overwrites_stale_words_at_every_shape() {
        // A slot full of ones at a big shape, rebuilt at several shapes:
        // every word (padding included) must equal a fresh build, with no
        // zeroing pass in between.
        let mut m = BitPlanes::from_codes(&[3; 5 * 300], 5, 300, 2, Encoding::ZeroOne);
        for (rows, cols) in [(5, 300), (2, 100), (4, 257), (5, 300)] {
            let codes: Vec<u32> = (0..rows * cols).map(|i| (i % 4) as u32).collect();
            m.from_codes_into(&codes, rows, cols, 2, Encoding::ZeroOne);
            let fresh = BitPlanes::from_codes(&codes, rows, cols, 2, Encoding::ZeroOne);
            assert_eq!(m.planes(), fresh.planes(), "{rows}x{cols}");
            assert!(m.planes().iter().all(BitMatrix::padding_is_zero));
        }
    }

    #[test]
    fn signed_binary_values() {
        let vals = [-1i32, 1, 1, -1];
        let planes = BitPlanes::from_signed_binary(&vals, 2, 2);
        assert_eq!(planes.encoding(), Encoding::PlusMinusOne);
        assert_eq!(planes.values(), vals);
    }

    #[test]
    fn combine_matches_scalar_shift_add() {
        // p=2, q=2, m=n=1: partials[s][t] = [v_st]
        let partials = vec![
            vec![vec![1], vec![2]], // s=0: t=0 -> 1*1, t=1 -> 2*2
            vec![vec![3], vec![4]], // s=1: t=0 -> 3*2, t=1 -> 4*4
        ];
        let y = combine_partials(&partials, 1, 1);
        assert_eq!(y, vec![1 + 4 + 6 + 16]);
    }

    #[test]
    fn from_codes_into_matches_fresh_build_across_shapes() {
        let mut reused = BitPlanes::zeros(4, 300, 2, Encoding::ZeroOne);
        // Peak shape, then smaller, then back — contents must always match
        // a fresh decomposition.
        for (rows, cols) in [(4, 300), (1, 100), (3, 257), (4, 300)] {
            let codes: Vec<u32> = (0..rows * cols).map(|i| (i % 4) as u32).collect();
            reused.from_codes_into(&codes, rows, cols, 2, Encoding::ZeroOne);
            let fresh = BitPlanes::from_codes(&codes, rows, cols, 2, Encoding::ZeroOne);
            assert_eq!(reused.rows(), rows);
            assert_eq!(reused.cols(), cols);
            assert_eq!(reused.reconstruct_codes(), fresh.reconstruct_codes());
            for s in 0..2 {
                assert!(reused.plane(s).padding_is_zero());
            }
        }
        // Signed rebuild through the same slot (bits drop to 1).
        reused.from_codes_into(&[0, 1, 1, 0], 2, 2, 1, Encoding::PlusMinusOne);
        assert_eq!(reused.values(), vec![-1, 1, 1, -1]);
    }

    #[test]
    fn zeros_matches_from_codes_of_zeros() {
        let z = BitPlanes::zeros(3, 70, 3, Encoding::ZeroOne);
        let f = BitPlanes::from_codes(&[0; 3 * 70], 3, 70, 3, Encoding::ZeroOne);
        assert_eq!(z.reconstruct_codes(), f.reconstruct_codes());
        assert_eq!(z.bits(), 3);
    }

    #[test]
    #[should_panic]
    fn plus_minus_one_requires_one_bit() {
        let codes = [0u32, 1, 2, 3];
        let _ = BitPlanes::from_codes(&codes, 2, 2, 2, Encoding::PlusMinusOne);
    }
}
