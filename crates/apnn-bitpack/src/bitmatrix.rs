//! Row-major bit-packed matrices padded to tensor-core fragment width.

use crate::word::{and_popcount, low_mask, pad_to_bmma_k, xor_popcount, WORD_BITS};

/// A dense binary matrix stored row-major with bit-packed rows.
///
/// Rows are padded to a multiple of 128 bits (the K granularity of the
/// `bmma.8x8x128` primitive). Padding bits are guaranteed to be zero — the
/// kernels rely on this: `AND` with a zero pad contributes nothing, and `XOR`
/// of two zero pads contributes nothing, so padded dot products stay exact as
/// long as *both* operands share this invariant.
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    padded_cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl std::fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("padded_cols", &self.padded_cols)
            .finish()
    }
}

impl BitMatrix {
    /// All-zero matrix of logical shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let padded_cols = pad_to_bmma_k(cols);
        let words_per_row = padded_cols / WORD_BITS;
        BitMatrix {
            rows,
            cols,
            padded_cols,
            words_per_row,
            data: vec![0u64; rows * words_per_row],
        }
    }

    /// Build from a bit-valued closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Reshape this matrix to `rows × cols` and zero every bit, **reusing
    /// the existing backing store**: when the new shape fits the already
    /// allocated capacity, no heap allocation happens. This is the
    /// steady-state rebuild primitive behind the workspace-reuse execution
    /// path.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        let padded_cols = pad_to_bmma_k(cols);
        let words_per_row = padded_cols / WORD_BITS;
        self.data.clear();
        self.data.resize(rows * words_per_row, 0);
        self.rows = rows;
        self.cols = cols;
        self.padded_cols = padded_cols;
        self.words_per_row = words_per_row;
    }

    /// [`BitMatrix::reset_zeros`] without the zeroing pass, for callers
    /// that immediately overwrite **every** word — in practice
    /// [`crate::BitPlanes::from_codes_into`], whose transposer stores each
    /// word (including padding words) exactly once. Any region grown beyond
    /// the previous length is zero-filled; surviving prefix words keep stale
    /// bits until the overwrite lands.
    pub fn reset_for_overwrite(&mut self, rows: usize, cols: usize) {
        let padded_cols = pad_to_bmma_k(cols);
        let words_per_row = padded_cols / WORD_BITS;
        let len = rows * words_per_row;
        self.data.truncate(len);
        self.data.resize(len, 0);
        self.rows = rows;
        self.cols = cols;
        self.padded_cols = padded_cols;
        self.words_per_row = words_per_row;
    }

    /// Logical row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical (unpadded) column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Column count after padding to the 128-bit fragment boundary.
    #[inline]
    pub fn padded_cols(&self) -> usize {
        self.padded_cols
    }

    /// Packed words per (padded) row.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Read one bit.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.rows && col < self.cols);
        let w = self.data[row * self.words_per_row + col / WORD_BITS];
        (w >> (col % WORD_BITS)) & 1 != 0
    }

    /// Write one bit. Panics (debug) outside the logical shape so the
    /// zero-padding invariant cannot be violated.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        debug_assert!(row < self.rows && col < self.cols);
        let word = &mut self.data[row * self.words_per_row + col / WORD_BITS];
        let mask = 1u64 << (col % WORD_BITS);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Packed words of one row (padded width).
    #[inline]
    pub fn row_words(&self, row: usize) -> &[u64] {
        debug_assert!(row < self.rows);
        &self.data[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// A sub-slice of one row's words: words `[word_off, word_off + n)`.
    /// Used by tiled kernels to address a `bk`-wide K-slice of a row.
    #[inline]
    pub fn row_word_slice(&self, row: usize, word_off: usize, n: usize) -> &[u64] {
        debug_assert!(row < self.rows);
        let base = row * self.words_per_row + word_off;
        debug_assert!(word_off + n <= self.words_per_row);
        &self.data[base..base + n]
    }

    /// Entire backing store (row-major, padded rows).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.data
    }

    /// The backing store, mutably, for a writer that stores every word —
    /// padding words as zeros — and so keeps the zero-padding invariant.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Number of set bits in row `row` (logical columns only — padding is
    /// zero by construction so the whole padded row can be counted).
    pub fn row_popcount(&self, row: usize) -> u32 {
        self.row_words(row).iter().map(|w| w.count_ones()).sum()
    }

    /// `popc(a_row & b_row)` — Case I / Case III inner product kernel.
    #[inline]
    pub fn and_popcount_rows(&self, row: usize, other: &BitMatrix, other_row: usize) -> u32 {
        debug_assert_eq!(self.padded_cols, other.padded_cols);
        and_popcount(self.row_words(row), other.row_words(other_row))
    }

    /// `popc(a_row ^ b_row)` — Case II inner product kernel.
    #[inline]
    pub fn xor_popcount_rows(&self, row: usize, other: &BitMatrix, other_row: usize) -> u32 {
        debug_assert_eq!(self.padded_cols, other.padded_cols);
        xor_popcount(self.row_words(row), other.row_words(other_row))
    }

    /// Per-column sums over all rows — the `J·X` correction vector needed by
    /// Case III (`WX = 2·ŴX − J·X`). Returns `cols` entries.
    pub fn column_sums(&self) -> Vec<i32> {
        let mut sums = vec![0i32; self.cols];
        for r in 0..self.rows {
            let words = self.row_words(r);
            for (c, sum) in sums.iter_mut().enumerate() {
                *sum += ((words[c / WORD_BITS] >> (c % WORD_BITS)) & 1) as i32;
            }
        }
        sums
    }

    /// Per-row popcounts — the `W·J` correction vector (row sums) used when
    /// the *activation* operand carries the ±1 encoding.
    pub fn row_sums(&self) -> Vec<i32> {
        (0..self.rows)
            .map(|r| self.row_popcount(r) as i32)
            .collect()
    }

    /// Check the zero-padding invariant (test/debug helper).
    pub fn padding_is_zero(&self) -> bool {
        for r in 0..self.rows {
            let words = self.row_words(r);
            // Bits in [cols, padded_cols) must be zero.
            let first_pad = self.cols;
            for bit in first_pad..self.padded_cols {
                if (words[bit / WORD_BITS] >> (bit % WORD_BITS)) & 1 != 0 {
                    return false;
                }
            }
            // Also assert no stray bits beyond padded_cols in the last word.
            let last_bits = self.padded_cols % WORD_BITS;
            if last_bits != 0 {
                let last = words[self.words_per_row - 1];
                if last & !low_mask(last_bits) != 0 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_padding() {
        let m = BitMatrix::zeros(3, 130);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 130);
        assert_eq!(m.padded_cols(), 256);
        assert_eq!(m.words_per_row(), 4);
        assert!(m.padding_is_zero());
    }

    #[test]
    fn zero_cols_gets_one_fragment() {
        let m = BitMatrix::zeros(2, 0);
        assert_eq!(m.padded_cols(), 128);
        assert_eq!(m.words_per_row(), 2);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = BitMatrix::zeros(4, 100);
        m.set(0, 0, true);
        m.set(3, 99, true);
        m.set(2, 63, true);
        m.set(2, 64, true);
        assert!(m.get(0, 0));
        assert!(m.get(3, 99));
        assert!(m.get(2, 63));
        assert!(m.get(2, 64));
        assert!(!m.get(1, 50));
        m.set(2, 64, false);
        assert!(!m.get(2, 64));
        assert!(m.padding_is_zero());
    }

    #[test]
    fn and_xor_row_popcounts() {
        let a = BitMatrix::from_fn(2, 10, |_, c| c % 2 == 0); // 5 bits set
        let b = BitMatrix::from_fn(2, 10, |_, c| c < 5); // bits 0..5
                                                         // AND: even cols below 5 -> {0,2,4} = 3
        assert_eq!(a.and_popcount_rows(0, &b, 1), 3);
        // XOR: {1,3, 6,8} ... even>=5: {6,8}; odd<5: {1,3} => 4
        assert_eq!(a.xor_popcount_rows(0, &b, 0), 4);
    }

    #[test]
    fn column_and_row_sums() {
        let m = BitMatrix::from_fn(3, 4, |r, c| r == c);
        assert_eq!(m.column_sums(), vec![1, 1, 1, 0]);
        assert_eq!(m.row_sums(), vec![1, 1, 1]);
    }

    #[test]
    fn reset_zeros_reuses_capacity_and_keeps_invariants() {
        let mut m = BitMatrix::from_fn(4, 200, |r, c| (r + c) % 3 == 0);
        let ptr = m.words().as_ptr();
        // Shrinking reshape: same backing store, all bits cleared.
        m.reset_zeros(2, 130);
        assert_eq!((m.rows(), m.cols(), m.padded_cols()), (2, 130, 256));
        assert!(m.words().iter().all(|&w| w == 0));
        assert_eq!(m.words().as_ptr(), ptr, "shrink must not reallocate");
        assert_eq!(m, BitMatrix::zeros(2, 130));
        // Growing back to the original shape clears the rows it regains.
        m.reset_zeros(4, 200);
        assert_eq!(m, BitMatrix::zeros(4, 200));
        assert!(m.padding_is_zero());
    }

    #[test]
    fn row_word_slice_addresses_k_tiles() {
        let mut m = BitMatrix::zeros(1, 256);
        m.set(0, 128, true);
        let tile0 = m.row_word_slice(0, 0, 2);
        let tile1 = m.row_word_slice(0, 2, 2);
        assert_eq!(tile0, &[0, 0]);
        assert_eq!(tile1[0] & 1, 1);
    }
}
