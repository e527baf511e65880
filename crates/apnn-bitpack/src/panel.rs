//! The lane-interleaved weight panel — the CPU analogue of the paper's
//! "specialized memory organization" (§4.2): the static operand laid out in
//! the shape the compute primitive consumes it.
//!
//! A `bmma` accumulator fragment holds one output per element and reduces
//! over K inside the primitive. The CPU form of that is a vector whose
//! [`LANES`] lanes are [`LANES`] *different outputs*: per K word the kernel
//! loads one vector of eight weight rows' words, combines it with one
//! broadcast activation word and adds the per-lane popcounts — so the K pass
//! ends with the counts already one per lane and no horizontal reduction.
//! That needs the eight rows' `k`-th words adjacent in memory:
//!
//! `plane(s)[(g·kw + k)·LANES + lane] = row(LANES·g + lane).word(k)`
//!
//! with the row count zero-padded up to a multiple of [`LANES`]. One cell —
//! `LANES` words, 64 bytes — is one cache line, one zmm, two ymm or four
//! NEON q registers, so the same layout serves every arm.

use crate::planes::BitPlanes;

/// Rows interleaved per panel cell (= outputs produced per vector).
pub const LANES: usize = 8;

/// A [`BitPlanes`] operand re-laid out for the lane-per-output popcount
/// kernel ([`crate::popcnt::finish_lanes`]); see the module docs for
/// the layout. Built once per weight operand, word by word
/// ([`LanePanel::from_fn`]).
#[derive(Debug, Clone)]
pub struct LanePanel {
    /// `[plane][group][k][lane]`, flat.
    words: Vec<u64>,
    n_planes: usize,
    rows: usize,
    words_per_row: usize,
}

impl LanePanel {
    /// Build a panel word by word: `word(plane, row, k)` is word `k` of
    /// logical row `row` — the one constructor, so a caller states its K
    /// order as a function and never touches the interleave (pad lanes stay
    /// zero).
    pub fn from_fn(
        n_planes: usize,
        rows: usize,
        words_per_row: usize,
        word: impl Fn(usize, usize, usize) -> u64,
    ) -> Self {
        let groups = rows.div_ceil(LANES);
        let mut words = vec![0u64; n_planes * groups * words_per_row * LANES];
        let planes = words.chunks_exact_mut((groups * words_per_row * LANES).max(1));
        for (plane, dst) in planes.enumerate() {
            for row in 0..rows {
                let (g, lane) = (row / LANES, row % LANES);
                for k in 0..words_per_row {
                    dst[(g * words_per_row + k) * LANES + lane] = word(plane, row, k);
                }
            }
        }
        LanePanel {
            words,
            n_planes,
            rows,
            words_per_row,
        }
    }

    /// Interleave the rows of every plane of `p`, [`LANES`] at a time, in
    /// their packed K order.
    pub fn from_bitplanes(p: &BitPlanes) -> Self {
        let kw = p.plane(0).words_per_row();
        Self::from_fn(p.bits() as usize, p.rows(), kw, |plane, row, k| {
            p.plane(plane as u32).row_words(row)[k]
        })
    }

    /// Plane count.
    #[inline]
    pub fn n_planes(&self) -> usize {
        self.n_planes
    }

    /// Logical (unpadded) row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row groups: `rows` rounded up to whole cells.
    #[inline]
    pub fn groups(&self) -> usize {
        self.rows.div_ceil(LANES)
    }

    /// Packed words per row (the K extent).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The `words_per_row` cells of row group `g` in `plane`.
    #[inline]
    pub fn group(&self, plane: usize, g: usize) -> &[u64] {
        let len = self.words_per_row * LANES;
        let base = (plane * self.groups() + g) * len;
        &self.words[base..base + len]
    }

    /// Word `k` of `row` in `plane` (`row` may index a zero pad lane).
    pub fn row_word(&self, plane: usize, row: usize, k: usize) -> u64 {
        self.group(plane, row / LANES)[k * LANES + row % LANES]
    }

    /// Per-row popcounts of `plane`, one entry per lane of every group (pad
    /// lanes count zero) — the `W·J` correction vector of §3.2, indexed the
    /// way the kernel produces outputs.
    pub fn row_sums(&self, plane: usize) -> Vec<i32> {
        let mut sums = vec![0i32; self.groups() * LANES];
        for (g, lanes) in sums.chunks_exact_mut(LANES).enumerate() {
            for cell in self.group(plane, g).chunks_exact(LANES) {
                for (sum, w) in lanes.iter_mut().zip(cell) {
                    *sum += w.count_ones() as i32;
                }
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoding;

    #[test]
    fn interleave_round_trips_and_pad_lanes_are_zero() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for m in 1..=17usize {
            for kw in [1usize, 2, 9, 16, 17] {
                for bits in [1u32, 2, 8] {
                    // Full-width rows, so every word of every row is live.
                    let k = kw * 64;
                    let codes: Vec<u32> = (0..m * k)
                        .map(|_| {
                            seed ^= seed << 13;
                            seed ^= seed >> 7;
                            seed ^= seed << 17;
                            (seed >> 40) as u32 & ((1 << bits) - 1)
                        })
                        .collect();
                    let src = BitPlanes::from_codes(&codes, m, k, bits, Encoding::ZeroOne);
                    let kw_padded = src.plane(0).words_per_row();
                    let panel = LanePanel::from_bitplanes(&src);
                    assert_eq!(
                        (panel.rows(), panel.groups(), panel.words_per_row()),
                        (m, m.div_ceil(LANES), kw_padded)
                    );
                    for s in 0..bits as usize {
                        let plane = src.plane(s as u32);
                        for row in 0..panel.groups() * LANES {
                            for k in 0..kw_padded {
                                let want = if row < m { plane.row_words(row)[k] } else { 0 };
                                assert_eq!(
                                    panel.row_word(s, row, k),
                                    want,
                                    "m={m} kw={kw} bits={bits} plane {s} row {row} word {k}"
                                );
                            }
                        }
                        // A permuted K order is just a different word function.
                        let rev = LanePanel::from_fn(bits as usize, m, kw_padded, |s, row, k| {
                            src.plane(s as u32).row_words(row)[kw_padded - 1 - k]
                        });
                        for (row, k) in (0..m).flat_map(|r| (0..kw_padded).map(move |k| (r, k))) {
                            assert_eq!(
                                rev.row_word(s, row, k),
                                panel.row_word(s, row, kw_padded - 1 - k)
                            );
                        }
                        let sums = panel.row_sums(s);
                        assert_eq!(&sums[..m], &plane.row_sums()[..]);
                        assert!(sums[m..].iter().all(|&v| v == 0));
                    }
                }
            }
        }
    }
}
