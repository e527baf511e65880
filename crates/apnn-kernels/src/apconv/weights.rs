//! Packed convolution weights: the fragment-aligned implicit-GEMM row
//! layout ([`ConvWeights::planes`] — the canonical packed form, what
//! `im2row` and the simulator read), the per-tap popcount tables of the
//! input-aware padding, and the column- or window-dense lane panel the CPU
//! kernel runs on ([`ConvWeights::lane_panel`]), built from the planes once
//! per `prepare`.

use apnn_bitpack::{BitPlanes, Encoding, LanePanel, LANES};

use super::ConvDesc;

/// Convolution weights decomposed into bit planes and packed so that row
/// `c_out` of each plane is the implicit-GEMM K vector: `KH·KW` channel
/// segments, each padded to the 128-bit fragment boundary (matching the
/// NPHWC activation layout word for word — what `im2row` and the simulator
/// read; the CPU kernel runs on [`ConvWeights::lane_panel`]).
#[derive(Debug, Clone)]
pub struct ConvWeights {
    planes: BitPlanes,
    popc: TapPopc,
}

/// Per-tap weight popcounts — the correction tables of the input-aware
/// padding (§4.2(b)) for ±1 encodings — stored flat with the output channel
/// innermost and padded to whole lane groups, so the kernel reads the eight
/// channels of a row group as one contiguous `[i32; LANES]`.
#[derive(Debug, Clone)]
pub(crate) struct TapPopc {
    /// `[s][tap][co]`: popcount of plane `s`, row `co`, window tap `tap`.
    seg: Vec<i32>,
    /// `[s][co]`: popcount of plane `s`, row `co`, all taps.
    row: Vec<i32>,
    /// `co` stride of both tables: `cout` rounded up to whole groups.
    lanes: usize,
    cout: usize,
    taps: usize,
    cin: usize,
    padded_c: usize,
}

impl TapPopc {
    /// Tap `tap` popcounts of plane `s` for the channels of row group `g`.
    #[inline]
    pub(crate) fn seg_lanes(&self, s: usize, tap: usize, g: usize) -> &[i32] {
        let base = (s * self.taps + tap) * self.lanes + g * LANES;
        &self.seg[base..base + LANES]
    }

    /// Whole-row popcounts of plane `s` for the channels of row group `g`.
    #[inline]
    pub(crate) fn row_lanes(&self, s: usize, g: usize) -> &[i32] {
        let base = s * self.lanes + g * LANES;
        &self.row[base..base + LANES]
    }

    /// `(cout, taps, cin, padded_c)`.
    pub(crate) fn dims(&self) -> (usize, usize, usize, usize) {
        (self.cout, self.taps, self.cin, self.padded_c)
    }

    /// Row groups the tables cover: `cout` rounded up to whole groups.
    pub(crate) fn groups(&self) -> usize {
        self.lanes / LANES
    }
}

impl ConvWeights {
    /// Pack weights given as unsigned codes in `(cout, kh, kw, cin)` order.
    ///
    /// For [`Encoding::PlusMinusOne`] the codes must be 0 (−1) / 1 (+1) and
    /// `bits` must be 1.
    pub fn from_codes(desc: &ConvDesc, codes: &[u32]) -> Self {
        assert_eq!(codes.len(), desc.cout * desc.kh * desc.kw * desc.cin);
        let (cout, cin, padded_c) = (desc.cout, desc.cin, desc.padded_c());
        let taps = desc.kh * desc.kw;
        let k_bits = desc.k_bits();

        // Spread each tap's channel codes to its fragment-aligned segment,
        // then decompose into planes.
        let mut seg_codes = vec![0u32; cout * k_bits];
        for (src, dst) in codes
            .chunks_exact(cin)
            .zip(seg_codes.chunks_exact_mut(padded_c))
        {
            dst[..cin].copy_from_slice(src);
        }
        let planes = BitPlanes::from_codes(&seg_codes, cout, k_bits, desc.w_bits, desc.w_enc);

        // Channel padding is zero, so a tap's popcount is its words'.
        let (words_per_tap, lanes) = (padded_c / 64, cout.div_ceil(LANES) * LANES);
        let p = desc.w_bits as usize;
        let mut seg = vec![0i32; p * taps * lanes];
        let mut row = vec![0i32; p * lanes];
        for (s, plane) in planes.planes().iter().enumerate() {
            for co in 0..cout {
                for (tap, words) in plane.row_words(co).chunks_exact(words_per_tap).enumerate() {
                    let popc = apnn_bitpack::word::popcount(words) as i32;
                    seg[(s * taps + tap) * lanes + co] = popc;
                    row[s * lanes + co] += popc;
                }
            }
        }

        ConvWeights {
            planes,
            popc: TapPopc {
                seg,
                row,
                lanes,
                cout,
                taps,
                cin,
                padded_c,
            },
        }
    }

    /// Pack ±1 weights given as values in `(cout, kh, kw, cin)` order.
    pub fn from_signed(desc: &ConvDesc, values: &[i32]) -> Self {
        assert_eq!(desc.w_enc, Encoding::PlusMinusOne);
        let codes: Vec<u32> = values
            .iter()
            .map(|&v| {
                debug_assert!(v == -1 || v == 1);
                (v > 0) as u32
            })
            .collect();
        Self::from_codes(desc, &codes)
    }

    /// The packed planes (rows = cout, cols = segmented K bits).
    #[inline]
    pub fn planes(&self) -> &BitPlanes {
        &self.planes
    }

    /// The weights as the CPU kernel's lane panel. K runs over the `kw`
    /// kernel columns, [`ConvDesc::col_pitch`] bits apart: K bit
    /// `kx·col_pitch + ky·cin + c` holds tap `(ky, kx)`'s channel `c` — the
    /// order the activation strip presents a window in — so neither the
    /// fragment padding of [`ConvWeights::planes`] nor the unused high bits
    /// of a short channel vector (zero in both operands) take up K, and
    /// under a window-dense layout ([`ConvDesc::window_dense`]) neither do a
    /// column's rounding bits.
    pub fn lane_panel(&self, desc: &ConvDesc) -> LanePanel {
        let (cout, taps, cin, _) = self.dims();
        assert_eq!(
            (cout, taps, cin),
            (desc.cout, desc.kh * desc.kw, desc.cin),
            "weights were packed for another layer"
        );
        let (pitch, col_bits, wpt) = (desc.col_pitch(), desc.kh * cin, self.words_per_tap());
        let k_bits = desc.kw * pitch;
        LanePanel::from_fn(desc.w_bits as usize, cout, desc.k_words(), |s, co, k| {
            // Word `k` holds K bits `lo..hi`, gathered a tap's run of
            // channels at a time; a column's rounding bits stay zero.
            let (lo, hi) = (64 * k, (64 * k + 64).min(k_bits));
            let row = self.planes.plane(s as u32).row_words(co);
            let (mut word, mut at) = (0u64, lo);
            while at < hi {
                let (kx, in_col) = (at / pitch, at % pitch);
                if in_col >= col_bits {
                    at = (kx + 1) * pitch;
                    continue;
                }
                let (ky, c) = (in_col / cin, in_col % cin);
                let n = (cin - c).min(hi - at);
                let tap = &row[(ky * desc.kw + kx) * wpt..][..wpt];
                word |= bit_field(tap, c, n) << (at - lo);
                at += n;
            }
            word
        })
    }

    /// The per-tap popcount tables.
    #[inline]
    pub(crate) fn popc(&self) -> &TapPopc {
        &self.popc
    }

    /// Popcount of plane `s`, output row `cout`, window tap `tap`.
    #[inline]
    pub fn seg_popc(&self, s: u32, cout: usize, tap: usize) -> i32 {
        self.popc.seg[(s as usize * self.popc.taps + tap) * self.popc.lanes + cout]
    }

    /// Total popcount of plane `s`, row `cout` (all taps).
    #[inline]
    pub fn row_popc(&self, s: u32, cout: usize) -> i32 {
        self.popc.row[s as usize * self.popc.lanes + cout]
    }

    /// Words per channel segment (= `padded_c / 64`).
    #[inline]
    pub fn words_per_tap(&self) -> usize {
        self.popc.padded_c / 64
    }

    /// `(cout, taps, cin, padded_c)`.
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        self.popc.dims()
    }

    /// Packed footprint in bytes (for dataflow accounting).
    pub fn packed_bytes(&self) -> usize {
        self.planes
            .planes()
            .iter()
            .map(|p| p.rows() * p.words_per_row() * 8)
            .sum()
    }
}

/// Bits `at..at + n` (`n ≤ 64`) of the bit string packed in `words`.
fn bit_field(words: &[u64], at: usize, n: usize) -> u64 {
    let (wi, bi) = (at / 64, at % 64);
    let mut field = words[wi] >> bi;
    if bi + n > 64 {
        field |= words[wi + 1] << (64 - bi);
    }
    field & apnn_bitpack::word::low_mask(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_desc() -> ConvDesc {
        ConvDesc::unsigned(1, 3, 4, 2, 3, 1, 1, 2, 1)
    }

    #[test]
    fn segmented_layout_roundtrip() {
        let desc = small_desc();
        let n = desc.cout * desc.kh * desc.kw * desc.cin;
        let codes: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
        let w = ConvWeights::from_codes(&desc, &codes);
        let (cout, taps, cin, padded_c) = w.dims();
        assert_eq!((cout, taps, cin, padded_c), (2, 9, 3, 128));
        // Check each bit landed at tap*padded_c + ci.
        for co in 0..cout {
            for tap in 0..taps {
                for ci in 0..cin {
                    let code = codes[(co * taps + tap) * cin + ci];
                    for s in 0..desc.w_bits {
                        assert_eq!(
                            w.planes().plane(s).get(co, tap * padded_c + ci),
                            (code >> s) & 1 != 0
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lane_panel_is_the_planes_in_kx_ky_word_order_without_dead_words() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        // Ragged cout (pad lanes), oblong kernels, channel counts either
        // side of the word and fragment boundaries — whole-word channels
        // included, where a column is its taps' words back to back — and
        // windows under a word's worth of columns, packed window-dense.
        for (cout, kh, kw, cin, p) in [
            (2usize, 3usize, 3usize, 3usize, 2u32),
            (5, 5, 5, 3, 1),
            (9, 4, 4, 3, 2),
            (3, 2, 5, 7, 1),
            (4, 1, 5, 1, 1),
            (6, 3, 1, 3, 1),
            (9, 3, 3, 16, 1),
            (5, 5, 5, 24, 1),
            (9, 1, 1, 64, 1),
            (13, 3, 5, 65, 2),
            (17, 5, 3, 130, 3),
            (8, 3, 3, 200, 1),
            (8, 3, 2, 128, 2),
        ] {
            let mut desc = ConvDesc::unsigned(1, cin, 8, cout, kh, 1, 1, p, 1);
            desc.kw = kw;
            let codes: Vec<u32> = (0..cout * kh * kw * cin)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    (seed >> 40) as u32 & ((1 << p) - 1)
                })
                .collect();
            let w = ConvWeights::from_codes(&desc, &codes);
            let panel = w.lane_panel(&desc);
            // Whole columns of `cw` words, or — under a word, when that
            // saves words — columns `kh·cin` bits apart.
            let cw = (kh * cin).div_ceil(64);
            let dense = cw == 1 && (kh * kw * cin).div_ceil(64) < kw;
            let pitch = if dense { kh * cin } else { 64 * cw };
            let k_words = (kw * pitch).div_ceil(64);
            assert_eq!(desc.window_dense(), dense, "{desc:?}");
            assert_eq!(
                (panel.n_planes(), panel.rows(), panel.words_per_row()),
                (p as usize, cout, k_words)
            );
            let wpt = w.words_per_tap();
            for s in 0..p as usize {
                for row in 0..panel.groups() * LANES {
                    // K bit `kx·pitch + ky·cin + c` is the code bit of tap
                    // `(ky, kx)`, channel `c`; every other bit — a column's
                    // pad bits, a pad lane — is zero.
                    let mut live = 0;
                    for (kx, ky, c) in (0..kw).flat_map(|kx| {
                        (0..kh).flat_map(move |ky| (0..cin).map(move |c| (kx, ky, c)))
                    }) {
                        let at = kx * pitch + ky * cin + c;
                        let got = panel.row_word(s, row, at / 64) >> (at % 64) & 1;
                        let want = row < cout
                            && codes[((row * kh + ky) * kw + kx) * cin + c] >> s & 1 != 0;
                        assert_eq!(got != 0, want, "{desc:?} row {row} tap ({ky},{kx}) ch {c}");
                        live += got;
                    }
                    let total: u32 = (0..k_words)
                        .map(|k| panel.row_word(s, row, k).count_ones())
                        .sum();
                    assert_eq!(u64::from(total), live, "{desc:?} row {row}: dead bits set");
                    // Whole-word channels: the column is the taps' live
                    // words in `ky` order, untouched.
                    if cin % 64 == 0 && row < cout {
                        let l = cin / 64;
                        for (kx, ky, j) in (0..kw).flat_map(|kx| {
                            (0..kh).flat_map(move |ky| (0..l).map(move |j| (kx, ky, j)))
                        }) {
                            assert_eq!(
                                panel.row_word(s, row, kx * cw + ky * l + j),
                                w.planes().plane(s as u32).row_words(row)[(ky * kw + kx) * wpt + j]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn seg_popc_counts_bits_per_tap() {
        let desc = small_desc();
        let n = desc.cout * desc.kh * desc.kw * desc.cin;
        // All-ones codes: every tap popc = cin on plane 0 and 1 (code 3).
        let codes = vec![3u32; n];
        let w = ConvWeights::from_codes(&desc, &codes);
        for co in 0..2 {
            for tap in 0..9 {
                assert_eq!(w.seg_popc(0, co, tap), 3);
                assert_eq!(w.seg_popc(1, co, tap), 3);
            }
            assert_eq!(w.row_popc(0, co), 27);
        }
    }

    #[test]
    fn signed_weights_store_hat_bits() {
        let mut desc = small_desc();
        desc.w_bits = 1;
        desc.w_enc = Encoding::PlusMinusOne;
        let n = desc.cout * desc.kh * desc.kw * desc.cin;
        let values: Vec<i32> = (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        let w = ConvWeights::from_signed(&desc, &values);
        // Stored bit is (v+1)/2 — exactly Ŵ of Case III.
        assert!(w.planes().plane(0).get(0, 0));
        assert!(!w.planes().plane(0).get(0, 1));
        assert_eq!(w.planes().encoding(), Encoding::PlusMinusOne);
    }
}
