//! The lane-per-output popcount microkernel — the **one** inner loop every
//! functional kernel path runs on.
//!
//! The paper's AP-BMMA primitive never reduces across lanes in software:
//! every element of the 8×8 accumulator fragment *is* one output, the K
//! reduction happens inside the primitive, and operands are laid out in
//! the fragment's shape (§4.2). [`popc_tile`] is the CPU form of that:
//!
//! * the **static** operand (the weights, in APMM and APConv alike) is an
//!   [`apnn_bitpack::LanePanel`] — eight rows interleaved word by word, so
//!   one 64-byte cell holds the `k`-th word of eight different outputs;
//! * the **dynamic** operand (batch rows for APMM, the windows of a block
//!   of output pixels for APConv — overlapping slices of its activation
//!   strip) arrives as *streams*: one packed row of one bit plane each,
//!   whose words are broadcast against the cells;
//! * one K pass per `(row group, stream block)` accumulates
//!   `popc(op(cell, word))` per lane, so it ends with eight finished counts
//!   per plane pair — no horizontal sum, no per-output call, no tile
//!   read-modify-write. The accumulators are registers; the pass itself is
//!   [`apnn_bitpack::popcnt`]'s kernel, instantiated per popcount arm.
//!
//! Every count is an exact integer, so **any** row-block width and any arm
//! is bit-identical to any other: tiling moves throughput, never results.
//! The differential proptests drive this across all emulation cases × block
//! sizes × arms × partial shards.

use apnn_bitpack::popcnt::{and_popcount_lanes, xor_popcount_lanes};
use apnn_bitpack::{BitPlanes, LanePanel, PopcntArm, LANES};
use apnn_sim::BmmaOp;

/// Maximum plane count per operand (codes are 1..=8 bits wide).
pub const MAX_PLANES: usize = 8;

/// Stack tile capacity in cells (one `[i32; LANES]` per plane pair per
/// dynamic row): a single dynamic row at maximal plane counts. Kernels
/// declare `[[i32; LANES]; MAX_TILE]` locals, slice them to the live
/// `pa·jb·pb` prefix, and narrow the row block when `pa·pb` is large
/// ([`crate::autotune::MicroTile::rows_for`]).
pub const MAX_TILE: usize = MAX_PLANES * MAX_PLANES;

/// Fill `xs` with the streams of rows `row0..row0 + jb` of a packed
/// operand, `[j][u]`-ordered (row-major over rows, then planes), and return
/// the stream count `jb · x.bits()`.
pub fn row_streams<'a>(x: &'a BitPlanes, row0: usize, jb: usize, xs: &mut [&'a [u64]]) -> usize {
    let pb = x.bits() as usize;
    for (r, slot) in xs[..jb * pb].iter_mut().enumerate() {
        *slot = x.plane((r % pb) as u32).row_words(row0 + r / pb);
    }
    jb * pb
}

/// The raw plane-pair popcounts of row group `g` of the static operand
/// against a block of dynamic streams, in one K pass per static plane:
///
/// `tile[s·n + r][lane] = Σ_k popc(op(W[s][LANES·g + lane][k], xs[r][k]))`
///
/// for every static plane `s` and stream `r < n = xs.len()` (streams are
/// `[j][u]`-ordered: dynamic row, then dynamic plane; a stream may run past
/// the panel's K extent — only its first `words_per_row` words are read).
/// Every cell is
/// stored, never accumulated into. Lanes past the operand's last row are
/// zero rows of the panel: they count 0 under AND and `popc(xs[r])` under
/// XOR, and the caller must not store them. The counts are exact, so the
/// caller's correction/shift-add step sees the same integers a per-output
/// reduction would produce.
///
/// `arm` names the kernel instantiation the pass runs on ([`PopcntArm`],
/// bound once per plan); every arm is bit-identical.
pub fn popc_tile(
    op: BmmaOp,
    arm: PopcntArm,
    w: &LanePanel,
    g: usize,
    xs: &[&[u64]],
    tile: &mut [[i32; LANES]],
) {
    assert_eq!(tile.len(), w.n_planes() * xs.len(), "tile mis-sized");
    if xs.is_empty() {
        return;
    }
    for (s, cells) in tile.chunks_exact_mut(xs.len()).enumerate() {
        match op {
            BmmaOp::And => and_popcount_lanes(arm, w.group(s, g), xs, cells),
            BmmaOp::Xor => xor_popcount_lanes(arm, w.group(s, g), xs, cells),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apnn_bitpack::Encoding;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn operand(rows: usize, k: usize, bits: u32, seed: &mut u64) -> BitPlanes {
        let codes: Vec<u32> = (0..rows * k)
            .map(|_| (lcg(seed) as u32) % (1 << bits))
            .collect();
        BitPlanes::from_codes(&codes, rows, k, bits, Encoding::ZeroOne)
    }

    /// The naive per-pair reference the microkernel must reproduce, pad
    /// lanes included (a zero weight row).
    fn naive_tile(
        op: BmmaOp,
        w: &BitPlanes,
        g: usize,
        x: &BitPlanes,
        j0: usize,
        jb: usize,
    ) -> Vec<[i32; LANES]> {
        let (pa, pb) = (w.bits(), x.bits());
        let zero_row = vec![0u64; w.plane(0).words_per_row()];
        let mut out = Vec::new();
        for s in 0..pa {
            for j in 0..jb {
                for u in 0..pb {
                    let b_row = x.plane(u).row_words(j0 + j);
                    out.push(std::array::from_fn(|lane| {
                        let i = g * LANES + lane;
                        let a_row = if i < w.rows() {
                            w.plane(s).row_words(i)
                        } else {
                            &zero_row
                        };
                        a_row
                            .iter()
                            .zip(b_row)
                            .map(|(&aw, &bw)| match op {
                                BmmaOp::And => (aw & bw).count_ones(),
                                BmmaOp::Xor => (aw ^ bw).count_ones(),
                            })
                            .sum::<u32>() as i32
                    }));
                }
            }
        }
        out
    }

    #[test]
    fn tile_matches_naive_for_every_block_shape() {
        let mut seed = 5;
        let (n, k) = (9, 300);
        for (p, q) in [(1u32, 1u32), (1, 2), (2, 2), (3, 5), (8, 8)] {
            let x = operand(n, k, q, &mut seed);
            // Ragged row counts: a lone partial group, exact groups, and a
            // partial group after full ones.
            for m in [1usize, 7, 8, 9, 17] {
                let w = operand(m, k, p, &mut seed);
                let panel = LanePanel::from_bitplanes(&w);
                for op in [BmmaOp::And, BmmaOp::Xor] {
                    for arm in PopcntArm::ALL {
                        for jb in [1usize, 2, 3, 8] {
                            let g = panel.groups() - 1;
                            let mut xs: [&[u64]; MAX_TILE] = [&[]; MAX_TILE];
                            let n_xs = row_streams(&x, 1, jb, &mut xs);
                            // Stale cells must be overwritten.
                            let mut tile = vec![[-7i32; LANES]; p as usize * n_xs];
                            popc_tile(op, arm, &panel, g, &xs[..n_xs], &mut tile);
                            assert_eq!(
                                tile,
                                naive_tile(op, &w, g, &x, 1, jb),
                                "w{p}a{q} m={m} {op:?} {arm:?} jb={jb}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn flat_view_matches_bitplanes_view() {
        // Overlapping slices of one flat buffer, each running on past the K
        // extent (how the conv strip presents a pixel block's windows), must
        // stream exactly like row views of the same words.
        let mut seed = 11;
        let (kw, step, n_px) = (6usize, 2usize, 4usize);
        let flat: Vec<u64> = (0..kw + step * (n_px - 1) + 3)
            .map(|_| lcg(&mut seed) << 31 ^ lcg(&mut seed))
            .collect();
        let panel = LanePanel::from_bitplanes(&operand(10, kw * 64, 2, &mut seed));

        let mut fs: [&[u64]; MAX_PLANES] = [&[]; MAX_PLANES];
        let mut rs: [&[u64]; MAX_PLANES] = [&[]; MAX_PLANES];
        for j in 0..n_px {
            fs[j] = &flat[j * step..];
            rs[j] = &flat[j * step..j * step + kw];
        }
        let mut t1 = vec![[0i32; LANES]; 2 * n_px];
        let mut t2 = t1.clone();
        for arm in PopcntArm::ALL {
            popc_tile(BmmaOp::And, arm, &panel, 1, &fs[..n_px], &mut t1);
            popc_tile(BmmaOp::And, arm, &panel, 1, &rs[..n_px], &mut t2);
            assert_eq!(t1, t2, "{arm:?}");
        }
        // The exact views are the rows of a BitPlanes operand holding the
        // same bits.
        let codes: Vec<u32> = rs[..n_px]
            .iter()
            .flat_map(|r| (0..kw * 64).map(|i| (r[i / 64] >> (i % 64)) as u32 & 1))
            .collect();
        let x = BitPlanes::from_codes(&codes, n_px, kw * 64, 1, Encoding::ZeroOne);
        let mut bs: [&[u64]; MAX_PLANES] = [&[]; MAX_PLANES];
        assert_eq!(row_streams(&x, 0, n_px, &mut bs), n_px);
        assert_eq!(bs[..n_px], rs[..n_px]);
    }
}
