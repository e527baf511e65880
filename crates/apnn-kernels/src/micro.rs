//! The lane-per-output popcount microkernel — the **one** inner loop every
//! functional kernel path runs on.
//!
//! The paper's AP-BMMA primitive never reduces across lanes in software and
//! never writes a partial plane product out: every element of the 8×8
//! accumulator fragment *is* one output, the K reduction happens inside the
//! primitive, operands are laid out in the fragment's shape (§4.2), and the
//! §3.2 correction and the shift-add bit combination run on the fragment
//! before its one store (§4.1(b)). [`apnn_bitpack::popcnt::finish_lanes`]
//! is the CPU form of that, and the single entry APMM, APConv and the
//! [`crate::autotune::stage_cost`] probe call:
//!
//! * the **static** operand (the weights, in APMM and APConv alike) is an
//!   [`apnn_bitpack::LanePanel`] — eight rows interleaved word by word, so
//!   one 64-byte cell holds the `k`-th word of eight different outputs;
//! * the **dynamic** operand arrives as *streams*, one packed row of one
//!   bit plane each, whose words are broadcast against the cells — all
//!   addressed one way ([`apnn_bitpack::popcnt::Affine`]): stream `(t, j)`
//!   starts `j·step` words past `first` in plane `t`, so a pass checks its
//!   extent once and reads stream `i`'s word `k` at `i·step + k`. For APMM
//!   the rows of a batch block (`step` = the row pitch); for APConv the
//!   windows of a block of output pixels — overlapping column slices of the
//!   activation strip (`step = stride·col_words`), or, for a window-dense
//!   stem, back-to-back windows (`step = k_words`);
//! * a block of ≤ 8 outputs walks **every** plane pair: one K pass per
//!   pair accumulates `popc(op(cell, word))` per lane and joins the
//!   outputs' 64-bit totals shifted by `s + t`, and the block **ends in one
//!   finish per output** ([`crate::select::EmulationPlan::finish`]):
//!   multiply the total by the case's popcount coefficient, add the
//!   offset's weight side (per lane, fixed at `prepare` for every class of
//!   output) and activation side (per output) — both folded over the plane
//!   pairs ([`crate::select::fold_planes`]) — halve, and store the output's
//!   eight lanes. No raw count reaches memory, no horizontal sum, no
//!   per-output call; the accumulators are registers and the body itself is
//!   [`apnn_bitpack::popcnt`]'s kernel, instantiated per popcount arm.
//!
//! Every finished lane is the exact integer the scalar spec
//! ([`crate::select::adjust_partial`], shift-added over the plane pairs) produces,
//! so **any** row-block width and any arm is bit-identical to any other:
//! tiling moves throughput, never results. The differential proptests drive
//! this across all emulation cases × block sizes × arms × partial shards.

/// Maximum plane count per operand (codes are 1..=8 bits wide).
pub const MAX_PLANES: usize = 8;

#[cfg(test)]
mod tests {
    use crate::autotune::MAX_JB;
    use crate::select::{adjust_partial, fold_planes, plan, plan_xor_only, EmulationPlan};
    use apnn_bitpack::popcnt::{finish_lanes, Affine, Finish};
    use apnn_bitpack::{BitPlanes, Encoding, LanePanel, PopcntArm, LANES};
    use apnn_sim::BmmaOp;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn operand(rows: usize, k: usize, bits: u32, enc: Encoding, seed: &mut u64) -> BitPlanes {
        let codes: Vec<u32> = (0..rows * k)
            .map(|_| (lcg(seed) as u32) % (1 << bits))
            .collect();
        BitPlanes::from_codes(&codes, rows, k, bits, enc)
    }

    /// The naive per-output reference the finished lanes must reproduce,
    /// pad lanes included (a zero weight row): every plane pair's raw
    /// count through [`adjust_partial`], shift-added s-major / t-minor.
    fn naive_lanes(
        eplan: EmulationPlan,
        w: &BitPlanes,
        g: usize,
        x: &BitPlanes,
        (j0, jb): (usize, usize),
    ) -> Vec<[i32; LANES]> {
        let zero_row = vec![0u64; w.plane(0).words_per_row()];
        (j0..j0 + jb)
            .map(|j| {
                std::array::from_fn(|lane| {
                    let i = g * LANES + lane;
                    let mut sum = 0;
                    for (s, t) in (0..w.bits()).flat_map(|s| (0..x.bits()).map(move |t| (s, t))) {
                        let a_row = if i < w.rows() {
                            w.plane(s).row_words(i)
                        } else {
                            &zero_row
                        };
                        let b_row = x.plane(t).row_words(j);
                        let popc: u32 = a_row
                            .iter()
                            .zip(b_row)
                            .map(|(&aw, &bw)| match eplan.op {
                                BmmaOp::And => (aw & bw).count_ones(),
                                BmmaOp::Xor => (aw ^ bw).count_ones(),
                            })
                            .sum();
                        let adj = adjust_partial(
                            eplan.case,
                            popc as i32,
                            w.cols() as i32,
                            apnn_bitpack::word::popcount(a_row) as i32,
                            x.plane(t).row_popcount(j) as i32,
                        );
                        sum += adj << (s + t);
                    }
                    sum
                })
            })
            .collect()
    }

    /// Rows `row0..` of every plane of `x`, the way APMM streams them: one
    /// plane's words each, a row pitch apart.
    fn rows(x: &BitPlanes, row0: usize, eval: impl FnOnce(Affine<'_>)) {
        let planes: Vec<&[u64]> = x.planes().iter().map(|p| p.words()).collect();
        let wpr = x.plane(0).words_per_row();
        eval(Affine {
            planes: &planes,
            first: row0 * wpr,
            step: wpr,
        });
    }

    /// Both offset sides of row group `g` × rows `j0..j0 + jb`, the way the
    /// drivers build them: per lane and per row, folded over the plane
    /// pairs.
    fn sides(
        eplan: EmulationPlan,
        panel: &LanePanel,
        g: usize,
        x: &BitPlanes,
        (j0, jb): (usize, usize),
    ) -> ([i32; LANES], Vec<i32>) {
        let corr = eplan.case.correction();
        let k = x.cols() as i32;
        let (p, q) = (panel.n_planes(), x.bits() as usize);
        let w_side = std::array::from_fn(|l| {
            fold_planes(p, q, |s| {
                corr.offset(k, panel.row_sums(s)[g * LANES + l], 0)
            })
        });
        let x_sides = (j0..j0 + jb)
            .map(|j| {
                fold_planes(q, p, |t| {
                    corr.offset(0, 0, x.plane(t as u32).row_popcount(j) as i32)
                })
            })
            .collect();
        (w_side, x_sides)
    }

    #[test]
    fn tile_matches_naive_for_every_block_shape() {
        use Encoding::{PlusMinusOne as Pm, ZeroOne as Zo};
        let mut seed = 5;
        let (n, k) = (9, 300);
        let mut cases = Vec::new();
        for (w_enc, x_enc, p, q) in [
            (Zo, Zo, 1u32, 2u32),
            (Zo, Zo, 3, 5),
            (Zo, Zo, 8, 8),
            (Pm, Pm, 1, 1),
            (Pm, Zo, 1, 3),
            (Zo, Pm, 2, 1),
        ] {
            let x = operand(n, k, q, x_enc, &mut seed);
            // Ragged row counts: a lone partial group, exact groups, and a
            // partial group after full ones.
            for m in [1usize, 7, 8, 9, 17] {
                let w = operand(m, k, p, w_enc, &mut seed);
                let panel = LanePanel::from_bitplanes(&w);
                let g = panel.groups() - 1;
                for eplan in [plan(w_enc, x_enc), plan_xor_only(w_enc, x_enc)] {
                    if !cases.contains(&eplan.case) {
                        cases.push(eplan.case);
                    }
                    for (arm, jb) in PopcntArm::ALL
                        .into_iter()
                        .flat_map(|a| [1usize, 2, 3, 8].map(|jb| (a, jb)))
                    {
                        let (w_side, x_sides) = sides(eplan, &panel, g, &x, (1, jb));
                        let fin = Finish {
                            w_sides: &[w_side],
                            side_at: &[0; MAX_JB][..jb],
                            x_sides: &x_sides,
                            ..eplan.finish(q as usize)
                        };
                        // Stale cells must be overwritten.
                        let mut out = vec![[-7i32; LANES]; jb];
                        rows(&x, 1, |xs| {
                            finish_lanes(arm, &panel, g, &xs, &fin, &mut out)
                        });
                        assert_eq!(
                            out,
                            naive_lanes(eplan, &w, g, &x, (1, jb)),
                            "{:?} w{p}a{q} m={m} {arm:?} jb={jb}",
                            eplan.case
                        );
                    }
                }
            }
        }
        assert_eq!(cases.len(), 7, "all seven emulation cases");
    }

    #[test]
    fn flat_view_matches_bitplanes_view() {
        // Windows of one flat buffer, `step` words apart from word `first`
        // — overlapping (`step < kw`: how the conv strip presents a pixel
        // block), back to back (a window-dense block) and strided (`step >
        // kw`) — must finish exactly like row views of a BitPlanes operand
        // holding the same bits.
        let mut seed = 11;
        let (kw, n_px) = (6usize, 4usize);
        let eplan = plan(Encoding::PlusMinusOne, Encoding::ZeroOne);
        let w = operand(10, kw * 64, 1, Encoding::PlusMinusOne, &mut seed);
        let panel = LanePanel::from_bitplanes(&w);
        for (first, step) in [(0usize, 2usize), (3, 1), (1, kw), (2, kw + 5)] {
            let flat: Vec<u64> = (0..first + step * (n_px - 1) + kw)
                .map(|_| lcg(&mut seed) << 31 ^ lcg(&mut seed))
                .collect();
            let at: Vec<usize> = (0..n_px).map(|j| first + j * step).collect();
            let codes: Vec<u32> = at
                .iter()
                .flat_map(|&o| (0..kw * 64).map(move |i| (o + i / 64, i % 64)))
                .map(|(word, bit)| (flat[word] >> bit) as u32 & 1)
                .collect();
            let x = BitPlanes::from_codes(&codes, n_px, kw * 64, 1, Encoding::ZeroOne);
            for (j, &o) in at.iter().enumerate() {
                assert_eq!(x.plane(0).row_words(j)[..kw], flat[o..][..kw]);
            }

            let (w_side, x_sides) = sides(eplan, &panel, 1, &x, (0, n_px));
            let fin = Finish {
                w_sides: &[w_side],
                side_at: &[0; MAX_JB][..n_px],
                x_sides: &x_sides,
                ..eplan.finish(1)
            };
            let want = naive_lanes(eplan, &w, 1, &x, (0, n_px));
            let windows = Affine {
                planes: &[&flat],
                first,
                step,
            };
            for arm in PopcntArm::ALL {
                let mut out = vec![[0i32; LANES]; n_px];
                finish_lanes(arm, &panel, 1, &windows, &fin, &mut out);
                assert_eq!(out, want, "windows at {first} + j·{step}, {arm:?}");
                let mut out = vec![[0i32; LANES]; n_px];
                rows(&x, 0, |xs| {
                    finish_lanes(arm, &panel, 1, &xs, &fin, &mut out)
                });
                assert_eq!(out, want, "row views {arm:?}");
            }
        }
    }
}
