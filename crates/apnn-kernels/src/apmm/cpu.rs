//! Functional CPU backend for APMM.
//!
//! This is the "real compute" path: bit-packed rows, XOR/AND + popcount
//! inner loops (the CPU equivalent of the tensor-core `bmma` pipeline),
//! driven by the **one** APMM loop nest, `apmm_exec`, on the calling
//! thread. Its results are validated against the naive i32 oracle and
//! against the fragment-level [`crate::emulate::ap_bit_mm`].

use apnn_bitpack::popcnt::{finish_lanes, Affine, Finish};
use apnn_bitpack::{BitPlanes, LanePanel, PopcntArm, LANES};

use super::ApmmDesc;
use crate::autotune::{MicroTile, MAX_JB};
use crate::micro::MAX_PLANES;
use crate::select::{fold_planes, EmulationPlan};

/// The weight side of every output's correction offset (§3.2's `k·K +
/// r·W·J`), one entry per row group and panel lane, folded over the plane
/// pairs of `q` activation planes ([`fold_planes`]) — the weight-side
/// precomputation hoisted into compiled plans, in the form the kernel's
/// finish consumes it. Building the `W·J` row sums a case needs bumps
/// [`crate::stats::row_sum_builds`], so tests can prove prepared kernels
/// compute these exactly once per plan and never on the inference hot
/// path.
pub fn weight_sides(
    w: &LanePanel,
    eplan: EmulationPlan,
    k_valid: usize,
    q: usize,
) -> Vec<[i32; LANES]> {
    let corr = eplan.case.correction();
    let p = w.n_planes();
    let flat = fold_planes(p, q, |_| corr.offset(k_valid as i32, 0, 0));
    let mut sides = vec![[flat; LANES]; w.groups()];
    if corr.needs_row_sums() {
        crate::stats::count_row_sums_build();
        let sums: Vec<Vec<i32>> = (0..p).map(|s| w.row_sums(s)).collect();
        for (g, side) in sides.iter_mut().enumerate() {
            *side = std::array::from_fn(|l| {
                fold_planes(p, q, |s| {
                    corr.offset(k_valid as i32, sums[s][g * LANES + l], 0)
                })
            });
        }
    }
    sides
}

/// Reusable per-call scratch for the `execute_into` entry points:
/// the activation-side correction table and the raw accumulator buffer.
/// Size it once with [`ApmmScratch::reserve`] (at the plan's full batch);
/// every later call — full or partial shard — is then allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ApmmScratch {
    /// The `n` activation sides of the correction offset (`c·J·X` folded
    /// over the plane pairs; input-dependent, rebuilt per call in place).
    pub(crate) col_sums: Vec<i32>,
    /// Raw `m × n` i32 accumulators for fused executions.
    pub(crate) acc: Vec<i32>,
}

impl ApmmScratch {
    /// Pre-size the scratch: `col_sums` activation-correction entries
    /// (`batch`) and `acc` accumulator elements (`m × batch`).
    pub fn reserve(&mut self, col_sums: usize, acc: usize) {
        self.col_sums
            .reserve(col_sums.saturating_sub(self.col_sums.len()));
        self.acc.reserve(acc.saturating_sub(self.acc.len()));
    }
}

/// The one APMM driver: multiply the weight panel `w` (rows = output
/// features) against packed `x` (rows = batch; may carry *fewer* rows than
/// `desc.n` when a compiled plan serves a partial shard — zero rows
/// included) into the row-major `m × x.rows()` product `out`, on the
/// **calling thread** with every buffer caller-owned (zero allocations once
/// `x_sides` and `out` are at capacity). `w_sides` are [`weight_sides`]
/// for `eplan`. Serving workers are the concurrency unit, not this loop.
///
/// Batch-column blocks are the outer loop and row groups the inner one, so
/// the activations stream through once while each block's rows stay hot
/// across the whole panel. A `(block, group)` is one kernel call, which
/// leaves the block's finished sums — correction and shift-add applied in
/// registers — eight outputs per batch column.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apmm_exec(
    desc: &ApmmDesc,
    w: &LanePanel,
    x: &BitPlanes,
    eplan: EmulationPlan,
    w_sides: &[[i32; LANES]],
    micro: MicroTile,
    arm: PopcntArm,
    x_sides: &mut Vec<i32>,
    out: &mut Vec<i32>,
) {
    let m = desc.m;
    let n = x.rows();
    assert!(n <= desc.n, "activation batch exceeds plan batch");
    assert_eq!(w.rows(), m, "weight panel rows");
    let (p, q) = (desc.w_bits as usize, desc.x_bits as usize);
    assert_eq!(
        w.words_per_row(),
        x.plane(0).words_per_row(),
        "operands must share padded K"
    );

    // Every accumulator is stored by the loop below — no zeroing pass.
    apnn_bitpack::resize_for_overwrite(out, m * n);
    x_sides.clear();
    if n == 0 {
        return;
    }

    let corr = eplan.case.correction();
    if corr.needs_col_sums() {
        x_sides.extend((0..n).map(|j| {
            fold_planes(q, p, |t| {
                corr.offset(0, 0, x.plane(t as u32).row_popcount(j) as i32)
            })
        }));
    }

    let jb = micro.sanitized().jb;
    let arm = arm.sanitized();
    let fin = eplan.finish(q);
    // Row `j` of plane `t` is `wpr` words at `j·wpr` of the plane's words.
    let wpr = w.words_per_row();
    let mut planes: [&[u64]; MAX_PLANES] = [&[]; MAX_PLANES];
    for (t, plane) in planes[..q].iter_mut().enumerate() {
        *plane = x.plane(t as u32).words();
    }
    let mut block = [[0i32; LANES]; MAX_JB];
    for j0 in (0..n).step_by(jb) {
        let jbc = jb.min(n - j0);
        let block = &mut block[..jbc];
        let xs = Affine {
            planes: &planes[..q],
            first: j0 * wpr,
            step: wpr,
        };
        for g in 0..w.groups() {
            let fin = Finish {
                w_sides: &w_sides[g..=g],
                side_at: &[0; MAX_JB][..jbc],
                x_sides: if x_sides.is_empty() {
                    &[]
                } else {
                    &x_sides[j0..]
                },
                ..fin
            };
            finish_lanes(arm, w, g, &xs, &fin, block);
            // Scatter the group's rows; a ragged last group's pad lanes
            // hold no output.
            let i0 = g * LANES;
            for l in 0..LANES.min(m - i0) {
                let row = &mut out[(i0 + l) * n + j0..][..jbc];
                for (dst, acc) in row.iter_mut().zip(block.iter()) {
                    *dst = acc[l];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apmm::Apmm;
    use crate::autotune::select_micro;
    use crate::emulate::decoded_reference;
    use crate::select::plan_xor_only;
    use apnn_bitpack::Encoding;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn rand_codes(len: usize, bits: u32, seed: &mut u64) -> Vec<u32> {
        (0..len).map(|_| (lcg(seed) as u32) % (1 << bits)).collect()
    }

    fn rand_signs(len: usize, seed: &mut u64) -> Vec<i32> {
        (0..len)
            .map(|_| if lcg(seed) & 1 == 0 { -1 } else { 1 })
            .collect()
    }

    /// A random `rows × k` operand under `enc`.
    fn operand(rows: usize, k: usize, bits: u32, enc: Encoding, seed: &mut u64) -> BitPlanes {
        if enc == Encoding::PlusMinusOne {
            BitPlanes::from_signed_binary(&rand_signs(rows * k, seed), rows, k)
        } else {
            BitPlanes::from_codes(&rand_codes(rows * k, bits, seed), rows, k, bits, enc)
        }
    }

    /// The first `rows` rows of `x` as their own operand (a batch shard).
    fn shard(x: &BitPlanes, rows: usize) -> BitPlanes {
        let k = x.cols();
        if x.encoding() == Encoding::PlusMinusOne {
            BitPlanes::from_signed_binary(&x.values()[..rows * k], rows, k)
        } else {
            let codes = &x.reconstruct_codes()[..rows * k];
            BitPlanes::from_codes(codes, rows, k, x.bits(), x.encoding())
        }
    }

    /// One encoding pair per Ampere case; with [`plan_xor_only`] on top
    /// they reach all seven [`EmulationCase`]s.
    const ENCODINGS: [(Encoding, Encoding, u32, u32); 4] = [
        (Encoding::ZeroOne, Encoding::ZeroOne, 3, 2),
        (Encoding::PlusMinusOne, Encoding::ZeroOne, 1, 4),
        (Encoding::ZeroOne, Encoding::PlusMinusOne, 2, 1),
        (Encoding::PlusMinusOne, Encoding::PlusMinusOne, 1, 1),
    ];

    /// Drive the one driver through every emulation case × `tiles` ×
    /// `arms` × {full, partial, zero-row} shard, reusing one scratch, and
    /// compare each product with the naive decoded oracle.
    fn check_every_case(tiles: &[MicroTile], arms: &[PopcntArm]) {
        let mut seed = 37;
        let mut cases = Vec::new();
        let mut scratch = ApmmScratch::default();
        let mut out = Vec::new();
        for (w_enc, x_enc, p, q) in ENCODINGS {
            let (m, n, k) = (13, 21, 230);
            let desc = ApmmDesc {
                m,
                n,
                k,
                w_bits: p,
                x_bits: q,
                w_enc,
                x_enc,
            };
            let w = operand(m, k, p, w_enc, &mut seed);
            let x = operand(n, k, q, x_enc, &mut seed);
            let want = decoded_reference(&w, &x);
            for eplan in [desc.plan(), plan_xor_only(w_enc, x_enc)] {
                if !cases.contains(&eplan.case) {
                    cases.push(eplan.case);
                }
                for (&micro, &arm) in tiles.iter().flat_map(|t| arms.iter().map(move |a| (t, a))) {
                    let prepared = Apmm::new(desc)
                        .prepare(w.clone())
                        .with_plan(eplan)
                        .with_micro(micro)
                        .with_arm(arm);
                    // A forced arm the CPU can run is the one that runs.
                    assert!(!arm.is_available() || prepared.arm() == arm);
                    for rows in [n, n / 2, 0] {
                        prepared.execute_into(&shard(&x, rows), &mut scratch, &mut out);
                        assert_eq!(out.len(), m * rows);
                        for (idx, &got) in out.iter().enumerate() {
                            let (i, j) = (idx / rows, idx % rows);
                            assert_eq!(
                                got,
                                want[i * n + j],
                                "{:?} {micro:?} {arm:?} shard {rows} at ({i},{j})",
                                eplan.case
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(cases.len(), 7, "all seven emulation cases");
    }

    #[test]
    fn unsigned_matches_reference_various_shapes() {
        let mut seed = 11;
        for (m, n, k, p, q) in [
            (1, 1, 1, 1, 1),
            (8, 8, 128, 1, 2),
            (33, 65, 200, 2, 2),
            (64, 128, 512, 3, 5),
            (5, 3, 1000, 8, 8),
        ] {
            let w = operand(m, k, p, Encoding::ZeroOne, &mut seed);
            let x = operand(n, k, q, Encoding::ZeroOne, &mut seed);
            let desc = ApmmDesc::unsigned(m, n, k, p, q);
            let want = decoded_reference(&w, &x);
            assert_eq!(
                Apmm::new(desc).prepare(w).execute(&x),
                want,
                "shape {m}x{n}x{k} w{p}a{q}"
            );
        }
    }

    #[test]
    fn signed_binary_matches_reference() {
        let mut seed = 13;
        let (m, n, k) = (24, 40, 300);
        let w = operand(m, k, 1, Encoding::PlusMinusOne, &mut seed);
        let x = operand(n, k, 1, Encoding::PlusMinusOne, &mut seed);
        let desc = ApmmDesc::w1aq(m, n, k, 1, Encoding::PlusMinusOne);
        let want = decoded_reference(&w, &x);
        assert_eq!(Apmm::new(desc).prepare(w).execute(&x), want);
    }

    #[test]
    fn w1aq_case3_matches_reference() {
        let mut seed = 17;
        for q in [2u32, 3, 4, 8] {
            let (m, n, k) = (16, 20, 250);
            let w = operand(m, k, 1, Encoding::PlusMinusOne, &mut seed);
            let x = operand(n, k, q, Encoding::ZeroOne, &mut seed);
            let desc = ApmmDesc::w1aq(m, n, k, q, Encoding::ZeroOne);
            let want = decoded_reference(&w, &x);
            assert_eq!(Apmm::new(desc).prepare(w).execute(&x), want, "w1a{q}");
        }
    }

    #[test]
    fn mirrored_case3_matches_reference() {
        let mut seed = 19;
        let (m, n, k, p) = (12, 9, 130, 4);
        let w = operand(m, k, p, Encoding::ZeroOne, &mut seed);
        let x = operand(n, k, 1, Encoding::PlusMinusOne, &mut seed);
        let desc = ApmmDesc {
            m,
            n,
            k,
            w_bits: p,
            x_bits: 1,
            w_enc: Encoding::ZeroOne,
            x_enc: Encoding::PlusMinusOne,
        };
        let want = decoded_reference(&w, &x);
        assert_eq!(Apmm::new(desc).prepare(w).execute(&x), want);
    }

    #[test]
    fn xor_only_plan_matches_ampere_plan_every_case() {
        // Turing (XOR-only) plans must produce identical products; the
        // tile and arm are whatever `prepare` selected.
        let mut seed = 29;
        for (w_enc, x_enc, p, q) in ENCODINGS {
            let (m, n, k) = (14, 22, 250);
            let desc = ApmmDesc {
                m,
                n,
                k,
                w_bits: p,
                x_bits: q,
                w_enc,
                x_enc,
            };
            let w = operand(m, k, p, w_enc, &mut seed);
            let x = operand(n, k, q, x_enc, &mut seed);
            let apmm = Apmm::new(desc);
            let ampere = apmm.prepare(w.clone()).execute(&x);
            let turing = apmm
                .prepare(w)
                .with_plan(plan_xor_only(w_enc, x_enc))
                .execute(&x);
            assert_eq!(ampere, turing, "{w_enc:?}/{x_enc:?} w{p}a{q}");
        }
    }

    #[test]
    fn zero_row_batches_yield_empty_products_on_every_path() {
        // The empty shard must produce the (empty) `m × 0` product through
        // the allocating wrapper and the workspace form alike, clearing
        // whatever the reused buffers held.
        let mut seed = 41;
        let (m, k, p, q) = (7, 200, 2u32, 2u32);
        let w = operand(m, k, p, Encoding::ZeroOne, &mut seed);
        let x0 = BitPlanes::from_codes(&[], 0, k, q, Encoding::ZeroOne);
        let prepared = Apmm::new(ApmmDesc::unsigned(m, 4, k, p, q))
            .prepare(w)
            .with_plan(plan_xor_only(Encoding::ZeroOne, Encoding::ZeroOne));
        assert!(
            prepared.execute(&x0).is_empty(),
            "m×0 product must be empty"
        );

        let mut scratch = ApmmScratch {
            col_sums: vec![1; 3], // stale state must be cleared
            acc: Vec::new(),
        };
        let mut out = vec![7i32; 5];
        prepared.execute_into(&x0, &mut scratch, &mut out);
        assert!(out.is_empty());
        assert!(scratch.col_sums.is_empty());
    }

    #[test]
    fn every_micro_tile_is_bit_identical() {
        let tiles = [1usize, 2, 3, 8].map(|jb| MicroTile { jb });
        check_every_case(&tiles, &[PopcntArm::detect()]);
    }

    #[test]
    fn every_available_arm_is_bit_identical() {
        // Unavailable arms sanitize to the detected best — still exact, so
        // asserting on the full set is safe on any host.
        check_every_case(&[MicroTile { jb: 4 }], &PopcntArm::ALL);
    }

    #[test]
    fn forced_env_arm_is_the_arm_plans_bind() {
        // CI's portable-arms legs force `APNN_POPCNT_ARM` on a build whose
        // baseline has no AVX: an available forced arm must be the
        // instantiation plans bind — never silently the detected best, or
        // the leg would exercise the wrong `#[target_feature]` wrapper.
        let forced = std::env::var("APNN_POPCNT_ARM")
            .ok()
            .and_then(|s| PopcntArm::parse(&s))
            .filter(|arm| arm.is_available());
        let want = forced.unwrap_or_else(PopcntArm::best_available);
        let mut seed = 61;
        let w = operand(9, 130, 2, Encoding::ZeroOne, &mut seed);
        let prepared = Apmm::new(ApmmDesc::unsigned(9, 4, 130, 2, 2)).prepare(w);
        assert_eq!(prepared.arm().label(), want.label());
    }

    #[test]
    fn ad_hoc_entry_binds_the_closed_form_tile() {
        // Tile selection is a closed form of the batch width: two
        // `prepare`s of one kernel bind the same tile, never wider than `n`
        // rounds up to, and give equal output.
        let mut seed = 53;
        let (m, n, k, p, q) = (6, 3, 331, 2, 2);
        let w = operand(m, k, p, Encoding::ZeroOne, &mut seed);
        let x = operand(n, k, q, Encoding::ZeroOne, &mut seed);
        let apmm = Apmm::new(ApmmDesc::unsigned(m, n, k, p, q));

        let first = apmm.prepare(w.clone());
        let second = apmm.prepare(w);
        assert_eq!(first.micro(), second.micro());
        assert_eq!(first.execute(&x), second.execute(&x));
        assert_eq!(first.micro(), select_micro(n));
        assert!(first.micro().jb <= n.next_power_of_two());
    }

    #[test]
    fn agrees_with_fragment_template() {
        let mut seed = 23;
        let (m, n, k, p, q) = (17, 15, 260, 2, 3);
        let w = operand(m, k, p, Encoding::ZeroOne, &mut seed);
        let x = operand(n, k, q, Encoding::ZeroOne, &mut seed);
        let desc = ApmmDesc::unsigned(m, n, k, p, q);
        let want = crate::emulate::ap_bit_mm(&w, &x);
        assert_eq!(Apmm::new(desc).prepare(w).execute(&x), want);
    }
}
