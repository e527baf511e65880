//! Performance model + tile-size autotuner (paper §4.3).
//!
//! Two antagonistic quantities drive the search:
//!
//! * **TLP** (Eq. 3) — `pM·qN / (bm·bn)`, the number of thread blocks. More
//!   blocks ⇒ better SM utilization, especially for the small GEMMs typical
//!   of NN layers.
//! * **CI** (Eq. 4) — `2·bm·bn / (bm + bn)`, tensor-core MACs per bit of
//!   global traffic for one block tile. Larger tiles ⇒ more data reuse.
//!
//! The heuristic (§4.3.2): enumerate `bm, bn ∈ {16, 32, 64, 128}`, order by
//! TLP, and take the highest-CI configuration whose TLP is still above the
//! threshold `T = 64`; if nothing clears the threshold, fall back to the
//! maximum-TLP configuration.

use crate::apmm::TileConfig;

/// Candidate block-tile edge sizes (§4.3.2).
pub const TILE_CANDIDATES: [usize; 4] = [16, 32, 64, 128];

/// TLP threshold `T` (§4.3.2, set empirically by the paper).
pub const TLP_THRESHOLD: f64 = 64.0;

/// Thread-level parallelism of a tiling (Eq. 3): the grid size over the
/// batched `pM × qN` output space.
pub fn thread_level_parallelism(m: usize, n: usize, p: u32, q: u32, bm: usize, bn: usize) -> f64 {
    (p as f64 * m as f64) * (q as f64 * n as f64) / (bm as f64 * bn as f64)
}

/// Compute intensity of a block tile (Eq. 4): `2·bm·bn / (bm + bn)`.
pub fn compute_intensity(bm: usize, bn: usize) -> f64 {
    2.0 * bm as f64 * bn as f64 / (bm + bn) as f64
}

/// Pick a tile configuration for an `M×N×K` problem at `p×q` bits.
///
/// `k` only enters through `bk`, which stays fixed at 128 (§4.3.1: CI is
/// independent of `bk`; a small `bk` leaves shared memory for `bm`, `bn`).
pub fn autotune(m: usize, n: usize, _k: usize, p: u32, q: u32) -> TileConfig {
    crate::stats::count_autotune();
    let mut candidates: Vec<(usize, usize, f64, f64)> = Vec::with_capacity(16);
    for &bm in &TILE_CANDIDATES {
        for &bn in &TILE_CANDIDATES {
            let tlp = thread_level_parallelism(m, n, p, q, bm, bn);
            let ci = compute_intensity(bm, bn);
            candidates.push((bm, bn, tlp, ci));
        }
    }
    // Priority queue by TLP (descending) — realized as a sort for clarity.
    candidates.sort_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .unwrap()
            .then(b.3.partial_cmp(&a.3).unwrap())
    });

    let above: Vec<_> = candidates.iter().filter(|c| c.2 >= TLP_THRESHOLD).collect();
    let chosen = if above.is_empty() {
        // Nothing clears the threshold: stick with the max-TLP combination.
        candidates[0]
    } else {
        // Pop through the queue, keeping the best-CI combination that still
        // satisfies TLP ≥ T (ties broken toward higher TLP by sort order).
        **above
            .iter()
            .max_by(|a, b| a.3.partial_cmp(&b.3).unwrap())
            .unwrap()
    };
    TileConfig::new(chosen.0, chosen.1)
}

// ---------------------------------------------------------------------------
// CPU microkernel tiling.
// ---------------------------------------------------------------------------

/// Row-block candidates for the CPU popcount microkernel (bounded by
/// [`MAX_JB`]).
pub const JB_CANDIDATES: [usize; 4] = [1, 2, 4, 8];

/// Largest legal microkernel row block.
pub const MAX_JB: usize = 8;

/// Blocking of the CPU popcount microkernel (`apnn_kernels::micro`): `jb`
/// dynamic rows (batch columns for APMM, consecutive output pixels of a row
/// for APConv) share each loaded weight cell, their words broadcast against
/// it in one K pass. K itself needs no blocking — it is the outermost loop and
/// the accumulators are registers. Chosen per layer at compile time by
/// [`select_micro`]; any value is *exact* (the counts are integers), so
/// tiling only moves throughput, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroTile {
    /// Row-block width (dynamic rows sharing one weight-cell load).
    pub jb: usize,
}

impl MicroTile {
    /// Clamp to the legal range (`1..=MAX_JB` rows).
    pub fn sanitized(self) -> MicroTile {
        MicroTile {
            jb: self.jb.clamp(1, MAX_JB),
        }
    }
}

/// Pick the microkernel tile for a problem with `n_cols` dynamic rows (the
/// batch for APMM, an output row's `out_w` pixels for APConv) — the one
/// selector both the plan compiler and the ad-hoc kernels use, counted as
/// one [`crate::stats::micro_tunes`] selection.
///
/// A closed form, like the paper's TLP/CI tile rule (§4.3.2): the widest
/// [`JB_CANDIDATES`] entry the problem fills. Every extra row amortizes
/// the weight-cell loads once more, but a block wider than the problem
/// wastes passes (one row beyond the problem width may round up). The
/// answer depends on nothing but `n_cols`, so a compiled plan — its
/// `Debug` output included — is the same on every machine and every run;
/// DESIGN.md §5 records the measurement that retired the timed sweep.
pub fn select_micro(n_cols: usize) -> MicroTile {
    crate::stats::count_micro_tune();
    let jb = JB_CANDIDATES
        .into_iter()
        .rfind(|&cand| (cand / 2) < n_cols.max(1))
        .unwrap_or(1);
    MicroTile { jb }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlp_formula_matches_eq3() {
        // p=1, M=64, q=2, N=1024, bm=32, bn=64 -> 64*2048/2048 = 64.
        let tlp = thread_level_parallelism(64, 1024, 1, 2, 32, 64);
        assert_eq!(tlp, 64.0);
    }

    #[test]
    fn ci_formula_matches_eq4() {
        assert_eq!(compute_intensity(64, 64), 64.0);
        assert!((compute_intensity(32, 64) - 2.0 * 32.0 * 64.0 / 96.0).abs() < 1e-12);
    }

    #[test]
    fn ci_monotone_in_tile_size() {
        assert!(compute_intensity(32, 32) > compute_intensity(16, 16));
        assert!(compute_intensity(128, 128) > compute_intensity(64, 64));
    }

    #[test]
    fn large_matrices_get_large_tiles() {
        // Huge batched space: every candidate clears T, so max-CI (128×128)
        // wins.
        let t = autotune(4096, 4096, 1024, 2, 2);
        assert_eq!((t.bm, t.bn), (128, 128));
    }

    #[test]
    fn small_matrices_get_small_tiles() {
        // Tiny problem: nothing reaches TLP=64, fall back to max TLP (16×16).
        let t = autotune(16, 16, 128, 1, 1);
        assert_eq!((t.bm, t.bn), (16, 16));
    }

    #[test]
    fn paper_fc_example_balances_tlp_and_ci() {
        // The Table 4 workload: M=64 (batch), N=K=1024, w1a2.
        // TLP>=64 candidates peak at CI for (bm,bn)=(32,64) or (64,32).
        let t = autotune(64, 1024, 1024, 1, 2);
        let tlp = thread_level_parallelism(64, 1024, 1, 2, t.bm, t.bn);
        assert!(tlp >= TLP_THRESHOLD);
        assert_eq!(t.bm * t.bn, 2048, "chose {:?}", (t.bm, t.bn));
    }

    #[test]
    fn micro_tile_is_deterministic_and_bounded() {
        for n_cols in [0usize, 1, 3, 64, 512] {
            let a = select_micro(n_cols);
            let b = select_micro(n_cols);
            assert_eq!(a, b, "selection must be pure");
            assert!(JB_CANDIDATES.contains(&a.jb));
            assert_eq!(a, a.sanitized());
        }
        assert_eq!(MicroTile { jb: 0 }.sanitized().jb, 1);
        assert_eq!(MicroTile { jb: 99 }.sanitized().jb, MAX_JB);
    }

    #[test]
    fn micro_tile_narrow_problems_get_narrow_blocks() {
        // One dynamic row cannot use an 8-wide block...
        assert_eq!(select_micro(1).jb, 1);
        // ...but rounding up to cover a ragged tail is allowed.
        assert!(select_micro(3).jb >= 2);
        assert_eq!(select_micro(1024).jb, MAX_JB);
    }

    #[test]
    fn micro_tune_moves_the_stats_counter() {
        let s = crate::stats::scope();
        let _ = select_micro(64);
        assert_eq!(s.micro_tunes(), 1);
        assert_eq!(
            crate::stats::micro_benches(),
            0,
            "the closed form never measures"
        );
    }

    /// The selector is a pure closed form: no memo (every call is one
    /// selection, repeats included), no measurement, no mode.
    #[test]
    fn select_micro_is_a_pure_closed_form_that_never_measures() {
        let s = crate::stats::scope();
        for n_cols in [0usize, 1, 2, 3, 5, 8, 16, 97, 4096] {
            let t = select_micro(n_cols);
            assert_eq!(t, select_micro(n_cols), "selection must be pure");
            assert!(JB_CANDIDATES.contains(&t.jb));
            // The widest candidate the problem fills: never wider than
            // `n_cols` rounds up to, and the next candidate would be.
            let fills = n_cols.max(1).next_power_of_two().min(MAX_JB);
            assert_eq!(t.jb, fills, "n_cols {n_cols}");
        }
        assert_eq!(s.micro_tunes(), 18, "one selection per call");
    }

    #[test]
    fn narrow_problems_never_measure_overwide_blocks() {
        let s = crate::stats::scope();
        let t = select_micro(1);
        assert_eq!(t.jb, 1, "one dynamic row cannot use a wide block");
        assert_eq!(s.micro_tunes(), 1);
        assert_eq!(crate::stats::micro_benches(), 0);
    }

    #[test]
    fn batching_raises_tlp_and_unlocks_bigger_tiles() {
        // Same M,N but more planes => more batched parallelism => the tuner
        // can afford larger tiles (this is the point of §4.1(a)).
        let t_small = autotune(64, 256, 512, 1, 1);
        let t_large = autotune(64, 256, 512, 8, 8);
        assert!(
            t_large.bm * t_large.bn >= t_small.bm * t_small.bn,
            "{t_small:?} vs {t_large:?}"
        );
    }
}
