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

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Mutex;

use apnn_bitpack::{BitPlanes, Encoding, LanePanel, PopcntArm, LANES};
use apnn_sim::BmmaOp;

use crate::apmm::TileConfig;
use crate::select::EmulationCase;

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

// ---------------------------------------------------------------------------
// The measured cost oracle of the precision autotuner.
// ---------------------------------------------------------------------------

/// Hard cap on resident entries of the process-global [`stage_cost`] probe
/// memo. Far above any real model zoo's distinct-shape count, so
/// steady-state autotuning never evicts; a pathological shape stream
/// (fuzzers, synthetic sweeps) stays bounded via insertion-order (FIFO)
/// eviction.
pub const MICRO_MEMO_CAP: usize = 1024;

/// A shape-keyed memo with FIFO eviction at [`MICRO_MEMO_CAP`] entries.
struct BoundedMemo<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
}

impl<K: Eq + Hash + Copy, V: Copy> BoundedMemo<K, V> {
    fn new() -> Self {
        BoundedMemo {
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, k: &K) -> Option<V> {
        self.map.get(k).copied()
    }

    fn insert(&mut self, k: K, v: V) {
        if self.map.insert(k, v).is_none() {
            self.order.push_back(k);
            while self.map.len() > MICRO_MEMO_CAP {
                match self.order.pop_front() {
                    Some(old) => {
                        self.map.remove(&old);
                    }
                    None => break,
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// A stage-cost probe key: the microkernel shape plus the exact `(op, arm,
/// tile)` the probe timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CostKey {
    n_cols: usize,
    k_words: usize,
    pa: u32,
    pb: u32,
    op: BmmaOp,
    arm: PopcntArm,
    jb: usize,
}

fn cost_memo() -> &'static Mutex<BoundedMemo<CostKey, f64>> {
    static MEMO: std::sync::OnceLock<Mutex<BoundedMemo<CostKey, f64>>> = std::sync::OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(BoundedMemo::new()))
}

/// Record a fresh probe and publish the memo's resident-entry gauge.
fn remember_cost(key: CostKey, ns: f64) {
    let mut memo = cost_memo().lock().unwrap();
    memo.insert(key, ns);
    crate::stats::set_micro_memo_resident(memo.len() as u64);
}

/// A layer shape as the popcount microkernel sees it — the key of the
/// measured cost oracle ([`stage_cost`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageShape {
    /// Dynamic rows one call can block over (batch columns for APMM, the
    /// `out_w` pixels of an output row for APConv).
    pub n_cols: usize,
    /// Packed 64-bit words per row of the reduction (for APConv,
    /// [`crate::ConvDesc::k_words`]: column-dense).
    pub k_words: usize,
    /// Static (weight) bit planes.
    pub pa: u32,
    /// Dynamic (activation) bit planes.
    pub pb: u32,
}

/// Measured per-word microkernel cost (nanoseconds per plane-pair 64-bit
/// word of one output) for running `shape` through the emulation `case`'s boolean op on
/// `arm` with the microkernel tile `tile` — the precision autotuner's cost
/// oracle.
///
/// The probe times a synthetic-operand microbenchmark of the *single*
/// requested candidate (one [`crate::stats::micro_benches`] tick) and
/// memoizes the answer process-wide in a bounded map ([`MICRO_MEMO_CAP`],
/// FIFO eviction; resident entries are reported by
/// [`crate::stats::micro_memo_resident`]). Repeat probes for a seen
/// `(shape, op, arm, tile)` are a lock-and-lookup.
pub fn stage_cost(shape: StageShape, case: EmulationCase, arm: PopcntArm, tile: MicroTile) -> f64 {
    let op = match case {
        EmulationCase::AndUnsigned
        | EmulationCase::AndWeightTransformed
        | EmulationCase::AndActivationTransformed => BmmaOp::And,
        EmulationCase::XorSignedBinary
        | EmulationCase::XorDerivedUnsigned
        | EmulationCase::XorDerivedWeightTransformed
        | EmulationCase::XorDerivedActivationTransformed => BmmaOp::Xor,
    };
    let tile = tile.sanitized();
    let key = CostKey {
        n_cols: shape.n_cols,
        k_words: shape.k_words,
        pa: shape.pa,
        pb: shape.pb,
        op,
        arm,
        jb: tile.jb,
    };
    if let Some(ns) = cost_memo().lock().unwrap().get(&key) {
        return ns;
    }
    crate::stats::count_micro_bench();
    let operands = BenchOperands::synthesize(shape.k_words, shape.pa, shape.pb);
    let ns = operands.time_candidate(op, arm, tile.jb);
    remember_cost(key, ns);
    ns
}

/// Plane-pair words a single measured candidate runs through the
/// microkernel, over all its timed rounds — big enough for stable relative
/// ordering, small enough that a probe costs a fraction of a millisecond.
/// Debug builds shrink it: the ordering is meaningless there anyway (tests
/// only need the plumbing) and unoptimized popcounts are ~20× slower.
const MICRO_BENCH_WORDS: usize = if cfg!(debug_assertions) {
    32_768
} else {
    1_048_576
};

/// Timed rounds the budget is split into; the fastest one is the answer.
const MICRO_BENCH_ROUNDS: usize = 4;

/// Longest synthetic reduction used for measurement, in words. Real `K`s
/// beyond this behave identically per word (the working set is already
/// streamed, not cached), so the cap only bounds measurement cost.
const MICRO_BENCH_MAX_KW: usize = 512;

/// Synthetic microbenchmark operands for one microkernel shape — what the
/// [`stage_cost`] probe times: one weight row group and [`MAX_JB`] dynamic
/// rows. Deterministic contents.
struct BenchOperands {
    w: LanePanel,
    x: BitPlanes,
}

impl BenchOperands {
    fn synthesize(k_words: usize, pa: u32, pb: u32) -> Self {
        let (pa_n, pb_n) = (pa.clamp(1, 8), pb.clamp(1, 8));
        let kw = k_words.clamp(1, MICRO_BENCH_MAX_KW);
        let k_bits = kw * apnn_bitpack::word::WORD_BITS;
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut codes = |n: usize, bits: u32| -> Vec<u32> {
            (0..n)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed as u32 & ((1 << bits) - 1)
                })
                .collect()
        };
        let w = BitPlanes::from_codes(
            &codes(LANES * k_bits, pa_n),
            LANES,
            k_bits,
            pa_n,
            Encoding::ZeroOne,
        );
        let x = BitPlanes::from_codes(
            &codes(MAX_JB * k_bits, pb_n),
            MAX_JB,
            k_bits,
            pb_n,
            Encoding::ZeroOne,
        );
        BenchOperands {
            w: LanePanel::from_bitplanes(&w),
            x,
        }
    }

    /// Time one `jb` candidate with `op` on `arm` through the kernels' own
    /// entry — the block-of-all-plane-pairs loop with its one finish per
    /// output (a unit correction with zero folded offsets: the finish costs
    /// the same for every case); returns ns per plane-pair word of one
    /// output (warm-up call excluded).
    fn time_candidate(&self, op: BmmaOp, arm: PopcntArm, jb: usize) -> f64 {
        use apnn_bitpack::popcnt::{finish_lanes, Affine, Finish};
        let (pa, pb) = (self.w.n_planes(), self.x.bits() as usize);
        let mut planes: [&[u64]; crate::micro::MAX_PLANES] = [&[]; crate::micro::MAX_PLANES];
        for (plane, x) in planes.iter_mut().zip(self.x.planes()) {
            *plane = x.words();
        }
        let xs = Affine {
            planes: &planes[..pb],
            first: 0,
            step: self.w.words_per_row(),
        };
        let fin = Finish {
            xor: op == BmmaOp::Xor,
            a: 1,
            halve: 0,
            q: pb,
            w_sides: &[[0; LANES]],
            side_at: &[0; MAX_JB][..jb],
            x_sides: &[],
        };
        let mut block = [[0i32; LANES]; MAX_JB];
        let block = &mut block[..jb];
        let words_per_call = LANES * pa * jb * pb * self.w.words_per_row();
        let reps = (MICRO_BENCH_WORDS / MICRO_BENCH_ROUNDS / words_per_call.max(1)).max(1);
        let mut sink = 0i64;
        // One warm-up call loads the operands and the instruction path.
        finish_lanes(arm, &self.w, 0, &xs, &fin, block);
        // Interference only ever slows a round down: keep the fastest.
        let mut best_ns = f64::INFINITY;
        for _ in 0..MICRO_BENCH_ROUNDS {
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                finish_lanes(arm, &self.w, 0, &xs, &fin, block);
                sink = sink.wrapping_add(block[0][0] as i64);
            }
            best_ns = best_ns.min(t0.elapsed().as_nanos() as f64);
        }
        std::hint::black_box(sink);
        best_ns / (reps * words_per_call) as f64
    }
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
        assert_eq!(s.micro_benches(), 0, "the closed form never measures");
    }

    /// The selector is a pure closed form: no memo (every call is one
    /// selection, repeats included), no measurement, no mode.
    #[test]
    fn select_micro_memoizes_and_respects_the_mode() {
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
        assert_eq!(s.micro_benches(), 0, "selection never measures");
    }

    #[test]
    fn stage_cost_probes_once_then_memoizes() {
        let arm = PopcntArm::detect();
        // A shape no other test touches, so the process-global memos can't
        // already hold it (tests share them across threads).
        let shape = StageShape {
            n_cols: 641,
            k_words: 17,
            pa: 2,
            pb: 2,
        };
        let tile = MicroTile { jb: 2 };
        let s = crate::stats::scope();
        let ns = stage_cost(shape, EmulationCase::AndUnsigned, arm, tile);
        assert!(ns.is_finite() && ns > 0.0, "{ns}");
        assert_eq!(s.micro_benches(), 1);
        // Repeat probe: lock-and-lookup, same answer, no new measurement.
        let ns2 = stage_cost(shape, EmulationCase::AndUnsigned, arm, tile);
        assert_eq!(ns.to_bits(), ns2.to_bits());
        assert_eq!(s.micro_benches(), 1);
        // An XOR-family case maps to a different boolean op => fresh probe.
        let ns3 = stage_cost(shape, EmulationCase::XorSignedBinary, arm, tile);
        assert!(ns3.is_finite() && ns3 > 0.0, "{ns3}");
        assert_eq!(s.micro_benches(), 2);
        assert!(crate::stats::micro_memo_resident() >= 2);
    }

    #[test]
    fn cost_memo_stays_bounded() {
        let arm = PopcntArm::detect();
        let tile = MicroTile { jb: 1 };
        // Stream more distinct shapes than the cap; FIFO eviction must hold
        // the map at exactly MICRO_MEMO_CAP entries (n_cols >= 100_000 keys
        // collide with no other test).
        for i in 0..(MICRO_MEMO_CAP + 8) {
            let shape = StageShape {
                n_cols: 100_000 + i,
                k_words: 1,
                pa: 1,
                pb: 1,
            };
            let ns = stage_cost(shape, EmulationCase::AndUnsigned, arm, tile);
            assert!(ns.is_finite() && ns > 0.0, "{ns}");
        }
        assert_eq!(cost_memo().lock().unwrap().len(), MICRO_MEMO_CAP);
        assert!(crate::stats::micro_memo_resident() <= MICRO_MEMO_CAP as u64);
    }

    #[test]
    fn narrow_problems_never_measure_overwide_blocks() {
        let s = crate::stats::scope();
        let t = select_micro(1);
        assert_eq!(t.jb, 1, "one dynamic row cannot use a wide block");
        assert_eq!(s.micro_benches(), 0);
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
