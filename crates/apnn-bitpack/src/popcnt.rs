//! The lane-per-output popcount kernel and its runtime-dispatched arms.
//!
//! The one reduction every functional kernel runs is
//!
//! `popc[s][t][j][lane] = Σ_k popc(op(W⁽ˢ⁾[k·LANES + lane], xs[t][j][k]))`
//!
//! over a [`crate::panel::LanePanel`] row group (per static plane `s`, eight
//! interleaved weight rows, 64 bytes per K word) and a few *streams*
//! `xs[t][j]` — plane `t` of one activation row `j` each, addressed
//! affinely ([`Affine`]: stream `(t, j)` starts `j·step` words past `first`
//! in plane `t`, whether the streams are rows of a packed operand or
//! overlapping conv windows of one strip). A K pass bounds-checks its whole
//! extent once, then reads word `k` of stream `i` at `i·step + k`. Per K
//! word the kernel loads the cell once and, for every stream, broadcasts the
//! stream's word against it: AND/XOR, per-lane popcount, per-lane add. Each
//! lane of an accumulator is a different output, so the K pass ends with the
//! counts where they are needed — no horizontal sum, no per-output call.
//! This is the CPU form of the `bmma` accumulator fragment (one output per
//! element, K reduced inside the primitive).
//!
//! A pass never stores its counts. Like the paper's memory-efficient bit
//! combination (§4.1(b)), the shift-add runs on the accumulators while they
//! are registers: a block of ≤ 8 outputs walks **every** plane pair
//! `(s, t)` with one set of 64-bit accumulators, Horner-style — the pairs
//! are taken by shift level `s + t`, highest first, the accumulators double
//! between levels, and a level's K passes count straight into them, so they
//! end as `Σ popc(s, t) << (s + t)` without a second register set — and the
//! §3.2 correction is applied to that total **once per output**
//! ([`Finish`], `Lanes::finish`): it is affine in the counts, so its
//! offsets fold over the plane pairs ahead of time. What reaches memory is
//! the finished sum, stored once: [`finish_lanes`] is the single entry
//! point APMM and APConv share.
//!
//! The kernel is **one generic body** (`finish_streams`) over one stream
//! addressing, instantiated once per [`PopcntArm`] under that arm's
//! `#[target_feature]` so every K pass and the finish run inside the
//! feature boundary:
//!
//! * [`PopcntArm::Scalar`] — the body over `[u64; 8]` lanes at the build's
//!   baseline features. LLVM vectorizes the lane loops with whatever the
//!   baseline has (SSE2/SSSE3 byte-LUT or SWAR `count_ones` on a portable
//!   build; under `target-cpu=native` the host's own vectors).
//! * [`PopcntArm::Avx2`] — the same `[u64; 8]` body under `avx2`: two ymm
//!   per cell, `vpshufb` nibble-LUT popcount.
//! * [`PopcntArm::Avx512`] — the body over one explicit `__m512i` per cell
//!   (`avx512f` + `avx512vpopcntdq`): `vpandq`/`vpxorq` with a broadcast
//!   memory operand, `vpopcntq`, `vpaddq` — three instructions per 512
//!   bit-MACs — one `vpaddq` per output and shift level, and one finish of
//!   `vpmovqd`, `vpmulld`, `vpaddd`, `vpsrad` per output on the narrowed
//!   total. The lane type is explicit because
//!   Intel server tunings make LLVM prefer 256-bit vectors, which halves
//!   `vpopcntq` throughput.
//! * [`PopcntArm::Neon`] — aarch64, where NEON `cnt` is baseline: the
//!   `[u64; 8]` body, four q registers per cell.
//!
//! Every arm produces the same integers, so arm selection moves throughput,
//! never results. [`PopcntArm::detect`] picks the best arm the CPU can run
//! once per process; the `APNN_POPCNT_ARM` environment variable (`scalar`,
//! `avx2`, `avx512`, `neon`) forces one for tests and CI, an unavailable
//! forced arm falls back to the detected best, and the dispatcher re-checks
//! availability so a forged enum value can never reach an instruction the
//! CPU lacks.

use crate::panel::{LanePanel, LANES};

/// One instantiation of the lane-per-output popcount kernel. See the
/// module docs for what each arm runs; all arms are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PopcntArm {
    /// The generic body at the build's baseline target features — the
    /// portable fallback.
    Scalar,
    /// The generic body under `avx2`.
    Avx2,
    /// Explicit 512-bit lanes with `vpopcntq` (`avx512f` +
    /// `avx512vpopcntdq`).
    Avx512,
    /// aarch64, where NEON is baseline.
    Neon,
}

impl PopcntArm {
    /// Every arm, in detection-preference order (later is preferred when
    /// available).
    pub const ALL: [PopcntArm; 4] = [
        PopcntArm::Scalar,
        PopcntArm::Avx2,
        PopcntArm::Avx512,
        PopcntArm::Neon,
    ];

    /// Stable lowercase label (used in bench artifacts, env overrides and
    /// CI matrix legs).
    pub fn label(self) -> &'static str {
        match self {
            PopcntArm::Scalar => "scalar",
            PopcntArm::Avx2 => "avx2",
            PopcntArm::Avx512 => "avx512",
            PopcntArm::Neon => "neon",
        }
    }

    /// Parse a [`Self::label`] string (case-insensitive).
    pub fn parse(s: &str) -> Option<PopcntArm> {
        let norm = s.trim().to_ascii_lowercase();
        Self::ALL.into_iter().find(|a| a.label() == norm)
    }

    /// Whether this arm can run on the current machine (CPUID-checked for
    /// the x86 SIMD arms, architecture-checked for NEON; the scalar arm
    /// runs anywhere).
    pub fn is_available(self) -> bool {
        match self {
            PopcntArm::Scalar => true,
            PopcntArm::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            PopcntArm::Avx512 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            PopcntArm::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// All arms runnable on this machine, in preference order (best last).
    pub fn available() -> Vec<PopcntArm> {
        Self::ALL.into_iter().filter(|a| a.is_available()).collect()
    }

    /// The best available arm by pure capability detection (no environment
    /// override): AVX-512 VPOPCNTDQ > AVX2 > NEON > scalar.
    pub fn best_available() -> PopcntArm {
        [PopcntArm::Avx512, PopcntArm::Avx2, PopcntArm::Neon]
            .into_iter()
            .find(|a| a.is_available())
            .unwrap_or(PopcntArm::Scalar)
    }

    /// The arm kernel plans should bind: [`Self::best_available`], unless
    /// the `APNN_POPCNT_ARM` environment variable forces one (an
    /// unavailable forced arm falls back to the detected best, and an
    /// unrecognized value warns once — naming the accepted spellings —
    /// before falling back). Detected once per process and cached.
    pub fn detect() -> PopcntArm {
        static DETECTED: std::sync::OnceLock<PopcntArm> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| match std::env::var("APNN_POPCNT_ARM").ok().as_deref() {
            Some(s) => match PopcntArm::parse(s) {
                Some(arm) => arm.sanitized(),
                None => {
                    eprintln!(
                        "apnn-bitpack: unknown APNN_POPCNT_ARM value `{s}` (accepted: \
                         `scalar`, `avx2`, `avx512`, `neon`); using the detected best arm"
                    );
                    PopcntArm::best_available()
                }
            },
            None => PopcntArm::best_available(),
        })
    }

    /// This arm if it can run here, otherwise the detected best — the
    /// clamp every plan constructor applies to forced arms.
    pub fn sanitized(self) -> PopcntArm {
        if self.is_available() {
            self
        } else {
            PopcntArm::best_available()
        }
    }
}

/// The dynamic operand of one kernel call, addressed affinely: stream
/// `(t, j)` — plane `t` of output `j` — is the `k_words`-word slice
/// `planes[t][first + j·step ..]`. One form covers both drivers: the rows of
/// a packed operand (APMM: `first = row0·wpr`, `step = wpr`) and the windows
/// of a block of conv pixels in one activation strip (`step < k_words`
/// where consecutive windows overlap in place, `step > k_words` under a
/// stride). A K pass checks its whole extent once and then reads word `k` of
/// stream `i` at `i·step + k` — no per-stream table, no per-stream slice.
#[derive(Debug, Clone, Copy)]
pub struct Affine<'a> {
    /// Plane `t` of the dynamic operand, for every `t < q`.
    pub planes: &'a [&'a [u64]],
    /// The word stream `(t, 0)` starts at, in every plane.
    pub first: usize,
    /// Words from one output's stream to the next one's.
    pub step: usize,
}

/// What a block of outputs does with its plane pairs' counts while they
/// are still in registers: the §4.1(b) shift-add, then the §3.2 correction
/// once. With `total = Σ_{s,t} popc(s, t) << (s + t)` per lane, output `j`
/// becomes
///
/// `(a·total + w_sides[side_at[j]][lane] + x_sides[j]) >> halve`
///
/// — the per-pair corrections `(a·popc + w_s + x_t) >> halve`, shift-added,
/// with the offsets folded over the pairs they repeat in:
/// `w_side = Σ_s w_s·2^s·(2^q − 1)` and `x_side = Σ_t x_t·2^t·(2^p − 1)`.
/// Halving commutes with the sum because every halved partial is even (see
/// `apnn_kernels::select::Correction`).
#[derive(Debug, Clone, Copy)]
pub struct Finish<'a> {
    /// Combine operands with XOR (else AND) before counting.
    pub xor: bool,
    /// Multiplier of the shift-added popcount total.
    pub a: i32,
    /// 1 where the case leaves a factor 2 to divide out, else 0.
    pub halve: u32,
    /// Dynamic planes per output.
    pub q: usize,
    /// The folded weight-side part of the correction offset of each lane,
    /// for every class of output the call spans (a conv window's offset
    /// depends on which of its taps miss the frame).
    pub w_sides: &'a [[i32; LANES]],
    /// Per output, its class's entry of `w_sides`.
    pub side_at: &'a [u32],
    /// The folded activation-side part of the offset of every output;
    /// empty when the case has none.
    pub x_sides: &'a [i32],
}

/// The one kernel entry: row group `g` of `w` against `fin.q` planes of
/// `out.len()` outputs' streams, every plane pair's K pass shift-added and
/// the total finished in registers ([`Finish`]) — one `[i32; LANES]` per
/// output, **stored** once (stale contents never matter). Lanes past the
/// panel's last row are zero rows: their sums are meaningless and the
/// caller must not keep them.
///
/// Exact for every arm and length; an arm the CPU cannot run executes the
/// baseline body, so the call is always sound.
#[inline]
pub fn finish_lanes(
    arm: PopcntArm,
    w: &LanePanel,
    g: usize,
    xs: &Affine<'_>,
    fin: &Finish<'_>,
    out: &mut [[i32; LANES]],
) {
    assert_eq!(fin.side_at.len(), out.len(), "one offset class per output");
    match arm {
        #[cfg(target_arch = "x86_64")]
        PopcntArm::Avx512 if arm.is_available() => {
            // SAFETY: `is_available` just CPUID-verified avx512f +
            // avx512vpopcntdq (`is_x86_feature_detected!` caches the lookup).
            unsafe { x86::streams_avx512(w, g, xs, fin, out) }
        }
        #[cfg(target_arch = "x86_64")]
        PopcntArm::Avx2 if arm.is_available() => {
            // SAFETY: `is_available` just CPUID-verified avx2.
            unsafe { x86::streams_avx2(w, g, xs, fin, out) }
        }
        _ => finish_either_op::<[u64; LANES]>(w, g, xs, fin, out),
    }
}

/// One panel cell held in registers: [`LANES`] u64 lanes.
trait Lanes: Copy {
    /// Whether eight accumulators plus a cell fit the register file; when
    /// not, streams go four at a time.
    const WIDE: bool;
    fn zero() -> Self;
    fn load(cell: &[u64; LANES]) -> Self;
    /// `self + popc(op(cell, splat(x)))`, per lane.
    fn accumulate<const XOR: bool>(self, cell: Self, x: u64) -> Self;
    /// `2·self`, per lane: the step between two shift levels.
    fn double(self) -> Self;
    /// `out = (a·self + w_side + x_side) >> halve`, per lane, on the total
    /// narrowed to 32 bits (wrapping, like the vector forms: exact whenever
    /// the result — doubled, where it is halved — fits an `i32`). The only
    /// copy of the §3.2 arithmetic the kernels run.
    fn finish(
        self,
        a_halve: (i32, u32),
        w_side: &[i32; LANES],
        x_side: i32,
        out: &mut [i32; LANES],
    );
}

impl Lanes for [u64; LANES] {
    // Two ymm per cell on AVX2's sixteen registers: four streams.
    const WIDE: bool = false;

    #[inline(always)]
    fn zero() -> Self {
        [0; LANES]
    }

    #[inline(always)]
    fn load(cell: &[u64; LANES]) -> Self {
        *cell
    }

    #[inline(always)]
    fn accumulate<const XOR: bool>(mut self, cell: Self, x: u64) -> Self {
        for (acc, w) in self.iter_mut().zip(cell) {
            *acc += u64::from((if XOR { w ^ x } else { w & x }).count_ones());
        }
        self
    }

    #[inline(always)]
    fn double(mut self) -> Self {
        for v in self.iter_mut() {
            *v <<= 1;
        }
        self
    }

    #[inline(always)]
    fn finish(
        self,
        (a, halve): (i32, u32),
        w_side: &[i32; LANES],
        x_side: i32,
        out: &mut [i32; LANES],
    ) {
        for l in 0..LANES {
            let sum = a.wrapping_mul(self[l] as i32);
            out[l] = sum.wrapping_add(w_side[l]).wrapping_add(x_side) >> halve;
        }
    }
}

/// [`finish_streams`] for the call's boolean op, a compile-time constant of
/// the K loop.
#[inline(always)]
fn finish_either_op<V: Lanes>(
    w: &LanePanel,
    g: usize,
    xs: &Affine<'_>,
    fin: &Finish<'_>,
    out: &mut [[i32; LANES]],
) {
    if fin.xor {
        finish_streams::<V, true>(w, g, xs, fin, out)
    } else {
        finish_streams::<V, false>(w, g, xs, fin, out)
    }
}

/// The kernel body: the outputs taken eight, four, two and one at a time,
/// so each block's accumulators are a compile-time-sized register set.
#[inline(always)]
fn finish_streams<V: Lanes, const XOR: bool>(
    w: &LanePanel,
    g: usize,
    xs: &Affine<'_>,
    fin: &Finish<'_>,
    out: &mut [[i32; LANES]],
) {
    let n = out.len();
    let mut j = 0;
    while V::WIDE && n - j >= 8 {
        block::<V, XOR, 8>(w, g, xs, j, fin, out);
        j += 8;
    }
    while n - j >= 4 {
        block::<V, XOR, 4>(w, g, xs, j, fin, out);
        j += 4;
    }
    if n - j >= 2 {
        block::<V, XOR, 2>(w, g, xs, j, fin, out);
        j += 2;
    }
    if n - j >= 1 {
        block::<V, XOR, 1>(w, g, xs, j, fin, out);
    }
}

/// Outputs `j0..j0 + R` against every plane pair: `R` accumulators live in
/// registers through all of it. The pairs go by shift level `d = s + t`,
/// highest first; between levels the accumulators double, and each pair of
/// a level is one pass over K — every cell loaded once, every stream's word
/// broadcast against it — counting straight into them (Horner's rule for
/// `Σ popc(s, t)·2^(s + t)`). Then one [`Lanes::finish`] and one store per
/// output.
#[inline(always)]
fn block<V: Lanes, const XOR: bool, const R: usize>(
    w: &LanePanel,
    g: usize,
    xs: &Affine<'_>,
    j0: usize,
    fin: &Finish<'_>,
    out: &mut [[i32; LANES]],
) {
    let (p, q, kw) = (w.n_planes(), fin.q, w.words_per_row());
    assert!(p >= 1 && q >= 1, "both operands have a plane");
    // Slicing every table to the block's `R` entries up front checks the
    // lengths once and lets the loops index without bounds checks.
    let side_at: &[u32; R] = fin.side_at[j0..][..R].try_into().expect("R entries");
    let out: &mut [[i32; LANES]; R] = (&mut out[j0..][..R]).try_into().expect("R entries");
    let x_sides: [i32; R] = if fin.x_sides.is_empty() {
        [0; R]
    } else {
        fin.x_sides[j0..][..R].try_into().expect("R entries")
    };
    // The block's streams start at `first + i·step`; one past the last word
    // any of them reads is `extent` — saturating, so an extent that does
    // not fit a `usize` fails the per-plane check below instead of wrapping.
    let (step, planes) = (xs.step, &xs.planes[..q]);
    let first = xs.first.saturating_add(j0.saturating_mul(step));
    let extent = first
        .saturating_add((R - 1).saturating_mul(step))
        .saturating_add(kw);

    let mut acc = [V::zero(); R];
    for d in (0..p + q - 1).rev() {
        if d + 2 < p + q {
            for acc in acc.iter_mut() {
                *acc = acc.double();
            }
        }
        for s in d.saturating_sub(q - 1)..(d + 1).min(p) {
            let plane = planes[d - s];
            assert!(extent <= plane.len(), "streams run past their plane");
            for (k, cell) in w.group(s, g).chunks_exact(LANES).enumerate() {
                let cell = V::load(cell.try_into().expect("chunks_exact yields LANES words"));
                for (i, acc) in acc.iter_mut().enumerate() {
                    // SAFETY: `i < R` and `k < kw` (the group holds `kw`
                    // cells), so `first + i·step + k < extent ≤ plane.len()`
                    // by the assert above — which could not pass had the
                    // extent saturated, so no term of the index wrapped.
                    let x = unsafe { *plane.get_unchecked(first + i * step + k) };
                    *acc = acc.accumulate::<XOR>(cell, x);
                }
            }
        }
    }
    for i in 0..R {
        let w_side = &fin.w_sides[side_at[i] as usize];
        acc[i].finish((fin.a, fin.halve), w_side, x_sides[i], &mut out[i]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{finish_either_op, Affine, Finish, LanePanel, Lanes, LANES};
    use core::arch::x86_64::*;

    /// One cell in one zmm. Private to this module and only ever
    /// constructed inside [`streams_avx512`], whose caller CPUID-verified
    /// avx512f + avx512vpopcntdq — the precondition every `unsafe` block
    /// below relies on.
    #[derive(Clone, Copy)]
    struct Zmm(__m512i);

    impl Lanes for Zmm {
        const WIDE: bool = true;

        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: avx512f is present (see `Zmm`).
            Zmm(unsafe { _mm512_setzero_si512() })
        }

        #[inline(always)]
        fn load(cell: &[u64; LANES]) -> Self {
            // SAFETY: avx512f is present (see `Zmm`); `cell` is 64 readable
            // bytes and the load is unaligned.
            Zmm(unsafe { _mm512_loadu_si512(cell.as_ptr().cast()) })
        }

        #[inline(always)]
        fn accumulate<const XOR: bool>(self, cell: Self, x: u64) -> Self {
            // SAFETY: avx512f + avx512vpopcntdq are present (see `Zmm`).
            unsafe {
                let x = _mm512_set1_epi64(x as i64);
                let bits = if XOR {
                    _mm512_xor_si512(cell.0, x)
                } else {
                    _mm512_and_si512(cell.0, x)
                };
                Zmm(_mm512_add_epi64(self.0, _mm512_popcnt_epi64(bits)))
            }
        }

        #[inline(always)]
        fn double(self) -> Self {
            // SAFETY: avx512f is present (see `Zmm`).
            Zmm(unsafe { _mm512_add_epi64(self.0, self.0) })
        }

        #[inline(always)]
        fn finish(
            self,
            (a, halve): (i32, u32),
            w_side: &[i32; LANES],
            x_side: i32,
            out: &mut [i32; LANES],
        ) {
            // SAFETY: avx512f is present (see `Zmm`), and every CPU with
            // avx512f has the 256-bit avx2 integer forms used on the
            // narrowed total; `w_side` is 32 readable and `out` 32 writable
            // bytes, both accesses unaligned.
            unsafe {
                let total = _mm512_cvtepi64_epi32(self.0);
                let side = _mm256_add_epi32(
                    _mm256_loadu_si256(w_side.as_ptr().cast()),
                    _mm256_set1_epi32(x_side),
                );
                let v = _mm256_add_epi32(_mm256_mullo_epi32(total, _mm256_set1_epi32(a)), side);
                let v = _mm256_sra_epi32(v, _mm_cvtsi32_si128(halve as i32));
                _mm256_storeu_si256(out.as_mut_ptr().cast(), v);
            }
        }
    }

    /// # Safety
    /// The CPU must support avx512f and avx512vpopcntdq.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn streams_avx512(
        w: &LanePanel,
        g: usize,
        xs: &Affine<'_>,
        fin: &Finish<'_>,
        out: &mut [[i32; LANES]],
    ) {
        finish_either_op::<Zmm>(w, g, xs, fin, out)
    }

    /// # Safety
    /// The CPU must support avx2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn streams_avx2(
        w: &LanePanel,
        g: usize,
        xs: &Affine<'_>,
        fin: &Finish<'_>,
        out: &mut [[i32; LANES]],
    ) {
        finish_either_op::<[u64; LANES]>(w, g, xs, fin, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xs64(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    /// One plane of one full row group holding `cells` verbatim.
    fn panel_of(cells: &[u64]) -> LanePanel {
        LanePanel::from_fn(1, LANES, cells.len() / LANES, |_, row, k| {
            cells[k * LANES + row]
        })
    }

    /// The raw counts of every stream: the finish that is the identity
    /// (`a = 1`, zero offsets, one plane pair per output). The streams (all
    /// one length) lie strided in one plane, a junk word between
    /// neighbours and none after the last, so a stream shorter than the
    /// panel's K runs off the plane.
    fn raw_counts(
        arm: PopcntArm,
        xor: bool,
        w: &LanePanel,
        streams: &[Vec<u64>],
    ) -> Vec<[i32; LANES]> {
        let n = streams.len();
        let step = streams.first().map_or(0, Vec::len) + 1;
        let mut flat = Vec::new();
        for (j, x) in streams.iter().enumerate() {
            assert_eq!(x.len() + 1, step, "streams of one length");
            if j > 0 {
                flat.push(0x5A5A_5A5A_5A5A_5A5A);
            }
            flat.extend_from_slice(x);
        }
        let fin = Finish {
            xor,
            a: 1,
            halve: 0,
            q: 1,
            w_sides: &[[0; LANES]],
            side_at: &vec![0; n],
            x_sides: &[],
        };
        let xs = Affine {
            planes: &[&flat],
            first: 0,
            step,
        };
        // Stale contents must be overwritten, not accumulated into.
        let mut out = vec![[-1i32; LANES]; n];
        finish_lanes(arm, w, 0, &xs, &fin, &mut out);
        out
    }

    /// The per-output scalar reference.
    fn reference(xor: bool, cells: &[u64], xs: &[Vec<u64>]) -> Vec<[i32; LANES]> {
        xs.iter()
            .map(|x| {
                std::array::from_fn(|lane| {
                    x.iter()
                        .enumerate()
                        .map(|(k, &xw)| {
                            let w = cells[k * LANES + lane];
                            (if xor { w ^ xw } else { w & xw }).count_ones() as i32
                        })
                        .sum()
                })
            })
            .collect()
    }

    fn check(cells: &[u64], streams: &[Vec<u64>], ctx: &str) {
        let w = panel_of(cells);
        for arm in PopcntArm::ALL {
            for xor in [true, false] {
                let want = reference(xor, cells, streams);
                assert_eq!(
                    raw_counts(arm, xor, &w, streams),
                    want,
                    "{arm:?} {xor} {ctx}"
                );
            }
        }
    }

    #[test]
    fn labels_round_trip() {
        for arm in PopcntArm::ALL {
            assert_eq!(PopcntArm::parse(arm.label()), Some(arm));
        }
        assert_eq!(PopcntArm::parse("AVX512"), Some(PopcntArm::Avx512));
        assert_eq!(PopcntArm::parse("harley-seal"), None, "arm removed");
        assert_eq!(PopcntArm::parse("riscv-v"), None);
    }

    #[test]
    fn scalar_arms_are_always_available() {
        assert!(PopcntArm::Scalar.is_available());
        assert!(!PopcntArm::available().is_empty());
        assert!(PopcntArm::best_available().is_available());
        assert!(PopcntArm::detect().is_available());
    }

    #[test]
    fn sanitize_never_returns_an_unavailable_arm() {
        for arm in PopcntArm::ALL {
            assert!(arm.sanitized().is_available(), "{arm:?}");
        }
    }

    #[test]
    fn every_arm_matches_the_scalar_reference_for_every_length() {
        // Every K length around the word counts real layers have, and every
        // stream count around the 8/4/2/1 pass split. Unavailable arms run
        // the baseline body, which must also be exact.
        let mut seed = 0xA076_1D64_78BD_642Fu64;
        for kw in (0..=20).chain([36, 63, 64, 65, 129]) {
            let cells: Vec<u64> = (0..kw * LANES).map(|_| xs64(&mut seed)).collect();
            for n_streams in (0..=17).chain([64]) {
                let streams: Vec<Vec<u64>> = (0..n_streams)
                    .map(|_| (0..kw).map(|_| xs64(&mut seed)).collect())
                    .collect();
                check(&cells, &streams, &format!("kw {kw} streams {n_streams}"));
            }
        }
    }

    #[test]
    fn dense_and_sparse_extremes_are_exact() {
        let kw = 33;
        let (ones, zeros) = (vec![u64::MAX; kw * LANES], vec![0u64; kw * LANES]);
        let streams = vec![vec![u64::MAX; kw], vec![0u64; kw], vec![u64::MAX; kw]];
        check(&ones, &streams, "dense cells");
        check(&zeros, &streams, "zero cells");
        for arm in PopcntArm::ALL {
            let out = raw_counts(arm, false, &panel_of(&ones), &streams);
            let full = [kw as i32 * 64; LANES];
            assert_eq!(out, [full, [0; LANES], full], "{arm:?}");
        }
    }

    #[test]
    fn empty_slices_count_zero_on_every_arm() {
        // A zero-word reduction stores zeros; zero streams store nothing.
        check(&[], &[vec![], vec![]], "kw 0");
        check(&[0; LANES], &[], "no streams");
    }

    #[test]
    #[should_panic]
    fn short_streams_are_rejected() {
        raw_counts(
            PopcntArm::Scalar,
            false,
            &panel_of(&[0u64; 2 * LANES]),
            &[vec![0u64; 1]],
        );
    }

    /// `(xor, a, k, r, c, halve)` of the seven §3.2 corrections — the rows
    /// of `apnn_kernels::select::EmulationCase::correction`, which this
    /// crate cannot name.
    const CORRECTIONS: [(bool, i32, i32, i32, i32, u32); 7] = [
        (false, 1, 0, 0, 0, 0),
        (true, -2, 1, 0, 0, 0),
        (false, 2, 0, 0, -1, 0),
        (false, 2, 0, -1, 0, 0),
        (true, -1, 0, 1, 1, 1),
        (true, -1, 0, 1, 0, 0),
        (true, -1, 0, 0, 1, 0),
    ];

    /// `apnn_kernels::select::adjust_partial`, spelled out: the scalar
    /// spec of one plane pair's partial product.
    fn adjust_partial(
        (_, a, k, r, c, halve): (bool, i32, i32, i32, i32, u32),
        popc: i32,
        k_valid: i32,
        w_sum: i32,
        x_sum: i32,
    ) -> i32 {
        (a * popc + k * k_valid + r * w_sum + c * x_sum) >> halve
    }

    /// One finished call — `p × q` planes, `n_out` outputs, `kw` words,
    /// correction sums as large as the shifted total leaves room for —
    /// against the naive `Σ adjust_partial << (s + t)`, on every arm, over
    /// garbage `out` contents. The streams lie `step` words apart from word
    /// `first` of their plane, so `step < kw` overlaps neighbours (conv
    /// windows) and `step > kw` skips words (a stride, a row pitch); each
    /// plane ends exactly where its last stream does. The kernel sees the
    /// offsets folded over the plane pairs; the halving case draws its sums
    /// as what they are in every real call, the operands' own popcounts,
    /// which is what makes its partials even.
    fn check_finish(
        case: usize,
        (p, q): (usize, usize),
        n_out: usize,
        kw: usize,
        (first, step): (usize, usize),
        seed: u64,
    ) {
        let corr = CORRECTIONS[case];
        let (xor, a, k, r, c, halve) = corr;
        let mut seed = seed | 1;
        // |partial| ≤ bound keeps Σ partial << (s + t) inside an i32.
        let bound = i32::MAX / (((1 << p) - 1) * ((1 << q) - 1));
        let kw = kw.min(bound as usize / 4 / 128);
        let mut words = |n: usize| -> Vec<u64> { (0..n).map(|_| xs64(&mut seed)).collect() };
        let cells = words(p * kw * LANES);
        let w = LanePanel::from_fn(p, LANES, kw, |s, row, k| cells[(s * kw + k) * LANES + row]);
        let planes: Vec<Vec<u64>> = (0..q)
            .map(|_| words(first + (n_out - 1) * step + kw))
            .collect();
        let stream = |t: usize, j: usize| &planes[t][first + j * step..][..kw];

        let mut side = || (xs64(&mut seed) % (bound as u64 / 2)) as i32 - bound / 4;
        let k_valid = side();
        // Three classes of output, each with its own weight sums.
        let w_sums: Vec<[i32; LANES]> = (0..3 * p)
            .map(|i| {
                std::array::from_fn(|lane| match halve {
                    0 => side(),
                    _ => w.row_sums(i % p)[lane],
                })
            })
            .collect();
        let side_at: Vec<u32> = (0..n_out).map(|j| (j % 3) as u32).collect();
        let x_sums: Vec<i32> = (0..q * n_out)
            .map(|i| match halve {
                0 => side(),
                _ => stream(i / n_out, i % n_out)
                    .iter()
                    .map(|x| x.count_ones() as i32)
                    .sum(),
            })
            .collect();
        // The folds, the way the drivers tabulate them (wrapping, like the
        // kernel's own arithmetic).
        let fold = |planes: usize, others: usize, term: &dyn Fn(usize) -> i32| -> i32 {
            let sum: i64 = (0..planes).map(|i| i64::from(term(i)) << i).sum();
            (sum * ((1i64 << others) - 1)) as i32
        };
        let w_sides: Vec<[i32; LANES]> = (0..3)
            .map(|class| {
                std::array::from_fn(|lane| {
                    fold(p, q, &|s| k * k_valid + r * w_sums[class * p + s][lane])
                })
            })
            .collect();
        let x_sides: Vec<i32> = (0..n_out)
            .map(|j| fold(q, p, &|t| c * x_sums[t * n_out + j]))
            .collect();

        let want: Vec<[i32; LANES]> = (0..n_out)
            .map(|j| {
                std::array::from_fn(|lane| {
                    let mut sum = 0i32;
                    for (s, t) in (0..p).flat_map(|s| (0..q).map(move |t| (s, t))) {
                        let row = stream(t, j);
                        let popc: u32 = (0..kw)
                            .map(|k| {
                                let cell = w.row_word(s, lane, k);
                                (if xor { cell ^ row[k] } else { cell & row[k] }).count_ones()
                            })
                            .sum();
                        let (w_sum, x_sum) = (
                            w_sums[side_at[j] as usize * p + s][lane],
                            x_sums[t * n_out + j],
                        );
                        // What lets one halving serve the whole sum:
                        // `popc(w) + popc(x) − popc(w ⊕ x) = 2·popc(w ∧ x)`.
                        assert_eq!(
                            (a * popc as i32 + k * k_valid + r * w_sum + c * x_sum) & halve as i32,
                            0,
                            "halved partials are even"
                        );
                        sum += adjust_partial(corr, popc as i32, k_valid, w_sum, x_sum) << (s + t);
                    }
                    sum
                })
            })
            .collect();

        let planes: Vec<&[u64]> = planes.iter().map(Vec::as_slice).collect();
        let xs = Affine {
            planes: &planes,
            first,
            step,
        };
        for arm in PopcntArm::ALL {
            let fin = Finish {
                xor,
                a,
                halve,
                q,
                w_sides: &w_sides,
                side_at: &side_at,
                // A case without an activation side may pass none.
                x_sides: if c == 0 { &[] } else { &x_sides },
            };
            let mut out = vec![[i32::MIN; LANES]; n_out];
            finish_lanes(arm, &w, 0, &xs, &fin, &mut out);
            assert_eq!(
                out, want,
                "case {case} w{p}a{q} outs {n_out} kw {kw} first {first} step {step} {arm:?}"
            );
        }
    }

    #[test]
    fn finish_matches_adjust_partial_on_every_arm() {
        // All seven corrections; every shift `s + t` of 0..=14 as the top
        // plane pair of a `p × q` call; output counts either side of the
        // block split; streams overlapping, back to back and strided.
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        for case in 0..CORRECTIONS.len() {
            for shift in 0..=14usize {
                let pq = (shift / 2 + 1, shift - shift / 2 + 1);
                for (n_out, kw) in [(1usize, 3usize), (3, 40), (8, 9)] {
                    for (first, step) in [(2, kw / 3), (0, kw), (1, kw + 3)] {
                        check_finish(case, pq, n_out, kw, (first, step), xs64(&mut seed));
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The grid above at random shapes (the nightly deep run drives
        /// this at 2048 cases).
        #[test]
        fn finish_equals_adjust_partial_sum(
            case in 0usize..7, p in 1usize..9, q in 1usize..9, n_out in 1usize..10,
            kw in 0usize..70, first in 0usize..4, step in 0usize..80,
            seed in proptest::prelude::any::<u64>(),
        ) {
            check_finish(case, (p, q), n_out, kw, (first, step), seed);
        }
    }
}
