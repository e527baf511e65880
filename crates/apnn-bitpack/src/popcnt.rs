//! The lane-per-output popcount kernel and its runtime-dispatched arms.
//!
//! The one reduction every functional kernel runs is
//!
//! `out[r][lane] = Σ_k popc(op(cells[k·LANES + lane], xs[r][k]))`
//!
//! over a [`crate::panel::LanePanel`] row group (`cells`: eight interleaved
//! weight rows, 64 bytes per K word) and a few *streams* `xs[r]` — one
//! activation row of one bit plane each. Per K word the kernel loads the
//! cell once and, for every stream, broadcasts the stream's word against
//! it: AND/XOR, per-lane popcount, per-lane add. Each lane of an
//! accumulator is a different output, so the K pass ends with the counts
//! where they are needed — no horizontal sum, no per-output call. This is
//! the CPU form of the `bmma` accumulator fragment (one output per
//! element, K reduced inside the primitive).
//!
//! The kernel is **one generic body** (`popcount_streams`), instantiated
//! once per [`PopcntArm`] under that arm's `#[target_feature]` so the whole
//! K pass runs inside the feature boundary:
//!
//! * [`PopcntArm::Scalar`] — the body over `[u64; 8]` lanes at the build's
//!   baseline features. LLVM vectorizes the lane loop with whatever the
//!   baseline has (SSE2/SSSE3 byte-LUT or SWAR `count_ones` on a portable
//!   build; under `target-cpu=native` the host's own vectors).
//! * [`PopcntArm::Avx2`] — the same `[u64; 8]` body under `avx2`: two ymm
//!   per cell, `vpshufb` nibble-LUT popcount.
//! * [`PopcntArm::Avx512`] — the body over one explicit `__m512i` per cell
//!   (`avx512f` + `avx512vpopcntdq`): `vpandq`/`vpxorq` with a broadcast
//!   memory operand, `vpopcntq`, `vpaddq` — three instructions per 512
//!   bit-MACs. The lane type is explicit because Intel server tunings make
//!   LLVM prefer 256-bit vectors, which halves `vpopcntq` throughput.
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

use crate::panel::LANES;

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

/// `out[r][lane] = Σ_k popc(cells[k·LANES + lane] & xs[r][k])` on an
/// explicit arm: `cells` is one [`crate::panel::LanePanel::group`], every
/// stream `xs[r]` holds (at least) one word per cell. Exact for every arm
/// and length; an arm the CPU cannot run executes the baseline body, so the
/// call is always sound.
#[inline]
pub fn and_popcount_lanes(arm: PopcntArm, cells: &[u64], xs: &[&[u64]], out: &mut [[i32; LANES]]) {
    popcount_lanes::<false>(arm, cells, xs, out)
}

/// `out[r][lane] = Σ_k popc(cells[k·LANES + lane] ^ xs[r][k])` (same
/// contract as [`and_popcount_lanes`]). A zero pad lane counts `popc(xs[r])`
/// here — callers discard pad lanes.
#[inline]
pub fn xor_popcount_lanes(arm: PopcntArm, cells: &[u64], xs: &[&[u64]], out: &mut [[i32; LANES]]) {
    popcount_lanes::<true>(arm, cells, xs, out)
}

#[inline]
fn popcount_lanes<const XOR: bool>(
    arm: PopcntArm,
    cells: &[u64],
    xs: &[&[u64]],
    out: &mut [[i32; LANES]],
) {
    assert_eq!(xs.len(), out.len(), "one output cell per stream");
    match arm {
        #[cfg(target_arch = "x86_64")]
        PopcntArm::Avx512 if arm.is_available() => {
            // SAFETY: `is_available` just CPUID-verified avx512f +
            // avx512vpopcntdq (`is_x86_feature_detected!` caches the lookup).
            unsafe { x86::streams_avx512::<XOR>(cells, xs, out) }
        }
        #[cfg(target_arch = "x86_64")]
        PopcntArm::Avx2 if arm.is_available() => {
            // SAFETY: `is_available` just CPUID-verified avx2.
            unsafe { x86::streams_avx2::<XOR>(cells, xs, out) }
        }
        _ => popcount_streams::<[u64; LANES], XOR>(cells, xs, out),
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
    fn store(self, out: &mut [i32; LANES]);
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
    fn store(self, out: &mut [i32; LANES]) {
        for (o, acc) in out.iter_mut().zip(self) {
            *o = acc as i32;
        }
    }
}

/// The kernel body: every stream's K pass against one row group, the
/// streams taken eight, four, two and one at a time so each pass's
/// accumulators are a compile-time-sized register set.
#[inline(always)]
fn popcount_streams<V: Lanes, const XOR: bool>(
    cells: &[u64],
    xs: &[&[u64]],
    out: &mut [[i32; LANES]],
) {
    let mut r = 0;
    while V::WIDE && xs.len() - r >= 8 {
        k_pass::<V, XOR, 8>(cells, &xs[r..], &mut out[r..]);
        r += 8;
    }
    while xs.len() - r >= 4 {
        k_pass::<V, XOR, 4>(cells, &xs[r..], &mut out[r..]);
        r += 4;
    }
    if xs.len() - r >= 2 {
        k_pass::<V, XOR, 2>(cells, &xs[r..], &mut out[r..]);
        r += 2;
    }
    if xs.len() - r >= 1 {
        k_pass::<V, XOR, 1>(cells, &xs[r..], &mut out[r..]);
    }
}

/// One pass over K for the first `R` streams: `R` accumulators live in
/// registers, each cell is loaded once and every stream's word is
/// broadcast against it.
#[inline(always)]
fn k_pass<V: Lanes, const XOR: bool, const R: usize>(
    cells: &[u64],
    xs: &[&[u64]],
    out: &mut [[i32; LANES]],
) {
    let kw = cells.len() / LANES;
    // Slicing every stream to `kw` up front checks the lengths once and
    // lets the K loop index without bounds checks.
    let xs: [&[u64]; R] = std::array::from_fn(|r| &xs[r][..kw]);
    let mut acc = [V::zero(); R];
    for (k, cell) in cells.chunks_exact(LANES).enumerate() {
        let cell = V::load(cell.try_into().expect("chunks_exact yields LANES words"));
        for r in 0..R {
            acc[r] = acc[r].accumulate::<XOR>(cell, xs[r][k]);
        }
    }
    for (o, a) in out[..R].iter_mut().zip(acc) {
        a.store(o);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{popcount_streams, Lanes, LANES};
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
        fn store(self, out: &mut [i32; LANES]) {
            // SAFETY: avx512f is present (see `Zmm`); `out` is 32 writable
            // bytes and the store is unaligned.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), _mm512_cvtepi64_epi32(self.0)) }
        }
    }

    /// # Safety
    /// The CPU must support avx512f and avx512vpopcntdq.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn streams_avx512<const XOR: bool>(
        cells: &[u64],
        xs: &[&[u64]],
        out: &mut [[i32; LANES]],
    ) {
        popcount_streams::<Zmm, XOR>(cells, xs, out)
    }

    /// # Safety
    /// The CPU must support avx2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn streams_avx2<const XOR: bool>(
        cells: &[u64],
        xs: &[&[u64]],
        out: &mut [[i32; LANES]],
    ) {
        popcount_streams::<[u64; LANES], XOR>(cells, xs, out)
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

    /// The per-output scalar reference.
    fn reference(xor: bool, cells: &[u64], xs: &[&[u64]]) -> Vec<[i32; LANES]> {
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
        let xs: Vec<&[u64]> = streams.iter().map(Vec::as_slice).collect();
        for arm in PopcntArm::ALL {
            // Stale contents must be overwritten, not accumulated into.
            let mut out = vec![[-1i32; LANES]; xs.len()];
            xor_popcount_lanes(arm, cells, &xs, &mut out);
            assert_eq!(out, reference(true, cells, &xs), "{arm:?} xor {ctx}");
            and_popcount_lanes(arm, cells, &xs, &mut out);
            assert_eq!(out, reference(false, cells, &xs), "{arm:?} and {ctx}");
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
        let xs: Vec<&[u64]> = streams.iter().map(Vec::as_slice).collect();
        for arm in PopcntArm::ALL {
            let mut out = [[0i32; LANES]; 3];
            and_popcount_lanes(arm, &ones, &xs, &mut out);
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
        let cells = [0u64; 2 * LANES];
        let short = [0u64; 1];
        let mut out = [[0i32; LANES]; 1];
        and_popcount_lanes(PopcntArm::Scalar, &cells, &[&short], &mut out);
    }
}
