//! Dense stems: the accumulator rows of a window-dense convolution
//! ([`ConvDesc::window_dense`] — the 3-channel stems) as exact 16-bit
//! multiply-adds over unpacked codes.
//!
//! The paper emulates low-bit products with 1-bit popcounts because the
//! GPU has no int2/int3 primitive. A stem's operands do not suit that: its
//! input is 8-bit codes, and a 3-channel pixel fills 3 bits of a 64-bit
//! word per plane, so emulation pays a strip, a window pass and an `8·p`
//! popcount chain per output row where the CPU has an exact 16-bit
//! multiply-add (`vpmaddwd`: sixteen i32 lanes, each the sum of two i16
//! products). Codes are below 2⁸ and weights below 2⁸ or ±1, so no product
//! or pair sum leaves an i32 and the rows are the oracle's integers — the
//! §5.2 tail runs on them unchanged.
//!
//! * **Weights** (`DenseWeights`, built once per `prepare`): each weight
//!   is its value `w_enc.code_value(code, p)`, laid out per chunk of
//!   `DENSE_LANES` output channels, per `ky`, per i16 *pair* of the
//!   `kw·cin` run of that kernel row (padded to even with a zero weight):
//!   one 64-byte vector holds the pair for all sixteen lanes, interleaved
//!   the way `vpmaddwd` reads them.
//! * **Image** (`unpack_image`, once per image): every input row
//!   unpacked exactly once ([`BitTensor4::unpack_row`]) into a zero-padded
//!   i16 buffer of `h + 2·pad` rows × `(w + 2·pad)·cin` values — a code's
//!   value, ±1 for a 1-bit `PlusMinusOne` map. Out-of-frame taps read the
//!   zeros, the oracle's own padding, so no correction or window class is
//!   needed.
//! * **Rows** (`row`): the window of output pixel `ox`, kernel row `ky`,
//!   is the contiguous run at `(oy·stride + ky)·pitch + ox·stride·cin`, so
//!   per block of pixels and `(ky, pair)` one weight vector is loaded and
//!   each pixel's i16 pair broadcast against it, multiply-added into the
//!   pixel's sixteen accumulators. Any stride and pad.
//!
//! Like [`super::tail`] the row body is one generic function over a lane
//! trait (`Madd`), instantiated per [`PopcntArm`] under that arm's
//! `#[target_feature]`: an explicit `__m512i` impl (`avx512f` +
//! `avx512bw`), an explicit pair of `__m256i` for the AVX2 arm, and a
//! plain-array impl for the portable arms. The AVX2 arm is explicit because
//! LLVM lowers the plain-array pair product to four `vpmulld` per sixteen
//! lanes where one `vpmaddwd` per eight does, which measured slower than
//! the AVX2 bit-plane emulation on the 5×5 stem.

use apnn_bitpack::{BitTensor4, Encoding, PopcntArm};

use super::{ConvDesc, ConvWeights};
use crate::autotune::MAX_JB;

/// Output channels per weight vector: the sixteen i32 lanes of one
/// multiply-add.
pub(crate) const DENSE_LANES: usize = 16;

/// One `(chunk, ky, pair)` of the weight table: lane `l`'s pair at
/// `[2l, 2l + 1]`.
type PairVector = [i16; 2 * DENSE_LANES];

/// A window-dense layer's weights as exact i16 values, in the order the
/// row kernel streams them (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct DenseWeights {
    /// `[chunk][ky][pair]`.
    table: Vec<PairVector>,
    /// i16 pairs per kernel row: `⌈kw·cin / 2⌉`.
    pairs: usize,
}

impl DenseWeights {
    /// The table of `weights` (packed for `desc`): weight `(co, ky, kx, c)`
    /// is K element `kx·cin + c` of kernel row `ky`, lane `co mod 16` of
    /// chunk `co / 16`; the odd run's pad element and the pad lanes stay 0.
    pub(crate) fn new(desc: &ConvDesc, weights: &ConvWeights) -> Self {
        let (cout, taps, cin, padded_c) = weights.dims();
        assert_eq!(
            (cout, taps, cin),
            (desc.cout, desc.kh * desc.kw, desc.cin),
            "weights were packed for another layer"
        );
        let (kh, run) = (desc.kh, desc.kw * cin);
        let pairs = run.div_ceil(2);
        let mut table = vec![[0i16; 2 * DENSE_LANES]; cout.div_ceil(DENSE_LANES) * kh * pairs];
        let planes = weights.planes();
        for (co, ky, k) in
            (0..cout).flat_map(|co| (0..kh).flat_map(move |ky| (0..run).map(move |k| (co, ky, k))))
        {
            let col = (ky * desc.kw + k / cin) * padded_c + k % cin;
            let code = (0..desc.w_bits)
                .filter(|&s| planes.plane(s).get(co, col))
                .fold(0u32, |code, s| code | 1 << s);
            let (chunk, lane) = (co / DENSE_LANES, co % DENSE_LANES);
            table[(chunk * kh + ky) * pairs + k / 2][2 * lane + k % 2] =
                desc.w_enc.code_value(code, desc.w_bits) as i16;
        }
        DenseWeights { table, pairs }
    }
}

/// The i16 image buffer a window-dense layer needs: `h + 2·pad` rows of
/// `(w + 2·pad)·cin` values, plus the one value past the last row an odd
/// `kw·cin` run's pad element reads (against a zero weight); 0 for any
/// other layer.
pub fn image_len(desc: &ConvDesc) -> usize {
    if !desc.window_dense() {
        return 0;
    }
    (desc.h + 2 * desc.pad) * (desc.w + 2 * desc.pad) * desc.cin + 1
}

/// Zero `image` at [`image_len`] — the padding, which [`unpack_image`]
/// never writes, so it stays zero for every image of the call.
pub(super) fn clear_image(desc: &ConvDesc, image: &mut Vec<i16>) {
    image.clear();
    image.resize(image_len(desc), 0);
}

/// Unpack image `b` of `input` into the interior of `image` (cleared by
/// [`clear_image`]): row `y`'s `w·cin` values at padded row `y + pad`,
/// column `pad`.
pub(super) fn unpack_image(desc: &ConvDesc, input: &BitTensor4, b: usize, image: &mut [i16]) {
    let (cin, pitch) = (desc.cin, (desc.w + 2 * desc.pad) * desc.cin);
    for y in 0..desc.h {
        let row = &mut image[(y + desc.pad) * pitch + desc.pad * cin..][..desc.w * cin];
        input.unpack_row(b, y, row);
        if desc.x_enc == Encoding::PlusMinusOne {
            for v in row.iter_mut() {
                *v = 2 * *v - 1;
            }
        }
    }
}

/// Output row `oy` of the image in `image` ([`unpack_image`]): its
/// `out_w × cout` exact i32 sums into `out`, blocks of `jb` pixels sharing
/// each loaded weight vector, on `arm`'s instantiation of the row body.
pub(super) fn row(
    arm: PopcntArm,
    desc: &ConvDesc,
    w: &DenseWeights,
    image: &[i16],
    oy: usize,
    jb: usize,
    out: &mut [i32],
) {
    let geo = Geometry::new(desc, w, image, oy, jb, out);
    match arm {
        #[cfg(target_arch = "x86_64")]
        PopcntArm::Avx512
            if arm.is_available() && std::arch::is_x86_feature_detected!("avx512bw") =>
        {
            // SAFETY: `is_available` CPUID-verified avx512f and the check
            // beside it avx512bw (`is_x86_feature_detected!` caches both).
            unsafe { x86::row_avx512(geo, w, image, out) }
        }
        #[cfg(target_arch = "x86_64")]
        PopcntArm::Avx2 if arm.is_available() => {
            // SAFETY: `is_available` just CPUID-verified avx2.
            unsafe { x86::row_avx2(geo, w, image, out) }
        }
        _ => lane_row::<[i32; DENSE_LANES]>(geo, w, image, out),
    }
}

/// What a row's blocks index by, checked against the buffers once.
#[derive(Clone, Copy)]
struct Geometry {
    kh: usize,
    ow: usize,
    cout: usize,
    jb: usize,
    /// i16 values per padded image row.
    pitch: usize,
    /// i16 values from one output pixel's window to the next.
    step: usize,
    /// Where the row's windows start in the image: padded row `oy·stride`.
    first: usize,
}

impl Geometry {
    fn new(
        desc: &ConvDesc,
        w: &DenseWeights,
        image: &[i16],
        oy: usize,
        jb: usize,
        out: &[i32],
    ) -> Self {
        let (ow, cout) = (desc.out_w(), desc.cout);
        assert!(ow > 0, "an output row has a pixel");
        let geo = Geometry {
            kh: desc.kh,
            ow,
            cout,
            jb: jb.clamp(1, MAX_JB),
            pitch: (desc.w + 2 * desc.pad) * desc.cin,
            step: desc.stride * desc.cin,
            first: oy * desc.stride * (desc.w + 2 * desc.pad) * desc.cin,
        };
        assert_eq!(out.len(), ow * cout, "one accumulator row");
        assert_eq!(
            w.table.len(),
            cout.div_ceil(DENSE_LANES) * geo.kh * w.pairs,
            "weights were laid out for another layer"
        );
        // The last pair of the row's last window, odd pad element included.
        let end = geo.first + (ow - 1) * geo.step + (geo.kh - 1) * geo.pitch + 2 * w.pairs;
        assert!(end <= image.len(), "windows run past the image");
        geo
    }
}

/// Sixteen i32 accumulators, and the multiply-add that feeds them.
trait Madd: Copy {
    /// Whether eight accumulators plus their operands fit the register
    /// file; when not, pixels go four at a time.
    const WIDE: bool;
    /// One [`PairVector`] in registers.
    type W: Copy;
    fn zero() -> Self;
    fn weights(w: &PairVector) -> Self::W;
    /// `self + x₀·w[2l] + x₁·w[2l + 1]` per lane `l`, where `pair` holds
    /// the i16 `x₀` in its low half and `x₁` in its high half (the two
    /// values as they lie in memory).
    fn madd(self, pair: i32, w: Self::W) -> Self;
    /// Lanes `..out.len()` (≤ 16) into `out`.
    fn store(self, out: &mut [i32]);
}

/// The plain-array lanes: branch-free loops over the sixteen lanes, which
/// the auto-vectorizer turns into the build's own vectors.
impl Madd for [i32; DENSE_LANES] {
    const WIDE: bool = false;
    type W = PairVector;

    #[inline(always)]
    fn zero() -> Self {
        [0; DENSE_LANES]
    }

    #[inline(always)]
    fn weights(w: &PairVector) -> PairVector {
        *w
    }

    #[inline(always)]
    fn madd(self, pair: i32, w: PairVector) -> Self {
        let (x0, x1) = (i32::from(pair as i16), pair >> 16);
        std::array::from_fn(|l| {
            let sum = x0 * i32::from(w[2 * l]) + x1 * i32::from(w[2 * l + 1]);
            self[l].wrapping_add(sum)
        })
    }

    #[inline(always)]
    fn store(self, out: &mut [i32]) {
        out.copy_from_slice(&self[..out.len()]);
    }
}

/// The row body: per chunk of sixteen channels, the row's pixels in blocks
/// of `jb`, each taken eight, four, two and one at a time so a block's
/// accumulators are a compile-time-sized register set.
#[inline(always)]
fn lane_row<V: Madd>(geo: Geometry, w: &DenseWeights, image: &[i16], out: &mut [i32]) {
    let taps = geo.kh * w.pairs;
    for (chunk, table) in w.table.chunks_exact(taps).enumerate() {
        let c0 = chunk * DENSE_LANES;
        let lanes = DENSE_LANES.min(geo.cout - c0);
        for ox0 in (0..geo.ow).step_by(geo.jb) {
            let end = (ox0 + geo.jb).min(geo.ow);
            let mut ox = ox0;
            while V::WIDE && end - ox >= 8 {
                block::<V, 8>(geo, table, w.pairs, image, (ox, c0, lanes), out);
                ox += 8;
            }
            while end - ox >= 4 {
                block::<V, 4>(geo, table, w.pairs, image, (ox, c0, lanes), out);
                ox += 4;
            }
            if end - ox >= 2 {
                block::<V, 2>(geo, table, w.pairs, image, (ox, c0, lanes), out);
                ox += 2;
            }
            if end - ox >= 1 {
                block::<V, 1>(geo, table, w.pairs, image, (ox, c0, lanes), out);
            }
        }
    }
}

/// Pixels `ox0..ox0 + R`, channels `c0..c0 + lanes`: `R` accumulators in
/// registers through every `(ky, pair)` of one chunk's `table`, then one
/// store each. The pair reads are unchecked: the row's extent is asserted
/// once (`Geometry::new`), and the same loop with two bounds-checked i16
/// reads per pair measured ×1.2 (3×3×3) to ×1.9 (5×5×3) slower per image.
#[inline(always)]
fn block<V: Madd, const R: usize>(
    geo: Geometry,
    table: &[PairVector],
    pairs: usize,
    image: &[i16],
    (ox0, c0, lanes): (usize, usize, usize),
    out: &mut [i32],
) {
    let mut acc = [V::zero(); R];
    for (ky, row) in table.chunks_exact(pairs).enumerate() {
        let at = geo.first + ky * geo.pitch + ox0 * geo.step;
        for (p, w) in row.iter().enumerate() {
            let w = V::weights(w);
            for (i, acc) in acc.iter_mut().enumerate() {
                let x = at + i * geo.step + 2 * p;
                // SAFETY: `x + 1 < geo.first + (ow − 1)·step + (kh − 1)·pitch
                // + 2·pairs ≤ image.len()`, which `Geometry::new` asserted
                // (`ox0 + i < ow`, `ky < kh`, `p < pairs`), so both i16 of
                // the unaligned 32-bit read are in the buffer.
                let pair = unsafe { image.as_ptr().add(x).cast::<i32>().read_unaligned() };
                *acc = acc.madd(pair, w);
            }
        }
    }
    for (i, acc) in acc.iter().enumerate() {
        acc.store(&mut out[(ox0 + i) * geo.cout + c0..][..lanes]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{lane_row, DenseWeights, Geometry, Madd, PairVector, DENSE_LANES};
    use core::arch::x86_64::*;

    /// Sixteen i32 in one zmm. Private to this module and only ever
    /// constructed inside [`row_avx512`], whose caller CPUID-verified
    /// avx512f and avx512bw — the precondition every `unsafe` block below
    /// relies on.
    #[derive(Clone, Copy)]
    struct Zmm(__m512i);

    impl Madd for Zmm {
        const WIDE: bool = true;
        type W = __m512i;

        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: avx512f is present (see `Zmm`).
            Zmm(unsafe { _mm512_setzero_si512() })
        }

        #[inline(always)]
        fn weights(w: &PairVector) -> __m512i {
            // SAFETY: avx512f is present (see `Zmm`); `w` is 64 readable
            // bytes and the load is unaligned.
            unsafe { _mm512_loadu_si512(w.as_ptr().cast()) }
        }

        #[inline(always)]
        fn madd(self, pair: i32, w: __m512i) -> Self {
            // SAFETY: avx512f (`vpbroadcastd`, `vpaddd`) and avx512bw
            // (`vpmaddwd`) are present (see `Zmm`).
            Zmm(unsafe { _mm512_add_epi32(self.0, _mm512_madd_epi16(_mm512_set1_epi32(pair), w)) })
        }

        #[inline(always)]
        fn store(self, out: &mut [i32]) {
            let k = ((1u32 << out.len().min(DENSE_LANES)) - 1) as __mmask16;
            // SAFETY: avx512f is present (see `Zmm`); the mask selects no
            // lane past the slice's last element, and a masked-out lane is
            // not written.
            unsafe { _mm512_mask_storeu_epi32(out.as_mut_ptr(), k, self.0) }
        }
    }

    /// Sixteen i32 in two ymm: lanes 0–7, then 8–15. Private to this
    /// module and only ever constructed inside [`row_avx2`], whose caller
    /// CPUID-verified avx2 — the precondition every `unsafe` block below
    /// relies on.
    #[derive(Clone, Copy)]
    struct Ymm2([__m256i; 2]);

    impl Madd for Ymm2 {
        const WIDE: bool = false;
        type W = [__m256i; 2];

        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: avx2 is present (see `Ymm2`).
            Ymm2([unsafe { _mm256_setzero_si256() }; 2])
        }

        #[inline(always)]
        fn weights(w: &PairVector) -> [__m256i; 2] {
            // SAFETY: avx2 is present (see `Ymm2`); `w` is 64 readable
            // bytes, read as two unaligned 32-byte halves.
            unsafe {
                let w = w.as_ptr().cast::<__m256i>();
                [_mm256_loadu_si256(w), _mm256_loadu_si256(w.add(1))]
            }
        }

        #[inline(always)]
        fn madd(self, pair: i32, [lo, hi]: [__m256i; 2]) -> Self {
            // SAFETY: avx2 (`vpbroadcastd`, `vpmaddwd`, `vpaddd`) is present
            // (see `Ymm2`).
            unsafe {
                let x = _mm256_set1_epi32(pair);
                Ymm2([
                    _mm256_add_epi32(self.0[0], _mm256_madd_epi16(x, lo)),
                    _mm256_add_epi32(self.0[1], _mm256_madd_epi16(x, hi)),
                ])
            }
        }

        #[inline(always)]
        fn store(self, out: &mut [i32]) {
            let mut lanes = [0i32; DENSE_LANES];
            // SAFETY: avx2 is present (see `Ymm2`); `lanes` is 64 writable
            // bytes, written as two unaligned 32-byte halves.
            unsafe {
                let at = lanes.as_mut_ptr().cast::<__m256i>();
                _mm256_storeu_si256(at, self.0[0]);
                _mm256_storeu_si256(at.add(1), self.0[1]);
            }
            out.copy_from_slice(&lanes[..out.len()]);
        }
    }

    /// # Safety
    /// The CPU must support avx512f and avx512bw.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn row_avx512(geo: Geometry, w: &DenseWeights, image: &[i16], out: &mut [i32]) {
        lane_row::<Zmm>(geo, w, image, out)
    }

    /// # Safety
    /// The CPU must support avx2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_avx2(geo: Geometry, w: &DenseWeights, image: &[i16], out: &mut [i32]) {
        lane_row::<Ymm2>(geo, w, image, out)
    }
}
