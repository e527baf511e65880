//! The fused tail of a convolution (paper §5.2 + the §4.1(b) ballot): what
//! happens to a band of finished accumulator rows between the kernel and
//! the next layer's packed map, in **one pass** of integer registers.
//!
//! Per pooled pixel and chunk of sixteen channels: a masked load of the
//! accumulators (a ragged `cout` reads no further than its last channel),
//! the residual added in — a projection's raw accumulators by load-add, an
//! identity skip's codes straight from the packed branch row, one masked add
//! of `1 << t` per plane with the sixteen branch bits as the mask — the 2×2
//! max / average over the four taps, then the chain as its compiled
//! [`Steps`]: XOR the chunk's `flip` row, compare against its threshold
//! rows. Up to four bits that is all `2^bits − 1` rows: the compare masks
//! nest (`t_1 ≤ t_2 ≤ …`), so the number set is the code and plane `t` of
//! the code is the XOR of the masks at multiples of `2^t`. At five to eight
//! bits the compares would outnumber the chain, so the code is found in the
//! lanes instead: fifteen compares against the rows at multiples of
//! `2^(bits − 4)` give its top four bits, one round of bisection per lower
//! bit — a gather of the row half a step above the code so far — gives the
//! rest, and plane `t` is bit `t` of the code. Either way each plane's
//! sixteen bits are shifted to bit `c mod 64` of the pixel's word and every
//! word of the row is stored — the CPU's
//! `__ballot_sync`: comparison results become the packed words of the next
//! layer's NPHWC map without ever being a code in memory.
//!
//! Like [`apnn_bitpack::popcnt`]'s kernel the tail is one generic body over
//! a lane type (`Lanes16`, sixteen i32) with a plain-array impl and an
//! explicit `__m512i` one, instantiated per [`PopcntArm`] under that arm's
//! `#[target_feature]`. Explicit for the reason given there: the
//! auto-vectorized array form of this loop goes through 256-bit halves and
//! the stack on AVX-512 hosts and measured slower than the f32 row passes
//! it replaces. Every instruction of the vector impl (`vpcmpgtd → k`,
//! masked `vpaddd`, `vpmaxsd`, `vpsrad`, `vpgatherdd`) is avx512f, which
//! the arm's availability check already covers.

use apnn_bitpack::{BitTensor4, Encoding, PopcntArm};

use super::cpu::{conv_exec, ConvExecPlan, ConvScratch};
use super::{ConvDesc, Pool2};
use crate::fusion::{Steps, STEP_LANES};
use crate::micro::MAX_PLANES;

/// What a fused convolution adds into its raw accumulators *before* the
/// pool and the chain — the exact-i32 requantization point of a residual
/// block: `quantize(epi(acc + residual))`, with no rounding between the two
/// integer paths.
#[derive(Debug, Clone, Copy)]
pub enum Residual<'a> {
    /// A plain convolution.
    None,
    /// `batch·out_h·out_w·cout` NHWC i32 values: a skip projection's raw
    /// accumulators.
    Accs(&'a [i32]),
    /// A `(batch, out_h, out_w, cout)` packed map of unsigned codes, which
    /// *are* the integers to add: an identity skip's saved branch, read in
    /// place.
    Codes(&'a BitTensor4),
}

impl<'a> Residual<'a> {
    fn check(&self, shape: (usize, usize, usize, usize)) {
        let (n, h, w, c) = shape;
        match self {
            Residual::None => {}
            Residual::Accs(res) => assert_eq!(
                res.len(),
                n * h * w * c,
                "residual buffer must match the accumulator shape"
            ),
            Residual::Codes(map) => {
                assert_eq!(
                    map.shape(),
                    shape,
                    "residual branch must match the accumulator shape"
                );
                assert_eq!(
                    map.encoding(),
                    Encoding::ZeroOne,
                    "identity residuals read unsigned activation codes"
                );
            }
        }
    }

    /// The residual of image `b`'s output rows `oy0..oy0 + rows`.
    fn band(
        &self,
        b: usize,
        oy0: usize,
        rows: usize,
        oh: usize,
        row_len: usize,
    ) -> BandResidual<'a> {
        match *self {
            Residual::None => BandResidual::None,
            Residual::Accs(res) => BandResidual::Accs(AccResidual(
                &res[(b * oh + oy0) * row_len..][..rows * row_len],
            )),
            Residual::Codes(map) => BandResidual::Codes(CodeResidual {
                rows: std::array::from_fn(|r| {
                    std::array::from_fn(|t| match (r < rows, t < map.bits() as usize) {
                        (true, true) => map.row_words(b, t as u32, oy0 + r),
                        _ => &[][..],
                    })
                }),
                bits: map.bits() as usize,
                wpp: map.words_per_pixel(),
            }),
        }
    }
}

/// One band's slice of a [`Residual`].
// Built on the stack once per band; boxing the wide variant would allocate
// on the hot path.
#[allow(clippy::large_enum_variant)]
enum BandResidual<'a> {
    None,
    Accs(AccResidual<'a>),
    Codes(CodeResidual<'a>),
}

/// The geometry of a band of accumulator rows: `ow` pixels × `cout`
/// channels, one row — or, under a fused 2×2 pool, two, which become one
/// row of `ow / 2` pixels (a trailing odd column is dropped).
#[derive(Clone, Copy)]
struct Band {
    ow: usize,
    cout: usize,
    pool: Option<Pool2>,
}

impl Band {
    fn rows(&self) -> usize {
        1 + usize::from(self.pool.is_some())
    }

    fn out_w(&self) -> usize {
        self.ow / self.rows()
    }
}

/// One pooled row's packed words, per plane of the output map.
type RowPlanes<'o> = [&'o mut [u64]; MAX_PLANES];

/// Where a band's pooled accumulators go: through the step table into the
/// packed words of one output row.
type To<'a, 'o> = (&'a Steps, &'a mut RowPlanes<'o>);

/// What one call of the lane body does with a band: its accumulators and
/// residual, pooled, [`To`] the output row.
struct Pass<'a, 'o>(&'a [i32], &'a BandResidual<'a>, To<'a, 'o>);

/// Fused execution: [`conv_exec`] with the §5.2 tail as its row sink —
/// residual add, 2×2 pool, the chain's step table and the packing of the
/// next layer's channel-major activations into the caller-owned `out`
/// tensor (see the module docs), each band while it is cache-hot.
/// Allocation-free once `scratch` and `out` have reached the plan's
/// capacity.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_exec_fused(
    desc: &ConvDesc,
    input: &BitTensor4,
    state: &ConvExecPlan,
    residual: Residual<'_>,
    pool: Option<Pool2>,
    steps: &Steps,
    scratch: &mut ConvScratch,
    out: &mut BitTensor4,
) {
    let batch = input.shape().0;
    let (oh, ow, cout) = (desc.out_h(), desc.out_w(), desc.cout);
    assert_eq!(
        steps.channels(),
        cout,
        "steps were compiled for another layer"
    );
    residual.check((batch, oh, ow, cout));
    let band = Band { ow, cout, pool };
    let (rows, pw) = (band.rows(), band.out_w());
    // Every word of every row of the `batch` images is stored below,
    // channel padding included, so the reshape skips the zeroing pass of
    // `reset_zeros`.
    out.reset_for_overwrite(batch, oh / rows, pw, cout, steps.bits(), Encoding::ZeroOne);
    let arm = state.arm.sanitized();
    conv_exec(desc, input, state, rows, scratch, |b, py, accs| {
        let res = residual.band(b, py * rows, rows, oh, ow * cout);
        let mut planes = row_planes(out, b, py);
        run(arm, band, Pass(accs, &res, (steps, &mut planes)));
    });
}

/// Pooled row `py` of image `b` of `out`, per plane (empty past its last).
fn row_planes(out: &mut BitTensor4, b: usize, py: usize) -> RowPlanes<'_> {
    let mut planes = out.row_planes_mut(b, py);
    std::array::from_fn(|_| planes.next().unwrap_or_default())
}

/// One [`Pass`] over a band on `arm`'s instantiation of the lane body.
fn run(arm: PopcntArm, band: Band, pass: Pass<'_, '_>) {
    match arm {
        #[cfg(target_arch = "x86_64")]
        PopcntArm::Avx512 if arm.is_available() => {
            // SAFETY: `is_available` just CPUID-verified avx512f (with
            // avx512vpopcntdq; `is_x86_feature_detected!` caches the lookup).
            unsafe { x86::pass_avx512(band, pass) }
        }
        #[cfg(target_arch = "x86_64")]
        PopcntArm::Avx2 if arm.is_available() => {
            // SAFETY: `is_available` just CPUID-verified avx2.
            unsafe { x86::pass_avx2(band, pass) }
        }
        _ => lane_pass::<[i32; STEP_LANES]>(band, pass),
    }
}

/// Sixteen i32 lanes: one chunk of one pixel's channels.
trait Lanes16: Copy {
    /// A predicate per lane — what a compare yields and a masked add
    /// consumes: sixteen bits where the ISA has mask registers, sixteen
    /// all-ones / all-zeros lanes where it does not.
    type Mask: Copy;
    fn splat(v: i32) -> Self;
    /// The `n ≤ 16` values of `src`, zero in the lanes beyond.
    fn load(src: &[i32]) -> Self;
    fn from_array(v: [i32; STEP_LANES]) -> Self;
    /// Lane `i` of row `idx[i]` of `rows`.
    ///
    /// # Safety
    /// Every lane of `idx` is a row of `rows`: `0 ≤ idx[i] < rows.len()`.
    unsafe fn gather(rows: &[[i32; STEP_LANES]], idx: Self) -> Self;
    fn add(self, o: Self) -> Self;
    /// `self + o` in the lanes of `k`, `self` elsewhere.
    fn add_where(self, k: Self::Mask, o: Self) -> Self;
    fn max(self, o: Self) -> Self;
    /// Arithmetic shift right by two: `div_euclid(4)` per lane.
    fn sra2(self) -> Self;
    fn xor(self, o: Self) -> Self;
    /// The lanes where `self > o`.
    fn gt(self, o: Self) -> Self::Mask;
    /// The lanes where bit `bit` of `self` is set.
    fn test_bit(self, bit: usize) -> Self::Mask;
    fn no_lanes() -> Self::Mask;
    fn mask_xor(a: Self::Mask, b: Self::Mask) -> Self::Mask;
    /// Lane `i` where bit `i` of `bits` is set.
    fn mask_of(bits: u16) -> Self::Mask;
    /// Bit `i` where lane `i` is in `k`.
    fn mask_bits(k: Self::Mask) -> u16;
}

/// The plain-array lanes: every operation a branch-free loop over the
/// sixteen lanes, which is the form the auto-vectorizer turns into the
/// build's own vectors (masks stay lane-wide so it never has to move
/// compare results into scalar registers one bit at a time).
impl Lanes16 for [i32; STEP_LANES] {
    type Mask = [i32; STEP_LANES];

    #[inline(always)]
    fn splat(v: i32) -> Self {
        [v; STEP_LANES]
    }

    #[inline(always)]
    fn load(src: &[i32]) -> Self {
        // A whole chunk is a fixed-size copy, not a `memcpy` call.
        if let Ok(full) = <&[i32; STEP_LANES]>::try_from(src) {
            return *full;
        }
        let mut v = [0; STEP_LANES];
        v[..src.len()].copy_from_slice(src);
        v
    }

    #[inline(always)]
    fn from_array(v: [i32; STEP_LANES]) -> Self {
        v
    }

    #[inline(always)]
    unsafe fn gather(rows: &[[i32; STEP_LANES]], idx: Self) -> Self {
        std::array::from_fn(|i| rows[idx[i] as usize][i])
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        std::array::from_fn(|i| self[i].wrapping_add(o[i]))
    }

    #[inline(always)]
    fn add_where(self, k: Self::Mask, o: Self) -> Self {
        std::array::from_fn(|i| self[i].wrapping_add(o[i] & k[i]))
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        std::array::from_fn(|i| self[i].max(o[i]))
    }

    #[inline(always)]
    fn sra2(self) -> Self {
        self.map(|v| v >> 2)
    }

    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        std::array::from_fn(|i| self[i] ^ o[i])
    }

    #[inline(always)]
    fn gt(self, o: Self) -> Self::Mask {
        std::array::from_fn(|i| -i32::from(self[i] > o[i]))
    }

    #[inline(always)]
    fn test_bit(self, bit: usize) -> Self::Mask {
        self.map(|v| -(v >> bit & 1))
    }

    #[inline(always)]
    fn no_lanes() -> Self::Mask {
        [0; STEP_LANES]
    }

    #[inline(always)]
    fn mask_xor(a: Self::Mask, b: Self::Mask) -> Self::Mask {
        std::array::from_fn(|i| a[i] ^ b[i])
    }

    #[inline(always)]
    fn mask_of(bits: u16) -> Self::Mask {
        std::array::from_fn(|i| -i32::from(bits >> i & 1))
    }

    #[inline(always)]
    fn mask_bits(k: Self::Mask) -> u16 {
        // Every lane holds its own bit, so the sum is the union.
        (0..STEP_LANES).map(|i| k[i] & 1 << i).sum::<i32>() as u16
    }
}

/// The lane body: one [`Pass`] over a band. The band's residual kind and
/// pooledness pick the instantiation of the pixel loop *here*, once per
/// band: a loop that carried every variant's address streams at once ran
/// out of registers for its induction variables and kept them on the stack.
#[inline(always)]
fn lane_pass<V: Lanes16>(band: Band, Pass(accs, res, to): Pass<'_, '_>) {
    match res {
        BandResidual::None => pooled_pass::<V, _>(band, accs, &NoResidual, to),
        BandResidual::Accs(res) => pooled_pass::<V, _>(band, accs, res, to),
        BandResidual::Codes(res) => pooled_pass::<V, _>(band, accs, res, to),
    }
}

/// [`lane_pass`] over a band's accumulators, the residual kind resolved.
#[inline(always)]
fn pooled_pass<V: Lanes16, R: TapResidual>(band: Band, accs: &[i32], res: &R, to: To<'_, '_>) {
    match band.pool {
        None => accs_pass::<V, _>(band, &OneTap(band, accs, res), to),
        Some(kind) => accs_pass::<V, _>(band, &FourTaps(band, accs, res, kind), to),
    }
}

/// [`lane_pass`] over the pooled accumulator chunks of `from`, the code
/// width resolved.
#[inline(always)]
fn accs_pass<V: Lanes16, A: PooledAccs>(band: Band, from: &A, (steps, out): To<'_, '_>) {
    let rows = steps.rows();
    match steps.bits() {
        1 => pack_band::<V, _>(band, 1, out, &StepPlanes::<A, 1>(from, rows)),
        2 => pack_band::<V, _>(band, 2, out, &StepPlanes::<A, 2>(from, rows)),
        3 => pack_band::<V, _>(band, 3, out, &StepPlanes::<A, 3>(from, rows)),
        4 => pack_band::<V, _>(band, 4, out, &StepPlanes::<A, 4>(from, rows)),
        5 => pack_band::<V, _>(band, 5, out, &WidePlanes::<A, 5>(from, rows)),
        6 => pack_band::<V, _>(band, 6, out, &WidePlanes::<A, 6>(from, rows)),
        7 => pack_band::<V, _>(band, 7, out, &WidePlanes::<A, 7>(from, rows)),
        8 => pack_band::<V, _>(band, 8, out, &WidePlanes::<A, 8>(from, rows)),
        bits => unreachable!("no step table is built at {bits} bits"),
    }
}

/// What a tap adds to its accumulators: one band's residual, its kind a
/// type.
trait TapResidual {
    /// `v` — channels `c0..c0 + n` of pixel `ox` of band row `r`, element
    /// `at` of the band — plus its residual.
    fn add_to<V: Lanes16>(&self, v: V, at: usize, pixel: (usize, usize), c0: usize, n: usize) -> V;
}

struct NoResidual;

impl TapResidual for NoResidual {
    #[inline(always)]
    fn add_to<V: Lanes16>(&self, v: V, _: usize, _: (usize, usize), _: usize, _: usize) -> V {
        v
    }
}

/// A projection's raw accumulators, laid out like the band's own rows.
struct AccResidual<'a>(&'a [i32]);

impl TapResidual for AccResidual<'_> {
    #[inline(always)]
    fn add_to<V: Lanes16>(&self, v: V, at: usize, _: (usize, usize), _: usize, n: usize) -> V {
        v.add(V::load(&self.0[at..at + n]))
    }
}

/// An identity branch's packed rows, `[band row][plane]`, of `bits` planes
/// and `wpp` words per pixel.
struct CodeResidual<'a> {
    rows: [[&'a [u64]; MAX_PLANES]; 2],
    bits: usize,
    wpp: usize,
}

impl TapResidual for CodeResidual<'_> {
    #[inline(always)]
    fn add_to<V: Lanes16>(
        &self,
        mut v: V,
        _: usize,
        (r, ox): (usize, usize),
        c0: usize,
        _: usize,
    ) -> V {
        let (word, bit) = (ox * self.wpp + c0 / 64, c0 % 64);
        for (t, plane) in self.rows[r][..self.bits].iter().enumerate() {
            // Sixteen channels' bit `t` of the branch code: where set, the
            // code holds `1 << t`.
            v = v.add_where(V::mask_of((plane[word] >> bit) as u16), V::splat(1 << t));
        }
        v
    }
}

/// A band's accumulators as the chain sees them: per pooled pixel, with
/// the residual added.
trait PooledAccs {
    /// Channels `c0..c0 + n` of pooled pixel `px`.
    fn chunk<V: Lanes16>(&self, px: usize, c0: usize, n: usize) -> V;
}

/// Channels `c0..c0 + n` of pixel `ox` of band row `r`: accumulators plus
/// residual.
#[inline(always)]
fn tap<V: Lanes16, R: TapResidual>(
    band: Band,
    accs: &[i32],
    res: &R,
    (r, ox): (usize, usize),
    c0: usize,
    n: usize,
) -> V {
    let at = (r * band.ow + ox) * band.cout + c0;
    res.add_to(V::load(&accs[at..at + n]), at, (r, ox), c0, n)
}

/// An unpooled band: a pixel is its one tap.
struct OneTap<'a, R>(Band, &'a [i32], &'a R);

impl<R: TapResidual> PooledAccs for OneTap<'_, R> {
    #[inline(always)]
    fn chunk<V: Lanes16>(&self, px: usize, c0: usize, n: usize) -> V {
        let &OneTap(band, accs, res) = self;
        tap(band, accs, res, (0, px), c0, n)
    }
}

/// A 2×2-pooled band: a pixel is its four taps, maxed or averaged.
struct FourTaps<'a, R>(Band, &'a [i32], &'a R, Pool2);

impl<R: TapResidual> PooledAccs for FourTaps<'_, R> {
    #[inline(always)]
    fn chunk<V: Lanes16>(&self, px: usize, c0: usize, n: usize) -> V {
        let &FourTaps(band, accs, res, kind) = self;
        let a: V = tap(band, accs, res, (0, 2 * px), c0, n);
        let b: V = tap(band, accs, res, (0, 2 * px + 1), c0, n);
        let c: V = tap(band, accs, res, (1, 2 * px), c0, n);
        let d: V = tap(band, accs, res, (1, 2 * px + 1), c0, n);
        match kind {
            Pool2::Max => a.max(b).max(c).max(d),
            Pool2::Avg => a.add(b).add(c).add(d).sra2(),
        }
    }
}

/// Where the packer's plane masks come from: a trait rather than a closure
/// so the lane operations inline into the arm's `#[target_feature]`
/// instantiation (a closure body is a function of its own, compiled at the
/// build's baseline features).
trait ChunkPlanes {
    /// Whether the packer asks for [`GROUP`] pixels at a time
    /// ([`ChunkPlanes::group`]).
    const GROUPED: bool = false;

    /// Bit `i` of plane `t` is bit `t` of the code of channel `c0 + i` of
    /// pooled pixel `px`, for `i < n ≤ 16`; zero beyond.
    fn planes<V: Lanes16>(&self, px: usize, c0: usize, n: usize) -> [u16; MAX_PLANES];

    /// [`ChunkPlanes::planes`] of pixels `px..px + GROUP`.
    fn group<V: Lanes16>(&self, px: usize, c0: usize, n: usize) -> [[u16; MAX_PLANES]; GROUP] {
        std::array::from_fn(|p| self.planes::<V>(px + p, c0, n))
    }
}

/// Pixels a [`ChunkPlanes::GROUPED`] source is asked for at a time: their
/// lookups run interleaved, so one pixel's gathers are in flight while
/// another's wait.
const GROUP: usize = 4;

/// The whole tail of a chain with a table, at its code width `BITS`: a
/// pooled chunk's plane masks from its step rows.
struct StepPlanes<'a, A, const BITS: usize>(&'a A, &'a [[i32; STEP_LANES]]);

impl<A: PooledAccs, const BITS: usize> ChunkPlanes for StepPlanes<'_, A, BITS> {
    #[inline(always)]
    fn planes<V: Lanes16>(&self, px: usize, c0: usize, n: usize) -> [u16; MAX_PLANES] {
        let v: V = self.0.chunk(px, c0, n);
        let rows = &self.1[(c0 / STEP_LANES) << BITS..][..1 << BITS];
        let x = v.xor(V::from_array(rows[0]));
        let mut planes = [V::no_lanes(); BITS];
        for k in 1..1usize << BITS {
            let above = x.gt(V::from_array(rows[k]));
            // Level `k` counts toward plane `t` when `2^t` divides it.
            for plane in &mut planes[..BITS.min(k.trailing_zeros() as usize + 1)] {
                *plane = V::mask_xor(*plane, above);
            }
        }
        std::array::from_fn(|t| if t < BITS { V::mask_bits(planes[t]) } else { 0 })
    }
}

/// The tail at five to eight bits (`BITS`), where `2^BITS − 1` compares
/// would outnumber the chain: the code is found in the lanes, then
/// bit-tested into planes. One pixel's lookup is a chain of dependent
/// gathers, so the packer asks for [`GROUP`]s and their chains interleave.
struct WidePlanes<'a, A, const BITS: usize>(&'a A, &'a [[i32; STEP_LANES]]);

impl<A: PooledAccs, const BITS: usize> WidePlanes<'_, A, BITS> {
    /// The planes of channels `c0..c0 + n` of pooled pixels `px..px + N`.
    #[inline(always)]
    fn lookup<V: Lanes16, const N: usize>(
        &self,
        px: usize,
        c0: usize,
        n: usize,
    ) -> [[u16; MAX_PLANES]; N] {
        let rows = &self.1[(c0 / STEP_LANES) << BITS..][..1 << BITS];
        let flip = V::from_array(rows[0]);
        let x: [V; N] = std::array::from_fn(|p| self.0.chunk::<V>(px + p, c0, n).xor(flip));
        // The top four bits: how many of the fifteen rows at multiples of
        // `coarse` the accumulator passes — a count of compares, as at four
        // bits, in steps of `coarse`.
        let coarse = 1 << (BITS - 4);
        let mut code = [V::splat(0); N];
        for k in (coarse..1 << BITS).step_by(coarse) {
            let t = V::from_array(rows[k]);
            for (code, x) in code.iter_mut().zip(&x) {
                *code = code.add_where(x.gt(t), V::splat(coarse as i32));
            }
        }
        // Each lower bit: one round of bisection against the row half a
        // step above the code so far.
        let mut step = coarse / 2;
        while step > 0 {
            for (code, x) in code.iter_mut().zip(&x) {
                let at = code.add(V::splat(step as i32));
                // SAFETY: the compares leave `code ≤ 15·coarse` and a round
                // adds at most its `step`, so the row read is at most
                // `15·coarse + coarse/2 + … + 1 = 2^BITS − 1 < rows.len()`.
                let t = unsafe { V::gather(rows, at) };
                *code = code.add_where(x.gt(t), V::splat(step as i32));
            }
            step /= 2;
        }
        // A code is below `2^BITS`, so the planes past its width are zero.
        code.map(|code| std::array::from_fn(|t| V::mask_bits(code.test_bit(t))))
    }
}

impl<A: PooledAccs, const BITS: usize> ChunkPlanes for WidePlanes<'_, A, BITS> {
    const GROUPED: bool = true;

    #[inline(always)]
    fn planes<V: Lanes16>(&self, px: usize, c0: usize, n: usize) -> [u16; MAX_PLANES] {
        let [planes] = self.lookup::<V, 1>(px, c0, n);
        planes
    }

    #[inline(always)]
    fn group<V: Lanes16>(&self, px: usize, c0: usize, n: usize) -> [[u16; MAX_PLANES]; GROUP] {
        self.lookup::<V, GROUP>(px, c0, n)
    }
}

/// The packer: the plane masks of every chunk shifted into place in the
/// pixel's words. The chunk position is the outer loop and the pixels the
/// inner one (in groups first, for a [`ChunkPlanes::GROUPED`] source), so
/// everything a position fixes — its step rows, lane mask, word and shift
/// — is hoisted out of the loop that runs `out_w` times and what remains
/// strides by constants. Every word of the row is **stored** by the first
/// chunk that reaches it and OR-ed into by the rest (a map pads a pixel to
/// whole words, so every word holds a channel), so nothing survives from
/// the row's previous contents.
#[inline(always)]
fn pack_band<V: Lanes16, S: ChunkPlanes>(
    band: Band,
    bits: usize,
    out: &mut RowPlanes<'_>,
    source: &S,
) {
    let (pw, cout) = (band.out_w(), band.cout);
    let wpp = out[0].len() / pw.max(1);
    for c0 in (0..cout).step_by(STEP_LANES) {
        let (j, shift, n) = (c0 / 64, c0 % 64, STEP_LANES.min(cout - c0));
        let mut px = 0;
        while S::GROUPED && px + GROUP <= pw {
            for (p, planes) in source.group::<V>(px, c0, n).iter().enumerate() {
                store(out, bits, ((px + p) * wpp + j, shift), planes);
            }
            px += GROUP;
        }
        for px in px..pw {
            let planes = source.planes::<V>(px, c0, n);
            store(out, bits, (px * wpp + j, shift), &planes);
        }
    }
}

/// One chunk's plane masks into word `at` of every plane, at bit `shift`:
/// stored by the chunk at bit 0, OR-ed into by the rest.
#[inline(always)]
fn store(
    out: &mut RowPlanes<'_>,
    bits: usize,
    (at, shift): (usize, usize),
    planes: &[u16; MAX_PLANES],
) {
    for (plane, &mask) in out[..bits].iter_mut().zip(planes) {
        let (word, field) = (&mut plane[at], u64::from(mask) << shift);
        *word = if shift == 0 { field } else { *word | field };
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{lane_pass, Band, Lanes16, Pass, STEP_LANES};
    use core::arch::x86_64::*;

    /// Sixteen i32 in one zmm. Private to this module and only ever
    /// constructed inside [`pass_avx512`], whose caller CPUID-verified
    /// avx512f — the precondition every `unsafe` block below relies on.
    #[derive(Clone, Copy)]
    struct Zmm(__m512i);

    impl Lanes16 for Zmm {
        type Mask = __mmask16;

        #[inline(always)]
        fn splat(v: i32) -> Self {
            // SAFETY: avx512f is present (see `Zmm`).
            Zmm(unsafe { _mm512_set1_epi32(v) })
        }

        #[inline(always)]
        fn load(src: &[i32]) -> Self {
            let k = ((1u32 << src.len().min(STEP_LANES)) - 1) as __mmask16;
            // SAFETY: avx512f is present (see `Zmm`); the mask selects no
            // lane past the slice's last element, and a masked-out lane is
            // not read.
            Zmm(unsafe { _mm512_maskz_loadu_epi32(k, src.as_ptr()) })
        }

        #[inline(always)]
        fn from_array(v: [i32; STEP_LANES]) -> Self {
            // SAFETY: avx512f is present (see `Zmm`); `v` is 64 readable
            // bytes and the load is unaligned.
            Zmm(unsafe { _mm512_loadu_si512(v.as_ptr().cast()) })
        }

        #[inline(always)]
        unsafe fn gather(rows: &[[i32; STEP_LANES]], idx: Self) -> Self {
            // SAFETY: avx512f is present (see `Zmm`); the caller keeps
            // every `idx[i]` a row of `rows`, so lane `i` reads element
            // `16·idx[i] + i` of the slice, which is in bounds.
            unsafe {
                let lane = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
                let at = _mm512_add_epi32(_mm512_slli_epi32::<4>(idx.0), lane);
                Zmm(_mm512_i32gather_epi32::<4>(at, rows.as_ptr().cast()))
            }
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: avx512f is present (see `Zmm`).
            Zmm(unsafe { _mm512_add_epi32(self.0, o.0) })
        }

        #[inline(always)]
        fn add_where(self, k: u16, o: Self) -> Self {
            // SAFETY: avx512f is present (see `Zmm`).
            Zmm(unsafe { _mm512_mask_add_epi32(self.0, k, self.0, o.0) })
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: avx512f is present (see `Zmm`).
            Zmm(unsafe { _mm512_max_epi32(self.0, o.0) })
        }

        #[inline(always)]
        fn sra2(self) -> Self {
            // SAFETY: avx512f is present (see `Zmm`).
            Zmm(unsafe { _mm512_srai_epi32::<2>(self.0) })
        }

        #[inline(always)]
        fn xor(self, o: Self) -> Self {
            // SAFETY: avx512f is present (see `Zmm`).
            Zmm(unsafe { _mm512_xor_si512(self.0, o.0) })
        }

        #[inline(always)]
        fn gt(self, o: Self) -> u16 {
            // SAFETY: avx512f is present (see `Zmm`).
            unsafe { _mm512_cmpgt_epi32_mask(self.0, o.0) }
        }

        #[inline(always)]
        fn test_bit(self, bit: usize) -> u16 {
            // SAFETY: avx512f is present (see `Zmm`).
            unsafe { _mm512_test_epi32_mask(self.0, _mm512_set1_epi32(1 << bit)) }
        }

        #[inline(always)]
        fn no_lanes() -> u16 {
            0
        }

        #[inline(always)]
        fn mask_xor(a: u16, b: u16) -> u16 {
            a ^ b
        }

        #[inline(always)]
        fn mask_of(bits: u16) -> u16 {
            bits
        }

        #[inline(always)]
        fn mask_bits(k: u16) -> u16 {
            k
        }
    }

    /// # Safety
    /// The CPU must support avx512f.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn pass_avx512(band: Band, pass: Pass<'_, '_>) {
        lane_pass::<Zmm>(band, pass)
    }

    /// # Safety
    /// The CPU must support avx2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pass_avx2(band: Band, pass: Pass<'_, '_>) {
        lane_pass::<[i32; STEP_LANES]>(band, pass)
    }
}
