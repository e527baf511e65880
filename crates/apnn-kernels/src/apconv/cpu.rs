//! Functional CPU backend for APConv.
//!
//! Direct convolution over the channel-major packed layout, one **output
//! row** at a time. Per `(image, output row, plane)` the `KH` input rows the
//! row's windows touch are copied once into a *column-interleaved activation
//! strip* —
//!
//! `strip[(col·KH + ky)·L + j] = word j of input pixel (oy·stride + ky − pad, col − pad)`
//!
//! for `col ∈ 0..W + 2·pad` and the `L = ⌈C_in/64⌉` live words of a pixel
//! ([`ConvDesc::live_words`]), out-of-frame rows and columns holding the
//! input-aware fill pattern of §4.2(b) — the CPU form of the coalesced NPHWC
//! reads of §4.2(a). The weight panel's K order is `(kx, ky, word)`
//! ([`super::ConvWeights::lane_panel`]), so every output pixel's window is
//! the **contiguous slice** `strip[ox·stride·KH·L ..][.. KW·KH·L]`: nothing
//! is gathered per pixel, and because consecutive pixels' slices overlap in
//! place, one K pass streams a block of [`MicroTile::jb`] pixels × `q`
//! planes against each loaded weight cell with no further scratch.
//!
//! One loop nest — `conv_exec`, on the calling thread — drives it all and
//! hands every finished accumulator row to a *row sink*: the unfused entry
//! points store it, `conv_exec_fused` runs the §5.2 tail on it while it is
//! cache-hot.

use std::ops::Range;

use apnn_bitpack::{BitTensor4, Encoding, LanePanel, PopcntArm, LANES};

use super::padding::{correct_xor_window, fill_words, pad_fill, valid_row_popc};
use super::weights::TapPopc;
use super::{ConvDesc, Pool2};
use crate::autotune::{select_micro, MicroTile};
use crate::fusion::Epilogue;
use crate::micro::{popc_tile, MAX_PLANES, MAX_TILE};
use crate::select::{plan, Correction};

/// The kernel offsets (of `0..k`) whose input coordinate
/// `o·stride + offset − pad` lies inside `0..extent`, for output coordinate
/// `o` — the **single** copy of the stride/padding index arithmetic, used
/// for rows and columns alike. Empty when the window misses the frame.
#[inline]
fn in_frame(o: usize, stride: usize, pad: usize, extent: usize, k: usize) -> Range<usize> {
    let first = o * stride;
    pad.saturating_sub(first).min(k)..(extent + pad).saturating_sub(first).min(k)
}

/// Per-call-invariant execution state for a convolution: the emulation plan
/// and the materialized padding pattern. Compiled plans build this once;
/// the ad-hoc [`super::ApConv::execute`] entry point rebuilds it per call.
#[derive(Debug, Clone)]
pub struct ConvExecPlan {
    pub(crate) eplan: crate::select::EmulationPlan,
    /// The §4.2(b) fill of one out-of-frame pixel ([`ConvDesc::live_words`]
    /// words).
    pub(crate) fill_pattern: Vec<u64>,
    /// CPU microkernel tile: `jb` consecutive output pixels of a row share
    /// each loaded weight cell.
    pub(crate) micro: MicroTile,
    /// Popcount arm the microkernel runs on, bound once at plan time by
    /// [`PopcntArm::detect`] (exact for any value).
    pub(crate) arm: PopcntArm,
}

impl ConvExecPlan {
    /// Resolve the plan + padding strategy + popcount arm + microkernel
    /// tile for a layer. An output row is the dynamic extent one K pass can
    /// block over, so [`select_micro`] sees `out_w`.
    pub fn new(desc: &ConvDesc) -> Self {
        let eplan = plan(desc.w_enc, desc.x_enc);
        let fill = pad_fill(desc.w_enc, desc.x_enc);
        let fill_pattern = fill_words(fill, desc.cin, desc.live_words());
        let arm = PopcntArm::detect();
        let micro = select_micro(desc.out_w());
        ConvExecPlan {
            eplan,
            fill_pattern,
            micro,
            arm,
        }
    }

    /// The microkernel tile this plan executes with.
    pub fn micro(&self) -> MicroTile {
        self.micro
    }

    /// Replace the microkernel tile (bench sweeps, differential tests).
    pub fn with_micro(mut self, micro: MicroTile) -> Self {
        self.micro = micro;
        self
    }

    /// The popcount arm this plan executes with.
    pub fn arm(&self) -> PopcntArm {
        self.arm
    }

    /// Force a popcount arm (tests, benches, CI force-arm legs);
    /// unavailable arms are clamped to the detected best.
    pub fn with_arm(mut self, arm: PopcntArm) -> Self {
        self.arm = arm.sanitized();
        self
    }
}

/// Reusable per-call scratch for the `execute_into` entry points — all of
/// it **row-sized**: the activation strip of the output row in flight, its
/// accumulator row (two under a fused 2×2 pool) and the fused tail's `f32`
/// and code rows. Size it once with [`ConvScratch::reserve`]; every later
/// call — full or partial shard — is then allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ConvScratch {
    strip: Strip,
    /// The accumulator rows handed to the row sink.
    acc: Vec<i32>,
    /// One (pooled) row as `f32` — what the row epilogue transforms.
    vals: Vec<f32>,
    /// One (pooled) row of quantized codes, ready to pack.
    codes: Vec<u32>,
    /// [`Epilogue::rows`]' BatchNorm denominators.
    bn_den: Vec<f32>,
}

impl ConvScratch {
    /// Pre-size the scratch: `strip_words` strip words
    /// (`x_bits × (w + 2·pad) × kh × live_words`), `cols` strip columns
    /// per plane set (`x_bits × (w + 2·pad + 1)` popcount prefix sums),
    /// `acc` accumulator elements (`out_w × cout`, twice under a fused
    /// pool), `row` elements of one fused output row (`≤ out_w × cout`)
    /// and `bn_den` elements ([`Epilogue::row_scratch_len`]).
    pub fn reserve(
        &mut self,
        strip_words: usize,
        cols: usize,
        acc: usize,
        row: usize,
        bn_den: usize,
    ) {
        fn grow<T>(v: &mut Vec<T>, len: usize) {
            v.reserve(len.saturating_sub(v.len()));
        }
        grow(&mut self.strip.words, strip_words);
        grow(&mut self.strip.col_popc, cols);
        grow(&mut self.acc, acc);
        grow(&mut self.vals, row);
        grow(&mut self.codes, row);
        grow(&mut self.bn_den, bn_den);
    }
}

/// The column-interleaved activation strip of one output row (see the
/// module docs for the layout), all `q` planes back to back.
#[derive(Debug, Clone, Default)]
struct Strip {
    words: Vec<u64>,
    /// Per plane, prefix sums over the strip columns' popcounts
    /// (`cols + 1` entries) — a window's `J·X` is the difference of two.
    /// Built only for the case that consumes it.
    col_popc: Vec<i32>,
    /// Words per plane: `cols · kh · live_words`.
    plane_words: usize,
    /// Strip words between consecutive output pixels' windows.
    step: usize,
    /// Strip columns: `w + 2·pad`.
    cols: usize,
}

impl Strip {
    /// Lay out output row `oy` of image `b`. Every word is stored — input
    /// rows copy their live words, out-of-frame rows and the `pad` columns
    /// either side store `fill` — so nothing survives from the last row.
    fn build(
        &mut self,
        desc: &ConvDesc,
        input: &BitTensor4,
        fill: &[u64],
        b: usize,
        oy: usize,
        need_popc: bool,
    ) {
        let (kh, live, wpp) = (desc.kh, desc.live_words(), input.words_per_pixel());
        let q = desc.x_bits as usize;
        self.cols = desc.w + 2 * desc.pad;
        self.plane_words = self.cols * kh * live;
        self.step = desc.stride * kh * live;
        apnn_bitpack::resize_for_overwrite(&mut self.words, q * self.plane_words);
        let rows = in_frame(oy, desc.stride, desc.pad, desc.h, kh);
        let planes = self.words.chunks_exact_mut(self.plane_words.max(1));
        for (t, plane) in planes.enumerate() {
            for ky in 0..kh {
                let mut cells = plane[ky * live..].chunks_mut(kh * live);
                let fills = std::iter::repeat(fill);
                if rows.contains(&ky) {
                    let iy = oy * desc.stride + ky - desc.pad;
                    let row = input.row_words(b, t as u32, iy);
                    store_cells(cells.by_ref().take(desc.pad), fills.clone(), live);
                    store_cells(cells.by_ref().take(desc.w), row.chunks_exact(wpp), live);
                    store_cells(cells, fills, live);
                } else {
                    store_cells(cells, fills, live);
                }
            }
        }
        self.col_popc.clear();
        if need_popc {
            for plane in self.words.chunks_exact(self.plane_words.max(1)) {
                let mut sum = 0i32;
                self.col_popc.push(sum);
                for col in plane.chunks_exact(kh * live) {
                    sum += apnn_bitpack::word::popcount(col) as i32;
                    self.col_popc.push(sum);
                }
            }
        }
    }

    /// Plane `t`'s stream for output pixel `ox`: its window is the first
    /// `kw·kh·live_words` words (the slice runs on to the end of the plane;
    /// the kernel reads one word per weight cell).
    #[inline]
    fn stream(&self, t: usize, ox: usize) -> &[u64] {
        &self.words[t * self.plane_words + ox * self.step..(t + 1) * self.plane_words]
    }

    /// Popcount of plane `t` of pixel `ox`'s `kw`-column window (needs the
    /// prefix sums).
    #[inline]
    fn window_popc(&self, t: usize, ox: usize, stride: usize, kw: usize) -> i32 {
        let pre = &self.col_popc[t * (self.cols + 1)..];
        pre[ox * stride + kw] - pre[ox * stride]
    }
}

/// Store the first `live` words of each source into the matching strip
/// cell.
#[inline]
fn store_cells<'a>(
    cells: impl Iterator<Item = &'a mut [u64]>,
    srcs: impl Iterator<Item = &'a [u64]>,
    live: usize,
) {
    if live == 1 {
        // One word per pixel (`cin ≤ 64`, most layers): a plain store
        // where the general arm's variable-length copy is a `memcpy` call.
        for (cell, src) in cells.zip(srcs) {
            cell[0] = src[0];
        }
    } else {
        for (cell, src) in cells.zip(srcs) {
            cell[..live].copy_from_slice(&src[..live]);
        }
    }
}

/// The weight-side part of the correction offset of row group `g`, per
/// weight plane, over a window whose taps `out_of_frame(ky, kx)` reports
/// missing: their weight popcounts leave the effective `K`
/// ([`correct_xor_window`]) and row sum ([`valid_row_popc`]) the §3.2
/// correction sees — the §4.2(b) amendment, summed per tap.
fn weight_sides(
    desc: &ConvDesc,
    popc: &TapPopc,
    corr: Correction,
    g: usize,
    out_of_frame: impl Fn(usize, usize) -> bool,
) -> [[i32; LANES]; MAX_PLANES] {
    let cin = desc.cin as i32;
    let mut sides = [[0i32; LANES]; MAX_PLANES];
    for (s, side) in sides[..desc.w_bits as usize].iter_mut().enumerate() {
        let mut oob_w = [0i32; LANES];
        let mut oob_taps = 0i32;
        for (ky, kx) in (0..desc.kh).flat_map(|ky| (0..desc.kw).map(move |kx| (ky, kx))) {
            if out_of_frame(ky, kx) {
                oob_taps += 1;
                let seg = popc.seg_lanes(s, ky * desc.kw + kx, g);
                for (sum, v) in oob_w.iter_mut().zip(seg) {
                    *sum += v;
                }
            }
        }
        let valid_taps = (desc.kh * desc.kw) as i32 - oob_taps;
        let row = popc.row_lanes(s, g);
        *side = std::array::from_fn(|l| {
            corr.offset(
                correct_xor_window(0, cin, valid_taps, oob_w[l], oob_taps),
                valid_row_popc(row[l], oob_w[l]),
                0,
            )
        });
    }
    sides
}

/// Consume pixel `j` of a popcount tile over `n_px` pixels × row group:
/// apply the §3.2 correction and the shift-add combination lane-wise over
/// the group's eight output channels, in the same s-outer / t-inner order
/// as the per-output kernels (bit-identical results). The case dispatch is
/// the [`Correction`] coefficient table, so the per-channel loop is
/// branch-free; the offset is linear, so its weight-side part
/// ([`weight_sides`]) is shared by a plane's `q` pairs. With
/// [`weight_sides`], the **single** copy of the conv correction arithmetic.
fn combine_conv_block(
    corr: Correction,
    (p, q): (usize, usize),
    tile: &[[i32; LANES]],
    (n_px, j): (usize, usize),
    w_side: &[[i32; LANES]],
    plane_popc: &[i32],
) -> [i32; LANES] {
    let mut acc = [0i32; LANES];
    for s in 0..p {
        for t in 0..q {
            // Zero unless the case consumes it.
            let x_side = corr.offset(0, 0, plane_popc[t]);
            let counts = &tile[(s * n_px + j) * q + t];
            for l in 0..LANES {
                acc[l] += corr.apply(counts[l], w_side[s][l] + x_side) << (s + t);
            }
        }
    }
    acc
}

/// The one APConv driver: convolve `input` (whose batch may be ≤
/// `desc.batch` when a compiled plan serves a partial shard — zero images
/// included) against the weight panel `w`, on the **calling thread**, and
/// hand the NHWC i32 accumulators to `sink(image, band, rows)` one *band*
/// of `band` consecutive output rows at a time (`rows` is `band·out_w·cout`
/// values the sink may overwrite; a trailing partial band is never
/// computed — nothing pools it). Zero allocations once `strip` and `acc`
/// are at capacity. Serving workers are the concurrency unit, not this
/// loop.
#[allow(clippy::too_many_arguments)]
fn conv_exec(
    desc: &ConvDesc,
    w: &LanePanel,
    popc: &TapPopc,
    input: &BitTensor4,
    eplan_state: &ConvExecPlan,
    band: usize,
    strip: &mut Strip,
    acc: &mut Vec<i32>,
    mut sink: impl FnMut(usize, usize, &mut [i32]),
) {
    let (n, h, wd, c) = input.shape();
    assert!(n <= desc.batch, "input batch exceeds plan batch");
    assert_eq!((h, wd, c), (desc.h, desc.w, desc.cin));
    assert_eq!(input.bits(), desc.x_bits);
    assert_eq!(input.encoding(), desc.x_enc);
    let (cout, taps, cin, _padded) = popc.dims();
    assert_eq!(cout, desc.cout);
    assert_eq!(taps, desc.kh * desc.kw);
    assert_eq!(cin, desc.cin);
    assert_eq!(w.rows(), cout, "weight panel rows");
    assert_eq!(w.words_per_row(), desc.k_words(), "weight panel K order");

    let need_popc = eplan_state.eplan.case.correction().needs_col_sums();
    let row_len = desc.out_w() * cout;
    // Every element of a band is stored before the sink sees it.
    apnn_bitpack::resize_for_overwrite(acc, band * row_len);
    for b in 0..n {
        for band_idx in 0..desc.out_h() / band {
            for (r, row) in acc.chunks_exact_mut(row_len.max(1)).enumerate() {
                let oy = band_idx * band + r;
                strip.build(desc, input, &eplan_state.fill_pattern, b, oy, need_popc);
                conv_row(desc, w, popc, eplan_state, strip, oy, row);
            }
            sink(b, band_idx, acc);
        }
    }
}

/// Output row `oy` from its strip: for every weight row group, one K pass
/// per block of `jb` pixels × `q` planes — the group's cells stay cache-hot
/// across the row — then each pixel's counts combined. Pixels whose window
/// misses no column share one weight-side offset per `(group, plane)`;
/// only the border pixels sum their own out-of-frame taps.
fn conv_row(
    desc: &ConvDesc,
    w: &LanePanel,
    popc: &TapPopc,
    state: &ConvExecPlan,
    strip: &Strip,
    oy: usize,
    row: &mut [i32],
) {
    let corr = state.eplan.case.correction();
    let arm = state.arm.sanitized();
    let (p, q) = (desc.w_bits as usize, desc.x_bits as usize);
    let jb = state.micro.rows_for(p, q);
    let (ow, cout) = (desc.out_w(), desc.cout);
    let rows_in = in_frame(oy, desc.stride, desc.pad, desc.h, desc.kh);

    let mut tile = [[0i32; LANES]; MAX_TILE];
    let mut xs: [&[u64]; MAX_TILE] = [&[]; MAX_TILE];
    let mut plane_popc = [0i32; MAX_PLANES];
    for g in 0..w.groups() {
        let chans = g * LANES..cout.min((g + 1) * LANES);
        let interior = weight_sides(desc, popc, corr, g, |ky, _| !rows_in.contains(&ky));
        for ox0 in (0..ow).step_by(jb) {
            let n_px = jb.min(ow - ox0);
            // Streams are `[pixel][plane]`-ordered.
            for (r, slot) in xs[..n_px * q].iter_mut().enumerate() {
                *slot = strip.stream(r % q, ox0 + r / q);
            }
            let live = &mut tile[..p * n_px * q];
            popc_tile(state.eplan.op, arm, w, g, &xs[..n_px * q], live);
            for (j, ox) in (ox0..ox0 + n_px).enumerate() {
                let cols_in = in_frame(ox, desc.stride, desc.pad, desc.w, desc.kw);
                let border;
                let w_side = if cols_in == (0..desc.kw) {
                    &interior
                } else {
                    border = weight_sides(desc, popc, corr, g, |ky, kx| {
                        !rows_in.contains(&ky) || !cols_in.contains(&kx)
                    });
                    &border
                };
                if corr.needs_col_sums() {
                    for (t, sum) in plane_popc[..q].iter_mut().enumerate() {
                        *sum = strip.window_popc(t, ox, desc.stride, desc.kw);
                    }
                }
                let lanes = combine_conv_block(corr, (p, q), live, (n_px, j), w_side, &plane_popc);
                // A ragged last group's pad lanes hold no output channel.
                row[ox * cout..][chans.clone()].copy_from_slice(&lanes[..chans.len()]);
            }
        }
    }
}

/// [`conv_exec`] with the storing row sink: the whole shard's NHWC i32
/// accumulators land in the caller-owned `out`.
pub(crate) fn conv_exec_store(
    desc: &ConvDesc,
    w: &LanePanel,
    popc: &TapPopc,
    input: &BitTensor4,
    eplan_state: &ConvExecPlan,
    scratch: &mut ConvScratch,
    out: &mut Vec<i32>,
) {
    let (oh, row_len) = (desc.out_h(), desc.out_w() * desc.cout);
    // Every row of every image is stored by the sink — no zeroing pass.
    apnn_bitpack::resize_for_overwrite(out, input.shape().0 * oh * row_len);
    let ConvScratch { strip, acc, .. } = scratch;
    conv_exec(
        desc,
        w,
        popc,
        input,
        eplan_state,
        1,
        strip,
        acc,
        |b, oy, row| out[(b * oh + oy) * row_len..][..row_len].copy_from_slice(row),
    );
}

/// Fused execution: [`conv_exec`] with the §5.2 tail as its row sink —
/// residual add, 2×2 pool, the epilogue applied row-wise
/// ([`Epilogue::rows`]) and word-level packing
/// ([`BitTensor4::pack_row`]) of the next layer's channel-major
/// activations into the caller-owned `out` tensor, each band while it is
/// cache-hot. Allocation-free once `scratch` and `out` have reached the
/// plan's capacity.
///
/// `residual` adds a same-shaped NHWC i32 buffer into the raw accumulators
/// *before* the pool/epilogue run — the exact-i32 requantization point of a
/// fused residual block: `quantize(epi(acc + residual))`, with no
/// intermediate rounding between the two integer paths.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_exec_fused(
    desc: &ConvDesc,
    w: &LanePanel,
    popc: &TapPopc,
    input: &BitTensor4,
    eplan_state: &ConvExecPlan,
    residual: Option<&[i32]>,
    pool: Option<Pool2>,
    epi: &Epilogue,
    scratch: &mut ConvScratch,
    out: &mut BitTensor4,
) {
    let bits = epi
        .output_bits()
        .expect("fused conv stages must end in quantization");
    let batch = input.shape().0;
    let (oh, ow, cout) = (desc.out_h(), desc.out_w(), desc.cout);
    if let Some(res) = residual {
        assert_eq!(
            res.len(),
            batch * oh * ow * cout,
            "residual buffer must match the accumulator shape"
        );
    }
    let (band, ph, pw) = match pool {
        None => (1, oh, ow),
        Some(_) => (2, oh / 2, ow / 2),
    };
    // `pack_row` stores every word of every row of the `batch` images
    // below, channel padding included, so the reshape skips the zeroing
    // pass of `reset_zeros`.
    out.reset_for_overwrite(batch, ph, pw, cout, bits, Encoding::ZeroOne);
    let ConvScratch {
        strip,
        acc,
        vals,
        codes,
        bn_den,
    } = scratch;
    let epi = epi.rows(cout, bn_den);
    apnn_bitpack::resize_for_overwrite(vals, pw * cout);
    apnn_bitpack::resize_for_overwrite(codes, pw * cout);
    conv_exec(
        desc,
        w,
        popc,
        input,
        eplan_state,
        band,
        strip,
        acc,
        |b, py, rows| {
            if let Some(res) = residual {
                let res = &res[(b * oh + py * band) * ow * cout..][..rows.len()];
                for (a, r) in rows.iter_mut().zip(res) {
                    *a += r;
                }
            }
            match pool {
                None => {
                    for (v, &a) in vals.iter_mut().zip(rows.iter()) {
                        *v = a as f32;
                    }
                }
                Some(kind) => {
                    let (r0, r1) = rows.split_at(ow * cout);
                    pool2_rows(kind, r0, r1, cout, vals, |a| a as f32);
                }
            }
            epi.apply_to_codes(vals, codes);
            out.pack_row(b, py, codes);
        },
    );
}

/// 2×2/stride-2 pooling of two NHWC accumulator rows into `out.len() /
/// cout` pooled pixels (a trailing odd column is dropped) — the one copy
/// of the pooling arithmetic.
fn pool2_rows<T>(
    kind: Pool2,
    r0: &[i32],
    r1: &[i32],
    cout: usize,
    out: &mut [T],
    to: impl Fn(i32) -> T,
) {
    let quads = r0.chunks_exact(2 * cout).zip(r1.chunks_exact(2 * cout));
    for (px, (top, bottom)) in out.chunks_exact_mut(cout).zip(quads) {
        let ((a, b), (c, d)) = (top.split_at(cout), bottom.split_at(cout));
        for co in 0..cout {
            px[co] = to(match kind {
                Pool2::Max => a[co].max(b[co]).max(c[co]).max(d[co]),
                Pool2::Avg => (a[co] + b[co] + c[co] + d[co]).div_euclid(4),
            });
        }
    }
}

/// Fused 2×2/stride-2 pooling over whole-batch NHWC i32 accumulators — for
/// the allocating paths (compile-time calibration, non-quantizing fused
/// outputs); the workspace path pools row pairs inside its sink.
pub fn pool2_i32(
    y: &[i32],
    batch: usize,
    oh: usize,
    ow: usize,
    cout: usize,
    kind: Pool2,
) -> Vec<i32> {
    let (ph, pw) = (oh / 2, ow / 2);
    let mut v = vec![0i32; batch * ph * pw * cout];
    for (i, out) in v.chunks_exact_mut((pw * cout).max(1)).enumerate() {
        let (b, py) = (i / ph, i % ph);
        let rows = &y[(b * oh + 2 * py) * ow * cout..][..2 * ow * cout];
        let (r0, r1) = rows.split_at(ow * cout);
        pool2_rows(kind, r0, r1, cout, out, |a| a);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apconv::padding::PadFill;
    use crate::apconv::{ApConv, ConvOutput, ConvWeights};
    use crate::fusion::EpilogueOp;
    use crate::reference::conv2d_i32;
    use apnn_bitpack::{Layout, Tensor4};

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    /// Build packed input + decoded reference values.
    fn make_input(desc: &ConvDesc, seed: &mut u64) -> (BitTensor4, Vec<i32>) {
        let codes = Tensor4::<u32>::from_fn(
            desc.batch,
            desc.cin,
            desc.h,
            desc.w,
            Layout::Nhwc,
            |_, _, _, _| (lcg(seed) as u32) % (1 << desc.x_bits),
        );
        let packed = BitTensor4::from_tensor(&codes, desc.x_bits, desc.x_enc);
        // Decoded NHWC values.
        let mut vals = vec![0i32; desc.batch * desc.h * desc.w * desc.cin];
        for b in 0..desc.batch {
            for y in 0..desc.h {
                for x in 0..desc.w {
                    for c in 0..desc.cin {
                        vals[((b * desc.h + y) * desc.w + x) * desc.cin + c] =
                            desc.x_enc.code_value(codes.get(b, c, y, x), desc.x_bits);
                    }
                }
            }
        }
        (packed, vals)
    }

    fn make_weights(desc: &ConvDesc, seed: &mut u64) -> (ConvWeights, Vec<i32>) {
        let n = desc.cout * desc.kh * desc.kw * desc.cin;
        let codes: Vec<u32> = (0..n)
            .map(|_| (lcg(seed) as u32) % (1 << desc.w_bits))
            .collect();
        let w = ConvWeights::from_codes(desc, &codes);
        let vals: Vec<i32> = codes
            .iter()
            .map(|&c| desc.w_enc.code_value(c, desc.w_bits))
            .collect();
        (w, vals)
    }

    /// Seeded operands plus the naive i32 oracle's NHWC accumulators.
    fn operands_and_oracle(desc: &ConvDesc, seed: u64) -> (BitTensor4, ConvWeights, Vec<i32>) {
        let mut seed = seed;
        let (input, x_vals) = make_input(desc, &mut seed);
        let (weights, w_vals) = make_weights(desc, &mut seed);
        let want = conv2d_i32(
            &x_vals,
            &w_vals,
            desc.batch,
            desc.h,
            desc.w,
            desc.cin,
            desc.cout,
            desc.kh,
            desc.kw,
            desc.stride,
            desc.pad,
        );
        (input, weights, want)
    }

    fn check_against_reference(desc: &ConvDesc, seed: u64) {
        let (input, weights, want) = operands_and_oracle(desc, seed);
        let got = ApConv::new(*desc).execute(&weights, &input);
        assert_eq!(got, want, "desc {desc:?}");
    }

    fn with_encodings(mut desc: ConvDesc, w_enc: Encoding, x_enc: Encoding) -> ConvDesc {
        desc.w_enc = w_enc;
        desc.x_enc = x_enc;
        desc
    }

    /// 2×2/stride-2 pooling of NHWC `y` written out by hand.
    fn pooled_by_hand(y: &[i32], desc: &ConvDesc, kind: Pool2) -> Vec<i32> {
        let (oh, ow, c) = (desc.out_h(), desc.out_w(), desc.cout);
        let mut v = Vec::new();
        for b in 0..desc.batch {
            for py in 0..oh / 2 {
                for px in 0..ow / 2 {
                    for co in 0..c {
                        let at = |dy, dx| y[((b * oh + 2 * py + dy) * ow + 2 * px + dx) * c + co];
                        let quad = [at(0, 0), at(0, 1), at(1, 0), at(1, 1)];
                        v.push(match kind {
                            Pool2::Max => *quad.iter().max().unwrap(),
                            Pool2::Avg => quad.iter().sum::<i32>().div_euclid(4),
                        });
                    }
                }
            }
        }
        v
    }

    /// Drive the one driver through every conv emulation case and window
    /// geometry × `tiles` × `arms` × {full, partial, zero-image} shard,
    /// reusing one scratch as shapes shrink and grow, and compare each
    /// result with the naive i32 oracle.
    fn check_every_case(tiles: &[MicroTile], arms: &[PopcntArm]) {
        use Encoding::{PlusMinusOne as Pm, ZeroOne as Zo};
        let descs = [
            // Stride 1 with padding: a ragged last pixel block (7 columns)
            // and a ragged last row group (9 channels).
            ConvDesc::unsigned(2, 5, 7, 9, 3, 1, 1, 2, 2),
            // Stride 2, wide kernel, wide channels.
            ConvDesc::unsigned(1, 4, 9, 5, 5, 2, 2, 1, 2),
            ConvDesc::unsigned(1, 130, 4, 3, 3, 1, 1, 1, 3),
            // ±1/±1 (pad-1 + counter correction) and the two Case III forms.
            with_encodings(ConvDesc::unsigned(1, 5, 6, 4, 3, 1, 1, 1, 1), Pm, Pm),
            with_encodings(ConvDesc::unsigned(2, 6, 5, 7, 3, 1, 1, 1, 3), Pm, Zo),
            with_encodings(ConvDesc::unsigned(2, 5, 5, 3, 3, 1, 1, 2, 1), Zo, Pm),
        ];
        let mut cases = Vec::new();
        let mut scratch = ConvScratch::default();
        let mut out = Vec::new();
        for (i, desc) in descs.iter().enumerate() {
            let (input, weights, want) = operands_and_oracle(desc, 300 + i as u64);
            let per_image = desc.out_h() * desc.out_w() * desc.cout;
            for (&micro, &arm) in tiles.iter().flat_map(|t| arms.iter().map(move |a| (t, a))) {
                let prepared = ApConv::new(*desc)
                    .prepare(weights.clone())
                    .with_micro(micro)
                    .with_arm(arm);
                let case = prepared.exec_plan.eplan.case;
                if !cases.contains(&case) {
                    cases.push(case);
                }
                for images in [desc.batch, desc.batch - 1, 0] {
                    prepared.execute_into(&input.batch_slice(0, images), &mut scratch, &mut out);
                    assert_eq!(
                        out,
                        want[..images * per_image],
                        "{micro:?} {arm:?} shard {images} desc {desc:?}"
                    );
                }
            }
        }
        assert_eq!(cases.len(), 4, "all four conv emulation cases");
    }

    #[test]
    fn case1_unsigned_various_shapes() {
        check_against_reference(&ConvDesc::unsigned(1, 3, 5, 4, 3, 1, 1, 1, 2), 1);
        check_against_reference(&ConvDesc::unsigned(2, 7, 8, 5, 3, 1, 1, 2, 2), 2);
        check_against_reference(&ConvDesc::unsigned(1, 130, 4, 3, 3, 1, 1, 1, 3), 3);
        check_against_reference(&ConvDesc::unsigned(1, 4, 9, 2, 5, 2, 2, 2, 1), 4);
        check_against_reference(&ConvDesc::unsigned(1, 3, 6, 2, 1, 1, 0, 3, 3), 5);
    }

    #[test]
    fn case2_signed_binary_with_oob_padding() {
        // ±1 weights and activations with pad=1 exercises the counter
        // correction on every border pixel.
        let mut desc = ConvDesc::unsigned(1, 5, 6, 4, 3, 1, 1, 1, 1);
        desc.w_enc = Encoding::PlusMinusOne;
        desc.x_enc = Encoding::PlusMinusOne;
        check_against_reference(&desc, 7);
        // Bigger pad → windows fully outside rows exist.
        let mut desc = ConvDesc::unsigned(2, 3, 4, 3, 3, 1, 2, 1, 1);
        desc.w_enc = Encoding::PlusMinusOne;
        desc.x_enc = Encoding::PlusMinusOne;
        check_against_reference(&desc, 8);
    }

    #[test]
    fn case3_signed_weights_unsigned_activations() {
        let mut desc = ConvDesc::unsigned(1, 6, 6, 4, 3, 1, 1, 1, 2);
        desc.w_enc = Encoding::PlusMinusOne;
        check_against_reference(&desc, 9);
        let mut desc = ConvDesc::unsigned(2, 9, 5, 3, 3, 2, 1, 1, 4);
        desc.w_enc = Encoding::PlusMinusOne;
        check_against_reference(&desc, 10);
    }

    #[test]
    fn case3_mirrored_unsigned_weights_signed_activations() {
        let mut desc = ConvDesc::unsigned(1, 5, 5, 3, 3, 1, 1, 2, 1);
        desc.x_enc = Encoding::PlusMinusOne;
        check_against_reference(&desc, 11);
    }

    #[test]
    fn fused_pool_and_quantize() {
        // Oracle: reference conv → hand-written pool → quantize, for the
        // allocating wrapper and the workspace form (one packed slot
        // reused across pool shapes) alike.
        let desc = ConvDesc::unsigned(2, 4, 8, 3, 3, 1, 1, 1, 2);
        let (input, weights, y) = operands_and_oracle(&desc, 13);
        let epi = Epilogue::quantize(4.0, 0.0, 2);
        let prepared = ApConv::new(desc).prepare(weights.clone());
        let mut scratch = ConvScratch::default();
        let mut slot = BitTensor4::zeros(1, 1, 1, 1, 1, Encoding::ZeroOne);
        for pool in [None, Some(Pool2::Max), Some(Pool2::Avg)] {
            let (want, side) = match pool {
                None => (y.clone(), 8),
                Some(kind) => (pooled_by_hand(&y, &desc, kind), 4),
            };
            let out = ApConv::new(desc).execute_fused(&weights, &input, pool, &epi);
            let ConvOutput::Packed(packed) = out else {
                panic!("expected packed")
            };
            prepared.execute_fused_into(&input, pool, &epi, &mut scratch, &mut slot);
            assert_eq!(packed, slot, "pool {pool:?}");
            assert_eq!(packed.shape(), (2, side, side, 3));
            for (idx, &acc) in want.iter().enumerate() {
                let (co, px) = (idx % 3, idx / 3);
                let (b, py, px) = (px / (side * side), px / side % side, px % side);
                let code = epi.apply_to_code(acc, co);
                assert_eq!(packed.get_code(b, py, px, co), code, "pool {pool:?}");
            }
        }
    }

    #[test]
    fn every_micro_tile_is_bit_identical_for_conv() {
        let tiles = [1usize, 2, 4, 8].map(|jb| MicroTile { jb });
        check_every_case(&tiles, &[PopcntArm::detect()]);
    }

    #[test]
    fn every_available_arm_is_bit_identical_for_conv() {
        // Unavailable arms sanitize to the detected best — still exact, so
        // asserting on the full set is safe on any host.
        check_every_case(&[MicroTile { jb: 4 }], &PopcntArm::ALL);
    }

    #[test]
    fn ad_hoc_conv_entry_reuses_the_shape_keyed_memo() {
        // Tile selection is a closed form of the output-row width: no
        // prepare or ad-hoc call ever measures, and the bound tile is never
        // wider than `out_w` rounds up to.
        let desc = ConvDesc::unsigned(1, 37, 5, 13, 3, 1, 1, 2, 2);
        let (input, weights, _) = operands_and_oracle(&desc, 41);
        let conv = ApConv::new(desc);

        let s = crate::stats::scope();
        let y1 = conv.execute(&weights, &input);
        let y2 = conv.execute(&weights, &input);
        assert_eq!(y1, y2);
        let prepared = conv.prepare(weights);
        assert_eq!(s.micro_benches(), 0, "prepare and execute never measure");
        assert_eq!(prepared.micro(), select_micro(desc.out_w()));
        assert!(prepared.micro().jb <= desc.out_w().next_power_of_two());
    }

    /// Every strip slice against a tap-by-tap gather of the same window —
    /// word for word, in the panel's `(kx, ky, word)` order — plus the
    /// in-frame ranges against a per-tap coordinate test and the prefix-sum
    /// window popcounts against a recount, for every output pixel.
    fn check_strip_against_tap_gather(desc: &ConvDesc, fill: &[u64], seed: u64) {
        let mut seed = seed;
        let (input, _) = make_input(desc, &mut seed);
        let (kh, kw, live) = (desc.kh, desc.kw, desc.live_words());
        let mut strip = Strip::default();
        for b in 0..desc.batch {
            for oy in 0..desc.out_h() {
                strip.build(desc, &input, fill, b, oy, true);
                let rows_in = in_frame(oy, desc.stride, desc.pad, desc.h, kh);
                for ox in 0..desc.out_w() {
                    let cols_in = in_frame(ox, desc.stride, desc.pad, desc.w, kw);
                    for t in 0..desc.x_bits as usize {
                        let mut want = Vec::new();
                        for (kx, ky) in (0..kw).flat_map(|kx| (0..kh).map(move |ky| (kx, ky))) {
                            let iy = (oy * desc.stride + ky) as isize - desc.pad as isize;
                            let ix = (ox * desc.stride + kx) as isize - desc.pad as isize;
                            let inside = (0..desc.h as isize).contains(&iy)
                                && (0..desc.w as isize).contains(&ix);
                            assert_eq!(
                                rows_in.contains(&ky) && cols_in.contains(&kx),
                                inside,
                                "frame test at ({oy},{ox}) tap ({ky},{kx}) of {desc:?}"
                            );
                            want.extend_from_slice(if inside {
                                &input.pixel_words(b, t as u32, iy as usize, ix as usize)[..live]
                            } else {
                                fill
                            });
                        }
                        let got = &strip.stream(t, ox)[..kw * kh * live];
                        assert_eq!(got, &want[..], "window ({oy},{ox}) plane {t} of {desc:?}");
                        assert_eq!(
                            strip.window_popc(t, ox, desc.stride, kw),
                            apnn_bitpack::word::popcount(&want) as i32,
                            "window popcount ({oy},{ox}) plane {t} of {desc:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shifted_window_gather_matches_full_gather() {
        // Every strip slice equals a tap-by-tap gather: both strides, pads
        // up to windows wholly outside the frame (pad 2 under a 3×3
        // kernel), square and oblong kernels, channel counts either side of
        // the word boundaries, both fill patterns, 1–3 planes.
        let mut seed = 23;
        for (stride, pad) in [1usize, 2]
            .into_iter()
            .flat_map(|s| [0, 1, 2].map(|p| (s, p)))
        {
            for (kh, kw) in [(1usize, 1usize), (3, 3), (5, 5), (3, 5)] {
                for cin in [3usize, 16, 64, 65, 130] {
                    for q in 1u32..=3 {
                        let mut desc = ConvDesc::unsigned(2, cin, 6, 1, kh, stride, pad, 1, q);
                        (desc.w, desc.kw) = (7, kw);
                        for fill in [PadFill::Zeros, PadFill::OnesValidChannels] {
                            let fill = fill_words(fill, cin, desc.live_words());
                            seed += 1;
                            check_strip_against_tap_gather(&desc, &fill, seed);
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The grid above at random geometry (the nightly deep run drives
        /// this at 2048 cases).
        #[test]
        fn strip_slices_equal_tap_gather(
            h in 1usize..9, w in 1usize..9, kh in 1usize..6, kw in 1usize..6,
            stride in 1usize..4, pad in 0usize..4, cin in 1usize..200, q in 1u32..4,
            ones in proptest::prelude::any::<bool>(), seed in proptest::prelude::any::<u64>(),
        ) {
            proptest::prop_assume!(h + 2 * pad >= kh && w + 2 * pad >= kw);
            let mut desc = ConvDesc::unsigned(1, cin, h, 1, kh, stride, pad, 1, q);
            (desc.w, desc.kw) = (w, kw);
            let fill = if ones { PadFill::OnesValidChannels } else { PadFill::Zeros };
            check_strip_against_tap_gather(&desc, &fill_words(fill, cin, desc.live_words()), seed);
        }
    }

    #[test]
    fn residual_adds_into_raw_accumulators_before_the_epilogue() {
        let desc = ConvDesc::unsigned(2, 4, 8, 3, 3, 1, 1, 1, 2);
        let (input, weights, raw) = operands_and_oracle(&desc, 29);
        let epi = Epilogue::quantize(4.0, 0.0, 2);
        let res: Vec<i32> = (0..raw.len()).map(|i| (i as i32 % 11) - 5).collect();

        let mut scratch = ConvScratch::default();
        let mut packed = BitTensor4::zeros(1, 1, 1, 1, 1, Encoding::ZeroOne);
        ApConv::new(desc)
            .prepare(weights)
            .execute_fused_residual_into(&input, &res, None, &epi, &mut scratch, &mut packed);

        // Oracle: raw accumulators + residual, then the epilogue.
        for b in 0..desc.batch {
            for y in 0..desc.out_h() {
                for x in 0..desc.out_w() {
                    for co in 0..desc.cout {
                        let idx = ((b * desc.out_h() + y) * desc.out_w() + x) * desc.cout + co;
                        let want = epi.apply_to_code(raw[idx] + res[idx], co);
                        assert_eq!(packed.get_code(b, y, x, co), want, "at {idx}");
                    }
                }
            }
        }
    }

    #[test]
    fn avg_pool_floors_toward_neg_infinity() {
        // ±1 weights give negative window sums, so flooring the mean toward
        // −∞ (not toward zero) is observable. A non-quantizing epilogue
        // keeps i32 — the output form only the allocating wrappers produce.
        let desc = with_encodings(
            ConvDesc::unsigned(2, 3, 6, 4, 3, 1, 1, 1, 2),
            Encoding::PlusMinusOne,
            Encoding::ZeroOne,
        );
        let (input, weights, y) = operands_and_oracle(&desc, 17);
        let pooled = pooled_by_hand(&y, &desc, Pool2::Avg);
        assert!(pooled.iter().any(|&v| v < 0), "negative means exercised");
        let relu = Epilogue::none().then(EpilogueOp::Relu);
        let clamped: Vec<i32> = pooled.iter().map(|&v| v.max(0)).collect();
        for (epi, want) in [(Epilogue::none(), &pooled), (relu, &clamped)] {
            let out = ApConv::new(desc).execute_fused(&weights, &input, Some(Pool2::Avg), &epi);
            let ConvOutput::Int32(v) = out else {
                panic!("expected i32")
            };
            assert_eq!(&v, want, "epilogue {epi:?}");
        }
    }
}
