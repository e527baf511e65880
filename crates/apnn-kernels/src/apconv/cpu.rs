//! Functional CPU backend for APConv.
//!
//! Direct convolution over the channel-major packed layout, one **output
//! row** at a time. Per `(image, output row, plane)` the `KH` input rows the
//! row's windows touch are packed once into a *column-dense activation
//! strip*: one column per input column `col ∈ 0..W + 2·pad`,
//! [`ConvDesc::col_words`] words each, holding
//!
//! `bit ky·C_in + c of column col = channel c of input pixel (oy·stride + ky − pad, col − pad)`
//!
//! — the `KH` taps' channel vectors laid bit-contiguously and rounded up to
//! whole words, out-of-frame rows and columns holding the input-aware fill
//! pattern of §4.2(b). This is the CPU form of §4.2's operand organization:
//! lay the operand out so the primitive's fragment is full (a 3×3×16 column
//! is one word, not three quarter-full ones). The weight panel's K order is
//! the same ([`super::ConvWeights::lane_panel`]), so every output pixel's
//! window is the **contiguous word slice**
//! `strip[ox·stride·col_words ..][.. KW·col_words]`: nothing is gathered per
//! pixel, and because consecutive pixels' slices overlap in place, one K
//! pass streams a block of [`MicroTile::jb`] pixels × `q` planes against
//! each loaded weight cell with no further scratch — the streams are affine
//! ([`Affine`]: `first = ox0·stride·col_words`, `step = stride·col_words`).
//!
//! Where a column is under a word and a window fits in fewer words than it
//! has columns ([`ConvDesc::window_dense`] — the 3-channel stems: 3×3×3 is
//! 27 bits, 5×5×3 75), the *window* becomes the unit instead: after the
//! strip, one contiguous pass per `(kx, word)` lays every pixel's `kw`
//! columns back to back, bit `kx·kh·C_in + ky·C_in + c`, into
//! [`ConvDesc::k_words`] words per pixel and plane, and the kernel reads
//! those at `step = k_words`. The strip stays the source of both the
//! windows and the activation sides.
//!
//! Everything a window needs besides the strip is fixed before the first
//! row ([`ConvExecPlan`]): the weight side of its correction offset, folded
//! over the plane pairs — a function of which taps fall outside the frame,
//! i.e. of the window's *class*, of which an axis has at most `2·pad + 1`,
//! so a pixel block carries one small index per pixel. An output row is
//! then: strip in → per `(row group, block of jb pixels)` kernel calls that
//! walk every plane pair and finish once per output in registers
//! ([`apnn_bitpack::popcnt::finish_lanes`]) → eight i32 channels stored per
//! `(pixel, group)`.
//!
//! One loop nest — `conv_exec`, on the calling thread — drives it all and
//! hands every finished accumulator row to a *row sink*: the unfused entry
//! points store it, [`super::tail`] runs the §5.2 tail on it while it is
//! cache-hot.

use std::ops::Range;

use apnn_bitpack::popcnt::{finish_lanes, Affine, Finish};
use apnn_bitpack::{BitTensor4, LanePanel, PopcntArm, LANES};
use apnn_sim::BmmaOp;

use super::padding::{fill_words, oob_popc, pad_fill, valid_row_popc, PadFill};
use super::weights::TapPopc;
use super::{ConvDesc, Pool2};
use crate::autotune::{select_micro, MicroTile, MAX_JB};
use crate::micro::MAX_PLANES;
use crate::select::{fold_planes, plan, Correction, EmulationPlan};

/// The kernel offsets (of `0..k`) whose input coordinate
/// `o·stride + offset − pad` lies inside `0..extent`, for output coordinate
/// `o` — the **single** copy of the stride/padding index arithmetic, used
/// for rows and columns alike. Empty when the window misses the frame.
#[inline]
fn in_frame(o: usize, stride: usize, pad: usize, extent: usize, k: usize) -> Range<usize> {
    let first = o * stride;
    pad.saturating_sub(first).min(k)..(extent + pad).saturating_sub(first).min(k)
}

/// The distinct [`in_frame`] ranges along one axis — its *window classes*
/// — and the class of every output coordinate. Borders are the only
/// coordinates whose range is not the whole kernel, so there are at most
/// `2·pad + 1` classes.
fn axis_classes(
    out: usize,
    stride: usize,
    pad: usize,
    extent: usize,
    k: usize,
) -> (Vec<Range<usize>>, Vec<usize>) {
    let mut classes = Vec::new();
    let of = (0..out)
        .map(|o| {
            let range = in_frame(o, stride, pad, extent, k);
            classes.iter().position(|c| *c == range).unwrap_or_else(|| {
                classes.push(range);
                classes.len() - 1
            })
        })
        .collect();
    (classes, of)
}

/// Per-call-invariant execution state for a convolution: the emulation
/// plan, the materialized padding pattern, and every per-window quantity
/// that does not depend on the input. Compiled plans build this once; the
/// ad-hoc [`super::ApConv::execute`] entry point rebuilds it per call.
#[derive(Debug, Clone)]
pub struct ConvExecPlan {
    pub(crate) eplan: EmulationPlan,
    /// The §4.2(b) fill of one out-of-frame pixel ([`ConvDesc::live_words`]
    /// words).
    pub(crate) fill_pattern: Vec<u64>,
    /// CPU microkernel tile: `jb` consecutive output pixels of a row share
    /// each loaded weight cell.
    pub(crate) micro: MicroTile,
    /// Popcount arm the microkernel runs on, bound once at plan time by
    /// [`PopcntArm::detect`] (exact for any value).
    pub(crate) arm: PopcntArm,
    /// Window class of every output row.
    row_class: Vec<usize>,
    /// Per output pixel of a row, its column class: its entry in a
    /// `(row class, group)`'s slice of `w_sides`.
    col_side: Vec<u32>,
    /// The folded weight side of the correction offset ([`weight_sides`])
    /// of every window class, `[row class][group][column class]`.
    w_sides: Vec<[i32; LANES]>,
    /// Entries of `w_sides` per `(row class, group)`: the column classes.
    group_sides: usize,
}

impl ConvExecPlan {
    /// Resolve the plan + padding strategy + popcount arm + microkernel
    /// tile for a layer (an output row is the dynamic extent one K pass can
    /// block over, so [`select_micro`] sees `out_w`) and sum the
    /// out-of-frame taps of every window class from the weights' per-tap
    /// popcounts.
    pub(crate) fn new(desc: &ConvDesc, popc: &TapPopc) -> Self {
        Self::for_plan(desc, popc, plan(desc.w_enc, desc.x_enc))
    }

    /// [`Self::new`] under another emulation plan for the same encodings
    /// (tests run the XOR-only ones); the fill is still the encodings'.
    pub(crate) fn for_plan(desc: &ConvDesc, popc: &TapPopc, eplan: EmulationPlan) -> Self {
        let fill = pad_fill(desc.w_enc, desc.x_enc);
        let (rows, row_class) = axis_classes(desc.out_h(), desc.stride, desc.pad, desc.h, desc.kh);
        let (cols, col_class) = axis_classes(desc.out_w(), desc.stride, desc.pad, desc.w, desc.kw);
        let mut w_sides = Vec::with_capacity(rows.len() * popc.groups() * cols.len());
        for (rows_in, g) in rows
            .iter()
            .flat_map(|r| (0..popc.groups()).map(move |g| (r, g)))
        {
            w_sides.extend(cols.iter().map(|cols_in| {
                weight_sides(desc, popc, eplan, fill, g, |ky, kx| {
                    !rows_in.contains(&ky) || !cols_in.contains(&kx)
                })
            }));
        }
        ConvExecPlan {
            eplan,
            fill_pattern: fill_words(fill, desc.cin, desc.live_words()),
            micro: select_micro(desc.out_w()),
            arm: PopcntArm::detect(),
            row_class,
            col_side: col_class.iter().map(|&class| class as u32).collect(),
            w_sides,
            group_sides: cols.len(),
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

    /// The weight sides of row group `g` (of `groups`) for the windows of
    /// an output row of class `rc`: one entry per column class, indexed
    /// through `col_side`.
    #[inline]
    fn class_sides(&self, rc: usize, g: usize, groups: usize) -> &[[i32; LANES]] {
        &self.w_sides[(rc * groups + g) * self.group_sides..][..self.group_sides]
    }
}

/// Reusable per-call scratch for the `execute_into` entry points — all of
/// it **row-sized**: the activation strip of the output row in flight (and,
/// for a window-dense layer, its windows) and its accumulator row (two
/// under a fused 2×2 pool). Size it once with [`ConvScratch::reserve`];
/// every later call — full or partial shard — is then allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ConvScratch {
    pub(super) strip: Strip,
    /// The accumulator rows handed to the row sink.
    pub(super) acc: Vec<i32>,
}

impl ConvScratch {
    /// Pre-size the scratch: `strip_words` strip words
    /// (`x_bits × (w + 2·pad) × col_words`), `windows` window words
    /// ([`window_words`]), `cols` strip columns (`w + 2·pad` per-column
    /// offsets), `x_sides` activation-side offsets (`out_w`) and `acc`
    /// accumulator elements (`out_w × cout`, twice under a fused pool).
    pub fn reserve(
        &mut self,
        strip_words: usize,
        windows: usize,
        cols: usize,
        x_sides: usize,
        acc: usize,
    ) {
        fn grow<T>(v: &mut Vec<T>, len: usize) {
            v.reserve(len.saturating_sub(v.len()));
        }
        grow(&mut self.strip.words, strip_words);
        grow(&mut self.strip.windows, windows);
        grow(&mut self.strip.col_sides, cols);
        grow(&mut self.strip.x_sides, x_sides);
        grow(&mut self.acc, acc);
    }
}

/// The window buffer a layer's output row needs: `q` planes of `out_w`
/// windows of [`ConvDesc::k_words`] words for a [`ConvDesc::window_dense`]
/// layer — plus one plane-sized staging region when a window spans more
/// than one word — and nothing otherwise.
pub fn window_words(desc: &ConvDesc) -> usize {
    if !desc.window_dense() {
        return 0;
    }
    let k_words = desc.k_words();
    (desc.x_bits as usize + usize::from(k_words > 1)) * desc.out_w() * k_words
}

/// The column-dense activation strip of one output row (see the module
/// docs for the layout), all `q` planes back to back.
#[derive(Debug, Clone, Default)]
pub(super) struct Strip {
    words: Vec<u64>,
    /// A window-dense layer's windows, built from `words`: plane `t` of
    /// pixel `ox` at `(t·out_w + ox)·k_words`. Empty otherwise.
    windows: Vec<u64>,
    /// The activation side of every output pixel's correction offset
    /// (`c·J·X` over its window, folded over the plane pairs). Filled only
    /// for the cases that consume it, else empty.
    x_sides: Vec<i32>,
    /// The strip columns' folded activation sides — scratch of the above.
    col_sides: Vec<i32>,
}

impl Strip {
    /// Lay out output row `oy` of image `b`. Every word is stored by the
    /// first tap that reaches it and OR-ed into by the rest — input rows
    /// place their pixels' live bits, out-of-frame rows and the `pad`
    /// columns either side place the fill — so nothing survives from the
    /// last row and no zeroing pass runs.
    fn build(
        &mut self,
        desc: &ConvDesc,
        input: &BitTensor4,
        state: &ConvExecPlan,
        b: usize,
        oy: usize,
    ) {
        let (cin, wpp) = (desc.cin, input.words_per_pixel());
        debug_assert_eq!(state.fill_pattern.len(), desc.live_words());
        let (cw, q) = (desc.col_words(), desc.x_bits as usize);
        let cols = desc.w + 2 * desc.pad;
        apnn_bitpack::resize_for_overwrite(&mut self.words, q * cols * cw);
        let rows = in_frame(oy, desc.stride, desc.pad, desc.h, desc.kh);
        let planes = self.words.chunks_exact_mut((cols * cw).max(1));
        for (t, plane) in planes.enumerate() {
            let (left, rest) = plane.split_at_mut(desc.pad * cw);
            let (mid, right) = rest.split_at_mut(desc.w * cw);
            for ky in 0..desc.kh {
                let row = rows
                    .contains(&ky)
                    .then(|| input.row_words(b, t as u32, oy * desc.stride + ky - desc.pad));
                // Word `j` of a pixel holds channels `64j..`, bound for
                // column bit `ky·cin + 64j`.
                for (j, &fill) in state.fill_pattern.iter().enumerate() {
                    let (at, n) = (ky * cin + 64 * j, (cin - 64 * j).min(64));
                    let fills = std::iter::repeat(fill);
                    place(left, cw, at, n, fills.clone());
                    match row {
                        // Most layers (`cin ≤ 128`): a constant source
                        // stride lets the loop vectorize.
                        Some(row) if wpp == 2 => {
                            place(mid, cw, at, n, row[j..].chunks(2).map(|px| px[0]))
                        }
                        Some(row) => place(mid, cw, at, n, row[j..].chunks(wpp).map(|px| px[0])),
                        None => place(mid, cw, at, n, fills.clone()),
                    }
                    place(right, cw, at, n, fills);
                }
            }
        }

        if desc.window_dense() {
            self.build_windows(desc);
        }
        self.x_sides.clear();
        let corr = state.eplan.case.correction();
        if corr.needs_col_sums() {
            self.build_x_sides(desc, corr);
        }
    }

    /// Lay every pixel's window out from the one-word columns just built:
    /// column `kx` of pixel `ox` — strip column `ox·stride + kx` — lands at
    /// window bit `kx·kh·cin`. The words are built *word-major* (word `k` of
    /// every pixel contiguous), so each `(kx, word)` is one contiguous pass
    /// over the pixels ([`window_pass`]); a one-word window is then already
    /// in place, a longer one is staged in the plane-sized region past the
    /// last plane and interleaved into its pixel-major slot.
    fn build_windows(&mut self, desc: &ConvDesc) {
        let (k_words, pitch) = (desc.k_words(), desc.col_pitch());
        let (cols, ow) = (desc.w + 2 * desc.pad, desc.out_w());
        let (region, staged) = (ow * k_words, k_words > 1);
        apnn_bitpack::resize_for_overwrite(&mut self.windows, window_words(desc));
        let (built, stage) = self.windows.split_at_mut(desc.x_bits as usize * region);
        let planes = self.words.chunks_exact(cols);
        for (plane, windows) in planes.zip(built.chunks_exact_mut(region.max(1))) {
            let rows = if staged { &mut *stage } else { &mut *windows };
            for kx in 0..desc.kw {
                let at = kx * pitch;
                let (row, next) = rows[at / 64 * ow..].split_at_mut(ow);
                let (bi, cols) = (at % 64, &plane[kx..]);
                if desc.stride == 1 {
                    window_pass(row, next, bi, pitch, cols.iter().copied());
                } else {
                    let cols = cols.iter().step_by(desc.stride).copied();
                    window_pass(row, next, bi, pitch, cols);
                }
            }
            if !staged {
                continue;
            }
            for (k, row) in stage.chunks_exact(ow.max(1)).enumerate() {
                for (win, &word) in windows.chunks_exact_mut(k_words).zip(row) {
                    win[k] = word;
                }
            }
        }
    }

    /// The kernel's streams over the strip just laid out: per plane, the
    /// buffer the windows lie in, and the words from one pixel's window to
    /// the next — pixel `ox`'s plane-`t` window is `planes[t][ox·step ..]
    /// [.. k_words]`, overlapping columns of the strip or, window-dense,
    /// back-to-back windows.
    fn streams<'a>(&'a self, desc: &ConvDesc, planes: &mut [&'a [u64]; MAX_PLANES]) -> usize {
        let (buf, plane_words, step) = if desc.window_dense() {
            let k_words = desc.k_words();
            (&self.windows, desc.out_w() * k_words, k_words)
        } else {
            let cw = desc.col_words();
            (&self.words, (desc.w + 2 * desc.pad) * cw, desc.stride * cw)
        };
        for (t, plane) in planes[..desc.x_bits as usize].iter_mut().enumerate() {
            *plane = &buf[t * plane_words..][..plane_words];
        }
        step
    }

    /// The activation side of every window of the strip just laid out. The
    /// offset is linear, so a column's is the sum of its planes' — each at
    /// its weight in the fold over the plane pairs ([`fold_planes`]) — and a
    /// window's the sum of its columns'; both steps are contiguous passes
    /// (one per plane, one per `kx`) so the common shapes — one-word
    /// columns, stride 1 — vectorize.
    fn build_x_sides(&mut self, desc: &ConvDesc, corr: Correction) {
        let (cw, cols, ow) = (desc.col_words(), desc.w + 2 * desc.pad, desc.out_w());
        let (p, q) = (desc.w_bits as usize, desc.x_bits as usize);
        // Every column's side starts at zero and gains each plane's term.
        self.col_sides.clear();
        self.col_sides.resize(cols, 0);
        let planes = self.words.chunks_exact((cols * cw).max(1));
        for (t, plane) in planes.enumerate() {
            // Plane `t`'s term of the fold, per set bit.
            let per_bit = fold_planes(q, p, |i| corr.offset(0, 0, i32::from(i == t)));
            if cw == 1 {
                for (side, col) in self.col_sides.iter_mut().zip(plane) {
                    *side = side.wrapping_add(per_bit.wrapping_mul(col.count_ones() as i32));
                }
            } else {
                for (side, col) in self.col_sides.iter_mut().zip(plane.chunks_exact(cw)) {
                    let popc = apnn_bitpack::word::popcount(col) as i32;
                    *side = side.wrapping_add(per_bit.wrapping_mul(popc));
                }
            }
        }
        self.x_sides.resize(ow, 0);
        for kx in 0..desc.kw {
            let sides = &self.col_sides[kx..];
            if desc.stride == 1 {
                for (x_side, side) in self.x_sides.iter_mut().zip(sides) {
                    *x_side = x_side.wrapping_add(*side);
                }
            } else {
                for (x_side, side) in self
                    .x_sides
                    .iter_mut()
                    .zip(sides.iter().step_by(desc.stride))
                {
                    *x_side = x_side.wrapping_add(*side);
                }
            }
        }
    }
}

/// Place one source word per strip column — `n` live bits each — at column
/// bit `at`: the word's low part lands in column word `at / 64`, **stored**
/// when the tap starts the word and OR-ed otherwise (an earlier tap stored
/// it), and the part spilling past the word boundary is stored into the
/// next word, which it is the first to reach.
#[inline(always)]
fn place(
    cols: &mut [u64],
    cw: usize,
    at: usize,
    n: usize,
    srcs: impl Iterator<Item = u64> + Clone,
) {
    let (wi, bi) = (at / 64, at % 64);
    if cw == 1 {
        // One word per column (`kh·cin ≤ 64`, so nothing spills): a
        // contiguous pass.
        window_pass(cols, &mut [], bi, n, srcs);
    } else if bi == 0 {
        for (col, src) in cols.chunks_exact_mut(cw).zip(srcs) {
            col[wi] = src;
        }
    } else {
        let spills = bi + n > 64;
        for (col, src) in cols.chunks_exact_mut(cw).zip(srcs) {
            col[wi] |= src << bi;
            if spills {
                col[wi + 1] = src >> (64 - bi);
            }
        }
    }
}

/// One contiguous placement pass — a one-word-column tap of [`place`], a
/// `(kx, word)` of [`Strip::build_windows`]: one `n`-bit source word per
/// destination word placed at bit `bi` of `row` — **stored** when it starts
/// the word and OR-ed otherwise (an earlier pass stored it) — and the part
/// spilling past the word stored into `next`, which it is the first to
/// reach. Contiguous in both buffers, so it vectorizes.
#[inline(always)]
fn window_pass(
    row: &mut [u64],
    next: &mut [u64],
    bi: usize,
    n: usize,
    cols: impl Iterator<Item = u64> + Clone,
) {
    if bi == 0 {
        for (word, col) in row.iter_mut().zip(cols) {
            *word = col;
        }
        return;
    }
    for (word, col) in row.iter_mut().zip(cols.clone()) {
        *word |= col << bi;
    }
    if bi + n > 64 {
        for (word, col) in next.iter_mut().zip(cols) {
            *word = col >> (64 - bi);
        }
    }
}

/// The weight-side part of the correction offset of row group `g`, folded
/// over the plane pairs ([`fold_planes`]), over a window whose taps
/// `out_of_frame(ky, kx)` reports missing. The kernel counts those taps'
/// `fill` against their weights, so the numerator it needs is
/// [`Correction::numerator`] with that count taken back out
/// ([`oob_popc`]) and the effective `K` and row sum ([`valid_row_popc`]) of
/// the in-frame taps — the §4.2(b) amendment, summed per tap, for either
/// plan of the encodings. The activation sum the strip's `J·X` includes
/// needs no amendment: a fill with ones is strategy 2's, whose case reads
/// no `J·X`. Called only to build a plan's window-class table
/// ([`ConvExecPlan::for_plan`]); with [`Strip::build`]'s activation side,
/// the conv half of the offset the kernel's finish consumes.
fn weight_sides(
    desc: &ConvDesc,
    popc: &TapPopc,
    eplan: EmulationPlan,
    fill: PadFill,
    g: usize,
    out_of_frame: impl Fn(usize, usize) -> bool,
) -> [i32; LANES] {
    let (corr, xor) = (eplan.case.correction(), eplan.op == BmmaOp::Xor);
    let cin = desc.cin as i32;
    let oob: Vec<(usize, usize)> = (0..desc.kh)
        .flat_map(|ky| (0..desc.kw).map(move |kx| (ky, kx)))
        .filter(|&(ky, kx)| out_of_frame(ky, kx))
        .collect();
    let oob_taps = oob.len() as i32;
    let valid_taps = (desc.kh * desc.kw) as i32 - oob_taps;
    std::array::from_fn(|l| {
        fold_planes(desc.w_bits as usize, desc.x_bits as usize, |s| {
            let oob_w: i32 = oob
                .iter()
                .map(|&(ky, kx)| popc.seg_lanes(s, ky * desc.kw + kx, g)[l])
                .sum();
            corr.numerator(
                -oob_popc(xor, fill, cin, oob_taps, oob_w),
                valid_taps * cin,
                valid_row_popc(popc.row_lanes(s, g)[l], oob_w),
                0,
            )
        })
    })
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
pub(super) fn conv_exec(
    desc: &ConvDesc,
    w: &LanePanel,
    input: &BitTensor4,
    state: &ConvExecPlan,
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
    assert_eq!(w.rows(), desc.cout, "weight panel rows");
    assert_eq!(w.n_planes(), desc.w_bits as usize, "weight panel planes");
    assert_eq!(w.words_per_row(), desc.k_words(), "weight panel K order");
    assert_eq!(
        (state.col_side.len(), state.row_class.len()),
        (desc.out_w(), desc.out_h()),
        "plan was built for another layer"
    );

    let row_len = desc.out_w() * desc.cout;
    // Every element of a band is stored before the sink sees it.
    apnn_bitpack::resize_for_overwrite(acc, band * row_len);
    for b in 0..n {
        for band_idx in 0..desc.out_h() / band {
            for (r, row) in acc.chunks_exact_mut(row_len.max(1)).enumerate() {
                let oy = band_idx * band + r;
                strip.build(desc, input, state, b, oy);
                conv_row(desc, w, state, strip, oy, row);
            }
            sink(b, band_idx, acc);
        }
    }
}

/// Output row `oy` from its strip: for every weight row group — its cells
/// stay cache-hot across the row — one kernel call per block of `jb` pixels
/// × all plane pairs, whose finished lanes are the group's eight channels
/// of each pixel. The row's class picks the group's weight-side offsets
/// once; each pixel's column class picks among them inside the kernel.
fn conv_row(
    desc: &ConvDesc,
    w: &LanePanel,
    state: &ConvExecPlan,
    strip: &Strip,
    oy: usize,
    row: &mut [i32],
) {
    let arm = state.arm.sanitized();
    let q = desc.x_bits as usize;
    let jb = state.micro.sanitized().jb;
    let (ow, cout) = (desc.out_w(), desc.cout);
    let fin = state.eplan.finish(q);
    let rc = state.row_class[oy];
    let mut planes: [&[u64]; MAX_PLANES] = [&[]; MAX_PLANES];
    let step = strip.streams(desc, &mut planes);

    let mut block = [[0i32; LANES]; MAX_JB];
    for g in 0..w.groups() {
        let chans = g * LANES..cout.min((g + 1) * LANES);
        let w_sides = state.class_sides(rc, g, w.groups());
        for ox0 in (0..ow).step_by(jb) {
            let n_px = jb.min(ow - ox0);
            let fin = Finish {
                w_sides,
                side_at: &state.col_side[ox0..ox0 + n_px],
                x_sides: if strip.x_sides.is_empty() {
                    &[]
                } else {
                    &strip.x_sides[ox0..]
                },
                ..fin
            };
            let xs = Affine {
                planes: &planes[..q],
                first: ox0 * step,
                step,
            };
            finish_lanes(arm, w, g, &xs, &fin, &mut block[..n_px]);
            for (lanes, px) in block[..n_px].iter().zip(row[ox0 * cout..].chunks_mut(cout)) {
                let group = &mut px[chans.clone()];
                if group.len() == LANES {
                    // One 32-byte move, where a runtime length is a
                    // `memcpy` call per pixel.
                    group.copy_from_slice(lanes);
                } else {
                    // A ragged last group's pad lanes hold no output
                    // channel.
                    group.copy_from_slice(&lanes[..group.len()]);
                }
            }
        }
    }
}

/// [`conv_exec`] with the storing row sink: the whole shard's NHWC i32
/// accumulators land in the caller-owned `out`.
pub(crate) fn conv_exec_store(
    desc: &ConvDesc,
    w: &LanePanel,
    input: &BitTensor4,
    state: &ConvExecPlan,
    scratch: &mut ConvScratch,
    out: &mut Vec<i32>,
) {
    let (oh, row_len) = (desc.out_h(), desc.out_w() * desc.cout);
    // Every row of every image is stored by the sink — no zeroing pass.
    apnn_bitpack::resize_for_overwrite(out, input.shape().0 * oh * row_len);
    let ConvScratch { strip, acc } = scratch;
    conv_exec(desc, w, input, state, 1, strip, acc, |b, oy, row| {
        out[(b * oh + oy) * row_len..][..row_len].copy_from_slice(row)
    });
}

/// 2×2/stride-2 pooling over whole-batch NHWC i32 accumulators (a trailing
/// odd row or column is dropped) — the scalar spec of the pooling
/// arithmetic, for the allocating paths (compile-time calibration,
/// non-quantizing fused outputs) and the reference the fused tail's lanes
/// are tested against.
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
    for (i, px) in v.chunks_exact_mut(cout.max(1)).enumerate() {
        let (b, py, x) = (i / (ph * pw), i / pw % ph, i % pw);
        let at = |dy: usize, dx: usize| &y[((b * oh + 2 * py + dy) * ow + 2 * x + dx) * cout..];
        let (a, b, c, d) = (at(0, 0), at(0, 1), at(1, 0), at(1, 1));
        for co in 0..cout {
            px[co] = match kind {
                Pool2::Max => a[co].max(b[co]).max(c[co]).max(d[co]),
                Pool2::Avg => (a[co] + b[co] + c[co] + d[co]).div_euclid(4),
            };
        }
    }
    v
}

#[cfg(test)]
mod tests;
