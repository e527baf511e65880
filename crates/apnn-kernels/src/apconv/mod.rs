//! Arbitrary-Precision Convolution — APConv (paper §4.2).
//!
//! APConv lowers a `p`-bit-weight × `q`-bit-activation convolution onto the
//! same batched 1-bit tensor-core machinery as APMM via implicit GEMM:
//! `M = C_out`, `N = batch·OH·OW`, `K = KH·KW·C_in` (each `(kh,kw)` tap's
//! channel vector padded to the 128-bit fragment boundary).
//!
//! Two convolution-specific designs from the paper:
//! * **Channel-major data organization** (§4.2(a), Fig. 4): activations are
//!   [`apnn_bitpack::BitTensor4`] in NPHWC order, so each window tap reads
//!   one aligned, coalesced channel vector — [`simmap`] exposes the NCHW
//!   alternative to quantify the difference.
//! * **Input-aware padding** (§4.2(b)): out-of-frame window taps must
//!   contribute *zero*, which is nontrivial when bit 0 encodes −1; see
//!   [`padding`] for the three strategies (including the border-counter
//!   correction for ±1 features).
//!
//! The fragment-aligned `K` above is what the simulator prices. The
//! functional CPU backend ([`cpu`]) reduces
//! over a denser one — [`ConvDesc::k_words`]: per kernel column, the `KH`
//! taps' channel bits packed contiguously, and, where a column is under a
//! word, the whole window's ([`ConvDesc::window_dense`]) — because its
//! "fragment" is a 64-bit word, and §4.2's point is to lay operands out so
//! the fragment is full. Both operands drop the same zero bits, so every
//! count is unchanged.
//!
//! A fused convolution ends in [`tail`]: the residual ([`Residual`] — a
//! projection's accumulators, or an identity branch read packed), the 2×2
//! pool and the quantizing chain — as its compiled integer steps
//! ([`crate::fusion::Steps`]) — run on each band of finished rows in one
//! pass of integer lanes whose compare masks are stored as the next layer's
//! packed words (§5.2 + the §4.1(b) ballot).

pub mod cpu;
pub mod padding;
pub mod simmap;
pub mod tail;
pub mod weights;

use apnn_bitpack::word::pad_to_bmma_k;
use apnn_bitpack::{BitTensor4, Encoding, LanePanel};
use apnn_sim::{GpuSpec, KernelReport};

use crate::apmm::{ApmmDesc, TileConfig};
use crate::autotune::autotune;
use crate::fusion::{Epilogue, Steps};
pub use tail::Residual;
pub use weights::ConvWeights;

/// Shape + precision of one convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvDesc {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub cin: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output channels.
    pub cout: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same both axes).
    pub stride: usize,
    /// Zero-padding (same both axes).
    pub pad: usize,
    /// Weight bits `p`.
    pub w_bits: u32,
    /// Activation bits `q`.
    pub x_bits: u32,
    /// Weight encoding.
    pub w_enc: Encoding,
    /// Activation encoding.
    pub x_enc: Encoding,
}

impl ConvDesc {
    /// Square-input convenience constructor with unsigned encodings.
    #[allow(clippy::too_many_arguments)]
    pub fn unsigned(
        batch: usize,
        cin: usize,
        hw: usize,
        cout: usize,
        k: usize,
        stride: usize,
        pad: usize,
        p: u32,
        q: u32,
    ) -> Self {
        ConvDesc {
            batch,
            cin,
            h: hw,
            w: hw,
            cout,
            kh: k,
            kw: k,
            stride,
            pad,
            w_bits: p,
            x_bits: q,
            w_enc: Encoding::ZeroOne,
            x_enc: Encoding::ZeroOne,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Channel vector width after 128-bit padding.
    pub fn padded_c(&self) -> usize {
        pad_to_bmma_k(self.cin)
    }

    /// Implicit-GEMM reduction width in bits (`KH·KW` fragment-aligned
    /// channel segments).
    pub fn k_bits(&self) -> usize {
        self.kh * self.kw * self.padded_c()
    }

    /// Live packed words per input pixel, `⌈cin/64⌉`: what the CPU kernel
    /// reads of a window tap. The fragment padding beyond them
    /// ([`Self::padded_c`]) is a BMMA operand constraint with no CPU
    /// counterpart — zero in both operands, so dropping it changes no count.
    pub fn live_words(&self) -> usize {
        self.cin.div_ceil(64)
    }

    /// Packed words per kernel *column*, `⌈kh·cin/64⌉`: the `kh` taps of
    /// one `kx` laid bit-contiguously — tap `ky`'s `cin` channel bits at
    /// bit `ky·cin` — and rounded up to whole words, so a 3×3×16 column is
    /// one word where word-per-tap packing needs three. `kh·cin % 64 == 0`
    /// is the case where this is the word-per-tap layout.
    pub fn col_words(&self) -> usize {
        (self.kh * self.cin).div_ceil(64)
    }

    /// Whether the CPU kernel's unit of K is the whole *window* rather than
    /// the column: when a column is under a word (`col_words() == 1`) and
    /// a window needs fewer words than it has columns
    /// (`⌈kh·kw·cin/64⌉ < kw`), the `kw` columns' `kh·cin` live bits are
    /// laid back to back with no per-column rounding (a 3×3×3 window is one
    /// word, not three; 5×5×3 two, not five). A shape rule, not an option.
    pub fn window_dense(&self) -> bool {
        self.col_words() == 1 && self.k_valid().div_ceil(64) < self.kw
    }

    /// Bits from one kernel column to the next in the CPU kernel's K order:
    /// a column's `kh·cin` live bits when [`Self::window_dense`], else its
    /// [`Self::col_words`] whole words. Tap `(ky, kx)`'s channel `c` is K
    /// bit `kx·col_pitch() + ky·cin + c`.
    pub fn col_pitch(&self) -> usize {
        if self.window_dense() {
            self.kh * self.cin
        } else {
            64 * self.col_words()
        }
    }

    /// The CPU kernel's reduction length in packed words (`kw` columns at
    /// [`Self::col_pitch`], rounded up to a word) — the one definition
    /// shared by the weight panel, the activation strip, tile selection,
    /// workspace sizing and the cost oracle.
    pub fn k_words(&self) -> usize {
        (self.kw * self.col_pitch()).div_ceil(64)
    }

    /// Valid (logical) reduction length per fully-in-frame window.
    pub fn k_valid(&self) -> usize {
        self.kh * self.kw * self.cin
    }

    /// The implicit-GEMM description this convolution maps onto. `k` is the
    /// padded bit width because the conv operands are materialized directly
    /// at fragment granularity.
    pub fn as_gemm(&self) -> ApmmDesc {
        ApmmDesc {
            m: self.cout,
            n: self.batch * self.out_h() * self.out_w(),
            k: self.k_bits(),
            w_bits: self.w_bits,
            x_bits: self.x_bits,
            w_enc: self.w_enc,
            x_enc: self.x_enc,
        }
    }

    /// Total emulated 1-bit MACs (§3.1 cost analysis, conv form).
    pub fn emulated_macs(&self) -> u64 {
        self.w_bits as u64
            * self.x_bits as u64
            * self.cout as u64
            * (self.batch * self.out_h() * self.out_w()) as u64
            * self.k_bits() as u64
    }
}

/// Output of a fused convolution.
#[derive(Debug, Clone)]
pub enum ConvOutput {
    /// Raw NHWC i32 accumulators `(batch, oh, ow, cout)`.
    Int32(Vec<i32>),
    /// Quantized activations packed channel-major for the next layer.
    Packed(BitTensor4),
}

/// Optional 2×2/stride-2 pooling fused between the accumulators and the
/// quantizing epilogue (the Fig. 10 fusion workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool2 {
    /// 2×2 max pooling.
    Max,
    /// 2×2 average pooling (integer mean, floor).
    Avg,
}

/// An APConv kernel instance.
#[derive(Debug, Clone)]
pub struct ApConv {
    /// Layer description.
    pub desc: ConvDesc,
    /// Block tiling over the batched implicit-GEMM space.
    pub tile: TileConfig,
}

impl ApConv {
    /// Create with an autotuned tile configuration.
    pub fn new(desc: ConvDesc) -> Self {
        let g = desc.as_gemm();
        let tile = autotune(g.m, g.n, g.k, g.w_bits, g.x_bits);
        ApConv { desc, tile }
    }

    /// Create with an explicit tile configuration.
    pub fn with_tile(desc: ConvDesc, tile: TileConfig) -> Self {
        ApConv { desc, tile }
    }

    /// Functional CPU convolution over packed operands. Returns NHWC i32.
    /// Borrows the weights and builds a transient weight panel and scratch;
    /// serving loops [`ApConv::prepare`] once instead.
    pub fn execute(&self, weights: &ConvWeights, input: &BitTensor4) -> Vec<i32> {
        assert_eq!(input.shape().0, self.desc.batch, "batch mismatch");
        let state = cpu::ConvExecPlan::new(&self.desc, weights.popc());
        let panel = weights.lane_panel(&self.desc);
        let (mut scratch, mut out) = (cpu::ConvScratch::default(), Vec::new());
        cpu::conv_exec_store(&self.desc, &panel, input, &state, &mut scratch, &mut out);
        out
    }

    /// Functional CPU convolution with fused pooling + epilogue.
    pub fn execute_fused(
        &self,
        weights: &ConvWeights,
        input: &BitTensor4,
        pool: Option<Pool2>,
        epi: &Epilogue,
    ) -> ConvOutput {
        assert_eq!(input.shape().0, self.desc.batch, "batch mismatch");
        let state = cpu::ConvExecPlan::new(&self.desc, weights.popc());
        let panel = weights.lane_panel(&self.desc);
        fused_owned(&self.desc, &panel, input, &state, pool, epi)
    }

    /// Hoist every per-call invariant out of the serving loop: re-lay the
    /// packed weights out as the microkernel's lane panel
    /// ([`ConvWeights::lane_panel`] — the only copy kept) and materialize
    /// the emulation plan, the input-aware padding pattern (§4.2(b)) and
    /// the weight side of the correction for every class of window
    /// ([`cpu::ConvExecPlan`]). The result
    /// executes repeatedly without re-packing or re-planning, and accepts
    /// partial batches.
    pub fn prepare(&self, weights: ConvWeights) -> PreparedConv {
        let (cout, taps, cin, _) = weights.dims();
        assert_eq!(cout, self.desc.cout, "weight cout");
        assert_eq!(taps, self.desc.kh * self.desc.kw, "weight taps");
        assert_eq!(cin, self.desc.cin, "weight cin");
        crate::stats::count_weight_prepare();
        PreparedConv {
            desc: self.desc,
            tile: self.tile,
            panel: weights.lane_panel(&self.desc),
            exec_plan: cpu::ConvExecPlan::new(&self.desc, weights.popc()),
        }
    }

    /// Simulated latency of the un-fused (i32-output) kernel.
    pub fn simulate(&self, spec: &GpuSpec) -> KernelReport {
        simmap::estimate(
            &self.desc,
            &self.tile,
            spec,
            None,
            None,
            simmap::ActLayout::Nphwc,
        )
    }

    /// Simulated latency with fused pooling/epilogue.
    pub fn simulate_fused(
        &self,
        spec: &GpuSpec,
        pool: Option<Pool2>,
        epi: &Epilogue,
    ) -> KernelReport {
        simmap::estimate(
            &self.desc,
            &self.tile,
            spec,
            pool,
            Some(epi),
            simmap::ActLayout::Nphwc,
        )
    }
}

/// An APConv kernel compiled for serving: lane-interleaved weight panel +
/// emulation plan + padding pattern + per-window-class correction offsets,
/// all materialized once at compile time.
#[derive(Debug, Clone)]
pub struct PreparedConv {
    /// Layer description (`batch` is the *compiled* batch; calls may shard).
    pub desc: ConvDesc,
    /// Block tiling chosen at compile time.
    pub tile: TileConfig,
    panel: LanePanel,
    exec_plan: cpu::ConvExecPlan,
}

impl PreparedConv {
    /// The weight operand, in the microkernel's panel layout: tap
    /// `(ky, kx)`'s channel `c` at K bit `kx·col_pitch + ky·cin + c`
    /// ([`ConvDesc::col_pitch`], [`ConvWeights::lane_panel`]).
    pub fn weights(&self) -> &LanePanel {
        &self.panel
    }

    /// The CPU microkernel tile this plan was compiled with (chosen at
    /// prepare time by [`crate::autotune::select_micro`]): `jb` consecutive
    /// output pixels of a row share each loaded weight cell.
    pub fn micro(&self) -> crate::autotune::MicroTile {
        self.exec_plan.micro()
    }

    /// Replace the microkernel tile (bench sweeps, differential tests) —
    /// every value is bit-identical.
    pub fn with_micro(mut self, micro: crate::autotune::MicroTile) -> Self {
        self.exec_plan = self.exec_plan.with_micro(micro);
        self
    }

    /// The popcount arm this plan executes with (bound at prepare time by
    /// [`apnn_bitpack::PopcntArm::detect`]).
    pub fn arm(&self) -> apnn_bitpack::PopcntArm {
        self.exec_plan.arm()
    }

    /// Force a popcount arm (tests, benches, CI force-arm legs) — every
    /// available arm is bit-identical; unavailable arms are clamped.
    pub fn with_arm(mut self, arm: apnn_bitpack::PopcntArm) -> Self {
        self.exec_plan = self.exec_plan.with_arm(arm);
        self
    }

    /// NHWC i32 accumulators for an input shard (batch ≤ compiled batch).
    /// Allocating convenience over [`PreparedConv::execute_into`].
    pub fn execute(&self, input: &BitTensor4) -> Vec<i32> {
        let mut out = Vec::new();
        self.execute_into(input, &mut cpu::ConvScratch::default(), &mut out);
        out
    }

    /// Fused pooling + epilogue execution for an input shard (allocating;
    /// the only form that serves non-quantizing epilogues).
    pub fn execute_fused(
        &self,
        input: &BitTensor4,
        pool: Option<Pool2>,
        epi: &Epilogue,
    ) -> ConvOutput {
        fused_owned(&self.desc, &self.panel, input, &self.exec_plan, pool, epi)
    }

    /// Workspace form of [`PreparedConv::execute`]: NHWC i32 accumulators
    /// land in `out`, the activation strip reuses `scratch`, and — once
    /// the buffers have reached the plan's capacity — the call performs
    /// **zero heap allocations**.
    pub fn execute_into(
        &self,
        input: &BitTensor4,
        scratch: &mut cpu::ConvScratch,
        out: &mut Vec<i32>,
    ) {
        cpu::conv_exec_store(
            &self.desc,
            &self.panel,
            input,
            &self.exec_plan,
            scratch,
            out,
        );
    }

    /// Workspace form of [`PreparedConv::execute_fused`] for quantizing
    /// chains, compiled into their step table `steps`: `residual` is added
    /// into the raw i32 accumulators, then each band of rows is pooled,
    /// looked up in `steps` and packed as soon as it is finished
    /// ([`tail`](mod@tail)), and the channel-major activations are rebuilt
    /// in place in `out`. Exactness is integer end-to-end: no rounding
    /// happens between the main-path and skip-path contributions.
    pub fn execute_fused_into(
        &self,
        input: &BitTensor4,
        residual: Residual<'_>,
        pool: Option<Pool2>,
        steps: &Steps,
        scratch: &mut cpu::ConvScratch,
        out: &mut BitTensor4,
    ) {
        tail::conv_exec_fused(
            &self.desc,
            &self.panel,
            input,
            &self.exec_plan,
            residual,
            pool,
            steps,
            scratch,
            out,
        );
    }
}

/// The allocating fused tail behind both `execute_fused` spellings: a
/// quantizing epilogue packs through the fused sink, its [`Steps`] compiled
/// for the call (panics if the chain is not provably monotone and so has
/// none); a non-quantizing one returns the (pooled, epilogue-transformed)
/// i32 accumulators — the one output form the workspace entry points never
/// produce.
fn fused_owned(
    desc: &ConvDesc,
    w: &LanePanel,
    input: &BitTensor4,
    state: &cpu::ConvExecPlan,
    pool: Option<Pool2>,
    epi: &Epilogue,
) -> ConvOutput {
    let mut scratch = cpu::ConvScratch::default();
    if let Some(bits) = epi.output_bits() {
        let mut t = BitTensor4::zeros(0, 1, 1, desc.cout, bits, Encoding::ZeroOne);
        let steps =
            Steps::build(epi, desc.cout).expect("the quantizing chain is not provably monotone");
        let none = Residual::None;
        tail::conv_exec_fused(
            desc,
            w,
            input,
            state,
            none,
            pool,
            &steps,
            &mut scratch,
            &mut t,
        );
        return ConvOutput::Packed(t);
    }
    let mut v = Vec::new();
    cpu::conv_exec_store(desc, w, input, state, &mut scratch, &mut v);
    if let Some(kind) = pool {
        let (n, oh, ow) = (input.shape().0, desc.out_h(), desc.out_w());
        v = cpu::pool2_i32(&v, n, oh, ow, desc.cout, kind);
    }
    // `Epilogue::apply` goes through f32; an empty chain must stay exact.
    if !epi.ops().is_empty() {
        for (idx, e) in v.iter_mut().enumerate() {
            *e = epi.apply(*e, idx % desc.cout) as i32;
        }
    }
    ConvOutput::Int32(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dims() {
        let d = ConvDesc::unsigned(1, 128, 16, 256, 3, 1, 1, 1, 2);
        assert_eq!(d.out_h(), 16);
        assert_eq!(d.out_w(), 16);
        assert_eq!(d.padded_c(), 128);
        assert_eq!(d.k_bits(), 9 * 128);
        assert_eq!(d.k_valid(), 9 * 128);
        // Whole-word channels: column packing is the word-per-tap layout.
        assert_eq!((d.col_words(), d.k_words()), (3 * 2, 9 * 2));
    }

    #[test]
    fn ragged_channels_pad_per_tap() {
        let d = ConvDesc::unsigned(1, 3, 224, 64, 11, 4, 2, 1, 8);
        assert_eq!(d.padded_c(), 128);
        assert_eq!(d.k_bits(), 121 * 128);
        assert_eq!(d.k_valid(), 121 * 3);
        assert_eq!(d.out_h(), 55); // AlexNet conv1

        // The CPU reduction packs a kernel column's 11 taps × 3 channels
        // into one word's 33 bits, and — the columns being under a word —
        // the whole window's 363 bits into 6 words: not 121, not 11.
        assert_eq!((d.live_words(), d.col_words(), d.col_pitch()), (1, 1, 33));
        assert_eq!(d.k_words(), 6);
        // The zoo's K drops: 3×3×16 9→3 (whole columns: 144 bits need
        // three words either way), 3×3×32 9→6, 5×5×24 25→10 (two-word
        // columns), and under a word the windows: 3×3×3 9→1, 5×5×3 25→2,
        // 4×4×3 16→1.
        for (cin, k, words, dense) in [
            (16, 3, 3, false),
            (32, 3, 6, false),
            (24, 5, 10, false),
            (3, 3, 1, true),
            (3, 5, 2, true),
            (3, 4, 1, true),
        ] {
            let d = ConvDesc::unsigned(1, cin, 8, 8, k, 1, 0, 1, 1);
            assert_eq!((d.k_words(), d.window_dense()), (words, dense), "{d:?}");
        }
        // One-wide kernels and whole-word channels keep their columns.
        assert!(!ConvDesc::unsigned(1, 3, 8, 8, 1, 1, 0, 1, 1).window_dense());
        assert!(!ConvDesc::unsigned(1, 64, 8, 8, 3, 1, 1, 1, 1).window_dense());
    }

    #[test]
    fn prepared_conv_matches_adhoc_and_serves_partial_batches() {
        use apnn_bitpack::{Layout, Tensor4};
        let desc = ConvDesc::unsigned(4, 5, 6, 3, 3, 1, 1, 1, 2);
        let mut seed = 3u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let codes = Tensor4::<u32>::from_fn(4, 5, 6, 6, Layout::Nhwc, |_, _, _, _| next() % 4);
        let input = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
        let wcodes: Vec<u32> = (0..3 * 9 * 5).map(|_| next() % 2).collect();
        let weights = ConvWeights::from_codes(&desc, &wcodes);

        let conv = ApConv::new(desc);
        let adhoc = conv.execute(&weights, &input);
        let prepared = conv.prepare(weights);
        assert_eq!(prepared.execute(&input), adhoc);

        // First image alone — the plan serves a partial shard unchanged.
        let one = input.batch_slice(0, 1);
        let got = prepared.execute(&one);
        let per_image = desc.out_h() * desc.out_w() * desc.cout;
        assert_eq!(got, adhoc[..per_image].to_vec());
    }

    #[test]
    fn gemm_mapping() {
        let d = ConvDesc::unsigned(8, 128, 16, 256, 3, 1, 1, 2, 2);
        let g = d.as_gemm();
        assert_eq!(g.m, 256);
        assert_eq!(g.n, 8 * 16 * 16);
        assert_eq!(g.k, 9 * 128);
        assert_eq!(g.w_bits, 2);
    }
}
