//! Workspace sizing: the plan-sized arena [`ExecWorkspace`] the runner
//! threads through every call, and [`WorkspaceSpec`], the report of what it
//! holds — both derived from one walk over the compiled descriptors
//! (`stage_layouts`).

use apnn_bitpack::word::pad_to_bmma_k;
use apnn_bitpack::{BitPlanes, BitTensor4, Encoding};
use apnn_kernels::apconv::cpu::ConvScratch;
use apnn_kernels::apconv::dense;
use apnn_kernels::apmm::cpu::ApmmScratch;
use apnn_kernels::stats as kstats;

use super::plan::{CompiledNet, MainKernel};
use crate::fuse::{ResidualSrc, StageSrc};
use crate::pool::WorkspacePool;

impl CompiledNet {
    /// Build an execution workspace sized exactly for this plan (see
    /// [`CompiledNet::workspace_spec`]): keep one per serving thread and
    /// thread it through [`CompiledNet::infer_into`] for allocation-free
    /// steady-state inference. Requires an executable plan.
    pub fn workspace(&self) -> ExecWorkspace {
        ExecWorkspace::for_plan(self)
    }

    /// How much memory the functional engine needs to run this plan: one
    /// entry per main stage (packed activation slot, accumulator footprint)
    /// plus the shared kernel scratch. This is the
    /// sizing contract of [`CompiledNet::workspace`]: the workspace
    /// pre-allocates every buffer at these full-batch peaks, so inference
    /// — including *partial* shards, which only shrink shapes — performs
    /// zero heap allocations from the first call onward.
    pub fn workspace_spec(&self) -> WorkspaceSpec {
        WorkspaceSpec::for_plan(self)
    }

    /// A [`WorkspacePool`] for this plan holding at most `max` workspaces
    /// (created lazily; see the pool docs for the checkout protocol).
    pub fn workspace_pool(&self, max: usize) -> WorkspacePool {
        WorkspacePool::new(self, max)
    }
}

/// The plan-sized execution arena of the functional engine — the
/// reproduction's form of the paper's batch-based double caching: every
/// buffer the hot loop touches is allocated **once**, sized by the plan at
/// workspace-construction time, and rebuilt in place on every call.
///
/// Contents:
/// * one packed activation slot per main stage (the stage's output — conv
///   stages write a [`BitTensor4`] map, hidden linear stages a
///   [`BitPlanes`] vector; a linear head reads its map in place);
/// * the kernel scratch ([`ConvScratch`] — one output row's activation
///   strip and accumulator rows, and a dense stem's unpacked image — /
///   [`ApmmScratch`] correction table), sized at the per-stage peaks;
/// * the hidden linear stages' transposed-code scratch and the raw logits
///   buffer;
/// * one cumulative wall-clock timer per main stage
///   ([`ExecWorkspace::stage_ns`]).
///
/// Keep one workspace per serving thread and pass it to
/// [`CompiledNet::infer_into`]; partial shards only ever *shrink* shapes,
/// so any interleaving of shard sizes stays allocation-free. A workspace
/// is bound to the plan (model, scheme, batch) it was built for — using it
/// with a different plan panics.
#[derive(Debug, Clone)]
pub struct ExecWorkspace {
    model: String,
    scheme: String,
    batch: usize,
    /// One packed output slot per main stage.
    pub(super) slots: Vec<SlotOut>,
    pub(super) conv: ConvScratch,
    pub(super) apmm: ApmmScratch,
    /// Transposed-code scratch of the hidden linear stages' packing.
    pub(super) codes: Vec<u32>,
    /// Raw output-stage accumulators (features × batch).
    pub(super) y: Vec<i32>,
    /// Shared residual buffer: skip-projection stages park raw i32
    /// accumulators here for the consuming conv to add before its fused
    /// tail (identity skips need none: the tail reads the packed branch
    /// slot). One buffer suffices — every block's residual is consumed
    /// before the next block's skip runs.
    pub(super) res: Vec<i32>,
    /// Cumulative wall-clock ns per main stage, in `main_stages()` order.
    pub(super) stage_ns: Vec<u64>,
}

#[derive(Debug, Clone)]
pub(super) enum SlotOut {
    Map(BitTensor4),
    Vector(BitPlanes),
    /// The output stage writes raw logits, not a packed slot.
    None,
}

impl ExecWorkspace {
    /// Build a workspace for `plan`, pre-allocating every buffer at the
    /// full-batch peaks reported by [`CompiledNet::workspace_spec`].
    fn for_plan(plan: &CompiledNet) -> ExecWorkspace {
        let layouts = stage_layouts(plan);
        let peaks = ScratchPeaks::of(&layouts);
        let slots = layouts
            .iter()
            .map(|l| match l.out {
                Some(SlotShape::Map { n, h, w, c, bits }) => {
                    SlotOut::Map(BitTensor4::zeros(n, h, w, c, bits, Encoding::ZeroOne))
                }
                Some(SlotShape::Vector { rows, cols, bits }) => {
                    SlotOut::Vector(BitPlanes::zeros(rows, cols, bits, Encoding::ZeroOne))
                }
                None => SlotOut::None,
            })
            .collect();
        let mut conv = ConvScratch::default();
        conv.reserve(
            peaks.strip,
            peaks.image,
            peaks.strip_cols,
            peaks.x_sides,
            peaks.conv_acc,
        );
        let mut apmm = ApmmScratch::default();
        apmm.reserve(peaks.col_sums, peaks.apmm_acc);
        kstats::record_workspace_create();
        ExecWorkspace {
            model: plan.model.clone(),
            scheme: plan.scheme.clone(),
            batch: plan.batch,
            slots,
            conv,
            apmm,
            codes: Vec::with_capacity(peaks.codes),
            y: Vec::with_capacity(peaks.y),
            res: Vec::with_capacity(peaks.res),
            stage_ns: vec![0; layouts.len()],
        }
    }

    /// Cumulative wall-clock nanoseconds each main stage has spent in this
    /// workspace's calls, in [`CompiledNet::main_stages`] order (a skip
    /// projection is a stage of its own). The runner reads the clock once
    /// before the stage loop and once after every stage, on every call.
    pub fn stage_ns(&self) -> &[u64] {
        &self.stage_ns
    }

    /// Panic unless this workspace was built for `plan`.
    pub(super) fn check(&self, plan: &CompiledNet) {
        assert!(
            self.model == plan.model
                && self.scheme == plan.scheme
                && self.batch == plan.batch
                && self.slots.len() == plan.main_stages().count(),
            "workspace was built for `{}@{}` (batch {}); got `{}@{}` (batch {})",
            self.model,
            self.scheme,
            self.batch,
            plan.model,
            plan.scheme,
            plan.batch,
        );
    }
}

/// Memory footprint of a plan's [`ExecWorkspace`] — the sizing contract of
/// [`CompiledNet::workspace`]: each stage's slot buffers are owned
/// per-stage; the kernel scratch is shared and sized at the per-stage
/// peaks.
#[derive(Debug, Clone)]
pub struct WorkspaceSpec {
    /// Per-main-stage buffer demands, in execution order.
    pub stages: Vec<StageWorkspace>,
    /// Shared scratch (activation strip, dense-stem image, correction
    /// tables, accumulators, transposed codes, raw logits), sized at the
    /// per-stage peaks.
    pub scratch_bytes: usize,
    /// Total workspace footprint: per-stage slots + shared scratch.
    pub total_bytes: usize,
}

/// One main stage's contribution to the workspace (see [`WorkspaceSpec`]).
#[derive(Debug, Clone)]
pub struct StageWorkspace {
    /// Stage (layer) name.
    pub name: String,
    /// Packed output slot bytes (0 for the output stage).
    pub out_bytes: usize,
    /// Peak i32 accumulator bytes this stage demands of the shared scratch
    /// (the accumulator rows in flight for conv — one, or two under a
    /// fused pool — plus a skip projection's residual buffer; the raw
    /// product for linear).
    pub acc_bytes: usize,
}

impl WorkspaceSpec {
    fn for_plan(plan: &CompiledNet) -> WorkspaceSpec {
        let layouts = stage_layouts(plan);
        let peaks = ScratchPeaks::of(&layouts);
        let mut stages = Vec::with_capacity(layouts.len());
        for l in &layouts {
            let out_bytes = match l.out {
                Some(SlotShape::Map { n, h, w, c, bits }) => {
                    BitTensor4::len_words(n, h, w, c, bits) * 8
                }
                Some(SlotShape::Vector { rows, cols, bits }) => {
                    bits as usize * rows * (pad_to_bmma_k(cols) / 64) * 8
                }
                None => 0,
            };
            stages.push(StageWorkspace {
                name: l.name.clone(),
                out_bytes,
                acc_bytes: (l.acc_elems + l.y_elems + l.res_elems) * 4,
            });
        }
        let scratch_bytes = peaks.bytes();
        let total_bytes = scratch_bytes + stages.iter().map(|s| s.out_bytes).sum::<usize>();
        WorkspaceSpec {
            stages,
            scratch_bytes,
            total_bytes,
        }
    }
}

/// Peak shared-scratch demands over a plan's stages — computed once and
/// consumed by **both** [`ExecWorkspace::for_plan`] (what gets allocated)
/// and [`WorkspaceSpec::for_plan`] (what gets reported), so the two can
/// never disagree about a buffer.
#[derive(Debug, Clone, Copy, Default)]
struct ScratchPeaks {
    /// Conv activation-strip words (one output row, all planes).
    strip: usize,
    /// A window-dense conv's zero-padded i16 image (one input image).
    image: usize,
    /// Conv strip-column correction offsets (`i32` each, one plane's).
    strip_cols: usize,
    /// Conv activation-side correction offsets (`i32` each: one per
    /// output pixel of a row).
    x_sides: usize,
    /// Conv accumulator-row elements (`i32`): one output row, two under a
    /// fused pool.
    conv_acc: usize,
    /// APMM activation column-sum elements (`i32`).
    col_sums: usize,
    /// APMM accumulator elements (`i32`).
    apmm_acc: usize,
    /// Transposed-code scratch elements (`u32`).
    codes: usize,
    /// Raw logits elements (`i32`).
    y: usize,
    /// Residual buffer elements (`i32`) — skip-projection accumulators.
    res: usize,
}

impl ScratchPeaks {
    fn of(layouts: &[StageLayout]) -> ScratchPeaks {
        let mut p = ScratchPeaks::default();
        for l in layouts {
            p.strip = p.strip.max(l.conv_strip_words);
            p.image = p.image.max(l.conv_image);
            p.strip_cols = p.strip_cols.max(l.conv_strip_cols);
            p.x_sides = p.x_sides.max(l.conv_x_sides);
            p.conv_acc = p.conv_acc.max(if l.is_conv { l.acc_elems } else { 0 });
            p.col_sums = p.col_sums.max(l.apmm_col_sums);
            p.apmm_acc = p.apmm_acc.max(if l.is_conv { 0 } else { l.acc_elems });
            p.codes = p.codes.max(l.codes_elems);
            p.y = p.y.max(l.y_elems);
            p.res = p.res.max(l.res_elems);
        }
        p
    }

    /// Total bytes of every shared buffer listed above.
    fn bytes(&self) -> usize {
        self.strip * 8
            + self.image * 2
            + (self.strip_cols
                + self.x_sides
                + self.conv_acc
                + self.col_sums
                + self.apmm_acc
                + self.y
                + self.res)
                * 4
            + self.codes * 4
    }
}

/// Packed shape of a stage's output slot.
#[derive(Debug, Clone, Copy)]
enum SlotShape {
    Map {
        n: usize,
        h: usize,
        w: usize,
        c: usize,
        bits: u32,
    },
    Vector {
        rows: usize,
        cols: usize,
        bits: u32,
    },
}

/// Per-stage buffer demands derived from the compiled descriptors — the
/// single walk shared by [`ExecWorkspace`] and [`WorkspaceSpec`] so the
/// two can never disagree.
struct StageLayout {
    name: String,
    out: Option<SlotShape>,
    acc_elems: usize,
    y_elems: usize,
    res_elems: usize,
    conv_strip_words: usize,
    conv_image: usize,
    conv_strip_cols: usize,
    conv_x_sides: usize,
    apmm_col_sums: usize,
    codes_elems: usize,
    is_conv: bool,
}

fn stage_layouts(plan: &CompiledNet) -> Vec<StageLayout> {
    assert!(plan.main_stages().next().is_some(), "empty network");
    if let Err(e) = plan.executable_error() {
        panic!(
            "cannot size a workspace for `{}@{}`: the plan is not executable ({e})",
            plan.model, plan.scheme,
        );
    }
    let n_mains = plan.main_stages().count();
    plan.main_stages()
        .enumerate()
        .map(|(i, m)| {
            let last = i + 1 == n_mains;
            match &m.kernel {
                MainKernel::Conv { desc, .. } => {
                    assert!(!last, "plan did not end in an i32 linear output stage");
                    let (oh, ow) = (desc.out_h(), desc.out_w());
                    let map_elems = desc.batch * oh * ow * desc.cout;
                    // The kernel scratch is row-sized, whatever the batch:
                    // one output row's accumulators, and its strip — or, a
                    // window-dense stem, which builds none, one image's
                    // unpacked codes.
                    let conv_image = dense::image_len(desc);
                    let (q, cols) = (desc.x_bits as usize, desc.w + 2 * desc.pad);
                    let (conv_strip_words, conv_strip_cols, conv_x_sides) = if conv_image > 0 {
                        (0, 0, 0)
                    } else {
                        (q * cols * desc.col_words(), cols, ow)
                    };
                    let row_elems = ow * desc.cout;
                    if m.input == StageSrc::Branch {
                        // Skip projection: raw accumulators land straight in
                        // the shared residual buffer — no packed output
                        // slot, no epilogue, no pool.
                        StageLayout {
                            name: m.name.clone(),
                            out: None,
                            acc_elems: row_elems,
                            y_elems: 0,
                            res_elems: map_elems,
                            conv_strip_words,
                            conv_image,
                            conv_strip_cols,
                            conv_x_sides,
                            apmm_col_sums: 0,
                            codes_elems: 0,
                            is_conv: true,
                        }
                    } else {
                        let bits = m.epi.output_bits().unwrap_or_else(|| {
                            panic!(
                                "conv stage {i} must quantize (only the last linear may emit i32)"
                            )
                        });
                        let (ph, pw) = if m.pool.is_some() {
                            (oh / 2, ow / 2)
                        } else {
                            (oh, ow)
                        };
                        StageLayout {
                            name: m.name.clone(),
                            out: Some(SlotShape::Map {
                                n: desc.batch,
                                h: ph,
                                w: pw,
                                c: desc.cout,
                                bits,
                            }),
                            acc_elems: if m.pool.is_some() {
                                2 * row_elems
                            } else {
                                row_elems
                            },
                            y_elems: 0,
                            // A projection's consumer reads the skip
                            // stage's parked whole-map accumulators; an
                            // identity join reads the packed branch slot.
                            res_elems: match m.residual {
                                Some(ResidualSrc::Projection) => map_elems,
                                Some(ResidualSrc::Identity) | None => 0,
                            },
                            conv_strip_words,
                            conv_image,
                            conv_strip_cols,
                            conv_x_sides,
                            apmm_col_sums: 0,
                            codes_elems: 0,
                            is_conv: true,
                        }
                    }
                }
                MainKernel::Linear { desc, .. } => {
                    let out_bits = if last {
                        assert!(
                            m.epi.output_bits().is_none(),
                            "output stage must not quantize (§5.1)"
                        );
                        None
                    } else {
                        Some(
                            m.epi
                                .output_bits()
                                .unwrap_or_else(|| panic!("hidden linear stage {i} must quantize")),
                        )
                    };
                    // The output stage writes its raw product straight
                    // into the shared logits buffer (`y_elems`); only
                    // hidden linear stages route through the apmm
                    // accumulator scratch.
                    let acc_elems = if last { 0 } else { desc.m * desc.n };
                    StageLayout {
                        name: m.name.clone(),
                        out: out_bits.map(|bits| SlotShape::Vector {
                            rows: desc.n,
                            cols: desc.m,
                            bits,
                        }),
                        acc_elems,
                        y_elems: if last { desc.m * desc.n } else { 0 },
                        res_elems: 0,
                        conv_strip_words: 0,
                        conv_image: 0,
                        conv_strip_cols: 0,
                        conv_x_sides: 0,
                        apmm_col_sums: desc.n,
                        codes_elems: if last { 0 } else { desc.n * desc.m },
                        is_conv: false,
                    }
                }
                MainKernel::Baseline => {
                    unreachable!("is_executable rejected baseline stages")
                }
            }
        })
        .collect()
}
