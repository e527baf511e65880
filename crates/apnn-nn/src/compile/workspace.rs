//! Workspace sizing: the plan-sized arena [`ExecWorkspace`] the runner
//! threads through every call, and [`WorkspaceSpec`], the report of what it
//! holds — both derived from one walk over the compiled descriptors
//! (`stage_layouts`).

use apnn_bitpack::word::pad_to_bmma_k;
use apnn_bitpack::{BitPlanes, BitTensor4, Encoding};
use apnn_kernels::apconv::cpu::{window_words, ConvScratch};
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
    /// entry per main stage (packed activation slot, flatten slot,
    /// accumulator footprint) plus the shared kernel scratch. This is the
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
///   [`BitPlanes`] vector), plus a flatten slot where a linear stage
///   consumes a map;
/// * the kernel scratch ([`ConvScratch`] — one output row's activation
///   strip and accumulator rows — / [`ApmmScratch`] correction table),
///   sized at the per-stage peaks;
/// * the shared dense-code scratch and the raw logits buffer.
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
    pub(super) slots: Vec<StageSlot>,
    pub(super) conv: ConvScratch,
    pub(super) apmm: ApmmScratch,
    /// Dense-code scratch shared by flattening and quantize-packing.
    pub(super) codes: Vec<u32>,
    /// Raw output-stage accumulators (features × batch).
    pub(super) y: Vec<i32>,
    /// Shared residual buffer: skip-projection stages park raw i32
    /// accumulators here for the consuming conv to add before its fused
    /// tail (identity skips need none: the tail reads the packed branch
    /// slot). One buffer suffices — every block's residual is consumed
    /// before the next block's skip runs.
    pub(super) res: Vec<i32>,
}

#[derive(Debug, Clone)]
pub(super) struct StageSlot {
    /// Flattened map input (linear stages that may consume a map).
    pub(super) flat: Option<BitPlanes>,
    /// The stage's packed output.
    pub(super) out: SlotOut,
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
        let mut slots = Vec::with_capacity(layouts.len());
        for l in &layouts {
            slots.push(StageSlot {
                flat: l.flat.map(|(rows, cols, bits)| {
                    BitPlanes::zeros(rows, cols, bits, Encoding::ZeroOne)
                }),
                out: match l.out {
                    Some(SlotShape::Map { n, h, w, c, bits }) => {
                        SlotOut::Map(BitTensor4::zeros(n, h, w, c, bits, Encoding::ZeroOne))
                    }
                    Some(SlotShape::Vector { rows, cols, bits }) => {
                        SlotOut::Vector(BitPlanes::zeros(rows, cols, bits, Encoding::ZeroOne))
                    }
                    None => SlotOut::None,
                },
            });
        }
        let mut conv = ConvScratch::default();
        conv.reserve(
            peaks.strip,
            peaks.windows,
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
        }
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
    /// Shared scratch (activation strip, correction tables, accumulators,
    /// dense codes, raw logits), sized at the per-stage peaks.
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
    /// Flatten-slot bytes (linear stages that may consume a map).
    pub flat_bytes: usize,
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
                    n * bits as usize * h * w * (pad_to_bmma_k(c) / 64) * 8
                }
                Some(SlotShape::Vector { rows, cols, bits }) => {
                    bits as usize * rows * (pad_to_bmma_k(cols) / 64) * 8
                }
                None => 0,
            };
            let flat_bytes = l
                .flat
                .map(|(rows, cols, bits)| bits as usize * rows * (pad_to_bmma_k(cols) / 64) * 8)
                .unwrap_or(0);
            stages.push(StageWorkspace {
                name: l.name.clone(),
                out_bytes,
                flat_bytes,
                acc_bytes: (l.acc_elems + l.y_elems + l.res_elems) * 4,
            });
        }
        let scratch_bytes = peaks.bytes();
        let total_bytes = scratch_bytes
            + stages
                .iter()
                .map(|s| s.out_bytes + s.flat_bytes)
                .sum::<usize>();
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
    /// Window words of a window-dense conv (one output row, all planes).
    windows: usize,
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
    /// Dense-code scratch elements (`u32`).
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
            p.windows = p.windows.max(l.conv_window_words);
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
        (self.strip + self.windows) * 8
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
    flat: Option<(usize, usize, u32)>,
    acc_elems: usize,
    y_elems: usize,
    res_elems: usize,
    conv_strip_words: usize,
    conv_window_words: usize,
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
    let mut prev_is_conv = false;
    plan.main_stages()
        .enumerate()
        .map(|(i, m)| {
            let last = i + 1 == n_mains;
            let layout = match &m.kernel {
                MainKernel::Conv { desc, .. } => {
                    assert!(!last, "plan did not end in an i32 linear output stage");
                    let (oh, ow) = (desc.out_h(), desc.out_w());
                    let map_elems = desc.batch * oh * ow * desc.cout;
                    // The kernel scratch is row-sized: one output row's
                    // strip (and windows) and accumulators, whatever the
                    // batch.
                    let (q, cols) = (desc.x_bits as usize, desc.w + 2 * desc.pad);
                    let conv_strip_words = q * cols * desc.col_words();
                    let conv_window_words = window_words(desc);
                    let (conv_strip_cols, conv_x_sides) = (cols, ow);
                    let row_elems = ow * desc.cout;
                    if m.input == StageSrc::Branch {
                        // Skip projection: raw accumulators land straight in
                        // the shared residual buffer — no packed output
                        // slot, no epilogue, no pool.
                        StageLayout {
                            name: m.name.clone(),
                            out: None,
                            flat: None,
                            acc_elems: row_elems,
                            y_elems: 0,
                            res_elems: map_elems,
                            conv_strip_words,
                            conv_window_words,
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
                            flat: None,
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
                            conv_window_words,
                            conv_strip_cols,
                            conv_x_sides,
                            apmm_col_sums: 0,
                            codes_elems: 0,
                            is_conv: true,
                        }
                    }
                }
                MainKernel::Linear { desc, .. } => {
                    // A flatten slot is needed whenever this stage may see a
                    // map: always for the first stage (the caller decides at
                    // call time), and after any conv stage.
                    let flat_needed = i == 0 || prev_is_conv;
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
                    let flat_codes = if flat_needed { desc.n * desc.k } else { 0 };
                    let pack_codes = if last { 0 } else { desc.n * desc.m };
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
                        flat: if flat_needed {
                            Some((desc.n, desc.k, desc.x_bits))
                        } else {
                            None
                        },
                        acc_elems,
                        y_elems: if last { desc.m * desc.n } else { 0 },
                        res_elems: 0,
                        conv_strip_words: 0,
                        conv_window_words: 0,
                        conv_strip_cols: 0,
                        conv_x_sides: 0,
                        apmm_col_sums: desc.n,
                        codes_elems: flat_codes.max(pack_codes),
                        is_conv: false,
                    }
                }
                MainKernel::Baseline => {
                    unreachable!("is_executable rejected baseline stages")
                }
            };
            prev_is_conv = matches!(m.kernel, MainKernel::Conv { .. });
            layout
        })
        .collect()
}
