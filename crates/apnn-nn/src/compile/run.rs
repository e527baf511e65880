//! Running a plan: functional inference over bit-packed activations (the
//! §5.1 minimal-traffic dataflow) — every hidden stage hands its kernel the
//! stage's compiled tail ([`super::plan::MainStage::tail`]) and gets packed
//! words back; codes never exist as a buffer between two conv stages, and an
//! identity residual is read from the packed branch slot. One sequential core
//! (`cpu_execute_stages`) on the calling thread, all mutable state in an
//! [`ExecWorkspace`]; [`CompiledNet::infer_batched_into`] is the only place
//! that fans out, one workspace per participant.

use apnn_bitpack::BitTensor4;
use apnn_kernels::apconv::Residual;
pub use apnn_kernels::apmm::ActInput;
use rayon::prelude::*;
use std::time::Instant;

use super::plan::{CompiledNet, MainKernel};
use super::workspace::{ExecWorkspace, SlotOut};
use crate::fuse::{ResidualSrc, StageSrc};
use crate::pool::WorkspacePool;

impl CompiledNet {
    /// Functional inference on a packed feature map (or, for all-linear
    /// plans, packed feature vectors: rows = batch, cols = features).
    /// Returns logits as `batch × classes`, row-major.
    ///
    /// Allocating convenience over [`CompiledNet::infer_into`] with a
    /// transient [`ExecWorkspace`]; hot loops hold a workspace and call
    /// that form instead.
    pub fn infer<'a>(&self, input: impl Into<ActInput<'a>>) -> Vec<i32> {
        let mut out = Vec::new();
        self.infer_into(input, &mut self.workspace(), &mut out);
        out
    }

    /// Allocation-free steady-state inference: activations flow through
    /// `ws`'s plan-sized slots and logits land in `out` (resized in
    /// place). Once `ws` and `out` have reached capacity — `ws` is born at
    /// capacity, `out` after the first call — the call performs **zero
    /// heap allocations**, for full and partial shards alike.
    pub fn infer_into<'a>(
        &self,
        input: impl Into<ActInput<'a>>,
        ws: &mut ExecWorkspace,
        out: &mut Vec<i32>,
    ) {
        let input = input.into();
        apnn_bitpack::resize_for_overwrite(out, input.rows() * self.classes());
        cpu_execute_to_slice(self, input, ws, out);
    }

    /// Serve a large request batch by sharding it over the Rayon pool with
    /// a transient [`WorkspacePool`]. Thin wrapper over
    /// [`CompiledNet::infer_batched_into`]; hot loops should hold a
    /// long-lived pool and call that form instead.
    pub fn infer_batched(&self, input: &BitTensor4) -> Vec<i32> {
        let pool = self.workspace_pool(rayon::current_num_threads().max(1));
        let mut out = Vec::new();
        self.infer_batched_into(input, &pool, 0, &mut out);
        out
    }

    /// Parallel allocation-free batched inference — the tentpole
    /// composition of the workspace arenas and the Rayon pool:
    ///
    /// * the coalesced `input` (any number of images) is cut into
    ///   contiguous shards of width `⌈n/threads⌉`, clamped to the compiled
    ///   batch (`threads == 0` uses [`rayon::current_num_threads`]);
    /// * consecutive shards are grouped into at most `threads` spans of
    ///   `⌈shards / min(threads, shards)⌉` shards each, and the spans fan
    ///   out over the Rayon pool — so at most `threads` participants run,
    ///   and `threads == 1` runs inline on the calling thread without
    ///   touching the pool;
    /// * each participant checks one plan-sized workspace out of `pool`
    ///   and runs its shards in order through the **same sequential
    ///   [`CompiledNet::infer_into`] core**: a shard that is the whole
    ///   input is borrowed, any other is staged with one word-level memcpy
    ///   ([`BitTensor4::fill_from_batch_range`]). Every request's logits
    ///   are bit-identical to one-image `infer` — the per-element
    ///   accumulation order never depends on the partition;
    /// * logits land directly in each shard's disjoint chunk of `out`
    ///   (resized in place, `n × classes` row-major).
    ///
    /// Once `pool` has warmed to its population and `out`/staging buffers
    /// to their peaks, the call performs **zero heap allocations** — for
    /// any interleaving of request counts, shard widths and thread counts
    /// (`tests/zero_alloc.rs` proves it under a counting global
    /// allocator).
    pub fn infer_batched_into(
        &self,
        input: &BitTensor4,
        pool: &WorkspacePool,
        threads: usize,
        out: &mut Vec<i32>,
    ) {
        let n = input.shape().0;
        let classes = self.classes();
        apnn_bitpack::resize_for_overwrite(out, n * classes);
        if n == 0 {
            return;
        }
        let threads = if threads == 0 {
            rayon::current_num_threads()
        } else {
            threads
        }
        .max(1);
        let peak = self.batch.max(1);
        let width = peak.min(n.div_ceil(threads)).max(1);
        let shards = n.div_ceil(width);
        let span = shards.div_ceil(threads.min(shards));
        out.par_chunks_mut(span * width * classes)
            .enumerate()
            .for_each(|(si, span_out)| {
                let mut slot = pool.checkout(self);
                let (ws, staged) = slot.parts_mut();
                for (k, shard_out) in span_out.chunks_mut(width * classes).enumerate() {
                    let len = shard_out.len() / classes;
                    let shard = if len == n {
                        input
                    } else {
                        stage_shard(staged, input, (si * span + k) * width, len, peak);
                        &*staged
                    };
                    cpu_execute_to_slice(self, ActInput::Map(shard), ws, shard_out);
                }
            });
    }
}

/// Stage one contiguous shard into a pooled staging tensor: reserve the
/// backing store at the plan's full coalescing width once (so a remainder
/// shard arriving first cannot force a later reallocation), then copy the
/// shard in — one word-level memcpy, nothing zero-filled.
fn stage_shard(staged: &mut BitTensor4, input: &BitTensor4, start: usize, len: usize, peak: usize) {
    let (_, h, w, c) = input.shape();
    staged.reserve_images(peak.max(len), h, w, c, input.bits());
    staged.fill_from_batch_range(input, start, len);
}

/// The functional engine core: run `plan` over `input`, all mutable state
/// in `ws`, logits into the pre-sized `out` (`batch × classes`, row-major;
/// every element is overwritten). This is the zero-allocation steady-state
/// path behind [`CompiledNet::infer_into`], and the shard form of the
/// batched path, where each shard's logits land directly in its disjoint
/// chunk of the caller's output buffer (no copy, no per-shard result
/// vector).
fn cpu_execute_to_slice(
    plan: &CompiledNet,
    input: ActInput<'_>,
    ws: &mut ExecWorkspace,
    out: &mut [i32],
) {
    let (shard_n, classes) = cpu_execute_stages(plan, input, ws);
    assert_eq!(out.len(), shard_n * classes, "output slice mis-sized");
    scatter_logits(ws, shard_n, classes, out);
}

/// features×batch → batch×classes transpose out of the workspace's raw
/// logits buffer.
fn scatter_logits(ws: &ExecWorkspace, shard_n: usize, classes: usize, out: &mut [i32]) {
    for f in 0..classes {
        for b in 0..shard_n {
            out[b * classes + f] = ws.y[f * shard_n + b];
        }
    }
}

/// Run every stage of `plan`, leaving raw output-stage accumulators
/// (features × batch) in `ws.y` and adding each stage's wall time to
/// `ws.stage_ns`; returns `(shard batch, classes)`.
fn cpu_execute_stages(
    plan: &CompiledNet,
    input: ActInput<'_>,
    ws: &mut ExecWorkspace,
) -> (usize, usize) {
    ws.check(plan);
    if let Err(e) = plan.executable_error() {
        panic!(
            "plan `{}@{}` cannot execute functionally: {e}",
            plan.model, plan.scheme
        );
    }
    let ExecWorkspace {
        slots,
        conv,
        apmm,
        codes,
        y,
        res,
        stage_ns,
        ..
    } = ws;
    let n_mains = slots.len();
    let shard_n = input.rows();
    let mut classes = 0;

    // Chain/branch cursors: skip-projection stages read the saved branch
    // slot and park raw accumulators in `res` without advancing the chain,
    // so the consuming conv still sees the main path as its input (an
    // identity join reads the branch slot itself).
    let mut chain_idx: Option<usize> = None;
    let mut branch_idx: Option<usize> = None;

    let mut clock = Instant::now();
    for (mi, stage) in plan.main_stages().enumerate() {
        let last = mi + 1 == n_mains;
        let (done, rest) = slots.split_at_mut(mi);
        let slot = &mut rest[0];
        let is_skip = stage.input == StageSrc::Branch;
        let src_idx = if is_skip {
            Some(branch_idx.expect("skip stage before any saved branch"))
        } else {
            chain_idx
        };
        // This stage's input activation: the caller's for stage 0, a
        // finished stage's output slot afterwards.
        let cur = match src_idx {
            None => input,
            Some(i) => match &done[i] {
                SlotOut::Map(t) => ActInput::Map(t),
                SlotOut::Vector(v) => ActInput::Vec(v),
                SlotOut::None => unreachable!("only the output stage has no slot"),
            },
        };
        match (&stage.kernel, cur) {
            (MainKernel::Conv { prepared, .. }, ActInput::Map(map)) => {
                let prepared = prepared
                    .as_ref()
                    .unwrap_or_else(|| panic!("conv stage {mi} has no materialized weights"));
                if is_skip {
                    // Skip projection: raw i32 accumulators into the shared
                    // residual buffer — the consuming conv adds them before
                    // its fused tail. No packed output slot.
                    prepared.execute_into(map, conv, res);
                } else {
                    let SlotOut::Map(out_map) = slot else {
                        unreachable!("conv slots hold packed maps")
                    };
                    let residual = match stage.residual {
                        None => Residual::None,
                        Some(ResidualSrc::Projection) => Residual::Accs(res),
                        // The saved branch's codes are the integers to
                        // add: the tail reads them packed, in place.
                        Some(ResidualSrc::Identity) => {
                            let bi = branch_idx.expect("identity residual before any saved branch");
                            let SlotOut::Map(bmap) = &done[bi] else {
                                unreachable!("residual branches are packed maps")
                            };
                            Residual::Codes(bmap)
                        }
                    };
                    prepared.execute_fused_into(
                        map,
                        residual,
                        stage.pool,
                        stage.tail(),
                        conv,
                        out_map,
                    );
                }
            }
            (MainKernel::Conv { .. }, ActInput::Vec(_)) => {
                panic!("conv stage {mi} after flatten")
            }
            // A map is read in place: the kernel's K is the map's word
            // order (`PreparedApmm::for_map`).
            (MainKernel::Linear { prepared, .. }, v) => {
                let prepared = prepared
                    .as_ref()
                    .unwrap_or_else(|| panic!("linear stage {mi} has no materialized weights"));
                if last {
                    assert!(
                        stage.epi.output_bits().is_none(),
                        "output stage must not quantize (§5.1)"
                    );
                    // The output layer's affine is applied *outside* the
                    // engine (exact integer logits end to end — §5.1), so
                    // any non-quantizing epilogue ops are ignored here.
                    prepared.execute_into(v, apmm, y);
                    classes = prepared.desc.m;
                } else {
                    let SlotOut::Vector(out_vec) = slot else {
                        unreachable!("hidden linear slots hold packed vectors")
                    };
                    prepared.execute_fused_into(v, stage.tail(), apmm, codes, out_vec);
                }
            }
            (MainKernel::Baseline, _) => {
                unreachable!("executable_error rejected baseline stages")
            }
        }
        if !is_skip {
            chain_idx = Some(mi);
            if stage.save_branch {
                branch_idx = Some(mi);
            }
        }
        let now = Instant::now();
        stage_ns[mi] += now.duration_since(clock).as_nanos() as u64;
        clock = now;
    }
    (shard_n, classes)
}
