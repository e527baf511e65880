//! Arbitrary-Precision Matrix Multiplication — APMM (paper §4.1).
//!
//! `Y[m×n] = W[m×k] · Xᵀ[n×k]` where `W` carries `p`-bit and `X` `q`-bit
//! codes under arbitrary encodings. The kernel emulates the product with
//! `p·q` one-bit tensor-core passes, virtually batched into one large BMMA
//! (§4.1(a)), and performs the shift-add bit combination fused in shared
//! memory/registers (§4.1(b)).
//!
//! Three execution paths share one tiling:
//! * [`Apmm::execute`] — functional CPU compute (bit-serial words +
//!   popcount) through the one calling-thread driver, the "real" engine
//!   measured by the Criterion benches.
//! * [`Apmm::simulate`] — closed-form counter estimate priced by the
//!   `apnn-sim` cost model (fast, any problem size).
//! * [`simmap::run_functional`] — the tiled algorithm executed block-by-block
//!   through the simulator with real `bmma` fragment math; used by tests to
//!   prove the closed-form counters match the actual algorithm.

pub mod combine;
pub mod config;
pub mod cpu;
pub mod simmap;

pub use config::TileConfig;

use apnn_bitpack::{BitPlanes, Encoding, LanePanel, PopcntArm};
use apnn_sim::{GpuSpec, KernelReport};

use crate::autotune::{autotune, select_micro, MicroTile};
use crate::fusion::{Epilogue, Steps};
use crate::select::{plan, EmulationPlan};

/// Shape + precision description of one APMM problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApmmDesc {
    /// Output rows (weight rows).
    pub m: usize,
    /// Output columns (activation rows; `X` is stored N×K).
    pub n: usize,
    /// Reduction length.
    pub k: usize,
    /// Weight bits `p`.
    pub w_bits: u32,
    /// Activation bits `q`.
    pub x_bits: u32,
    /// Weight encoding.
    pub w_enc: Encoding,
    /// Activation encoding.
    pub x_enc: Encoding,
}

impl ApmmDesc {
    /// Both operands unsigned (`Case I`).
    pub fn unsigned(m: usize, n: usize, k: usize, p: u32, q: u32) -> Self {
        ApmmDesc {
            m,
            n,
            k,
            w_bits: p,
            x_bits: q,
            w_enc: Encoding::ZeroOne,
            x_enc: Encoding::ZeroOne,
        }
    }

    /// ±1 binary weights with unsigned `q`-bit activations — the `w1aq`
    /// configuration the paper evaluates most (`Case III`, or `Case II` when
    /// the activations are also ±1 one-bit).
    pub fn w1aq(m: usize, n: usize, k: usize, q: u32, x_enc: Encoding) -> Self {
        ApmmDesc {
            m,
            n,
            k,
            w_bits: 1,
            x_bits: q,
            w_enc: Encoding::PlusMinusOne,
            x_enc,
        }
    }

    /// Batched row extent `p·M` (§4.1(a)).
    #[inline]
    pub fn batched_m(&self) -> usize {
        self.w_bits as usize * self.m
    }

    /// Batched column extent `q·N`.
    #[inline]
    pub fn batched_n(&self) -> usize {
        self.x_bits as usize * self.n
    }

    /// The operator-selection plan for this problem (§3.2).
    pub fn plan(&self) -> EmulationPlan {
        plan(self.w_enc, self.x_enc)
    }

    /// K padded to the 128-bit fragment boundary.
    pub fn k_padded(&self) -> usize {
        apnn_bitpack::word::pad_to_bmma_k(self.k)
    }

    /// Total 1-bit tensor-core MACs the emulation performs
    /// (`p·q · M·N·K_pad` — the §3.1 cost analysis).
    pub fn emulated_macs(&self) -> u64 {
        self.w_bits as u64
            * self.x_bits as u64
            * self.m as u64
            * self.n as u64
            * self.k_padded() as u64
    }

    /// Validate that operand planes match this description.
    pub fn check_operands(&self, w: &BitPlanes, x: &BitPlanes) {
        assert_eq!(w.rows(), self.m, "weight rows");
        assert_eq!(w.cols(), self.k, "weight cols");
        assert_eq!(w.bits(), self.w_bits, "weight bits");
        assert_eq!(w.encoding(), self.w_enc, "weight encoding");
        assert_eq!(x.rows(), self.n, "activation rows");
        assert_eq!(x.cols(), self.k, "activation cols");
        assert_eq!(x.bits(), self.x_bits, "activation bits");
        assert_eq!(x.encoding(), self.x_enc, "activation encoding");
    }
}

/// Output of a fused APMM.
#[derive(Debug, Clone)]
pub enum FusedOutput {
    /// Raw 32-bit accumulators (output layer of a network).
    Int32(Vec<i32>),
    /// Quantized codes packed for the next layer, stored **transposed**
    /// (rows = n = batch, cols = m = features) so the consumer can use it as
    /// its activation operand directly — the minimal-traffic dataflow of
    /// §5.1.
    Packed(BitPlanes),
}

/// An APMM kernel instance: problem description + tile configuration.
#[derive(Debug, Clone)]
pub struct Apmm {
    /// Problem description.
    pub desc: ApmmDesc,
    /// Block tiling (autotuned unless overridden).
    pub tile: TileConfig,
}

impl Apmm {
    /// Create with an autotuned tile configuration (§4.3.2).
    pub fn new(desc: ApmmDesc) -> Self {
        let tile = autotune(desc.m, desc.n, desc.k, desc.w_bits, desc.x_bits);
        Apmm { desc, tile }
    }

    /// Create with an explicit tile configuration.
    pub fn with_tile(desc: ApmmDesc, tile: TileConfig) -> Self {
        Apmm { desc, tile }
    }

    /// Functional CPU execution: returns the row-major `m×n` i32 product of
    /// the decoded operands. Borrows both operands and builds a transient
    /// weight panel and scratch; serving loops [`Apmm::prepare`] once
    /// instead.
    pub fn execute(&self, w: &BitPlanes, x: &BitPlanes) -> Vec<i32> {
        self.desc.check_operands(w, x);
        let eplan = self.desc.plan();
        let panel = LanePanel::from_bitplanes(w);
        let sides = cpu::weight_sides(&panel, eplan, self.desc.k, self.desc.x_bits as usize);
        let (arm, micro) = (PopcntArm::detect(), select_micro(self.desc.n));
        let (mut col_sums, mut out) = (Vec::new(), Vec::new());
        cpu::apmm_exec(
            &self.desc,
            &panel,
            x,
            eplan,
            &sides,
            micro,
            arm,
            &mut col_sums,
            &mut out,
        );
        out
    }

    /// Functional CPU execution with a fused epilogue. When the epilogue
    /// ends in quantization the result is packed (transposed) for the next
    /// layer; otherwise the (epilogue-transformed, rounded) i32 accumulators
    /// are returned.
    pub fn execute_fused(&self, w: &BitPlanes, x: &BitPlanes, epi: &Epilogue) -> FusedOutput {
        let y = self.execute(w, x);
        finish_fused(y, self.desc.m, self.desc.n, epi)
    }

    /// Hoist every per-call invariant out of the serving loop: re-lay the
    /// packed weights out as the microkernel's lane panel (the only copy
    /// kept), fix the emulation plan, and precompute the weight-side
    /// correction vectors (§3.2's `W·J` sums). The result executes
    /// repeatedly without re-packing or re-planning.
    pub fn prepare(&self, weights: BitPlanes) -> PreparedApmm {
        assert_eq!(weights.rows(), self.desc.m, "weight rows");
        assert_eq!(weights.cols(), self.desc.k, "weight cols");
        assert_eq!(weights.bits(), self.desc.w_bits, "weight bits");
        assert_eq!(weights.encoding(), self.desc.w_enc, "weight encoding");
        crate::stats::count_weight_prepare();
        let plan = self.desc.plan();
        let panel = LanePanel::from_bitplanes(&weights);
        let w_sides = cpu::weight_sides(&panel, plan, self.desc.k, self.desc.x_bits as usize);
        let (arm, micro) = (PopcntArm::detect(), select_micro(self.desc.n));
        PreparedApmm {
            desc: self.desc,
            tile: self.tile,
            plan,
            micro,
            arm,
            panel,
            w_sides,
        }
    }

    /// Simulated-GPU latency report for the un-fused (i32 output) kernel.
    pub fn simulate(&self, spec: &GpuSpec) -> KernelReport {
        simmap::estimate(&self.desc, &self.tile, spec, None)
    }

    /// Simulated-GPU latency report with a fused epilogue.
    pub fn simulate_fused(&self, spec: &GpuSpec, epi: &Epilogue) -> KernelReport {
        simmap::estimate(&self.desc, &self.tile, spec, Some(epi))
    }
}

/// An APMM kernel compiled for serving: lane-interleaved weight panel +
/// emulation plan + correction vectors, all materialized once (§4.1 batched
/// emulation with the per-call setup hoisted out of the hot loop).
#[derive(Debug, Clone)]
pub struct PreparedApmm {
    /// Problem description (`n` is the *compiled* batch; calls may shard).
    pub desc: ApmmDesc,
    /// Block tiling chosen at compile time.
    pub tile: TileConfig,
    plan: EmulationPlan,
    micro: MicroTile,
    arm: PopcntArm,
    panel: LanePanel,
    /// [`cpu::weight_sides`] of `plan`.
    w_sides: Vec<[i32; apnn_bitpack::LANES]>,
}

impl PreparedApmm {
    /// The weight operand, in the microkernel's panel layout.
    pub fn weights(&self) -> &LanePanel {
        &self.panel
    }

    /// The operator-selection plan this kernel executes (the device plan
    /// of [`ApmmDesc::plan`] unless replaced by [`PreparedApmm::with_plan`]).
    pub fn plan(&self) -> EmulationPlan {
        self.plan
    }

    /// Replace the emulation plan — e.g. [`crate::select::plan_xor_only`]
    /// for Turing-class (XOR-only) targets — rebuilding the weight-side
    /// correction offsets the new plan's case consumes. Every plan is
    /// bit-identical.
    pub fn with_plan(mut self, plan: EmulationPlan) -> Self {
        self.w_sides = cpu::weight_sides(&self.panel, plan, self.desc.k, self.desc.x_bits as usize);
        self.plan = plan;
        self
    }

    /// The CPU microkernel row-block tile this plan executes with (chosen
    /// at prepare time by [`crate::autotune::select_micro`]; same accessor
    /// pair as [`crate::apconv::PreparedConv`]).
    pub fn micro(&self) -> MicroTile {
        self.micro
    }

    /// Replace the microkernel tile (bench sweeps, differential tests) —
    /// every value is bit-identical.
    pub fn with_micro(mut self, micro: MicroTile) -> Self {
        self.micro = micro;
        self
    }

    /// The popcount arm this plan's microkernel runs on (bound once at
    /// prepare time by [`PopcntArm::detect`]).
    pub fn arm(&self) -> PopcntArm {
        self.arm
    }

    /// Force a popcount arm (tests, benches, CI force-arm legs). An arm
    /// the CPU cannot run is clamped to the detected best; every arm is
    /// bit-identical.
    pub fn with_arm(mut self, arm: PopcntArm) -> Self {
        self.arm = arm.sanitized();
        self
    }

    /// Validate an activation operand shard (rows may be ≤ the compiled
    /// batch; everything else must match).
    fn check_acts(&self, x: &BitPlanes) {
        assert!(x.rows() <= self.desc.n, "activation rows exceed plan batch");
        assert_eq!(x.cols(), self.desc.k, "activation cols");
        assert_eq!(x.bits(), self.desc.x_bits, "activation bits");
        assert_eq!(x.encoding(), self.desc.x_enc, "activation encoding");
    }

    /// Row-major `m × x.rows()` i32 product, reusing every precomputed
    /// artifact. Allocating convenience over [`PreparedApmm::execute_into`].
    pub fn execute(&self, x: &BitPlanes) -> Vec<i32> {
        let mut out = Vec::new();
        self.execute_into(x, &mut cpu::ApmmScratch::default(), &mut out);
        out
    }

    /// [`PreparedApmm::execute`] with a fused epilogue (packed output when
    /// the chain quantizes).
    pub fn execute_fused(&self, x: &BitPlanes, epi: &Epilogue) -> FusedOutput {
        let y = self.execute(x);
        finish_fused(y, self.desc.m, x.rows(), epi)
    }

    /// Workspace form of [`PreparedApmm::execute`]: the raw
    /// `m × x.rows()` product lands in `out`, every intermediate lives in
    /// `scratch`, and — once the buffers have reached the plan's full-batch
    /// capacity — the call performs **zero heap allocations**.
    pub fn execute_into(&self, x: &BitPlanes, scratch: &mut cpu::ApmmScratch, out: &mut Vec<i32>) {
        self.check_acts(x);
        let cpu::ApmmScratch { col_sums, .. } = scratch;
        cpu::apmm_exec(
            &self.desc,
            &self.panel,
            x,
            self.plan,
            &self.w_sides,
            self.micro,
            self.arm,
            col_sums,
            out,
        );
    }

    /// Workspace form of [`PreparedApmm::execute_fused`] for quantizing
    /// chains, compiled into their step table `steps`: accumulators go
    /// through `scratch`, the transposed codes `steps` gives them through
    /// `codes`, and the packed next-layer operand is rebuilt in place in
    /// `out` (the output layer, which does not quantize, uses
    /// [`PreparedApmm::execute_into`]).
    pub fn execute_fused_into(
        &self,
        x: &BitPlanes,
        steps: &Steps,
        scratch: &mut cpu::ApmmScratch,
        codes: &mut Vec<u32>,
        out: &mut BitPlanes,
    ) {
        self.check_acts(x);
        let cpu::ApmmScratch { col_sums, acc } = scratch;
        cpu::apmm_exec(
            &self.desc,
            &self.panel,
            x,
            self.plan,
            &self.w_sides,
            self.micro,
            self.arm,
            col_sums,
            acc,
        );
        combine::quantize_pack_transposed_into(acc, self.desc.m, x.rows(), steps, codes, out);
    }
}

/// Apply a fused epilogue to raw `m×n` accumulators: packed (transposed)
/// output when the chain quantizes, epilogue-transformed i32 otherwise.
/// Single implementation shared by the ad-hoc and prepared paths.
fn finish_fused(mut y: Vec<i32>, m: usize, n: usize, epi: &Epilogue) -> FusedOutput {
    match epi.output_bits() {
        Some(bits) => FusedOutput::Packed(combine::quantize_pack_transposed(&y, m, n, epi, bits)),
        None => {
            if !epi.ops().is_empty() {
                for (idx, v) in y.iter_mut().enumerate() {
                    let channel = idx / n.max(1);
                    *v = epi.apply(*v, channel) as i32;
                }
            }
            FusedOutput::Int32(y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desc_helpers() {
        let d = ApmmDesc::unsigned(64, 256, 500, 2, 3);
        assert_eq!(d.batched_m(), 128);
        assert_eq!(d.batched_n(), 768);
        assert_eq!(d.k_padded(), 512);
        assert_eq!(d.emulated_macs(), 6 * 64 * 256 * 512);
    }

    #[test]
    fn new_autotunes() {
        let a = Apmm::new(ApmmDesc::unsigned(4096, 4096, 1024, 2, 2));
        assert_eq!((a.tile.bm, a.tile.bn), (128, 128));
    }

    #[test]
    fn prepared_matches_adhoc_and_serves_partial_batches() {
        let mut seed = 91u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let desc = ApmmDesc::w1aq(9, 8, 150, 2, Encoding::ZeroOne);
        let wv: Vec<i32> = (0..desc.m * desc.k)
            .map(|_| if next() % 2 == 0 { -1 } else { 1 })
            .collect();
        let w = BitPlanes::from_signed_binary(&wv, desc.m, desc.k);
        let xc: Vec<u32> = (0..desc.n * desc.k).map(|_| next() % 4).collect();
        let x = BitPlanes::from_codes(&xc, desc.n, desc.k, 2, Encoding::ZeroOne);

        let apmm = Apmm::new(desc);
        let adhoc = apmm.execute(&w, &x);
        let prepared = apmm.prepare(w);
        assert_eq!(prepared.execute(&x), adhoc);

        // A partial shard (smaller batch) reuses the same prepared weights.
        let half: Vec<u32> = xc[..desc.n / 2 * desc.k].to_vec();
        let x_half = BitPlanes::from_codes(&half, desc.n / 2, desc.k, 2, Encoding::ZeroOne);
        let got = prepared.execute(&x_half);
        for i in 0..desc.m {
            for j in 0..desc.n / 2 {
                assert_eq!(got[i * (desc.n / 2) + j], adhoc[i * desc.n + j]);
            }
        }
    }

    #[test]
    fn row_sums_build_once_at_prepare_never_at_execute() {
        // Mirrored Case III ({0,1} weights, ±1 activations) consumes the
        // W·J weight-row sums: `prepare` must build them exactly once and
        // `execute` must never rebuild them, while the ad-hoc entry point
        // rebuilds per call — the hoist the stats counter makes testable.
        let desc = ApmmDesc {
            m: 6,
            n: 5,
            k: 96,
            w_bits: 2,
            x_bits: 1,
            w_enc: Encoding::ZeroOne,
            x_enc: Encoding::PlusMinusOne,
        };
        let wc: Vec<u32> = (0..desc.m * desc.k).map(|i| (i % 4) as u32).collect();
        let w = BitPlanes::from_codes(&wc, desc.m, desc.k, 2, Encoding::ZeroOne);
        let xv: Vec<i32> = (0..desc.n * desc.k)
            .map(|i| if i % 3 == 0 { -1 } else { 1 })
            .collect();
        let x = BitPlanes::from_signed_binary(&xv, desc.n, desc.k);

        let apmm = Apmm::new(desc);
        let adhoc_scope = crate::stats::scope();
        let want = apmm.execute(&w, &x);
        let _ = apmm.execute(&w, &x);
        assert_eq!(
            adhoc_scope.row_sum_builds(),
            2,
            "the ad-hoc path rebuilds W·J on every call"
        );

        let prepare_scope = crate::stats::scope();
        let prepared = apmm.prepare(w);
        assert_eq!(prepare_scope.row_sum_builds(), 1, "one build per plan");
        assert_eq!(prepared.execute(&x), want);
        assert_eq!(prepared.execute(&x), want);
        assert_eq!(
            prepare_scope.row_sum_builds(),
            1,
            "execute must not rebuild W·J"
        );
    }

    #[test]
    fn prepared_into_paths_match_allocating_paths() {
        let mut seed = 77u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let desc = ApmmDesc::w1aq(7, 6, 140, 2, Encoding::ZeroOne);
        let wv: Vec<i32> = (0..desc.m * desc.k)
            .map(|_| if next() % 2 == 0 { -1 } else { 1 })
            .collect();
        let w = BitPlanes::from_signed_binary(&wv, desc.m, desc.k);
        let xc: Vec<u32> = (0..desc.n * desc.k).map(|_| next() % 4).collect();
        let x = BitPlanes::from_codes(&xc, desc.n, desc.k, 2, Encoding::ZeroOne);
        let prepared = Apmm::new(desc).prepare(w);

        let mut scratch = cpu::ApmmScratch::default();
        let mut out = Vec::new();
        prepared.execute_into(&x, &mut scratch, &mut out);
        assert_eq!(out, prepared.execute(&x));

        let epi = Epilogue::quantize(8.0, 0.0, 2);
        let mut codes = Vec::new();
        let mut packed = apnn_bitpack::BitPlanes::zeros(desc.n, desc.m, 2, Encoding::ZeroOne);
        let steps = Steps::build(&epi, desc.m).unwrap();
        prepared.execute_fused_into(&x, &steps, &mut scratch, &mut codes, &mut packed);
        let FusedOutput::Packed(want) = prepared.execute_fused(&x, &epi) else {
            panic!("expected packed output")
        };
        assert_eq!(packed.reconstruct_codes(), want.reconstruct_codes());
        assert_eq!(packed.rows(), want.rows());
        assert_eq!(packed.cols(), want.cols());
    }

    #[test]
    #[should_panic(expected = "weight rows")]
    fn operand_validation() {
        let d = ApmmDesc::unsigned(4, 4, 16, 1, 1);
        let w = BitPlanes::from_codes(&[0; 3 * 16], 3, 16, 1, Encoding::ZeroOne);
        let x = BitPlanes::from_codes(&vec![0; 4 * 16], 4, 16, 1, Encoding::ZeroOne);
        d.check_operands(&w, &x);
    }
}
