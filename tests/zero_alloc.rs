//! The zero-allocation steady-state contract (the tentpole acceptance
//! gate), in both execution shapes:
//!
//! 1. **Sequential**: once a plan's [`ExecWorkspace`] and output buffer are
//!    warm, every further `infer_into` call — full batch or any partial
//!    shard — performs **zero heap allocations**;
//! 2. **Parallel**: once a [`WorkspacePool`] has warmed to its population
//!    (and the persistent Rayon shim pool has spawned), every further
//!    `infer_batched_into` call — any request count, any thread count, any
//!    pool size in {1, 2, 8} — performs **zero heap allocations**, with
//!    shards fanning out across pool threads;
//!
//! for every servable zoo model × scheme.
//!
//! The instrument is a counting `#[global_allocator]`
//! ([`apnn_tc::kernels::stats::CountingAllocator`]): the counter is
//! process-wide, so an allocation sneaking onto *any* thread — including a
//! Rayon pool worker — fails the assertion. Everything runs in the single
//! test below — this binary must not host concurrent tests that allocate
//! while the scope is open.
//!
//! [`ExecWorkspace`]: apnn_tc::nn::compile::ExecWorkspace
//! [`WorkspacePool`]: apnn_tc::nn::WorkspacePool

use apnn_tc::bitpack::{BitPlanes, BitTensor4, Encoding, Layout, Tensor4};
use apnn_tc::kernels::apconv::cpu::ConvScratch;
use apnn_tc::kernels::apmm::cpu::ApmmScratch;
use apnn_tc::kernels::autotune::MicroTile;
use apnn_tc::kernels::stats::{alloc_scope, CountingAllocator};
use apnn_tc::kernels::{ApConv, Apmm, ApmmDesc, ConvDesc};
use apnn_tc::nn::models::servable_zoo;
use apnn_tc::nn::{CompileOptions, NetPrecision};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const BATCH: usize = 4;

fn packed_input(net_h: usize, net_w: usize, n: usize, salt: u64) -> BitTensor4 {
    let codes = Tensor4::<u32>::from_fn(n, 3, net_h, net_w, Layout::Nhwc, |b, c, h, w| {
        ((salt as usize + 13 * b + 3 * c + 5 * h + 7 * w) % 256) as u32
    });
    BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne)
}

#[test]
fn steady_state_inference_performs_zero_heap_allocations() {
    for net in servable_zoo() {
        for precision in [NetPrecision::w1a2(), NetPrecision::Apnn { w: 2, a: 2 }] {
            let plan = net.compile(precision, &CompileOptions::functional(BATCH, 77));
            let mut ws = plan.workspace();
            let mut out = Vec::new();

            // Inputs built *before* the scope opens; shard widths cover the
            // full batch, a partial shard and a single request.
            let inputs: Vec<BitTensor4> = [BATCH, 1, 3]
                .iter()
                .map(|&n| packed_input(net.input_h, net.input_w, n, n as u64))
                .collect();

            // First call per width warms `out` (and would surface any
            // sizing bug in the workspace itself).
            let mut want = Vec::new();
            for input in &inputs {
                plan.infer_into(input, &mut ws, &mut out);
                want.push(out.clone());
            }

            // Steady state: interleave every width twice more — zero
            // allocations, bit-identical logits.
            let scope = alloc_scope();
            for _ in 0..2 {
                for input in &inputs {
                    plan.infer_into(input, &mut ws, &mut out);
                }
            }
            assert_eq!(
                scope.allocations(),
                0,
                "{} @ {}: steady-state infer_into touched the allocator",
                net.name,
                precision.label()
            );
            for (input, want) in inputs.iter().zip(&want) {
                plan.infer_into(input, &mut ws, &mut out);
                assert_eq!(&out, want, "{} @ {}", net.name, precision.label());
            }

            // -- Parallel path: WorkspacePool + infer_batched_into. ------
            // Multi-shard request batch plus a partial remainder; thread
            // counts beyond the machine width are legal (shards just
            // queue).
            let big = packed_input(net.input_h, net.input_w, 2 * BATCH + 1, 5);
            let small = packed_input(net.input_h, net.input_w, 2, 6);
            let mut reference = Vec::new();
            plan.infer_batched_into(&big, &plan.workspace_pool(1), 1, &mut reference);
            for pool_size in [1usize, 2, 8] {
                let pool = plan.workspace_pool(pool_size);
                // Warm deterministically: force the full population into
                // existence (racing steady-state checkouts must never be
                // the first to create a workspace), then warm `out` and
                // the Rayon shim pool with one call per input.
                let slots: Vec<_> = (0..pool_size).map(|_| pool.checkout(&plan)).collect();
                drop(slots);
                for threads in [1usize, 2, 4] {
                    plan.infer_batched_into(&big, &pool, threads, &mut out);
                    plan.infer_batched_into(&small, &pool, threads, &mut out);
                }

                let scope = alloc_scope();
                for threads in [1usize, 2, 4] {
                    plan.infer_batched_into(&big, &pool, threads, &mut out);
                    plan.infer_batched_into(&small, &pool, threads, &mut out);
                    plan.infer_batched_into(&big, &pool, threads, &mut out);
                }
                assert_eq!(
                    scope.allocations(),
                    0,
                    "{} @ {}: parallel steady state touched the allocator (pool {pool_size})",
                    net.name,
                    precision.label()
                );
                assert_eq!(
                    out,
                    reference,
                    "{} @ {}: pooled logits drifted (pool {pool_size})",
                    net.name,
                    precision.label()
                );
                let stats = pool.stats();
                assert_eq!(
                    stats.created, pool_size,
                    "pool population must warm to its cap and stay there"
                );
            }
        }
    }

    // -- Branch slots and the shared residual buffer. ---------------------
    // The zoo loop above already proves ResNet18-Tiny's steady state is
    // allocation-free; this section pins *why* that holds: the workspace
    // spec pre-sizes the residual accumulators, so skip projections and
    // identity adds never grow a buffer at inference time.
    branch_and_residual_buffers_are_workspace_sized();

    // -- Kernel level: the lane-per-output microkernel paths. ------------
    // The popcount tile lives on the stack and the weight panel is built
    // at `prepare`, so the prepared APMM/APConv `execute_into` forms must
    // stay allocation-free from warm onward for *any* row block —
    // including ragged blocks (jb not dividing the column count) and
    // ragged row groups (m and cout not multiples of eight).
    tiled_kernel_paths_allocate_nothing_from_warm_onward();
}

fn branch_and_residual_buffers_are_workspace_sized() {
    let net = apnn_tc::nn::models::resnet18_tiny();
    let plan = net.compile(NetPrecision::w1a2(), &CompileOptions::functional(BATCH, 77));
    let spec = plan.workspace_spec();

    // Every skip projection ("…ds") computes raw accumulators straight into
    // the shared residual buffer — its only scratch demand is that buffer,
    // so its accounted accumulator bytes must be nonzero.
    let ds: Vec<_> = spec
        .stages
        .iter()
        .filter(|s| s.name.ends_with("ds"))
        .collect();
    assert_eq!(ds.len(), 3, "one skip projection per downsampling block");
    for s in &ds {
        assert!(
            s.acc_bytes > 0,
            "skip stage {} must account for its residual accumulators",
            s.name
        );
    }

    // A warm workspace built from that spec then runs the full residual
    // graph — branch re-reads, projection parks, identity decodes — with
    // zero heap traffic (single-model restatement of the zoo-wide gate).
    let mut ws = plan.workspace();
    let mut out = Vec::new();
    let input = packed_input(net.input_h, net.input_w, BATCH, 9);
    plan.infer_into(&input, &mut ws, &mut out);
    let want = out.clone();
    let scope = alloc_scope();
    plan.infer_into(&input, &mut ws, &mut out);
    assert_eq!(
        scope.allocations(),
        0,
        "warm residual execution touched the allocator"
    );
    assert_eq!(out, want);
}

fn tiled_kernel_paths_allocate_nothing_from_warm_onward() {
    let (m, n, k) = (9, 13, 500);
    let desc = ApmmDesc::unsigned(m, n, k, 2, 2);
    let w_codes: Vec<u32> = (0..m * k).map(|i| (i % 4) as u32).collect();
    let x_codes: Vec<u32> = (0..n * k).map(|i| ((i * 7) % 4) as u32).collect();
    let w = BitPlanes::from_codes(&w_codes, m, k, 2, Encoding::ZeroOne);
    let x = BitPlanes::from_codes(&x_codes, n, k, 2, Encoding::ZeroOne);
    let cdesc = ConvDesc::unsigned(2, 5, 8, 7, 3, 1, 1, 2, 2);
    let cw_codes: Vec<u32> = (0..cdesc.cout * 9 * cdesc.cin)
        .map(|i| (i % 4) as u32)
        .collect();
    let conv_w = apnn_tc::kernels::apconv::ConvWeights::from_codes(&cdesc, &cw_codes);
    let conv_in = packed_conv_input(&cdesc);

    for jb in [1usize, 3, 8] {
        let micro = MicroTile { jb };
        let apmm = Apmm::new(desc).prepare(w.clone()).with_micro(micro);
        let conv = ApConv::new(cdesc).prepare(conv_w.clone()).with_micro(micro);
        let mut scratch = ApmmScratch::default();
        let mut out = Vec::new();
        let mut cscratch = ConvScratch::default();
        let mut cout = Vec::new();
        // Warm: first call sizes every buffer.
        apmm.execute_into(&x, &mut scratch, &mut out);
        let want = out.clone();
        conv.execute_into(&conv_in, &mut cscratch, &mut cout);
        let cwant = cout.clone();

        let scope = alloc_scope();
        for _ in 0..3 {
            apmm.execute_into(&x, &mut scratch, &mut out);
            conv.execute_into(&conv_in, &mut cscratch, &mut cout);
        }
        assert_eq!(
            scope.allocations(),
            0,
            "tiled kernel paths touched the allocator (jb={jb})"
        );
        assert_eq!(out, want, "jb={jb}");
        assert_eq!(cout, cwant, "jb={jb}");
    }
}

fn packed_conv_input(desc: &ConvDesc) -> BitTensor4 {
    let codes = Tensor4::<u32>::from_fn(
        desc.batch,
        desc.cin,
        desc.h,
        desc.w,
        Layout::Nhwc,
        |b, c, h, w| ((3 * b + 5 * c + 7 * h + 11 * w) % (1 << desc.x_bits)) as u32,
    );
    BitTensor4::from_tensor(&codes, desc.x_bits, Encoding::ZeroOne)
}
