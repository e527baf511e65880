//! The tentpole contract: one compiled execution plan serves both engines.
//!
//! * A model-zoo network (VGG-Variant-Tiny, w1a2) compiled once runs
//!   *functionally* on `CpuEngine` and its logits match a naive
//!   layer-by-layer reference built from the plan's own initialization.
//! * The same lowering priced on `SimEngine` reproduces the pre-refactor
//!   `exec::simulate` numbers bit-for-bit, for every zoo model and
//!   precision scheme.
//! * Repeated `infer()` / `infer_batched()` calls reuse the compiled plan:
//!   no weight re-packing, no re-autotuning.

use apnn_tc::bitpack::{BitTensor4, Encoding, Layout, Tensor4};
use apnn_tc::kernels::reference::{conv2d_i32, gemm_i32};
use apnn_tc::kernels::stats;
use apnn_tc::nn::compile::{CompileOptions, CompiledNet, MainKernel};
use apnn_tc::nn::exec::legacy;
use apnn_tc::nn::models::{alexnet, resnet18, resnet18_tiny, vgg_variant, vgg_variant_tiny};
use apnn_tc::nn::{
    identity_join_groups, simulate, simulate_with, LayerPrecision, LayerSpec, MainOp, NetPrecision,
    Network, PrecisionSchedule, ResidualSrc, StageSrc,
};
use apnn_tc::sim::GpuSpec;

// Plan-reuse assertions use `stats::scope()` (thread-local deltas), so the
// tests in this binary run concurrently without perturbing each other —
// the guard/handle API exists precisely so parallel `cargo test` and serve
// workers don't corrupt each other's counters. A scope only sees its own
// thread, so preparation sneaking into `infer_batched`'s *pool threads*
// would escape it here; the CI matrix closes that gap by also running the
// suite with RAYON_NUM_THREADS=1, where the shim pool executes inline on
// this thread and any such regression lands in the scope.

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// Naive layer-by-layer execution of a functional plan: reference conv/gemm
/// oracles + the plan's own epilogues, no bit packing anywhere.
fn naive_reference(plan: &CompiledNet, input_codes: &Tensor4<u32>) -> Vec<i32> {
    let (batch, cin0, h0, w0) = input_codes.shape();
    // NHWC i32 activations.
    let mut x: Vec<i32> = {
        let mut v = vec![0i32; batch * h0 * w0 * cin0];
        for b in 0..batch {
            for y in 0..h0 {
                for xx in 0..w0 {
                    for c in 0..cin0 {
                        v[((b * h0 + y) * w0 + xx) * cin0 + c] =
                            input_codes.get(b, c, y, xx) as i32;
                    }
                }
            }
        }
        v
    };
    let (mut h, mut w) = (h0, w0);
    // Residual bookkeeping, mirroring the engine's branch slot and shared
    // raw-accumulator buffer: `branch` holds quantized codes saved by a
    // `save_branch` stage (plus their spatial dims); `pending` holds the
    // raw i32 accumulators a skip-projection stage parked for the next
    // residual consumer.
    let mut branch: Option<(Vec<i32>, usize, usize)> = None;
    let mut pending: Option<Vec<i32>> = None;
    let mains: Vec<_> = plan.main_stages().collect();
    let n_mains = mains.len();
    let mut logits = Vec::new();
    for (i, m) in mains.into_iter().enumerate() {
        let last = i + 1 == n_mains;
        let init = m.init.as_ref().expect("functional plan carries init");
        match (&m.kernel, &m.op) {
            (MainKernel::Conv { desc, .. }, _) => {
                let is_skip = m.input == StageSrc::Branch;
                let (src, sh, sw) = match (is_skip, &branch) {
                    (true, Some((codes, bh, bw))) => (codes, *bh, *bw),
                    (true, None) => panic!("skip conv before any saved branch"),
                    (false, _) => (&x, h, w),
                };
                let mut y = conv2d_i32(
                    src,
                    &init.w_vals,
                    batch,
                    sh,
                    sw,
                    desc.cin,
                    desc.cout,
                    desc.kh,
                    desc.kw,
                    desc.stride,
                    desc.pad,
                );
                if is_skip {
                    // Projection stages park raw accumulators for the next
                    // residual consumer and leave the chain untouched.
                    pending = Some(y);
                    continue;
                }
                // Residual add on the raw accumulators, before the fused
                // pool/epilogue — the engine's exact i32 ordering.
                match m.residual {
                    Some(ResidualSrc::Projection) => {
                        let r = pending.take().expect("projection without a skip stage");
                        assert_eq!(r.len(), y.len(), "projection shape mismatch");
                        for (a, rv) in y.iter_mut().zip(&r) {
                            *a += rv;
                        }
                    }
                    Some(ResidualSrc::Identity) => {
                        let (codes, ..) = branch.as_ref().expect("identity without a branch");
                        assert_eq!(codes.len(), y.len(), "identity shape mismatch");
                        for (a, rv) in y.iter_mut().zip(codes) {
                            *a += rv;
                        }
                    }
                    None => {}
                }
                let (mut oh, mut ow) = (desc.out_h(), desc.out_w());
                if m.pool.is_some() {
                    // Fused 2×2 max pool on the i32 accumulators (engine
                    // order: pool before the epilogue).
                    let (ph, pw) = (oh / 2, ow / 2);
                    let mut v = vec![0i32; batch * ph * pw * desc.cout];
                    for b in 0..batch {
                        for py in 0..ph {
                            for px in 0..pw {
                                for co in 0..desc.cout {
                                    let at = |dy: usize, dx: usize| {
                                        y[((b * oh + 2 * py + dy) * ow + 2 * px + dx) * desc.cout
                                            + co]
                                    };
                                    v[((b * ph + py) * pw + px) * desc.cout + co] =
                                        at(0, 0).max(at(0, 1)).max(at(1, 0)).max(at(1, 1));
                                }
                            }
                        }
                    }
                    y = v;
                    oh = ph;
                    ow = pw;
                }
                assert!(!last, "zoo nets end with a linear layer");
                // Quantizing epilogue → next layer's codes.
                x = y
                    .iter()
                    .enumerate()
                    .map(|(idx, &acc)| {
                        let co = idx % desc.cout;
                        m.epi.apply_to_code(acc, co) as i32
                    })
                    .collect();
                h = oh;
                w = ow;
                if m.save_branch {
                    // The branch slot re-reads this stage's quantized codes.
                    branch = Some((x.clone(), h, w));
                }
            }
            (MainKernel::Linear { desc, .. }, MainOp::Linear { in_features, .. }) => {
                assert_eq!(x.len(), batch * in_features);
                // x is batch-major (h,w,c)-flattened — exactly the layout
                // linear weights are packed against.
                let y = gemm_i32(&init.w_vals, &x, desc.m, batch, desc.k);
                if last {
                    // features×batch → batch×classes.
                    logits = vec![0i32; batch * desc.m];
                    for f in 0..desc.m {
                        for b in 0..batch {
                            logits[b * desc.m + f] = y[f * batch + b];
                        }
                    }
                } else {
                    // Quantize per output feature; stay batch-major.
                    let mut next = vec![0i32; batch * desc.m];
                    for f in 0..desc.m {
                        for b in 0..batch {
                            next[b * desc.m + f] = m.epi.apply_to_code(y[f * batch + b], f) as i32;
                        }
                    }
                    x = next;
                }
            }
            _ => unreachable!("kernel/op mismatch"),
        }
    }
    logits
}

#[test]
fn zoo_model_runs_functionally_and_matches_naive_reference() {
    let batch = 2;
    let net = vgg_variant_tiny();
    let plan = net.compile(
        NetPrecision::w1a2(),
        &CompileOptions::functional(batch, 2024),
    );
    assert!(plan.is_executable(), "tiny VGG must fully fuse");

    let mut seed = 77u64;
    let codes = Tensor4::<u32>::from_fn(batch, 3, 32, 32, Layout::Nhwc, |_, _, _, _| {
        (lcg(&mut seed) as u32) % 256
    });
    let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);

    let got = plan.infer(&input);
    let want = naive_reference(&plan, &codes);
    assert_eq!(got.len(), batch * 10);
    assert_eq!(
        got, want,
        "CpuEngine logits differ from the naive reference"
    );
    // The logits are informative (not saturated to a constant).
    assert!(got.iter().any(|&v| v != got[0]));
}

/// The tentpole differential: the residual zoo model — branch saves, a
/// stride-2 1×1 skip projection per downsampling block, identity adds
/// elsewhere — runs bit-identically to the naive oracle, which threads the
/// residual through an explicit branch buffer with the same exact-i32
/// requantization ordering (add raw accumulators, then pool, then
/// epilogue). Covers both served precisions.
#[test]
fn residual_zoo_model_matches_naive_reference() {
    for (precision, seed0) in [
        (NetPrecision::w1a2(), 101u64),
        (NetPrecision::Apnn { w: 2, a: 2 }, 202u64),
    ] {
        let batch = 2;
        let net = resnet18_tiny();
        let plan = net.compile(precision, &CompileOptions::functional(batch, 2021));
        assert!(plan.is_executable(), "ResNet18-Tiny must fully fuse");
        // The lowering actually exercises every residual form.
        let mains: Vec<_> = plan.main_stages().collect();
        assert!(mains.iter().any(|m| m.input == StageSrc::Branch));
        assert!(mains
            .iter()
            .any(|m| m.residual == Some(ResidualSrc::Projection)));
        assert!(mains
            .iter()
            .any(|m| m.residual == Some(ResidualSrc::Identity)));
        assert!(mains.iter().any(|m| m.save_branch));

        let mut seed = seed0;
        let codes = Tensor4::<u32>::from_fn(batch, 3, 32, 32, Layout::Nhwc, |_, _, _, _| {
            (lcg(&mut seed) as u32) % 256
        });
        let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);

        let got = plan.infer(&input);
        let want = naive_reference(&plan, &codes);
        assert_eq!(got.len(), batch * 10);
        assert_eq!(
            got,
            want,
            "residual CpuEngine logits differ from the naive reference at {}",
            precision.label()
        );
        assert!(got.iter().any(|&v| v != got[0]));

        // Sharded batched execution carries the branch/residual buffers too.
        let pool = plan.workspace_pool(2);
        let mut out = Vec::new();
        plan.infer_batched_into(&input, &pool, 2, &mut out);
        assert_eq!(out, want, "sharded residual execution diverged");
    }
}

/// A uniform [`PrecisionSchedule`] must lower to *the* uniform plan: same
/// scheme label, byte-identical stage lowering (packed weights, tiles,
/// corrections, epilogues), identical logits. This is the contract that
/// keeps every pre-schedule golden snapshot valid without regeneration.
#[test]
fn uniform_schedule_lowers_to_the_identical_plan() {
    let batch = 2;
    for net in [vgg_variant_tiny(), resnet18_tiny()] {
        let n = net.num_main_layers();
        let opts = CompileOptions::functional(batch, 2021);
        let uniform = net.compile(NetPrecision::Apnn { w: 2, a: 2 }, &opts);
        let scheduled = net.compile_scheduled(&PrecisionSchedule::uniform(2, 2, n), &opts);
        assert_eq!(uniform.scheme, scheduled.scheme);
        assert_eq!(
            format!("{:?}", uniform.stages()),
            format!("{:?}", scheduled.stages()),
            "{}: uniform schedule lowered differently from the uniform plan",
            net.name
        );
        let mut seed = 321u64;
        let codes = Tensor4::<u32>::from_fn(batch, 3, 32, 32, Layout::Nhwc, |_, _, _, _| {
            (lcg(&mut seed) as u32) % 256
        });
        let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
        assert_eq!(uniform.infer(&input), scheduled.infer(&input));
    }
}

/// Randomized mixed-precision differential: random per-layer `(w, a)`
/// schedules — including mixed residual blocks on the skip-topology model —
/// run bit-identically to the naive layer-by-layer oracle, on both the
/// sequential and the sharded batched path. Schedules are drawn from
/// `w ∈ {1, 2}`, `a ∈ {2, 3}` with the identity-join constraint repaired
/// (every join group shares one activation width), exactly the invariant
/// `compile_scheduled` enforces.
#[test]
fn random_mixed_schedules_match_naive_reference() {
    let batch = 2;
    for (net, rounds, seed0) in [(vgg_variant_tiny(), 3u64, 31u64), (resnet18_tiny(), 2, 47)] {
        let groups = identity_join_groups(&net);
        let n = net.num_main_layers();
        let mut seed = seed0;
        let mut informative = false;
        for round in 0..rounds {
            let mut layers: Vec<LayerPrecision> = (0..n)
                .map(|_| {
                    let w = 1 + (lcg(&mut seed) % 2) as u32;
                    let a = 2 + (lcg(&mut seed) % 2) as u32;
                    LayerPrecision::new(w, a)
                })
                .collect();
            for g in &groups {
                let a = layers[g[0]].a;
                for &m in g {
                    layers[m].a = a;
                }
            }
            // Keep the draw genuinely mixed (a weight flip never violates
            // the join constraint, which binds activation bits only).
            if layers.iter().all(|l| *l == layers[0]) {
                layers[0].w = 3 - layers[0].w;
            }
            let schedule = PrecisionSchedule::new(layers);
            let plan =
                net.compile_scheduled(&schedule, &CompileOptions::functional(batch, 9000 + round));
            assert!(plan.is_executable(), "{} must fully fuse", net.name);
            assert!(plan.scheme.starts_with("APNN-mixed-"), "{}", plan.scheme);

            let codes = Tensor4::<u32>::from_fn(batch, 3, 32, 32, Layout::Nhwc, |_, _, _, _| {
                (lcg(&mut seed) as u32) % 256
            });
            let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
            let got = plan.infer(&input);
            let want = naive_reference(&plan, &codes);
            assert_eq!(
                got, want,
                "{} {}: mixed CpuEngine logits differ from the naive reference",
                net.name, plan.scheme
            );
            // A single aggressive low-bit draw can saturate to constant
            // logits; the differential still holds, but at least one draw
            // per model must stay informative.
            informative |= got.iter().any(|&v| v != got[0]);

            let pool = plan.workspace_pool(2);
            let mut out = Vec::new();
            plan.infer_batched_into(&input, &pool, 2, &mut out);
            assert_eq!(out, want, "sharded mixed execution diverged");
        }
        assert!(informative, "{}: every mixed draw saturated", net.name);
    }
}

#[test]
fn sim_engine_reproduces_prerefactor_simulate_exactly() {
    let spec = GpuSpec::rtx3090();
    let schemes = [
        NetPrecision::Fp32,
        NetPrecision::Fp16,
        NetPrecision::Int8,
        NetPrecision::Bnn,
        NetPrecision::w1a2(),
        NetPrecision::Apnn { w: 2, a: 2 },
    ];
    for net in [alexnet(), vgg_variant(), resnet18(), vgg_variant_tiny()] {
        for precision in schemes {
            let new = simulate(&net, precision, &spec, 8);
            let old = legacy::simulate(&net, precision, &spec, 8);
            assert_eq!(
                new.total_s,
                old.total_s,
                "{} {}: compiled {} vs legacy {}",
                net.name,
                precision.label(),
                new.total_s,
                old.total_s
            );
            assert_eq!(new.stages.len(), old.stages.len());
            for (a, b) in new.stages.iter().zip(&old.stages) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.time_s, b.time_s, "stage {} of {}", a.name, net.name);
                assert_eq!(a.global_bytes, b.global_bytes);
                assert_eq!(a.macs, b.macs);
            }
        }
        // The Fig. 10 ablation flag round-trips too.
        for fuse in [true, false] {
            let new = simulate_with(&net, NetPrecision::w1a2(), &spec, 8, fuse);
            let old = legacy::simulate_with(&net, NetPrecision::w1a2(), &spec, 8, fuse);
            assert_eq!(new.total_s, old.total_s);
        }
    }
}

#[test]
fn repeated_inference_reuses_the_compiled_plan() {
    let batch = 2;
    let plan =
        vgg_variant_tiny().compile(NetPrecision::w1a2(), &CompileOptions::functional(batch, 55));

    let mut seed = 9u64;
    let codes = Tensor4::<u32>::from_fn(batch, 3, 32, 32, Layout::Nhwc, |_, _, _, _| {
        (lcg(&mut seed) as u32) % 256
    });
    let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);

    let serving = stats::scope();
    let first = plan.infer(&input);
    let second = plan.infer(&input);
    assert_eq!(first, second);
    // Serving reuses every compiled artifact: no re-autotuning (GPU tiles
    // *or* CPU microkernel tiles), no weight re-packing, no
    // correction-vector rebuilds in the hot loop.
    assert_eq!(serving.autotune_calls(), 0, "infer re-autotuned");
    assert_eq!(serving.micro_tunes(), 0, "infer re-tuned the microkernel");
    assert_eq!(serving.weight_prepares(), 0, "infer re-packed weights");
    assert_eq!(serving.row_sum_builds(), 0, "infer rebuilt W·J row sums");
    // The workspace path reuses them too.
    let mut ws = plan.workspace();
    let mut out = Vec::new();
    plan.infer_into(&input, &mut ws, &mut out);
    assert_eq!(out, first);
    assert_eq!(serving.row_sum_builds(), 0, "infer_into rebuilt row sums");
    assert_eq!(serving.weight_prepares(), 0);

    // Batched serving over the Rayon pool reuses the plan too.
    let big_codes = Tensor4::<u32>::from_fn(5, 3, 32, 32, Layout::Nhwc, |_, _, _, _| {
        (lcg(&mut seed) as u32) % 256
    });
    let big = BitTensor4::from_tensor(&big_codes, 8, Encoding::ZeroOne);
    let logits = plan.infer_batched(&big);
    assert_eq!(logits.len(), 5 * 10);
    assert_eq!(serving.autotune_calls(), 0);
    assert_eq!(serving.weight_prepares(), 0);

    // Sanity: compiling *does* move the counters (the scope is not inert).
    let compiling = stats::scope();
    let plan2 =
        vgg_variant_tiny().compile(NetPrecision::w1a2(), &CompileOptions::functional(batch, 56));
    assert!(compiling.weight_prepares() > 0);
    assert!(compiling.autotune_calls() > 0);
    // CPU-microkernel tile selection is memoized by layer shape (and
    // popcount arm): every shape in this network was already selected when
    // `plan` compiled above, so the recompile re-selects nothing.
    assert_eq!(
        compiling.micro_tunes(),
        0,
        "recompiling known shapes re-selected the row block"
    );
    // A first-seen layer shape *does* pay exactly one selection per main
    // stage — this throwaway network's shapes are unique to this test (a
    // conv's key is its reduction width, so the probe uses a 4×4 kernel no
    // zoo model has).
    let fresh = stats::scope();
    let plan3 = Network::new("memo-probe", 3, 26, 26)
        .push(LayerSpec::conv("c1", 21, 4, 1, 1))
        .push(LayerSpec::Relu)
        .push(LayerSpec::QuantizeActs)
        .push(LayerSpec::Flatten)
        .push(LayerSpec::linear("fc2", 11))
        .compile(NetPrecision::w1a2(), &CompileOptions::functional(batch, 57));
    assert_eq!(
        fresh.micro_tunes(),
        plan3.main_stages().count() as u64,
        "one tile selection per first-seen layer shape"
    );
    // The per-layer tile *and* popcount arm are surfaced in the plan's
    // debug output.
    assert!(
        format!("{plan2:?}").contains("MicroTile"),
        "plans surface the microkernel tile in debug output"
    );
    assert!(
        format!("{plan2:?}").contains("arm:"),
        "plans surface the popcount arm in debug output"
    );
    // w1a2 (±1 weights, {0,1} activations) corrects with *activation*
    // column sums — input-dependent, computed in scratch per call — so
    // compilation builds no weight-side W·J vectors for it. Schemes that
    // do need them (±1 activations, Turing XOR-only plans) are covered by
    // the prepare-once counter test in `apnn-kernels`.
    assert_eq!(compiling.row_sum_builds(), 0);
}

#[test]
fn one_plan_prices_and_executes() {
    // The same CompiledNet object drives both engines.
    let spec = GpuSpec::rtx3090();
    let batch = 2;
    let plan =
        vgg_variant_tiny().compile(NetPrecision::w1a2(), &CompileOptions::functional(batch, 3));

    let report = plan.report(&spec);
    assert_eq!(report.scheme, "APNN-w1a2");
    assert!(report.total_s > 0.0);
    assert_eq!(
        report.stages.len(),
        plan.stages().len(),
        "every plan stage is priced"
    );

    let mut seed = 4u64;
    let codes = Tensor4::<u32>::from_fn(batch, 3, 32, 32, Layout::Nhwc, |_, _, _, _| {
        (lcg(&mut seed) as u32) % 256
    });
    let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
    let logits = plan.infer(&input);
    assert_eq!(logits.len(), batch * plan.classes());
}
