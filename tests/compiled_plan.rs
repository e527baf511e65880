//! The tentpole contract: one compiled execution plan is both run and
//! priced.
//!
//! * A model-zoo network (VGG-Variant-Tiny, w1a2) compiled once runs
//!   *functionally* and its logits match a naive layer-by-layer reference
//!   built from the plan's own initialization.
//! * The same lowering priced on the simulator reproduces the committed
//!   golden prices (`tests/golden/sim_prices.txt`) bit-for-bit, for every
//!   zoo model and precision scheme.
//! * Repeated `infer()` / `infer_batched()` calls reuse the compiled plan:
//!   no weight re-packing, no re-autotuning.

use apnn_tc::bitpack::{BitTensor4, Encoding, Layout, Tensor4};
use apnn_tc::kernels::reference::{conv2d_i32, gemm_i32};
use apnn_tc::kernels::stats;
use apnn_tc::nn::compile::{CompileOptions, CompiledNet, MainKernel};
use apnn_tc::nn::models::{
    alexnet, resnet18, resnet18_tiny, servable_zoo, vgg_variant, vgg_variant_tiny,
};
use apnn_tc::nn::{
    identity_join_groups, simulate, simulate_with, LayerPrecision, MainOp, NetPrecision,
    PrecisionSchedule, ResidualSrc, StageSrc,
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
    assert_eq!(got, want, "plan logits differ from the naive reference");
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
            "residual plan logits differ from the naive reference at {}",
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
                "{} {}: mixed plan logits differ from the naive reference",
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

/// ROADMAP aim 3, where the space is finite: the integer step table every
/// quantizing stage runs ([`MainStage::steps`]) against the scalar chain it
/// was compiled from (`Epilogue::apply_to_code` — the only definition of a
/// code), for **every** accumulator the stage can produce: `±k·(2^p − 1)(2^q
/// − 1)` from its kernel plus its residual's range, on every channel of
/// every stage of every plan the benchmark serves. The w2a8 plans — 255
/// thresholds per channel over a reach of up to ~10⁶ — are checked on every
/// channel at each threshold ±2, at both ends of the reach and on a strided
/// sweep between.
#[test]
fn steps_equal_the_scalar_chain_on_every_reachable_accumulator() {
    let opts = CompileOptions::functional(2, 2021);
    let (mut evaluated, mut sampled) = (0u64, 0u64);
    for net in servable_zoo() {
        let mut mixed = vec![LayerPrecision::new(1, 3); net.num_main_layers() - 1];
        mixed.push(LayerPrecision::new(1, 2));
        let plans = [
            net.compile(NetPrecision::w1a2(), &opts),
            net.compile(NetPrecision::Apnn { w: 2, a: 2 }, &opts),
            net.compile_scheduled(&PrecisionSchedule::new(mixed), &opts),
            net.compile(NetPrecision::Apnn { w: 2, a: 8 }, &opts),
        ];
        for plan in &plans {
            // What the open residual block can add: the parked projection's
            // own reach, or the saved branch's largest code.
            let (mut skip_reach, mut branch_top) = (0i32, 0i32);
            for m in plan.main_stages() {
                let per_mac = |w: u32, x: u32| ((1i32 << w) - 1) * ((1i32 << x) - 1);
                let (channels, reach) = match &m.kernel {
                    MainKernel::Conv { desc, .. } => (
                        desc.cout,
                        desc.k_valid() as i32 * per_mac(desc.w_bits, desc.x_bits),
                    ),
                    MainKernel::Linear { desc, .. } => {
                        (desc.m, desc.k as i32 * per_mac(desc.w_bits, desc.x_bits))
                    }
                    MainKernel::Baseline => unreachable!("functional zoo plans are emulated"),
                };
                if m.input == StageSrc::Branch {
                    skip_reach = reach;
                    continue;
                }
                let Some(bits) = m.epi.output_bits() else {
                    assert!(m.steps.is_none(), "the output layer has no codes");
                    continue;
                };
                let reach = reach
                    + match m.residual {
                        Some(ResidualSrc::Projection) => skip_reach,
                        Some(ResidualSrc::Identity) => branch_top,
                        None => 0,
                    };
                if m.save_branch {
                    branch_top = (1 << bits) - 1;
                }
                let steps = m.steps.as_ref().unwrap_or_else(|| {
                    panic!("{} {} {}: no step table", net.name, plan.scheme, m.name)
                });
                assert_eq!((steps.bits(), steps.channels()), (bits, channels));
                for ch in 0..channels {
                    let check = |acc: i32| {
                        let (got, want) = (steps.code(acc, ch), m.epi.apply_to_code(acc, ch));
                        assert_eq!(
                            got, want,
                            "{} {} {} channel {ch} accumulator {acc}: table vs chain",
                            net.name, plan.scheme, m.name
                        );
                    };
                    if bits <= 4 {
                        (-reach..=reach).for_each(check);
                        evaluated += 2 * reach as u64 + 1;
                        continue;
                    }
                    let (lane, rows) = (ch % 16, &steps.rows()[(ch / 16) << bits..][..1 << bits]);
                    let flip = rows[0][lane];
                    let mut accs: Vec<i32> = rows[1..]
                        .iter()
                        .flat_map(|t| (-2..=2).map(move |d| t[lane].saturating_add(d) ^ flip))
                        .filter(|acc| acc.abs() <= reach)
                        .collect();
                    accs.extend([-reach, reach]);
                    accs.extend((-reach..=reach).step_by((reach as usize / 256).max(1)));
                    sampled += accs.len() as u64;
                    accs.into_iter().for_each(check);
                }
            }
        }
    }
    assert!(
        evaluated > 10_000_000,
        "only {evaluated} accumulators checked"
    );
    assert!(sampled > 500_000, "only {sampled} sampled");
}

/// Golden snapshot of the simulator's prices: model × scheme × stage →
/// `time_s` bits, traffic and MACs at batch 8, plus the Fig. 10 fusion
/// ablation totals. The file was generated at the commit that still carried
/// the pre-refactor direct-dispatch simulator and asserted equality with
/// it, so matching the file *is* reproducing that simulator. Re-pin only
/// deliberately (`REGEN_GOLDEN=1`).
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
    let mut rows = Vec::new();
    for net in [alexnet(), vgg_variant(), resnet18(), vgg_variant_tiny()] {
        for precision in schemes {
            let report = simulate(&net, precision, &spec, 8);
            for s in &report.stages {
                rows.push(format!(
                    "{}\t{}\t{}\t{:016x}\t{}\t{}",
                    net.name,
                    report.scheme,
                    s.name,
                    s.time_s.to_bits(),
                    s.global_bytes,
                    s.macs
                ));
            }
        }
        // The Fig. 10 ablation flag, as whole-network totals.
        for fuse in [true, false] {
            let report = simulate_with(&net, NetPrecision::w1a2(), &spec, 8, fuse);
            rows.push(format!(
                "{}\t{}\tfuse={fuse}\t{:016x}\t{}\t-",
                net.name,
                report.scheme,
                report.total_s.to_bits(),
                report.traffic_bytes()
            ));
        }
    }
    let path = format!("{}/tests/golden/sim_prices.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let header = "# golden simulator prices (RTX 3090, batch 8), tab-separated:\n\
                      # model, scheme, stage, time_s bits (hex), global bytes, MACs;\n\
                      # `fuse=` rows are whole-network w1a2 totals (time bits, traffic).\n";
        std::fs::write(&path, header.to_string() + &rows.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path}: {e}"));
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(rows.len(), want.len(), "stage count drifted from {path}");
    for (got, want) in rows.iter().zip(want) {
        assert_eq!(
            got, want,
            "simulator price drifted from {path} (REGEN_GOLDEN=1 to re-pin intentionally)"
        );
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
    // CPU-microkernel tile selection is a closed form of the stage's
    // dynamic extent: one selection per main stage on every compile.
    assert_eq!(
        compiling.micro_tunes(),
        plan2.main_stages().count() as u64,
        "one tile selection per main stage"
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

/// A plan is a pure function of `(network, precision, seed)`: the CPU
/// microkernel tile bound into every main stage is the closed form of that
/// stage's dynamic extent (`out_w` for conv, the compiled batch for
/// linear) — nothing timed, nothing remembered — so a plan's `Debug`
/// output is the same on every machine and every run.
#[test]
fn compiled_plans_are_reproducible() {
    use apnn_tc::kernels::autotune::select_micro;
    let batch = 8;
    for net in servable_zoo() {
        for precision in [NetPrecision::w1a2(), NetPrecision::Apnn { w: 2, a: 2 }] {
            let plan = net.compile(precision, &CompileOptions::functional(batch, 2021));
            for m in plan.main_stages() {
                let (bound, extent) = match &m.kernel {
                    MainKernel::Conv {
                        desc,
                        prepared: Some(p),
                        ..
                    } => (p.micro(), desc.out_w()),
                    MainKernel::Linear {
                        prepared: Some(p), ..
                    } => (p.micro(), batch),
                    _ => unreachable!("functional zoo plans are fully materialized"),
                };
                assert_eq!(
                    bound,
                    select_micro(extent),
                    "{} {} stage {}: tile is not the closed form of extent {extent}",
                    net.name,
                    plan.scheme,
                    m.name
                );
            }
        }
    }
}

#[test]
fn one_plan_prices_and_executes() {
    // The same CompiledNet object is priced and run.
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
