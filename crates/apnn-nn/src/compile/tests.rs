use apnn_bitpack::{BitPlanes, BitTensor4, Encoding, Layout, Tensor4};
use apnn_kernels::apconv::{ApConv, ConvDesc, ConvWeights};
use apnn_kernels::apmm::{Apmm, ApmmDesc};
use apnn_kernels::fusion::Epilogue;
use apnn_kernels::reference::{conv2d_i32, gemm_i32};
use apnn_sim::GpuSpec;

use super::*;
use crate::layer::LayerSpec as L;
use crate::net::Network;
use crate::precision::NetPrecision;

fn tiny_net() -> Network {
    Network::new("tiny", 3, 8, 8)
        .push(L::conv("c1", 8, 3, 1, 1))
        .push(L::BatchNorm)
        .push(L::Relu)
        .push(L::MaxPool {
            k: 2,
            stride: 2,
            pad: 0,
        })
        .push(L::QuantizeActs)
        .push(L::Flatten)
        .push(L::linear("fc", 5))
}

#[test]
fn sim_only_plans_have_no_weights() {
    let plan = CompiledNet::compile(&tiny_net(), NetPrecision::w1a2(), &CompileOptions::sim(4));
    assert!(!plan.is_executable());
    assert_eq!(plan.classes(), 5);
    assert_eq!(plan.main_stages().count(), 2);
}

#[test]
fn functional_plans_execute_end_to_end() {
    let plan = CompiledNet::compile(
        &tiny_net(),
        NetPrecision::w1a2(),
        &CompileOptions::functional(2, 7),
    );
    assert!(plan.is_executable());
    let codes = Tensor4::<u32>::from_fn(2, 3, 8, 8, Layout::Nhwc, |b, c, h, w| {
        ((b + 3 * c + 5 * h + 7 * w) % 256) as u32
    });
    let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
    let logits = plan.infer(&input);
    assert_eq!(logits.len(), 2 * 5);
    // Deterministic: same plan, same input, same logits.
    assert_eq!(plan.infer(&input), logits);
}

#[test]
fn sim_engine_matches_for_both_materializations() {
    let spec = GpuSpec::rtx3090();
    let net = tiny_net();
    let sim_only =
        CompiledNet::compile(&net, NetPrecision::w1a2(), &CompileOptions::sim(4)).report(&spec);
    let functional = CompiledNet::compile(
        &net,
        NetPrecision::w1a2(),
        &CompileOptions::functional(4, 1),
    )
    .report(&spec);
    assert_eq!(sim_only.total_s, functional.total_s);
    assert_eq!(sim_only.stages.len(), functional.stages.len());
}

#[test]
fn shards_cover_the_batch_with_one_remainder() {
    let plan = CompiledNet::compile(&tiny_net(), NetPrecision::w1a2(), &CompileOptions::sim(4));
    assert_eq!(plan.shards(0), vec![]);
    assert_eq!(plan.shards(3), vec![Shard { start: 0, len: 3 }]);
    assert_eq!(
        plan.shards(9),
        vec![
            Shard { start: 0, len: 4 },
            Shard { start: 4, len: 4 },
            Shard { start: 8, len: 1 },
        ]
    );
    // Exact multiples have no remainder shard.
    assert!(plan.shards(8).iter().all(|s| s.len == 4));
}

#[test]
fn workspace_reuse_is_bit_identical_across_shard_sizes() {
    let plan = CompiledNet::compile(
        &tiny_net(),
        NetPrecision::w1a2(),
        &CompileOptions::functional(4, 21),
    );
    let mut ws = plan.workspace();
    let mut out = Vec::new();
    // Interleave shard sizes (full, partial, single) through one
    // workspace; every call must match a fresh allocating infer.
    for n in [4usize, 1, 3, 4, 2] {
        let codes = Tensor4::<u32>::from_fn(n, 3, 8, 8, Layout::Nhwc, |b, c, h, w| {
            ((13 * b + 3 * c + 5 * h + 7 * w + n) % 256) as u32
        });
        let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
        plan.infer_into(&input, &mut ws, &mut out);
        assert_eq!(out, plan.infer(&input), "shard of {n}");
    }
}

#[test]
fn workspace_spec_reports_plan_sized_buffers() {
    let plan = CompiledNet::compile(
        &tiny_net(),
        NetPrecision::w1a2(),
        &CompileOptions::functional(2, 5),
    );
    let spec = plan.workspace_spec();
    assert_eq!(spec.stages.len(), plan.main_stages().count());
    // Conv stage: packed map out, two accumulator rows under the pool.
    let conv = &spec.stages[0];
    assert_eq!(conv.name, "c1");
    // 2 images × 2 bits × 4×4 pooled pixels × 1 padded channel word.
    assert_eq!(conv.out_bytes, 2 * 2 * 4 * 4 * 2 * 8);
    assert_eq!(conv.flat_bytes, 0);
    // Two 8-pixel × 8-channel accumulator rows, whatever the batch.
    assert_eq!(conv.acc_bytes, 2 * 8 * 8 * 4);
    // Output stage: no packed slot, flatten slot for the pooled map.
    let fc = &spec.stages[1];
    assert_eq!(fc.out_bytes, 0);
    assert!(fc.flat_bytes > 0);
    assert!(spec.scratch_bytes > 0);
    assert!(spec.total_bytes >= spec.scratch_bytes + conv.out_bytes);
}

#[test]
#[should_panic(expected = "workspace was built for")]
fn workspace_is_bound_to_its_plan() {
    let a = CompiledNet::compile(
        &tiny_net(),
        NetPrecision::w1a2(),
        &CompileOptions::functional(2, 5),
    );
    let b = CompiledNet::compile(
        &tiny_net(),
        NetPrecision::w1a2(),
        &CompileOptions::functional(4, 5),
    );
    let mut ws = a.workspace();
    let codes = Tensor4::<u32>::from_fn(2, 3, 8, 8, Layout::Nhwc, |_, _, _, _| 1);
    let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
    let mut out = Vec::new();
    b.infer_into(&input, &mut ws, &mut out);
}

#[test]
#[should_panic(expected = "not executable")]
fn sim_only_plans_have_no_workspace() {
    let plan = CompiledNet::compile(&tiny_net(), NetPrecision::w1a2(), &CompileOptions::sim(4));
    let _ = plan.workspace();
}

#[test]
fn pooled_batched_inference_is_bit_identical_across_pools_and_threads() {
    let plan = CompiledNet::compile(
        &tiny_net(),
        NetPrecision::w1a2(),
        &CompileOptions::functional(3, 17),
    );
    let n = 10;
    let codes = Tensor4::<u32>::from_fn(n, 3, 8, 8, Layout::Nhwc, |b, c, h, w| {
        ((17 * b + 3 * c + 5 * h + 7 * w) % 256) as u32
    });
    let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
    // Reference: image-by-image sequential inference.
    let mut want = Vec::new();
    for b in 0..n {
        want.extend(plan.infer(&input.batch_slice(b, 1)));
    }
    for pool_size in [1usize, 2, 8] {
        let pool = plan.workspace_pool(pool_size);
        let mut out = Vec::new();
        for threads in [1usize, 2, 4, 0] {
            // Repeat through the same pool: reuse must not leak state.
            for _ in 0..2 {
                plan.infer_batched_into(&input, &pool, threads, &mut out);
                assert_eq!(out, want, "pool {pool_size}, threads {threads}");
            }
        }
        let s = pool.stats();
        assert!(s.created <= pool_size, "pool overgrew: {s:?}");
        assert!(s.checkouts > 0);
    }
}

#[test]
fn batched_inference_matches_unsharded() {
    let plan = CompiledNet::compile(
        &tiny_net(),
        NetPrecision::w1a2(),
        &CompileOptions::functional(2, 9),
    );
    let n = 5; // not a multiple of the compiled batch
    let codes = Tensor4::<u32>::from_fn(n, 3, 8, 8, Layout::Nhwc, |b, c, h, w| {
        ((11 * b + 3 * c + 5 * h + 7 * w) % 256) as u32
    });
    let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
    let sharded = plan.infer_batched(&input);
    // Reference: image-by-image.
    let mut want = Vec::new();
    for b in 0..n {
        want.extend(plan.infer(&input.batch_slice(b, 1)));
    }
    assert_eq!(sharded, want);
}

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// Hand-built two-stage plan: conv(w1a2, fused quant) → linear(i32 out),
/// verified end-to-end against the naive oracles.
#[test]
fn tiny_net_matches_oracle_composition() {
    let mut seed = 31;
    let (batch, cin, hw) = (2, 4, 6);
    let cout = 5;
    let classes = 3;

    // Input: 2-bit codes.
    let codes = Tensor4::<u32>::from_fn(batch, cin, hw, hw, Layout::Nhwc, |_, _, _, _| {
        (lcg(&mut seed) as u32) % 4
    });
    let input = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);

    // Conv stage.
    let cdesc = ConvDesc::unsigned(batch, cin, hw, cout, 3, 1, 1, 1, 2);
    let wn = cout * 9 * cin;
    let wcodes: Vec<u32> = (0..wn).map(|_| (lcg(&mut seed) as u32) % 2).collect();
    let cweights = ConvWeights::from_codes(&cdesc, &wcodes);
    let epi = Epilogue::quantize(3.0, 0.0, 2);

    // Linear stage (consumes hw*hw*cout 2-bit features).
    let feats = hw * hw * cout;
    let ldesc = ApmmDesc::unsigned(classes, batch, feats, 1, 2);
    let lcodes: Vec<u32> = (0..classes * feats)
        .map(|_| (lcg(&mut seed) as u32) % 2)
        .collect();
    let lweights = BitPlanes::from_codes(&lcodes, classes, feats, 1, Encoding::ZeroOne);

    let mut plan = CompiledNet::hand_built("tiny", "hand-built", batch);
    plan.push_conv(ApConv::new(cdesc).prepare(cweights), None, epi.clone());
    plan.push_linear(Apmm::new(ldesc).prepare(lweights), Epilogue::none());
    let logits = plan.infer(&input);
    assert_eq!(logits.len(), batch * classes);
    assert_eq!(plan.classes(), classes);

    // Oracle composition: reference conv → quantize → reference gemm.
    let x_vals: Vec<i32> = {
        let mut v = vec![0i32; batch * hw * hw * cin];
        for b in 0..batch {
            for y in 0..hw {
                for x in 0..hw {
                    for c in 0..cin {
                        v[((b * hw + y) * hw + x) * cin + c] = codes.get(b, c, y, x) as i32;
                    }
                }
            }
        }
        v
    };
    let w_vals: Vec<i32> = wcodes.iter().map(|&c| c as i32).collect();
    let conv_out = conv2d_i32(&x_vals, &w_vals, batch, hw, hw, cin, cout, 3, 3, 1, 1);
    // Quantize per channel (co).
    let mut feat_codes = vec![0i32; batch * feats];
    for b in 0..batch {
        for y in 0..hw {
            for x in 0..hw {
                for co in 0..cout {
                    let acc = conv_out[((b * hw + y) * hw + x) * cout + co];
                    let code = epi.apply_to_code(acc, co) as i32;
                    feat_codes[b * feats + (y * hw + x) * cout + co] = code;
                }
            }
        }
    }
    let lw_vals: Vec<i32> = lcodes.iter().map(|&c| c as i32).collect();
    let want = gemm_i32(&lw_vals, &feat_codes, classes, batch, feats);
    // want is classes×batch; logits are batch×classes.
    for b in 0..batch {
        for cl in 0..classes {
            assert_eq!(logits[b * classes + cl], want[cl * batch + b]);
        }
    }
}

#[test]
fn flatten_orders_hwc() {
    let codes = Tensor4::<u32>::from_fn(1, 2, 2, 2, Layout::Nhwc, |_, c, h, w| {
        (c + 2 * (w + 2 * h)) as u32 % 4
    });
    let map = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
    let flat = flatten_map(&map);
    assert_eq!(flat.rows(), 1);
    assert_eq!(flat.cols(), 8);
    let got = flat.reconstruct_codes();
    for h in 0..2 {
        for w in 0..2 {
            for c in 0..2 {
                assert_eq!(got[(h * 2 + w) * 2 + c], codes.get(0, c, h, w));
            }
        }
    }
}

/// A pushed stage carries its prepared kernel: inference through the
/// hand-built plan re-prepares nothing and is deterministic.
#[test]
fn pushed_stages_are_prepared_and_deterministic() {
    let mut seed = 5;
    let desc = ApmmDesc::unsigned(3, 2, 10, 1, 2);
    let codes: Vec<u32> = (0..30).map(|_| (lcg(&mut seed) as u32) % 2).collect();
    let w = BitPlanes::from_codes(&codes, 3, 10, 1, Encoding::ZeroOne);
    let mut plan = CompiledNet::hand_built("fc", "hand-built", 2);
    plan.push_linear(Apmm::new(desc).prepare(w), Epilogue::none());
    assert!(plan.is_executable());

    let xc: Vec<u32> = (0..20).map(|_| (lcg(&mut seed) as u32) % 4).collect();
    let x = BitPlanes::from_codes(&xc, 2, 10, 2, Encoding::ZeroOne);
    let serving = apnn_kernels::stats::scope();
    assert_eq!(plan.infer(&x), plan.infer(&x));
    assert_eq!(serving.weight_prepares(), 0, "infer re-packed weights");
}

#[test]
#[should_panic(expected = "was prepared for batch 4, the plan serves batch 2")]
fn pushing_a_stage_prepared_for_another_batch_panics() {
    let desc = ApmmDesc::unsigned(3, 4, 10, 1, 2);
    let w = BitPlanes::from_codes(&[1u32; 30], 3, 10, 1, Encoding::ZeroOne);
    let mut plan = CompiledNet::hand_built("fc", "hand-built", 2);
    plan.push_linear(Apmm::new(desc).prepare(w), Epilogue::none());
}

/// A chain that is not provably monotone has no step table, so no kernel
/// can run it: the plan reports the stage instead of running a second tail.
#[test]
fn a_nan_batch_norm_stage_is_an_unmonotone_tail() {
    let cdesc = ConvDesc::unsigned(2, 4, 6, 5, 3, 1, 1, 1, 2);
    let cweights = ConvWeights::from_codes(&cdesc, &[1; 5 * 9 * 4]);
    // A negative variance: `√(var + ε)` is NaN.
    let (ones, zeros) = (vec![1.0; 5], vec![0.0; 5]);
    let epi = Epilogue::bn_relu_quant(ones, zeros.clone(), zeros, vec![-4.0; 5], 0.0, 3.0, 0.0, 8);
    let lweights = BitPlanes::from_codes(&[1; 3 * 180], 3, 180, 1, Encoding::ZeroOne);
    let mut plan = CompiledNet::hand_built("nan", "hand-built", 2);
    plan.push_conv(ApConv::new(cdesc).prepare(cweights), None, epi);
    let ldesc = ApmmDesc::unsigned(3, 2, 180, 1, 8);
    plan.push_linear(Apmm::new(ldesc).prepare(lweights), Epilogue::none());
    let err = plan.executable_error().unwrap_err();
    let name = "stage0".to_string();
    assert_eq!(err, CompileError::UnmonotoneTail { name });
    assert!(err.to_string().contains("not provably monotone"), "{err}");
}
