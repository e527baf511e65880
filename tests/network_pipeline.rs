//! Cross-crate integration: network-level properties — minimal-traffic
//! dataflow, fusion benefits, model-zoo orderings — on the simulated GPU.

use apnn_tc::nn::models::{alexnet, all_models, resnet18, vgg_variant};
use apnn_tc::nn::{simulate, simulate_with, NetPrecision};
use apnn_tc::sim::GpuSpec;

#[test]
fn apnn_w1a2_beats_fp32_and_fp16_on_every_model() {
    let spec = GpuSpec::rtx3090();
    for net in all_models() {
        let apnn = simulate(&net, NetPrecision::w1a2(), &spec, 8).total_s;
        for dense in [NetPrecision::Fp32, NetPrecision::Fp16] {
            let base = simulate(&net, dense, &spec, 8).total_s;
            assert!(
                apnn < base,
                "{}: APNN {apnn} not faster than {:?} {base}",
                net.name,
                dense
            );
        }
    }
}

#[test]
fn apnn_w1a2_beats_int8_on_the_compute_heavy_model() {
    // The paper's Table 2 shows APNN beating INT8 everywhere, but its
    // measured CUTLASS-INT8 was anomalously slow (slower than fp32). Our
    // int8 baseline is modeled at realistic efficiency, so we assert the
    // robust part of the claim: on the compute-dominated VGG, emulated w1a2
    // still wins outright (see DESIGN.md §6 for the discussion).
    let spec = GpuSpec::rtx3090();
    let net = vgg_variant();
    let apnn = simulate(&net, NetPrecision::w1a2(), &spec, 8).total_s;
    let int8 = simulate(&net, NetPrecision::Int8, &spec, 8).total_s;
    assert!(apnn < int8, "APNN {apnn} vs INT8 {int8}");
}

#[test]
fn apnn_beats_the_bnn_baseline_on_alexnet_and_vgg() {
    // Table 2: w1a2 with the paper's kernel designs outruns the prior-work
    // binary kernels on AlexNet and VGG despite doing 2x the bit-work.
    let spec = GpuSpec::rtx3090();
    for net in [alexnet(), vgg_variant()] {
        let apnn = simulate(&net, NetPrecision::w1a2(), &spec, 8).total_s;
        let bnn = simulate(&net, NetPrecision::Bnn, &spec, 8).total_s;
        assert!(apnn < bnn, "{}: {apnn} vs BNN {bnn}", net.name);
    }
}

#[test]
fn first_layer_dominates_apnn_latency() {
    // Fig. 9: the 8-bit-activation first layer is the hotspot.
    let spec = GpuSpec::rtx3090();
    let a = simulate(&alexnet(), NetPrecision::w1a2(), &spec, 8);
    assert!(
        a.first_main_share() > 0.5,
        "AlexNet {}",
        a.first_main_share()
    );
    let v = simulate(&vgg_variant(), NetPrecision::w1a2(), &spec, 8);
    assert!(v.first_main_share() > 0.3, "VGG {}", v.first_main_share());
    // And it is the single largest layer in both.
    for r in [&a, &v] {
        let shares = r.main_shares();
        let first = shares[0].1;
        assert!(shares.iter().all(|(_, s)| *s <= first + 1e-9));
    }
}

#[test]
fn fusion_reduces_network_latency_and_traffic() {
    let spec = GpuSpec::rtx3090();
    for net in all_models() {
        let fused = simulate_with(&net, NetPrecision::w1a2(), &spec, 8, true);
        let unfused = simulate_with(&net, NetPrecision::w1a2(), &spec, 8, false);
        assert!(
            fused.total_s < unfused.total_s,
            "{}: fusion did not help",
            net.name
        );
        assert!(fused.traffic_bytes() < unfused.traffic_bytes());
    }
}

#[test]
fn packed_dataflow_traffic_scales_down_with_activation_bits() {
    // §5.1: inter-layer activations at q bits vs 32-bit — lower q, less
    // traffic.
    let spec = GpuSpec::rtx3090();
    let net = vgg_variant();
    let t2 = simulate(&net, NetPrecision::Apnn { w: 1, a: 2 }, &spec, 8).traffic_bytes();
    let t8 = simulate(&net, NetPrecision::Apnn { w: 1, a: 8 }, &spec, 8).traffic_bytes();
    assert!(t2 < t8);
}

#[test]
fn throughput_grows_with_batch() {
    let spec = GpuSpec::rtx3090();
    let net = resnet18();
    let b8 = simulate(&net, NetPrecision::w1a2(), &spec, 8).throughput_fps();
    let b128 = simulate(&net, NetPrecision::w1a2(), &spec, 128).throughput_fps();
    assert!(b128 > b8, "batch 128 {b128} vs batch 8 {b8}");
}

#[test]
fn table3_precision_ladder_orders_correctly() {
    // Table 3: w1a2 < w2a2 < w2a8 in latency (more planes, more work).
    let spec = GpuSpec::rtx3090();
    let net = vgg_variant();
    let t12 = simulate(&net, NetPrecision::Apnn { w: 1, a: 2 }, &spec, 8).total_s;
    let t22 = simulate(&net, NetPrecision::Apnn { w: 2, a: 2 }, &spec, 8).total_s;
    let t28 = simulate(&net, NetPrecision::Apnn { w: 2, a: 8 }, &spec, 8).total_s;
    assert!(t12 < t22, "{t12} vs {t22}");
    assert!(t22 < t28, "{t22} vs {t28}");
}
